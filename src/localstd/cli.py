"""Command-line interface.

Exit codes: 0 success, 2 parse error (also argparse usage errors), 3 wrong or
ill-defined monomial order, 4 non-isolated singular/critical point, 5 step
budget exceeded, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from functools import partial

from . import __version__
from .engines import (OrderClassError, PolySet, StepBudgetExceeded, buchberger,
                      standard_basis)
from .invariants import (NonIsolatedError, milnor_fused, milnor_global,
                         milnor_local, tyurina_fused, tyurina_global,
                         tyurina_local)
from .orders import OrderDefinitionError, grevlex, neg_grevlex, parse_order
from .parser import ParseError, parse_poly
from .poly import VarCtx
from .singularities import (ADJACENCY_KINDS, SingularityClass,
                            adjacency_target, build_versal_family,
                            classify_simple, hessian_corank, milnor_orlik,
                            sample_witness, special_adjacency_family,
                            stratum_catalog, verify_stratum, weight_vector)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_ORDER = 3
EXIT_NON_ISOLATED = 4
EXIT_BUDGET = 5

# (exception types, exit code, stderr prefix); the first match wins.
_ERRORS = [
    (ParseError, EXIT_PARSE, "parse error: "),
    ((OrderClassError, OrderDefinitionError), EXIT_ORDER, "order error: "),
    (NonIsolatedError, EXIT_NON_ISOLATED, ""),
    (StepBudgetExceeded, EXIT_BUDGET, ""),
    ((ValueError, KeyError, ArithmeticError, RuntimeError, OSError), EXIT_ERROR,
     "error: "),
]


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="localstd",
        description="Milnor/Tyurina numbers via Groebner bases (global orders) "
                    "and Mora standard bases (local orders), with an Arnol'd "
                    "A/D/E singularity toolkit.")
    ap.add_argument("--version", action="version", version="localstd " + __version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_poly_command(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("poly", nargs="?", help="polynomial expression "
                       "(generators split on ';' for basis commands)")
        p.add_argument("--file", help="read the expression from a file")
        p.add_argument("--vars", required=True,
                       help="comma-separated working variables")
        p.add_argument("--params", default="",
                       help="comma-separated symbolic parameters")
        p.add_argument("--order", action="append", default=None,
                       help="monomial order spelling: grevlex, lex, "
                            "neg-grevlex, neg-lex, weighted:w1,...:tiebreak; "
                            "an optional :v1,v2,... suffix gives the "
                            "significance order.  Fused commands accept the "
                            "flag twice (local first, then global).")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--step-budget", type=int, default=None,
                       help="reduction step budget (default 10^6)")
        return p

    for name, help_, func in [
            ("parse", "parse and echo the canonical form", _cmd_parse),
            ("groebner", "Groebner basis of ';'-separated generators",
             partial(_cmd_basis, False)),
            ("std-basis", "Mora standard basis of ';'-separated generators",
             partial(_cmd_basis, True)),
            ("milnor", "Milnor number of the origin (local order)",
             partial(_cmd_invariant, milnor_local)),
            ("tyurina", "Tyurina number of the origin (local order)",
             partial(_cmd_invariant, tyurina_local)),
            ("poly-milnor", "Milnor number of the polynomial (global order)",
             partial(_cmd_invariant, milnor_global)),
            ("poly-tyurina", "Tyurina number of the polynomial (global order)",
             partial(_cmd_invariant, tyurina_global)),
            ("milnor-fused", "global run plus local run, Milnor",
             partial(_cmd_fused, milnor_fused)),
            ("tyurina-fused", "global run plus local run, Tyurina",
             partial(_cmd_fused, tyurina_fused)),
            ("classify", "Arnol'd class of the singular point at the origin",
             _cmd_classify),
            ("deform", "versal deformation family from the Tyurina basis",
             _cmd_deform),
            ("milnor-orlik", "Milnor number from rational weights",
             _cmd_milnor_orlik),
    ]:
        add_poly_command(name, help_).set_defaults(func=func)

    p = sub.add_parser("strata", help="stratification catalog of a class")
    p.add_argument("cls", help="singularity class, e.g. D6, E7")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_strata)

    p = sub.add_parser("verify-stratum", help="verify a stratum at a witness")
    p.add_argument("cls", help="singularity class, e.g. E6")
    p.add_argument("stratum", help="stratum name as listed by 'strata'")
    p.add_argument("--witness", default=None,
                   help="comma-separated name=rational assignments; "
                        "omit to sample a seeded random witness")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--step-budget", type=int, default=None)
    p.set_defaults(func=_cmd_verify_stratum)

    p = sub.add_parser("adjacency", help="special 1-parameter adjacency family")
    p.add_argument("kind", help="one of: %s" % ", ".join(ADJACENCY_KINDS))
    p.add_argument("--n", type=int, default=None, help="D index for a-from-d")
    p.add_argument("--t", default=None,
                   help="comma-separated rational values to classify at")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_adjacency)
    return ap


def _load_source(args) -> str:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return fh.read()
    if args.poly is None:
        raise ParseError("no polynomial given (positional or --file)", 0)
    return args.poly


def _context(args) -> VarCtx:
    variables = [v.strip() for v in args.vars.split(",") if v.strip()]
    params = [p.strip() for p in args.params.split(",") if p.strip()]
    return VarCtx(variables, params)


def _orders(args, ctx, want: int):
    specs = args.order or []
    if len(specs) > want:
        raise OrderDefinitionError("too many --order flags (at most %d)" % want)
    return [parse_order(s, ctx.variables) for s in specs]


def _frac(text: str) -> Fraction:
    return Fraction(text.strip())


def _emit(args, payload, human: str, invocation=None):
    """Write the JSON document or the human text; invocation defaults to the
    command, the version and the --vars/--params given."""
    if args.json:
        if invocation is None:
            invocation = {"command": args.command, "version": __version__}
            for key in ("vars", "params"):
                if getattr(args, key, None):
                    invocation[key] = getattr(args, key)
        doc = {"invocation": invocation, "result": payload}
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(human + "\n")


def _report_human(report) -> str:
    d = report.to_json_dict()
    lines = ["%s ideal, %s (order %s)" % (d["ideal"], d["locality"], d["order"]),
             "basis:"]
    lines += ["  " + b for b in d["basis"]]
    lines.append("leading monomials: " + ", ".join(d["leading"]))
    lines.append("quotient basis: " + (", ".join(d["quotient_basis"]) or "(empty)"))
    lines.append("dimension: %d" % d["dimension"])
    if d["genericity_assumptions"]:
        lines.append("assuming nonzero: " + "; ".join(d["genericity_assumptions"]))
    return "\n".join(lines)


def _cmd_parse(args):
    ctx = _context(args)
    p = parse_poly(_load_source(args), ctx)
    _emit(args, {"poly": p.to_str()}, p.to_str())
    return EXIT_OK


def _cmd_basis(local: bool, args):
    ctx = _context(args)
    gens = [parse_poly(chunk, ctx)
            for chunk in _load_source(args).split(";") if chunk.strip()]
    orders = _orders(args, ctx, 1)
    order = orders[0] if orders else (neg_grevlex() if local else grevlex())
    pset = PolySet(gens, order)
    basis = standard_basis(pset, step_budget=args.step_budget) if local \
        else buchberger(pset, step_budget=args.step_budget)
    payload = {
        "order": order.spell(ctx.variables),
        "basis": [p.to_str(order) for p in basis],
        "leading": [m.to_str(ctx.variables) for m in basis.leading_monomials()],
    }
    human = "basis:\n" + "\n".join("  " + b for b in payload["basis"]) + \
            "\nleading monomials: " + ", ".join(payload["leading"])
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_invariant(fn, args):
    ctx = _context(args)
    f = parse_poly(_load_source(args), ctx)
    orders = _orders(args, ctx, 1)
    t0 = time.perf_counter()
    report = fn(f, orders[0] if orders else None, step_budget=args.step_budget)
    elapsed = time.perf_counter() - t0
    # timing goes to the human output only; JSON stays byte-reproducible
    human = _report_human(report) + "\nelapsed: %.1f ms" % (elapsed * 1e3)
    _emit(args, report.to_json_dict(), human)
    return EXIT_OK


def _cmd_fused(fn, args):
    ctx = _context(args)
    f = parse_poly(_load_source(args), ctx)
    orders = _orders(args, ctx, 2)
    local = orders[0] if len(orders) >= 1 else None
    global_ = orders[1] if len(orders) >= 2 else None
    t0 = time.perf_counter()
    fused = fn(f, local, global_, step_budget=args.step_budget)
    elapsed = time.perf_counter() - t0
    human = ("== global ==\n" + _report_human(fused.global_part)
             + "\n== local ==\n" + _report_human(fused.local_part)
             + "\nelapsed: %.1f ms" % (elapsed * 1e3))
    _emit(args, fused.to_json_dict(), human)
    return EXIT_OK


def _cmd_classify(args):
    ctx = _context(args)
    f = parse_poly(_load_source(args), ctx)
    mu = milnor_local(f, step_budget=args.step_budget).dimension
    tau = tyurina_local(f, step_budget=args.step_budget).dimension
    crk = hessian_corank(f)
    cls = classify_simple(f, mu=mu)
    payload = {"class": cls.name if cls else None, "mu": mu, "tau": tau,
               "corank": crk}
    name = cls.name if cls else "not simple / out of scope"
    _emit(args, payload, "%s (mu=%d, tau=%d, corank=%d)" % (name, mu, tau, crk))
    return EXIT_OK


def _cmd_deform(args):
    ctx = _context(args)
    f = parse_poly(_load_source(args), ctx)
    orders = _orders(args, ctx, 1)
    fam = build_versal_family(f, orders[0] if orders else None)
    payload = {
        "family": fam.family.to_str(),
        "parameters": list(fam.parameters),
        "monomials": [m.to_str(ctx.variables) for m in fam.monomials],
        "tyurina": fam.tyurina_number,
    }
    _emit(args, payload, fam.family.to_str())
    return EXIT_OK


def _cmd_milnor_orlik(args):
    ctx = _context(args)
    f = parse_poly(_load_source(args), ctx)
    w = weight_vector(f)
    if w is None:
        sys.stderr.write("localstd: polynomial is not weighted homogeneous\n")
        return EXIT_ERROR
    mu = milnor_orlik(w)
    payload = {"weights": [str(x) for x in w.weights], "mu": str(mu)}
    _emit(args, payload,
          "weights (%s): mu = %s" % (", ".join(str(x) for x in w.weights), mu))
    return EXIT_OK


def _cmd_strata(args):
    cls = SingularityClass.parse(args.cls)
    catalog = stratum_catalog(cls)
    payload = [s.to_json_dict() for s in catalog]
    lines = []
    for s in catalog:
        lines.append("%-12s -> %s (mu=%d)" % (s.name, s.expected.name, s.expected_mu))
        for eq in s.equations:
            lines.append("    0 = " + eq)
    _emit(args, payload, "\n".join(lines),
          {"command": "strata", "class": cls.name})
    return EXIT_OK


def _cmd_verify_stratum(args):
    cls = SingularityClass.parse(args.cls)
    catalog = {s.name: s for s in stratum_catalog(cls)}
    if args.stratum not in catalog:
        sys.stderr.write("localstd: unknown stratum %r (have: %s)\n"
                         % (args.stratum, ", ".join(catalog)))
        return EXIT_ERROR
    stratum = catalog[args.stratum]
    if args.witness:
        witness = {}
        for chunk in args.witness.split(","):
            name, _, val = chunk.partition("=")
            witness[name.strip()] = _frac(val)
    else:
        witness = sample_witness(stratum, random.Random(args.seed))
    rec = verify_stratum(cls, stratum, witness)
    payload = rec.to_json_dict()
    human = "%s %s at %s: mu=%d tau=%d corank=%d class=%s" % (
        "OK" if rec.ok else "MISMATCH", stratum.name,
        {k: str(v) for k, v in rec.witness.items()}, rec.mu, rec.tau,
        rec.corank, rec.classified)
    _emit(args, payload, human, {"command": "verify-stratum", "class": cls.name})
    return EXIT_OK if rec.ok else EXIT_ERROR


def _cmd_adjacency(args):
    fam = special_adjacency_family(args.kind, n=args.n)
    target = adjacency_target(args.kind, n=args.n)
    payload = {"kind": args.kind, "target": target.name,
               "family": fam.to_str()}
    lines = ["family: " + fam.to_str(), "target: " + target.name]
    if args.t:
        checks = []
        for chunk in args.t.split(","):
            tv = _frac(chunk)
            f = fam.specialize_params({"t": tv})
            mu = milnor_local(f).dimension
            cls = classify_simple(f, mu=mu)
            checks.append({"t": str(tv), "mu": mu,
                           "class": cls.name if cls else None})
            lines.append("t=%s: mu=%d class=%s" % (tv, mu, cls))
        payload["checks"] = checks
    _emit(args, payload, "\n".join(lines),
          {"command": "adjacency", "kind": args.kind})
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for types, code, prefix in _ERRORS:
            if isinstance(exc, types):
                # str() of a KeyError is the repr of its message.
                msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
                sys.stderr.write("localstd: %s%s\n" % (prefix, msg))
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
