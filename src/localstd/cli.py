"""Command-line interface.

Each polynomial subcommand is one row of the table in _build_argparser: its
handler, the number of --order flags it takes and whether it takes
--step-budget.  A flag that a subcommand does not take is a usage error.
Every row is run by _poly_command, which builds the context from --vars and
--params, reads the source and hands both to the handler.

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
from .invariants import (FusedReport, NonIsolatedError, milnor_fused,
                         milnor_global, milnor_local, tyurina_fused,
                         tyurina_global, tyurina_local)
from .orders import DEFAULT_ORDERS, OrderClass, OrderDefinitionError, parse_order
from .parser import ParseError, parse_poly
from .poly import VarCtx
from .singularities import (ADJACENCY_KINDS, SingularityClass,
                            _germ_invariants, adjacency_target,
                            build_versal_family, classify_simple, milnor_orlik,
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

    def add_poly_command(name, help_, n_orders, budget, handler):
        p = sub.add_parser(name, help=help_)
        p.add_argument("poly", nargs="?", help="polynomial expression "
                       "(generators split on ';' for basis commands)")
        p.add_argument("--file", help="read the expression from a file")
        p.add_argument("--vars", required=True,
                       help="comma-separated working variables")
        p.add_argument("--params", default="",
                       help="comma-separated symbolic parameters")
        if n_orders:
            p.add_argument("--order", action="append", default=None,
                           help="monomial order spelling: grevlex, lex, "
                                "neg-grevlex, neg-lex, weighted:w1,...:tiebreak; "
                                "an optional :v1,v2,... suffix gives the "
                                "significance order.  Fused commands accept "
                                "the flag twice (local first, then global).")
        p.add_argument("--json", action="store_true", help="JSON output")
        if budget:
            p.add_argument("--step-budget", type=int, default=None,
                           help="reduction step budget (default 10^6)")
        p.set_defaults(n_orders=n_orders, func=partial(_poly_command, handler))

    # name, help, --order flags taken, takes --step-budget, handler
    for row in [
            ("parse", "parse and echo the canonical form", 0, False, _cmd_parse),
            ("groebner", "Groebner basis of ';'-separated generators", 1, True,
             partial(_cmd_basis, buchberger, OrderClass.GLOBAL)),
            ("std-basis", "Mora standard basis of ';'-separated generators",
             1, True, partial(_cmd_basis, standard_basis, OrderClass.LOCAL)),
            ("milnor", "Milnor number of the origin (local order)", 1, True,
             partial(_cmd_invariant, milnor_local)),
            ("tyurina", "Tyurina number of the origin (local order)", 1, True,
             partial(_cmd_invariant, tyurina_local)),
            ("poly-milnor", "Milnor number of the polynomial (global order)",
             1, True, partial(_cmd_invariant, milnor_global)),
            ("poly-tyurina", "Tyurina number of the polynomial (global order)",
             1, True, partial(_cmd_invariant, tyurina_global)),
            ("milnor-fused", "global run plus local run, Milnor", 2, True,
             partial(_cmd_invariant, milnor_fused)),
            ("tyurina-fused", "global run plus local run, Tyurina", 2, True,
             partial(_cmd_invariant, tyurina_fused)),
            ("classify", "Arnol'd class of the singular point at the origin",
             0, True, _cmd_classify),
            ("deform", "versal deformation family from the Tyurina basis",
             1, False, _cmd_deform),
            ("milnor-orlik", "Milnor number from rational weights", 0, False,
             _cmd_milnor_orlik),
    ]:
        add_poly_command(*row)

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
    p.set_defaults(func=_cmd_verify_stratum)

    p = sub.add_parser("adjacency", help="special 1-parameter adjacency family")
    p.add_argument("kind", help="one of: %s" % ", ".join(ADJACENCY_KINDS))
    p.add_argument("--n", type=int, default=None, help="D index for a-from-d")
    p.add_argument("--t", default=None,
                   help="comma-separated rational values to classify at")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_adjacency)
    return ap


def _poly_command(handler, args):
    """handler(args, ctx, src): ctx is the context of --vars and --params,
    built first, and src the positional polynomial or the --file contents."""
    ctx = VarCtx([v.strip() for v in args.vars.split(",") if v.strip()],
                 [p.strip() for p in args.params.split(",") if p.strip()])
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            src = fh.read()
    elif args.poly is None:
        raise ParseError("no polynomial given (positional or --file)", 0)
    else:
        src = args.poly
    return handler(args, ctx, src)


def _orders(args, ctx) -> list:
    """The --order flags parsed, padded with None (the default order) to the
    number of orders the subcommand takes."""
    specs = args.order or []
    if len(specs) > args.n_orders:
        raise OrderDefinitionError("too many --order flags (at most %d)"
                                   % args.n_orders)
    return ([parse_order(s, ctx.variables) for s in specs]
            + [None] * (args.n_orders - len(specs)))


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


def _cmd_parse(args, ctx, src):
    p = parse_poly(src, ctx)
    _emit(args, {"poly": p.to_str()}, p.to_str())
    return EXIT_OK


def _cmd_basis(engine, wanted, args, ctx, src):
    gens = [parse_poly(chunk, ctx) for chunk in src.split(";") if chunk.strip()]
    order = _orders(args, ctx)[0] or DEFAULT_ORDERS[wanted]
    basis = engine(PolySet(gens, order), step_budget=args.step_budget)
    payload = {
        "order": order.spell(ctx.variables),
        "basis": [p.to_str(order) for p in basis],
        "leading": [m.to_str(ctx.variables) for m in basis.leading_monomials()],
    }
    human = "basis:\n" + "\n".join("  " + b for b in payload["basis"]) + \
            "\nleading monomials: " + ", ".join(payload["leading"])
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_invariant(fn, args, ctx, src):
    f = parse_poly(src, ctx)
    orders = _orders(args, ctx)
    t0 = time.perf_counter()
    report = fn(f, *orders, step_budget=args.step_budget)
    elapsed = time.perf_counter() - t0
    if isinstance(report, FusedReport):
        human = ("== global ==\n" + _report_human(report.global_part)
                 + "\n== local ==\n" + _report_human(report.local_part))
    else:
        human = _report_human(report)
    # timing goes to the human output only; JSON stays byte-reproducible
    _emit(args, report.to_json_dict(),
          human + "\nelapsed: %.1f ms" % (elapsed * 1e3))
    return EXIT_OK


def _cmd_classify(args, ctx, src):
    f = parse_poly(src, ctx)
    mu, tau, crk, cls = _germ_invariants(f, step_budget=args.step_budget)
    payload = {"class": cls.name if cls else None, "mu": mu, "tau": tau,
               "corank": crk}
    name = cls.name if cls else "not simple / out of scope"
    _emit(args, payload, "%s (mu=%d, tau=%d, corank=%d)" % (name, mu, tau, crk))
    return EXIT_OK


def _cmd_deform(args, ctx, src):
    f = parse_poly(src, ctx)
    fam = build_versal_family(f, *_orders(args, ctx))
    payload = {
        "family": fam.family.to_str(),
        "parameters": list(fam.parameters),
        "monomials": [m.to_str(ctx.variables) for m in fam.monomials],
        "tyurina": fam.tyurina_number,
    }
    _emit(args, payload, fam.family.to_str())
    return EXIT_OK


def _cmd_milnor_orlik(args, ctx, src):
    f = parse_poly(src, ctx)
    w = weight_vector(f)
    if w is None:
        sys.stderr.write("localstd: polynomial is not weighted homogeneous\n")
        return EXIT_ERROR
    milnor_local(f)  # raises NonIsolatedError, where the formula does not hold
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
    if args.witness is not None:
        witness = {}
        for chunk in args.witness.split(","):
            name, eq, val = chunk.partition("=")
            name = name.strip()
            if not eq or name in witness:
                raise ValueError("bad witness entry %r: want name=value, "
                                 "each name once" % chunk)
            witness[name] = Fraction(val)
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
    if args.t is not None:
        checks = []
        # every value is parsed before the first run
        for tv in [Fraction(chunk) for chunk in args.t.split(",")]:
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
