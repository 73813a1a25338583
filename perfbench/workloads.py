"""The three workloads: their inputs, made from a seed, and their checks.

An operation is one public pipeline call plus the check of its answer.  The
call is timed; the check runs after the timed region and uses only
``checks`` (its own polynomials over ``Fraction``), fixed paper values, and,
for parametric answers, parameter-free runs at specialised points.

``build(name, seed)`` returns the operations of one round.  Every round of a
run repeats the same operations on the same inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

import localstd

import checks

WORKLOADS = ("strata-witness", "param-families", "germ-corpus")


@dataclass
class Op:
    """``call`` runs the pipeline and returns its answer; ``check`` returns
    None for a correct answer and a one-line reason otherwise."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    detail: str = ""


class Failure:
    """An exception raised by a pipeline call, kept as its answer."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.message = str(exc)

    def __repr__(self):
        return "<%s: %s>" % (self.kind, self.message)


def run_op(op: Op):
    try:
        return op.call()
    except (localstd.NonIsolatedError, localstd.StepBudgetExceeded, ValueError,
            ZeroDivisionError, AssertionError, RuntimeError) as exc:
        return Failure(exc)


def signature(answer) -> tuple:
    """Hashable summary of an answer: everything its check looks at."""
    if isinstance(answer, Failure):
        return ("failure", answer.kind)
    if isinstance(answer, localstd.FusedReport):
        return ("fused", signature(answer.global_part), signature(answer.local_part))
    if isinstance(answer, localstd.InvariantReport):
        field = answer.basis.ctx.field
        return ("report", answer.dimension,
                tuple(m.to_str(answer.basis.ctx.variables) for m in answer.quotient_basis),
                tuple(field.to_str(a) for a in answer.genericity_assumptions))
    if isinstance(answer, localstd.StratumVerification):
        return ("stratum", answer.mu, answer.tau, answer.corank,
                answer.classified.name if answer.classified else None,
                answer.equations_checked, answer.ok)
    return ("other", repr(answer))


def _poly(src: str, variables: Sequence[str], params: Sequence[str] = ()):
    return localstd.parse_poly(src, localstd.VarCtx(list(variables), list(params)))


def _expect_report(answer, label: str):
    if isinstance(answer, Failure):
        return "%s raised %s: %s" % (label, answer.kind, answer.message)
    return None


# ---------------------------------------------------------------------------
# strata-witness
# ---------------------------------------------------------------------------

# The paper's classes of the strata of the Kuranishi spaces.
STRATA_CLASSES = {
    "D6": {"L": "A1", "W2": "A2", "V0&V1": "A3", "W2&W3": "A3", "V0^2": "D4",
           "W2^4": "A4", "V0^3": "D5", "W2^5": "A5", "V0^4": "D6"},
    "E6": {"L": "A1", "W2": "A2", "W2^3": "A3", "V0^2": "D4", "W2^4": "A4",
           "V&V0^2": "D5", "W&V0&V2&V4": "A5"},
    "E7": {"L": "A1", "W2": "A2", "W2^3": "A3", "V0^2": "D4", "V&V0^2": "D5",
           "V0^4": "E6", "V'&V0^2": "D6", "W2~4": "A4", "W2~5": "A5",
           "W2~5'": "A5", "W2~6": "A6"},
    "E8": {"L": "A1", "W2": "A2", "W2^3": "A3", "V0^2": "D4", "V&V0^2": "D5",
           "V0^4": "E6", "V0^4&V6": "E7", "V'&V0^2": "D6", "V''&V0^2": "D7",
           "W2~4": "A4", "W2~5": "A5", "W2~6": "A6", "W2~7": "A7"},
}

# Witnesses of the two strata whose Tyurina runs cost seconds and vary up
# to thirty-fold between witnesses of the same height (see README).  They
# stay fixed so that every seed pays the same heavy runs.
FIXED_WITNESSES = {
    ("E8", "W2~5"): {"t": Fraction(1, 2), "b": Fraction(2), "v5": Fraction(-1)},
    ("E8", "W2~6"): {"b": Fraction(-2, 7), "c": Fraction(1, 7)},
}
WITNESSES_PER_STRATUM = 2
WITNESS_MAX_DEN = 3


def _stratum_check(cls_name: str, stratum, witness: dict):
    want = STRATA_CLASSES[cls_name][stratum.name]

    def check(rec) -> Optional[str]:
        bad = _expect_report(rec, "verify_stratum")
        if bad:
            return bad
        f = checks.evaluate(stratum.family_src, ("Y", "Z"), witness)
        mu, tau = checks.local_mu_tau(f, 2)
        crk = checks.hessian_corank(f, 2)
        want_mu = int(want[1:])
        if (rec.mu, rec.tau) != (mu, tau) or mu != want_mu or tau != mu:
            return "mu/tau %s/%s, independent %s/%s, paper %d" % (
                rec.mu, rec.tau, mu, tau, want_mu)
        if rec.corank != crk or crk != checks.corank_of_class(want):
            return "corank %s, independent %s, class %s" % (rec.corank, crk, want)
        got = rec.classified.name if rec.classified else None
        if got != want or not rec.ok:
            return "class %s (ok=%s), paper %s" % (got, rec.ok, want)
        if bool(stratum.v_point) != rec.equations_checked:
            return "equations_checked=%s" % rec.equations_checked
        if stratum.v_point:
            vvals = {v: checks.constant_value(src, witness) for v, src in stratum.v_point}
            for eq in stratum.equations:
                if checks.constant_value(eq, vvals) != 0:
                    return "stratum equation %r does not vanish" % eq
        return None

    return check


def build_strata_witness(seed: int) -> List[Op]:
    ops = []
    for k, cls_name in enumerate(STRATA_CLASSES):
        cls = localstd.SingularityClass.parse(cls_name)
        catalog = localstd.stratum_catalog(cls)
        names = [s.name for s in catalog]
        if sorted(names) != sorted(STRATA_CLASSES[cls_name]):
            raise RuntimeError("%s catalog strata %s differ from the paper's" % (cls_name, names))
        rng = random.Random(seed * 1009 + k)
        for stratum in catalog:
            fixed = FIXED_WITNESSES.get((cls_name, stratum.name))
            if fixed is not None:
                witnesses = [fixed]
            else:
                witnesses = [localstd.sample_witness(stratum, rng, max_den=WITNESS_MAX_DEN)
                             for _ in range(WITNESSES_PER_STRATUM)]
            for i, w in enumerate(witnesses):
                ops.append(Op(
                    name="%s/%s#%d" % (cls_name, stratum.name, i),
                    call=lambda c=cls, s=stratum, w=w: localstd.verify_stratum(c, s, w),
                    check=_stratum_check(cls_name, stratum, w),
                    detail=_show(w)))
    return ops


# ---------------------------------------------------------------------------
# param-families
# ---------------------------------------------------------------------------

PIPELINES = ("milnor_local", "tyurina_local", "milnor_global", "tyurina_global",
             "milnor_fused", "tyurina_fused")

ADJACENCY_INPUTS = [("a-from-d", 4), ("a-from-d", 5), ("a-from-d", 6)] + [
    (kind, None) for kind in ("a5-from-e6", "d5-from-e6", "a6-from-e7",
                              "d6-from-e7", "a7-from-e8", "d7-from-e8")]

DEFORMATION_BASE = "x^3+y^4+x*y^2"
DEFORMATION_TERMS = (("l1", "l1*y"), ("l2", "l2*x"), ("l3", "l3*x^2"))
# l1 = 0 and l2 = 0 put the critical point back at the origin; l3 = 0 gives
# the undeformed germ's class and l3 = 1/4 makes x^2/4 + x*y^2 + y^4 a square.
DEFORMATION_SPECIAL = {"l1": (0,), "l2": (0,), "l3": (0, Fraction(1, 4))}

# ROADMAP soundness probes with the parameter values where the fibre degenerates.
PROBES = [
    ("x^5+(t-1)*x^4+(1-t)*y^3", (1,)),          # t=1: x^5, non-isolated
    ("x^4+t^2*y^4", (0,)),                       # t=0: x^4, non-isolated
    ("x^3+y^3+(2*t+1)*y^3+t^2*x^2*y", (-1, 0)),  # t=-1: x^2*(x+y); t=0: x^3+2*y^3
]

RANDOM_POINTS = 3


def param_inputs():
    """(label, polynomial, special points, known generic local dimension)."""
    out = []
    for kind, n in ADJACENCY_INPUTS:
        f = localstd.special_adjacency_family(kind, n=n)
        target = localstd.adjacency_target(kind, n=n)
        label = kind if n is None else "%s/n=%d" % (kind, n)
        out.append((label, f, [{"t": Fraction(0)}], target.index))
    for r in (1, 2, 3):
        for chosen in itertools.combinations(DEFORMATION_TERMS, r):
            names = [p for p, _ in chosen]
            src = "+".join([DEFORMATION_BASE] + [t for _, t in chosen])
            special = [dict(zip(names, map(Fraction, vals)))
                       for vals in itertools.product(*(DEFORMATION_SPECIAL[p] for p in names))]
            known = 3 if names == ["l3"] else None
            out.append((src, _poly(src, "xy", names), special, known))
    for src, values in PROBES:
        out.append((src, _poly(src, "xy", ["t"]), [{"t": Fraction(v)} for v in values], None))
    return out


def _parts(answer):
    """[(dimension, assumption strings)] of a report, global part first."""
    if isinstance(answer, localstd.FusedReport):
        return _parts(answer.global_part) + _parts(answer.local_part)
    field = answer.basis.ctx.field
    return [(answer.dimension, [field.to_str(a) for a in answer.genericity_assumptions])]


def _dims_at(pipeline, f, point):
    """Parameter-free dimensions at a point, or None when non-isolated."""
    try:
        answer = getattr(localstd, pipeline)(f.specialize_params(point))
    except localstd.NonIsolatedError:
        return None
    return [d for d, _ in _parts(answer)]


def _random_point(rng, params, avoid, parts):
    for _ in range(100):
        point = {p: Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(2, 5))
                 for p in params}
        if point in avoid:
            continue
        if not any(_vanishes(a, point) for _, assumptions in parts for a in assumptions):
            return point
    raise RuntimeError("no generic point found for %s" % params)


def _vanishes(assumption: str, point) -> bool:
    return checks.constant_value(assumption, point) == 0


def _soundness_check(pipeline, f, special, known, rng_seed):
    def check(answer) -> Optional[str]:
        bad = _expect_report(answer, pipeline)
        if bad:
            return bad
        parts = _parts(answer)
        generic = [d for d, _ in parts]
        if known is not None and not pipeline.endswith("_global") and generic[-1] != known:
            return "generic local dimension %d, paper %d" % (generic[-1], known)
        rng = random.Random(rng_seed)
        for _ in range(RANDOM_POINTS):
            point = _random_point(rng, f.ctx.parameters, special, parts)
            got = _dims_at(pipeline, f, point)
            if got != generic:
                return "at generic point %s: %s, reported %s" % (_show(point), got, generic)
        for point in special:
            got = _dims_at(pipeline, f, point)
            for k, (dim, assumptions) in enumerate(parts):
                changed = got is None or got[k] != dim
                if changed and not any(_vanishes(a, point) for a in assumptions):
                    return "at %s: %s, reported %s with assumptions %s" % (
                        _show(point), "non-isolated" if got is None else got,
                        generic, [a for _, a in parts])
        return None

    return check


def _show(point) -> str:
    return ",".join("%s=%s" % kv for kv in sorted(point.items()))


def build_param_families(seed: int) -> List[Op]:
    ops = []
    for i, (label, f, special, known) in enumerate(param_inputs()):
        for j, pipeline in enumerate(PIPELINES):
            ops.append(Op(
                name="%s %s" % (pipeline, label),
                call=lambda p=pipeline, f=f: getattr(localstd, p)(f),
                check=_soundness_check(pipeline, f, special, known,
                                       seed * 100003 + i * 10 + j),
                detail=f.to_str()))
    return ops


# ---------------------------------------------------------------------------
# germ-corpus
# ---------------------------------------------------------------------------

def _qb(report) -> list:
    return [m.to_str(report.basis.ctx.variables) for m in report.quotient_basis]


def _local_dim(src: str, variables: str, tyurina: bool) -> int:
    p = checks.evaluate(src, tuple(variables))
    mu, tau = checks.local_mu_tau(p, len(variables), want_tau=tyurina)
    return tau if tyurina else mu


def _paper_ops() -> List[Op]:
    """The paper's worked examples with the values it prints."""
    L = localstd
    specs = []

    def add(name, src, variables, call, want, independent=None):
        f = _poly(src, variables)

        def check(answer, want=want, independent=independent, src=src, variables=variables):
            if want == "non-isolated":
                if isinstance(answer, Failure) and answer.kind == "NonIsolatedError":
                    return None
                return "expected a non-isolated error, got %r" % (answer,)
            bad = _expect_report(answer, name)
            if bad:
                return bad
            got = want(answer)
            if got:
                return got
            if independent is not None:
                ref = _local_dim(src, variables, independent == "tau")
                dim = answer.local_part.dimension if isinstance(answer, L.FusedReport) \
                    else answer.dimension
                if dim != ref:
                    return "dimension %d, independent local length %d" % (dim, ref)
            return None

        specs.append(Op(name="paper/" + name, call=lambda f=f: call(f), check=check))

    def dim_is(n):
        return lambda r: None if r.dimension == n else "dimension %d, paper %d" % (r.dimension, n)

    greuel = "x^5+y^5+x^2*y^2"
    add("greuel milnor_global", greuel, "xy", L.milnor_global, dim_is(16))
    add("greuel milnor_local", greuel, "xy", L.milnor_local, dim_is(11), "mu")
    add("greuel tyurina_global", greuel, "xy", L.tyurina_global, dim_is(10))
    add("greuel tyurina_local", greuel, "xy", L.tyurina_local, dim_is(10), "tau")
    add("E6 suspension milnor_global", "x^2+y^3+z^4+t^2", "xyzt", L.milnor_global, dim_is(6))
    cusp = "x^3+y^4+x*y^2"

    def fused_is(g, l, qb=None):
        def want(r):
            got = (r.global_part.dimension, r.local_part.dimension)
            if got != (g, l):
                return "fused dimensions %s, paper %s" % (got, (g, l))
            if qb is not None and sorted(_qb(r.local_part)) != sorted(qb):
                return "local quotient basis %s, paper %s" % (_qb(r.local_part), qb)
            return None
        return want

    add("cusp milnor_fused", cusp, "xy", L.milnor_fused, fused_is(6, 4, ["1", "y", "x", "x^2"]), "mu")
    add("cusp tyurina_fused", cusp, "xy", L.tyurina_fused, fused_is(4, 4), "tau")
    cyl = "y^2 - x*(x - 1)*(x - 2)"
    add("cylinder milnor_global", cyl, "xy", L.milnor_global, dim_is(2))
    add("cylinder milnor_local", cyl, "xy", L.milnor_local, dim_is(0), "mu")
    add("cylinder tyurina_global", cyl, "xy", L.tyurina_global, dim_is(0))
    add("cylinder in 3 variables milnor_global", cyl, "xyz", L.milnor_global, "non-isolated")
    e8 = "x^2+y^3+z^5+t^2+y*z^2+z^3+y*z^3+z^4"
    add("deformed E8 milnor_global grevlex", e8, "xyzt",
        lambda f: L.milnor_global(f, L.grevlex()), dim_is(8))
    add("deformed E8 milnor_global lex", e8, "xyzt",
        lambda f: L.milnor_global(f, L.lex()), dim_is(8))

    def qb_is(n, qb):
        return lambda r: None if (r.dimension, _qb(r)) == (n, qb) else \
            "%d %s, paper %d %s" % (r.dimension, _qb(r), n, qb)

    add("deformed E8 tyurina_local neg-grevlex:t,z,y,x", e8, "xyzt",
        lambda f: L.tyurina_local(f, L.neg_grevlex(perm=(3, 2, 1, 0))),
        qb_is(4, ["z^2", "z", "y", "1"]), "tau")
    add("deformed E8 tyurina_local neg-lex", e8, "xyzt",
        lambda f: L.tyurina_local(f, L.neg_lex()), qb_is(4, ["y^2", "y", "z", "1"]), "tau")
    add("cone milnor_global", "x^2*z^2+y^2*z^2+x^2*y^2", "xyz", L.milnor_global, "non-isolated")
    return specs


ADE_CLASSES = [("A", n) for n in range(1, 13)] + [("D", n) for n in range(4, 13)] + \
    [("E", n) for n in (6, 7, 8)]


def _ade_ops() -> List[Op]:
    ops = []
    for family, index in ADE_CLASSES:
        cls = localstd.SingularityClass(family, index)
        for arity in (2, 3, 4):
            f = localstd.ade_normal_form(cls, arity)
            mo = checks.milnor_orlik(checks.ade_weights(family, index, arity))
            for pipeline in ("milnor_local", "tyurina_local"):
                def check(answer, mo=mo, index=index, pipeline=pipeline):
                    bad = _expect_report(answer, pipeline)
                    if bad:
                        return bad
                    # quasihomogeneous: tau = mu = Milnor-Orlik = the class index
                    if answer.dimension != mo or mo != index:
                        return "dimension %d, Milnor-Orlik %d, index %d" % (
                            answer.dimension, mo, index)
                    return None
                ops.append(Op(name="ade/%s%d/%dvars %s" % (family, index, arity, pipeline),
                              call=lambda p=pipeline, f=f: getattr(localstd, p)(f),
                              check=check))
    return ops


SQH_COUNT = {2: 48, 3: 24}
# tyurina_local only on two-variable germs of small mu: above that, and on
# three variables at any mu, Mora runs take from a second to minutes.
SQH_TAU_MAX_MU = 16


def _monomial(variables, exps) -> str:
    return "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in zip(variables, exps) if e)


def sqh_germ(rng, arity: int):
    """x^a + y^b (+ z^c) plus 1-3 terms of weight > 1 with small coefficients.

    The extra terms have total degree above every pure power, so the pure
    powers' derivatives lead under neg-grevlex and completion ends on the
    product criterion (germs whose extra terms lead cost seconds to minutes
    in Mora; see README)."""
    variables = "xyz"[:arity]
    if arity == 2:
        degs = [rng.randint(4, 16) for _ in range(2)]
    else:
        degs = [rng.randint(3, 7) for _ in range(3)]
    terms = ["%s^%d" % (v, d) for v, d in zip(variables, degs)]
    extra = set()
    wanted = rng.randint(1, 3)
    for _ in range(200):
        if len(extra) == wanted:
            break
        exps = tuple(rng.randint(0, d - 1) for d in degs)
        weight = sum(Fraction(e, d) for e, d in zip(exps, degs))
        if weight > 1 and sum(exps) > max(degs) and sum(1 for e in exps if e) >= 2:
            extra.add(exps)
    for exps in sorted(extra):
        c = rng.choice((1, 2, 3, -1, -2, -3))
        terms.append("%d*%s" % (c, _monomial(variables, exps)))
    src = " + ".join(terms).replace("+ -", "- ")
    return src, variables, [Fraction(1, d) for d in degs]


def _sqh_ops(rng) -> List[Op]:
    ops = []
    for arity, count in SQH_COUNT.items():
        for i in range(count):
            src, variables, weights = sqh_germ(rng, arity)
            f = _poly(src, variables)
            mu = checks.milnor_orlik(weights)

            def check_mu(answer, mu=mu):
                bad = _expect_report(answer, "milnor_local")
                if bad:
                    return bad
                return None if answer.dimension == mu else \
                    "mu %d, Milnor-Orlik %d" % (answer.dimension, mu)
            ops.append(Op(name="sqh/%s milnor_local" % src,
                          call=lambda f=f: localstd.milnor_local(f), check=check_mu))
            if arity == 2 and mu <= SQH_TAU_MAX_MU:
                def check_tau(answer, src=src, variables=variables, mu=mu):
                    bad = _expect_report(answer, "tyurina_local")
                    if bad:
                        return bad
                    tau = _local_dim(src, variables, True)
                    if answer.dimension != tau or tau > mu:
                        return "tau %d, independent %d (mu %d)" % (answer.dimension, tau, mu)
                    return None
                ops.append(Op(name="sqh/%s tyurina_local" % src,
                              call=lambda f=f: localstd.tyurina_local(f), check=check_tau))
    return ops


BEZOUT_SHAPES = [(2, d) for d in (3, 4, 5, 6)] * 8 + [(3, 3)] * 8 + [(3, 4)] * 4
BEZOUT_LEX_MAX = {2: 4, 3: 3}   # lex beyond these degrees costs 10 ms to minutes


def bezout_poly(rng, arity: int, degree: int) -> str:
    """sum x_i^d plus 2-4 terms of lower degree with small coefficients."""
    variables = "xyz"[:arity]
    terms = ["%s^%d" % (v, degree) for v in variables]
    seen = set()
    for _ in range(rng.randint(2, 4)):
        exps = tuple(rng.randint(0, degree - 1) for _ in variables)
        if 0 < sum(exps) < degree and exps not in seen:
            seen.add(exps)
            terms.append("%d*%s" % (rng.choice((1, 2, 3, -1, -2, -3)), _monomial(variables, exps)))
    return " + ".join(terms).replace("+ -", "- "), variables


def _bezout_ops(rng) -> List[Op]:
    ops = []
    for arity, degree in BEZOUT_SHAPES:
        src, variables = bezout_poly(rng, arity, degree)
        f = _poly(src, variables)
        want = checks.bezout_milnor(degree, arity)
        orders = [("grevlex", localstd.grevlex())]
        if degree <= BEZOUT_LEX_MAX[arity]:
            orders.append(("lex", localstd.lex()))
        for oname, order in orders:
            def check(answer, want=want):
                bad = _expect_report(answer, "milnor_global")
                if bad:
                    return bad
                return None if answer.dimension == want else \
                    "mu %d, Bezout %d" % (answer.dimension, want)
            ops.append(Op(name="bezout/%s milnor_global %s" % (src, oname),
                          call=lambda f=f, o=order: localstd.milnor_global(f, o),
                          check=check))
    return ops


def build_germ_corpus(seed: int) -> List[Op]:
    rng = random.Random(seed)
    return _paper_ops() + _ade_ops() + _sqh_ops(rng) + _bezout_ops(rng)


BUILDERS: Dict[str, Callable[[int], List[Op]]] = {
    "strata-witness": build_strata_witness,
    "param-families": build_param_families,
    "germ-corpus": build_germ_corpus,
}


def build(workload: str, seed: int) -> List[Op]:
    return BUILDERS[workload](seed)

# Operations that fail every run because genericity assumptions miss
# conditions the engine divides by or multiplies through (ROADMAP item 4):
# the global Tyurina number jumps at t = 0 / l = 0 with no assumption
# reported, and the probes' degenerate fibres go unreported.
_TYURINA_JUMPS = ["a-from-d/n=4", "a-from-d/n=5", "a5-from-e6", "d5-from-e6",
                  "a6-from-e7", "d6-from-e7"] + [
    "+".join([DEFORMATION_BASE] + [t for _, t in chosen])
    for r in (1, 2, 3) for chosen in itertools.combinations(DEFORMATION_TERMS, r)]
_PROBES = [src for src, _ in PROBES]
KNOWN_FAULTS = {"param-families": {
    "%s %s" % (pipeline, label)
    for pipeline, labels in [("tyurina_global", _TYURINA_JUMPS + _PROBES),
                             ("tyurina_fused", _TYURINA_JUMPS + _PROBES),
                             ("milnor_global", _PROBES), ("milnor_fused", _PROBES),
                             ("milnor_local", _PROBES[1:2]), ("tyurina_local", _PROBES[1:2])]
    for label in labels}}
