"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
in the terminal summary.  Tolerances are exact integer equality throughout;
runtime budgets are asserted as stated.
"""

import random
import time
from fractions import Fraction

from localstd import (SingularityClass, VarCtx, adjacency_target,
                      classify_simple, grevlex, hessian_corank, lex,
                      jacobian_ideal, milnor_fused, milnor_global,
                      milnor_local, milnor_orlik, neg_grevlex, neg_lex,
                      NonIsolatedError, parse_poly, sample_witness,
                      special_adjacency_family, stratum_catalog, tyurina_fused,
                      tyurina_global, tyurina_ideal, tyurina_local,
                      verify_stratum, weight_vector, ade_normal_form)
from localstd.cli import main as cli_main
from oracles import macaulay_dimension_if_stable


def P(src, variables="x,y", params=""):
    ctx = VarCtx([v for v in variables.split(",") if v],
                 [p for p in params.split(",") if p])
    return parse_poly(src, ctx)


def q_strings(report):
    return [m.to_str(report.basis.ctx.variables) for m in report.quotient_basis]


class _Clock:
    def __init__(self, budget):
        self.budget = budget
        self.t0 = time.time()

    def check(self):
        return time.time() - self.t0 <= self.budget


# ---------------------------------------------------------------------------
# 1. paper-value corpus
# ---------------------------------------------------------------------------

def test_criterion_1_paper_value_corpus(acceptance):
    checks = []

    def timed(label, fn):
        t0 = time.time()
        fn()
        checks.append((label, time.time() - t0 <= 5.0))

    def greuel():
        f = P("x^5+y^5+x^2*y^2")
        assert milnor_global(f).dimension == 16
        assert milnor_local(f).dimension == 11
        assert tyurina_global(f).dimension == 10
        assert tyurina_local(f).dimension == 10
    timed("greuel", greuel)

    def wh_suspension():
        assert milnor_global(P("x^2+y^3+z^4+t^2", "x,y,z,t")).dimension == 6
    timed("E6 suspension", wh_suspension)

    def cusp_fused():
        f = P("x^3+y^4+x*y^2")
        fm = milnor_fused(f)
        assert (fm.global_part.dimension, fm.local_part.dimension) == (6, 4)
        ft = tyurina_fused(f)
        assert (ft.global_part.dimension, ft.local_part.dimension) == (4, 4)
        assert set(q_strings(fm.local_part)) == {"1", "y", "x", "x^2"}
    timed("cusp fused", cusp_fused)

    def cylinder():
        f2 = P("y^2 - x*(x - 1)*(x - 2)")
        assert milnor_global(f2).dimension == 2
        assert milnor_local(f2).dimension == 0
        assert tyurina_global(f2).dimension == 0
        f3 = P("y^2 - x*(x - 1)*(x - 2)", "x,y,z")
        try:
            milnor_global(f3)
            raise AssertionError("expected a non-isolated error")
        except NonIsolatedError:
            pass
    timed("cylinder variables", cylinder)

    def deformation():
        f = P("x^3+y^4+x*y^2+t*x^2", params="t")
        r = milnor_local(f)
        assert r.dimension == 3
        field = f.ctx.field
        got = {field.to_str(a) for a in r.genericity_assumptions}
        assert got == {"t", "4*t - 1"}
        assert milnor_local(f.specialize_params({"t": Fraction(1, 4)})).dimension == 5
        assert milnor_local(f.specialize_params({"t": 0})).dimension == 4
    timed("1-parameter deformation", deformation)

    def both_orders():
        f = P("x^2+y^3+z^5+t^2+y*z^2+z^3+y*z^3+z^4", "x,y,z,t")
        assert milnor_global(f, grevlex()).dimension == 8
        assert milnor_global(f, lex()).dimension == 8
        # the paper's default local run used MAPLE's own variable sequence;
        # its significance order is mirrored by the permutation below
        r1 = tyurina_local(f, neg_grevlex(perm=(3, 2, 1, 0)))
        assert r1.dimension == 4 and q_strings(r1) == ["z^2", "z", "y", "1"]
        r2 = tyurina_local(f, neg_lex())
        assert r2.dimension == 4 and q_strings(r2) == ["y^2", "y", "z", "1"]
    timed("deformed E8 under two orders", both_orders)

    def non_isolated_exit_code():
        rc = cli_main(["poly-milnor", "--vars", "x,y,z",
                       "x^2*z^2+y^2*z^2+x^2*y^2"])
        assert rc == 4
    timed("non-isolated exit code", non_isolated_exit_code)

    slow = [label for label, ok in checks if not ok]
    acceptance("1. paper-value corpus (exact, <5s each)", not slow,
               "over budget: %s" % slow)


# ---------------------------------------------------------------------------
# 2. Milnor-Orlik property suite
# ---------------------------------------------------------------------------

def test_criterion_2_milnor_orlik_suite(acceptance):
    clock = _Clock(1.0)
    classes = [SingularityClass("A", n) for n in range(1, 13)] \
        + [SingularityClass("D", n) for n in range(4, 13)] \
        + [SingularityClass("E", n) for n in (6, 7, 8)]
    ok = True
    for cls in classes:
        f = ade_normal_form(cls, 2)
        w = weight_vector(f)
        expected = cls.index
        ok &= milnor_orlik(w) == expected
        mu2, tau2 = milnor_local(f).dimension, tyurina_local(f).dimension
        ok &= mu2 == tau2 == expected
        for dim in (3, 4):
            g = ade_normal_form(cls, dim)
            ok &= milnor_local(g).dimension == mu2
            ok &= tyurina_local(g).dimension == tau2
    acceptance("2. Milnor-Orlik suite incl. suspensions (<1s)",
               ok and clock.check(),
               "values wrong" if not ok else "over 1s budget")


# ---------------------------------------------------------------------------
# 3. brute-force oracle equivalence
# ---------------------------------------------------------------------------

def _random_poly(ctx, rng, degree):
    """Random element of m^2 with diagonal power terms: the origin is a
    critical point, so the Jacobian ideal is proper and the oracle's
    stabilized count is a genuine dimension."""
    p = ctx.zero()
    arity = ctx.arity
    for name in ctx.variables:
        c = rng.choice((1, 2, 3, -1, -2, -3))
        p = p + ctx.variable(name).__pow__(rng.randint(2, degree)).scale_fraction(c)
    for _ in range(rng.randint(1, 4)):
        while True:
            exps = tuple(rng.randint(0, degree) for _ in range(arity))
            if 2 <= sum(exps) <= degree:
                break
        c = rng.randint(-3, 3)
        if c:
            term = ctx.constant(Fraction(c))
            for name, e in zip(ctx.variables, exps):
                term = term * ctx.variable(name) ** e
            p = p + term
    return p


def test_criterion_3_macaulay_oracle_equivalence(acceptance):
    clock = _Clock(60.0)
    rng = random.Random(20240817)
    ctx2 = VarCtx(["x", "y"])
    ctx3 = VarCtx(["x", "y", "z"])
    accepted = 0
    mismatches = []
    attempts = 0
    while accepted < 25 and attempts < 400:
        attempts += 1
        if accepted % 2 == 0:
            ctx, degree = ctx2, rng.randint(3, 5)
        else:
            ctx, degree = ctx3, 3
        f = _random_poly(ctx, rng, degree)
        if f.is_zero() or f.total_degree() < 2:
            continue
        try:
            jac = jacobian_ideal(f)
        except ValueError:
            continue
        if len(jac) < ctx.arity:
            continue  # degenerate direction: certainly not zero-dimensional
        gen_deg = max(g.total_degree() for g in jac)
        bound = 2 * gen_deg * ctx.arity
        oracle_mu = macaulay_dimension_if_stable(jac, bound)
        if oracle_mu is None:
            continue  # oracle could not certify an isolated critical set
        try:
            engine_mu = milnor_global(f).dimension
        except NonIsolatedError:
            mismatches.append((f.to_str(), "engine non-isolated", oracle_mu))
            continue
        if engine_mu != oracle_mu:
            mismatches.append((f.to_str(), engine_mu, oracle_mu))
        tyu = tyurina_ideal(f)
        tbound = 2 * max(g.total_degree() for g in tyu) * ctx.arity
        oracle_tau = macaulay_dimension_if_stable(tyu, tbound)
        if oracle_tau is not None:
            engine_tau = tyurina_global(f).dimension
            if engine_tau != oracle_tau:
                mismatches.append((f.to_str(), engine_tau, oracle_tau))
        accepted += 1
    ok = accepted == 25 and not mismatches and clock.check()
    acceptance("3. Macaulay oracle equivalence, 25 instances (<60s)", ok,
               "accepted=%d mismatches=%s elapsed_ok=%s"
               % (accepted, mismatches[:3], clock.check()))


# ---------------------------------------------------------------------------
# 4. inequalities on every successful run
# ---------------------------------------------------------------------------

def test_criterion_4_inequalities(acceptance):
    corpus = [
        P("x^5+y^5+x^2*y^2"),
        P("x^2+y^3+z^4+t^2", "x,y,z,t"),
        P("x^3+y^4+x*y^2"),
        P("y^2 - x*(x - 1)*(x - 2)"),
        P("x^2+y^3+z^5+t^2+y*z^2+z^3+y*z^3+z^4", "x,y,z,t"),
    ]
    rng = random.Random(99)
    ctx2 = VarCtx(["x", "y"])
    added = 0
    while added < 8:
        f = _random_poly(ctx2, rng, 4)
        try:
            if milnor_global(f).dimension >= 0:
                corpus.append(f)
                added += 1
        except (NonIsolatedError, ValueError):
            continue
    ok = True
    for f in corpus:
        mu_g = milnor_global(f).dimension
        tau_g = tyurina_global(f).dimension
        mu_l = milnor_local(f).dimension
        tau_l = tyurina_local(f).dimension
        ok &= tau_g <= mu_g and tau_l <= mu_l
        ok &= mu_l <= mu_g and tau_l <= tau_g
    acceptance("4. tau <= mu and local <= global on all runs", ok)


# ---------------------------------------------------------------------------
# 5. local-to-global sum
# ---------------------------------------------------------------------------

def test_criterion_5_local_global_sum(acceptance):
    f = P("1/3*x^3 + 1/2*x^2", "x")
    mu_total = milnor_global(f).dimension
    mu_origin = milnor_local(f).dimension
    shifted = f.substitute({"x": P("x - 1", "x")})
    mu_minus_one = milnor_local(shifted).dimension
    ok = (mu_total, mu_origin, mu_minus_one) == (2, 1, 1) \
        and mu_origin + mu_minus_one == mu_total
    acceptance("5. local-to-global sum on the double critical point", ok,
               "got %s" % [(mu_total, mu_origin, mu_minus_one)])


# ---------------------------------------------------------------------------
# 6. stratification witness suite
# ---------------------------------------------------------------------------

EXPECTED_STRATA = {
    "D6": {"L": ("A1", 1), "W2": ("A2", 2), "V0&V1": ("A3", 3),
           "W2&W3": ("A3", 3), "V0^2": ("D4", 4), "W2^4": ("A4", 4),
           "V0^3": ("D5", 5), "W2^5": ("A5", 5), "V0^4": ("D6", 6)},
    "E6": {"L": ("A1", 1), "W2": ("A2", 2), "W2^3": ("A3", 3),
           "V0^2": ("D4", 4), "W2^4": ("A4", 4), "V&V0^2": ("D5", 5),
           "W&V0&V2&V4": ("A5", 5)},
    "E7": {"L": ("A1", 1), "W2": ("A2", 2), "W2^3": ("A3", 3),
           "V0^2": ("D4", 4), "V&V0^2": ("D5", 5), "V0^4": ("E6", 6),
           "V'&V0^2": ("D6", 6), "W2~4": ("A4", 4), "W2~5": ("A5", 5),
           "W2~5'": ("A5", 5), "W2~6": ("A6", 6)},
    "E8": {"L": ("A1", 1), "W2": ("A2", 2), "W2^3": ("A3", 3),
           "V0^2": ("D4", 4), "V&V0^2": ("D5", 5), "V0^4": ("E6", 6),
           "V0^4&V6": ("E7", 7), "V'&V0^2": ("D6", 6), "V''&V0^2": ("D7", 7),
           "W2~4": ("A4", 4), "W2~5": ("A5", 5), "W2~6": ("A6", 6),
           "W2~7": ("A7", 7)},
}


def test_criterion_6_stratification_witnesses(acceptance):
    clock = _Clock(15.0)
    failures = []
    for name, table in EXPECTED_STRATA.items():
        cls = SingularityClass.parse(name)
        catalog = {s.name: s for s in stratum_catalog(cls)}
        if set(catalog) != set(table):
            failures.append((name, "catalog names", sorted(catalog)))
            continue
        rng = random.Random(2718)
        for sname, (want_cls, want_mu) in table.items():
            stratum = catalog[sname]
            for _ in range(3):
                witness = sample_witness(stratum, rng)
                rec = verify_stratum(cls, stratum, witness)
                good = (rec.ok and rec.mu == want_mu and rec.tau == want_mu
                        and rec.classified == SingularityClass.parse(want_cls))
                if not good:
                    failures.append((name, sname, witness, rec.mu, rec.tau,
                                     str(rec.classified)))
    ok = not failures and clock.check()
    acceptance("6. stratification witness suite D6/E6/E7/E8 (<15s)", ok,
               "failures=%s elapsed_ok=%s" % (failures[:3], clock.check()))


# ---------------------------------------------------------------------------
# 7. adjacency family suite
# ---------------------------------------------------------------------------

def test_criterion_7_adjacency_families(acceptance):
    clock = _Clock(60.0)
    tvals = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)]
    cases = [("a-from-d", 4), ("a-from-d", 5), ("a-from-d", 6), ("a-from-d", 7),
             ("a5-from-e6", None), ("d5-from-e6", None), ("a6-from-e7", None),
             ("d6-from-e7", None), ("a7-from-e8", None), ("d7-from-e8", None)]
    failures = []
    for kind, n in cases:
        fam = special_adjacency_family(kind, n=n)
        target = adjacency_target(kind, n=n)
        for tv in tvals:
            f = fam.specialize_params({"t": tv})
            # the singular point must sit at the origin
            if any(f.partial_derivative(i).constant_coeff()
                   for i in range(f.ctx.arity)):
                failures.append((kind, n, str(tv), "origin not critical"))
                continue
            mu = milnor_local(f).dimension
            got = classify_simple(f, mu=mu)
            if got != target or mu != target.index:
                failures.append((kind, n, str(tv), mu, str(got)))
    ok = not failures and clock.check()
    acceptance("7. special adjacency families at 5 rational t (<60s)", ok,
               "failures=%s" % failures[:4])


# ---------------------------------------------------------------------------
# 8. engine guards
# ---------------------------------------------------------------------------

def test_criterion_8_engine_guards(acceptance):
    checks = [
        cli_main(["milnor", "--vars", "x,y", "--order", "grevlex",
                  "x^2+y^2"]) == 3,
        cli_main(["tyurina", "--vars", "x,y", "--order", "lex",
                  "x^2+y^2"]) == 3,
        cli_main(["poly-milnor", "--vars", "x,y", "--order", "neg-grevlex",
                  "x^2+y^2"]) == 3,
        cli_main(["poly-tyurina", "--vars", "x,y", "--order", "neg-lex",
                  "x^2+y^2"]) == 3,
        cli_main(["milnor", "--vars", "x,y", "--order", "weighted:1,-1:lex",
                  "x^2+y^2"]) == 3,
        cli_main(["poly-milnor", "--vars", "x,y", "--order",
                  "weighted:1,-1:lex", "x^2+y^2"]) == 3,
        cli_main(["groebner", "--vars", "x,y", "--order",
                  "weighted:1,-1:lex", "x^2+y^2"]) == 3,
    ]
    acceptance("8. order-class guards exit 3", all(checks),
               "results %s" % checks)
