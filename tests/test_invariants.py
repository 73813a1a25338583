"""The six invariant pipelines and their bookkeeping helpers."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localstd import (Monomial, NonIsolatedError, OrderClassError,
                      StepBudgetExceeded, VarCtx, grevlex, is_zero_dimensional,
                      jacobian_ideal, leading_coefficients, lex, milnor_fused,
                      milnor_global, milnor_local, neg_grevlex, neg_lex,
                      parse_poly, quotient_basis, special_adjacency_family,
                      tyurina_fused, tyurina_global, tyurina_ideal,
                      tyurina_local)


def P(src, variables="x,y", params=""):
    ctx = VarCtx([v for v in variables.split(",") if v],
                 [p for p in params.split(",") if p])
    return parse_poly(src, ctx)


def mons(report):
    return [tuple(m) for m in report.quotient_basis]


# ---------------------------------------------------------------------------
# ideal constructors
# ---------------------------------------------------------------------------

def test_jacobian_ideal_basic():
    gens = jacobian_ideal(P("y^2 + z^8", "y,z"))
    assert gens == [P("2*y", "y,z"), P("8*z^7", "y,z")]


def test_jacobian_of_linear_is_unit():
    assert jacobian_ideal(P("x", "x")) == [P("1", "x")]


def test_jacobian_drops_zero_partials():
    gens = jacobian_ideal(P("y^2 - x*(x-1)*(x-2)", "x,y,z"))
    assert len(gens) == 2  # d/dz vanished


def test_tyurina_ideal_prepends_f():
    f = P("x^5 + y^5 + x^2*y^2")
    gens = tyurina_ideal(f)
    assert gens[0] == f and len(gens) == 3


def test_tyurina_of_linear():
    gens = tyurina_ideal(P("x", "x"))
    assert gens == [P("x", "x"), P("1", "x")]


# ---------------------------------------------------------------------------
# zero-dimensionality, quotient enumeration
# ---------------------------------------------------------------------------

def test_is_zero_dimensional_examples():
    assert is_zero_dimensional([Monomial((0, 1)), Monomial((2, 0))], 2)
    assert not is_zero_dimensional([Monomial((1, 1))], 2)
    assert is_zero_dimensional([Monomial((1, 0)), Monomial((0, 6))], 2)
    # the constant monomial makes the ideal the unit ideal
    assert is_zero_dimensional([Monomial((0, 0))], 2)


def test_quotient_basis_an_example():
    lms = [Monomial((1, 0)), Monomial((0, 6))]
    qb = quotient_basis(lms, 2, neg_grevlex())
    assert [tuple(m) for m in qb] == [(0, 5), (0, 4), (0, 3), (0, 2), (0, 1), (0, 0)]


def test_quotient_basis_single_variable():
    assert [tuple(m) for m in quotient_basis([Monomial((1,))], 1, grevlex())] \
        == [(0,)]


def test_quotient_basis_mixed_staircase():
    lms = [Monomial((1, 0)), Monomial((0, 3)), Monomial((1, 1))]
    qb = quotient_basis(lms, 2, grevlex())
    assert [tuple(m) for m in qb] == [(0, 0), (0, 1), (0, 2)]


def test_quotient_basis_rejects_positive_dimension():
    with pytest.raises(ValueError):
        quotient_basis([Monomial((1, 1))], 2, grevlex())


# ---------------------------------------------------------------------------
# the four plain pipelines on the paper corpus
# ---------------------------------------------------------------------------

def test_greuel_example_all_four():
    f = P("x^5 + y^5 + x^2*y^2")
    assert milnor_global(f).dimension == 16
    assert milnor_local(f).dimension == 11
    assert tyurina_global(f).dimension == 10
    assert tyurina_local(f).dimension == 10


def test_milnor_local_cusp_quotient():
    r = milnor_local(P("x^3 + y^4 + x*y^2"))
    assert r.dimension == 4
    assert mons(r) == [(2, 0), (1, 0), (0, 1), (0, 0)]  # x^2, x, y, 1


def test_default_orders_are_shared_between_calls():
    a = milnor_local(P("x^3 + y^4"))
    b = milnor_local(P("x^2 + y^5 + x*y^3"))
    assert a.order is b.order
    fused = tyurina_fused(P("x^3 + y^4"))
    assert fused.local_part.order is a.order
    assert fused.global_part.order is milnor_global(P("x^3 + y^4")).order


def test_milnor_local_smooth_origin():
    r = milnor_local(P("y^2 - x*(x-1)*(x-2)"))
    assert r.dimension == 0 and r.quotient_basis == ()


def test_tyurina_local_stops_once_a_unit_enters_the_basis():
    # df/dy(0) = -4, so tau = 0; the pairs left over once the unit is in the
    # basis used to take more than a minute of Mora reductions to zero
    f = P("x^6 + y^6 - 5*x^4*y - 5*x^2*y^3 + 3*y^5 + 4*x^3*y + y^4 - 5*x^3"
          " - 5*x^2*y + 5*x*y^2 - 4*y")
    r = tyurina_local(f, step_budget=100)
    assert r.dimension == 0 and r.leading_monomials == (Monomial((0, 0)),)


@pytest.mark.parametrize("pipeline, kind, steps", [
    (tyurina_local, "a7-from-e8", 49),
    (milnor_local, "a6-from-e7", 22),
    (tyurina_global, "a7-from-e8", 38),
    (milnor_global, "a6-from-e7", 19),
])
def test_parametric_runs_take_the_same_steps(pipeline, kind, steps):
    # content removal at storage points only must not change the step
    # sequence: these are the smallest budgets that pass
    f = special_adjacency_family(kind)
    with pytest.raises(StepBudgetExceeded):
        pipeline(f, step_budget=steps - 1)
    pipeline(f, step_budget=steps)


def test_a_from_d_seven_stops_at_the_highest_corner():
    # Over Q(t) the run truncates at the corner; untruncated it took 408
    # steps and swelled to coefficients of degree 45 in t
    f = special_adjacency_family("a-from-d", 7)
    with pytest.raises(StepBudgetExceeded):
        tyurina_local(f, step_budget=34)
    r = tyurina_local(f, step_budget=35)
    assert r.dimension == 6
    assert "t^8" in [f.ctx.field.to_str(a) for a in r.genericity_assumptions]


def test_tyurina_local_weighted_suspension():
    f = P("x^2 + y^3 + z^5 + t^2 + y*z^2 + z^3 + y*z^3 + z^4", "x,y,z,t")
    r1 = tyurina_local(f, neg_grevlex(perm=(3, 2, 1, 0)))
    assert [m.to_str(f.ctx.variables) for m in r1.quotient_basis] == \
        ["z^2", "z", "y", "1"]
    r2 = tyurina_local(f, neg_lex())
    assert [m.to_str(f.ctx.variables) for m in r2.quotient_basis] == \
        ["y^2", "y", "z", "1"]
    assert r1.dimension == r2.dimension == 4


def test_milnor_global_e6_suspension():
    f = P("x^2 + y^3 + z^4 + t^2", "x,y,z,t")
    assert milnor_global(f).dimension == 6


def test_milnor_global_smooth_and_cylinder():
    f2 = P("y^2 - x*(x-1)*(x-2)")
    assert milnor_global(f2).dimension == 2
    assert tyurina_global(f2).dimension == 0
    f3 = P("y^2 - x*(x-1)*(x-2)", "x,y,z")
    with pytest.raises(NonIsolatedError):
        milnor_global(f3)


def test_non_isolated_error_messages():
    f = P("x^2*z^2 + y^2*z^2 + x^2*y^2", "x,y,z")
    with pytest.raises(NonIsolatedError, match="critical"):
        milnor_global(f)
    with pytest.raises(NonIsolatedError, match="singular"):
        tyurina_global(f)


def test_order_class_guards():
    f = P("x^2 + y^2")
    with pytest.raises(OrderClassError):
        milnor_local(f, grevlex())
    with pytest.raises(OrderClassError):
        milnor_global(f, neg_grevlex())
    with pytest.raises(OrderClassError):
        tyurina_local(f, lex())
    with pytest.raises(OrderClassError):
        tyurina_global(f, neg_lex())


def test_order_invariance_of_dimensions():
    corpus = [
        P("x^5 + y^5 + x^2*y^2"),
        P("x^3 + y^4 + x*y^2"),
        P("y^2 + z^8", "y,z"),
        P("x^2 + y^3 + z^5 + t^2 + y*z^2 + z^3 + y*z^3 + z^4", "x,y,z,t"),
    ]
    for f in corpus:
        assert milnor_local(f, neg_grevlex()).dimension == \
            milnor_local(f, neg_lex()).dimension
        assert milnor_global(f, grevlex()).dimension == \
            milnor_global(f, lex()).dimension


# ---------------------------------------------------------------------------
# parametric runs
# ---------------------------------------------------------------------------

def test_parametric_deformation_generic_and_special():
    f = P("x^3 + y^4 + x*y^2 + t*x^2", params="t")
    r = milnor_local(f)
    assert r.dimension == 3
    assert mons(r) == [(0, 2), (0, 1), (0, 0)]
    field = f.ctx.field
    canon = {field.to_str(a) for a in r.genericity_assumptions}
    assert canon == {"t", "4*t - 1"}
    rt = tyurina_local(f)
    assert rt.dimension == 3
    assert milnor_local(f.specialize_params({"t": Fraction(1, 4)})).dimension == 5
    assert milnor_local(f.specialize_params({"t": 0})).dimension == 4


def test_leading_coefficients_parametric():
    f = P("x^3 + y^4 + x*y^2 + t*x^2", params="t")
    r = milnor_local(f)
    field = f.ctx.field
    pairs = {(field.to_str(field.canonical_assumption(c)), tuple(m))
             for c, m in leading_coefficients(r)}
    assert ("t", (1, 0)) in pairs
    assert ("4*t - 1", (0, 3)) in pairs


def test_leading_coefficients_d6_deformation():
    ctx = VarCtx(["Y", "Z"], ["v0", "v1", "v2", "v3", "v4"])
    FL = parse_poly("Y^2*Z + Z^5 + v0*Y*Z + v1*Y^2 + v2*Z^2 + v3*Z^3 + v4*Z^4", ctx)
    r = milnor_local(FL)
    field = ctx.field
    hess = field.canonical_assumption(
        parse_poly("4*v1*v2 - v0^2", ctx).constant_coeff())
    got = {field.canonical_assumption(c) for c, _ in leading_coefficients(r)}
    assert hess in got


def test_leading_coefficients_numeric_are_constant():
    r = milnor_global(P("x^3 + y^3"))
    field = r.basis.ctx.field
    assert all(field.is_constant(c) for c, _ in leading_coefficients(r))
    assert r.genericity_assumptions == ()


# ---------------------------------------------------------------------------
# fused pipelines
# ---------------------------------------------------------------------------

def test_milnor_fused_cusp():
    fr = milnor_fused(P("x^3 + y^4 + x*y^2"))
    assert fr.global_part.dimension == 6
    assert fr.local_part.dimension == 4
    assert set(mons(fr.local_part)) == {(2, 0), (1, 0), (0, 1), (0, 0)}


def test_tyurina_fused_cusp():
    fr = tyurina_fused(P("x^3 + y^4 + x*y^2"))
    assert fr.global_part.dimension == 4
    assert fr.local_part.dimension == 4
    assert set(mons(fr.global_part)) == {(0, 0), (0, 1), (1, 0), (0, 2)}


def test_fused_on_weighted_homogeneous_agrees():
    f = P("x^2 + y^3 + z^4 + t^2", "x,y,z,t")
    fr = milnor_fused(f)
    assert fr.global_part.dimension == fr.local_part.dimension == 6


def test_fused_generic_full_deformation_is_smooth():
    src = ("x^3 + y^4 + x*y^2 + l0 + l1*y + l2*x + l3*x^2")
    f = P(src, params="l0,l1,l2,l3")
    fr = tyurina_fused(f)
    assert fr.global_part.dimension == 0
    assert fr.local_part.dimension == 0
    # the jacobian alone keeps the six Morse points, none at the origin
    fm = milnor_fused(f)
    assert fm.global_part.dimension == 6 and fm.local_part.dimension == 0


def test_fused_on_generic_full_deformation_within_budget():
    # both parts must finish fast on the generic deformation; a modest budget
    # proves neither is grinding
    src = ("x^3 + y^4 + x*y^2 + l0 + l1*y + l2*x + l3*x^2")
    f = P(src, params="l0,l1,l2,l3")
    fr = tyurina_fused(f, step_budget=20000)
    assert fr.local_part.dimension == 0


def test_fused_local_part_lists_the_tyurina_jump_at_t_minus_one_half():
    # The local Tyurina number jumps from 4 to 12 at t = -1/2, so the local
    # part must assume some factor that vanishes there.
    f = P("x^4 + (2*t+1)*x^2*y + (2*t+1)*t*y^3 + 1/4*y^5", params="t")
    local = tyurina_fused(f).local_part
    t0 = {"t": Fraction(-1, 2)}
    assert local.dimension == 4
    assert tyurina_local(f.specialize_params(t0)).dimension == 12
    field, plain = f.ctx.field, f.ctx.without_params(["t"]).field
    assert any(not field.specialize(a, t0, plain)
               for a in local.genericity_assumptions)


# ---------------------------------------------------------------------------
# highest-corner truncation, checked against the benchmark's own linear algebra
# ---------------------------------------------------------------------------

def _reference_dims(checks, src, variables):
    p = checks.evaluate(src, variables.split(","))
    return checks.local_mu_tau(p, len(variables.split(",")))


def test_milnor_local_finishes_on_the_milnor_orlik_germ(checks):
    # mu = 90 by Milnor-Orlik; untruncated, Mora's coefficients reach
    # hundreds of thousands of bits here
    src = "x^7 + y^16 - 2*x*y^14 + 2*x^5*y^6"
    r = milnor_local(P(src), step_budget=20000)
    assert r.dimension == 90 == _reference_dims(checks, src, "x,y")[0]


def test_tyurina_local_finishes_on_the_three_variable_germ(checks):
    src = "x^3 + y^3 + z^3 + 3*x^2*z^2 - 3*x^2*y^2 + 2*x^2*y^2*z"
    r = tyurina_local(P(src, "x,y,z"), step_budget=20000)
    assert r.dimension == 8 == _reference_dims(checks, src, "x,y,z")[1]


@st.composite
def singular_germs(draw):
    """A pure power of every variable plus up to three terms of degree two or
    more with small rational coefficients."""
    variables = draw(st.sampled_from(["x,y", "x,y", "x,y,z"]))
    names = variables.split(",")
    tops = [draw(st.integers(2, 7 if len(names) == 2 else 4)) for _ in names]
    terms = ["%s^%d" % (v, e) for v, e in zip(names, tops)]
    for _ in range(draw(st.integers(0, 3))):
        exps = [draw(st.integers(0, e)) for e in tops]
        num = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        den = draw(st.integers(1, 4))
        if sum(exps) >= 2:
            terms.append("%d/%d*%s" % (num, den, "*".join(
                "%s^%d" % (v, e) for v, e in zip(names, exps))))
    return " + ".join(terms), variables, sum(tops)


@settings(max_examples=60, deadline=None)
@given(singular_germs())
def test_local_dimensions_equal_the_truncated_rank_count(checks, germ):
    src, variables, reach = germ
    arity = len(variables.split(","))
    p = checks.evaluate(src, variables.split(","))
    jac = checks.jacobian(p, arity)
    try:
        mu = checks.local_algebra_dim(jac, arity, k_max=reach)
        tau = checks.local_algebra_dim([p] + jac, arity, k_max=reach)
    except ValueError:
        assume(False)  # not isolated, or not settled within reach
    f = P(src, variables)
    assert milnor_local(f, step_budget=20000).dimension == mu
    assert tyurina_local(f, step_budget=20000).dimension == tau


def test_fused_order_guards():
    f = P("x^2 + y^2")
    with pytest.raises(OrderClassError):
        milnor_fused(f, local_order=grevlex())
    with pytest.raises(OrderClassError):
        tyurina_fused(f, global_order=neg_grevlex())


# ---------------------------------------------------------------------------
# inequalities and the local-global sum
# ---------------------------------------------------------------------------

def test_tau_le_mu_and_local_le_global():
    corpus = [
        P("x^5 + y^5 + x^2*y^2"),
        P("x^3 + y^4 + x*y^2"),
        P("x^2 + y^3 + z^4 + t^2", "x,y,z,t"),
        P("y^2 + z^8", "y,z"),
    ]
    for f in corpus:
        mu_l = milnor_local(f).dimension
        mu_g = milnor_global(f).dimension
        tau_l = tyurina_local(f).dimension
        tau_g = tyurina_global(f).dimension
        assert tau_l <= mu_l and tau_g <= mu_g
        assert mu_l <= mu_g and tau_l <= tau_g


def test_weighted_homogeneous_coincidence_local_and_global():
    # A/D/E normal forms have the origin as the only critical point, so all
    # four numbers agree
    cases = [("y^2 + z^6", "y,z"), ("y^2*z + z^4", "y,z"),
             ("y^3 + z^4", "y,z"), ("y^3 + y*z^3", "y,z")]
    for src, variables in cases:
        f = P(src, variables)
        vals = {milnor_local(f).dimension, milnor_global(f).dimension,
                tyurina_local(f).dimension, tyurina_global(f).dimension}
        assert len(vals) == 1


def test_local_to_global_sum_for_double_critical_point():
    f = P("1/3*x^3 + 1/2*x^2", "x")
    assert milnor_global(f).dimension == 2
    assert milnor_local(f).dimension == 1
    shifted = f.substitute({"x": P("x - 1", "x")})
    assert milnor_local(shifted).dimension == 1


def test_report_json_schema():
    r = milnor_local(P("x^3 + y^4 + x*y^2 + t*x^2", params="t"))
    d = r.to_json_dict()
    assert list(d) == ["ideal", "locality", "order", "basis", "leading",
                       "quotient_basis", "dimension", "genericity_assumptions"]
    assert d["ideal"] == "jacobian" and d["locality"] == "local"
    assert d["dimension"] == 3
