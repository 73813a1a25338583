"""Division and completion engines: S-polynomials, ecart, Mora weak normal
form, Buchberger and standard bases."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localstd import (OrderClassError, PolySet, StepBudgetExceeded, VarCtx,
                      buchberger, ecart, grevlex, is_zero_dimensional, lex,
                      neg_grevlex, neg_lex, normal_form, parse_poly, s_polynomial,
                      standard_basis, weak_normal_form, weighted)
from localstd import engines
from localstd.engines import _Budget, _completion, _update
from localstd.poly import Monomial, Poly
from oracles import macaulay_dimension_if_stable


def P(src, ctx):
    return parse_poly(src, ctx)


XY = VarCtx(["x", "y"])


# ---------------------------------------------------------------------------
# s-polynomials and ecart
# ---------------------------------------------------------------------------

def test_spoly_of_monomials_is_zero():
    assert s_polynomial(P("x^2", XY), P("x*y", XY), grevlex()).is_zero()


def test_spoly_of_equal_inputs_is_zero():
    f = P("3*x^2 + y^2", XY)
    assert s_polynomial(f, f, grevlex()).is_zero()


def test_spoly_cancels_leading_monomials():
    f = P("3*x^2 + y^2", XY)
    g = P("4*y^3 + 2*x*y", XY)
    o = neg_grevlex()
    # leading monomials y^2 and x*y; their lcm monomial must cancel
    sp = s_polynomial(f, g, o)
    lcm = f.leading_monomial(o).lcm(g.leading_monomial(o))
    assert not sp.is_zero()
    assert sp.coeff(lcm) == XY.field.zero
    assert o.compare(lcm, sp.leading_monomial(o)) > 0


def test_spoly_rejects_zero():
    with pytest.raises(ValueError):
        s_polynomial(XY.zero(), P("x", XY), grevlex())


def test_ecart_examples():
    o = neg_grevlex()
    assert ecart(P("x + x^2", XY), o) == 1
    assert ecart(P("x^3*y", XY), o) == 0
    ctx = VarCtx(["x", "y"], ["t"])
    assert ecart(P("3*x^2 + y^2 + 2*t*x", ctx), o) == 1


# ---------------------------------------------------------------------------
# normal form (global)
# ---------------------------------------------------------------------------

def test_normal_form_membership_gives_zero():
    G = buchberger(PolySet([P("x^2 - y", XY), P("y^2 - 1", XY)], grevlex()))
    f = P("(x^2 - y)*(x + 3) + (y^2 - 1)*y^2", XY)
    assert normal_form(f, G).is_zero()


def test_normal_form_no_divisor():
    G = PolySet([P("x", XY)], grevlex())
    assert normal_form(P("y", XY), G) == P("y", XY)


def test_normal_form_two_steps():
    G = PolySet([P("x^2 - y", XY)], grevlex())
    assert normal_form(P("x^2*y", XY), G) == P("y^2", XY)


def test_normal_form_requires_global():
    G = PolySet([P("x", XY)], neg_grevlex())
    with pytest.raises(OrderClassError):
        normal_form(P("y", XY), G)


def test_normal_form_difference_in_ideal():
    # f - r must vanish against a Groebner basis of the divisors
    gens = [P("x^2 - y", XY), P("x*y - 1", XY)]
    G = buchberger(PolySet(gens, grevlex()))
    f = P("x^4 + 3*x^2*y - y^2 + 5", XY)
    r = normal_form(f, G)
    assert normal_form(f - r, G).is_zero()


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

def test_buchberger_cylinder_example():
    f = P("y^2 - x*(x - 1)*(x - 2)", XY)
    gens = [f.partial_derivative(0), f.partial_derivative(1)]
    G = buchberger(PolySet(gens, grevlex()))
    lms = {m for m in G.leading_monomials()}
    assert {tuple(m) for m in lms} == {(0, 1), (2, 0)}


def test_buchberger_single_generator():
    G = buchberger(PolySet([P("x", XY)], grevlex()))
    assert list(G) == [P("x", XY)]


def test_buchberger_greuel_example_16_standard_monomials():
    f = P("x^5 + y^5 + x^2*y^2", XY)
    gens = [f.partial_derivative(0), f.partial_derivative(1)]
    G = buchberger(PolySet(gens, grevlex()))
    from localstd import quotient_basis
    lms = G.leading_monomials()
    assert is_zero_dimensional(lms, 2)
    assert len(quotient_basis(lms, 2, grevlex())) == 16


def test_buchberger_requires_global():
    with pytest.raises(OrderClassError):
        buchberger(PolySet([P("x", XY)], neg_grevlex()))


def test_buchberger_ideal_preservation_small_instances():
    rng = random.Random(7)
    ctx3 = VarCtx(["x", "y", "z"])
    for trial in range(4):
        gens = []
        for _ in range(3):
            p = ctx3.zero()
            for _ in range(4):
                exps = tuple(rng.randint(0, 2) for _ in range(3))
                c = rng.randint(-3, 3)
                if c:
                    p = p + parse_poly("%d" % c, ctx3) * \
                        parse_poly("x^%d*y^%d*z^%d" % exps, ctx3)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        G = buchberger(PolySet(gens, grevlex()))
        # inputs reduce to zero against the output
        for g in gens:
            assert normal_form(g, G).is_zero()
        # outputs generate nothing new: Macaulay counts agree at a shared cap
        cap = 2 * max(max(p.total_degree() for p in gens),
                      max(p.total_degree() for p in G)) + 1
        before = macaulay_dimension_if_stable(gens, cap)
        after = macaulay_dimension_if_stable(list(gens) + list(G.elements), cap)
        if before is not None and after is not None:
            assert before == after


def test_normal_form_path_independence_on_completed_basis():
    f = P("x^5 + y^5 + x^2*y^2", XY)
    gens = [f.partial_derivative(0), f.partial_derivative(1)]
    G = buchberger(PolySet(gens, grevlex()))
    probe = P("x^7 + x^3*y^3 - y + 2", XY)
    baseline = normal_form(probe, G)
    rng = random.Random(3)
    for _ in range(5):
        shuffled = list(G.elements)
        rng.shuffle(shuffled)
        assert normal_form(probe, PolySet(shuffled, grevlex())) == baseline


# ---------------------------------------------------------------------------
# Mora weak normal form and standard bases
# ---------------------------------------------------------------------------

def test_weak_nf_unit_multiple_reduces_to_zero():
    # x is associated to x + x^2 by the local unit 1 + x
    ctx = VarCtx(["x"])
    G = PolySet([P("x + x^2", ctx)], neg_grevlex())
    assert weak_normal_form(P("x", ctx), G).is_zero()


def test_weak_nf_no_divisor_returns_input():
    G = PolySet([P("x^2", XY)], neg_grevlex())
    f = P("y + x^3", XY)
    assert weak_normal_form(f, G) == f


@pytest.mark.parametrize("ctx, fsrc, csrc", [
    (VarCtx(["x", "y"], ["t"]), "x^3 + t*x*y^2 + y^5 + (t+1)*x^2*y^2", "t^2 + 2*t - 3"),
    (XY, "x^3 + 2*x*y^2 + y^5 + 3*x^2*y^2", "6"),
])
def test_weak_nf_is_blind_to_a_unit(ctx, fsrc, csrc):
    # the reduction chain carries content until its result is kept; the
    # public result is primitive, so a unit multiple of f gives the same one
    f = P(fsrc, ctx)
    o = neg_grevlex()
    g1, g2 = f.partial_derivative(0), f.partial_derivative(1)
    G = PolySet([g1, g2], o)
    c = P(csrc, ctx).constant_coeff()
    want = weak_normal_form(f, G)
    assert want != f and not want.is_zero()    # at least one step applies
    assert weak_normal_form(f.scale(c), G) == want


def test_weak_nf_rejects_mixed_order():
    o = weighted((1, -1), lex())
    G = PolySet([P("x", XY)], o)
    with pytest.raises(OrderClassError):
        weak_normal_form(P("x^2", XY), G)


def test_weak_nf_d6_spoly_recovers_hessian_coefficient():
    # reducing the jacobian pair of the 5-parameter deformation exposes the
    # determinant of the Hessian as a leading coefficient
    ctx = VarCtx(["Y", "Z"], ["v0", "v1", "v2", "v3", "v4"])
    FL = P("Y^2*Z + Z^5 + v0*Y*Z + v1*Y^2 + v2*Z^2 + v3*Z^3 + v4*Z^4", ctx)
    g1 = FL.partial_derivative(0)
    g2 = FL.partial_derivative(1)
    o = neg_grevlex()
    h = weak_normal_form(s_polynomial(g1, g2, o), PolySet([g1, g2], o))
    assert not h.is_zero()
    lc, lm = h.leading_term(o)
    assert tuple(lm) == (1, 0)
    want = ctx.field.canonical_assumption(
        parse_poly("4*v1*v2 - v0^2", ctx).constant_coeff())
    assert ctx.field.canonical_assumption(lc) == want


def test_standard_basis_an_jacobian():
    ctx = VarCtx(["y", "Z"], ["v7"])
    gens = [P("2*y", ctx), P("8*Z^7 + 7*v7*Z^6", ctx)]
    S = standard_basis(PolySet(gens, neg_grevlex()))
    assert {tuple(m) for m in S.leading_monomials()} == {(1, 0), (0, 6)}


def test_standard_basis_monomial_ideal_fixed_point():
    gens = [P("x^2", XY), P("y^3", XY)]
    S = standard_basis(PolySet(gens, neg_grevlex()))
    assert set(S.elements) == set(gens)


def test_standard_basis_cusp_like_leading_ideal():
    f = P("x^3 + y^4 + x*y^2", XY)
    gens = [f.partial_derivative(0), f.partial_derivative(1)]
    S = standard_basis(PolySet(gens, neg_grevlex()))
    lms = {tuple(m) for m in S.leading_monomials()}
    # minimalization may discard x*y (a multiple of nothing here): the paper
    # set is {y^2, x*y, x^3}; ours must generate the same leading ideal
    assert (0, 2) in lms and (3, 0) in lms
    from localstd import quotient_basis
    assert len(quotient_basis(S.leading_monomials(), 2, neg_grevlex())) == 4


def test_standard_basis_rejects_global_and_mixed():
    with pytest.raises(OrderClassError):
        standard_basis(PolySet([P("x", XY)], grevlex()))
    with pytest.raises(OrderClassError):
        standard_basis(PolySet([P("x", XY)], weighted((1, -1), lex())))


def test_pure_power_detection_on_zero_dimensional_examples():
    cases = [
        ("x^5 + y^5 + x^2*y^2", XY, grevlex(), buchberger),
        ("x^3 + y^4 + x*y^2", XY, neg_grevlex(), standard_basis),
    ]
    for src, ctx, order, engine in cases:
        f = P(src, ctx)
        gens = [f.partial_derivative(i) for i in range(ctx.arity)]
        basis = engine(PolySet(gens, order))
        lms = basis.leading_monomials()
        assert is_zero_dimensional(lms, ctx.arity)
        for i in range(ctx.arity):
            assert any(m[i] > 0 and m.degree == m[i] for m in lms)


def test_step_budget_enforced():
    f = P("x^5 + y^5 + x^2*y^2", XY)
    gens = [f.partial_derivative(0), f.partial_derivative(1)]
    with pytest.raises(StepBudgetExceeded):
        standard_basis(PolySet(gens, neg_grevlex()), step_budget=1)


def test_polyset_validation():
    with pytest.raises(ValueError):
        PolySet([XY.zero()], grevlex())
    a = P("x", XY)
    ps = PolySet([a, a, P("y", XY)], grevlex())
    assert len(ps) == 2



# ---------------------------------------------------------------------------
# pair update and the distinct-leading-monomial invariant
# ---------------------------------------------------------------------------

def _update_by_min_loops(G, P, ih, lm):
    """The pair update as three loops that empty sets by repeated min()."""
    mh = lm[ih]
    C, D = set(G), set()
    while C:
        ig = min(C)
        C.remove(ig)
        l = mh.lcm(lm[ig])
        if mh.mul(lm[ig]) == l or (
                not any(mh.lcm(lm[ip]).divides(l) for ip in C)
                and not any(mh.lcm(lm[p[1]]).divides(l) for p in D)):
            D.add((ih, ig))
    E = set()
    while D:
        pair = min(D)
        D.remove(pair)
        if mh.mul(lm[pair[1]]) != mh.lcm(lm[pair[1]]):
            E.add(pair)
    P_new = set()
    while P:
        i, j = min(P)
        P.remove((i, j))
        l = lm[i].lcm(lm[j])
        if not mh.divides(l) or lm[i].lcm(mh) == l or lm[j].lcm(mh) == l:
            P_new.add((i, j))
    G_new = {ig for ig in G if not mh.divides(lm[ig])}
    G_new.add(ih)
    return G_new, P_new | E


@st.composite
def pair_states(draw):
    arity = draw(st.integers(1, 3))
    mono = st.tuples(*[st.integers(0, 3)] * arity).map(Monomial)
    lm = draw(st.lists(mono, min_size=1, max_size=9))
    ih = len(lm) - 1
    G = draw(st.sets(st.integers(0, ih - 1))) if ih else set()
    pairs = [(i, j) for i in range(ih) for j in range(i)]
    P = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return G, P, ih, lm


@settings(max_examples=300, deadline=None)
@given(pair_states())
def test_update_matches_min_emptying_loops(state):
    G, P, ih, lm = state
    assert _update(set(G), set(P), ih, lm) == \
        _update_by_min_loops(set(G), set(P), ih, lm)


@st.composite
def seed_sets(draw):
    """Seeds over Q in x, y; some share a leading term with the first seed or
    multiply it by a monomial, so their leading monomials coincide or divide
    each other under the degree orders used below."""
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(Monomial)
    coeff = st.integers(-3, 3).filter(bool)
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=4))
        polys.append({m: XY.field.from_fraction(c) for m, c in terms.items()})
    first = polys[0]
    for _ in range(draw(st.integers(0, 2))):
        shift = draw(exps)
        tail = draw(st.dictionaries(exps, coeff, max_size=2))
        p = {m.mul(shift): c for m, c in first.items()}
        for m, c in tail.items():
            p[m] = p.get(m, 0) + XY.field.from_fraction(c)
        polys.append({m: c for m, c in p.items() if c})
    return [Poly(XY, t) for t in polys if t]


# two global and two local orders: completion picks its reducer by the class
# of the order, not by its kind
@settings(max_examples=80, deadline=None)
@given(seed_sets(), st.sampled_from([grevlex(), weighted((1, 2), grevlex()),
                                     neg_grevlex(), neg_lex()]))
def test_completion_leading_monomials_are_distinct(seed, order):
    try:
        basis = _completion(seed, order, _Budget(3000), order.classify(2))
    except StepBudgetExceeded:
        assume(False)
    lms = [p.leading_monomial(order) for p in basis]
    assert len(set(lms)) == len(lms)
    # minimal: no leading monomial divides another; ascending under the order
    assert not any(m != n and m.divides(n) for m in lms for n in lms)
    key = order.key(2)
    assert all(key(m) < key(n) for m, n in zip(lms, lms[1:]))


@pytest.mark.parametrize("order, reducer", [
    (grevlex(), "_reduce_full"), (weighted((1, 2), grevlex()), "_reduce_full"),
    (neg_grevlex(), "_weak_nf"), (neg_lex(), "_weak_nf")], ids=str)
def test_completion_picks_the_reducer_by_order_class(monkeypatch, order, reducer):
    # the completion takes the class its caller checked; both reducers are
    # looked up on the module, where a tracer replaces them
    engine = buchberger if reducer == "_reduce_full" else standard_basis
    called = set()
    for name in ("_reduce_full", "_weak_nf"):
        real = getattr(engines, name)
        monkeypatch.setattr(engines, name, lambda *a, name=name, real=real:
                            called.add(name) or real(*a))
    f = P("x^3 + y^4 + x*y^2", XY)
    engine(PolySet([f, f.partial_derivative(0), f.partial_derivative(1)], order),
           step_budget=200)
    assert called == {reducer}
