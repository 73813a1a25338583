"""Core polynomial arithmetic: canonical forms, calculus, substitution."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sympy import ZZ
from sympy.polys.rings import ring as sympy_ring

from localstd import (CoeffField, ContextMismatchError, Monomial, Poly, VarCtx,
                      grevlex, parse_poly)
from localstd.coeffs import _ZPoly


def P(src, variables="x,y", params=""):
    ctx = VarCtx([v for v in variables.split(",") if v],
                 [p for p in params.split(",") if p])
    return parse_poly(src, ctx)


# ---------------------------------------------------------------------------
# contexts and monomials
# ---------------------------------------------------------------------------

def test_ctx_rejects_name_clashes():
    with pytest.raises(ValueError):
        VarCtx(["x", "y"], ["x"])
    with pytest.raises(ValueError):
        VarCtx(["x", "x"])


def test_monomial_basics():
    m = Monomial((2, 1))
    assert m.degree == 3
    assert m.mul(Monomial((0, 3))) == Monomial((2, 4))
    assert Monomial((1, 0)).divides(m)
    assert not Monomial((0, 2)).divides(m)
    assert Monomial((2, 0)).lcm(Monomial((1, 3))) == Monomial((2, 3))
    assert Monomial.unit(2).degree == 0


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatchError):
        P("x", "x,y") + P("x", "x,z")


# ---------------------------------------------------------------------------
# addition / multiplication examples
# ---------------------------------------------------------------------------

def test_add_cancellation():
    assert P("x + y") + P("-x") == P("y")


def test_add_merges_like_terms():
    assert P("x^2*y") + P("x^2*y") == P("2*x^2*y")


def test_add_rational_function_coefficients():
    # (l/2)x + (l/3)x = (5l/6)x
    a = P("1/2*l*x", params="l")
    b = P("1/3*l*x", params="l")
    assert a + b == P("5/6*l*x", params="l")


def test_mul_difference_of_squares():
    assert P("x+y") * P("x-y") == P("x^2-y^2")


def test_mul_identity():
    p = P("3*x^2 - y + 1/2")
    assert P("1") * p == p


def test_mul_square_with_parameters():
    # (w1*Y + u*w1*Z)^2 expands with the cross term doubled
    got = P("(w1*Y + u*w1*Z)^2", "Y,Z", "w1,u")
    want = P("w1^2*Y^2 + 2*u*w1^2*Y*Z + u^2*w1^2*Z^2", "Y,Z", "w1,u")
    assert got == want


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_partial_derivative_example():
    f = P("x^5 + y^5 + x^2*y^2")
    assert f.partial_derivative(0) == P("5*x^4 + 2*x*y^2")


def test_partial_derivative_vanishes():
    assert P("x").partial_derivative(1).is_zero()


def test_partial_derivative_with_params():
    f = P("y^2*z + z^4 + l3*z^3", "y,z", "l3")
    assert f.partial_derivative(1) == P("y^2 + 4*z^3 + 3*l3*z^2", "y,z", "l3")


def test_partial_derivative_index_range():
    with pytest.raises(IndexError):
        P("x").partial_derivative(5)


# ---------------------------------------------------------------------------
# substitution and specialization
# ---------------------------------------------------------------------------

def test_substitute_translation_contains_cross_term():
    ctx = VarCtx(["y", "z"], ["L"])
    f = parse_poly("y^2 + z^8", ctx)
    g = f.substitute({"z": parse_poly("z + L", ctx)})
    assert g.coeff(Monomial((0, 7))) == ctx.field.from_fraction(8) * ctx.field.param("L")


def test_substitute_identity():
    ctx = VarCtx(["x", "y"])
    f = parse_poly("x^3 - 2*x*y + 1", ctx)
    assert f.substitute({"x": ctx.variable("x")}) == f


def test_substitute_shift():
    ctx = VarCtx(["x"])
    f = parse_poly("x^2", ctx)
    assert f.substitute({"x": parse_poly("x+1", ctx)}) == parse_poly("x^2+2*x+1", ctx)


def test_specialize_params_quarter():
    f = P("x^3 + y^4 + x*y^2 + t*x^2", params="t")
    got = f.specialize_params({"t": Fraction(1, 4)})
    assert got == P("x^3 + y^4 + x*y^2 + 1/4*x^2")


def test_specialize_empty_is_identity():
    f = P("x + t*y", params="t")
    assert f.specialize_params({}) is f


def test_specialize_drops_terms():
    f = P("(1 - 4*t)*y^3 + 3*y*x^2", params="t")
    got = f.specialize_params({"t": Fraction(1, 4)})
    assert got == P("3*y*x^2")


def test_specialize_denominator_vanishes():
    ctx = VarCtx(["x"], ["t"])
    one = ctx.one()
    t = ctx.parameter("t")
    f = ctx.variable("x").scale(one.constant_coeff() / t.constant_coeff())
    with pytest.raises(ZeroDivisionError):
        f.specialize_params({"t": 0})


# ---------------------------------------------------------------------------
# coefficient-field invariants
# ---------------------------------------------------------------------------

def test_coefficients_are_reduced_fractions():
    ctx = VarCtx(["x"], ["l"])
    f = ctx.field
    l = f.param("l")
    c = (l ** 2 - f.one) / (l - f.one)
    assert c == l + f.one  # cancelled eagerly
    d = l / f.from_fraction(-2)
    # denominator sign is canonical: the numerator carries the sign
    assert d.denom == {(0,): 2}
    assert d.numer == {(1,): -1}


def test_constant_coefficients_collapse():
    ctx = VarCtx(["x"], ["l"])
    f = ctx.field
    c = f.from_fraction(Fraction(2, 4))
    assert f.is_constant(c) and f.as_fraction(c) == Fraction(1, 2)
    assert not f.is_constant(f.param("l"))


def test_terms_strictly_descending_under_order():
    from localstd import grevlex, neg_grevlex
    p = P("x^2*y + y^3 + x + 1")
    for order in (grevlex(), neg_grevlex()):
        ms = [m for _, m in p.terms(order)]
        for a, b in zip(ms, ms[1:]):
            assert order.greater(a, b)
    # re-sorting is presentation only: content equality is order-free
    assert P("x + y") == P("y + x")


def test_leading_term_cache_follows_the_order_object():
    from localstd import lex, neg_grevlex
    p = P("2*x^3 + x*y - 3*y")
    g, n = grevlex(), neg_grevlex()
    x3, y = Monomial((3, 0)), Monomial((0, 1))
    assert p.leading_term(g) == (2, x3)
    assert p.leading_term(n) == (-3, y)
    assert p.leading_term(g) == (2, x3)
    g2 = grevlex()
    assert g2 == g and g2 is not g
    assert p.leading_term(g2) == (2, x3)
    # same kind, other permutation
    assert p.leading_term(lex()) == (2, x3)
    assert p.leading_term(lex(perm=(1, 0))) == (1, Monomial((1, 1)))


def test_derived_polynomials_do_not_inherit_a_cached_lead():
    from localstd import neg_grevlex
    n = neg_grevlex()
    p = P("2*x^3 + x*y - 3*y")
    q = P("4*x^3 + 2*x*y - 6*y")
    assert p.leading_term(n) == (-3, Monomial((0, 1)))
    assert q.leading_term(n) == (-6, Monomial((0, 1)))
    two, one = p.ctx.field.from_fraction(2), p.ctx.field.one
    derived = [(p + P("5"), (5, Monomial((0, 0)))),
               (p.scale(two), (-6, Monomial((0, 1)))),
               (p.mul_term(one, Monomial((1, 0))), (-3, Monomial((1, 1)))),
               (q.primitive(n), (3, Monomial((0, 1))))]
    for r, lead in derived:
        assert r._lead is None
        assert r.leading_term(n) == lead


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def small_polys(variables=("x", "y"), params=()):
    ctx = VarCtx(variables, params)

    @st.composite
    def build(draw):
        nterms = draw(st.integers(0, 5))
        p = ctx.zero()
        for _ in range(nterms):
            exps = tuple(draw(st.integers(0, 3)) for _ in variables)
            coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
            p = p + Poly(ctx, {Monomial(exps): ctx.field.from_fraction(coeff)}) \
                if coeff else p
        return p

    return build()


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_mixed_partials_commute(p):
    assert p.partial_derivative(0).partial_derivative(1) == \
        p.partial_derivative(1).partial_derivative(0)


@settings(max_examples=30, deadline=None)
@given(small_polys(params=("s", "t")), st.integers(-3, 3), st.integers(1, 4))
def test_substitute_specialize_commute(p, num, den):
    ctx = p.ctx
    val = Fraction(num, den)
    sub = {"x": parse_poly("x + 2*y", ctx)}
    left = p.substitute(sub).specialize_params({"t": val})
    small = p.specialize_params({"t": val})
    sub2 = {"x": parse_poly("x + 2*y", small.ctx)}
    right = small.substitute(sub2)
    assert left == right


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_primitive_is_blind_to_a_unit_of_z_t(data):
    # p and u*p have the same primitive part for every nonzero u in Z[t],
    # parametric content (such as 2t+1) included.
    ctx = VarCtx(["x", "y"], ["t"])
    t = ctx.field.param("t")

    def z_t():
        return sum((data.draw(st.integers(-3, 3)) * t ** k for k in range(3)),
                   ctx.field.zero)

    p = ctx.zero()
    for _ in range(data.draw(st.integers(1, 4))):
        mon = Monomial((data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))))
        c = z_t() / data.draw(st.integers(1, 3))
        if c:
            p = p + Poly(ctx, {mon: c})
    u = z_t()
    assume(u)
    order = grevlex()
    assert p.scale(u).primitive(order) == p.primitive(order)


ZST = CoeffField(("s", "t"))
SYMPY_ZST = sympy_ring("s,t", ZZ)[0]


def reference_primitive(lead, coeffs):
    """ring_primitive through sympy alone, on sympy ring elements: fold the
    gcd, divide exactly, fix the sign on lead; None when nothing changes,
    else the quotients' terms."""
    g = SYMPY_ZST.zero
    for c in coeffs:
        g = g.gcd(c)
    quotients = [c.exquo(g) for c in coeffs]
    if lead.exquo(g).LC < 0:
        quotients = [-q for q in quotients]
    if quotients == coeffs:
        return None
    return [{m: int(a) for m, a in q.items()} for q in quotients]


def z_st(src):
    """The element of Z[s, t] written by src."""
    return ZST.to_ring(parse_poly(src, VarCtx(["x"], ZST.params)).constant_coeff())


@pytest.mark.parametrize("lead, coeffs, expected", [
    # a term among the coefficients: the content 2*t^2 is a term
    (0, ["6*s*t^2", "4*t^3 + 2*s*t^2"], ["3*s", "2*t + s"]),
    (0, ["-4*s^2*t", "6*s*t + 2*s^3"], ["2*s*t", "-3*t - s^2"]),
    # no term among them: the multi-term content s + t
    (1, ["(s + t)*(s - 1)", "(s + t)*t"], ["s - 1", "t"]),
    (1, ["s", "t + 1"], None),
])
def test_ring_primitive_examples(lead, coeffs, expected):
    coeffs = [z_st(c) for c in coeffs]
    got = ZST.ring_primitive(coeffs[lead], coeffs)
    assert got == (expected if expected is None else [z_st(c) for c in expected])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ring_primitive_equals_the_sympy_gcd_fold(data):
    # Coefficient lists over Z[s, t], with or without a single-term member,
    # times a planted common factor: a term, a multi-term polynomial, both or
    # none.  Each list is built from the same terms as own ring elements and
    # as sympy's; a term content is read off the terms, any other comes from
    # the heuristic gcd, and both must give sympy's quotients and sign.
    nonzero = st.integers(-4, 4).filter(bool)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))

    def term():
        return {data.draw(exps): data.draw(nonzero)}

    def multi_term():
        return data.draw(st.dictionaries(exps, nonzero, min_size=2, max_size=3))

    with_term = data.draw(st.booleans())
    # a multi-term factor would leave no term in the list
    kind = data.draw(st.sampled_from(["none", "term"] if with_term
                                     else ["none", "term", "poly", "both"]))
    factor = []
    if kind in ("term", "both"):
        factor.append(term())
    if kind in ("poly", "both"):
        factor.append(multi_term())
    cofactors = [multi_term() for _ in range(data.draw(st.integers(0 if with_term else 1, 3)))]
    if with_term:
        cofactors.insert(data.draw(st.integers(0, len(cofactors))), term())

    def times_factor(ring, terms):
        out = ring(terms)
        for f in factor:
            out = out * ring(f)
        return out

    ours = [times_factor(_ZPoly, c) for c in cofactors]
    theirs = [times_factor(SYMPY_ZST, c) for c in cofactors]
    i = data.draw(st.integers(0, len(ours) - 1))
    if data.draw(st.booleans()) != (theirs[i].LC < 0):
        ours[i], theirs[i] = -ours[i], -theirs[i]
    assert ours == [{m: int(a) for m, a in c.items()} for c in theirs]
    assert any(len(c) == 1 for c in ours) == with_term

    assert ZST.ring_primitive(ours[i], ours) == reference_primitive(theirs[i], theirs)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_generalized_euler_identity(data):
    # weighted-homogeneous polynomials satisfy f = sum w_i x_i df/dx_i
    weights = data.draw(st.sampled_from([
        (Fraction(1, 2), Fraction(1, 4)),
        (Fraction(1, 3), Fraction(1, 4)),
        (Fraction(1, 2), Fraction(1, 6)),
        (Fraction(2, 5), Fraction(1, 5)),
    ]))
    ctx = VarCtx(["y", "z"])
    support = [Monomial((a, b))
               for a in range(0, 13) for b in range(0, 13)
               if weights[0] * a + weights[1] * b == 1]
    assert support
    f = ctx.zero()
    for m in support:
        c = data.draw(st.integers(-3, 3))
        if c:
            f = f + Poly(ctx, {m: ctx.field.from_fraction(c)})
    euler = ctx.zero()
    for i, w in enumerate(weights):
        euler = euler + (ctx.variable(ctx.variables[i])
                         * f.partial_derivative(i)).scale(ctx.field.from_fraction(w))
    assert euler == f
