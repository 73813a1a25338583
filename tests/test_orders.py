"""Monomial orders: comparisons, classification, parsing."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localstd import (Monomial, MonomialOrder, OrderClass,
                      OrderDefinitionError, VarCtx, grevlex, lex, neg_grevlex,
                      neg_lex, parse_order, parse_poly, weighted)


def M(*exps):
    return Monomial(exps)


ALL_ORDERS = [
    grevlex(), lex(), neg_grevlex(), neg_lex(),
    weighted((1, 2, 3), lex()),
    weighted((Fraction(1, 2), 1, Fraction(3, 2)), grevlex()),
]


def test_grevlex_tie():
    assert grevlex().compare(M(2, 1), M(1, 2)) > 0


def test_neg_grevlex_one_beats_variables():
    assert neg_grevlex().compare(M(0), M(1)) > 0


def test_lex_with_significance_permutation():
    # significance (z, y): z beats any power of y
    o = lex(perm=(1, 0))
    assert o.compare(M(0, 1), M(3, 0)) > 0


def test_weighted_tie_break_follows_the_permutation():
    variables = ("x", "y")
    xy = parse_order("weighted:1,1:lex:x,y", variables)
    yx = parse_order("weighted:1,1:lex:y,x", variables)
    assert xy.compare(M(2, 0), M(0, 2)) > 0
    assert yx.compare(M(0, 2), M(2, 0)) > 0
    # the weights still belong to the declared variables
    assert weighted((1, 2), lex(), perm=(1, 0)).compare(M(0, 1), M(1, 0)) > 0
    # a permuted tie-break keys like the plain order with that permutation
    for kind in ("grevlex", "lex", "neg_grevlex", "neg_lex"):
        o = weighted((0, 0, 0), MonomialOrder(kind), perm=(2, 0, 1))
        plain = MonomialOrder(kind, (2, 0, 1))
        for a in itertools.product(range(3), repeat=3):
            assert o.sort_key(a)[1:] == plain.sort_key(a)


def test_classify_standard_orders():
    assert grevlex().classify(3) is OrderClass.GLOBAL
    assert lex().classify(2) is OrderClass.GLOBAL
    assert neg_grevlex().classify(4) is OrderClass.LOCAL
    assert neg_lex().classify(2) is OrderClass.LOCAL


def test_classify_mixed_weighted():
    o = weighted((1, -1), lex())
    assert o.classify(2) is OrderClass.MIXED


def test_leading_term_examples():
    ctx = VarCtx(["x", "y"], ["t"])
    p = parse_poly("3*x^2 + y^2 + 2*t*x", ctx)
    c, m = p.leading_term(neg_grevlex())
    assert m == M(1, 0) and c == ctx.field.param("t") * ctx.field.from_fraction(2)

    ctx2 = VarCtx(["y", "z"])
    q = parse_poly("y^2 + z^8", ctx2)
    assert q.leading_monomial(grevlex()) == M(0, 8)

    ctx3 = VarCtx(["Y", "Z"], ["u", "v1"])
    r = parse_poly("2*Y*Z + 2*v1*(Y + u*Z)", ctx3)
    c, m = r.leading_term(neg_lex(perm=(1, 0)))  # significance (Z, Y)
    assert m == M(1, 0)
    assert c == ctx3.field.from_fraction(2) * ctx3.field.param("v1")


def test_zero_poly_has_no_leading_term():
    ctx = VarCtx(["x"])
    with pytest.raises(ValueError):
        ctx.zero().leading_term(grevlex())


def test_arity_mismatch():
    with pytest.raises(ValueError):
        grevlex().compare(M(1, 0), M(1, 0, 0))


# ---------------------------------------------------------------------------
# order axioms, exhaustively in low degree
# ---------------------------------------------------------------------------

def monomials_upto(arity, bound):
    out = []
    for exps in itertools.product(range(bound + 1), repeat=arity):
        if sum(exps) <= bound:
            out.append(Monomial(exps))
    return out


@pytest.mark.parametrize("order", ALL_ORDERS, ids=str)
def test_total_and_antisymmetric_up_to_degree6(order):
    mons = monomials_upto(3, 6)
    keys = {m: order.sort_key(m) for m in mons}
    for a in mons:
        for b in mons:
            ca = order.compare(a, b)
            assert ca == -order.compare(b, a)
            if a == b:
                assert ca == 0
            else:
                assert ca != 0, (a, b)
            assert (keys[a] == keys[b]) == (a == b)


@pytest.mark.parametrize("order", ALL_ORDERS, ids=str)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multiplicativity(order, data):
    mk = st.tuples(*(st.integers(0, 6) for _ in range(3))).map(Monomial)
    a, b, c = data.draw(mk), data.draw(mk), data.draw(mk)
    assert order.compare(a, b) == order.compare(a.mul(c), b.mul(c))


def test_global_has_one_minimal_local_has_one_maximal():
    mons = monomials_upto(3, 5)
    one = Monomial((0, 0, 0))
    for order in [grevlex(), lex()]:
        assert min(mons, key=order.sort_key) == one
    for order in [neg_grevlex(), neg_lex()]:
        assert max(mons, key=order.sort_key) == one


# ---------------------------------------------------------------------------
# the compiled key against the plain formulas
# ---------------------------------------------------------------------------

def reference_sort_key(order, mon):
    """The sort key as plain formulas, rebuilt and checked on every call."""
    arity = len(mon)
    perm = tuple(range(arity)) if order.perm is None else order.perm
    assert sorted(perm) == list(range(arity))
    if order.kind == "grevlex":
        return (sum(mon),) + tuple(-mon[i] for i in reversed(perm))
    if order.kind == "lex":
        return tuple(mon[i] for i in perm)
    if order.kind == "neg_grevlex":
        return (-sum(mon),) + tuple(mon[i] for i in reversed(perm))
    if order.kind == "neg_lex":
        return tuple(-mon[i] for i in perm)
    assert len(order.weights) == arity
    w = sum(wi * e for wi, e in zip(order.weights, mon))
    if order.perm is not None:
        mon = tuple(mon[i] for i in perm)
    return (w,) + reference_sort_key(order.tiebreak, mon)


PLAIN_KINDS = ("grevlex", "lex", "neg_grevlex", "neg_lex")


@st.composite
def orders_with_monomials(draw):
    arity = draw(st.integers(1, 4))
    perm = draw(st.none() | st.permutations(range(arity)).map(tuple))
    kind = draw(st.sampled_from(PLAIN_KINDS + ("weighted",)))
    if kind == "weighted":
        # small weights, so that ties fall to the tie-break often
        weights = draw(st.lists(st.sampled_from((-1, 0, Fraction(1, 2), 1, 2)),
                                min_size=arity, max_size=arity))
        order = weighted(weights, MonomialOrder(draw(st.sampled_from(PLAIN_KINDS))), perm)
    else:
        order = MonomialOrder(kind, perm)
    mon = st.tuples(*(st.integers(0, 5) for _ in range(arity))).map(Monomial)
    return order, draw(st.lists(mon, min_size=2, max_size=8))


@settings(max_examples=300, deadline=None)
@given(orders_with_monomials())
def test_compiled_key_orders_like_the_plain_formulas(case):
    order, mons = case
    key = order.key(len(mons[0]))
    assert order.key(len(mons[0])) is key
    for a in mons:
        for b in mons:
            ra, rb = reference_sort_key(order, a), reference_sort_key(order, b)
            ka, kb = key(a), key(b)
            assert (ka < kb, ka == kb) == (ra < rb, ra == rb), (order, a, b)
            assert order.compare(a, b) == (ra > rb) - (ra < rb)


@pytest.mark.parametrize("order", [lex(perm=(1, 0)), grevlex(perm=(0, 0, 1)),
                                   weighted((1, 1, 1), lex(), perm=(2, 1))],
                         ids=str)
def test_permutation_that_does_not_fit_the_arity_raises(order):
    with pytest.raises(OrderDefinitionError, match="does not fit arity 3"):
        order.sort_key(M(1, 2, 3))
    with pytest.raises(OrderDefinitionError, match="does not fit arity 3"):
        order.key(3)
    with pytest.raises(OrderDefinitionError, match="does not fit arity 3"):
        parse_order(order.spell(("x", "y", "z")), ("x", "y", "z"))


# ---------------------------------------------------------------------------
# CLI spelling
# ---------------------------------------------------------------------------

def test_parse_order_spellings():
    variables = ("x", "y", "z")
    assert parse_order("grevlex", variables) == grevlex()
    assert parse_order("neg-lex", variables) == neg_lex()
    assert parse_order("lex:z,y,x", variables) == lex(perm=(2, 1, 0))
    o = parse_order("weighted:1,2,1/2:lex", variables)
    assert o.kind == "weighted" and o.weights == (1, 2, Fraction(1, 2))
    o2 = parse_order("weighted:1,1,1:grevlex:y,x,z", variables)
    assert o2.perm == (1, 0, 2)


def test_parse_order_rejects_garbage():
    for bad in ["fancylex", "weighted:1,2", "lex:q,w,e", "grevlex:x,y,z:extra",
                "weighted:1,a:lex"]:
        with pytest.raises(OrderDefinitionError):
            parse_order(bad, ("x", "y", "z"))


def test_spell_round_trip():
    variables = ("x", "y")
    for o in [grevlex(), neg_grevlex(), lex(perm=(1, 0)),
              weighted((1, 2), lex(), perm=(1, 0))]:
        assert parse_order(o.spell(variables), variables) == o
