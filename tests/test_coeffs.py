"""The coefficient fields: Q as Fraction over plain ints, Q(params) as
fractions over the package's own Z[params]; sympy serves only as the test
oracle for the product, the gcd, the field arithmetic and the substitutions."""

import operator
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ
from sympy.polys.fields import field as sympy_field
from sympy.polys.rings import ring as sympy_ring

from localstd import CoeffField, VarCtx, parse_poly
from localstd.coeffs import _ZPoly

SRC = Path(__file__).resolve().parent.parent / "src"

Q = CoeffField(())
QT = CoeffField(("t",))
QST = CoeffField(("s", "t"))

rationals = st.fractions(max_denominator=1000)

SYMPY_FREE = """
import random, sys
from fractions import Fraction
from localstd import (SingularityClass, VarCtx, build_versal_family, milnor_local,
                      parse_poly, sample_witness, special_adjacency_family,
                      stratum_catalog, tyurina_fused, tyurina_local, verify_stratum)
from localstd.cli import main

f = parse_poly("x^3 + y^4 - 1/2*x^2*y^2", VarCtx(["x", "y"]))
assert milnor_local(f).dimension == 6 and tyurina_local(f).dimension == 6
stratum = stratum_catalog(SingularityClass("E", 6))[0]
assert verify_stratum(SingularityClass("E", 6), stratum,
                      sample_witness(stratum, random.Random(1))).ok
assert main(["poly-milnor", "--vars", "x,y", "x^3 + y^4"]) == 0
fam = special_adjacency_family("a7-from-e8")
assert milnor_local(fam).dimension == 7
assert tyurina_fused(fam).local_part.dimension == 7
assert milnor_local(fam.specialize_params({"t": Fraction(1, 3)})).dimension == 7
assert build_versal_family(parse_poly("x^3 + y^4", VarCtx(["x", "y"]))).tyurina_number == 6
assert main(["adjacency", "a7-from-e8", "--t", "1,-1"]) == 0
print("sympy" in sys.modules)
"""


def test_no_run_imports_sympy():
    # A fresh interpreter: Q and Q(t) pipelines, a specialization, a versal
    # family and the CLI on a parametric family all leave sympy unloaded.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", SYMPY_FREE], check=True,
                         capture_output=True, text=True, env=env)
    assert out.stdout.split()[-1] == "False"


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, max_size=6))
def test_q_field_contract(qs):
    ctx = VarCtx(["x"])
    for q in qs:
        c = Q.from_fraction(q)
        assert type(c) is Fraction and Q.as_fraction(c) == q
        assert parse_poly(Q.to_str(c), ctx) == ctx.constant(c)
    # the content: gcd of numerators over lcm of denominators, signed so that
    # the first nonzero coefficient divided by it is positive
    nonzero = [q for q in qs if q]
    expected = Fraction(gcd(*(q.numerator for q in nonzero)),
                        lcm(*(q.denominator for q in nonzero))) if nonzero else 1
    if nonzero and nonzero[0] < 0:
        expected = -expected
    assert Q.common_unit(qs) == expected


@settings(max_examples=150, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=4),
       st.lists(rationals, min_size=1, max_size=4), rationals)
@example(num=[0], den=[1], point=0)
def test_specialize_q_t_to_q(num, den, point):
    # Q(t) at t = point lands in Q as a Fraction: the quotient of the
    # numerator and the denominator evaluated there.
    assume(any(den))
    value = [sum(a * point ** k for k, a in enumerate(p)) for p in (num, den)]
    assume(value[1])
    t = QT.param("t")
    c = (sum((QT.from_fraction(a) * t ** k for k, a in enumerate(num)), QT.zero)
         / sum((QT.from_fraction(a) * t ** k for k, a in enumerate(den)), QT.zero))
    got = QT.specialize(c, {"t": point}, Q)
    assert type(got) is Fraction and got == value[0] / value[1]
    assert Q.convert_to(point, QT) == QT.from_fraction(point)


# ---------------------------------------------------------------------------
# sympy as an independent oracle for Z[params] and Q(params)
# ---------------------------------------------------------------------------

def z_terms(data, nvars, min_size=1, max_size=4):
    """A nonzero element of Z[nvars generators] as a dict of terms."""
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return data.draw(st.dictionaries(exps, st.integers(-6, 6).filter(bool),
                                     min_size=min_size, max_size=max_size))


def as_ints(p) -> dict:
    """The terms of a sympy ring element with integer coefficients."""
    assert all(q.denominator == 1 for q in p.values())
    return {m: int(q.numerator) for m, q in p.items()}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([("s", "t"), ("l1", "l2", "l3")]))
def test_ring_gcd_equals_the_sympy_gcd(data, names):
    # Lists over Z[s, t] or Z[l1, l2, l3] times a planted common factor (a
    # term, a multi-term polynomial or one); each input is built in both
    # representations, and the products and the gcd must agree.
    field, R = CoeffField(names), sympy_ring(",".join(names), ZZ)[0]
    n = len(names)
    factor = z_terms(data, n, max_size=data.draw(st.sampled_from([1, 3])))
    cofactors = [z_terms(data, n, min_size=data.draw(st.sampled_from([1, 2])))
                 for _ in range(data.draw(st.integers(1, 4)))]
    ours = [_ZPoly(c) * _ZPoly(factor) for c in cofactors]
    theirs = [R(c) * R(factor) for c in cofactors]
    assert ours == [as_ints(p) for p in theirs]
    g = R.zero
    for p in theirs:
        g = g.gcd(p)
    assert field.ring_gcd(ours) == as_ints(g)


def sympy_product(f: dict, g: dict, nvars: int) -> dict:
    R = sympy_ring(",".join("l%d" % i for i in range(nvars)), ZZ)[0]
    return as_ints(R(f) * R(g))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_packed_product_equals_the_sympy_product(data, nvars):
    # Products of 2-40 terms by 2-40 terms in 1-4 generators, exponents up to
    # 30 with gaps, coefficients from small to 2^256 of both signs.
    exps = st.tuples(*[st.integers(0, 30)] * nvars)
    coef = st.one_of(st.integers(-6, 6), st.integers(-2 ** 256, 2 ** 256)).filter(bool)
    f, g = (data.draw(st.dictionaries(exps, coef, min_size=2, max_size=40))
            for _ in range(2))
    product = sympy_product(f, g, nvars)
    assert _ZPoly(f) * _ZPoly(g) == product
    assert _ZPoly(g) * _ZPoly(f) == product


K = 2 ** 64


@pytest.mark.parametrize("f, g", [
    # (t + 1)(t - 1): the middle digit cancels inside the one group
    ({(1,): 1, (0,): 1}, {(1,): 1, (0,): -1}),
    # (s + t)(s - t) packed along s: the group of t^1 vanishes entirely
    ({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}),
    # (-t^2 + 1)(t + 1): a negative top digit
    ({(2,): -1, (0,): 1}, {(1,): 1, (0,): 1}),
    # coefficients at +-(2^k - 1) and -2^k, so the digits fill their width
    ({(3,): K - 1, (1,): -K, (0,): -(K - 1)}, {(2,): -K, (1,): K - 1, (0,): -K}),
    ({(1, 1): -K, (0, 2): K - 1, (0, 0): 1 - K}, {(2, 0): K - 1, (0, 1): -K}),
    # the bound is tight: the t^2 coefficient 3*(2^64 - 1)^2 needs every bit
    ({(2,): K - 1, (1,): K - 1, (0,): K - 1}, {(2,): K - 1, (1,): K - 1, (0,): K - 1}),
    # s + 1 has exponent 0 in t, the packed generator, in every term
    ({(1, 0): 1, (0, 0): 1}, {(0, 5): 3, (0, 1): -2}),
    # univariate: the whole product is one big-integer multiply
    ({(30,): 2 ** 200, (17,): -1, (0,): 5}, {(29,): -(2 ** 100), (3,): 7, (1,): 1}),
])
def test_packed_product_edge_cases(f, g):
    product = sympy_product(f, g, len(next(iter(f))))
    assert _ZPoly(f) * _ZPoly(g) == product == _ZPoly(g) * _ZPoly(f)


def test_product_with_zero():
    f = _ZPoly({(1, 0): 2, (0, 3): -1})
    assert _ZPoly() * f == 0 and f * _ZPoly() == 0 and _ZPoly() * _ZPoly() == 0
    assert f * 0 == 0 and type(f * _ZPoly()) is _ZPoly


def test_powers_reject_negative_exponents():
    # Poly and Q(t) elements share one repeated-squaring loop
    ctx = VarCtx(("x",))
    for base, one in [(parse_poly("x", ctx), ctx.one()), (QT.param("t"), QT.one)]:
        assert base ** 0 == one
        with pytest.raises(ValueError, match="negative power"):
            base ** -1


def sympy_to_str(c, names) -> str:
    """The printed form of a sympy FracField element, written from its
    numerator and denominator: terms by descending (degree, exponents),
    divided by an integer denominator, or both parenthesized over a
    parametric one."""
    def poly_str(p, den):
        parts = []
        for exps, q in sorted(p.terms(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
            coef = Fraction(int(q.numerator), int(q.denominator)) / den
            num = str(coef) if coef.denominator != 1 else str(coef.numerator)
            mon = "*".join(x if e == 1 else "%s^%d" % (x, e) for x, e in zip(names, exps) if e)
            parts.append(num if not mon else mon if coef == 1 else "-" + mon if coef == -1
                         else "%s*%s" % (num, mon))
        out = parts[0] if parts else "0"
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

    if c.denom.is_ground:
        return poly_str(c.numer, Fraction(int(c.denom.LC.numerator)))
    return "(%s)/(%s)" % (poly_str(c.numer, 1), poly_str(c.denom, 1))


def both_polynomials(data, names, min_size=0, max_size=3):
    """A random polynomial with rational coefficients in Q(names), built from
    the same terms in the own field and in sympy's FracField."""
    ours, theirs = CoeffField(names), sympy_field(",".join(names), QQ)[0]
    coef = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    mine, ref = ours.zero, theirs.zero
    for m, q in data.draw(st.dictionaries(exps, coef, min_size=min_size,
                                          max_size=max_size)).items():
        mono, ref_mono = ours.from_fraction(q), theirs(QQ(q.numerator, q.denominator))
        for x, ref_x, e in zip(names, theirs.gens, m):
            mono, ref_mono = mono * ours.param(x) ** e, ref_mono * ref_x ** e
        mine, ref = mine + mono, ref + ref_mono
    return mine, ref


def both_fractions(data, names):
    """A random element of Q(names), in the own field and in sympy's
    FracField: a polynomial with rational coefficients over a polynomial or
    an integer."""
    num, num_ref = both_polynomials(data, names)
    den, den_ref = both_polynomials(data, names, min_size=1, max_size=2)
    return num / den, num_ref / den_ref


def same_element(mine, ref, field) -> bool:
    return (as_ints(ref.numer) == mine.numer and as_ints(ref.denom) == mine.denom
            and sympy_to_str(ref, field.params) == field.to_str(mine))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_field_arithmetic_equals_sympy(data):
    # A random sequence of + - * / over Q(s, t) gives, at every step, the
    # numerator, denominator and printed form of sympy's FracField.
    mine, ref = both_fractions(data, QST.params)
    assert same_element(mine, ref, QST)
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from("+-*/"))
        other, other_ref = both_fractions(data, QST.params)
        if op == "/" and not other:
            continue
        fn = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}[op]
        mine, ref = fn(mine, other), fn(ref, other_ref)
        assert same_element(mine, ref, QST)


def over_an_integer(data, names):
    """A random element of Q(names) with an integer denominator, in the own
    field and in sympy's FracField: a polynomial with rational coefficients
    over a nonzero integer."""
    num, ref = both_polynomials(data, names)
    d = data.draw(st.integers(-12, 12).filter(bool))
    return num / d, ref / d


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_field_arithmetic_over_integer_denominators_equals_sympy(data):
    # Operands whose denominators are nonzero integers, of either sign before
    # canonical form: + - * keep the denominator an integer along a chain,
    # and / by each operand is compared on the side; every result has the
    # numerator, denominator and printed form of sympy's FracField.
    mine, ref = over_an_integer(data, QST.params)
    assert same_element(mine, ref, QST)
    for _ in range(data.draw(st.integers(1, 4))):
        other, other_ref = over_an_integer(data, QST.params)
        if other:
            assert same_element(mine / other, ref / other_ref, QST)
        op = data.draw(st.sampled_from([operator.add, operator.sub, operator.mul]))
        mine, ref = op(mine, other), op(ref, other_ref)
        assert mine.denom.is_ground and same_element(mine, ref, QST)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.one_of(st.integers(-9, 9), rationals), st.booleans())
def test_rationals_coerce_on_either_side_and_hash_like_their_values(data, q, constant):
    # An int or Fraction q on either side of + - * / is the element
    # from_fraction(q) of Q(t) or Q(s, t); a constant element c computes like
    # the Fraction it equals; equal values hash equal; a str is refused, and
    # so is a zero divisor.
    field = data.draw(st.sampled_from([QT, QST]))
    c = (field.from_fraction(data.draw(rationals)) if constant
         else both_fractions(data, field.params)[0])
    fq = field.from_fraction(q)
    values = [q, fq, c]
    for op in [operator.add, operator.sub, operator.mul, operator.truediv]:
        for x, y, fx, fy in [(q, c, fq, c), (c, q, c, fq)]:
            if op is operator.truediv and not y:
                with pytest.raises(ZeroDivisionError):
                    op(x, y)
                continue
            got = op(x, y)
            assert got == op(fx, fy)
            values.append(got)
            if constant:
                cq = field.as_fraction(c)
                expected = op(q, cq) if x is q else op(cq, q)
                assert got == expected and expected == got
                values.append(expected)
        with pytest.raises(TypeError):
            op(c, "1")
        with pytest.raises(TypeError):
            op("1", c)
    assert c != "1" and not c == "1"
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.fractions(min_value=-4, max_value=4, max_denominator=5))
def test_partial_specialize_and_convert_equal_sympy(data, value):
    # Q(s, t) -> Q(t) at s = value: the quotient of numerator and denominator
    # evaluated there, as sympy computes it; and the embeddings Q(t) -> Q(s,
    # t) and Q(s, t) -> Q(t, s) (a new generator order) are sympy's.
    mine, ref = both_fractions(data, QST.params)
    point = QQ(value.numerator, value.denominator)
    num, den = ref.numer.evaluate(0, point), ref.denom.evaluate(0, point)
    assume(den)
    target = QQ.frac_field("t")
    expected = target.convert(num) / target.convert(den)
    got = QST.specialize(mine, {"s": value}, QT)
    assert same_element(got, expected, QT)
    assert same_element(QT.convert_to(got, QST),
                        QQ.frac_field("s", "t").convert_from(expected, target), QST)
    swapped = CoeffField(("t", "s"))
    assert same_element(QST.convert_to(mine, swapped),
                        QQ.frac_field("t", "s").convert_from(ref, QQ.frac_field("s", "t")),
                        swapped)
