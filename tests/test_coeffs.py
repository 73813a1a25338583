"""The coefficient field: Q as Fraction over plain ints, sympy only for Q(params)."""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localstd import CoeffField, VarCtx, parse_poly

SRC = Path(__file__).resolve().parent.parent / "src"

Q = CoeffField(())
QT = CoeffField(("t",))

rationals = st.fractions(max_denominator=1000)

SYMPY_FREE = """
import random, sys
from localstd import (SingularityClass, VarCtx, milnor_local, parse_poly,
                      sample_witness, stratum_catalog, tyurina_local, verify_stratum)
from localstd.cli import main

f = parse_poly("x^3 + y^4 - 1/2*x^2*y^2", VarCtx(["x", "y"]))
assert milnor_local(f).dimension == 6 and tyurina_local(f).dimension == 6
stratum = stratum_catalog(SingularityClass("E", 6))[0]
assert verify_stratum(SingularityClass("E", 6), stratum,
                      sample_witness(stratum, random.Random(1))).ok
assert main(["poly-milnor", "--vars", "x,y", "x^3 + y^4"]) == 0
print("sympy" in sys.modules)
VarCtx(["x"], ["t"])
print("sympy" in sys.modules)
"""


def test_parameter_free_runs_never_import_sympy():
    # A fresh interpreter: the Q pipelines leave sympy unloaded, and the
    # first context with a parameter loads it.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", SYMPY_FREE], check=True,
                         capture_output=True, text=True, env=env)
    assert out.stdout.split()[-2:] == ["False", "True"]


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
