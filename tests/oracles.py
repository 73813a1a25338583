"""Independent brute-force oracles for the test suite.

The Macaulay-matrix oracle measures dim Q[x]/I by exact linear algebra only:
columns are monomials up to a degree bound (highest degree first), rows are
monomial multiples of the generators, and row echelon marks which monomials
are reducible.  Truncation cannot classify monomials near the top of the
degree window (their certificates need higher-degree rows), so the quotient
dimension is read off the lower half of the window and cross-checked for
stability one bound lower.  No monomial orders, no S-polynomials, no
completion: the oracle shares nothing with the engines it checks.
"""

from __future__ import annotations

from math import gcd, lcm

from localstd.poly import Monomial, Poly


def monomials_upto(arity: int, bound: int) -> list[Monomial]:
    out = []
    exps = [0] * arity

    def rec(i, left):
        if i == arity - 1:
            for e in range(left + 1):
                exps[i] = e
                out.append(Monomial(exps))
            exps[i] = 0
            return
        for e in range(left + 1):
            exps[i] = e
            rec(i + 1, left - e)
        exps[i] = 0

    rec(0, bound)
    return out


def _pivot_columns(rows: list[dict]) -> set:
    """Row echelon over Q; returns the set of pivot column indices.  Rows are
    dicts keyed by column index; the pivot of a row is its smallest index.

    Elimination is fraction-free: each row is scaled once to coprime
    integers, a pivot row is subtracted by integer cross-multiplication, and
    the result is divided by the gcd of its entries.
    """
    rows = [_coprime(_cleared(r)) for r in rows if r]
    pivots: dict[int, dict] = {}
    while rows:
        rows.sort(key=len, reverse=True)
        row = rows.pop()
        while row:
            col = min(row)
            if col in pivots:
                piv = pivots[col]
                g = gcd(row[col], piv[col])
                a, b = piv[col] // g, row[col] // g
                if a != 1:
                    row = {c: a * v for c, v in row.items()}
                for c, v in piv.items():
                    nv = row.get(c, 0) - b * v
                    if nv:
                        row[c] = nv
                    elif c in row:
                        del row[c]
                row = _coprime(row)
            else:
                pivots[col] = row
                break
    return set(pivots)


def _cleared(row: dict) -> dict:
    """The rational row times the lcm of its denominators, as ints."""
    den = lcm(*(v.denominator for v in row.values()))
    return {c: int(v * den) for c, v in row.items()}


def _coprime(row: dict) -> dict:
    """The integer row divided by the gcd of its entries."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()} if g else row


def _standard_monomials(gens: list[Poly], bound: int) -> list[Monomial]:
    """Monomials of degree <= bound not reducible by the row space of
    {m * g : deg(m * g) <= bound}."""
    if not gens:
        raise ValueError("need at least one generator")
    ctx = gens[0].ctx
    if ctx.parameters:
        raise ValueError("the oracle works over plain rationals")
    arity = ctx.arity
    # highest degree first so that elimination rewrites high monomials in
    # terms of lower ones, exposing the staircase at the bottom
    ordered = sorted(monomials_upto(arity, bound),
                     key=lambda m: (m.degree, tuple(m)), reverse=True)
    index = {m: i for i, m in enumerate(ordered)}
    field = ctx.field
    rows = []
    for g in gens:
        dg = g.total_degree()
        for m in monomials_upto(arity, bound - dg):
            row = {}
            for mon, c in g.items():
                row[index[mon.mul(m)]] = field.as_fraction(c)
            rows.append(row)
    pivots = _pivot_columns(rows)
    return [m for m, i in index.items() if i not in pivots]


def macaulay_quotient_dimension(gens: list[Poly], bound: int,
                                count_upto: int | None = None) -> int:
    if count_upto is None:
        count_upto = bound // 2
    return sum(1 for m in _standard_monomials(gens, bound)
               if m.degree <= count_upto)


def macaulay_dimension_if_stable(gens: list[Poly], bound: int):
    """Quotient dimension, or None when the oracle cannot certify it.

    Certification needs (a) an empty top row inside the counting window --
    a positive-dimensional ideal keeps standard monomials at every degree --
    and (b) the same count from the one-smaller matrix, so the truncation
    has saturated the window.
    """
    window = bound // 2
    std = _standard_monomials(gens, bound)
    hi = sum(1 for m in std if m.degree <= window)
    hi_inner = sum(1 for m in std if m.degree <= window - 1)
    if hi != hi_inner:
        return None
    lo = macaulay_quotient_dimension(gens, bound - 1, window)
    return hi if hi == lo else None
