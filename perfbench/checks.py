"""Answer checks that share no code with the completion engines.

Everything here works on its own sparse polynomials over ``Fraction``
(dicts from exponent tuples to coefficients) built from expression strings,
so a fault in ``localstd``'s parser, coefficient fields or engines cannot
hide itself by also corrupting the reference value.

* ``local_algebra_dim`` -- dim Q[x]/(I + m^k) for k = 1, 2, ... until two
  consecutive k agree.  Then m^k lies in I + m^(k+1), so m^k lies in I in the
  local ring (Nakayama) and the value is the local length: the local Milnor
  number of the Jacobian ideal, the local Tyurina number of (f, J(f)).
* ``milnor_orlik`` -- prod (1/w_i - 1) for (semi-)quasihomogeneous germs.
* ``bezout_milnor`` -- (d - 1)^n for sum x_i^d plus lower-degree terms.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from itertools import product
from typing import Dict, Iterable, Sequence, Tuple

Exps = Tuple[int, ...]
Pol = Dict[Exps, Fraction]


# ---------------------------------------------------------------------------
# sparse polynomials over Fraction
# ---------------------------------------------------------------------------

def _add(p: Pol, q: Pol, sign: int = 1) -> Pol:
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + sign * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _mul(p: Pol, q: Pol) -> Pol:
    out: Pol = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _pow(p: Pol, n: int, arity: int) -> Pol:
    out: Pol = {(0,) * arity: Fraction(1)}
    for _ in range(n):
        out = _mul(out, p)
    return out


def evaluate(src: str, variables: Sequence[str], values: Dict[str, Fraction] = None) -> Pol:
    """Polynomial in ``variables`` denoted by ``src`` (``^`` for powers),
    with the names in ``values`` replaced by rationals."""
    values = values or {}
    arity = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    one = (0,) * arity

    def const(c) -> Pol:
        c = Fraction(c)
        return {one: c} if c else {}

    def walk(node) -> Pol:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return const(node.value)
        if isinstance(node, ast.Name):
            if node.id in index:
                e = [0] * arity
                e[index[node.id]] = 1
                return {tuple(e): Fraction(1)}
            if node.id in values:
                return const(values[node.id])
            raise ValueError("unbound symbol %r" % node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = walk(node.operand)
            return {m: -c for m, c in inner.items()} if isinstance(node.op, ast.USub) else inner
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                if not (isinstance(node.right, ast.Constant) and isinstance(node.right.value, int)):
                    raise ValueError("non-integer exponent")
                return _pow(walk(node.left), node.right.value, arity)
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return _add(left, right)
            if isinstance(node.op, ast.Sub):
                return _add(left, right, -1)
            if isinstance(node.op, ast.Mult):
                return _mul(left, right)
            if isinstance(node.op, ast.Div):
                if set(right) - {one}:
                    raise ValueError("division by a non-constant")
                return {m: c / right[one] for m, c in left.items()}
        raise ValueError("unsupported expression node %s" % type(node).__name__)

    return walk(ast.parse(src.replace("^", "**"), mode="eval"))


def constant_value(src: str, values: Dict[str, Fraction]) -> Fraction:
    p = evaluate(src, (), values)
    return p.get((), Fraction(0))


def derivative(p: Pol, i: int) -> Pol:
    out: Pol = {}
    for m, c in p.items():
        if m[i]:
            d = list(m)
            d[i] -= 1
            out[tuple(d)] = c * m[i]
    return out


def jacobian(p: Pol, arity: int) -> list:
    return [d for d in (derivative(p, i) for i in range(arity)) if d]


# ---------------------------------------------------------------------------
# local algebra length by truncation
# ---------------------------------------------------------------------------

def _monomials_below(arity: int, k: int):
    """Exponent vectors of total degree < k."""
    return [e for e in product(range(k), repeat=arity) if sum(e) < k]


def _truncated_rank(gens: Iterable[Pol], arity: int, k: int) -> int:
    """Rank of the span of {m*g mod m^k}: a sparse echelon form over Fraction
    with the lowest-degree monomial of each row as its pivot."""
    pivots: Dict[Exps, Dict[Exps, Fraction]] = {}
    mons = _monomials_below(arity, k)
    for g in gens:
        low = min(sum(m) for m in g)
        for mult in mons:
            if sum(mult) + low >= k:
                continue
            row = {}
            for m, c in g.items():
                e = tuple(a + b for a, b in zip(m, mult))
                if sum(e) < k:
                    row[e] = c
            while row:
                col = min(row, key=lambda e: (sum(e), e))
                piv = pivots.get(col)
                if piv is None:
                    inv = 1 / row[col]
                    pivots[col] = {m: c * inv for m, c in row.items()}
                    break
                fac = row[col]
                for m, c in piv.items():
                    s = row.get(m, 0) - fac * c
                    if s:
                        row[m] = s
                    else:
                        row.pop(m, None)
    return len(pivots)


def local_algebra_dim(gens: Sequence[Pol], arity: int, k_max: int = 64) -> int:
    """Length of Q[x]_(x) / (gens), or ValueError when it does not settle by
    k_max (the ideal is not m-primary within reach)."""
    gens = [g for g in gens if g]
    if any((0,) * arity in g for g in gens):
        return 0  # a unit generates the local ring
    prev = None
    for k in range(1, k_max + 1):
        total = len(_monomials_below(arity, k))
        d = total - _truncated_rank(gens, arity, k)
        if d == prev:
            return d
        prev = d
    raise ValueError("local algebra did not stabilize by degree %d" % k_max)


def local_mu_tau(p: Pol, arity: int, want_tau: bool = True):
    jac = jacobian(p, arity)
    mu = local_algebra_dim(jac, arity)
    tau = local_algebra_dim([p] + jac, arity) if want_tau else None
    return mu, tau


# ---------------------------------------------------------------------------
# closed formulas
# ---------------------------------------------------------------------------

def milnor_orlik(weights: Sequence[Fraction]) -> int:
    out = Fraction(1)
    for w in weights:
        out *= 1 / Fraction(w) - 1
    if out.denominator != 1:
        raise ValueError("Milnor-Orlik product is not an integer: %s" % out)
    return int(out)


def bezout_milnor(degree: int, arity: int) -> int:
    return (degree - 1) ** arity


def ade_weights(family: str, index: int, arity: int) -> list:
    """Weights of the y, z variables of the A/D/E normal form plus 1/2 for
    every suspension square."""
    if family == "A":
        wy, wz = Fraction(1, 2), Fraction(1, index + 1)
    elif family == "D":
        wz = Fraction(1, index - 1)
        wy, wz = (1 - wz) / 2, wz
    elif index == 6:
        wy, wz = Fraction(1, 3), Fraction(1, 4)
    elif index == 7:
        wy, wz = Fraction(1, 3), Fraction(2, 9)
    else:
        wy, wz = Fraction(1, 3), Fraction(1, 5)
    return [Fraction(1, 2)] * (arity - 2) + [wy, wz]


def hessian_corank(p: Pol, arity: int) -> int:
    """Arity minus the rank of the second partials at the origin."""
    rows = []
    for i in range(arity):
        row = []
        for j in range(arity):
            e = [0] * arity
            e[i] += 1
            e[j] += 1
            c = p.get(tuple(e), Fraction(0))
            row.append(c * (2 if i == j else 1))
        rows.append(row)
    rank = 0
    for col in range(arity):
        pr = next((r for r in range(rank, arity) if rows[r][col]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        for r in range(arity):
            if r != rank and rows[r][col]:
                fac = rows[r][col] / rows[rank][col]
                rows[r] = [a - fac * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return arity - rank


def corank_of_class(name: str) -> int:
    """Hessian corank of a simple singularity: A1 -> 0, A_k -> 1, D/E -> 2."""
    if name == "A1":
        return 0
    return 1 if name.startswith("A") else 2
