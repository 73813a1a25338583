"""Completion engines: Buchberger for global orders, Mora for local orders.

Both engines work fraction-free: S-polynomials cross-multiply leading
coefficients instead of dividing, and every intermediate polynomial is kept
primitive (common coefficient content removed).  Over parametric coefficient
fields this both bounds growth and keeps leading coefficients meaningful for
the stratification workflow.

Inside the engines coefficients live in the ring beneath the field (ints, or
Z[params]; see ``coeffs``): denominators are cleared once on the way in and
the results are mapped back to the field on the way out.  Such ring
polynomials are ``Poly`` objects whose coefficients are ring elements; only
arithmetic, equality and leading terms apply to them, and ``_primitive``
stands in for ``Poly.primitive``.  A field computation would give the same
intermediate polynomials up to a unit; zero tests, leading monomials and
ecarts do not see the unit, so both take the same steps.

Mora's algorithm over Q truncates at the highest corner (Greuel-Pfister, *A
Singular Introduction to Commutative Algebra*, 1.7).  Under ``neg_grevlex``
(any permutation) the leading monomial of a polynomial has its lowest
degree.  So once the leading monomials of the basis leave finitely many
standard monomials, of top degree k - 1, every monomial of degree k leads an
element of the ideal whose other terms have degree k or more; these span
m^k modulo m^(k+1), and by Nakayama m^k lies in the ideal of the local ring.
From then on every term of degree k or more is dropped from S-polynomials
and weak-normal-form steps, and from the basis elements present whenever k
is recomputed: that changes each by an element of the ideal and never
touches a leading monomial (one of degree k or more is kept as a basis
element on its own).  Only the tails of the basis elements change, and by
terms in m^k.  An element added after the last recomputation, or a seed
element of a run that reduces no pair, keeps its tail above the final k, so
the returned tails are not canonical.  Parametric inputs are not truncated:
the leading coefficients that certify the corner would have to become
assumptions.  Other local orders are not degree-compatible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .orders import MonomialOrder, OrderClass
from .poly import Monomial, Poly

DEFAULT_STEP_BUDGET = 10 ** 6


class OrderClassError(ValueError):
    """A pipeline was fed a monomial order of the wrong class."""


class StepBudgetExceeded(RuntimeError):
    """A reduction loop exceeded its configured step budget."""


@dataclass(frozen=True)
class PolySet:
    """Duplicate-free list of nonzero polynomials sharing context and order."""

    elements: tuple[Poly, ...]
    order: MonomialOrder

    def __init__(self, elements: Iterable[Poly], order: MonomialOrder):
        seen = []
        ctx = None
        for p in elements:
            if p.is_zero():
                raise ValueError("PolySet elements must be nonzero")
            if ctx is None:
                ctx = p.ctx
            elif p.ctx != ctx:
                raise ValueError("PolySet elements must share one context")
            if p not in seen:
                seen.append(p)
        if ctx is None:
            raise ValueError("PolySet must not be empty")
        object.__setattr__(self, "elements", tuple(seen))
        object.__setattr__(self, "order", order)

    @property
    def ctx(self):
        return self.elements[0].ctx

    def leading_monomials(self) -> list[Monomial]:
        return [p.leading_monomial(self.order) for p in self.elements]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


class _Budget:
    """The state of one engine call: the steps left and, once a Mora
    completion over Q knows it, the corner degree k with m^k inside the
    ideal, above which terms are dropped."""

    __slots__ = ("left", "corner")

    def __init__(self, steps: Optional[int]):
        self.left = DEFAULT_STEP_BUDGET if steps is None else steps
        self.corner: Optional[int] = None

    def tick(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise StepBudgetExceeded("reduction step budget exceeded")


# ---------------------------------------------------------------------------
# ring coefficients
# ---------------------------------------------------------------------------

def _to_ring(p: Poly):
    """(q, den): q has ring coefficients and p = q / den."""
    field = p.ctx.field
    den = field.ring_denominator(c for _, c in p.items())
    return Poly(p.ctx, {m: field.to_ring(c, den) for m, c in p.items()}), den


def _from_ring(p: Poly) -> Poly:
    field = p.ctx.field
    return Poly(p.ctx, {m: field.from_ring(c) for m, c in p.items()})


def _primitive(p: Poly, order: MonomialOrder) -> Poly:
    """Poly.primitive for ring coefficients: p up to a unit, divided by the
    gcd of its coefficients and sign fixed on the leading term.  The result
    is primitive, so p and every unit multiple of it give the same one."""
    if p.is_zero():
        return p
    coeffs = p.ctx.field.ring_primitive(p.leading_coefficient(order),
                                        [c for _, c in p.items()])
    return p if coeffs is None else Poly(p.ctx, dict(zip(p.monomials(), coeffs)))


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def s_polynomial(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    """Cross-multiplied S-polynomial, made primitive; the shared leading
    monomial cancels."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial")
    return _from_ring(_spoly(_to_ring(f)[0], _to_ring(g)[0], order))


def _spoly(f: Poly, g: Poly, order: MonomialOrder,
           corner: Optional[int] = None) -> Poly:
    """s_polynomial on ring coefficients, truncated below the corner."""
    cf, mf = f.leading_term(order)
    cg, mg = g.leading_term(order)
    l = mf.lcm(mg)
    a = f.mul_term(cg, l.quo(mf))
    b = g.mul_term(cf, l.quo(mg))
    return _primitive(_truncate(a - b, corner), order)


def _truncate(p: Poly, corner: Optional[int]) -> Poly:
    """p without its terms of degree corner or more; p when corner is None."""
    if corner is None:
        return p
    kept = {m: c for m, c in p.items() if m.degree < corner}
    return p if len(kept) == len(p) else Poly(p.ctx, kept)


def ecart(f: Poly, order: MonomialOrder) -> int:
    """Total degree minus leading-monomial degree."""
    if f.is_zero():
        raise ValueError("ecart of the zero polynomial")
    return f.total_degree() - f.leading_monomial(order).degree


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

def normal_form(f: Poly, G: PolySet, step_budget: Optional[int] = None) -> Poly:
    """Classical multivariate division remainder (global orders only).

    No monomial of the remainder is divisible by any leading monomial of G,
    and f - r lies in the ideal generated by G.
    """
    order = G.order
    if order.classify(f.ctx.arity) is not OrderClass.GLOBAL:
        raise OrderClassError("normal_form requires a global monomial order")
    budget = _Budget(step_budget)
    fr, den = _to_ring(f)
    r, u = _divide(fr, [_to_ring(g)[0] for g in G], order, budget)
    field = f.ctx.field
    return _from_ring(r).scale(field.one / field.from_ring(den * u))


def _divide(f: Poly, gens: list[Poly], order: MonomialOrder, budget: _Budget):
    """(r, u) with u the product of the leading coefficients divided by and
    u*f - r in the ideal of gens; no monomial of r is divisible by a leading
    monomial of gens."""
    lts = [g.leading_term(order) for g in gens]
    h = f
    r = f.ctx.zero()
    u = 1
    while h:
        budget.tick()
        ch, mh = h.leading_term(order)
        hit = None
        for (cg, mg), g in zip(lts, gens):
            if mg.divides(mh):
                hit = (cg, mg, g)
                break
        if hit is None:
            r = r + Poly(h.ctx, {mh: ch})
            h = h - Poly(h.ctx, {mh: ch})
            continue
        cg, mg, g = hit
        h = h.scale(cg) - g.mul_term(ch, mh.quo(mg))
        r = r.scale(cg)
        u = u * cg
    return r, u


def _reduce_full(f: Poly, gens: list[Poly], order: MonomialOrder, budget: _Budget) -> Poly:
    """The remainder of _divide: up to a unit, the one division over the
    field gives."""
    return _divide(f, gens, order, budget)[0]


def weak_normal_form(f: Poly, G: PolySet, step_budget: Optional[int] = None) -> Poly:
    """Mora weak normal form.

    Returns h with u*f = h modulo <G> for some unit u of the ring implemented
    by the order, such that no leading monomial of the (growing) divisor pool
    divides the leading monomial of h.  Works for local orders; for global
    orders it degenerates to a leading-term reduction loop.
    """
    order = G.order
    if order.classify(f.ctx.arity) is OrderClass.MIXED:
        raise OrderClassError("weak_normal_form rejects mixed monomial orders")
    budget = _Budget(step_budget)
    fr = _to_ring(f)[0]
    h = _weak_nf(fr, [_to_ring(g)[0] for g in G], order, budget)
    return f if h is fr else _from_ring(h)


def _weak_nf(f: Poly, gens: list[Poly], order: MonomialOrder, budget: _Budget) -> Poly:
    """Weak normal form on ring coefficients."""
    h = f
    pool = list(gens)
    pool_lm = [g.leading_monomial(order) for g in pool]
    pool_ecart = [ecart(g, order) for g in pool]
    while h:
        budget.tick()
        mh = h.leading_monomial(order)
        best = None
        for idx, mg in enumerate(pool_lm):
            if mg.divides(mh):
                e = pool_ecart[idx]
                if best is None or e < pool_ecart[best]:
                    best = idx
        if best is None:
            return h
        eh = ecart(h, order)
        if eh < pool_ecart[best]:
            pool.append(h)
            pool_lm.append(mh)
            pool_ecart.append(eh)
        h = _spoly(h, pool[best], order, budget.corner)
    return h


# ---------------------------------------------------------------------------
# completion (shared pair machinery)
# ---------------------------------------------------------------------------

def _update(G, P, ih, f, lm, order):
    """Gebauer-Moeller pair update: add basis index ih, pruning critical
    pairs with the product and chain criteria."""
    mh = lm[ih]

    def lcm_(i, j):
        return lm[i].lcm(lm[j])

    C = set(G)
    D = set()
    while C:
        ig = min(C)
        C.remove(ig)
        mg = lm[ig]
        l = mh.lcm(mg)

        def divides_lcm(ip):
            return mh.lcm(lm[ip]).divides(l)

        if mh.mul(mg) == l or (
                not any(divides_lcm(ip) for ip in C)
                and not any(divides_lcm(p[1]) for p in D)):
            D.add((ih, ig))

    E = set()
    while D:
        ih_, ig = min(D)
        D.remove((ih_, ig))
        if mh.mul(lm[ig]) != mh.lcm(lm[ig]):
            E.add((ih_, ig))

    P_new = set()
    while P:
        ig1, ig2 = min(P)
        P.remove((ig1, ig2))
        l = lcm_(ig1, ig2)
        if (not mh.divides(l)
                or lcm_(ig1, ih).__eq__(l)
                or lcm_(ig2, ih).__eq__(l)):
            P_new.add((ig1, ig2))
    P_new |= E

    G_new = {ig for ig in G if not mh.divides(lm[ig])}
    G_new.add(ih)
    return G_new, P_new


def _select_pair(P, lm, order):
    """Normal selection: minimal lcm (degree first, then order key)."""
    def rank(pair):
        l = lm[pair[0]].lcm(lm[pair[1]])
        return (l.degree, order.sort_key(l), pair)
    return min(P, key=rank)


def _completion(seed: Iterable[Poly], order: MonomialOrder, reducer, budget: _Budget):
    """Run pair completion starting from the seed, reducing S-polynomials
    with the supplied reducer (full division or Mora weak normal form).

    Completion runs on ring coefficients: the seed is cleared of
    denominators and made primitive, and the basis is returned over the
    field.

    Under neg_grevlex over Q (a local order, so the reducer is the weak
    normal form) the run truncates at the highest corner; see the module
    docstring.  The corner is recomputed only before a pair is reduced, and
    only after a leading monomial of degree below it has arrived."""
    f: list[Poly] = []
    lm: list[Monomial] = []
    G: set[int] = set()
    P: set[tuple[int, int]] = set()
    seed = [_primitive(_to_ring(p)[0], order) for p in seed]
    truncating = order.kind == "neg_grevlex" and not seed[0].ctx.field.params
    arity = seed[0].ctx.arity
    stale = False

    def add(p: Poly):
        nonlocal G, P, stale
        f.append(p)
        lm.append(p.leading_monomial(order))
        if truncating and (budget.corner is None or lm[-1].degree < budget.corner):
            stale = True
        G, P = _update(G, P, len(f) - 1, f, lm, order)

    def refresh_corner():
        # The standard monomials are enumerated in invariants (where the
        # benchmark profile counts them), which imports this module.
        from .invariants import is_zero_dimensional, standard_monomials
        nonlocal stale
        stale = False
        leading = [lm[i] for i in G]
        if not is_zero_dimensional(leading, arity):
            return
        # no unit leads an element of G here, so 1 is a standard monomial
        k = 1 + max(m.degree for m in standard_monomials(leading, arity))
        if k == budget.corner:
            return
        budget.corner = k
        for i, p in enumerate(f):
            q = _truncate(p, k)
            if q is not p:
                # an element inside m^k is kept as its leading monomial
                f[i] = _primitive(q, order) or Poly(p.ctx, {lm[i]: 1})

    for p in seed:
        if p not in f:
            add(p)

    # Once a unit is in G, every reduction gives zero (its leading monomial 1
    # divides every monomial), so the pairs left cannot change G.
    while P and all(lm[k].degree for k in G):
        if stale:
            refresh_corner()
        i, j = _select_pair(P, lm, order)
        P.remove((i, j))
        budget.tick()
        sp = _spoly(f[i], f[j], order, budget.corner)
        if sp.is_zero():
            continue
        h = reducer(sp, [f[k] for k in sorted(G)], order, budget)
        if not h.is_zero():
            add(_primitive(h, order))

    return [_from_ring(f[k]) for k in sorted(G)]


def _minimalize(basis: list[Poly], order: MonomialOrder) -> list[Poly]:
    """Drop elements whose leading monomial is a proper multiple of another's.

    Elements sharing the same leading monomial are all kept: with parametric
    coefficients their leading coefficients carry distinct degeneration data.
    """
    ranked = sorted(basis, key=lambda p: (order.sort_key(p.leading_monomial(order)),
                                          len(p), p.to_str(order)))
    lms = [p.leading_monomial(order) for p in ranked]
    keep = []
    for i, p in enumerate(ranked):
        mi = lms[i]
        redundant = any(lms[j].divides(mi) and lms[j] != mi
                        for j in range(len(ranked)) if j != i)
        if not redundant:
            keep.append(p)
    return keep


def _normalize_output(basis: list[Poly], order: MonomialOrder) -> list[Poly]:
    """Monic for numeric leading coefficients.  An element with a parametric
    one is left as completion returns it: primitive over Z[params], which
    fixes it up to a unit."""
    return [p.monic(order) if p.ctx.field.is_constant(p.leading_coefficient(order))
            else p for p in basis]


def buchberger(F: PolySet, step_budget: Optional[int] = None) -> PolySet:
    """Groebner basis of <F> under a global order, minimalized."""
    order = F.order
    if order.classify(F.ctx.arity) is not OrderClass.GLOBAL:
        raise OrderClassError("buchberger requires a global monomial order")
    budget = _Budget(step_budget)
    basis = _completion(F.elements, order, _reduce_full, budget)
    basis = _minimalize(basis, order)
    basis = _normalize_output(basis, order)
    return PolySet(basis, order)


def standard_basis(F: PolySet, step_budget: Optional[int] = None) -> PolySet:
    """Mora standard basis of <F> in the local ring, minimalized."""
    order = F.order
    cls = order.classify(F.ctx.arity)
    if cls is OrderClass.GLOBAL:
        raise OrderClassError("standard_basis requires a local order; use buchberger")
    if cls is OrderClass.MIXED:
        raise OrderClassError("standard_basis rejects mixed monomial orders")
    budget = _Budget(step_budget)
    basis = _completion(F.elements, order, _weak_nf, budget)
    basis = _minimalize(basis, order)
    basis = _normalize_output(basis, order)
    return PolySet(basis, order)

