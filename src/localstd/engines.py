"""Completion engines: Buchberger for global orders, Mora for local orders.

Every basis comes from one pair completion, ``_completion``, and the class of
the order picks its reducer: full division (``_reduce_full``) under a global
order, Mora's weak normal form (``_weak_nf``) under a local one
(Greuel-Pfister, *A Singular Introduction to Commutative Algebra*, 1.6-1.7).
``buchberger``, ``standard_basis`` and the invariant pipelines run ``_basis``
on one ``_Budget``; it checks the class once, with ``_require_class``.
``_completion`` returns the minimal basis, sorted by leading monomial and
normalized: monic where the leading coefficient is a number, primitive over
Z[params] where it is parametric, and such a coefficient is recorded on the
budget.

Both reducers work fraction-free: ``_spoly`` cross-multiplies leading
coefficients instead of dividing, for pairs and for every reduction step of
``_divide`` and ``_weak_nf`` (there the divisor's leading monomial divides
h's, so only h is scaled), and nothing else does.  Content (the gcd of the
coefficients) is removed where a polynomial is kept: when it enters the
basis or the Mora pool, and when ``s_polynomial`` or ``weak_normal_form``
returns it.  Between those points a reduction chain runs on a unit multiple
of the primitive polynomial, so one gcd serves a whole chain.  Over
parametric coefficient fields this both bounds growth and keeps leading
coefficients meaningful for the stratification workflow.

Inside the engines coefficients live in the ring beneath the field (ints, or
Z[params]; see ``coeffs``): denominators are cleared once on the way in and
the results are mapped back to the field on the way out.  Such ring
polynomials are ``Poly`` objects whose coefficients are ring elements; only
arithmetic, equality and leading terms apply to them, and ``_primitive``
stands in for ``Poly.primitive``.  A field computation would give the same
intermediate polynomials up to a unit; zero tests, leading monomials and
ecarts do not see the unit, so both take the same steps.

Mora's algorithm truncates at the highest corner (Greuel-Pfister, 1.7).
Under ``neg_grevlex`` (any permutation) the leading monomial of a polynomial
has its lowest degree.  So once the leading monomials of the basis leave
finitely many standard monomials, of top degree k - 1, every monomial of
degree k leads an element of the ideal whose other terms have degree k or
more; these span m^k modulo m^(k+1), and by Nakayama m^k lies in the ideal
of the local ring.
From then on every term of degree k or more is dropped from S-polynomials
and weak-normal-form steps, and from the basis elements present whenever k
is recomputed: that changes each by an element of the ideal and never
touches a leading monomial (one of degree k or more is kept as a basis
element on its own).  Only the tails of the basis elements change, and by
terms in m^k.  An element added after the last recomputation, or a seed
element of a run that reduces no pair, keeps its tail above the final k, so
the returned tails are not canonical.  Over Q(params) the corner rests on
the leading monomials of the basis, which hold wherever their leading
coefficients do not vanish; each time k is set, the parametric leading
coefficients of the basis are recorded as conditions on the run's budget
(``_Budget.assume``, as are those of the returned basis), and the pipelines
report them as genericity assumptions.  At a point where none vanishes,
the specialized run sees the same leading monomials and so the same corner
(as for comprehensive Groebner systems: Weispfenning, J. Symb. Comp. 14,
1992).  Other local orders are not degree-compatible.
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


def _require_class(order: MonomialOrder, arity: int, wanted: OrderClass, what: str):
    got = order.classify(arity)
    if got is not wanted:
        raise OrderClassError("%s requires a %s monomial order, got a %s one"
                              % (what, wanted.value, got.value))


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
    """The state of one run: the steps left; once a Mora completion
    knows it, the corner degree k with m^k inside the ideal, above which
    terms are dropped; and the conditions, the canonical forms of the
    parametric leading coefficients the run assumes nonzero (those that
    certified each corner and those of the returned basis), each once."""

    __slots__ = ("left", "corner", "conditions")

    def __init__(self, steps: Optional[int]):
        if steps is not None and steps < 0:
            raise ValueError("step budget must be non-negative, got %d" % steps)
        self.left = DEFAULT_STEP_BUDGET if steps is None else steps
        self.corner: Optional[int] = None
        self.conditions: list = []

    def assume(self, field, c):
        """Record that the field element c is nonzero: nothing for a
        constant, else its canonical form, once."""
        if not field.is_constant(c):
            canon = field.canonical_assumption(c)
            if canon not in self.conditions:
                self.conditions.append(canon)

    def tick(self):
        self.left -= 1
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
    return _from_ring(_primitive(_spoly(_to_ring(f)[0], _to_ring(g)[0], order), order))


def _spoly(f: Poly, g: Poly, order: MonomialOrder,
           corner: Optional[int] = None) -> Poly:
    """s_polynomial on ring coefficients, truncated below the corner, with
    its content left in; f is not multiplied when its cofactor is 1."""
    cf, mf = f.leading_term(order)
    cg, mg = g.leading_term(order)
    l = mf.lcm(mg)
    a = f if cg == 1 and l == mf else f.mul_term(cg, l.quo(mf))
    return _truncate(a + g.mul_term(-cf, l.quo(mg)), corner)


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
    _require_class(order, f.ctx.arity, OrderClass.GLOBAL, "normal_form")
    budget = _Budget(step_budget)
    fr, den = _to_ring(f)
    r, u = _divide(fr, [_to_ring(g)[0] for g in G], order, budget)
    field = f.ctx.field
    return _from_ring(r).scale(field.one / field.from_ring(den * u))


def _divide(f: Poly, gens: list[Poly], order: MonomialOrder, budget: _Budget):
    """(r, u) with u the product of the leading coefficients divided by and
    u*f - r in the ideal of gens; no monomial of r is divisible by a leading
    monomial of gens.  Each step is an S-polynomial of h and a divisor."""
    lts = [g.leading_term(order) for g in gens]
    h = f
    r = {}
    u = 1
    while h:
        budget.tick()
        mh = h.leading_monomial(order)
        for (cg, mg), g in zip(lts, gens):
            if mg.divides(mh):
                break
        else:
            rest = dict(h.items())
            r[mh] = rest.pop(mh)
            h = Poly(h.ctx, rest)
            continue
        if cg != 1:
            r, u = {m: c * cg for m, c in r.items()}, u * cg
        h = _spoly(h, g, order)
    return Poly(f.ctx, r), u


def _reduce_full(f: Poly, gens: list[Poly], order: MonomialOrder, budget: _Budget) -> Poly:
    """The remainder of _divide: up to a unit, the one division over the
    field gives.  Its content is left in; the caller removes it where the
    remainder is kept."""
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
    return f if h is fr else _from_ring(_primitive(h, order))


def _weak_nf(f: Poly, gens: list[Poly], order: MonomialOrder, budget: _Budget) -> Poly:
    """Weak normal form on ring coefficients, up to a unit.  The chain runs
    on S-polynomials with their content left in; h is made primitive only
    when it enters the pool, and the caller removes the content of the
    result where it is kept."""
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
            h = _primitive(h, order)
            pool.append(h)
            pool_lm.append(mh)
            pool_ecart.append(eh)
        h = _spoly(h, pool[best], order, budget.corner)
    return h


# ---------------------------------------------------------------------------
# completion (shared pair machinery)
# ---------------------------------------------------------------------------

def _update(G, P, ih, lm):
    """Gebauer-Moeller pair update: add basis index ih, pruning critical
    pairs with the product and chain criteria.

    Every index whose leading monomial lm[ih] divides leaves G, equal ones
    included, so the leading monomials in G stay pairwise distinct."""
    mh = lm[ih]
    old = sorted(G)
    lcm_h = {ig: mh.lcm(lm[ig]) for ig in old}
    coprime = {ig for ig in old if mh.mul(lm[ig]) == lcm_h[ig]}
    # the chain test for ig looks at the later indices and the kept ones
    kept = []
    for n, ig in enumerate(old):
        if ig in coprime or not any(lcm_h[ip].divides(lcm_h[ig])
                                    for ip in (*old[n + 1:], *kept)):
            kept.append(ig)
    E = {(ih, ig) for ig in kept if ig not in coprime}
    P_new = {(i, j) for i, j in P
             if not mh.divides(l := lm[i].lcm(lm[j]))
             or mh.lcm(lm[i]) == l or mh.lcm(lm[j]) == l} | E
    G_new = {ig for ig in G if not mh.divides(lm[ig])}
    G_new.add(ih)
    return G_new, P_new


def _select_pair(P, lm, order):
    """Normal selection: minimal lcm (degree first, then order key)."""
    key = order.key(len(lm[0]))
    def rank(pair):
        l = lm[pair[0]].lcm(lm[pair[1]])
        return (l.degree, key(l), pair)
    return min(P, key=rank)


def _completion(seed: Iterable[Poly], order: MonomialOrder, budget: _Budget,
                wanted: OrderClass):
    """Run pair completion starting from the seed, reducing S-polynomials by
    full division when wanted, the class the caller checked the order to
    have, is global, and by Mora's weak normal form when it is local.

    Returns the minimal basis, ascending by leading monomial, read off the
    leading monomials of G: _update leaves them pairwise distinct, and a
    reduced element's is a multiple of none in G, so only a seed can be a
    proper multiple of another; such seeds are left out.  Each element is
    normalized on the way out: divided by its leading coefficient when that
    is a number, else left primitive over Z[params], which fixes it up to a
    unit, with the coefficient recorded on the budget.

    Completion runs on ring coefficients: the seed is cleared of
    denominators, and the basis is returned over the field.  Content is
    removed where a polynomial is kept: every element is made primitive as
    it enters the basis (seed elements, reduced S-polynomials and elements
    truncated at a new corner).  S-polynomials and reducer results carry
    their content, which differs from the primitive one by a unit; zero
    tests, leading monomials, ecarts and truncation do not see a unit, so
    the run takes the same steps and keeps the same elements.

    Under neg_grevlex (a local order) the run truncates at the highest
    corner and records the leading coefficients that certify it on the
    budget; see the module docstring.
    The corner is recomputed only before a pair is reduced, and only after a
    new element has arrived; once the corner is set, every new element comes
    from a reduction truncated at it, so its leading monomial lies below it."""
    f: list[Poly] = []
    lm: list[Monomial] = []
    G: set[int] = set()
    P: set[tuple[int, int]] = set()
    seed = [_primitive(_to_ring(p)[0], order) for p in seed]
    truncating = order.kind == "neg_grevlex"
    field = seed[0].ctx.field
    one = field.to_ring(field.one)
    arity = seed[0].ctx.arity
    # looked up at each call, so that a tracer that replaces them sees them
    reducer = _reduce_full if wanted is OrderClass.GLOBAL else _weak_nf
    stale = False

    def add(p: Poly):
        nonlocal G, P, stale
        f.append(p)
        lm.append(p.leading_monomial(order))
        stale = truncating
        G, P = _update(G, P, len(f) - 1, lm)

    def refresh_corner():
        # The standard monomials are enumerated in invariants (where the
        # benchmark profile counts them), which imports this module.
        from .invariants import standard_monomials
        nonlocal stale
        stale = False
        staircase = standard_monomials([lm[i] for i in G], arity)
        if staircase is None:
            return
        # no unit leads an element of G here, so 1 is a standard monomial
        k = 1 + max(m.degree for m in staircase)
        if k == budget.corner:
            return
        budget.corner = k
        # the corner holds wherever these leading coefficients do not vanish
        for i in G:
            budget.assume(field, field.from_ring(f[i].leading_coefficient(order)))
        for i, p in enumerate(f):
            q = _truncate(p, k)
            if q is not p:
                # an element inside m^k is kept as its leading monomial
                f[i] = _primitive(q, order) or Poly(p.ctx, {lm[i]: one})

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

    minimal = [i for i in G if not any(j != i and lm[j].divides(lm[i]) for j in G)]
    key = order.key(arity)
    basis = []
    for i in sorted(minimal, key=lambda i: key(lm[i])):
        c = field.from_ring(f[i].leading_coefficient(order))
        budget.assume(field, c)
        basis.append(Poly(f[i].ctx, {m: field.from_ring(a) / c for m, a in f[i].items()})
                     if field.is_constant(c) else _from_ring(f[i]))
    return basis


def buchberger(F: PolySet, step_budget: Optional[int] = None) -> PolySet:
    """Groebner basis of <F> under a global order, minimalized."""
    return _basis(F.elements, F.order, _Budget(step_budget), OrderClass.GLOBAL,
                  "buchberger")


def standard_basis(F: PolySet, step_budget: Optional[int] = None) -> PolySet:
    """Mora standard basis of <F> in the local ring, minimalized."""
    return _basis(F.elements, F.order, _Budget(step_budget), OrderClass.LOCAL,
                  "standard_basis")


def _basis(gens, order: MonomialOrder, budget: _Budget, wanted: OrderClass,
           what: str) -> PolySet:
    """The minimal normalized basis of <gens> (nonzero, one context) under
    order, which must be of the wanted class (else OrderClassError names what),
    on the caller's budget, which keeps the corner and conditions of the run."""
    _require_class(order, gens[0].ctx.arity, wanted, what)
    return PolySet(_completion(gens, order, budget, wanted), order)
