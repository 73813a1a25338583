"""Milnor/Tyurina pipelines: ideals, zero-dimensionality, quotient bases.

Each pipeline returns the same four pieces of data: the computed basis, its
leading monomials, the monomial basis of the quotient, and the quotient
dimension.  Local orders measure the invariant of the origin, global orders
the invariant of the polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engines import (OrderClassError, PolySet, buchberger, standard_basis)
from .orders import MonomialOrder, OrderClass, grevlex, neg_grevlex
from .poly import Monomial, Poly


class NonIsolatedError(RuntimeError):
    """The leading ideal is not zero-dimensional."""


@dataclass(frozen=True)
class InvariantReport:
    basis: PolySet
    leading_monomials: tuple[Monomial, ...]
    quotient_basis: tuple[Monomial, ...]
    dimension: int
    order: MonomialOrder
    ideal_kind: str       # "jacobian" | "tyurina"
    locality: str         # "local" | "global"
    genericity_assumptions: tuple = ()

    def to_json_dict(self) -> dict:
        ctx = self.basis.ctx
        field = ctx.field
        return {
            "ideal": self.ideal_kind,
            "locality": self.locality,
            "order": self.order.spell(ctx.variables),
            "basis": [p.to_str(self.order) for p in self.basis],
            "leading": [m.to_str(ctx.variables) for m in self.leading_monomials],
            "quotient_basis": [m.to_str(ctx.variables) for m in self.quotient_basis],
            "dimension": self.dimension,
            "genericity_assumptions": [field.to_str(a) for a in self.genericity_assumptions],
        }


@dataclass(frozen=True)
class FusedReport:
    global_part: InvariantReport
    local_part: InvariantReport

    def __post_init__(self):
        if self.local_part.dimension > self.global_part.dimension:
            raise AssertionError("local dimension exceeds global dimension")

    def to_json_dict(self) -> dict:
        return {"global_part": self.global_part.to_json_dict(),
                "local_part": self.local_part.to_json_dict()}


# ---------------------------------------------------------------------------
# ideal constructors
# ---------------------------------------------------------------------------

def jacobian_ideal(f: Poly) -> list[Poly]:
    """All first partials; identically-zero partials are dropped."""
    gens = []
    for i in range(f.ctx.arity):
        d = f.partial_derivative(i)
        if not d.is_zero():
            gens.append(d)
    if not gens:
        raise ValueError("polynomial is constant in every variable")
    return gens


def tyurina_ideal(f: Poly) -> list[Poly]:
    gens = [f] if not f.is_zero() else []
    gens.extend(jacobian_ideal(f))
    return gens


# ---------------------------------------------------------------------------
# quotient bookkeeping
# ---------------------------------------------------------------------------

def is_zero_dimensional(leading, arity: int) -> bool:
    """True iff every variable admits a pure power among the leading
    monomials (the constant monomial counts for every variable)."""
    for i in range(arity):
        if not any(m.is_pure_power_of(i) for m in leading):
            return False
    return True


def _monomials_capped(arity: int, caps):
    """Every monomial with exponent i below caps[i]."""
    exps = [0] * arity

    def rec(i):
        for e in range(caps[i]):
            exps[i] = e
            if i == arity - 1:
                yield Monomial(exps)
            else:
                yield from rec(i + 1)
        exps[i] = 0

    yield from rec(0)


def standard_monomials(leading, arity: int) -> list[Monomial]:
    """The monomials no leading monomial divides, in no particular order.

    Every variable has a pure power in the leading set, which caps its
    exponent; the box below the caps holds every standard monomial, and no
    pure power divides a monomial of the box.
    """
    if not is_zero_dimensional(leading, arity):
        raise ValueError("leading ideal is not zero-dimensional")
    caps = [min(m[i] for m in leading if m.is_pure_power_of(i))
            for i in range(arity)]
    mixed = [l for l in leading if sum(map(bool, l)) > 1]
    return [m for m in _monomials_capped(arity, caps)
            if not any(l.divides(m) for l in mixed)]


def quotient_basis(leading, arity: int, order: MonomialOrder):
    """Standard monomials, ascending under the order."""
    return sorted(standard_monomials(leading, arity), key=order.sort_key)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _collect_assumptions(basis: PolySet):
    field = basis.ctx.field
    seen = []
    for p in basis:
        lc = p.leading_coefficient(basis.order)
        if field.is_constant(lc):
            continue
        canon = field.canonical_assumption(lc)
        if canon not in seen:
            seen.append(canon)
    return tuple(sorted(seen, key=field.to_str))


def _require_class(order: MonomialOrder, arity: int, wanted: OrderClass, what: str):
    got = order.classify(arity)
    if got is not wanted:
        raise OrderClassError("%s requires a %s monomial order, got a %s one"
                              % (what, wanted.value, got.value))


def _run(gens, order, locality, ideal_kind, err_message, step_budget):
    pset = PolySet(gens, order)
    if locality == "local":
        basis = standard_basis(pset, step_budget=step_budget)
    else:
        basis = buchberger(pset, step_budget=step_budget)
    leading = tuple(basis.leading_monomials())
    arity = pset.ctx.arity
    if not is_zero_dimensional(leading, arity):
        raise NonIsolatedError(err_message)
    qb = tuple(quotient_basis(leading, arity, order))
    return InvariantReport(
        basis=basis,
        leading_monomials=leading,
        quotient_basis=qb,
        dimension=len(qb),
        order=order,
        ideal_kind=ideal_kind,
        locality=locality,
        genericity_assumptions=_collect_assumptions(basis),
    )


def milnor_local(f: Poly, order: Optional[MonomialOrder] = None,
                 step_budget: Optional[int] = None) -> InvariantReport:
    """Milnor number of the origin: standard basis of the Jacobian ideal."""
    order = order if order is not None else neg_grevlex()
    _require_class(order, f.ctx.arity, OrderClass.LOCAL, "milnor_local")
    return _run(jacobian_ideal(f), order, "local", "jacobian",
                "the critical point at the origin is not isolated", step_budget)


def tyurina_local(f: Poly, order: Optional[MonomialOrder] = None,
                  step_budget: Optional[int] = None) -> InvariantReport:
    order = order if order is not None else neg_grevlex()
    _require_class(order, f.ctx.arity, OrderClass.LOCAL, "tyurina_local")
    return _run(tyurina_ideal(f), order, "local", "tyurina",
                "the singular point at the origin is not isolated", step_budget)


def milnor_global(f: Poly, order: Optional[MonomialOrder] = None,
                  step_budget: Optional[int] = None) -> InvariantReport:
    """Milnor number of the polynomial: Groebner basis of the Jacobian ideal."""
    order = order if order is not None else grevlex()
    _require_class(order, f.ctx.arity, OrderClass.GLOBAL, "milnor_global")
    return _run(jacobian_ideal(f), order, "global", "jacobian",
                "non-isolated critical points", step_budget)


def tyurina_global(f: Poly, order: Optional[MonomialOrder] = None,
                   step_budget: Optional[int] = None) -> InvariantReport:
    order = order if order is not None else grevlex()
    _require_class(order, f.ctx.arity, OrderClass.GLOBAL, "tyurina_global")
    return _run(tyurina_ideal(f), order, "global", "tyurina",
                "non-isolated singular points", step_budget)


def _fused(f, global_run, local_run, local_order, global_order,
           step_budget) -> FusedReport:
    local_order = local_order if local_order is not None else neg_grevlex()
    global_order = global_order if global_order is not None else grevlex()
    arity = f.ctx.arity
    _require_class(local_order, arity, OrderClass.LOCAL, "fused local part")
    _require_class(global_order, arity, OrderClass.GLOBAL, "fused global part")
    return FusedReport(global_part=global_run(f, global_order, step_budget),
                       local_part=local_run(f, local_order, step_budget))


def milnor_fused(f: Poly, local_order: Optional[MonomialOrder] = None,
                 global_order: Optional[MonomialOrder] = None,
                 step_budget: Optional[int] = None) -> FusedReport:
    """Global and local Milnor runs on the same generators, each with its own
    step budget."""
    return _fused(f, milnor_global, milnor_local, local_order, global_order,
                  step_budget)


def tyurina_fused(f: Poly, local_order: Optional[MonomialOrder] = None,
                  global_order: Optional[MonomialOrder] = None,
                  step_budget: Optional[int] = None) -> FusedReport:
    return _fused(f, tyurina_global, tyurina_local, local_order, global_order,
                  step_budget)


def leading_coefficients(report: InvariantReport):
    """(coefficient, monomial) leading pairs of each basis element."""
    return [p.leading_term(report.order) for p in report.basis]
