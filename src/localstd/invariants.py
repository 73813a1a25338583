"""Milnor/Tyurina pipelines: ideals, zero-dimensionality, quotient bases.

Each pipeline returns the same four pieces of data: the computed basis, its
leading monomials, the monomial basis of the quotient, and the quotient
dimension.  Local orders measure the invariant of the origin, global orders
the invariant of the polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .engines import PolySet, _basis, _Budget, _require_class
from .orders import DEFAULT_ORDERS, MonomialOrder, OrderClass
from .poly import Monomial, Poly


class NonIsolatedError(RuntimeError):
    """The leading ideal is not zero-dimensional."""


@dataclass(frozen=True)
class InvariantReport:
    """One pipeline's answer; its order and leading monomials are its basis's."""

    basis: PolySet
    quotient_basis: tuple[Monomial, ...]
    dimension: int
    ideal_kind: str       # "jacobian" | "tyurina"
    locality: str         # "local" | "global"
    genericity_assumptions: tuple = ()

    @property
    def order(self) -> MonomialOrder:
        return self.basis.order

    @property
    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(self.basis.leading_monomials())

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
    return [f, *jacobian_ideal(f)]


# ---------------------------------------------------------------------------
# quotient bookkeeping
# ---------------------------------------------------------------------------

def is_zero_dimensional(leading, arity: int) -> bool:
    """True iff every variable admits a pure power among the leading
    monomials (the constant monomial counts for every variable)."""
    return standard_monomials(leading, arity) is not None


def _monomials_capped(caps):
    """Every monomial with exponent i below caps[i], the last exponent
    varying fastest."""
    return map(Monomial, product(*map(range, caps)))


def standard_monomials(leading, arity: int) -> Optional[list[Monomial]]:
    """The monomials no leading monomial divides, in no particular order, or
    None when some variable has no pure power among the leading monomials.
    One pass takes each variable's least pure-power exponent as its cap (the
    unit caps every variable at 0) and collects the monomials in two or more
    variables: the box below the caps holds every standard monomial, and no
    pure power divides a monomial of the box."""
    caps = [None] * arity
    mixed = []
    for m in leading:
        support = [i for i, e in enumerate(m) if e]
        if len(support) > 1:
            mixed.append(m)
            continue
        for i in support or range(arity):
            caps[i] = m[i] if caps[i] is None else min(caps[i], m[i])
    if None in caps:
        return None
    return [m for m in _monomials_capped(caps)
            if not any(l.divides(m) for l in mixed)]


def quotient_basis(leading, arity: int, order: MonomialOrder):
    """Standard monomials, ascending under the order."""
    staircase = standard_monomials(leading, arity)
    if staircase is None:
        raise ValueError("leading ideal is not zero-dimensional")
    return sorted(staircase, key=order.key(arity))


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _run(name, f, order, wanted, ideal_kind, err_message, step_budget):
    """The pipeline called name: the completion of the ideal's generators
    under order, or the default order of the wanted class, on one budget."""
    order = order or DEFAULT_ORDERS[wanted]
    gens = jacobian_ideal(f) if ideal_kind == "jacobian" else tyurina_ideal(f)
    budget = _Budget(step_budget)
    basis = _basis(gens, order, budget, wanted, name)
    try:
        qb = tuple(quotient_basis(basis.leading_monomials(), f.ctx.arity, order))
    except ValueError:
        raise NonIsolatedError(err_message) from None
    return InvariantReport(
        basis=basis,
        quotient_basis=qb,
        dimension=len(qb),
        ideal_kind=ideal_kind,
        locality=wanted.value,
        genericity_assumptions=tuple(sorted(budget.conditions, key=f.ctx.field.to_str)),
    )


def milnor_local(f: Poly, order: Optional[MonomialOrder] = None,
                 step_budget: Optional[int] = None) -> InvariantReport:
    """Milnor number of the origin: standard basis of the Jacobian ideal."""
    return _run("milnor_local", f, order, OrderClass.LOCAL, "jacobian",
                "the critical point at the origin is not isolated", step_budget)


def tyurina_local(f: Poly, order: Optional[MonomialOrder] = None,
                  step_budget: Optional[int] = None) -> InvariantReport:
    return _run("tyurina_local", f, order, OrderClass.LOCAL, "tyurina",
                "the singular point at the origin is not isolated", step_budget)


def milnor_global(f: Poly, order: Optional[MonomialOrder] = None,
                  step_budget: Optional[int] = None) -> InvariantReport:
    """Milnor number of the polynomial: Groebner basis of the Jacobian ideal."""
    return _run("milnor_global", f, order, OrderClass.GLOBAL, "jacobian",
                "non-isolated critical points", step_budget)


def tyurina_global(f: Poly, order: Optional[MonomialOrder] = None,
                   step_budget: Optional[int] = None) -> InvariantReport:
    return _run("tyurina_global", f, order, OrderClass.GLOBAL, "tyurina",
                "non-isolated singular points", step_budget)


def _fused(f, global_run, local_run, local_order, global_order,
           step_budget) -> FusedReport:
    # both orders are checked before either part runs
    arity = f.ctx.arity
    if local_order is not None:
        _require_class(local_order, arity, OrderClass.LOCAL, "fused local part")
    if global_order is not None:
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
