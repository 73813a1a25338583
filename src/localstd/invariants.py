"""Milnor/Tyurina pipelines: ideals, zero-dimensionality, quotient bases.

Each pipeline returns the same four pieces of data: the computed basis, its
leading monomials, the monomial basis of the quotient, and the quotient
dimension.  Local orders measure the invariant of the origin, global orders
the invariant of the polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engines import PolySet, _basis, _Budget, _require_class
from .orders import DEFAULT_ORDERS, MonomialOrder, OrderClass
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
    return sorted(standard_monomials(leading, arity), key=order.key(arity))


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _collect_assumptions(basis: PolySet, conditions):
    """Canonical forms of the parametric final leading coefficients and of
    the conditions recorded by the run, deduplicated and sorted."""
    field = basis.ctx.field
    seen = []
    for lc in [*(p.leading_coefficient(basis.order) for p in basis), *conditions]:
        if field.is_constant(lc):
            continue
        canon = field.canonical_assumption(lc)
        if canon not in seen:
            seen.append(canon)
    return tuple(sorted(seen, key=field.to_str))


def _run(name, f, order, wanted, ideal_kind, err_message, step_budget):
    """The pipeline called name: the basis of the ideal of f under order, or
    under the default order of the wanted class, on one budget."""
    if order is None:
        order = DEFAULT_ORDERS[wanted]
    else:
        _require_class(order, f.ctx.arity, wanted, name)
    gens = jacobian_ideal(f) if ideal_kind == "jacobian" else tyurina_ideal(f)
    pset = PolySet(gens, order)
    budget = _Budget(step_budget)
    basis = _basis(pset, budget)
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
        locality=wanted.value,
        genericity_assumptions=_collect_assumptions(basis, budget.conditions),
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
