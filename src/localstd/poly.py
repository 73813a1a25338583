"""Multivariate polynomials over Q or over rational functions of parameters.

The working variables and the symbolic parameters are fixed once in a VarCtx;
parameters never get promoted to variables or vice versa.  Polynomials are
immutable; every operation returns a new canonical polynomial (reduced
coefficients, no explicit zeros).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, Mapping

from .coeffs import CoeffField, join_terms, power, power_product_str, term_str
from .orders import DEFAULT_ORDERS, OrderClass

_DEFAULT_ORDER = DEFAULT_ORDERS[OrderClass.GLOBAL]


class ContextMismatchError(ValueError):
    """Operands built over different variable contexts."""


class Monomial(tuple):
    """Exponent vector of fixed arity; the empty product is all zeros."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return sum(self)

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(map(add, self, other))

    def divides(self, other: "Monomial") -> bool:
        return all(map(le, self, other))

    def quo(self, other: "Monomial") -> "Monomial":
        return Monomial(map(sub, self, other))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(map(max, self, other))

    @staticmethod
    def unit(arity: int) -> "Monomial":
        return Monomial((0,) * arity)

    @staticmethod
    def var(i: int, arity: int) -> "Monomial":
        return Monomial(1 if j == i else 0 for j in range(arity))

    def to_str(self, variables) -> str:
        return power_product_str(variables, self) or "1"


class VarCtx:
    """Ordered working variables plus a disjoint ordered set of parameters."""

    __slots__ = ("variables", "parameters", "field", "_var_index")

    def __init__(self, variables: Iterable[str], parameters: Iterable[str] = ()):
        variables = tuple(variables)
        parameters = tuple(parameters)
        if not variables:
            raise ValueError("at least one variable is required")
        names = variables + parameters
        if len(set(names)) != len(names):
            raise ValueError("variable and parameter names must be disjoint and duplicate-free")
        for n in names:
            if not n.isidentifier():
                raise ValueError("bad symbol name %r" % n)
        self.variables = variables
        self.parameters = parameters
        self.field = CoeffField(parameters)
        self._var_index = {v: i for i, v in enumerate(variables)}

    @property
    def arity(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise KeyError("unknown variable %r" % name) from None

    def __eq__(self, other):
        return (isinstance(other, VarCtx)
                and self.variables == other.variables
                and self.parameters == other.parameters)

    def __hash__(self):
        return hash((self.variables, self.parameters))

    def __repr__(self):
        if self.parameters:
            return "VarCtx(%s; %s)" % (",".join(self.variables), ",".join(self.parameters))
        return "VarCtx(%s)" % ",".join(self.variables)

    def without_params(self, dropped: Iterable[str]) -> "VarCtx":
        dropped = set(dropped)
        return VarCtx(self.variables, tuple(p for p in self.parameters if p not in dropped))

    def with_params(self, extra: Iterable[str]) -> "VarCtx":
        return VarCtx(self.variables, self.parameters + tuple(extra))

    # convenience constructors ------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.constant(Fraction(1))

    def constant(self, q) -> "Poly":
        c = self.field.from_fraction(q)
        if not c:
            return self.zero()
        return Poly(self, {Monomial.unit(self.arity): c})

    def variable(self, name: str) -> "Poly":
        i = self.var_index(name)
        return Poly(self, {Monomial.var(i, self.arity): self.field.one})

    def parameter(self, name: str) -> "Poly":
        return Poly(self, {Monomial.unit(self.arity): self.field.param(name)})


def _require_same_ctx(p: "Poly", q: "Poly"):
    if p.ctx != q.ctx:
        raise ContextMismatchError("polynomials live in different contexts: %r vs %r"
                                   % (p.ctx, q.ctx))


class Poly:
    """Immutable sparse polynomial; term dict maps Monomial -> field element.

    No code changes the term dict after construction, so the leading term is
    cached with the order object it was last asked under."""

    __slots__ = ("ctx", "_t", "_lead")

    def __init__(self, ctx: VarCtx, terms: dict):
        self.ctx = ctx
        self._t = terms
        self._lead = None

    # -- basic views -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self):
        return bool(self._t)

    def __len__(self):
        return len(self._t)

    def monomials(self):
        return self._t.keys()

    def coeff(self, mon: Monomial):
        return self._t.get(mon, self.ctx.field.zero)

    def items(self):
        return self._t.items()

    def terms(self, order=None):
        """Term list sorted strictly descending under the given order
        (grevlex in declaration order when omitted)."""
        key = (order or _DEFAULT_ORDER).key(self.ctx.arity)
        return [(self._t[m], m) for m in sorted(self._t, key=key, reverse=True)]

    def total_degree(self) -> int:
        if not self._t:
            raise ValueError("zero polynomial has no degree")
        return max(m.degree for m in self._t)

    def is_constant(self) -> bool:
        return all(m.degree == 0 for m in self._t)

    def constant_coeff(self):
        return self.coeff(Monomial.unit(self.ctx.arity))

    def has_parameters(self) -> bool:
        f = self.ctx.field
        return any(not f.is_constant(c) for c in self._t.values())

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self._t == other._t

    def __hash__(self):
        return hash((self.ctx, frozenset(self._t.items())))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _require_same_ctx(self, other)
        t = dict(self._t)
        for m, c in other._t.items():
            s = t.get(m)
            if s is None:
                t[m] = c
            else:
                s = s + c
                if s:
                    t[m] = s
                else:
                    del t[m]
        return Poly(self.ctx, t)

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, {m: -c for m, c in self._t.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        _require_same_ctx(self, other)
        if len(self._t) > len(other._t):
            self, other = other, self
        t: dict = {}
        for m1, c1 in self._t.items():
            for m2, c2 in other._t.items():
                m = m1.mul(m2)
                c = c1 * c2
                s = t.get(m)
                if s is None:
                    t[m] = c
                else:
                    s = s + c
                    if s:
                        t[m] = s
                    else:
                        del t[m]
        return Poly(self.ctx, t)

    def __pow__(self, n: int) -> "Poly":
        return power(self, n, self.ctx.one())

    def scale(self, c) -> "Poly":
        """Multiply by a coefficient-field element."""
        return self.mul_term(c, Monomial.unit(self.ctx.arity))

    def mul_term(self, c, mon: Monomial) -> "Poly":
        if not c:
            return self.ctx.zero()
        return Poly(self.ctx, {m.mul(mon): v * c for m, v in self._t.items()})

    # -- calculus -------------------------------------------------------------

    def partial_derivative(self, var_index: int) -> "Poly":
        if not 0 <= var_index < self.ctx.arity:
            raise IndexError("variable index %d out of range" % var_index)
        step = Monomial.var(var_index, self.ctx.arity)
        # distinct monomials have distinct derivatives and e*c != 0: no merge
        return Poly(self.ctx, {m.quo(step): c * m[var_index]
                               for m, c in self._t.items() if m[var_index]})

    # -- substitution ------------------------------------------------------

    def substitute(self, assignments: Mapping[str, "Poly"]) -> "Poly":
        """Simultaneous substitution of polynomials for variables."""
        for name, val in assignments.items():
            self.ctx.var_index(name)
            _require_same_ctx(self, val)
        idx = {self.ctx.var_index(name): val for name, val in assignments.items()}
        out = self.ctx.zero()
        pcache: dict = {}
        for m, c in self._t.items():
            rest = Monomial(0 if i in idx else e for i, e in enumerate(m))
            term = Poly(self.ctx, {rest: c})
            for i, e in enumerate(m):
                if i in idx and e:
                    key = (i, e)
                    if key not in pcache:
                        pcache[key] = idx[i] ** e
                    term = term * pcache[key]
            out = out + term
        return out

    def specialize_params(self, values: Mapping[str, Fraction]) -> "Poly":
        """Replace parameters by rationals; dropped from the result context."""
        for name in values:
            if name not in self.ctx.parameters:
                raise KeyError("unknown parameter %r" % name)
        if not values:
            return self
        new_ctx = self.ctx.without_params(values)
        f = self.ctx.field
        vals = {k: Fraction(v) for k, v in values.items()}
        t: dict = {}
        for m, c in self._t.items():
            c = f.specialize(c, vals, new_ctx.field)
            if c:
                t[m] = c
        return Poly(new_ctx, t)

    def convert_to(self, new_ctx: VarCtx) -> "Poly":
        """Re-home into a context with the same variables and a parameter
        superset."""
        if new_ctx.variables != self.ctx.variables:
            raise ContextMismatchError("variable lists differ")
        f = self.ctx.field
        t = {m: f.convert_to(c, new_ctx.field) for m, c in self._t.items()}
        return Poly(new_ctx, t)

    # -- normalization ---------------------------------------------------------

    # kept for perfbench/tracing.py, which wraps it
    def primitive(self, order=None) -> "Poly":
        """Divide by the common content; sign fixed on the leading term."""
        if not self._t:
            return self
        f = self.ctx.field
        if order is not None:
            lead = self.leading_term(order)[1]
            coeffs = [self._t[lead]] + [c for m, c in self._t.items() if m != lead]
        else:
            coeffs = [c for _, c in sorted(self._t.items())]
        u = f.common_unit(coeffs)
        if u == f.one:
            return self
        return Poly(self.ctx, {m: c / u for m, c in self._t.items()})

    # -- leading data ----------------------------------------------------------

    def leading_term(self, order):
        if self._lead is None or self._lead[0] is not order:
            if not self._t:
                raise ValueError("zero polynomial has no leading term")
            m = max(self._t, key=order.key(self.ctx.arity))
            self._lead = order, (self._t[m], m)
        return self._lead[1]

    def leading_monomial(self, order) -> Monomial:
        return self.leading_term(order)[1]

    def leading_coefficient(self, order):
        return self.leading_term(order)[0]

    # -- printing ----------------------------------------------------------------

    def to_str(self, order=None) -> str:
        if not self._t:
            return "0"
        f, names = self.ctx.field, self.ctx.variables
        return join_terms([term_str(f.to_str(c), power_product_str(names, m))
                           for c, m in self.terms(order)])

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return "Poly(%s)" % self.to_str()

