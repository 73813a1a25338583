"""Exact coefficient arithmetic: rationals, or rational functions in parameters.

Coefficients live in Q when the context declares no parameters and in the
fraction field Q(l1, ..., lr) otherwise.  Q elements are ``fractions.Fraction``
over plain Python ints.  Q(l1, ..., lr) elements are ``_Frac``: a numerator
and a denominator in Z[l1, ..., lr], coprime with the integer content
included, the denominator with a positive leading coefficient under lex in
the field's generator order.  Z[l1, ..., lr] elements are ``_ZPoly``: a dict
from exponent tuples (in the generator order) to nonzero ints.  Both are
never changed after construction, and the canonical form makes equality and
hashing exact.  Everything here is plain Python; the package has no runtime
dependency.

The completion engines compute in the ring beneath the field: plain Python
ints for Q, and ``_ZPoly`` for Q(l1, ..., lr).  ``to_ring`` clears
denominators, ``from_ring`` maps back, and ``ring_primitive`` is the one
content normalization: it divides ring elements by their gcd, integer
content included, which leaves them primitive and unique up to the sign it
fixes.  ``common_unit`` derives the field's normalization from it.

A gcd over Z[params] needs no polynomial gcd when one of the elements is a
term d*p^e (p^e a power product of the parameters).  Z[params] is a unique
factorization domain, so every divisor of that term is a term, and the gcd is
the integer gcd of all the terms' coefficients times the componentwise
minimum of their exponents.  Dividing by it shifts each exponent and divides
each coefficient exactly.  Lists without a term fold the heuristic gcd of
Char, Geddes and Gonnet (J. Symb. Comp. 7, 1989), with the evaluation
points of Liao and Fateman (ISSAC 1995): the inputs are evaluated at a large
integer in their first generator, the gcd of the images is interpolated back
in balanced base-x digits, and it is kept when its primitive part divides
both inputs exactly.

Two multi-term elements of Z[params] multiply packed along the generator v
of largest degree in the product (Kronecker substitution in v alone; Fateman
2005, Harvey 2009): each operand is grouped by its other exponents, a group
a*p^e becomes the integer sum a*2^(B*e_v), groups multiply as integers, and
the sums are read back in balanced base-2^B digits.  A product coefficient
is a sum of at most n = min(len f, len g) products a*b, so with B =
bits(max|a|) + bits(max|b|) + bits(n) + 1 it lies below 2^(B-1) in absolute
value and no digit overflows.

Every field operation puts its result in canonical form with
``ring_primitive`` on the pair (numerator, denominator), the sign fixed on
the denominator.  An integer denominator is a term, so the term rule reduces
the pair by the integer gcd of all its coefficients; no polynomial gcd runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, sub

_HEU_GCD_MAX = 6


class HeuristicGCDFailed(ArithmeticError):
    """No evaluation point of the heuristic gcd gave a gcd that divides
    both inputs."""


class _ZPoly(dict):
    """An element of Z[params]: exponent tuple -> nonzero int.

    Arithmetic returns new elements and never changes an existing one, so
    elements hash by their terms.  ``==`` also compares with ints."""

    __slots__ = ()

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __eq__(self, other):
        if isinstance(other, int):
            if not other:
                return not self
            if len(self) != 1:
                return False
            (m, a), = self.items()
            return a == other and not any(m)
        if isinstance(other, dict):
            return dict.__eq__(self, other)
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __neg__(self):
        return _ZPoly({m: -a for m, a in self.items()})

    def __add__(self, other):
        if len(self) < len(other):
            self, other = other, self
        p = _ZPoly(self)
        for m, a in other.items():
            a += p.get(m, 0)
            if a:
                p[m] = a
            else:
                del p[m]
        return p

    def __mul__(self, other):
        if isinstance(other, int):
            return _ZPoly({m: a * other for m, a in self.items()} if other else ())
        if len(self) > len(other):
            self, other = other, self
        if len(self) == 1:
            (m1, a1), = self.items()
            return _ZPoly({tuple(map(add, m1, m2)): a1 * a2 for m2, a2 in other.items()})
        if not self:
            return _ZPoly()
        deg = list(map(add, map(max, *self), map(max, *other)))
        v = deg.index(max(deg))
        bits = (max(map(abs, self.values())).bit_length()
                + max(map(abs, other.values())).bit_length() + len(self).bit_length() + 1)
        f, g, p = {}, {}, {}
        for h, packed in ((self, f), (other, g)):
            for m, a in h.items():
                k = m[:v] + m[v + 1:]
                packed[k] = packed.get(k, 0) + (a << bits * m[v])
        for k1, a1 in f.items():
            for k2, a2 in g.items():
                k = tuple(map(add, k1, k2))
                p[k] = p.get(k, 0) + a1 * a2
        out, x = _ZPoly(), 1 << bits
        for k, a in p.items():
            head, tail = k[:v], k[v:]
            for e, d in _balanced_digits(a, x):
                out[head + (e,) + tail] = d
        return out

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """Exact quotient; other (an int or a ring element) must divide self.
        A term d*p^e divides term by term: exponents drop by e, coefficients
        are divided by d with ``//``."""
        if isinstance(other, int):
            return _ZPoly({m: a // other for m, a in self.items()})
        if len(other) == 1:
            (e, d), = other.items()
            return _ZPoly({tuple(map(sub, m, e)): a // d for m, a in self.items()})
        q = _quotient(self, other)
        if q is None:
            raise ArithmeticError("inexact division in Z[params]")
        return q

    @property
    def LC(self) -> int:
        """Leading coefficient under lex in the generator order; 0 for 0."""
        return self[max(self)] if self else 0

    @property
    def is_ground(self) -> bool:
        return not self or (len(self) == 1 and not any(next(iter(self))))

    def content(self) -> int:
        """The gcd of the coefficients, nonnegative."""
        return gcd(*self.values())

    # kept for perfbench/tracing.py, which reads it
    def coeffs(self) -> list:
        return list(self.values())

    def evaluate(self, point: dict) -> "_ZPoly":
        """Substitute values for some generators.  point maps generator
        index -> value (int or Fraction); the result is keyed by the
        exponents of the other generators, in order, and has the values'
        type of coefficients."""
        powers = {}
        out = {}
        for m, a in self.items():
            for i, v in point.items():
                e = m[i]
                if e:
                    pw = powers.get((i, e))
                    if pw is None:
                        pw = powers[i, e] = v ** e
                    a = a * pw
            k = tuple(e for i, e in enumerate(m) if i not in point)
            out[k] = out.get(k, 0) + a
        return _ZPoly({k: a for k, a in out.items() if a})


def _quotient(f: _ZPoly, g: _ZPoly):
    """f / g when g divides f exactly over Z[params], else None: division by
    the lex leading term of g, stopped at the first term it does not divide."""
    lm, lc = max(g.items())
    rest = [(m, a) for m, a in g.items() if m != lm]
    r = dict(f)
    q = {}
    while r:
        m = max(r)
        e = tuple(map(sub, m, lm))
        if min(e) < 0:
            return None
        c, rem = divmod(r.pop(m), lc)
        if rem:
            return None
        q[e] = c
        for m2, a2 in rest:
            k = tuple(map(add, e, m2))
            a = r.get(k, 0) - c * a2
            if a:
                r[k] = a
            else:
                del r[k]
    return _ZPoly(q)


def _term_gcd(coeffs) -> _ZPoly:
    """gcd of nonzero ring elements one of which is a term: the term with the
    integer gcd of all coefficients and the componentwise minimum of all
    exponents."""
    n, e = 0, next(iter(coeffs[0]))
    for c in coeffs:
        n = gcd(n, *c.values())
        e = tuple(map(min, e, *c))
    return _ZPoly({e: n})


def _heugcd(f: _ZPoly, g: _ZPoly) -> _ZPoly:
    """gcd of nonzero f and g over Z[x0, x1, ...], integer content included,
    with a positive leading coefficient; raises HeuristicGCDFailed.

    The images at x0 = x (their gcd is an integer, or the heuristic gcd of
    the images one generator down) are interpolated in balanced base-x
    digits; the primitive part is the gcd when it divides f and g, which
    exact division checks.  Six growing points are tried."""
    univariate = len(next(iter(f))) == 1
    c = gcd(f.content(), g.content())
    if c != 1:
        f, g = f // c, g // c
    f_norm, g_norm = max(map(abs, f.values())), max(map(abs, g.values()))
    b = 2 * min(f_norm, g_norm) + 29
    x = max(min(b, 99 * isqrt(b)), 2 * min(f_norm // abs(f.LC), g_norm // abs(g.LC)) + 4)
    for _ in range(_HEU_GCD_MAX):
        ff, gg = f.evaluate({0: x}), g.evaluate({0: x})
        if ff and gg:
            h = _ZPoly({(): gcd(ff[()], gg[()])}) if univariate else _heugcd(ff, gg)
            h = _interpolate(h, x)
            h = h // h.content()
            if _quotient(f, h) is not None and _quotient(g, h) is not None:
                return h * c
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    raise HeuristicGCDFailed("no gcd found at %d evaluation points" % _HEU_GCD_MAX)


def _interpolate(h: _ZPoly, x: int) -> _ZPoly:
    """The polynomial in a new first generator whose coefficients are the
    balanced base-x digits of the coefficients of h, negated if its leading
    coefficient is negative."""
    f = _ZPoly()
    for m, a in h.items():
        for i, d in _balanced_digits(a, x):
            f[(i,) + m] = d
    return -f if f.LC < 0 else f


def _balanced_digits(a: int, x: int):
    """The nonzero balanced base-x digits of a, in (-x/2, x/2], as
    (position, digit) pairs.  A power of two x (the packed product's) is
    read by masks and shifts, without a long division per digit."""
    half = x // 2
    mask, bits = x - 1, x.bit_length() - 1
    shift = not x & mask
    i = 0
    while a:
        if shift:
            a, d = a >> bits, a & mask
        else:
            a, d = divmod(a, x)
        if d > half:
            d -= x
            a += 1
        if d:
            yield i, d
        i += 1


def power(x, k: int, one):
    """x^k by repeated squaring, one being the unit of x's ring."""
    if k < 0:
        raise ValueError("negative power")
    out = one
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


class _Frac:
    """An element numer/denom of Q(params), in the canonical form of the
    module docstring."""

    __slots__ = ("numer", "denom", "field")

    def __init__(self, numer: _ZPoly, denom: _ZPoly, field: "CoeffField"):
        self.numer, self.denom, self.field = numer, denom, field

    def _coerce(self, other):
        if isinstance(other, _Frac):
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self.numer == other.numer and self.denom == other.denom

    def __hash__(self):
        return hash((self.numer, self.denom))

    def __bool__(self):
        return bool(self.numer)

    def __repr__(self):
        return self.field.to_str(self)

    def __neg__(self):
        return _Frac(-self.numer, self.denom, self.field)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        field = self.field
        a, b, c, d = self.numer, self.denom, other.numer, other.denom
        if b == d:
            return _Frac(a + c, b, field) if b == 1 else field._frac(a + c, b)
        return field._frac(a * d + c * b, b * d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self + -other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        field = self.field
        b, d = self.denom, other.denom
        if b == 1 and d == 1:
            return _Frac(self.numer * other.numer, b, field)
        return field._frac(self.numer * other.numer, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if not other:
            raise ZeroDivisionError("division by zero in %r" % self.field)
        return self * _Frac(other.denom, other.numer, self.field)

    def __rtruediv__(self, other):
        return self.field.one / self * other

    def __pow__(self, k: int):
        return power(self, k, self.field.one)


class CoeffField:
    """The coefficient field attached to a variable context.

    For an empty parameter list this is Q, with ``Fraction`` elements and
    plain-int ring elements.  Otherwise it is Q(params), with ``_Frac``
    elements over ``_ZPoly`` ring elements in the generator order of params.
    Either way elements are reduced with a positive denominator, which is
    exactly the ParamCoeff contract.
    """

    def __init__(self, params: tuple[str, ...]):
        self.params = tuple(params)
        if not self.params:
            self._gens = {}
            self.zero, self.one = Fraction(0), Fraction(1)
            return
        n = len(self.params)
        self._unit = (0,) * n
        self._ring_one = _ZPoly({self._unit: 1})
        self.zero = _Frac(_ZPoly(), self._ring_one, self)
        self.one = _Frac(self._ring_one, self._ring_one, self)
        self._gens = {name: _Frac(_ZPoly({tuple(int(i == k) for i in range(n)): 1}),
                                  self._ring_one, self)
                      for k, name in enumerate(self.params)}

    def __repr__(self):
        if not self.params:
            return "Q"
        return "Q(%s)" % ", ".join(self.params)

    # -- construction --------------------------------------------------

    def from_fraction(self, q) -> object:
        """Coerce an int or Fraction into the field."""
        num, den = int(q.numerator), int(q.denominator)
        if not self.params:
            return Fraction(num, den)
        if not num:
            return self.zero
        return _Frac(_ZPoly({self._unit: num}),
                     _ZPoly({self._unit: den}) if den != 1 else self._ring_one, self)

    def param(self, name: str):
        if name not in self._gens:
            raise KeyError("unknown parameter %r" % name)
        return self._gens[name]

    def _frac(self, num: _ZPoly, den: _ZPoly) -> _Frac:
        """num/den in canonical form: divided by their gcd, sign fixed on the
        denominator (``ring_primitive``)."""
        num, den = self.ring_primitive(den, [num, den]) or (num, den)
        return _Frac(num, den, self)

    # -- predicates -----------------------------------------------------

    def is_constant(self, c) -> bool:
        """True when c is a plain rational (degree 0 in every parameter)."""
        if not self.params:
            return True
        return c.numer.is_ground and c.denom.is_ground

    def as_fraction(self, c) -> Fraction:
        """Convert a constant element to a Fraction; raises if parametric."""
        if not self.params:
            return c
        if not self.is_constant(c):
            raise ValueError("coefficient %s is not constant" % self.to_str(c))
        return Fraction(c.numer.LC, c.denom.LC)

    # -- content normalization ------------------------------------------

    # kept for perfbench/tracing.py, which wraps it
    def common_unit(self, coeffs):
        """A unit u of the field such that dividing every c in coeffs by u
        leaves primitive integer-coefficient numerators over denominator one,
        with a positive leading coefficient on the first one; the
        normalization of ``Poly.primitive``.

        Over Q, u is the content (gcd of numerators over lcm of denominators)
        and the quotients are coprime integers.  Over Q(params), u is the gcd
        over Z[params] of the cleared numerators, integer content included,
        over the common denominator, so the quotients have no common factor:
        (2t+1, 2t^2+t) becomes (1, t).  See ``ring_primitive``, which
        computes it.
        """
        coeffs = [c for c in coeffs if c]
        if not coeffs:
            return self.one
        den = self.ring_denominator(coeffs)
        cleared = [self.to_ring(c, den) for c in coeffs]
        quotients = self.ring_primitive(cleared[0], cleared) or cleared
        return coeffs[0] / self.from_ring(quotients[0])

    # -- the ring beneath the field ----------------------------------------

    def ring_denominator(self, coeffs):
        """A common denominator of the field elements coeffs, as a ring
        element: the lcm of their denominators."""
        if not self.params:
            return lcm(*(c.denominator for c in coeffs))
        den = self._ring_one
        for c in coeffs:
            d = c.denom
            if d != 1 and d != den:
                den = den * (d // self.ring_gcd([den, d]))
        return den

    def to_ring(self, c, den=1):
        """The ring element c * den; den must be a common denominator from
        ``ring_denominator``."""
        if not self.params:
            return c.numerator * (den // c.denominator)
        return c.numer if den == 1 else c.numer * (den // c.denom)

    def from_ring(self, c):
        """The field element equal to the ring element c."""
        if not self.params:
            return Fraction(c)
        return _Frac(c, self._ring_one, self)

    def ring_gcd(self, coeffs):
        """gcd of ring elements, integer content included (positive leading
        coefficient over Z[params]); zero when coeffs is empty.

        Over Z[params], when one of coeffs is a term, the gcd is a term
        read off the terms (see the module docstring: every divisor of a term
        is a term); otherwise the heuristic gcd is folded over coeffs, and
        the term rule takes over once the running gcd is a term."""
        if not self.params:
            return gcd(*coeffs)
        coeffs = [c for c in coeffs if c]
        if any(len(c) == 1 for c in coeffs):
            return _term_gcd(coeffs)
        g = _ZPoly()
        for i, c in enumerate(coeffs):
            g = _heugcd(g, c) if g else -c if c.LC < 0 else c
            if len(g) == 1:
                return _term_gcd([g, *coeffs[i + 1:]])
        return g

    def ring_primitive(self, lead, coeffs):
        """The ring elements coeffs divided by their gcd, negated when that
        leaves a negative leading coefficient on lead, or None when they stay
        as they are.  The result is primitive, so it is the same for every
        nonzero multiple of coeffs by a ring element."""
        g = self.ring_gcd(coeffs)
        if (lead.LC if self.params else lead) < 0:
            g = -g
        return None if g == 1 else [c // g for c in coeffs]

    def canonical_assumption(self, c):
        """Canonical representative of the vanishing locus of c, a
        nonconstant element: the integer primitive, sign-normalized numerator
        polynomial."""
        num = c.numer
        g = num.content()
        if num.LC < 0:
            g = -g
        return _Frac(num // g, self._ring_one, self)

    # -- substitution ----------------------------------------------------

    def specialize(self, c, values: dict, target: "CoeffField"):
        """Substitute rationals for some (possibly none) of the parameters
        and re-key the rest by name into target.

        values maps parameter name -> Fraction.  The parameters left unbound
        must be among target's.  Raises ZeroDivisionError when the denominator
        vanishes under the assignment.
        """
        if not self.params:
            return target.from_fraction(c)
        point = {i: values[name] for i, name in enumerate(self.params) if name in values}
        num, den = c.numer.evaluate(point), c.denom.evaluate(point)
        if not den:
            raise ZeroDivisionError("denominator vanishes under the assignment")
        if not target.params:
            return target.from_fraction(Fraction(num.get((), 0)) / den[()])
        where = [target.params.index(name) for name in self.params if name not in values]
        scale = lcm(*(Fraction(a).denominator for p in (num, den) for a in p.values()))

        def embed(p):
            out = _ZPoly()
            for m, a in p.items():
                e = list(target._unit)
                for i, k in zip(where, m):
                    e[i] = k
                out[tuple(e)] = int(a * scale)
            return out
        return target._frac(embed(num), embed(den))

    def convert_to(self, c, target: "CoeffField"):
        """Embed into a field with a superset of parameters: specialize
        with no parameter bound."""
        return self.specialize(c, {}, target)

    # -- printing ----------------------------------------------------------

    def to_str(self, c) -> str:
        """Deterministic string form, parseable by the expression parser as
        long as the denominator is a plain integer (always true for inputs
        built from the parser and for engine outputs).
        """
        if not self.params:
            return _frac_str(c)
        if not c.denom.is_ground:
            return "(%s)/(%s)" % (self._poly_str(c.numer, 1), self._poly_str(c.denom, 1))
        return self._poly_str(c.numer, c.denom.LC)

    def _poly_str(self, p, den: int) -> str:
        if not p:
            return "0"
        terms = sorted(p.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return join_terms([term_str(_frac_str(Fraction(a, den)),
                                    power_product_str(self.params, e)) for e, a in terms])


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def power_product_str(names, exps) -> str:
    """The power product of names with exponents exps; "" when all are 0."""
    return "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in zip(names, exps) if e)


def term_str(cs: str, ms: str) -> str:
    """The term with printed coefficient cs and power product ms ("" for 1).
    A coefficient of 1 or -1 leaves its sign alone before a power product,
    and a compound one (a sign or space past its first character) goes in
    parentheses."""
    if ms and cs in ("1", "-1"):
        return cs[:-1] + ms
    if any(ch in " +-" for ch in cs[cs.startswith("-"):]):
        cs = "(%s)" % cs
    return "%s*%s" % (cs, ms) if ms else cs


def join_terms(parts) -> str:
    """Printed terms joined by " + ", or by " - " before a leading minus."""
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out
