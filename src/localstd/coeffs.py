"""Exact coefficient arithmetic: rationals, or rational functions in parameters.

Coefficients live in Q when the context declares no parameters and in the
fraction field Q(l1, ..., lr) otherwise.  Q elements are ``fractions.Fraction``
over plain Python ints, so a parameter-free run never imports sympy.
Q(l1, ..., lr) is sympy's sparse fraction field; sympy is imported when the
first field with parameters is built, and its QQ and ZZ are reached through
that field's domain.

The completion engines compute in the ring beneath the field: plain Python
ints for Q, and Z[l1, ..., lr] (sympy ring elements, lex order, the field's
generator order) for Q(l1, ..., lr).  ``to_ring`` clears denominators,
``from_ring`` maps back, and ``ring_primitive`` is the one content
normalization: it divides ring elements by their gcd, integer content
included, which leaves them primitive and unique up to the sign it fixes.
``common_unit`` derives the field's normalization from it.  This module wraps
both fields behind one small API; no other module names sympy.

A content over Z[params] needs no polynomial gcd when one of the elements is
a term d*p^e (p^e a power product of the parameters).  Z[params] is a unique
factorization domain, so every divisor of that term is a term, and the gcd is
the integer gcd of all the terms' coefficients times the componentwise
minimum of their exponents.  Dividing by it shifts each exponent and divides
each coefficient exactly.  Lists without a term go through sympy's gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class CoeffField:
    """The coefficient field attached to a variable context.

    For an empty parameter list this is Q, with ``Fraction`` elements and
    plain-int ring elements.  Otherwise it is the field of rational functions
    in the parameters, held as sympy's fraction field in ``domain``.  Either
    way elements are reduced with a positive denominator, which is exactly the
    ParamCoeff contract.
    """

    def __init__(self, params: tuple[str, ...]):
        self.params = tuple(params)
        self._ring = None
        if not self.params:
            self._gens = {}
            self.zero, self.one = Fraction(0), Fraction(1)
            return
        from sympy.polys.domains import QQ
        self.domain = QQ.frac_field(*self.params)
        self._gens = dict(zip(self.params, self.domain.gens))
        self.zero = self.domain.zero
        self.one = self.domain.one

    def __eq__(self, other):
        return isinstance(other, CoeffField) and self.params == other.params

    def __hash__(self):
        return hash(self.params)

    def __repr__(self):
        if not self.params:
            return "Q"
        return "Q(%s)" % ", ".join(self.params)

    # -- construction --------------------------------------------------

    def from_fraction(self, q) -> object:
        """Coerce an int / Fraction / QQ element into the field."""
        num, den = int(q.numerator), int(q.denominator)
        if not self.params:
            return Fraction(num, den)
        return self.domain.field.ground_new(self.domain.dom(num, den))

    def param(self, name: str):
        if name not in self._gens:
            raise KeyError("unknown parameter %r" % name)
        return self._gens[name]

    # -- predicates -----------------------------------------------------

    def is_zero(self, c) -> bool:
        return not c

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
        q = c.numer.LC / c.denom.LC
        return Fraction(int(q.numerator), int(q.denominator))

    # -- content normalization ------------------------------------------

    def common_unit(self, coeffs):
        """A unit u of the field such that dividing every c in coeffs by u
        leaves primitive integer-coefficient numerators over denominator one,
        with a positive leading coefficient on the first one.  Used to keep
        basis elements in primitive form.

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

    @property
    def ring(self):
        """Z[params] as a sympy ring, built on first use; None over Q, whose
        ring elements are plain ints."""
        if self._ring is None and self.params:
            self._ring = self.domain.field.ring.clone(domain=self.domain.dom.get_ring())
        return self._ring

    def ring_denominator(self, coeffs):
        """A common denominator of the field elements coeffs, as a ring
        element: the lcm of their denominators."""
        if not self.params:
            return lcm(*(c.denominator for c in coeffs))
        den = self.ring.one
        for c in coeffs:
            if c.denom != 1:
                den = den.lcm(c.denom.set_ring(self.ring))
        return den

    def to_ring(self, c, den=1):
        """The ring element c * den; den must be a common denominator from
        ``ring_denominator``."""
        if not self.params:
            return c.numerator * (den // c.denominator)
        num = c.numer.set_ring(self.ring)
        return num if den == 1 else num * (den // c.denom.set_ring(self.ring))

    def from_ring(self, c):
        """The field element equal to the ring element c."""
        if not self.params:
            return Fraction(c)
        field = self.domain.field
        return field.raw_new(c.set_ring(field.ring))

    def ring_gcd(self, coeffs):
        """gcd of ring elements, integer content included (positive leading
        coefficient over Z[params]); zero when coeffs is empty.

        Over Z[params], when one of coeffs is a term, the gcd is a term
        read off the terms (see the module docstring: every divisor of a term
        is a term); otherwise sympy's gcds are folded over coeffs."""
        if not self.params:
            g = 0
            for c in coeffs:
                g = gcd(g, c)
                if g == 1:
                    break
            return g
        if any(len(c) == 1 for c in coeffs):
            n, e = 0, None
            for c in coeffs:
                for m, a in c.items():
                    n = gcd(n, a)
                    e = m if e is None else tuple(map(min, e, m))
            return self.ring({e: n})
        coeffs = iter(coeffs)
        g = self.ring.zero
        for c in coeffs:
            g = g.gcd(c)
            if g.is_ground:
                n = g.LC
                for c in coeffs:
                    if n == 1:
                        break
                    n = gcd(n, c.content())
                return self.ring(n)
        return g

    def ring_primitive(self, lead, coeffs):
        """The ring elements coeffs divided by their gcd, negated when that
        leaves a negative leading coefficient on lead, or None when they stay
        as they are.  The result is primitive, so it is the same for every
        nonzero multiple of coeffs by a ring element.

        A gcd that is a term d*p^e (always so when one of coeffs is a term,
        see ``ring_gcd``) divides each term exactly: its exponents drop by e
        and its integer coefficient is divided by d with ``//``."""
        g = self.ring_gcd(coeffs)
        if not self.params:
            if lead < 0:
                g = -g
            return None if g == 1 else [c // g for c in coeffs]
        if lead.LC < 0:
            g = -g
        if g == 1:
            return None
        if len(g) > 1:
            return [c.exquo(g) for c in coeffs]
        (e, d), = g.items()
        return [c.new({tuple(i - j for i, j in zip(m, e)): a // d
                       for m, a in c.items()}) for c in coeffs]

    def canonical_assumption(self, c):
        """Canonical representative of the vanishing locus of c: the integer
        primitive, sign-normalized numerator polynomial."""
        if not self.params:
            return self.one
        num = c.numer
        cnum, cden = 0, 1
        for q in num.coeffs():
            cnum = gcd(cnum, int(q.numerator))
            cden = lcm(cden, int(q.denominator))
        u = self.domain.dom(cden, cnum)
        if num.LC < 0:
            u = -u
        return self.domain.field.field_new(num * u)

    # -- substitution ----------------------------------------------------

    def specialize(self, c, values: dict, target: "CoeffField"):
        """Substitute rationals for a subset of parameters.

        values maps parameter name -> Fraction, at least one.  The remaining
        parameters must be exactly the parameters of target.  Raises
        ZeroDivisionError when the denominator vanishes under the assignment.
        """
        if not self.params:
            return target.from_fraction(self.as_fraction(c))
        point = [(g, values[name]) for name, g in zip(self.params, c.numer.ring.gens)
                 if name in values]
        num, den = c.numer.evaluate(point), c.denom.evaluate(point)
        if not den:
            raise ZeroDivisionError("denominator vanishes under the assignment")
        if not target.params:
            return target.from_fraction(num / den)
        return target.domain.convert(num) / target.domain.convert(den)

    def convert_to(self, c, target: "CoeffField"):
        """Embed into a field with a superset of parameters."""
        if not self.params:
            return target.from_fraction(c)
        return target.domain.convert_from(c, self.domain)

    # -- printing ----------------------------------------------------------

    def to_str(self, c) -> str:
        """Deterministic string form, parseable by the expression parser as
        long as the denominator is a plain integer (always true for inputs
        built from the parser and for engine outputs).
        """
        if not self.params:
            return _frac_str(c)
        if not c.denom.is_ground:
            return "(%s)/(%s)" % (self._poly_str(c.numer, Fraction(1)),
                                  self._poly_str(c.denom, Fraction(1)))
        den = Fraction(int(c.denom.LC.numerator), int(c.denom.LC.denominator))
        return self._poly_str(c.numer, den)

    def _poly_str(self, p, den: Fraction) -> str:
        if not p:
            return "0"
        terms = sorted(p.terms(), key=lambda t: (sum(t[0]), tuple(t[0])), reverse=True)
        parts = []
        for exps, q in terms:
            coef = Fraction(int(q.numerator), int(q.denominator)) / den
            mon = "*".join(
                n if e == 1 else "%s^%d" % (n, e)
                for n, e in zip(self.params, exps) if e
            )
            if not mon:
                parts.append(_frac_str(coef))
            elif coef == 1:
                parts.append(mon)
            elif coef == -1:
                parts.append("-" + mon)
            else:
                parts.append("%s*%s" % (_frac_str(coef), mon))
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)
