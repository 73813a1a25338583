"""Simple singularity toolkit: A/D/E normal forms, weighted homogeneity,
Hessian corank, numeric classification, versal deformations, Kuranishi-space
stratification catalogs with verifiable witnesses, and the special
1-parameter adjacency families.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional

from .invariants import milnor_local, tyurina_local
from .orders import MonomialOrder
from .parser import parse_poly
from .poly import Monomial, Poly, VarCtx


@dataclass(frozen=True)
class SingularityClass:
    family: str   # "A" | "D" | "E"
    index: int

    def __post_init__(self):
        if self.family == "A":
            if self.index < 1:
                raise ValueError("A_n needs n >= 1")
        elif self.family == "D":
            if self.index < 4:
                raise ValueError("D_n needs n >= 4")
        elif self.family == "E":
            if self.index not in (6, 7, 8):
                raise ValueError("E_n needs n in {6, 7, 8}")
        else:
            raise ValueError("family must be one of A, D, E")

    @property
    def name(self) -> str:
        return "%s%d" % (self.family, self.index)

    def __str__(self):
        return self.name

    @staticmethod
    def parse(text: str) -> "SingularityClass":
        text = text.strip().upper()
        # int() would also read signs, spaces and underscores
        if not (text[:1] in ("A", "D", "E") and text[1:].isdecimal()):
            raise ValueError("bad singularity class %r" % text)
        return SingularityClass(text[0], int(text[1:]))


@dataclass(frozen=True)
class WeightVector:
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not all(w > 0 for w in self.weights):
            raise ValueError("weights must be positive rationals")


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def normal_form(cls: SingularityClass, ambient_dim: int = 2) -> Poly:
    """The A/D/E polynomial in two distinguished variables y, z plus a square
    of every other of ambient_dim variables.  Two to four variables are named
    y, z; x, y, z; x, y, z, t; other counts are named x1, ..., y, z."""
    if ambient_dim < 2:
        raise ValueError("need at least two variables")
    n = cls.index
    if cls.family == "A":
        core = "y^2 + z^%d" % (n + 1)
    elif cls.family == "D":
        core = "y^2*z + z^%d" % (n - 1)
    else:
        core = {6: "y^3 + z^4", 7: "y^3 + y*z^3", 8: "y^3 + z^5"}[n]
    names = {2: ("y", "z"), 3: ("x", "y", "z"), 4: ("x", "y", "z", "t")}.get(ambient_dim)
    if names is None:
        names = tuple("x%d" % i for i in range(1, ambient_dim - 1)) + ("y", "z")
    squares = "".join(" + %s^2" % v for v in names if v not in ("y", "z"))
    return parse_poly(core + squares, VarCtx(names))


# ---------------------------------------------------------------------------
# weighted homogeneity
# ---------------------------------------------------------------------------

def _row_reduce(rows: list, ncols: int) -> list[int]:
    """Bring rows, in place, to reduced row echelon form over the field of
    their entries, pivoting in the first ncols columns only; the pivot
    columns, in order, one per nonzero leading row."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                fac = rows[i][c]
                rows[i] = [a - fac * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def weight_vector(f: Poly) -> Optional[WeightVector]:
    """Positive rational weights with every exponent vector of weight 1, or
    None.  Rank-deficient supports get the smallest-denominator completion."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.has_parameters():
        raise ValueError("weight vectors need parameter-free polynomials")
    n = f.ctx.arity
    rows = [[Fraction(e) for e in m] + [Fraction(1)] for m in f.monomials()]
    pivots = _row_reduce(rows, n)
    if any(row[n] for row in rows[len(pivots):]):
        return None  # inconsistent system
    free = [c for c in range(n) if c not in pivots]

    def solution(free_vals):
        w = [Fraction(0)] * n
        for c, v in zip(free, free_vals):
            w[c] = v
        for i, c in enumerate(pivots):
            w[c] = rows[i][n] - sum(rows[i][j] * w[j] for j in free)
        return w

    if not free:
        w = solution([])
        return WeightVector(tuple(w)) if all(x > 0 for x in w) else None
    # deterministic small search over free weights, preferring 1/2
    candidates = [Fraction(1, 2)] + [Fraction(p, q)
                                     for q in range(1, 13)
                                     for p in range(1, q + 1)]
    best = None
    for v in candidates:
        w = solution([v] * len(free))
        if all(x > 0 for x in w):
            score = max(x.denominator for x in w)
            if best is None or score < best[0]:
                best = (score, w)
    return WeightVector(tuple(best[1])) if best else None


def milnor_orlik(w: WeightVector) -> Fraction:
    """Product of (1/w_i - 1); weights must lie strictly inside (0, 1).  The
    formula gives the Milnor number only of an isolated singularity."""
    out = Fraction(1)
    for wi in w.weights:
        if not 0 < wi < 1:
            raise ValueError("weight %s outside (0, 1)" % wi)
        out *= (1 / wi - 1)
    return out


# ---------------------------------------------------------------------------
# Hessian corank and classification
# ---------------------------------------------------------------------------

def _variable_indices(m: Monomial) -> list[int]:
    """The variable index of every factor of m, with multiplicity."""
    return [i for i, e in enumerate(m) for _ in range(e)]


def _hessian_kernel(f: Poly) -> list[list]:
    """A basis of the kernel of the Hessian of f at the origin, over the
    field of its coefficients (generic kernel when parameters are present).
    The Hessian is read off the quadratic terms: a term c*x_i*x_j puts c at
    (i, j) and (j, i), a term c*x_i^2 puts 2c at (i, i)."""
    n = f.ctx.arity
    field = f.ctx.field
    H = [[field.zero] * n for _ in range(n)]
    for m, c in f.items():
        if m.degree == 2:
            i, j = _variable_indices(m)
            H[i][j] = H[j][i] = c + c if i == j else c
    pivots = _row_reduce(H, n)
    kernel = []
    for free in range(n):
        if free not in pivots:
            # x_free = 1, the other free variables 0, each pivot variable
            # solved from its row
            v = [field.zero] * n
            v[free] = field.one
            for i, p in enumerate(pivots):
                v[p] = -H[i][free]
            kernel.append(v)
    return kernel


def hessian_corank(f: Poly) -> int:
    """Arity minus the rank of the Hessian at the origin (generic rank when
    parameters are present)."""
    return len(_hessian_kernel(f))


def classify_simple(f: Poly, mu: Optional[int] = None) -> Optional[SingularityClass]:
    """Arnol'd class of the isolated singular point at the origin, or None
    when the germ is not simple (corank >= 3, or out-of-range invariants).

    f must vanish at the origin and have it as a critical point; otherwise
    the germ has no class there and ValueError is raised.  Arnol'd's
    determinator needs only the jets: the origin is critical when f has no
    linear term; the corank is the dimension of the Hessian's kernel; with
    corank 2 the splitting lemma leaves the cubic part of f on that kernel,
    which is zero (not simple), a cube (E6, E7, E8 by mu) or otherwise D_mu.
    No normal-form reduction is performed.
    """
    if f.has_parameters():
        raise ValueError("classification needs a parameter-free polynomial")
    if any(m.degree == 1 for m in f.monomials()):
        raise ValueError("the origin is not a critical point")
    if f.constant_coeff():
        raise ValueError("the polynomial does not vanish at the origin")
    if mu is None:
        mu = milnor_local(f).dimension
    if mu < 1:
        return None
    kernel = _hessian_kernel(f)
    if not kernel:
        return SingularityClass("A", 1) if mu == 1 else None
    if len(kernel) == 1:
        return SingularityClass("A", mu)
    if len(kernel) != 2:
        return None
    # a*Y^3 + b*Y^2*Z + c*Y*Z^2 + d*Z^3: the cubic part of f at Y*u + Z*v
    u, v = kernel
    zero = f.ctx.field.zero
    cubic = [zero] * 4
    for m, coeff in f.items():
        if m.degree == 3:
            form = [coeff]
            for i in _variable_indices(m):  # times u[i]*Y + v[i]*Z
                form = [p * u[i] + q * v[i]
                        for p, q in zip(form + [zero], [zero] + form)]
            cubic = [s + t for s, t in zip(cubic, form)]
    if not any(cubic):
        return None
    a, b, c, d = cubic
    # the Hessian covariant of the cubic vanishes exactly for a cube
    if 3 * a * c - b * b or 9 * a * d - b * c or 3 * b * d - c * c:
        return SingularityClass("D", mu) if mu >= 4 else None
    return SingularityClass("E", mu) if mu in (6, 7, 8) else None


# ---------------------------------------------------------------------------
# versal deformation
# ---------------------------------------------------------------------------

_VERSAL_PREFIX = "lam"


@dataclass(frozen=True)
class DeformationFamily:
    monomials: tuple[Monomial, ...]   # descending under the order; lam_i multiplies monomials[i]
    parameters: tuple[str, ...]
    family: Poly

    @property
    def tyurina_number(self) -> int:
        return len(self.monomials)


def build_versal_family(f: Poly, order: Optional[MonomialOrder] = None) -> DeformationFamily:
    """Deform by the Tyurina quotient basis, one fresh parameter each.

    Parameters pair with the quotient monomials descending under the local
    order (ascending degree only under neg_grevlex), so lam0 multiplies 1,
    the largest local monomial, whenever the ideal is not the unit ideal.
    """
    report = tyurina_local(f, order)
    monoms = report.quotient_basis[::-1]  # quotient_basis ascends under the order
    taken = set(f.ctx.variables) | set(f.ctx.parameters)
    names = []
    for i in range(len(monoms)):
        name = "%s%d" % (_VERSAL_PREFIX, i)
        while name in taken:
            name = name + "_"
        taken.add(name)
        names.append(name)
    new_ctx = f.ctx.with_params(names)
    fam = f.convert_to(new_ctx)
    for name, m in zip(names, monoms):
        fam = fam + Poly(new_ctx, {m: new_ctx.field.param(name)})
    return DeformationFamily(monomials=monoms, parameters=tuple(names), family=fam)


# ---------------------------------------------------------------------------
# stratification catalogs
# ---------------------------------------------------------------------------

_YZ = VarCtx(("Y", "Z"))
_WITNESS_RETRIES = 20


@dataclass(frozen=True)
class Stratum:
    """One stratum of a Kuranishi-space stratification.

    equations cut the stratum out of the deformation-coefficient space;
    family_src is a rational 1-or-more parameter witness family whose generic
    member realizes the expected type.  generic is the catalog's generic
    stratum L, whose witness family is the versal unfolding itself and whose
    witness parameters are the deformation coefficients; v_point reads the
    coefficients off family_src against it (see _coordinates).
    """

    name: str
    expected: SingularityClass
    equations: tuple[str, ...]
    family_src: str
    witness_params: tuple[str, ...]
    side_conditions: tuple[str, ...] = ()
    generic: Optional[Stratum] = dataclasses.field(default=None, repr=False,
                                                   compare=False)
    notes: str = ""
    flagged_variants: tuple[str, ...] = ()

    @property
    def expected_mu(self) -> int:
        """The Milnor number of the expected type: its index."""
        return self.expected.index

    def family(self, witness: dict) -> Poly:
        """The witness family at a rational point of its parameters, over Q."""
        return parse_poly(self.family_src, _YZ, witness)

    @cached_property
    def v_point(self) -> tuple[tuple[str, str], ...]:
        """Each deformation coefficient as an expression in the witness
        parameters; empty when the witness family is off the unfolding (the
        D6 stratum W2^5, whose rational avatar has base -Z^5, see notes) or
        no generic stratum is linked."""
        fam = parse_poly(self.family_src, VarCtx(_YZ.variables, self.witness_params))
        coords = _coordinates(fam, self.generic) or {}
        return tuple((v, fam.ctx.field.to_str(c)) for v, c in coords.items())

    def to_json_dict(self) -> dict:
        d = {
            "name": self.name,
            "equations": list(self.equations),
            "expected": self.expected.name,
            "expected_mu": self.expected_mu,
            "witness_params": list(self.witness_params),
            "side_conditions": list(self.side_conditions),
            "family": self.family_src,
        }
        if self.notes:
            d["notes"] = self.notes
        return d


@dataclass(frozen=True)
class StratumVerification:
    stratum: Stratum
    witness: dict
    mu: int
    tau: int
    corank: int
    classified: Optional[SingularityClass]
    equations_checked: bool
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.stratum.name,
            "equations": list(self.stratum.equations),
            "expected": self.stratum.expected.name,
            "witness": {k: str(v) for k, v in self.witness.items()},
            "mu": self.mu,
            "tau": self.tau,
            "corank": self.corank,
            "class": self.classified.name if self.classified else None,
            "equations_checked": self.equations_checked,
            "ok": self.ok,
        }


# the equation of W2 (D and E catalogs) and the second one of W2^3 (E catalogs)
_W2 = "v0^2 - 4*v1*v2"
_W3 = "v1^3*v4^2 - v2*(v1*v3 + v2)^2"


def _an_catalog(n: int) -> list[Stratum]:
    strata = []
    for m in range(1, n + 1):
        params = tuple("v%d" % i for i in range(m + 1, n + 1))
        tail = " + ".join("v%d*Z^%d" % (i, i) for i in range(m + 1, n + 1))
        src = "Y^2 + Z^%d" % (n + 1) + (" + " + tail if tail else "")
        eqs = tuple("v%d" % k for k in range(2, m + 1))
        side = ("v%d" % (m + 1),) if m < n else ()
        strata.append(Stratum(
            name="L" if m == 1 else "V2^%d" % m,
            expected=SingularityClass("A", m),
            equations=eqs, family_src=src, witness_params=params,
            side_conditions=side,
        ))
    return strata


def _dn_catalog(n: int) -> list[Stratum]:
    def tail(lo: int) -> str:
        return "".join(" + v%d*Z^%d" % (k, k) for k in range(lo, n - 1))

    base = "Y^2*Z + Z^%d" % (n - 1)
    strata = [
        Stratum("L", SingularityClass("A", 1), (),
                base + " + v0*Y*Z + v1*Y^2" + tail(2),
                tuple("v%d" % k for k in range(0, n - 1)),
                side_conditions=(_W2,)),
        Stratum("W2", SingularityClass("A", 2), (_W2,),
                base + " + (w1*Y + w2*Z)^2" + tail(3),
                ("w1", "w2") + tuple("v%d" % k for k in range(3, n - 1)),
                side_conditions=("w1", "w2") + (("w2^2 + v3*w1^2",) if n >= 5 else ())),
        Stratum("V0&V1", SingularityClass("A", 3), ("v0", "v1"),
                base + tail(2),
                tuple("v%d" % k for k in range(2, n - 1)),
                side_conditions=("v2",)),
    ]
    if n >= 5:
        strata.append(Stratum(
            "W2&W3", SingularityClass("A", 3),
            (_W2, "v1*v3 + v2"),
            base + " + v1*(Y + s*Z)^2 - s^2*Z^3" + tail(4),
            ("v1", "s") + tuple("v%d" % k for k in range(4, n - 1)),
            side_conditions=("v1", "s",
                             "v1*v4 - s^2" if n >= 6 else "v1 - s^2")))
    # V chain: D_{k+2} on V0^k
    for k in range(2, n - 1):
        params = tuple("v%d" % j for j in range(k + 1, n - 1))
        side = ("v%d" % (k + 1),) if k + 1 <= n - 2 else ()
        strata.append(Stratum(
            "V0^%d" % k, SingularityClass("D", k + 2),
            tuple("v%d" % j for j in range(0, k + 1)),
            base + tail(k + 1), params, side_conditions=side))
    if n >= 6:
        strata.append(Stratum(
            "W2^4", SingularityClass("A", 4),
            (_W2, "v1*v3 + v2", "v1*v4 + v3"),
            base + " + (w1*Y - w1^2*w4*Z)^2 - w1^2*w4^2*Z^3 + w4^2*Z^4" + tail(5),
            ("w1", "w4") + tuple("v%d" % k for k in range(5, n - 1)),
            side_conditions=("w1", "w4") + (("w1^2*v5 + w4^2",) if n >= 7 else ())))
    if n == 6:
        strata.append(Stratum(
            "W2^5", SingularityClass("A", 5),
            (_W2, "v1*v3 + v2", "v1*v4 + v3", "v1 + v4"),
            "Z*Y^2 - Z^5 - v1*(Y + v1*Z)^2 - v1^2*Z^3 - v1*Z^4",
            ("v1",), side_conditions=("v1",),
            notes=("stratum has no nonzero rational points; witness family is "
                   "the complex-branch parameterization composed with the "
                   "rational linear change (Y,Z)->(iY,-Z)")))
    return strata


def _e6_catalog() -> list[Stratum]:
    base = "Y^3 + Z^4"
    return [
        Stratum("L", SingularityClass("A", 1), (),
                base + " + v0*Y*Z + v1*Y^2 + v2*Z^2 + v3*Y*Z^2 + v4*Z^3",
                ("v0", "v1", "v2", "v3", "v4"), side_conditions=(_W2,)),
        Stratum("W2", SingularityClass("A", 2), (_W2,),
                base + " + (w1*Y + w2*Z)^2 + v3*Y*Z^2 + v4*Z^3",
                ("w1", "w2", "v3", "v4"),
                side_conditions=("w1", "w2", "w1^3*v4 - w1^2*w2*v3 - w2^3")),
        Stratum("W2^3", SingularityClass("A", 3), (_W2, _W3),
                base + " + v1*(Y + u*Z)^2 + v3*Y*Z^2 + u*(v3 + u^2)*Z^3",
                ("v1", "u", "v3"),
                side_conditions=("v1", "u", "4*v1 - (v3 + 3*u^2)^2")),
        Stratum("V0^2", SingularityClass("D", 4), ("v0", "v1", "v2"),
                base + " + v3*Y*Z^2 + v4*Z^3", ("v3", "v4"),
                side_conditions=("4*v3^3 + 27*v4^2",)),
        Stratum("W2^4", SingularityClass("A", 4),
                (_W2, _W3, "4*v1^3 - (v1*v3 + 3*v2)^2"),
                base + " + 1/4*(3*u^2 + v3)^2*(Y + u*Z)^2 + v3*Y*Z^2 + u*(v3 + u^2)*Z^3",
                ("u", "v3"),
                side_conditions=("u", "3*u^2 + v3")),
        Stratum("V&V0^2", SingularityClass("D", 5),
                ("v0", "v1", "v2", "4*v3^3 + 27*v4^2"),
                base + " - 3*a^2*Y*Z^2 - 2*a^3*Z^3", ("a",),
                side_conditions=("a",)),
        Stratum("W&V0&V2&V4", SingularityClass("A", 5),
                ("v0", "v2", "v4", "v3^2 - 4*v1"),
                base + " + 1/4*v3^2*Y^2 + v3*Y*Z^2", ("v3",),
                side_conditions=("v3",)),
    ]


def _e7_catalog() -> list[Stratum]:
    w4 = "16*v1^5*v2 - ((v1*v3 + 3*v2)^2 - 4*v1^3*v5)^2"
    w4_flagged = "16*v1^5*v2 - ((v1*v2 + 3*v2)^2 - 4*v1^3*v5)^2"
    w5 = "v1*v5^2 - v2"
    w5p = "v1*(v1^2 - 9*v2*v5)^2 - 81*v2^3"
    w6 = "16*v1^5 - 729*v2^3"
    base = "Y^3 + Y*Z^3"
    return [
        Stratum("L", SingularityClass("A", 1), (),
                base + " + v0*Y*Z + v1*Y^2 + v2*Z^2 + v3*Y*Z^2 + v4*Z^3 + v5*Z^4",
                ("v0", "v1", "v2", "v3", "v4", "v5"), side_conditions=(_W2,)),
        Stratum("W2", SingularityClass("A", 2), (_W2,),
                base + " + (w1*Y + w2*Z)^2 + v3*Y*Z^2 + v4*Z^3 + v5*Z^4",
                ("w1", "w2", "v3", "v4", "v5"),
                side_conditions=("w1", "w2", "w2^2*v3*w1^2 + w2^4 - w2*w1^3*v4")),
        Stratum("W2^3", SingularityClass("A", 3), (_W2, _W3),
                base + " + v1*(Y + u*Z)^2 + v3*Y*Z^2 + u*(v3 + u^2)*Z^3 + v5*Z^4",
                ("v1", "u", "v3", "v5"),
                side_conditions=("v1", "u", "4*v1*(v5 - u) - (v3 + 3*u^2)^2")),
        Stratum("V0^2", SingularityClass("D", 4), ("v0", "v1", "v2"),
                base + " + v3*Y*Z^2 + v4*Z^3 + v5*Z^4", ("v3", "v4", "v5"),
                side_conditions=("4*v3^3 + 27*v4^2",)),
        Stratum("V&V0^2", SingularityClass("D", 5),
                ("v0", "v1", "v2", "4*v3^3 + 27*v4^2"),
                base + " - 3*a^2*Y*Z^2 - 2*a^3*Z^3 + v5*Z^4", ("a", "v5"),
                side_conditions=("a", "a - v5")),
        Stratum("V0^4", SingularityClass("E", 6),
                ("v0", "v1", "v2", "v3", "v4"),
                base + " + v5*Z^4", ("v5",), side_conditions=("v5",)),
        Stratum("V'&V0^2", SingularityClass("D", 6),
                ("v0", "v1", "v2", "v3 + 3*v5^2", "v4 + 2*v5^3"),
                base + " - 3*a^2*Y*Z^2 - 2*a^3*Z^3 + a*Z^4", ("a",),
                side_conditions=("a",)),
        Stratum("W2~4", SingularityClass("A", 4), (_W2, _W3, w4),
                base + " + (w1*Y + u*w1*Z)^2 + (2*t*w1 - 3*u^2)*Y*Z^2"
                " + u*(2*t*w1 - 2*u^2)*Z^3 + (t^2 + u)*Z^4",
                ("w1", "u", "t"),
                side_conditions=("w1", "u", "t", "w1 + 3*u*t"),
                flagged_variants=(w4_flagged,),
                notes="fourth equation uses v1*v3, the printed v1*v2 variant "
                      "fails the stratum's own parameterization"),
        Stratum("W2~5", SingularityClass("A", 5), (_W2, _W3, w4, w5),
                base + " + (w1*Y + u*w1*Z)^2 - 3*u^2*Y*Z^2 - 2*u^3*Z^3 + u*Z^4",
                ("w1", "u"), side_conditions=("w1", "u")),
        Stratum("W2~5'", SingularityClass("A", 5), (_W2, _W3, w4, w5p),
                base + " + (3*t*u*Y + 3*u^2*t*Z)^2 + (-6*t^2*u - 3*u^2)*Y*Z^2"
                " + u*(-6*t^2*u - 2*u^2)*Z^3 + (t^2 + u)*Z^4",
                ("u", "t"),
                side_conditions=("u", "t", "4*t^2 - 3*u")),
        Stratum("W2~6", SingularityClass("A", 6), (_W2, _W3, w4, w5p, w6),
                base + " + (4*t^3*Y + 16/3*t^5*Z)^2 - 40/3*t^4*Y*Z^2"
                " - 416/27*t^6*Z^3 + 7/3*t^2*Z^4",
                ("t",), side_conditions=("t",)),
    ]


def _e8_catalog() -> list[Stratum]:
    w4 = "16*v1^5*v2*v5^2 - ((v1*v3 + 3*v2)^2 - 4*v1^3*v6)^2"
    p = "(v1*v3 + 3*v2)"
    w5 = ("(4*v1^5*v5^2*%s^2 + 16*v1^7*(v1^2 + v1*v3*v5 + 3*v2*v5) - 9*v2*%s^4)"
          "*(4*v1^5*v5^2*%s^2 + 16*v1^7*(v1^2 - v1*v3*v5 - 3*v2*v5) - 9*v2*%s^4)"
          % (p, p, p, p))
    w6 = ("(32*v1^9 - 2*v1^5*v5*%s*(8*v1^2 - 3*v2*v5 - v1*v3*v5) + %s^5)"
          "*(32*v1^9 + 2*v1^5*v5*%s*(8*v1^2 + 3*v2*v5 + v1*v3*v5) - %s^5)"
          % (p, p, p, p))
    w7 = "256*v2 - v1*v5^4"
    base = "Y^3 + Z^5"
    u_expr = "(1/12*b^2 - 1/12*v5^2)"
    w1_expr = "(1/2*t*(v5 - b))"
    a5_family = (base
                 + " + (%s*Y + %s*%s*Z)^2" % (w1_expr, u_expr, w1_expr)
                 + " + (t^2*(v5 - b) - 3*%s^2)*Y*Z^2" % u_expr
                 + " + %s*(t^2*(v5 - b) - 2*%s^2)*Z^3" % (u_expr, u_expr)
                 + " + v5*Y*Z^3 + (t^2 + %s*v5)*Z^4" % u_expr)
    # A6: substitute t = c*b, v5 = b - 8*c^2 into the A5 parameterization
    u6 = "(1/3*(4*b*c^2 - 16*c^4))"
    w16 = "(-4*c^3*b)"
    a6_family = (base
                 + " + (%s*Y + %s*%s*Z)^2" % (w16, u6, w16)
                 + " + (2*c*b*%s - 3*%s^2)*Y*Z^2" % (w16, u6)
                 + " + %s*(2*c*b*%s - 2*%s^2)*Z^3" % (u6, w16, u6)
                 + " + (b - 8*c^2)*Y*Z^3"
                 + " + (c^2*b^2 + %s*(b - 8*c^2))*Z^4" % u6)
    return [
        Stratum("L", SingularityClass("A", 1), (),
                base + " + v0*Y*Z + v1*Y^2 + v2*Z^2 + v3*Y*Z^2 + v4*Z^3"
                " + v5*Y*Z^3 + v6*Z^4",
                ("v0", "v1", "v2", "v3", "v4", "v5", "v6"), side_conditions=(_W2,)),
        Stratum("W2", SingularityClass("A", 2), (_W2,),
                base + " + (w1*Y + w2*Z)^2 + v3*Y*Z^2 + v4*Z^3 + v5*Y*Z^3 + v6*Z^4",
                ("w1", "w2", "v3", "v4", "v5", "v6"),
                side_conditions=("w1", "w2", "w2^3 + w1^2*w2*v3 - w1^3*v4")),
        Stratum("W2^3", SingularityClass("A", 3), (_W2, _W3),
                base + " + (w1*Y + u*w1*Z)^2 + v3*Y*Z^2 + u*(v3 + u^2)*Z^3"
                " + v5*Y*Z^3 + v6*Z^4",
                ("w1", "u", "v3", "v5", "v6"),
                side_conditions=("w1", "u", "4*w1^2*(v6 - u*v5) - (v3 + 3*u^2)^2")),
        Stratum("V0^2", SingularityClass("D", 4), ("v0", "v1", "v2"),
                base + " + v3*Y*Z^2 + v4*Z^3 + v5*Y*Z^3 + v6*Z^4",
                ("v3", "v4", "v5", "v6"),
                side_conditions=("4*v3^3 + 27*v4^2",)),
        Stratum("V&V0^2", SingularityClass("D", 5),
                ("v0", "v1", "v2", "4*v3^3 + 27*v4^2"),
                base + " - 3*a^2*Y*Z^2 - 2*a^3*Z^3 + v5*Y*Z^3 + v6*Z^4",
                ("a", "v5", "v6"),
                side_conditions=("a", "v6 - a*v5")),
        Stratum("V0^4", SingularityClass("E", 6),
                ("v0", "v1", "v2", "v3", "v4"),
                base + " + v5*Y*Z^3 + v6*Z^4", ("v5", "v6"),
                side_conditions=("v6",)),
        Stratum("V0^4&V6", SingularityClass("E", 7),
                ("v0", "v1", "v2", "v3", "v4", "v6"),
                base + " + v5*Y*Z^3", ("v5",), side_conditions=("v5",)),
        Stratum("V'&V0^2", SingularityClass("D", 6),
                ("v0", "v1", "v2", "v3*v5^2 + 3*v6^2", "v4*v5^3 + 2*v6^3"),
                base + " - 3*a^2*Y*Z^2 - 2*a^3*Z^3 + v5*Y*Z^3 + a*v5*Z^4",
                ("a", "v5"),
                side_conditions=("a", "v5", "12*a + v5^2")),
        Stratum("V''&V0^2", SingularityClass("D", 7),
                ("v0", "v1", "v2", "v3*v5^2 + 3*v6^2", "v4*v5^3 + 2*v6^3",
                 "12*v6 + v5^3"),
                base + " - 1/48*v5^4*Y*Z^2 + 1/864*v5^6*Z^3 + v5*Y*Z^3"
                " - 1/12*v5^3*Z^4",
                ("v5",), side_conditions=("v5",)),
        Stratum("W2~4", SingularityClass("A", 4), (_W2, _W3, w4),
                base + " + (w1*Y + u*w1*Z)^2 + (2*t*w1 - 3*u^2)*Y*Z^2"
                " + u*(2*t*w1 - 2*u^2)*Z^3 + v5*Y*Z^3 + (t^2 + u*v5)*Z^4",
                ("w1", "u", "t", "v5"),
                side_conditions=("w1", "u", "t", "w1^2 - t*w1*v5 - 3*u*t^2")),
        Stratum("W2~5", SingularityClass("A", 5), (_W2, _W3, w4, w5),
                a5_family, ("t", "b", "v5"),
                side_conditions=("t", "v5 - b", "v5 + b",
                                 "b^3 - b^2*v5 - 8*t^2")),
        Stratum("W2~6", SingularityClass("A", 6), (_W2, _W3, w4, w5, w6),
                a6_family, ("b", "c"),
                side_conditions=("b", "c", "b + 8*c^2", "b + 16*c^2",
                                 "b - 4*c^2")),
        Stratum("W2~7", SingularityClass("A", 7), (_W2, _W3, w4, w5, w6, w7),
                base + " + (32*c^5*Y - 512*c^9*Z)^2 - 1280*c^8*Y*Z^2"
                " + 16384*c^12*Z^3 - 16*c^2*Y*Z^3 + 320*c^6*Z^4",
                ("c",), side_conditions=("c",)),
    ]


def stratum_catalog(cls: SingularityClass) -> list[Stratum]:
    """Stratification equations with witness parameterizations, per family;
    every stratum links to the generic stratum L, the first one."""
    if cls.family == "A":
        catalog = _an_catalog(cls.index)
    elif cls.family == "D":
        catalog = _dn_catalog(cls.index)
    else:
        catalog = {6: _e6_catalog, 7: _e7_catalog, 8: _e8_catalog}[cls.index]()
    return [dataclasses.replace(s, generic=catalog[0]) for s in catalog]


@cache
def _unfolding(src: str, params: tuple[str, ...]):
    """The versal unfolding a generic stratum's witness family writes, read
    over Q: the family at all parameters 0 (the base) and, in order, each
    coordinate v_i with the one monomial it multiplies."""
    zero = dict.fromkeys(params, 0)
    base = parse_poly(src, _YZ, zero)
    coords = []
    for v in params:
        (m, _), = (parse_poly(src, _YZ, zero | {v: 1}) - base).items()
        coords.append((v, m))
    return dict(base.items()), tuple(coords)


def _coordinates(p: Poly, generic: Optional[Stratum]) -> Optional[dict]:
    """The coefficient of p at each coordinate's monomial of the unfolding
    that generic writes, by coordinate name; None without generic or when
    the rest of p is not the base."""
    if generic is None:
        return None
    base, coords = _unfolding(generic.family_src, generic.witness_params)
    monomials = {m for _, m in coords}
    if {m: c for m, c in p.items() if m not in monomials} != base:
        return None
    return {v: p.coeff(m) for v, m in coords}


# ---------------------------------------------------------------------------
# stratum verification
# ---------------------------------------------------------------------------

def _eval_param_expr(src: str, values: dict) -> Fraction:
    p = parse_poly(src, _YZ, values)
    if not p.is_constant():
        raise ValueError("expression %r did not evaluate to a constant" % src)
    return p.constant_coeff()


def sample_witness(stratum: Stratum, rng: random.Random, max_den: int = 7) -> dict:
    """Small random rationals for the witness parameters, retried (up to
    _WITNESS_RETRIES times) until no side condition vanishes."""
    for _ in range(_WITNESS_RETRIES):
        values = {}
        for name in stratum.witness_params:
            num = rng.randint(1, 3) * rng.choice((1, -1))
            den = rng.randint(1, max_den)
            values[name] = Fraction(num, den)
        if all(_eval_param_expr(src, values) != 0
               for src in stratum.side_conditions):
            return values
    raise RuntimeError("no nondegenerate witness found for %s" % stratum.name)


def _germ_invariants(f: Poly, step_budget: Optional[int] = None):
    """(mu, tau, Hessian corank, simple class or None) of the germ of f at
    the origin."""
    mu = milnor_local(f, step_budget=step_budget).dimension
    tau = tyurina_local(f, step_budget=step_budget).dimension
    return mu, tau, hessian_corank(f), classify_simple(f, mu=mu)


def verify_stratum(cls: SingularityClass, stratum: Stratum,
                   witness: dict) -> StratumVerification:
    """Parse the witness family at the witness, compute (mu, tau, corank, class)
    and compare with the stratum's expectation.  When the family lies on the
    versal unfolding with at least one coordinate, also check that the
    stratum's equations vanish at the coordinates read off it."""
    witness = {k: Fraction(v) for k, v in witness.items()}
    missing = set(stratum.witness_params) - set(witness)
    if missing:
        raise ValueError("witness misses parameters %s" % sorted(missing))
    for name in witness:
        if name not in stratum.witness_params:
            raise KeyError("unknown parameter %r" % name)
    for src in stratum.side_conditions:
        if _eval_param_expr(src, witness) == 0:
            raise ValueError("witness violates side condition %r" % src)
    f = stratum.family(witness)
    mu, tau, crk, got = _germ_invariants(f)
    coords = _coordinates(f, stratum.generic)
    if coords:
        for eq in stratum.equations:
            if _eval_param_expr(eq, coords) != 0:
                raise AssertionError("witness does not satisfy stratum equation %r" % eq)
    ok = (mu == stratum.expected_mu and got == stratum.expected)
    return StratumVerification(stratum=stratum, witness=witness, mu=mu,
                               tau=tau, corank=crk, classified=got,
                               equations_checked=bool(coords), ok=ok)


# ---------------------------------------------------------------------------
# special 1-parameter adjacency families
# ---------------------------------------------------------------------------

def _a_from_d(n: int) -> str:
    """Source of the A_{n-1} <- D_n family; for even n composed with the
    rational linear change (y,z) -> (iy,-z), see special_adjacency_family."""
    tail = range(3, n - 1)
    if n % 2 == 0:
        return ("y^2*z - z^%d - t*(y - t^%d*z)^2" % (n - 1, (n - 4) // 2)
                + "".join(" - t^%d*z^%d" % (n - 1 - k, k) for k in tail))
    return ("y^2*z + z^%d + t^2*(y + t^%d*z)^2" % (n - 1, n - 4)
            + "".join(" + (-t^2)^%d*z^%d" % (n - 1 - k, k) for k in tail))


# kind -> (target class, source in y, z and t); a-from-d depends on n
_ADJACENCY = {
    "a-from-d": None,
    "a5-from-e6": (SingularityClass("A", 5), "y^3 + z^4 + t^2*y^2 + 2*t*y*z^2"),
    "d5-from-e6": (SingularityClass("D", 5), "y^3 + z^4 - 3*t^2*y*z^2 - 2*t^3*z^3"),
    "a6-from-e7": (SingularityClass("A", 6),
                   "y^3 + y*z^3 + 432*t^3*(y + 4*t*z)^2 - 120*t^2*y*z^2"
                   " - 416*t^3*z^3 + 7*t*z^4"),
    "d6-from-e7": (SingularityClass("D", 6),
                   "y^3 + y*z^3 - 3*t^2*y*z^2 - 2*t^3*z^3 + t*z^4"),
    "a7-from-e8": (SingularityClass("A", 7),
                   "y^3 + z^5 + t^5*(y - t^2*z)^2 - 5*t^4*y*z^2 + 4*t^6*z^3"
                   " - 4*t*y*z^3 + 5*t^3*z^4"),
    "d7-from-e8": (SingularityClass("D", 7),
                   "y^3 + z^5 - 27*t^4*y*z^2 + 54*t^6*z^3 - 6*t*y*z^3"
                   " + 18*t^3*z^4"),
}

ADJACENCY_KINDS = tuple(_ADJACENCY)


def _adjacency(kind: str, n: Optional[int]) -> tuple[SingularityClass, str]:
    """The target class and source of an adjacency kind; ValueError for an
    unknown kind, for a-from-d without a D index n >= 4, and for an n given
    to any other kind."""
    kind = kind.strip().lower()
    if kind not in _ADJACENCY:
        raise ValueError("unknown adjacency kind %r (choose from %s)"
                         % (kind, ", ".join(ADJACENCY_KINDS)))
    if kind != "a-from-d":
        if n is not None:
            raise ValueError("the %s family takes no index n" % kind)
        return _ADJACENCY[kind]
    if n is None or n < 4:
        raise ValueError("the A<-D family needs the D index n >= 4")
    return SingularityClass("A", n - 1), _a_from_d(n)


def special_adjacency_family(kind: str, n: Optional[int] = None) -> Poly:
    """The 1-parameter deformation realizing one of the special adjacencies,
    as a plane curve in y, z over parameter t.

    The even A_{n-1} <- D_n family natively carries the imaginary unit; it is
    returned composed with the rational linear change (y,z) -> (iy,-z), which
    preserves Milnor/Tyurina numbers, corank and class (the base polynomial
    then reads y^2*z - z^(n-1)).
    """
    return parse_poly(_adjacency(kind, n)[1], VarCtx(("y", "z"), ("t",)))


def adjacency_target(kind: str, n: Optional[int] = None) -> SingularityClass:
    return _adjacency(kind, n)[0]
