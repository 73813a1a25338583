"""Monomial orders: comparison, global/local/mixed classification, parsing.

All orders are multiplicative total orders on exponent vectors.  Negative
(local) orders are first-class objects, not wrappers, so that classification
is a direct probe of 1 against each variable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


class OrderClass(enum.Enum):
    GLOBAL = "global"
    LOCAL = "local"
    MIXED = "mixed"


class OrderDefinitionError(ValueError):
    """Malformed monomial-order specification."""


@dataclass(frozen=True)
class MonomialOrder:
    """A total multiplicative monomial order.

    kind: one of grevlex, lex, neg_grevlex, neg_lex, weighted.
    perm: significance order as variable indices (most significant first);
          None means declaration order.
    weights / tiebreak: only for weighted orders.
    """

    kind: str
    perm: Optional[tuple[int, ...]] = None
    weights: Optional[tuple[Fraction, ...]] = None
    tiebreak: Optional["MonomialOrder"] = None

    _KINDS = ("grevlex", "lex", "neg_grevlex", "neg_lex", "weighted")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise OrderDefinitionError("unknown order kind %r" % self.kind)
        if self.kind == "weighted":
            if not self.weights or self.tiebreak is None:
                raise OrderDefinitionError("weighted order needs weights and a tie-break")
            if self.tiebreak.kind == "weighted":
                raise OrderDefinitionError("tie-break must not itself be weighted")

    # -- comparison -------------------------------------------------------

    def _perm_for(self, arity: int) -> tuple[int, ...]:
        if self.perm is None:
            return tuple(range(arity))
        if len(self.perm) != arity or sorted(self.perm) != list(range(arity)):
            raise OrderDefinitionError("permutation %r does not fit arity %d"
                                       % (self.perm, arity))
        return self.perm

    def sort_key(self, mon):
        """Tuple such that key(a) < key(b) iff a < b under this order."""
        arity = len(mon)
        perm = self._perm_for(arity)
        kind = self.kind
        if kind == "grevlex":
            return (sum(mon),) + tuple(-mon[i] for i in reversed(perm))
        if kind == "lex":
            return tuple(mon[i] for i in perm)
        if kind == "neg_grevlex":
            return (-sum(mon),) + tuple(mon[i] for i in reversed(perm))
        if kind == "neg_lex":
            return tuple(-mon[i] for i in perm)
        # weighted
        if len(self.weights) != arity:
            raise OrderDefinitionError("weight vector does not fit arity %d" % arity)
        w = sum(wi * e for wi, e in zip(self.weights, mon))
        if self.perm is not None:
            # the tie-break sees the variables in significance order
            mon = tuple(mon[i] for i in perm)
        return (w,) + tuple(self.tiebreak.sort_key(mon))

    def compare(self, a, b) -> int:
        """-1, 0 or 1 as a <, =, > b.  Arity mismatch is an error."""
        if len(a) != len(b):
            raise ValueError("monomials of different arity")
        ka, kb = self.sort_key(a), self.sort_key(b)
        return (ka > kb) - (ka < kb)

    def greater(self, a, b) -> bool:
        return self.compare(a, b) > 0

    # -- classification ------------------------------------------------------

    def classify(self, arity: int) -> OrderClass:
        """Probe 1 against each variable, mirroring the runtime guard."""
        one = (0,) * arity
        above = below = 0
        for i in range(arity):
            xi = tuple(1 if j == i else 0 for j in range(arity))
            c = self.compare(one, xi)
            if c < 0:
                above += 1
            elif c > 0:
                below += 1
        if above == arity:
            return OrderClass.GLOBAL
        if below == arity:
            return OrderClass.LOCAL
        return OrderClass.MIXED

    def opposite(self) -> "MonomialOrder":
        flip = {"grevlex": "neg_grevlex", "neg_grevlex": "grevlex",
                "lex": "neg_lex", "neg_lex": "lex"}
        if self.kind in flip:
            return MonomialOrder(flip[self.kind], self.perm)
        return MonomialOrder("weighted", self.perm,
                             tuple(-w for w in self.weights),
                             self.tiebreak.opposite())

    # -- spelling ----------------------------------------------------------------

    def spell(self, variables=None) -> str:
        name = self.kind.replace("_", "-")
        if self.kind == "weighted":
            name = "weighted:%s:%s" % (",".join(str(w) for w in self.weights),
                                       self.tiebreak.spell())
        if self.perm is not None and variables is not None:
            name += ":" + ",".join(variables[i] for i in self.perm)
        elif self.perm is not None:
            name += ":" + ",".join(str(i) for i in self.perm)
        return name

    def __str__(self):
        return self.spell()


def grevlex(perm=None) -> MonomialOrder:
    return MonomialOrder("grevlex", perm)


def lex(perm=None) -> MonomialOrder:
    return MonomialOrder("lex", perm)


def neg_grevlex(perm=None) -> MonomialOrder:
    return MonomialOrder("neg_grevlex", perm)


def neg_lex(perm=None) -> MonomialOrder:
    return MonomialOrder("neg_lex", perm)


def weighted(weights, tiebreak: MonomialOrder, perm=None) -> MonomialOrder:
    return MonomialOrder("weighted", perm, tuple(Fraction(w) for w in weights), tiebreak)


def parse_order(spec: str, variables) -> MonomialOrder:
    """Parse a CLI order spelling.

    Grammar: NAME[:v1,v2,...] for the four plain kinds, or
    weighted:w1,w2,...:TIEBREAK[:v1,v2,...].  The optional trailing variable
    list gives the significance order (most significant first).
    """
    spec = spec.strip()
    parts = spec.split(":")
    kind = parts.pop(0).replace("-", "_")

    def parse_perm(chunk: str) -> tuple[int, ...]:
        names = [s.strip() for s in chunk.split(",")]
        try:
            return tuple(list(variables).index(n) for n in names)
        except ValueError:
            raise OrderDefinitionError(
                "unknown variable in order permutation %r" % chunk) from None

    if kind in ("grevlex", "lex", "neg_grevlex", "neg_lex"):
        perm = None
        if parts:
            perm = parse_perm(parts.pop(0))
        if parts:
            raise OrderDefinitionError("trailing junk in order spec %r" % spec)
        order = MonomialOrder(kind, perm)
    elif kind == "weighted":
        if len(parts) < 2:
            raise OrderDefinitionError("weighted order needs weights and a tie-break")
        try:
            weights_ = tuple(Fraction(w) for w in parts.pop(0).split(","))
        except (ValueError, ZeroDivisionError):
            raise OrderDefinitionError("bad weight vector in %r" % spec) from None
        tb_kind = parts.pop(0).replace("-", "_")
        if tb_kind not in ("grevlex", "lex", "neg_grevlex", "neg_lex"):
            raise OrderDefinitionError("bad tie-break %r" % tb_kind)
        perm = parse_perm(parts.pop(0)) if parts else None
        if parts:
            raise OrderDefinitionError("trailing junk in order spec %r" % spec)
        order = MonomialOrder("weighted", perm, weights_, MonomialOrder(tb_kind))
    else:
        raise OrderDefinitionError("unknown order kind %r" % kind)
    # validate the fit against the arity right away
    order.sort_key((0,) * len(list(variables)))
    return order
