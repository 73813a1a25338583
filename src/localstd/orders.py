"""Monomial orders: comparison, global/local/mixed classification, parsing.

All orders are multiplicative total orders on exponent vectors.  Negative
(local) orders are first-class objects, not wrappers, so that classification
is a direct probe of 1 against each variable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, mul, neg
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
    _keys: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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

    def key(self, arity: int):
        """Sort key on monomials of this arity: key(a) < key(b) iff a < b.

        Built and checked against the arity once, then kept on the order."""
        k = self._keys.get(arity)
        if k is None:
            k = self._keys[arity] = self._compile(arity)
        return k

    def _compile(self, arity: int):
        perm = tuple(range(arity)) if self.perm is None else self.perm
        if sorted(perm) != list(range(arity)):
            raise OrderDefinitionError("permutation %r does not fit arity %d"
                                       % (self.perm, arity))
        kind = self.kind
        # exponents in significance order, reversed for the degree orders; a
        # non-identity index tuple has two or more entries
        idx = perm[::-1] if kind in ("grevlex", "neg_grevlex") else perm
        pick = tuple if idx == tuple(range(arity)) else itemgetter(*idx)
        if kind == "grevlex":
            return lambda mon: (sum(mon), *map(neg, pick(mon)))
        if kind == "neg_grevlex":
            return lambda mon: (-sum(mon), *pick(mon))
        if kind == "lex":
            return pick
        if kind == "neg_lex":
            return lambda mon: tuple(map(neg, pick(mon)))
        if len(self.weights) != arity:
            raise OrderDefinitionError("weight vector does not fit arity %d" % arity)
        # the tie-break sees the variables in significance order
        weights, tiebreak = self.weights, self.tiebreak.key(arity)
        return lambda mon: (sum(map(mul, weights, mon)), *tiebreak(pick(mon)))

    # kept for perfbench/tracing.py, which wraps it
    def sort_key(self, mon):
        """Tuple such that key(a) < key(b) iff a < b under this order."""
        return self.key(len(mon))(mon)

    def compare(self, a, b) -> int:
        """-1, 0 or 1 as a <, =, > b.  Arity mismatch is an error."""
        if len(a) != len(b):
            raise ValueError("monomials of different arity")
        ka, kb = map(self.key(len(a)), (a, b))
        return (ka > kb) - (ka < kb)

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


# the default order of each class, built once so that every caller shares
# their compiled keys
DEFAULT_ORDERS = {OrderClass.GLOBAL: grevlex(), OrderClass.LOCAL: neg_grevlex()}


def parse_order(spec: str, variables) -> MonomialOrder:
    """Parse a CLI order spelling.

    Grammar: KIND[:v1,v2,...] for the four plain kinds (grevlex, lex,
    neg-grevlex, neg-lex), or weighted:w1,w2,...:TIEBREAK[:v1,v2,...] with a
    plain TIEBREAK.  The optional trailing variable list gives the
    significance order (most significant first).  The order is checked
    against the number of variables right away; every fault raises
    OrderDefinitionError.
    """
    spec = spec.strip()
    parts = spec.split(":")
    kind = parts.pop(0).replace("-", "_")
    weights = tiebreak = perm = None
    if kind == "weighted":
        if len(parts) < 2:
            raise OrderDefinitionError("weighted order needs weights and a tie-break")
        try:
            weights = tuple(Fraction(w) for w in parts.pop(0).split(","))
        except (ValueError, ZeroDivisionError):
            raise OrderDefinitionError("bad weight vector in %r" % spec) from None
        tb_kind = parts.pop(0).replace("-", "_")
        if tb_kind not in ("grevlex", "lex", "neg_grevlex", "neg_lex"):
            raise OrderDefinitionError("bad tie-break %r" % tb_kind)
        tiebreak = MonomialOrder(tb_kind)
    if parts:
        chunk = parts.pop(0)
        try:
            perm = tuple(list(variables).index(n.strip()) for n in chunk.split(","))
        except ValueError:
            raise OrderDefinitionError(
                "unknown variable in order permutation %r" % chunk) from None
    if parts:
        raise OrderDefinitionError("trailing junk in order spec %r" % spec)
    order = MonomialOrder(kind, perm, weights, tiebreak)
    order.key(len(list(variables)))
    return order
