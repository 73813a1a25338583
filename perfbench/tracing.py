"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the module-level functions and methods at each
layer boundary of ``localstd`` with wrappers that record a span (name, start,
end, parent) and per-name counts, self time (duration minus the time covered
by child spans) and total time (outermost span of a name only, so recursion
is not counted twice).  ``uninstall()`` puts the originals back.

Aggregates cover every traced call; the spans themselves are kept in memory
up to ``span_cap`` and written out by ``dump``.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, List

import localstd
from localstd import coeffs, engines, invariants, orders, parser, poly, singularities

# (layer name, owner, attribute); a layer may wrap several attributes.
BOUNDARIES = [
    ("coeffs.common_unit", coeffs.CoeffField, "common_unit"),
    ("poly.primitive", poly.Poly, "primitive"),
    ("poly.arith", poly.Poly, "__add__"),
    ("poly.arith", poly.Poly, "__sub__"),
    ("poly.arith", poly.Poly, "scale"),
    ("poly.arith", poly.Poly, "mul_term"),
    ("poly.leading_term", poly.Poly, "leading_term"),
    ("orders.sort_key", orders.MonomialOrder, "sort_key"),
    ("orders.classify", orders.MonomialOrder, "classify"),
    ("engines.spoly", engines, "s_polynomial"),
    ("engines.weak_nf", engines, "_weak_nf"),
    ("engines.reduce_full", engines, "_reduce_full"),
    ("engines.update", engines, "_update"),
    ("engines.select_pair", engines, "_select_pair"),
    ("engines.completion", engines, "_completion"),
    ("invariants.quotient_basis", invariants, "quotient_basis"),
    ("invariants.enumerate", invariants, "_monomials_capped"),
    ("singularities.classify", singularities, "classify_simple"),
    ("singularities.hessian", singularities, "hessian_corank"),
    ("singularities.eval_param_expr", singularities, "_eval_param_expr"),
    ("parser.parse", parser, "parse_poly"),
    ("parser.parse", singularities, "parse_poly"),
    ("parser.parse", localstd, "parse_poly"),
]

REDUCERS = ("engines.weak_nf", "engines.reduce_full")


def _coeff_bits(p) -> int:
    """Largest bit length of an integer in the coefficients of p (numerators
    and denominators; of every rational coefficient of a rational function)."""
    best = 0
    field = p.ctx.field
    for c in p._t.values():
        if field.params:
            rationals = [q for part in (c.numer, c.denom) for q in part.coeffs()]
        else:
            rationals = [c]
        for q in rationals:
            best = max(best, int(q.numerator).bit_length(), int(q.denominator).bit_length())
    return best


class Tracer:
    def __init__(self, span_cap: int = 200_000):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        self._depth: List[int] = []
        self.spans: List[tuple] = []
        self.span_cap = span_cap
        self.spans_dropped = 0
        self.keep_spans = True
        self._stack: List[list] = []   # [name id, start, child time, span index, parent index]
        self._saved = []
        self.zero_reductions = 0
        self.basis_size_max = 0
        self.max_bits = 0
        self.enumerated = 0

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self._depth.append(0)
        return i

    # -- spans -------------------------------------------------------------

    def enter(self, name_id: int):
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        if self.keep_spans:
            if len(self.spans) < self.span_cap:
                index = len(self.spans)
                self.spans.append(None)
            else:
                self.spans_dropped += 1
        self._depth[name_id] += 1
        self._stack.append([name_id, time.perf_counter(), 0.0, index, parent])

    def exit(self):
        end = time.perf_counter()
        name_id, start, child, index, parent = self._stack.pop()
        dur = end - start
        self.calls[name_id] += 1
        self.self_s[name_id] += dur - child
        self._depth[name_id] -= 1
        if not self._depth[name_id]:
            self.total_s[name_id] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if index >= 0:
            self.spans[index] = (name_id, start, end, parent)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (set-up, round)."""
        self.enter(self._id(name))
        try:
            yield
        finally:
            self.exit()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        enter, exit_ = self.enter, self.exit
        tracer = self

        if name in REDUCERS:
            def wrapper(*args, **kwargs):
                enter(name_id)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    exit_()
                if out.is_zero():
                    tracer.zero_reductions += 1
                return out
        elif name == "engines.completion":
            def wrapper(*args, **kwargs):
                enter(name_id)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    exit_()
                tracer.basis_size_max = max(tracer.basis_size_max, len(out))
                return out
        elif name == "poly.primitive":
            def wrapper(*args, **kwargs):
                enter(name_id)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    exit_()
                tracer.max_bits = max(tracer.max_bits, _coeff_bits(out))
                return out
        elif name == "invariants.enumerate":
            def wrapper(*args, **kwargs):
                for m in fn(*args, **kwargs):
                    tracer.enumerated += 1
                    yield m
        else:
            def wrapper(*args, **kwargs):
                enter(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._saved:
            return
        for name, owner, attr in BOUNDARIES:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates so far, by layer name."""
        out = {}
        for i, name in enumerate(self.names):
            out[name] = (self.calls[i], self.self_s[i], self.total_s[i])
        return out

    def dump(self, path: str, meta: dict):
        """Write the kept spans as JSON: names, then [name, start, end, parent]
        rows with parent the index of the enclosing span (-1 for a root)."""
        t0 = min((s[1] for s in self.spans if s is not None), default=0.0)
        rows = [[s[0], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3]]
                for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": self.names, "dropped": self.spans_dropped,
                       "spans": rows}, fh, separators=(",", ":"))
