"""Benchmark of localstd: one workload per process, whole rounds of the same
operations for a given number of seconds, answers checked afterwards.

    python3 perfbench/run.py --workload strata-witness --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Result and trace
files go to ``.perfbench/`` at the root of the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 3

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and build the inputs, then exit (timed by the parent)")
    ap.add_argument("--list", action="store_true",
                    help="print the operations of one round with their inputs, then exit")
    return ap.parse_args(argv)


# On shared hosts the speed of a core drifts by up to 1.7x over minutes.
# Every run times this fixed loop, which shares nothing with localstd, every
# half second or so; the run's times are reported in reference seconds,
# measured seconds * REFERENCE_S / (median loop time of the run).
REFERENCE_S = 0.008
REFERENCE_EVERY_S = 0.5
_BIG = (3 ** 4001, 5 ** 2999)


def reference_loop():
    """Fixed work of the program's two kinds, about half each: interpreter
    work on small objects (dicts keyed by exponent tuples, small fractions,
    sorting by tuple keys) and gcds of integers of thousands of bits."""
    terms = {}
    acc = Fraction(0)
    for i in range(1, 800):
        key = (i % 7, i % 5, i % 3)
        terms[key] = terms.get(key, 0) + i * i
        acc += Fraction(i, i + 2)
    order = sorted(terms, key=lambda k: (-sum(k), k))
    x, y = _BIG
    g = 0
    for k in range(1, 30):
        g ^= math.gcd(x * (2 * k + 1), y * (2 * k + 3) + k)
    return order, acc, g


class Speed:
    """Reference-loop times taken through one run."""

    def __init__(self):
        self.samples = []
        self.last = 0.0

    def sample(self):
        t0 = time.perf_counter()
        reference_loop()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def maybe_sample(self):
        if time.perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports localstd and builds the
    workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=120, cwd=str(ROOT))
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % proc.stderr.decode(errors="replace")[-2000:])
    return elapsed


def run_round(ops, run_op, signature, seen, times, speed):
    """One pass over every operation.  Appends each operation's time to
    ``times[i]`` and keeps the first answer of each distinct signature in
    ``seen[i]`` (signature -> (index, answer)); returns, per operation, the
    index of this round's answer.  Reference samples fall between operations."""
    picks = []
    for i, op in enumerate(ops):
        speed.maybe_sample()
        t0 = time.perf_counter()
        answer = run_op(op)
        times[i].append(time.perf_counter() - t0)
        kinds = seen[i]
        entry = kinds.setdefault(signature(answer), (len(kinds), answer))
        picks.append(entry[0])
    return picks


def check_rounds(ops, seen, rounds):
    """Failed operation count over all rounds, and the distinct failures."""
    verdicts = [{index: op.check(answer) for index, answer in seen[i].values()}
                for i, op in enumerate(ops)]
    failed = 0
    failures = {}
    for picks in rounds:
        for i, index in enumerate(picks):
            reason = verdicts[i][index]
            if reason is not None:
                failed += 1
                failures[ops[i].name] = reason
    return failed, failures


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(times, round_walls, setup_samples, peak_rss_mb, scale):
    """Times in reference seconds (measured seconds times ``scale``)."""
    per_op = [statistics.median(t) for t in times]
    return {
        "wall_s": _metric(statistics.median(round_walls) * scale, "s"),
        "item_p50_ms": _metric(statistics.median(per_op) * 1e3 * scale, "ms"),
        "slowest_item_s": _metric(max(per_op) * scale, "s"),
        "setup_s": _metric(statistics.median(setup_samples) * scale, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


# tracer layer -> the time its `_s` metric reports: "self" or inclusive "total"
TIMED_LAYERS = {
    "coeffs.common_unit": "self",
    "poly.primitive": "self",
    "poly.arith": "self",
    "poly.leading_term": "self",
    "orders.sort_key": "self",
    "engines.spoly": "self",
    "engines.weak_nf": "self",
    "engines.reduce_full": "self",
    "engines.update": "self",
    "engines.select_pair": "self",
    "engines.completion": "total",
    "invariants.quotient_basis": "total",
    "singularities.classify": "total",
    "singularities.hessian": "total",
    "singularities.eval_param_expr": "total",
    "parser.parse": "total",
}
CALL_COUNTS = ["coeffs.common_unit", "poly.primitive", "poly.arith", "poly.leading_term",
               "orders.sort_key", "orders.classify", "engines.spoly", "engines.weak_nf",
               "engines.reduce_full", "engines.update", "engines.select_pair", "parser.parse"]


class _Counts:
    """Tracer aggregates at one instant, for differencing."""

    def __init__(self, tracer):
        self.layers = tracer.snapshot()
        self.zero = tracer.zero_reductions
        self.enumerated = tracer.enumerated

    def minus(self, other):
        out = {}
        for name, (c, s, t) in self.layers.items():
            c0, s0, t0 = other.layers.get(name, (0, 0.0, 0.0))
            out[name] = (c - c0, s - s0, t - t0)
        return out, self.zero - other.zero, self.enumerated - other.enumerated


def per_layer(tracer, setup_part, round_parts, overhead):
    """Each metric covers the set-up plus one round: counts are exact (every
    round repeats the same work), times take the median round."""
    layers, zero, enumerated = setup_part
    metrics = {}

    def layer_value(name, kind):
        idx = {"calls": 0, "self": 1, "total": 2}[kind]
        base = layers.get(name, (0, 0.0, 0.0))[idx]
        per_round = [r[0].get(name, (0, 0.0, 0.0))[idx] for r in round_parts]
        return base + (statistics.median(per_round) if per_round else 0)

    for name in CALL_COUNTS:
        metrics[name + "_calls"] = _metric(int(layer_value(name, "calls")), "count")
    for name, kind in TIMED_LAYERS.items():
        metrics[name + "_s"] = _metric(layer_value(name, kind), "s")
    reducer_calls = layer_value("engines.weak_nf", "calls") + \
        layer_value("engines.reduce_full", "calls")
    zero_total = zero + statistics.median([r[1] for r in round_parts])
    metrics["engines.zero_reductions"] = _metric(int(zero_total), "count")
    metrics["engines.useful_reduction_ratio"] = _metric(
        (reducer_calls - zero_total) / reducer_calls if reducer_calls else 1.0, "ratio")
    metrics["engines.basis_size_max"] = _metric(tracer.basis_size_max, "count")
    metrics["coeffs.max_bits"] = _metric(tracer.max_bits, "bits")
    metrics["invariants.quotient_monomials"] = _metric(
        int(enumerated + statistics.median([r[2] for r in round_parts])), "count")
    metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "localstd").is_dir():
        print("no localstd sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 1
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r (choose from %s)" % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        return 0
    if args.list:
        for op in workloads.build(args.workload, args.seed):
            print("%s\t%s" % (op.name, op.detail))
        return 0

    setup_samples = []
    tracer = None
    speed = Speed()
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        before = _Counts(tracer)
        with tracer.span("setup"):
            ops = workloads.build(args.workload, args.seed)
        setup_part = _Counts(tracer).minus(before)
    else:
        for _ in range(SETUP_PROBES):
            speed.sample()
            setup_samples.append(setup_probe_seconds(args.workload, args.seed))
        speed.sample()
        ops = workloads.build(args.workload, args.seed)

    times = [[] for _ in ops]
    seen = [dict() for _ in ops]
    rounds, round_walls = [], []
    overhead = None
    round_parts = []
    if tracer is not None:
        # one untraced round gives the base the tracing overhead is taken against
        tracer.uninstall()
        t0 = time.perf_counter()
        rounds.append(run_round(ops, workloads.run_op, workloads.signature, seen,
                                    [[] for _ in ops], speed))
        untraced = time.perf_counter() - t0
        tracer.install()
    start = time.perf_counter()
    while True:
        if tracer is not None:
            before = _Counts(tracer)
            t0 = time.perf_counter()
            with tracer.span("round"):
                rounds.append(run_round(ops, workloads.run_op, workloads.signature, seen, times, speed))
            round_walls.append(time.perf_counter() - t0)
            round_parts.append(_Counts(tracer).minus(before))
            tracer.keep_spans = False
        else:
            n = len(times[0]) if ops else 0
            rounds.append(run_round(ops, workloads.run_op, workloads.signature, seen, times, speed))
            round_walls.append(sum(t[n] for t in times))
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        overhead = statistics.median(round_walls) / untraced

    failed, failures = check_rounds(ops, seen, rounds)
    unexpected = sorted(set(failures) - workloads.KNOWN_FAULTS.get(args.workload, set()))
    for name in sorted(failures):
        print("FAILED %s: %s" % (name, failures[name]), file=sys.stderr)
    if tracer is not None:
        metrics = per_layer(tracer, setup_part, round_parts, overhead)
    else:
        speed.sample()
        metrics = end_to_end(times, round_walls, setup_samples, peak_rss_mb, speed.scale())
    result = {"correct": not unexpected, "attempted": len(ops) * len(rounds),
              "failed": failed, "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if tracer is not None:
        tracer.dump(str(OUT_DIR / ("trace-%s.json" % tag)),
                    {"workload": args.workload, "seed": args.seed, "rounds": len(round_walls)})
    with open(OUT_DIR / ("result-%s.json" % tag), "w") as fh:
        json.dump(dict(result, rounds=len(rounds), unexpected_failures=unexpected,
                       failures=failures, reference_samples_s=speed.samples,
                       measured={"wall_s": statistics.median(round_walls),
                                 "setup_s": statistics.median(setup_samples) if setup_samples else None},
                       item_median_s={op.name: statistics.median(t)
                                      for op, t in zip(ops, times) if t}),
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
