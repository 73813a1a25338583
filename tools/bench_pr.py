"""Before/after benchmark of a change: ``perfbench/run.py`` on every workload,
for a parent commit and for this checkout, in ten alternating pairs per seed.

    python3 tools/bench_pr.py --parent HEAD~1 --out BENCH_7.json --seeds 1

The parent is exported with ``git archive`` into a temporary directory.  Each
pair runs both versions back to back, the one going first alternating from
pair to pair, so that drift in machine speed falls on both alike.  Every
run lasts ``run_seconds`` of BENCHMARK.json and covers its workloads; ten
pairs is the fewest on which a claimed gain can win nine.  The output file
holds, per workload, the median and quartiles of every end-to-end metric
named in BENCHMARK.json for each version, how many pairs the change won on
each, and the failed share of operations.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--seeds", default="1", help="comma-separated workload seeds")
    return ap.parse_args(argv)


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path):
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest)


def run_once(checkout: Path, command, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line a benchmark run prints last."""
    cmd = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s failed in %s:\n%s" % (" ".join(cmd), checkout, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs, metrics) -> dict:
    """runs: [(parent result, change result)] of one workload."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        before = [p["metrics"][name]["value"] for p, _ in runs]
        after = [c["metrics"][name]["value"] for _, c in runs]
        wins = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "parent": spread(before), "change": spread(after),
                     "change_wins": wins, "pairs": len(runs)}
    failed = {}
    for side, k in (("parent", 0), ("change", 1)):
        failed[side] = {"failed": [r[k]["failed"] for r in runs],
                        "attempted": [r[k]["attempted"] for r in runs],
                        "correct": all(r[k]["correct"] for r in runs)}
    return {"metrics": out, "failures": failed}


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    parent_rev = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        export(parent_rev, parent)
        result = {}
        for workload in workloads:
            runs = []
            for seed in seeds:
                for i in range(PAIRS):
                    sides = [(parent, 0), (ROOT, 1)]
                    if i % 2:
                        sides.reverse()
                    pair = [None, None]
                    for checkout, k in sides:
                        pair[k] = run_once(checkout, bench["command"], workload, seed, seconds)
                    runs.append(tuple(pair))
                    print("%s seed %d pair %d: wall_s %.3f -> %.3f" % (
                        workload, seed, i + 1, pair[0]["metrics"]["wall_s"]["value"],
                        pair[1]["metrics"]["wall_s"]["value"]), file=sys.stderr)
            result[workload] = summarize(runs, bench["end_to_end"])
    meta = {"parent": parent_rev, "change": git("rev-parse", "HEAD"),
            "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
            "seeds": seeds, "pairs_per_seed": PAIRS, "run_seconds": seconds,
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                        "processor": platform.machine()},
            "units": "times in reference seconds (perfbench/run.py, REFERENCE_S)"}
    with open(args.out, "w") as fh:
        json.dump({"meta": meta, "workloads": result}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
