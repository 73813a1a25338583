"""Answers of this checkout against a parent commit: every operation of every
benchmark workload, compared by ``to_json_dict()`` or by failure kind.

    python3 tools/same_answers.py --parent HEAD~1 --seeds 1,2

The parent is exported with ``git archive`` into a temporary directory.  In
each tree a fresh interpreter builds the operations of every workload named
in BENCHMARK.json with that tree's ``perfbench/workloads.py`` and runs each
once, without timing or checks.  Every operation whose answer differs is
listed with the keys of its answer that differ (``local_part.basis`` for a
key inside a fused report), followed by a count per workload and seed.  Exits
0 when every answer is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pr import ROOT, export, git

TOOLS = Path(__file__).resolve().parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--seeds", default="1", help="comma-separated workload seeds")
    return ap.parse_args(argv)


def dump(workload: str, seed: int):
    """Print [operation name, answer] of one workload as JSON; runs with the
    tree to dump as working directory."""
    sys.path[:0] = ["src", "perfbench"]
    import workloads

    out = []
    for op in workloads.build(workload, seed):
        answer = workloads.run_op(op)
        out.append([op.name, {"failure": answer.kind}
                    if isinstance(answer, workloads.Failure)
                    else answer.to_json_dict()])
    json.dump(out, sys.stdout)


def answers(tree: Path, workload: str, seed: int) -> list:
    code = "import sys; sys.path.insert(0, %r); import same_answers; " \
           "same_answers.dump(%r, %d)" % (str(TOOLS), workload, seed)
    proc = subprocess.run([sys.executable, "-c", code], cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed in %s:\n%s"
                           % (workload, seed, tree, proc.stderr[-2000:]))
    return json.loads(proc.stdout)


def differing_keys(a: dict, b: dict, prefix: str = "") -> list:
    """The keys whose values differ between two answers, descending into
    values that are dicts on both sides."""
    out = []
    for k in sorted(a.keys() | b.keys()):
        x, y = a.get(k), b.get(k)
        if isinstance(x, dict) and isinstance(y, dict):
            out += differing_keys(x, y, prefix + k + ".")
        elif x != y:
            out.append(prefix + k)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")]
    parent_rev = git("rev-parse", args.parent)
    same = True
    with tempfile.TemporaryDirectory(prefix="answers-parent-") as tmp:
        parent = Path(tmp)
        export(parent_rev, parent)
        for w in bench["workloads"]:
            for seed in seeds:
                before = answers(parent, w["name"], seed)
                after = answers(ROOT, w["name"], seed)
                if len(before) != len(after):
                    print("%s seed %d: %d operations at the parent, %d here"
                          % (w["name"], seed, len(before), len(after)))
                    return 1
                differ = 0
                for (name, a), (name_, b) in zip(before, after):
                    if name != name_:
                        print("  %s here in place of %s" % (name_, name))
                    elif a != b:
                        print("  %s: %s" % (name, ", ".join(differing_keys(a, b))))
                    else:
                        continue
                    differ += 1
                print("%s seed %d: %d of %d operations differ"
                      % (w["name"], seed, differ, len(after)))
                same = same and not differ
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
