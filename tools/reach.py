"""Lines of ``src/localstd`` that nothing exercises.

    python3 tools/reach.py

Runs, in this interpreter and under a line tracer limited to the files of
``src/localstd``: the tier-1 tests through ``pytest.main`` (Hypothesis seed 1
and no deadlines, so that two runs reach the same lines), seeds 1 and 2 of
every workload in BENCHMARK.json through ``perfbench/workloads.py``, every
``argv`` of the golden CLI files through ``localstd.cli.main`` and every demo
through ``runpy``.  Then prints ``file:line  source`` for every executable
line (from the ``co_lines`` of every code object) that none of them ran, and
a count per file.  An audit, not a gate: failing tests do not stop it.
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import sys
import threading
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "localstd"


def _tracer(ran: set):
    """A trace function adding (file name, line) to ran for each line run
    in a file of PKG."""
    names = {}    # co_filename -> file name under PKG, or None

    def trace(frame, event, arg):
        key = frame.f_code.co_filename
        if key not in names:
            path = Path(key).resolve()
            names[key] = path.name if path.parent == PKG else None
        name = names[key]

        def line(frame, event, arg):
            ran.add((name, frame.f_lineno))
            return line
        return line(frame, event, arg) if name else None
    return trace


def _lines(code) -> set:
    out = {n for _, _, n in code.co_lines() if n}
    for c in code.co_consts:
        if isinstance(c, types.CodeType):
            out |= _lines(c)
    return out


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import pytest
    from hypothesis import HealthCheck, settings
    settings.register_profile("reach", deadline=None,
                              suppress_health_check=list(HealthCheck))
    ran = set()
    trace = _tracer(ran)
    sys.settrace(trace)
    threading.settrace(trace)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                         "--hypothesis-seed=1", "--hypothesis-profile=reach", str(ROOT / "tests")])
            tier1 = out.getvalue().strip().splitlines()[-1]
            import workloads
            from localstd.cli import main as cli
            for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
                for seed in (1, 2):
                    for op in workloads.build(w["name"], seed):
                        workloads.run_op(op)
            for name in ("cli_json.json", "cli_text.json"):
                for case in json.loads((ROOT / "tests" / "golden" / name).read_text()):
                    cli(case["argv"])
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("tier-1:", tier1)
    counts = Counter()
    for path in sorted(PKG.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        for n in sorted(_lines(compile(text, str(path), "exec"))):
            if (path.name, n) not in ran:
                print("%s:%d  %s" % (path.name, n, source[n - 1].strip()))
                counts[path.name] += 1
    for name, k in sorted(counts.items()):
        print("%-18s %d not reached" % (name, k))


if __name__ == "__main__":
    main()
