"""Self-test of the benchmark's answer checks.

Runs a few cheap operations of every workload, confirms that their true
answers pass, then corrupts answers on purpose (a wrong Milnor or Tyurina
number, a dropped genericity assumption, a wrong class, an error in place of
a result) and confirms that the checks, and the failed count of a run, report
exactly the corrupted operations.

    python3 perfbench/selftest.py

Exits 0 when every corruption is caught, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys

import run  # noqa: F401  (puts src/ and this directory on sys.path)
import localstd
import workloads


def corrupt(answer):
    """A wrong answer of the same shape; another error for an expected one."""
    if isinstance(answer, workloads.Failure):
        return workloads.Failure(localstd.StepBudgetExceeded("corrupted"))
    if isinstance(answer, localstd.StratumVerification):
        return dataclasses.replace(answer, tau=answer.tau + 1)
    if isinstance(answer, localstd.FusedReport):
        g = answer.global_part
        return dataclasses.replace(answer, global_part=dataclasses.replace(g, dimension=g.dimension + 1))
    if answer.genericity_assumptions:
        return dataclasses.replace(answer, genericity_assumptions=())
    return dataclasses.replace(answer, dimension=answer.dimension + 1)


def pick(ops, names):
    chosen = [op for op in ops if op.name in names]
    if len(chosen) != len(names):
        raise SystemExit("self-test operations missing: %s" % sorted(set(names) - {o.name for o in chosen}))
    return chosen


CASES = {
    "strata-witness": ["D6/L#0", "E6/V&V0^2#0", "E7/W2~4#1", "E8/W2~7#0"],
    "param-families": ["milnor_local x^3+y^4+x*y^2+l3*x^2",
                       "tyurina_local a5-from-e6",
                       "milnor_fused x^3+y^4+x*y^2+l3*x^2",
                       "milnor_global a-from-d/n=4"],
    "germ-corpus": ["paper/greuel milnor_local", "paper/cusp milnor_fused",
                    "ade/E8/3vars tyurina_local", "paper/cylinder in 3 variables milnor_global"],
}


def main() -> int:
    problems = []
    for workload, names in CASES.items():
        ops = pick(workloads.build(workload, 1), names)
        seen = [{} for _ in ops]
        for i, op in enumerate(ops):
            answer = workloads.run_op(op)
            reason = op.check(answer)
            if reason is not None:
                problems.append("%s: true answer rejected: %s" % (op.name, reason))
            seen[i][workloads.signature(answer)] = (0, answer)
        # round 2 corrupts operation 0, round 3 every other one
        rounds = [[0] * len(ops) for _ in range(3)]
        expected_failed = 0
        for r, targets in ((1, [0]), (2, range(1, len(ops)))):
            for i in targets:
                bad = corrupt(seen[i][next(iter(seen[i]))][1])
                seen[i][workloads.signature(bad)] = (1, bad)
                rounds[r][i] = 1
                expected_failed += 1
                reason = ops[i].check(bad)
                print("%-14s %-48s -> %s" % (workload, ops[i].name, reason or "NOT CAUGHT"))
                if reason is None:
                    problems.append("%s: corrupted answer passed" % ops[i].name)
        failed, _ = run.check_rounds(ops, seen, rounds)
        if failed != expected_failed:
            problems.append("%s: failed count %d, corrupted %d" % (workload, failed, expected_failed))
    for p in problems:
        print("PROBLEM", p)
    print("self-test %s" % ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
