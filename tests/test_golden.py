"""Golden outputs: CLI JSON reports, CLI text output (stdout, stderr and exit
code) and demo transcripts that must stay byte-identical across changes to
the coefficient arithmetic and to the CLI.

The stored files were written by an earlier version of the engines; every
change since must reproduce them exactly.  Regenerate them only for a change
that is meant to alter the output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from localstd import (PolySet, VarCtx, grevlex, parse_poly, s_polynomial,
                      weak_normal_form)
from localstd.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CLI_FILE = GOLDEN / "cli_json.json"
CLI_TEXT_FILE = GOLDEN / "cli_text.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

_Q = "x^4 + 1/4*y^5 - 3/7*x^2*y^2 + 2*x*y^3"
_QT = "x^3 + y^4 + t*x*y^2 + (2*t+1)*y^5"
_QT_CONTENT = "x^4 + (2*t+1)*x^2*y + (2*t+1)*t*y^3 + 1/4*y^5"
_QL = "x^3 + y^3 + l1*x*y + l2*x^2*y + l3*y^4"

CLI_CASES = []
for _cmd in ("milnor", "tyurina", "poly-milnor", "poly-tyurina",
             "milnor-fused", "tyurina-fused"):
    CLI_CASES += [
        [_cmd, "--vars", "x,y", "--json", _Q],
        [_cmd, "--vars", "x,y", "--params", "t", "--json", _QT],
        [_cmd, "--vars", "x,y", "--params", "t", "--json", _QT_CONTENT],
        [_cmd, "--vars", "x,y", "--params", "l1,l2,l3", "--json", _QL],
    ]
CLI_CASES += [
    ["milnor", "--vars", "x,y,z", "--order", "neg-lex", "--json",
     "x^2 + y^3 + 1/4*z^4 + x*y*z"],
    ["tyurina", "--vars", "x,y", "--order", "neg-lex", "--json",
     "x^5 + 1/4*y^5 + x^2*y^2"],
    ["milnor", "--vars", "x,y", "--order", "weighted:-1,-2:neg-lex", "--json",
     "x^4 + y^2 + 1/4*x^3*y"],
    ["poly-tyurina", "--vars", "x,y", "--order", "weighted:1,2:lex", "--json",
     "x^4 + y^3 + 1/4*x^2*y + x"],
    ["groebner", "--vars", "x,y", "--params", "t", "--json",
     "x^2 + (2*t+1)*y; x*y + (2*t+1)*t*y^2"],
    ["std-basis", "--vars", "x,y", "--params", "t", "--json",
     "2*x + t*y^2 + x^2; 3*y^2 + t*x*y + 1/4*y^3"],
    ["verify-stratum", "E8", "W2~6", "--witness", "b=-2/7,c=1/7", "--json"],
    ["parse", "--vars", "x,y", "--params", "t", "--json", _QT_CONTENT],
    ["classify", "--vars", "x,y", "--json", "x^3 + x*y^2 + 1/4*y^5"],
    ["deform", "--vars", "x,y", "--json", "x^3 + y^4 + x*y^2"],
    ["milnor-orlik", "--vars", "x,y,z", "--json", "x^2*y + y^3 + 1/4*z^5"],
    ["strata", "E6", "--json"],
    ["adjacency", "a5-from-e6", "--t", "1,2", "--json"],
]

# Human-mode output (none of these prints a timing) and one failing run per
# exit code, with the stderr line it writes.
CLI_TEXT_CASES = [
    ["strata", "E6"],
    ["verify-stratum", "E6", "W2^3", "--seed", "3"],
    ["adjacency", "a5-from-e6", "--t", "1,2"],
    ["groebner", "--vars", "x,y", "--params", "t",
     "x^2 + (2*t+1)*y; x*y + (2*t+1)*t*y^2"],
    ["parse", "--vars", "x,y", "x + z"],
    ["milnor", "--vars", "x,y", "--order", "grevlex", "x^2 + y^3"],
    ["milnor", "--vars", "x,y", "x^2"],
    ["tyurina", "--vars", "x,y", "--step-budget", "3", "x^3 + y^4 + x*y^2"],
    ["strata", "Q9"],
    ["verify-stratum", "E6", "W9"],
]


def _run_cli(argv, stderr=False):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    run = {"argv": argv, "exit": rc, "stdout": out.getvalue()}
    if stderr:
        run["stderr"] = err.getvalue()
    return run


def _run_demo(path: Path) -> str:
    proc = subprocess.run([sys.executable, str(path)], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return proc.stdout


def _stored(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("index", range(len(CLI_CASES)))
def test_cli_json_matches_golden(index):
    stored = _stored(CLI_FILE)
    assert len(stored) == len(CLI_CASES)
    want = stored[index]
    assert want["argv"] == CLI_CASES[index]
    assert _run_cli(CLI_CASES[index]) == want


def test_fused_golden_entries_are_the_plain_runs():
    # X-fused is poly-X and X run on the same generators
    results = {tuple(run["argv"]): json.loads(run["stdout"])["result"]
               for run in _stored(CLI_FILE)}
    fused = [argv for argv in results if argv[0].endswith("-fused")]
    assert len(fused) == 8
    for argv in fused:
        plain, tail = argv[0][:-len("-fused")], argv[1:]
        assert results[argv] == {
            "global_part": results[("poly-" + plain,) + tail],
            "local_part": results[(plain,) + tail]}


@pytest.mark.parametrize("index", range(len(CLI_TEXT_CASES)))
def test_cli_text_matches_golden(index):
    stored = _stored(CLI_TEXT_FILE)
    assert len(stored) == len(CLI_TEXT_CASES)
    want = stored[index]
    assert want["argv"] == CLI_TEXT_CASES[index]
    assert _run_cli(CLI_TEXT_CASES[index], stderr=True) == want


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_golden(demo):
    want = (GOLDEN / "demos" / (demo.stem + ".out")).read_text(encoding="utf-8")
    assert _run_demo(demo) == want


def test_s_polynomial_divides_out_parametric_content():
    # The content removal divides by the gcd over Z[t], so the factor 2t+1
    # leaves nothing behind: no integer factor 2 survives it.
    ctx = VarCtx(["x", "y"], ["t"])
    f = parse_poly("x^2 + (2*t+1)*y", ctx)
    g = parse_poly("x*y + (2*t+1)*t*y^2", ctx)
    sp = s_polynomial(f, g, grevlex())
    assert sp == parse_poly("t*x*y^2 - y^2", ctx)


def test_parametric_denominator_of_an_input_cancels_the_content_factor():
    # Written over the denominator 2t+1, f makes the field S-polynomial come
    # out as the quotient by 2t+1, whose content removal leaves no factor 2.
    ctx = VarCtx(["x", "y"], ["t"])
    P = lambda src: parse_poly(src, ctx)
    f = P("x^2 + (2*t+1)*y").scale(ctx.field.one / P("2*t + 1").constant_coeff())
    g = P("x*y + (2*t+1)*t*y^2")
    assert s_polynomial(f, g, grevlex()) == P("t*x*y^2 - y^2")
    h = P("x^2*y + (2*t+1)*t*y^3")
    assert weak_normal_form(h, PolySet([f], grevlex())) == P("t*y^3 - y^2")


def _write_golden():
    GOLDEN.mkdir(exist_ok=True)
    with open(CLI_FILE, "w", encoding="utf-8") as fh:
        json.dump([_run_cli(argv) for argv in CLI_CASES], fh, indent=1)
        fh.write("\n")
    with open(CLI_TEXT_FILE, "w", encoding="utf-8") as fh:
        json.dump([_run_cli(argv, stderr=True) for argv in CLI_TEXT_CASES],
                  fh, indent=1)
        fh.write("\n")
    (GOLDEN / "demos").mkdir(exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / "demos" / (demo.stem + ".out")).write_text(
            _run_demo(demo), encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
