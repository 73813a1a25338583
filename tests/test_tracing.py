"""The benchmark's tracer wraps named functions and methods of localstd
(``perfbench/tracing.py``, ``BOUNDARIES``); a traced name that is removed or
renamed makes ``install()`` fail, so every ``--trace 1`` run would crash."""

from __future__ import annotations

from pathlib import Path

from localstd import VarCtx, engines, milnor_local, parse_poly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_over_every_boundary_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    f = parse_poly("x^3+y^4+x*y^2", VarCtx(["x", "y"]))
    untraced = milnor_local(f).to_json_dict()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = milnor_local(f).to_json_dict()
    finally:
        tracer.uninstall()
    assert traced == untraced
    calls = {name: c for name, (c, _, _) in tracer.snapshot().items()}
    assert calls["engines.completion"] == 1
    assert calls["engines.weak_nf"] >= 1
    assert not hasattr(engines._weak_nf, "__wrapped__")
