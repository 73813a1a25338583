"""The benchmark's tracer wraps named functions and methods of localstd
(``perfbench/tracing.py``, ``BOUNDARIES``); a traced name that is removed or
renamed makes ``install()`` fail, so every ``--trace 1`` run would crash."""

from __future__ import annotations

from pathlib import Path

from fractions import Fraction

from localstd import (SingularityClass, VarCtx, engines, milnor_local, parse_poly,
                      special_adjacency_family, stratum_catalog, tyurina_local,
                      verify_stratum)

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
    # the engines still go through the traced methods, cache and compiled key
    assert calls["poly.leading_term"] >= 1
    assert calls["orders.classify"] >= 1
    assert not hasattr(engines._weak_nf, "__wrapped__")


def test_tracer_sees_the_parser_on_the_strata_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    e6 = SingularityClass.parse("E6")
    stratum = {s.name: s for s in stratum_catalog(e6)}["V0^2"]
    witness = {"v3": Fraction(2, 3), "v4": Fraction(1, 5)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verify_stratum(e6, stratum, witness).ok
    finally:
        tracer.uninstall()
    calls = {name: c for name, (c, _, _) in tracer.snapshot().items()}
    assert calls["singularities.eval_param_expr"] >= 1
    assert calls["parser.parse"] > calls["singularities.eval_param_expr"]


def test_tracer_over_a_parametric_family(monkeypatch):
    # The tracer reads Q(t) coefficients through their numer, denom and
    # coeffs(); a traced run over Q(t) gives the untraced answer.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    f = special_adjacency_family("a7-from-e8")
    untraced = tyurina_local(f).to_json_dict()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = tyurina_local(f).to_json_dict()
        f.scale(f.ctx.field.from_fraction(Fraction(6, 35))).primitive()
    finally:
        tracer.uninstall()
    assert traced == untraced
    calls = {name: c for name, (c, _, _) in tracer.snapshot().items()}
    assert calls["engines.completion"] >= 1 and calls["poly.primitive"] == 1
    assert tracer.max_bits == tracing._coeff_bits(f) > 0
