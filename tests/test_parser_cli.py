"""Expression parser and command-line interface."""

import argparse
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localstd
from localstd import (ParseError, UndeclaredSymbolError, VarCtx, cli, coeffs,
                      grevlex, neg_grevlex, parse_poly)
from localstd.cli import _build_argparser, main


def P(src, variables="x,y", params=""):
    ctx = VarCtx([v for v in variables.split(",") if v],
                 [p for p in params.split(",") if p])
    return parse_poly(src, ctx)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def test_parse_greuel_input():
    f = P("x^5+y^5+x^2*y^2")
    assert f.total_degree() == 5 and len(f) == 3


def test_parse_empty_is_error():
    with pytest.raises(ParseError):
        P("")
    with pytest.raises(ParseError):
        P("   ")


def test_parse_rational_prefactor():
    assert P("(1/2 + 1/3*x)*x^2", "x") == P("1/2*x^2 + 1/3*x^3", "x")


def test_parse_undeclared_symbol():
    with pytest.raises(UndeclaredSymbolError):
        P("x + q")


def test_parse_rejects_negative_and_symbolic_exponents():
    with pytest.raises(ParseError):
        P("x^-2")
    with pytest.raises(ParseError):
        P("x^y")


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        P("2x")


def test_parse_unary_minus_binds_below_power():
    assert P("-x^2", "x") == P("0 - x^2", "x")
    for src, want in [("--x", "x"), ("+x", "x"), ("+-x", "0 - x"),
                      ("x*-y", "0 - x*y"), ("-(x + y)^2", "0 - (x + y)^2")]:
        assert P(src) == P(want), src


def test_parse_reports_column():
    with pytest.raises(ParseError) as err:
        P("x + ?")
    assert "column 5" in str(err.value)
    for src, message in [
            ("(x", "expected ), found 'end of input' (column 3)"),
            ("x^2^3", "chained exponent; use parentheses (column 4)"),
            ("1/0", "zero denominator (column 3)"),
            ("-", "unexpected 'end of input' (column 2)"),
            # str.isdigit holds for superscripts, which int() rejects
            ("x^\u00b2", "unexpected character '\u00b2' (column 3)")]:
        with pytest.raises(ParseError) as err:
            P(src)
        assert str(err.value) == message


def test_parse_reads_every_decimal_digit():
    # int() reads the decimal digits of every script
    assert P("x^\u0663") == P("x^3")


def test_print_parse_round_trip():
    corpus = [
        ("x^5+y^5+x^2*y^2", "x,y", ""),
        ("x^3 + y^4 + x*y^2 + t*x^2", "x,y", "t"),
        ("(1 - 4*t)*y^3 + 3*y*x^2", "x,y", "t"),
        ("y^2*z + z^5 + v0*y*z + v1*y^2 + v2*z^2", "y,z", "v0,v1,v2"),
        ("-x + 1/2", "x", ""),
        ("2*t*x + y^2 + 3*x^2", "x,y", "t"),
    ]
    for src, variables, params in corpus:
        p = P(src, variables, params)
        for order in (grevlex(), neg_grevlex()):
            assert P(p.to_str(order), variables, params) == p


_QT = VarCtx(["x", "y"], ["t"])
_T = _QT.field.param("t")


@pytest.mark.parametrize("value, want", [
    (P("x*y - y"), "x*y - y"),
    (P("1/2*x - 1"), "1/2*x - 1"),
    (P("(1 - 4*t)*y^3 + 3*x", "x,y", "t"), "(-4*t + 1)*y^3 + 3*x"),
    (P("-(t + 1)*x", "x,y", "t"), "(-t - 1)*x"),
    (P("x - t*y + t - 1", "x,y", "t"), "x - t*y + (t - 1)"),
    (P("x", "x,y", "t").scale(1 / (_T + 1)), "((1)/(t + 1))*x"),
    (P("x", "x,y", "t").scale(1 / _T), "(1)/(t)*x"),
    (P("x", "x,y", "t").scale(-1 / _T), "((-1)/(t))*x"),
    (_T * _T - _T + Fraction(1, 2), "t^2 - t + 1/2"),
    (_T * Fraction(-3, 2), "-3/2*t"),
    ((_T - 1) / (_T + 1), "(t - 1)/(t + 1)"),
], ids=["one-and-minus-one", "rational", "compound", "negative-compound",
        "compound-constant", "quotient-of-sum", "quotient", "signed-quotient",
        "field-sum", "field-rational", "field-quotient"])
def test_terms_print_their_coefficients(value, want):
    # the spelling coeffs.term_str gives both printers
    got = _QT.field.to_str(value) if isinstance(value, coeffs._Frac) else value.to_str()
    assert got == want


def test_parse_bound_name_is_its_constant():
    ctx = VarCtx(["x"])
    assert parse_poly("2*t + 1", ctx, {"t": Fraction(1, 3)}) == ctx.constant(Fraction(5, 3))
    assert parse_poly("t*x^2", ctx, {"t": 0}) == ctx.zero()


def test_parse_bound_names_mix_with_parameters():
    ctx = VarCtx(["x", "y"], ["s"])
    got = parse_poly("t*x^2 + s*y + t*s", ctx, {"t": Fraction(-2)})
    assert got == parse_poly("-2*x^2 + s*y - 2*s", ctx)


def test_parse_bound_name_must_not_be_a_variable():
    with pytest.raises(ValueError, match="variables of the context"):
        parse_poly("x + t", VarCtx(["x", "y"]), {"x": Fraction(1), "t": Fraction(2)})


def test_parse_undeclared_symbol_column_with_bound_names():
    ctx = VarCtx(["x"])
    with pytest.raises(UndeclaredSymbolError) as plain:
        parse_poly("x + q", ctx)
    with pytest.raises(UndeclaredSymbolError) as bound:
        parse_poly("t + q", ctx, {"t": Fraction(1)})
    assert plain.value.pos == bound.value.pos == 4
    assert "column 5" in str(bound.value)


_LEAVES = st.sampled_from(["x", "y", "t", "s", "2", "1/3", "-5/2"])


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*"]), children).map(
            lambda t: "(%s %s %s)" % t),
        st.tuples(children, st.integers(0, 3)).map(lambda t: "(%s)^%d" % t),
        children.map(lambda c: "-(%s)" % c),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _combine, max_leaves=8)
_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@settings(max_examples=80, deadline=None)
@given(_EXPRESSIONS, st.dictionaries(st.sampled_from(["t", "s"]), _RATIONALS))
def test_parse_at_a_point_equals_parse_then_specialize(src, point):
    variables = ("x", "y")
    free = tuple(p for p in ("t", "s") if p not in point)
    reference = parse_poly(src, VarCtx(variables, ("t", "s"))).specialize_params(point)
    assert parse_poly(src, VarCtx(variables, free), point) == reference


# ---------------------------------------------------------------------------
# CLI: results and exit codes
# ---------------------------------------------------------------------------

def test_cli_milnor_number(capsys):
    rc = main(["milnor", "--vars", "x,y", "x^5+y^5+x^2*y^2"])
    assert rc == 0
    assert "dimension: 11" in capsys.readouterr().out


def test_cli_non_isolated_exit_4(capsys):
    rc = main(["poly-milnor", "--vars", "x,y,z", "x^2*z^2+y^2*z^2+x^2*y^2"])
    assert rc == 4
    assert "non-isolated critical points" in capsys.readouterr().err


def test_cli_parametric_milnor_json(capsys):
    rc = main(["milnor", "--vars", "x,y", "--params", "t", "--json",
               "x^3+y^4+x*y^2+t*x^2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    res = doc["result"]
    assert res["dimension"] == 3
    assert set(res["genericity_assumptions"]) == {"t", "4*t - 1"}
    assert res["quotient_basis"] == ["y^2", "y", "1"]


def test_cli_order_guards_exit_3(capsys):
    assert main(["milnor", "--vars", "x,y", "--order", "grevlex", "x^2+y^2"]) == 3
    assert main(["poly-milnor", "--vars", "x,y", "--order", "neg-grevlex",
                 "x^2+y^2"]) == 3
    assert main(["poly-milnor", "--vars", "x,y", "--order",
                 "weighted:1,-1:lex", "x^2+y^2"]) == 3
    capsys.readouterr()
    # the basis commands name the engine and the class they got
    assert main(["groebner", "--vars", "x,y", "--order", "neg-lex", "x; y"]) == 3
    assert capsys.readouterr().err == "localstd: order error: buchberger " \
        "requires a global monomial order, got a local one\n"
    assert main(["std-basis", "--vars", "x,y", "--order", "weighted:1,-1:lex",
                 "x; y"]) == 3
    assert capsys.readouterr().err == "localstd: order error: standard_basis " \
        "requires a local monomial order, got a mixed one\n"


def test_cli_bad_order_spelling_exit_3(capsys):
    assert main(["milnor", "--vars", "x,y", "--order", "sorcery", "x^2+y^2"]) == 3
    capsys.readouterr()


def test_cli_parse_error_exit_2(capsys):
    assert main(["milnor", "--vars", "x,y", "x^5 + "]) == 2
    assert main(["milnor", "--vars", "x,y", "x + undeclared"]) == 2
    assert main(["parse", "--vars", "x,y", ""]) == 2
    capsys.readouterr()
    assert main(["milnor", "--vars", "x,y", "x^\u00b2+y^3"]) == 2
    assert capsys.readouterr().err == \
        "localstd: parse error: unexpected character '\u00b2' (column 3)\n"
    assert main(["milnor", "--vars", "x,y"]) == 2
    assert capsys.readouterr().err == \
        "localstd: parse error: no polynomial given (positional or --file) (column 1)\n"


def test_cli_budget_exit_5(capsys):
    rc = main(["milnor", "--vars", "x,y", "--step-budget", "1",
               "x^5+y^5+x^2*y^2"])
    assert rc == 5
    capsys.readouterr()


def test_cli_negative_step_budget_exit_1(capsys):
    # a run that takes no step used to ignore the budget and answer
    assert main(["milnor", "--vars", "x,y", "--step-budget", "-1", "x^2+y^3"]) == 1
    assert capsys.readouterr().err == \
        "localstd: error: step budget must be non-negative, got -1\n"


@pytest.mark.parametrize("argv, code, err", [
    (["milnor", "--vars", "x,y", "5"], 1,
     "error: polynomial is constant in every variable"),
    (["milnor", "--vars", "x,y", "--order", "weighted:1,2,3:lex", "x^2+y^3"], 3,
     "order error: weight vector does not fit arity 2"),
    (["parse", "--vars", "1x", "x"], 1, "error: bad symbol name '1x'"),
])
def test_cli_input_checks_name_the_input(argv, code, err, capsys):
    assert main(argv) == code
    assert capsys.readouterr().err == "localstd: %s\n" % err


def test_cli_parse_echo(capsys):
    rc = main(["parse", "--vars", "x,y", "x^2 + -1*y + x^2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2*x^2 - y"


def test_cli_groebner_and_std_basis(capsys):
    rc = main(["groebner", "--vars", "x,y", "x^2 - y; x*y - 1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "leading monomials:" in out
    rc = main(["std-basis", "--vars", "x,y", "x + x^2; y^3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "x" in out and "y^3" in out


def test_cli_default_orders_match_paper(capsys):
    rc = main(["milnor", "--vars", "x,y", "--json", "x^2+y^4"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["result"]["order"] == "neg-grevlex"
    rc = main(["poly-milnor", "--vars", "x,y", "--json", "x^2+y^4"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["result"]["order"] == "grevlex"


def test_cli_fused_accepts_two_orders(capsys):
    rc = main(["tyurina-fused", "--vars", "x,y", "--order", "neg-lex",
               "--order", "lex", "--json", "x^3+y^4+x*y^2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["global_part"]["dimension"] == 4
    assert doc["result"]["local_part"]["dimension"] == 4


_POLY_OPTIONS = {"-h", "--help", "--file", "--vars", "--params", "--json"}
_ORDER_BUDGET = _POLY_OPTIONS | {"--order", "--step-budget"}


def test_cli_option_sets_are_pinned():
    # every option a subcommand accepts is read by its handler
    sub = next(a for a in _build_argparser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {o for a in p._actions for o in a.option_strings}
           for name, p in sub.choices.items()}
    assert got == {
        "parse": _POLY_OPTIONS,
        **{name: _ORDER_BUDGET
           for name in ["groebner", "std-basis", "milnor", "tyurina",
                        "poly-milnor", "poly-tyurina", "milnor-fused",
                        "tyurina-fused"]},
        "classify": _POLY_OPTIONS | {"--step-budget"},
        "deform": _POLY_OPTIONS | {"--order"},
        "milnor-orlik": _POLY_OPTIONS,
        "strata": {"-h", "--help", "--json"},
        "verify-stratum": {"-h", "--help", "--witness", "--seed", "--json"},
        "adjacency": {"-h", "--help", "--n", "--t", "--json"},
    }


@pytest.mark.parametrize("command, flag", [
    ("parse", "--order"), ("parse", "--step-budget"),
    ("milnor-orlik", "--order"), ("milnor-orlik", "--step-budget"),
    ("classify", "--order"), ("deform", "--step-budget"),
    ("verify-stratum", "--step-budget"),
])
def test_cli_unread_flags_are_usage_errors(command, flag, capsys):
    args = (["E8", "W2~5"] if command == "verify-stratum"
            else ["--vars", "y,z", "y^2*z + z^5"])
    with pytest.raises(SystemExit) as exc:
        main([command, *args, flag, "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s 10" % flag in capsys.readouterr().err


def test_cli_too_many_orders_exit_3(capsys):
    assert main(["milnor", "--vars", "x,y", "--order", "neg-lex",
                 "--order", "neg-lex", "x^2+y^2"]) == 3
    assert capsys.readouterr().err == \
        "localstd: order error: too many --order flags (at most 1)\n"


@pytest.mark.parametrize("command", ["milnor", "groebner"])
@pytest.mark.parametrize("orders", [["--order", "bogus"],
                                    ["--order", "lex", "--order", "lex"]])
def test_cli_parse_error_precedes_order_errors(command, orders, capsys):
    # the polynomial is parsed before the --order flags are read
    assert main([command, "--vars", "x,y", *orders, "x^"]) == 2
    assert capsys.readouterr().err == "localstd: parse error: exponent must " \
        "be a non-negative integer literal (column 2)\n"


@pytest.mark.parametrize("command", ["milnor", "groebner"])
def test_cli_context_error_precedes_a_missing_polynomial(command, capsys):
    assert main([command, "--vars", "x,x"]) == 1
    assert capsys.readouterr().err == "localstd: error: variable and " \
        "parameter names must be disjoint and duplicate-free\n"


def test_cli_json_is_deterministic(capsys):
    args = ["milnor", "--vars", "x,y", "--params", "t", "--json",
            "x^3+y^4+x*y^2+t*x^2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_classify(capsys):
    rc = main(["classify", "--vars", "y,z", "y^2*z + z^5"])
    assert rc == 0
    assert "D6" in capsys.readouterr().out


def test_cli_classify_needs_a_germ_that_vanishes_at_the_origin(capsys):
    assert main(["classify", "--vars", "x,y", "1+x^2+y^3"]) == 1
    assert capsys.readouterr().err == \
        "localstd: error: the polynomial does not vanish at the origin\n"


def test_cli_classify_checks_the_germ_before_any_run(capsys):
    # 1 + x^2 has a non-isolated critical locus, but the first fault is that
    # it does not vanish at the origin
    assert main(["classify", "--vars", "x,y", "1+x^2"]) == 1
    assert capsys.readouterr().err == \
        "localstd: error: the polynomial does not vanish at the origin\n"


def test_cli_deform(capsys):
    rc = main(["deform", "--vars", "y,z", "--json", "y^2 + z^4"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["tyurina"] == 3
    assert doc["result"]["monomials"] == ["1", "z", "z^2"]


def test_cli_milnor_orlik(capsys):
    rc = main(["milnor-orlik", "--vars", "y,z", "y^2 + z^8"])
    assert rc == 0
    assert "mu = 7" in capsys.readouterr().out
    rc = main(["milnor-orlik", "--vars", "x,y", "x^3 + y^4 + x*y^2"])
    assert rc == 1
    capsys.readouterr()


def test_cli_milnor_orlik_needs_an_isolated_singularity(capsys):
    # weighted homogeneous but not isolated: the formula would give a finite mu
    for variables, src in [("x,y", "x^2"), ("x,y", "x^2*y^2"), ("x,y,z", "x^2+y^3")]:
        assert main(["milnor-orlik", "--vars", variables, src]) == 4
        assert capsys.readouterr().err == \
            "localstd: the critical point at the origin is not isolated\n"
    assert main(["milnor-orlik", "--vars", "x,y", "x*y"]) == 0
    assert "mu = 1" in capsys.readouterr().out


def test_cli_strata_and_verify(capsys):
    rc = main(["strata", "D6", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    names = [s["name"] for s in doc["result"]]
    assert "W2" in names and "V0^2" in names
    rc = main(["verify-stratum", "E6", "V&V0^2", "--witness", "a=2", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["ok"] is True
    assert doc["result"]["mu"] == 5 and doc["result"]["class"] == "D5"
    rc = main(["verify-stratum", "E6", "W2", "--seed", "3", "--json"])
    assert rc == 0
    capsys.readouterr()


@pytest.mark.parametrize("witness", ["a", "a=2,a=3"])
def test_cli_verify_stratum_rejects_a_bad_witness(witness, capsys):
    # an entry without '=' or a name given twice
    assert main(["verify-stratum", "E6", "V&V0^2", "--witness", witness]) == 1
    err = capsys.readouterr().err
    assert err.startswith("localstd: error: bad witness entry ")
    assert repr(witness.split(",")[-1]) in err


@pytest.mark.parametrize("argv, err", [
    (["verify-stratum", "E6", "V0^2", "--witness", ""],
     "localstd: error: bad witness entry '': want name=value, each name once\n"),
    (["adjacency", "a5-from-e6", "--t", ""],
     "localstd: error: Invalid literal for Fraction: ''\n"),
], ids=["witness", "t"])
def test_cli_empty_flag_value_is_not_absent(argv, err, capsys):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", err)


def test_cli_adjacency_parses_every_t_before_any_run(monkeypatch, capsys):
    def no_run(f):
        raise AssertionError("a standard basis was computed before the check")

    monkeypatch.setattr(cli, "milnor_local", no_run)
    assert main(["adjacency", "a5-from-e6", "--t", "1/2,0,zz"]) == 1
    assert capsys.readouterr() == \
        ("", "localstd: error: Invalid literal for Fraction: 'zz'\n")


def test_cli_adjacency(capsys):
    rc = main(["adjacency", "a7-from-e8", "--t", "1,-1", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["target"] == "A7"
    assert all(chk["class"] == "A7" and chk["mu"] == 7
               for chk in doc["result"]["checks"])


def test_cli_file_input(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text("x^2 + y^3")
    rc = main(["milnor", "--vars", "x,y", "--file", str(path)])
    assert rc == 0
    assert "dimension: 2" in capsys.readouterr().out


def test_cli_unreadable_file_exit_1(tmp_path, capsys):
    rc = main(["milnor", "--vars", "x,y", "--file", str(tmp_path / "missing.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("localstd: error: ")
    assert "missing.txt" in err


def test_cli_arithmetic_failure_exit_1(monkeypatch, capsys):
    # A heuristic gcd that finds no gcd (an ArithmeticError) on a parametric
    # run is reported like any other error, not as a traceback.
    def fail(f, g):
        raise coeffs.HeuristicGCDFailed("no gcd found at 6 evaluation points")

    monkeypatch.setattr(coeffs, "_heugcd", fail)
    rc = main(["poly-tyurina", "--vars", "x,y", "--params", "l1,l2,l3",
               "x^3+y^4+x*y^2+l1*y+l2*x+l3*x^2"])
    assert rc == 1
    assert capsys.readouterr().err == \
        "localstd: error: no gcd found at 6 evaluation points\n"


def test_every_export_resolves_once():
    names = localstd.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(localstd, name), name


@pytest.mark.parametrize("witness, name", [
    ("v3=1,v4=1,Y=2", "Y"),    # a variable of the family
    ("v3=0,v4=0,zz=1", "zz"),  # with a side condition violated as well
])
def test_cli_verify_stratum_names_an_unknown_witness_parameter(witness, name, capsys):
    assert main(["verify-stratum", "E6", "V0^2", "--witness", witness]) == 1
    assert capsys.readouterr().err == "localstd: error: unknown parameter '%s'\n" % name


def test_cli_key_error_message_is_unquoted(capsys):
    rc = main(["verify-stratum", "E6", "W2", "--witness", "v0=1,w1=1,w2=1,v3=1,v4=1"])
    assert rc == 1
    assert capsys.readouterr().err == "localstd: error: unknown parameter 'v0'\n"
