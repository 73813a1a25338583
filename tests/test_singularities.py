"""A/D/E toolkit: normal forms, weights, corank, classification, versal
families, stratification catalogs, adjacency families."""

import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localstd import (CoeffField, Monomial, Poly, SingularityClass, VarCtx,
                      WeightVector, ade_normal_form, adjacency_target,
                      build_versal_family, classify_simple, hessian_corank,
                      milnor_local, milnor_orlik, neg_grevlex, neg_lex,
                      parse_poly, sample_witness, special_adjacency_family,
                      stratum_catalog, tyurina_local, verify_stratum,
                      weight_vector)
from localstd.singularities import _hessian_kernel


def P(src, variables="x,y", params=""):
    ctx = VarCtx([v for v in variables.split(",") if v],
                 [p for p in params.split(",") if p])
    return parse_poly(src, ctx)


def C(name):
    return SingularityClass.parse(name)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def test_normal_form_examples():
    assert ade_normal_form(C("E6"), 4) == P("x^2 + y^3 + z^4 + t^2", "x,y,z,t")
    assert ade_normal_form(C("A1"), 2) == P("y^2 + z^2", "y,z")
    assert ade_normal_form(C("D5"), 2) == P("y^2*z + z^4", "y,z")
    assert ade_normal_form(C("E7"), 3) == P("x^2 + y^3 + y*z^3", "x,y,z")


def test_normal_form_of_five_variables_names_x1_x2_x3_y_z():
    f = ade_normal_form(C("A2"), 5)
    assert f.ctx.variables == ("x1", "x2", "x3", "y", "z")
    assert f == P("y^2 + z^3 + x1^2 + x2^2 + x3^2", "x1,x2,x3,y,z")


def test_class_validation():
    with pytest.raises(ValueError):
        SingularityClass("D", 3)
    with pytest.raises(ValueError):
        SingularityClass("E", 9)
    with pytest.raises(ValueError):
        SingularityClass("B", 2)


def test_class_parse_takes_a_letter_and_decimal_digits():
    assert C(" e6 ") == SingularityClass("E", 6)
    for text in ("Ax", "A+1", "A 1", "A1_0"):
        with pytest.raises(ValueError) as err:
            C(text)
        assert str(err.value) == "bad singularity class %r" % text.upper()


# ---------------------------------------------------------------------------
# weights and Milnor-Orlik
# ---------------------------------------------------------------------------

def test_weight_vector_an():
    for n in (1, 2, 5):
        w = weight_vector(P("y^2 + z^%d" % (n + 1), "y,z"))
        assert w.weights == (Fraction(1, 2), Fraction(1, n + 1))


def test_weight_vector_absent_for_cusp_with_mixed_term():
    assert weight_vector(P("x^3 + y^4 + x*y^2")) is None


def test_weight_vector_diagonal():
    w = weight_vector(P("y^3 + z^4", "y,z"))
    assert w.weights == (Fraction(1, 3), Fraction(1, 4))


def test_weight_vector_rank_deficient_support_searches_free_weights():
    assert weight_vector(P("x^2*y^2")).weights == (Fraction(1, 4), Fraction(1, 4))
    assert weight_vector(P("x^2 + y^2*z^2", "x,y,z")).weights == \
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


def test_weight_vector_absent_for_inconsistent_support():
    assert weight_vector(P("x^2 + x^3")) is None


def test_milnor_orlik_values():
    assert milnor_orlik(WeightVector((Fraction(1, 2), Fraction(1, 8)))) == 7
    assert milnor_orlik(WeightVector((Fraction(1, 3), Fraction(1, 4)))) == 6
    n = 9
    w = WeightVector((Fraction(n - 2, 2 * n - 2), Fraction(1, n - 1)))
    assert milnor_orlik(w) == n


def test_milnor_orlik_rejects_weight_one():
    with pytest.raises(ValueError):
        milnor_orlik(WeightVector((Fraction(1), Fraction(1, 2))))


# ---------------------------------------------------------------------------
# corank and classification
# ---------------------------------------------------------------------------

def test_corank_examples():
    assert hessian_corank(P("y^2 + z^2", "y,z")) == 0
    assert hessian_corank(P("x^3 + y^4 + x*y^2")) == 2
    # generic parametric Hessian has full rank: det = 4*v1*v2 - v0^2
    ctx = VarCtx(["Y", "Z"], ["v0", "v1", "v2", "v3", "v4"])
    FL = parse_poly("Y^2*Z + Z^5 + v0*Y*Z + v1*Y^2 + v2*Z^2 + v3*Z^3 + v4*Z^4", ctx)
    assert hessian_corank(FL) == 0


def test_classify_examples():
    assert classify_simple(P("y^2 + z^8", "y,z")) == C("A7")
    assert classify_simple(P("y^2*z + z^5", "y,z")) == C("D6")
    assert classify_simple(P("y^3 + z^5", "y,z")) == C("E8")


def test_classify_non_simple_germs():
    assert classify_simple(P("x^4 + y^4")) is None           # zero residual cubic
    assert classify_simple(P("y^3 + z^7", "y,z")) is None    # a cube, mu = 12
    assert classify_simple(P("x^3 + y^3 + z^3", "x,y,z")) is None  # corank 3


def test_classify_kernels_off_the_axes():
    assert classify_simple(P("x^2*y + y^4 + x^5")) == C("D5")
    assert classify_simple(P("(x+y)^3 + (x-y)^5")) == C("E8")
    assert classify_simple(P("x^2 + 2*x*y + y^2 + y^3")) == C("A2")


def test_classify_rejects_noncritical_origin():
    with pytest.raises(ValueError):
        classify_simple(P("x + y^2"))


def test_classify_rejects_a_germ_off_the_hypersurface():
    # 1 + x^2 + y^3 has mu = 2 but tau = 0: the origin is not on its zero set
    with pytest.raises(ValueError, match="the polynomial does not vanish at the origin"):
        classify_simple(P("1 + x^2 + y^3"))


def test_classify_round_trip_up_to_index_10():
    classes = [C("A%d" % n) for n in range(1, 11)] + \
        [C("D%d" % n) for n in range(4, 11)] + \
        [C("E6"), C("E7"), C("E8")]
    for cls in classes:
        f = ade_normal_form(cls, 2)
        assert classify_simple(f) == cls, cls


def _from_hessian(ctx, H):
    """The quadratic form whose Hessian is the rational matrix H."""
    n = len(H)
    return Poly(ctx, {Monomial.var(i, n).mul(Monomial.var(j, n)):
                      ctx.field.from_fraction(H[i][j] / 2 if i == j else H[i][j])
                      for i in range(n) for j in range(i, n) if H[i][j]})


_SMALL = st.sampled_from([Fraction(0)] * 4 + [Fraction(q) for q in
                                              (1, -1, 2, -3, "1/2", "-2/3")])


@st.composite
def hessians(draw):
    """A symmetric rational n x n matrix, 1 <= n <= 4: either 2*sum c*L*L^T
    over k <= n random linear forms L (rank at most k, kernels off the axes)
    or sparse random entries."""
    n = draw(st.integers(1, 4))
    H = [[Fraction(0)] * n for _ in range(n)]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(0, n))):
            L = draw(st.lists(_SMALL, min_size=n, max_size=n))
            c = draw(_SMALL.filter(bool))
            for i in range(n):
                for j in range(n):
                    H[i][j] += 2 * c * L[i] * L[j]
    else:
        for i in range(n):
            for j in range(i, n):
                H[i][j] = H[j][i] = draw(_SMALL)
    return H


@settings(max_examples=200, deadline=None)
@given(hessians())
def test_hessian_kernel_is_a_kernel_of_the_right_size(checks, H):
    n = len(H)
    ctx = VarCtx(["x%d" % i for i in range(n)])
    f = _from_hessian(ctx, H)
    kernel = [[ctx.field.as_fraction(c) for c in v] for v in _hessian_kernel(f)]
    for v in kernel:
        assert any(v)
        assert all(sum(h * x for h, x in zip(row, v)) == 0 for row in H)
    pol = {m: ctx.field.as_fraction(c) for m, c in f.items()}
    assert len(kernel) == checks.hessian_corank(pol, n)


def _det(M):
    """Determinant by expansion along the first row."""
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)) if M[0][j])


_ADE = [C("A%d" % k) for k in range(1, 9)] + \
    [C("D%d" % k) for k in range(4, 9)] + [C("E6"), C("E7"), C("E8")]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_ADE), st.integers(2, 4), st.data())
def test_class_and_corank_survive_linear_coordinate_changes(checks, cls, dim, data):
    # old variable i becomes sum_j T[i][j] * new variable j, with T invertible
    f = ade_normal_form(cls, dim)
    ctx = f.ctx
    T = [data.draw(st.lists(_SMALL, min_size=dim, max_size=dim))
         for _ in range(dim)]
    assume(_det(T) != 0)
    g = f.substitute({
        old: sum((ctx.variable(new).scale(ctx.field.from_fraction(T[i][j]))
                  for j, new in enumerate(ctx.variables) if T[i][j]), ctx.zero())
        for i, old in enumerate(ctx.variables)})
    assert hessian_corank(g) == hessian_corank(f) == checks.corank_of_class(cls.name)
    assert classify_simple(g, mu=cls.index) == cls


def test_suspension_invariance_of_mu_tau():
    for cls in [C("A4"), C("D5"), C("E7")]:
        vals = set()
        for dim in (2, 3, 4):
            f = ade_normal_form(cls, dim)
            vals.add((milnor_local(f).dimension, tyurina_local(f).dimension))
        assert len(vals) == 1
        assert vals.pop() == (cls.index, cls.index)


def test_saito_direction_on_weighted_homogeneous_samples():
    rng = random.Random(11)
    ctx = VarCtx(["y", "z"])
    hits = 0
    while hits < 6:
        a = rng.randint(2, 5)
        b = rng.randint(2, 5)
        f = parse_poly("y^%d + z^%d" % (a, b), ctx)
        if rng.random() < 0.5:
            # add a random monomial of the same weight if one exists
            w = weight_vector(f).weights
            extra = [Monomial((i, j)) for i in range(8) for j in range(8)
                     if w[0] * i + w[1] * j == 1 and (i, j) not in ((a, 0), (0, b))]
            if extra:
                m = rng.choice(extra)
                f = f + Poly(ctx, {m: ctx.field.from_fraction(rng.randint(1, 3))})
        if weight_vector(f) is None:
            continue
        try:
            mu = milnor_local(f).dimension
        except Exception:
            continue
        assert tyurina_local(f).dimension == mu
        hits += 1


# ---------------------------------------------------------------------------
# versal deformation
# ---------------------------------------------------------------------------

def test_versal_family_a7():
    f = P("y^2 + z^8", "y,z")
    fam = build_versal_family(f)
    assert fam.tyurina_number == 7
    assert [m.to_str(("y", "z")) for m in fam.monomials] == \
        ["1", "z", "z^2", "z^3", "z^4", "z^5", "z^6"]
    assert fam.parameters == tuple("lam%d" % i for i in range(7))
    # substituting all parameters to zero recovers the base polynomial
    zeros = {p: Fraction(0) for p in fam.parameters}
    assert fam.family.specialize_params(zeros) == f


def test_versal_family_e6_basis():
    fam = build_versal_family(P("y^3 + z^4", "y,z"))
    assert {m.to_str(("y", "z")) for m in fam.monomials} == \
        {"y*z^2", "z^2", "y*z", "z", "y", "1"}
    assert fam.tyurina_number == 6


def test_versal_family_monomials_descend_under_the_order():
    # ascending degree under neg_grevlex only; 1 comes first under both
    f = P("x^3 + y^4")
    for order, want in [(neg_grevlex(), ["1", "y", "x", "y^2", "x*y", "x*y^2"]),
                        (neg_lex(), ["1", "y", "y^2", "x", "x*y", "x*y^2"])]:
        fam = build_versal_family(f, order)
        assert [m.to_str(("x", "y")) for m in fam.monomials] == want


def test_versal_family_smooth_is_empty():
    fam = build_versal_family(P("y", "y,z"))
    assert fam.tyurina_number == 0
    assert fam.family == P("y", "y,z")


def test_versal_family_parameter_names_avoid_the_context():
    fam = build_versal_family(P("x^3 + lam0*y^2 + y^2", "x,y", "lam0"))
    assert fam.parameters == ("lam0_", "lam1")


# ---------------------------------------------------------------------------
# stratification catalogs
# ---------------------------------------------------------------------------

def test_catalog_equations_match_published_forms():
    d6 = {s.name: s for s in stratum_catalog(C("D6"))}
    assert "v0^2 - 4*v1*v2" in d6["W2"].equations
    e6 = {s.name: s for s in stratum_catalog(C("E6"))}
    assert "v1^3*v4^2 - v2*(v1*v3 + v2)^2" in e6["W2^3"].equations
    assert "4*v3^3 + 27*v4^2" in e6["V&V0^2"].equations
    assert "v1*v3 + 3*v2" not in e6["W&V0&V2&V4"].equations  # stored resolved
    e7 = {s.name: s for s in stratum_catalog(C("E7"))}
    assert any("16*v1^5*v2" in eq for eq in e7["W2~4"].equations)
    assert e7["W2~4"].flagged_variants  # the printed variant is retained
    assert "16*v1^5 - 729*v2^3" in e7["W2~6"].equations
    e8 = {s.name: s for s in stratum_catalog(C("E8"))}
    assert "256*v2 - v1*v5^4" in e8["W2~7"].equations


def test_an_catalog_chain():
    cat = stratum_catalog(C("A7"))
    assert [s.expected.name for s in cat] == \
        ["A%d" % m for m in range(1, 8)]
    rng = random.Random(5)
    for s in cat:
        rec = verify_stratum(C("A7"), s, sample_witness(s, rng))
        assert rec.ok and rec.equations_checked


def test_verify_stratum_d6_d4_example():
    cat = {s.name: s for s in stratum_catalog(C("D6"))}
    rec = verify_stratum(C("D6"), cat["V0^2"],
                         {"v3": Fraction(2, 3), "v4": Fraction(1, 5)})
    assert (rec.mu, rec.tau, rec.corank) == (4, 4, 2)
    assert rec.classified == C("D4") and rec.ok


def test_verify_stratum_e6_v1_zero_branch_collapses_to_d4():
    # specializing the A3 family at v1 -> 0 lands in the D4 stratum
    cat = {s.name: s for s in stratum_catalog(C("E6"))}
    f = cat["W2^3"].family({"v1": Fraction(0), "u": Fraction(1, 2),
                            "v3": Fraction(1)})
    assert milnor_local(f).dimension == 4
    assert tyurina_local(f).dimension == 4


def test_verify_stratum_e8_a7_witness():
    cat = {s.name: s for s in stratum_catalog(C("E8"))}
    rec = verify_stratum(C("E8"), cat["W2~7"], {"c": Fraction(1)})
    assert (rec.mu, rec.tau) == (7, 7)
    assert rec.classified == C("A7") and rec.ok


def test_verify_stratum_rejects_bad_witness():
    cat = {s.name: s for s in stratum_catalog(C("E6"))}
    with pytest.raises(ValueError):
        verify_stratum(C("E6"), cat["V&V0^2"], {"a": Fraction(0)})
    with pytest.raises(ValueError):
        verify_stratum(C("E6"), cat["V&V0^2"], {})


def test_sample_witness_gives_up_on_a_side_condition_that_always_vanishes():
    s = dataclasses.replace(stratum_catalog(C("E6"))[0], side_conditions=("0",))
    with pytest.raises(RuntimeError, match="no nondegenerate witness found for %s$" % re.escape(s.name)):
        sample_witness(s, random.Random(1))


def test_strata_path_builds_no_parametric_field(monkeypatch):
    # witnesses are rational points, so checking a stratum never needs Q(params)
    built = []
    init = CoeffField.__init__

    def spy(self, params):
        built.append(tuple(params))
        init(self, params)

    monkeypatch.setattr(CoeffField, "__init__", spy)
    rng = random.Random(3)
    for s in stratum_catalog(C("E6")):
        assert verify_stratum(C("E6"), s, sample_witness(s, rng)).ok
    assert all(params == () for params in built)


def test_d6_a5_stratum_uses_rational_avatar():
    cat = {s.name: s for s in stratum_catalog(C("D6"))}
    s = cat["W2^5"]
    assert "rational" in s.notes
    rec = verify_stratum(C("D6"), s, {"v1": Fraction(1, 2)})
    assert rec.ok and rec.mu == 5 and rec.classified == C("A5")
    assert not rec.equations_checked  # no rational point on the stratum


_CATALOG_CLASSES = (["A%d" % n for n in range(1, 9)] + ["D%d" % n for n in range(4, 10)]
                    + ["E6", "E7", "E8"])


def _at_v_point(eq: str, s):
    """eq at the stratum's v_point, in Q(witness params).  The coordinates
    are the variables of their own context, since witness parameters reuse
    coordinate names (E6 W2 has v3)."""
    ctx = VarCtx(("Y", "Z"), s.witness_params)
    field = ctx.field
    point = [parse_poly(src, ctx).constant_coeff() for _, src in s.v_point]
    value = field.zero
    for m, c in parse_poly(eq, VarCtx([v for v, _ in s.v_point])).items():
        term = field.from_fraction(c)
        for x, e in zip(point, m):
            term = term * x ** e
        value = value + term
    return value


def test_equations_vanish_on_whole_witness_families():
    for name in _CATALOG_CLASSES:
        for s in stratum_catalog(C(name)):
            if s.v_point:
                for eq in s.equations:
                    assert not _at_v_point(eq, s), (name, s.name, eq)
                for eq in s.flagged_variants:
                    assert _at_v_point(eq, s), (name, s.name, eq)


def test_simple_strata_have_their_mu_and_tau_on_whole_witness_families():
    # Over Q(witness params).  Simple germs are quasi-homogeneous, so tau = mu.
    # E8 W2~5 and W2~6 are left out: their runs take seconds (W2~6 reports
    # a condition of degree 46 in c).
    for name in ("D6", "E6", "E7", "E8"):
        for s in stratum_catalog(C(name)):
            if name == "E8" and s.name in ("W2~5", "W2~6"):
                continue
            f = P(s.family_src, "Y,Z", ",".join(s.witness_params))
            assert milnor_local(f).dimension == s.expected_mu, (name, s.name)
            assert tyurina_local(f).dimension == s.expected_mu, (name, s.name)


def test_v_point_is_empty_only_off_the_unfolding():
    empty = [(name, s.name) for name in _CATALOG_CLASSES
             for s in stratum_catalog(C(name)) if not s.v_point]
    # A1 has no deformation coefficient; D6 W2^5 has base -Z^5
    assert empty == [("A1", "L"), ("D6", "W2^5")]


def test_family_off_the_unfolding_gets_no_coefficients():
    cat = {s.name: s for s in stratum_catalog(C("E6"))}
    off = dataclasses.replace(cat["V0^2"], family_src="Y^3 + 2*Z^4 + v3*Y*Z^2 + v4*Z^3")
    assert off.v_point == ()
    rec = verify_stratum(C("E6"), off, {"v3": Fraction(1), "v4": Fraction(1)})
    assert rec.ok and not rec.equations_checked
    unlinked = dataclasses.replace(cat["V0^2"], generic=None)
    assert unlinked.v_point == ()


def test_v_point_examples():
    e6 = {s.name: s for s in stratum_catalog(C("E6"))}
    ctx = VarCtx(("Y", "Z"), ("u", "v3"))
    written = {"v0": "1/2*(3*u^2 + v3)^2*u", "v1": "1/4*(3*u^2 + v3)^2",
               "v2": "1/4*(3*u^2 + v3)^2*u^2", "v3": "v3", "v4": "u*(v3 + u^2)"}
    assert {v: parse_poly(src, ctx) for v, src in e6["W2^4"].v_point} == \
        {v: parse_poly(src, ctx) for v, src in written.items()}
    e8 = {s.name: s for s in stratum_catalog(C("E8"))}
    assert e8["W2~7"].v_point == (
        ("v0", "-32768*c^14"), ("v1", "1024*c^10"), ("v2", "262144*c^18"),
        ("v3", "-1280*c^8"), ("v4", "16384*c^12"), ("v5", "-16*c^2"),
        ("v6", "320*c^6"))


def _adjacent_below(name):
    """The classes Arnol'd's simple singularities deform to directly."""
    kind, k = name[0], int(name[1:])
    if kind == "A":
        return ["A%d" % (k - 1)] if k > 1 else []
    if kind == "D":
        return ["A3"] if k == 4 else ["D%d" % (k - 1), "A%d" % (k - 1)]
    return {"E6": ["D5", "A5"], "E7": ["E6", "D6", "A6"], "E8": ["E7", "D7", "A7"]}[name]


def _adjacency_closure(name):
    out, todo = set(), _adjacent_below(name)
    while todo:
        x = todo.pop()
        if x not in out:
            out.add(x)
            todo.extend(_adjacent_below(x))
    return out


# (catalog, T, S) with T inside S although S's class is not adjacent to T's:
# each a corank-2 stratum inside an A_k stratum
_OVER_INCLUSIONS = {
    ("E6", "V0^2", "W2^4"),
    *(("E7", t, s) for t, s in [
        ("V0^2", "W2~4"), ("V0^2", "W2~5"), ("V0^2", "W2~5'"), ("V0^2", "W2~6"),
        ("V&V0^2", "W2~5"), ("V&V0^2", "W2~5'"), ("V&V0^2", "W2~6"),
        ("V0^4", "W2~6"), ("V'&V0^2", "W2~6")]),
    *(("E8", t, s) for t, s in [
        ("V0^2", "W2~4"), ("V0^2", "W2~5"), ("V0^2", "W2~6"), ("V0^2", "W2~7"),
        ("V&V0^2", "W2~5"), ("V&V0^2", "W2~6"), ("V&V0^2", "W2~7"),
        ("V0^4", "W2~6"), ("V0^4", "W2~7"), ("V0^4&V6", "W2~7"),
        ("V'&V0^2", "W2~6"), ("V'&V0^2", "W2~7"), ("V''&V0^2", "W2~7")]),
}


def test_inclusion_of_strata_witnesses_adjacency():
    # T lies inside S when every equation of S vanishes at T's v_point
    over = set()
    for name in _CATALOG_CLASSES:
        cat = stratum_catalog(C(name))
        classes = {s.expected.name for s in cat}
        for t in cat:
            if not t.v_point:
                continue
            below = _adjacency_closure(t.expected.name)
            inside = [s for s in cat if not any(_at_v_point(eq, t) for eq in s.equations)]
            for x in below & classes:
                assert any(s.expected.name == x for s in inside), (name, t.name, x)
            over |= {(name, t.name, s.name) for s in inside
                     if s.expected != t.expected and s.expected.name not in below}
    assert over == _OVER_INCLUSIONS


# ---------------------------------------------------------------------------
# adjacency families
# ---------------------------------------------------------------------------

# every fixed kind and a-from-d past the benchmark's n <= 6, where the
# alternating signs of the odd tail show
_ADJACENCY_SOURCES = [
    ("a5-from-e6", None, "z^4 + y^3 + 2*t*y*z^2 + t^2*y^2"),
    ("d5-from-e6", None, "z^4 + y^3 - 3*t^2*y*z^2 - 2*t^3*z^3"),
    ("a6-from-e7", None,
     "y*z^3 + 7*t*z^4 + y^3 - 120*t^2*y*z^2 - 416*t^3*z^3 + 432*t^3*y^2"
     " + 3456*t^4*y*z + 6912*t^5*z^2"),
    ("d6-from-e7", None, "y*z^3 + t*z^4 + y^3 - 3*t^2*y*z^2 - 2*t^3*z^3"),
    ("a7-from-e8", None,
     "z^5 - 4*t*y*z^3 + 5*t^3*z^4 + y^3 - 5*t^4*y*z^2 + 4*t^6*z^3 + t^5*y^2"
     " - 2*t^7*y*z + t^9*z^2"),
    ("d7-from-e8", None,
     "z^5 - 6*t*y*z^3 + 18*t^3*z^4 + y^3 - 27*t^4*y*z^2 + 54*t^6*z^3"),
    ("a-from-d", 4, "y^2*z - z^3 - t*y^2 + 2*t*y*z - t*z^2"),
    ("a-from-d", 5, "z^4 + y^2*z - t^2*z^3 + t^2*y^2 + 2*t^3*y*z + t^4*z^2"),
    ("a-from-d", 6,
     "-z^5 - t*z^4 + y^2*z - t^2*z^3 - t*y^2 + 2*t^2*y*z - t^3*z^2"),
    ("a-from-d", 7,
     "z^6 - t^2*z^5 + t^4*z^4 + y^2*z - t^6*z^3 + t^2*y^2 + 2*t^5*y*z + t^8*z^2"),
    ("a-from-d", 8,
     "-z^7 - t*z^6 - t^2*z^5 - t^3*z^4 + y^2*z - t^4*z^3 - t*y^2 + 2*t^3*y*z"
     " - t^5*z^2"),
    ("a-from-d", 9,
     "z^8 - t^2*z^7 + t^4*z^6 - t^6*z^5 + t^8*z^4 + y^2*z - t^10*z^3 + t^2*y^2"
     " + 2*t^7*y*z + t^12*z^2"),
    ("a-from-d", 10,
     "-z^9 - t*z^8 - t^2*z^7 - t^3*z^6 - t^4*z^5 - t^5*z^4 + y^2*z - t^6*z^3"
     " - t*y^2 + 2*t^4*y*z - t^7*z^2"),
    ("a-from-d", 11,
     "z^10 - t^2*z^9 + t^4*z^8 - t^6*z^7 + t^8*z^6 - t^10*z^5 + t^12*z^4"
     " + y^2*z - t^14*z^3 + t^2*y^2 + 2*t^9*y*z + t^16*z^2"),
]


@pytest.mark.parametrize("kind, n, src", _ADJACENCY_SOURCES,
                         ids=[k if n is None else "%s-%d" % (k, n)
                              for k, n, _ in _ADJACENCY_SOURCES])
def test_adjacency_family_sources(kind, n, src):
    fam = special_adjacency_family(kind, n=n)
    assert fam.ctx == VarCtx(("y", "z"), ("t",))
    assert fam.to_str() == src


def test_adjacency_t_zero_recovers_base_form():
    for kind, base in [("a5-from-e6", "y^3 + z^4"),
                       ("d6-from-e7", "y^3 + y*z^3"),
                       ("a7-from-e8", "y^3 + z^5")]:
        fam = special_adjacency_family(kind)
        assert fam.specialize_params({"t": 0}) == P(base, "y,z")


def test_adjacency_targets():
    assert adjacency_target("a-from-d", 8) == C("A7")
    assert adjacency_target("d7-from-e8") == C("D7")


def test_adjacency_classification_samples():
    for kind, n in [("a-from-d", 5), ("a-from-d", 6), ("a6-from-e7", None)]:
        fam = special_adjacency_family(kind, n=n)
        target = adjacency_target(kind, n=n)
        for tv in (Fraction(1), Fraction(-2), Fraction(1, 3)):
            f = fam.specialize_params({"t": tv})
            mu = milnor_local(f).dimension
            assert mu == target.index
            assert classify_simple(f, mu=mu) == target


def test_adjacency_unknown_kind():
    # both functions reject the same inputs
    for kind, n in [("a9-from-e9", None), ("a-from-d", None), ("a-from-d", 3),
                    ("a5-from-e6", 9)]:
        with pytest.raises(ValueError):
            special_adjacency_family(kind, n=n)
        with pytest.raises(ValueError):
            adjacency_target(kind, n=n)
    with pytest.raises(ValueError, match="need at least two variables"):
        ade_normal_form(C("A1"), 1)
