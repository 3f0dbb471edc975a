from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symprep import linalg, sections
from symprep.errors import DomainError, InternalConsistencyError
from symprep.linalg import cvec, int_scaled, lincomb, same_span
from symprep.matrixrep import build_rep
from symprep.numeric import inv_moment_eval
from symprep.reduction import run_reduction
from symprep.reps import validate_symplectic_spec
from symprep.rootdata import build_root_datum
from symprep.sections import (
    _plan_coords,
    _plan_pairs,
    _plan_solver,
    _weight_moments,
    build_section,
    central_element_for,
    char_reduction_phi,
    rho_psg,
    torus_moment_exact,
    torus_section,
    verify_section,
)

from corpus import (
    A1,
    A2,
    C2,
    T1,
    T2,
    ANALYZE_LADDER,
    catalog,
    generic_models,
    verify_ladder,
)
from oracles import (
    apply_plan_oracle,
    plan_pairs_oracle,
    rho_psg_oracle,
    section_apply_oracle,
    weight_moment_oracle,
)


def _rep(datum, summands):
    return build_rep(validate_symplectic_spec(datum, summands))


def test_torus_section_single_pair():
    rep = _rep(T1, [((1,), 1), ((-1,), 1)])
    sec = torus_section(rep)
    p = sec.apply((5,))
    assert torus_moment_exact(rep, p) == (5,)
    assert p == (1, 5)


def test_torus_section_two_equal_pairs_hits_zero_fiber():
    rep = _rep(T1, [((1,), 2), ((-1,), 2)])
    sec = torus_section(rep)
    p0 = sec.apply((0,))
    assert torus_moment_exact(rep, p0) == (0,)
    # basis chart: x = 1, y = 0 on the basis pair, rest zero
    assert any(x == 1 for x in p0) and sum(1 for x in p0 if x != 0) == 1


def test_torus_section_critical_recursion_charts():
    rep = _rep(T2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
    for hint in ("x", "y"):
        sec = torus_section(rep, component_hint=hint)
        for a in [(2, 3), (0, 0), (-1, 5), (Fraction(1, 2), 7)]:
            av = cvec(a)
            p = sec.apply(av)
            assert torus_moment_exact(rep, p) == av
    modes = {mode for _, mode in torus_section(rep).terminal_plan}
    assert modes == {"critical-x"}


def test_torus_section_rejects_targets_off_span():
    rep = _rep(T2, [((1, 0), 1), ((-1, 0), 1)])
    sec = torus_section(rep)
    with pytest.raises(DomainError):
        sec.apply((0, 1))


def test_torus_section_exactness_on_samples():
    rep = _rep(T2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
    sec = torus_section(rep)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = cvec((Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))),
                  Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))))
        assert torus_moment_exact(rep, sec.apply(a)) == a


@pytest.mark.parametrize("name", ["sl2_cubic", "sp4_x_sl2", "gl2_std_dual"])
def test_torus_section_serves_models_with_roots(name):
    """torus_section takes any model: on one with roots it is the section
    along the model's own reduction, point for point, in both charts."""
    spec = catalog()[name][0]
    rep = build_rep(spec)
    for chart in ("x", "y"):
        want = build_section(rep, run_reduction(spec), chart)
        targets = _targets(want.a_star_basis, rep.datum.ambient_dim)
        got = torus_section(rep, chart).points(targets)
        assert repr(got) == repr(want.points(targets)), chart


def test_char_reduction_phi_zero_character():
    rep = _rep(T1, [((0,), 2), ((1,), 1), ((-1,), 1)])
    v0 = next(
        cvec(tuple(1 if k == a else 0 for k in range(rep.dim)))
        for a in range(rep.dim)
        if rep.weight_labels[a] == (0,)
    )
    out, v0m = char_reduction_phi(rep, v0, Fraction(3), Fraction(1),
                                  cvec((0,) * rep.dim))
    # chi = 0: plain affine shift v + t v0 + y v0m
    expected = cvec(tuple(3 * a + b for a, b in zip(v0, v0m)))
    assert out == expected


def _unit_of_weight(rep, weight):
    a = next(i for i, w in enumerate(rep.weight_labels) if w == weight)
    return cvec(tuple(1 if k == a else 0 for k in range(rep.dim)))


def test_char_reduction_phi_moment_decomposition():
    rep = _rep(T1, [((1,), 1), ((-1,), 1), ((2,), 1), ((-2,), 1)])
    v0 = _unit_of_weight(rep, (1,))
    xi_c = central_element_for(rep.datum, (1,))
    rng = np.random.default_rng(1)
    from symprep.linalg import vdot

    for _ in range(10):
        t = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        y = Fraction(int(rng.integers(1, 5)))
        # vbar supported on the (2,) pair, orthogonal to the v0 pair
        vbar = [0] * rep.dim
        for i, w in enumerate(rep.weight_labels):
            if w in ((2,), (-2,)):
                vbar[i] = int(rng.integers(-3, 4))
        vbar = cvec(vbar)
        out, v0m = char_reduction_phi(rep, v0, t, y, vbar)
        m = torus_moment_exact(rep, out)
        # character component is exactly t*y
        assert vdot(m, xi_c) == t * y
    with pytest.raises(DomainError):
        char_reduction_phi(rep, v0, Fraction(1), 0, cvec((0,) * rep.dim))


def test_char_reduction_phi_at_t_equals_f():
    rep = _rep(T1, [((1,), 1), ((-1,), 1), ((2,), 1), ((-2,), 1)])
    v0 = _unit_of_weight(rep, (1,))
    xi_c = central_element_for(rep.datum, (1,))
    from symprep.linalg import vdot

    vbar = [0] * rep.dim
    for i, w in enumerate(rep.weight_labels):
        if w in ((2,), (-2,)):
            vbar[i] = 1
    vbar = cvec(vbar)
    f = vdot(torus_moment_exact(rep, vbar), xi_c)
    out, v0m = char_reduction_phi(rep, v0, f, Fraction(1), vbar)
    assert out == cvec(tuple(a + b for a, b in zip(vbar, v0m)))


def test_build_section_across_catalog():
    for name, (spec, _) in catalog().items():
        rep = build_rep(spec)
        sec = build_section(rep, run_reduction(rep.spec))
        report = verify_section(rep, sec, samples=8, seed=5)
        assert report.residual_max <= 1e-8, name
        assert report.zero_fiber_ok, name


def test_build_section_a_star_matches_reduction():
    from symprep.reduction import run_reduction

    for name, (spec, _) in catalog().items():
        rep = build_rep(spec)
        sec = build_section(rep, run_reduction(rep.spec))
        _, td = run_reduction(spec)
        assert same_span(list(sec.a_star_basis), list(td.a_star_basis)), name


def test_section_zero_fiber_witness():
    rep = _rep(A1, [((1,), 2)])
    sec = build_section(rep, run_reduction(rep.spec))
    p0 = sec.apply((0,))
    assert torus_moment_exact(rep, p0) == (0,)
    iv = inv_moment_eval(rep, np.array([float(x) for x in p0]))
    assert np.max(np.abs(iv)) <= 1e-10
    # the zero-fiber point is not the origin: the section stays inside the
    # nonvanishing chart
    assert any(x != 0 for x in p0)


def test_rho_psg_examples():
    rho = rho_psg(validate_symplectic_spec(A1, [((1,), 2)]))
    assert rho == (1,)
    spec = validate_symplectic_spec(C2, [((1, 0), 1)])
    rho = rho_psg(spec)
    from symprep.rootdata import positive_roots
    from symprep.linalg import vdot

    for r in positive_roots(C2):
        assert vdot(r.vec, rho) > 0
    # all weights separated
    vals = [vdot(w, rho) for w in spec.weight_multiset()]
    assert len(set(vals)) == len(vals)


def test_rho_psg_separates_terminal_from_nonterminal():
    spec = validate_symplectic_spec(
        C2, [((1, 0), 1), ((0, 1), 2)]
    )  # singular + non-terminal
    rho = rho_psg(spec)
    from symprep.linalg import vdot

    assert vdot((1, 0), rho) < vdot((0, 1), rho)


def test_rho_psg_separates_equal_height_weights():
    spec = validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)])
    rho = rho_psg(spec)
    from symprep.linalg import vdot

    assert vdot((1, 0), rho) != vdot((0, 1), rho)


def _rationals(rng, count, num, den):
    return [Fraction(int(rng.integers(-num, num + 1)), int(rng.integers(1, den + 1)))
            for _ in range(count)]


@pytest.mark.parametrize("name", sorted(verify_ladder()))
def test_weight_moment_equals_the_fraction_formula(name):
    """The integer weight moment equals the Fraction formula exactly, in
    value and type, on seeded rational vectors: zero, integral, small
    denominators and large coprime ones."""
    rep = build_rep(verify_ladder()[name])
    rng = np.random.default_rng(23)
    vectors = [cvec((0,) * rep.dim)]
    for num, den in [(5, 1), (6, 4), (10 ** 18, 10 ** 15), (7, 10 ** 12)]:
        vectors += [cvec(_rationals(rng, rep.dim, num, den)) for _ in range(3)]
    sparse = [0] * rep.dim
    sparse[0], sparse[-1] = Fraction(2 ** 61 - 1, 3 ** 30), Fraction(-5, 7)
    vectors.append(cvec(sparse))
    for p in vectors:
        got = _weight_moments(rep, [int_scaled(p)])[0]
        assert repr(got) == repr(weight_moment_oracle(rep, p))


def _section_models():
    models = {name: sp for name, (sp, _) in catalog().items()}
    models.update(verify_ladder())
    return models


@pytest.mark.parametrize("name", sorted(_section_models()) + ["torus_rank2-y"])
def test_section_apply_solves_no_span_per_target(name, monkeypatch):
    """The terminal coordinates of a section come from one solver factored
    once in build_section: they equal a fresh span_coords_oracle solve per
    target and peeled character, off the span of a* too, with no row
    reduction left at apply time."""
    hint = "y" if name.endswith("-y") else "x"
    rep = build_rep(_section_models()[name.removesuffix("-y")])
    sec = build_section(rep, run_reduction(rep.spec), hint)
    chis = [q.chi for q in sec.terminal_pairs]
    rng = np.random.default_rng(29)
    n = rep.datum.ambient_dim
    targets = [cvec((0,) * n)]
    for _ in range(6):
        coeffs = _rationals(rng, len(sec.a_star_basis), 6, 3)
        targets.append(lincomb(coeffs, sec.a_star_basis, n))
        targets.append(cvec(_rationals(rng, n, 6, 3)))
    want = []
    for a in targets:
        try:
            want.append(apply_plan_oracle(chis, sec.killed, sec.terminal_plan, a))
        except DomainError:
            want.append(DomainError)

    def no_rref(*args):
        raise AssertionError("row reduction at apply time")

    monkeypatch.setattr(linalg, "rref", no_rref)
    monkeypatch.setattr(linalg, "_echelon", no_rref)
    for a, expected in zip(targets, want):
        if expected is DomainError:
            with pytest.raises(DomainError):
                _plan_coords(sec.terminal_plan, sec.terminal_solver(a))
            with pytest.raises(DomainError):
                sec.apply(a)
            continue
        got = _plan_coords(sec.terminal_plan, sec.terminal_solver(a))
        assert repr(got) == repr(expected)
        assert torus_moment_exact(rep, sec.apply(a)) == a


@st.composite
def character_plans(draw):
    """Characters and killed rows of one length, possibly zero or dependent,
    a chart, and two targets: one in their span and one drawn freely."""
    n = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    chis = draw(st.lists(vector, min_size=1, max_size=5))
    killed = draw(st.lists(vector, max_size=2))
    rows = chis + killed
    coeffs = draw(st.lists(st.fractions(-3, 3, max_denominator=3),
                           min_size=len(rows), max_size=len(rows)))
    return chis, killed, draw(st.sampled_from("xy")), [lincomb(coeffs, rows, n),
                                                       draw(vector)]


@given(character_plans())
def test_one_terminal_solve_equals_the_peeled_solves(problem):
    """Critical, basis and dependent characters mixed (the models above
    never mix critical and basis ones): the one solve gives the coordinates
    of a fresh solve per peeled character, and the same DomainError."""
    chis, killed, chart, targets = problem
    plan = _plan_pairs(chis, killed, chart)
    solve = _plan_solver(chis, killed, plan)
    for a in targets:
        try:
            want = apply_plan_oracle(chis, killed, plan, a)
        except DomainError:
            with pytest.raises(DomainError):
                _plan_coords(plan, solve(cvec(a)))
            continue
        assert repr(_plan_coords(plan, solve(cvec(a)))) == repr(want)


@st.composite
def planned_characters(draw):
    """Int characters of one length whose members are zero, repeats or
    integer combinations of earlier ones, or fresh vectors and multiples of
    unit vectors (often critical), with killed rows, a chart and three
    targets in the span of all the rows."""
    n = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    chis = []
    kinds = ["zero", "repeat", "dependent", "fresh", "unit"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=7)):
        if kind == "zero":
            chis.append((0,) * n)
        elif kind == "unit":
            k, c = draw(st.integers(0, n - 1)), draw(st.sampled_from([1, -1, 2]))
            chis.append(tuple(c if j == k else 0 for j in range(n)))
        elif kind == "fresh" or not chis:
            chis.append(draw(vector))
        elif kind == "repeat":
            chis.append(draw(st.sampled_from(chis)))
        else:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(chis),
                                   max_size=len(chis)))
            chis.append(tuple(sum(c * v[j] for c, v in zip(coeffs, chis))
                              for j in range(n)))
    killed = draw(st.lists(vector, max_size=2))
    rows = chis + killed
    fractions = st.lists(st.fractions(-3, 3, max_denominator=3),
                         min_size=len(rows), max_size=len(rows))
    targets = [lincomb(draw(fractions), rows, n) for _ in range(3)]
    return chis, killed, draw(st.sampled_from("xy")), targets


@settings(max_examples=300, deadline=None, derandomize=True)
@given(planned_characters())
@example(problem=([(1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 0), (1, 1, 0), (0, 0, 2)],
                  [(1, 0, 0)], "y", [(1, 2, 3), (0, 0, 0), (2, -1, 1)]))
def test_one_pass_plan_equals_the_rescanning_plan(problem):
    """One pass over the characters finds the critical ones of the
    rescanning reference, in the same order, and the same plan; the one
    solve then gives the peeled solves' coordinates on in-span targets."""
    chis, killed, chart, targets = problem
    plan = _plan_pairs(chis, killed, chart)
    assert plan == plan_pairs_oracle(chis, killed, chart)
    solve = _plan_solver(chis, killed, plan)
    for a in targets:
        want = apply_plan_oracle(chis, killed, plan, a)
        assert repr(_plan_coords(plan, solve(cvec(a)))) == repr(want)


def test_plan_builds_at_most_two_solvers_per_character(monkeypatch):
    """Twelve characters, five of them critical: the one pass builds one
    span solver per nonzero character for the critical test and one per
    non-critical character for the basis (the rescan built 32 here)."""
    real, built = sections.span_solver, []

    def counted(rows):
        built.append(len(rows))
        return real(rows)

    monkeypatch.setattr(sections, "span_solver", counted)
    units = [tuple(int(j == k) for j in range(8)) for k in range(8)]
    chis = units + [(0,) * 8, units[0], units[1], units[2]]
    plan = _plan_pairs(chis, [], "x")
    assert plan == plan_pairs_oracle(chis, [], "x")
    assert [mode for _, mode in plan].count("critical-x") == 5
    assert len(built) <= 2 * len(chis)


def _model_specs():
    """The 22 verify-models specs (the catalog and the verify ladder) and
    the generic-model specs."""
    specs = {name: sp for name, (sp, _) in catalog().items()}
    specs.update(verify_ladder())
    specs.update(generic_models())
    return specs


MODEL_SPECS = _model_specs()


def _targets(basis, n):
    """Zero and combinations of the a* basis with denominators 1, 2 and 3."""
    targets = [cvec((0,) * n)]
    if basis:
        k = len(basis)
        for coeffs in (
            [Fraction(1, 2)] * k,
            [Fraction(-2, 3)] * k,
            [Fraction(i + 1, 2 + i % 2) for i in range(k)],
            [3 - 2 * i for i in range(k)],
        ):
            targets.append(lincomb(coeffs, basis, n))
    return targets


@pytest.mark.parametrize("name", sorted(MODEL_SPECS))
def test_batched_section_points_equal_the_per_target_oracle(name):
    """In both charts, the points of one batched pass equal, by repr, one
    exact pass per target (section_apply_oracle), and apply is the batch of
    one."""
    spec = MODEL_SPECS[name]
    rep = build_rep(spec)
    reduction = run_reduction(spec)
    for chart in ("x", "y"):
        sec = build_section(rep, reduction, chart)
        targets = _targets(sec.a_star_basis, rep.datum.ambient_dim)
        want = [section_apply_oracle(sec, a) for a in targets]
        assert repr(sec.points(targets)) == repr(want), chart
        assert repr([sec.apply(a) for a in targets]) == repr(want), chart


@pytest.mark.parametrize("name", ["A2_sd_x2", "sl2_two_standards"])
def test_a_tampered_section_layer_misses_its_target(name):
    """A layer whose v0^- is doubled no longer pairs to one with v0, so the
    batched pass and the oracle both refuse the point they build."""
    spec = MODEL_SPECS[name]
    rep = build_rep(spec)
    sec = build_section(rep, run_reduction(spec))
    assert sec.layers
    layer = replace(sec.layers[0], v0m=cvec(2 * x for x in sec.layers[0].v0m))
    tampered = replace(sec, layers=(layer,) + sec.layers[1:])
    a = _targets(sec.a_star_basis, rep.datum.ambient_dim)[1]
    with pytest.raises(InternalConsistencyError) as info:
        tampered.points([a])
    assert str(info.value).startswith("section misses its target: m_t = ")
    with pytest.raises(InternalConsistencyError) as want:
        section_apply_oracle(tampered, a)
    assert str(info.value) == str(want.value)


def _rho_specs():
    """The catalog, both ladders and the generic-model specs."""
    specs = dict(MODEL_SPECS)
    for name, (factors, summands) in ANALYZE_LADDER.items():
        specs[name] = validate_symplectic_spec(build_root_datum(factors), summands)
    return specs


@pytest.mark.parametrize("name", sorted(_rho_specs()))
def test_rho_psg_equals_the_pairwise_search(name):
    """One pairing per weight and candidate, on ints, finds the rho of the
    pairwise search over Fractions."""
    spec = _rho_specs()[name]
    assert repr(rho_psg(spec)) == repr(rho_psg_oracle(spec.datum, spec))
