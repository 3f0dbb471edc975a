from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symprep import linalg, matrixrep, sections
from symprep.errors import DomainError, InternalConsistencyError, StageNotRealizable
from symprep.linalg import cvec, int_scaled, lincomb, same_span
from symprep.matrixrep import build_rep
from symprep.numeric import inv_moment_eval
from symprep.reduction import analyze, run_reduction
from symprep.reps import validate_symplectic_spec
from symprep.rootdata import build_root_datum
from symprep.sections import (
    _plan_coords,
    _plan_pairs,
    _plan_solver,
    _weight_moments,
    build_section,
    rho_psg,
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
    critical_first_points_oracle,
    plan_pairs_oracle,
    rho_psg_oracle,
    section_apply_oracle,
    weight_moment_oracle,
)


def _rep(datum, summands):
    return build_rep(validate_symplectic_spec(datum, summands))


def _section(rep):
    return build_section(rep, run_reduction(rep.spec))


def test_torus_section_single_pair():
    rep = _rep(T1, [((1,), 1), ((-1,), 1)])
    [p] = _section(rep).points([(5,)])
    assert weight_moment_oracle(rep, p) == (5,)
    assert p == (1, 5)


def test_torus_section_two_equal_pairs_hits_zero_fiber():
    rep = _rep(T1, [((1,), 2), ((-1,), 2)])
    [p0] = _section(rep).points([(0,)])
    assert weight_moment_oracle(rep, p0) == (0,)
    # basis chart: x = 1, y = 0 on the basis pair, rest zero
    assert any(x == 1 for x in p0) and sum(1 for x in p0 if x != 0) == 1


def test_torus_section_critical_recursion_charts():
    """Both characters of the rank-2 torus module are critical (each is off
    the span of the other): the greedy plan gives them the coordinates
    (1, t) of the critical-first plan in chart x, point for point."""
    rep = _rep(T2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
    sec = _section(rep)
    chis = [pair.chi for pair in sec.terminal_pairs]
    assert {mode for _, mode in plan_pairs_oracle(chis, [])} == {"critical"}
    targets = [cvec(a) for a in [(2, 3), (0, 0), (-1, 5), (Fraction(1, 2), 7)]]
    points = sec.points(targets)
    for a, p in zip(targets, points):
        assert weight_moment_oracle(rep, p) == a
    assert repr(points) == repr(critical_first_points_oracle(sec, [], targets))


def test_torus_section_rejects_targets_off_span():
    rep = _rep(T2, [((1, 0), 1), ((-1, 0), 1)])
    with pytest.raises(DomainError):
        _section(rep).points([(0, 1)])


def test_torus_section_exactness_on_samples():
    rep = _rep(T2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
    rng = np.random.default_rng(0)
    targets = [
        cvec((Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))),
              Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))))
        for _ in range(20)
    ]
    for a, p in zip(targets, _section(rep).points(targets)):
        assert weight_moment_oracle(rep, p) == a


@pytest.mark.parametrize("name", ["sl2_cubic", "sp4_x_sl2", "gl2_std_dual"])
def test_torus_section_serves_models_with_roots(name):
    """A section takes any model: on one with roots, the section along the
    model's own reduction is, point for point, the one `verify` builds from
    an analysis of the spec, and the t-moment of each point, by the
    Fraction formula, is its target."""
    spec = catalog()[name][0]
    rep = build_rep(spec)
    analysis = analyze(spec)
    want = build_section(rep, (analysis.trace, analysis.terminal))
    targets = _targets(want.a_star_basis, rep.datum.ambient_dim)
    got = _section(rep).points(targets)
    assert repr(got) == repr(want.points(targets))
    for a, p in zip(targets, got):
        assert weight_moment_oracle(rep, p) == a


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
    [p0] = _section(rep).points([(0,)])
    assert weight_moment_oracle(rep, p0) == (0,)
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


@pytest.mark.parametrize("name", sorted(_section_models()))
def test_section_apply_solves_no_span_per_target(name, monkeypatch):
    """The terminal coordinates of a section come from one solver factored
    once in build_section: they equal the critical-first plan's fresh
    span_coords_oracle solve per target and peeled character, off the span
    of a* too, with no row reduction left when the points are evaluated."""
    rep = build_rep(_section_models()[name])
    reduction = run_reduction(rep.spec)
    sec = build_section(rep, reduction)
    chis = [q.chi for q in sec.terminal_pairs]
    killed = [step.chosen_chi for step in reduction[0]]
    plan = plan_pairs_oracle(chis, killed)
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
            want.append(apply_plan_oracle(chis, killed, plan, a))
        except DomainError:
            want.append(DomainError)

    def no_rref(*args):
        raise AssertionError("row reduction at evaluation time")

    monkeypatch.setattr(linalg, "rref", no_rref)
    monkeypatch.setattr(linalg, "_echelon", no_rref)
    for a, expected in zip(targets, want):
        if expected is DomainError:
            with pytest.raises(DomainError):
                _plan_coords(len(chis), sec.terminal_plan, sec.terminal_solver(a))
            with pytest.raises(DomainError):
                sec.points([a])
            continue
        got = _plan_coords(len(chis), sec.terminal_plan, sec.terminal_solver(a))
        assert repr(got) == repr(expected)
        assert weight_moment_oracle(rep, sec.points([a])[0]) == a


@st.composite
def character_plans(draw):
    """Characters and killed rows of one length, possibly zero or dependent,
    and two targets: one in their span and one drawn freely."""
    n = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    chis = draw(st.lists(vector, min_size=1, max_size=5))
    killed = draw(st.lists(vector, max_size=2))
    rows = chis + killed
    coeffs = draw(st.lists(st.fractions(-3, 3, max_denominator=3),
                           min_size=len(rows), max_size=len(rows)))
    return chis, killed, [lincomb(coeffs, rows, n), draw(vector)]


def _coords(chis, killed, a):
    """The terminal coordinates of the greedy plan for the target a."""
    plan = _plan_pairs(chis, killed)
    return _plan_coords(len(chis), plan, _plan_solver(chis, killed, plan)(cvec(a)))


@given(character_plans())
def test_one_terminal_solve_equals_the_peeled_solves(problem):
    """Critical, basis and dependent characters mixed (the models above
    never mix critical and basis ones): the one solve of the greedy plan
    gives the coordinates of a fresh solve per peeled character of the
    critical-first plan, and the same DomainError."""
    chis, killed, targets = problem
    plan = plan_pairs_oracle(chis, killed)
    for a in targets:
        try:
            want = apply_plan_oracle(chis, killed, plan, a)
        except DomainError:
            with pytest.raises(DomainError):
                _coords(chis, killed, a)
            continue
        assert repr(_coords(chis, killed, a)) == repr(want)


@st.composite
def planned_characters(draw):
    """Int characters of one length whose members are zero, repeats or
    integer combinations of earlier ones, or fresh vectors and multiples of
    unit vectors (often critical), with killed rows and three targets in
    the span of all the rows."""
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
    return chis, killed, targets


@settings(max_examples=300, deadline=None, derandomize=True)
@given(planned_characters())
@example(problem=([(1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 0), (1, 1, 0), (0, 0, 2)],
                  [(1, 0, 0)], [(1, 2, 3), (0, 0, 0), (2, -1, 1)]))
def test_one_pass_plan_equals_the_rescanning_plan(problem):
    """The one greedy pass gives each target the coordinates of the
    rescanning critical-first reference: (1, t) on its critical and basis
    characters alike, (0, 0) on the dependent ones."""
    chis, killed, targets = problem
    plan = plan_pairs_oracle(chis, killed)
    for a in targets:
        want = apply_plan_oracle(chis, killed, plan, a)
        assert repr(_coords(chis, killed, a)) == repr(want)


def test_plan_builds_at_most_two_solvers_per_character(monkeypatch):
    """Twelve characters, five of them critical: the plan is read off one
    elimination and builds no span solver, and gives the critical-first
    coordinates."""
    real, built = sections.span_solver, []

    def counted(rows):
        built.append(len(rows))
        return real(rows)

    monkeypatch.setattr(sections, "span_solver", counted)
    units = [tuple(int(j == k) for j in range(8)) for k in range(8)]
    chis = units + [(0,) * 8, units[0], units[1], units[2]]
    plan = _plan_pairs(chis, [])
    assert built == []
    oracle = plan_pairs_oracle(chis, [])
    assert [mode for _, mode in oracle].count("critical") == 5
    a = tuple(range(1, 9))
    coords = _plan_coords(len(chis), plan, _plan_solver(chis, [], plan)(a))
    assert repr(coords) == repr(apply_plan_oracle(chis, [], oracle, a))


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
    """The points of one batched pass equal, by repr, one exact pass per
    target (section_apply_oracle), and each is the batch of one."""
    spec = MODEL_SPECS[name]
    rep = build_rep(spec)
    sec = build_section(rep, run_reduction(spec))
    targets = _targets(sec.a_star_basis, rep.datum.ambient_dim)
    want = [section_apply_oracle(sec, a) for a in targets]
    assert repr(sec.points(targets)) == repr(want)
    assert repr([sec.points([a])[0] for a in targets]) == repr(want)


@pytest.mark.parametrize("name", sorted(MODEL_SPECS))
def test_section_points_equal_the_critical_first_plan(name):
    """On every model spec, the section's points equal, by repr, the points
    of the critical-first plan in chart x: a critical character gets the
    same coordinates (1, t) as a basis one."""
    spec = MODEL_SPECS[name]
    rep = build_rep(spec)
    reduction = run_reduction(spec)
    sec = build_section(rep, reduction)
    killed = [step.chosen_chi for step in reduction[0]]
    targets = _targets(sec.a_star_basis, rep.datum.ambient_dim)
    want = critical_first_points_oracle(sec, killed, targets)
    assert repr(sec.points(targets)) == repr(want)


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


def test_build_section_refuses_a_step_without_a_lowest_weight_partner(monkeypatch):
    """A reduction step whose lowest-weight kernel is empty has no partner
    for v0: build_section raises StageNotRealizable (a defect, exit 5), and
    so does verify_suite, which reads the first step's pair off the
    section."""
    from symprep.verify import verify_suite

    spec = catalog()["sl2_cubic"][0]
    rep = build_rep(spec)
    kernel = matrixrep.weight_kernel

    def no_lowest(rep, weight, side="e", *args):
        return [] if side == "f" else kernel(rep, weight, side, *args)

    monkeypatch.setattr(matrixrep, "weight_kernel", no_lowest)
    with pytest.raises(StageNotRealizable) as exc:
        _section(rep)
    assert str(exc.value) == "lowest-weight space pairs to zero with v0"
    with pytest.raises(StageNotRealizable):
        verify_suite(spec)


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
