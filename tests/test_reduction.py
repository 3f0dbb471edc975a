import json
from collections import Counter
from pathlib import Path

import pytest

from symprep import reduction, rootdata
from symprep.classify import terminal_decomposition
from symprep.cli import parse_spec
from symprep.errors import InternalConsistencyError, WeylCapExceeded
from symprep.linalg import mat_vec, same_span
from symprep.reduction import (
    analyze,
    centralizer_levi,
    compute_gamma,
    reduce_step,
    reduce_to_gamma,
    reflection_subgroups,
    run_reduction,
)
from symprep.reps import validate_symplectic_spec
from symprep.rootdata import (
    SubspaceGroupData,
    build_root_datum,
    levi_subdatum,
    positive_roots,
)

from corpus import (
    A1, A2, C2, T1, ANALYZE_LADDER, catalog, generic_models, verify_ladder,
)
from oracles import (
    fixed_codim,
    little_weyl_candidates_oracle,
    molien_series_oracle,
    reflection_subgroups_oracle,
    terminal_module,
    weyl_matrices_bruteforce,
)

# C3xT1 with hw (0,1,2,0)x2 + (0,2,2,0)x2: not multiplicity free, with a
# Gamma of order 48 holding 9 reflections.
C3T1 = ([("C", 3)], 1, [((0, 1, 2, 0), 2), ((0, 2, 2, 0), 2)])


def test_choose_nonterminal_weight():
    """The reduction's first step takes the witness of the terminal
    decomposition, and a terminal module takes no step."""
    def first(datum, summands):
        trace, _ = run_reduction(validate_symplectic_spec(datum, summands))
        return trace[0].chosen_chi if trace else None

    assert first(A1, [((1,), 2)]) == (1,)
    assert first(A2, [((1, 0), 1), ((0, 1), 1)]) == (1, 0)
    assert first(A1, [((3,), 1)]) == (3,)
    assert first(C2, [((1, 0), 1)]) is None


def test_reduce_step_examples():
    step, s = reduce_step(validate_symplectic_spec(A1, [((1,), 2)]), (1,))
    assert len(step.delta_u) == 1
    assert step.levi.rank == 0
    assert dict(s.weight_multiset()) == {(1,): 1, (-1,): 1}

    step, s = reduce_step(
        validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)]), (1, 0)
    )
    assert len(step.delta_u) == 2
    assert step.levi.factors == (("A", 1),)
    assert sum(s.weight_multiset().values()) == 2

    step, s = reduce_step(validate_symplectic_spec(A1, [((3,), 1)]), (3,))
    assert dict(s.weight_multiset()) == {(3,): 1, (-3,): 1}


def test_step_conservation_across_catalog():
    for name, (spec, _) in catalog().items():
        trace, td = run_reduction(spec)
        current = spec
        for step in trace:
            assert step.s_spec.dim == current.dim - 2 * len(step.delta_u)
            ws = dict(step.s_spec.weight_multiset())
            assert ws == {tuple(-x for x in w): m for w, m in ws.items()}
            current = step.s_spec


def test_run_reduction_examples():
    trace, td = run_reduction(validate_symplectic_spec(C2, [((1, 0), 1)]))
    assert not trace and td.sp_factor_sizes == (2,) and td.a_star_basis == ()

    trace, td = run_reduction(validate_symplectic_spec(A1, [((1,), 2)]))
    assert len(trace) == 1
    assert terminal_decomposition(trace[-1].s_spec).character_pairs == (((1,), 1),)
    assert (td.a_rank, td.c) == (1, 0)

    trace, td = run_reduction(validate_symplectic_spec(A1, [((2,), 2)]))
    assert (td.a_rank, td.c) == (1, 1)


def test_rank_complexity_examples():
    _, td = run_reduction(validate_symplectic_spec(C2, [((1, 0), 1)]))
    assert (td.a_rank, td.c) == (0, 0)
    _, td = run_reduction(
        validate_symplectic_spec(T1, [((1,), 2), ((-1,), 2)])
    )
    assert (td.a_rank, td.c) == (1, 1)
    _, td = run_reduction(validate_symplectic_spec(A1, [((3,), 1)]))
    assert (td.a_rank, td.c) == (1, 0)


def test_catalog_rank_complexity():
    for name, (spec, (rk, c, mf)) in catalog().items():
        trace, td = run_reduction(spec)
        assert (td.a_rank, td.c) == (rk, c), name
        assert (c == 0) == mf, name


def test_centralizer_levi_examples():
    _, td = run_reduction(validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)]))
    levi = centralizer_levi(A2, td.a_star_basis, expect=td.terminal_group)
    assert levi.factors == (("A", 1),)
    levi = centralizer_levi(C2, [], expect=C2)
    assert levi.factors == (("C", 2),)
    _, td = run_reduction(validate_symplectic_spec(A1, [((1,), 2)]))
    levi = centralizer_levi(A1, td.a_star_basis, expect=td.terminal_group)
    assert levi.rank == 0


def test_centralizer_levi_consistent_across_catalog():
    for name, (spec, _) in catalog().items():
        _, td = run_reduction(spec)
        centralizer_levi(spec.datum, td.a_star_basis, expect=td.terminal_group)


def test_compute_gamma_examples():
    _, td = run_reduction(validate_symplectic_spec(A1, [((1,), 2)]))
    g = compute_gamma(A1, td.a_star_basis)
    assert g.gamma_order == 2 and len(g.reflections) == 1
    _, td = run_reduction(validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)]))
    g = compute_gamma(A2, td.a_star_basis)
    assert g.gamma_order == 1
    g = compute_gamma(A2, [])
    assert g.gamma_order == 1


def _group_data(mats):
    """Gamma data of a finite group given by its matrices on a*."""
    k = len(mats[0])
    return SubspaceGroupData(
        a_star_basis=tuple(tuple(int(i == j) for j in range(k)) for i in range(k)),
        normalizer_order=len(mats),
        centralizer_order=1,
        gamma_order=len(mats),
        reflections=tuple(sorted(g for g in mats if fixed_codim(g) == 1)),
    )


def test_molien_series_of_sign_group():
    flip = ((-1,),)
    ident = ((1,),)
    subs = reflection_subgroups(_group_data([ident, flip]))
    assert subs == [(1, (1,)), (2, (2,))]
    assert reduction._degree_series((2,), 6) == [1, 0, 1, 0, 1, 0, 1]
    assert reduction._degree_series((2,), 6) == molien_series_oracle([ident, flip], 6)
    assert reduction._degree_series((1,), 4) == [1, 1, 1, 1, 1]


# The degrees of the irreducible Weyl groups (Humphreys, Reflection Groups
# and Coxeter Groups, 1990, Table 3.1).
WEYL_DEGREES = {
    ("A", 1): (2,), ("A", 2): (2, 3), ("A", 3): (2, 3, 4), ("A", 4): (2, 3, 4, 5),
    ("B", 2): (2, 4), ("B", 3): (2, 4, 6), ("B", 4): (2, 4, 6, 8),
    ("C", 3): (2, 4, 6), ("D", 4): (2, 4, 4, 6), ("G", 2): (2, 6),
    ("F", 4): (2, 6, 8, 12),
}


def _weyl_group_gamma(factor):
    """Gamma = W: the normalizer of all of t*."""
    datum = build_root_datum([factor])
    n = datum.ambient_dim
    return datum, compute_gamma(datum, [tuple(int(i == j) for j in range(n)) for i in range(n)])


@pytest.mark.parametrize("factor", list(WEYL_DEGREES), ids=lambda f: "%s%d" % f)
def test_weyl_group_degrees_match_the_table(factor):
    """The largest reflection subgroup of Gamma = W is W, with the tabulated
    degrees, and its series prod 1/(1 - t^d) is the Molien series by power
    traces."""
    datum, gamma = _weyl_group_gamma(factor)
    order, degrees = reflection_subgroups(gamma)[-1]
    assert (order, degrees) == (datum.weyl_order(), WEYL_DEGREES[factor])
    mats = weyl_matrices_bruteforce(datum)
    assert reduction._degree_series(degrees, 10) == molien_series_oracle(mats, 10)


def test_a_rotation_group_has_no_reflection_degrees():
    """The rotations of W(A2) fix only 0: the group has no reflection, so
    its one reflection subgroup is the trivial one, of degrees (1, 1)."""
    r = ((0, -1), (1, -1))
    mats = [((1, 0), (0, 1)), r, ((-1, 1), (-1, 0))]
    gamma = _group_data(mats)
    assert gamma.reflections == ()
    assert reflection_subgroups(gamma) == [(1, (1, 1))]


def _gammas_of_catalog_and_ladder():
    for name, (spec, _) in catalog().items():
        yield name, reduce_to_gamma(spec)[2]
    ladder = {name: (factors, 0, summands)
              for name, (factors, summands) in ANALYZE_LADDER.items()}
    for name, (factors, central, summands) in dict(ladder, C3xT1=C3T1).items():
        datum = build_root_datum(factors, central_rank=central)
        yield name, reduce_to_gamma(validate_symplectic_spec(datum, summands))[2]


def test_reflection_subgroup_series_match_the_power_trace_oracle():
    """The series determine_little_weyl matches, read off each subgroup's
    Coxeter type, equal the Molien series by power traces of the closures
    of all subsets of reflections, as multisets, on all 100 reflection
    subgroups of the catalog's, the ladder's and C3xT1's Gammas."""
    seen = 0
    for name, gamma in _gammas_of_catalog_and_ladder():
        subs = reflection_subgroups(gamma)
        got = Counter(
            (order, tuple(reduction._degree_series(degrees, 10)))
            for order, degrees in subs
        )
        want = Counter(
            (len(sub), tuple(molien_series_oracle(sorted(sub), 10)))
            for sub in reflection_subgroups_oracle(gamma)
        )
        assert got == want, name
        seen += len(subs)
    assert seen == 100


@pytest.mark.parametrize(
    "factor",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
     ("D", 4), ("G", 2)],
    ids=lambda f: "%s%d" % f,
)
def test_reflection_subgroups_of_a_weyl_group_match_the_grown_closures(factor):
    """On Gamma = W, each subgroup's (order, degrees) from its Coxeter type
    equals, as a multiset, the grown matrix closures' order and Shephard-Todd
    degrees from the fixed-space codimensions."""
    gamma = _weyl_group_gamma(factor)[1]
    assert reflection_subgroups(gamma) == little_weyl_candidates_oracle(gamma)


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def _corpus_gammas():
    """The distinct Gammas of the benchmark's analyze specs (the catalog,
    the analyze ladder and the batch pool), the verify ladder, the generic
    models and C3xT1."""
    specs = [parse_spec(text)[0] for text in json.loads(REFERENCE.read_text())["analyze"]]
    specs += list(verify_ladder().values()) + list(generic_models().values())
    factors, central, summands = C3T1
    specs.append(validate_symplectic_spec(
        build_root_datum(factors, central_rank=central), summands))
    gammas = {}
    for spec in specs:
        gamma = reduce_to_gamma(spec)[2]
        gammas[spec.datum, gamma.a_star_basis] = gamma
    return list(gammas.values())


def test_reflection_subgroups_match_the_grown_closures_on_every_corpus_gamma():
    gammas = _corpus_gammas()
    assert len(gammas) > 20
    for gamma in gammas:
        assert reflection_subgroups(gamma) == little_weyl_candidates_oracle(gamma)


def _with_tampered_tables(monkeypatch, mutate):
    table = reduction._reflection_table

    def tampered(gamma):
        conj, neg, joined = table(gamma)
        mutate(conj, neg, joined)
        return conj, neg, joined

    monkeypatch.setattr(reduction, "_reflection_table", tampered)


@pytest.mark.parametrize("factor", [("B", 3), ("G", 2), ("A", 3)], ids=lambda f: "%s%d" % f)
def test_a_tampered_conjugation_table_trips_the_candidate_checks(monkeypatch, factor):
    """Every change of one entry conj[a][b] to another reflection raises
    InternalConsistencyError naming the stage."""
    gamma = _weyl_group_gamma(factor)[1]
    conj = reduction._reflection_table(gamma)[0]
    n = len(conj)
    cases = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)
             if c != conj[a][b]]
    for a, b, c in cases:
        def mutate(conj, neg, joined, a=a, b=b, c=c):
            conj[a][b] = c
        with monkeypatch.context() as m:
            _with_tampered_tables(m, mutate)
            with pytest.raises(InternalConsistencyError, match="little Weyl candidates"):
                reflection_subgroups(gamma)


@pytest.mark.parametrize("table", [1, 2], ids=["sign", "commutation"])
def test_a_tampered_sign_or_commutation_bit_never_passes_silently(monkeypatch, table):
    """On Gamma = W(B3), flipping one off-diagonal bit of the sign masks
    (which fix the simple roots) or of the commutation masks (which count
    each Coxeter component's reflections) either leaves every (order,
    degrees) as it was or raises InternalConsistencyError naming the stage;
    some flips raise."""
    gamma = _weyl_group_gamma(("B", 3))[1]
    good = reflection_subgroups(gamma)
    n = len(reduction._reflection_table(gamma)[0])
    raised = 0
    for a in range(n):
        for b in range(n):
            if a == b:
                continue

            def mutate(*tables, a=a, b=b):
                tables[table][a] ^= 1 << b

            with monkeypatch.context() as m:
                _with_tampered_tables(m, mutate)
                try:
                    assert reflection_subgroups(gamma) == good, (a, b)
                except InternalConsistencyError as exc:
                    assert "little Weyl candidates" in str(exc)
                    raised += 1
    assert raised


@pytest.mark.parametrize("n, count, laced", [
    (3, 7, True), (2, 5, False), (6, 30, False), (3, 6, False), (4, 16, True),
])
def test_a_reflection_count_naming_no_type_raises(n, count, laced):
    with pytest.raises(InternalConsistencyError, match="little Weyl candidates.*names no finite"):
        reduction._component_degrees(n, count, laced)


def test_little_weyl_examples():
    rep = analyze(validate_symplectic_spec(A1, [((3,), 1)]))
    assert rep.little_weyl.status == "exact"
    assert rep.little_weyl.order == 2
    assert rep.little_weyl.degrees == (2,)

    rep = analyze(validate_symplectic_spec(A1, [((1,), 2)]))
    assert rep.little_weyl.status == "exact"
    assert rep.little_weyl.order == 1

    rep = analyze(validate_symplectic_spec(C2, [((1, 0), 1)]))
    assert rep.little_weyl.status == "exact"
    assert rep.little_weyl.order == 1

    rep = analyze(validate_symplectic_spec(A1, [((2,), 2)]))
    assert rep.little_weyl.status == "unknown"
    assert rep.gamma.gamma_order == 2


def test_little_weyl_order_divides_gamma():
    for name, (spec, _) in catalog().items():
        rep = analyze(spec)
        if rep.little_weyl.status == "exact":
            assert rep.gamma.gamma_order % rep.little_weyl.order == 0, name


def test_mf_hilbert_series_is_even():
    from symprep.reps import invariant_dims

    for name, (spec, (rk, c, mf)) in catalog().items():
        if not mf or spec.dim > 16:
            continue
        dims = invariant_dims(spec, 6)
        assert all(v == 0 for d, v in enumerate(dims) if d % 2), name


def test_isotropy_examples():
    rep = analyze(validate_symplectic_spec(C2, [((1, 0), 1)]))
    assert rep.isotropy.dim_h == 6
    assert rep.isotropy.sp_parts == ("Sp_3",)
    rep = analyze(validate_symplectic_spec(A1, [((1,), 2)]))
    assert rep.isotropy.dim_h == 0
    # trivial action: H = G
    triv = validate_symplectic_spec(A1, [((0,), 2)])
    rep = analyze(triv)
    assert rep.isotropy.dim_h == A1.dim_group()


def test_analyze_examples():
    rep = analyze(validate_symplectic_spec(C2, [((1, 0), 1)]))
    assert (rep.rk_s, rep.c_s, rep.mf) == (0, 0, True)
    rep = analyze(validate_symplectic_spec(A1, [((3,), 1)]))
    assert (rep.rk_s, rep.c_s, rep.mf) == (1, 0, True)
    assert rep.little_weyl.order == 2
    rep = analyze(validate_symplectic_spec(A1, [((2,), 2)]))
    assert (rep.rk_s, rep.c_s, rep.mf) == (1, 1, False)
    assert rep.little_weyl.status == "unknown"


def test_analyze_weyl_cap():
    e7 = build_root_datum([("E", 7)])
    spec = validate_symplectic_spec(e7, [((0,) * 7, 2)])
    with pytest.raises(WeylCapExceeded):
        analyze(spec)


def test_permanence_under_first_choice():
    """A first step at any non-terminal highest weight, followed by the
    reduction of its S, gives the invariants of the reduction's own
    choice, with a W-conjugate a*."""
    spec = validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)])
    base_trace, base_td = run_reduction(spec)
    for w, _ in spec.summands:
        from symprep.classify import WeightStatus, weight_status

        if weight_status(spec, w) is not WeightStatus.NON_TERMINAL:
            continue
        _, s_spec = reduce_step(spec, w)
        td = run_reduction(s_spec)[1]
        assert (td.a_rank, td.c) == (base_td.a_rank, base_td.c)
        conj = any(
            same_span([mat_vec(we, b) for b in td.a_star_basis], list(base_td.a_star_basis))
            for we in weyl_matrices_bruteforce(spec.datum)
        ) if td.a_star_basis else not base_td.a_star_basis
        assert conj


def test_centralizer_levi_rejects_a_levi_of_the_other_root_length(empty_gamma_caches):
    """In C2, a* = span(omega_2) is centralized by the short-root A1, which
    is not W-conjugate to the long-root A1.  The verdict is cached per
    expected group: a cached success for the short one does not pass the
    long one."""
    short, long_ = levi_subdatum(C2, [0]), levi_subdatum(C2, [1])
    levi = centralizer_levi(C2, [(0, 1)], expect=short)
    assert {r.vec for r in positive_roots(levi)} == {r.vec for r in positive_roots(short)}
    assert centralizer_levi(C2, [(0, 1)], expect=short) == levi
    assert reduction._conjugate_levi.cache_info()[:2] == (1, 1)  # (hits, misses)
    for _ in range(2):
        with pytest.raises(InternalConsistencyError, match="not conjugate"):
            centralizer_levi(C2, [(0, 1)], expect=long_)


def _catalog_and_ladder():
    return [spec for spec, _ in catalog().values()] + [
        validate_symplectic_spec(build_root_datum(factors), summands)
        for factors, summands in ANALYZE_LADDER.values()
    ]


def test_warm_analysis_equals_cold_on_catalog_and_ladder(empty_gamma_caches):
    """An analysis whose Gamma and Levi come from the per-(datum, a*)
    caches, filled by its own earlier run or by another module with the
    same group and a*, equals one that forms them afresh."""
    specs = _catalog_and_ladder()
    cold = []
    for spec in specs:
        empty_gamma_caches()
        cold.append(repr(analyze(spec)))
    empty_gamma_caches()
    for _ in range(2):
        assert [repr(analyze(spec)) for spec in specs] == cold
    hits = rootdata._subspace_normalizer.cache_info().hits
    assert hits >= len(specs)


def test_warm_gamma_still_checks_the_weyl_cap(empty_gamma_caches):
    """A (datum, a*) whose Gamma and Levi are cached still raises
    WeylCapExceeded under a lower cap, before any lookup."""
    spec = validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)])
    _, td, _, _ = reduce_to_gamma(spec)
    basis = td.a_star_basis
    for call in (
        lambda: compute_gamma(A2, basis, weyl_cap=5),
        lambda: centralizer_levi(A2, basis, weyl_cap=5, expect=td.terminal_group),
        lambda: reduce_to_gamma(spec, weyl_cap=5),
    ):
        with pytest.raises(WeylCapExceeded):
            call()
    assert compute_gamma(A2, basis, weyl_cap=6) == reduce_to_gamma(spec)[2]


@pytest.mark.parametrize(
    "name", ["C3xT1", "F4_26_x2", "A3_mixed_rk3", "G2_adj_x2"]
)
def test_reflection_subgroups_grow_to_the_powerset_closures(name, monkeypatch):
    """Growing conjugation-closed reflection sets one reflection at a time
    finds exactly the closures of all subsets, by (order, degrees).  Each
    set found takes one orbit walk and one closure per orbit of its group
    on the reflections outside it: fewer pairs of calls than (set,
    reflection outside it) pairs, a set's reflection count being
    sum(d - 1)."""
    if name == "C3xT1":
        factors, central, summands = C3T1
    else:
        (factors, summands), central = ANALYZE_LADDER[name], 0
    datum = build_root_datum(factors, central_rank=central)
    gamma = reduce_to_gamma(validate_symplectic_spec(datum, summands))[2]
    closure, calls = reduction._closure, [0]

    def counting_closure(*args):
        calls[0] += 1
        return closure(*args)

    monkeypatch.setattr(reduction, "_closure", counting_closure)
    subs = reflection_subgroups(gamma)
    assert subs == little_weyl_candidates_oracle(gamma, reflection_subgroups_oracle)
    nrefl = len(gamma.reflections)
    outside = sum(nrefl - sum(d - 1 for d in degrees) for _, degrees in subs)
    assert calls[0] % 2 == 0 and calls[0] // 2 < outside
    if name == "C3xT1":
        assert (gamma.gamma_order, nrefl, len(subs)) == (48, 9, 38)


def test_run_reduction_row_reduces_distinct_character_pairs(monkeypatch):
    """C3xT1's terminal module has 3042 character pairs on 179 distinct
    weights; only the distinct ones are row-reduced, and c still counts
    every pair."""
    factors, central, summands = C3T1
    datum = build_root_datum(factors, central_rank=central)
    echelon, rows = reduction.echelon_basis, []

    def recording_echelon(vectors):
        rows.append(len(vectors))
        return echelon(vectors)

    monkeypatch.setattr(reduction, "echelon_basis", recording_echelon)
    spec = validate_symplectic_spec(datum, summands)
    td = run_reduction(spec)[1]
    pairs = terminal_decomposition(terminal_module(spec)).character_pairs
    assert rows and max(rows) <= 179
    assert len(pairs) == 179
    assert (sum(m for _, m in pairs), td.a_rank) == (3042, 3)
    assert td.c == 3042 - 3
