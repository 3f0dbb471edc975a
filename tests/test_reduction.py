import pytest

from symprep import reduction
from symprep.errors import InternalConsistencyError, NoNonTerminalWeight, WeylCapExceeded
from symprep.linalg import mat_vec, same_span
from symprep.reduction import (
    analyze,
    centralizer_levi,
    choose_nonterminal_weight,
    compute_gamma,
    molien_series,
    reduce_step,
    reduce_to_gamma,
    reflection_degrees,
    reflection_subgroups,
    run_reduction,
)
from symprep.reps import validate_symplectic_spec
from symprep.rootdata import build_root_datum, levi_subdatum, positive_roots

from corpus import A1, A2, C2, T1, ANALYZE_LADDER, catalog
from oracles import (
    molien_series_oracle,
    reflection_subgroups_oracle,
    weyl_matrices_bruteforce,
)

# C3xT1 with hw (0,1,2,0)x2 + (0,2,2,0)x2: not multiplicity free, with a
# Gamma of order 48 holding 9 reflections.
C3T1 = ([("C", 3)], 1, [((0, 1, 2, 0), 2), ((0, 2, 2, 0), 2)])


def test_choose_nonterminal_weight():
    assert choose_nonterminal_weight(
        validate_symplectic_spec(A1, [((1,), 2)])
    ) == (1,)
    assert choose_nonterminal_weight(
        validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)])
    ) == (1, 0)
    assert choose_nonterminal_weight(
        validate_symplectic_spec(A1, [((3,), 1)])
    ) == (3,)
    with pytest.raises(NoNonTerminalWeight):
        choose_nonterminal_weight(validate_symplectic_spec(C2, [((1, 0), 1)]))


def test_reduce_step_examples():
    step, s = reduce_step(validate_symplectic_spec(A1, [((1,), 2)]), (1,))
    assert len(step.delta_u) == 1
    assert step.levi.rank == 0
    assert dict(step.s_weights) == {(1,): 1, (-1,): 1}

    step, s = reduce_step(
        validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)]), (1, 0)
    )
    assert len(step.delta_u) == 2
    assert step.levi.factors == (("A", 1),)
    assert sum(dict(step.s_weights).values()) == 2

    step, s = reduce_step(validate_symplectic_spec(A1, [((3,), 1)]), (3,))
    assert dict(step.s_weights) == {(3,): 1, (-3,): 1}


def test_step_conservation_across_catalog():
    for name, (spec, _) in catalog().items():
        trace, td = run_reduction(spec)
        current = spec
        for step in trace:
            assert step.s_spec.dim == current.dim - 2 * len(step.delta_u)
            ws = dict(step.s_weights)
            assert ws == {tuple(-x for x in w): m for w, m in ws.items()}
            current = step.s_spec


def test_run_reduction_examples():
    trace, td = run_reduction(validate_symplectic_spec(C2, [((1, 0), 1)]))
    assert not trace and td.sp_factor_sizes == (2,) and td.a_star_basis == ()

    trace, td = run_reduction(validate_symplectic_spec(A1, [((1,), 2)]))
    assert len(trace) == 1
    assert td.character_pairs == (((1,), 1),)
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
    levi = centralizer_levi(C2, [], expect=None)
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
    assert g.gamma_order == 2 and len(g.reflection_indices) == 1
    _, td = run_reduction(validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)]))
    g = compute_gamma(A2, td.a_star_basis)
    assert g.gamma_order == 1
    g = compute_gamma(A2, [])
    assert g.gamma_order == 1


def test_molien_series_of_sign_group():
    flip = ((-1,),)
    ident = ((1,),)
    series = molien_series([ident, flip], 6)
    assert series == [1, 0, 1, 0, 1, 0, 1]
    assert reflection_degrees([ident, flip]) == (2,)
    assert molien_series([ident], 4) == [1, 1, 1, 1, 1]
    assert reflection_degrees([ident]) == (1,)


# The degrees of the irreducible Weyl groups (Humphreys, Reflection Groups
# and Coxeter Groups, 1990, Table 3.1).
WEYL_DEGREES = {
    ("A", 1): (2,), ("A", 2): (2, 3), ("A", 3): (2, 3, 4), ("A", 4): (2, 3, 4, 5),
    ("B", 2): (2, 4), ("B", 3): (2, 4, 6), ("B", 4): (2, 4, 6, 8),
    ("C", 3): (2, 4, 6), ("D", 4): (2, 4, 4, 6), ("G", 2): (2, 6),
    ("F", 4): (2, 6, 8, 12),
}


@pytest.mark.parametrize("factor", list(WEYL_DEGREES), ids=lambda f: "%s%d" % f)
def test_weyl_group_degrees_match_the_table(factor):
    mats = weyl_matrices_bruteforce(build_root_datum([factor]))
    assert reflection_degrees(mats) == WEYL_DEGREES[factor]
    assert molien_series(mats, 10) == molien_series_oracle(mats, 10)


def test_a_rotation_group_has_no_reflection_degrees():
    """The rotations of W(A2) fix only 0: their count 1 + 2 t^2 has no
    factor 1 + m t."""
    r = ((0, -1), (1, -1))
    mats = [((1, 0), (0, 1)), r, ((-1, 1), (-1, 0))]
    with pytest.raises(InternalConsistencyError, match="does not split"):
        reflection_degrees(mats)


def _gammas_of_catalog_and_ladder():
    for name, (spec, _) in catalog().items():
        yield name, reduce_to_gamma(spec)[2]
    ladder = {name: (factors, 0, summands)
              for name, (factors, summands) in ANALYZE_LADDER.items()}
    for name, (factors, central, summands) in dict(ladder, C3xT1=C3T1).items():
        datum = build_root_datum(factors, central_rank=central)
        yield name, reduce_to_gamma(validate_symplectic_spec(datum, summands))[2]


def test_reflection_subgroup_series_match_the_power_trace_oracle():
    """The series determine_little_weyl matches, read off the fixed-space
    codimensions Gamma carries, equal the Molien series by power traces, on
    all 100 reflection subgroups of the catalog's, the ladder's and C3xT1's
    Gammas."""
    seen = 0
    for name, gamma in _gammas_of_catalog_and_ladder():
        k = len(gamma.a_star_basis)
        codim = dict(zip(gamma.gamma_matrices, gamma.fixed_codims))
        for sub in reflection_subgroups(gamma):
            degrees = reduction._degrees_from_codims([codim[g] for g in sub], k)
            want = molien_series_oracle(sorted(sub), 10)
            assert reduction._degree_series(degrees, 10) == want, (name, len(sub))
            assert molien_series(sorted(sub), 10) == want, (name, len(sub))
            seen += 1
    assert seen == 100


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
    spec = validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)])
    base_trace, base_td = run_reduction(spec)
    for w, _ in spec.summands:
        from symprep.classify import WeightStatus, weight_status

        if weight_status(spec, w) is not WeightStatus.NON_TERMINAL:
            continue
        trace, td = run_reduction(spec, first_choice=w)
        assert (td.a_rank, td.c) == (base_td.a_rank, base_td.c)
        conj = any(
            same_span([mat_vec(we, b) for b in td.a_star_basis], list(base_td.a_star_basis))
            for we in weyl_matrices_bruteforce(spec.datum)
        ) if td.a_star_basis else not base_td.a_star_basis
        assert conj


def test_centralizer_levi_rejects_a_levi_of_the_other_root_length():
    """In C2, a* = span(omega_2) is centralized by the short-root A1, which
    is not W-conjugate to the long-root A1."""
    short, long_ = levi_subdatum(C2, [0]), levi_subdatum(C2, [1])
    levi = centralizer_levi(C2, [(0, 1)], expect=short)
    assert {r.vec for r in positive_roots(levi)} == {r.vec for r in positive_roots(short)}
    with pytest.raises(InternalConsistencyError, match="not conjugate"):
        centralizer_levi(C2, [(0, 1)], expect=long_)


@pytest.mark.parametrize(
    "name", ["C3xT1", "F4_26_x2", "A3_mixed_rk3", "G2_adj_x2"]
)
def test_reflection_subgroups_grow_to_the_powerset_closures(name, monkeypatch):
    """Growing subgroups one reflection at a time finds exactly the closures
    of all subsets, in the same order, with at most one closure per
    (subgroup, reflection)."""
    if name == "C3xT1":
        factors, central, summands = C3T1
    else:
        (factors, summands), central = ANALYZE_LADDER[name], 0
    datum = build_root_datum(factors, central_rank=central)
    gamma = reduce_to_gamma(validate_symplectic_spec(datum, summands))[2]
    closure, calls = reduction.group_closure, [0]

    def counting_closure(gens, dim):
        calls[0] += 1
        return closure(gens, dim)

    monkeypatch.setattr(reduction, "group_closure", counting_closure)
    subs = reflection_subgroups(gamma)
    assert subs == reflection_subgroups_oracle(gamma)
    nrefl = len(gamma.reflection_indices)
    assert calls[0] <= len(subs) * nrefl
    if name == "C3xT1":
        assert (len(gamma.gamma_matrices), nrefl, len(subs)) == (48, 9, 38)


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
    td = run_reduction(validate_symplectic_spec(datum, summands))[1]
    assert rows and max(rows) <= 179
    assert len(td.character_pairs) == 179
    assert (sum(m for _, m in td.character_pairs), td.a_rank) == (3042, 3)
    assert td.c == 3042 - 3
