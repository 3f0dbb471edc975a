
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add

import pytest

from symprep import reduction, reps
from symprep.classify import is_singular_weight
from symprep.reduction import analyze
from symprep.errors import (
    BudgetExceeded,
    InternalConsistencyError,
    NotACharacter,
    NotDominant,
    NotSelfDual,
    OddOrthogonalMultiplicity,
    SymprepError,
)
from symprep.reps import (
    DualityClass,
    decompose_weights,
    duality_class,
    freudenthal_multiplicities,
    invariant_dims,
    total_weight_multiset,
    validate_symplectic_spec,
    weyl_dim,
)
from symprep.linalg import mat_vec
from symprep.rootdata import (
    build_root_datum,
    centralizer_datum,
    levi_subdatum,
    positive_roots,
)

from corpus import A1, A2, A3, C2, C3, T1, T2, catalog
from oracles import (
    alternation_targets,
    invariant_dims_oracle,
    kostant_weight_multiset,
    newton_symmetric_powers,
    slot_prefix_symmetric_powers,
    symmetric_power_multisets,
    tuple_invariant_dims,
    weyl_matrices_bruteforce,
)


def test_sl2_strings():
    assert freudenthal_multiplicities(A1, (2,)) == {(2,): 1, (0,): 1, (-2,): 1}
    assert freudenthal_multiplicities(A1, (3,)) == {
        (3,): 1, (1,): 1, (-1,): 1, (-3,): 1
    }


def test_adjoint_a2():
    mult = freudenthal_multiplicities(A2, (1, 1))
    assert weyl_dim(A2, (1, 1)) == 8
    assert mult[(0, 0)] == 2
    assert sum(mult.values()) == 8


def test_c2_small_irreps():
    # the 5-dimensional fundamental and the 10-dimensional adjoint
    m5 = freudenthal_multiplicities(C2, (0, 1))
    assert weyl_dim(C2, (0, 1)) == 5
    assert m5[(0, 0)] == 1
    m10 = freudenthal_multiplicities(C2, (2, 0))
    assert weyl_dim(C2, (2, 0)) == 10
    assert m10[(0, 0)] == 2


B3 = build_root_datum([("B", 3)])
D4 = build_root_datum([("D", 4)])
G2 = build_root_datum([("G", 2)])
F4 = build_root_datum([("F", 4)])
A2xT1 = build_root_datum([("A", 2)], central_rank=1)
# decompose_weights calls Freudenthal on Levis like this C2 inside C3 x T1
C3xT1_LEVI = levi_subdatum(build_root_datum([("C", 3)], central_rank=1), [1, 2])
# Levis whose half-sum rho is fractional, where Freudenthal's denominator
# still reads <lam + mu + 2 rho, alpha_i^vee> = <lam + mu, alpha_i^vee> + 2:
# the A1 of A2 on node 2, half-sum (-1/2, 1), and the A1 of B2 with coroot
# (2, 1), half-sum (1/2, 0)
A2_LEVI_NODE_2 = levi_subdatum(A2, [1])
B2_LEVI_HALF_RHO = centralizer_datum(build_root_datum([("B", 2)]), [(-1, 2)])


@pytest.mark.parametrize("datum,lam", [
    (A1, (4,)),
    (A2, (1, 1)),
    (A2, (2, 1)),
    (C2, (1, 1)),
    (C2, (0, 2)),
    (A3, (1, 0, 1)),
    (A3, (0, 2, 0)),
    (B3, (0, 0, 2)),
    (B3, (1, 0, 1)),
    (C3, (0, 1, 0)),
    (C3, (1, 1, 0)),
    (D4, (0, 1, 0, 0)),
    (D4, (1, 0, 0, 1)),
    (G2, (0, 1)),
    (G2, (1, 1)),
    (F4, (0, 0, 0, 1)),
    (C3xT1_LEVI, (2, 1, 1, 0)),
    (A2xT1, (1, 1, 2)),
    (A2_LEVI_NODE_2, (0, 1)),
    (A2_LEVI_NODE_2, (1, 3)),
    (A2_LEVI_NODE_2, (-1, 4)),
    (B2_LEVI_HALF_RHO, (1, 0)),
    (B2_LEVI_HALF_RHO, (1, -1)),
    (B2_LEVI_HALF_RHO, (2, 1)),
])
def test_freudenthal_matches_kostant_oracle(datum, lam):
    assert freudenthal_multiplicities(datum, lam) == kostant_weight_multiset(
        datum, lam
    )


def test_freudenthal_known_answers_on_e7_and_e8():
    """E7's 56 is minuscule: 56 weights, each once.  The E8 adjoint has its
    240 roots once each and the zero weight 8 times.  The walk visits one
    and two dominant weights, so both take well under the bound."""
    t0 = time.monotonic()
    e7 = freudenthal_multiplicities(build_root_datum([("E", 7)]), (0,) * 6 + (1,))
    assert len(e7) == 56 and set(e7.values()) == {1}
    E8 = build_root_datum([("E", 8)])
    e8 = freudenthal_multiplicities(E8, (0,) * 7 + (1,))
    assert e8.pop((0,) * 8) == 8 and set(e8.values()) == {1}
    roots = {r.vec for r in positive_roots(E8)}
    assert set(e8) == roots | {tuple(-x for x in v) for v in roots}
    assert len(e8) == 240
    assert time.monotonic() - t0 < 5


def test_freudenthal_weyl_invariance():
    mult = freudenthal_multiplicities(C2, (1, 1))
    for w in weyl_matrices_bruteforce(C2):
        for v, m in mult.items():
            assert mult[mat_vec(w, v)] == m


def test_dimension_cap():
    with pytest.raises(BudgetExceeded):
        freudenthal_multiplicities(A1, (6000,))


def test_duality_examples():
    assert duality_class(A1, (1,)) is DualityClass.SYMPLECTIC
    assert duality_class(A1, (2,)) is DualityClass.ORTHOGONAL
    assert duality_class(A2, (1, 0)) is DualityClass.COMPLEX
    assert duality_class(C2, (1, 0)) is DualityClass.SYMPLECTIC
    assert duality_class(C2, (0, 1)) is DualityClass.ORTHOGONAL
    # invariant under passing to the dual
    from symprep.rootdata import dual_weight

    for datum, lam in [(A2, (2, 1)), (C2, (1, 1)), (A1, (5,))]:
        assert duality_class(datum, lam) is duality_class(
            datum, dual_weight(datum, lam)
        )


def test_validate_accepts_and_rejects():
    spec = validate_symplectic_spec(A1, [((1,), 1)])
    assert spec.dim == 2
    assert spec.pairing_plan[0].kind == "symplectic"
    with pytest.raises(OddOrthogonalMultiplicity):
        validate_symplectic_spec(A1, [((2,), 1)])
    with pytest.raises(NotSelfDual):
        validate_symplectic_spec(A2, [((1, 0), 1)])
    # orthogonal with even multiplicity and complex dual pairs are fine
    validate_symplectic_spec(A1, [((2,), 2)])
    validate_symplectic_spec(A2, [((1, 0), 2), ((0, 1), 2)])


def test_spec_dim_and_multiplicities_are_formed_once(monkeypatch):
    """A spec sums its Weyl dimensions once, when it is made, and reads a
    multiplicity from a table: neither read calls `weyl_dim` or `cvec`."""
    spec = validate_symplectic_spec(A2, [((1, 0), 2), ((0, 1), 2), ((1, 1), 2)])

    def unreachable(*args):
        raise AssertionError("formed again")

    for name in ("weyl_dim", "cvec"):
        monkeypatch.setattr(reps, name, unreachable)
    assert spec.dim == 2 * (3 + 3 + 8)
    assert [spec.multiplicity(w) for w in [(1, 1), (0, 1), (2, 0)]] == [2, 2, 0]


def test_module_self_duality_after_validation():
    spec = validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)])
    ws = spec.weight_multiset()
    assert ws == {tuple(-x for x in w): m for w, m in ws.items()}


def test_decompose_examples():
    assert decompose_weights(A1, {(1,): 1, (-1,): 1}) == [((1,), 1)]
    assert decompose_weights(A1, {(2,): 1, (0,): 2, (-2,): 1}) == [
        ((2,), 1), ((0,), 1)
    ]
    assert decompose_weights(T1, {(5,): 2}) == [((5,), 2)]


def test_decompose_inverts_sums_of_irreducibles():
    pieces = [((2, 1), 1), ((1, 0), 2), ((0, 0), 3)]
    ws = total_weight_multiset(A2, pieces)
    out = decompose_weights(A2, ws)
    assert sorted(out) == sorted(pieces)


def test_decompose_rejects_non_characters():
    with pytest.raises(NotACharacter):
        decompose_weights(A1, {(1,): 1})
    with pytest.raises(NotACharacter):
        decompose_weights(A1, {(2,): 1, (0,): 1, (-2,): 1, (1,): 1})


def test_symmetric_powers_small():
    ws = {(1,): 1, (-1,): 1}
    sym = symmetric_power_multisets(ws, 3)
    assert sym[0] == {(0,): 1}
    assert sym[1] == ws
    assert sym[2] == {(2,): 1, (0,): 1, (-2,): 1}
    assert sym[3] == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}


def test_invariant_dims_examples_against_oracle():
    cases = [
        (A1, [((1,), 2)], 4, [1, 0, 1, 0, 1]),
        (C2, [((1, 0), 1)], 4, [1, 0, 0, 0, 0]),
        (A1, [((3,), 1)], 8, [1, 0, 0, 0, 1, 0, 0, 0, 1]),
    ]
    for datum, summands, deg, expected in cases:
        spec = validate_symplectic_spec(datum, summands)
        dims = invariant_dims(spec, deg)
        assert dims == expected
        weights = []
        for w, m in spec.weight_multiset().items():
            weights.extend([w] * m)
        assert invariant_dims_oracle(datum, weights, deg) == expected


def _zero_sum_monomials(spec, degree):
    """Per degree d <= degree, the number of degree-d monomials in the weight
    vectors of V whose weights sum to zero: dim (S^d V)^T for a torus."""
    weights = []
    for w, m in spec.weight_multiset().items():
        weights.extend([w] * m)
    counts = []
    for d in range(degree + 1):
        counts.append(sum(
            1
            for combo in combinations_with_replacement(weights, d)
            if not any(map(sum, zip(*combo)))
        ))
    return counts


def test_invariant_dims_torus_is_lattice_point_count():
    spec = validate_symplectic_spec(
        T1, [((1,), 1), ((-1,), 1), ((2,), 1), ((-2,), 1)]
    )
    dims = invariant_dims(spec, 6)
    assert dims == _zero_sum_monomials(spec, 6)
    assert dims[0] == 1


def test_invariant_dims_torus_with_large_weights():
    """a + b + c = 0 for a = (1000, -1000), b = (-1000, 1), c = (0, 999): the
    S^6 weights fill the box |v_a| <= 6000, so the key radix is 12001."""
    spec = validate_symplectic_spec(
        T2,
        [((1000, -1000), 1), ((-1000, 1000), 1), ((-1000, 1), 1),
         ((1000, -1), 1), ((0, 999), 1), ((0, -999), 1)],
    )
    dims = invariant_dims(spec, 6)
    assert dims == _zero_sum_monomials(spec, 6)
    assert dims[3] == 2


def test_invariant_dims_skip_targets_outside_the_box():
    """gl2_std_dual at degree 1: the S^1 weights fill the box |v_a| <= 1, so
    the key radix is 3.  The target s rho - rho = (-2, 0) lies outside the
    box and is skipped: a coordinate outside the box carries into the next
    digit of its key, which could then alias a weight inside the box
    (keyed without the height digit, (-2, 0) was the key of (1, -1), as
    -2 = 1 - 3, and the alternation gave dimension -1)."""
    spec = catalog()["gl2_std_dual"][0]
    assert invariant_dims(spec, 1) == [1, 0]


def test_invariant_dims_budget():
    spec = validate_symplectic_spec(A1, [((1,), 10)])
    with pytest.raises(BudgetExceeded):
        invariant_dims(spec, 4)


def _sympow_oracle_specs():
    a4 = build_root_datum([("A", 4)])
    a5 = build_root_datum([("A", 5)])
    specs = {name: sp for name, (sp, _) in catalog().items()}
    specs["A4_std_dual"] = validate_symplectic_spec(
        a4, [((1, 0, 0, 0), 1), ((0, 0, 0, 1), 1)]
    )
    specs["A5_std_dual"] = validate_symplectic_spec(
        a5, [((1, 0, 0, 0, 0), 1), ((0, 0, 0, 0, 1), 1)]
    )
    specs["C3_wedge3"] = validate_symplectic_spec(C3, [((0, 0, 1), 1)])
    return specs


def _invariant_dims_oracle_specs():
    specs = _sympow_oracle_specs()
    specs["C4_std"] = validate_symplectic_spec(
        build_root_datum([("C", 4)]), [((1, 0, 0, 0), 1)]
    )
    specs["D4_vec_x2"] = validate_symplectic_spec(
        build_root_datum([("D", 4)]), [((1, 0, 0, 0), 2)]
    )
    # a Levi of B2 whose coroot is (2, 1): its half-sum rho is fractional,
    # while the walk forms each target w rho - rho from the simple roots
    specs["B2_levi_half_rho"] = validate_symplectic_spec(
        B2_LEVI_HALF_RHO, [((1, 0), 2), ((1, -1), 1), ((0, 1), 1)]
    )
    # zero-weight slots (the 7-dim modules of G2 and B3) and, on GL3, slots
    # of every sign of height over a central torus
    specs["G2_7_x2"] = validate_symplectic_spec(build_root_datum([("G", 2)]), [((1, 0), 2)])
    specs["B3_7_x2"] = validate_symplectic_spec(build_root_datum([("B", 3)]), [((1, 0, 0), 2)])
    specs["GL3_std_dual_x2"] = validate_symplectic_spec(
        build_root_datum([("A", 2)], central_rank=1), [((1, 0, 1), 2), ((0, 1, -1), 2)]
    )
    specs["A6_std_dual"] = validate_symplectic_spec(
        build_root_datum([("A", 6)]), [((1, 0, 0, 0, 0, 0), 1), ((0, 0, 0, 0, 0, 1), 1)]
    )
    return specs


# |W(A6)| = 5040 brute-force matrices and dim V = 14: degrees <= 6 only
ORACLE_DEGREE = {"A6_std_dual": 6}


@pytest.mark.parametrize("name", sorted(_invariant_dims_oracle_specs()))
def test_invariant_dims_match_oracles_at_every_degree(name):
    """Each max_degree D sets its own key box |v_a| <= D max|mu_a| and walk
    depth; every D from 1 to 10 (6 on A6) must agree with the tuple-keyed
    recursion.  Monomial enumeration visits C(dim V + d, d) monomials up to
    degree d, so it runs to degree 10 up to dim 8, 8 up to dim 12 and 6
    beyond."""
    spec = _invariant_dims_oracle_specs()[name]
    top = ORACLE_DEGREE.get(name, 10)
    expected = tuple_invariant_dims(spec, top)
    for d in range(1, top + 1):
        assert invariant_dims(spec, d) == expected[: d + 1]
    d = min(top, 10 if spec.dim <= 8 else 8 if spec.dim <= 12 else 6)
    weights = [w for w, m in spec.weight_multiset().items() for _ in range(m)]
    assert invariant_dims_oracle(spec.datum, weights, d) == expected[: d + 1]


def test_oracle_specs_have_zero_weight_and_mixed_height_slots():
    specs = _invariant_dims_oracle_specs()
    for name in ("G2_7_x2", "B3_7_x2"):
        assert specs[name].dim == 14
        assert specs[name].weight_multiset()[(0,) * specs[name].datum.ambient_dim] == 2
    gl3 = specs["GL3_std_dual_x2"]
    heights = {reps.weight_key(gl3.datum, w)[0] for w in gl3.weight_multiset()}
    assert min(heights) < 0 < max(heights)


@pytest.mark.parametrize("name", sorted(_sympow_oracle_specs()))
def test_symmetric_powers_match_newton_oracle(sym_power_pass, name):
    """The full-box reference recursion agrees with Newton's identity, and
    the library keeps exactly: below degree D - 1 its weights of height <=
    0; at D - 1 each target, and each weight w with a target w + s_j for a
    slot j, counted over the monomials whose last slot is at most the last
    such j; at D the targets.  Keys carry the 2 rho^vee-height as the top
    digit, slots are in ascending key, and the walk depth is D times the
    deepest weight of V."""
    spec = _sympow_oracle_specs()[name]
    multiset = spec.weight_multiset()
    top = 8
    sym = symmetric_power_multisets(multiset, top)
    assert sym == newton_symmetric_powers(multiset, top)
    assert all(type(c) is int for hd in sym for c in hd.values())
    assert all(type(x) is int for hd in sym for w in hd for x in w)
    datum = spec.datum
    invariant_dims(spec, top)
    bound, depth, cut = (sym_power_pass[k] for k in ("bound", "depth", "h"))
    radix = 2 * bound + 1

    def height(w):
        return reps.weight_key(datum, w)[0]

    def key(w):
        return reps._int_key(w, radix) + height(w) * radix ** datum.ambient_dim

    targets = {t for t, _ in alternation_targets(datum)}
    slots = sorted((w for w, m in multiset.items() for _ in range(m)), key=key)
    prefix = slot_prefix_symmetric_powers(slots, top - 1)
    below = {}
    for w, c in sym[top - 1].items():
        if w not in targets:
            ends = [j for j, s in enumerate(slots) if tuple(map(add, w, s)) in targets]
            c = prefix[ends[-1]].get(w, 0) if ends else 0
        if c:
            below[key(w)] = c
    expected = [{key(w): c for w, c in hd.items() if height(w) <= 0} for hd in sym[: top - 1]]
    expected += [below, {key(t): sym[top][t] for t in targets if t in sym[top]}]
    assert list(cut) == expected
    assert depth == top * max(-height(w) for w in multiset)


def test_symmetric_power_mass_is_cross_checked(mutate_invariant_dims):
    """A recursion that loses one state's count fails the exact mass check.
    On A1 std x 2 (steps -1, -1, +1, +1) S^1 V keeps the weight -1 twice
    and drops +1 twice, each with C(r - 1, 0) = 1 extension of degree 1;
    S^4 V keeps only its targets 0 (9 times) and -2 (8 times)."""
    spec = validate_symplectic_spec(A1, [((1,), 2)])
    assert invariant_dims(spec, 3) == [1, 0, 1, 0]
    mutate_invariant_dims("lose_state")
    with pytest.raises(InternalConsistencyError,
                       match=r"S\^1 V has mass 0 kept \+ 2 dropped, expected 4"):
        invariant_dims(spec, 3)
    mutate_invariant_dims("lose_top_state")
    with pytest.raises(InternalConsistencyError,
                       match=r"S\^4 V has mass 9 kept \+ 18 dropped, expected 35"):
        invariant_dims(spec, 4)


@pytest.mark.parametrize("name", ["sl2_two_standards", "G2_7_x2", "GL3_std_dual_x2"])
def test_an_overcut_is_caught_by_the_oracle(mutate_invariant_dims, name):
    """A recursion that drops a degree-(D - 1) state still reaching a target,
    and books it as dropped, keeps every mass exact, so no cross-check of
    the library fires; only the top degree is wrong, against the oracle."""
    spec = _invariant_dims_oracle_specs()[name]
    expected = tuple_invariant_dims(spec, 4)
    assert invariant_dims(spec, 4) == expected
    mutate_invariant_dims("overcut")
    got = invariant_dims(spec, 4)
    assert got[:4] == expected[:4] and got[4] != expected[4]


@pytest.mark.parametrize("mutation", ["lose_point", "flip_sign"])
@pytest.mark.parametrize("name", ["torus_pair", "sl2_two_standards", "B2_levi_half_rho",
                                  "G2_7_x2", "A5_std_dual"])
def test_rho_walk_is_held_to_the_denominator_identity(mutate_invariant_dims, mutation, name):
    """A walk that loses a point or flips a sign breaks sum (-1)^l(w)
    q^depth = prod (1 - q^(2 ht alpha)) up to q^depth."""
    spec = _invariant_dims_oracle_specs()[name]
    mutate_invariant_dims(mutation)
    with pytest.raises(InternalConsistencyError, match="Weyl denominator identity"):
        invariant_dims(spec, 4)


@pytest.mark.parametrize("mutation, message", [
    ("swapped", "negative invariant dimension"),
    ("doubled", "degree-0 invariants must be 1-dim"),
])
def test_the_alternation_is_cross_checked(mutate_invariant_dims, mutation, message):
    """Targets that reach the read with their signs swapped, or with the
    identity counted twice, raise at degree 0."""
    mutate_invariant_dims(mutation)
    with pytest.raises(InternalConsistencyError, match=message):
        invariant_dims(catalog()["sl3_std_dual"][0], 2)


def test_integrality_cross_checks_raise_a_defect():
    """A weight off the lattice reaches the integrality cross-checks of the
    Weyl dimension, the Frobenius-Schur index and the int keys of symmetric
    powers (where it would miss every key silently), which must raise
    InternalConsistencyError (an assert would vanish under python -O).  On
    a torus no Weyl dimension sees it, so the summands +-1/2 validate and
    reach the int keys."""
    half = (Fraction(1, 2),)
    with pytest.raises(InternalConsistencyError, match="not an integer"):
        weyl_dim(A1, half)
    with pytest.raises(InternalConsistencyError, match="not an integer"):
        duality_class(A1, half)
    spec = validate_symplectic_spec(T1, [(half, 1), ((-half[0],), 1)])
    with pytest.raises(InternalConsistencyError, match="non-integer coordinate"):
        reps._invariant_dims_cached(T1, spec.summands, 2)


def test_cached_weight_facts_raise_on_every_call():
    """weyl_dim, duality_class, a weight's sort key and dominance, and
    is_singular_weight with the character test are kept per (datum,
    weight), levi_subdatum per (datum, subset) and a reduction step's frame
    per (datum, chi), but a raise is never kept: the same bad input raises
    on a second call too, after the facts it reads were kept."""
    sp4 = validate_symplectic_spec(C2, [((1, 0), 1)])
    sl3 = validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)])
    reduction.reduce_step(sl3, (1, 0))  # keeps the frame at (A2, (1, 0))
    for _ in range(2):
        with pytest.raises(NotDominant):
            weyl_dim(A2, (1, -1))
        with pytest.raises(NotDominant):
            duality_class(A2, [-1, 0])
        with pytest.raises(NotDominant, match="highest weight"):
            validate_symplectic_spec(A2, [((1, 0), 1), ((1, -1), 1)])
        with pytest.raises(NotACharacter, match="is not dominant"):
            decompose_weights(A2, {(-1, 0): 1})
        with pytest.raises(SymprepError, match="not dominant"):
            is_singular_weight(A2, (0, -1))
        with pytest.raises(SymprepError, match="not a non-terminal weight"):
            reduction.reduce_step(sp4, (1, 0))
        with pytest.raises(SymprepError, match="not a summand"):
            reduction.reduce_step(sl3, (1, 1))
        with pytest.raises(IndexError):
            levi_subdatum(A2, [0, 2])
    assert weyl_dim(A2, [1, 1]) == weyl_dim(A2, (Fraction(1), 1)) == 8


def test_decompose_weights_evaluates_weight_key_once_per_weight(monkeypatch):
    """The S-modules of C3xT1 with hw (0,1,2,0)x2 + (0,2,2,0)x2 have
    hundreds of weights; extracting maximal weights in one sorted pass keys
    each weight once, where a max per extraction keyed them 95672 times."""
    key, decompose = reps.weight_key, reduction.decompose_weights
    calls, seen = [0], []

    def counting_key(datum, w):
        calls[0] += 1
        return key(datum, w)

    def counting_decompose(datum, multiset):
        calls[0] = 0
        out = decompose(datum, multiset)
        seen.append((calls[0], len(multiset)))
        return out

    monkeypatch.setattr(reps, "weight_key", counting_key)
    monkeypatch.setattr(reduction, "decompose_weights", counting_decompose)
    c3t1 = build_root_datum([("C", 3)], central_rank=1)
    analyze(validate_symplectic_spec(c3t1, [((0, 1, 2, 0), 2), ((0, 2, 2, 0), 2)]))
    assert seen and max(size for _, size in seen) > 100
    assert all(n <= size for n, size in seen)
