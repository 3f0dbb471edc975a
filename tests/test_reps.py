
from fractions import Fraction
from math import comb

import pytest

from symprep import reduction, reps
from symprep.reduction import analyze
from symprep.errors import (
    BudgetExceeded,
    InternalConsistencyError,
    NotACharacter,
    NotSelfDual,
    OddOrthogonalMultiplicity,
)
from symprep.reps import (
    DualityClass,
    decompose_weights,
    duality_class,
    freudenthal_multiplicities,
    invariant_dims,
    symmetric_power_multisets,
    total_weight_multiset,
    validate_symplectic_spec,
    weyl_dim,
)
from symprep.linalg import mat_vec
from symprep.rootdata import build_root_datum

from corpus import A1, A2, C2, C3, T1, catalog
from oracles import (
    invariant_dims_oracle,
    kostant_weight_multiset,
    newton_symmetric_powers,
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


@pytest.mark.parametrize("datum,lam", [
    (A1, (4,)),
    (A2, (1, 1)),
    (A2, (2, 1)),
    (C2, (1, 1)),
    (C2, (0, 2)),
])
def test_freudenthal_matches_kostant_oracle(datum, lam):
    assert freudenthal_multiplicities(datum, lam) == kostant_weight_multiset(
        datum, lam
    )


def test_freudenthal_weyl_invariance():
    mult = freudenthal_multiplicities(C2, (1, 1))
    for w in weyl_matrices_bruteforce(C2):
        for v, m in mult.items():
            assert mult[mat_vec(w, v)] == m


def test_dimension_cap():
    with pytest.raises(BudgetExceeded):
        freudenthal_multiplicities(A1, (6000,), dim_cap=5000)


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


def test_invariant_dims_torus_is_lattice_point_count():
    spec = validate_symplectic_spec(
        T1, [((1,), 1), ((-1,), 1), ((2,), 1), ((-2,), 1)]
    )
    dims = invariant_dims(spec, 6)
    weights = []
    for w, m in spec.weight_multiset().items():
        weights.extend([w] * m)
    # direct count of exponent vectors with zero weighted sum per degree
    from itertools import combinations_with_replacement

    direct = []
    for d in range(7):
        count = 0
        for combo in combinations_with_replacement(range(len(weights)), d):
            if sum(weights[i][0] for i in combo) == 0:
                count += 1
        direct.append(count)
    assert dims == direct
    assert dims[0] == 1


def test_invariant_dims_budget():
    spec = validate_symplectic_spec(A1, [((1,), 10)])
    with pytest.raises(BudgetExceeded):
        invariant_dims(spec, 4, dim_budget=16)


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


@pytest.mark.parametrize("name", sorted(_sympow_oracle_specs()))
def test_symmetric_powers_match_newton_oracle(name):
    multiset = _sympow_oracle_specs()[name].weight_multiset()
    sym = symmetric_power_multisets(multiset, 8)
    assert sym == newton_symmetric_powers(multiset, 8)
    assert all(type(c) is int for hd in sym for c in hd.values())
    assert all(type(x) is int for hd in sym for w in hd for x in w)


def test_symmetric_power_mass_is_cross_checked(monkeypatch):
    reps._sym_powers_cached.cache_clear()
    monkeypatch.setattr(reps, "comb", lambda n, k: comb(n, k) + (k == 3))
    with pytest.raises(InternalConsistencyError, match=r"S\^3 V has mass 4, expected 5"):
        symmetric_power_multisets({(1,): 1, (-1,): 1}, 3)


def test_integrality_cross_checks_raise_a_defect():
    """A weight off the lattice reaches the integrality cross-checks of the
    Weyl dimension and the Frobenius-Schur index, which must raise
    InternalConsistencyError (an assert would vanish under python -O)."""
    half = (Fraction(1, 2),)
    with pytest.raises(InternalConsistencyError, match="not an integer"):
        weyl_dim(A1, half)
    with pytest.raises(InternalConsistencyError, match="not an integer"):
        duality_class(A1, half)


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
