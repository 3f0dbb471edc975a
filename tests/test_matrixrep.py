
from dataclasses import replace

import numpy as np
import pytest

from symprep.errors import BudgetExceeded, InternalConsistencyError, NotSupported
from symprep.linalg import comm, cvec, mat_scale, mat_vec
from symprep.matrixrep import (
    _check_rep,
    _invariant_symplectic_form,
    _summand_matrices,
    build_rep,
    find_hw_vectors,
    hyperbolic_pair,
    simple_coords,
    weight_kernel,
)
from symprep.reps import total_weight_multiset, validate_symplectic_spec
from symprep.rootdata import build_root_datum, positive_roots

from corpus import A1, A2, C2, catalog, verify_ladder
from oracles import (
    assembled_lie_oracle,
    invariant_symplectic_form_oracle,
    rref_hyperbolic_pair_oracle,
)


def test_sp2_standard_model():
    rep = build_rep(validate_symplectic_spec(A1, [((1,), 1)]))
    assert rep.dim == 2
    assert rep.j_exact == ((0, 1), (-1, 0))


def test_sl2_cubic_has_invariant_form():
    rep = build_rep(validate_symplectic_spec(A1, [((3,), 1)]))
    assert rep.dim == 4
    j = np.array(rep.j_exact, dtype=float)
    assert np.linalg.matrix_rank(j) == 4
    for m in rep.lie:
        assert np.max(np.abs(m.T @ j + j @ m)) == 0.0


def test_std_plus_dual_canonical_pairing():
    rep = build_rep(validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)]))
    assert rep.dim == 6
    # cotangent block form
    for a in range(3):
        assert rep.j_exact[a][3 + a] == 1
        assert rep.j_exact[3 + a][a] == -1


def test_weight_multisets_match_combinatorics_across_catalog():
    for name, (spec, _) in catalog().items():
        rep = build_rep(spec)
        got = {}
        for w in rep.weight_labels:
            got[w] = got.get(w, 0) + 1
        assert got == total_weight_multiset(spec.datum, spec.summands), name


def test_bracket_relations_on_all_roots():
    for spec in (
        validate_symplectic_spec(C2, [((1, 0), 1)]),
        validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)]),
    ):
        rep = build_rep(spec)
        for r in positive_roots(spec.datum):
            e = rep.lie_matrix_exact(("e", r.coords))
            f = rep.lie_matrix_exact(("f", r.coords))
            br = comm(e, f)
            diag = rep.coweight_action(r.coroot_vec)
            for a in range(rep.dim):
                for b in range(rep.dim):
                    assert br[a][b] == (diag[a] if a == b else 0)


def test_weight_labels_are_torus_eigenvalues():
    rep = build_rep(validate_symplectic_spec(C2, [((1, 0), 1)]))
    for i in range(rep.datum.rank):
        h = rep.lie_matrix_exact(("h", i))
        for a in range(rep.dim):
            assert h[a][a] == rep.weight_labels[a][i]


def test_hw_vectors_examples():
    rep = build_rep(validate_symplectic_spec(A1, [((1,), 2)]))
    table = dict(find_hw_vectors(rep))
    assert len(table[(1,)]) == 2
    rep = build_rep(validate_symplectic_spec(A1, [((3,), 1)]))
    table = dict(find_hw_vectors(rep))
    assert len(table[(3,)]) == 1
    rep = build_rep(validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)]))
    table = dict(find_hw_vectors(rep))
    assert set(table) == {(1, 0), (0, 1)}


def test_weight_kernel_both_sides_across_catalog():
    """At every weight w of the model, the e-kernel has the multiplicity of w
    among the summands and the f-kernel that of -w; each vector has weight w
    and is killed by every simple e (resp. f)."""
    for name, (spec, _) in catalog().items():
        rep = build_rep(spec)
        rank = rep.datum.rank
        mult = {}
        for w, m in spec.summands:
            mult[cvec(w)] = mult.get(cvec(w), 0) + m
        for w in set(rep.weight_labels):
            for side, top in (("e", w), ("f", cvec(tuple(-x for x in w)))):
                vecs = weight_kernel(rep, w, side)
                assert len(vecs) == mult.get(top, 0), (name, w, side)
                for v in vecs:
                    assert rep.weight_of(v) == w, (name, w, side)
                    for i in range(rank):
                        m = rep.lie_matrix_exact((side, simple_coords(rank, i)))
                        assert not any(mat_vec(m, v)), (name, w, side, i)


def test_even_symplectic_multiplicity_presented_as_pair():
    rep = build_rep(validate_symplectic_spec(A1, [((1,), 2)]))
    assert [b[0] for b in rep.blocks] == ["symplectic_pair"]
    rep = build_rep(validate_symplectic_spec(A1, [((1,), 3)]))
    assert sorted(b[0] for b in rep.blocks) == ["symplectic", "symplectic_pair"]


def test_not_supported_outside_catalog():
    g2 = build_root_datum([("G", 2)])
    spec = validate_symplectic_spec(g2, [((1, 0), 2)])
    with pytest.raises(NotSupported):
        build_rep(spec)
    spec = validate_symplectic_spec(A2, [((2, 0), 1), ((0, 2), 1)])
    with pytest.raises(NotSupported):
        build_rep(spec)


def test_dimension_cap():
    spec = validate_symplectic_spec(A1, [((1,), 40)])
    with pytest.raises(BudgetExceeded):
        build_rep(spec)


def test_external_tensor_product_weights():
    prod = build_root_datum([("A", 1), ("A", 1)])
    spec = validate_symplectic_spec(prod, [((1, 1), 2)])
    rep = build_rep(spec)
    assert rep.dim == 8
    labels = sorted(rep.weight_labels)
    assert labels.count((1, 1)) == 2
    assert labels.count((1, -1)) == 2


def _lone_symplectic_summands(spec):
    return [
        item.weight
        for item in spec.pairing_plan
        if item.kind == "symplectic" and item.count % 2
    ]


def test_closed_form_invariant_form_matches_the_nullspace_solve():
    cases = [
        (sp.datum, w)
        for sp, _ in catalog().values()
        for w in _lone_symplectic_summands(sp)
    ]
    assert len(cases) == 6
    cases += [
        (A1, (5,)),
        (A1, (7,)),
        (build_root_datum([("A", 1), ("C", 2)]), (2, 1, 0)),
        (build_root_datum([("A", 1)] * 3), (1, 1, 1)),
    ]
    c3_a1_t1 = build_root_datum([("C", 3), ("A", 1)], central_rank=1)
    lone = _lone_symplectic_summands(
        validate_symplectic_spec(c3_a1_t1, [((1, 0, 0, 0, 0), 3)])
    )
    assert lone == [(1, 0, 0, 0, 0)]
    cases += [(c3_a1_t1, w) for w in lone]
    for datum, weight in cases:
        gens, labels, blocks = _summand_matrices(datum, weight)
        closed = _invariant_symplectic_form(blocks)
        solved = invariant_symplectic_form_oracle(len(labels), gens)
        assert closed == solved, (datum.type_string(), weight)
        assert repr(closed) == repr(solved), (datum.type_string(), weight)


def _set(mat, a, b, value):
    rows = [list(r) for r in mat]
    rows[a][b] = value
    return tuple(tuple(r) for r in rows)


def _replace_lie(rep, label, mat):
    i = rep.lie_index[label]
    return replace(rep, lie_exact=rep.lie_exact[:i] + (mat,) + rep.lie_exact[i + 1:])


def test_check_rep_catches_each_broken_invariant():
    """Each mutation breaks one structural invariant of a model and must be
    reported by _check_rep with its own message."""
    rep = build_rep(validate_symplectic_spec(C2, [((1, 0), 1)]))
    _check_rep(rep)
    n = rep.dim
    j = rep.j_exact
    e1 = ("e", simple_coords(2, 0))
    labels = list(rep.weight_labels)
    a = 0
    b = next(k for k, w in enumerate(labels) if w[0] != labels[a][0])
    labels[a], labels[b] = labels[b], labels[a]
    cases = [
        (replace(rep, j_exact=_set(j, 0, 1, j[0][1] + 1)), "J is not skew"),
        (replace(rep, j_exact=((0,) * n,) * n), "J is degenerate"),
        (
            _replace_lie(rep, e1, _set(rep.lie_matrix_exact(e1), 0, 0, 1)),
            f"form not invariant under {e1}",
        ),
        (
            replace(rep, weight_labels=tuple(labels)),
            "Cartan matrix ('h', 0) disagrees with weight labels",
        ),
        (
            _replace_lie(rep, e1, mat_scale(2, rep.lie_matrix_exact(e1))),
            f"[e,f] != coroot action for root {e1[1]}",
        ),
    ]
    for broken, message in cases:
        with pytest.raises(InternalConsistencyError) as info:
            _check_rep(broken)
        assert str(info.value) == message


def _oracle_models():
    specs = {name: sp for name, (sp, _) in catalog().items()}
    specs.update(verify_ladder())
    specs["A1xC2_210"] = validate_symplectic_spec(
        build_root_datum([("A", 1), ("C", 2)]), [((2, 1, 0), 1)]
    )
    specs["C3xA1xT1"] = validate_symplectic_spec(
        build_root_datum([("C", 3), ("A", 1)], central_rank=1),
        [((1, 0, 0, 0, 0), 3)],
    )
    return specs


@pytest.mark.parametrize("name", sorted(_oracle_models()))
def test_per_block_lie_action_and_hyperbolic_pair_match_the_oracles(name):
    """Root vectors replayed on each factor block equal those replayed on the
    assembled model, and the raw-kernel hyperbolic pair equals the rref one
    at every highest weight, by repr."""
    rep = build_rep(_oracle_models()[name])
    labels, mats = assembled_lie_oracle(rep)
    assert rep.lie_labels == labels
    assert repr(rep.lie_exact) == repr(mats)
    for chi, _ in rep.spec.summands:
        got = hyperbolic_pair(rep, chi)
        assert None not in got, chi
        assert repr(got) == repr(rref_hyperbolic_pair_oracle(rep, chi)), chi
