
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symprep import matrixrep
from symprep.errors import BudgetExceeded, InternalConsistencyError
from symprep.linalg import (
    cvec,
    dense,
    identity,
    mat_vec,
    rank,
    sparse_mul,
)
from symprep.matrixrep import (
    _check_rep,
    _irreducible_block,
    _invariant_symplectic_form,
    _summand_matrices,
    build_rep,
    find_hw_vectors,
    hyperbolic_pair,
    image_weight,
    root_recipes,
    simple_coords,
    unit_columns,
    weight_kernel,
)
from symprep.reps import (
    freudenthal_multiplicities,
    total_weight_multiset,
    validate_symplectic_spec,
    weyl_dim,
)
from symprep.rootdata import build_root_datum, cartan_matrix, positive_roots

from corpus import A1, A2, C2, catalog, verify_ladder
from oracles import (
    assembled_lie_oracle,
    dense_comm,
    invariant_symplectic_form_oracle,
    lie_matrix_exact,
    root_recipes_oracle,
    rref_hyperbolic_pair_oracle,
    sl2_block_oracle,
    sln_standard_block_oracle,
    sparse_rows,
)


def test_sp2_standard_model():
    rep = build_rep(validate_symplectic_spec(A1, [((1,), 1)]))
    assert rep.dim == 2
    assert dense(rep.j_exact, rep.dim) == ((0, 1), (-1, 0))


def test_sl2_cubic_has_invariant_form():
    rep = build_rep(validate_symplectic_spec(A1, [((3,), 1)]))
    assert rep.dim == 4
    j = rep.j
    assert np.linalg.matrix_rank(j) == 4
    for m in rep.lie:
        assert np.max(np.abs(m.T @ j + j @ m)) == 0.0


def test_std_plus_dual_canonical_pairing():
    rep = build_rep(validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)]))
    assert rep.dim == 6
    # cotangent block form
    j = dense(rep.j_exact, rep.dim)
    for a in range(3):
        assert j[a][3 + a] == 1
        assert j[3 + a][a] == -1


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
            e = lie_matrix_exact(rep, ("e", r.vec))
            f = lie_matrix_exact(rep, ("f", r.vec))
            br = dense_comm(e, f)
            diag = rep.coweight_action(r.coroot_vec)
            for a in range(rep.dim):
                for b in range(rep.dim):
                    assert br[a][b] == (diag[a] if a == b else 0)


def test_weight_labels_are_torus_eigenvalues():
    rep = build_rep(validate_symplectic_spec(C2, [((1, 0), 1)]))
    for i in range(rep.datum.rank):
        h = lie_matrix_exact(rep, ("h", i))
        for a in range(rep.dim):
            assert h[a][a] == rep.weight_labels[a][i]


def _hw_dims(rep):
    """The dimension of each nonzero highest-weight space of the model."""
    roots = rep.datum.simple_roots
    dims = {
        w: len(weight_kernel(rep, w, "e", group, roots))
        for w, group in unit_columns(rep).items()
    }
    return {w: k for w, k in dims.items() if k}


def test_hw_vectors_examples():
    for summands, want in (
        ([((1,), 2)], {(1,): 2}),
        ([((3,), 1)], {(3,): 1}),
    ):
        rep = build_rep(validate_symplectic_spec(A1, summands))
        assert _hw_dims(rep) == want
        find_hw_vectors(rep)
    rep = build_rep(validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)]))
    assert _hw_dims(rep) == {(1, 0): 1, (0, 1): 1}
    find_hw_vectors(rep)


def test_find_hw_vectors_refuses_a_spec_it_disagrees_with():
    """find_hw_vectors holds the kernel dimensions to the spec: the model of
    two standard sl2 modules disagrees with a spec of one."""
    rep = build_rep(validate_symplectic_spec(A1, [((1,), 2)]))
    one = validate_symplectic_spec(A1, [((1,), 1)])
    with pytest.raises(InternalConsistencyError) as info:
        find_hw_vectors(replace(rep, spec=one))
    assert str(info.value) == (
        "highest-weight structure {(1,): 2} disagrees with the spec {(1,): 1}"
    )


def test_weight_kernel_both_sides_across_catalog():
    """At every weight w of the model, the e-kernel has the multiplicity of w
    among the summands and the f-kernel that of -w; each vector has weight w
    and is killed by every simple e (resp. f)."""
    for name, (spec, _) in catalog().items():
        rep = build_rep(spec)
        roots = rep.datum.simple_roots
        mult = {}
        for w, m in spec.summands:
            mult[cvec(w)] = mult.get(cvec(w), 0) + m
        for w, group in unit_columns(rep).items():
            for side, top in (("e", w), ("f", cvec(tuple(-x for x in w)))):
                vecs = weight_kernel(rep, w, side, group, roots)
                assert len(vecs) == mult.get(top, 0), (name, w, side)
                for v in vecs:
                    assert rep.weight_of(v) == w, (name, w, side)
                    for root in roots:
                        m = lie_matrix_exact(rep, (side, root))
                        assert not any(mat_vec(m, v)), (name, w, side, root)


def test_weight_kernel_reads_a_levis_simple_roots():
    """With a Levi's simple roots, weight_kernel keeps the vectors that only
    those raising matrices kill: on sl3's defining module plus its dual, the
    Levi of alpha_2 sees the defining module's middle weight as a highest
    weight, the whole group does not."""
    rep = build_rep(validate_symplectic_spec(A2, [((1, 0), 1), ((0, 1), 1)]))
    units = unit_columns(rep)
    w = (-1, 1)  # omega_2 - omega_1, the middle weight of the defining module
    assert weight_kernel(rep, w, "e", units[w], rep.datum.simple_roots) == []
    levi = [rep.datum.simple_roots[1]]
    assert len(weight_kernel(rep, w, "e", units[w], levi)) == 1


def test_image_weight_shifts_by_the_labels_root():
    """A root vector is named by its root: e maps V_mu into V_(mu + alpha),
    f into V_(mu - alpha), and h and z keep the weight (`_check_rep` holds
    every model to it)."""
    mu = (1, 0)
    assert image_weight(mu, ("e", (2, -1))) == (3, -1)
    assert image_weight(mu, ("f", (2, -1))) == (-1, 1)
    assert image_weight(mu, ("h", 0)) == mu and image_weight(mu, ("z", 0)) == mu


def test_even_symplectic_multiplicity_presented_as_pair():
    """Two copies of sl2's standard module are one U + U*, J the hyperbolic
    form [[0, I], [-I, 0]]; three are that pair plus a lone copy carrying
    its own invariant form."""
    hyperbolic = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
    rep = build_rep(validate_symplectic_spec(A1, [((1,), 2)]))
    assert dense(rep.j_exact, rep.dim) == hyperbolic
    assert rep.weight_labels == ((1,), (-1,), (-1,), (1,))
    rep = build_rep(validate_symplectic_spec(A1, [((1,), 3)]))
    lone = ((0, 0, 0, 0, 0, 1), (0, 0, 0, 0, -1, 0))
    assert dense(rep.j_exact, rep.dim) == (
        tuple(row + (0, 0) for row in hyperbolic) + lone
    )


def test_models_beyond_the_closed_forms_build():
    """G2's 7 twice and S^2 + its dual on sl3, which had no model before the
    generic construction: each builds (build_rep runs _check_rep) with the
    combinatorial weights and highest-weight structure."""
    g2 = build_root_datum([("G", 2)])
    for spec, dim in (
        (validate_symplectic_spec(g2, [((1, 0), 2)]), 14),
        (validate_symplectic_spec(A2, [((2, 0), 1), ((0, 2), 1)]), 12),
    ):
        rep = build_rep(spec)
        assert rep.dim == dim
        got = {}
        for w in rep.weight_labels:
            got[w] = got.get(w, 0) + 1
        assert got == spec.weight_multiset()
        find_hw_vectors(rep)


def test_dimension_cap():
    spec = validate_symplectic_spec(A1, [((1,), 40)])
    with pytest.raises(BudgetExceeded) as info:
        build_rep(spec)
    assert str(info.value) == "matrix model: total dimension 80 exceeds cap 64"


def test_reference_module_is_budgeted_before_any_block_is_built():
    """E8 x A1 with a trivial E8 weight is a 2-dim module, but `verify`
    would take E8's invariant coordinates in its 248-dim reference module."""
    e8a1 = build_root_datum([("E", 8), ("A", 1)])
    spec = validate_symplectic_spec(e8a1, [((0,) * 8 + (1,), 1)])
    assert spec.dim == 2
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded) as info:
        build_rep(spec)
    assert time.monotonic() - t0 < 1.0
    assert str(info.value) == (
        "matrix model: reference module of factor E8 has dimension 248, "
        "exceeds cap 64"
    )


RECIPE_TYPES = (
    [("A", n) for n in range(1, 8)]
    + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(2, 7)]
    + [("D", n) for n in range(4, 8)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)


@pytest.mark.parametrize("letter,rank", RECIPE_TYPES)
def test_root_recipes_equal_the_calibrated_recipes(letter, rank):
    """Chevalley's c = -(p + 1)^2 is the scalar that brackets in the
    reference module calibrate, root by root and in the same order."""
    got = root_recipes(letter, rank)
    assert list(got.items()) == list(root_recipes_oracle(letter, rank).items())


@pytest.mark.parametrize("factors,summands", [
    ([("C", 2)], [((1, 0), 1)]),
    ([("G", 2)], [((0, 1), 2)]),
])
def test_a_wrong_recipe_constant_fails_the_build(factors, summands, monkeypatch):
    """Doubling the scalar of any one recipe halves that root's e_gamma, and
    build_rep refuses the model at that root's [e, f] check."""
    spec = validate_symplectic_spec(build_root_datum(factors), summands)
    letter, rank = factors[0]
    recipes = root_recipes(letter, rank)
    assert recipes
    for gamma, (i, beta, c) in recipes.items():
        broken = {**recipes, gamma: (i, beta, 2 * c)}
        monkeypatch.setattr(matrixrep, "root_recipes", lambda *_: broken)
        with pytest.raises(InternalConsistencyError) as info:
            build_rep(spec)
        assert str(info.value) == f"[e,f] != coroot action for root {gamma}"
    monkeypatch.undo()
    build_rep(spec)


def test_generic_blocks_equal_the_closed_forms_of_type_a():
    """S^m of sl2 and the defining module of sl_n come out in the f-word
    basis entry for entry as their closed forms, forms included (sl_n,
    n >= 3, is not self-dual; n = 2 is S^1)."""
    for m in range(9):
        got = _irreducible_block("A", 1, (m,))
        want = _sparse_block(sl2_block_oracle(m))
        assert got == want and repr(got) == repr(want), m
    for n in range(3, 7):
        got = _irreducible_block("A", n - 1, identity(n - 1)[0])
        want = _sparse_block(sln_standard_block_oracle(n))
        assert got == want and repr(got) == repr(want), n


def _sparse_block(block):
    """A FactorBlock of dense matrices with its matrices as sparse rows."""
    def sparse(mats):
        return tuple(map(sparse_rows, mats))

    form = None if block.form is None else sparse_rows(block.form)
    return replace(
        block, e=sparse(block.e), f=sparse(block.f), h=sparse(block.h), form=form
    )


def _small_modules(cap=64):
    """(letter, rank) -> the nonzero dominant weights with weyl_dim <= cap,
    for every simple type of rank <= 4; weyl_dim grows in each coordinate,
    so the search stops at the first weight over the cap."""
    out = {}
    for letter, rank in [("A", n) for n in range(1, 5)] + [
        ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4),
        ("F", 4), ("G", 2),
    ]:
        datum = build_root_datum([(letter, rank)])
        seen, frontier = {(0,) * rank}, [(0,) * rank]
        while frontier:
            w = frontier.pop()
            for i in range(rank):
                up = w[:i] + (w[i] + 1,) + w[i + 1:]
                if up not in seen and weyl_dim(datum, up) <= cap:
                    seen.add(up)
                    frontier.append(up)
        out[letter, rank] = sorted(seen - {(0,) * rank})
    return out


SMALL_MODULES = _small_modules()


def _entries(mat):
    """A matrix given by sparse rows as {(i, k): value}."""
    return {(i, k): x for i, row in enumerate(mat) for k, x in row}


def _product(a, b, n):
    """A B of n x n matrices given by _entries, over nonzero entries."""
    def rows(m):
        out = [[] for _ in range(n)]
        for (i, k), x in m.items():
            out[i].append((k, x))
        return out

    return _entries(sparse_mul(rows(a), rows(b)))


def _bracket(a, b, n):
    out = _product(a, b, n)
    for key, x in _product(b, a, n).items():
        out[key] = out.get(key, 0) - x
    return {key: x for key, x in out.items() if x}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(SMALL_MODULES)).flatmap(
        lambda t: st.sampled_from(SMALL_MODULES[t]).map(lambda w: t + (w,))
    )
)
def test_generic_block_relations(module):
    """The Chevalley relations [e_i, f_j] = delta_ij h_i and
    [h_i, e_j] = <alpha_j, alpha_i^vee> e_j, both Serre relations
    ad(x_i)^(1 - a_ij) x_j = 0 for x = e, f with a_ij = <alpha_j, alpha_i^vee>,
    the weight multiset of Freudenthal, and on a self-dual block an
    invariant, nondegenerate, symmetric or skew form."""
    letter, rank_, weight = module
    block = _irreducible_block(letter, rank_, weight)
    n = block.dim
    cartan = cartan_matrix(letter, rank_)  # cartan[j][i] = <alpha_j, alpha_i^vee>
    e = [_entries(m) for m in block.e]
    f = [_entries(m) for m in block.f]
    h = [_entries(m) for m in block.h]
    for i in range(rank_):
        for j in range(rank_):
            assert _bracket(e[i], f[j], n) == (h[i] if i == j else {}), (i, j)
            want = {key: cartan[j][i] * x for key, x in e[j].items() if cartan[j][i]}
            assert _bracket(h[i], e[j], n) == want, (i, j)
            if i != j:
                for x in (e, f):
                    y = x[j]
                    for _ in range(1 - cartan[j][i]):
                        y = _bracket(x[i], y, n)
                    assert y == {}, (i, j)
    got = {}
    for w in block.weights:
        got[w] = got.get(w, 0) + 1
    datum = build_root_datum([(letter, rank_)])
    assert got == freudenthal_multiplicities(datum, weight)
    if cvec(tuple(-x for x in weight)) not in got:
        assert block.form is None
        return
    b = _entries(block.form)
    bt = {(k, i): x for (i, k), x in b.items()}
    assert bt in (b, {key: -x for key, x in b.items()})
    for x in e + f + h:
        xt = {(k, i): v for (i, k), v in x.items()}
        assert _product(xt, b, n) == {key: -v for key, v in _product(b, x, n).items()}
    assert rank(dense(block.form, n)) == n


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
    # lone symplectic summands of the generic construction
    cases += [
        (build_root_datum([("C", 3)]), (0, 0, 1)),
        (build_root_datum([("A", 5)]), (0, 0, 1, 0, 0)),
        (build_root_datum([("D", 6)]), (0, 0, 0, 0, 0, 1)),
    ]
    for datum, weight in cases:
        gens, labels, blocks = _summand_matrices(datum, weight)
        n = len(labels)
        closed = dense(_invariant_symplectic_form(blocks), n)
        solved = invariant_symplectic_form_oracle(
            n, {k: dense(m, n) for k, m in gens.items()}
        )
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
    j = dense(rep.j_exact, n)
    e1 = ("e", C2.simple_roots[0])
    labels = list(rep.weight_labels)
    a = 0
    b = next(k for k, w in enumerate(labels) if w[0] != labels[a][0])
    labels[a], labels[b] = labels[b], labels[a]
    cases = [
        (
            replace(rep, j_exact=sparse_rows(_set(j, 0, 1, j[0][1] + 1))),
            "J is not skew",
        ),
        (replace(rep, j_exact=sparse_rows(((0,) * n,) * n)), "J is degenerate"),
        (
            _replace_lie(
                rep, e1, sparse_rows(_set(lie_matrix_exact(rep, e1), 0, 0, 1))
            ),
            f"form not invariant under {e1}",
        ),
        (
            replace(rep, weight_labels=tuple(labels)),
            "Cartan matrix ('h', 0) disagrees with weight labels",
        ),
        (
            _replace_lie(
                rep, e1, sparse_rows(tuple(
                    tuple(2 * x for x in row) for row in lie_matrix_exact(rep, e1)
                ))
            ),
            f"[e,f] != coroot action for root {simple_coords(2, 0)}",
        ),
    ]
    for broken, message in cases:
        with pytest.raises(InternalConsistencyError) as info:
            _check_rep(broken)
        assert str(info.value) == message


def test_check_rep_catches_a_broken_weight_grading():
    """e_alpha + h_1 keeps J invariant but no longer maps V_mu into
    V_(mu + alpha); the exact readers rely on that grading, so _check_rep
    refuses it."""
    rep = build_rep(validate_symplectic_spec(C2, [((1, 0), 1)]))
    e1 = ("e", C2.simple_roots[0])
    broken = sparse_rows(
        tuple(
            tuple(x + y for x, y in zip(row_e, row_h))
            for row_e, row_h in zip(
                lie_matrix_exact(rep, e1), lie_matrix_exact(rep, ("h", 0))
            )
        )
    )
    with pytest.raises(InternalConsistencyError) as info:
        _check_rep(_replace_lie(rep, e1, broken))
    assert str(info.value) == f"{e1} breaks the weight grading"


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
    assert repr(tuple(lie_matrix_exact(rep, lab) for lab in labels)) == repr(mats)
    for chi, _ in rep.spec.summands:
        got = hyperbolic_pair(rep, chi, unit_columns(rep), rep.datum.simple_roots)
        assert None not in got, chi
        assert repr(got) == repr(rref_hyperbolic_pair_oracle(rep, chi)), chi
