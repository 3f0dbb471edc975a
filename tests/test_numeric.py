from dataclasses import replace

import numpy as np
import pytest

from symprep.errors import DimensionMismatch
from symprep import matrixrep, numeric, verify
from symprep.classify import terminal_decomposition
from symprep.linalg import vdot
from symprep.matrixrep import build_rep
from symprep.numeric import (
    _numeric_rank,
    factor_matrix_forms,
    gradient_bracket,
    inv_moment_eval,
    jacobian_inv_moment,
    local_frame,
    moment_coords,
    orbit_directions,
    orbit_estimates,
    seeded_samples,
    verify_commute,
)
from symprep.reps import validate_symplectic_spec
from symprep.rootdata import build_root_datum, positive_roots, weyl_degrees

from corpus import A1, A2, C2, T1, catalog, generic_models, verify_ladder
from oracles import (
    SingularSystem,
    SOutsideDomain,
    coisotropy_test_oracle,
    commute_refusals_oracle,
    commute_samples_oracle,
    frame_at,
    inv_moment_eval_oracle,
    jacobian_oracle,
    jacobian_rank_and_orbit_oracle,
    moment_coords_oracle,
    omega,
    step_and_layer,
    verify_commute_oracle,
)


def _rep(datum, summands):
    return build_rep(validate_symplectic_spec(datum, summands))


def test_moment_closed_form_sp2():
    rep = _rep(A1, [((1,), 1)])
    v = np.array([1.0, 0.0])
    mat = factor_matrix_forms(rep, moment_coords(rep, v))[0]
    expected = -0.5 * np.outer(v, v) @ rep.j
    assert np.max(np.abs(mat - expected)) <= 1e-15
    assert np.linalg.matrix_rank(mat) == 1


@pytest.mark.parametrize("factor", [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)],
                         ids=lambda f: "%s%d" % f)
def test_power_traces_are_bit_identical_to_matrix_power(factor):
    """The power traces at the Weyl degrees, formed from shared squares,
    equal np.linalg.matrix_power's bit for bit, on one matrix and on a
    stack; degrees 1 and 3, which matrix_power short-cuts, too."""
    degrees = weyl_degrees(build_root_datum([factor]))
    rng = np.random.default_rng(sum(degrees))
    for shape in [(7, 7), (5, 7, 7), (3, 27, 27)]:
        x = rng.standard_normal(shape) / np.sqrt(shape[-1])
        for degs in (degrees, (1, 3) + degrees):
            want = np.stack(
                [np.trace(np.linalg.matrix_power(x, d), axis1=-2, axis2=-1) for d in degs],
                axis=-1,
            )
            got = numeric._power_traces(x, degs)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (factor, shape)


def test_moment_torus_example():
    rep = _rep(T1, [((1,), 1), ((-1,), 1)])
    coords = moment_coords(rep, np.array([2.0, 3.0]))
    assert abs(coords[0] - 6.0) <= 1e-14


def test_moment_of_zero_vanishes():
    rep = _rep(C2, [((1, 0), 1)])
    assert np.max(np.abs(moment_coords(rep, np.zeros(rep.dim)))) == 0.0


def test_moment_dimension_mismatch():
    rep = _rep(A1, [((1,), 1)])
    for v in (np.zeros(5), np.zeros((3, 5)), np.zeros((2, 1))):
        with pytest.raises(DimensionMismatch):
            moment_coords(rep, v)
        with pytest.raises(DimensionMismatch):
            inv_moment_eval(rep, v)
    with pytest.raises(DimensionMismatch):
        jacobian_inv_moment(rep, np.zeros(5))


@pytest.mark.parametrize("factors, summands", [
    ([("B", 3)], [((1, 0, 0), 2)]),
    ([("D", 4)], [((1, 0, 0, 0), 2)]),
    ([("G", 2)], [((1, 0), 2)]),
], ids=["B3", "D4", "G2"])
def test_inv_moment_is_invariant_on_every_type(factors, summands):
    """B, D and G factors get one invariant coordinate per simple root, equal
    to the oracle's (even charpoly coefficients, or power traces at the
    tabulated degrees), and constant along orbits: the Jacobian kills each
    tangent vector X v."""
    datum = build_root_datum(factors)
    rep = _rep(datum, summands)
    vs = seeded_samples(np.random.default_rng(5), rep.dim, 3)
    invs = inv_moment_eval(rep, vs)
    assert invs.shape == (3, datum.rank)
    for k, v in enumerate(vs):
        assert _close(invs[k], inv_moment_eval_oracle(rep, v))
    jac = jacobian_inv_moment(rep, vs)
    flow = jac @ np.swapaxes(orbit_directions(rep, vs), 1, 2)
    assert np.max(np.abs(flow)) <= 1e-12 * np.max(np.abs(jac))


def _kernel_models():
    models = {name: sp for name, (sp, _) in catalog().items()}
    models.update(verify_ladder())
    return models


def _close(got, want):
    """Agreement within 1e-12 relative to the size of the oracle's values."""
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("name", sorted(_kernel_models()))
def test_stacked_kernel_matches_the_per_vector_oracle(name):
    rep = build_rep(_kernel_models()[name])
    vs = np.array(seeded_samples(np.random.default_rng(17), rep.dim, 5))
    coords = moment_coords(rep, vs)
    invs = inv_moment_eval(rep, vs)
    complex_vs = vs + 1j * np.roll(vs, 1, axis=1)
    complex_invs = inv_moment_eval(rep, complex_vs)
    jacs = jacobian_inv_moment(rep, vs)
    for k, v in enumerate(vs):
        assert _close(coords[k], moment_coords_oracle(rep, v))
        assert _close(moment_coords(rep, v), moment_coords_oracle(rep, v))
        assert _close(invs[k], inv_moment_eval_oracle(rep, v))
        assert _close(complex_invs[k], inv_moment_eval_oracle(rep, complex_vs[k]))
        jac, want = jacs[k], jacobian_oracle(rep, v)
        assert _close(jac, want)
        assert _numeric_rank(jac) == _numeric_rank(want)


def test_one_kernel_call_per_jacobian(monkeypatch):
    calls = []
    kernel = numeric.moment_coords

    def counting(rep, v):
        calls.append(np.shape(v))
        return kernel(rep, v)

    monkeypatch.setattr(numeric, "moment_coords", counting)
    rep = build_rep(verify_ladder()["C3_std_x2"])
    n = rep.dim
    vs = seeded_samples(np.random.default_rng(1), n, 30)
    jacobian_inv_moment(rep, vs[:1])
    assert calls == [(n, n)]
    for count in (6, 30):
        chunks = numeric._chunks(count, n * len(rep.lie) * n)
        calls.clear()
        assert jacobian_inv_moment(rep, vs[:count]).shape == (count, 3, n)  # c2, c4, c6
        assert calls == [(len(range(count)[part]) * n, n) for part in chunks]
        calls.clear()
        orbit_estimates(rep, count, 0)
        assert calls == [(len(range(count)[part]) * n, n) for part in chunks]
    assert len(chunks) > 1


def _frame_models():
    """name -> (rep, chi) for every model of _kernel_models with a reduction
    step."""
    out = {}
    for name, sp in _kernel_models().items():
        decomposition = terminal_decomposition(sp)
        if not decomposition.terminal:
            out[name] = (build_rep(sp), decomposition.witness)
    return out


def _slice_stack(frame, rng, count):
    """count random points of the slice, as one stack."""
    bmat = np.array([[float(x) for x in b] for b in frame.s_basis]).T
    return rng.standard_normal((count, bmat.shape[1])) @ bmat.T


def _slice_points(frame, rng, count):
    """count random points of the slice, a zero row, and a point whose
    pairing with v0 is cancelled to rounding level."""
    pts = _slice_stack(frame, rng, count)
    basis = np.array([[float(x) for x in b] for b in frame.s_basis])
    rep, v0 = frame.rep, frame.v0f
    w = max(basis, key=lambda b: abs(omega(rep, b, v0)))
    cancelled = pts[0] - omega(rep, pts[0], v0) / omega(rep, w, v0) * w
    return np.concatenate([pts[:2], np.zeros((1, rep.dim)), pts[2:], cancelled[None]])


@pytest.mark.parametrize("name", sorted(_frame_models()))
def test_stacked_q_embedding_matches_the_per_sample_oracle(name):
    """Each kept row of one stacked call equals the per-sample oracle, and
    the rows the oracle refuses are exactly the rows not kept."""
    rep, chi = _frame_models()[name]
    frame = frame_at(rep, chi)
    pts = _slice_points(frame, np.random.default_rng(23), 6)
    rc = verify_commute(frame, pts)
    emb = rc.embedding
    assert not emb.kept[2] and not emb.kept[-1] and emb.kept.sum() == 6
    assert commute_refusals_oracle(frame, pts) == list(np.flatnonzero(~emb.kept))
    for row, s in enumerate(pts[emb.kept]):
        (q, res_sigma, res_perp), res_levi, res_char = verify_commute_oracle(frame, s)
        got = (emb.q, emb.residual_sigma, emb.residual_perp,
               rc.residual_levi, rc.residual_charpoly)
        want = (q, res_sigma, res_perp, res_levi, res_char)
        for field, w in zip(got, want, strict=True):
            assert _close(np.asarray(field[row]), np.asarray(w))
    assert len(emb.q) == len(rc.residual_levi) == emb.kept.sum()


@pytest.mark.parametrize("name", sorted(_frame_models()))
def test_local_frame_levi_is_the_centralizer_of_chi(name):
    """The frame's Levi, read off the step's Levi datum, holds the model's
    h and z and the root vectors of exactly the roots with
    <chi, alpha^vee> = 0."""
    rep, chi = _frame_models()[name]
    labels = [("h", i) for i in range(rep.datum.rank)]
    labels += [("z", l) for l in range(rep.datum.central_rank)]
    for r in positive_roots(rep.datum):
        if vdot(chi, r.coroot_vec) == 0:
            labels += [("e", r.vec), ("f", r.vec)]
    frame = frame_at(rep, chi)
    assert sorted(frame.levi_index) == sorted(rep.lie_index[lab] for lab in labels)


@pytest.mark.parametrize("name", sorted(_kernel_models()))
def test_stacked_ranks_and_coisotropy_match_the_per_sample_oracle(name):
    rep = build_rep(_kernel_models()[name])
    for seed in (0, 3):
        want = jacobian_rank_and_orbit_oracle(rep, 5, seed)
        want += (coisotropy_test_oracle(rep, 5, seed),)
        assert orbit_estimates(rep, 5, seed) == want


@pytest.mark.parametrize("zeros", [[0], [0, 2, 4], [4, 5]])
def test_orbit_estimates_take_every_sample_of_every_chunk(monkeypatch, zeros):
    """The ranks are maximized, and coisotropy required, over every sample of
    every chunk: zero samples, whose orbit is a point and whose perp is the
    whole module, lead the first chunk, every chunk or fill the last one."""
    rep = build_rep(catalog()["sl2_cubic"][0])

    def drawing(rng, dim, count):
        vs = seeded_samples(rng, dim, count)
        vs[zeros] = 0.0
        return vs

    monkeypatch.setattr(numeric, "seeded_samples", drawing)
    monkeypatch.setattr(numeric, "STACK_BUDGET", 2 * numeric._jacobian_row(rep))
    assert orbit_estimates(rep, 6, 0) == (1, 3, 0, False)


@pytest.mark.parametrize("samples", [20, 1000])
def test_verify_suite_draws_the_orbit_samples_once(monkeypatch, samples):
    """The orbit pass draws its samples once and forms the orbit directions
    of each chunk once, for the orbit dimension and the coisotropy test
    alike."""
    draws, tangents = [], []
    seeded, directions = numeric.seeded_samples, numeric.orbit_directions

    def drawing(rng, dim, count):
        draws.append(seeded(rng, dim, count))
        return draws[-1]

    def recording(rep, v):
        if any(np.shares_memory(v, d) for d in draws):
            tangents.append(len(v))
        return directions(rep, v)

    # verify binds its own seeded_samples, so only the orbit pass draws
    # through numeric's
    monkeypatch.setattr(numeric, "seeded_samples", drawing)
    monkeypatch.setattr(numeric, "orbit_directions", recording)
    spec = verify_ladder()["C3_std_x2"]
    rep = build_rep(spec)
    assert verify.verify_suite(spec, samples=samples).passed
    count = max(5, samples // 2)
    chunks = numeric._chunks(count, numeric._jacobian_row(rep))
    assert len(draws) == 1
    assert tangents == [len(range(count)[part]) for part in chunks]


def _sampled(frame, samples, seed):
    """(accepted draws, q rows, done, next draw) of verify's stacked
    sampling loop and of the sequential oracle loop on the same stream."""
    rng = np.random.default_rng(seed)
    rc, done = verify._commute_samples(frame, rng, samples)
    stacked = (list(np.flatnonzero(rc.embedding.kept)), rc.embedding.q, done,
               rng.standard_normal())
    rng = np.random.default_rng(seed)
    accepted, qs = commute_samples_oracle(frame, rng, samples)
    sequential = (accepted, np.reshape(qs, (-1, frame.rep.dim)), len(accepted),
                  rng.standard_normal())
    return stacked, sequential


def test_stacked_sampling_keeps_the_sequential_samples():
    models = _frame_models()
    frames = [frame_at(rep, chi) for rep, chi in models.values()]

    def frame_and_v0_row(name):
        rep, chi = models[name]
        step, layer = step_and_layer(rep, chi)
        return local_frame(rep, step, layer), rep.omega_row(layer.v0)

    # a frame where rejections occur: the basis directions that pair with v0
    # shrunk, so |omega(s, v0)| often falls below the domain tolerance
    base, row = frame_and_v0_row("A2_sd_x2")
    shrunk = tuple(
        b if vdot(row, b) == 0 else tuple(x / 10 ** 6 for x in b)
        for b in base.s_basis
    )
    frames.append(replace(base, s_basis=shrunk))
    # and one where every draw is rejected, up to the 20 * samples cap
    two, row = frame_and_v0_row("sl2_two_standards")
    dead = tuple(b for b in two.s_basis if vdot(row, b) == 0)
    frames.append(replace(two, s_basis=dead))
    rejected = []
    for frame in frames:
        for samples, seed in ((1, 4), (7, 5)):
            (acc, qs, done, nxt), sequential = _sampled(frame, samples, seed)
            assert (acc, done, nxt) == (sequential[0], sequential[2], sequential[3])
            assert _close(qs, sequential[1])
            rejected.append(acc[-1] + 1 - done if acc else 20 * samples)
    assert min(rejected[-4:-2]) > 0 and rejected[-2:] == [20, 140]


def test_no_stacked_call_exceeds_the_element_budget(monkeypatch):
    sizes = []
    kernel, svd = numeric.moment_coords, np.linalg.svd

    def recording_kernel(rep, v):
        rows = np.prod(np.shape(v)[:-1])
        sizes.append(("moment_coords", rows * len(rep.lie) * rep.dim))
        return kernel(rep, v)

    def recording_svd(a, *args, **kwargs):
        sizes.append(("svd", np.size(a)))
        return svd(a, *args, **kwargs)

    for module in (numeric, verify):
        monkeypatch.setattr(module, "moment_coords", recording_kernel)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    for name in ("A2_sd_x6", "C4_std_x2"):
        sizes.clear()
        assert verify.verify_suite(verify_ladder()[name], samples=1000).passed
        assert max(size for _, size in sizes) <= numeric.STACK_BUDGET, name
        assert {kind for kind, _ in sizes} == {"moment_coords", "svd"}


def test_inv_moment_examples():
    rep = _rep(C2, [((1, 0), 1)])
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(rep.dim)
        v /= np.linalg.norm(v)
        assert np.max(np.abs(inv_moment_eval(rep, v))) <= 1e-10
    rep = _rep(T1, [((1,), 1), ((-1,), 1)])
    out = inv_moment_eval(rep, np.array([2.0, 3.0]))
    assert abs(out[0] - 6.0) <= 1e-14
    rep = _rep(A1, [((1,), 2)])
    v = np.array([1.0, 0.0, 1.0, 0.0])  # vector paired with a covector on it
    out = inv_moment_eval(rep, v)
    assert abs(out[0]) > 1e-3  # generic pairing gives a nonzero invariant


def test_jacobian_rank_and_orbit_examples():
    assert orbit_estimates(_rep(C2, [((1, 0), 1)]), 6, 0)[:3] == (0, 4, 0)
    assert orbit_estimates(_rep(A1, [((1,), 2)]), 6, 0)[:3] == (1, 3, 0)
    assert orbit_estimates(_rep(A1, [((2,), 2)]), 6, 0)[:3] == (1, 3, 1)


def test_coisotropy_examples():
    assert orbit_estimates(_rep(A1, [((3,), 1)]), 6, 0)[3]
    assert not orbit_estimates(_rep(A1, [((2,), 2)]), 6, 0)[3]
    assert orbit_estimates(_rep(C2, [((1, 0), 1)]), 6, 0)[3]


def test_phi_solve_examples():
    rng = np.random.default_rng(11)
    # 1x1 systems
    for summands, chi in [([((1,), 2)], (1,)), ([((3,), 1)], (3,))]:
        rep = _rep(A1, summands)
        frame = frame_at(rep, chi)
        assert len(frame.delta_u) == 1
        emb = verify_commute(frame, _slice_stack(frame, rng, 3)).embedding
        assert emb.kept.all()
        assert np.max(emb.residual_sigma) <= 1e-12
        assert np.max(emb.residual_perp) <= 1e-12
    # 2x2 triangular system
    rep = _rep(A2, [((1, 0), 1), ((0, 1), 1)])
    frame = frame_at(rep, (1, 0))
    du = frame.delta_u
    assert len(du) == 2
    emb = verify_commute(frame, _slice_stack(frame, rng, 3)).embedding
    heights = [r.height for r in du]
    assert heights == sorted(heights)
    assert emb.kept.all()
    assert np.max(emb.residual_sigma) <= 1e-12


def test_phi_solve_domain_guard():
    """A slice direction pairing to zero with v0 is outside the domain: the
    oracle refuses it and the stack drops its row."""
    rep = _rep(A1, [((1,), 2)])
    step, layer = step_and_layer(rep, (1,))
    frame = local_frame(rep, step, layer)
    row = rep.omega_row(layer.v0)
    dead = next(b for b in frame.s_basis if vdot(row, b) == 0)
    live = _slice_stack(frame, np.random.default_rng(4), 2)
    pts = np.concatenate([[[float(x) for x in dead]], live])
    with pytest.raises(SOutsideDomain):
        verify_commute_oracle(frame, pts[0])
    assert verify_commute(frame, pts).embedding.kept.tolist() == [False, True, True]
    assert commute_refusals_oracle(frame, pts) == [0]


def test_phi_solve_singular_guard():
    """A vanishing diagonal entry drops the row from a stack, and the
    oracle refuses it as singular.  e_r f_r v0 is a multiple of v0, so on a
    real frame the diagonal vanishes only with omega(s, v0); the frame here
    has f_a v0 zeroed for the first root a."""
    rep, chi = _frame_models()["sl3_std_dual"]
    frame = frame_at(rep, chi)
    fv0 = frame.fv0.copy()
    fv0[0] = 0.0
    broken = replace(frame, fv0=fv0, efv0=fv0 @ np.swapaxes(frame.emats, 1, 2))
    pts = _slice_points(frame, np.random.default_rng(2), 3)
    kept = verify_commute(frame, pts).embedding.kept
    assert kept.sum() == 3
    assert not verify_commute(broken, pts).embedding.kept.any()
    assert commute_refusals_oracle(broken, pts) == list(range(len(pts)))
    for s in pts[kept]:
        with pytest.raises(SingularSystem) as exc:
            verify_commute_oracle(broken, s)
        assert str(exc.value).endswith(str(frame.delta_u[0].coords))


def test_verify_commute_examples():
    rng = np.random.default_rng(13)
    for datum, summands, chi in [
        (A1, [((1,), 2)], (1,)),
        (A2, [((1, 0), 1), ((0, 1), 1)], (1, 0)),
    ]:
        rep = _rep(datum, summands)
        frame = frame_at(rep, chi)
        out = verify_commute(frame, _slice_stack(frame, rng, 5))
        assert out.embedding.kept.any()
        assert np.max(out.residual_levi) <= 1e-10
        assert np.max(out.residual_charpoly) <= 1e-10


def _moment_gradient(rep, label, v):
    """The gradient -J X v at v of the moment coordinate of the Lie basis
    element X with the given label."""
    return -rep.j @ (rep.lie_matrix(label) @ v)


def test_poisson_darboux_and_antisymmetry():
    rep = _rep(A1, [((1,), 2)])
    rng = np.random.default_rng(3)
    v = rng.standard_normal(rep.dim)
    x1, y1 = np.eye(rep.dim)[0], np.eye(rep.dim)[2]  # coordinate gradients
    assert abs(gradient_bracket(rep, x1, y1) - 1.0) <= 1e-12
    assert abs(gradient_bracket(rep, x1, x1)) <= 1e-12
    f = _moment_gradient(rep, ("h", 0), v)
    assert abs(gradient_bracket(rep, f, f)) <= 1e-12
    assert abs(gradient_bracket(rep, f, x1) + gradient_bracket(rep, x1, f)) <= 1e-12


def test_poisson_moment_is_homomorphism():
    rep = _rep(A1, [((1,), 2)])
    rng = np.random.default_rng(5)
    v = rng.standard_normal(rep.dim)
    me = _moment_gradient(rep, ("e", (2,)), v)  # alpha = 2 omega
    mf = _moment_gradient(rep, ("f", (2,)), v)
    mh = moment_coords(rep, v)[rep.lie_index[("h", 0)]]
    assert abs(gradient_bracket(rep, me, mf) - mh) <= 1e-12


def test_poisson_pullbacks_commute():
    """Row i of the Jacobian of the invariant moment map is the gradient of
    invariant coordinate i."""
    for name in ("sl2_two_standards", "sl2_adjoint_pair", "sl3_std_dual"):
        spec, _ = catalog()[name]
        rep = build_rep(spec)
        rng = np.random.default_rng(7)
        for _ in range(3):
            v = rng.standard_normal(rep.dim)
            v /= np.linalg.norm(v)
            grads = jacobian_inv_moment(rep, v[None])[0]
            brackets = gradient_bracket(rep, grads, grads)
            for i in range(len(grads)):
                for j in range(i + 1, len(grads)):
                    assert abs(brackets[i, j]) <= 1e-8


def test_equivariance_spot():
    rep = _rep(A2, [((1, 0), 1), ((0, 1), 1)])
    x = rep.lie_matrix(("e", (2, -1)))  # alpha_1
    g = np.eye(rep.dim) + 0.3 * x + 0.045 * x @ x  # exp for this nilpotent
    rng = np.random.default_rng(2)
    v = rng.standard_normal(rep.dim)
    ginv = np.linalg.inv(g)
    for i, m in enumerate(rep.lie):
        lhs = moment_coords(rep, g @ v)[i]
        rhs = 0.5 * omega(rep, (ginv @ m @ g) @ v, v)
        assert abs(lhs - rhs) <= 1e-10


def test_inv_moment_conjugation_invariance():
    rep = _rep(A2, [((1, 0), 1), ((0, 1), 1)])
    x = rep.lie_matrix(("e", (1, 1)))  # alpha_1 + alpha_2
    g = np.eye(rep.dim) + 0.4 * x + 0.08 * x @ x
    rng = np.random.default_rng(8)
    for _ in range(3):
        v = rng.standard_normal(rep.dim)
        v /= np.linalg.norm(v)
        before = inv_moment_eval(rep, v)
        after = inv_moment_eval(rep, g @ v)
        assert np.max(np.abs(before - after)) <= 1e-9


def test_verify_suite_derives_the_local_frame_once(monkeypatch):
    import symprep.numeric
    import symprep.reduction
    import symprep.verify
    from symprep.classify import terminal_decomposition
    from symprep.reduction import analyze
    from symprep.verify import verify_suite

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in (symprep.numeric, symprep.reduction, symprep.verify):
        if hasattr(module, "terminal_decomposition"):
            monkeypatch.setattr(
                module, "terminal_decomposition",
                counting("terminal", terminal_decomposition),
            )
    monkeypatch.setattr(
        symprep.verify, "local_frame", counting("frame", symprep.numeric.local_frame)
    )
    spec, _ = catalog()["sl2_cubic"]
    analysis = analyze(spec)
    counts = []
    for samples in (5, 20):
        calls.clear()
        assert verify_suite(spec, samples=samples, analysis=analysis).passed
        counts.append((calls.count("terminal"), calls.count("frame")))
    assert counts[0] == counts[1]
    assert counts[0][1] == 1


@pytest.mark.parametrize("name", ["torus_pair", "sl2_cubic", "A2_sd_x2", "A3_mixed_rk3"])
def test_verify_suite_finds_each_hyperbolic_pair_once(monkeypatch, name):
    """verify_suite finds the (v0, v0^-) of each reduction step once, in
    build_section, and the first step's local frame reads its pair and slice
    off the section's first layer: one `hyperbolic_pair` call per step."""
    from symprep import sections
    from symprep.reduction import analyze

    specs = {n: sp for n, (sp, _) in catalog().items()}
    specs.update(verify_ladder())
    specs.update(generic_models())
    spec = specs[name]
    analysis = analyze(spec)
    calls, real = [], matrixrep.hyperbolic_pair

    def counted(rep, chi, *args):
        calls.append(chi)
        return real(rep, chi, *args)

    for module in (matrixrep, sections):
        monkeypatch.setattr(module, "hyperbolic_pair", counted)
    assert verify.verify_suite(spec, analysis=analysis).passed
    assert calls == [step.chosen_chi for step in analysis.trace]


def test_sp_standard_nilpotent_residual_is_rounding_level():
    """sp_standard_nilpotent tests M^2 = 0 relative to |M|^2.  The largest
    |eigenvalue| of the same square-zero M sits at ~sqrt(rounding), 2.6e-9 to
    8.3e-9 on seeds 0-19, too close to the check's 1e-8 tolerance."""
    from symprep.verify import _sp_closed_form_residual

    for name in ("sp2_standard", "sp4_standard", "sp6_standard"):
        rep = build_rep(catalog()[name][0])
        for seed in range(20):
            res = _sp_closed_form_residual(rep, np.random.default_rng(seed))
            assert res[2] <= 1e-12, (name, seed, res[2])


@pytest.mark.xfail(
    strict=True,
    reason="commute_invariant_image holds an absolute 1e-9 bound on charpoly "
    "coefficients, and a kept slice sample near the domain edge scales them up",
)
def test_g2_adjoint_pair_passes_every_check_at_seed_13():
    """G2_adj_x2 at seed 13 fails `commute_invariant_image` with 5.66e-9.  In
    the first slice draw, sample 7's triangular system has min |diagonal|
    1.32e-2, above DOMAIN_TOL, so it is kept; |xi_-| and |q| are then about
    897 and the moment coordinates reach 4.2e3, and the absolute bound meets
    the degree-6 charpoly coefficient of the 7-dimensional module (relative
    residual 2.2e-10; the draw's median residual is 2e-15).  Power traces in
    place of the charpoly read 3.45e-8, so the choice of invariants is not
    the cause.  This test passes, and strict xfail fails, once the check or
    the sample rule is mended."""
    spec = generic_models()["G2_adj_x2"]
    assert [c.name for c in verify.verify_suite(spec, seed=13).failing()] == []
