"""Floating-point and exact-rational verification of the structure theory.

Everything here works on MatrixRep models: moment maps and their invariant
images, numerical rank/complexity estimates, coisotropy of generic orbits,
the nonlinear embedding q of the local-structure step, moment-map sections
over a*, and Poisson brackets.  Random sampling is seeded and reproducible;
rank decisions use singular-value thresholds at unit input scale.
"""

from dataclasses import dataclass, fields, is_dataclass
from functools import reduce
from operator import matmul

import numpy as np

from .errors import DimensionMismatch, InternalConsistencyError, NumericalDegeneracy
from .linalg import nullspace, vdot
from .matrixrep import _reference_block, factor_lie, float_stack
from .rootdata import build_root_datum, positive_roots, weyl_degrees

RANK_TOL = 1e-8
DOMAIN_TOL = 1e-6
# Entries of the largest array one stacked call may build: a stack of k
# points costs k * row entries, where row is that array's size per point
# (for example len(rep.lie) * dim for moment_coords and
# dim * len(rep.lie) * dim for a complex-step Jacobian), so a stack is split
# into chunks of STACK_BUDGET // row points and memory stays flat in the
# sample count.
STACK_BUDGET = 2 ** 15


def seeded_samples(rng, dim, count):
    """Integer-lattice-offset Gaussian sample vectors, unit-normalized, as a
    (count, dim) stack drawn one vector at a time."""
    out = np.empty((count, dim))
    for i in range(count):
        v = rng.integers(-2, 3, size=dim) + rng.standard_normal(dim)
        n = np.linalg.norm(v)
        if n < 1e-9:
            v = np.ones(dim)
            n = np.linalg.norm(v)
        out[i] = v / n
    return out


def _chunks(count, row):
    """Consecutive slices of range(count), each of at most STACK_BUDGET // row
    points but never fewer than one; a single empty slice when count is 0."""
    step = max(1, STACK_BUDGET // max(1, row))
    return [slice(lo, lo + step) for lo in range(0, max(count, 1), step)]


def _join(parts):
    """Stacked results of consecutive chunks joined along their first axis;
    dataclasses field by field."""
    first = parts[0]
    if is_dataclass(first):
        return type(first)(
            *(_join([getattr(p, f.name) for p in parts]) for f in fields(first))
        )
    return np.concatenate(parts)


def _check_length(rep, v):
    if v.shape[-1] != rep.dim:
        raise DimensionMismatch(f"vector length {v.shape[-1]} != dim {rep.dim}")


def orbit_directions(rep, v):
    """The tangent vectors xi v of the orbit through v, one row per element
    of rep.lie: (L, n) for one vector, (k, L, n) for a stack (k, n)."""
    v = np.asarray(v)
    lie = rep.lie
    return (v @ lie.reshape(-1, rep.dim).T).reshape(v.shape[:-1] + lie.shape[:2])


def moment_coords(rep, v):
    """m(v) as the vector of values on the Chevalley basis of g.  v is one
    vector of shape (n,) or a stack (k, n), real or complex; each leading row
    is one point and gets its own row of values."""
    v = np.asarray(v)
    _check_length(rep, v)
    jv = v @ rep.j.T
    return 0.5 * (orbit_directions(rep, v) @ jv[..., None])[..., 0]


def charpoly_coeffs(a):
    """[c_1..c_n] of det(tI - A) along the last axis, for one matrix or a
    stack of them, by the Faddeev-LeVerrier recursion (analytic in the
    entries, unlike eigenvalue-based routines)."""
    n = a.shape[-1]
    diag = np.arange(n)
    out = []
    for k in range(1, n + 1):
        am = a if k == 1 else a @ mk  # M_1 = I
        ck = -np.trace(am, axis1=-2, axis2=-1) / k
        out.append(ck)
        mk = am.copy()  # M_{k+1} = A M_k + c_k I
        mk[..., diag, diag] += ck[..., None]
    return np.stack(out, axis=-1)


def _power_traces(mat, degrees):
    """tr X^d at each degree d, for a matrix or a stack, with X^d formed bit
    for bit as `np.linalg.matrix_power` forms it: the product of the squares
    X^(2^k) over d's bits, low bits first, and X^3 as X^2 X.  The squares
    are shared by all the degrees."""
    squares = [mat]
    while len(squares) < max(degrees).bit_length():
        squares.append(squares[-1] @ squares[-1])
    bits = [(1, 0) if d == 3 else [k for k in range(d.bit_length()) if d >> k & 1]
            for d in degrees]
    return np.stack([np.trace(reduce(matmul, [squares[k] for k in b]), axis1=-2, axis2=-1)
                     for b in bits], axis=-1)


class _FactorFrame:
    """The reference module of one simple factor (`matrixrep._reference_block`,
    its fundamental module of least dimension) with an exact trace-form Gram
    matrix over its Chevalley basis elements, and the positions of those
    elements in rep.lie."""

    def __init__(self, rep, fi):
        datum = rep.datum
        letter, frank = datum.factors[fi]
        self.letter, self.frank = letter, frank
        self.idxs = datum.standard_order[fi]
        ref = _reference_block(letter, frank)
        lie = factor_lie(datum, fi, ref)
        self.pos = np.array([rep.lie_index[label] for label, _ in lie])
        self.mats = float_stack([m for _, m in lie], ref.dim)
        gram = np.einsum("fab,gba->fg", self.mats, self.mats)
        self.gram_inv = np.linalg.inv(gram)
        self.gram_t_inv = np.linalg.inv(gram[:frank, :frank])
        self.degrees = weyl_degrees(build_root_datum([(letter, frank)]))

    def matrix_of(self, u, count=None):
        """sum_f u[..., f] mats[f] over the first count basis elements."""
        return np.tensordot(u, self.mats[:count], axes=1)

    def invariant_coords_of(self, mat):
        """Basic invariants at a reference-module matrix or stack: charpoly
        c_2..c_n (A), its even coefficients (B, C, D), else the power traces
        tr X^d at the Weyl degrees d; a large module's charpoly is
        numerically too wide for the rank cut."""
        if self.letter == "A":
            return charpoly_coeffs(mat)[..., 1:]
        if self.letter in "BCD":
            return charpoly_coeffs(mat)[..., 1::2]
        return _power_traces(mat, self.degrees)


def _frames(rep):
    if not hasattr(rep, "_frames_cache"):
        object.__setattr__(
            rep,
            "_frames_cache",
            [_FactorFrame(rep, fi) for fi in range(len(rep.datum.factors))],
        )
    return rep._frames_cache


def factor_matrix_forms(rep, coords):
    """Per-factor matrices of a moment value, via the trace-form Gram solve;
    a stack (k, L) of values gives a (k, d, d) stack per factor."""
    coords = np.asarray(coords)
    return [
        frame.matrix_of(coords[..., frame.pos] @ frame.gram_inv.T)
        for frame in _frames(rep)
    ]


def inv_moment_eval(rep, v):
    """Invariant moment map: per-factor invariant coordinates of the moment
    value (`_FactorFrame.invariant_coords_of`) followed by the central linear
    coordinates, along the last axis of one vector or of a stack of them."""
    coords = moment_coords(rep, v)
    values = [
        frame.invariant_coords_of(mat)
        for frame, mat in zip(_frames(rep), factor_matrix_forms(rep, coords))
    ]
    central = [rep.lie_index[("z", l)] for l in range(rep.datum.central_rank)]
    values.append(coords[..., central])
    return np.concatenate(values, axis=-1)


def chevalley_target(rep, points):
    """Invariant coordinates of each point of a sequence of exact points of
    t*, as a (k, m) stack, for comparison against inv_moment_eval along a
    section."""
    coroots = rep.datum.simple_coroots
    pair = np.array(
        [[float(vdot(p, c)) for c in coroots] + [float(x) for x in p[len(coroots):]]
         for p in points]
    )
    values = []
    for frame in _frames(rep):
        u = pair[:, list(frame.idxs)] @ frame.gram_t_inv.T
        values.append(frame.invariant_coords_of(frame.matrix_of(u, frame.frank)))
    values.append(pair[:, len(coroots):])
    return np.concatenate(values, axis=-1)


def _rank_cut(sv):
    """The number of singular values above RANK_TOL at unit input scale,
    along the last axis of descending singular values."""
    return np.sum(sv > RANK_TOL * np.maximum(1.0, sv[..., :1]), axis=-1)


def _numeric_rank(mats):
    """The numeric rank of one matrix, or of each matrix of a stack."""
    return _rank_cut(np.linalg.svd(np.asarray(mats, dtype=float), compute_uv=False))


def _jacobian_row(rep):
    """Entries per point of the kernel stack of a complex-step Jacobian."""
    return rep.dim * len(rep.lie) * rep.dim


def jacobian_inv_moment(rep, v):
    """Exact-to-machine-precision Jacobian via complex-step differentiation:
    the perturbations v + i h e_j of every coordinate j are one stack, so the
    invariant moment map is evaluated once per vector.  A stack (k, n) of
    vectors gives a (k, m, n) stack of Jacobians, one kernel call per chunk
    of vectors."""
    v = np.asarray(v, dtype=float)
    _check_length(rep, v)
    h = 1e-100
    n = rep.dim
    parts = []
    for part in _chunks(len(v), _jacobian_row(rep)):
        chunk = v[part]
        steps = (chunk[:, None, :] + 1j * h * np.eye(n)).reshape(-1, n)
        values = np.imag(inv_moment_eval(rep, steps)) / h
        parts.append(np.swapaxes(values.reshape(len(chunk), n, values.shape[-1]), 1, 2))
    return np.concatenate(parts)


def orbit_estimates(rep, samples=8, seed=0):
    """(est_rk, est_orbit_dim, est_c, coisotropic) over one draw of seeded
    samples: the ranks are maximized over the samples, and coisotropic is
    True when at every sample the symplectic perp of the orbit tangent lies
    inside the tangent itself.  Each chunk of samples takes one batched SVD
    of its Jacobians, one of its orbit directions, whose singular values give
    the orbit dimension and whose right singular vectors span the tangent,
    and one of the functionals omega(xi v, .); the spanning singular vectors
    are kept by a mask on their index."""
    if samples < 5:
        raise ValueError("need at least five samples")
    vs = seeded_samples(np.random.default_rng(seed), rep.dim, samples)
    index = np.arange(rep.dim)
    rk = orbit = 0
    coisotropic = True
    for part in _chunks(samples, _jacobian_row(rep)):
        rk = max(rk, int(np.max(_numeric_rank(jacobian_inv_moment(rep, vs[part])))))
        tangent = orbit_directions(rep, vs[part])
        _, sv, vt = np.linalg.svd(tangent)
        dims = _rank_cut(sv)
        orbit = max(orbit, int(np.max(dims)))
        # columns span g.v
        tan_basis = np.swapaxes(vt, 1, 2) * (index < dims[:, None])[:, None, :]
        _, sv2, vt2 = np.linalg.svd(tangent @ rep.j)  # omega(xi v, .) functionals
        # columns span (g.v)^perp
        perp = np.swapaxes(vt2, 1, 2) * (index >= _rank_cut(sv2)[:, None])[:, None, :]
        resid = perp - tan_basis @ (np.swapaxes(tan_basis, 1, 2) @ perp)
        coisotropic &= not np.any(np.linalg.norm(resid, ord=2, axis=(1, 2)) > 1e-8)
    rest = rep.dim - orbit - rk
    if rest < 0 or rest % 2:
        raise NumericalDegeneracy(
            f"numeric check rank_complexity_match failed: dim V - orbit - rank "
            f"= {rest} is not an even nonneg integer"
        )
    return rk, orbit, rest // 2, coisotropic


# -- local structure: the solve for q ----------------------------------------

@dataclass(frozen=True, eq=False)
class LocalFrame:
    """One local-structure step on a model: Delta_u, the exact basis of the
    slice S = (p_u^- v0)^perp cap (p_u v0^-)^perp, and the float data that
    the q-embedding and the commuting square evaluate at each sample."""

    rep: object
    delta_u: tuple
    s_basis: tuple
    v0f: np.ndarray
    emats: np.ndarray   # (d, n, n): float e_r per r in Delta_u
    fv0: np.ndarray     # (d, n): float f_r v0 per r in Delta_u
    efv0: np.ndarray    # (d, d, n): e_a f_b v0 per pair a, b of Delta_u
    levi_index: tuple   # positions in rep.lie of the Levi's h, z, e and f


def local_frame(rep, step, layer):
    """The LocalFrame of a reduction step of the model's module, from the
    step (Delta_u and the Levi M) and the section layer that
    `sections.build_section` built for it (v0 and the slice functionals)."""
    du = step.delta_u
    v0f = np.array([float(x) for x in layer.v0])
    levi = [("h", i) for i in range(rep.datum.rank)]
    levi += [("z", l) for l in range(rep.datum.central_rank)]
    levi += [(side, r.vec) for r in positive_roots(step.levi) for side in "ef"]
    n = rep.dim
    emats = np.array([rep.lie_matrix(("e", r.vec)) for r in du]).reshape(-1, n, n)
    fv0 = np.array([rep.lie_matrix(("f", r.vec)) @ v0f for r in du]).reshape(-1, n)
    return LocalFrame(
        rep=rep,
        delta_u=du,
        s_basis=tuple(nullspace(layer.slice_rows, rep.dim)),
        v0f=v0f,
        emats=emats,
        fv0=fv0,
        efv0=fv0 @ np.swapaxes(emats, 1, 2),
        levi_index=tuple(rep.lie_index[lab] for lab in levi),
    )


@dataclass
class QEmbedding:
    """q(s) = s + xi_-(s) v0 with its membership residuals, stacked over the
    rows of a stack of s inside the domain; kept marks those rows among the
    input."""

    q: np.ndarray
    residual_sigma: float
    residual_perp: float
    kept: np.ndarray


def _omega_e(frame, x):
    """omega(e_r x, x) per r in Delta_u for each row of the stack x."""
    ex = x @ np.swapaxes(frame.emats, 1, 2)  # (d, k, n): e_r x
    return np.einsum("rkn,kn->kr", ex @ frame.rep.j, x)


def _q_embed(frame, s):
    """The q-embedding of the rows of the stack s inside the domain: the
    rows with |omega(s, v0)| >= DOMAIN_TOL whose system matrix for xi_- in
    p_u^- (triangular in root-height order) has no vanishing diagonal entry.
    InternalConsistencyError when the system matrix of a row with
    |omega(s, v0)| >= DOMAIN_TOL is not triangular."""
    rep, du = frame.rep, frame.delta_u
    inside = np.abs((s @ rep.j) @ frame.v0f) >= DOMAIN_TOL
    # a[i, a, b] = omega(e_a f_b v0, s_i)
    a = np.moveaxis((frame.efv0 @ rep.j) @ s.T, -1, 0)
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(1, 2), initial=0.0))
    heights = np.array([r.height for r in du])
    lower = (heights[None, :] < heights[:, None]) | (
        (heights[None, :] == heights[:, None]) & ~np.eye(len(du), dtype=bool)
    )
    off = (np.abs(a) > 1e-9 * scale[:, None, None]) & lower & inside[:, None, None]
    if off.any():
        _, ai, bi = np.argwhere(off)[0]
        raise InternalConsistencyError(f"system matrix not triangular at ({ai},{bi})")
    kept = inside & ~(np.abs(np.diagonal(a, axis1=1, axis2=2)) < DOMAIN_TOL).any(axis=1)
    rhs = -0.5 * _omega_e(frame, s[kept])
    coeff = np.linalg.solve(a[kept], rhs[..., None])[..., 0]
    q = s[kept] + coeff @ frame.fv0
    res_sigma = np.max(np.abs(_omega_e(frame, q)), axis=1, initial=0.0)
    res_perp = np.max(np.abs(q @ (frame.fv0 @ rep.j).T), axis=1, initial=0.0)
    return QEmbedding(q, res_sigma, res_perp, kept)


@dataclass
class CommuteReport:
    residual_levi: float
    residual_charpoly: float
    embedding: QEmbedding


def _commute(frame, s):
    emb = _q_embed(frame, s)
    levi = list(frame.levi_index)
    k = len(emb.q)
    coords = moment_coords(frame.rep, np.concatenate([emb.q, s[emb.kept]]))
    at_q = coords[:k]
    res_levi = np.max(np.abs(at_q[:, levi] - coords[k:, levi]), axis=1, initial=0.0)
    # the moment value at q and its projection to the Levi
    proj = np.zeros_like(coords)
    proj[:k] = at_q
    proj[k:, levi] = at_q[:, levi]
    res_char = np.zeros(k)
    for mats in factor_matrix_forms(frame.rep, proj):
        coeffs = charpoly_coeffs(mats)
        res_char = np.maximum(
            res_char, np.max(np.abs(coeffs[:k] - coeffs[k:]), axis=1, initial=0.0)
        )
    return CommuteReport(res_levi, res_char, emb)


def verify_commute(frame, s):
    """Check the two commutation statements for the embedding q at each row
    of the stack s (k, n): restriction of the moment value to the Levi
    equals the moment value inside S, and the characteristic polynomials
    agree with those of the Levi projection.  The rows outside the domain
    of q are dropped (see _q_embed); each chunk of the stack is one batched
    solve and one moment_coords call on its q and s rows."""
    s = np.asarray(s, dtype=float)
    _check_length(frame.rep, s)
    row = 2 * len(frame.rep.lie) * frame.rep.dim
    return _join([_commute(frame, s[part]) for part in _chunks(len(s), row)])


# -- Poisson brackets ---------------------------------------------------------

def gradient_bracket(rep, gf, gg):
    """{f, g} from the gradients of f and g: -grad(f) . J^{-1} grad(g).  For
    stacks of gradients (one per row) it is the matrix of the brackets of
    every row of gf with every row of gg, and a leading sample axis gives one
    such matrix per sample."""
    gg = np.asarray(gg)
    cols = np.swapaxes(gg, -1, -2) if gg.ndim > 1 else gg
    return -np.asarray(gf) @ np.linalg.solve(rep.j, cols)
