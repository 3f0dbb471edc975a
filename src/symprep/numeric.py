"""Floating-point and exact-rational verification of the structure theory.

Everything here works on MatrixRep models: moment maps and their invariant
images, numerical rank/complexity estimates, coisotropy of generic orbits,
the nonlinear embedding q of the local-structure step, moment-map sections
over a*, and Poisson brackets.  Random sampling is seeded and reproducible;
rank decisions use singular-value thresholds at unit input scale.
"""

from dataclasses import dataclass

import numpy as np

from .classify import WeightStatus, weight_status
from .errors import (
    DimensionMismatch,
    InternalConsistencyError,
    NoReductionAvailable,
    NotSupported,
    NumericalDegeneracy,
    SingularSystem,
    SOutsideDomain,
)
from .linalg import cvec, mat_vec, nullspace, vdot
from .matrixrep import _reference_block, factor_lie, hyperbolic_pair
from .reduction import delta_u_roots
from .rootdata import positive_roots

RANK_TOL = 1e-8
IDENTITY_TOL = 1e-10
DOMAIN_TOL = 1e-6


def seeded_samples(rng, dim, count):
    """Integer-lattice-offset Gaussian sample vectors, unit-normalized."""
    out = []
    for _ in range(count):
        v = rng.integers(-2, 3, size=dim) + rng.standard_normal(dim)
        n = np.linalg.norm(v)
        if n < 1e-9:
            v = np.ones(dim)
            n = np.linalg.norm(v)
        out.append(v / n)
    return out


def _check_length(rep, v):
    if v.shape[-1] != rep.dim:
        raise DimensionMismatch(f"vector length {v.shape[-1]} != dim {rep.dim}")


def _lie_stack(rep):
    """rep.lie stacked once into an (L, n, n) array; L is 0 for the trivial
    group."""
    if not hasattr(rep, "_lie_stack_cache"):
        stack = np.reshape(rep.lie, (len(rep.lie), rep.dim, rep.dim))
        object.__setattr__(rep, "_lie_stack_cache", stack)
    return rep._lie_stack_cache


def moment_coords(rep, v):
    """m(v) as the vector of values on the Chevalley basis of g.  v is one
    vector of shape (n,) or a stack (k, n), real or complex; each leading row
    is one point and gets its own row of values."""
    v = np.asarray(v)
    _check_length(rep, v)
    lie = _lie_stack(rep)
    mv = (v @ lie.reshape(-1, rep.dim).T).reshape(v.shape[:-1] + lie.shape[:2])
    jv = v @ rep.j.T
    return 0.5 * (mv @ jv[..., None])[..., 0]


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


class _FactorFrame:
    """Reference defining module of one simple factor with an exact trace-form
    Gram matrix over its Chevalley basis elements, and the positions of those
    elements in rep.lie."""

    def __init__(self, rep, fi):
        datum = rep.datum
        letter, frank = datum.factors[fi]
        self.letter, self.frank = letter, frank
        self.idxs = datum.standard_order[fi]
        lie = factor_lie(datum, fi, _reference_block(letter, frank))
        self.pos = np.array([rep.lie_index[label] for label, _ in lie])
        self.mats = np.array([m for _, m in lie], dtype=float)
        gram = np.einsum("fab,gba->fg", self.mats, self.mats)
        self.gram_inv = np.linalg.inv(gram)
        self.gram_t_inv = np.linalg.inv(gram[:frank, :frank])

    def matrix_of(self, u, count=None):
        """sum_f u[..., f] mats[f] over the first count basis elements."""
        return np.tensordot(u, self.mats[:count], axes=1)

    def invariant_coords_of(self, mat):
        coeffs = charpoly_coeffs(mat)
        if self.letter == "A":
            return coeffs[..., 1:]
        return coeffs[..., 1::2]


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


@dataclass
class MomentValue:
    coords: np.ndarray
    factor_matrices: list


def moment_eval(rep, v):
    coords = moment_coords(rep, v)
    return MomentValue(coords, factor_matrix_forms(rep, coords))


def inv_moment_eval(rep, v):
    """Invariant moment map: per-factor characteristic coefficients of the
    moment value followed by the central linear coordinates, along the last
    axis of one vector or of a stack of them."""
    for letter, frank in rep.datum.factors:
        if letter not in ("A", "C"):
            raise NotSupported(f"no invariant coordinates for type {letter}{frank}")
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
    """The number of singular values above RANK_TOL at unit input scale."""
    return int(np.sum(sv > RANK_TOL * max(1.0, sv[0] if sv.size else 1.0)))


def _numeric_rank(mat):
    if mat.size == 0:
        return 0
    return _rank_cut(np.linalg.svd(np.asarray(mat, dtype=float), compute_uv=False))


def orbit_directions(rep, v):
    """The tangent vectors xi v of the orbit through v, one row per element
    of rep.lie."""
    return _lie_stack(rep) @ v


def jacobian_inv_moment(rep, v):
    """Exact-to-machine-precision Jacobian via complex-step differentiation:
    the perturbations v + i h e_j of every coordinate j are one stack, so the
    invariant moment map is evaluated once."""
    v = np.asarray(v, dtype=float)
    _check_length(rep, v)
    h = 1e-100
    return np.imag(inv_moment_eval(rep, v + 1j * h * np.eye(rep.dim))).T / h


def jacobian_rank_and_orbit(rep, samples=8, seed=0):
    """(est_rk, est_orbit_dim, est_c) maximized over seeded samples."""
    if samples < 5:
        raise ValueError("need at least five samples")
    rng = np.random.default_rng(seed)
    rk = 0
    orbit = 0
    for v in seeded_samples(rng, rep.dim, samples):
        rk = max(rk, _numeric_rank(jacobian_inv_moment(rep, v)))
        orbit = max(orbit, _numeric_rank(orbit_directions(rep, v)))
    rest = rep.dim - orbit - rk
    if rest < 0 or rest % 2:
        raise NumericalDegeneracy(
            f"dim V - orbit - rank = {rest} is not an even nonneg integer"
        )
    return rk, orbit, rest // 2


def coisotropy_test(rep, samples=8, seed=0):
    """True when the symplectic perp of the generic orbit tangent lies inside
    the tangent itself, for every sample."""
    rng = np.random.default_rng(seed)
    for v in seeded_samples(rng, rep.dim, samples):
        tangent = orbit_directions(rep, v)
        u, sv, vt = np.linalg.svd(tangent)
        cut = _rank_cut(sv)
        tan_basis = vt[:cut].T  # columns span g.v
        rows = tangent @ rep.j  # omega(xi v, .) functionals
        u2, sv2, vt2 = np.linalg.svd(rows)
        cut2 = _rank_cut(sv2)
        perp = vt2[cut2:].T     # columns span (g.v)^perp
        if perp.size == 0:
            continue
        resid = perp - tan_basis @ (tan_basis.T @ perp)
        if np.linalg.norm(resid, ord=2) > 1e-8:
            return False
    return True


# -- local structure: the solve for q ----------------------------------------

@dataclass(frozen=True, eq=False)
class LocalFrame:
    """One local-structure step on a model, derived once: the hyperbolic pair
    (v0, v0^-), Delta_u, the exact basis of the slice
    S = (p_u^- v0)^perp cap (p_u v0^-)^perp, and the float data that the
    q-embedding and the commuting square evaluate at each sample."""

    rep: object
    chi: tuple
    v0: tuple
    v0m: tuple
    delta_u: tuple
    s_basis: tuple
    v0f: np.ndarray
    emats: tuple        # float e_r per r in Delta_u
    fv0: tuple          # float f_r v0 per r in Delta_u
    levi_index: tuple   # positions in rep.lie of the Levi's h, z, e and f


def local_frame(rep, chi):
    """The LocalFrame of the step at chi; NoReductionAvailable unless chi is
    a non-terminal highest weight of the model's module."""
    chi = cvec(chi)
    if weight_status(rep.spec, chi) is not WeightStatus.NON_TERMINAL:
        raise NoReductionAvailable(f"{chi} is a terminal weight; nothing to reduce")
    v0, v0m = hyperbolic_pair(rep, chi)
    if v0 is None:
        raise InternalConsistencyError(f"no highest weight vector of weight {chi}")
    if v0m is None:
        neg = tuple(-x for x in chi)
        raise InternalConsistencyError(
            f"no lowest weight vector of weight {neg} pairs with v0"
        )
    du = delta_u_roots(rep.datum, chi)
    v0f = np.array([float(x) for x in v0])
    levi = [("h", i) for i in range(rep.datum.rank)]
    levi += [("z", l) for l in range(rep.datum.central_rank)]
    for r in positive_roots(rep.datum):
        if vdot(chi, r.coroot_vec) == 0:
            levi += [("e", r.coords), ("f", r.coords)]
    return LocalFrame(
        rep=rep,
        chi=chi,
        v0=v0,
        v0m=v0m,
        delta_u=du,
        s_basis=tuple(nullspace(slice_functionals(rep, du, v0, v0m), rep.dim)),
        v0f=v0f,
        emats=tuple(rep.lie_matrix(("e", r.coords)) for r in du),
        fv0=tuple(rep.lie_matrix(("f", r.coords)) @ v0f for r in du),
        levi_index=tuple(rep.lie_index[lab] for lab in levi),
    )


def slice_functionals(rep, roots, v0, v0m):
    """The rows omega(f_r v0, .) and omega(e_r v0m, .) per root r; the slice
    S of the local-structure step is their joint kernel.  Exact."""
    rows = []
    for r in roots:
        coords = rep.root_coords(r.vec)
        rows.append(rep.omega_row(mat_vec(rep.lie_matrix_exact(("f", coords)), v0)))
        rows.append(rep.omega_row(mat_vec(rep.lie_matrix_exact(("e", coords)), v0m)))
    return rows


@dataclass
class QEmbedding:
    q: np.ndarray
    xi_minus: np.ndarray
    system_matrix: np.ndarray
    residual_sigma: float
    residual_perp: float


def phi_solve_q_embed(frame, s):
    """Solve the square linear system for xi_- in p_u^- and return
    q(s) = s + xi_-(s) v0 together with its membership residuals.

    The system matrix is asserted to be triangular in root-height order with
    nonvanishing diagonal."""
    rep, du, emats, fv0 = frame.rep, frame.delta_u, frame.emats, frame.fv0
    s = np.asarray(s, dtype=float)
    if abs(rep.omega(s, frame.v0f)) < DOMAIN_TOL:
        raise SOutsideDomain("omega(s, v0) is below the domain tolerance")
    k = len(du)
    a = np.zeros((k, k))
    rhs = np.zeros(k)
    for ai in range(k):
        for bi in range(k):
            a[ai, bi] = rep.omega(emats[ai] @ fv0[bi], s)
        rhs[ai] = -0.5 * rep.omega(emats[ai] @ s, s)
    scale = max(1.0, float(np.max(np.abs(a))))
    for ai in range(k):
        for bi in range(k):
            hi, hj = du[ai].height, du[bi].height
            lower = hj < hi or (hj == hi and ai != bi)
            if lower and abs(a[ai, bi]) > 1e-9 * scale:
                raise InternalConsistencyError(
                    f"system matrix not triangular at ({ai},{bi})"
                )
    for ai in range(k):
        if abs(a[ai, ai]) < DOMAIN_TOL:
            raise SingularSystem(f"triangular diagonal vanishes at {du[ai].coords}")
    coeff = np.linalg.solve(a, rhs)
    q = s + sum(c * fv for c, fv in zip(coeff, fv0))
    res_sigma = max(
        (abs(rep.omega(em @ q, q)) for em in emats), default=0.0
    )
    res_perp = max((abs(rep.omega(fv, q)) for fv in fv0), default=0.0)
    return QEmbedding(q, coeff, a, res_sigma, res_perp)


@dataclass
class CommuteReport:
    residual_levi: float
    residual_charpoly: float
    embedding: QEmbedding


def verify_commute(frame, s):
    """Check the two commutation statements for the embedding q: restriction
    of the moment value to the Levi equals the moment value inside S, and the
    characteristic polynomials agree with those of the Levi projection."""
    emb = phi_solve_q_embed(frame, s)
    levi = list(frame.levi_index)
    coords = moment_coords(frame.rep, np.stack([emb.q, np.asarray(s, dtype=float)]))
    res_levi = float(np.max(np.abs(coords[0, levi] - coords[1, levi]), initial=0.0))
    # the moment value at q and its projection to the Levi
    proj = np.zeros_like(coords)
    proj[0] = coords[0]
    proj[1, levi] = coords[0, levi]
    res_char = 0.0
    for mats in factor_matrix_forms(frame.rep, proj):
        cf, cr = charpoly_coeffs(mats)
        res_char = max(res_char, float(np.max(np.abs(cf - cr), initial=0.0)))
    return CommuteReport(res_levi, res_char, emb)


# -- Poisson brackets ---------------------------------------------------------

@dataclass
class PolyFn:
    """Function on the module with its exact gradient."""

    value: callable
    grad: callable

    def gradient(self, v):
        return np.asarray(self.grad(v), dtype=float)


def coordinate_fn(i):
    return PolyFn(value=lambda v: float(v[i]),
                  grad=lambda v: np.eye(len(v))[i])


def moment_component_fn(rep, label):
    """The moment coordinate v -> 1/2 omega(xi v, v) with its exact gradient
    -J xi v."""
    xi = rep.lie_matrix(label)

    def val(v):
        v = np.asarray(v, dtype=float)
        return 0.5 * (xi @ v) @ (rep.j @ v)

    def grad(v):
        return -(rep.j @ (xi @ np.asarray(v, dtype=float)))

    return PolyFn(value=val, grad=grad)


def inv_moment_component_fn(rep, idx):
    """One invariant-moment coordinate; its gradient is the idx-th row of
    jacobian_inv_moment."""

    def val(v):
        return float(np.real(inv_moment_eval(rep, np.asarray(v, dtype=float))[idx]))

    return PolyFn(value=val, grad=lambda v: jacobian_inv_moment(rep, v)[idx])


def gradient_bracket(rep, gf, gg):
    """{f, g} from the gradients of f and g: -grad(f) . J^{-1} grad(g).  For
    stacks of gradients (one per row) it is the matrix of the brackets of
    every row of gf with every row of gg."""
    return -np.asarray(gf) @ np.linalg.solve(rep.j, np.transpose(gg))


def poisson_bracket(rep, f, g, v):
    """{f, g}(v) = omega(H_f, H_g)(v) with Hamiltonian fields from the model's
    form."""
    return float(gradient_bracket(rep, f.gradient(v), g.gradient(v)))
