"""The numeric verification battery behind the `verify` CLI command.

Every check compares the matrix model against either a closed-form statement
or the combinatorial analysis, with fixed tolerances.  Residual maxima and
the seed are reported so runs are reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, SpecFormatError, SymprepError
from .matrixrep import build_rep, find_hw_vectors
from .numeric import (
    _chunks,
    _frames,
    _jacobian_row,
    _join,
    gradient_bracket,
    inv_moment_eval,
    jacobian_inv_moment,
    local_frame,
    moment_coords,
    moment_eval,
    orbit_estimates,
    seeded_samples,
    verify_commute,
)
from .reduction import analyze
from .sections import build_section, rho_psg, verify_section


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    passed: bool
    checks: list
    seed: int
    samples: int

    def failing(self):
        return [c for c in self.checks if not c.passed]


# The float checks evaluate their sample points as stacks split into chunks
# of at most numeric.STACK_BUDGET entries, so memory is bounded per chunk;
# the cap bounds the time, which grows linearly with the sample count.
SAMPLES_CAP = 1000


def check_samples(samples, field="samples"):
    """SpecFormatError when the sample count is below 1, as no check may pass
    on zero samples, and BudgetExceeded when it is over SAMPLES_CAP; field
    names the value in the message."""
    if samples < 1:
        raise SpecFormatError(f"{field} must be at least 1")
    if samples > SAMPLES_CAP:
        raise BudgetExceeded(
            f"{field} = {samples} exceeds the sample cap {SAMPLES_CAP}"
        )


def _check(checks, name, residual, tol):
    checks.append(CheckResult(name, float(residual), tol, float(residual) <= tol))


def _flag(checks, name, ok, detail=""):
    checks.append(CheckResult(name, 0.0 if ok else 1.0, 0.5, bool(ok), detail))


def verify_suite(spec, seed=0, samples=20, analysis=None):
    """Run the full numeric battery on the matrix model of a spec."""
    check_samples(samples)
    rep = build_rep(spec)
    analysis = analysis or analyze(spec)
    rng = np.random.default_rng(seed)
    checks = []

    # infinitesimal invariance of the form, in floating point
    lie = rep.lie
    res = np.max(np.abs(np.swapaxes(lie, 1, 2) @ rep.j + rep.j @ lie), initial=0.0)
    _check(checks, "form_invariance", res, 1e-10)

    # moment map defining identity, round-tripped through the matrix form
    vs = seeded_samples(rng, rep.dim, max(3, samples // 4))
    res = 0.0
    for part in _chunks(len(vs), len(rep.lie) * rep.dim):
        mv = moment_eval(rep, vs[part])
        half = _half_omega(rep, lie, vs[part])
        res = max(res, np.max(np.abs(mv.coords - half), initial=0.0))
        for frame, mats in zip(_frames(rep), mv.factor_matrices):
            back = np.einsum("kab,fba->kf", mats, frame.mats)  # trace(mat @ ref)
            res = max(res, np.max(np.abs(back - mv.coords[:, frame.pos])))
    _check(checks, "moment_identity", res, 1e-12)

    # equivariance along nilpotent one-parameter flows
    res = _equivariance_residual(rep, rng)
    _check(checks, "moment_equivariance", res, 1e-8)

    # highest-weight structure matches the spec
    try:
        find_hw_vectors(rep)
        _flag(checks, "highest_weight_structure", True)
    except SymprepError as exc:
        _flag(checks, "highest_weight_structure", False, str(exc))

    # closed form for lone defining symplectic blocks
    res = _sp_closed_form_residual(rep, rng)
    if res is not None:
        _check(checks, "sp_standard_closed_form", res[0], 1e-12)
        _check(checks, "sp_standard_rank_one", res[1], 1e-8)
        _check(checks, "sp_standard_nilpotent", res[2], 1e-8)
        _check(checks, "sp_standard_invariant_zero", res[3], 1e-10)

    # invariant moment map image vs the combinatorial rank/complexity, and
    # coisotropy of the generic orbits vs multiplicity freeness
    est_rk, _, est_c, coiso = orbit_estimates(rep, max(5, samples // 2), seed)
    _flag(
        checks,
        "rank_complexity_match",
        est_rk == analysis.rk_s and est_c == analysis.c_s,
        f"numeric (rk, c) = ({est_rk}, {est_c}), "
        f"combinatorial ({analysis.rk_s}, {analysis.c_s})",
    )
    _flag(
        checks,
        "coisotropy_matches_mf",
        coiso == analysis.mf,
        f"coisotropic={coiso}, mf={analysis.mf}",
    )

    # sections: exact construction along the analysis' reduction; its first
    # layer holds the first step's (v0, v0^-) and slice functionals
    section = build_section(rep, (analysis.trace, analysis.terminal))

    # local structure solve and the commuting square, at the weight the
    # analysis reduced first
    if analysis.trace:
        frame = local_frame(rep, analysis.trace[0], section.layers[0])
        rc, done = _commute_samples(frame, rng, samples)
        _flag(checks, "q_embed_samples", done == samples, f"{done}/{samples} samples")
        for name, values in (
            ("q_embed_sigma", rc.embedding.residual_sigma),
            ("q_embed_perp", rc.embedding.residual_perp),
            ("commute_levi_restriction", rc.residual_levi),
            ("commute_invariant_image", rc.residual_charpoly),
        ):
            _check(checks, name, np.max(values, initial=0.0), 1e-9)

    # sections: float residual of the invariant image
    sr = verify_section(rep, section, samples=samples, seed=seed)
    _check(checks, "section_residual", sr.residual_max, 1e-8)
    _flag(checks, "section_zero_fiber", sr.zero_fiber_ok)

    # separating one-parameter subgroup exists and verifies exactly
    try:
        rho_psg(spec)
        _flag(checks, "separating_psg", True)
    except SymprepError as exc:
        _flag(checks, "separating_psg", False, str(exc))

    # pulled-back invariants Poisson-commute; row i of the Jacobian is the
    # gradient of invariant coordinate i
    vs = seeded_samples(rng, rep.dim, max(3, samples // 5))
    res = 0.0
    for part in _chunks(len(vs), _jacobian_row(rep)):
        grads = jacobian_inv_moment(rep, vs[part])
        brackets = np.triu(gradient_bracket(rep, grads, grads))
        res = max(res, np.max(np.abs(brackets), initial=0.0))
    _check(checks, "moment_pullback_commutes", res, 1e-8)

    passed = all(c.passed for c in checks)
    return VerifyReport(passed, checks, seed, samples)


def _commute_samples(frame, rng, samples):
    """verify_commute at up to `samples` points s of the slice, drawn from rng
    in rounds of one stack each, in at most 20 * samples draws; rows outside
    the domain are dropped.  Returns the joined CommuteReport, whose kept
    mask runs over every draw, and the number of accepted samples."""
    bmat = np.array([[float(x) for x in b] for b in frame.s_basis]).T
    reports = []
    done = attempts = 0
    while done < samples and attempts < 20 * samples:
        want = min(samples - done, 20 * samples - attempts)
        attempts += want
        rc = verify_commute(frame, rng.standard_normal((want, bmat.shape[1])) @ bmat.T)
        reports.append(rc)
        done += int(np.count_nonzero(rc.embedding.kept))
    return _join(reports), done


def _half_omega(rep, mats, vs):
    """1/2 omega(X v, v) for each matrix X of the (L, n, n) stack and each
    row v of vs, as a (k, L) array, with omega(u, w) = (u J) w."""
    dirs = np.moveaxis(mats @ vs.T, -1, 0)
    return 0.5 * ((dirs @ rep.j) @ vs[:, :, None])[..., 0]


def _equivariance_residual(rep, rng):
    """m(exp(t e) v) vs coadjoint transport, with the exact nilpotent series
    exponential."""
    res = 0.0
    labels = [lab for lab in rep.lie_labels if lab[0] == "e"][:2]
    for lab in labels:
        x = rep.lie_matrix(lab)
        t = 0.7
        g = np.eye(rep.dim)
        term = np.eye(rep.dim)
        k = 1
        while np.max(np.abs(term)) > 0:
            term = term @ (t * x) / k
            g = g + term
            k += 1
            if k > rep.dim + 2:
                break
        ginv = np.linalg.inv(g)
        vs = seeded_samples(rng, rep.dim, 2)
        after = moment_coords(rep, vs @ g.T)
        moved = _half_omega(rep, ginv @ rep.lie @ g, vs)
        res = max(res, float(np.max(np.abs(after - moved))))
    return res


def _sp_closed_form_residual(rep, rng):
    """For a lone type-C defining block: m(v) = -1/2 v v^T J, nilpotent of
    rank one, invariant image zero.  Returns the four residual maxima, or
    None when not applicable."""
    if len(rep.blocks) != 1:
        return None
    kind, weight, start, size = rep.blocks[0]
    if kind != "symplectic":
        return None
    datum = rep.datum
    if len(datum.factors) != 1 or datum.factors[0][0] not in ("A", "C"):
        return None
    letter, n = datum.factors[0]
    expected_dim = 2 if letter == "A" else 2 * n
    if rep.dim != expected_dim:
        return None
    vs = seeded_samples(rng, rep.dim, 20)
    mats = moment_eval(rep, vs).factor_matrices[0]
    closed = -0.5 * (vs[:, :, None] * vs[:, None, :]) @ rep.j
    closed_res = np.max(np.abs(mats - closed))
    rank_res = np.max(np.linalg.svd(mats, compute_uv=False)[:, 1:], initial=0.0)
    # M^2 = 0 relative to |M|^2: rounding-level, where the eigenvalues of a
    # square-zero matrix come out at ~sqrt(rounding)
    scale = np.max(np.abs(mats), axis=(1, 2)) ** 2
    nil_res = np.max(np.max(np.abs(mats @ mats), axis=(1, 2)) / scale)
    inv_res = np.max(np.abs(inv_moment_eval(rep, vs)))
    return closed_res, rank_res, nil_res, inv_res
