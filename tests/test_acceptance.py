"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Expected values marked as derived were frozen from the independent oracles in
oracles.py (Kostant multiplicities, monomial counting, closure enumeration).
"""

import io
import json
import time
from itertools import product

import numpy as np
import pytest

from symprep.classify import WeightStatus, weight_status
from symprep.linalg import mat_vec, same_span, vdot
from symprep.matrixrep import build_rep
from symprep.numeric import (
    factor_matrix_forms,
    inv_moment_eval,
    moment_coords,
    orbit_estimates,
    seeded_samples,
    verify_commute,
)
from symprep.reduction import analyze, reduce_step, run_reduction
from symprep.reps import (
    freudenthal_multiplicities,
    invariant_dims,
    validate_symplectic_spec,
)
from symprep.rootdata import build_root_datum, rho_vee
from symprep.sections import build_section, verify_section
from symprep.verify import verify_suite

from corpus import A1, A2, A3, C2, C3, T1, T2, catalog, nonterminal_catalog
from oracles import (
    commute_refusals_oracle,
    critical_first_points_oracle,
    frame_at,
    invariant_dims_oracle,
    kostant_weight_multiset,
    plan_pairs_oracle,
    subspace_normalizer_oracle,
    weight_moment_oracle,
    weyl_matrices_bruteforce,
)


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_freudenthal_against_weyl_character_oracle():
    """Criterion 1: multiplicities match the Kostant/Weyl oracle for all
    dominant weights of height <= 6 on A1, A2, C2, A1xA1, within 10 s."""
    t0 = time.monotonic()
    data = [A1, A2, C2, build_root_datum([("A", 1), ("A", 1)])]
    checked = 0
    for datum in data:
        rv = rho_vee(datum)
        bound = 6
        coord_cap = 2 * bound + 1
        for coords in product(range(coord_cap), repeat=datum.rank):
            lam = tuple(coords)
            if vdot(lam, rv) > bound:
                continue
            expect = kostant_weight_multiset(datum, lam)
            got = freudenthal_multiplicities(datum, lam)
            assert got == expect, (datum.factors, lam)
            checked += 1
    elapsed = time.monotonic() - t0
    _report(
        "criterion 1 (Freudenthal vs oracle)",
        elapsed < 10.0,
        f"{checked} weights in {elapsed:.2f}s",
    )


def test_criterion_2_symplectic_standard_closed_form():
    """Criterion 2: the defining modules of Sp2, Sp4, Sp6, Sp8 have moment
    values -1/2 v v^T J, rank one, nilpotent, with zero invariant image; the
    reduction reports rank 0, complexity 0."""
    cases = [
        validate_symplectic_spec(A1, [((1,), 1)]),
        validate_symplectic_spec(C2, [((1, 0), 1)]),
        validate_symplectic_spec(C3, [((1, 0, 0), 1)]),
        validate_symplectic_spec(build_root_datum([("C", 4)]), [((1, 0, 0, 0), 1)]),
    ]
    worst = {"closed": 0.0, "sv": 0.0, "nil": 0.0, "inv": 0.0}
    for spec in cases:
        rep = build_rep(spec)
        rng = np.random.default_rng(0)
        for v in seeded_samples(rng, rep.dim, 100):
            mat = factor_matrix_forms(rep, moment_coords(rep, v))[0]
            worst["closed"] = max(
                worst["closed"],
                float(np.max(np.abs(mat + 0.5 * np.outer(v, v) @ rep.j))),
            )
            sv = np.linalg.svd(mat, compute_uv=False)
            if sv.size > 1:
                worst["sv"] = max(worst["sv"], float(sv[1]))
            # M^2 = 0 relative to |M|^2, as verify checks it: rounding-level,
            # where the eigenvalues of a square-zero M sit at ~sqrt(rounding)
            worst["nil"] = max(
                worst["nil"],
                float(np.max(np.abs(mat @ mat)) / np.max(np.abs(mat)) ** 2),
            )
            worst["inv"] = max(
                worst["inv"], float(np.max(np.abs(inv_moment_eval(rep, v))))
            )
        td = run_reduction(spec)[1]
        assert (td.a_rank, td.c) == (0, 0)
    ok = (
        worst["closed"] <= 1e-12
        and worst["sv"] <= 1e-8
        and worst["nil"] <= 1e-12
        and worst["inv"] <= 1e-10
    )
    _report(
        "criterion 2 (Sp standard closed form)",
        ok,
        f"closed {worst['closed']:.1e}, sv {worst['sv']:.1e}, "
        f"nil {worst['nil']:.1e}, inv {worst['inv']:.1e}",
    )


def test_criterion_3_std_plus_dual_family():
    """Criterion 3: SL_n on standard + dual for n = 2, 3, 4."""
    expected_dims = [1, 0, 1, 0, 1, 0, 1, 0, 1]
    for n, datum in [(2, A1), (3, A2), (4, A3)]:
        if n == 2:
            spec = validate_symplectic_spec(datum, [((1,), 2)])
        else:
            e1 = tuple(1 if i == 0 else 0 for i in range(n - 1))
            en = tuple(1 if i == n - 2 else 0 for i in range(n - 1))
            spec = validate_symplectic_spec(datum, [(e1, 1), (en, 1)])
        rep = analyze(spec)
        assert (rep.rk_s, rep.c_s, rep.mf) == (1, 0, True), n
        if n >= 3:
            assert rep.gamma.gamma_order == 1, n
        assert rep.little_weyl.status == "exact"
        assert rep.little_weyl.order == 1, n
        dims = invariant_dims(spec, 8)
        assert dims == expected_dims, n
        weights = []
        for w, m in spec.weight_multiset().items():
            weights.extend([w] * m)
        assert invariant_dims_oracle(datum, weights, 8) == expected_dims, n
    _report("criterion 3 (SL_n standard+dual)", True, "n = 2, 3, 4")


def test_criterion_4_binary_cubics():
    """Criterion 4: SL2 on binary cubics; the invariant ring is generated in
    degree 4 = 2 x 2, with the order-two little Weyl group."""
    spec = validate_symplectic_spec(A1, [((3,), 1)])
    rep = analyze(spec)
    assert (rep.rk_s, rep.c_s, rep.mf) == (1, 0, True)
    dims = invariant_dims(spec, 8)
    expected = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert dims == expected
    weights = []
    for w, m in spec.weight_multiset().items():
        weights.extend([w] * m)
    assert invariant_dims_oracle(A1, weights, 8) == expected
    assert rep.little_weyl.status == "exact"
    assert rep.little_weyl.order == 2
    assert rep.little_weyl.degrees == (2,)
    generator_degrees = [2 * d for d in rep.little_weyl.degrees]
    assert generator_degrees == [4]
    _report("criterion 4 (binary cubics)", True, "W_V of order 2, degree 4")


def test_criterion_5_cotangent_adjoint():
    """Criterion 5: two copies of the SL2 adjoint: rank 1, complexity 1, not
    multiplicity free, non-coisotropic orbits, matching numeric estimates."""
    spec = validate_symplectic_spec(A1, [((2,), 2)])
    rep = analyze(spec)
    assert (rep.rk_s, rep.c_s, rep.mf) == (1, 1, False)
    model = build_rep(spec)
    est_rk, _, est_c, coiso = orbit_estimates(model, 8, seed=0)
    assert coiso is False
    assert (est_rk, est_c) == (1, 1)
    _report("criterion 5 (adjoint cotangent)", True)


def test_criterion_6_combinatorial_numeric_agreement():
    """Criterion 6: numeric rank/complexity/coisotropy agree with the
    combinatorial analysis across the full catalog, within 60 s."""
    t0 = time.monotonic()
    names = []
    for name, (spec, (rk, c, mf)) in catalog().items():
        model = build_rep(spec)
        est_rk, _, est_c, coiso = orbit_estimates(model, 6, seed=1)
        assert (est_rk, est_c) == (rk, c), name
        assert coiso == mf, name
        trace, td = run_reduction(spec)
        assert (td.a_rank, td.c) == (rk, c), name
        names.append(name)
    elapsed = time.monotonic() - t0
    _report(
        "criterion 6 (combinatorial-numeric agreement)",
        elapsed < 60.0 and len(names) >= 8,
        f"{len(names)} modules in {elapsed:.2f}s",
    )


def test_criterion_7_local_structure_verification():
    """Criterion 7: the q-embedding solves and the commuting square holds to
    1e-9 over 20 seeded samples per non-terminal catalog module."""
    for name, (spec, _) in nonterminal_catalog().items():
        rep = build_rep(spec)
        from symprep.classify import terminal_decomposition

        chi = terminal_decomposition(spec).witness
        frame = frame_at(rep, chi)
        bmat = np.array([[float(x) for x in b] for b in frame.s_basis]).T
        pts = np.random.default_rng(42).standard_normal((20, bmat.shape[1])) @ bmat.T
        out = verify_commute(frame, pts)
        kept = out.embedding.kept
        assert commute_refusals_oracle(frame, pts) == list(np.flatnonzero(~kept)), name
        assert kept.all(), (name, int(kept.sum()))
        worst = max(
            np.max(out.embedding.residual_sigma),
            np.max(out.embedding.residual_perp),
            np.max(out.residual_levi),
            np.max(out.residual_charpoly),
        )
        assert worst <= 1e-9, (name, worst)
    _report("criterion 7 (local structure)", True, "residuals <= 1e-9")


def test_criterion_8_sections():
    """Criterion 8: torus sections are exact on 20 samples including a
    critical-weight case, where they equal the critical-first plan's points;
    the recursive section has residual <= 1e-8 on 20 samples per catalog
    module and meets the zero fiber at a = 0."""
    # exact torus sections, with a critical weight in the rank-2 case
    from fractions import Fraction

    torus_cases = [
        build_rep(validate_symplectic_spec(T1, [((1,), 1), ((-1,), 1)])),
        build_rep(
            validate_symplectic_spec(
                T2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]
            )
        ),
    ]
    rng = np.random.default_rng(9)
    for rep in torus_cases:
        sec = build_section(rep, run_reduction(rep.spec))
        chis = [pair.chi for pair in sec.terminal_pairs]
        assert any(mode == "critical" for _, mode in plan_pairs_oracle(chis, []))
        targets = []
        for _ in range(20):
            coeffs = [
                Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))
                for _ in sec.a_star_basis
            ]
            a = tuple(
                sum(c * Fraction(b[k]) for c, b in zip(coeffs, sec.a_star_basis))
                for k in range(rep.datum.ambient_dim)
            )
            targets.append(a)
        targets.append((0,) * rep.datum.ambient_dim)
        points = sec.points(targets)
        for a, p in zip(targets, points):
            assert weight_moment_oracle(rep, p) == a
        assert repr(points) == repr(critical_first_points_oracle(sec, [], targets))
    # recursive sections across the catalog
    for name, (spec, _) in catalog().items():
        rep = build_rep(spec)
        section = build_section(rep, run_reduction(spec))
        report = verify_section(rep, section, samples=20, seed=4)
        assert report.residual_max <= 1e-8, name
        assert report.zero_fiber_ok, name
    _report("criterion 8 (sections)", True)


def test_criterion_9_permanence():
    """Criterion 9: every intermediate (S, M) module yields the same rank and
    complexity with a W_G-conjugate a*, and a first step at any non-terminal
    highest weight, followed by the reduction of its S, gives identical
    invariants."""
    for name, (spec, _) in catalog().items():
        trace, td = run_reduction(spec)
        base = (td.a_rank, td.c)
        elems = weyl_matrices_bruteforce(spec.datum)
        for step in trace:
            strace, std_ = run_reduction(step.s_spec)
            assert (std_.a_rank, std_.c) == base, name
            if std_.a_star_basis or td.a_star_basis:
                conj = any(
                    same_span(
                        [mat_vec(w, b) for b in std_.a_star_basis],
                        list(td.a_star_basis),
                    )
                    for w in elems
                )
                assert conj, name
        for w, _ in spec.summands:
            if weight_status(spec, w) is not WeightStatus.NON_TERMINAL:
                continue
            _, s_spec = reduce_step(spec, w)
            alt_td = run_reduction(s_spec)[1]
            assert (alt_td.a_rank, alt_td.c) == base, (name, w)
    _report("criterion 9 (permanence)", True)


def test_criterion_10_validation_gate():
    """Criterion 10: rejection carries the specified error codes; accepted
    corpus specs round-trip through the report schema byte-identically."""
    from symprep.errors import NotSelfDual, OddOrthogonalMultiplicity

    with pytest.raises(NotSelfDual):
        validate_symplectic_spec(A2, [((1, 0), 1)])
    with pytest.raises(OddOrthogonalMultiplicity):
        validate_symplectic_spec(A1, [((2,), 1)])

    import argparse

    from symprep.cli import cmd_analyze

    for name, (spec, _) in catalog().items():
        doc = {
            "group": {
                "simple": [list(f) for f in spec.datum.factors],
                "central_torus_rank": spec.datum.central_rank,
            },
            "rep": [{"hw": list(w), "mult": m} for w, m in spec.summands],
        }
        blobs = []
        for _ in range(2):
            buf = io.StringIO()
            ns = argparse.Namespace(spec=json.dumps(doc), text=False, trace=True)
            assert cmd_analyze(ns, out=buf) == 0, name
            blobs.append(buf.getvalue())
        assert blobs[0] == blobs[1], name
        parsed = json.loads(blobs[0])
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == blobs[0], name
    _report("criterion 10 (validation gate)", True)


def test_criterion_11_gamma_against_bruteforce():
    """Criterion 11: normalizer/centralizer/Gamma data match brute-force
    enumeration over all of W for every a* arising in the corpus."""
    from symprep.reduction import compute_gamma

    for name, (spec, _) in catalog().items():
        if spec.datum.weyl_order() > 10 ** 4:
            continue
        _, td = run_reduction(spec)
        gamma = compute_gamma(spec.datum, td.a_star_basis)
        oracle = subspace_normalizer_oracle(spec.datum, td.a_star_basis)
        assert oracle == (
            gamma.normalizer_order,
            gamma.centralizer_order,
            gamma.gamma_order,
            len(gamma.reflections),
        ), name
    _report("criterion 11 (Gamma brute force)", True)


def test_full_verify_suite_over_catalog():
    """The complete numeric battery passes on every catalog module."""
    for name, (spec, _) in catalog().items():
        result = verify_suite(spec, seed=0, samples=10)
        failing = [c.name for c in result.failing()]
        assert result.passed, (name, failing)
    _report("verify suite (whole catalog)", True)
