"""Moment-map sections over a*, built along the local-structure chain, and
the separating one-parameter subgroup `rho_psg`.

The construction mirrors the reduction trace: at the terminal stage the
character pairs are put into symplectically normalized coordinate pairs and
solved exactly; each non-terminal stage contributes one hyperbolic pair
(v0, v0^-) whose coefficient is fixed so that the invariant image picks up
exactly the prescribed component along the step's character direction.  All
section values are exact rational vectors; invariant-moment-map residuals are
checked in floating point on top.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import DomainError, InternalConsistencyError, StageNotRealizable
from .classify import WeightStatus, weight_status
from .linalg import (
    canon,
    cvec,
    echelon_basis,
    identity,
    int_scaled,
    is_zero_vec,
    lincomb,
    rref,
    same_span,
    span_solver,
    transpose,
    unscaled,
    vdot,
)
from .matrixrep import cut_columns, hyperbolic_pair
from .numeric import _chunks, chevalley_target, inv_moment_eval
from .rootdata import positive_roots, rho_vee


def _combine(point, terms):
    """q/den + sum c v as (q', den') for a scaled point (q, den) and terms
    (c, (entries, e)), each v = u/e given by the (index, u_index) pairs of
    the int vector u where it is nonzero: one common denominator den', and
    only int arithmetic on the entries."""
    q, den = point
    new, parts = den, []
    for c, (entries, e) in terms:
        if c:
            num, cden = (c, 1) if type(c) is int else (c.numerator, c.denominator)
            new = lcm(new, cden * e)
            parts.append((num, cden * e, entries))
    k = new // den
    out = [x * k for x in q] if k != 1 else list(q)
    for num, d, entries in parts:
        f = num * (new // d)
        for a, u in entries:
            out[a] += f * u
    return out, new


def _entries(v):
    """A rational vector v as (entries, e) for _combine."""
    q, e = int_scaled(v)
    return [(a, x) for a, x in enumerate(q) if x], e


def _weight_moments(rep, points, weights=None):
    """1/2 sum_a p_a (Jp)_a w_a for every point p, given scaled as (q, den)
    with p = q / den, over the weights w_a of the basis vectors (the weight
    labels by default; a layer passes their pairings with its central
    functional): with the weight labels, the pairing of the result with a
    coweight functional xi is the moment 1/2 omega(xi p, p) of the torus
    element xi.  Exact, in one int pass over the nonzero entries of J for
    all points; each coordinate is one Fraction of the integer sum of
    q_a (Jq)_a w_a over 2 den^2."""
    if weights is None:
        weights = rep.weight_labels
    width = len(weights[0]) if weights else rep.datum.ambient_dim
    accs = [[0] * width for _ in points]
    for a, (row, w) in enumerate(zip(rep.j_exact, weights)):
        nz = [(i, wi) for i, wi in enumerate(w) if wi]
        if not row or not nz:
            continue
        for (q, _), acc in zip(points, accs):
            qa = q[a]
            if qa:
                c = qa * sum(x * q[b] for b, x in row)
                for i, wi in nz:
                    acc[i] += c * wi
    return [unscaled(acc, 2 * den * den) for acc, (_, den) in zip(accs, points)]


def _torus_moments(rep, points):
    """The t*-valued moments of points given scaled as (q, den), as ambient
    vectors.  Exact.

    Requires the model's datum to be freshly built, so that the j-th ambient
    coordinate is the pairing against the j-th simple coroot."""
    for i, c in enumerate(rep.datum.simple_coroots):
        if any(x != (1 if k == i else 0) for k, x in enumerate(c)):
            raise InternalConsistencyError("torus moment needs a fresh datum")
    return _weight_moments(rep, points)


@dataclass(frozen=True)
class CharPair:
    """A hyperbolic pair of character lines with omega(x, y) = 1."""

    x_vec: tuple
    y_vec: tuple
    chi: tuple


def _plan_pairs(chis, killed):
    """The indices of the characters that carry a terminal coordinate: a
    greedy basis in index order of the characters modulo the killed rows,
    which come first, read off the pivot columns of one elimination of the
    matrix whose columns are the killed rows and then the characters."""
    k = len(killed)
    return [p - k for p in rref(transpose([*killed, *chis]))[1] if p >= k]


def _plan_solver(chis, killed, plan):
    """The one solver _plan_coords reads every coordinate from: the basis
    characters of the plan, then the killed ones.  The basis characters are
    linearly independent modulo the span of the killed ones, so each of
    their coefficients is the same in every solution."""
    return span_solver([chis[i] for i in plan] + [cvec(k) for k in killed])


def _plan_coords(count, plan, sol):
    """Coordinates (x_i, y_i) of the count characters with
    sum x_i y_i chi_i = a modulo span(killed), from the solution sol of a
    with the solver of _plan_solver: (1, t) on a basis character, (0, 0) on
    the others."""
    if sol is None:
        raise DomainError("target outside the span of the section characters")
    coords = [(0, 0)] * count
    for i, t in zip(plan, sol):
        coords[i] = (1, t)
    return coords


def _character_pairs_from_columns(rep, columns):
    """Hyperbolic pair structure on a span of character columns, exactly.

    Nonzero weights are matched with their negatives through the inverse of
    the pairing matrix; zero-weight columns go through a symplectic
    Gram-Schmidt."""
    by_weight = {}
    for col in columns:
        by_weight.setdefault(rep.weight_of(col), []).append(col)
    pairs = []
    seen = set()
    for w in sorted(by_weight, reverse=True):
        if w in seen:
            continue
        neg = cvec(tuple(-x for x in w))
        if neg == w:
            pairs.extend(_zero_weight_pairs(rep, by_weight[w]))
            seen.add(w)
            continue
        if neg not in by_weight or len(by_weight[neg]) != len(by_weight[w]):
            raise InternalConsistencyError("unmatched character columns")
        cp, cm = by_weight[w], by_weight[neg]
        k = len(cp)
        pmat = [[vdot(row, v) for v in cm] for row in map(rep.omega_row, cp)]
        solve = span_solver(transpose(pmat))
        for q, e in enumerate(identity(k)):
            # column q of the inverse of the pairing block
            coeffs = solve(e)
            if coeffs is None:
                raise InternalConsistencyError("degenerate character pairing block")
            pairs.append(CharPair(cvec(cp[q]), lincomb(coeffs, cm, rep.dim), w))
        seen.update({w, neg})
    return pairs


def _zero_weight_pairs(rep, cols):
    cols = [cvec(c) for c in cols]
    pairs = []
    while cols:
        u = cols[0]
        rest = cols[1:]
        row_u = rep.omega_row(u)
        pairings = [vdot(row_u, v) for v in rest]
        partner = next((i for i, p in enumerate(pairings) if p != 0), None)
        if partner is None:
            raise InternalConsistencyError("isotropic zero-weight character block")
        scale = pairings[partner]
        v = cvec(tuple(canon(Fraction(x) / scale) for x in rest[partner]))
        row_v = rep.omega_row(v)
        others = [w for i, w in enumerate(rest) if i != partner]
        projected = []
        for w in others:
            # w + omega(w, u) v - omega(w, v) u, with omega(w, x) = -omega(x, w)
            cu, cv = vdot(row_u, w), vdot(row_v, w)
            projected.append(lincomb([1, -cu, cv], [w, v, u], rep.dim))
        pairs.append(CharPair(u, v, cvec((0,) * rep.datum.ambient_dim)))
        cols = projected
    return pairs


def slice_functionals(rep, roots, v0, v0m):
    """The rows omega(f_r v0, .) and omega(e_r v0m, .) per root r; the slice
    S of the local-structure step is their joint kernel.  Exact."""
    rows = []
    for r in roots:
        coords = rep.root_coords(r.vec)
        rows.append(rep.omega_row(rep.act_exact(("f", coords), v0)))
        rows.append(rep.omega_row(rep.act_exact(("e", coords), v0m)))
    return rows


def central_element_for(datum, chi, killed=()):
    """Coweight functional vanishing on the datum's roots and on previously
    peeled characters, pairing to one with chi."""
    rows = [cvec(r) for r in datum.simple_roots]
    rows += [cvec(k) for k in killed]
    rows.append(cvec(chi))
    sol = span_solver(transpose(rows))((0,) * (len(rows) - 1) + (1,))
    if sol is None:
        raise InternalConsistencyError(
            f"no central functional separates {chi} from the peeled characters"
        )
    return sol


@dataclass
class SectionLayer:
    v0: tuple
    v0m: tuple
    xi_c: tuple
    slice_rows: tuple  # slice_functionals of the step; S is their joint kernel


@dataclass
class SectionMap:
    rep: object
    layers: tuple          # outermost first
    terminal_pairs: tuple
    terminal_plan: tuple
    terminal_solver: object  # _plan_solver of the terminal plan
    a_star_basis: tuple

    def points(self, targets):
        """The exact section values of a list of targets, each with
        t-moment equal to its target; DomainError for a target outside the
        span of a*.  Each point is carried as (q, den), an int vector
        over its own common denominator: each layer's x for every point
        comes from one int weight-moment pass, and one final pass checks
        m_t(p) = a for each target."""
        rep = self.rep
        targets = [cvec(a) for a in targets]
        count = len(self.terminal_pairs)
        vecs = [
            _entries(v)
            for pair in self.terminal_pairs
            for v in (pair.x_vec, pair.y_vec)
        ]
        pts = []
        for a in targets:
            coords = _plan_coords(count, self.terminal_plan, self.terminal_solver(a))
            coeffs = [c for xy in coords for c in xy]
            pts.append(_combine(([0] * rep.dim, 1), zip(coeffs, vecs)))
        for layer in reversed(self.layers):
            # the moments pair with the int functional e xi_c
            xi, e = int_scaled(layer.xi_c)
            pairing = [(vdot(w, xi),) for w in rep.weight_labels]
            v0, v0m = _entries(layer.v0), _entries(layer.v0m)
            moments = _weight_moments(rep, pts, pairing)
            # y = 1: the pair contributes -x to the chi-part
            xs = [
                canon(Fraction(fv) / e - vdot(a, layer.xi_c))
                for a, (fv,) in zip(targets, moments)
            ]
            pts = [_combine(p, [(x, v0), (1, v0m)]) for p, x in zip(pts, xs)]
        for a, m in zip(targets, _torus_moments(rep, pts)):
            if m != a:
                raise InternalConsistencyError(
                    f"section misses its target: m_t = {m}, wanted {a}"
                )
        return [unscaled(q, den) for q, den in pts]


def build_section(rep, reduction):
    """Section of the invariant moment map along the reduction chain of the
    model's module.  Exact; validated against the combinatorial a*.

    reduction is the (trace, TerminalData) pair of run_reduction(rep.spec),
    for example (analysis.trace, analysis.terminal) of an analysis."""
    trace, td = reduction
    cols = list(identity(rep.dim))
    killed = []
    layers = []
    current = rep.spec
    for step in trace:
        chi = step.chosen_chi
        v0, v0m = hyperbolic_pair(rep, chi, cols, current.datum.simple_roots)
        if v0 is None:
            raise StageNotRealizable(f"no highest weight vector of weight {chi}")
        if v0m is None:
            raise StageNotRealizable("lowest-weight space pairs to zero with v0")
        xi_c = central_element_for(step.levi, chi, killed)
        rows = slice_functionals(rep, step.delta_u, v0, v0m)
        s_cols = cut_columns(rep, cols, rows)
        for v in (v0, v0m):
            if any(vdot(row, v) != 0 for row in rows):
                raise StageNotRealizable(
                    "chosen highest weight vector escapes its own slice"
                )
        sbar_rows = [rep.omega_row(v0), rep.omega_row(v0m)]
        cols = cut_columns(rep, s_cols, sbar_rows)
        layers.append(SectionLayer(v0=v0, v0m=v0m, xi_c=xi_c, slice_rows=tuple(rows)))
        killed.append(chi)
        current = step.s_spec
    # terminal stage: keep the character columns, zero the symplectic blocks
    term_datum = td.terminal_group
    char_cols = []
    for col in cols:
        w = rep.weight_of(col)
        if all(vdot(w, c) == 0 for c in term_datum.simple_coroots):
            char_cols.append(col)
    pairs = _character_pairs_from_columns(rep, char_cols)
    chis = [p.chi for p in pairs]
    plan = _plan_pairs(chis, killed)
    span_rows = [p.chi for p in pairs if not is_zero_vec(p.chi)] + killed
    basis = echelon_basis(span_rows)
    if not same_span(list(basis), list(td.a_star_basis)):
        raise InternalConsistencyError(
            "section characters span a different a* than the reduction"
        )
    return SectionMap(
        rep=rep,
        layers=tuple(layers),
        terminal_pairs=tuple(pairs),
        terminal_plan=tuple(plan),
        terminal_solver=_plan_solver(chis, killed, plan),
        a_star_basis=tuple(basis),
    )


@dataclass
class SectionReport:
    residual_max: float
    zero_fiber_ok: bool


def verify_section(rep, section, samples=20, seed=0):
    """Sample rational points of a*, evaluate the given section of the model
    (see build_section) exactly, and compare the invariant image against the
    embedded target in floating point."""
    rng = np.random.default_rng(seed)
    basis = section.a_star_basis
    zero = cvec((0,) * rep.datum.ambient_dim)
    targets = []
    for _ in range(samples):
        if basis:
            coeffs = [
                Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
                for _ in basis
            ]
            targets.append(lincomb(coeffs, basis, rep.datum.ambient_dim))
        else:
            targets.append(zero)
    # every sample point and then the zero point, as one stack in chunks
    points = np.array(section.points(targets + [zero]), dtype=float)
    iv = np.concatenate([
        inv_moment_eval(rep, points[part])
        for part in _chunks(len(points), len(rep.lie) * rep.dim)
    ])
    resid = float(np.max(np.abs(iv[:-1] - chevalley_target(rep, targets)), initial=0.0))
    zero_ok = bool(np.all(np.abs(iv[-1]) <= 1e-8))
    return SectionReport(residual_max=resid, zero_fiber_ok=zero_ok)


# -- auxiliary one-parameter subgroup ----------------------------------------

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
           61, 67, 71, 73, 79, 83, 89, 97]


def rho_psg(spec):
    """Rational coweight with positive pairing against every positive root,
    separating terminal from non-terminal highest weights and separating all
    weights of the module pairwise.  Deterministic perturbation search from
    rho^vee, which pairs to one with every simple root."""
    datum = spec.datum
    base = rho_vee(datum)
    dim = datum.ambient_dim
    statuses = {w: weight_status(spec, w) for w, _ in spec.summands}
    terminal_hw = [w for w, s in statuses.items() if s is not WeightStatus.NON_TERMINAL]
    nonterminal_hw = [w for w, s in statuses.items() if s is WeightStatus.NON_TERMINAL]
    weights = sorted(spec.weight_multiset())
    pos = positive_roots(datum)

    def ok(rho):
        # every test compares pairings, so they run on an int multiple
        rho = int_scaled(rho)[0]
        if any(vdot(r.vec, rho) <= 0 for r in pos):
            return False
        # each weight's pairing once; the weights are distinct, and every
        # highest weight is one of them
        pairing = {w: vdot(w, rho) for w in weights}
        if len(set(pairing.values())) < len(weights):
            return False
        return all(
            pairing[t] < pairing[nt] for t in terminal_hw for nt in nonterminal_hw
        )

    for p in _PRIMES:
        cand = cvec(
            tuple(Fraction(base[k]) + Fraction(k + 1, p) for k in range(dim))
        )
        if ok(cand):
            return cand
    for p in _PRIMES:
        cand = cvec(
            tuple(
                Fraction(base[k]) + Fraction(1, p ** (k + 1)) for k in range(dim)
            )
        )
        if ok(cand):
            return cand
    raise InternalConsistencyError("no separating one-parameter subgroup found")
