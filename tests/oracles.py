"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's Freudenthal recursion, symmetric-power
recursion, and Weyl walks in Dynkin labels: multiplicities come from the
Kostant partition function, invariant dimensions from explicit monomial
enumeration, symmetric powers from Newton's identity over Fractions or
the division-free recursion over tuple-keyed weights, Molien series from
power traces, reflection subgroups as matrix closures with their degrees
from fixed-space counts instead of a conjugation table and Coxeter types,
group elements from matrix closure with determinant signs, Gamma from every
element (one matrix per generic-orbit word normalizing a*, checked closed
under products) instead of its order and mirrors, invariant symplectic forms from a
nullspace solve, and root-vector scalars by brackets in a reference module
instead of Chevalley's structure constants.  The float moment maps are evaluated one vector and one Lie
basis matrix at a time; the Jacobian ranks, the coisotropy test, the
q-embedding and the commuting square one sample at a time with per-entry
loops; the weight moment over Fractions, and the section's
terminal coordinates on the critical-first plan, by a fresh span solve per
target and peeled character.
Symmetric powers in int keys are formed over the whole key box, with no
height cut (`symmetric_power_multisets`), and a generic point's orbit is
walked whole and counted (`generic_orbit`).
Weyl orbits, dominant representatives and positive roots are walked in
ambient coordinates, one `reflect` (a pairing and a `canon` per coordinate)
per edge, independent of the library's walk in Dynkin labels.
Row reduction here is `rref_oracle`, Gauss-Jordan over Fractions, and
`nullspace_oracle` on top of it, independent of the library's fraction-free
elimination; every span solve is `span_coords_oracle`, an rref_oracle of
[M | v] per vector, independent of the library's `span_solver`.
The terminal character pairs are found by pairing each character summand
with its negative (`character_pairs_oracle`), not read off the pairing plan.
Helpers that only the tests read live here too: `sparse_rows`, the dense
view `lie_matrix_exact`, the float `omega` of a model,
`lemma2chi_conditions`, the arithmetic sufficient conditions for a singular
highest weight, and `step_and_layer` and `frame_at`, which build a
reduction step's section layer and local frame at any non-terminal weight.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb
from operator import mul

import numpy as np

from symprep.errors import DomainError, InternalConsistencyError, SymprepError
from symprep.linalg import (
    canon,
    cvec,
    dense,
    echelon_basis,
    identity,
    is_zero_vec,
    lincomb,
    mat_sub,
    mat_vec,
    sparse_comm,
    sparse_scale,
    transpose,
    vdot,
    vscale,
    vsub,
)
from symprep.matrixrep import (
    FactorBlock,
    _reference_block,
    factor_lie,
    _single_factor_datum,
    hyperbolic_pair,
    hyperbolic_partner,
    root_recipes,
    simple_coords,
    unit_columns,
    weight_kernel,
)
from symprep.classify import WeightStatus, is_singular_weight, weight_status
from symprep.numeric import (
    DOMAIN_TOL,
    RANK_TOL,
    factor_matrix_forms,
    local_frame,
    seeded_samples,
)
from symprep.reduction import reduce_step, run_reduction
from symprep.reps import DualityClass, _int_key, duality_class, weight_key
from symprep.rootdata import (
    _generic_point,
    _length_data,
    centralizer_datum,
    positive_roots,
)
from symprep.sections import (
    SectionLayer,
    _plan_coords,
    central_element_for,
    slice_functionals,
)


def sparse_rows(a):
    """Each row of a dense matrix as the tuple of its nonzero entries
    (column, value)."""
    return tuple(tuple((j, canon(x)) for j, x in enumerate(row) if x) for row in a)


def lie_matrix_exact(rep, label):
    """A dense view of the exact matrix of a model's Lie basis element."""
    return dense(rep.lie_exact[rep.lie_index[label]], rep.dim)


def omega(rep, u, v):
    """omega(u, v) = u J v in floats."""
    return float(np.asarray(u) @ rep.j @ np.asarray(v))


def mat_mul(a, b):
    """A B of dense matrices, in plain ints when every entry is an int."""
    bt = transpose(b)
    if a and bt and len(a[0]) != len(b):
        raise ValueError(f"length mismatch {len(a[0])} vs {len(b)}")
    out = []
    for row in a:
        entries = []
        for col in bt:
            s = sum(map(mul, row, col))
            entries.append(s if type(s) is int else canon(s))
        out.append(tuple(entries))
    return tuple(out)


def fixed_codim(g):
    """rank(g - I): the codimension of the space g fixes; 1 for a reflection."""
    return len(rref_oracle(mat_sub(g, identity(len(g))))[1])


def group_closure(gens, dim):
    """The matrix group generated by gens, identity included."""
    ident = identity(dim)
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = mat_mul(m, g)
                if p not in elems:
                    elems.add(p)
                    nxt.append(p)
        frontier = nxt
    return frozenset(elems)


def dense_comm(a, b):
    """A B - B A of dense matrices."""
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def dense_kron(a, b):
    """The Kronecker product of dense matrices, every entry formed."""
    if not a or not b:
        return ()
    bm, bn = len(b), len(b[0])
    out = []
    for arow in a:
        for i in range(bm):
            out.append(tuple(canon(x * b[i][j]) for x in arow for j in range(bn)))
    return tuple(out)


def dense_blockdiag(blocks):
    """The block sum of dense square matrices, every entry formed."""
    blocks = [b for b in blocks if b]
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = canon(x)
        off += len(b)
    return tuple(tuple(r) for r in out)


def rref_oracle(rows):
    """Reduced row echelon form by Gauss-Jordan over Fractions, every entry a
    Fraction from the start.  Returns (rows, pivot column indices)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [cvec(row) for row in m], pivots


def nullspace_oracle(rows, ncols):
    """Basis of {x : A x = 0}, one vector per free column of rref_oracle(A):
    1 at the free column, minus that column of the reduced rows at the
    pivots."""
    if not rows:
        return [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]
    red, pivots = rref_oracle(rows)
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[fcol] = Fraction(1)
        for i, pcol in enumerate(pivots):
            x[pcol] = -Fraction(red[i][fcol])
        basis.append(cvec(x))
    return basis


def span_coords_oracle(basis_rows, v):
    """Coefficients c with sum c_i basis_i = v, or None off the span: the
    rref of [M | v] with the basis rows as the columns of M, free variables
    zero."""
    if not basis_rows:
        return () if is_zero_vec(v) else None
    k = len(basis_rows)
    red, pivots = rref_oracle(
        [col + (x,) for col, x in zip(transpose(basis_rows), v)]
    )
    if k in pivots:
        return None
    x = [0] * k
    for i, p in enumerate(pivots):
        x[p] = red[i][-1]
    return cvec(x)


def det_exact(mat):
    m = [list(map(Fraction, row)) for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def reflection_matrix(datum, i):
    """The matrix of the i-th simple reflection on the ambient lattice."""
    al, co = datum.simple_roots[i], datum.simple_coroots[i]
    n = datum.ambient_dim
    return tuple(
        tuple(canon((1 if a == b else 0) - al[a] * co[b]) for b in range(n))
        for a in range(n)
    )


def reflect(datum, i, w):
    """s_i w = w - <w, alpha_i^vee> alpha_i, every coordinate made canonical."""
    p = datum.pairing(w, i)
    return cvec(x - p * a for x, a in zip(w, datum.simple_roots[i]))


def weyl_orbit_oracle(datum, x):
    """The W-orbit of x as (point, word) pairs, breadth first, simple
    reflections in index order: one `reflect` per edge."""
    x = cvec(x)
    orbit = {x: ()}
    frontier = [x]
    while frontier:
        nxt = []
        for v in frontier:
            word = orbit[v]
            for i in range(datum.rank):
                u = reflect(datum, i, v)
                if u not in orbit:
                    orbit[u] = word + (i,)
                    nxt.append(u)
        frontier = nxt
    return tuple(orbit.items())


def rho_oracle(datum):
    """Half the sum of the positive roots, over Fractions: it pairs to 1 with
    every simple coroot (Humphreys, section 10.2), also on a Levi, where it
    may be fractional."""
    acc = [Fraction(0)] * datum.ambient_dim
    for r in positive_roots(datum):
        acc = [a + x for a, x in zip(acc, r.vec)]
    return cvec(a / 2 for a in acc)


def dominant_representative_oracle(datum, w):
    """The dominant point of w's W-orbit: reflect in the first simple root
    pairing negatively with the current point, paired afresh each step."""
    cur = cvec(w)
    while True:
        j = next((i for i in range(datum.rank) if datum.pairing(cur, i) < 0), None)
        if j is None:
            return cur
        cur = reflect(datum, j, cur)


def positive_roots_oracle(datum):
    """(coords, coroot_coords, half_length) of each positive root, sorted by
    height and coords: the reflection closure of the simple system over
    Fractions, every reflection applied, zero pairings included."""
    k = datum.rank
    m = datum.cartan_pairing()
    lengths = _length_data(datum)
    seen = {}
    frontier = []
    for i in range(k):
        e = tuple(1 if j == i else 0 for j in range(k))
        seen[e] = (e, lengths[i])
        frontier.append(e)
    while frontier:
        nxt = []
        for b in frontier:
            c, d = seen[b]
            for j in range(k):
                pair_b = canon(sum(Fraction(b[t]) * m[t][j] for t in range(k)))
                pair_c = canon(sum(Fraction(c[t]) * m[j][t] for t in range(k)))
                b2 = tuple(canon(b[t] - (pair_b if t == j else 0)) for t in range(k))
                if b2 not in seen:
                    c2 = tuple(canon(c[t] - (pair_c if t == j else 0)) for t in range(k))
                    seen[b2] = (c2, d)
                    nxt.append(b2)
        frontier = nxt
    return sorted(
        ((b, c, d) for b, (c, d) in seen.items() if all(x >= 0 for x in b)),
        key=lambda r: (sum(r[0]), r[0]),
    )


def weyl_matrices_bruteforce(datum):
    """All Weyl group matrices by closure under multiplication (no words)."""
    gens = [reflection_matrix(datum, i) for i in range(datum.rank)]
    ident = tuple(
        tuple(1 if i == j else 0 for j in range(datum.ambient_dim))
        for i in range(datum.ambient_dim)
    )
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = mat_mul(m, g)
                if p not in elems:
                    elems.add(p)
                    nxt.append(p)
        frontier = nxt
    return sorted(elems)


def _root_coords_of(datum, vec):
    return span_coords_oracle(datum.simple_roots, vec)


def kostant_partition_counter(datum):
    roots = [r.coords for r in positive_roots(datum)]

    memo = {}

    def count(target, idx=0):
        target = tuple(target)
        if all(x == 0 for x in target):
            return 1
        if idx == len(roots):
            return 0
        key = (target, idx)
        if key in memo:
            return memo[key]
        total = 0
        step = roots[idx]
        cur = list(target)
        k = 0
        while all(x >= 0 for x in cur):
            total += count(tuple(cur), idx + 1)
            for i, s in enumerate(step):
                cur[i] -= s
            k += 1
        memo[key] = total
        return total

    return count


def kostant_weight_multiset(datum, lam):
    """Weight multiset of the irreducible with highest weight lam, by the
    alternating sum of Kostant partition counts over the Weyl group:
    m(mu) = sum_w sign(w) P(w(lam + rho) - (mu + rho)).

    Over the simple roots, w(lam + rho) - (mu + rho) is shift_w + n with
    shift_w the coordinates of w(lam + rho) - (lam + rho) and n those of
    lam - mu, so w adds sign(w) P(m) at the offset n = m - shift_w for every
    m >= 0; the offsets of all weights have sum(n) <= 2 <lam, rho^vee>."""
    lam = cvec(lam)
    if datum.rank == 0:
        return {lam: 1}
    rho = rho_oracle(datum)
    pcount = kostant_partition_counter(datum)
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    hbound = int(2 * vdot(lam, _rho_vee_func(datum)))
    totals = {}
    for w in weyl_matrices_bruteforce(datum):
        sign = 1 if det_exact(w) > 0 else -1
        image = tuple(a - b for a, b in zip(mat_vec(w, lam_rho), lam_rho))
        shift = _root_coords_of(datum, image)
        assert shift is not None and all(
            Fraction(x).denominator == 1 for x in shift
        ), (w, shift)
        shift = tuple(int(x) for x in shift)
        for m in _offsets(datum.rank, hbound + sum(shift)):
            n = tuple(a - b for a, b in zip(m, shift))
            totals[n] = totals.get(n, 0) + sign * pcount(m)
    out = {}
    for n, total in totals.items():
        if total:
            mu = list(lam)
            for i, ni in enumerate(n):
                for a in range(datum.ambient_dim):
                    mu[a] -= ni * datum.simple_roots[i][a]
            out[cvec(mu)] = total
    return out


def _rho_vee_func(datum):
    from symprep.rootdata import rho_vee

    return rho_vee(datum)


def _offsets(k, bound):
    """Every n in N^k with sum(n) <= bound, in lexicographic order."""
    if k == 0:
        if bound >= 0:
            yield ()
        return
    for first in range(bound + 1):
        for rest in _offsets(k - 1, bound - first):
            yield (first,) + rest


def invariant_dims_oracle(datum, weights, max_degree, weyl_cap=10 ** 5):
    """dim (S^d V)^G by monomial enumeration: histogram the weights of all
    degree-d monomials, then apply the alternating trivial-multiplicity sum."""
    targets = alternation_targets(datum, weyl_cap)
    dims = []
    for d in range(max_degree + 1):
        hist = {}
        for combo in combinations_with_replacement(range(len(weights)), d):
            tot = [0] * len(weights[0]) if weights else []
            for i in combo:
                for a, x in enumerate(weights[i]):
                    tot[a] += x
            key = cvec(tot)
            hist[key] = hist.get(key, 0) + 1
        if d == 0:
            hist = {cvec([0] * datum.ambient_dim): 1}
        dims.append(sum(s * hist.get(t, 0) for t, s in targets))
    return dims


def subspace_normalizer_oracle(datum, basis):
    """(|N|, |C|, gamma order, reflection count) by scanning all of W."""
    from symprep.linalg import echelon_basis, identity, vsub

    basis = echelon_basis(list(basis))
    k = len(basis)
    ws = weyl_matrices_bruteforce(datum)
    n_count = 0
    c_count = 0
    gamma = set()
    for w in ws:
        images = [mat_vec(w, b) for b in basis]
        coeffs = [span_coords_oracle(basis, img) for img in images]
        if any(c is None for c in coeffs):
            continue
        n_count += 1
        if all(img == b for img, b in zip(images, basis)):
            c_count += 1
        mat = tuple(tuple(coeffs[j][i] for j in range(k)) for i in range(k))
        gamma.add(mat)
    refl = sum(
        1
        for g in gamma
        if k > 0
        and len(rref_oracle([vsub(r, e) for r, e in zip(g, identity(k))])[1]) == 1
    )
    return n_count, c_count, len(gamma), refl


def gamma_matrices_oracle(datum, basis):
    """Every element of Gamma as its matrix on a*-coordinates, sorted: the
    action of each word of the generic orbit that maps a* into itself.  A
    word's images of the basis are its breadth-first parent's moved by one
    `reflect`, formed for the points in a* and their ancestors only."""
    basis = echelon_basis(list(basis))
    k = len(basis)
    images = {(): tuple(basis)}

    def image(word):
        if word not in images:
            images[word] = tuple(reflect(datum, word[-1], b) for b in image(word[:-1]))
        return images[word]

    gamma = set()
    for y, word in generic_orbit(datum, basis, centralizer_datum(datum, basis)):
        if span_coords_oracle(basis, y) is None:
            continue
        coeffs = [span_coords_oracle(basis, b) for b in image(word)]
        if None not in coeffs:
            # columns are the coordinates of the images of the basis vectors
            gamma.add(tuple(tuple(coeffs[j][i] for j in range(k)) for i in range(k)))
    return sorted(gamma)


def is_group_oracle(mats, k):
    """Whether mats is closed under products: the group generated by each
    matrix that the ones before it do not generate must be mats."""
    gens, group = [], group_closure([], k)
    for g in mats:
        if g not in group:
            gens.append(g)
            group = group_closure(gens, k)
    return group == frozenset(mats)


def gamma_by_elements_oracle(datum, basis):
    """(|N|, |C|, |Gamma|, Gamma's reflections sorted) from every element of
    Gamma, checked closed under products; a reflection has trace k - 2 and
    fixes a hyperplane."""
    mats = gamma_matrices_oracle(datum, basis)
    k = len(mats[0])
    if not is_group_oracle(mats, k):
        raise InternalConsistencyError("Gamma matrices are not closed under products")
    c_order = centralizer_datum(datum, echelon_basis(list(basis))).weyl_order()
    reflections = tuple(
        g for g in mats
        if sum(g[a][a] for a in range(k)) == k - 2 and fixed_codim(g) == 1
    )
    return len(mats) * c_order, c_order, len(mats), reflections


def generic_orbit(datum, basis, levi):
    """The W-orbit, with words, of a generic point of span(basis), where levi
    is `centralizer_datum(datum, basis)`.  The point's stabilizer is W(levi)
    (Steinberg, Trans. AMS 112, 1964), so the orbit has |W|/|W(levi)|
    points; that count is checked, which also certifies that the point is
    generic."""
    orbit = weyl_orbit_oracle(datum, _generic_point(datum, basis))
    if len(orbit) * levi.weyl_order() != datum.weyl_order():
        raise InternalConsistencyError(
            f"generic orbit has {len(orbit)} points, expected "
            f"|W|/|W(L)| = {datum.weyl_order()}/{levi.weyl_order()}"
        )
    return orbit


def _int_unkey(key, radix, n):
    """The weight of length n whose `_int_key` is key."""
    bound = radix // 2
    out = []
    for _ in range(n):
        x = (key + bound) % radix - bound
        out.append(x)
        key = (key - x) // radix
    return tuple(out)


def symmetric_power_multisets(multiset, max_degree):
    """Weight multisets of S^d V for d = 0..max_degree, keyed by weight: the
    coefficients of prod_mu (1 - t x^mu)^(-m_mu) over the whole key box
    |v_a| <= max_degree * max |mu_a|, one factor at a time (multiplying by
    1/(1 - t x^mu) is h_d += x^mu h_(d-1) for d rising), each weight keyed
    by `_int_key`, with the mass of h_d checked against C(dim V + d - 1, d)."""
    frozen = sorted((cvec(w), m) for w, m in multiset.items() if m)
    n = len(frozen[0][0]) if frozen else 0
    bound = max_degree * max((abs(x) for mu, _ in frozen for x in mu), default=0)
    radix = 2 * bound + 1
    h = [{0: 1}] + [{} for _ in range(max_degree)]
    for mu, m in frozen:
        step = _int_key(mu, radix)
        for _ in range(m):
            for d in range(1, max_degree + 1):
                for k, c in h[d - 1].items():
                    h[d][k + step] = h[d].get(k + step, 0) + c
    dim_v = sum(m for _, m in frozen)
    for d, hd in enumerate(h):
        mass = comb(dim_v + d - 1, d) if dim_v else int(d == 0)
        if sum(hd.values()) != mass:
            raise InternalConsistencyError(
                f"S^{d} V has mass {sum(hd.values())}, expected {mass}"
            )
    return [{_int_unkey(k, radix, n): c for k, c in hd.items()} for hd in h]


def newton_symmetric_powers(multiset, max_degree):
    """Weight multisets of S^d V for d = 0..max_degree by Newton's identity
    h_d = (1/d) sum_k p_k h_(d-k), where p_k has the weights scaled by k;
    the division by d is a Fraction, so any non-integral result shows."""
    weights = [(cvec(w), m) for w, m in multiset.items() if m]
    zero = (0,) * (len(weights[0][0]) if weights else 0)
    h = [{zero: 1}]
    for d in range(1, max_degree + 1):
        acc = {}
        for k in range(1, d + 1):
            for w, m in weights:
                for v, c in h[d - k].items():
                    key = cvec(k * a + b for a, b in zip(w, v))
                    acc[key] = acc.get(key, 0) + m * c
        h.append({v: Fraction(c, d) for v, c in acc.items() if c})
    return h


def _tuple_recursion(slots, max_degree):
    """Yield h before the first weight slot of `slots` and after each, h[d]
    the weight multiset of S^d of the slots passed so far: multiplying by
    1/(1 - t x^mu) is h_d += x^mu h_(d-1) for d rising, over tuple-keyed
    weights."""
    zero = (0,) * (len(slots[0]) if slots else 0)
    h = [{zero: 1}] + [{} for _ in range(max_degree)]
    yield h
    for mu in slots:
        for d in range(1, max_degree + 1):
            for v, c in h[d - 1].items():
                key = tuple(a + b for a, b in zip(v, mu))
                h[d][key] = h[d].get(key, 0) + c
        yield h


def tuple_symmetric_powers(multiset, max_degree):
    """Weight multisets of S^d V for d = 0..max_degree by the division-free
    recursion over tuple-keyed weights, one factor per weight copy."""
    weights = sorted((cvec(w), m) for w, m in multiset.items() if m)
    *_, h = _tuple_recursion([mu for mu, m in weights for _ in range(m)], max_degree)
    return h


def slot_prefix_symmetric_powers(slots, degree):
    """For each j, the weight multiset of S^degree of slots[0..j]: the
    degree-`degree` monomials whose last slot is at most j."""
    return [dict(h[degree]) for h in _tuple_recursion(slots, degree)][1:]


def alternation_targets(datum, weyl_cap=10 ** 5):
    """(w rho - rho, (-1)^l(w)) for every w of the Weyl group, from matrix
    closure with determinant signs."""
    ws = weyl_matrices_bruteforce(datum)
    if len(ws) > weyl_cap:
        raise RuntimeError("oracle Weyl group too large")
    rho = rho_oracle(datum)
    return [
        (cvec(a - b for a, b in zip(mat_vec(w, rho), rho)), 1 if det_exact(w) > 0 else -1)
        for w in ws
    ]


def tuple_invariant_dims(spec, max_degree):
    """dim (S^d V)^G for d = 0..max_degree: the Weyl alternation over the
    targets w rho - rho of `alternation_targets`, read off tuple-keyed
    symmetric powers (no box, so no key can alias)."""
    targets = alternation_targets(spec.datum)
    sym = tuple_symmetric_powers(spec.weight_multiset(), max_degree)
    return [sum(s * hd.get(t, 0) for t, s in targets) for hd in sym]


def invariant_symplectic_form_oracle(dim, gens):
    """Solve X^T J + J X = 0 over skew J for every generator X; the solution
    line must be unique and is normalized so its first nonzero entry is one.
    A diagonal generator's equations read (x_a + x_b) J_ab = 0, so the
    unknowns are the entries J_ab, a < b, on which every diagonal generator
    has x_a + x_b = 0; each other generator gives the equations
    sum_k X_ka J_kb + J_ak X_kb = 0, a < b, over its nonzero entries X_ka."""
    diagonal = [
        g for g in gens.values()
        if all(x == 0 for a, row in enumerate(g) for b, x in enumerate(row) if a != b)
    ]
    pairs = [
        (a, b) for a in range(dim) for b in range(a + 1, dim)
        if all(g[a][a] + g[b][b] == 0 for g in diagonal)
    ]
    idx = {p: i for i, p in enumerate(pairs)}

    def entry(p, q):
        """(unknown index, sign) of J_pq, or None when J_pq is zero."""
        if (p, q) in idx:
            return idx[p, q], 1
        if (q, p) in idx:
            return idx[q, p], -1
        return None

    rows = []
    for g in gens.values():
        if any(g is d for d in diagonal):
            continue
        eqs = {}
        for k, row in enumerate(g):
            for a, x in enumerate(row):
                if x == 0:
                    continue
                for b in range(dim):
                    # X_ka J_kb enters (a, b); J_bk X_ka enters (b, a)
                    for (p, q), (r, c) in (((a, b), (k, b)), ((b, a), (b, k))):
                        hit = entry(r, c)
                        if p < q and hit is not None:
                            eq = eqs.setdefault((p, q), [Fraction(0)] * len(pairs))
                            eq[hit[0]] += hit[1] * x
        rows += [cvec(eq) for eq in eqs.values() if any(eq)]
    space = nullspace_oracle(rows, len(pairs))
    if len(space) != 1:
        raise AssertionError(f"invariant form space has dimension {len(space)}")
    sol = space[0]
    lead = next(x for x in sol if x != 0)
    sol = [canon(Fraction(x) / Fraction(lead)) for x in sol]
    j = [[0] * dim for _ in range(dim)]
    for (a, b), i in idx.items():
        j[a][b] = sol[i]
        j[b][a] = canon(-sol[i])
    return tuple(tuple(r) for r in j)


def _unit(n, i, j, val=1):
    m = [[0] * n for _ in range(n)]
    m[i][j] = val
    return tuple(tuple(r) for r in m)


def sl2_block_oracle(m):
    """The closed form of S^m of sl2: f v_j = v_(j+1),
    e v_(j+1) = (j+1)(m-j) v_j, with its form (-1)^a at (a, m-a)."""
    n = m + 1
    e = [[0] * n for _ in range(n)]
    f = [[0] * n for _ in range(n)]
    h = [[0] * n for _ in range(n)]
    for j in range(n):
        h[j][j] = m - 2 * j
        if j + 1 < n:
            f[j + 1][j] = 1
            e[j][j + 1] = (j + 1) * (m - j)
    mk = lambda a: tuple(tuple(r) for r in a)
    weights = tuple(((m - 2 * j,)) for j in range(n))
    form = tuple(
        tuple((-1) ** a if b == m - a else 0 for b in range(n)) for a in range(n)
    )
    return FactorBlock(n, (mk(e),), (mk(f),), (mk(h),), weights, form)


def sln_standard_block_oracle(n):
    """The closed form of the defining module of sl_n: unit e_i and f_i."""
    e = tuple(_unit(n, i, i + 1) for i in range(n - 1))
    f = tuple(_unit(n, i + 1, i) for i in range(n - 1))
    h = []
    for i in range(n - 1):
        m = [[0] * n for _ in range(n)]
        m[i][i] = 1
        m[i + 1][i + 1] = -1
        h.append(tuple(tuple(r) for r in m))
    weights = tuple(
        tuple((1 if j == i else (-1 if j == i + 1 else 0)) for i in range(n - 1))
        for j in range(n)
    )
    return FactorBlock(n, e, f, tuple(h), weights)


def _diagonal_ratio(m, diag):
    """c with m = c * diag(diag) exactly, for m given by sparse rows and a
    diagonal not all zero; None when m is not such a multiple."""
    pairs = []
    for i, (row, d) in enumerate(zip(m, diag)):
        if any(j != i for j, _ in row):
            return None
        x = row[0][1] if row else 0
        if x or d:
            pairs.append((x, d))
    if not pairs or any(d == 0 for _, d in pairs):
        return None
    c = Fraction(pairs[0][0]) / pairs[0][1]
    return c if all(x == c * d for x, d in pairs) else None


def root_recipes_oracle(letter, rank):
    """Root-vector recipes gamma -> (i, beta, c) calibrated by brackets in the
    factor's reference module instead of read off the root system: for each
    non-simple positive root by height, the first simple root alpha_i with
    beta = gamma - alpha_i a root whose brackets x = [e_i, e_beta] and
    y = [f_i, f_beta] give [x, y] = c gamma^vee for some nonzero c on the
    module; then e_gamma = x / c and f_gamma = y."""
    ref = _reference_block(letter, rank)
    x = {simple_coords(rank, i): m for i, m in enumerate(ref.e)}
    y = {simple_coords(rank, i): m for i, m in enumerate(ref.f)}
    recipes = {}
    for r in positive_roots(_single_factor_datum(letter, rank)):
        if r.height == 1:
            continue
        # the coroot acts on a weight vector by the weight's pairing with it
        hdiag = [vdot(w, r.coroot_coords) for w in ref.weights]
        for i in range(rank):
            lower = tuple(v - (j == i) for j, v in enumerate(r.coords))
            if lower not in x:
                continue
            a = sparse_comm(x[simple_coords(rank, i)], x[lower])
            b = sparse_comm(y[simple_coords(rank, i)], y[lower])
            c = _diagonal_ratio(sparse_comm(a, b), hdiag)
            if c is None or c == 0:
                continue
            x[r.coords] = sparse_scale(Fraction(1, 1) / c, a)
            y[r.coords] = b
            recipes[r.coords] = (i, lower, c)
            break
        else:
            raise InternalConsistencyError(
                f"no bracket recipe found for root {r.coords} of {letter}{rank}"
            )
    return recipes


def assembled_lie_oracle(rep):
    """(labels, dense matrices) of a model's Lie action with every non-simple
    root vector replayed by the bracket recipes, as dense brackets, on the
    assembled model's simple root vectors, instead of on each factor
    block; root vectors are keyed by the root's coordinates over all the
    datum's simple roots and labelled by its ambient vector."""
    datum = rep.datum
    x, y = {}, {}
    for fi, (letter, frank) in enumerate(datum.factors):
        idxs = datum.standard_order[fi]

        def glob(local):
            g = [0] * datum.rank
            for loc, gi in enumerate(idxs):
                g[gi] = local[loc]
            return tuple(g)

        def simple(i):
            return tuple(1 if j == i else 0 for j in range(frank))

        roots = [datum.simple_roots[gi] for gi in idxs]
        lx = {simple(i): lie_matrix_exact(rep, ("e", a)) for i, a in enumerate(roots)}
        ly = {simple(i): lie_matrix_exact(rep, ("f", a)) for i, a in enumerate(roots)}
        recipes = root_recipes(letter, frank)
        for coords in sorted(recipes, key=sum):
            i, lower, c = recipes[coords]
            bracket = dense_comm(lx[simple(i)], lx[lower])
            lx[coords] = tuple(vscale(Fraction(1, 1) / c, row) for row in bracket)
            ly[coords] = dense_comm(ly[simple(i)], ly[lower])
        x.update({glob(c): m for c, m in lx.items()})
        y.update({glob(c): m for c, m in ly.items()})
    labels = [("h", i) for i in range(datum.rank)]
    labels += [("z", l) for l in range(datum.central_rank)]
    mats = [lie_matrix_exact(rep, lab) for lab in labels]
    for r in positive_roots(datum):
        labels += [("e", r.vec), ("f", r.vec)]
        mats += [x[r.coords], y[r.coords]]
    return tuple(labels), tuple(mats)


def rref_hyperbolic_pair_oracle(rep, chi):
    """(v0, v0m) from the rref bases of the whole model's highest-weight
    space of weight chi and lowest-weight space of weight -chi; None where
    a vector is missing."""
    units, roots = unit_columns(rep), rep.datum.simple_roots
    red, piv = rref_oracle(weight_kernel(rep, chi, "e", units.get(chi, []), roots))
    if not piv:
        return None, None
    v0 = red[0]
    neg = tuple(-x for x in chi)
    red, piv = rref_oracle(weight_kernel(rep, neg, "f", units.get(neg, []), roots))
    return v0, hyperbolic_partner(rep, v0, red[: len(piv)])


def reflection_subgroups_oracle(gamma):
    """The closure of every subset of Gamma's reflections, sorted by order
    and then by matrices."""
    k = len(gamma.a_star_basis)
    refl = gamma.reflections
    subs = {group_closure([], k)}
    for size in range(1, len(refl) + 1):
        for combo in combinations(refl, size):
            subs.add(group_closure(combo, k))
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def reflection_subgroups_grown_oracle(gamma):
    """All subgroups generated by subsets of Gamma's reflections, as groups
    of matrices, grown from the trivial group: each new subgroup is the
    closure of one already found, with its generators plus one reflection
    outside it."""
    k = len(gamma.a_star_basis)
    refl = gamma.reflections
    subs = {group_closure([], k): ()}
    queue = list(subs.items())
    for sub, gens in queue:  # the queue grows as subgroups are found
        for r in refl:
            if r not in sub:
                bigger = group_closure(gens + (r,), k)
                if bigger not in subs:
                    subs[bigger] = gens + (r,)
                    queue.append((bigger, gens + (r,)))
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def degrees_from_codims_oracle(codims, k):
    """The degrees d_1 <= ... <= d_k of a reflection group on a k-dim space,
    from the codimension rank(g - 1) of each element's fixed space.

    sum_g t^rank(g - 1) = prod_i (1 + (d_i - 1) t) (Shephard-Todd, Canad. J.
    Math. 6, 1954, Thm 5.3): the count polynomial is divided exactly by
    (1 + m t) for m = 1, 2, ..., each exact division gives a degree m + 1,
    and the degrees left over are 1."""
    poly = [0] * (max(codims, default=0) + 1)
    for c in codims:
        poly[c] += 1
    degrees = []
    m = 1
    # every factor's m divides the leading coefficient
    while len(poly) > 1 and m <= poly[-1]:
        quot = [poly[0]]
        for p in poly[1:-1]:
            quot.append(p - m * quot[-1])
        if poly[-1] == m * quot[-1]:
            poly = quot
            degrees.append(m + 1)
        else:
            m += 1
    if poly != [1]:
        raise InternalConsistencyError(
            "fixed-space count does not split into factors (1 + m t)"
        )
    return (1,) * (k - len(degrees)) + tuple(degrees)


def little_weyl_candidates_oracle(gamma, subgroups=reflection_subgroups_grown_oracle):
    """(order, degrees) of each of Gamma's reflection subgroups, sorted: the
    subgroups as closed matrix groups, their degrees from their elements'
    fixed-space codimensions."""
    k = len(gamma.a_star_basis)
    return sorted(
        (len(sub), degrees_from_codims_oracle([fixed_codim(g) for g in sub], k))
        for sub in subgroups(gamma)
    )


def molien_series_oracle(mats, max_degree):
    """Molien series of any finite matrix group, exact, as coefficients
    0..max_degree: the trace h_n(g) of g on S^n comes from the power traces
    by Newton's identity h_n(g) = (1/n) sum_{k<=n} tr(g^k) h_{n-k}(g), and
    the series is the group average of the h_n."""
    total = [Fraction(0)] * (max_degree + 1)
    for g in mats:
        traces, power = [], g
        for _ in range(max_degree):
            traces.append(Fraction(sum(power[i][i] for i in range(len(g)))))
            power = mat_mul(power, g)
        h = [Fraction(1)]
        for n in range(1, max_degree + 1):
            h.append(sum(traces[k - 1] * h[n - k] for k in range(1, n + 1)) / n)
        total = [a + b for a, b in zip(total, h)]
    series = [t / len(mats) for t in total]
    assert all(x.denominator == 1 for x in series), series
    return [int(x) for x in series]


def moment_coords_oracle(rep, v):
    """m(v) of one vector, one Lie basis matrix at a time."""
    jv = rep.j @ v
    return np.array([0.5 * (m @ v) @ jv for m in rep.lie])


def _charpoly_oracle(a):
    n = a.shape[0]
    mk = np.eye(n, dtype=a.dtype)
    out = []
    for k in range(1, n + 1):
        am = a @ mk
        ck = -np.trace(am) / k
        out.append(ck)
        mk = am + ck * np.eye(n, dtype=a.dtype)
    return out


# Degrees of the basic invariants of the exceptional Weyl groups (Bourbaki,
# Lie Groups and Lie Algebras, ch. VI, planches).
EXCEPTIONAL_DEGREES = {
    ("G", 2): (2, 6),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}


def inv_moment_eval_oracle(rep, v):
    """The invariant moment map of one vector: each factor's matrix summed
    one reference matrix at a time, its charpoly by Faddeev-LeVerrier for
    types A to D, its power traces at the tabulated degrees otherwise."""
    coords = moment_coords_oracle(rep, v)
    values = []
    for fi, (letter, frank) in enumerate(rep.datum.factors):
        lie = factor_lie(rep.datum, fi, _reference_block(letter, frank))
        mats = [np.array(dense(m, len(m)), dtype=float) for _, m in lie]
        gram = np.array([[float(np.trace(a @ b)) for b in mats] for a in mats])
        rhs = np.array([coords[rep.lie_index[lab]] for lab, _ in lie])
        u = np.linalg.inv(gram) @ rhs
        mat = sum(ui * m.astype(rhs.dtype) for ui, m in zip(u, mats))
        if letter in "ABCD":
            coeffs = _charpoly_oracle(mat)
            values.extend(coeffs[1:] if letter == "A" else coeffs[1::2])
        else:
            values.extend(
                np.trace(np.linalg.matrix_power(mat, d))
                for d in EXCEPTIONAL_DEGREES[letter, frank]
            )
    for l in range(rep.datum.central_rank):
        values.append(coords[rep.lie_index[("z", l)]])
    return np.array(values)


def jacobian_oracle(rep, v):
    """The complex-step Jacobian with one evaluation per coordinate."""
    h = 1e-100
    cols = []
    for j in range(rep.dim):
        vc = v.astype(complex)
        vc[j] += 1j * h
        cols.append(np.imag(inv_moment_eval_oracle(rep, vc)) / h)
    return np.array(cols).T


def weight_moment_oracle(rep, p):
    """1/2 sum_a p_a (Jp)_a w_a over Fractions, with a dense J p."""
    jp = mat_vec(dense(rep.j_exact, rep.dim), p)
    coeffs = [Fraction(x) * y / 2 for x, y in zip(p, jp)]
    return lincomb(coeffs, rep.weight_labels, rep.datum.ambient_dim)


def section_apply_oracle(section, a, coords=None):
    """A section's value at one target as one exact pass: its terminal
    coordinates (the section's own plan and solver unless given), the point
    built from them, then layer by layer x from the weight moment over
    Fractions (weight_moment_oracle), and the target checked against the
    moment of the result."""
    a = cvec(a)
    rep = section.rep
    if coords is None:
        coords = _plan_coords(
            len(section.terminal_pairs), section.terminal_plan, section.terminal_solver(a)
        )
    coeffs, vecs = [], []
    for xy, pair in zip(coords, section.terminal_pairs):
        coeffs += xy
        vecs += [pair.x_vec, pair.y_vec]
    p = lincomb(coeffs, vecs, rep.dim)
    for layer in reversed(section.layers):
        t = vdot(a, layer.xi_c)
        fv = vdot(weight_moment_oracle(rep, p), layer.xi_c)
        x = canon(Fraction(fv) - Fraction(t))  # y = 1
        p = lincomb([1, x, 1], [p, layer.v0, layer.v0m], rep.dim)
    m = weight_moment_oracle(rep, p)
    if m != a:
        raise InternalConsistencyError(
            f"section misses its target: m_t = {m}, wanted {a}"
        )
    return p


def critical_first_points_oracle(section, killed, targets):
    """A section's values at the targets with the terminal coordinates of
    the critical-first plan (plan_pairs_oracle, apply_plan_oracle) instead
    of the section's own; killed are the characters of the reduction
    steps, outermost first."""
    chis = [pair.chi for pair in section.terminal_pairs]
    plan = plan_pairs_oracle(chis, killed)
    return [
        section_apply_oracle(section, a, apply_plan_oracle(chis, killed, plan, a))
        for a in targets
    ]


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
           61, 67, 71, 73, 79, 83, 89, 97]


def rho_psg_oracle(datum, spec):
    """The separating one-parameter subgroup by the same candidate search,
    each candidate tested pair by pair: two fresh pairings per pair of
    weights and per pair of terminal and non-terminal highest weights."""
    if datum.rank:
        base = span_coords_oracle(transpose(datum.simple_roots), (1,) * datum.rank)
    else:
        base = cvec((0,) * datum.ambient_dim)
    dim = datum.ambient_dim
    statuses = {w: weight_status(spec, w) for w, _ in spec.summands}
    terminal_hw = [w for w, s in statuses.items() if s is not WeightStatus.NON_TERMINAL]
    nonterminal_hw = [w for w, s in statuses.items() if s is WeightStatus.NON_TERMINAL]
    weights = sorted(spec.weight_multiset())
    pos = positive_roots(datum)

    def ok(rho):
        if any(vdot(r.vec, rho) <= 0 for r in pos):
            return False
        for t in terminal_hw:
            for nt in nonterminal_hw:
                if not vdot(t, rho) < vdot(nt, rho):
                    return False
        for i in range(len(weights)):
            for j in range(i + 1, len(weights)):
                if vdot(weights[i], rho) == vdot(weights[j], rho):
                    return False
        return True

    for p in _PRIMES:
        cand = cvec(tuple(Fraction(base[k]) + Fraction(k + 1, p) for k in range(dim)))
        if ok(cand):
            return cand
    for p in _PRIMES:
        cand = cvec(
            tuple(Fraction(base[k]) + Fraction(1, p ** (k + 1)) for k in range(dim))
        )
        if ok(cand):
            return cand
    raise InternalConsistencyError("no separating one-parameter subgroup found")


def apply_plan_oracle(chis, killed, plan, a):
    """A section's terminal coordinates (x_i, y_i) for the target a, with
    every coefficient found by a fresh span_coords_oracle solve: each
    critical character of the plan peeled off with (1, t), then (1, t) on
    the basis characters and (0, 0) on the dependent ones."""
    killed_rows = [cvec(k) for k in killed]
    a_rem = cvec(a)
    coords = {}
    peeled = []
    for i, mode in plan:
        if mode != "critical":
            continue
        rest = [chis[j] for j, _ in plan if j != i and j not in peeled]
        sol = span_coords_oracle([chis[i]] + rest + killed_rows, a_rem)
        if sol is None:
            raise DomainError("target outside the span of the section characters")
        t = sol[0]
        coords[i] = (1, t)
        a_rem = cvec(tuple(x - t * c for x, c in zip(a_rem, chis[i])))
        peeled.append(i)
    basis_idx = [i for i, mode in plan if mode == "basis"]
    cols = [chis[i] for i in basis_idx] + killed_rows
    sol = span_coords_oracle(cols, a_rem)
    if sol is None:
        raise DomainError("target outside the span of the section characters")
    for k, i in enumerate(basis_idx):
        coords[i] = (1, sol[k])
    for i, mode in plan:
        if mode == "dependent":
            coords[i] = (0, 0)
    return [coords[i] for i in range(len(chis))]


def plan_pairs_oracle(chis, killed):
    """A section's terminal plan, critical characters first, by rescanning:
    a character is critical when it is nonzero and off the span of all the
    other remaining rows, and after each one is found and peeled, every
    remaining character is tested again against the rest, with fresh
    span_coords_oracle solves; the rest in index order, each a greedy basis
    pair or a dependent one."""
    remaining = list(range(len(chis)))
    killed_rows = [cvec(k) for k in killed]
    plan = []
    while True:
        crit = None
        for i in remaining:
            if is_zero_vec(chis[i]):
                continue
            others = [chis[j] for j in remaining if j != i] + killed_rows
            if span_coords_oracle(others, chis[i]) is None:
                crit = i
                break
        if crit is None:
            break
        plan.append((crit, "critical"))
        remaining.remove(crit)
    span_rows = list(killed_rows)
    for i in remaining:
        if not is_zero_vec(chis[i]) and span_coords_oracle(span_rows, chis[i]) is None:
            span_rows.append(chis[i])
            plan.append((i, "basis"))
        else:
            plan.append((i, "dependent"))
    return plan


def _rank_cut_oracle(sv):
    return int(np.sum(sv > RANK_TOL * max(1.0, sv[0] if sv.size else 1.0)))


def _numeric_rank_oracle(mat):
    if mat.size == 0:
        return 0
    return _rank_cut_oracle(np.linalg.svd(np.asarray(mat, dtype=float), compute_uv=False))


def jacobian_rank_and_orbit_oracle(rep, samples, seed):
    """(est_rk, est_orbit_dim, est_c) with one Jacobian and two SVDs per
    sample, the Jacobian by jacobian_oracle."""
    rng = np.random.default_rng(seed)
    rk = orbit = 0
    for v in seeded_samples(rng, rep.dim, samples):
        rk = max(rk, _numeric_rank_oracle(jacobian_oracle(rep, v)))
        orbit = max(orbit, _numeric_rank_oracle(np.array([m @ v for m in rep.lie])))
    rest = rep.dim - orbit - rk
    return rk, orbit, rest // 2


def coisotropy_test_oracle(rep, samples, seed):
    """The coisotropy test with two SVDs per sample, the spanning singular
    vectors sliced off by their count."""
    rng = np.random.default_rng(seed)
    for v in seeded_samples(rng, rep.dim, samples):
        tangent = np.array([m @ v for m in rep.lie]).reshape(-1, rep.dim)
        _, sv, vt = np.linalg.svd(tangent)
        tan_basis = vt[:_rank_cut_oracle(sv)].T
        _, sv2, vt2 = np.linalg.svd(tangent @ rep.j)
        perp = vt2[_rank_cut_oracle(sv2):].T
        if perp.size == 0:
            continue
        resid = perp - tan_basis @ (tan_basis.T @ perp)
        if np.linalg.norm(resid, ord=2) > 1e-8:
            return False
    return True


def character_pairs_oracle(spec):
    """The character pairs ((representative, multiplicity), ...) of a
    validated module, by pairing each character summand with its negative
    in descending weight_key order: the representative is the larger of the
    two, and the zero character counts half its multiplicity.
    InternalConsistencyError on an odd zero-character multiplicity or a
    character whose negative has another multiplicity."""
    datum = spec.datum
    chars = {w: m for w, m in spec.summands
             if weight_status(spec, w) is WeightStatus.CHARACTER}
    pairs = []
    seen = set()
    for w in sorted(chars, key=lambda w: weight_key(datum, w), reverse=True):
        if w in seen:
            continue
        neg = tuple(-x for x in w)
        if neg == w:
            if chars[w] % 2:
                raise InternalConsistencyError("odd zero-character multiplicity")
            pairs.append((w, chars[w] // 2))
            seen.add(w)
            continue
        if chars.get(neg, 0) != chars[w]:
            raise InternalConsistencyError("unpaired character summand")
        pairs.append((max(w, neg, key=lambda v: weight_key(datum, v)), chars[w]))
        seen.update({w, neg})
    return tuple(pairs)


def terminal_module(spec):
    """The terminal module of a validated spec's reduction chain."""
    trace, _ = run_reduction(spec)
    return trace[-1].s_spec if trace else spec


def step_and_layer(rep, chi):
    """(ReductionStep, SectionLayer) of a first reduction step of the
    model's module at any non-terminal highest weight chi, the layer formed
    as `build_section` forms a first layer: (v0, v0^-) from
    `hyperbolic_pair` and the slice functionals of Delta_u."""
    step, _ = reduce_step(rep.spec, chi)
    v0, v0m = hyperbolic_pair(
        rep, step.chosen_chi, unit_columns(rep), rep.datum.simple_roots
    )
    if v0 is None or v0m is None:
        raise InternalConsistencyError(f"no hyperbolic pair at {chi}")
    layer = SectionLayer(
        v0=v0,
        v0m=v0m,
        xi_c=central_element_for(step.levi, step.chosen_chi),
        slice_rows=tuple(slice_functionals(rep, step.delta_u, v0, v0m)),
    )
    return step, layer


def frame_at(rep, chi):
    """The LocalFrame of a first reduction step at any non-terminal highest
    weight chi of the model's module."""
    return local_frame(rep, *step_and_layer(rep, chi))


class SOutsideDomain(Exception):
    """A sample pairs to zero against the chosen highest weight vector."""


class SingularSystem(Exception):
    """The triangular solve hits a vanishing diagonal entry."""


def phi_solve_q_embed_oracle(frame, s):
    """The q-embedding of one vector: the system matrix one omega at a time,
    its triangularity and diagonal checked entry by entry, one solve."""
    rep, du, emats, fv0 = frame.rep, frame.delta_u, frame.emats, frame.fv0
    if abs(omega(rep, s, frame.v0f)) < DOMAIN_TOL:
        raise SOutsideDomain("omega(s, v0) is below the domain tolerance")
    k = len(du)
    a = np.zeros((k, k))
    rhs = np.zeros(k)
    for ai in range(k):
        for bi in range(k):
            a[ai, bi] = omega(rep, emats[ai] @ fv0[bi], s)
        rhs[ai] = -0.5 * omega(rep, emats[ai] @ s, s)
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
    res_sigma = max((abs(omega(rep, em @ q, q)) for em in emats), default=0.0)
    res_perp = max((abs(omega(rep, fv, q)) for fv in fv0), default=0.0)
    return q, res_sigma, res_perp


def verify_commute_oracle(frame, s):
    """(q-embedding, Levi residual, charpoly residual) of one vector, the
    moment values by moment_coords_oracle and each charpoly by
    Faddeev-LeVerrier one matrix at a time."""
    emb = phi_solve_q_embed_oracle(frame, s)
    levi = list(frame.levi_index)
    at_q = moment_coords_oracle(frame.rep, emb[0])
    at_s = moment_coords_oracle(frame.rep, s)
    res_levi = float(np.max(np.abs(at_q[levi] - at_s[levi]), initial=0.0))
    proj = np.zeros_like(at_q)
    proj[levi] = at_q[levi]
    res_char = 0.0
    forms = zip(factor_matrix_forms(frame.rep, at_q), factor_matrix_forms(frame.rep, proj))
    for mq, mp in forms:
        diff = np.subtract(_charpoly_oracle(mq), _charpoly_oracle(mp))
        res_char = max(res_char, float(np.max(np.abs(diff), initial=0.0)))
    return emb, res_levi, res_char


def commute_refusals_oracle(frame, pts):
    """The indices of the rows of the stack pts that verify_commute_oracle
    refuses as outside the domain or singular."""
    out = []
    for i, s in enumerate(pts):
        try:
            verify_commute_oracle(frame, s)
        except (SOutsideDomain, SingularSystem):
            out.append(i)
    return out


def commute_samples_oracle(frame, rng, samples):
    """The sequential sampling loop over the slice: one draw and one
    verify_commute_oracle per attempt, at most 20 * samples attempts.
    Returns (accepted draw indices, their q-embeddings)."""
    bmat = np.array([[float(x) for x in b] for b in frame.s_basis]).T
    accepted, qs = [], []
    attempts = 0
    while len(accepted) < samples and attempts < 20 * samples:
        attempts += 1
        s = bmat @ rng.standard_normal(bmat.shape[1])
        try:
            emb, _, _ = verify_commute_oracle(frame, s)
        except (SOutsideDomain, SingularSystem):
            continue
        accepted.append(attempts - 1)
        qs.append(emb[0])
    return accepted, qs


@dataclass(frozen=True)
class TwoChiReport:
    chi: tuple
    symplectic_type: bool       # hypothesis: the irreducible carries a
    double_is_root: bool        # symplectic form.  2 chi in Delta+
    double_is_2a_minus_b: bool  # 2 chi = 2 alpha - beta
    double_is_a_plus_b: bool    # 2 chi = alpha + beta
    chi_is_root: bool
    singular: bool

    @property
    def any_condition(self):
        return (
            self.double_is_root
            or self.double_is_2a_minus_b
            or self.double_is_a_plus_b
        )


def lemma2chi_conditions(datum, chi):
    """Arithmetic sufficient conditions for singularity of the highest weight
    of an irreducible symplectic module, by brute force over pairs of positive
    roots.  The implications only hold under the symplectic-type hypothesis;
    both are asserted here."""
    chi = cvec(chi)
    if not datum.is_dominant(chi):
        raise SymprepError(f"{chi} is not dominant")
    two_chi = cvec(tuple(2 * x for x in chi))
    pos = [r.vec for r in positive_roots(datum)]
    posset = set(pos)
    cond1 = two_chi in posset
    cond2 = any(
        cvec(vsub(tuple(2 * x for x in a), b)) == two_chi for a in pos for b in pos
    )
    cond3 = any(
        cvec(tuple(x + y for x, y in zip(a, b))) == two_chi for a in pos for b in pos
    )
    singular, _ = is_singular_weight(datum, chi)
    rep = TwoChiReport(
        chi=chi,
        symplectic_type=duality_class(datum, chi) is DualityClass.SYMPLECTIC,
        double_is_root=cond1,
        double_is_2a_minus_b=cond2,
        double_is_a_plus_b=cond3,
        chi_is_root=chi in posset,
        singular=singular,
    )
    if rep.symplectic_type and rep.any_condition and not singular:
        raise InternalConsistencyError(
            f"arithmetic singularity condition fired for non-singular {chi}"
        )
    if rep.symplectic_type and rep.chi_is_root:
        raise InternalConsistencyError(
            f"symplectic highest weight {chi} lies in Delta+"
        )
    if singular and rep.chi_is_root:
        raise InternalConsistencyError(f"singular weight {chi} lies in Delta+")
    return rep
