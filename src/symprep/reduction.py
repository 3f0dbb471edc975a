"""Iterated symplectic local-structure reduction and the derived invariants.

Each step removes the weight strings tied to a chosen non-terminal highest
weight, passes to the Levi centralizing it, and re-validates.  The terminal
stage yields the character pairs spanning a*, the symplectic factor sizes, and
from there the rank, complexity, Gamma = N(a*)/C(a*), the little Weyl group
(by Hilbert/Molien matching when multiplicity free), and the generic isotropy
shape.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .classify import WeightStatus, terminal_decomposition, weight_status
from .errors import (
    InternalConsistencyError,
    NotACharacter,
    SymprepError,
    ValidationError,
)
from .linalg import (
    cvec,
    echelon_basis,
    identity,
    mat_sub,
    mat_vec,
    transpose,
    vdot,
    vsub,
)
from .reps import (
    DEFAULT_SYM_DEGREE_BUDGET,
    DEFAULT_SYM_DIM_BUDGET,
    decompose_weights,
    invariant_dims,
    validate_symplectic_spec,
)
from .rootdata import (
    DEFAULT_WEYL_CAP,
    _centralizer,
    _echelon_key,
    _generic_point,
    _subspace_normalizer,
    build_root_datum,
    check_weyl_cap,
    levi_subdatum,
    positive_roots,
    subspace_normalizer,
    weyl_degrees,
    weyl_walk,
)

DEFAULT_HILBERT_DEGREE = 8


@dataclass(frozen=True)
class ReductionStep:
    chosen_chi: tuple
    delta_u: tuple          # positive roots with <chi, alpha^vee> > 0
    levi: object            # RootDatum of M
    s_spec: object          # validated SympRepSpec for (S, M)


@dataclass(frozen=True)
class TerminalData:
    terminal_group: object
    sp_factor_sizes: tuple
    a_star_basis: tuple
    a_rank: int
    c: int


def delta_u_roots(datum, chi):
    """The positive roots with <chi, alpha^vee> > 0, in positive_roots order
    (height, then coordinates)."""
    return tuple(r for r in positive_roots(datum) if vdot(chi, r.coroot_vec) > 0)


@lru_cache(maxsize=None)
def _step_frame(datum, chi):
    """(Delta_u, the Levi M, the weights chi - alpha and alpha - chi for
    each alpha in Delta_u) of a step at chi, formed once per (datum, chi)."""
    delta_u = delta_u_roots(datum, chi)
    levi = levi_subdatum(
        datum, [i for i in range(datum.rank) if vdot(chi, datum.simple_coroots[i]) == 0]
    )
    carved = tuple(w for r in delta_u for w in (vsub(chi, r.vec), vsub(r.vec, chi)))
    return delta_u, levi, carved


def reduce_step(spec, chi):
    """One local-structure step (V, G) -> (S, M) for the chosen weight."""
    chi = cvec(chi)
    if weight_status(spec, chi) is not WeightStatus.NON_TERMINAL:
        raise SymprepError(f"{chi} is not a non-terminal weight of the module")
    delta_u, levi, carved = _step_frame(spec.datum, chi)
    v_weights = spec.weight_multiset()
    s_weights = dict(v_weights)
    for removed in carved:
        newm = s_weights.get(removed, 0) - 1
        if newm < 0:
            raise InternalConsistencyError(
                f"weight {removed} missing while carving out S"
            )
        if newm:
            s_weights[removed] = newm
        else:
            del s_weights[removed]
    if sum(s_weights.values()) != sum(v_weights.values()) - 2 * len(delta_u):
        raise InternalConsistencyError("dim S != dim V - 2|Delta_u|")
    for w, m in s_weights.items():
        if s_weights.get(tuple(-x for x in w), 0) != m:
            raise InternalConsistencyError("S weights not stable under negation")
    try:
        s_spec = validate_symplectic_spec(levi, decompose_weights(levi, s_weights))
    except NotACharacter as exc:
        raise InternalConsistencyError(f"S is not an M-character: {exc}") from exc
    except ValidationError as exc:
        raise InternalConsistencyError(f"S is not a symplectic M-module: {exc}") from exc
    step = ReductionStep(
        chosen_chi=chi,
        delta_u=delta_u,
        levi=levi,
        s_spec=s_spec,
    )
    return step, s_spec


def run_reduction(spec):
    """Iterate reduce_step to a terminal module; returns (trace, TerminalData)."""
    trace = []
    current = spec
    while True:
        verdict = terminal_decomposition(current)
        if verdict.terminal:
            break
        step, current = reduce_step(current, verdict.witness)
        trace.append(step)
    pairs = verdict.character_pairs
    basis = echelon_basis(sorted(w for w, _ in pairs)) if pairs else []
    a_rank = len(basis)
    c = sum(m for _, m in pairs) - a_rank
    if c < 0:
        raise InternalConsistencyError("negative complexity")
    td = TerminalData(
        terminal_group=current.datum,
        sp_factor_sizes=verdict.sp_factor_sizes,
        a_star_basis=tuple(basis),
        a_rank=a_rank,
        c=c,
    )
    return trace, td


def centralizer_levi(datum, a_star_basis, weyl_cap=DEFAULT_WEYL_CAP, *, expect):
    """Levi whose roots pair to zero with every vector of a*, asserted
    W_G-conjugate to an expected subdatum: some point of the orbit of a
    generic point of a* vanishes on exactly expect's positive roots.  The
    cap is checked on every call; the check itself runs once per
    (datum, a*, expect)."""
    check_weyl_cap(datum, weyl_cap)
    return _conjugate_levi(datum, _echelon_key(tuple(map(tuple, a_star_basis))), expect)


@lru_cache(maxsize=None)
def _conjugate_levi(datum, basis, expect):
    """The generic point x of a* is certified directly: its vanishing
    positive roots are the Levi's, so its stabilizer is W(L) (Steinberg,
    Trans. AMS 112, 1964).  The walk over its orbit stops at the first
    point that vanishes on exactly expect's roots.  Only when x is not
    generic or no point matches is the whole orbit walked: a non-generic x
    has a larger stabilizer, so its orbit is shorter than |W|/|W(L)|."""
    levi = _centralizer(datum, basis)
    pos = positive_roots(datum)

    def vanishing(y):
        return {r.vec for r in pos if vdot(y, r.coroot_vec) == 0}

    x = _generic_point(datum, basis)
    generic = vanishing(x) == {r.vec for r in positive_roots(levi)}
    theirs = {r.vec for r in positive_roots(expect)}
    if generic and any(vanishing(y) == theirs for y in weyl_walk(datum, x)):
        return levi
    size = sum(1 for _ in weyl_walk(datum, x))
    if size * levi.weyl_order() != datum.weyl_order():
        raise InternalConsistencyError(
            f"generic orbit has {size} points, expected "
            f"|W|/|W(L)| = {datum.weyl_order()}/{levi.weyl_order()}"
        )
    raise InternalConsistencyError(
        "centralizer Levi is not conjugate to the terminal group"
    )


def compute_gamma(datum, a_star_basis, weyl_cap=DEFAULT_WEYL_CAP):
    return subspace_normalizer(datum, a_star_basis, weyl_cap)


# -- little Weyl group via Hilbert/Molien matching ---------------------------

def _reflection_table(gamma):
    """Gamma's reflections indexed by their roots, and how they conjugate.

    A reflection's root spans the image of r - 1 (its first nonzero column),
    and `echelon_basis` makes it primitive with a positive first nonzero
    entry, so the positive roots are those of the lexicographic order.
    r_a r_b r_a is the reflection of the root r_a(beta_b): conj[a][b] is its
    index, bit b of neg[a] is set when r_a(beta_b) is negative, and bit b of
    joined[a] when b = a or r_a and r_b do not commute."""
    mats = gamma.reflections
    roots = [echelon_basis([next(c for c in transpose(mat_sub(r, identity(len(r)))) if any(c))])[0]
             for r in mats]
    index = {root: b for b, root in enumerate(roots)}
    conj, neg, joined = [], [], []
    for a, r in enumerate(mats):
        images = [mat_vec(r, beta) for beta in roots]
        row = [index.get(echelon_basis([v])[0]) for v in images]
        if None in row:
            raise InternalConsistencyError(
                "little Weyl candidates: a reflection of Gamma moves a root off its roots"
            )
        conj.append(row)
        neg.append(sum(1 << b for b, v in enumerate(images) if next(x for x in v if x) < 0))
        joined.append(sum(1 << b for b, c in enumerate(row) if c != b or b == a))
    return conj, neg, joined


@lru_cache(maxsize=None)
def _component_degrees(n, count, simply_laced):
    """The degrees of the irreducible finite crystallographic reflection
    group of rank n with count reflections, simply laced or not; B and C
    have the same degrees, so B stands for both."""
    if simply_laced:
        named = {(n, n * (n + 1) // 2): "A", (6, 36): "E", (7, 63): "E", (8, 120): "E"}
        if n >= 4:
            named[n, n * (n - 1)] = "D"
    else:
        named = {(n, n * n): "B", (4, 24): "F", (2, 6): "G"}
    if (n, count) not in named:
        raise InternalConsistencyError(
            f"little Weyl candidates: a Coxeter component of rank {n} with "
            f"{count} reflections names no finite crystallographic type"
        )
    return weyl_degrees(build_root_datum([(named[n, count], n)]))


def _closure(conj, mask, by, todo):
    """mask with the reflections of todo and all their conjugates by the
    group that the reflections by generate; mask's own conjugates are the
    caller's to put in todo."""
    for x in todo:  # grows as reflections are found
        if not mask >> x & 1:
            mask |= 1 << x
            todo += [conj[g][x] for g in by]
    return mask


def _order_and_degrees(conj, neg, joined, mask, gamma):
    """(order, degrees) of the reflection subgroup whose reflections are
    mask.  Its simple roots are those whose reflection keeps every other
    positive root of it positive; two are joined in the Coxeter graph when
    their reflections do not commute, a component's reflections are those
    joined to one of its simple roots, and it is simply laced when every
    joined pair braids in length 3 (r_a r_b r_a = r_b r_a r_b).  Each
    component's type gives its degrees, held to sum(d - 1) = number of
    reflections (Shephard-Todd); the order must divide |Gamma|."""
    members = [a for a in range(len(conj)) if mask >> a & 1]
    simple = [a for a in members if neg[a] & mask == 1 << a]
    degrees, seen = [], 0
    for a in simple:
        if seen >> a & 1:
            continue
        comp, reach = [a], 0
        for x in comp:  # grows as the component is walked
            reach |= joined[x]
            comp += [b for b in simple if joined[x] >> b & 1 and b not in comp]
        seen |= reach
        laced = all(conj[x][y] == conj[y][x] for x in comp for y in comp
                    if joined[x] >> y & 1)
        degrees += _component_degrees(len(comp), (mask & reach).bit_count(), laced)
    order = prod(degrees)
    if sum(degrees) - len(degrees) != len(members) or gamma.gamma_order % order:
        raise InternalConsistencyError(
            f"little Weyl candidates: degrees {sorted(degrees)} for {len(members)} "
            f"reflections in Gamma of order {gamma.gamma_order}"
        )
    return order, (1,) * (len(gamma.a_star_basis) - len(degrees)) + tuple(sorted(degrees))


def reflection_subgroups(gamma):
    """The (order, degrees) of every reflection subgroup of Gamma, one pair
    per subgroup, sorted.

    A reflection subgroup is fixed by its reflections, and a set of
    reflections is a subgroup's exactly when it is closed under r s r
    (Deodhar, Comm. Algebra 17, 1989; Dyer, J. Algebra 135, 1990).  The sets
    are grown from the empty one, each new set the closure of one already
    found with one reflection outside it (one per orbit of the found set's
    group), over a table of conjugations, so no matrix is multiplied; a
    set's Coxeter type gives its order and degrees."""
    conj, neg, joined = _reflection_table(gamma)
    if any(row[a] != a or any(row[c] != b for b, c in enumerate(row))
           for a, row in enumerate(conj)):
        raise InternalConsistencyError(
            "little Weyl candidates: conjugation by a reflection of Gamma is "
            "not an involution of its reflections"
        )
    found, queue = {0}, [(0, ())]
    for mask, gens in queue:  # the queue grows as subgroups are found
        done = mask
        for r in range(len(conj)):
            if not done >> r & 1:
                # r's conjugates by the set's group give the same closure
                done = _closure(conj, done, gens, [r])
                inside = [conj[r][s] for s in range(len(conj)) if mask >> s & 1]
                bigger = _closure(conj, mask, gens + (r,), [r] + inside)
                if bigger not in found:
                    found.add(bigger)
                    queue.append((bigger, gens + (r,)))
    return sorted(_order_and_degrees(conj, neg, joined, m, gamma) for m in found)


@lru_cache(maxsize=None)
def _little_weyl_candidates(datum, basis):
    """`reflection_subgroups` of Gamma, formed once per (datum, echelon
    basis of a*), reading Gamma from rootdata's cache under the same key."""
    return tuple(reflection_subgroups(_subspace_normalizer(datum, basis)))


def _degree_series(degrees, max_degree):
    """prod_i 1/(1 - t^(d_i)) as coefficients 0..max_degree: the number of
    ways to make each degree from the d_i (coin change)."""
    out = [1] + [0] * max_degree
    for d in degrees:
        for n in range(d, max_degree + 1):
            out[n] += out[n - d]
    return out


@dataclass(frozen=True)
class LittleWeylResult:
    status: str            # 'exact' | 'unknown' | 'ambiguous'
    order: int = None
    degrees: tuple = None
    candidates: tuple = None   # orders of reflection subgroups considered


def determine_little_weyl(
    spec,
    gamma,
    mf,
    hilbert_degree=DEFAULT_HILBERT_DEGREE,
    weyl_cap=DEFAULT_WEYL_CAP,
):
    """Identify W_V among reflection subgroups of Gamma by matching the
    invariant Hilbert series against Molien series in squared degrees.

    A candidate is a subgroup's (order, degrees) from `reflection_subgroups`,
    and its Molien series is prod_i 1/(1 - t^(d_i)) (Chevalley, Amer. J.
    Math. 77, 1955).  Only valid when the module is multiplicity free;
    otherwise the result is Unknown with the candidates' orders listed.  A
    module above the symmetric-power dimension budget gets status "budget",
    also with the candidates listed, before any symmetric power is formed.
    An odd hilbert_degree is rounded down; one above the symmetric-power
    degree budget makes invariant_dims raise BudgetExceeded."""
    subs = _little_weyl_candidates(spec.datum, gamma.a_star_basis)
    candidates = tuple(order for order, _ in subs)
    if not mf:
        return LittleWeylResult(status="unknown", candidates=candidates)
    if spec.dim > DEFAULT_SYM_DIM_BUDGET:
        return LittleWeylResult(status="budget", candidates=candidates)
    degree = hilbert_degree
    if degree % 2:
        degree -= 1
    while True:
        hilb = invariant_dims(spec, degree, weyl_cap=weyl_cap)
        # the Molien series in squared degrees: prod_i 1/(1 - t^(2 d_i))
        matches = [
            (order, degrees) for order, degrees in subs
            if _degree_series([2 * d for d in degrees], degree) == hilb
        ]
        if len(matches) == 1:
            order, degrees = matches[0]
            return LittleWeylResult(status="exact", order=order, degrees=degrees)
        if not matches:
            raise InternalConsistencyError(
                "no reflection subgroup of Gamma matches the Hilbert series"
            )
        if degree + 2 > DEFAULT_SYM_DEGREE_BUDGET:
            return LittleWeylResult(
                status="ambiguous",
                candidates=tuple(order for order, _ in matches),
            )
        degree += 2


@dataclass(frozen=True)
class IsotropyShape:
    dim_h: int
    sp_parts: tuple
    reductive_constraint: str


def isotropy_shape(td, levi):
    """Dimension and block shape of the generic isotropy group."""
    dim_l = levi.dim_group()
    dim_h = dim_l - td.a_rank - 2 * sum(td.sp_factor_sizes)
    if dim_h < 0:
        raise InternalConsistencyError("negative isotropy dimension")
    return IsotropyShape(
        dim_h=dim_h,
        sp_parts=tuple(f"Sp_{2 * m - 1}" for m in td.sp_factor_sizes),
        reductive_constraint="(L,L) <= H <= L with L/H = A",
    )


@dataclass(frozen=True)
class AnalysisReport:
    rk_s: int
    c_s: int
    mf: bool
    a_star_basis: tuple
    sp_factor_sizes: tuple
    levi: object
    gamma: object
    little_weyl: object
    isotropy: object
    trace: tuple
    terminal: object


def reduce_to_gamma(spec, weyl_cap=DEFAULT_WEYL_CAP):
    """The reduction with Gamma and the centralizer Levi of its a*, the Levi
    cross-checked against the terminal group.  The Weyl cap is checked first.

    Returns (trace, TerminalData, Gamma, Levi)."""
    check_weyl_cap(spec.datum, weyl_cap)
    trace, td = run_reduction(spec)
    gamma = compute_gamma(spec.datum, td.a_star_basis, weyl_cap)
    levi = centralizer_levi(
        spec.datum, td.a_star_basis, weyl_cap, expect=td.terminal_group
    )
    return trace, td, gamma, levi


def analyze(
    spec,
    weyl_cap=DEFAULT_WEYL_CAP,
    hilbert_degree=DEFAULT_HILBERT_DEGREE,
):
    """Full structural analysis of a validated symplectic module."""
    trace, td, gamma, levi = reduce_to_gamma(spec, weyl_cap)
    mf = td.c == 0
    lw = determine_little_weyl(
        spec, gamma, mf, hilbert_degree, weyl_cap
    )
    if lw.status == "exact" and gamma.gamma_order % lw.order != 0:
        raise InternalConsistencyError("|W_V| does not divide |Gamma|")
    iso = isotropy_shape(td, levi)
    return AnalysisReport(
        rk_s=td.a_rank,
        c_s=td.c,
        mf=mf,
        a_star_basis=td.a_star_basis,
        sp_factor_sizes=td.sp_factor_sizes,
        levi=levi,
        gamma=gamma,
        little_weyl=lw,
        isotropy=iso,
        trace=tuple(trace),
        terminal=td,
    )
