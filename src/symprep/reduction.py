"""Iterated symplectic local-structure reduction and the derived invariants.

Each step removes the weight strings tied to a chosen non-terminal highest
weight, passes to the Levi centralizing it, and re-validates.  The terminal
stage yields the character pairs spanning a*, the symplectic factor sizes, and
from there the rank, complexity, Gamma = N(a*)/C(a*), the little Weyl group
(by Hilbert/Molien matching when multiplicity free), and the generic isotropy
shape.
"""

from dataclasses import dataclass

from .classify import WeightStatus, terminal_decomposition, weight_status
from .errors import (
    InternalConsistencyError,
    NoNonTerminalWeight,
    NotACharacter,
    SymprepError,
)
from .linalg import (
    cvec,
    echelon_basis,
    fixed_codim,
    group_closure,
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
    centralizer_datum,
    check_weyl_cap,
    generic_orbit,
    levi_subdatum,
    positive_roots,
    subspace_normalizer,
)

DEFAULT_HILBERT_DEGREE = 8


@dataclass(frozen=True)
class ReductionStep:
    chosen_chi: tuple
    delta_u: tuple          # positive roots with <chi, alpha^vee> > 0
    levi: object            # RootDatum of M
    s_weights: tuple        # frozen weight multiset of S
    s_spec: object          # validated SympRepSpec for (S, M)


@dataclass(frozen=True)
class TerminalData:
    terminal_group: object
    character_pairs: tuple
    sp_factor_sizes: tuple
    a_star_basis: tuple
    a_rank: int
    c: int


def choose_nonterminal_weight(spec):
    """Deterministic choice: the witness of terminal_decomposition, maximal
    rho^vee-height with a lexicographic tie-break."""
    verdict = terminal_decomposition(spec)
    if verdict.terminal:
        raise NoNonTerminalWeight("module is terminal")
    return verdict.witness


def delta_u_roots(datum, chi):
    """The positive roots with <chi, alpha^vee> > 0, in positive_roots order
    (height, then coordinates)."""
    return tuple(r for r in positive_roots(datum) if vdot(chi, r.coroot_vec) > 0)


def reduce_step(spec, chi):
    """One local-structure step (V, G) -> (S, M) for the chosen weight."""
    datum = spec.datum
    chi = cvec(chi)
    if weight_status(spec, chi) is not WeightStatus.NON_TERMINAL:
        raise SymprepError(f"{chi} is not a non-terminal weight of the module")
    delta_u = delta_u_roots(datum, chi)
    levi_idx = [
        i for i in range(datum.rank) if vdot(chi, datum.simple_coroots[i]) == 0
    ]
    levi = levi_subdatum(datum, levi_idx)
    v_weights = spec.weight_multiset()
    s_weights = dict(v_weights)
    for r in delta_u:
        for removed in (cvec(vsub(chi, r.vec)), cvec(vsub(r.vec, chi))):
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
        if s_weights.get(cvec(tuple(-x for x in w)), 0) != m:
            raise InternalConsistencyError("S weights not stable under negation")
    try:
        s_summands = decompose_weights(levi, s_weights)
    except NotACharacter as exc:
        raise InternalConsistencyError(f"S is not an M-character: {exc}") from exc
    s_spec = validate_symplectic_spec(levi, s_summands)
    step = ReductionStep(
        chosen_chi=chi,
        delta_u=delta_u,
        levi=levi,
        s_weights=tuple(sorted(s_weights.items())),
        s_spec=s_spec,
    )
    return step, s_spec


def run_reduction(spec, first_choice=None):
    """Iterate reduce_step to a terminal module; returns (trace, TerminalData).

    first_choice overrides the weight selection at the first step only (used
    by the permanence checks)."""
    trace = []
    current = spec
    while True:
        verdict = terminal_decomposition(current)
        if verdict.terminal:
            break
        if first_choice is not None and not trace:
            chi = cvec(first_choice)
            if weight_status(current, chi) is not WeightStatus.NON_TERMINAL:
                raise SymprepError(f"{chi} is not an admissible first choice")
        else:
            chi = verdict.witness
        step, current = reduce_step(current, chi)
        trace.append(step)
    pairs = verdict.character_pairs
    basis = echelon_basis(sorted(w for w, _ in pairs)) if pairs else []
    a_rank = len(basis)
    c = sum(m for _, m in pairs) - a_rank
    if c < 0:
        raise InternalConsistencyError("negative complexity")
    td = TerminalData(
        terminal_group=current.datum,
        character_pairs=pairs,
        sp_factor_sizes=verdict.sp_factor_sizes,
        a_star_basis=tuple(basis),
        a_rank=a_rank,
        c=c,
    )
    return trace, td


def centralizer_levi(datum, a_star_basis, weyl_cap=DEFAULT_WEYL_CAP,
                     expect=None):
    """Levi whose roots pair to zero with every vector of a*; optionally
    asserted W_G-conjugate to an expected subdatum: some point of the orbit
    of a generic point of a* vanishes on exactly expect's positive roots."""
    levi = centralizer_datum(datum, a_star_basis)
    if expect is not None:
        check_weyl_cap(datum, weyl_cap)
        theirs = {r.vec for r in positive_roots(expect)}
        pos = positive_roots(datum)
        if not any(
            {r.vec for r in pos if vdot(y, r.coroot_vec) == 0} == theirs
            for y, _ in generic_orbit(datum, a_star_basis, levi)
        ):
            raise InternalConsistencyError(
                "centralizer Levi is not conjugate to the terminal group"
            )
    return levi


def compute_gamma(datum, a_star_basis, weyl_cap=DEFAULT_WEYL_CAP):
    return subspace_normalizer(datum, list(a_star_basis), weyl_cap)


# -- little Weyl group via Hilbert/Molien matching ---------------------------

def reflection_subgroups(gamma):
    """All subgroups generated by subsets of the reflections of Gamma.

    Grown from the trivial group: each new subgroup is the closure of one
    already found, with its generators plus one reflection outside it."""
    k = len(gamma.a_star_basis)
    refl = [gamma.gamma_matrices[i] for i in gamma.reflection_indices]
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


def _degrees_from_codims(codims, k):
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


def _degree_series(degrees, max_degree):
    """prod_i 1/(1 - t^(d_i)) as coefficients 0..max_degree: the number of
    ways to make each degree from the d_i (coin change)."""
    out = [1] + [0] * max_degree
    for d in degrees:
        for n in range(d, max_degree + 1):
            out[n] += out[n - d]
    return out


def reflection_degrees(mats):
    """Fundamental invariant degrees of a finite reflection group."""
    k = len(mats[0]) if mats else 0
    return _degrees_from_codims([fixed_codim(g) for g in mats], k)


def molien_series(mats, max_degree):
    """Molien series of a finite reflection group, exact, as coefficients
    0..max_degree: its invariants are a polynomial ring (Chevalley, Amer. J.
    Math. 77, 1955), so the series is prod_i 1/(1 - t^(d_i))."""
    return _degree_series(reflection_degrees(mats), max_degree)


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

    Only valid when the module is multiplicity free; otherwise the result is
    Unknown with the candidate subgroups listed.  A module above the
    symmetric-power dimension budget gets status "budget", also with the
    candidates listed, before any symmetric power is formed.  An odd
    hilbert_degree is rounded down; one above the symmetric-power degree
    budget makes invariant_dims raise BudgetExceeded."""
    subs = reflection_subgroups(gamma)
    candidates = tuple(sorted(len(s) for s in subs))
    if not mf:
        return LittleWeylResult(status="unknown", candidates=candidates)
    if spec.dim > DEFAULT_SYM_DIM_BUDGET:
        return LittleWeylResult(status="budget", candidates=candidates)
    codim = dict(zip(gamma.gamma_matrices, gamma.fixed_codims))
    k = len(gamma.a_star_basis)
    degrees = {
        sub: _degrees_from_codims([codim[g] for g in sub], k) for sub in subs
    }
    degree = hilbert_degree
    if degree % 2:
        degree -= 1
    while True:
        hilb = invariant_dims(spec, degree, weyl_cap=weyl_cap)
        # the Molien series in squared degrees: prod_i 1/(1 - t^(2 d_i))
        matches = [
            sub for sub in subs
            if _degree_series([2 * d for d in degrees[sub]], degree) == hilb
        ]
        if len(matches) == 1:
            return LittleWeylResult(
                status="exact",
                order=len(matches[0]),
                degrees=degrees[matches[0]],
            )
        if not matches:
            raise InternalConsistencyError(
                "no reflection subgroup of Gamma matches the Hilbert series"
            )
        if degree + 2 > DEFAULT_SYM_DEGREE_BUDGET:
            return LittleWeylResult(
                status="ambiguous",
                candidates=tuple(sorted(len(m) for m in matches)),
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
    spec: object
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
    if lw.status == "exact" and len(gamma.gamma_matrices) % lw.order != 0:
        raise InternalConsistencyError("|W_V| does not divide |Gamma|")
    iso = isotropy_shape(td, levi)
    return AnalysisReport(
        spec=spec,
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
