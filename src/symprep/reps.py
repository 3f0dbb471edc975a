"""Highest-weight modules as exact weight multisets.

Weight multiplicities come from Freudenthal's recursion over the dominant
weights, which a walk down from the highest weight by positive roots finds,
into one table that takes each dominant weight's W-orbit once its
multiplicity is known; duality types come from the parity of <lambda, 2
rho^vee>.  Invariant dimensions come from the Weyl alternation sum_w
(-1)^l(w) m_{S^d V}(w rho - rho) (Humphreys, Introduction to Lie Algebras
and Representation Theory, section 24), formed only where it is read.
Only the answer is kept, per (datum, summands, degree); the states of S^d
V live for the one pass that forms it.  Every target t = w rho - rho has
height <t, 2 rho^vee> <= 0, and one of depth -<t, 2 rho^vee> beyond D = d
max_nu <-nu, 2 rho^vee> is no weight of S^d V.  So:
- the symmetric-power recursion keys each weight by one Python int in a
  balanced radix with the height as its top digit and takes the weights of
  V in ascending height.  Below degree d - 1 it drops a state lifted above
  height 0 once only positive heights are left, with one int compare; at
  the top degree d it keeps only target keys, and at d - 1 only states
  that are a target or become one by one more weight from the slot they
  are formed in or a later one, with one lookup.  Its mass stays exact at every degree, kept
  states plus each dropped state's count times its extensions making
  C(dim V + e - 1, e) at degree e;
- the targets come from a walk down from rho in Dynkin labels cut at depth
  D, with no words, held to the truncated Weyl denominator identity
  sum (-1)^l(w) q^depth = prod_(alpha > 0) (1 - q^(2 ht alpha)) mod q^(D+1).
Multiplying by x^mu adds an int, and ints need no overflow guard.  All
arithmetic is exact.
"""

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, mul

from .errors import (
    BudgetExceeded,
    InternalConsistencyError,
    NotACharacter,
    NotDominant,
    NotSelfDual,
    OddOrthogonalMultiplicity,
    decimal,
)
from .linalg import cvec, vdot, vsub
from .rootdata import (
    DEFAULT_WEYL_CAP,
    _length_data,
    _minus,
    _reflection_data,
    _two_rho_vee,
    check_weyl_cap,
    dual_weight,
    positive_roots,
    weyl_walk,
)

DEFAULT_DIM_CAP = 5000
DEFAULT_SYM_DIM_BUDGET = 16
DEFAULT_SYM_DEGREE_BUDGET = 10


def weight_key(datum, w):
    """Sort key: <w, 2 rho^vee>, twice the rho^vee-height, first, then
    lexicographic on coordinates."""
    return (sum(map(mul, w, _two_rho_vee(datum))), tuple(w))


def weyl_dim(datum, lam):
    """Weyl dimension formula; exact integer, formed once per (datum, lam)."""
    return _weyl_dim_cached(datum, cvec(lam))


@lru_cache(maxsize=None)
def _weyl_dim_cached(datum, lam):
    if not datum.is_dominant(lam):
        raise NotDominant(lam, f"{lam} is not dominant")
    num = den = 1  # one division at the end
    for r in positive_roots(datum):
        coheight = sum(r.coroot_coords)  # <rho, beta^vee>
        num *= vdot(lam, r.coroot_vec) + coheight
        den *= coheight
    num = Fraction(num, den)
    if num.denominator != 1:
        raise InternalConsistencyError(
            f"Weyl dimension of {lam} is {num}, not an integer"
        )
    return int(num)


@lru_cache(maxsize=None)
def _freudenthal_cached(datum, lam):
    dim = weyl_dim(datum, lam)
    if dim > DEFAULT_DIM_CAP:
        raise BudgetExceeded(
            f"irrep dimension {decimal(dim)} exceeds cap {DEFAULT_DIM_CAP} "
            f"for weight {lam}"
        )
    k = datum.rank
    if k == 0:
        return ((lam, 1),)
    pos = positive_roots(datum)
    # The dominant weights of V(lam) are the dominant mu <= lam, and each
    # such mu < lam has a positive root beta with mu + beta dominant and
    # <= lam (Stembridge 1998), so subtracting positive roots from the
    # dominant weights found, starting at lam, reaches exactly them; n is
    # mu's offset lam - mu over the simple roots.
    dominants = {lam: (0,) * k}
    walk = [lam]
    for mu in walk:  # the walk grows as dominant weights are found
        for r in pos:
            nu = vsub(mu, r.vec)
            if nu not in dominants and datum.is_dominant(nu):
                dominants[nu] = tuple(map(add, dominants[mu], r.coords))
                walk.append(nu)
    # weight -> multiplicity, each orbit added once its value is known
    mult = dict.fromkeys(weyl_walk(datum, lam), 1)
    lengths = _length_data(datum)
    lam_labels = [datum.pairing(lam, i) for i in range(k)]
    # lam alone has offset height 0, so it sorts first
    for mu, n in sorted(dominants.items(), key=lambda kv: sum(kv[1]))[1:]:
        # every mu + j beta with j >= 1 is higher than mu, as is its dominant
        # representative, whose orbit is in the table already; strings are
        # unbroken, so the first one that is not a weight ends the string
        num = Fraction(0)
        for r in pos:
            nu = mu
            while True:
                nu = cvec(map(add, nu, r.vec))
                m_nu = mult.get(nu, 0)
                if not m_nu:
                    break
                num += m_nu * r.half_length * vdot(nu, r.coroot_vec)
        # <lam + mu + 2 rho, alpha_i^vee> = <lam + mu, alpha_i^vee> + 2
        den = sum(Fraction(n[i]) * lengths[i] * (lam_labels[i] + datum.pairing(mu, i) + 2)
                  for i in range(k))
        if den == 0:
            raise InternalConsistencyError("vanishing Freudenthal denominator")
        m = 2 * num / den
        if m.denominator != 1 or m < 1:
            raise InternalConsistencyError(
                f"Freudenthal produced non-positive-integer multiplicity {m}"
            )
        mult.update(dict.fromkeys(weyl_walk(datum, mu), int(m)))
    total = sum(mult.values())
    if total != dim:
        raise InternalConsistencyError(
            f"weight multiset mass {total} != Weyl dimension {dim}"
        )
    return tuple(sorted(mult.items()))


def freudenthal_multiplicities(datum, lam):
    """Exact weight multiset of the irreducible module with highest weight lam."""
    return dict(_freudenthal_cached(datum, cvec(lam)))


class DualityClass(enum.Enum):
    SYMPLECTIC = "symplectic"
    ORTHOGONAL = "orthogonal"
    COMPLEX = "complex"


def duality_class(datum, lam):
    """Frobenius-Schur type of the irreducible module with highest weight lam."""
    return _duality_cached(datum, cvec(lam))[0]


@lru_cache(maxsize=None)
def _duality_cached(datum, lam):
    """(duality class, dual weight) of lam, both formed once per (datum, lam)."""
    if not datum.is_dominant(lam):
        raise NotDominant(lam, f"{lam} is not dominant")
    dual = dual_weight(datum, lam)
    if dual != lam:
        return DualityClass.COMPLEX, dual
    ind = vdot(lam, _two_rho_vee(datum))
    if Fraction(ind).denominator != 1:
        raise InternalConsistencyError(f"<{lam}, 2 rho^vee> = {ind} is not an integer")
    return (DualityClass.SYMPLECTIC if int(ind) % 2 else DualityClass.ORTHOGONAL), dual


@lru_cache(maxsize=None)
def _weight_facts(datum, w):
    """(weight_key, dominance) of any weight w, formed once per (datum, w):
    what validation and `decompose_weights` read of a weight."""
    return weight_key(datum, w), datum.is_dominant(w)


@dataclass(frozen=True)
class PairingItem:
    """How one block of the module carries the symplectic form."""

    kind: str        # 'symplectic' | 'dual_pair' | 'orthogonal_double'
    weight: tuple
    count: int


@dataclass(frozen=True)
class SympRepSpec:
    datum: object
    summands: tuple      # ((weight, mult), ...) sorted by descending weight_key
    pairing_plan: tuple  # (PairingItem, ...)

    dim: int = field(init=False, repr=False, compare=False)  # sum m dim V(w)
    _multiplicities: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_multiplicities", dict(self.summands))
        object.__setattr__(self, "dim", sum(
            m * weyl_dim(self.datum, w) for w, m in self.summands))

    def multiplicity(self, w):
        """The multiplicity of the summand with highest weight w (a tuple),
        0 when there is none."""
        return self._multiplicities.get(w, 0)

    def weight_multiset(self):
        return total_weight_multiset(self.datum, self.summands)


def validate_symplectic_spec(datum, raw_summands):
    """Check that an invariant symplectic form exists and fix a pairing plan.

    Complex-type weights must occur with the same multiplicity as their duals,
    orthogonal-type weights with even multiplicity; symplectic-type weights are
    unconstrained.
    """
    merged = {}
    for w, m in raw_summands:
        w = cvec(w)
        if m <= 0:
            raise NotDominant(w, f"multiplicity of {w} must be positive")
        if not _weight_facts(datum, w)[1]:
            raise NotDominant(w, f"highest weight {w} is not dominant")
        merged[w] = merged.get(w, 0) + m
    order = sorted(merged, key=lambda w: _weight_facts(datum, w)[0], reverse=True)
    plan = []
    seen = set()
    for w in order:
        if w in seen:
            continue
        cls, dual = _duality_cached(datum, w)
        if cls is DualityClass.SYMPLECTIC:
            plan.append(PairingItem("symplectic", w, merged[w]))
            seen.add(w)
        elif cls is DualityClass.ORTHOGONAL:
            if merged[w] % 2:
                raise OddOrthogonalMultiplicity(w)
            plan.append(PairingItem("orthogonal_double", w, merged[w] // 2))
            seen.add(w)
        else:
            if merged.get(dual, 0) != merged[w]:
                raise NotSelfDual(w)
            plan.append(PairingItem("dual_pair", w, merged[w]))
            seen.add(w)
            seen.add(dual)
    summands = tuple((w, merged[w]) for w in order)
    return SympRepSpec(datum=datum, summands=summands, pairing_plan=tuple(plan))


def total_weight_multiset(datum, summands):
    total = {}
    for w, m in summands:
        for v, c in _freudenthal_cached(datum, cvec(w)):
            total[v] = total.get(v, 0) + m * c
    return total


def decompose_weights(datum, multiset):
    """Irreducible content of a genuine character, by repeated extraction of
    the maximal weight (height first, lexicographic tie-break)."""
    rem = {cvec(w): m for w, m in multiset.items() if m}
    # extraction only lowers multiplicities (a weight outside rem would go
    # negative and raise), so the first weight left in this order is the max
    order = sorted(rem, key=lambda w: _weight_facts(datum, w)[0], reverse=True)
    out = []
    for top in order:
        m = rem.get(top)
        if not m:
            continue
        if m < 0 or not _weight_facts(datum, top)[1]:
            raise NotACharacter(
                f"maximal weight {top} has multiplicity {m} and is "
                f"{'not ' if not datum.is_dominant(top) else ''}dominant"
            )
        for v, c in _freudenthal_cached(datum, top):
            new = rem.get(v, 0) - m * c
            if new < 0:
                raise NotACharacter(f"multiplicity of {v} drops below zero")
            if new:
                rem[v] = new
            else:
                rem.pop(v, None)
        out.append((top, m))
    return out


# -- symmetric powers and invariant dimensions -------------------------------

def _int_key(v, radix):
    """sum_a v_a radix^a: one int per weight, additive in v, and injective on
    the box |v_a| <= (radix - 1) / 2 (a balanced radix)."""
    key = 0
    for x in reversed(v):
        if type(x) is not int:
            raise InternalConsistencyError(
                f"weight {v} has a non-integer coordinate"
            )
        key = key * radix + x
    return key


def _sym_power_states(steps, max_degree, half, reach):
    """The coefficients of prod_mu (1 - t x^mu)^(-1) over the weight slots,
    one key step per slot in ascending order: multiplying by 1/(1 - t x^mu)
    is h_d += x^mu h_(d-1) for d rising.  Below degree D - 1 (D =
    max_degree) every kept state has height <= 0 (key <= `half`), so a step
    lifts one above `half` only when its own height is positive, as is
    every later step's: that state can never come back down to a target
    and is dropped.  The top two degrees are read only at the targets: a
    degree-D state is kept only if its key is a target, and a degree-(D -
    1) state formed in slot i, read only at its own key k and at k + s_j
    for j >= i, only if reach[k] >= i, `reach` mapping each target to
    len(steps) and each other key k with a target k + s_j to the last
    such slot j.  Returns h, h[d] mapping the key of each kept state of
    degree d to its count, and the mass of every state dropped, by either
    cut, as (slots left, degree, count) triples."""
    n = len(steps)
    h = [{0: 1}] + [{} for _ in range(max_degree)]
    dropped = []
    for i, step in enumerate(steps):
        for d in range(1, max_degree + 1):
            hd, lost = h[d], 0
            if d < max_degree - 1:
                for k, c in h[d - 1].items():
                    k += step
                    if k > half:
                        lost += c
                    else:
                        hd[k] = hd.get(k, 0) + c
            else:
                floor = n if d == max_degree else i
                for k, c in h[d - 1].items():
                    k += step
                    if reach.get(k, -1) < floor:
                        lost += c
                    else:
                        hd[k] = hd.get(k, 0) + c
            if lost:
                dropped.append((n - i, d, lost))
    return h, dropped


@lru_cache(maxsize=None)
def _invariant_dims_cached(datum, summands, max_degree):
    """dim (S^d V)^G for d = 0..max_degree, as a tuple, for the module with
    these validated summands, in one pass that forms its weight multiset
    and the states of S^d V that the alternation can still read (see
    `_sym_power_states`) and drops the states when it returns.  Every
    weight of S^d V lies in the box |v_a| <= bound = max_degree * max |mu_a|
    and at height >= -depth, depth = max_degree * max <-mu, 2 rho^vee>.  A
    weight v keys as _int_key(v) + <v, 2 rho^vee> R^n, R = 2 bound + 1 and
    n the ambient dimension: the height is the top digit, so height <= 0 is
    key <= (R^n - 1) / 2, and the key stays additive and injective on the
    box.  The pass holds the mass exact at every degree (the kept states
    plus each dropped state's count times C(r + e - 1, e), r the slots left
    and e the degrees still to come, make C(dim V + d - 1, d)), each
    dimension nonnegative and degree 0 at 1."""
    weights = total_weight_multiset(datum, summands).items()
    two = _two_rho_vee(datum)
    heights = [sum(map(mul, mu, two)) for mu, _ in weights]
    bound = max_degree * max((abs(x) for mu, _ in weights for x in mu), default=0)
    depth = max_degree * max([0] + [-x for x in heights])
    radix = 2 * bound + 1
    top = radix ** datum.ambient_dim
    steps = sorted(
        _int_key(mu, radix) + x * top
        for (mu, m), x in zip(weights, heights) for _ in range(m)
    )
    signs = _targets(datum, bound, depth)
    # slots ascend, so each key keeps the last slot that takes it to a target
    reach = {t - s: j for j, s in enumerate(steps) for t in signs}
    reach.update(dict.fromkeys(signs, len(steps)))
    h, dropped = _sym_power_states(steps, max_degree, top // 2, reach)
    dim_v = len(steps)
    dims = []
    for d, hd in enumerate(h):
        kept = sum(hd.values())
        lost = sum(c * comb(r + d - e - 1, d - e) for r, e, c in dropped if e <= d)
        mass = comb(dim_v + d - 1, d) if dim_v else int(d == 0)
        if kept + lost != mass:
            raise InternalConsistencyError(
                f"S^{d} V has mass {kept} kept + {lost} dropped, expected {mass}"
            )
        val = sum(hd.get(k, 0) * sign for k, sign in signs.items())
        if val < 0:
            raise InternalConsistencyError("negative invariant dimension")
        dims.append(val)
    if dims[0] != 1:
        raise InternalConsistencyError("degree-0 invariants must be 1-dim")
    return tuple(dims)


def _rho_walk(datum, depth):
    """(t, its depth <-t, 2 rho^vee>, (-1)^l(w)) for each t = w rho - rho of
    depth at most `depth`: a walk down from rho in Dynkin labels, one
    length at a time, that applies s_i only when l_i > 0 and so deepens t
    by l_i <alpha_i, 2 rho^vee>.  Every w rho other than rho has a negative
    label, so each point is reached from rho through shallower points, and
    the cut at `depth` loses none that lies above it.  The labels decide
    the point (see `rootdata`)."""
    refl = _reflection_data(datum)
    two = _two_rho_vee(datum)
    deepen = [sum(map(mul, r, two)) for r in datum.simple_roots]
    level = {(1,) * datum.rank: ((0,) * datum.ambient_dim, 0)}
    out, sign = [], 1
    while level:
        below = {}
        for l, (t, dep) in level.items():
            out.append((t, dep, sign))
            for i, li in enumerate(l):
                if li > 0 and dep + li * deepen[i] <= depth:
                    root, row = refl[i]
                    u = _minus(l, li, row)
                    if u not in below:
                        below[u] = (_minus(t, li, root), dep + li * deepen[i])
        level, sign = below, -sign
    return out


@lru_cache(maxsize=None)
def _targets(datum, bound, depth):
    """{key: (-1)^l(w)}: the key (as in `_invariant_dims_cached`) and sign
    of each target t = w rho - rho of depth at most `depth`.  A target
    outside the box |t_a| <= bound has multiplicity 0 and is skipped:
    keying it could alias a weight inside the box.  The walk is held to the
    Weyl denominator identity sum_w (-1)^l(w) e^(w rho - rho) = prod_(alpha
    > 0) (1 - e^(-alpha)) at e^(-alpha) = q^(2 ht alpha), up to q^depth."""
    radix = 2 * bound + 1
    top = radix ** datum.ambient_dim
    series = [0] * (depth + 1)
    signs = {}
    for t, dep, sign in _rho_walk(datum, depth):
        series[dep] += sign
        if -bound <= min(t, default=0) and max(t, default=0) <= bound:
            signs[_int_key(t, radix) - dep * top] = sign
    product = [1] + [0] * depth
    for r in positive_roots(datum):
        e = 2 * r.height
        for j in range(depth, e - 1, -1):
            product[j] -= product[j - e]
    if series != product:
        raise InternalConsistencyError(
            f"the rho walk gives sum (-1)^l(w) q^depth = {series}, but the "
            f"Weyl denominator identity gives {product} up to q^{depth}"
        )
    return signs


def invariant_dims(spec, max_degree, weyl_cap=DEFAULT_WEYL_CAP):
    """dim (S^d V)^G for d = 0..max_degree, via the Weyl alternation over
    the targets of `_targets`, formed once per (datum, summands, degree);
    the budgets and the Weyl cap are checked on every call."""
    datum = spec.datum
    if spec.dim > DEFAULT_SYM_DIM_BUDGET:
        raise BudgetExceeded(
            f"symmetric powers: dim V = {decimal(spec.dim)} exceeds budget "
            f"{DEFAULT_SYM_DIM_BUDGET}"
        )
    if max_degree > DEFAULT_SYM_DEGREE_BUDGET:
        raise BudgetExceeded(
            f"symmetric powers: degree {max_degree} exceeds cap "
            f"{DEFAULT_SYM_DEGREE_BUDGET}"
        )
    check_weyl_cap(datum, weyl_cap)
    return list(_invariant_dims_cached(datum, spec.summands, max_degree))
