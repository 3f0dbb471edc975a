"""Highest-weight modules as exact weight multisets.

Weight multiplicities come from Freudenthal's recursion over the dominant
weights, which a walk down from the highest weight by positive roots finds,
duality types from the parity of <lambda, 2 rho^vee>, and invariant
dimensions from symmetric power multisets combined with the Weyl alternation
over wrho - rho, read off the W-orbit of rho (Humphreys, Introduction to Lie
Algebras and Representation Theory, section 24).  The symmetric-power
recursion keys each weight by one Python int in a balanced radix
(`_int_key`), so multiplying by x^mu adds an int; ints need no overflow
guard.  All arithmetic is exact.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, le, mul

from .errors import (
    BudgetExceeded,
    InternalConsistencyError,
    NotACharacter,
    NotDominant,
    NotSelfDual,
    OddOrthogonalMultiplicity,
)
from .linalg import cvec, vdot, vsub
from .rootdata import (
    DEFAULT_WEYL_CAP,
    _length_data,
    _two_rho_vee,
    check_weyl_cap,
    dominant_representative,
    dual_weight,
    positive_roots,
    rho_strict,
    weyl_orbit,
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
            f"irrep dimension {dim} exceeds cap {DEFAULT_DIM_CAP} "
            f"for weight {lam}"
        )
    k = datum.rank
    if k == 0:
        return ((lam, 1),)
    pos = positive_roots(datum)
    rho = rho_strict(datum)
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
    mult = {lam: 1}
    lengths = _length_data(datum)
    # lam alone has offset height 0, so it sorts first
    for mu, n in sorted(dominants.items(), key=lambda kv: sum(kv[1]))[1:]:
        # every mu + j beta with j >= 1 is higher than mu, so its dominant
        # representative is already counted; strings are unbroken, so the
        # first one that is not a weight ends the string
        num = Fraction(0)
        for r in pos:
            nu = mu
            while True:
                nu = cvec(map(add, nu, r.vec))
                m_nu = mult.get(dominant_representative(datum, nu)[0], 0)
                if not m_nu:
                    break
                num += m_nu * r.half_length * vdot(nu, r.coroot_vec)
        y = cvec(a + b + 2 * c for a, b, c in zip(lam, mu, rho))  # lam+mu+2rho
        den = sum(Fraction(n[i]) * lengths[i] * vdot(y, datum.simple_coroots[i])
                  for i in range(k))
        if den == 0:
            raise InternalConsistencyError("vanishing Freudenthal denominator")
        m = 2 * num / den
        if m.denominator != 1 or m < 1:
            raise InternalConsistencyError(
                f"Freudenthal produced non-positive-integer multiplicity {m}"
            )
        mult[mu] = int(m)
    full = {}
    for mu, m in mult.items():
        for v, _ in weyl_orbit(datum, mu):
            full[v] = m
    total = sum(full.values())
    if total != dim:
        raise InternalConsistencyError(
            f"weight multiset mass {total} != Weyl dimension {dim}"
        )
    return tuple(sorted(full.items()))


def freudenthal_multiplicities(datum, lam):
    """Exact weight multiset of the irreducible module with highest weight lam."""
    return dict(_freudenthal_cached(datum, cvec(lam)))


class DualityClass(enum.Enum):
    SYMPLECTIC = "symplectic"
    ORTHOGONAL = "orthogonal"
    COMPLEX = "complex"


def duality_class(datum, lam):
    """Frobenius-Schur type of the irreducible module with highest weight lam."""
    return _duality_class_cached(datum, cvec(lam))


@lru_cache(maxsize=None)
def _duality_class_cached(datum, lam):
    if not datum.is_dominant(lam):
        raise NotDominant(lam, f"{lam} is not dominant")
    if dual_weight(datum, lam) != lam:
        return DualityClass.COMPLEX
    ind = vdot(lam, _two_rho_vee(datum))
    if Fraction(ind).denominator != 1:
        raise InternalConsistencyError(f"<{lam}, 2 rho^vee> = {ind} is not an integer")
    return DualityClass.SYMPLECTIC if int(ind) % 2 else DualityClass.ORTHOGONAL


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

    @property
    def dim(self):
        return sum(m * weyl_dim(self.datum, w) for w, m in self.summands)

    def multiplicity(self, w):
        w = cvec(w)
        for wt, m in self.summands:
            if wt == w:
                return m
        return 0

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
        if not datum.is_dominant(w):
            raise NotDominant(w, f"highest weight {w} is not dominant")
        merged[w] = merged.get(w, 0) + m
    order = sorted(merged, key=lambda w: weight_key(datum, w), reverse=True)
    plan = []
    seen = set()
    for w in order:
        if w in seen:
            continue
        cls = duality_class(datum, w)
        if cls is DualityClass.SYMPLECTIC:
            plan.append(PairingItem("symplectic", w, merged[w]))
            seen.add(w)
        elif cls is DualityClass.ORTHOGONAL:
            if merged[w] % 2:
                raise OddOrthogonalMultiplicity(w)
            plan.append(PairingItem("orthogonal_double", w, merged[w] // 2))
            seen.add(w)
        else:
            dual = dual_weight(datum, w)
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
        for v, c in freudenthal_multiplicities(datum, w).items():
            total[v] = total.get(v, 0) + m * c
    return total


def decompose_weights(datum, multiset):
    """Irreducible content of a genuine character, by repeated extraction of
    the maximal weight (height first, lexicographic tie-break)."""
    rem = {cvec(w): m for w, m in multiset.items() if m}
    # extraction only lowers multiplicities (a weight outside rem would go
    # negative and raise), so the first weight left in this order is the max
    order = sorted(rem, key=lambda w: weight_key(datum, w), reverse=True)
    out = []
    for top in order:
        m = rem.get(top)
        if not m:
            continue
        if m < 0 or not datum.is_dominant(top):
            raise NotACharacter(
                f"maximal weight {top} has multiplicity {m} and is "
                f"{'not ' if not datum.is_dominant(top) else ''}dominant"
            )
        for v, c in freudenthal_multiplicities(datum, top).items():
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

def _freeze(multiset):
    return tuple(sorted((cvec(w), m) for w, m in multiset.items() if m))


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


def _int_unkey(key, radix, n):
    """The weight of length n whose _int_key is key."""
    bound = radix // 2
    out = []
    for _ in range(n):
        x = (key + bound) % radix - bound
        out.append(x)
        key = (key - x) // radix
    return tuple(out)


@lru_cache(maxsize=None)
def _sym_powers_cached(frozen, max_degree):
    """(radix, bound, h): h[d] maps the _int_key of each weight of S^d V to
    its multiplicity, d = 0..max_degree.  Every such weight lies in the box
    |v_a| <= bound = max_degree * max |mu_a|, where the key is injective, and
    multiplying by x^mu adds the key of mu.  h is built as the coefficients
    of prod_mu (1 - t x^mu)^(-m_mu), one factor at a time: multiplying by
    1/(1 - t x^mu) is h_d += x^mu h_(d-1) for d rising.  The mass of h_d is
    checked against C(dim V + d - 1, d)."""
    bound = max_degree * max((abs(x) for mu, _ in frozen for x in mu), default=0)
    radix = 2 * bound + 1
    h = [{0: 1}] + [{} for _ in range(max_degree)]
    for mu, m in frozen:
        step = _int_key(mu, radix)
        for _ in range(m):
            for d in range(1, max_degree + 1):
                hd = h[d]
                for k, c in h[d - 1].items():
                    k += step
                    hd[k] = hd.get(k, 0) + c
    dim_v = sum(m for _, m in frozen)
    for d, hd in enumerate(h):
        mass = comb(dim_v + d - 1, d) if dim_v else int(d == 0)
        if sum(hd.values()) != mass:
            raise InternalConsistencyError(
                f"S^{d} V has mass {sum(hd.values())}, expected {mass}"
            )
    return radix, bound, tuple(h)


def symmetric_power_multisets(multiset, max_degree):
    """Weight multisets of S^d V for d = 0..max_degree, keyed by weight."""
    frozen = _freeze(multiset)
    n = len(frozen[0][0]) if frozen else 0
    radix, _, h = _sym_powers_cached(frozen, max_degree)
    return [{_int_unkey(k, radix, n): c for k, c in hd.items()} for hd in h]


def invariant_dims(spec, max_degree, weyl_cap=DEFAULT_WEYL_CAP):
    """dim (S^d V)^G for d = 0..max_degree, via the Weyl alternation
    sum_w (-1)^l(w) m_{S^d V}(w rho - rho) on symmetric-power multisets; rho
    is regular, so its orbit has one point w rho per w, reached in l(w) steps.
    A target outside the box of the S^d weights has multiplicity 0 and is
    skipped: keying it could alias a weight inside the box."""
    datum = spec.datum
    dim_v = spec.dim
    if dim_v > DEFAULT_SYM_DIM_BUDGET:
        raise BudgetExceeded(
            f"symmetric powers: dim V = {dim_v} exceeds budget "
            f"{DEFAULT_SYM_DIM_BUDGET}"
        )
    if max_degree > DEFAULT_SYM_DEGREE_BUDGET:
        raise BudgetExceeded(
            f"symmetric powers: degree {max_degree} exceeds cap "
            f"{DEFAULT_SYM_DEGREE_BUDGET}"
        )
    check_weyl_cap(datum, weyl_cap)
    rho = rho_strict(datum)
    orbit = weyl_orbit(datum, rho)
    if len(orbit) != datum.weyl_order():
        raise InternalConsistencyError(
            f"orbit of rho has {len(orbit)} points, expected |W| = {datum.weyl_order()}"
        )
    radix, bound, sym = _sym_powers_cached(
        _freeze(spec.weight_multiset()), max_degree
    )
    # _int_key is sum_a v_a radix^a, so t = y - rho keys as the same form on
    # y less its value on rho: an int, or on a fractional rho (a Levi's) an
    # integral Fraction, which finds the same entry of h[d].  t lies in the
    # box exactly when y lies in the box moved by rho.  An int key comes from
    # int coordinates only; any other key has its offset checked coordinate
    # by coordinate, since an off-lattice t would miss every entry silently.
    powers = [radix ** a for a in range(len(rho))]
    shift = sum(map(mul, rho, powers))
    lo = [x - bound for x in rho]
    hi = [x + bound for x in rho]
    plus, minus = [], []
    for y, word in orbit:
        if all(map(le, lo, y)) and all(map(le, y, hi)):
            key = sum(map(mul, y, powers)) - shift
            if type(key) is not int and any(
                (a - b).denominator != 1 for a, b in zip(y, rho)
            ):
                raise InternalConsistencyError(
                    f"orbit point {y} lies off rho = {rho} by a non-integer "
                    "coordinate"
                )
            (minus if len(word) % 2 else plus).append(key)
    out = []
    for hd in sym:
        val = sum(hd.get(k, 0) for k in plus) - sum(hd.get(k, 0) for k in minus)
        if val < 0:
            raise InternalConsistencyError("negative invariant dimension")
        out.append(val)
    if out[0] != 1:
        raise InternalConsistencyError("degree-0 invariants must be 1-dim")
    return out
