"""Exact root data: Cartan matrices, root systems, Weyl orbits, Levi subdata.

Ambient convention: the character lattice of the maximal torus is coordinatized
by the fundamental-weight basis of the declared simple factors followed by one
integer coordinate per central-torus direction.  A weight vector w therefore
satisfies <w, alpha_i^vee> = w[i] for the i-th declared simple coroot, and
central coordinates pair to zero with every coroot.  Levi and subsystem data
share the same ambient lattice; their simple coroots are stored as explicit
functionals so that pairings remain plain dot products.

Weyl walks run in Dynkin labels l = (<y, alpha_j^vee>)_j (Stembridge,
Computational aspects of root systems, Coxeter groups, and Weyl characters,
MSJ Mem. 11, 2001): the simple reflection s_i maps l to l - l_i C[i], with C
the Cartan pairing, and fixes y when l_i = 0.  Within one orbit the labels
decide the point, since two points differ by an element of the root span
and C is nonsingular; so `weyl_walk` keys its walk on labels and forms a
point once, from its parent, and `dominant_representative` carries the
labels along; neither forms a word.  Both walks and the positive-root
closure stay in ints on integral data; a fractional point (a generic point
of a*) makes canonical only the coordinates a step changes.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, permutations
from math import factorial, prod
from operator import add, mul

from .errors import (
    DimensionMismatch,
    InternalConsistencyError,
    InvalidCartanType,
    WeylCapExceeded,
)
from .linalg import (
    canon,
    cvec,
    echelon_basis,
    lincomb,
    mat_vec,
    span_solver,
    transpose,
    vdot,
    vscale,
    vsub,
)

DEFAULT_WEYL_CAP = 10 ** 6

_VALID_LETTERS = frozenset("ABCDEFG")


def _check_cartan_type(letter, n):
    exceptional = {"E": (6, 7, 8), "F": (4,), "G": (2,)}
    if (
        letter not in _VALID_LETTERS
        or n < 1
        or n not in exceptional.get(letter, (n,))
        or (letter in "BCD" and n < 2)
        or (letter == "D" and n < 3)
    ):
        raise InvalidCartanType(f"invalid Cartan type {letter}{n}")


@lru_cache(maxsize=None)
def cartan_matrix(letter, n):
    """Cartan matrix M[i][j] = <alpha_i, alpha_j^vee> in Bourbaki numbering."""
    _check_cartan_type(letter, n)
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, mij=-1, mji=-1):
        m[i][j] = mij
        m[j][i] = mji

    if letter == "A" or (letter in "BC" and n >= 2) or letter == "F":
        for i in range(n - 1):
            edge(i, i + 1)
    if letter == "B":
        edge(n - 2, n - 1, -2, -1)
    elif letter == "C":
        edge(n - 2, n - 1, -1, -2)
    elif letter == "D":
        for i in range(n - 3):
            edge(i, i + 1)
        edge(n - 3, n - 2)
        edge(n - 3, n - 1) if n > 3 else edge(0, 2)
    elif letter == "E":
        for i, j in [(0, 2), (2, 3), (3, 4), (1, 3)] + [(k, k + 1) for k in range(4, n - 1)]:
            edge(i, j)
    elif letter == "F":
        edge(1, 2, -2, -1)
    elif letter == "G":
        edge(0, 1, -1, -3)
    return tuple(tuple(r) for r in m)


def _weyl_order_of_factor(letter, n):
    if letter == "A":
        return factorial(n + 1)
    if letter in "BC":
        return 2 ** n * factorial(n)
    if letter == "D":
        return 2 ** (n - 1) * factorial(n)
    return {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
            ("F", 4): 1152, ("G", 2): 12}[(letter, n)]


def normalize_factor(letter, n):
    """Resolve low-rank coincidences to a canonical letter."""
    letter = letter.upper()
    if letter not in _VALID_LETTERS:
        raise InvalidCartanType(f"invalid Cartan letter {letter!r}")
    if not isinstance(n, int) or n < 1:
        raise InvalidCartanType(f"invalid rank {n!r} for type {letter}")
    if letter in "BC" and n == 1:
        return [("A", 1)]
    if letter == "D":
        if n == 2:
            return [("A", 1), ("A", 1)]
        if n == 3:
            return [("A", 3)]
    _check_cartan_type(letter, n)
    return [(letter, n)]


@dataclass(frozen=True)
class RootDatum:
    """Root datum on a fixed ambient weight lattice.

    simple_roots[i] is the weight-coordinate vector of alpha_i and
    simple_coroots[i] the functional computing <., alpha_i^vee>.

    Equality is by fields.  The hash is that of the field tuple's repr,
    formed once: the fields are canonical, so equal fields have equal
    reprs, while the tuple's own hash takes -1 and -2 alike and so would
    join Levis such as those with simple roots (-1, 2) and (-2, 2).
    `build_root_datum` and `datum_from_root_list` return one object per
    field tuple (`_DATUM_CACHE`), so a per-datum cache finds its key by
    identity.  |W| is formed once too, beside the hash.
    """

    factors: tuple
    central_rank: int
    ambient_dim: int
    simple_roots: tuple
    simple_coroots: tuple
    standard_order: tuple  # per factor: simple indices in Bourbaki order

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(repr((
            self.factors, self.central_rank, self.ambient_dim,
            self.simple_roots, self.simple_coroots, self.standard_order))))
        object.__setattr__(self, "_weyl_order", prod(
            _weyl_order_of_factor(l, n) for l, n in self.factors))

    def __hash__(self):
        return self._hash

    @property
    def rank(self):
        return len(self.simple_roots)

    def cartan_pairing(self):
        """C[i][j] = <alpha_i, alpha_j^vee>, formed once per datum."""
        return _cartan_pairing(self)

    def pairing(self, w, i):
        if len(w) != self.ambient_dim:
            raise DimensionMismatch(
                f"weight length {len(w)} != ambient dim {self.ambient_dim}"
            )
        return vdot(w, self.simple_coroots[i])

    def is_dominant(self, w):
        return all(self.pairing(w, i) >= 0 for i in range(self.rank))

    def type_string(self):
        parts = [f"{l}{n}" for l, n in self.factors]
        torus = self.central_rank
        if torus or not parts:
            parts.append(f"T{torus}")
        return "x".join(parts)

    def weyl_order(self):
        return self._weyl_order

    def dim_group(self):
        return self.ambient_dim + 2 * len(positive_roots(self))


_DATUM_CACHE = {}  # field tuple -> the one RootDatum with those fields


def _interned(*fields):
    """The RootDatum with these fields, in declared order, formed once."""
    datum = _DATUM_CACHE.get(fields)
    if datum is None:
        datum = _DATUM_CACHE[fields] = RootDatum(*fields)
    return datum


@lru_cache(maxsize=None)
def _cartan_pairing(datum):
    return tuple(
        tuple(vdot(a, c) for c in datum.simple_coroots) for a in datum.simple_roots
    )


def _support(v):
    """The nonzero entries (index, value) of v."""
    return tuple((a, x) for a, x in enumerate(v) if x)


@lru_cache(maxsize=None)
def _reflection_data(datum):
    """Per simple reflection s_i: the nonzero entries (index, value) of
    alpha_i in ambient coordinates and of C[i] in label coordinates.  s_i
    subtracts l_i = <y, alpha_i^vee> times the first from a point y and
    times the second from y's labels."""
    return tuple(
        (_support(r), _support(row))
        for r, row in zip(datum.simple_roots, datum.cartan_pairing())
    )


def _minus(v, c, support):
    """v - c u for the sparse vector u given by its support (index, value),
    changing only those entries; with an int c on a canonical v the result
    is canonical without `canon`."""
    out = list(v)
    if type(c) is int:
        for a, x in support:
            out[a] -= c * x
    else:
        for a, x in support:
            out[a] = canon(out[a] - c * x)
    return tuple(out)


def build_root_datum(factors, central_rank=0):
    """Assemble a root datum from (letter, rank) factors plus a central torus."""
    if central_rank < 0:
        raise InvalidCartanType("central torus rank must be nonnegative")
    norm = []
    for letter, n in factors:
        norm.extend(normalize_factor(letter, n))
    norm = tuple(norm)
    total = sum(n for _, n in norm)
    dim = total + central_rank
    roots, order, off = [], [], 0
    for letter, n in norm:
        pad = dim - off - n
        roots += [(0,) * off + row + (0,) * pad for row in cartan_matrix(letter, n)]
        order.append(tuple(range(off, off + n)))
        off += n
    coroots = tuple((0,) * i + (1,) + (0,) * (dim - i - 1) for i in range(total))
    return _interned(norm, central_rank, dim, tuple(roots), coroots, tuple(order))


@dataclass(frozen=True)
class Root:
    """One root with its coordinates over the simple roots/coroots."""

    coords: tuple        # over simple roots
    vec: tuple           # ambient weight coordinates
    coroot_coords: tuple  # beta^vee over simple coroots
    coroot_vec: tuple    # functional on the ambient lattice
    half_length: Fraction  # (beta, beta)/2 in the normalization used here

    @property
    def height(self):
        return sum(self.coords)


def _length_data(datum):
    """(alpha_i, alpha_i)/2 per simple root, one scale per Dynkin component."""
    m = datum.cartan_pairing()
    k = datum.rank
    d = [None] * k
    for start in range(k):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(k):
                if i != j and m[i][j] != 0 and d[j] is None:
                    d[j] = canon(d[i] * Fraction(m[j][i], m[i][j]))
                    stack.append(j)
    return tuple(d)


@lru_cache(maxsize=None)
def positive_roots(datum):
    """All positive roots, by reflection closure of the simple system, in
    int coordinates over the simple roots and coroots: s_j moves beta by
    <beta, alpha_j^vee> alpha_j and beta^vee by <alpha_j, beta^vee>
    alpha_j^vee, and a zero pairing fixes both.  s_j keeps every positive
    root but alpha_j positive, and each positive root beyond the simple ones
    is s_j of a lower one, so the closure never leaves the positive roots."""
    k = datum.rank
    if k == 0:
        return ()
    m = datum.cartan_pairing()
    cols = tuple(zip(*m))
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
                pair_b = sum(map(mul, b, cols[j]))
                if not pair_b or pair_b > b[j]:  # s_j fixes b, or b = alpha_j
                    continue
                b2 = list(b)
                b2[j] -= pair_b
                b2 = tuple(b2)
                if b2 not in seen:
                    c2 = list(c)
                    c2[j] -= sum(map(mul, c, m[j]))
                    seen[b2] = (tuple(c2), d)
                    nxt.append(b2)
        frontier = nxt
    roots_t, coroots_t = transpose(datum.simple_roots), transpose(datum.simple_coroots)
    out = [
        Root(b, mat_vec(roots_t, b), c, mat_vec(coroots_t, c), d)
        for b, (c, d) in seen.items()
    ]
    out.sort(key=lambda r: (r.height, r.coords))
    return tuple(out)


@lru_cache(maxsize=None)
def weyl_degrees(datum):
    """The degrees of the Weyl group of a simple datum, ascending: one plus
    the exponents, the partition dual to the numbers of positive roots of
    each height (Kostant, Amer. J. Math. 81, 1959)."""
    counts = Counter(r.height for r in positive_roots(datum)).values()
    return tuple(1 + sum(c >= j for c in counts) for j in range(datum.rank, 0, -1))


@lru_cache(maxsize=None)
def _two_rho_vee(datum):
    """Sum of the positive coroots, 2 rho^vee, as an int functional on the
    ambient lattice."""
    acc = [0] * datum.ambient_dim
    for r in positive_roots(datum):
        acc = list(map(add, acc, r.coroot_vec))
    return tuple(acc)


@lru_cache(maxsize=None)
def rho_vee(datum):
    """Half-sum of positive coroots, as a functional on the ambient lattice."""
    return cvec(Fraction(x, 2) for x in _two_rho_vee(datum))


def dominant_representative(datum, w):
    """The dominant point of the W-orbit of w: reflect in the first simple
    root with a negative label until none is left.  The labels are carried
    along, not paired afresh."""
    cur = cvec(w)
    labels = tuple(datum.pairing(cur, j) for j in range(datum.rank))
    refl = _reflection_data(datum)
    while True:
        j = next((i for i, l in enumerate(labels) if l < 0), None)
        if j is None:
            return cur
        lj = labels[j]
        root, row = refl[j]
        cur, labels = _minus(cur, lj, root), _minus(labels, lj, row)


def dual_weight(datum, w):
    """Highest weight of the dual module, -w0 w, for dominant w."""
    return dominant_representative(datum, vscale(-1, w))


def weyl_walk(datum, x):
    """The W-orbit of x, breadth first from x, yielded as the points are
    found: a reader that stops early walks no further.  Keyed on Dynkin
    labels (see the module docstring), a point is formed once, from its
    parent, when its labels are new."""
    refl = _reflection_data(datum)
    start = tuple(datum.pairing(x, j) for j in range(datum.rank))
    seen, queue = {start}, [(start, x)]
    yield x
    for l, y in queue:  # the walk grows as points are found
        for i, li in enumerate(l):
            if not li:  # s_i fixes y
                continue
            root, row = refl[i]
            u = _minus(l, li, row)
            if u not in seen:
                seen.add(u)
                point = _minus(y, li, root)
                queue.append((u, point))
                yield point


def check_weyl_cap(datum, cap):
    """Raise WeylCapExceeded when |W| exceeds cap, before any walk over W."""
    order = datum.weyl_order()
    if order > cap:
        raise WeylCapExceeded(order, cap)


def check_declared_weyl_cap(factors, cap):
    """check_weyl_cap on declared (letter, rank) factors, before any root
    datum or Cartan matrix is built: |W| by the order formulas.  A pair that
    names no Cartan type counts 1, and is left to build_root_datum to
    reject.  The formulas cost a factorial of each rank, so the caller
    bounds the ranks first."""
    order = 1
    for letter, n in factors:
        try:
            norm = normalize_factor(letter, n)
        except InvalidCartanType:
            continue
        for f in norm:
            order *= _weyl_order_of_factor(*f)
    if order > cap:
        raise WeylCapExceeded(order, cap)


# -- Levi subdata and Dynkin classification ---------------------------------

def _match_component(sub_m):
    """Classify an irreducible Cartan matrix; returns (letter, rank, perm)
    with perm[k] = local index of the node in Bourbaki position k."""
    n = len(sub_m)
    candidates = []
    for letter in "ACBDEFG":  # prefer C over B so BC2 components read as C2
        try:
            std = cartan_matrix(letter, n)
        except InvalidCartanType:
            continue
        candidates.append((letter, std))
    for letter, std in candidates:
        for perm in permutations(range(n)):
            ok = True
            for a in range(n):
                for b in range(n):
                    if std[a][b] != sub_m[perm[a]][perm[b]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return letter, n, perm
    raise InvalidCartanType("submatrix is not a Cartan matrix of finite type")


def datum_from_root_list(parent, roots, coroots):
    """Build a (sub)datum on the parent's ambient lattice from explicit
    simple roots and coroot functionals."""
    k = len(roots)
    m = tuple(tuple(vdot(r, c) for c in coroots) for r in roots)
    # split into components
    comp_of = [None] * k
    comps = []
    for s in range(k):
        if comp_of[s] is not None:
            continue
        comp = [s]
        comp_of[s] = len(comps)
        stack = [s]
        while stack:
            i = stack.pop()
            for j in range(k):
                if i != j and m[i][j] != 0 and comp_of[j] is None:
                    comp_of[j] = len(comps)
                    comp.append(j)
                    stack.append(j)
        comps.append(sorted(comp))
    factors, order = [], []
    for comp in comps:
        sub = tuple(tuple(m[i][j] for j in comp) for i in comp)
        letter, n, perm = _match_component(sub)
        factors.append((letter, n))
        order.append(tuple(comp[perm[a]] for a in range(n)))
    return _interned(
        tuple(factors),
        parent.ambient_dim - k,
        parent.ambient_dim,
        tuple(cvec(r) for r in roots),
        tuple(cvec(c) for c in coroots),
        tuple(order),
    )


def levi_subdatum(datum, simple_subset):
    """Standard Levi on a subset of simple roots; shares the ambient lattice."""
    return _levi_subdatum(datum, tuple(sorted(set(simple_subset))))


@lru_cache(maxsize=None)
def _levi_subdatum(datum, subset):
    for i in subset:
        if not 0 <= i < datum.rank:
            raise IndexError(f"simple root index {i} out of range")
    roots = [datum.simple_roots[i] for i in subset]
    coroots = [datum.simple_coroots[i] for i in subset]
    return datum_from_root_list(datum, roots, coroots)


def subsystem_datum(datum, root_subset):
    """Datum on the root subsystem given by a closed symmetric set of roots,
    presented by its indecomposable positive elements."""
    pos = [r for r in root_subset]
    vecs = {r.vec for r in pos}
    simple = []
    for r in pos:
        decomposable = any(
            vsub(r.vec, s.vec) in vecs for s in pos if s.vec != r.vec
        )
        if not decomposable:
            simple.append(r)
    simple.sort(key=lambda r: (r.height, r.coords))
    return datum_from_root_list(
        datum, [r.vec for r in simple], [r.coroot_vec for r in simple]
    )


# -- normalizer / centralizer of a subspace of t* ---------------------------

def centralizer_datum(datum, basis):
    """The Levi whose roots pair to zero with every vector of span(basis)."""
    return subsystem_datum(datum, [
        r for r in positive_roots(datum)
        if all(vdot(b, r.coroot_vec) == 0 for b in basis)
    ])


def _generic_point(datum, basis):
    """The first point sum_i t^i basis_i, t = 1, 2, ..., on no root
    hyperplane that misses part of span(basis); each such hyperplane holds
    fewer than len(basis) of these points."""
    rows = [tuple(vdot(b, r.coroot_vec) for b in basis) for r in positive_roots(datum)]
    rows = [row for row in rows if any(row)]
    for t in count(1):
        c = [t ** i for i in range(len(basis))]
        if all(vdot(c, row) for row in rows):
            return lincomb(c, basis, datum.ambient_dim)


@dataclass(frozen=True)
class SubspaceGroupData:
    a_star_basis: tuple
    normalizer_order: int
    centralizer_order: int
    gamma_order: int
    reflections: tuple             # Gamma's reflections on a*-coordinates, sorted

    @property
    def reflection_indices(self):
        """Indices into `reflections`; perfbench/tracing.py counts them."""
        return range(len(self.reflections))


def _reflect(vs, reflection):
    """The images of the vectors vs under s_beta, given as the supports of
    beta and beta^vee, or None when s_beta fixes all of them."""
    root, coroot = reflection
    ls = [sum(v[a] * x for a, x in coroot) for v in vs]
    if not any(ls):
        return None
    return tuple(_minus(v, l, root) if l else v for v, l in zip(vs, ls))


def _orbit(start, reflections, key):
    """The orbit of the tuple of vectors start under the group the
    reflections generate, start first, one tuple of images per point;
    key(images) tells the points apart."""
    seen, orbit = {key(start)}, [start]
    for vs in orbit:  # the walk grows as points are found
        for r in reflections:
            u = _reflect(vs, r)
            if u is not None and (ku := key(u)) not in seen:
                seen.add(ku)
                orbit.append(u)
    return orbit


@lru_cache(maxsize=None)
def _centralizer(datum, basis):
    """The centralizer Levi of the span of the echelon basis `basis`, formed
    once per (datum, basis) and shared by Gamma and the Levi's conjugacy
    check: a cold `analyze` forms it once rather than twice."""
    return centralizer_datum(datum, basis)


@lru_cache(maxsize=None)
def _subspace_normalizer(datum, basis):
    k = len(basis)
    levi = _centralizer(datum, basis)
    simple = [(_support(r), _support(c)) for r, c in zip(datum.simple_roots, datum.simple_coroots)]
    size = len(_orbit(basis, simple, _echelon_key))
    order, c_order = datum.weyl_order(), levi.weyl_order()
    if order % size:
        raise InternalConsistencyError(f"a* has {size} W-conjugates, not dividing |W| = {order}")
    n_order = order // size
    if n_order % c_order:
        raise InternalConsistencyError(f"|W(L)| = {c_order} does not divide |N| = {n_order}")
    lines = {}
    for r in positive_roots(datum):
        restricted = tuple(vdot(b, r.coroot_vec) for b in basis)
        if any(restricted):
            lines.setdefault(echelon_basis([restricted])[0], []).append(r)
    solve = span_solver(basis)
    reflections = []
    for roots in lines.values():
        # the line's roots' reflections move the basis as W(L_H) does
        gens = [(_support(r.vec), _support(r.coroot_vec)) for r in roots]
        coeffs = [[solve(v) for v in vs] for vs in _orbit(basis, gens, tuple)[1:]]
        # column j of an element's matrix holds the coordinates of the image of b_j
        found = [tuple(zip(*c)) for c in coeffs if None not in c]
        if len(found) > 1 or any(sum(g[a][a] for a in range(k)) != k - 2 for g in found):
            raise InternalConsistencyError(
                f"Gamma's elements {found} fixing one mirror are not one reflection"
            )
        reflections += found
    return SubspaceGroupData(
        a_star_basis=basis,
        normalizer_order=n_order,
        centralizer_order=c_order,
        gamma_order=n_order // c_order,
        reflections=tuple(sorted(reflections)),
    )


def subspace_normalizer(datum, a_star_basis, cap=DEFAULT_WEYL_CAP):
    """Gamma = N(a*)/C(a*) acting on a*: its order, |N|, |C| = |W(L)| and its
    reflections, never its elements.

    |N| = |W| / |W a*| by orbit-stabilizer, the orbit of the subspace a*
    walked by simple reflections and keyed by echelon basis; then |Gamma| =
    |N| / |W(L)|, as C is W(L) (Steinberg, Trans. AMS 112, 1964) and n -> n x
    for x generic in a* has the cosets of C as fibres (Howlett, J. LMS 21,
    1980).  A reflection of Gamma with mirror H lifts to an element fixing H
    pointwise, so to W(L_H), L_H the Levi of the roots vanishing on H
    (Steinberg); H is the kernel on a* of the restricted coroot
    (<b_j, beta^vee>)_j of a root off L, one mirror per line of them.  Per
    mirror, the orbit of the a*-basis under W(L_H) has stabilizer W(L), so
    its points in a* are the image of N_{W(L_H)}(a*) in Gamma: the identity
    and at most one reflection, of trace k - 2.  W(L) fixes the basis and
    permutes the roots of the mirror's line (their restricted coroots are
    W(L)-invariant), so the reflections of those roots walk the same orbit.
    The cap is checked on every call; Gamma is formed once per (datum, echelon basis
    of a*)."""
    check_weyl_cap(datum, cap)
    return _subspace_normalizer(datum, _echelon_key(tuple(map(tuple, a_star_basis))))


@lru_cache(maxsize=None)
def _echelon_key(rows):
    """The echelon basis of a tuple of rows: the per-(datum, a*) caches' key."""
    return tuple(echelon_basis(list(rows)))
