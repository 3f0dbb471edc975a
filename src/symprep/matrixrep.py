"""Explicit Chevalley-basis matrix models of symplectic modules.

Every irreducible of a simple factor is built from the factor's Cartan
matrix alone (`_irreducible_block`).  A model is assembled from torus
characters, external tensors of factor blocks across product factors, direct
sums, and the canonical pairing form on U + U*.  Construction is exact over
the rationals; float mirrors are attached for the numeric verification layer.

Root vectors beyond the simple ones are brackets of the simple ones, each
divided by a scalar that Chevalley's structure constants give from the root
system alone (`root_recipes`), so the same abstract Lie algebra element acts
the same way in every block.

Every exact matrix (factor blocks, replayed root vectors, the assembled Lie
basis and J) is held by its nonzero entries as sparse rows (see `linalg`),
and no dense copy of a model is kept: products, brackets, Kronecker
products, block sums and the structural checks run over entries (only J's
rank is taken on a dense view), and the float stacks `rep.lie` and `rep.j`
are filled from them.  A root vector is labelled by its root's ambient
vector, ("e", root) or ("f", root).  A model is weight graded (the Lie basis
element of a label maps V_mu into V_image_weight(mu, label), and
`_check_rep` holds every matrix to that), so `weight_kernel`,
`MatrixRep.act_exact` and `MatrixRep.omega_row` read only the rows of the
weight they need.
"""

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import add, sub

from .errors import BudgetExceeded, InternalConsistencyError, decimal
from .linalg import (
    canon,
    cvec,
    dense,
    identity,
    lincomb,
    nullspace,
    rank,
    rref,
    sparse_blockdiag,
    sparse_comm,
    sparse_diagonal,
    sparse_kron,
    sparse_mul,
    sparse_scale,
    sparse_transpose,
    transpose,
    vdot,
)
from .reps import freudenthal_multiplicities, weyl_dim
from .rootdata import build_root_datum, cartan_matrix, positive_roots

DEFAULT_DIM_CAP = 64
CHARGE_CAP = isqrt(int(sys.float_info.max))  # largest with a finite float square


@dataclass(frozen=True)
class FactorBlock:
    """Matrices of one simple factor's module in its local numbering, as
    sparse rows (see `linalg`)."""

    dim: int
    e: tuple       # per local simple root
    f: tuple
    h: tuple
    weights: tuple  # local fundamental-weight coordinates per basis vector
    form: tuple = None  # invariant bilinear form of a self-dual block


def _hyperbolic_form(n):
    """The form [[0, I], [-I, 0]] of size 2n."""
    return tuple(((a + n, 1),) for a in range(n)) + tuple(((a, -1),) for a in range(n))


def _matrix(dim, columns):
    """The dim x dim matrix, as sparse rows, with the given columns
    {column: {row: entry}}."""
    rows = [{} for _ in range(dim)]
    for b, col in columns.items():
        for a, x in col.items():
            rows[a][b] = x
    return tuple(tuple((b, x) for b, x in sorted(r.items()) if x) for r in rows)


@lru_cache(maxsize=None)
def _irreducible_block(letter, rank, weight):
    """The irreducible module of highest weight `weight` of the simple factor
    letter+rank from its Cartan matrix alone: the Verma module's irreducible
    quotient (Humphreys, Introduction to Lie Algebras and Representation
    Theory, sections 20-21; de Graaf, J. Pure Appl. Algebra 164, 2001).

    Weight spaces are built going down from the top.  A vector x below it is
    held by its e-image (e_j x)_j, injective on an irreducible module: a
    vector every e_j kills would span a proper submodule.  V_mu is spanned by
    the f_i w, w in V_(mu + alpha_i), whose e-images
    e_j f_i w = f_i e_j w + delta_ij <mu + alpha_i, alpha_i^vee> w come from
    the spaces above; one elimination picks the first independent ones as the
    basis, and gives the coordinates of every f_i w, the columns of f_i.  The
    dimension must be weyl_dim, each weight space's the Freudenthal
    multiplicity.  A self-dual module gets its invariant form, pairing V_mu
    with V_(-mu) only, from B(f_i w, y) = -B(w, f_i y), with row 0 a single 1.
    """
    alpha = cartan_matrix(letter, rank)  # simple roots over the fundamental weights
    space = {weight: range(1)}  # the basis indices of each weight, in build order
    weights, origin = [weight], [None]  # per basis vector x = f_i w: (i, w)
    e = [{} for _ in range(rank)]  # matrices as columns {x: {y: entry}}
    f = [{} for _ in range(rank)]
    level = [weight]
    while level:
        below = dict.fromkeys(tuple(map(sub, nu, a)) for nu in level for a in alpha)
        level = []
        for mu in below:
            cands, rows = [], []  # f_i w and its e-image {y: entry} over all e_j
            for i, a in enumerate(alpha):
                for w in space.get(tuple(map(add, mu, a)), ()):
                    row = {w: weights[w][i]}
                    for j in range(rank):
                        for c, x in e[j].get(w, {}).items():
                            for y, v in f[i].get(c, {}).items():
                                row[y] = row.get(y, 0) + x * v
                    cands.append((i, w))
                    rows.append(row)
            cols = sorted({y for r in rows for y, x in r.items() if x})
            if not cols:  # mu is not a weight
                continue
            red, piv = rref(transpose([[r.get(y, 0) for y in cols] for r in rows]))
            base = len(weights)
            space[mu] = range(base, base + len(piv))
            level.append(mu)
            for x, p in enumerate(piv, base):
                weights.append(mu)
                origin.append(cands[p])
                for y, v in rows[p].items():
                    if v:
                        j = alpha.index(tuple(map(sub, weights[y], mu)))
                        e[j].setdefault(x, {})[y] = canon(v)
            for (i, w), coords in zip(cands, transpose(red[: len(piv)])):
                f[i][w] = {base + r: x for r, x in enumerate(coords) if x}
    datum = _single_factor_datum(letter, rank)
    dim = len(weights)
    if dim != weyl_dim(datum, weight):
        raise InternalConsistencyError(f"{letter}{rank} module {weight}: dim {dim}")
    if {mu: len(r) for mu, r in space.items()} != freudenthal_multiplicities(
        datum, weight
    ):
        raise InternalConsistencyError(
            f"{letter}{rank} module {weight}: weights disagree with Freudenthal"
        )
    form = None
    neg = lambda mu: tuple(-x for x in mu)
    if weights[-1] == neg(weight):
        pairing = {0: {dim - 1: 1}}  # rows B(x, .), over V_(-mu) for x in V_mu
        for x in range(1, dim):
            i, w = origin[x]  # B(f_i w, y) = -B(w, f_i y)
            pairing[x] = {
                y: canon(-sum(v * pairing[w].get(z, 0) for z, v in f[i][y].items()))
                for y in space[neg(weights[x])]
            }
        form = sparse_transpose(_matrix(dim, pairing))
    return FactorBlock(
        dim,
        tuple(_matrix(dim, m) for m in e),
        tuple(_matrix(dim, m) for m in f),
        tuple(sparse_diagonal(tuple(w[i] for w in weights)) for i in range(rank)),
        tuple(weights),
        form,
    )


@lru_cache(maxsize=None)
def reference_weight(letter, rank):
    """(dimension, weight) of the factor's fundamental module of least
    dimension, the first one on ties: the module `verify`'s reference frame
    of the factor lives in (`numeric._FactorFrame`)."""
    datum = _single_factor_datum(letter, rank)
    return min(((weyl_dim(datum, w), w) for w in identity(rank)), key=lambda p: p[0])


def _reference_block(letter, rank):
    return _irreducible_block(letter, rank, reference_weight(letter, rank)[1])


@lru_cache(maxsize=None)
def _single_factor_datum(letter, rank):
    return build_root_datum([(letter, rank)])


def simple_coords(rank, i):
    """Simple-root coordinates of the i-th simple root."""
    return tuple(1 if j == i else 0 for j in range(rank))


def _less(coords, i, k=1):
    """The simple-root coordinates of the root minus k alpha_i."""
    return tuple(v - k * (j == i) for j, v in enumerate(coords))


@lru_cache(maxsize=None)
def root_recipes(letter, rank):
    """Bracket recipes gamma -> (i, beta, c) for the non-simple positive roots
    of the factor, in positive_roots order: e_gamma = [e_i, e_beta] / c and
    f_gamma = [f_i, f_beta], for the first simple root alpha_i such that
    beta = gamma - alpha_i is a root.  Chevalley's structure constants give
    c = -(p + 1)^2, with p the largest integer such that beta - p alpha_i is a
    root (Chevalley, Tohoku Math. J. 7, 1955; Humphreys, Introduction to Lie
    Algebras and Representation Theory, section 25.2); `_check_rep` holds
    every model to [e_gamma, f_gamma] = gamma^vee."""
    roots = [r.coords for r in positive_roots(_single_factor_datum(letter, rank))]
    known = set(roots)
    recipes = {}
    for gamma in roots:
        if sum(gamma) == 1:
            continue
        i = next(i for i in range(rank) if _less(gamma, i) in known)
        beta = _less(gamma, i)
        p = 0
        while _less(beta, i, p + 1) in known:
            p += 1
        recipes[gamma] = (i, beta, -(p + 1) ** 2)
    return recipes


def factor_lie(datum, fi, block):
    """(label, matrix) pairs of factor fi acting on one of its blocks: ("h", i)
    per simple root, then ("e", root) and ("f", root) per positive root of the
    factor in positive_roots order, each root named by its ambient vector.
    The factor's roots are those whose coordinates on its simple roots sum to
    the height; root vectors beyond the simple ones are replayed from the
    block's simple ones by the bracket recipes of `root_recipes`, indexed by
    those coordinates."""
    letter, frank = datum.factors[fi]
    idxs = datum.standard_order[fi]
    x = {simple_coords(frank, i): m for i, m in enumerate(block.e)}
    y = {simple_coords(frank, i): m for i, m in enumerate(block.f)}
    for coords, (i, lower, c) in root_recipes(letter, frank).items():
        simple = simple_coords(frank, i)
        x[coords] = sparse_scale(Fraction(1, c), sparse_comm(x[simple], x[lower]))
        y[coords] = sparse_comm(y[simple], y[lower])
    out = [(("h", gi), block.h[loc]) for loc, gi in enumerate(idxs)]
    for r in positive_roots(datum):
        local = tuple(r.coords[gi] for gi in idxs)
        if sum(local) == r.height:
            out += [(("e", r.vec), x[local]), (("f", r.vec), y[local])]
    return out


def float_stack(mats, n):
    """The (len(mats), n, n) float array of square matrices given by sparse
    rows."""
    import numpy as np
    index, values = [], []
    for k, m in enumerate(mats):
        for i, row in enumerate(m):
            for j, x in row:
                index.append((k, i, j))
                values.append(float(x))
    out = np.zeros((len(mats), n, n))
    if index:
        out[tuple(np.array(index).T)] = values
    return out


def image_weight(mu, label):
    """The weight of the space that the Lie basis element of the label maps
    V_mu into: mu + root for ("e", root), mu - root for ("f", root), and mu
    for ("h", i) and ("z", l)."""
    side, root = label
    if side == "e":
        return tuple(map(add, mu, root))
    if side == "f":
        return tuple(map(sub, mu, root))
    return mu


@dataclass(frozen=True)
class MatrixRep:
    """A concrete symplectic module: exact matrices, held as sparse rows (see
    `linalg`), plus float mirrors.  The model is weight graded: basis vector
    a has weight weight_labels[a], and the Lie basis element of a label maps
    the weight space V_mu into V_image_weight(mu, label), so an exact reader
    takes only the rows of the weight it needs."""

    spec: object
    datum: object
    dim: int
    weight_labels: tuple
    j_exact: tuple
    lie_labels: tuple    # ('h', i) | ('z', l) | ('e', root) | ('f', root)
    lie_exact: tuple

    def __post_init__(self):
        object.__setattr__(self, "j", float_stack([self.j_exact], self.dim)[0])
        # (L, n, n); L is 0 for the trivial group
        object.__setattr__(self, "lie", float_stack(self.lie_exact, self.dim))
        object.__setattr__(
            self,
            "lie_index",
            {lab: i for i, lab in enumerate(self.lie_labels)},
        )
        weight_index = {}
        for a, w in enumerate(self.weight_labels):
            weight_index.setdefault(w, []).append(a)
        object.__setattr__(self, "weight_index", weight_index)

    def weight_of(self, vec):
        """The weight of a nonzero weight-homogeneous vector."""
        w = None
        for a, x in enumerate(vec):
            if x:
                if w is None:
                    w = self.weight_labels[a]
                elif w != self.weight_labels[a]:
                    raise InternalConsistencyError(
                        "column is not weight homogeneous"
                    )
        if w is None:
            raise InternalConsistencyError("zero column")
        return w

    def omega_row(self, u):
        """The functional omega(u, .) as a row vector, from the rows of J
        where u is nonzero.  Exact."""
        out = [0] * self.dim
        for a, ua in enumerate(u):
            if ua:
                for b, x in self.j_exact[a]:
                    out[b] += ua * x
        return tuple(map(canon, out))

    def act_exact(self, label, v):
        """X v for the Lie basis element X of the label and a nonzero weight
        homogeneous v: X v lies in one weight space, and only the rows of X
        of that weight are read.  Exact."""
        m = self.lie_exact[self.lie_index[label]]
        out = [0] * self.dim
        for i in self.weight_index.get(image_weight(self.weight_of(v), label), ()):
            out[i] = canon(sum(x * v[j] for j, x in m[i]))
        return tuple(out)

    def lie_matrix(self, label):
        return self.lie[self.lie_index[label]]

    def coweight_action(self, functional):
        """Diagonal action of a torus element given as a coweight functional."""
        return tuple(vdot(w, functional) for w in self.weight_labels)


def _summand_matrices(datum, weight):
    """Exact matrices, keyed by Lie label, of the irreducible with the given
    highest weight, via external tensor over the factors, with its weight
    labels and the factor blocks in tensor order."""
    blocks = []
    for fi, (letter, frank) in enumerate(datum.factors):
        idxs = datum.standard_order[fi]
        local = tuple(vdot(weight, datum.simple_coroots[i]) for i in idxs)
        blocks.append((fi, idxs, _irreducible_block(letter, frank, local)))
    dims = [b.dim for _, _, b in blocks]
    total = 1
    for d in dims:
        total *= d

    def promote(fpos, mat):
        # I_{d0} x ... x mat x ... x I_{dn}
        out = None
        for k, d in enumerate(dims):
            piece = mat if k == fpos else sparse_diagonal((1,) * d)
            out = piece if out is None else sparse_kron(out, piece)
        return out

    gens = {}
    for fi, _, block in blocks:
        for label, mat in factor_lie(datum, fi, block):
            gens[label] = promote(fi, mat)
    # central charges: identity times the central coordinate of the weight
    base = sum(n for _, n in datum.factors)
    for l in range(datum.ambient_dim - base):
        charge = weight[base + l]
        gens[("z", l)] = sparse_diagonal((charge,) * total)
    # weight labels: local weights reassembled into ambient coordinates
    labels = []
    for combo in itertools.product(*(range(d) for d in dims)):
        amb = [0] * datum.ambient_dim
        for (fi, idxs, block), pos in zip(blocks, combo):
            lw = block.weights[pos]
            for loc, gi in enumerate(idxs):
                amb[gi] = lw[loc]
        for l in range(datum.ambient_dim - base):
            amb[base + l] = weight[base + l]
        labels.append(cvec(amb))
    return gens, tuple(labels), tuple(b for _, _, b in blocks)


def _dual_pair(gens, labels):
    """The block U + U* of a summand with its canonical pairing form."""
    n = len(labels)
    merged = {
        k: sparse_blockdiag([m, sparse_scale(-1, sparse_transpose(m))])
        for k, m in gens.items()
    }
    mlabels = labels + tuple(cvec(tuple(-x for x in w)) for w in labels)
    return merged, mlabels, _hyperbolic_form(n)


def _invariant_symplectic_form(blocks):
    """The invariant form of a lone symplectic summand: the Kronecker product,
    in tensor order, of its factor blocks' invariant forms.  Row 0 of each
    factor form is a single +1, so the first nonzero entry of J is one."""
    j = (((0, 1),),)
    for b in blocks:
        if b.form is None:
            raise InternalConsistencyError(
                "symplectic summand has a factor block without an invariant form"
            )
        j = sparse_kron(j, b.form)
    return j


def build_rep(spec):
    """Assemble the matrix model of a validated spec, block by block."""
    datum = spec.datum
    if spec.dim > DEFAULT_DIM_CAP:
        raise BudgetExceeded(
            f"matrix model: total dimension {decimal(spec.dim)} exceeds cap {DEFAULT_DIM_CAP}"
        )
    # `verify` takes each factor's invariant coordinates in its reference
    # module, so a model is built only for factors whose module fits the cap
    for letter, frank in datum.factors:
        size = reference_weight(letter, frank)[0]
        if size > DEFAULT_DIM_CAP:
            raise BudgetExceeded(
                f"matrix model: reference module of factor {letter}{frank} has "
                f"dimension {size}, exceeds cap {DEFAULT_DIM_CAP}"
            )
    # the float mirrors hold every entry as a float, and the central charges
    # are the one kind of entry with no bound; the float checks multiply two
    # charges (the Poisson bracket of two gradients), so a charge's square
    # must be a finite float too
    top = max((abs(c) for w, _ in spec.summands for c in w[datum.rank:]), default=0)
    if top > CHARGE_CAP:
        raise BudgetExceeded(
            f"matrix model: a central charge of {len(decimal(int(top)))} digits "
            f"has no finite float square"
        )
    parts = []   # (gens, labels, jblock)
    for item in spec.pairing_plan:
        gens, labels, factor_blocks = _summand_matrices(datum, item.weight)
        # Even symplectic multiplicities are presented as U + U* so that
        # rational isotropic highest weight vectors exist; a lone copy
        # carries its own invariant form.
        symplectic = item.kind == "symplectic"
        pairs = item.count // 2 if symplectic else item.count
        if pairs:
            parts.extend([_dual_pair(gens, labels)] * pairs)
        if symplectic and item.count % 2:
            parts.append((gens, labels, _invariant_symplectic_form(factor_blocks)))
    lie_labels = (
        [("h", i) for i in range(datum.rank)]
        + [("z", l) for l in range(datum.central_rank)]
        + [(side, r.vec) for r in positive_roots(datum) for side in "ef"]
    )
    lie_mats = [sparse_blockdiag([p[0][lab] for p in parts]) for lab in lie_labels]
    labels_full = tuple(l for p in parts for l in p[1])
    rep = MatrixRep(
        spec=spec,
        datum=datum,
        dim=len(labels_full),
        weight_labels=labels_full,
        j_exact=sparse_blockdiag([p[2] for p in parts]),
        lie_labels=tuple(lie_labels),
        lie_exact=tuple(lie_mats),
    )
    _check_rep(rep)
    return rep


def _check_rep(rep):
    """Exact structural invariants of a freshly built model, over the
    nonzero entries of its matrices."""
    datum = rep.datum
    j = rep.j_exact
    if sparse_transpose(j) != sparse_scale(-1, j):
        raise InternalConsistencyError("J is not skew")
    if rank(dense(j, rep.dim)) != rep.dim:
        raise InternalConsistencyError("J is degenerate")
    labels = rep.weight_labels
    for lab, mat in zip(rep.lie_labels, rep.lie_exact):
        # infinitesimal invariance X^T J = -J X
        if sparse_mul(sparse_transpose(mat), j) != sparse_scale(-1, sparse_mul(j, mat)):
            raise InternalConsistencyError(f"form not invariant under {lab}")
        if lab[0] == "h" and mat != sparse_diagonal(
            rep.coweight_action(datum.simple_coroots[lab[1]])
        ):
            raise InternalConsistencyError(
                f"Cartan matrix {lab} disagrees with weight labels"
            )
        # the weight grading the exact readers rely on
        for i, row in enumerate(mat):
            for k, _ in row:
                if labels[i] != image_weight(labels[k], lab):
                    raise InternalConsistencyError(f"{lab} breaks the weight grading")
    # [e_alpha, f_alpha] = alpha^vee on each weight space
    for r in positive_roots(datum):
        e = rep.lie_exact[rep.lie_index["e", r.vec]]
        f = rep.lie_exact[rep.lie_index["f", r.vec]]
        if sparse_comm(e, f) != sparse_diagonal(rep.coweight_action(r.coroot_vec)):
            raise InternalConsistencyError(
                f"[e,f] != coroot action for root {r.coords}"
            )
    # weight multiset equals the combinatorial one
    got = {}
    for w in rep.weight_labels:
        got[w] = got.get(w, 0) + 1
    if rep.spec.weight_multiset() != got:
        raise InternalConsistencyError(
            "matrix-model weight multiset disagrees with the combinatorial one"
        )


def _cut(rep, group, values):
    """The combinations of the columns of group that every functional kills,
    values holding one row of functional values on the columns per
    functional: a raw nullspace basis, or group itself when all vanish."""
    if all(not any(r) for r in values):
        return list(group)
    return [lincomb(c, group, rep.dim) for c in nullspace(values, len(group))]


def unit_columns(rep):
    """The standard basis vectors of the model graded by weight, as
    {weight: columns}."""
    return {
        w: [tuple(int(a == i) for a in range(rep.dim)) for i in idx]
        for w, idx in rep.weight_index.items()
    }


def cut_columns(rep, columns, rows):
    """Intersect the span of weight-graded columns {weight: columns} with the
    joint kernel of the functionals rows, weight space by weight space: a raw
    nullspace basis per weight, and no entry for a weight whose part is
    zero."""
    out = {}
    for w, group in columns.items():
        part = _cut(rep, group, [[vdot(row, col) for col in group] for row in rows])
        if part:
            out[w] = part
    return out


def weight_kernel(rep, weight, side, group, simple_roots):
    """The vectors inside the span of group, columns of the given weight,
    that every `side` matrix ("e" raising, "f" lowering) of the given simple
    roots kills, as _cut gives them with the nonzero rows of those matrices
    as the functionals.  A matrix maps the weight's columns into the weight
    space of its image weight, so only its rows there are read; every other
    row vanishes on the columns."""
    values = []
    for root in simple_roots:
        label = (side, root)
        m = rep.lie_exact[rep.lie_index[label]]
        for i in rep.weight_index.get(image_weight(weight, label), ()):
            if m[i]:
                values.append([sum(x * col[j] for j, x in m[i]) for col in group])
    return _cut(rep, group, values)


def hyperbolic_partner(rep, v0, candidates):
    """The combination of the candidates pairing to one with v0 under omega,
    weighted by each candidate's pairing; None when all of them pair to zero."""
    row = rep.omega_row(v0)  # omega(c, v0) = -omega(v0, c)
    pairings = [-Fraction(vdot(row, c)) for c in candidates]
    norm = sum(p ** 2 for p in pairings)
    if norm == 0:
        return None
    v0m = lincomb([p / norm for p in pairings], candidates, rep.dim)
    if vdot(row, v0m) != -1:
        raise InternalConsistencyError("hyperbolic pair normalization failed")
    return v0m


def hyperbolic_pair(rep, chi, columns, simple_roots):
    """(v0, v0m) of a reduction step at chi, from weight-graded columns
    {weight: columns}: v0 is the first vector of the highest-weight kernel of
    weight chi, v0m its hyperbolic partner in the lowest-weight kernel of
    weight -chi, both taken as in weight_kernel.  Either is None when missing
    (v0m also when v0 is)."""
    hw = weight_kernel(rep, chi, "e", columns.get(chi, []), simple_roots)
    if not hw:
        return None, None
    neg = tuple(-x for x in chi)
    lw = weight_kernel(rep, neg, "f", columns.get(neg, []), simple_roots)
    return hw[0], hyperbolic_partner(rep, hw[0], lw)


def find_hw_vectors(rep):
    """Check that the highest-weight space of each weight has the dimension
    of the weight's multiplicity among the spec summands."""
    roots = rep.datum.simple_roots
    got = {}
    for w, group in sorted(unit_columns(rep).items()):
        k = len(weight_kernel(rep, w, "e", group, roots))
        if k:
            got[w] = k
    want = {cvec(w): m for w, m in rep.spec.summands}
    if want != got:
        raise InternalConsistencyError(
            f"highest-weight structure {got} disagrees with the spec {want}"
        )
