"""Exact linear algebra over the rationals: dense vectors and small dense
matrices, and the sparse matrices of the matrix models.

Vectors are tuples, dense matrices are tuples of row tuples.  Entries are
ints or Fractions; every routine keeps arithmetic exact.  Dense sizes here
are tiny (a few dozen at most), so the quadratic/cubic loops below are
deliberate.  A model matrix is held by its nonzero entries only, as sparse
rows (see the section below): a root vector of a 56-dim module has at most
a few dozen nonzero entries of 3136, so its products, brackets, Kronecker
products and block sums (`sparse_mul`, `sparse_comm`, `sparse_kron`,
`sparse_blockdiag`) form only products of nonzero entries, and `dense` is a
dense view of one.

Most data are integers, so `canon`, `vdot`, `mat_vec` and `lincomb`
compute in plain ints: a sum of products has type int exactly when
every product did, and only a sum that came out a Fraction goes through
`canon`.

Row reduction is fraction-free (Bareiss, Math. Comp. 22, 1968): `_echelon`
clears each row of denominators and eliminates on primitive int rows, so its
loop makes no Fraction.  `rank` reads its pivots; `rref`, `nullspace` and
`span_solver` divide by a pivot only at the end, and an entry becomes a
Fraction only when it is not integral; `echelon_basis` reads the primitive
rows themselves.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def canon(x):
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def cvec(xs):
    """xs as a tuple of canonical entries; a tuple whose entries are all of
    type int (not bool) is returned as it is."""
    t = tuple(xs)
    for x in t:
        if type(x) is not int:
            return tuple(map(canon, t))
    return t


def vsub(a, b):
    return tuple(canon(x - y) for x, y in zip(a, b))


def vscale(c, a):
    c = canon(c)
    return tuple(canon(c * x) if x else 0 for x in a)


def vdot(a, b):
    if len(a) != len(b):
        raise ValueError(f"length mismatch {len(a)} vs {len(b)}")
    s = sum(map(mul, a, b))
    return s if type(s) is int else canon(s)


def is_zero_vec(a):
    return all(x == 0 for x in a)


def int_scaled(v):
    """(q, den): the int vector q = den v, den the lcm of v's denominators."""
    den = lcm(*(x.denominator for x in v if type(x) is not int))
    return [int(x * den) for x in v], den


def unscaled(q, den):
    """The canonical vector q / den of an int (or rational) vector q."""
    return tuple(_over(x, den) if type(x) is int else canon(x / den) for x in q)


def diagonal(entries):
    n = len(entries)
    return tuple(
        tuple(x if i == j else 0 for j in range(n)) for i, x in enumerate(entries)
    )


def identity(n):
    return diagonal((1,) * n)


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_vec(a, v):
    if a and len(a[0]) != len(v):
        raise ValueError(f"length mismatch {len(a[0])} vs {len(v)}")
    out = []
    for row in a:
        s = sum(map(mul, row, v))
        out.append(s if type(s) is int else canon(s))
    return tuple(out)


def lincomb(coeffs, vecs, n):
    """Exact sum of c_i * v_i over vectors of length n; in plain ints when
    every coefficient and entry is an int."""
    out = [0] * n
    for c, v in zip(coeffs, vecs):
        if type(c) is not int:
            c = Fraction(c)
        if c:
            for k, x in enumerate(v):
                if x:
                    out[k] += c * x
    return cvec(out)


def mat_sub(a, b):
    return tuple(vsub(x, y) for x, y in zip(a, b))


# -- sparse matrices ---------------------------------------------------------
#
# An exact model matrix is held by its nonzero entries as sparse rows: one
# row per matrix row, each the tuple of its (column, entry) pairs with
# nonzero canonical entries in increasing column order.  Model matrices are
# square, so a matrix's size is its number of rows.


def _sparse_row(acc):
    """The sparse row of a dict {column: value}."""
    return tuple((j, canon(x)) for j, x in sorted(acc.items()) if x)


def dense(m, ncols):
    """The dense matrix, ncols wide, of a matrix given by sparse rows."""
    out = []
    for row in m:
        r = [0] * ncols
        for j, x in row:
            r[j] = x
        out.append(tuple(r))
    return tuple(out)


def sparse_diagonal(entries):
    return tuple(((i, canon(x)),) if x else () for i, x in enumerate(entries))


def sparse_transpose(m):
    out = [[] for _ in m]
    for i, row in enumerate(m):
        for j, x in row:
            out[j].append((i, x))
    return tuple(map(tuple, out))


def sparse_scale(c, m):
    c = canon(c)
    if not c:
        return tuple(() for _ in m)
    return tuple(tuple((j, canon(c * x)) for j, x in row) for row in m)


def sparse_mul(a, b):
    """A B, over nonzero entries only."""
    out = []
    for arow in a:
        acc = {}
        for j, x in arow:
            for k, y in b[j]:
                acc[k] = acc.get(k, 0) + x * y
        out.append(_sparse_row(acc) if acc else ())
    return tuple(out)


def sparse_comm(a, b):
    """A B - B A, over nonzero entries only."""
    out = []
    for arow, brow in zip(a, b):
        acc = {}
        for j, x in arow:
            for k, y in b[j]:
                acc[k] = acc.get(k, 0) + x * y
        for j, x in brow:
            for k, y in a[j]:
                acc[k] = acc.get(k, 0) - x * y
        out.append(_sparse_row(acc) if acc else ())
    return tuple(out)


def sparse_kron(a, b):
    """The Kronecker product A (x) B: row (i, k) holds A_ij B_kl at column
    (j, l), indices in row-major order."""
    nb = len(b)
    return tuple(
        tuple((j * nb + l, canon(x * y)) for j, x in arow for l, y in brow)
        for arow in a
        for brow in b
    )


def sparse_blockdiag(blocks):
    """The block sum of square matrices."""
    out = []
    off = 0
    for b in blocks:
        out.extend(tuple((off + j, canon(x)) for j, x in row) for row in b)
        off += len(b)
    return tuple(out)


def _int_rows(rows):
    """Each row as a primitive int list: cleared of denominators by the lcm
    of its entries' denominators, then divided by the gcd of its entries."""
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            row = list(row)
        else:
            den = 1
            for x in row:
                d = x.denominator
                den = den * d // gcd(den, d)
            row = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*row)
        out.append([x // g for x in row] if g > 1 else row)
    return out


def _echelon(rows):
    """Fraction-free Gauss-Jordan elimination.  Returns (m, pivots): int rows
    m whose first len(pivots) rows, each divided by its entry in its pivot
    column, are the reduced row echelon form of rows; the other rows are
    zero.  Column c is cleared from row i with pivot p and entry a by
    row_i <- (p/g) row_i - (a/g) pivot_row, g = gcd(p, a), and the new row is
    divided by the gcd of its entries, so every row stays primitive."""
    m = _int_rows(rows)
    pivots = []
    if not m:
        return m, pivots
    nrows = len(m)
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            a = m[i][c]
            if a and i != r:
                g = gcd(p, a)
                pg, ag = p // g, a // g
                row = [pg * x - ag * y for x, y in zip(m[i], prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _over(x, d):
    """x / d for ints, as an int when d divides x."""
    return x // d if x % d == 0 else Fraction(x, d)


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot column indices)."""
    m, pivots = _echelon(rows)
    out = []
    for i, row in enumerate(m):
        p = row[pivots[i]] if i < len(pivots) else 1
        out.append(tuple(row) if p == 1 else tuple(_over(x, p) for x in row))
    return out, pivots


def rank(rows):
    return len(_echelon(rows)[1])


def nullspace(rows, ncols):
    """Basis of {x : A x = 0} for A given row-wise with ncols columns."""
    m, pivots = _echelon(rows)
    pivset = set(pivots)
    basis = []
    for fcol in range(ncols):
        if fcol in pivset:
            continue
        x = [0] * ncols
        x[fcol] = 1
        for row, pcol in zip(m, pivots):
            x[pcol] = _over(-row[fcol], row[pcol])
        basis.append(tuple(x))
    return basis


def span_solver(basis_rows):
    """The one exact coordinate solver: returns a function of v giving
    coefficients c with sum c_i basis_i = v (zero on the non-pivot basis
    rows), or None when v lies off the span.  A x = b is b over the columns
    of A: span_solver(transpose(A))(b).

    Elimination on [M | I], with M the basis rows as columns, gives int rows
    [R | T] whose pivot rows divided by their pivots d_i are rref([M | I]);
    for v in the span, [R | T v] so divided is rref([M | v]), so the
    coefficients are (T v)_i / d_i on the pivot rows, and v is in the span
    exactly when the other rows of T v vanish.  The basis is row-reduced
    once, for any number of v."""
    if not basis_rows:
        return lambda v: () if is_zero_vec(v) else None
    k = len(basis_rows)
    cols = transpose(basis_rows)
    m, pivots = _echelon([row + e for row, e in zip(cols, identity(len(cols)))])
    pivots = [p for p in pivots if p < k]
    dens = [row[p] for row, p in zip(m, pivots)]
    t = tuple(tuple(row[k:]) for row in m)

    def solve(v):
        y = mat_vec(t, v)
        if not is_zero_vec(y[len(pivots):]):
            return None
        x = [0] * k
        for p, yi, d in zip(pivots, y, dens):
            x[p] = _over(yi, d) if type(yi) is int else canon(yi / d)
        return tuple(x)

    return solve


def echelon_basis(rows):
    """Canonical basis of the row span: rref rows, scaled primitive-integer
    with positive leading (pivot) entry."""
    m, pivots = _echelon(rows)
    return [
        tuple(row) if row[p] > 0 else tuple(-x for x in row)
        for row, p in zip(m, pivots)
    ]


def same_span(rows_a, rows_b):
    return echelon_basis(rows_a) == echelon_basis(rows_b)
