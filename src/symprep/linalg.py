"""Exact dense linear algebra over the rationals.

Vectors are tuples, matrices are tuples of row tuples.  Entries are ints or
Fractions; every routine keeps arithmetic exact.  Sizes here are tiny (a few
dozen at most), so the quadratic/cubic loops below are deliberate.

Most data are integers, so `canon`, `vdot`, `mat_vec`, `mat_mul` and
`lincomb` compute in plain ints: a sum of products has type int exactly when
every product did, and only a sum that came out a Fraction goes through
`canon`.
"""

from fractions import Fraction
from math import gcd
from operator import mul


def canon(x):
    if type(x) is int:
        return x
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


def cvec(xs):
    return tuple(canon(x) for x in xs)


def vsub(a, b):
    return tuple(canon(x - y) for x, y in zip(a, b))


def vscale(c, a):
    return tuple(canon(c * x) for x in a)


def vdot(a, b):
    if len(a) != len(b):
        raise ValueError(f"length mismatch {len(a)} vs {len(b)}")
    s = sum(map(mul, a, b))
    return s if type(s) is int else canon(s)


def is_zero_vec(a):
    return all(x == 0 for x in a)


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


def mat_mul(a, b):
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


def sparse_rows(a):
    """Each row of a as the tuple of its nonzero entries (column, value)."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in a)


def sparse_mul(a_rows, b_rows):
    """The nonzero entries {(i, k): value} of A B, for A and B given by their
    sparse_rows: only products of nonzero entries are formed."""
    out = {}
    for i, row in enumerate(a_rows):
        for j, x in row:
            for k, y in b_rows[j]:
                out[i, k] = out.get((i, k), 0) + x * y
    return {key: v for key, v in out.items() if v}


def mat_sub(a, b):
    return tuple(vsub(x, y) for x, y in zip(a, b))


def mat_scale(c, a):
    return tuple(vscale(c, row) for row in a)


def comm(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def kron(a, b):
    if not a or not b:
        return ()
    bm, bn = len(b), len(b[0])
    out = []
    for arow in a:
        for i in range(bm):
            out.append(tuple(canon(x * b[i][j]) for x in arow for j in range(bn)))
    return tuple(out)


def blockdiag(blocks):
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


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot column indices)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
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


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, ncols=None):
    """Basis of {x : A x = 0} for A given row-wise."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty constraint list")
        ncols = len(rows[0])
    if not rows:
        return [tuple(identity(ncols)[i]) for i in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        x = [Fraction(0)] * ncols
        x[fcol] = Fraction(1)
        for i, pcol in enumerate(pivots):
            x[pcol] = -Fraction(red[i][fcol]) if i < len(red) else Fraction(0)
        basis.append(cvec(x))
    return basis


def span_solver(basis_rows):
    """The one exact coordinate solver: returns a function of v giving
    coefficients c with sum c_i basis_i = v (zero on the non-pivot basis
    rows), or None when v lies off the span.  A x = b is b over the columns
    of A: span_solver(transpose(A))(b).

    rref([M | I]) = [R | T] for M with the basis rows as columns; for v in
    the span, [R | T v] is rref([M | v]), so the pivot rows of T v are the
    coefficients, and v is in the span exactly when the other rows of T v
    vanish.  The basis is row-reduced once, for any number of v."""
    if not basis_rows:
        return lambda v: () if is_zero_vec(v) else None
    k = len(basis_rows)
    cols = transpose(basis_rows)
    red, pivots = rref([row + e for row, e in zip(cols, identity(len(cols)))])
    pivots = [p for p in pivots if p < k]
    t = tuple(tuple(row[k:]) for row in red)

    def solve(v):
        y = mat_vec(t, v)
        if not is_zero_vec(y[len(pivots):]):
            return None
        x = [0] * k
        for i, p in enumerate(pivots):
            x[p] = y[i]
        return tuple(x)

    return solve


def primitive_int_vector(v):
    """Scale a rational vector to coprime integers with positive leading entry."""
    fr = [Fraction(x) for x in v]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def echelon_basis(rows):
    """Canonical basis of the row span: rref rows, scaled primitive-integer."""
    red, pivots = rref(rows)
    return [primitive_int_vector(red[i]) for i in range(len(pivots))]


def fixed_codim(g):
    """rank(g - I): the codimension of the space g fixes; 1 for a reflection."""
    return rank(mat_sub(g, identity(len(g))))


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


def same_span(rows_a, rows_b):
    return echelon_basis(rows_a) == echelon_basis(rows_b)
