"""The int fast paths of the exact primitives, and of the oracles' dense
`mat_mul`, against a pure-Fraction reference: same value and same type (int exactly when the result is
integral) on int-only and on mixed int/Fraction inputs.  The fraction-free
elimination behind `rref`, `rank`, `nullspace` and `echelon_basis` against
Gauss-Jordan over Fractions, and the one exact coordinate solver,
`span_solver`, against an rref of [M | v] per vector.  The sparse matrix
algebra of the models against dense references that form every entry."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from symprep import linalg
from symprep.linalg import (
    canon,
    cvec,
    dense,
    echelon_basis,
    identity,
    lincomb,
    mat_vec,
    nullspace,
    rank,
    rref,
    sparse_blockdiag,
    sparse_comm,
    sparse_kron,
    sparse_mul,
    sparse_scale,
    sparse_transpose,
    span_solver,
    transpose,
    vdot,
    vscale,
)

from oracles import (
    dense_blockdiag,
    dense_comm,
    dense_kron,
    mat_mul,
    nullspace_oracle,
    rref_oracle,
    span_coords_oracle,
    sparse_rows,
)

INTS = st.integers(-10 ** 20, 10 ** 20)
ENTRIES = {
    "int": INTS,
    "mixed": st.one_of(INTS, st.fractions(max_denominator=12), INTS.map(Fraction)),
}
SIZES = st.integers(1, 5)


def ref_canon(x):
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


def ref_dot(a, b):
    return ref_canon(sum(Fraction(x) * Fraction(y) for x, y in zip(a, b)))


def assert_same(got, want):
    """Equal value and equal type, element by element through tuples."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert type(got) is type(want) and got == want


def _matrix(data, entry, rows, cols):
    return tuple(
        tuple(data.draw(st.lists(entry, min_size=cols, max_size=cols)))
        for _ in range(rows)
    )


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@given(data=st.data())
def test_canon_matches_fraction_reference(kind, data):
    x = data.draw(ENTRIES[kind])
    assert_same(canon(x), ref_canon(x))


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@given(data=st.data())
def test_cvec_matches_fraction_reference(kind, data):
    (v,) = _matrix(data, ENTRIES[kind], 1, data.draw(SIZES))
    assert_same(cvec(list(v)), tuple(map(ref_canon, v)))


def test_cvec_contract():
    """A list becomes a tuple, an integral Fraction its int, and a bool an
    int: the int path keeps only entries of type int, not bool.  An all-int
    tuple comes back as it is."""
    assert_same(cvec([1, -2]), (1, -2))
    assert_same(cvec((Fraction(4, 2), Fraction(1, 2))), (2, Fraction(1, 2)))
    assert_same(cvec((True, False, 3)), (1, 0, 3))
    assert_same(cvec(x for x in (0, 5)), (0, 5))
    ints = (3, 0, -7)
    assert cvec(ints) is ints


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@given(data=st.data())
def test_vdot_matches_fraction_reference(kind, data):
    n = data.draw(SIZES)
    (a,), (b,) = (_matrix(data, ENTRIES[kind], 1, n) for _ in range(2))
    assert_same(vdot(a, b), ref_dot(a, b))


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@given(data=st.data())
def test_mat_vec_matches_fraction_reference(kind, data):
    m, n = data.draw(SIZES), data.draw(SIZES)
    a = _matrix(data, ENTRIES[kind], m, n)
    (v,) = _matrix(data, ENTRIES[kind], 1, n)
    assert_same(mat_vec(a, v), tuple(ref_dot(row, v) for row in a))


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@given(data=st.data())
def test_mat_mul_matches_fraction_reference(kind, data):
    m, n, p = data.draw(SIZES), data.draw(SIZES), data.draw(SIZES)
    a = _matrix(data, ENTRIES[kind], m, n)
    b = _matrix(data, ENTRIES[kind], n, p)
    want = tuple(tuple(ref_dot(row, col) for col in zip(*b)) for row in a)
    assert_same(mat_mul(a, b), want)


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@given(data=st.data())
def test_lincomb_matches_fraction_reference(kind, data):
    m, n = data.draw(SIZES), data.draw(SIZES)
    (coeffs,) = _matrix(data, ENTRIES[kind], 1, m)
    vecs = _matrix(data, ENTRIES[kind], m, n)
    want = tuple(ref_dot(coeffs, col) for col in zip(*vecs))
    assert_same(lincomb(coeffs, vecs, n), want)


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@given(data=st.data())
def test_vscale_and_sparse_scale_match_fraction_reference(kind, data):
    m, n = data.draw(SIZES), data.draw(SIZES)
    c = data.draw(st.one_of(ENTRIES[kind], st.sampled_from([0, 1, -1, Fraction(1, 1)])))
    a = _matrix(data, ENTRIES[kind], m, n)
    want = tuple(tuple(ref_canon(Fraction(c) * Fraction(x)) for x in row) for row in a)
    assert_same(vscale(c, a[0]), want[0])
    assert_same(dense(sparse_scale(c, sparse_rows(a)), n), want)


def test_length_mismatch_still_raises():
    with pytest.raises(ValueError):
        vdot((1, 2), (1,))
    with pytest.raises(ValueError):
        mat_vec(((1, 2),), (1,))
    with pytest.raises(ValueError):
        mat_mul(((1, 2),), ((1,),))


SMALL = st.integers(-3, 3)
SMALL_ENTRIES = st.one_of(
    SMALL, SMALL.map(Fraction), st.fractions(-3, 3, max_denominator=4)
)


@st.composite
def span_problems(draw, entry):
    """(basis rows, a vector in their span, an arbitrary vector): up to four
    rows of one length 1..5, each either drawn or a combination of the rows
    before it, so that bases may be empty, dependent or rank deficient."""
    n = draw(SIZES)
    vector = st.lists(entry, min_size=n, max_size=n).map(tuple)
    basis = []
    for _ in range(draw(st.integers(0, 4))):
        if basis and draw(st.booleans()):
            coeffs = draw(st.lists(entry, min_size=len(basis), max_size=len(basis)))
            basis.append(lincomb(coeffs, basis, n))
        else:
            basis.append(draw(vector))
    coeffs = draw(st.lists(entry, min_size=len(basis), max_size=len(basis)))
    return basis, lincomb(coeffs, basis, n), draw(vector)


@given(problem=st.one_of(span_problems(SMALL), span_problems(SMALL_ENTRIES)))
@example(problem=([(2, 0, 1), (0, 2, 1)], (1, 1, 1), (1, 0, 0)))
@example(problem=([(1, 2), (2, 4)], (3, 6), (0, 1)))
@example(problem=([], (0, 0), (1, 0)))
def test_span_solver_matches_rref_reference(problem):
    """Same coefficients as the reference by repr, on the span (where they
    rebuild the vector) and off it (where both give None)."""
    basis, inside, anywhere = problem
    solve = span_solver(basis)
    got = solve(inside)
    assert got is not None
    assert repr(got) == repr(span_coords_oracle(basis, inside))
    assert lincomb(got, basis, len(inside)) == cvec(inside)
    assert repr(solve(anywhere)) == repr(span_coords_oracle(basis, anywhere))


def ref_echelon_basis(rows):
    """The pivot rows of rref_oracle, each scaled to coprime ints with a
    positive leading entry."""
    red, pivots = rref_oracle(rows)
    out = []
    for row in red[: len(pivots)]:
        fr = [Fraction(x) for x in row]
        den = 1
        for x in fr:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in fr]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        out.append(tuple(x // g for x in ints))
    return out


@st.composite
def elimination_inputs(draw, entry):
    """(rows, ncols): up to five rows of one length 1..6, each drawn, zero, a
    combination of the rows before it or a drawn row negated, so that there
    may be no rows, negative pivots, and zero or dependent rows; half the
    time widened to [M | I], the shape span_solver reduces."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["drawn", "zero", "dependent", "negated"]))
        if kind == "zero":
            rows.append((0,) * n)
        elif kind == "dependent" and rows:
            coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
            rows.append(lincomb(coeffs, rows, n))
        else:
            row = tuple(draw(st.lists(entry, min_size=n, max_size=n)))
            rows.append(tuple(-x for x in row) if kind == "negated" else row)
    if draw(st.booleans()):
        rows = [row + e for row, e in zip(rows, identity(len(rows)))]
        n += len(rows)
    return rows, n


@given(problem=st.one_of(*(elimination_inputs(e) for e in ENTRIES.values())))
@example(problem=([], 3))
@example(problem=([(0, 0), (0, 0)], 2))
@example(problem=([(-2, 4), (3, -6)], 2))
@example(problem=([(-3, 1, 0), (0, -5, 2), (-3, -4, 2)], 3))
@example(problem=([(10 ** 20, -7, 1), (-(10 ** 20), 3, 0), (1, 1, 1)], 3))
@example(problem=([(2, 0, 1, 1, 0), (0, 2, 1, 0, 1)], 5))
@example(problem=([(Fraction(1, 3), Fraction(-2, 5)), (Fraction(2, 3), 1)], 2))
def test_elimination_matches_fraction_gauss_jordan(problem):
    """rref, rank, nullspace and echelon_basis equal the Fraction
    Gauss-Jordan reference by repr: same values and same types."""
    rows, n = problem
    want = rref_oracle(rows)
    assert repr(rref(rows)) == repr(want)
    assert rank(rows) == len(want[1])
    assert repr(nullspace(rows, n)) == repr(nullspace_oracle(rows, n))
    assert repr(echelon_basis(rows)) == repr(ref_echelon_basis(rows))


@given(problem=elimination_inputs(INTS))
def test_int_elimination_makes_only_the_nonintegral_output_fractions(problem):
    """On int rows the elimination constructs no Fraction: rref makes one
    per nonintegral output entry and nullspace one per nonintegral basis
    entry, and rank none."""
    rows, n = problem
    made = []

    def counting_fraction(*args):
        made.append(args)
        return Fraction(*args)

    want_red = rref_oracle(rows)[0]
    want_null = nullspace_oracle(rows, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "Fraction", counting_fraction)
        rank(rows)
        assert made == []
        rref(rows)
        assert len(made) == sum(type(x) is Fraction for row in want_red for x in row)
        made.clear()
        nullspace(rows, n)
        assert len(made) == sum(type(x) is Fraction for v in want_null for x in v)


@st.composite
def square_matrix(draw, n):
    """An n x n matrix of small ints, non-canonical Fractions and fractions,
    with some rows and some columns zero."""
    zero_rows = draw(st.sets(st.integers(0, max(n - 1, 0)))) if n else set()
    zero_cols = draw(st.sets(st.integers(0, max(n - 1, 0)))) if n else set()
    return tuple(
        tuple(
            0 if i in zero_rows or j in zero_cols else draw(SMALL_ENTRIES)
            for j in range(n)
        )
        for i in range(n)
    )


@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_sparse_algebra_matches_the_dense_references(data):
    """The sparse commutator, Kronecker product and block sum equal the dense
    references entry for entry and by repr, through the dense view; the
    sparse rows of each hold exactly the nonzero entries of the dense result.
    Transpose and product agree with the dense ones."""
    n = data.draw(st.integers(0, 5), label="n")
    a, b = data.draw(square_matrix(n)), data.draw(square_matrix(n))
    sa, sb = sparse_rows(a), sparse_rows(b)
    cases = [(sparse_comm(sa, sb), dense_comm(a, b), n)]
    p = data.draw(st.integers(0, 3), label="p")
    c = data.draw(square_matrix(p))
    cases.append((sparse_kron(sa, sparse_rows(c)), dense_kron(a, c), n * p))
    blocks = data.draw(st.lists(st.integers(0, 4).flatmap(square_matrix), max_size=3))
    cases.append((
        sparse_blockdiag([sparse_rows(m) for m in blocks]),
        dense_blockdiag(blocks),
        sum(len(m) for m in blocks),
    ))
    for got, want, size in cases:
        assert repr(dense(got, size)) == repr(want)
        assert repr(got) == repr(sparse_rows(want))
    assert sparse_transpose(sa) == sparse_rows(transpose(a))
    assert sparse_mul(sa, sb) == sparse_rows(mat_mul(a, b))
