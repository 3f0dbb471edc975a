"""The int fast paths of the exact primitives against a pure-Fraction
reference: same value and same type (int exactly when the result is
integral) on int-only and on mixed int/Fraction inputs."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symprep.linalg import canon, lincomb, mat_mul, mat_vec, vdot

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


def test_length_mismatch_still_raises():
    with pytest.raises(ValueError):
        vdot((1, 2), (1,))
    with pytest.raises(ValueError):
        mat_vec(((1, 2),), (1,))
    with pytest.raises(ValueError):
        mat_mul(((1, 2),), ((1,),))
