
import contextlib
import dataclasses
import io
import json
import random
from fractions import Fraction
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import pytest

from symprep import cli, reduction, rootdata
from symprep.errors import InternalConsistencyError, InvalidCartanType, WeylCapExceeded
from symprep.cli import parse_spec
from symprep.linalg import (
    echelon_basis,
    identity,
    mat_vec,
    vdot,
    vscale,
)
from symprep.reduction import centralizer_levi, run_reduction
from symprep.reps import validate_symplectic_spec
from symprep.rootdata import (
    build_root_datum,
    cartan_matrix,
    centralizer_datum,
    check_weyl_cap,
    dominant_representative,
    dual_weight,
    levi_subdatum,
    positive_roots,
    rho_vee,
    subspace_normalizer,
    weyl_degrees,
    weyl_walk,
)

from corpus import ANALYZE_LADDER, GENERIC_MODELS, catalog
from oracles import (
    EXCEPTIONAL_DEGREES,
    dominant_representative_oracle,
    fixed_codim,
    gamma_by_elements_oracle,
    mat_mul,
    positive_roots_oracle,
    rho_oracle,
    span_coords_oracle,
    subspace_normalizer_oracle,
    weyl_matrices_bruteforce,
    weyl_orbit_oracle,
)

CLASSICAL_POSITIVE_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6,
    ("B", 2): 4, ("B", 3): 9,
    ("C", 2): 4, ("C", 3): 9,
    ("D", 4): 12,
    ("G", 2): 6, ("F", 4): 24,
}


def test_sl2_basic():
    d = build_root_datum([("A", 1)])
    roots = positive_roots(d)
    assert len(roots) == 1
    assert roots[0].vec == (2,)
    assert roots[0].coroot_vec == (1,)


def test_c2_roots_and_weyl():
    d = build_root_datum([("C", 2)])
    assert len(positive_roots(d)) == 4
    w = list(weyl_walk(d, rho_oracle(d)))
    assert len(w) == 8
    assert w[0] == rho_oracle(d)
    a1 = build_root_datum([("A", 1)])
    assert len(list(weyl_walk(a1, rho_oracle(a1)))) == 2
    a2 = build_root_datum([("A", 2)])
    assert len(list(weyl_walk(a2, rho_oracle(a2)))) == 6


def test_product_with_center():
    d = build_root_datum([("A", 2), ("A", 1)], central_rank=1)
    assert d.ambient_dim == 4
    assert len(positive_roots(d)) == 4
    # central coordinates pair to zero with every coroot
    for r in positive_roots(d):
        assert r.coroot_vec[3] == 0


@pytest.mark.parametrize("letter,rank", sorted(CLASSICAL_POSITIVE_COUNTS))
def test_positive_root_counts(letter, rank):
    d = build_root_datum([(letter, rank)])
    assert len(positive_roots(d)) == CLASSICAL_POSITIVE_COUNTS[(letter, rank)]


@pytest.mark.parametrize("factors,order", [
    ([("A", 2)], 6), ([("C", 2)], 8), ([("A", 1), ("A", 1)], 4),
    ([("C", 3)], 48), ([("A", 3)], 24), ([("G", 2)], 12),
    ([("B", 3)], 48), ([("D", 4)], 192), ([("F", 4)], 1152),
])
def test_weyl_enumeration_matches_closure(factors, order):
    """The orbit of a regular point enumerates W: its points are exactly
    the images of rho under the matrices of the closure, one per element."""
    d = build_root_datum(factors)
    rho = rho_oracle(d)
    orbit = list(weyl_walk(d, rho))
    mats = weyl_matrices_bruteforce(d)
    assert len(orbit) == len(set(orbit)) == len(mats) == order == d.weyl_order()
    assert set(orbit) == {mat_vec(m, rho) for m in mats}


def test_weyl_cap_error_names_cap():
    d = build_root_datum([("E", 8)])
    with pytest.raises(WeylCapExceeded, match="group too large"):
        subspace_normalizer(d, [], cap=10 ** 6)


@pytest.mark.parametrize("factors", [
    [("A", 9)], [("E", 8), ("A", 1)], [("b", 2), ("D", 3), ("G", 2)], [("C", 1), ("D", 2)],
])
def test_declared_weyl_cap_raises_what_the_built_datum_does(factors):
    """The order formulas on the declared pairs give the built datum's |W|
    and the same message; a pair that names no Cartan type counts 1."""
    order = build_root_datum(factors).weyl_order()
    for cap in (order - 1, order):
        try:
            check_weyl_cap(build_root_datum(factors), cap)
            want = None
        except WeylCapExceeded as exc:
            want = str(exc)
        for extra in ([], [("H", 10 ** 12), ("E", 5)]):
            try:
                rootdata.check_declared_weyl_cap(factors + extra, cap)
                got = None
            except WeylCapExceeded as exc:
                got = str(exc)
            assert got == want


def test_invalid_types_rejected():
    with pytest.raises(InvalidCartanType):
        build_root_datum([("H", 2)])
    with pytest.raises(InvalidCartanType):
        build_root_datum([("E", 5)])
    with pytest.raises(InvalidCartanType):
        build_root_datum([("A", 0)])


@pytest.mark.parametrize("letter, rank", [
    ("", 2), ("AB", 2), ("BC", 2), ("EF", 7), ("bc", 2), ("H", 2),
])
def test_cartan_letter_must_be_exactly_one_letter(letter, rank):
    with pytest.raises(InvalidCartanType, match="invalid Cartan"):
        build_root_datum([(letter, rank)])
    with pytest.raises(InvalidCartanType, match="invalid Cartan"):
        cartan_matrix(letter, rank)


def test_lowercase_letters_name_the_same_type():
    assert build_root_datum([("c", 2)]).factors == (("C", 2),)


def test_low_rank_normalizations():
    with pytest.raises(InvalidCartanType):
        build_root_datum([("D", 1)])
    assert build_root_datum([("D", 2)]).factors == (("A", 1), ("A", 1))
    assert build_root_datum([("D", 3)]).factors == (("A", 3),)
    assert build_root_datum([("C", 1)]).factors == (("A", 1),)
    assert build_root_datum([("B", 1)]).factors == (("A", 1),)


def test_equal_declarations_give_one_datum_object():
    """build_root_datum returns one object per group, through the aliases
    that normalize_factor merges, so a per-datum cache finds it by
    identity; a Levi on every simple root is its parent."""
    a1 = build_root_datum([("A", 1)])
    assert build_root_datum([("a", 1)]) is a1
    assert build_root_datum([("C", 1)]) is a1
    assert build_root_datum([("B", 1)]) is a1
    assert build_root_datum([("D", 3)]) is build_root_datum([("A", 3)])
    assert build_root_datum([("D", 2)]) is build_root_datum([("A", 1), ("A", 1)])
    a2 = build_root_datum([("A", 2)])
    assert build_root_datum([("A", 2)], central_rank=1) is not a2
    assert levi_subdatum(a2, [0, 1]) is a2


def test_a_rebuilt_levi_is_the_interned_object():
    c3t1 = build_root_datum([("C", 3)], central_rank=1)
    levi = levi_subdatum(c3t1, [1, 2])
    rootdata._levi_subdatum.cache_clear()
    assert levi_subdatum(c3t1, [1, 2]) is levi


def test_datum_equality_and_hash_are_by_fields(monkeypatch):
    """A copy, or a datum built after the intern table was emptied, is
    another object: it equals the first, has its hash (that of the field
    tuple's repr) and finds the first's entries in a per-datum cache."""
    d = build_root_datum([("G", 2)], central_rank=1)
    fields = tuple(getattr(d, f.name) for f in dataclasses.fields(d))
    copy = dataclasses.replace(d)
    monkeypatch.setattr(rootdata, "_DATUM_CACHE", {})
    fresh = build_root_datum([("G", 2)], central_rank=1)
    for other in (copy, fresh):
        assert other is not d
        assert other == d
        assert hash(other) == hash(d) == hash(repr(fields))
        assert positive_roots(other) is positive_roots(d)
    assert build_root_datum([("G", 2)], central_rank=1) is fresh


def test_data_apart_only_by_minus_one_and_minus_two_hash_apart():
    """The A1 Levis on the second node of A2 and of C2 differ only in their
    simple root, (-1, 2) against (-2, 2).  CPython hashes -1 and -2 alike,
    so their field tuples share a hash; the data must not."""
    levis = [levi_subdatum(build_root_datum([(letter, 2)]), [1]) for letter in "AC"]
    fields = [tuple(getattr(d, f.name) for f in dataclasses.fields(d)) for d in levis]
    assert [f[3] for f in fields] == [((-1, 2),), ((-2, 2),)]
    assert fields[0][:3] + fields[0][4:] == fields[1][:3] + fields[1][4:]
    assert hash(fields[0]) == hash(fields[1])
    assert hash(levis[0]) != hash(levis[1])


def test_warm_batch_passes_compare_no_unequal_data(monkeypatch):
    """Three warm `analyze` passes over the seed-7 batch of the benchmark
    find each per-datum cache entry by hash and identity: no lookup meets
    two unequal data, so `RootDatum.__eq__` never answers False."""
    texts = [json.dumps(doc) for _, doc in _workloads().batch_specs(7)]

    def analyze_all():
        with contextlib.redirect_stdout(io.StringIO()):
            return {cli.main(["analyze", text]) for text in texts}

    assert analyze_all() == {cli.EXIT_OK}
    unequal = []
    eq = rootdata.RootDatum.__eq__

    def counted(self, other):
        result = eq(self, other)
        if result is False:
            unequal.append((self, other))
        return result

    monkeypatch.setattr(rootdata.RootDatum, "__eq__", counted)
    for _ in range(3):
        assert analyze_all() == {cli.EXIT_OK}
    assert unequal == []


def test_lattice_ops_examples():
    a1 = build_root_datum([("A", 1)])
    assert a1.pairing((1,), 0) == 1
    assert a1.is_dominant((1,))
    a2 = build_root_datum([("A", 2)])
    assert dominant_representative(a2, (-1, 0)) == (0, 1)
    c2 = build_root_datum([("C", 2)])
    assert c2.pairing((0, 1), 0) == 0
    assert c2.pairing((0, 1), 1) == 1


def test_w0_properties():
    for factors in [[("A", 2)], [("C", 2)], [("A", 1), ("A", 1)], [("A", 3)]]:
        d = build_root_datum(factors)
        pos = {r.vec for r in positive_roots(d)}
        neg = {tuple(-x for x in v) for v in pos}
        (w0,) = [
            w for w in weyl_matrices_bruteforce(d)
            if {mat_vec(w, v) for v in pos} == neg
        ]
        assert mat_mul(w0, w0) == identity(d.ambient_dim)


def test_dominant_representative_orbit_invariance():
    d = build_root_datum([("C", 2)])
    lam = (1, 2)
    target = dominant_representative(d, lam)
    for w in weyl_matrices_bruteforce(d):
        assert dominant_representative(d, mat_vec(w, lam)) == target


def test_heights_are_positive_on_positive_roots():
    for factors in [[("A", 2)], [("C", 3)], [("G", 2)]]:
        d = build_root_datum(factors)
        for r in positive_roots(d):
            assert vdot(r.vec, rho_vee(d)) > 0


def test_levi_subdatum_examples():
    a2 = build_root_datum([("A", 2)])
    levi = levi_subdatum(a2, [1])
    assert levi.factors == (("A", 1),)
    assert len(positive_roots(levi)) == 1
    c2 = build_root_datum([("C", 2)])
    assert levi_subdatum(c2, []).factors == ()
    lv = levi_subdatum(c2, [0])
    assert lv.factors == (("A", 1),)
    assert len(positive_roots(lv)) == 1
    # shared ambient lattice
    assert lv.ambient_dim == c2.ambient_dim


def test_levi_component_classification_prefers_c():
    c3 = build_root_datum([("C", 3)])
    lv = levi_subdatum(c3, [1, 2])
    assert lv.factors == (("C", 2),)


def test_subspace_normalizer_examples():
    a1 = build_root_datum([("A", 1)])
    sg = subspace_normalizer(a1, [(1,)])
    assert sg.gamma_order == 2
    assert sg.reflections == (((-1,),),)
    a2 = build_root_datum([("A", 2)])
    sg = subspace_normalizer(a2, [(1, 0)])
    assert sg.gamma_order == 1
    sg = subspace_normalizer(a2, [])
    assert sg.gamma_order == 1


def test_coset_identity_and_oracle_agreement():
    cases = [
        (build_root_datum([("A", 1)]), [(1,)]),
        (build_root_datum([("A", 2)]), [(1, 0)]),
        (build_root_datum([("C", 2)]), [(2, 0)]),
        (build_root_datum([("A", 2)]), [(1, 0), (0, 1)]),
        (build_root_datum([("A", 1), ("A", 1)]), [(1, 1)]),
    ]
    for datum, basis in cases:
        sg = subspace_normalizer(datum, basis)
        assert sg.normalizer_order == sg.gamma_order * sg.centralizer_order
        oracle = subspace_normalizer_oracle(datum, basis)
        assert oracle == (
            sg.normalizer_order,
            sg.centralizer_order,
            sg.gamma_order,
            len(sg.reflections),
        )


def test_dual_weight_examples():
    a2 = build_root_datum([("A", 2)])
    assert dual_weight(a2, (1, 0)) == (0, 1)
    c2 = build_root_datum([("C", 2)])
    assert dual_weight(c2, (1, 0)) == (1, 0)


@pytest.mark.parametrize("factors, central", [
    ([("A", 1)], 1), ([("A", 3)], 0), ([("C", 3)], 0), ([("B", 3)], 0),
    ([("D", 4)], 0), ([("G", 2)], 0), ([("F", 4)], 0), ([("C", 2), ("A", 1)], 0),
])
def test_weyl_matrices_hold_only_ints(factors, central):
    d = build_root_datum(factors, central)
    for point in weyl_walk(d, rho_oracle(d)):
        assert all(type(x) is int for x in point)


def _normalizer_by_in_span(datum, basis):
    """(|N|, |C|, |Gamma|, Gamma's reflections sorted) with one
    span_coords_oracle solve per Weyl matrix and basis vector; a reflection
    fixes a hyperplane."""
    basis = echelon_basis(list(basis))
    k = len(basis)
    n_count, c_count, gamma = 0, 0, set()
    for w in weyl_matrices_bruteforce(datum):
        images = [mat_vec(w, b) for b in basis]
        coeffs = [span_coords_oracle(basis, img) for img in images]
        if any(c is None for c in coeffs):
            continue
        n_count += 1
        c_count += images == basis
        gamma.add(tuple(tuple(c[i] for c in coeffs) for i in range(k)))
    return n_count, c_count, len(gamma), tuple(sorted(g for g in gamma if fixed_codim(g) == 1))


@pytest.mark.parametrize("name", sorted(catalog()))
def test_subspace_normalizer_matches_in_span_reference(name):
    datum = catalog()[name][0].datum
    n = datum.ambient_dim
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    subspaces = [run_reduction(catalog()[name][0])[1].a_star_basis, unit,
                 [tuple(1 for _ in range(n))]] + [[e] for e in unit]
    for basis in subspaces:
        sg = subspace_normalizer(datum, basis)
        got = (sg.normalizer_order, sg.centralizer_order, sg.gamma_order, sg.reflections)
        assert repr(got) == repr(_normalizer_by_in_span(datum, basis))


@pytest.mark.parametrize("name", sorted(ANALYZE_LADDER))
def test_subspace_normalizer_matches_oracle_on_the_ladder(name):
    factors, summands = ANALYZE_LADDER[name]
    datum = build_root_datum(factors)
    a_star = run_reduction(validate_symplectic_spec(datum, summands))[1].a_star_basis
    n = datum.ambient_dim
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for basis in [a_star, unit] + [[e] for e in unit]:
        sg = subspace_normalizer(datum, basis)
        assert subspace_normalizer_oracle(datum, basis) == (
            sg.normalizer_order,
            sg.centralizer_order,
            sg.gamma_order,
            len(sg.reflections),
        )


A2_PLANE = [(1, 0), (0, 1)]


def test_non_generic_start_point_trips_the_orbit_size_check(monkeypatch, empty_gamma_caches):
    a2 = build_root_datum([("A", 2)])
    torus = levi_subdatum(a2, [])
    assert centralizer_levi(a2, A2_PLANE, expect=torus) == torus
    # (1, 0) lies on the alpha_2 hyperplane: its orbit has 3 points, not 6
    monkeypatch.setattr(reduction, "_generic_point", lambda datum, basis: basis[0])
    empty_gamma_caches()
    with pytest.raises(InternalConsistencyError, match="generic orbit has 3 points"):
        centralizer_levi(a2, A2_PLANE, expect=torus)


A2_LINE = [(1, 0)]


def _patch_walks(monkeypatch, subspaces=None, tuples=None):
    """Replace what `_orbit` returns for the walk of a* (keyed by span) or
    for a mirror's walk of the a*-basis (keyed by the tuple itself)."""
    full = rootdata._orbit

    def walk(start, reflections, key):
        orbit = full(start, reflections, key)
        change = subspaces if key is rootdata._echelon_key else tuples
        return change(start, orbit) if change else orbit

    monkeypatch.setattr(rootdata, "_orbit", walk)


def test_an_a_star_orbit_not_dividing_w_trips_its_check(monkeypatch, empty_gamma_caches):
    """The line of omega_1 in A2 has 3 W-conjugates; a fourth does not divide 6."""
    a2 = build_root_datum([("A", 2)])
    assert subspace_normalizer(a2, A2_LINE).normalizer_order == 2
    _patch_walks(monkeypatch, subspaces=lambda start, orbit: orbit + [start])
    empty_gamma_caches()
    with pytest.raises(InternalConsistencyError, match="4 W-conjugates"):
        subspace_normalizer(a2, A2_LINE)


def test_a_centralizer_not_dividing_the_normalizer_trips_its_check(monkeypatch, empty_gamma_caches):
    """Twice the 3 conjugates of the line of omega_1 give |N| = 1, which
    |W(L)| = |W(A1)| = 2 does not divide."""
    a2 = build_root_datum([("A", 2)])
    _patch_walks(monkeypatch, subspaces=lambda start, orbit: orbit * 2)
    empty_gamma_caches()
    with pytest.raises(InternalConsistencyError, match=r"\|W\(L\)\| = 2 does not divide \|N\| = 1"):
        subspace_normalizer(a2, A2_LINE)


def test_a_mirror_with_two_elements_trips_its_check(monkeypatch, empty_gamma_caches):
    """On a* = t* of A2 each mirror's walk has 2 points: the basis and its
    reflection.  A second copy of the reflection is a second element of
    Gamma fixing the mirror."""
    a2 = build_root_datum([("A", 2)])
    assert len(subspace_normalizer(a2, A2_PLANE).reflections) == 3
    _patch_walks(monkeypatch, tuples=lambda start, orbit: orbit + orbit[-1:])
    empty_gamma_caches()
    with pytest.raises(InternalConsistencyError, match="not one reflection"):
        subspace_normalizer(a2, A2_PLANE)


def test_a_mirror_element_of_wrong_trace_trips_its_check(monkeypatch, empty_gamma_caches):
    """-1 on a* = t* of A2 has trace -2, not k - 2 = 0: no reflection."""
    a2 = build_root_datum([("A", 2)])
    _patch_walks(monkeypatch, tuples=lambda start, orbit: [
        start, tuple(vscale(-1, b) for b in start)])
    empty_gamma_caches()
    with pytest.raises(InternalConsistencyError, match="not one reflection"):
        subspace_normalizer(a2, A2_PLANE)


ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    loader = spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def _gamma_reference_specs():
    """name -> spec text: the catalog, both ladders of the benchmark, the
    generic models, per batch-pool group its spec with the most summands,
    the adjoint pairs of A5, B4, D4 and F4 (Gamma = W) and G2 on 7 x 2."""
    w = _workloads()
    docs = {name: doc for name, (doc, _) in w.CATALOG.items()}
    docs.update(w.ANALYZE_LADDER)
    docs.update(w.VERIFY_LADDER)
    for name, (factors, summands, _) in GENERIC_MODELS.items():
        docs[name] = w.spec_doc(factors, 0, summands)
    for group, pool in w.batch_pool().items():
        docs[f"pool_{group}"] = max(pool, key=lambda d: (len(d["rep"]), w.canonical(d)))
    for name, factor, hw in [("A5_adj_x2", ("A", 5), [1, 0, 0, 0, 1]),
                             ("B4_adj_x2", ("B", 4), [0, 1, 0, 0]),
                             ("D4_adj_x2", ("D", 4), [0, 1, 0, 0]),
                             ("F4_adj_x2", ("F", 4), [1, 0, 0, 0]),
                             ("G2_7_x2", ("G", 2), [1, 0])]:
        docs[name] = w.spec_doc([factor], 0, [(hw, 2)])
    return {name: json.dumps(doc) for name, doc in docs.items()}


GAMMA_REFERENCE_SPECS = _gamma_reference_specs()


@pytest.mark.parametrize("name", sorted(GAMMA_REFERENCE_SPECS))
def test_gamma_matches_the_element_reference(name, empty_gamma_caches):
    """|N|, |C|, |Gamma| and the sorted reflections from the a*-orbit and
    the mirrors equal those read off every element of Gamma."""
    spec = parse_spec(GAMMA_REFERENCE_SPECS[name])[0]
    basis = run_reduction(spec)[1].a_star_basis
    sg = subspace_normalizer(spec.datum, basis)
    got = (sg.normalizer_order, sg.centralizer_order, sg.gamma_order, sg.reflections)
    assert repr(got) == repr(gamma_by_elements_oracle(spec.datum, basis))


def _classical_degrees(letter, n):
    if letter == "A":
        return tuple(range(2, n + 2))
    if letter in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    return tuple(sorted(tuple(range(2, 2 * n - 1, 2)) + (n,)))


@pytest.mark.parametrize("letter, n", [
    ("A", 1), ("A", 4), ("A", 7), ("B", 2), ("B", 5), ("C", 3), ("C", 6),
    ("D", 4), ("D", 5), ("D", 8), ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8),
])
def test_weyl_degrees_from_root_heights(letter, n):
    """The degrees read off the root heights are the tabulated ones; their
    product is |W| and sum(d - 1) the number of positive roots."""
    datum = build_root_datum([(letter, n)])
    degrees = weyl_degrees(datum)
    want = EXCEPTIONAL_DEGREES.get((letter, n)) or _classical_degrees(letter, n)
    assert degrees == want
    prod = 1
    for d in degrees:
        prod *= d
    assert prod == datum.weyl_order()
    assert sum(d - 1 for d in degrees) == len(positive_roots(datum))


# -- the label walk against the ambient-coordinate walk ---------------------

SMALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4),
]


def _random_dominant(rng, datum):
    return tuple(rng.randint(0, 3) for _ in range(datum.ambient_dim))


def _assert_walks_match(datum, point):
    """weyl_walk gives the oracle's points in the oracle's order, and the
    dominant representative of every orbit point and of its negative is
    the oracle's."""
    orbit = list(weyl_walk(datum, point))
    assert orbit == [y for y, _ in weyl_orbit_oracle(datum, point)]
    for y in orbit[:200]:
        assert dominant_representative(datum, y) == dominant_representative_oracle(datum, y)
        neg = tuple(-x for x in y)
        assert dominant_representative(datum, neg) == dominant_representative_oracle(datum, neg)


def _assert_roots_match(datum):
    assert [
        (r.coords, r.coroot_coords, r.half_length) for r in positive_roots(datum)
    ] == positive_roots_oracle(datum)


@pytest.mark.parametrize("letter, n", SMALL_TYPES)
def test_label_walk_matches_reflect_walk(letter, n):
    datum = build_root_datum([(letter, n)])
    rng = random.Random(n * 131 + ord(letter))
    _assert_roots_match(datum)
    _assert_walks_match(datum, rho_oracle(datum))
    _assert_walks_match(datum, _random_dominant(rng, datum))


def test_label_walk_matches_reflect_walk_on_e6_rho():
    datum = build_root_datum([("E", 6)])
    _assert_roots_match(datum)
    rho = rho_oracle(datum)
    assert list(weyl_walk(datum, rho)) == [y for y, _ in weyl_orbit_oracle(datum, rho)]


@pytest.mark.parametrize("factors, central, basis", [
    ([("A", 3)], 0, [(1, 0, 1)]),
    ([("B", 2)], 0, [(-1, 2)]),
    ([("B", 3)], 0, [(0, 0, 1)]),
    ([("B", 3)], 0, [(-2, -1, 2)]),
    ([("C", 3)], 1, [(1, 0, 0, 2)]),
    ([("D", 4)], 0, [(1, 0, 0, 0), (0, 0, 1, 1)]),
    ([("F", 4)], 0, [(0, 0, 0, 1)]),
    ([("G", 2), ("A", 1)], 0, [(1, 0, Fraction(1, 2))]),
])
def test_label_walk_matches_reflect_walk_on_levi_data(factors, central, basis):
    """Levi data from centralizer_datum: their simple roots and coroots are
    arbitrary roots of the parent, and half the sum of their positive roots
    may be fractional (on the B2 line, whose Levi coroot pairs as 2 with a
    coordinate, and on the second B3 line and the G2 x A1 line)."""
    levi = centralizer_datum(build_root_datum(factors, central), basis)
    rng = random.Random(len(levi.simple_roots))
    _assert_roots_match(levi)
    _assert_walks_match(levi, rho_oracle(levi))
    _assert_walks_match(levi, tuple(rng.randint(-2, 2) for _ in range(levi.ambient_dim)))


@pytest.mark.parametrize("factors, basis", [
    ([("A", 2)], [(Fraction(1, 2), Fraction(1, 3))]),
    ([("B", 3)], [(Fraction(1, 3), 0, 0), (0, Fraction(-2, 5), 1)]),
    ([("C", 2), ("A", 1)], [(Fraction(1, 2), 1, Fraction(3, 7))]),
    ([("D", 4)], [(Fraction(1, 2), 0, 0, 0), (0, 0, Fraction(1, 3), Fraction(1, 3))]),
])
def test_label_walk_matches_reflect_walk_on_fractional_generic_points(factors, basis):
    """Generic points of a* with fractional coordinates: labels and points
    are Fractions, and only the points the walk creates are made canonical."""
    datum = build_root_datum(factors)
    point = rootdata._generic_point(datum, basis)
    assert any(type(x) is Fraction for x in point)
    _assert_walks_match(datum, point)
    for y in weyl_walk(datum, point):
        assert all(type(x) is int or x.denominator != 1 for x in y)


def test_label_walk_on_a_torus():
    torus = build_root_datum([], 2)
    assert positive_roots(torus) == ()
    _assert_walks_match(torus, (1, -3))
    assert list(weyl_walk(torus, (Fraction(1, 2), 4))) == [(Fraction(1, 2), 4)]
