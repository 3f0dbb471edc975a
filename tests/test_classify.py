import json
from importlib.util import module_from_spec, spec_from_file_location
from itertools import product
from pathlib import Path

import pytest

from symprep.classify import (
    WeightStatus,
    is_singular_weight,
    terminal_decomposition,
    weight_status,
)
from symprep.cli import parse_spec
from symprep.reps import validate_symplectic_spec
from symprep.rootdata import build_root_datum

from corpus import A1, A2, C2, T1, GENERIC_MODELS, catalog
from oracles import character_pairs_oracle, lemma2chi_conditions, terminal_module


def test_singular_weight_examples():
    assert is_singular_weight(A1, (1,)) == (True, 0)
    assert is_singular_weight(C2, (1, 0)) == (True, 0)
    assert is_singular_weight(C2, (0, 1)) == (False, None)
    assert is_singular_weight(A2, (1, 0)) == (False, None)


def test_singular_weight_must_kill_the_center():
    gl2 = build_root_datum([("A", 1)], central_rank=1)
    assert is_singular_weight(gl2, (1, 0)) == (True, 0)
    assert is_singular_weight(gl2, (1, 1)) == (False, None)


def test_singular_weight_on_b2_short_node():
    b2 = build_root_datum([("B", 2)])
    assert is_singular_weight(b2, (0, 1)) == (True, 0)
    assert is_singular_weight(b2, (1, 0)) == (False, None)


def test_weight_status_examples():
    sp4 = validate_symplectic_spec(C2, [((1, 0), 1)])
    assert weight_status(sp4, (1, 0)) is WeightStatus.SINGULAR
    two = validate_symplectic_spec(A1, [((1,), 2)])
    assert weight_status(two, (1,)) is WeightStatus.NON_TERMINAL
    tor = validate_symplectic_spec(T1, [((1,), 1), ((-1,), 1)])
    assert weight_status(tor, (1,)) is WeightStatus.CHARACTER


def test_terminal_decomposition_examples():
    v = terminal_decomposition(validate_symplectic_spec(C2, [((1, 0), 1)]))
    assert v.terminal and v.character_pairs == () and v.sp_factor_sizes == (2,)
    v = terminal_decomposition(validate_symplectic_spec(A1, [((1,), 2)]))
    assert not v.terminal and v.witness == (1,)
    v = terminal_decomposition(
        validate_symplectic_spec(T1, [((1,), 1), ((-1,), 1)])
    )
    assert v.terminal and len(v.character_pairs) == 1 and not v.sp_factor_sizes


def test_terminal_block_count_matches_dimension():
    for name, (spec, _) in catalog().items():
        v = terminal_decomposition(spec)
        if v.terminal:
            pairs = sum(m for _, m in v.character_pairs)
            assert 2 * sum(v.sp_factor_sizes) + 2 * pairs == spec.dim


def test_terminal_decomposition_order_independent():
    s1 = validate_symplectic_spec(C2, [((1, 0), 1), ((0, 0), 2)])
    s2 = validate_symplectic_spec(C2, [((0, 0), 2), ((1, 0), 1)])
    assert terminal_decomposition(s1) == terminal_decomposition(s2)


def test_lemma2chi_examples():
    r = lemma2chi_conditions(A1, (1,))
    assert r.double_is_root and r.singular and not r.chi_is_root
    r = lemma2chi_conditions(A2, (1, 0))
    assert not r.any_condition
    r = lemma2chi_conditions(C2, (1, 0))
    assert r.double_is_a_plus_b


SCAN_DATA = [
    [("A", 1)], [("A", 2)], [("C", 2)], [("B", 2)], [("G", 2)],
    [("A", 1), ("A", 1)], [("A", 3)], [("C", 3)], [("B", 3)],
    [("A", 2), ("A", 1)], [("C", 2), ("A", 1)],
]


@pytest.mark.parametrize("factors", SCAN_DATA)
def test_lemma2chi_conditions_imply_singularity_exhaustively(factors):
    datum = build_root_datum(factors)
    box = range(0, 3)
    for coords in product(box, repeat=datum.rank):
        chi = tuple(coords) + (0,) * (datum.ambient_dim - datum.rank)
        # raises on any inconsistency between the arithmetic conditions and
        # the singularity classification (under the symplectic hypothesis)
        rep = lemma2chi_conditions(datum, chi)
        if rep.singular:
            assert not rep.chi_is_root
            assert rep.symplectic_type
        if rep.symplectic_type and rep.any_condition:
            assert rep.singular


def test_singular_weights_are_exactly_the_arithmetic_hits_on_c_types():
    # on a pure C-type factor the defining weight is the unique singular one
    for datum in (C2, build_root_datum([("C", 3)])):
        singulars = []
        for coords in product(range(0, 3), repeat=datum.rank):
            if is_singular_weight(datum, coords)[0]:
                singulars.append(coords)
        assert singulars == [tuple(1 if i == 0 else 0 for i in range(datum.rank))]


def _pairing_specs():
    """The catalog, both ladders of the benchmark, the generic models and
    the 192 specs of the batch pool, as validated specs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    loader = spec_from_file_location("workloads", path)
    w = module_from_spec(loader)
    loader.loader.exec_module(w)
    docs = [doc for doc, _ in w.CATALOG.values()]
    docs += [*w.ANALYZE_LADDER.values(), *w.VERIFY_LADDER.values()]
    docs += [w.spec_doc(f, 0, s) for f, s, _ in GENERIC_MODELS.values()]
    docs += [doc for pool in w.batch_pool().values() for doc in pool]
    return [parse_spec(json.dumps(doc))[0] for doc in docs]


def test_terminal_character_pairs_equal_the_re_pairing():
    """The terminal character pairs, read off the pairing plan, are those
    of pairing each character summand with its negative, on the terminal
    module of every spec of the catalog, the ladders, the generic models
    and the batch pool."""
    specs = _pairing_specs()
    assert len(specs) == 13 + 10 + 9 + 9 + 192
    paired = 0
    for spec in specs:
        terminal = terminal_module(spec)
        verdict = terminal_decomposition(terminal)
        assert verdict.terminal
        assert verdict.character_pairs == character_pairs_oracle(terminal)
        paired += bool(verdict.character_pairs)
    assert paired > len(specs) // 2
