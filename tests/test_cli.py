import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from symprep import cli, numeric, reduction, sections, verify
from symprep.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_DEFECT,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    parse_spec,
)
from symprep.classify import terminal_decomposition
from symprep.errors import (
    BudgetExceeded,
    InternalConsistencyError,
    SpecFormatError,
    SymprepError,
    ValidationError,
    decimal,
)
from symprep.reduction import analyze

import corpus
from corpus import catalog
from oracles import character_pairs_oracle, terminal_module


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SL3_STD_DUAL = {
    "group": {"simple": [["A", 2]], "central_torus_rank": 0},
    "rep": [{"hw": [1, 0], "mult": 1}, {"hw": [0, 1], "mult": 1}],
}
SL2_TWO = {
    "group": {"simple": [["A", 1]], "central_torus_rank": 0},
    "rep": [{"hw": [1], "mult": 2}],
}
SP4 = {
    "group": {"simple": [["C", 2]], "central_torus_rank": 0},
    "rep": [{"hw": [1, 0], "mult": 1}],
}
CUBIC = {
    "group": {"simple": [["A", 1]], "central_torus_rank": 0},
    "rep": [{"hw": [3], "mult": 1}],
}


def test_parse_minimal_spec():
    spec, options, echo = parse_spec(json.dumps(SL2_TWO))
    assert spec.dim == 4
    assert options["weyl_cap"] >= 10 ** 6
    assert echo["rep"][0]["mult"] == 2


def test_parse_rejects_odd_orthogonal_with_field_address():
    doc = {
        "group": {"simple": [["A", 1]], "central_torus_rank": 0},
        "rep": [{"hw": [2], "mult": 1}],
    }
    with pytest.raises(ValidationError, match=r"OddOrthogonalMultiplicity.*rep\[0\]"):
        parse_spec(json.dumps(doc))


def test_parse_rejects_unknown_keys():
    with pytest.raises(SpecFormatError, match="grp"):
        parse_spec(json.dumps({"grp": {}, "rep": [{"hw": [1]}]}))
    doc = dict(SL2_TWO)
    doc["options"] = {"weyl_cap": 10, "bogus": 1}
    with pytest.raises(SpecFormatError, match="bogus"):
        parse_spec(json.dumps(doc))
    doc = {
        "group": {"simple": [["A", 1]], "central_torus_rank": 0},
        "rep": [{"hw": [1], "mult": 2, "extra": True}],
    }
    with pytest.raises(SpecFormatError, match=r"rep\[0\]"):
        parse_spec(json.dumps(doc))


def test_parse_rejects_wrong_hw_length():
    doc = {
        "group": {"simple": [["A", 1]], "central_torus_rank": 1},
        "rep": [{"hw": [1], "mult": 2}],
    }
    with pytest.raises(SpecFormatError, match="length"):
        parse_spec(json.dumps(doc))


@pytest.mark.parametrize("argv", [["analyze"], ["gamma"], ["hilbert", "--degree", "4"]])
def test_hw_length_is_checked_before_the_root_datum_is_built(capsys, argv):
    """A central torus of rank 10**12 is refused by the hw length alone: no
    root datum (and no list of that length) is built."""
    doc = {
        "group": {"simple": [["A", 1]], "central_torus_rank": 10 ** 12},
        "rep": [{"hw": [1], "mult": 2}],
    }
    assert main([argv[0], json.dumps(doc)] + argv[1:]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: rep[0].hw has length 1, ambient dimension is 1000000000001\n"
    )


def test_weyl_cap_is_checked_before_the_spec_is_validated(capsys, monkeypatch):
    """|W(A9)| = 10! is over the default cap: the order formulas refuse it
    before validate_symplectic_spec (whose positive roots are the cost)."""

    def expensive(datum, entries):
        raise AssertionError("validated an over-cap spec")

    monkeypatch.setattr(cli, "validate_symplectic_spec", expensive)
    doc = {
        "group": {"simple": [["A", 9]], "central_torus_rank": 0},
        "rep": [{"hw": [1] + [0] * 8, "mult": 1}, {"hw": [0] * 8 + [1], "mult": 1}],
    }
    assert main(["analyze", json.dumps(doc)]) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "error: group too large: |W| = 3628800 exceeds the enumeration cap 1000000\n"
    )


def test_analyze_exit_codes(tmp_path, capsys):
    ok = _write(tmp_path, "ok.json", SP4)
    assert main(["analyze", ok]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["rk_s"] == 0 and out["c_s"] == 0 and out["mf"] is True

    bad = _write(tmp_path, "bad.json", {
        "group": {"simple": [["A", 1]], "central_torus_rank": 0},
        "rep": [{"hw": [2], "mult": 1}],
    })
    assert main(["analyze", bad]) == EXIT_VALIDATION

    huge = _write(tmp_path, "e8.json", {
        "group": {"simple": [["E", 8]], "central_torus_rank": 0},
        "rep": [{"hw": [0, 0, 0, 0, 0, 0, 1, 0], "mult": 2}],
    })
    assert main(["analyze", huge]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "group too large" in err


# counts past the interpreter's 4300-digit int-to-str limit: |W(A1700)| =
# 1701!, 4731 digits; c_s of a rank-12 torus on the 24 characters +-e_i, each
# 9 * 10^4298 times, is 108 * 10^4298 - 12, 4301 digits; and the irrep of A2
# with highest weight (10^4298, 10^4298) has dimension (10^4298 + 1)^3
HUGE_WEYL = {
    "group": {"simple": [["A", 1700]], "central_torus_rank": 0},
    "rep": [{"hw": [1] + [0] * 1699, "mult": 1}],
}
HUGE_TORUS = {
    "group": {"simple": [], "central_torus_rank": 12},
    "rep": [{"hw": [s if j == i else 0 for j in range(12)], "mult": 9 * 10 ** 4298}
            for i in range(12) for s in (1, -1)],
}
HUGE_IRREP = {
    "group": {"simple": [["A", 2]], "central_torus_rank": 0},
    "rep": [{"hw": [10 ** 4298, 10 ** 4298], "mult": 2}],
}
HUGE_TORUS_C_S = "107" + "9" * 4296 + "88"


@pytest.mark.parametrize("doc, cap", [
    (HUGE_WEYL, "exceeds the enumeration cap 1000000"),
    (HUGE_IRREP, "exceeds cap 5000"),
])
@pytest.mark.parametrize("argv", [
    ["analyze"], ["analyze", "--text"], ["gamma"], ["hilbert", "--degree", "2"],
    ["verify"],
])
def test_counts_past_the_int_str_limit_exit_3_naming_the_cap(tmp_path, capsys, doc, cap, argv):
    """A group order or a dimension past the interpreter's int-to-str digit
    limit is written in full in the budget message, not an internal
    ValueError; `hilbert` meets the dim V budget before the irrep's."""
    path = _write(tmp_path, "huge.json", doc)
    assert main([argv[0], path] + argv[1:]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    if doc is HUGE_IRREP and argv[0] == "hilbert":
        cap = "exceeds budget 16"
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f" {cap}" in captured.err and "internal" not in captured.err


def test_c_s_past_the_int_str_limit_is_written_exactly(tmp_path, capsys):
    """`analyze` writes a 4301-digit c_s in full, in json and as text, as it
    writes a c_s of 10^30; `hilbert` and `verify` exit 3 naming their caps."""
    path = _write(tmp_path, "torus.json", HUGE_TORUS)
    assert main(["analyze", path]) == EXIT_OK
    assert f'\n  "c_s": {HUGE_TORUS_C_S},\n' in capsys.readouterr().out
    assert main(["analyze", path, "--text"]) == EXIT_OK
    assert f"\nsymplectic complexity: {HUGE_TORUS_C_S}\n" in capsys.readouterr().out
    assert main(["hilbert", path, "--degree", "2"]) == EXIT_BUDGET
    assert capsys.readouterr().err.endswith(" exceeds budget 16\n")
    assert main(["verify", path]) == EXIT_BUDGET
    assert capsys.readouterr().err.endswith(" exceeds cap 64\n")


# a rank-2 a* in T3 whose echelon basis has entries past the int-to-str limit
BIG_CHARACTERS = [(10 ** 2400 + 7, 3 * 10 ** 2400 + 1, 1),
                  (10 ** 2399 + 13, 7 * 10 ** 2400 + 3, 5)]
BIG_T3 = {
    "group": {"simple": [], "central_torus_rank": 3},
    "rep": [{"hw": [s * x for x in chi], "mult": 1}
            for chi in BIG_CHARACTERS for s in (1, -1)],
}


def test_text_report_writes_ints_past_the_int_str_limit(tmp_path, capsys):
    """`analyze --text` writes an a* basis with entries past the
    interpreter's int-to-str limit in full, each int by `decimal`, as the
    json report does."""
    path = _write(tmp_path, "t3.json", BIG_T3)
    spec = parse_spec(path)[0]
    basis = analyze(spec).a_star_basis
    assert max(abs(x) for b in basis for x in b) > 10 ** 4300
    want = "[" + ", ".join(
        "[" + ", ".join(map(decimal, b)) + "]" for b in basis) + "]"
    assert main(["analyze", path, "--text", "--trace"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"\na* basis             : {want}\n" in captured.out


TEXT_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TEXT_VALUES)
def test_text_values_are_their_repr(value):
    """Below the digit limit, a report value in a `--text` line reads as its
    repr, as the f-string wrote it."""
    assert cli._text(value) == repr(value)


# A1 x T1 with central charges +-10^310, past the largest float
FAR_CHARGES = {
    "group": {"simple": [["A", 1]], "central_torus_rank": 1},
    "rep": [{"hw": [1, 10 ** 310], "mult": 1}, {"hw": [1, -10 ** 310], "mult": 1}],
}


def test_a_central_charge_past_the_float_range_exits_3(tmp_path, capsys, monkeypatch):
    """`verify` refuses a model whose central charge has no finite float,
    before any block is built, with exit 3 naming the matrix model and the
    charge's size; `analyze`, `gamma` and `hilbert` need no model and exit
    0."""
    from symprep import matrixrep

    path = _write(tmp_path, "far.json", FAR_CHARGES)
    for argv in (["analyze", path], ["gamma", path], ["hilbert", path, "--degree", "4"]):
        assert main(argv) == EXIT_OK
    capsys.readouterr()

    def unbuilt(*args):
        raise AssertionError("a block was built")

    monkeypatch.setattr(matrixrep, "_summand_matrices", unbuilt)
    assert main(["verify", path]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: matrix model: a central charge of 311 digits has no finite float square\n"
    )


def _charged(simple, central, hws):
    return {
        "group": {"simple": simple, "central_torus_rank": central},
        "rep": [{"hw": hw, "mult": 1} for hw in hws],
    }


CHARGED_MODELS = {
    "T1": lambda c: _charged([], 1, [[c], [-c]]),
    "A1xT1": lambda c: _charged([["A", 1]], 1, [[1, c], [1, -c]]),
    "A2xT1": lambda c: _charged([["A", 2]], 1, [[1, 0, c], [0, 1, -c]]),
    "T2": lambda c: _charged([], 2, [[c, 1], [-c, -1]]),
}


def _refuse_constant(name):
    raise AssertionError(f"the report holds {name}, which JSON does not allow")


@pytest.mark.parametrize("name", sorted(CHARGED_MODELS))
def test_a_central_charge_whose_square_is_a_finite_float_gives_finite_residuals(
    tmp_path, capsys, name
):
    """The float checks multiply two charges (the Poisson bracket of two
    gradients), so at the largest charge whose square is a finite float
    every residual of `verify`'s report is finite: the report is RFC 8259
    JSON with no Infinity or NaN.  The checks fail there (exit 1), as the
    absolute tolerances are not scale free."""
    from symprep.matrixrep import CHARGE_CAP

    path = _write(tmp_path, "cap.json", CHARGED_MODELS[name](CHARGE_CAP))
    assert main(["verify", path]) == EXIT_CHECK_FAILED
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert report["numeric_verification"]["passed"] is False


@pytest.mark.parametrize("name", sorted(CHARGED_MODELS))
def test_a_central_charge_whose_square_has_no_finite_float_exits_3(
    tmp_path, capsys, monkeypatch, name
):
    """One above the largest charge whose square is a finite float, and at
    2 * 10^154, `verify` exits 3 before any block is built: past that bound
    the float checks would write Infinity into the report."""
    from symprep import matrixrep

    def unbuilt(*args):
        raise AssertionError("a block was built")

    monkeypatch.setattr(matrixrep, "_summand_matrices", unbuilt)
    for charge in (matrixrep.CHARGE_CAP + 1, 2 * 10 ** 154, -(matrixrep.CHARGE_CAP + 1)):
        path = _write(tmp_path, "over.json", CHARGED_MODELS[name](charge))
        assert main(["verify", path]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: matrix model: a central charge of 155 digits has no finite "
            "float square\n"
        )


@pytest.mark.parametrize("n, text", [
    (0, "0"), (-7, "-7"), (10 ** 30, "1" + "0" * 30),
    (10 ** 9000 + 12345, "1" + "0" * 8995 + "12345"),
    (-(2 * 10 ** 4400) - 1, "-2" + "0" * 4399 + "1"),
], ids=["zero", "negative", "31 digits", "9001 digits", "4401 digits negative"])
def test_decimal_writes_ints_past_the_digit_limit(n, text):
    assert decimal(n) == text
    assert cli.report_to_json({"n": n}) == f'{{\n  "n": {text}\n}}\n'


def test_analyze_report_is_deterministic(tmp_path):
    path = _write(tmp_path, "cubic.json", CUBIC)
    buf1, buf2 = io.StringIO(), io.StringIO()
    import argparse

    from symprep.cli import cmd_analyze

    ns = argparse.Namespace(spec=path, text=False, trace=True)
    assert cmd_analyze(ns, out=buf1) == EXIT_OK
    assert cmd_analyze(ns, out=buf2) == EXIT_OK
    assert buf1.getvalue() == buf2.getvalue()
    report = json.loads(buf1.getvalue())
    assert report["little_weyl"]["order"] == 2
    assert report["little_weyl"]["degrees"] == [2]
    assert report["trace"][0]["chi"] == [3]


def test_report_round_trips(tmp_path):
    path = _write(tmp_path, "two.json", SL2_TWO)
    import argparse

    from symprep.cli import cmd_analyze

    buf = io.StringIO()
    cmd_analyze(argparse.Namespace(spec=path, text=False, trace=True), out=buf)
    text = buf.getvalue()
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


def test_verify_exit_codes(tmp_path, capsys):
    ok = _write(tmp_path, "sp4.json", SP4)
    assert main(["verify", ok, "--seed", "2", "--samples", "5"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["numeric_verification"]["passed"] is True
    assert report["numeric_verification"]["seed"] == 2

    g2 = _write(tmp_path, "g2.json", {
        "group": {"simple": [["G", 2]], "central_torus_rank": 0},
        "rep": [{"hw": [1, 0], "mult": 2}],
    })
    assert main(["verify", g2]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert all(c["passed"] for c in report["numeric_verification"]["checks"])


def _spec_doc(simple, summands):
    return {
        "group": {"simple": simple, "central_torus_rank": 0},
        "rep": [{"hw": hw, "mult": mult} for hw, mult in summands],
    }


# Modules that only the generic irreducible construction models,
# with their (rk_s, c_s, mf).
GENERIC_MODELS = {
    name: (_spec_doc(factors, summands), expected)
    for name, (factors, summands, expected) in corpus.GENERIC_MODELS.items()
}


@pytest.mark.parametrize("name", sorted(GENERIC_MODELS))
def test_verify_passes_on_generic_models(name, capsys):
    doc, expected = GENERIC_MODELS[name]
    assert main(["verify", json.dumps(doc), "--seed", "0"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert (report["rk_s"], report["c_s"], report["mf"]) == expected
    checks = report["numeric_verification"]["checks"]
    assert len(checks) == 15
    assert [c["name"] for c in checks if not c["passed"]] == []


def test_numerical_degeneracy_exits_1_naming_the_check(monkeypatch, capsys):
    """A rank cut that leaves dim V - orbit - rank odd or negative is a
    failed numeric check, not a validation failure."""
    monkeypatch.setattr(numeric, "_numeric_rank", lambda mats: len(mats[0]) + 1)
    assert main(["verify", json.dumps(SL2_TWO)]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: numeric check rank_complexity_match failed: dim V - orbit - rank = "
    )


def test_unrealizable_stage_exits_5(monkeypatch, capsys):
    """Every reduction stage has a model, so a stage without its pair
    (v0, v0^-) is a defect."""
    monkeypatch.setattr(sections, "hyperbolic_pair", lambda *args: (None, None))
    assert main(["verify", json.dumps(SL2_TWO)]) == EXIT_DEFECT
    assert capsys.readouterr().err == "error: no highest weight vector of weight (1,)\n"


def test_main_reuses_the_parser_built_at_import(monkeypatch, capsys):
    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "make_parser", no_parser)
    spec = json.dumps(SL2_TWO)
    assert main(["analyze", spec]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rk_s"] == 1
    assert main(["verify", spec, "--samples", "5"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["numeric_verification"]["passed"]


def test_consecutive_main_calls_print_what_separate_calls_print(capsys):
    """No flag or subcommand of one call leaks into the next: each call
    through main prints what a call through a freshly built parser prints."""
    spec = json.dumps(SL3_STD_DUAL)
    argvs = [["verify", spec, "--seed", "3", "--text"], ["analyze", spec]]
    separate = []
    for argv in argvs:
        args = cli.make_parser().parse_args(argv)
        out, err = io.StringIO(), io.StringIO()
        separate.append((args.func(args, out=out, err=err), out.getvalue(), err.getvalue()))
    consecutive = []
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        consecutive.append((code, captured.out, captured.err))
    assert consecutive == separate
    assert "numeric verification : passed=True seed=3" in consecutive[0][1]
    assert "numeric_verification" not in json.loads(consecutive[1][1])


def test_verify_on_the_trivial_group_passes(capsys):
    """The trivial group on C^2: no Lie basis matrices to stack, and every
    numeric check still runs and passes, with c_s 1 both ways."""
    doc = {"group": {"simple": [], "central_torus_rank": 0},
           "rep": [{"hw": [], "mult": 2}]}
    assert main(["verify", json.dumps(doc)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert (report["rk_s"], report["c_s"]) == (0, 1)
    numeric = report["numeric_verification"]
    assert numeric["passed"] and len(numeric["checks"]) == 10
    match = next(c for c in numeric["checks"] if c["name"] == "rank_complexity_match")
    assert match["detail"] == "numeric (rk, c) = (0, 1), combinatorial (0, 1)"


def test_verify_reproducible_residuals(tmp_path):
    import argparse

    from symprep.cli import cmd_verify

    path = _write(tmp_path, "two.json", SL2_TWO)
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        ns = argparse.Namespace(
            spec=path, seed=7, samples=6, text=False, trace=False
        )
        assert cmd_verify(ns, out=buf) == EXIT_OK
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]


def test_hilbert_command(tmp_path, capsys):
    path = _write(tmp_path, "cubic.json", CUBIC)
    assert main(["hilbert", path, "--degree", "8"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["invariant_dims"] == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_gamma_command(tmp_path, capsys):
    path = _write(tmp_path, "cubic.json", CUBIC)
    assert main(["gamma", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["gamma_order"] == 2
    assert report["reflection_count"] == 1
    assert report["normalizer_order"] == 2
    assert report["centralizer_order"] == 1


# the rank-9 torus on +-e_i: dim 18 is past the symmetric-power budget
TORUS9_CHARS = [[1 if j == i else 0 for j in range(9)] for i in range(9)]
TORUS9 = {
    "group": {"simple": [], "central_torus_rank": 9},
    "rep": [{"hw": c, "mult": 1} for c in TORUS9_CHARS]
    + [{"hw": [-x for x in c], "mult": 1} for c in TORUS9_CHARS],
}


@pytest.mark.parametrize("mult", [3, 10 ** 30])
def test_character_pairs_are_counted_by_multiplicity(tmp_path, capsys, mult):
    """SL2 on mult copies of C^2 reduces to mult - 1 pairs of one torus
    character: rk_s 1 and c_s = mult - 2, with no list of mult entries."""
    path = _write(tmp_path, "sl2.json", dict(SL2_TWO, rep=[{"hw": [1], "mult": mult}]))
    assert main(["analyze", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert (report["rk_s"], report["c_s"], report["mf"]) == (1, mult - 2, False)
    assert main(["gamma", path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["gamma_order"] == 2


def test_gamma_skips_the_little_weyl_matching(tmp_path, capsys):
    # gamma does not need the Hilbert matching
    assert main(["gamma", _write(tmp_path, "torus9.json", TORUS9)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["gamma_order"] == 1
    assert report["a_star_basis"] == TORUS9_CHARS


def test_little_weyl_past_the_dim_budget_reports_budget(tmp_path, capsys):
    """analyze and verify keep rk_s, c_s, Gamma and the isotropy and report
    W_V as status "budget"; hilbert, which is the symmetric powers, exits 3."""
    path = _write(tmp_path, "torus9.json", TORUS9)
    for command in ("analyze", "verify"):
        assert main([command, path]) == EXIT_OK, command
        report = json.loads(capsys.readouterr().out)
        assert (report["rk_s"], report["c_s"], report["mf"]) == (9, 0, True)
        assert report["little_weyl"] == {
            "status": "budget", "order": None, "degrees": None, "candidates": [1],
        }
    assert main(["hilbert", path, "--degree", "2"]) == EXIT_BUDGET
    assert "dim V = 18 exceeds budget 16" in capsys.readouterr().err


def _catalog_doc(spec):
    datum = spec.datum
    return {
        "group": {"simple": [list(f) for f in datum.factors],
                  "central_torus_rank": datum.ambient_dim - sum(n for _, n in datum.factors)},
        "rep": [{"hw": list(w), "mult": m} for w, m in spec.summands],
    }


def test_gamma_command_agrees_with_full_analysis(tmp_path, capsys):
    for name, (spec, _) in catalog().items():
        path = _write(tmp_path, f"{name}.json", _catalog_doc(spec))
        assert main(["gamma", path]) == EXIT_OK, name
        _, _, echo = parse_spec(path)
        analysis = analyze(spec)
        gamma = analysis.gamma
        want = json.dumps({
            "schema_version": 1,
            "input": echo,
            "a_star_basis": [list(b) for b in analysis.a_star_basis],
            "gamma_order": gamma.gamma_order,
            "reflection_count": len(gamma.reflections),
            "normalizer_order": gamma.normalizer_order,
            "centralizer_order": gamma.centralizer_order,
            "reflections": [[list(r) for r in m] for m in gamma.reflections],
        }, sort_keys=True, indent=2) + "\n"
        assert capsys.readouterr().out == want, name


# Adjoint pairs: a* is all of t*, so Gamma = W, and the module is not
# multiplicity free, so W_V is unknown and every reflection subgroup of W is
# listed: (group, highest weight, candidates, |W|).
ADJOINT_PAIRS = {
    "D4": ([["D", 4]], [0, 1, 0, 0], 75, 192),
    "B4": ([["B", 4]], [0, 1, 0, 0], 218, 384),
    "A5": ([["A", 5]], [1, 0, 0, 0, 1], 203, 720),
    "F4": ([["F", 4]], [1, 0, 0, 0], 637, 1152),
}


@pytest.mark.parametrize("name", sorted(ADJOINT_PAIRS))
def test_adjoint_pairs_list_every_reflection_subgroup_of_w(tmp_path, capsys, name):
    simple, hw, count, order = ADJOINT_PAIRS[name]
    doc = {"group": {"simple": simple, "central_torus_rank": 0},
           "rep": [{"hw": hw, "mult": 2}]}
    assert main(["analyze", _write(tmp_path, "adj.json", doc)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert (report["rk_s"], report["mf"]) == (len(hw), False)
    assert report["gamma"]["order"] == order
    little = report["little_weyl"]
    assert little["status"] == "unknown"
    assert len(little["candidates"]) == count
    assert little["candidates"] == sorted(little["candidates"])
    assert (little["candidates"][0], little["candidates"][-1]) == (1, order)


E6_27_DUAL_X2 = {
    "group": {"simple": [["E", 6]], "central_torus_rank": 0},
    "rep": [{"hw": [1, 0, 0, 0, 0, 0], "mult": 2}, {"hw": [0, 0, 0, 0, 0, 1], "mult": 2}],
}


def test_e6_27_dual_x2_has_gamma_w_and_5079_candidates(tmp_path, capsys):
    """E6 on (27 + 27*) x 2: a* is t*, so Gamma = W(E6), of order 51840 with
    36 reflections, |N| = 51840 and |C| = 1; `analyze` reports the same
    Gamma and lists its 5079 reflection subgroups as candidates."""
    path = _write(tmp_path, "e6.json", E6_27_DUAL_X2)
    assert main(["gamma", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert (report["gamma_order"], report["reflection_count"], report["normalizer_order"],
            report["centralizer_order"]) == (51840, 36, 51840, 1)
    assert len(report["reflections"]) == 36
    assert main(["analyze", path]) == EXIT_OK
    full = json.loads(capsys.readouterr().out)
    assert full["gamma"] == {"order": 51840, "reflection_count": 36}
    assert len(full["little_weyl"]["candidates"]) == 5079


def test_batch_command(tmp_path, capsys):
    _write(tmp_path, "a.json", SP4)
    _write(tmp_path, "b.json", CUBIC)
    assert main(["batch", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "a.json: ok" in out and "b.json: ok" in out
    _write(tmp_path, "c.json", {
        "group": {"simple": [["A", 1]], "central_torus_rank": 0},
        "rep": [{"hw": [2], "mult": 1}],
    })
    assert main(["batch", str(tmp_path)]) == EXIT_VALIDATION


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMPREP_WEYL_CAP", "4")
    path = _write(tmp_path, "sp4.json", SP4)
    assert main(["analyze", path]) == EXIT_BUDGET  # |W(C2)| = 8 > 4
    assert main(["gamma", path]) == EXIT_BUDGET
    assert main(["hilbert", path, "--degree", "4"]) == EXIT_BUDGET


def test_unreadable_inputs_exit_2(tmp_path, capsys):
    assert main(["batch", str(tmp_path / "absent")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "absent" in err
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{")
    (tmp_path / "folder.json").mkdir()
    for name in ("binary.json", "folder.json"):
        assert main(["analyze", str(tmp_path / name)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path / name}")
    assert main(["batch", str(tmp_path)]) == EXIT_VALIDATION
    assert "folder.json: exit 2" in capsys.readouterr().out


def test_json_past_the_parser_limits_exits_2(tmp_path, capsys):
    """An int literal past Python's 4300-digit limit, in hw or in mult, and
    arrays nested 100000 deep are not valid JSON to the parser: every command
    exits 2 with a `not valid JSON` line, and batch reports each as exit 2.
    The documents are written by hand, since json.dumps refuses such an int."""
    digits = "1" * 5000
    docs = {
        "deep.json": "[" * 100000 + "]" * 100000,
        "hw.json": '{"group": {"simple": [["A", 1]]}, "rep": [{"hw": [%s]}]}' % digits,
        "mult.json": (
            '{"group": {"simple": [["A", 1]]}, "rep": [{"hw": [1], "mult": %s}]}'
            % digits
        ),
    }
    for name, text in docs.items():
        path = tmp_path / name
        path.write_text(text)
        for argv in (["analyze"], ["verify"], ["hilbert", "--degree", "2"], ["gamma"]):
            code = main([argv[0], str(path)] + argv[1:])
            captured = capsys.readouterr()
            assert code == EXIT_VALIDATION and captured.out == "", (name, argv)
            assert captured.err.startswith("error: not valid JSON: "), (name, argv)
    assert main(["batch", str(tmp_path)]) == EXIT_VALIDATION
    assert capsys.readouterr().out == "".join(
        f"{tmp_path / name}: exit 2\n" for name in sorted(docs)
    )


@pytest.mark.parametrize("argv, options, field", [
    (["analyze"], {"hilbert_degree": -4}, "options.hilbert_degree"),
    (["hilbert", "--degree", "-3"], {}, "--degree"),
    (["verify", "--samples", "0"], {}, "--samples"),
    (["verify"], {"samples": 0}, "options.samples"),
    (["verify", "--seed", "-1"], {}, "--seed"),
])
def test_out_of_range_numbers_exit_2(tmp_path, capsys, argv, options, field):
    path = _write(tmp_path, "cubic.json", dict(CUBIC, options=options))
    assert main([argv[0], path] + argv[1:]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("where, field", [
    (("rep", 0, "mult"), r"rep\[0\]\.mult"),
    (("rep", 0, "hw", 0), r"rep\[0\]\.hw"),
    (("group", "simple", 0, 1), r"group\.simple\[0\]"),
    (("group", "central_torus_rank"), r"group\.central_torus_rank"),
    (("options", "seed"), r"options\.seed"),
])
def test_parse_rejects_booleans_as_integers(where, field):
    doc = dict(json.loads(json.dumps(CUBIC)), options={"seed": 0})
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = True
    with pytest.raises(SpecFormatError, match=field):
        parse_spec(json.dumps(doc))


@pytest.mark.parametrize("argv, options, env, field", [
    (["analyze"], {"hilbert_degree": 100}, None, "options.hilbert_degree = 100"),
    (["verify"], {"hilbert_degree": 11}, None, "options.hilbert_degree = 11"),
    (["analyze"], {}, "12", "options.hilbert_degree = 12"),
    (["hilbert", "--degree", "11"], {}, None, "degree 11 exceeds cap"),
])
def test_hilbert_degree_above_the_cap_exits_3(
    tmp_path, capsys, monkeypatch, argv, options, env, field
):
    if env is not None:
        monkeypatch.setenv("SYMPREP_HILBERT_DEGREE", env)
    path = _write(tmp_path, "cubic.json", dict(CUBIC, options=options))
    assert main([argv[0], path] + argv[1:]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err and "cap 10" in err


def test_hilbert_degree_at_the_cap_is_used_as_asked(tmp_path, capsys):
    path = _write(tmp_path, "cubic.json", dict(CUBIC, options={"hilbert_degree": 10}))
    assert main(["analyze", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["options"]["hilbert_degree"] == 10
    assert main(["hilbert", path, "--degree", "10"]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["invariant_dims"]) == 11


def test_symmetric_power_budget_errors_name_the_stage(tmp_path, capsys):
    """Each budget of the symmetric powers names its stage, the measured
    size and the cap."""
    torus9 = _write(tmp_path, "torus9.json", TORUS9)
    assert main(["hilbert", torus9, "--degree", "2"]) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "error: symmetric powers: dim V = 18 exceeds budget 16\n"
    )
    cubic = _write(tmp_path, "cubic.json", CUBIC)
    assert main(["hilbert", cubic, "--degree", "11"]) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "error: symmetric powers: degree 11 exceeds cap 10\n"
    )


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FLOAT_LAYER = ("numpy", "symprep.numeric", "symprep.sections", "symprep.verify")


def _fresh_process(script, *args, env=None):
    """Run script with args in a new interpreter that imports symprep from
    this checkout, the BLAS thread variables unset unless env sets them;
    return its stdout parsed as JSON."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(base, PYTHONPATH=src, **(env or {})),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


_IMPORT_SPLIT_PROBE = """
import contextlib, io, json, sys

spec, batch, *float_layer = sys.argv[1:]
steps = []

def step(name, run=lambda: 0):
    with contextlib.redirect_stdout(io.StringIO()):
        code = run()
    steps.append([name, code, [m for m in float_layer if m in sys.modules]])

import symprep
step("import symprep")
from symprep import analyze, build_root_datum, validate_symplectic_spec, MatrixRep, build_rep
step("public names")
from symprep.cli import main
step("import symprep.cli")
for argv in (
    ["analyze", spec],
    ["analyze", spec, "--text", "--trace"],
    ["gamma", spec],
    ["hilbert", spec, "--degree", "6"],
    ["batch", batch],
):
    step(" ".join(argv[:1] + argv[2:]), lambda: main(argv))
step("verify", lambda: main(["verify", spec]))
print(json.dumps(steps))
"""


def test_exact_commands_never_load_the_float_layer(tmp_path):
    """numpy and the float layer load on the first `verify`, never with the
    package, the CLI or an exact command."""
    spec = _write(tmp_path, "sl3.json", SL3_STD_DUAL)
    batch = tmp_path / "batch"
    batch.mkdir()
    _write(batch, "sp4.json", SP4)
    _write(batch, "cubic.json", CUBIC)
    *exact, last = _fresh_process(_IMPORT_SPLIT_PROBE, spec, str(batch), *FLOAT_LAYER)
    assert [name for name, _, _ in exact] == [
        "import symprep", "public names", "import symprep.cli", "analyze",
        "analyze --text --trace", "gamma", "hilbert --degree 6", "batch",
    ]
    for name, code, loaded in exact:
        assert (code, loaded) == (EXIT_OK, []), name
    assert last == ["verify", EXIT_OK, list(FLOAT_LAYER)]


_CACHE_OWNERS_PROBE = """
import contextlib, io, json, sys

def cache_owners():
    owners = {}
    for name, module in list(sys.modules.items()):
        if name == "symprep" or name.startswith("symprep."):
            for attr, value in vars(module).items():
                if callable(getattr(value, "cache_clear", None)) or (
                    isinstance(value, dict) and attr.upper().endswith("_CACHE")
                ):
                    owners.setdefault(id(value), f"{name}.{attr}")
    return owners

import symprep.cli
at_import = cache_owners()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [symprep.cli.main([command, sys.argv[1]]) for command in ("analyze", "verify")]
later = cache_owners()
print(json.dumps({
    "codes": codes,
    "at_import": sorted(at_import.values()),
    "late": sorted(later[k] for k in later.keys() - at_import.keys()),
}))
"""


def test_every_cache_is_reachable_right_after_import(tmp_path):
    """A caller that empties every cache it finds after `import symprep.cli`
    (as the benchmark's cold runs do) must find all of them: no cache may
    belong to a module that loads later.  Caches are compared by their
    owning object, which stays the same, not by a bound `cache_clear`."""
    got = _fresh_process(_CACHE_OWNERS_PROBE, _write(tmp_path, "sl3.json", SL3_STD_DUAL))
    assert got["codes"] == [EXIT_OK, EXIT_OK]
    assert got["late"] == []
    for owner in ("matrixrep._irreducible_block", "matrixrep.reference_weight",
                  "matrixrep._single_factor_datum", "matrixrep.root_recipes",
                  "reps._weyl_dim_cached", "reps._duality_cached",
                  "rootdata._levi_subdatum", "rootdata._echelon_key",
                  "reps._weight_facts", "reduction._step_frame",
                  "classify._is_singular_cached", "reduction._little_weyl_candidates",
                  "rootdata._DATUM_CACHE", "rootdata.cartan_matrix"):
        assert f"symprep.{owner}" in got["at_import"], owner


_BATCH_POOL_PROBE = """
import contextlib, importlib.util, io, json, sys

loader = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(loader)
loader.loader.exec_module(workloads)
import symprep.cli

def empty_every_cache():
    for name, module in list(sys.modules.items()):
        if name == "symprep" or name.startswith("symprep."):
            for attr, value in vars(module).items():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
                elif isinstance(value, dict) and attr.upper().endswith("_CACHE"):
                    value.clear()

def analyze(text):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = symprep.cli.main(["analyze", text])
    return [code, out.getvalue()]

texts = [json.dumps(doc) for docs in workloads.batch_pool().values() for doc in docs]
cold = []
for text in texts:
    empty_every_cache()
    cold.append(analyze(text))
warm = [analyze(text) for text in texts]
empty_every_cache()
again = [analyze(text) for text in texts]
print(json.dumps({
    "specs": len(texts),
    "codes": sorted({code for code, _ in cold}),
    "warm_differs": [t for t, a, b in zip(texts, cold, warm) if a != b],
    "again_differs": [t for t, a, b in zip(texts, cold, again) if a != b],
}))
"""


def test_batch_pool_reports_match_cold_warm_and_refilled():
    """In one process, each spec of the benchmark's batch pool analyzed
    with every cache emptied, then with the caches full, then once more
    after emptying them once: the three reports agree byte for byte, so no
    per-process cache changes a report."""
    workloads = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    got = _fresh_process(_BATCH_POOL_PROBE, str(workloads))
    assert got["specs"] >= 190 and got["codes"] == [EXIT_OK]
    assert got["warm_differs"] == [] and got["again_differs"] == []


_BLAS_THREADS_PROBE = """
import contextlib, io, json, os, sys
from symprep.cli import main

spec, *names = sys.argv[1:]
at_numpy_import = []

def record(event, args):
    if event == "import" and args[0] == "numpy" and not at_numpy_import:
        at_numpy_import.extend(os.environ.get(name) for name in names)

sys.addaudithook(record)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", spec])
print(json.dumps([code] + at_numpy_import))
"""


@pytest.mark.parametrize("preset, want", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
])
def test_verify_defaults_blas_to_one_thread(tmp_path, preset, want):
    """`verify` sets each BLAS thread variable to 1 before numpy loads
    (numpy reads them then), unless it is already set."""
    path = _write(tmp_path, "sl3.json", SL3_STD_DUAL)
    got = _fresh_process(_BLAS_THREADS_PROBE, path, *BLAS_THREAD_VARS, env=preset)
    assert got == [EXIT_OK] + want


@pytest.mark.parametrize("argv, options, env, field", [
    (["verify", "--samples", "1001"], {}, None, "--samples = 1001"),
    (["verify", "--samples", "1000000000"], {"samples": 5}, None, "--samples = 1000000000"),
    (["verify"], {"samples": 1001}, None, "options.samples = 1001"),
    (["verify"], {}, "5000", "options.samples = 5000"),
])
def test_samples_above_the_cap_exit_3_before_the_model_is_built(
    tmp_path, capsys, monkeypatch, argv, options, env, field
):
    def unreachable(*args, **kwargs):
        raise AssertionError("the sample cap must trip first")

    monkeypatch.setattr(cli, "analyze", unreachable)
    monkeypatch.setattr(verify, "build_rep", unreachable)
    if env is not None:
        monkeypatch.setenv("SYMPREP_SAMPLES", env)
    path = _write(tmp_path, "cubic.json", dict(CUBIC, options=options))
    assert main([argv[0], path] + argv[1:]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err and "cap 1000" in err
    with pytest.raises(BudgetExceeded, match="samples = 1001 exceeds the sample cap 1000"):
        verify.verify_suite(parse_spec(path)[0], samples=1001)


def test_zero_samples_are_refused_by_the_library():
    """No check may pass on zero samples: verify_suite refuses the count
    with the message the CLI gives, which exits 2."""
    spec = catalog()["sl3_std_dual"][0]
    with pytest.raises(SpecFormatError, match="^samples must be at least 1$"):
        verify.verify_suite(spec, samples=0)


def test_samples_at_the_cap_are_used_as_asked(tmp_path, capsys):
    torus = {"group": {"simple": [], "central_torus_rank": 1},
             "rep": [{"hw": [1], "mult": 1}, {"hw": [-1], "mult": 1}]}
    path = _write(tmp_path, "torus.json", dict(torus, options={"samples": 1000}))
    assert main(["verify", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["numeric_verification"]["samples"] == 1000


def test_internal_consistency_error_exits_5(tmp_path, capsys, mutate_invariant_dims):
    """A rho walk that loses a point or flips a sign, or a symmetric-power
    recursion that loses a state, is a defect: `analyze` and `hilbert`
    exit 5 with the cross-check's message."""
    path = _write(tmp_path, "cubic.json", CUBIC)
    for mutation, message in (("lose_point", "Weyl denominator identity"),
                              ("flip_sign", "Weyl denominator identity"),
                              ("lose_state", "S^1 V has mass")):
        mutate_invariant_dims(mutation)
        for argv in (["analyze", path], ["hilbert", path, "--degree", "4"]):
            assert main(argv) == EXIT_DEFECT == 5
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err


def test_internal_consistency_error_in_the_q_embedding_exits_5(
    tmp_path, capsys, monkeypatch
):
    """A system matrix that is not triangular is a defect, not a rejected
    sample: verify exits 5 with the check's message, not 1 with a failed
    q_embed_samples check."""
    real = verify.local_frame

    def crossed(rep, step, layer):
        # e_a f_b v0 read with the f index reversed puts the diagonal
        # entries of the system matrix off the diagonal
        frame = real(rep, step, layer)
        return dataclasses.replace(frame, efv0=frame.efv0[:, ::-1])

    monkeypatch.setattr(verify, "local_frame", crossed)
    path = _write(tmp_path, "sl3.json", SL3_STD_DUAL)
    assert main(["verify", path]) == EXIT_DEFECT == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: system matrix not triangular at (1,0)\n"


def test_a_carved_s_module_that_is_not_symplectic_exits_5(tmp_path, capsys, monkeypatch):
    """S whose decomposition drops a dual summand fails the symplectic
    checks over the Levi: a defect of the carving, not a user's invalid
    weight, so `analyze` raises InternalConsistencyError and the CLI exits
    5, not 2."""
    real = reduction.decompose_weights

    def dropped(levi, weights):
        return real(levi, weights)[:1]

    monkeypatch.setattr(reduction, "decompose_weights", dropped)
    spec = catalog()["sl3_std_dual"][0]
    with pytest.raises(InternalConsistencyError) as info:
        analyze(spec)
    assert str(info.value).startswith("S is not a symplectic M-module: NotSelfDual(")
    path = _write(tmp_path, "sl3.json", SL3_STD_DUAL)
    assert main(["analyze", path]) == EXIT_DEFECT == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {info.value}\n"


def test_unexpected_exception_exits_5(tmp_path, capsys, monkeypatch):
    """An exception that is not a SymprepError is a defect: one `error:
    internal` line and exit 5, and `batch` goes on to the next file."""
    real = cli.analyze

    def flaky(spec, **kwargs):
        if spec.datum.rank == 1:
            raise ZeroDivisionError("division by zero")
        return real(spec, **kwargs)

    monkeypatch.setattr(cli, "analyze", flaky)
    cubic = _write(tmp_path, "a.json", CUBIC)
    sp4 = _write(tmp_path, "b.json", SP4)
    message = "error: internal ZeroDivisionError: division by zero\n"
    assert main(["analyze", cubic]) == EXIT_DEFECT
    assert capsys.readouterr().err == message
    assert main(["batch", str(tmp_path)]) == EXIT_DEFECT
    captured = capsys.readouterr()
    assert captured.out == f"{cubic}: exit 5\n{sp4}: ok\n"
    assert captured.err == message


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_analyze_reports_match_the_benchmark_reference(tmp_path):
    """Every `analyze` entry of the benchmark's reference file: the key is
    the spec file's text, the value its exit code and the sha256 of stdout."""
    reference = json.loads(REFERENCE.read_text())["analyze"]
    assert reference
    path = tmp_path / "spec.json"
    got = {}
    for text in reference:
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["analyze", str(path)])
        got[text] = {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    assert got == reference


def test_verify_reports_match_the_benchmark_reference(tmp_path):
    """Every `verify` entry of the benchmark's reference file, run with
    --seed 0: the exit code, the sha256 of the report without its numeric
    part and with the seed echo nulled, the check names and `passed`."""
    reference = json.loads(REFERENCE.read_text())["verify"]
    assert reference
    path = tmp_path / "spec.json"
    got = {}
    for text in reference:
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", str(path), "--seed", "0"])
        report = json.loads(out.getvalue())
        numeric = report.pop("numeric_verification")
        report["options"]["seed"] = None
        analysis = json.dumps(report, sort_keys=True, indent=2)
        got[text] = {
            "exit": code,
            "analysis_sha256": hashlib.sha256(analysis.encode()).hexdigest(),
            "checks": [c["name"] for c in numeric["checks"]],
            "passed": numeric["passed"],
        }
    assert got == reference


@pytest.mark.parametrize("letter, rank", [("", 2), ("AB", 2), ("EF", 7), ("BC", 2)])
def test_cartan_letter_must_be_one_letter_exits_2(tmp_path, capsys, letter, rank):
    path = _write(tmp_path, "bad.json", {
        "group": {"simple": [[letter, rank]], "central_torus_rank": 0},
        "rep": [{"hw": [1] + [0] * (rank - 1), "mult": 2}],
    })
    for argv in (["analyze", path], ["gamma", path], ["hilbert", path, "--degree", "4"]):
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: group: invalid Cartan letter {letter!r}\n"


# The draws lean toward valid specs (half the letters name a type, repeated
# values in sampled_from, entries biased to nonnegative) so that many of them
# reach the analysis; the others must be refused with exit 2.
FUZZ_LETTERS = st.one_of(
    st.sampled_from("ABCDEFG"),
    st.sampled_from(["a", "c", "g", "", "AB", "BC", "EF", "H"]),
)
FUZZ_ENTRIES = st.one_of(st.integers(0, 2), st.integers(-2, 2))


@st.composite
def spec_documents(draw):
    """Small spec documents, valid or not: at most two factors of rank <= 3,
    hw entries in -2..2 (mostly of the ambient length), mult in 0..3."""
    ranks = st.sampled_from([1, 2, 3, 0])
    simple = draw(st.lists(st.tuples(FUZZ_LETTERS, ranks), max_size=2))
    central = draw(st.integers(0, 1))
    ambient = sum(r for _, r in simple) + central
    rep = []
    for _ in range(draw(st.integers(1, 2))):
        length = draw(st.sampled_from([ambient, ambient, ambient + 1]))
        hw = draw(st.lists(FUZZ_ENTRIES, min_size=length, max_size=length))
        rep.append({"hw": hw, "mult": draw(st.sampled_from([2, 1, 2, 3, 0]))})
    return {
        "group": {"simple": [list(f) for f in simple], "central_torus_rank": central},
        "rep": rep,
    }


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec_documents())
def test_any_small_spec_exits_with_a_documented_code(doc):
    text = json.dumps(doc)  # a spec argument may be the JSON text itself
    for argv in (["analyze", text], ["gamma", text], ["hilbert", text, "--degree", "4"],
                 ["verify", text]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_BUDGET), (
            argv[0], code, err.getvalue()
        )


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec_documents())
def test_any_small_spec_pairs_its_characters_as_the_re_pairing(doc):
    """On the fuzz's small specs that validate, the terminal character
    pairs read off the pairing plan are those of pairing each character
    summand with its negative."""
    try:
        terminal = terminal_module(parse_spec(json.dumps(doc))[0])
    except SymprepError:
        return
    want = character_pairs_oracle(terminal)
    assert terminal_decomposition(terminal).character_pairs == want


# Any JSON value: small, huge and negative ints, floats (NaN and the
# infinities too, which Python's json reads), strings, booleans, nested lists
# and objects.  A huge int is at least 10**12 in size: no list of that length
# can be allocated, so a build that tries one fails at once instead of
# filling memory.
HUGE = st.one_of(st.integers(10 ** 12, 10 ** 30), st.integers(-10 ** 30, -10 ** 12))
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 3), HUGE, st.floats(),
        st.text(max_size=3),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)


def _typical_or_any(typical, largest=None):
    """Mostly the typical value, so that many documents reach the analysis;
    otherwise any JSON value, with ints above `largest` left out."""
    any_value = JSON_VALUES
    if largest is not None:
        any_value = any_value.filter(lambda v: not (type(v) is int and v > largest))
    return st.sampled_from([True] * 5 + [False]).flatmap(
        lambda keep: typical if keep else any_value
    )


@st.composite
def spec_shaped_documents(draw):
    """The keys of a spec document, each with a typical value or any JSON
    value.  A rank stays below 9 when it is an int, so that a parser which
    builds the root datum (a rank-by-rank Cartan matrix) before it checks
    the hw lengths fails here without filling memory."""
    ranks = _typical_or_any(st.integers(1, 3), largest=8)
    letters = _typical_or_any(st.sampled_from("ABCDG"))
    factor = _typical_or_any(st.tuples(letters, ranks).map(list))
    simple = draw(_typical_or_any(st.lists(factor, max_size=2)))
    central = draw(_typical_or_any(st.integers(0, 2)))
    # hw lengths near the declared ambient dimension, when it is small
    ambient = -1
    if type(central) is int and isinstance(simple, list) and all(
        isinstance(f, list) and len(f) == 2 and type(f[1]) is int for f in simple
    ):
        ambient = sum(f[1] for f in simple) + central
    lengths = [ambient, ambient, ambient + 1, 1] if 0 <= ambient <= 8 else [1]
    length = draw(st.sampled_from(lengths))
    hw = st.lists(_typical_or_any(st.integers(0, 2)), min_size=length, max_size=length)
    mult = _typical_or_any(st.sampled_from([2, 1]))
    entry = _typical_or_any(st.fixed_dictionaries({"hw": _typical_or_any(hw),
                                                   "mult": mult}))
    options = st.fixed_dictionaries({}, optional={
        key: _typical_or_any(st.integers(0, 10))
        for key in ("weyl_cap", "hilbert_degree", "seed", "samples")
    })
    doc = {
        "group": draw(_typical_or_any(st.fixed_dictionaries(
            {"simple": st.just(simple), "central_torus_rank": st.just(central)}
        ))),
        "rep": draw(_typical_or_any(st.lists(entry, min_size=1, max_size=2))),
    }
    if draw(st.booleans()):
        doc["options"] = draw(_typical_or_any(options))
    return doc


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(JSON_VALUES, spec_shaped_documents()))
@example({"group": {"simple": [["A", 1]], "central_torus_rank": 10 ** 12},
          "rep": [{"hw": [1], "mult": 2}]})
def test_any_json_document_exits_with_a_documented_code(doc):
    text = json.dumps(doc)
    for argv in (["analyze", text], ["gamma", text], ["hilbert", text, "--degree", "4"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse reads a text like "-1" as a flag
                code = exc.code
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_BUDGET), (
            argv[0], code, err.getvalue()
        )


# Leaves the report encoder must write as `json` does: strings with
# non-ASCII, escaped and control characters (a lone surrogate too), big
# ints, booleans, None, and floats with the signed zeros, a huge value, NaN
# and both infinities; tuples stand for lists.
ENCODER_STRINGS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "é", " ", "\x00\x1f\x7f", '"\\/\b\f\n\r\t', "\ud800", "😀"]),
)
ENCODER_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10 ** 400, 10 ** 400),
    st.floats(), st.sampled_from([0.0, -0.0, 1e300, -1e-300, float("nan"),
                                  float("inf"), float("-inf")]),
    ENCODER_STRINGS,
)
ENCODER_VALUES = st.recursive(
    ENCODER_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(ENCODER_STRINGS, inner, max_size=4),
    ),
    max_leaves=25,
)


def _json_dumps_report(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ENCODER_VALUES)
@example({"b": {}, "a": [[], (), {"": None}], "é": [-0.0, float("nan")]})
def test_report_to_json_writes_the_bytes_of_json_dumps(value):
    assert cli.report_to_json(value) == _json_dumps_report(value)


@pytest.mark.parametrize("value", [{"a": {1}}, [b"x"], {"a": Fraction(1, 2)}, {1: 2}])
def test_report_to_json_refuses_what_it_cannot_write_exactly(value):
    """An unserializable value, or a key that is not a str (which `json`
    would convert), raises TypeError."""
    with pytest.raises(TypeError):
        cli.report_to_json(value)


def test_cli_reports_are_the_bytes_of_json_dumps(monkeypatch):
    """Every report `analyze`, `verify`, `hilbert` and `gamma` write on the
    catalog, as json.dumps(..., sort_keys=True, indent=2) would write it."""
    encode, seen = cli.report_to_json, []

    def recording(report):
        seen.append((report, encode(report)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "report_to_json", recording)
    for name, (spec, _) in catalog().items():
        text = json.dumps(_catalog_doc(spec))
        for argv in (["analyze", text], ["analyze", text, "--trace"], ["gamma", text],
                     ["hilbert", text, "--degree", "6"],
                     ["verify", text, "--seed", "0", "--trace"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == EXIT_OK, (name, argv[0])
            report, written = seen.pop()
            assert out.getvalue() == written == _json_dumps_report(report), (name, argv[0])
    assert not seen
