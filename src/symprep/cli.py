"""Command line interface: spec-file ingestion and stable reports.

Spec files are JSON documents:

    {
      "group": {"simple": [["A", 1]], "central_torus_rank": 0},
      "rep": [{"hw": [3], "mult": 1}],
      "options": {"weyl_cap": 1000000, "hilbert_degree": 8,
                  "seed": 0, "samples": 20}
    }

Highest weights are given in fundamental-weight coordinates per declared
factor followed by the central charges.  Unknown keys are rejected with
field-addressed messages.  Exit codes: 0 success, 1 failed numeric check,
2 parse/validation failure, 3 budget exceeded, 5 a defect (inconsistency,
an unrealizable reduction stage or an unexpected exception).
"""

import argparse
import dataclasses
import functools
import io
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from . import __version__
from .errors import (
    BudgetExceeded,
    InternalConsistencyError,
    NumericalDegeneracy,
    SpecFormatError,
    StageNotRealizable,
    SymprepError,
    ValidationError,
    WeylCapExceeded,
    decimal,
)
from .reduction import DEFAULT_HILBERT_DEGREE, analyze, reduce_to_gamma
from .reps import DEFAULT_SYM_DEGREE_BUDGET, invariant_dims, validate_symplectic_spec
from .rootdata import DEFAULT_WEYL_CAP, build_root_datum, check_declared_weyl_cap

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_DEFECT = 5

# smallest accepted value per option; None leaves it unbounded
_OPTION_MINIMUM = {"weyl_cap": None, "hilbert_degree": 0, "seed": 0, "samples": 1}


def _is_int(x):
    """A JSON integer; bool is an int subclass, so true and false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _option_problem(field, key, value):
    """Why value is not acceptable for option key, or None; field names the
    value in the message."""
    if not _is_int(value):
        return f"{field} must be an integer"
    low = _OPTION_MINIMUM[key]
    if low is not None and value < low:
        return f"{field} must be at least {low}"
    return None


def _checked_option(field, key, value):
    problem = _option_problem(field, key, value)
    if problem:
        raise SpecFormatError(problem)
    return value


def _env_default(name, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise SpecFormatError(f"environment variable {name} must be an integer")


def default_options():
    return {
        "weyl_cap": _env_default("SYMPREP_WEYL_CAP", DEFAULT_WEYL_CAP),
        "hilbert_degree": _env_default("SYMPREP_HILBERT_DEGREE", DEFAULT_HILBERT_DEGREE),
        "seed": _env_default("SYMPREP_SEED", 0),
        "samples": _env_default("SYMPREP_SAMPLES", 20),
    }


def parse_spec(source):
    """Parse a spec document (path or raw JSON text) into (spec, options)."""
    if isinstance(source, str) and "\n" not in source and os.path.exists(source):
        try:
            with open(source) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecFormatError(f"cannot read {source}: {exc}")
    else:
        text = source
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an int literal past Python's
        # digit limit; RecursionError, arrays or objects nested too deep
        raise SpecFormatError(f"not valid JSON: {exc}")
    problems = []
    if not isinstance(doc, dict):
        raise SpecFormatError("top level must be an object")
    for key in doc:
        if key not in ("group", "rep", "options"):
            problems.append(f"unknown key {key!r} at top level")
    group = doc.get("group")
    if not isinstance(group, dict):
        problems.append("missing or malformed 'group' object")
        raise SpecFormatError(problems)
    for key in group:
        if key not in ("simple", "central_torus_rank"):
            problems.append(f"unknown key {key!r} in group")
    simple = group.get("simple", [])
    central = group.get("central_torus_rank", 0)
    if not isinstance(simple, list):
        problems.append("group.simple must be a list of [letter, rank] pairs")
    if not _is_int(central) or central < 0:
        problems.append("group.central_torus_rank must be a nonnegative integer")
    factors = []
    if isinstance(simple, list):
        for i, item in enumerate(simple):
            if (
                not isinstance(item, (list, tuple))
                or len(item) != 2
                or not isinstance(item[0], str)
                or not _is_int(item[1])
            ):
                problems.append(f"group.simple[{i}] must be [letter, rank]")
                continue
            factors.append((item[0], item[1]))
    rep = doc.get("rep")
    if not isinstance(rep, list) or not rep:
        problems.append("missing or empty 'rep' list")
        raise SpecFormatError(problems)
    entries = []
    for i, item in enumerate(rep):
        if not isinstance(item, dict):
            problems.append(f"rep[{i}] must be an object")
            continue
        for key in item:
            if key not in ("hw", "mult"):
                problems.append(f"unknown key {key!r} in rep[{i}]")
        hw = item.get("hw")
        mult = item.get("mult", 1)
        if not isinstance(hw, list) or not all(_is_int(x) for x in hw):
            problems.append(f"rep[{i}].hw must be a list of integers")
            continue
        if not _is_int(mult) or mult < 1:
            problems.append(f"rep[{i}].mult must be a positive integer")
            continue
        entries.append((tuple(hw), mult))
    options = default_options()
    raw_opts = doc.get("options", {})
    if not isinstance(raw_opts, dict):
        problems.append("'options' must be an object")
    else:
        for key, val in raw_opts.items():
            if key not in _OPTION_MINIMUM:
                problems.append(f"unknown key {key!r} in options")
            else:
                options[key] = val
    for key, val in options.items():
        problem = _option_problem(f"options.{key}", key, val)
        if problem:
            problems.append(problem)
    if problems:
        raise SpecFormatError(problems)
    if options["hilbert_degree"] > DEFAULT_SYM_DEGREE_BUDGET:
        raise BudgetExceeded(
            f"options.hilbert_degree = {options['hilbert_degree']} exceeds the "
            f"symmetric-power degree cap {DEFAULT_SYM_DEGREE_BUDGET}"
        )
    ambient = sum(n for _, n in factors) + central
    for i, (hw, _) in enumerate(entries):
        if len(hw) != ambient:
            raise SpecFormatError(
                f"rep[{i}].hw has length {len(hw)}, ambient dimension is {ambient}"
            )
    # with every declared rank at least 1, each is at most the hw length, so
    # the order formulas are cheap; a rank below 1 is left to build_root_datum
    if all(n >= 1 for _, n in factors):
        check_declared_weyl_cap(factors, options["weyl_cap"])
    try:
        datum = build_root_datum(factors, central)
    except SymprepError as exc:
        raise SpecFormatError(f"group: {exc}")
    try:
        spec = validate_symplectic_spec(datum, entries)
    except ValidationError as exc:
        index = next(
            (i for i, (hw, _) in enumerate(entries) if tuple(hw) == exc.weight),
            None,
        )
        where = f" at rep[{index}]" if index is not None else ""
        raise ValidationError(exc.weight, f"{exc.code}({list(exc.weight)}){where}")
    return spec, options, {"group": {"simple": [list(f) for f in factors],
                                     "central_torus_rank": central},
                           "rep": [{"hw": list(h), "mult": m} for h, m in entries]}


def _jsonify(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    return x


def build_report(echo, options, analysis, trace=False, numeric=None):
    lw = analysis.little_weyl
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": echo,
        "options": dict(sorted(options.items())),
        "rk_s": analysis.rk_s,
        "c_s": analysis.c_s,
        "mf": analysis.mf,
        "a_star_basis": _jsonify(analysis.a_star_basis),
        "A_rank": analysis.rk_s,
        "levi_L": analysis.levi.type_string(),
        "sp_factors": list(analysis.sp_factor_sizes),
        "gamma": {
            "order": analysis.gamma.gamma_order,
            "reflection_count": len(analysis.gamma.reflections),
        },
        "little_weyl": {
            "status": lw.status,
            "order": lw.order,
            "degrees": _jsonify(lw.degrees) if lw.degrees is not None else None,
            "candidates": _jsonify(lw.candidates) if lw.candidates else None,
        },
        "isotropy": {
            "dim_H": analysis.isotropy.dim_h,
            "parts": list(analysis.isotropy.sp_parts),
            "constraint": analysis.isotropy.reductive_constraint,
        },
    }
    if trace:
        report["trace"] = [
            {
                "chi": _jsonify(step.chosen_chi),
                "delta_u_size": len(step.delta_u),
                "levi_type": step.levi.type_string(),
                "dim_S": step.s_spec.dim,
            }
            for step in analysis.trace
        ]
    if numeric is not None:
        report["numeric_verification"] = numeric
    return report


def _json_append(x, out, pad):
    """Append the pieces of x as `json.dumps(x, sort_keys=True, indent=2)`
    writes it at indent pad, tuples as lists; keys must be str."""
    if isinstance(x, str):
        out.append(_json_str(x))
    elif x is None or x is True or x is False:
        out.append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        out.append(decimal(x))
    elif not isinstance(x, (dict, list, tuple)):
        out.append(json.dumps(x))  # a float, NaN and infinities too; else TypeError
    elif not x:
        out.append("{}" if isinstance(x, dict) else "[]")
    else:
        inner, keyed = pad + "  ", isinstance(x, dict)
        sep = ("{\n" if keyed else "[\n") + inner
        for item in sorted(x) if keyed else x:
            out.append(sep)
            if keyed:
                out += (_json_str(item), ": ")
                item = x[item]
            _json_append(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + ("}" if keyed else "]"))


def report_to_json(report):
    """The bytes of `json.dumps(report, sort_keys=True, indent=2) + "\\n"`."""
    out = []
    _json_append(report, out, "")
    return "".join(out) + "\n"


def _text(x):
    """repr(x) for the ints, strs, bools, None, lists and dicts of a report,
    with every int written by `decimal`, so no int is too long to print."""
    if isinstance(x, bool) or not isinstance(x, (int, list, dict)):
        return repr(x)
    if isinstance(x, int):
        return decimal(x)
    if isinstance(x, dict):
        return "{" + ", ".join(f"{_text(k)}: {_text(v)}" for k, v in x.items()) + "}"
    return "[" + ", ".join(map(_text, x)) + "]"


def report_to_text(report):
    gamma, iso = report["gamma"], report["isotropy"]
    lines = [
        f"symplectic rank      : {_text(report['rk_s'])}",
        f"symplectic complexity: {_text(report['c_s'])}",
        f"multiplicity free    : {report['mf']}",
        f"a* basis             : {_text(report['a_star_basis'])}",
        f"Levi L               : {report['levi_L']}",
        f"Sp factors           : {_text(report['sp_factors'])}",
        f"Gamma                : order {_text(gamma['order'])}, "
        f"{_text(gamma['reflection_count'])} reflections",
        f"little Weyl group    : {_text(report['little_weyl'])}",
        f"isotropy             : dim H = {_text(iso['dim_H'])}, "
        f"parts {_text(iso['parts'])}",
    ]
    if "trace" in report:
        for i, step in enumerate(report["trace"]):
            lines.append(
                f"step {i}: chi={_text(step['chi'])} "
                f"|Delta_u|={_text(step['delta_u_size'])} "
                f"M={step['levi_type']} dim S={_text(step['dim_S'])}"
            )
    if "numeric_verification" in report:
        nv = report["numeric_verification"]
        lines.append(
            f"numeric verification : passed={nv['passed']} seed={_text(nv['seed'])}"
        )
        for chk in nv["checks"]:
            lines.append(
                f"  {chk['name']}: residual {chk['residual']:.3e} "
                f"(tol {chk['tolerance']:.0e}) {'ok' if chk['passed'] else 'FAIL'}"
            )
    return "\n".join(lines) + "\n"


def _exit_code_for(exc):
    if isinstance(exc, (WeylCapExceeded, BudgetExceeded)):
        return EXIT_BUDGET
    if isinstance(exc, NumericalDegeneracy):
        return EXIT_CHECK_FAILED
    if isinstance(exc, (InternalConsistencyError, StageNotRealizable)):
        return EXIT_DEFECT
    return EXIT_VALIDATION


def _command(run):
    """The CLI contract around run(args, out, err) -> exit code: out and err
    default to the current sys.stdout and sys.stderr, and a SymprepError
    becomes an `error:` line on err and its exit code; any other exception
    is a defect: one `error: internal` line and EXIT_DEFECT."""

    @functools.wraps(run)
    def command(args, out=None, err=None):
        out = out if out is not None else sys.stdout
        err = err if err is not None else sys.stderr
        try:
            return run(args, out, err)
        except SymprepError as exc:
            print(f"error: {exc}", file=err)
            return _exit_code_for(exc)
        except Exception as exc:
            print(f"error: internal {type(exc).__name__}: {exc}", file=err)
            return EXIT_DEFECT

    return command


@_command
def cmd_analyze(args, out, err):
    spec, options, echo = parse_spec(args.spec)
    analysis = analyze(
        spec,
        weyl_cap=options["weyl_cap"],
        hilbert_degree=options["hilbert_degree"],
    )
    report = build_report(echo, options, analysis, trace=args.trace)
    out.write(report_to_text(report) if args.text else report_to_json(report))
    return EXIT_OK


@_command
def cmd_verify(args, out, err):
    # numpy reads these when it is first imported, here; the models' matrices
    # are small, so more BLAS threads only contend.  A value already set wins.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .verify import check_samples, verify_suite

    spec, options, echo = parse_spec(args.spec)
    for key in ("seed", "samples"):
        if getattr(args, key) is not None:
            options[key] = _checked_option(f"--{key}", key, getattr(args, key))
    check_samples(
        options["samples"],
        "--samples" if args.samples is not None else "options.samples",
    )
    analysis = analyze(
        spec,
        weyl_cap=options["weyl_cap"],
        hilbert_degree=options["hilbert_degree"],
    )
    result = verify_suite(
        spec, seed=options["seed"], samples=options["samples"],
        analysis=analysis,
    )
    numeric = {
        "passed": result.passed,
        "seed": result.seed,
        "samples": result.samples,
        "checks": [dataclasses.asdict(c) for c in result.checks],
    }
    report = build_report(echo, options, analysis, trace=args.trace, numeric=numeric)
    out.write(report_to_text(report) if args.text else report_to_json(report))
    if not result.passed:
        names = ", ".join(c.name for c in result.failing())
        print(f"error: numeric checks failed: {names}", file=err)
        return EXIT_CHECK_FAILED
    return EXIT_OK


@_command
def cmd_hilbert(args, out, err):
    spec, options, echo = parse_spec(args.spec)
    degree = _checked_option("--degree", "hilbert_degree", args.degree)
    dims = invariant_dims(spec, degree, weyl_cap=options["weyl_cap"])
    out.write(report_to_json({
        "schema_version": SCHEMA_VERSION,
        "input": echo,
        "degree": degree,
        "invariant_dims": dims,
    }))
    return EXIT_OK


@_command
def cmd_gamma(args, out, err):
    spec, options, echo = parse_spec(args.spec)
    _, td, gamma, _ = reduce_to_gamma(spec, weyl_cap=options["weyl_cap"])
    out.write(report_to_json({
        "schema_version": SCHEMA_VERSION,
        "input": echo,
        "a_star_basis": _jsonify(td.a_star_basis),
        "gamma_order": gamma.gamma_order,
        "reflection_count": len(gamma.reflections),
        "normalizer_order": gamma.normalizer_order,
        "centralizer_order": gamma.centralizer_order,
        "reflections": _jsonify(gamma.reflections),
    }))
    return EXIT_OK


@_command
def cmd_batch(args, out, err):
    try:
        names = os.listdir(args.directory)
    except OSError as exc:
        raise SpecFormatError(f"cannot read directory {args.directory}: {exc.strerror}")
    paths = sorted(
        os.path.join(args.directory, p)
        for p in names
        if p.endswith(".json")
    )
    if not paths:
        raise SpecFormatError(f"no .json spec files in {args.directory}")
    worst = EXIT_OK
    for path in paths:
        ns = argparse.Namespace(spec=path, text=False, trace=False)
        code = cmd_analyze(ns, out=io.StringIO(), err=err)
        status = "ok" if code == EXIT_OK else f"exit {code}"
        out.write(f"{path}: {status}\n")
        worst = max(worst, code)
    return worst


def make_parser():
    parser = argparse.ArgumentParser(
        prog="symprep",
        description="Structural analysis of symplectic representations of "
        "reductive groups.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="combinatorial analysis of a spec file")
    p.add_argument("spec")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--json", dest="text", action="store_false", default=False)
    mode.add_argument("--text", dest="text", action="store_true")
    p.add_argument("--trace", action="store_true", help="include the reduction trace")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="numeric verification on the matrix model")
    p.add_argument("spec")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--json", dest="text", action="store_false", default=False)
    mode.add_argument("--text", dest="text", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hilbert", help="invariant dimensions per degree")
    p.add_argument("spec")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("gamma", help="normalizer/centralizer data for a*")
    p.add_argument("spec")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("batch", help="analyze every .json file in a directory")
    p.add_argument("directory")
    p.set_defaults(func=cmd_batch)
    return parser


# built once at import: parsing leaves it unchanged, and building it takes
# about a millisecond, a large share of one small spec's analysis
_PARSER = make_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
