"""Self-test of the benchmark harness, at a tiny run length.

    python3 perfbench/selftest.py

Checks that
  1. a clean run passes (exit 0, failed 0);
  2. a tampered reference hash, for analyze and for verify, fails the run;
  3. a wrong known answer fails the run;
  4. the count metrics repeat exactly across two traced runs of one seed;
  5. without the library sources the benchmark exits nonzero and prints no
     result.
Each check runs in its own checkout under .perfbench_out/selftest/: a copy
of perfbench/, BENCHMARK.json and src/, with a few cheap specs per ladder and,
where the check needs it, a tampered reference.json or a wrong known answer.
Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out", "selftest")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

COUNTS = (
    "rootdata.weyl_calls", "rootdata.weyl_elements", "reps.sympow_support",
    "reps.freudenthal_calls", "classify.calls", "reduction.gamma_reflections",
    "matrixrep.builds", "matrixrep.model_dim", "numeric.moment_evals",
    "linalg.solve_calls",
)


# Appended to a copy's workloads.py: a ladder of a few cheap specs each.
TRIM = """
def _trim(workload, names):
    kind, specs = WORKLOADS[workload]
    WORKLOADS[workload] = (kind, {name: specs[name] for name in names})


_trim("analyze-ladder", ("sl2_cubic", "torus_pair", "C3_wedge3"))
_trim("verify-models", ("sl2_cubic", "sl3_std_dual"))
"""

# Appended after TRIM: one known answer made wrong.
WRONG_ANSWER = """
_known_answers = known_answers


def known_answers():
    out = _known_answers()
    out["sl2_cubic"]["rk_s"] = 2
    return out
"""


def make_copy(name, workloads_tail="", with_sources=True):
    """A checkout in OUT/name: perfbench/ with `workloads_tail` appended to
    its workloads.py, BENCHMARK.json and (unless not `with_sources`) src/."""
    root = os.path.join(OUT, name)
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(root, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(root, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(root, "perfbench", "workloads.py"), "a") as fh:
        fh.write(workloads_tail)
    return root


def bench(root, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main():
    os.makedirs(OUT, exist_ok=True)
    failures = []

    def expect(label, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    analyze = ("--workload", "analyze-ladder")
    verify = ("--workload", "verify-models")

    tiny = make_copy("tiny", TRIM)
    for label, args in (("analyze", analyze), ("verify", verify)):
        code, result = bench(tiny, *args)
        expect(f"clean {label} run passes", code == 0 and result and result["failed"] == 0)

    tampered = make_copy("tampered", TRIM)
    path = os.path.join(tampered, "perfbench", "reference.json")
    with open(path) as fh:
        reference = json.load(fh)
    cubic = workloads.canonical(workloads.CATALOG["sl2_cubic"][0])
    reference["analyze"][cubic]["sha256"] = "0" * 64
    reference["verify"][cubic]["analysis_sha256"] = "0" * 64
    with open(path, "w") as fh:
        json.dump(reference, fh)
    for label, args in (("analyze", analyze), ("verify", verify)):
        code, result = bench(tampered, *args)
        expect(f"tampered {label} reference fails the run",
               code != 0 and result and result["failed"] >= 1 and not result["correct"])

    wrong = make_copy("wrong-answer", TRIM + WRONG_ANSWER)
    code, result = bench(wrong, *analyze)
    expect("wrong known answer fails the run",
           code != 0 and result and result["failed"] >= 1 and not result["correct"])

    for label, args in (("analyze", analyze), ("verify", verify),
                        ("batch", ("--workload", "batch-shared"))):
        first, second = (bench(tiny, *args, "--trace", "1", "--seed", "5")[1] for _ in range(2))
        same = first and second and all(
            first["metrics"][name]["value"] == second["metrics"][name]["value"] for name in COUNTS
        )
        expect(f"{label} counts repeat exactly across two traced runs", same)

    bare = make_copy("bare", with_sources=False)
    code, result = bench(bare, "--workload", "batch-shared", "--seed", "1")
    expect("without sources: nonzero exit and no result", code != 0 and result is None)

    for name in ("tiny", "tampered", "wrong-answer", "bare"):
        shutil.rmtree(os.path.join(OUT, name))
    print("selftest:", "FAILED " + ", ".join(failures) if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
