"""symprep benchmark: three workloads through the public CLI, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md and workloads.py):

  analyze-ladder  cold `symprep analyze` over 23 specs (exact combinatorics)
  verify-models   cold `symprep verify --seed N` over 22 specs (matrix models)
  batch-shared    270 seeded specs analyzed with the library caches kept,
                  as `symprep batch` keeps them; round(seconds / 3) passes

"Cold" means every operation starts with the library's caches empty, as in a
fresh `symprep` process; the cost of starting the interpreter and importing
`symprep` is measured separately, in fresh processes, as `setup_s`.

Every output is checked: exit code, the report against perfbench/reference.json
and the known answers of workloads.py.  The last line printed is one JSON
object {correct, attempted, failed, metrics}; with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced pass.
The run exits 1 if any operation failed.

Times are calibrated seconds (see SpeedProbe): the host's CPU speed changes
by up to 2x within seconds, so each operation's clock time is scaled by the
speed sampled while it ran.  The summary lines give the raw figures too.
"""

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from fractions import Fraction

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

CALIBRATION_REF_S = 0.00065  # the loop's median time on the reference CPU
PROBE_PERIOD_S = 0.02         # process CPU time between speed samples
PROBE_MIN_SAMPLES = 3
SETUP_REPEATS = 7
TAIL_BEYOND = 10              # samples beyond the reported tail percentile
BATCH_PASS_S = 3.0            # clock time of one batch pass on the reference CPU
MIN_BATCH_PASSES = 3


def calibration_loop():
    acc = Fraction(0)
    table = {}
    for i in range(1, 150):
        acc += Fraction(1, i % 89 + 1)
        table[(i % 41, i % 7)] = (acc.numerator % 1000, i)
    return len(table)


def calibrate(repeats=9):
    """Mean time of the calibration loop, measured now."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        calibration_loop()
    return (time.perf_counter() - t0) / repeats


class SpeedProbe:
    """Samples CPU speed while operations run.

    Every PROBE_PERIOD_S of process CPU time a SIGPROF handler times one
    calibration loop.  An operation's clock time, less the handler's time
    inside it, is scaled by CALIBRATION_REF_S over the mean loop time of the
    samples taken during it (widened to the nearest PROBE_MIN_SAMPLES), leaving
    out samples over twice their median, which a stall inflated."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self, start, end):
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        while hi - lo < PROBE_MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at) or start - self.at[lo - 1] <= self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        took = sorted(self.took[lo:hi])
        kept = [t for t in took if t <= 2 * took[len(took) // 2]]  # drop stalls
        return CALIBRATION_REF_S * len(kept) / sum(kept)

    def finish(self, samples):
        """Give every sample its scale and calibrated time `s`."""
        for sample in samples:
            sample["scale"] = self.scale(sample["t0"], sample["t1"])
            sample["s"] = sample["raw"] * sample["scale"]


# -- the program under test ---------------------------------------------------

def import_symprep():
    if not os.path.isfile(os.path.join(SRC, "symprep", "cli.py")):
        raise SystemExit(f"error: no symprep sources under {SRC}")
    sys.path.insert(0, SRC)
    import symprep.cli  # noqa: F401
    import tracing
    return symprep.cli, tracing


def find_caches():
    """Every functools cache and module-level *_CACHE dict in symprep."""
    clears, seen = [], set()
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "symprep" or name.startswith("symprep.")]
    for module in modules:
        for attr, value in vars(module).items():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and id(value) not in seen:
                seen.add(id(value))
                clears.append(clear)
            elif isinstance(value, dict) and attr.upper().endswith("_CACHE") and id(value) not in seen:
                seen.add(id(value))
                clears.append(value.clear)
    return clears


def run_cli(cli, argv):
    """One operation, `symprep <argv>`: (exit code, stdout, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed operation, not a harness crash
            traceback.print_exc()
            code = "exception"
        t1 = time.perf_counter()
    if code != 0:
        sys.stderr.write(f"{' '.join(argv)}: exit {code}\n{err.getvalue()[-2000:]}")
    return code, out.getvalue(), t0, t1


def measure_setup():
    """Median calibrated time of a fresh interpreter importing symprep."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import symprep.cli"], env=env, check=True)
        raw = time.perf_counter() - t0
        after = calibrate()
        times.append(raw * CALIBRATION_REF_S / ((before + after) / 2))
    return statistics.median(times)


# -- checking -----------------------------------------------------------------

def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _get(report, dotted):
    for key in dotted.split("."):
        report = report[key]
    return report


def split_verify(text, seed):
    """(analysis hash, check names, passed, seed problems) of a verify report;
    the seed echo is set aside so the analysis part is seed-independent."""
    report = json.loads(text)
    numeric = report.pop("numeric_verification")
    problems = []
    if report["options"].get("seed") != seed or numeric.get("seed") != seed:
        problems.append("seed echo")
    report["options"]["seed"] = None
    analysis = json.dumps(report, sort_keys=True, indent=2)
    return sha256(analysis), [c["name"] for c in numeric["checks"]], numeric["passed"], problems


class Checker:
    def __init__(self, reference, known):
        self.reference = reference
        self.known = known
        self.attempted = 0
        self.failed = 0

    def check(self, kind, name, doc, code, text, seed=None, expect_text=None):
        """Count one operation and report any failure on stderr."""
        self.attempted += 1
        problems = []
        ref = self.reference[kind].get(workloads.canonical(doc))
        if ref is None:
            problems.append("no reference")
        elif code != ref["exit"]:
            problems.append(f"exit {code}, reference {ref['exit']}")
        elif kind == "analyze":
            if sha256(text) != ref["sha256"]:
                problems.append("report differs from reference")
            if expect_text is not None and text != expect_text:
                problems.append("warm report differs from cold report")
        else:
            digest, names, passed, seed_problems = split_verify(text, seed)
            problems += seed_problems
            if digest != ref["analysis_sha256"]:
                problems.append("analysis differs from reference")
            if names != ref["checks"]:
                problems.append("check names differ from reference")
            if passed is not True:
                problems.append("numeric verification failed")
        if code == 0 and name in self.known:
            report = json.loads(text)
            for key, want in self.known[name].items():
                try:
                    got = _get(report, key)
                except (KeyError, TypeError):
                    got = "missing"
                if got != want:
                    problems.append(f"known answer {key}: got {got!r}, want {want!r}")
        if problems:
            self.failed += 1
            sys.stderr.write(f"FAIL {kind} {name}: {'; '.join(problems)}\n")


# -- workloads ------------------------------------------------------------------

class Bench:
    def __init__(self, reference=None, known=None):
        self.cli, self.tracing = import_symprep()
        self.clears = find_caches()
        self.checker = Checker(reference, known)
        self.tracer = None
        self.op_scale = []
        self.probe = None
        self.samples = []
        os.makedirs(os.path.join(OUT, "specs"), exist_ok=True)

    def cold(self):
        for clear in self.clears:
            clear()
        if self.tracer is not None:
            self.tracer.counts.reset_reuse()
        gc.collect()

    def write_spec(self, name, doc):
        path = os.path.join(OUT, "specs", name.replace("/", "_") + ".json")
        with open(path, "w") as fh:
            fh.write(workloads.canonical(doc))
        return path

    @contextlib.contextmanager
    def measuring(self):
        """Time the operations run inside; calibrate them on exit."""
        self.samples = []
        with SpeedProbe() as self.probe:
            yield
        self.probe.finish(self.samples)

    def op(self, argv, traced=False):
        """Run one timed operation; traced ones get an op id for their spans."""
        if traced:
            self.tracer.op_id = len(self.op_scale)
            self.op_scale.append(None)
            self.tracer.install()
        probe_before = self.probe.spent
        try:
            code, text, t0, t1 = run_cli(self.cli, argv)
        finally:
            if traced:
                self.tracer.uninstall()
        sample = {"raw": t1 - t0 - (self.probe.spent - probe_before), "t0": t0, "t1": t1,
                  "op": self.tracer.op_id if traced else None}
        self.samples.append(sample)
        return code, text, sample


def ladder_argv(bench, kind, specs, seed):
    """Seeded spec order and the command line of each spec."""
    order = sorted(specs)
    random.Random(seed).shuffle(order)
    argv = {}
    for name in order:
        argv[name] = [kind, bench.write_spec(name, specs[name])]
        if kind == "verify":
            argv[name] += ["--seed", str(seed)]
    return order, argv


def ladder(bench, kind, specs, seed, seconds):
    """Cold operations: one whole pass over the specs in seeded order, then,
    until `seconds` of clock time are done, rounds over the specs whose
    summed clock time is below a rising level.  Each spec gets a fair share
    of the run, so the cheap specs that set the median and tail get many
    samples."""
    order, argv = ladder_argv(bench, kind, specs, seed)
    samples = {name: [] for name in order}
    spent = dict.fromkeys(order, 0.0)
    share = seconds / len(order)
    level = 0.0
    first = True
    start = time.perf_counter()
    with bench.measuring():
        while first or time.perf_counter() - start < seconds:
            due = order if first else [name for name in order if spent[name] < level]
            if not due:
                level += share
                continue
            for name in due:
                if not first and time.perf_counter() - start >= seconds:
                    break
                began = time.perf_counter()
                bench.cold()
                code, text, sample = bench.op(argv[name])
                bench.checker.check(kind, name, specs[name], code, text, seed=seed)
                samples[name].append(sample)
                spent[name] += time.perf_counter() - began
            first = False
    return samples, time.perf_counter() - start


def ladder_traced(bench, kind, specs, seed):
    """One pass; each spec runs cold untraced, then cold traced."""
    order, argv = ladder_argv(bench, kind, specs, seed)
    plain, traced = [], []
    with bench.measuring():
        for name in order:
            for is_traced, into in ((False, plain), (True, traced)):
                bench.cold()
                code, text, sample = bench.op(argv[name], traced=is_traced)
                bench.checker.check(kind, name, specs[name], code, text, seed=seed)
                into.append(sample)
    return plain, traced


def batch_prepare(bench, seed):
    """Draw the batch, write its spec files and evaluate each distinct spec
    cold (untimed): the warm reports must equal these byte for byte."""
    drawn = workloads.batch_specs(seed)
    paths, cold_text = {}, {}
    for name, doc in drawn:
        if name in paths:
            continue
        paths[name] = bench.write_spec(name, doc)
        bench.cold()
        code, text, _, _ = run_cli(bench.cli, ["analyze", paths[name]])
        bench.checker.check("analyze", name, doc, code, text)
        cold_text[name] = text
    return drawn, paths, cold_text


def batch_pass(bench, drawn, paths, cold_text, traced=False):
    samples = []
    for name, doc in drawn:
        code, text, sample = bench.op(["analyze", paths[name]], traced=traced)
        bench.checker.check("analyze", name, doc, code, text, expect_text=cold_text[name])
        samples.append(sample)
    return samples


def batch_passes(seconds):
    """The number of passes of a batch run: set by `seconds` alone, never by
    the clock, so that every run weighs the cache-filling first pass alike."""
    return max(MIN_BATCH_PASSES, round(seconds / BATCH_PASS_S))


def batch(bench, seed, seconds):
    """batch_passes(seconds) passes over the drawn specs in one process,
    caches emptied once at the start.  Returns the samples per batch
    position."""
    drawn, paths, cold_text = batch_prepare(bench, seed)
    bench.cold()
    start = time.perf_counter()
    with bench.measuring():
        passes = [batch_pass(bench, drawn, paths, cold_text) for _ in range(batch_passes(seconds))]
    return [list(position) for position in zip(*passes)], time.perf_counter() - start


def batch_traced(bench, seed):
    """From empty caches, four passes untraced; again, four passes traced.
    As in the timed run, the first pass fills the caches."""
    drawn, paths, cold_text = batch_prepare(bench, seed)
    runs = {False: [], True: []}
    with bench.measuring():
        for is_traced in (False, True):
            bench.cold()
            for _ in range(4):
                runs[is_traced] += batch_pass(bench, drawn, paths, cold_text, traced=is_traced)
    return runs[False], runs[True]


# -- metrics ------------------------------------------------------------------

def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(per_op_medians, ops_per_s, setup_s):
    op_tail, pct = tail(per_op_medians)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_op_medians), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_s": (statistics.median(per_op_medians), "s"),
        "op_tail_s": (op_tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, pct


def run_untraced(bench, workload, kind, specs, seed, seconds):
    setup_s = measure_setup()
    if specs is None:
        groups, clock = batch(bench, seed, seconds)
        detail = f"{len(groups[0])} passes of {len(groups)} specs"
    else:
        samples, clock = ladder(bench, kind, specs, seed, seconds)
        groups = list(samples.values())
        detail = f"{sum(map(len, groups))} operations over {len(groups)} specs"
        print("# per-spec median s: " + ", ".join(
            f"{name} {statistics.median(s['s'] for s in group):.4g}"
            for name, group in sorted(samples.items())))
    figures = {}
    for key in ("s", "raw"):
        medians = [statistics.median(s[key] for s in group) for group in groups]
        if specs is None:  # the whole run, cache-filling first pass included
            ops_per_s = sum(map(len, groups)) / sum(s[key] for g in groups for s in g)
        else:
            ops_per_s = len(medians) / sum(medians)
        figures[key] = end_to_end(medians, ops_per_s, setup_s)
    metrics, pct = figures["s"]
    took = bench.probe.took
    print(f"# {workload} seed={seed}: {detail} in {clock:.1f} s clock; {len(took)} speed "
          f"samples, calibration loop median {statistics.median(took) * 1e3:.3f} ms, "
          f"range {min(took) * 1e3:.3f}-{max(took) * 1e3:.3f} ms")
    print("# uncalibrated: " + ", ".join(
        f"{name} {value:.6g}" for name, (value, _) in figures["raw"][0].items()
        if name not in ("setup_s", "peak_rss_mb")))
    print(f"# op_tail_s is p{pct:.1f} of {len(groups)} per-spec median times"
          + ("" if specs is None else "; on a ladder that sits next to op_p50_s, "
             "and the heavy specs show in wall_s"))
    return metrics


def run_traced(bench, workload, kind, specs, seed):
    bench.tracer = bench.tracing.Tracer()
    if specs is None:
        plain, traced = batch_traced(bench, seed)
    else:
        plain, traced = ladder_traced(bench, kind, specs, seed)
    for sample in traced:
        bench.op_scale[sample["op"]] = sample["scale"]
    # spans include the probe's samples, so compare them with the whole op
    traced_wall = sum((s["t1"] - s["t0"]) * s["scale"] for s in traced)
    per_layer, shares = bench.tracer.summarize(bench.op_scale, len(traced), traced_wall)
    per_layer["bench.trace_overhead"] = (
        sum(s["s"] for s in traced) / sum(s["s"] for s in plain) - 1)
    spans = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    bench.tracer.dump(spans, bench.op_scale)
    print(f"# {workload} seed={seed}: {len(traced)} traced operations, "
          f"{len(bench.tracer.fn)} spans written to {os.path.relpath(spans, ROOT)}")
    print("# self-time share per layer: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])))
    units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    return {name: (per_layer[name], units[name]) for name in units}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- reference ------------------------------------------------------------------

def write_reference(bench, path):
    """Record the outputs of every spec any workload can run, cold."""
    reference = {"analyze": {}, "verify": {}}
    docs = {"analyze": {}, "verify": {}}
    for workload, (kind, specs) in workloads.WORKLOADS.items():
        if specs is not None:
            for name, doc in specs.items():
                docs[kind][workloads.canonical(doc)] = (name, doc)
    for group, group_docs in workloads.batch_pool().items():
        for i, doc in enumerate(group_docs):
            docs["analyze"][workloads.canonical(doc)] = (f"{group}/{i}", doc)
    for kind in ("analyze", "verify"):
        for key, (name, doc) in sorted(docs[kind].items()):
            argv = [kind, bench.write_spec(name, doc)] + (["--seed", "0"] if kind == "verify" else [])
            bench.cold()
            code, text, _, _ = run_cli(bench.cli, argv)
            if code != 0:
                raise SystemExit(f"error: {kind} {name} exits {code}; no reference written")
            if kind == "analyze":
                reference[kind][key] = {"exit": code, "sha256": sha256(text)}
            else:
                digest, names, passed, _ = split_verify(text, 0)
                reference[kind][key] = {"exit": code, "analysis_sha256": digest,
                                        "checks": names, "passed": passed}
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(len(v) for v in reference.values())} references to {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference outputs of the current sources and exit")
    args = parser.parse_args(argv)
    reference_path = os.path.join(HERE, "reference.json")
    if args.write_reference:
        write_reference(Bench(), reference_path)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    with open(reference_path) as fh:
        reference = json.load(fh)
    known = workloads.known_answers()
    kind, specs = workloads.WORKLOADS[args.workload]
    seed = args.seed % 2 ** 32
    bench = Bench(reference, known)
    if args.trace:
        metrics = run_traced(bench, args.workload, kind, specs, seed)
    else:
        metrics = run_untraced(bench, args.workload, kind, specs, seed, args.seconds)
    checker = bench.checker
    correct = checker.failed == 0
    for name, (value, unit) in metrics.items():
        print(f"# {name:32s} {value:.6g} {unit}")
    print(f"# fail_ratio {checker.failed}/{checker.attempted} = "
          f"{checker.failed / max(checker.attempted, 1):.6g}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
