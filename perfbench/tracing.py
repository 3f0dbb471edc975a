"""Layer spans recorded from outside the library.

`Tracer.install()` replaces each public function of each `symprep` module by
a wrapper that records a span (function, start, end, parent span, operation
id), rebinding the name in every `symprep` module that imported it, so calls
between modules are seen too.  `uninstall()` puts the originals back.  Spans
stay in memory; `summarize()` turns them into per-layer self times and counts,
and `dump()` writes them out.

Not wrapped: the entry points (`cli.main`, `cli.cmd_*`), whose time is the
operation itself, and the per-element arithmetic of `linalg` (`canon`,
`vdot`, `mat_mul`, ...), called millions of times per operation; their time
counts to the layer that calls them.
"""

import importlib
import inspect
import json
import time
from array import array

LAYERS = (
    "rootdata", "reps", "classify", "reduction", "matrixrep",
    "numeric", "sections", "verify", "cli", "linalg",
)
ENTRY_POINTS = {"main", "cmd_analyze", "cmd_verify", "cmd_hilbert", "cmd_gamma", "cmd_batch"}
LINALG_PRIMITIVES = {
    "canon", "cvec", "vdot", "vadd", "vsub", "vneg", "vscale", "is_zero_vec",
    "transpose", "mat_mul", "mat_vec", "mat_add", "mat_sub", "mat_scale",
    "identity", "zeros", "comm", "kron", "cmat", "blockdiag",
}
SOLVES = ("rref", "nullspace", "lin_solve", "in_span", "solve_columns", "rank")

# metric -> functions whose self time it sums
FUNCTION_TIMES = {
    "reps.sympow_s": ("reps.symmetric_power_multisets",),
    "reps.invdims_s": ("reps.invariant_dims",),
    "reps.freudenthal_s": ("reps.freudenthal_multiplicities",),
    "reps.validate_s": ("reps.validate_symplectic_spec", "reps.duality_class"),
    "reduction.reduce_s": (
        "reduction.run_reduction", "reduction.reduce_step",
        "reduction.choose_nonterminal_weight",
    ),
    "reduction.gamma_s": ("reduction.compute_gamma", "reduction.centralizer_levi"),
    "reduction.little_weyl_s": (
        "reduction.determine_little_weyl", "reduction.reflection_subgroups",
        "reduction.molien_series", "reduction.reflection_degrees",
    ),
    "matrixrep.build_s": ("matrixrep.build_rep",),
    "cli.parse_s": ("cli.parse_spec", "cli.default_options", "cli.make_parser"),
    "cli.report_s": ("cli.build_report", "cli.report_to_json", "cli.report_to_text"),
    "linalg.solve_s": tuple(f"linalg.{n}" for n in SOLVES),
}


def _modules():
    return {name: importlib.import_module(f"symprep.{name}") for name in LAYERS}


class Counts:
    """Work counts taken from the arguments and results of wrapped calls.

    A reuse ratio is the share of calls whose key (the datum; for Freudenthal
    the datum and weight) was already computed since the harness last
    emptied the library caches and called `reset_reuse()`: the calls the
    library's caches could serve."""

    def __init__(self):
        self.n = dict.fromkeys(
            ("weyl_calls", "weyl_reused", "weyl_elements", "sympow_support",
             "freudenthal_calls", "freudenthal_reused", "gamma_reflections",
             "builds", "model_dim", "moment_evals", "classify_calls",
             "solve_calls"), 0)
        self._weyl_keys = set()
        self._freudenthal_keys = set()

    def reset_reuse(self):
        self._weyl_keys.clear()
        self._freudenthal_keys.clear()

    def hook(self, qualname):
        """Return the result observer for one function, or None."""
        n = self.n
        if qualname == "rootdata.enumerate_weyl":
            def seen(args, kwargs, result):
                n["weyl_calls"] += 1
                n["weyl_reused"] += args[0] in self._weyl_keys
                self._weyl_keys.add(args[0])
                n["weyl_elements"] += len(result)
            return seen
        if qualname == "reps.symmetric_power_multisets":
            def seen(args, kwargs, result):
                n["sympow_support"] += sum(len(h) for h in result)
            return seen
        if qualname == "reps.freudenthal_multiplicities":
            def seen(args, kwargs, result):
                key = (args[0], tuple(args[1]))
                n["freudenthal_calls"] += 1
                n["freudenthal_reused"] += key in self._freudenthal_keys
                self._freudenthal_keys.add(key)
            return seen
        if qualname == "reduction.compute_gamma":
            def seen(args, kwargs, result):
                n["gamma_reflections"] += len(result.reflection_indices)
            return seen
        if qualname == "matrixrep.build_rep":
            def seen(args, kwargs, result):
                n["builds"] += 1
                n["model_dim"] += result.dim
            return seen
        if qualname == "numeric.moment_coords":
            return self._counter("moment_evals")
        if qualname.startswith("classify."):
            return self._counter("classify_calls")
        if qualname in {f"linalg.{s}" for s in SOLVES}:
            return self._counter("solve_calls")
        return None

    def _counter(self, key):
        n = self.n

        def seen(args, kwargs, result):
            n[key] += 1
        return seen


class Tracer:
    def __init__(self):
        self.names = []             # function index -> "layer.function"
        self.fn = array("i")        # per span: function index
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")    # span index, -1 at the top of an operation
        self.op = array("i")        # operation id
        self.op_id = -1
        self.counts = Counts()
        self._stack = []
        self._wrappers = {}         # id(original) -> wrapper
        self._bindings = []         # (module, attribute, original)
        modules = _modules()
        for layer, module in modules.items():
            for attr, value in sorted(vars(module).items()):
                if self._wrappable(layer, attr, value, module):
                    self._wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for module in [importlib.import_module("symprep"), *modules.values()]:
            for attr, value in vars(module).items():
                if id(value) in self._wrappers:
                    self._bindings.append((module, attr, value))

    @staticmethod
    def _wrappable(layer, attr, value, module):
        if attr.startswith("_") or inspect.isclass(value) or not callable(value):
            return False
        if getattr(value, "__module__", None) != module.__name__:
            return False
        if layer == "cli" and attr in ENTRY_POINTS:
            return False
        return not (layer == "linalg" and attr in LINALG_PRIMITIVES)

    def _wrap(self, qualname, fn):
        index = len(self.names)
        self.names.append(qualname)
        observe = self.counts.hook(qualname)
        stack, clock = self._stack, time.perf_counter
        fns, starts, ends, parents, ops = self.fn, self.start, self.end, self.parent, self.op

        def traced(*args, **kwargs):
            span = len(fns)
            fns.append(index)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, original in self._bindings:
            setattr(module, attr, self._wrappers[id(original)])

    def uninstall(self):
        for module, attr, original in self._bindings:
            setattr(module, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self, op_scale):
        """Self time per span, scaled by its operation's factor."""
        n = len(self.fn)
        child = [0.0] * n
        out = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(n):
            out[i] = (self.end[i] - self.start[i] - child[i]) * op_scale[self.op[i]]
        return out

    def summarize(self, op_scale, ops, op_seconds):
        """Per-layer metrics.  `op_scale[k]` converts operation k's clock to
        calibrated seconds, `ops` is the number of traced operations and
        `op_seconds` their calibrated wall time."""
        self_t = self.self_times(op_scale)
        by_fn = [0.0] * len(self.names)
        for i, t in enumerate(self_t):
            by_fn[self.fn[i]] += t
        by_name = dict(zip(self.names, by_fn))
        metrics = {}
        for layer in ("rootdata", "classify", "numeric", "sections", "verify"):
            metrics[f"{layer}.self_s"] = sum(
                t for name, t in by_name.items() if name.startswith(layer + ".")
            )
        for metric, fns in FUNCTION_TIMES.items():
            metrics[metric] = sum(by_name.get(f, 0.0) for f in fns)
        n = self.counts.n
        metrics.update({
            "rootdata.weyl_calls": n["weyl_calls"],
            "rootdata.weyl_elements": n["weyl_elements"],
            "rootdata.weyl_reuse_ratio": n["weyl_reused"] / max(n["weyl_calls"], 1),
            "reps.sympow_support": n["sympow_support"],
            "reps.freudenthal_calls": n["freudenthal_calls"],
            "reps.freudenthal_reuse_ratio": n["freudenthal_reused"] / max(n["freudenthal_calls"], 1),
            "classify.calls": n["classify_calls"],
            "reduction.gamma_reflections": n["gamma_reflections"],
            "matrixrep.builds": n["builds"] / max(ops, 1),
            "matrixrep.model_dim": n["model_dim"],
            "numeric.moment_evals": n["moment_evals"],
            "linalg.solve_calls": n["solve_calls"],
        })
        covered = sum(self_t)
        metrics["bench.unattributed_share"] = max(op_seconds - covered, 0.0) / max(op_seconds, 1e-12)
        layer_share = {
            layer: sum(t for name, t in by_name.items() if name.startswith(layer + ".")) / max(op_seconds, 1e-12)
            for layer in LAYERS
        }
        return metrics, layer_share

    def dump(self, path, op_scale):
        """Write every span as one JSON line (name, start, end, parent, op),
        with clock seconds from the first span; the first line gives each
        operation's factor to calibrated seconds."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"op_scale": op_scale}) + "\n")
            for i in range(len(self.fn)):
                fh.write(json.dumps({
                    "span": i, "name": self.names[self.fn[i]],
                    "start": self.start[i] - t0, "end": self.end[i] - t0,
                    "parent": self.parent[i], "op": self.op[i],
                }) + "\n")
