"""Checks on the source tree itself."""

import ast
import importlib
import importlib.util
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "symprep"


def test_no_assert_statements_in_the_package():
    """`python -O` strips assert statements, so a cross-check written as one
    would silently vanish; the package raises InternalConsistencyError."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _loaded_at_import(path):
    """Dotted names the import statements of a module load when it is
    imported: every import outside function bodies (class bodies and
    top-level if/try blocks run at import too); `from m import a` counts
    as m and m.a, since a may be a submodule."""
    names = set()
    stack = list(ast.parse(path.read_text(), filename=str(path)).body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = "symprep" + (f".{node.module}" if node.module else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def test_only_the_float_layer_imports_numpy_at_module_level():
    """`import symprep.cli` loads the exact layers only.  numpy and the float
    layer (`numeric`, `sections`, `verify`) load on the first `verify`, whose
    command imports them; no other module may import them at module level."""
    float_layer = {"symprep.numeric", "symprep.sections", "symprep.verify"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}: {name}"
        for path in paths
        if f"symprep.{path.stem}" not in float_layer
        for name in sorted(_loaded_at_import(path))
        if name.split(".")[0] == "numpy"
        or ".".join(name.split(".")[:2]) in float_layer
    ]
    assert found == []


README = SRC.parent.parent / "README.md"

# backticked names in README's module table that are not Python attributes:
# notation (Gamma, e, f, dim) and the model's float mirrors (rep.lie, rep.j)
README_NOTATION = {"Gamma", "e", "f", "dim", "rep.lie", "rep.j"}


def _has(obj, dotted):
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _resolves(module, name):
    """Whether a dotted name is an attribute chain of the module, of a class
    in it, or of another symprep module (`matrixrep.hyperbolic_pair`)."""
    owners = [module] + [c for _, c in inspect.getmembers(module, inspect.isclass)]
    if any(_has(owner, name) for owner in owners):
        return True
    head, _, rest = name.partition(".")
    if not rest or importlib.util.find_spec(f"symprep.{head}") is None:
        return False
    return _has(importlib.import_module(f"symprep.{head}"), rest)


def test_readme_module_table_names_resolve():
    """Every backticked Python name in README's module table is an attribute
    of its row's module (or of a class there), so a deleted helper does not
    stay in the docs."""
    rows = [
        line.split("|")[1:3]
        for line in README.read_text().splitlines()
        if line.startswith("| `symprep.")
    ]
    assert rows
    missing = []
    for cell, text in rows:
        modname = cell.strip().strip("`")
        module = importlib.import_module(modname)
        for name in re.findall(r"`([^`]+)`", text):
            if not re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", name):
                continue
            if name not in README_NOTATION and not _resolves(module, name):
                missing.append(f"{modname}: {name}")
    assert missing == []


ROOT = SRC.parent.parent

# dataclasses whose fields are read as a whole, through `dataclasses.asdict`
READ_AS_A_WHOLE = {"CheckResult"}


def _is_dataclass_def(node):
    """Whether the node defines a class decorated `@dataclass` or
    `@dataclass(...)`."""
    calls = [d.func if isinstance(d, ast.Call) else d
             for d in getattr(node, "decorator_list", ())]
    return isinstance(node, ast.ClassDef) and any(
        getattr(d, "id", None) == "dataclass" for d in calls
    )


def test_every_dataclass_field_is_read():
    """A record field that no code reads is dead weight that every
    constructor still fills.  Each field of a `symprep` dataclass must be
    read somewhere in the package or the benchmark, as an attribute
    (`x.field`) or by name (a string naming it, as for `getattr`); a read in
    the tests alone does not count.  A dict display's key writes rather
    than reads, so it does not count: the report key "matrices" is not a
    read of a `matrices` field."""
    trees = [
        ast.parse(path.read_text(), filename=str(path))
        for folder in ("src", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert trees
    read = set()
    for tree in trees:
        nodes = list(ast.walk(tree))
        keys = {id(k) for node in nodes if isinstance(node, ast.Dict) for k in node.keys}
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in keys):
                read.add(node.value)
    fields = [
        f"{path.stem}.{node.name}.{item.target.id}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_dataclass_def(node) and node.name not in READ_AS_A_WHOLE
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    assert fields
    assert [f for f in fields if f.rsplit(".", 1)[1] not in read] == []


def test_every_dataclass_field_is_read_while_the_cli_runs(monkeypatch):
    """The run-time side of the guard above, which matches a field by its
    name alone: every field of every `symprep` dataclass is read, on its own
    class, while the CLI runs `analyze --trace --text`, `gamma`, `hilbert`
    and `verify` over the catalog and both ladders of the benchmark.  A
    read inside a method that `dataclasses` generates (`__eq__`, `__hash__`,
    `__repr__`) does not count; `dataclasses.asdict` does, as it writes the
    fields into a report.  Every cache is emptied first, so a field read
    only on a cold path is read here too."""
    import contextlib
    import dataclasses
    import io
    import json
    import pkgutil
    import sys

    import symprep
    from symprep.cli import main

    modules = [importlib.import_module(f"symprep.{m.name}")
               for m in pkgutil.iter_modules(symprep.__path__)]
    classes = [cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)
               and cls.__module__ == module.__name__]
    assert classes
    fields, read = set(), set()

    def probe(cls):
        names = {f.name for f in dataclasses.fields(cls)}
        prefix = f"{cls.__module__}.{cls.__name__}."
        fields.update(prefix + name for name in names)

        def getattribute(self, name):
            if name in names and sys._getframe(1).f_code.co_filename != "<string>":
                read.add(prefix + name)
            return object.__getattribute__(self, name)
        return getattribute

    for cls in classes:
        monkeypatch.setattr(cls, "__getattribute__", probe(cls))
    for module in modules:
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif isinstance(value, dict) and name.endswith("_CACHE"):
                value.clear()
    loader = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    w = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(w)
    docs = [doc for doc, _ in w.CATALOG.values()]
    docs += [*w.ANALYZE_LADDER.values(), *w.VERIFY_LADDER.values()]
    for doc in docs:
        text = json.dumps(doc)
        for argv in (["analyze", text, "--trace", "--text"], ["gamma", text],
                     ["hilbert", text, "--degree", "4"],
                     ["verify", text, "--samples", "5"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(argv) in (0, 3), err.getvalue()
    assert sorted(fields - read) == []


def test_weyl_orbit_walks_in_int_labels(monkeypatch):
    """A cold `weyl_walk(A5, rho)` pairs and canonicalizes a fixed number
    of times per pair of simple roots (the Cartan matrix, once per datum)
    and per simple root (the start's labels), none per edge: a walk that
    pairs a coroot and makes each coordinate canonical on every edge
    (|W| rank = 3600 edges) fails here."""
    from symprep import linalg, rootdata

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("canon", "vdot"):
        wrapped = counted(name, getattr(linalg, name))
        monkeypatch.setattr(linalg, name, wrapped)
        monkeypatch.setattr(rootdata, name, wrapped)
    datum = rootdata.build_root_datum([("A", 5)])
    rho = (1,) * 5  # in fundamental-weight coordinates
    for fn in (rootdata._cartan_pairing, rootdata._reflection_data):
        fn.cache_clear()
    calls.clear()
    orbit = set(rootdata.weyl_walk(datum, rho))
    assert len(orbit) == datum.weyl_order() == 720
    assert calls["vdot"] + calls["canon"] <= 2 * datum.rank ** 2


def _a5_std_dual():
    from symprep import reps, rootdata

    datum = rootdata.build_root_datum([("A", 5)])
    return reps.validate_symplectic_spec(
        datum, [((1, 0, 0, 0, 0), 1), ((0, 0, 0, 0, 1), 1)]
    )


def test_invariant_dims_never_walks_a_whole_weyl_orbit(monkeypatch):
    """A cold `invariant_dims(A5 std+dual, 8)` walks down from rho only to
    depth 8 * 5 = 40 (A5's deepest weight of V pairs to -5 with 2 rho^vee),
    463 of the 720 points, and never calls `weyl_walk`: a return to the
    full-orbit alternation fails here."""
    from symprep import reps, rootdata

    spec = _a5_std_dual()
    spec.weight_multiset()  # Freudenthal walks weight orbits: fill it first
    reps._invariant_dims_cached.cache_clear()
    reps._targets.cache_clear()
    walk, walks = reps._rho_walk, []

    def refused(*args):
        raise AssertionError("invariant_dims walked a whole Weyl orbit")

    def counted(datum, depth):
        out = walk(datum, depth)
        walks.append((depth, len(out)))
        return out

    for module in (rootdata, reps):
        monkeypatch.setattr(module, "weyl_walk", refused)
    monkeypatch.setattr(reps, "_rho_walk", counted)
    assert reps.invariant_dims(spec, 8) == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert walks == [(40, 463)] and 463 < spec.datum.weyl_order()


def test_invariant_dims_keeps_only_states_that_reach_a_target(sym_power_pass):
    """A cold `invariant_dims(A5 std+dual, 8)` keeps at most 4522 states
    over all degrees of S^d V, against 16050 for every state of height <=
    0: the top degree keeps only target keys and the one below only states
    that are, or can still become, one.  A return to the uncut recursion
    fails here."""
    from symprep import reps

    assert reps.invariant_dims(_a5_std_dual(), 8) == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert sum(map(len, sym_power_pass["h"])) <= 4522


def test_a_warm_invariant_dims_forms_no_state_and_no_target(monkeypatch):
    """The answer is what is kept: a second `invariant_dims` on the same
    spec and degree reads it, and calls none of the symmetric-power
    recursion, the target table or the rho walk."""
    from symprep import reps

    spec = _a5_std_dual()
    dims = reps.invariant_dims(spec, 8)

    def refused(*args):
        raise AssertionError("a warm invariant_dims formed its answer again")

    for name in ("_sym_power_states", "_targets", "_rho_walk"):
        monkeypatch.setattr(reps, name, refused)
    assert reps.invariant_dims(spec, 8) == dims


def test_no_state_of_a_symmetric_power_outlives_its_pass(monkeypatch):
    """The states the recursion keeps are dropped when the pass returns,
    so no cache holds them; what is kept is a tuple of ints."""
    import gc
    import weakref

    from symprep import reps

    class States(dict):
        pass

    states, alive = reps._sym_power_states, []

    def watched(*args):
        h, dropped = states(*args)
        h = [States(hd) for hd in h]
        alive.extend(map(weakref.ref, h))
        return h, dropped

    monkeypatch.setattr(reps, "_sym_power_states", watched)
    reps._invariant_dims_cached.cache_clear()
    spec = _a5_std_dual()
    assert reps.invariant_dims(spec, 8) == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    gc.collect()
    assert len(alive) == 9 and all(ref() is None for ref in alive)
    kept = reps._invariant_dims_cached(spec.datum, spec.summands, 8)
    assert type(kept) is tuple and all(type(x) is int for x in kept)


@pytest.mark.parametrize("mutation, message", [
    ("lose_state", r"S\^1 V has mass"),
    ("lose_top_state", r"S\^4 V has mass"),
    ("swapped", "negative invariant dimension"),
    ("doubled", "degree-0 invariants must be 1-dim"),
    ("lose_point", "Weyl denominator identity"),
])
def test_every_check_of_the_pass_runs_whenever_it_forms_an_answer(
        mutate_invariant_dims, mutation, message):
    """Once an answer is kept, a pass that forms it again (here under a
    mutation, with the caches emptied) still runs each check, and a raise
    is never kept: the same call raises again."""
    from symprep import reps, rootdata
    from symprep.errors import InternalConsistencyError

    spec = reps.validate_symplectic_spec(rootdata.build_root_datum([("A", 1)]), [((1,), 2)])
    assert reps.invariant_dims(spec, 4) == [1, 0, 1, 0, 1]
    mutate_invariant_dims(mutation)
    for _ in range(2):
        with pytest.raises(InternalConsistencyError, match=message):
            reps.invariant_dims(spec, 4)


def test_invariant_dims_checks_its_caps_on_every_call():
    """The dim budget, the degree cap and the Weyl cap hold before the kept
    answer is read: with the answer kept for the same (datum, summands,
    degree), each still raises."""
    from symprep import reps
    from symprep.errors import BudgetExceeded, WeylCapExceeded

    spec = _a5_std_dual()
    reps.invariant_dims(spec, 8)
    with pytest.raises(WeylCapExceeded):
        reps.invariant_dims(spec, 8, weyl_cap=719)
    reps._invariant_dims_cached(spec.datum, spec.summands, 11)
    with pytest.raises(BudgetExceeded, match="degree 11 exceeds cap 10"):
        reps.invariant_dims(spec, 11)
    big = reps.validate_symplectic_spec(spec.datum, [((1, 0, 0, 0, 0), 2), ((0, 0, 0, 0, 1), 2)])
    reps._invariant_dims_cached(big.datum, big.summands, 2)
    with pytest.raises(BudgetExceeded, match="dim V = 24 exceeds budget 16"):
        reps.invariant_dims(big, 2)


def test_freudenthal_walks_each_dominant_orbit_once(monkeypatch):
    """A cold `freudenthal_multiplicities` on F4 [0,0,0,1] and E6
    [1,0,0,0,0,0] reads its strings off the one table it fills, orbit by
    orbit: it calls `weyl_walk` once per dominant weight and
    `dominant_representative` never."""
    from symprep import reps, rootdata

    starts = []

    def counted(datum, x):
        starts.append(x)
        return rootdata.weyl_walk(datum, x)

    def refused(*args):
        raise AssertionError("Freudenthal called dominant_representative")

    monkeypatch.setattr(reps, "weyl_walk", counted)
    for module in (rootdata, reps):
        monkeypatch.setattr(module, "dominant_representative", refused, raising=False)
    for factor, lam in ((("F", 4), (0, 0, 0, 1)), (("E", 6), (1, 0, 0, 0, 0, 0))):
        datum = rootdata.build_root_datum([factor])
        reps._freudenthal_cached.cache_clear()
        starts.clear()
        mult = reps.freudenthal_multiplicities(datum, lam)
        dominant = [w for w in mult if datum.is_dominant(w)]
        assert sorted(starts) == sorted(dominant)
        assert sum(mult.values()) == reps.weyl_dim(datum, lam)


def test_validation_forms_each_dual_weight_once(monkeypatch):
    """A cold validation of A3 [1,0,0] + [0,0,1] forms the dual of [1,0,0]
    once, for its duality class, and reads it again for the pairing plan:
    one `dominant_representative` walk, not two."""
    from symprep import reps, rootdata

    calls = []
    walk = rootdata.dominant_representative

    def counted(datum, w):
        calls.append(w)
        return walk(datum, w)

    monkeypatch.setattr(rootdata, "dominant_representative", counted)
    reps._duality_cached.cache_clear()
    datum = rootdata.build_root_datum([("A", 3)])
    spec = reps.validate_symplectic_spec(datum, [((1, 0, 0), 1), ((0, 0, 1), 1)])
    assert [item.kind for item in spec.pairing_plan] == ["dual_pair"]
    assert calls == [(-1, 0, 0)]


def test_a_warm_analyze_forms_no_group_fact_again(monkeypatch):
    """After A2 (std + dual) x 2 is analyzed from empty caches, A2 std +
    dual shares its summands and its reduction step at [1, 0], and its
    S-module's summands are among the first one's: it forms no Delta_u, no
    sort key and no character test at all.  Its S^d series is then read by
    its summands, with no weight multiset formed again."""
    from symprep import classify, reduction, reps, rootdata

    formed = []

    def spy(module, name, kind):
        fn = getattr(module, name)

        def counted(*args):
            formed.append((kind,) + args)
            return fn(*args)
        monkeypatch.setattr(module, name, counted)

    spy(reduction, "delta_u_roots", "delta_u")
    spy(reps, "weight_key", "key")
    spy(classify, "vdot", "character")
    for module in (rootdata, reps, classify, reduction):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    datum = rootdata.build_root_datum([("A", 2)])
    first = reps.validate_symplectic_spec(datum, [((1, 0), 2), ((0, 1), 2)])
    steps = reduction.analyze(first).trace
    assert {f[0] for f in formed} == {"delta_u", "key", "character"}
    formed.clear()
    second = reps.validate_symplectic_spec(datum, [((1, 0), 1), ((0, 1), 1)])
    again = reduction.analyze(second).trace
    assert (again[0].chosen_chi, again[0].levi) == (steps[0].chosen_chi, steps[0].levi)
    assert formed == []
    dims = reps.invariant_dims(second, 8)
    monkeypatch.setattr(reps, "total_weight_multiset", None)  # a call fails
    assert reps.invariant_dims(second, 8) == dims


def test_a_missing_carved_weight_raises_through_the_kept_frame(monkeypatch):
    """A module whose weights lack one of chi - alpha, alpha - chi raises
    on every call of its step, after the step's frame at (datum, chi) is
    kept."""
    from symprep import reduction, reps, rootdata
    from symprep.errors import InternalConsistencyError

    datum = rootdata.build_root_datum([("A", 2)])
    spec = reps.validate_symplectic_spec(datum, [((1, 0), 1), ((0, 1), 1)])
    step, _ = reduction.reduce_step(spec, (1, 0))
    lost = tuple(x - y for x, y in zip((1, 0), step.delta_u[0].vec))  # chi - alpha
    whole = reps.total_weight_multiset

    def short(datum, summands):
        weights = whole(datum, summands)
        del weights[lost]
        return weights

    monkeypatch.setattr(reps, "total_weight_multiset", short)
    for _ in range(2):
        with pytest.raises(InternalConsistencyError,
                           match=rf"weight {re.escape(str(lost))} missing while carving out S"):
            reduction.reduce_step(spec, (1, 0))


def test_benchmark_tracer_counts_gamma_reflections():
    """The benchmark's tracer counts Gamma's reflections off a
    `compute_gamma` result, through its `reflection_indices`."""
    from symprep.reduction import compute_gamma
    from symprep.rootdata import build_root_datum

    loader = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracing)
    datum = build_root_datum([("A", 2)])
    args = (datum, [(1, 0), (0, 1)])
    counts = tracing.Counts()
    counts.hook("reduction.compute_gamma")(args, {}, compute_gamma(*args))
    assert counts.n["gamma_reflections"] == 3


FUNCTOOLS_CACHES = {"lru_cache", "cache"}


def test_every_lru_cache_decorates_a_module_level_function():
    """The benchmark's cold runs empty each cache they find as a module
    attribute with `cache_clear`.  A cache on a method or a nested function,
    or one made by calling `lru_cache` outside a module-level decorator, is
    out of their reach and would keep a cold run warm; so every use of
    `functools.lru_cache` (or `cache`) must decorate a module-level
    function."""
    reachable, stray = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in node.decorator_list:
                    allowed.update({id(d), id(getattr(d, "func", d))})
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in FUNCTOOLS_CACHES:
                where = f"{path.name}:{node.lineno}"
                (reachable if id(node) in allowed else stray).append(where)
    assert reachable
    assert stray == []


def test_every_module_level_empty_dict_is_named_cache():
    """The benchmark's cold runs and the tests' cache probes empty a
    module-level dict only when its name ends in `_CACHE`.  A module-level table that
    fills as the program runs (it starts as an empty dict display, like the
    intern table of root data) under any other name would keep a cold run
    warm, so every such name must end in `_CACHE`."""
    tables, stray = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            value = getattr(node, "value", None)
            if not (isinstance(value, ast.Dict) and not value.keys):
                continue
            for target in targets:
                name = f"{path.stem}.{getattr(target, 'id', ast.unparse(target))}"
                (tables if name.endswith("_CACHE") else stray).append(name)
    assert "rootdata._DATUM_CACHE" in tables
    assert stray == []


def test_every_cache_is_an_lru_cache_but_the_intern_table():
    """Every module-level cache of the package is a `functools.lru_cache`,
    so the benchmark's cold runs empty each the same way, by `cache_clear`;
    the one exception is `rootdata._DATUM_CACHE`, the intern table of root
    data.  No hand-rolled cache, such as one that checks the identity of
    what it was built from, comes back."""
    import functools
    import pkgutil

    import symprep
    from symprep import rootdata

    lru = type(functools.lru_cache(maxsize=None)(len))
    caches, stray = set(), []
    for info in pkgutil.iter_modules(symprep.__path__):
        module = importlib.import_module(f"symprep.{info.name}")
        for name, value in vars(module).items():
            if not (callable(getattr(value, "cache_clear", None))
                    or isinstance(value, dict) and name.upper().endswith("_CACHE")):
                continue
            if isinstance(value, lru) or value is rootdata._DATUM_CACHE:
                caches.add(f"{info.name}.{name}")
            else:
                stray.append(f"{info.name}.{name}")
    assert stray == []
    assert {"reduction._little_weyl_candidates", "rootdata._DATUM_CACHE"} <= caches


def test_every_error_class_is_raised_somewhere():
    """Each exception class of `errors.py` is raised or constructed by name
    somewhere else in the package, or is the base of one that is: a class
    nothing raises any more, with the exit code that maps it, does not stay
    behind."""
    from symprep import errors

    classes = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__
    ]
    assert classes
    named = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            target = (node.exc if isinstance(node, ast.Raise)
                      else node.func if isinstance(node, ast.Call) else None)
            if isinstance(target, ast.Name):
                named.add(target.id)
            elif isinstance(target, ast.Attribute):
                named.add(target.attr)
    raised = [cls for cls in classes if cls.__name__ in named]
    assert [
        cls.__name__ for cls in classes
        if not any(issubclass(r, cls) for r in raised)
    ] == []


def test_readme_exit_codes_are_the_cli_constants():
    """README's "Exit codes:" paragraph names, as backticked integers,
    exactly the values of the `cli.EXIT_*` constants."""
    from symprep import cli

    paragraph = next(
        p for p in README.read_text().split("\n\n") if p.startswith("Exit codes:")
    )
    named = {int(x) for x in re.findall(r"`(\d+)`", paragraph)}
    codes = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    assert codes
    assert named == codes


def _reads(tree):
    """The identifiers a module reads, with repeats: loaded names,
    attribute names, and the identifiers inside string constants that are
    not docstrings (`monkeypatch.setattr(reps, "weyl_walk", ...)`, the
    benchmark's "reps.freudenthal_multiplicities")."""
    docstrings = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            yield from re.findall(r"[A-Za-z_]\w*", node.value)


def test_no_import_is_left_unread():
    """No module of the package but `__init__` imports a name it never
    reads: a deletion that leaves its import behind fails here."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = set(_reads(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno}: {name}")
    assert unread == []


def test_every_function_is_read_outside_its_definition():
    """Each function the package defines is read by name somewhere in the
    package or the benchmark, outside its own body (dunder methods aside):
    a helper whose last reader was deleted, or whose only readers are
    tests, fails here.  Code that only tests read lives in the tests."""
    trees = [
        ast.parse(path.read_text(), filename=str(path))
        for folder in (SRC, ROOT / "perfbench")
        for path in sorted(folder.glob("*.py"))
    ]
    reads = Counter(name for tree in trees for name in _reads(tree))
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = list(_reads(node)).count(node.name)
            if reads[node.name] <= own:
                unread.append(f"{path.name}:{node.lineno}: {node.name}")
    assert unread == []
