"""Workload definitions: the spec ladders, the batch pool and the known answers.

Every spec is a plain spec-file document, exactly what a user of the
`symprep` command line writes to disk.  The harness never hands the program
anything else.
"""

import json
import random


def spec_doc(simple, central, summands):
    return {
        "group": {"simple": [list(f) for f in simple], "central_torus_rank": central},
        "rep": [{"hw": list(hw), "mult": mult} for hw, mult in summands],
    }


def canonical(doc):
    """The byte form a spec is written in; also its key in the reference file."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


A = "A"
# The 13 specs of tests/corpus.py::catalog(), with their known (rk_s, c_s, mf).
CATALOG = {
    "torus_pair": (spec_doc([], 1, [([1], 1), ([-1], 1)]), (1, 0, True)),
    "torus_double": (spec_doc([], 1, [([1], 2), ([-1], 2)]), (1, 1, False)),
    "torus_rank2": (
        spec_doc([], 2, [([1, 0], 1), ([-1, 0], 1), ([0, 1], 1), ([0, -1], 1)]),
        (2, 0, True),
    ),
    "sl2_two_standards": (spec_doc([(A, 1)], 0, [([1], 2)]), (1, 0, True)),
    "sl2_cubic": (spec_doc([(A, 1)], 0, [([3], 1)]), (1, 0, True)),
    "sl2_adjoint_pair": (spec_doc([(A, 1)], 0, [([2], 2)]), (1, 1, False)),
    "sl3_std_dual": (spec_doc([(A, 2)], 0, [([1, 0], 1), ([0, 1], 1)]), (1, 0, True)),
    "sl4_std_dual": (
        spec_doc([(A, 3)], 0, [([1, 0, 0], 1), ([0, 0, 1], 1)]),
        (1, 0, True),
    ),
    "sp2_standard": (spec_doc([(A, 1)], 0, [([1], 1)]), (0, 0, True)),
    "sp4_standard": (spec_doc([("C", 2)], 0, [([1, 0], 1)]), (0, 0, True)),
    "sp6_standard": (spec_doc([("C", 3)], 0, [([1, 0, 0], 1)]), (0, 0, True)),
    "sp4_x_sl2": (
        spec_doc([("C", 2), (A, 1)], 0, [([1, 0, 0], 1), ([0, 0, 1], 1)]),
        (0, 0, True),
    ),
    "gl2_std_dual": (spec_doc([(A, 1)], 1, [([1, 1], 1), ([1, -1], 1)]), (1, 0, True)),
}

# Rungs whose invariant ring is generated by one quartic: rk_s=1, c_s=0, mf,
# and a little Weyl group of order 2 with degrees (2,).
QUARTICS = ("sl2_cubic", "C3_wedge3", "A1x3_cube")

ANALYZE_LADDER = {
    "A4_std_dual": spec_doc([(A, 4)], 0, [([1, 0, 0, 0], 1), ([0, 0, 0, 1], 1)]),
    "A5_std_dual": spec_doc([(A, 5)], 0, [([1, 0, 0, 0, 0], 1), ([0, 0, 0, 0, 1], 1)]),
    "C3_wedge3": spec_doc([("C", 3)], 0, [([0, 0, 1], 1)]),
    "A1x3_cube": spec_doc([(A, 1), (A, 1), (A, 1)], 0, [([1, 1, 1], 1)]),
    "C4_std": spec_doc([("C", 4)], 0, [([1, 0, 0, 0], 1)]),
    "D4_vec_x2": spec_doc([("D", 4)], 0, [([1, 0, 0, 0], 2)]),
    "B4_vec_x2": spec_doc([("B", 4)], 0, [([1, 0, 0, 0], 2)]),
    "F4_26_x2": spec_doc([("F", 4)], 0, [([0, 0, 0, 1], 2)]),
    "A3_mixed_rk3": spec_doc(
        [(A, 3)], 0, [([2, 0, 0], 1), ([0, 0, 2], 1), ([1, 0, 0], 1), ([0, 0, 1], 1)]
    ),
    "G2_adj_x2": spec_doc([("G", 2)], 0, [([0, 1], 2)]),
}

VERIFY_LADDER = {
    "A2_sd_x2": spec_doc([(A, 2)], 0, [([1, 0], 2), ([0, 1], 2)]),
    "A2_sd_x4": spec_doc([(A, 2)], 0, [([1, 0], 4), ([0, 1], 4)]),
    "A2_sd_x6": spec_doc([(A, 2)], 0, [([1, 0], 6), ([0, 1], 6)]),
    "C2_std_x4": spec_doc([("C", 2)], 0, [([1, 0], 4)]),
    "A3_sd_x2": spec_doc([(A, 3)], 0, [([1, 0, 0], 2), ([0, 0, 1], 2)]),
    "C4_std_x2": spec_doc([("C", 4)], 0, [([1, 0, 0, 0], 2)]),
    "C3_std_x2": spec_doc([("C", 3)], 0, [([1, 0, 0], 2)]),
    "A1_S7": spec_doc([(A, 1)], 0, [([7], 1)]),
    "GL3_sd_x2": spec_doc([(A, 2)], 1, [([1, 0, 1], 2), ([0, 1, -1], 2)]),
}


def _with_catalog(extra):
    specs = {name: doc for name, (doc, _) in CATALOG.items()}
    specs.update(extra)
    return specs


def known_answers():
    """name -> {report key: expected value}, asserted on every report."""
    out = {
        name: {"rk_s": rk, "c_s": c, "mf": mf}
        for name, (_, (rk, c, mf)) in CATALOG.items()
    }
    for name in QUARTICS:
        out.setdefault(name, {}).update(
            {"rk_s": 1, "c_s": 0, "mf": True,
             "little_weyl.order": 2, "little_weyl.degrees": [2]}
        )
    return out


# -- batch pool ---------------------------------------------------------------

# Small self-dual pieces per group: (highest weights with multiplicities, dim).
# A spec is a group plus a nonempty multiset of its pieces of total dim <= 16.
BATCH_GROUPS = {
    "A1": ([(A, 1)], 0, [([([1], 1)], 2), ([([3], 1)], 4), ([([2], 2)], 6)]),
    "A2": ([(A, 2)], 0, [([([1, 0], 1), ([0, 1], 1)], 6), ([([1, 1], 2)], 16)]),
    "A3": ([(A, 3)], 0, [([([1, 0, 0], 1), ([0, 0, 1], 1)], 8), ([([0, 1, 0], 2)], 12)]),
    "B2": ([("B", 2)], 0, [([([0, 1], 1)], 4), ([([1, 0], 2)], 10)]),
    "C2": ([("C", 2)], 0, [([([1, 0], 1)], 4), ([([0, 1], 2)], 10)]),
    "C3": ([("C", 3)], 0, [([([1, 0, 0], 1)], 6), ([([0, 0, 1], 1)], 14)]),
    "G2": ([("G", 2)], 0, [([([1, 0], 2)], 14)]),
    "A1xA1": (
        [(A, 1), (A, 1)], 0,
        [([([1, 0], 1)], 2), ([([0, 1], 1)], 2), ([([1, 1], 2)], 8), ([([2, 1], 1)], 6)],
    ),
    "GL2": (
        [(A, 1)], 1,
        [([([1, 1], 1), ([1, -1], 1)], 4), ([([0, 1], 1), ([0, -1], 1)], 2),
         ([([2, 1], 1), ([2, -1], 1)], 6)],
    ),
}
BATCH_DIM_CAP = 16
BATCH_SIZE = 270  # 30 specs per group


def _piece_multisets(pieces, cap):
    out = []

    def rec(i, counts, dim):
        if i == len(pieces):
            if any(counts):
                out.append(tuple(counts))
            return
        k = 0
        while dim + k * pieces[i][1] <= cap:
            rec(i + 1, counts + [k], dim + k * pieces[i][1])
            k += 1

    rec(0, [], 0)
    return out


def batch_pool():
    """group -> list of spec documents; the fixed pool the batch draws from."""
    pool = {}
    for group, (simple, central, pieces) in BATCH_GROUPS.items():
        docs = []
        for counts in _piece_multisets(pieces, BATCH_DIM_CAP):
            mults = {}
            for (summands, _), k in zip(pieces, counts):
                for hw, m in summands if k else ():
                    mults[tuple(hw)] = mults.get(tuple(hw), 0) + m * k
            docs.append(spec_doc(simple, central, sorted(mults.items())))
        pool[group] = docs
    return pool


def batch_specs(seed, size=BATCH_SIZE):
    """`size` specs drawn from the pool: an equal share per group, each group
    cycling through a seeded permutation of its pool (so every seed has the
    same group mix and, for the small pools, the same specs), in a seeded
    order.  Returns [(name, doc)]; the name is group/index-in-pool."""
    rng = random.Random(seed)
    pool = batch_pool()
    groups = sorted(pool)
    cycles = {}
    for group in groups:
        order = list(range(len(pool[group])))
        rng.shuffle(order)
        cycles[group] = order
    drawn = []
    for i in range(size):
        group = groups[i % len(groups)]
        order = cycles[group]
        j = order[(i // len(groups)) % len(order)]
        drawn.append((f"{group}/{j}", pool[group][j]))
    rng.shuffle(drawn)
    return drawn


WORKLOADS = {
    "analyze-ladder": ("analyze", _with_catalog(ANALYZE_LADDER)),
    "verify-models": ("verify", _with_catalog(VERIFY_LADDER)),
    "batch-shared": ("analyze", None),
}
