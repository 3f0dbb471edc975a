"""Shared catalog of specs used across the test modules."""

from symprep.reps import validate_symplectic_spec
from symprep.rootdata import build_root_datum

A1 = build_root_datum([("A", 1)])
A2 = build_root_datum([("A", 2)])
A3 = build_root_datum([("A", 3)])
C2 = build_root_datum([("C", 2)])
C3 = build_root_datum([("C", 3)])
T1 = build_root_datum([], central_rank=1)
T2 = build_root_datum([], central_rank=2)
C2xA1 = build_root_datum([("C", 2), ("A", 1)])
GL2 = build_root_datum([("A", 1)], central_rank=1)


def spec(datum, summands):
    return validate_symplectic_spec(datum, summands)


def catalog():
    """name -> (spec, expected (rk, c, mf)); spans tori, rank-1 irreducibles,
    defining modules and duals, symplectic defining modules, and products."""
    return {
        "torus_pair": (spec(T1, [((1,), 1), ((-1,), 1)]), (1, 0, True)),
        "torus_double": (spec(T1, [((1,), 2), ((-1,), 2)]), (1, 1, False)),
        "torus_rank2": (
            spec(T2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]),
            (2, 0, True),
        ),
        "sl2_two_standards": (spec(A1, [((1,), 2)]), (1, 0, True)),
        "sl2_cubic": (spec(A1, [((3,), 1)]), (1, 0, True)),
        "sl2_adjoint_pair": (spec(A1, [((2,), 2)]), (1, 1, False)),
        "sl3_std_dual": (spec(A2, [((1, 0), 1), ((0, 1), 1)]), (1, 0, True)),
        "sl4_std_dual": (
            spec(A3, [((1, 0, 0), 1), ((0, 0, 1), 1)]),
            (1, 0, True),
        ),
        "sp2_standard": (spec(A1, [((1,), 1)]), (0, 0, True)),
        "sp4_standard": (spec(C2, [((1, 0), 1)]), (0, 0, True)),
        "sp6_standard": (spec(C3, [((1, 0, 0), 1)]), (0, 0, True)),
        "sp4_x_sl2": (
            spec(C2xA1, [((1, 0, 0), 1), ((0, 0, 1), 1)]),
            (0, 0, True),
        ),
        "gl2_std_dual": (spec(GL2, [((1, 1), 1), ((1, -1), 1)]), (1, 0, True)),
    }


def nonterminal_catalog():
    from symprep.classify import terminal_decomposition

    return {
        name: (sp, exp)
        for name, (sp, exp) in catalog().items()
        if not terminal_decomposition(sp).terminal
    }


# Groups and modules of the analyze ladder beyond the catalog:
# name -> (factors, summands).
ANALYZE_LADDER = {
    "C4_std": ([("C", 4)], [((1, 0, 0, 0), 1)]),
    "D4_vec_x2": ([("D", 4)], [((1, 0, 0, 0), 2)]),
    "B4_vec_x2": ([("B", 4)], [((1, 0, 0, 0), 2)]),
    "F4_26_x2": ([("F", 4)], [((0, 0, 0, 1), 2)]),
    "G2_adj_x2": ([("G", 2)], [((0, 1), 2)]),
    "A3_mixed_rk3": (
        [("A", 3)],
        [((2, 0, 0), 1), ((0, 0, 2), 1), ((1, 0, 0), 1), ((0, 0, 1), 1)],
    ),
}


def verify_ladder():
    """name -> spec of the matrix-model ladder that `verify` is timed on."""
    gl3 = build_root_datum([("A", 2)], central_rank=1)
    c4 = build_root_datum([("C", 4)])
    return {
        "A2_sd_x2": spec(A2, [((1, 0), 2), ((0, 1), 2)]),
        "A2_sd_x4": spec(A2, [((1, 0), 4), ((0, 1), 4)]),
        "A2_sd_x6": spec(A2, [((1, 0), 6), ((0, 1), 6)]),
        "C2_std_x4": spec(C2, [((1, 0), 4)]),
        "A3_sd_x2": spec(A3, [((1, 0, 0), 2), ((0, 0, 1), 2)]),
        "C4_std_x2": spec(c4, [((1, 0, 0, 0), 2)]),
        "C3_std_x2": spec(C3, [((1, 0, 0), 2)]),
        "A1_S7": spec(A1, [((7,), 1)]),
        "GL3_sd_x2": spec(gl3, [((1, 0, 1), 2), ((0, 1, -1), 2)]),
    }


# Modules that only the generic irreducible construction models:
# name -> (factors, summands, (rk_s, c_s, mf)).
GENERIC_MODELS = {
    "Sp6_wedge3": ([("C", 3)], [((0, 0, 1), 1)], (1, 0, True)),
    "SL6_wedge3": ([("A", 5)], [((0, 0, 1, 0, 0), 1)], (1, 0, True)),
    "A5_wedge2_dual": (
        [("A", 5)], [((0, 1, 0, 0, 0), 1), ((0, 0, 0, 1, 0), 1)], (2, 1, False)
    ),
    "A3_mixed_rk3": (
        [("A", 3)],
        [((2, 0, 0), 1), ((0, 0, 2), 1), ((1, 0, 0), 1), ((0, 0, 1), 1)],
        (3, 5, False),
    ),
    "D4_vec_x2": ([("D", 4)], [((1, 0, 0, 0), 2)], (1, 1, False)),
    "B4_vec_x2": ([("B", 4)], [((1, 0, 0, 0), 2)], (1, 1, False)),
    "G2_adj_x2": ([("G", 2)], [((0, 1), 2)], (2, 6, False)),
    "D6_halfspin": ([("D", 6)], [((0, 0, 0, 0, 0, 1), 1)], (1, 0, True)),
    "E6_27_dual": (
        [("E", 6)], [((1, 0, 0, 0, 0, 0), 1), ((0, 0, 0, 0, 0, 1), 1)], (2, 1, False)
    ),
}


def generic_models():
    """name -> spec of GENERIC_MODELS."""
    return {
        name: spec(build_root_datum(factors), summands)
        for name, (factors, summands, _) in GENERIC_MODELS.items()
    }
