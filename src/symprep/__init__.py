"""Invariant-theoretic analysis of symplectic representations of connected
reductive groups: exact root data and weight combinatorics, the iterated
local-structure reduction (rank, complexity, little Weyl group, isotropy),
explicit matrix models, and numeric verification of the structure theory.

The package root exports the exact layers; the float layer (`numeric`,
`sections`, `verify`) loads numpy and is imported from its own modules.
"""

__version__ = "0.1.0"

from .rootdata import (
    RootDatum,
    build_root_datum,
    levi_subdatum,
    positive_roots,
    subspace_normalizer,
)
from .reps import (
    DualityClass,
    SympRepSpec,
    decompose_weights,
    duality_class,
    freudenthal_multiplicities,
    invariant_dims,
    validate_symplectic_spec,
    weyl_dim,
)
from .classify import (
    WeightStatus,
    is_singular_weight,
    terminal_decomposition,
    weight_status,
)
from .reduction import (
    AnalysisReport,
    analyze,
    compute_gamma,
    centralizer_levi,
    determine_little_weyl,
    isotropy_shape,
    reduce_step,
    run_reduction,
)
from .matrixrep import MatrixRep, build_rep, find_hw_vectors
