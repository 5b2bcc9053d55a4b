"""Exact-arithmetic toolkit for jet-space singularity strata.

Computes Boardman-symbol codimension bounds, determinant obstruction classes
of virtual bundles over finitely presented cohomology rings, stratum
inclusion criteria with dimension-shift stabilization, nonexistence verdicts,
and filtration runs over product manifolds.  Every quantity is an exact
integer or an integer class coefficient; there is no floating point anywhere.
"""

from .symbols import (
    INFINITE_ORDER,
    BoardmanSymbol,
    JetContext,
    codim_lower_bound,
    first_order_codim,
    jet_fiber_dim,
    tail_vanishing,
    truncate_symbol,
    validate_symbol,
)
from .gring import (
    CoefficientMode,
    GradedElement,
    ManifoldRing,
    RingMap,
    invert_total_class,
    is_degreewise_injective,
    kunneth_product,
    make_ring,
    pair_fundamental,
    tensor_component,
    truncated_polynomial_ring,
)
from .charclass import (
    ClassVariant,
    ObstructionClass,
    VirtualBundle,
    class_of_virtual,
    det_graded,
    porteous_pontrjagin,
    porteous_sw,
    w_table_polynomial,
)
from .criteria import (
    CriterionReport,
    NonexistenceReport,
    nonexistence_verdict,
    nonstable_inclusion,
    stabilized_w_inclusion,
    w_inclusion,
)
from .filtration import (
    DoubleConstruction,
    FiltrationRun,
    FiltrationStage,
    build_run,
    double_construction,
    next_index,
    product_obstruction,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITE_ORDER",
    "BoardmanSymbol",
    "JetContext",
    "codim_lower_bound",
    "first_order_codim",
    "jet_fiber_dim",
    "tail_vanishing",
    "truncate_symbol",
    "validate_symbol",
    "CoefficientMode",
    "GradedElement",
    "ManifoldRing",
    "RingMap",
    "invert_total_class",
    "is_degreewise_injective",
    "kunneth_product",
    "make_ring",
    "pair_fundamental",
    "tensor_component",
    "truncated_polynomial_ring",
    "ClassVariant",
    "ObstructionClass",
    "VirtualBundle",
    "class_of_virtual",
    "det_graded",
    "porteous_pontrjagin",
    "porteous_sw",
    "w_table_polynomial",
    "CriterionReport",
    "NonexistenceReport",
    "nonexistence_verdict",
    "nonstable_inclusion",
    "stabilized_w_inclusion",
    "w_inclusion",
    "DoubleConstruction",
    "FiltrationRun",
    "FiltrationStage",
    "build_run",
    "double_construction",
    "next_index",
    "product_obstruction",
    "__version__",
]
