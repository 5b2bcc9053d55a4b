"""Exact-arithmetic toolkit for jet-space singularity strata.

Computes Boardman-symbol codimension bounds, determinant obstruction classes
of virtual bundles over finitely presented cohomology rings, stratum
inclusion criteria with dimension-shift stabilization, nonexistence verdicts,
and filtration runs over product manifolds.  Every quantity is an exact
integer or an integer class coefficient; there is no floating point anywhere.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names by the submodule that defines them.  Each is imported on
# first use (PEP 562), so importing the package, or ``jetstrata.cli``,
# compiles no module it does not run.
_NAMES = {
    "symbols": "INFINITE_ORDER BoardmanSymbol JetContext codim_lower_bound first_order_codim jet_fiber_dim "
    "tail_vanishing truncate_symbol validate_symbol",
    "gring": "CoefficientMode GradedElement ManifoldRing invert_total_class kunneth_product make_ring "
    "pair_fundamental",
    "tensor": "RingMap is_degreewise_injective tensor_component truncated_polynomial_ring",
    "charclass": "ClassVariant ObstructionClass VirtualBundle class_of_virtual det_graded porteous_pontrjagin "
    "porteous_sw w_table_polynomial",
    "criteria": "CriterionReport NonexistenceReport nonexistence_verdict nonstable_inclusion stabilized_w_inclusion "
    "w_inclusion",
    "filtration": "DoubleConstruction FiltrationRun FiltrationStage build_run double_construction next_index "
    "product_obstruction",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}
_SUBMODULES = {*_NAMES, "cli", "selfcheck"}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
