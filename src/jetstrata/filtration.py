"""Filtration-sequence construction: index recursion, dimension bookkeeping,
product-manifold assembly, and the check that each stage's obstruction class
survives pullback to the product.

A run is built from a strictly increasing schedule of codimension budgets
l_0 < l_1 < ... < l_{d+1} and, for each stage t <= d, a synthetic ring of
dimension 8*i_t^2 (where i_t is the smallest index whose cubic inequality
clears budget l_t) together with a virtual bundle whose even-stratum
determinant class is nonzero.  The product ring is one flat tensor of all
the stage rings; on it, the stage-t difference bundle is the pullback of the
stage's own difference bundle, every other factor cancelling.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from typing import TYPE_CHECKING

from .charclass import ObstructionClass, VirtualBundle, porteous_pontrjagin
from .gring import CoefficientMode, GradedElement, ModeMismatch, RingMismatch, kunneth_product
from .symbols import ConsistencyError, JetContext, Record, is_integer

if TYPE_CHECKING:
    from .tensor import RingMap


class FiltrationError(ValueError):
    pass


class ScheduleNotIncreasing(FiltrationError):
    pass


class DimensionMismatch(FiltrationError):
    pass


class StageObstructionVanishes(FiltrationError):
    pass


class StageOutOfRange(FiltrationError):
    pass


def _cubic_cap(index: int) -> int:
    # Largest budget the given index clears: 4i^3 - 2i^2 >= 4i^2 + l.
    return 4 * index**3 - 6 * index**2


#: Caps of the indices 1..256, fixed at import.  Budgets up to the last one
#: (66,715,648) are answered by a C-level bisection of this table, which
#: keeps a call as cheap as a lookup; larger budgets by integer bisection on
#: the cubic.
_SMALL_CAPS = tuple(_cubic_cap(index) for index in range(1, 257))


def next_index(budget: int) -> int:
    """Smallest index i >= 1 with 4i^3 - 2i^2 >= 4i^2 + budget.

    The cap 4i^3 - 6i^2 is increasing for i >= 1, so the answer is a
    bisection on it, in O(log budget) steps for every budget.
    """
    if not is_integer(budget) or budget < 0:
        raise FiltrationError(f"budget must be a nonnegative integer, got {budget!r}")
    if budget <= _SMALL_CAPS[-1]:
        return bisect_left(_SMALL_CAPS, budget) + 1
    # high clears the budget: 4i^3 - 6i^2 >= 2i^3 for i >= 3, and high^3 >= 2^bit_length.
    low, high = len(_SMALL_CAPS) + 1, 1 << (budget.bit_length() // 3 + 2)
    while low < high:
        middle = (low + high) // 2
        if _cubic_cap(middle) >= budget:
            high = middle
        else:
            low = middle + 1
    return low


class FiltrationStage(Record):
    """One stage: its kernel rank 2*i_t, budget, dimension 8*i_t^2, ring,
    difference bundle and the (verified nonzero) stage obstruction class."""

    __slots__ = ("t", "kernel_rank", "budget", "dim", "ring", "bundle", "obstruction")


class FiltrationRun(Record):
    """A run: its depth, schedule, stages, product ring and factor
    injections.  Its last field, left out of equality, is the product of
    every injected stage positive total, which every product obstruction
    shares; it is built here unless given."""

    __slots__ = ("depth", "schedule", "stages", "product_ring", "injections", "total_positive")
    _hidden = ("total_positive",)

    def __init__(
        self, depth: int, schedule: tuple, stages: tuple, product_ring, injections: tuple,
        total_positive: GradedElement | None = None,
    ):
        if total_positive is None:
            total_positive = product_ring.unit()
            for stage, inject in zip(stages, injections):
                total_positive = total_positive * inject(stage.bundle.total_positive)
        super().__init__(depth, schedule, stages, product_ring, injections, total_positive)


def build_run(depth: int, schedule, stage_bundles) -> FiltrationRun:
    """Assemble and verify a filtration run.

    ``schedule`` must list the d+2 budgets l_0..l_{d+1}, strictly increasing;
    ``stage_bundles`` the d+1 stage difference bundles, each on a ring of
    dimension 8*i_t^2 declared orientable, with nonzero stage obstruction.
    """
    if not is_integer(depth) or depth < 0:
        raise FiltrationError(f"depth must be a nonnegative integer, got {depth!r}")
    schedule = tuple(schedule)
    if len(schedule) < depth + 2:
        try:
            budgets = f"l_0..l_{depth + 1}"
        except ValueError:
            budgets = f"l_0..l_(d+1) for a depth d of more than {sys.get_int_max_str_digits()} digits"
        raise ScheduleNotIncreasing(f"schedule must list budgets {budgets}, got {len(schedule)} entries")
    for value in schedule:
        if not is_integer(value) or value < 0:
            raise ScheduleNotIncreasing(f"budgets must be nonnegative integers, got {value!r}")
    for a, b in zip(schedule, schedule[1:]):
        if b <= a:
            raise ScheduleNotIncreasing(f"schedule is not strictly increasing at {a} -> {b}")
    stage_bundles = list(stage_bundles)
    if len(stage_bundles) != depth + 1:
        raise FiltrationError(
            f"expected {depth + 1} stage bundles for depth {depth}, got {len(stage_bundles)}"
        )

    stages = []
    for t, bundle in enumerate(stage_bundles):
        index = next_index(schedule[t])
        dim = 8 * index * index
        ring = bundle.ring
        if ring.mode is not CoefficientMode.INTEGER_MOD_TORSION:
            raise ModeMismatch(f"stage {t} ring must use integer coefficients")
        if not ring.orientable:
            raise FiltrationError(f"stage {t} ring must declare an orientation")
        if ring.top_dim != dim:
            raise DimensionMismatch(
                f"stage {t} needs a ring of dimension {dim} (= 8*{index}^2), "
                f"got {ring.top_dim}"
            )
        if not 4 * index**3 - 2 * index**2 >= 4 * index**2 + schedule[t]:
            raise ConsistencyError("stage index fails its own defining inequality")
        obstruction = porteous_pontrjagin(2 * index, JetContext(dim, dim), bundle)
        if obstruction.is_zero:
            raise StageObstructionVanishes(
                f"stage {t} determinant class of kernel rank {2 * index} vanishes"
            )
        stages.append(
            FiltrationStage(t, 2 * index, schedule[t], dim, ring, bundle, obstruction)
        )

    product_ring, *injections = kunneth_product(*(s.ring for s in stages))
    return FiltrationRun(depth, schedule, tuple(stages), product_ring, tuple(injections))


def product_obstruction(run: FiltrationRun, t: int) -> ObstructionClass:
    """Stage-t obstruction computed on the product ring.

    The difference bundle on the product has every non-t factor cancelling,
    so its totals are the products of all injected stage totals with only the
    t-th negative total swapped in; the positive one is the run's own.  The
    resulting determinant class must equal the injection of the stage
    obstruction; any disagreement is an internal inconsistency.
    """
    if not is_integer(t) or t < 0 or t > run.depth:
        raise StageOutOfRange(f"stage {t} outside 0..{run.depth}")
    ring = run.product_ring
    total_negative = ring.unit()
    for stage, inject in zip(run.stages, run.injections):
        if stage.t == t:
            total_negative = total_negative * inject(stage.bundle.total_negative_pulled)
        else:
            total_negative = total_negative * inject(stage.bundle.total_positive)
    bundle = VirtualBundle(run.total_positive, total_negative)
    stage = run.stages[t]
    obstruction = porteous_pontrjagin(stage.kernel_rank, JetContext(ring.top_dim, ring.top_dim), bundle)
    pulled = run.injections[t](stage.obstruction.value)
    if obstruction.value != pulled:
        raise ConsistencyError(
            "product obstruction differs from the injected stage obstruction"
        )
    return obstruction


class DoubleConstruction(Record):
    """Self-map of a product of two equal-dimensional manifolds swapping the
    factors through a homotopy equivalence and its inverse: the product ring,
    the difference bundle of the swap map, the factor injections, and the
    one-factor difference bundle it mirrors."""

    __slots__ = ("product_ring", "bundle", "inject_left", "inject_right", "factor_bundle")


def double_construction(
    tangent_total_left: GradedElement,
    tangent_total_right: GradedElement,
    pullback: RingMap,
    inverse_pullback: RingMap,
) -> DoubleConstruction:
    """Difference bundle of the factor-swapping self-map of a product.

    ``tangent_total_left`` and ``tangent_total_right`` are the tangent totals
    of the two factors; ``pullback`` maps the right ring into the left one
    (the action of the equivalence on cohomology) and ``inverse_pullback``
    the left ring into the right one (its declared homotopy inverse, trusted
    as input).  The product bundle's positive total is the tensor of the two
    tangent totals; the negative total tensors the two pulled-back totals.
    """
    ring_left = tangent_total_left.ring
    ring_right = tangent_total_right.ring
    if ring_left.mode is not CoefficientMode.INTEGER_MOD_TORSION or (
        ring_right.mode is not CoefficientMode.INTEGER_MOD_TORSION
    ):
        raise ModeMismatch("both factors must use integer coefficients")
    if ring_left.top_dim != ring_right.top_dim:
        raise DimensionMismatch(
            f"factors must share a dimension, got {ring_left.top_dim} and {ring_right.top_dim}"
        )
    if pullback.source is not ring_right or pullback.target is not ring_left:
        raise RingMismatch("pullback must map the right ring into the left ring")
    if inverse_pullback.source is not ring_left or inverse_pullback.target is not ring_right:
        raise RingMismatch("inverse pullback must map the left ring into the right ring")

    factor_bundle = VirtualBundle(tangent_total_left, pullback(tangent_total_right))
    product_ring, inject_left, inject_right = kunneth_product(ring_left, ring_right)
    total_positive = inject_left(tangent_total_left) * inject_right(tangent_total_right)
    total_negative = inject_left(pullback(tangent_total_right)) * inject_right(
        inverse_pullback(tangent_total_left)
    )
    bundle = VirtualBundle(total_positive, total_negative)
    return DoubleConstruction(product_ring, bundle, inject_left, inject_right, factor_bundle)
