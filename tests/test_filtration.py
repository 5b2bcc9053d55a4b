import time
from pathlib import Path

import pytest

from jetstrata import cli, criteria, filtration, selfcheck
from jetstrata.charclass import ObstructionClass, VirtualBundle, class_of_virtual, porteous_pontrjagin
from jetstrata.filtration import (
    DimensionMismatch,
    FiltrationError,
    FiltrationRun,
    FiltrationStage,
    ScheduleNotIncreasing,
    StageObstructionVanishes,
    StageOutOfRange,
    build_run,
    double_construction,
    next_index,
    product_obstruction,
)
from jetstrata.gring import (
    ModeMismatch,
    RingMismatch,
    element_to_spec,
    kunneth_product,
    make_ring,
)
from jetstrata.symbols import INFINITE_ORDER, BoardmanSymbol, ConsistencyError, JetContext
from jetstrata.tensor import (
    RingMap,
    TensorRing,
    tensor_component,
    truncated_polynomial_ring,
)

import replay
from conftest import ring_map_from_generators


def chain_bundle(top_dim, classes, gen="t"):
    """Integer chain ring with prescribed nonzero classes of the difference."""
    ring = truncated_polynomial_ring("integer_mod_torsion", top_dim, [(gen, 4)])
    coeffs = {"1": 1}
    for j, value in classes.items():
        coeffs[gen if j == 1 else f"{gen}^{j}"] = value
    return VirtualBundle(ring.element(coeffs), ring.unit())


def test_next_index_small_budgets():
    assert next_index(0) == 2
    assert next_index(8) == 2
    assert next_index(9) == 3


def test_next_index_monotone_sample():
    previous = 0
    for budget in range(0, 5000):
        value = next_index(budget)
        assert value >= max(previous, 1)
        previous = value


def test_next_index_unbounded():
    assert next_index(10**6) > next_index(10**3) > next_index(0)


def test_next_index_defining_inequality_is_tight():
    for budget in (0, 1, 8, 9, 54, 55, 1000):
        i = next_index(budget)
        assert 4 * i**3 - 2 * i**2 >= 4 * i**2 + budget
        if i > 1:
            j = i - 1
            assert 4 * j**3 - 2 * j**2 < 4 * j**2 + budget


def test_next_index_rejects_negative():
    with pytest.raises(FiltrationError):
        next_index(-1)
    with pytest.raises(FiltrationError):
        next_index(True)


def clears(index, budget):
    return 4 * index**3 - 2 * index**2 >= 4 * index**2 + budget


def test_next_index_matches_a_cap_table_oracle():
    # The cap table grown index by index, searched linearly: the definition.
    caps = []
    index = 0
    for budget in range(100_001):
        while not caps or caps[-1] < budget:
            index += 1
            caps.append(4 * index**3 - 6 * index**2)
        expected = next(i for i, cap in enumerate(caps, 1) if cap >= budget)
        assert next_index(budget) == expected, budget


def test_next_index_is_tight_for_large_budgets():
    # Budgets on both sides of each cap of indices 250..1030, then huge ones.
    budgets = [4 * i**3 - 6 * i**2 + delta for i in range(250, 1031) for delta in (-1, 0, 1)]
    budgets += [10**24, 10**24 + 1, 7**100, 2**4000 - 1]
    for budget in budgets:
        i = next_index(budget)
        assert clears(i, budget), budget
        assert i == 1 or not clears(i - 1, budget), budget


def test_next_index_of_a_huge_budget_is_quick():
    start = time.perf_counter()
    i = next_index(10**24)
    assert time.perf_counter() - start < 1.0
    assert clears(i, 10**24) and not clears(i - 1, 10**24)


def test_single_stage_run():
    bundle = chain_bundle(32, {1: 1, 2: 1})
    run = build_run(0, [8, 9], [bundle])
    assert run.stages[0].kernel_rank == 4
    assert run.stages[0].dim == 32
    assert run.product_ring.top_dim == 32
    obstruction = product_obstruction(run, 0)
    assert not obstruction.is_zero
    assert obstruction.expected_degree == 16


def test_empty_schedule_rejected():
    with pytest.raises(ScheduleNotIncreasing):
        build_run(0, [], [chain_bundle(32, {1: 1, 2: 1})])


def test_non_increasing_schedule_rejected():
    bundle = chain_bundle(32, {1: 1, 2: 1})
    with pytest.raises(ScheduleNotIncreasing):
        build_run(0, [8, 8], [bundle])
    with pytest.raises(ScheduleNotIncreasing):
        build_run(0, [8, 3], [bundle])


def test_wrong_stage_dimension_rejected():
    bundle = chain_bundle(16, {1: 1, 2: 1})  # budget 8 demands dimension 32
    with pytest.raises(DimensionMismatch):
        build_run(0, [8, 9], [bundle])


def test_vanishing_stage_obstruction_rejected():
    bundle = chain_bundle(32, {})  # zero difference, determinant class vanishes
    with pytest.raises(StageObstructionVanishes):
        build_run(0, [8, 9], [bundle])


def test_unoriented_stage_rejected():
    ring = truncated_polynomial_ring(
        "integer_mod_torsion", 32, [("t", 4)], orientable=False
    )
    bundle = VirtualBundle(
        ring.element({"1": 1, "t": 1, "t^2": 1}), ring.unit()
    )
    with pytest.raises(FiltrationError):
        build_run(0, [8, 9], [bundle])


def test_two_stage_run_product_bookkeeping():
    stage0 = chain_bundle(32, {1: 1, 2: 1}, gen="t")
    # budget 9 gives index 3, dimension 72; kernel rank 6 needs a nonzero
    # size-3 determinant: classes 1 and 3 make it triangular with value t^9
    stage1 = chain_bundle(72, {1: 1, 3: 1}, gen="s")
    run = build_run(1, [8, 9, 10], [stage0, stage1])
    assert [stage.kernel_rank for stage in run.stages] == [4, 6]
    assert [stage.dim for stage in run.stages] == [32, 72]
    assert run.product_ring.top_dim == 104

    first = product_obstruction(run, 0)
    second = product_obstruction(run, 1)
    assert not first.is_zero and not second.is_zero
    # obstructions of different stages land in different degrees
    assert first.expected_degree == 16
    assert second.expected_degree == 36
    # and match the injected stage obstructions
    assert first.value == run.injections[0](run.stages[0].obstruction.value)
    assert second.value == run.injections[1](run.stages[1].obstruction.value)
    # nonzero survival is backed by injectivity of the injections
    from jetstrata.tensor import is_degreewise_injective

    for inject in run.injections:
        assert is_degreewise_injective(inject)


def depth3_bundles():
    """Stages of dimension 32/72/128/200 on generators of degree 4/4/8/20,
    each with a nonzero stage obstruction under the schedule below."""
    bundles = []
    for dim, degree in ((32, 4), (72, 4), (128, 8), (200, 20)):
        ring = truncated_polynomial_ring("integer_mod_torsion", dim, [("x", degree)])
        positive = {"1": 1, "x": 1, "x^2": 1} | ({"x^3": -1} if dim > 32 else {})
        bundles.append(VirtualBundle(ring.element(positive), ring.element({"1": 1, "x": -1})))
    return bundles


DEPTH3_SCHEDULE = [8, 19, 58, 318, 384]


def test_the_replayed_depth3_run_is_the_one_built_here():
    # tools/replay.py writes this run with the benchmark's ring generator.
    document = replay.depth3_run()
    assert (document["d"], document["schedule"]) == (3, DEPTH3_SCHEDULE)
    bundles = depth3_bundles()
    assert len(document["stages"]) == len(bundles)
    for stage, bundle in zip(document["stages"], bundles):
        assert make_ring(stage["ring"]).serialize() == bundle.ring.serialize()
        assert stage["bundle"] == {
            "totalPositive": element_to_spec(bundle.total_positive),
            "totalNegativePulled": element_to_spec(bundle.total_negative_pulled),
        }


def test_depth3_run_on_31977_labels_is_quick():
    bundles = depth3_bundles()
    start = time.perf_counter()
    run = build_run(3, DEPTH3_SCHEDULE, bundles)
    obstructions = [product_obstruction(run, t) for t in range(4)]
    elapsed = time.perf_counter() - start
    assert len(run.product_ring.labels) == 9 * 19 * 17 * 11 == 31_977
    assert [stage.dim for stage in run.stages] == [32, 72, 128, 200]
    assert run.product_ring.top_dim == 432
    for obstruction, stage, inject in zip(obstructions, run.stages, run.injections):
        assert not obstruction.is_zero
        assert obstruction.value == inject(stage.obstruction.value)
    assert elapsed < 10.0


def test_each_run_injection_passes_the_map_checks():
    # kunneth_product sets the injections' slots itself; the unchanged
    # RingMap constructor checks here what it would check on them: image
    # count, ring, degree, unit and multiplicativity.
    stage0 = chain_bundle(32, {1: 1, 2: 1}, gen="t")
    stage1 = chain_bundle(72, {1: 1, 3: 1}, gen="s")
    stage2 = chain_bundle(72, {1: 2, 3: 1}, gen="u")
    run = build_run(2, [8, 9, 10, 11], [stage0, stage1, stage2])
    assert len(run.injections) == 3
    for stage, inject in zip(run.stages, run.injections):
        assert inject.source is stage.ring and inject.target is run.product_ring
        RingMap(inject.source, inject.target, inject.images)


def test_a_stage_index_failing_its_inequality_is_an_internal_inconsistency(monkeypatch):
    # Index 2 fits the dimension 32 = 8*2^2 but clears budgets only up to 8.
    monkeypatch.setattr(filtration, "next_index", lambda budget: 2)
    with pytest.raises(ConsistencyError, match="^stage index fails its own defining inequality$"):
        build_run(0, [100, 101], [chain_bundle(32, {1: 1, 2: 1})])


def test_a_product_obstruction_off_the_injected_stage_class_is_an_internal_inconsistency(monkeypatch, capsys):
    # The class computed on the product ring is replaced by zero, while the
    # stage classes, computed on the stage rings, stay nonzero.
    porteous = filtration.porteous_pontrjagin

    def zero_on_products(rank, context, bundle):
        obstruction = porteous(rank, context, bundle)
        if not isinstance(bundle.ring, TensorRing):
            return obstruction
        return ObstructionClass(bundle.ring.zero(), rank, obstruction.expected_degree, obstruction.variant)

    monkeypatch.setattr(filtration, "porteous_pontrjagin", zero_on_products)
    message = "product obstruction differs from the injected stage obstruction"
    run = build_run(0, [8, 9], [chain_bundle(32, {1: 1, 2: 1})])
    with pytest.raises(ConsistencyError, match=f"^{message}$"):
        product_obstruction(run, 0)
    status = cli.main(["filtration", "run", "--spec", str(Path(__file__).parent / "data" / "filtration_depth2_run.json")])
    assert (status, *capsys.readouterr()) == (1, "", f"internal inconsistency: {message}\n")


def test_product_obstruction_stage_out_of_range():
    run = build_run(0, [8, 9], [chain_bundle(32, {1: 1, 2: 1})])
    with pytest.raises(StageOutOfRange):
        product_obstruction(run, 1)
    with pytest.raises(StageOutOfRange):
        product_obstruction(run, -1)


def test_zero_stage_gives_zero_product_obstruction():
    # a run assembled around an identity-like stage (zero difference) cannot
    # pass build_run; assemble directly to observe the zero pullback
    bundle = chain_bundle(32, {})
    ring = bundle.ring
    stage = FiltrationStage(
        0,
        4,
        8,
        32,
        ring,
        bundle,
        porteous_pontrjagin(4, JetContext(32, 32, INFINITE_ORDER), bundle),
    )
    product, inject = kunneth_product(ring)
    run = FiltrationRun(0, (8, 9), (stage,), product, (inject,))
    assert product_obstruction(run, 0).is_zero


def free_even_ring(top_dim, prefix):
    gens = [(f"{prefix}{d}", d) for d in range(4, top_dim + 1, 4)]
    return truncated_polynomial_ring(
        "integer_mod_torsion", top_dim, gens, fundamental=f"{prefix}{top_dim}"
    )


def test_double_construction_identity_gives_zero_difference():
    left = free_even_ring(8, "a")
    right = free_even_ring(8, "b")
    iso = ring_map_from_generators(
        right, left, {"b4": left.basis_element("a4"), "b8": left.basis_element("a8")}
    )
    iso_back = ring_map_from_generators(
        left, right, {"a4": right.basis_element("b4"), "a8": right.basis_element("b8")}
    )
    tangent_left = left.element({"1": 1, "a4": 3, "a8": -2})
    tangent_right = iso_back(tangent_left)
    construction = double_construction(tangent_left, tangent_right, iso, iso_back)
    for j in range(1, 5):
        assert class_of_virtual(construction.bundle, j) == construction.product_ring.zero()


def test_double_construction_bidegree_identity():
    left = free_even_ring(8, "a")
    right = free_even_ring(8, "b")
    pull = ring_map_from_generators(
        right,
        left,
        {
            "b4": -1 * left.basis_element("a4"),
            "b8": -1 * left.basis_element("a8") + left.basis_element("a4^2"),
        },
    )
    inverse = ring_map_from_generators(
        left,
        right,
        {
            "a4": -1 * right.basis_element("b4"),
            "a8": -1 * right.basis_element("b8") + right.basis_element("b4^2"),
        },
    )
    tangent_left = left.element({"1": 1, "a4": 3, "a8": 5})
    tangent_right = right.element({"1": 1, "b4": 2, "b8": 7})
    construction = double_construction(tangent_left, tangent_right, pull, inverse)
    for j in range(0, 5):
        total_part = class_of_virtual(construction.bundle, j)
        left_part = tensor_component(total_part, 4 * j, 0)
        factor_part = class_of_virtual(construction.factor_bundle, j)
        assert left_part == construction.inject_left(factor_part)


def test_double_construction_dimension_check():
    left = free_even_ring(8, "a")
    right = free_even_ring(12, "b")
    pull = RingMap(right, left, [left.unit() if l == "1" else left.zero() for l in right.labels])
    inverse = RingMap(left, right, [right.unit() if l == "1" else right.zero() for l in left.labels])
    with pytest.raises(DimensionMismatch):
        double_construction(left.unit(), right.unit(), pull, inverse)


def test_double_construction_refuses_a_mod2_factor_and_maps_the_wrong_way():
    left = free_even_ring(8, "a")
    right = free_even_ring(8, "b")
    iso = ring_map_from_generators(right, left, {"b4": left.basis_element("a4"), "b8": left.basis_element("a8")})
    iso_back = ring_map_from_generators(left, right, {"a4": right.basis_element("b4"), "a8": right.basis_element("b8")})
    mod2 = truncated_polynomial_ring("mod2", 8, [("c", 4)])
    for tangents in ((mod2.unit(), right.unit()), (left.unit(), mod2.unit())):
        with pytest.raises(ModeMismatch, match="^both factors must use integer coefficients$"):
            double_construction(*tangents, iso, iso_back)
    with pytest.raises(RingMismatch, match="^pullback must map the right ring into the left ring$"):
        double_construction(left.unit(), right.unit(), iso_back, iso_back)
    with pytest.raises(RingMismatch, match="^inverse pullback must map the left ring into the right ring$"):
        double_construction(left.unit(), right.unit(), iso, iso)


def test_obstruction_splits_off_factor_term():
    # the full stratum class on the product is the factor class tensor 1 plus
    # terms with positive second degree
    left = free_even_ring(8, "a")
    right = free_even_ring(8, "b")
    pull = ring_map_from_generators(
        right, left, {"b4": left.basis_element("a4"), "b8": left.basis_element("a8")}
    )
    inverse = ring_map_from_generators(
        left, right, {"a4": right.basis_element("b4"), "a8": right.basis_element("b8")}
    )
    tangent_left = left.element({"1": 1, "a4": 1, "a8": 1})
    tangent_right = right.unit()
    construction = double_construction(tangent_left, tangent_right, pull, inverse)
    product = construction.product_ring
    obstruction = porteous_pontrjagin(
        2, JetContext(16, 16, INFINITE_ORDER), construction.bundle
    )
    factor = porteous_pontrjagin(
        2, JetContext(8, 8, INFINITE_ORDER), construction.factor_bundle
    )
    difference = obstruction.value - construction.inject_left(factor.value)
    assert tensor_component(difference, 4, 0) == product.zero()


def test_records_are_immutable_and_compare_by_field():
    ring = truncated_polynomial_ring("integer_mod_torsion", 32, [("t", 4)])
    run = build_run(0, [8, 9], [VirtualBundle(ring.element({"1": 1, "t": 1, "t^2": 1}), ring.unit())])
    stage = run.stages[0]
    left, right = free_even_ring(8, "a"), free_even_ring(8, "b")
    iso = ring_map_from_generators(right, left, {"b4": left.basis_element("a4"), "b8": left.basis_element("a8")})
    iso_back = ring_map_from_generators(left, right, {"a4": right.basis_element("b4"), "a8": right.basis_element("b8")})
    tangent = left.element({"1": 1, "a4": 3})
    criterion = criteria.w_inclusion(5, 5, 3, 0, 9)
    records = [
        (JetContext(3, 4, 5), "n"), (BoardmanSymbol((2, 1)), "entries"), (stage.obstruction, "matrix"),
        (criterion, "notes"),
        (criteria.NonexistenceReport(criteria.INCONCLUSIVE, criteria.ROUTE_SW, criterion, None, ()), "verdict"),
        (stage, "ring"), (run, "stages"), (double_construction(tangent, iso_back(tangent), iso, iso_back), "bundle"),
        (selfcheck.CheckResult("check", True), "passed"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert JetContext(3, 4, 5) == JetContext(3, 4, 5) != JetContext(3, 4)
    assert hash(JetContext(3, 4, 5)) == hash(JetContext(3, 4, 5))
    assert criteria.w_inclusion(5, 5, 3, 0, 9) == criterion != criteria.w_inclusion(5, 5, 3, 0, 2)
    # An obstruction class compares by its value and degrees, not by its matrix.
    o = stage.obstruction
    assert ObstructionClass(o.value, o.stratum_index, o.expected_degree, o.variant) == o
    assert ObstructionClass(ring.zero(), o.stratum_index, o.expected_degree, o.variant) != o
    # A record is built from its field values in slot order.  JetContext,
    # ObstructionClass, FiltrationRun and CheckResult default their last
    # field; the four records without a constructor of their own take no
    # keywords.
    defaulted = (JetContext, ObstructionClass, FiltrationRun, selfcheck.CheckResult)
    for record, _ in records:
        kind, values = type(record), [getattr(record, name) for name in record.__slots__]
        assert kind(*values) == record
        required = len(values) - isinstance(record, defaulted)
        with pytest.raises(TypeError):
            kind(*values[:required - 1])
        with pytest.raises(TypeError):
            kind(*values, None)
        if not isinstance(record, defaulted + (BoardmanSymbol,)):
            with pytest.raises(TypeError):
                kind(**dict(zip(record.__slots__, values)))
    with pytest.raises(TypeError, match="^CriterionReport takes 6 field values, got 5$"):
        criteria.CriterionReport("Established", 9, 5, 6, 0)
    # repr lists the shown fields in slot order.
    assert repr(JetContext(3, 4, 5)) == "JetContext(n=3, p=4, k=5)"
    assert repr(selfcheck.CheckResult("check", True)) == "CheckResult(name='check', passed=True, detail='')"
    assert repr(criterion) == (
        "CriterionReport(verdict='Established', lhs=9, rhs=5, k_required=6, shift_used=0, notes='')"
    )
    assert repr(o) == (
        f"ObstructionClass(value={o.value!r}, stratum_index={o.stratum_index!r}, "
        f"expected_degree={o.expected_degree!r}, variant={o.variant!r})"
    )
