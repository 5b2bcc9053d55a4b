"""Acceptance suite.

Each test covers one numbered criterion and prints a PASS/FAIL line; the
stated time budgets are asserted where the criterion carries one.
"""

import itertools
import random
from contextlib import contextmanager
from time import perf_counter

import pytest

from jetstrata.charclass import (
    VirtualBundle,
    class_of_virtual,
    det_graded,
    porteous_pontrjagin,
    porteous_sw,
    w_table_polynomial,
)
from jetstrata.criteria import (
    INCONCLUSIVE,
    nonexistence_verdict,
    w_inclusion,
)
from jetstrata.filtration import double_construction, next_index
from jetstrata.gring import invert_total_class
from jetstrata.selfcheck import leibniz_det
from jetstrata.symbols import (
    INFINITE_ORDER,
    BoardmanSymbol,
    JetContext,
    codim_lower_bound,
)
from jetstrata.tensor import truncated_polynomial_ring

from conftest import four_manifold_ring, ring_map_from_generators


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {label}")
        raise
    print(f"PASS criterion {label}")


def assert_within(budget, body):
    """Run ``body`` and require it to finish inside ``budget`` seconds.

    One retry absorbs transient machine load; the computation itself must
    genuinely fit the budget.
    """
    import gc

    for attempt in range(2):
        start = perf_counter()
        body()
        elapsed = perf_counter() - start
        if elapsed < budget:
            return
        gc.collect()
    raise AssertionError(f"took {elapsed:.2f}s, budget {budget}s")


def test_criterion_1_codimension_bound_suite():
    def body():
        for n in range(1, 11):
            pool = []
            for length in range(1, 6):
                for combo in itertools.combinations_with_replacement(
                    range(1, n + 1), length
                ):
                    pool.append(BoardmanSymbol(tuple(reversed(combo))))
            for p in range(2, 11):
                ctx = JetContext(n, p, 20)
                floor = max(n - p + 1, 1)
                gap = abs(n - p)
                for sym in pool:
                    if sym.entries[0] < floor:
                        continue
                    # all entries positive by construction, so the last is > 0
                    assert codim_lower_bound(sym, ctx) >= gap + len(sym.entries)
                for i in range(floor, n + 1):
                    assert codim_lower_bound(BoardmanSymbol((i,)), ctx) == (p - n + i) * i

    with criterion("1: codimension bound, exhaustive n,p<=10 length<=5 under 1s"):
        assert_within(1.0, body)


def test_criterion_2_stage_index_recursion():
    def body():
        values = list(map(next_index, range(1_000_001)))
        assert values[0] == 2
        assert min(values) >= 1
        assert sorted(values) == values

    with criterion("2: stage index recursion, monotone through 10^6 under 1s"):
        assert next_index(0) == 2
        assert 8 * next_index(0) ** 2 == 32
        assert_within(1.0, body)


def test_criterion_3_equal_dimension_cubic_identity():
    with criterion("3: equal-dimension inclusion bound equals 4i^3-2i^2 up to i=50"):
        for i in range(1, 51):
            q = max(i * i, 1)
            report = w_inclusion(4 * q, 4 * q, 2 * i, 3, 10**9)
            assert report.lhs == 4 * i**3 - 2 * i**2


@pytest.fixture(scope="module")
def sw_chain_bundle(mod2_chain):
    total = mod2_chain.unit()
    for j in range(1, 31):
        total = total + mod2_chain.basis_element("w" if j == 1 else f"w^{j}")
    return VirtualBundle(total, mod2_chain.unit())


@pytest.fixture(scope="module")
def pontrjagin_chain_bundle(int_chain):
    total = int_chain.unit()
    for j in range(1, 13):
        total = total + int_chain.basis_element("t" if j == 1 else f"t^{j}")
    return VirtualBundle(total, int_chain.unit())


def test_criterion_4_determinant_degree_law(sw_chain_bundle, pontrjagin_chain_bundle):
    with criterion("4: determinant degree law over all admissible n,p<=12"):
        for n in range(1, 13):
            for p in range(2, 13):
                ctx = JetContext(n, p, 30)
                for i in range(1, n + 1):
                    size = p - n + i
                    if size < 0:
                        continue
                    obstruction = porteous_sw(i, ctx, sw_chain_bundle)
                    assert obstruction.expected_degree == size * i
                    assert obstruction.value.is_homogeneous(size * i)
                    if size == 1:
                        # 1x1 case: the single class of index n-p+1 = i
                        assert obstruction.value == class_of_virtual(sw_chain_bundle, i)
                        assert i == n - p + 1
                if (n - p) % 2 != 0:
                    continue
                u = (n - p) // 2
                for i in range(2, n + 1, 2):
                    v = i // 2
                    size = v - u
                    if size < 0:
                        continue
                    obstruction = porteous_pontrjagin(i, ctx, pontrjagin_chain_bundle)
                    assert obstruction.expected_degree == 4 * v * size
                    assert obstruction.value.is_homogeneous(4 * v * size)
                    if size == 1:
                        assert obstruction.value == class_of_virtual(
                            pontrjagin_chain_bundle, v
                        )


def test_criterion_5_dimension_table():
    with criterion("5: tabulated self-map polynomial, dimensions 5..8"):
        small = truncated_polynomial_ring("integer_mod_torsion", 8, [("t", 4)])
        nontrivial = VirtualBundle(
            small.element({"1": 1, "t": 2, "t^2": -3}), small.unit()
        )
        for p in (5, 6, 7):
            assert w_table_polynomial(p, nontrivial).is_zero
        ring = truncated_polynomial_ring(
            "integer_mod_torsion", 8, [("a", 4), ("b", 8)], fundamental="b"
        )
        a = ring.basis_element("a")
        b = ring.basis_element("b")
        bundle = VirtualBundle(ring.unit() + a + b, ring.unit())
        assert w_table_polynomial(8, bundle).value == 9 * b + 3 * (a * a)
        assert w_table_polynomial(8, VirtualBundle(ring.unit(), ring.unit())).is_zero


def test_criterion_6_four_manifold_truncation():
    with criterion("6: rank-4 class on a 4-manifold reduces to the second class"):
        ring = four_manifold_ring()
        bundle = VirtualBundle(ring.element({"1": 1, "x2": 3}), ring.unit())
        assert class_of_virtual(bundle, 1) == ring.element({"x2": 3})  # ring is not degenerate
        determinant = porteous_pontrjagin(4, JetContext(4, 4, 20), bundle)
        second = class_of_virtual(bundle, 2)
        # both sides truncate above the top dimension and agree exactly
        assert determinant.value == second
        assert determinant.value == ring.zero()


def _product_scenario(q, mix_degree_8):
    top = 4 * q
    degrees = list(range(4, top + 1, 4))
    left = truncated_polynomial_ring(
        "integer_mod_torsion", top, [(f"a{d}", d) for d in degrees], fundamental=f"a{top}"
    )
    right = truncated_polynomial_ring(
        "integer_mod_torsion", top, [(f"b{d}", d) for d in degrees], fundamental=f"b{top}"
    )
    pull_images = {f"b{d}": -1 * left.basis_element(f"a{d}") for d in degrees}
    inverse_images = {f"a{d}": -1 * right.basis_element(f"b{d}") for d in degrees}
    if mix_degree_8 and 8 in degrees:
        pull_images["b8"] = -1 * left.basis_element("a8") + left.basis_element("a4^2")
        inverse_images["a8"] = -1 * right.basis_element("b8") + right.basis_element("b4^2")
    pull = ring_map_from_generators(right, left, pull_images)
    inverse = ring_map_from_generators(left, right, inverse_images)
    tangent_left = left.element(
        {"1": 1, **{f"a{d}": 1 + d // 4 for d in degrees}}
    )
    tangent_right = right.element(
        {"1": 1, **{f"b{d}": 2 + d // 4 for d in degrees}}
    )
    return double_construction(tangent_left, tangent_right, pull, inverse)


def test_criterion_7_product_decomposition_identity():
    from jetstrata.tensor import tensor_component

    def body():
        for q in (1, 2, 3, 4):
            construction = _product_scenario(q, mix_degree_8=(q >= 2))
            product_dim = construction.product_ring.top_dim
            assert product_dim == 8 * q
            for j in range(0, product_dim // 4 + 1):
                part = tensor_component(class_of_virtual(construction.bundle, j), 4 * j, 0)
                factor = class_of_virtual(construction.factor_bundle, j)
                assert part == construction.inject_left(factor)
            for i in (1, 2):
                if 4 * i * i > product_dim:
                    continue
                ctx = JetContext(product_dim, product_dim, INFINITE_ORDER)
                product_class = porteous_pontrjagin(2 * i, ctx, construction.bundle)
                factor_ctx = JetContext(4 * q, 4 * q, INFINITE_ORDER)
                factor_class = porteous_pontrjagin(2 * i, factor_ctx, construction.factor_bundle)
                difference = product_class.value - construction.inject_left(
                    factor_class.value
                )
                assert tensor_component(difference, 4 * i * i, 0) == (
                    construction.product_ring.zero()
                )

    with criterion("7: product class decomposition, factors up to dimension 16 under 5s"):
        assert_within(5.0, body)


def test_criterion_8_oracle_suites():
    with criterion("8: determinant oracle, inverse involution, identity-map soundness"):
        # determinant vs the signed permutation sum on every corpus matrix
        ring = truncated_polynomial_ring(
            "integer_mod_torsion", 16, [("s", 2), ("t", 4)], fundamental="s^8"
        )
        rng = random.Random(271828)
        pool = [
            ring.zero(),
            ring.unit(),
            ring.basis_element("s"),
            ring.basis_element("t"),
            ring.basis_element("s") + ring.unit(),
            3 * ring.basis_element("t") - ring.basis_element("s^2"),
        ]
        for size in range(0, 5):
            for _ in range(8):
                matrix = [[rng.choice(pool) for _ in range(size)] for _ in range(size)]
                assert det_graded(matrix, ring=ring) == leibniz_det(matrix, ring)

        # inverse of a total class is an involution, 100 randomized totals
        rings = [
            four_manifold_ring(),
            ring,
            truncated_polynomial_ring("mod2", 6, [("u", 1), ("v", 2)], fundamental="u^2*v^2"),
        ]
        count = 0
        while count < 100:
            owner = rings[count % len(rings)]
            unit = owner.labels[owner.unit_position]
            coeffs = {unit: 1}
            for label in owner.labels:
                if label != unit:
                    coeffs[label] = rng.randint(-9, 9)
            total = owner.element(coeffs)
            inverse = invert_total_class(total)
            assert total * inverse == owner.unit()
            assert invert_total_class(inverse) == total
            count += 1

        # identity map: zero difference yields zero obstruction and an
        # inconclusive verdict at every stratum index, budget and jet order
        int_ring = truncated_polynomial_ring("integer_mod_torsion", 8, [("t", 4)])
        int_bundle = VirtualBundle(int_ring.unit(), int_ring.unit())
        for i in (2, 4, 6, 8):
            for ell in range(0, 5):
                for k in (9 + ell, 50, INFINITE_ORDER):
                    report = nonexistence_verdict(int_bundle, i, ell, k, (8, 8))
                    assert report.verdict == INCONCLUSIVE
                    if report.obstruction is not None:
                        assert report.obstruction.is_zero
        mod2_ring = truncated_polynomial_ring("mod2", 6, [("w", 1)])
        total = mod2_ring.unit() + mod2_ring.basis_element("w")
        equal_totals = VirtualBundle(total, total)  # classes of the difference vanish
        for i in range(1, 7):
            for ell in range(0, 4):
                for k in (7 + ell, 40, INFINITE_ORDER):
                    report = nonexistence_verdict(equal_totals, i, ell, k, (6, 6))
                    assert report.verdict == INCONCLUSIVE
                    assert report.obstruction.is_zero
