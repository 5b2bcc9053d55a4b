import random
import time

import pytest

from jetstrata import charclass
from jetstrata.charclass import (
    MAX_MATRIX_SIZE,
    CharClassError,
    ClassVariant,
    ModeMismatch,
    NegativeSize,
    NotSquare,
    ParityError,
    UnsupportedDimension,
    VirtualBundle,
    _porteous,
    class_of_virtual,
    det_graded,
    porteous_pontrjagin,
    porteous_sw,
    w_table_polynomial,
)
from jetstrata.gring import NotAUnit, RingMismatch, truncated_polynomial_ring
from jetstrata.selfcheck import leibniz_det
from jetstrata.symbols import JetContext

from conftest import four_manifold_ring


def zero_bundle(ring):
    return VirtualBundle(ring.unit(), ring.unit())


def test_bundle_requires_unit_leading_terms(four_ring):
    with pytest.raises(NotAUnit):
        VirtualBundle(four_ring.zero(), four_ring.unit())
    with pytest.raises(NotAUnit):
        VirtualBundle(four_ring.unit(), 2 * four_ring.unit())


def test_bundle_rejects_mixed_rings():
    a = four_manifold_ring()
    b = four_manifold_ring()
    with pytest.raises(RingMismatch):
        VirtualBundle(a.unit(), b.unit())


def test_integer_bundle_rejects_degrees_not_divisible_by_four(four_ring):
    with pytest.raises(ParityError):
        VirtualBundle(four_ring.element({"1": 1, "x": 1}), four_ring.unit())


def test_class_of_virtual_zero_difference(four_ring):
    total = four_ring.element({"1": 1, "x2": 3})
    bundle = VirtualBundle(total, total)
    for j in range(1, 5):
        assert class_of_virtual(bundle, j) == four_ring.zero()


def test_class_of_virtual_reads_off_positive_total(four_ring):
    # trivial subtracted part: classes are those of the positive bundle
    bundle = VirtualBundle(four_ring.element({"1": 1, "x2": 3}), four_ring.unit())
    assert class_of_virtual(bundle, 0) == four_ring.unit()
    assert class_of_virtual(bundle, 1) == four_ring.element({"x2": 3})
    assert class_of_virtual(bundle, 2) == four_ring.zero()
    assert class_of_virtual(bundle, -1) == four_ring.zero()


def test_virtual_total_consistency(four_ring):
    positive = four_ring.element({"1": 1, "x2": 7})
    pulled = four_ring.element({"1": 1, "x2": -2})
    bundle = VirtualBundle(positive, pulled)
    assert bundle.virtual_total() * pulled == positive


def test_det_graded_identity_pattern(four_ring):
    one = four_ring.unit()
    zero = four_ring.zero()
    matrix = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    assert det_graded(matrix) == one


def test_det_graded_single_entry(four_ring):
    x = four_ring.basis_element("x")
    assert det_graded([[x]]) == x


def test_det_graded_empty_needs_ring(four_ring):
    assert det_graded([], ring=four_ring) == four_ring.unit()
    with pytest.raises(NotSquare):
        det_graded([])


def test_det_graded_rejects_ragged_matrix(four_ring):
    one = four_ring.unit()
    with pytest.raises(NotSquare):
        det_graded([[one, one], [one]])


def test_det_graded_rejects_mixed_rings():
    a = four_manifold_ring()
    b = four_manifold_ring()
    with pytest.raises(RingMismatch):
        det_graded([[a.unit(), a.unit()], [a.unit(), b.unit()]])
    with pytest.raises(RingMismatch, match="given ring"):
        det_graded([[a.unit()]], ring=b)


def test_det_graded_matches_leibniz_oracle():
    ring = truncated_polynomial_ring(
        "integer_mod_torsion", 16, [("s", 2), ("t", 4)], fundamental="s^8"
    )
    rng = random.Random(11)
    pool = [ring.zero(), ring.unit(), ring.basis_element("s"), ring.basis_element("t")]
    pool += [2 * ring.basis_element("s"), ring.basis_element("s") + ring.unit()]
    for size in range(1, 5):
        for _ in range(6):
            matrix = [[rng.choice(pool) for _ in range(size)] for _ in range(size)]
            assert det_graded(matrix, ring=ring) == leibniz_det(matrix, ring)
    # Further inputs: sizes 5 and 6, and a mod-2 ring with odd degrees.
    mod2 = truncated_polynomial_ring("mod2", 8, [("u", 1), ("v", 2), ("w", 3)], fundamental="u^8")
    u, v, w = (mod2.basis_element(g) for g in "uvw")
    mod2_pool = [mod2.zero(), mod2.unit(), u, v, w, u + mod2.unit(), u * u + v, u * v + w]
    for owner, entries, sizes in ((ring, pool, range(5, 7)), (mod2, mod2_pool, range(1, 7))):
        for size in sizes:
            for _ in range(6):
                matrix = [[rng.choice(entries) for _ in range(size)] for _ in range(size)]
                assert det_graded(matrix, ring=owner) == leibniz_det(matrix, owner)


def test_porteous_sw_one_by_one_is_single_class():
    ring = truncated_polynomial_ring("mod2", 6, [("w", 1)])
    total = ring.unit()
    for j in range(1, 7):
        total = total + ring.basis_element("w" if j == 1 else f"w^{j}")
    bundle = VirtualBundle(total, ring.unit())
    # size p-n+i = 1 exactly when i = n-p+1
    for n, p in [(4, 4), (6, 3), (5, 2)]:
        i = n - p + 1
        obstruction = porteous_sw(i, JetContext(n, p, 9), bundle)
        assert obstruction.value == class_of_virtual(bundle, i)
        assert obstruction.expected_degree == i


def test_porteous_sw_two_by_two_expansion():
    ring = truncated_polynomial_ring(
        "mod2", 4, [("w1", 1), ("w2", 2), ("w3", 3)], fundamental="w1*w3"
    )
    w1 = ring.basis_element("w1")
    w2 = ring.basis_element("w2")
    w3 = ring.basis_element("w3")
    bundle = VirtualBundle(ring.unit() + w1 + w2 + w3, ring.unit())
    obstruction = porteous_sw(2, JetContext(4, 4, 9), bundle)
    assert obstruction.value == w2 * w2 + w1 * w3
    assert obstruction.expected_degree == 4


def test_porteous_sw_zero_bundle_vanishes():
    ring = truncated_polynomial_ring("mod2", 6, [("w", 1)])
    bundle = zero_bundle(ring)
    for n, p in [(4, 4), (5, 3), (3, 5)]:
        for i in range(max(n - p, 0) + 1, n + 1):
            if p - n + i < 1:
                continue
            assert porteous_sw(i, JetContext(n, p, 9), bundle).is_zero


def test_porteous_sw_validation(four_ring):
    ring = truncated_polynomial_ring("mod2", 4, [("w", 1)])
    bundle = zero_bundle(ring)
    with pytest.raises(NegativeSize):
        porteous_sw(1, JetContext(5, 2, 9), bundle)
    integer_bundle = zero_bundle(four_ring)
    with pytest.raises(ModeMismatch):
        porteous_sw(1, JetContext(4, 4, 9), integer_bundle)


def test_matrix_size_cap_is_exact_for_both_classes():
    mod2 = truncated_polynomial_ring("mod2", 8, [("w", 1)])
    sw_bundle = VirtualBundle(mod2.element({"1": 1, "w": 1}), mod2.unit())
    # size p-n+i = i at n = p
    assert len(porteous_sw(MAX_MATRIX_SIZE, JetContext(4, 4), sw_bundle).matrix) == MAX_MATRIX_SIZE
    integer = truncated_polynomial_ring("integer_mod_torsion", 8, [("t", 4)])
    p_bundle = VirtualBundle(integer.element({"1": 1, "t": 1}), integer.unit())
    # size v-u = i/2 at n = p
    assert len(porteous_pontrjagin(2 * MAX_MATRIX_SIZE, JetContext(4, 4), p_bundle).matrix) == MAX_MATRIX_SIZE
    message = f"matrix size {MAX_MATRIX_SIZE + 1} exceeds the cap MAX_MATRIX_SIZE"
    with pytest.raises(CharClassError, match=message):
        porteous_sw(MAX_MATRIX_SIZE + 1, JetContext(4, 4), sw_bundle)
    with pytest.raises(CharClassError, match=message):
        porteous_pontrjagin(2 * MAX_MATRIX_SIZE + 2, JetContext(4, 4), p_bundle)


def test_determinant_at_the_cap_meets_the_dual_jacobi_trudi_identity():
    # A size-cap class matrix of a random total centred at k has the
    # determinant of the size-k matrix of its inverse centred at the cap, up
    # to (-1)^(cap k).  The cap-size determinant is bounded in time.
    rng = random.Random(17)
    values = []
    for mode, degree in (("mod2", 1), ("integer_mod_torsion", 4)):
        ring = truncated_polynomial_ring(mode, 2 * MAX_MATRIX_SIZE * degree, [("w", degree)])
        coeffs = {label: rng.randint(-3, 3) for label in ring.labels}
        total = ring.element({**coeffs, "1": 1})
        for k in (1, 2):
            start = time.perf_counter()
            left = _porteous(VirtualBundle(total, ring.unit()), 0, k, MAX_MATRIX_SIZE, "cap")
            assert time.perf_counter() - start < 2.0
            right = _porteous(VirtualBundle(ring.unit(), total), 0, MAX_MATRIX_SIZE, k, "k")
            assert len(left.matrix) == MAX_MATRIX_SIZE
            assert left.value == (-right.value if MAX_MATRIX_SIZE * k % 2 else right.value)
            values.append(left.value)
    # A mod-2 value is one bit, but the identity must not hold only as 0 = 0.
    assert sum(1 for value in values if value) >= 2


def test_porteous_pontrjagin_one_by_one(four_ring):
    bundle = VirtualBundle(four_ring.element({"1": 1, "x2": 3}), four_ring.unit())
    obstruction = porteous_pontrjagin(2, JetContext(4, 4, 9), bundle)
    assert obstruction.value == four_ring.element({"x2": 3})
    assert obstruction.expected_degree == 4
    assert obstruction.variant is ClassVariant.PONTRJAGIN


def test_porteous_pontrjagin_parity_and_mode(four_ring):
    bundle = zero_bundle(four_ring)
    with pytest.raises(ParityError):
        porteous_pontrjagin(3, JetContext(4, 4, 9), bundle)
    with pytest.raises(ParityError):
        porteous_pontrjagin(2, JetContext(5, 4, 9), bundle)
    mod2 = zero_bundle(truncated_polynomial_ring("mod2", 4, [("w", 1)]))
    with pytest.raises(ModeMismatch):
        porteous_pontrjagin(2, JetContext(4, 4, 9), mod2)


def test_a_class_zero_by_degree_takes_no_determinant(monkeypatch):
    # Degree size * deg(center) above top_dim: the class is zero, and its
    # full matrix is still built, as the report prints it.
    def refuse(*args, **kwargs):
        raise AssertionError("det_graded called")

    monkeypatch.setattr(charclass, "det_graded", refuse)
    mod2 = truncated_polynomial_ring("mod2", 6, [("w", 1)])
    sw_bundle = VirtualBundle(mod2.element({label: 1 for label in mod2.labels}), mod2.unit())
    integer = truncated_polynomial_ring("integer_mod_torsion", 8, [("t", 4)])
    p_bundle = VirtualBundle(integer.element({"1": 1, "t": 2, "t^2": 3}), integer.unit())
    for obstruction, bundle, center, degree in (
        (porteous_sw(3, JetContext(4, 4), sw_bundle), sw_bundle, 3, 9),  # 3 x 3, degree 9 > 6
        (porteous_pontrjagin(4, JetContext(4, 4), p_bundle), p_bundle, 2, 16),  # 2 x 2, degree 16 > 8
    ):
        size = len(obstruction.matrix)
        assert obstruction.is_zero and obstruction.expected_degree == degree
        assert obstruction.matrix == tuple(
            tuple(class_of_virtual(bundle, center + s - t) for t in range(size)) for s in range(size)
        )
        assert any(entry and entry != bundle.ring.unit() for row in obstruction.matrix for entry in row)


def test_porteous_pontrjagin_zero_bundle(four_ring):
    bundle = zero_bundle(four_ring)
    for i in (2, 4):
        assert porteous_pontrjagin(i, JetContext(4, 4, 9), bundle).is_zero


def test_porteous_size_zero_is_unit():
    # empty determinant: the class of the full jet space is 1
    mod2 = truncated_polynomial_ring("mod2", 4, [("w", 1)])
    sw = porteous_sw(2, JetContext(5, 3, 9), zero_bundle(mod2))  # p-n+i = 0
    assert sw.value == mod2.unit()
    assert sw.expected_degree == 0
    ring = truncated_polynomial_ring("integer_mod_torsion", 8, [("t", 4)])
    pont = porteous_pontrjagin(4, JetContext(6, 2, 9), zero_bundle(ring))  # v = u = 2
    assert pont.value == ring.unit()
    assert pont.expected_degree == 0


def test_porteous_pontrjagin_negative_size():
    ring = truncated_polynomial_ring("integer_mod_torsion", 8, [("t", 4)])
    with pytest.raises(NegativeSize):
        porteous_pontrjagin(2, JetContext(8, 2, 9), zero_bundle(ring))  # v-u = -2


def test_porteous_pontrjagin_two_by_two_symbolic():
    ring = truncated_polynomial_ring(
        "integer_mod_torsion", 16, [("p1", 4), ("p2", 8), ("p3", 12)], fundamental="p1^4"
    )
    p1 = ring.basis_element("p1")
    p2 = ring.basis_element("p2")
    p3 = ring.basis_element("p3")
    bundle = VirtualBundle(ring.unit() + p1 + p2 + p3, ring.unit())
    obstruction = porteous_pontrjagin(4, JetContext(16, 16, 33), bundle)
    assert obstruction.value == p2 * p2 - p1 * p3
    assert obstruction.expected_degree == 16


def test_equal_totals_kill_every_obstruction():
    # a homotopy-equivalence-like scenario: the pulled-back total equals the
    # tangent total, so every determinant class must vanish
    mod2 = truncated_polynomial_ring("mod2", 6, [("w", 1)])
    total2 = mod2.unit() + mod2.basis_element("w") + mod2.basis_element("w^2")
    sw_bundle = VirtualBundle(total2, total2)
    for i in range(1, 6):
        assert porteous_sw(i, JetContext(6, 6, 9), sw_bundle).is_zero
    ring = truncated_polynomial_ring("integer_mod_torsion", 16, [("t", 4)])
    total = ring.unit() + ring.basis_element("t") + 5 * ring.basis_element("t^2")
    int_bundle = VirtualBundle(total, total)
    for i in (2, 4):
        assert porteous_pontrjagin(i, JetContext(16, 16, 33), int_bundle).is_zero


def test_w_table_vanishing_dimensions():
    ring = truncated_polynomial_ring("integer_mod_torsion", 8, [("t", 4)])
    bundle = VirtualBundle(ring.unit() + 3 * ring.basis_element("t"), ring.unit())
    for p in (5, 6, 7):
        assert w_table_polynomial(p, bundle).is_zero


def test_w_table_dimension_eight_formula():
    ring = truncated_polynomial_ring(
        "integer_mod_torsion", 8, [("a", 4), ("b", 8)], fundamental="b"
    )
    a = ring.basis_element("a")
    b = ring.basis_element("b")
    bundle = VirtualBundle(ring.unit() + a + b, ring.unit())
    obstruction = w_table_polynomial(8, bundle)
    assert obstruction.value == 9 * b + 3 * (a * a)
    assert obstruction.expected_degree == 8


def test_w_table_zero_difference():
    ring = truncated_polynomial_ring("integer_mod_torsion", 8, [("t", 4)])
    assert w_table_polynomial(8, zero_bundle(ring)).is_zero


def test_w_table_guards():
    ring = truncated_polynomial_ring("integer_mod_torsion", 8, [("t", 4)])
    bundle = zero_bundle(ring)
    with pytest.raises(UnsupportedDimension):
        w_table_polynomial(4, bundle)
    with pytest.raises(UnsupportedDimension):
        w_table_polynomial(9, bundle)
    mod2 = zero_bundle(truncated_polynomial_ring("mod2", 8, [("w", 1)]))
    with pytest.raises(ModeMismatch):
        w_table_polynomial(8, mod2)


def test_obstruction_homogeneity_small_grid():
    ring = truncated_polynomial_ring("mod2", 36, [("w", 1)])
    total = ring.unit()
    for j in range(1, 13):
        total = total + ring.basis_element("w" if j == 1 else f"w^{j}")
    bundle = VirtualBundle(total, ring.unit())
    for n in range(2, 7):
        for p in range(2, 7):
            for i in range(1, n + 1):
                size = p - n + i
                if size < 0:
                    continue
                obstruction = porteous_sw(i, JetContext(n, p, 9), bundle)
                assert obstruction.expected_degree == size * i
                assert obstruction.value.is_homogeneous(size * i)
