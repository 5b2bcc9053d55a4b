import time

import pytest

from jetstrata import criteria
from jetstrata.charclass import VirtualBundle
from jetstrata.criteria import (
    BadInput,
    CriterionReport,
    ESTABLISHED,
    INCONCLUSIVE,
    NOT_ESTABLISHED,
    NOT_HOMOTOPIC,
    nonexistence_verdict,
    nonstable_inclusion,
    stabilized_w_inclusion,
    w_inclusion,
)
from jetstrata.filtration import double_construction
from jetstrata.gring import ModeMismatch
from jetstrata.symbols import INFINITE_ORDER, ConsistencyError
from jetstrata.tensor import RingMap, truncated_polynomial_ring


def test_nonstable_established():
    report = nonstable_inclusion(4, 4, 3, 5)
    assert report.verdict == ESTABLISHED
    assert report.lhs == 9
    assert report.rhs == 4
    assert report.k_required == 5


def test_nonstable_inequality_fails():
    report = nonstable_inclusion(4, 4, 2, 9)
    assert report.verdict == NOT_ESTABLISHED
    assert report.lhs == 2


def test_nonstable_jet_order_too_small():
    report = nonstable_inclusion(4, 4, 3, 4)  # k = p is just below the requirement
    assert report.verdict == NOT_ESTABLISHED
    assert report.k_required == 5


def test_nonstable_bad_input():
    with pytest.raises(BadInput):
        nonstable_inclusion(4, 4, 0, 9)
    with pytest.raises(BadInput):
        nonstable_inclusion(8, 3, 1, 9)  # p - n + i negative


def test_criteria_reject_bools_and_nonpositive_dimensions():
    for args in ((True, 4, 1, 9), (4, True, 1, 9), (4, 4, True, 9), (4, 4, 1, True)):
        with pytest.raises(BadInput):
            nonstable_inclusion(*args)
    with pytest.raises(BadInput):
        w_inclusion(4, 4, 1, True, 9)
    for n, p in ((0, 3), (-5, 0), (4, 0)):
        with pytest.raises(BadInput, match="dimensions must be positive"):
            nonstable_inclusion(n, p, 1, INFINITE_ORDER)


def test_w_inclusion_equal_dimensions():
    report = w_inclusion(8, 8, 3, 1, 18)
    assert report.verdict == ESTABLISHED
    assert report.lhs == 9
    assert report.rhs == 9
    assert report.k_required == 10


def test_w_inclusion_simplification_for_all_small_ranks():
    for i in range(1, 21):
        report = w_inclusion(12, 12, i, 0, 10**6)
        assert report.lhs == i * i * (i - 1) // 2


def test_w_inclusion_cubic_form_for_even_ranks():
    for i in range(1, 51):
        q = i * i
        report = w_inclusion(4 * q, 4 * q, 2 * i, 0, 10**9)
        assert report.lhs == 4 * i**3 - 2 * i**2


def test_w_inclusion_budget_zero_matches_nonstable():
    for n, p, i in [(4, 4, 3), (6, 8, 2), (9, 9, 4)]:
        with_budget = w_inclusion(n, p, i, 0, 10**6)
        plain = nonstable_inclusion(n, p, i, 10**6)
        assert with_budget.lhs == plain.lhs
        assert with_budget.rhs == plain.rhs == n


def test_w_inclusion_monotone_in_budget():
    k = 10**6
    for n, p, i in [(8, 8, 3), (9, 9, 4), (6, 9, 3)]:
        budgets = [ell for ell in range(0, 30) if w_inclusion(n, p, i, ell, k).established]
        # once a budget fails, all larger budgets fail too
        assert budgets == list(range(len(budgets)))


def test_w_inclusion_accepts_infinite_order():
    assert w_inclusion(8, 8, 3, 1, INFINITE_ORDER).established


def test_stabilized_direct_hit_uses_shift_zero():
    report = stabilized_w_inclusion(8, 8, 3, 1, 18)
    assert report.verdict == ESTABLISHED
    assert report.shift_used == 0


def test_stabilized_finds_smallest_shift():
    report = stabilized_w_inclusion(20, 20, 3, 1, 100)
    assert report.verdict == ESTABLISHED
    assert report.shift_used == 12
    assert report.lhs == 9
    assert report.rhs == 9
    assert report.k_required == 10


def test_a_failed_equal_dimension_simplification_is_an_internal_inconsistency(monkeypatch):
    lhs = criteria._inclusion_lhs
    monkeypatch.setattr(criteria, "_inclusion_lhs", lambda n, p, i: lhs(n, p, i) + 1)
    with pytest.raises(ConsistencyError, match="^equal-dimension simplification of the inclusion bound failed$"):
        w_inclusion(8, 8, 3, 1, INFINITE_ORDER)


def test_a_shift_that_does_not_establish_the_inclusion_is_an_internal_inconsistency(monkeypatch):
    # Every report reads not established, so the shift read off in closed
    # form (m = 12 here) fails its own replay.
    direct = criteria.w_inclusion

    def never_established(*args):
        report = direct(*args)
        return CriterionReport(NOT_ESTABLISHED, report.lhs, report.rhs, report.k_required, 0, "")

    monkeypatch.setattr(criteria, "w_inclusion", never_established)
    with pytest.raises(ConsistencyError, match="^the smallest working shift m=12 does not establish the inclusion$"):
        stabilized_w_inclusion(20, 20, 3, 1, 100)


def test_stabilized_rank_above_source():
    report = stabilized_w_inclusion(2, 2, 3, 0, 100)
    assert report.verdict == NOT_ESTABLISHED
    assert "every shift" in report.notes


@pytest.mark.parametrize("k", [0, -1, True, "seven"])
def test_stabilized_refuses_a_bad_jet_order_with_no_admissible_shift(k):
    # i > n leaves no shift to try, so only the entry check sees k.
    with pytest.raises(BadInput, match="jet order"):
        stabilized_w_inclusion(1, 5, 3, 0, k)


def test_stabilized_replays_as_direct_inclusion():
    for n, p, i, ell in [(20, 20, 3, 1), (32, 32, 4, 8), (14, 14, 4, 3)]:
        report = stabilized_w_inclusion(n, p, i, ell, 10**6)
        if report.established:
            m = report.shift_used
            assert w_inclusion(n - m, p - m, i, ell, 10**6).established


def test_stabilized_jet_order_constraint_moves_with_shift():
    # at k = 10 the unshifted requirement fails but a deeper shift repairs it
    direct = w_inclusion(20, 20, 3, 1, 10)
    assert not direct.established
    report = stabilized_w_inclusion(20, 20, 3, 1, 10)
    assert report.established
    assert report.k_required <= 10


def scanned_stabilized(n, p, i, ell, k):
    """The smallest working shift by scanning m = 0..n-i: the definition."""
    for m in range(0, max(n - i, -1) + 1):
        if i > n - m or (n >= p and p - m < 2):
            continue
        if w_inclusion(n - m, p - m, i, ell, k).established:
            return m
    return None


def test_stabilized_shift_matches_the_scan():
    established = 0
    for n in range(1, 13):
        for p in range(1, 13):
            for i in range(1, 14):
                if p - n + i < 0:
                    continue
                for ell in (0, 1, 3):
                    for k in (1, p, p + ell + 1, 30, INFINITE_ORDER):
                        report = stabilized_w_inclusion(n, p, i, ell, k)
                        m = scanned_stabilized(n, p, i, ell, k)
                        assert report.established == (m is not None), (n, p, i, ell, k)
                        if m is not None:
                            established += 1
                            direct = w_inclusion(n - m, p - m, i, ell, k)
                            assert (report.shift_used, report.lhs, report.rhs, report.k_required) == (
                                m, direct.lhs, direct.rhs, direct.k_required
                            )
    assert established > 100


def test_stabilized_cost_does_not_grow_with_the_dimensions():
    start = time.perf_counter()
    for n in (10**7, 10**12, 10**40):
        assert not stabilized_w_inclusion(n, n, 1, 0, 5).established
        # lhs = 9 for i = 3, so the shift must bring n down to 9.
        assert stabilized_w_inclusion(n, n, 3, 0, INFINITE_ORDER).shift_used == n - 9
    assert time.perf_counter() - start < 1.0


def test_reports_satisfy_verdict_iff_inequality():
    # the reported numbers always justify the verdict; the one documented
    # exception is a stabilized query whose stratum is empty at every shift
    for n in range(1, 9):
        for p in range(2, 9):
            for i in range(1, 9):
                if p - n + i < 0:
                    continue
                for ell in (0, 2):
                    for k in (p + ell, p + ell + 1, 60):
                        plain = nonstable_inclusion(n, p, i, k)
                        assert plain.established == (
                            plain.lhs >= plain.rhs and k >= plain.k_required
                        )
                        budget = w_inclusion(n, p, i, ell, k)
                        assert budget.established == (
                            budget.lhs >= budget.rhs and k >= budget.k_required
                        )
                        shifted = stabilized_w_inclusion(n, p, i, ell, k)
                        if i <= n:
                            assert shifted.established == (
                                shifted.lhs >= shifted.rhs and k >= shifted.k_required
                            )
                        else:
                            assert not shifted.established


def int_chain_bundle(top_dim, classes):
    ring = truncated_polynomial_ring("integer_mod_torsion", top_dim, [("t", 4)])
    coeffs = {"1": 1}
    for j, value in classes.items():
        coeffs["t" if j == 1 else f"t^{j}"] = value
    return VirtualBundle(ring.element(coeffs), ring.unit())


def test_verdict_identity_bundle_is_inconclusive_everywhere():
    ring = truncated_polynomial_ring("integer_mod_torsion", 8, [("t", 4)])
    bundle = VirtualBundle(ring.unit(), ring.unit())
    for i in (2, 4):
        for ell in (0, 1, 5):
            for k in (40, INFINITE_ORDER):
                report = nonexistence_verdict(bundle, i, ell, k, (8, 8))
                assert report.verdict == INCONCLUSIVE


def test_verdict_never_concludes_from_zero_obstruction():
    bundle = int_chain_bundle(16, {})
    for i in (2, 4):
        for ell in range(0, 6):
            report = nonexistence_verdict(bundle, i, ell, 100, (16, 16))
            assert report.verdict == INCONCLUSIVE
            if report.obstruction is not None:
                assert report.obstruction.is_zero


def test_verdict_table_route_dimension_eight():
    ring = truncated_polynomial_ring(
        "integer_mod_torsion", 8, [("a", 4), ("b", 8)], fundamental="b"
    )
    a = ring.basis_element("a")
    b = ring.basis_element("b")
    bundle = VirtualBundle(ring.unit() + a + b, ring.unit())
    report = nonexistence_verdict(bundle, 2, 7, 20, (8, 8))
    assert report.route == criteria.ROUTE_W_TABLE
    assert report.verdict == NOT_HOMOTOPIC
    assert report.obstruction.value == 9 * b + 3 * (a * a)


def test_verdict_table_route_zero_class_reports_completeness_note():
    ring = truncated_polynomial_ring("integer_mod_torsion", 8, [("t", 4)])
    bundle = VirtualBundle(ring.unit(), ring.unit())
    report = nonexistence_verdict(bundle, 2, 7, 20, (8, 8))
    assert report.verdict == INCONCLUSIVE
    assert any("complete" in note for note in report.notes)


def test_verdict_product_scenario():
    # two 16-dimensional factors, swap map built from a sign equivalence;
    # the factor determinant class is nonzero, so the product verdict must be
    # conclusive once the shifted inclusion criterion holds (budget <= 8)
    left = truncated_polynomial_ring("integer_mod_torsion", 16, [("t", 4)])
    right = truncated_polynomial_ring("integer_mod_torsion", 16, [("s", 4)])
    # Both bases are 1, g, g^2, g^3, g^4, so the swap maps position to position.
    assert [l.replace("s", "t") for l in right.labels] == list(left.labels) == ["1", "t", "t^2", "t^3", "t^4"]
    pull = RingMap(right, left, [left.basis_element(l) for l in left.labels])
    inverse = RingMap(left, right, [right.basis_element(l) for l in right.labels])
    tangent_left = left.element({"1": 1, "t": 1, "t^2": 1})
    tangent_right = right.unit()
    construction = double_construction(tangent_left, tangent_right, pull, inverse)
    report = nonexistence_verdict(construction.bundle, 4, 8, 41, (32, 32))
    assert report.verdict == NOT_HOMOTOPIC
    assert report.criterion.shift_used > 0


def test_verdict_requires_declared_orientation():
    ring = truncated_polynomial_ring(
        "integer_mod_torsion", 16, [("t", 4)], orientable=False
    )
    bundle = VirtualBundle(ring.element({"1": 1, "t": 1, "t^2": 1}), ring.unit())
    report = nonexistence_verdict(bundle, 4, 0, 100, (16, 16))
    assert report.verdict == INCONCLUSIVE
    assert any("orientation" in note for note in report.notes)


@pytest.mark.parametrize(
    "mode, orientable", [("mod2", True), ("integer_mod_torsion", False)], ids=["mod2", "unoriented-integer"]
)
def test_verdict_refuses_a_bad_jet_order_when_the_rank_exceeds_the_source(mode, orientable):
    ring = truncated_polynomial_ring(mode, 8, [("t", 4)], orientable=orientable)
    bundle = VirtualBundle(ring.unit(), ring.unit())
    with pytest.raises(BadInput, match="jet order"):
        nonexistence_verdict(bundle, 9, 0, 0, (8, 8))


def test_verdict_mode_checks():
    mod2 = truncated_polynomial_ring("mod2", 4, [("w", 1)])
    bundle = VirtualBundle(mod2.unit(), mod2.unit())
    with pytest.raises(ModeMismatch):
        nonexistence_verdict(bundle, 2, 0, 9, (4, 4), route=criteria.ROUTE_PONTRJAGIN)


# (mode, dims, budget, explicit route, error, message) for routes that do not
# fit the ring or the question.
UNFITTING_ROUTES = {
    "table on mod 2": ("mod2", (8, 8), 7, "wtable", ModeMismatch, "integer-mode only"),
    "table not a self-map": ("integer_mod_torsion", (8, 9), 7, "wtable", BadInput, "self-map"),
    "table off budget": ("integer_mod_torsion", (8, 8), 6, "wtable", BadInput, "budget one below"),
    "sw on integers": ("integer_mod_torsion", (8, 8), 0, "sw", ModeMismatch, "mod-2 route"),
    "unknown route": ("mod2", (8, 8), 0, "chern", BadInput, "unknown route 'chern'"),
}


@pytest.mark.parametrize("name", sorted(UNFITTING_ROUTES))
def test_verdict_refuses_a_route_that_does_not_fit(name):
    mode, dims, ell, route, error, message = UNFITTING_ROUTES[name]
    ring = truncated_polynomial_ring(mode, 8, [("t", 4)])
    bundle = VirtualBundle(ring.unit(), ring.unit())
    with pytest.raises(error, match=message):
        nonexistence_verdict(bundle, 2, ell, 20, dims, route=route)


def test_verdict_sw_route():
    ring = truncated_polynomial_ring("mod2", 9, [("w", 1)])
    total = ring.unit()
    for j in range(1, 4):
        total = total + ring.basis_element("w" if j == 1 else f"w^{j}")
    bundle = VirtualBundle(total, ring.unit())
    # classes vanish above index 3, so the rank-3 matrix is upper triangular
    # with w^3 on the diagonal and the degree-9 determinant is w^9
    report = nonexistence_verdict(bundle, 3, 0, 100, (9, 9))
    assert report.route == criteria.ROUTE_SW
    assert report.criterion.established
    assert report.obstruction.value == ring.basis_element("w^9")
    assert report.verdict == NOT_HOMOTOPIC


def test_verdict_dims_must_match_ring():
    ring = truncated_polynomial_ring("integer_mod_torsion", 8, [("t", 4)])
    bundle = VirtualBundle(ring.unit(), ring.unit())
    with pytest.raises(BadInput):
        nonexistence_verdict(bundle, 2, 0, 9, (12, 12))
