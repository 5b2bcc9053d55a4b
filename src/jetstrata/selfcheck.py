"""Bundled invariant corpus: cross-checks the engine against independent
oracles (signed permutation sums, brute-force identities) so a build can
verify itself without the test suite installed.
"""

from __future__ import annotations

import itertools

from . import charclass, criteria, filtration, gring, symbols


class CheckResult(symbols.Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        super().__init__(name, passed, detail)


CANONICAL_SURFACE_SPEC = {
    "mode": "integer_mod_torsion",
    "topDim": 4,
    "basis": [
        {"label": "1", "degree": 0},
        {"label": "x", "degree": 2},
        {"label": "x2", "degree": 4},
    ],
    "products": [{"a": "x", "b": "x", "result": [{"label": "x2", "coeff": 1}]}],
    "fundamental": "x2",
}


def leibniz_det(matrix, ring):
    """Signed permutation-sum determinant; the independent oracle."""
    size = len(matrix)
    total = ring.zero()
    for perm in itertools.permutations(range(size)):
        inversions = sum(
            1 for a in range(size) for b in range(a + 1, size) if perm[a] > perm[b]
        )
        term = ring.unit()
        for row, col in enumerate(perm):
            term = term * matrix[row][col]
        total = total + (term if inversions % 2 == 0 else -term)
    return total


def _corpus_matrices(ring):
    one = ring.unit()
    zero = ring.zero()
    x = ring.basis_element("x")
    x2 = ring.basis_element("x2")
    yield [[one, zero], [zero, one]]
    yield [[x]]
    yield [[x, one], [x2, x]]
    yield [[x + one, x2, zero], [one, x, x2], [zero, one, x]]
    yield [
        [one, x, x2, zero],
        [zero, one, x, x2],
        [x, zero, one, x],
        [x2, x, zero, one],
    ]


def check_determinant_oracle():
    ring = gring.make_ring(CANONICAL_SURFACE_SPEC)
    for matrix in _corpus_matrices(ring):
        if charclass.det_graded(matrix, ring=ring) != leibniz_det(matrix, ring):
            return f"disagreement on a {len(matrix)}x{len(matrix)} matrix"


def check_ring_fixture(spec=None):
    ring = gring.make_ring(spec or CANONICAL_SURFACE_SPEC)
    x = ring.basis_element("x")
    if gring.pair_fundamental(x * x) != 1:
        return "fundamental pairing of the square generator is not 1"
    if x * x * x != ring.zero():
        return "cube of the generator fails to truncate"


def check_kunneth_identities():
    left = gring.make_ring(CANONICAL_SURFACE_SPEC)
    right = gring.make_ring(CANONICAL_SURFACE_SPEC)
    product, inject_left, inject_right = gring.kunneth_product(left, right)
    a = left.basis_element("x2")
    b = right.basis_element("x2")
    paired = gring.pair_fundamental(inject_left(a) * inject_right(b))
    if paired != gring.pair_fundamental(a) * gring.pair_fundamental(b):
        return "top-degree pairing does not factor"
    for inject in (inject_left, inject_right):
        if not gring.is_degreewise_injective(inject):
            return "factor injection loses rank in some degree"


def check_inverse_involution():
    ring = gring.make_ring(CANONICAL_SURFACE_SPEC)
    for c_x, c_x2 in [(0, 0), (1, 0), (0, 3), (2, -5), (-7, 11)]:
        total = ring.element({"1": 1, "x": c_x, "x2": c_x2})
        inverse = gring.invert_total_class(total)
        if total * inverse != ring.unit():
            return "total times inverse is not 1"
        if gring.invert_total_class(inverse) != total:
            return "double inverse differs from the original"


def check_inequality_simplification():
    for i in range(1, 21):
        report = criteria.w_inclusion(10, 10, i, 0, 100)
        if report.lhs != i * i * (i - 1) // 2:
            return f"simplified bound wrong at i={i}"
    for i in range(1, 21):
        report = criteria.w_inclusion(4 * i * i, 4 * i * i, 2 * i, 0, 10**9)
        if report.lhs != 4 * i**3 - 2 * i**2:
            return f"cubic bound wrong at i={i}"


def check_whitney_consistency():
    ring = gring.make_ring(CANONICAL_SURFACE_SPEC)
    # Only the degree-4 slot is available to integer-mode bundle totals here.
    positive = ring.element({"1": 1, "x2": 7})
    pulled = ring.element({"1": 1, "x2": 5})
    bundle = charclass.VirtualBundle(positive, pulled)
    if bundle.virtual_total() * pulled != positive:
        return "virtual total times negative total is not the positive total"


def check_index_recursion():
    if filtration.next_index(0) != 2:
        return "smallest index at budget 0 is not 2"
    previous = 1
    for budget in range(0, 2001):
        value = filtration.next_index(budget)
        if value < previous:
            return f"index decreases at budget {budget}"
        previous = value


ALL_CHECKS = [
    ("determinant-vs-permutation-sum", check_determinant_oracle),
    ("ring-fixture-invariants", check_ring_fixture),
    ("tensor-ring-identities", check_kunneth_identities),
    ("total-class-inverse-involution", check_inverse_involution),
    ("equal-dimension-inequality-simplification", check_inequality_simplification),
    ("virtual-total-consistency", check_whitney_consistency),
    ("stage-index-recursion", check_index_recursion),
]


def run_selfcheck() -> list[CheckResult]:
    """Run every check.  A check returns None when it passes; one that
    returns a failure detail, or raises a ValueError or ConsistencyError,
    fails."""
    results = []
    for name, check in ALL_CHECKS:
        try:
            detail = check()
        except (ValueError, symbols.ConsistencyError) as error:
            detail = f"{type(error).__name__}: {error}"
        results.append(CheckResult(name, detail is None, detail or ""))
    return results
