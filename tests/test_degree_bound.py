"""Virtual classes computed only through a degree bound.

``invert_total_class(c, D)`` and ``VirtualBundle.virtual_total(D)`` must agree
with the full computation in every degree up to D, and the determinant
classes must ask for exactly the degree they read.
"""

import time

from hypothesis import assume, given, settings, strategies as st

from jetstrata import charclass
from jetstrata.charclass import VirtualBundle, porteous_pontrjagin, porteous_sw, w_table_polynomial
from jetstrata.filtration import build_run, product_obstruction
from jetstrata.gring import CoefficientMode, GradedElement, invert_total_class
from jetstrata.symbols import INFINITE_ORDER, JetContext
from jetstrata.tensor import truncated_polynomial_ring


@st.composite
def rings(draw):
    """A truncated polynomial ring on one or two generators, integer mode
    (degrees divisible by 4, as Pontrjagin classes need) or mod 2."""
    mod2 = draw(st.booleans())
    degrees = st.integers(1, 3) if mod2 else st.sampled_from([4, 8])
    names = ["a", "b"][: draw(st.integers(1, 2))]
    generators = [(name, draw(degrees)) for name in names]
    power = draw(st.integers(1, 5 if mod2 else 3))
    top_dim = generators[0][1] * power
    fundamental = "a" if power == 1 else f"a^{power}"
    return truncated_polynomial_ring(
        "mod2" if mod2 else "integer_mod_torsion",
        top_dim,
        generators,
        fundamental=fundamental,
    )


@st.composite
def totals(draw, ring):
    """A total class: the unit plus small coefficients on other labels."""
    unit = ring.labels[ring.unit_position]
    coeffs = {unit: 1}
    for label in ring.labels:
        if label != unit:
            coeffs[label] = draw(st.integers(-3, 3))
    return ring.element(coeffs)


def components_through(c, bound):
    return {d: c.component(d) for d in range(bound + 1)}


def truncated(c, bound):
    """The sum of the components of ``c`` of degree at most ``bound``."""
    degrees = c.ring.degrees
    return GradedElement(c.ring, {p: v for p, v in c.coeffs.items() if degrees[p] <= bound})


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bounded_inverse_matches_full_inverse_through_bound(data):
    ring = data.draw(rings())
    total = data.draw(totals(ring))
    bound = data.draw(st.integers(0, ring.top_dim + 2))
    bounded = invert_total_class(total, bound)
    full = invert_total_class(total)
    assert components_through(bounded, bound) == components_through(full, bound)
    assert truncated(bounded, bound) == bounded
    # The defining identity, checked independently of the full inverse.
    assert truncated(total * bounded, bound) == ring.unit()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bounded_virtual_total_matches_full_through_bound(data):
    ring = data.draw(rings())
    positive = data.draw(totals(ring))
    negative = data.draw(totals(ring))
    low = data.draw(st.integers(0, ring.top_dim))
    high = data.draw(st.integers(low, ring.top_dim + 2))
    full = VirtualBundle(positive, negative).virtual_total()

    bundle = VirtualBundle(positive, negative)
    for bound in (low, high):
        value = bundle.virtual_total(bound)
        assert components_through(value, bound) == components_through(full, bound)
        assert truncated(value, bound) == value
        assert truncated(value * negative, bound) == truncated(positive, bound)
        # The product path the recurrence replaced, as an independent oracle.
        b = min(bound, ring.top_dim)
        assert value == truncated(truncated(positive, b) * invert_total_class(negative, b), b)
    # A smaller bound after a larger one still reads exact parts, and nothing
    # above the smaller bound: the value does not depend on earlier calls.
    assert components_through(bundle.virtual_total(low), low) == components_through(full, low)
    assert bundle.virtual_total(low) == truncated(full, low)
    assert bundle.virtual_total() == full


def stage_bundle(top_dim, gen, power):
    ring = truncated_polynomial_ring("integer_mod_torsion", top_dim, [(gen, 4)])
    return VirtualBundle(ring.element({"1": 1, gen: 1, f"{gen}^{power}": 1}), ring.unit())


def test_porteous_on_a_product_ring_inverts_once_through_the_read_degree(monkeypatch):
    # Stages of dimension 32 and 72 with kernel ranks 4 and 6 (v = 2, 3), on a
    # product ring of dimension 104.
    run = build_run(1, [8, 9, 10], [stage_bundle(32, "t", 2), stage_bundle(72, "s", 3)])
    calls = []
    real = charclass.invert_total_class

    def counting(c, through=None, numerator=None):
        calls.append(through)
        return real(c, through, numerator)

    monkeypatch.setattr(charclass, "invert_total_class", counting)
    for stage in run.stages:
        calls.clear()
        product_obstruction(run, stage.t)
        v = stage.kernel_rank // 2
        assert calls == [4 * (2 * v - 1)]
        assert calls[0] < run.product_ring.top_dim

    ring = run.product_ring
    calls.clear()
    bundle = VirtualBundle(ring.unit(), ring.unit())
    porteous_pontrjagin(6, JetContext(ring.top_dim, ring.top_dim, INFINITE_ORDER), bundle)
    assert calls == [20]

    # The table reads classes 1 and 2 from one total through degree 8.
    calls.clear()
    w_table_polynomial(8, bundle)
    assert calls == [8]

    # A size-3 mod-2 matrix centred on i = 4 reads indices up to i+3-1.
    mod2 = truncated_polynomial_ring("mod2", 12, [("w", 1)])
    calls.clear()
    porteous_sw(4, JetContext(5, 4), VirtualBundle(mod2.element({"1": 1, "w": 1}), mod2.unit()))
    assert calls == [6]


def test_porteous_reads_only_the_indices_of_its_matrix():
    # A size-3 matrix centred on an index of about 10^7: enumerating the
    # indices from 0 would not finish.
    ring = truncated_polynomial_ring("mod2", 6, [("w", 1)])
    bundle = VirtualBundle(ring.element({"1": 1, "w": 1, "w^2": 1}), ring.unit())
    n = 10**7
    start = time.perf_counter()
    obstruction = porteous_sw(n - 2 + 3, JetContext(n, 2), bundle)
    assert time.perf_counter() - start < 1.0
    assert len(obstruction.matrix) == 3
    assert obstruction.is_zero


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dual_jacobi_trudi_identity(data):
    # The size-r class matrix of c centred at k and the size-k matrix of c^-1
    # centred at r have determinants equal up to the sign (-1)^(rk)
    # (Macdonald, Symmetric Functions and Hall Polynomials, Ch. I §3): an
    # oracle for det_graded at sizes the Leibniz sum cannot reach, through
    # the inverse total and the degree bound of the classes it reads.  Both
    # classes sit in degree r*k*u, u = 1 mod 2 and 4 integrally; r and k keep
    # it at most top_dim, so neither is zero by degree and both determinants
    # are expanded.
    ring = data.draw(rings())
    total = data.draw(totals(ring))
    reach = ring.top_dim // (1 if ring.mode is CoefficientMode.MOD2 else 4)
    r = data.draw(st.integers(1, reach))
    k = data.draw(st.integers(1, reach // r))
    left = charclass._porteous(VirtualBundle(total, ring.unit()), 0, k, r, "r").value
    right = charclass._porteous(VirtualBundle(ring.unit(), total), 0, r, k, "k").value
    assert left == (-right if r * k % 2 else right)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_class_zero_by_degree_equals_its_determinant(data):
    # The short cut that returns zero above top_dim, against the determinant
    # of the same matrix computed directly.
    ring = data.draw(rings())
    total = data.draw(totals(ring))
    size, center = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    bundle = VirtualBundle(total, ring.unit()) if data.draw(st.booleans()) else VirtualBundle(ring.unit(), total)
    obstruction = charclass._porteous(bundle, 0, center, size, "r")
    assume(obstruction.expected_degree > ring.top_dim)
    assert obstruction.is_zero
    assert obstruction.value == charclass.det_graded(obstruction.matrix, ring=ring)
