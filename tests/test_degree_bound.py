"""Virtual classes computed only through a degree bound.

``invert_total_class(c, D)`` and ``VirtualBundle.virtual_total(D)`` must agree
with the full computation in every degree up to D, and the determinant
classes must ask for exactly the degree they read.
"""

from hypothesis import given, settings, strategies as st

from jetstrata import charclass
from jetstrata.charclass import VirtualBundle, porteous_pontrjagin
from jetstrata.filtration import build_run, product_obstruction
from jetstrata.gring import invert_total_class, truncated_polynomial_ring
from jetstrata.symbols import INFINITE_ORDER, JetContext


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
    coeffs = {ring.unit_label: 1}
    for label in ring.labels:
        if label != ring.unit_label:
            coeffs[label] = draw(st.integers(-3, 3))
    return ring.element(coeffs)


def components_through(c, bound):
    return {d: c.component(d) for d in range(bound + 1)}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bounded_inverse_matches_full_inverse_through_bound(data):
    ring = data.draw(rings())
    total = data.draw(totals(ring))
    bound = data.draw(st.integers(0, ring.top_dim + 2))
    bounded = invert_total_class(total, bound)
    full = invert_total_class(total)
    assert components_through(bounded, bound) == components_through(full, bound)
    assert bounded.truncated(bound) == bounded
    # The defining identity, checked independently of the full inverse.
    assert (total * bounded).truncated(bound) == ring.unit()


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
        assert value.truncated(bound) == value
        assert (value * negative).truncated(bound) == positive.truncated(bound)
    # A smaller bound after a larger one still reads exact parts.
    assert components_through(bundle.virtual_total(low), low) == components_through(full, low)
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

    def counting(c, through=None):
        calls.append(through)
        return real(c, through)

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
