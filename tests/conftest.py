import pytest
from hypothesis import settings

from jetstrata import gring, tensor

# Property tests draw the same examples on every run, so a failure
# reproduces from its test name; examples are bounded by count, not time.
settings.register_profile("jetstrata", derandomize=True, deadline=None)
settings.load_profile("jetstrata")

# H* of a closed 4-manifold with one degree-2 generator squaring to the
# fundamental class; the workhorse small integer-mode ring.
FOUR_MANIFOLD_SPEC = {
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


def four_manifold_ring():
    return gring.make_ring(FOUR_MANIFOLD_SPEC)


@pytest.fixture
def four_ring():
    return four_manifold_ring()


@pytest.fixture(scope="session")
def mod2_chain():
    # One generator per degree through powers of a degree-1 class; big enough
    # for every determinant degree reachable with n, p <= 12.
    return tensor.truncated_polynomial_ring("mod2", 144, [("w", 1)])


@pytest.fixture(scope="session")
def int_chain():
    return tensor.truncated_polynomial_ring("integer_mod_torsion", 144, [("t", 4)])


def ring_map_from_generators(source, target, images_by_gen):
    """RingMap built from generator images of a truncated polynomial ring;
    multiplicative by construction.  A monomial label such as ``a^2*b``
    gives the generators and exponents of its basis element."""
    images = []
    for label in source.labels:
        element = target.unit()
        if label != "1":
            for factor in label.split("*"):
                name, _, exponent = factor.partition("^")
                for _ in range(int(exponent or 1)):
                    element = element * images_by_gen[name]
        images.append(element)
    return tensor.RingMap(source, target, images)
