"""The factored Künneth ring against a materialized product table.

The oracle tensors two rings the direct way: every pair of product labels is
multiplied through the factor tables once and the results are stored in a
plain ``ManifoldRing``, which also runs its own associativity check.  More
factors are tensored one at a time, ``materialized_kunneth(materialized_kunneth(A, B), C)``.
The flat factored ring must agree with it on every basis product, on seeded
random element products and on its injections, and serialize to the same
document.
"""

import functools
import itertools
import math
import random

import pytest

from jetstrata.gring import (
    TENSOR_SEPARATOR,
    ManifoldRing,
    PresentationError,
    TensorRing,
    element_to_spec,
    kunneth_product,
    make_ring,
    tensor_component,
    truncated_polynomial_ring,
)

from conftest import four_manifold_ring


def materialized_kunneth(left: ManifoldRing, right: ManifoldRing) -> ManifoldRing:
    """H*(left) ⊗ H*(right) with its full product table stored."""

    def label(a, b):
        return f"{a}{TENSOR_SEPARATOR}{b}"

    pairs = sorted(
        itertools.product(left.labels, right.labels),
        key=lambda p: (
            left.degree_of[p[0]] + right.degree_of[p[1]],
            left.degree_of[p[0]],
            left.position[p[0]],
            right.position[p[1]],
        ),
    )
    basis = [(label(a, b), left.degree_of[a] + right.degree_of[b]) for a, b in pairs]
    products = {}
    for (a1, b1), (a2, b2) in itertools.combinations_with_replacement(pairs, 2):
        if (a1, b1) == (left.unit_label, right.unit_label):
            continue
        result = {}
        for ra, ca in left.basis_product(left.position[a1], left.position[a2]):
            for rb, cb in right.basis_product(right.position[b1], right.position[b2]):
                result[label(left.labels[ra], right.labels[rb])] = ca * cb
        if result:
            products[(label(a1, b1), label(a2, b2))] = result
    return ManifoldRing(
        left.mode,
        left.top_dim + right.top_dim,
        basis,
        products,
        label(left.fundamental_label, right.fundamental_label),
        orientable=left.orientable and right.orientable,
    )


def mod2_two_term_ring():
    # a*a has two terms, so products of the tensor ring have up to four.
    basis = [("1", 0), ("a", 1), ("s", 2), ("t", 2)]
    return ManifoldRing("mod2", 2, basis, {("a", "a"): {"s": 1, "t": 1}}, "t")


def integer_two_term_ring():
    return ManifoldRing(
        "integer_mod_torsion",
        4,
        [("1", 0), ("x", 2), ("p", 4), ("q", 4)],
        {("x", "x"): {"p": 1, "q": 3}},
        "q",
    )


def mod2_cube_ring():
    # v*v is given with coefficient 3, which reads as 1 mod 2.
    basis = [("1", 0), ("v", 1), ("w", 2), ("vw", 3)]
    return ManifoldRing("mod2", 3, basis, {("v", "v"): {"w": 3}, ("v", "w"): {"vw": 1}}, "vw")


def four_by_four():
    return four_manifold_ring(), four_manifold_ring()


def mod2_odd_degrees():
    return mod2_two_term_ring(), truncated_polynomial_ring("mod2", 3, [("u", 1)])


def tensor_of_tensor():
    # Coefficients other than 1 on both sides of both tensors.
    inner, _, _ = kunneth_product(integer_two_term_ring(), integer_two_term_ring())
    return inner, integer_two_term_ring()


def three_mod2_odd_degrees():
    return mod2_two_term_ring(), truncated_polynomial_ring("mod2", 3, [("u", 1)]), mod2_cube_ring()


def three_integer():
    # Coefficients other than 1 in the first and last factor.
    return integer_two_term_ring(), four_manifold_ring(), integer_two_term_ring()


def oracle_factor(ring):
    """A tensor factor as the oracle sees it: itself materialized."""
    if isinstance(ring, TensorRing):
        return functools.reduce(materialized_kunneth, map(oracle_factor, ring.factors))
    return ring


def oracle_injections(factors) -> list[dict[str, str]]:
    """The iterated binary injections into the oracle, composed, as label
    maps: a label of factor k goes to the labels of the earlier products,
    each tensored on the right with the next factor's unit."""
    maps = [{label: label for label in factors[0].labels}]
    unit = factors[0].unit_label
    for factor in factors[1:]:
        maps = [{a: f"{image}{TENSOR_SEPARATOR}{factor.unit_label}" for a, image in m.items()} for m in maps]
        maps.append({b: f"{unit}{TENSOR_SEPARATOR}{b}" for b in factor.labels})
        unit = f"{unit}{TENSOR_SEPARATOR}{factor.unit_label}"
    return maps


CASES = {
    "four-by-four": four_by_four,
    "mod2-odd-degrees": mod2_odd_degrees,
    "tensor-of-tensor": tensor_of_tensor,
    "three-mod2-odd-degrees": three_mod2_odd_degrees,
    "three-integer": three_integer,
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    factors = CASES[request.param]()
    product, *_ = kunneth_product(*factors)
    oracle = functools.reduce(materialized_kunneth, map(oracle_factor, factors))
    return product, oracle


def test_factored_products_match_the_table(case):
    product, oracle = case
    assert product.labels == oracle.labels
    assert product.degree_of == oracle.degree_of
    assert product.fundamental_label == oracle.fundamental_label
    # Equal label tuples, so equal positions name equal labels.
    for i, j in itertools.product(range(len(product.labels)), repeat=2):
        assert product.basis_product(i, j) == oracle.basis_product(i, j), (product.labels[i], product.labels[j])


def test_element_products_match_the_table(case):
    product, oracle = case
    # Positions are compared inside each ring, so the basis order must agree.
    assert product.labels == oracle.labels
    rng = random.Random(f"kunneth-elements:{product.labels}")
    nonzero = 0
    for _ in range(20):
        x, y = (
            {label: rng.randint(-3, 3) for label in rng.sample(product.labels, rng.randint(1, len(product.labels)))}
            for _ in range(2)
        )
        got = product.element(x) * product.element(y)
        assert element_to_spec(got) == element_to_spec(oracle.element(x) * oracle.element(y)), (x, y)
        nonzero += bool(got)
    assert nonzero >= 10


def test_tensor_ring_stores_no_table(case):
    product, oracle = case
    assert product._table == {}
    assert oracle._table


def test_serialize_matches_the_table_and_round_trips(case):
    product, oracle = case
    spec = product.serialize()
    assert spec == oracle.serialize()
    assert make_ring(spec).serialize() == spec


def test_tensor_component_reads_the_factors(case):
    product, oracle = case
    everything = product.element({label: 1 for label in product.labels})
    factors = product.factors
    pieces = product.zero()
    for degrees in itertools.product(*(f.basis_by_degree for f in factors)):
        piece = tensor_component(everything, *degrees)
        tuples = math.prod(len(f.basis_by_degree[d]) for f, d in zip(factors, degrees))
        assert len(piece.coeffs) == tuples
        pieces = pieces + piece
    assert pieces == everything
    with pytest.raises(PresentationError):
        tensor_component(oracle.unit(), *[0] * len(factors))
    for count in (len(factors) - 1, len(factors) + 1):
        with pytest.raises(PresentationError, match="factors"):
            tensor_component(everything, *[0] * count)


@pytest.mark.parametrize("name", sorted(CASES))
def test_injections_match_the_composed_oracle_injections(name):
    factors = CASES[name]()
    product, *injections = kunneth_product(*factors)
    oracle = functools.reduce(materialized_kunneth, map(oracle_factor, factors))
    maps = oracle_injections(factors)
    assert len(injections) == len(maps) == len(factors)
    for factor, inject, expected in zip(factors, injections, maps):
        assert inject.source is factor and inject.target is product
        for label in factor.labels:
            image = inject(factor.basis_element(label))
            assert element_to_spec(image) == element_to_spec(oracle.basis_element(expected[label]))


def test_tensor_products_have_multiple_terms():
    # Guards the cases above against degenerating to single-term products.
    left, right = mod2_odd_degrees()
    product, _, _ = kunneth_product(left, right)
    a_u = f"a{TENSOR_SEPARATOR}u"
    p = product.position[a_u]
    assert len(product.basis_product(p, p)) == 2
    assert any(d % 2 for d in product.degree_of.values())


def test_one_factor_product_keeps_an_unsorted_basis():
    # The basis lists x2 before x and the unit last: a one-factor product
    # keeps that order, and serializes to the ring's own document.
    ring = ManifoldRing(
        "integer_mod_torsion", 4, [("x2", 4), ("x", 2), ("1", 0)], {("x", "x"): {"x2": 1}}, "x2"
    )
    product, inject = kunneth_product(ring)
    assert product.labels == ring.labels and product.degrees == ring.degrees
    assert product.serialize() == ring.serialize()
    x = ring.basis_element("x")
    assert element_to_spec(inject(x) * inject(x)) == element_to_spec(x * x)
