"""The factored Künneth ring against a materialized product table.

The oracle tensors two rings the direct way: every pair of product labels is
multiplied through the factor tables once and the results are stored in a
plain ``ManifoldRing``, which also runs its own associativity check.  More
factors are tensored one at a time, ``materialized_kunneth(materialized_kunneth(A, B), C)``.
The flat factored ring must agree with it on every basis product, on seeded
random element products and on its injections, and serialize to the same
document.  A property test draws the factors from the twisted polynomial
rings of ``test_check_oracles``.
"""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstrata.gring import (
    ManifoldRing,
    PresentationError,
    element_to_spec,
    kunneth_product,
    make_ring,
)
from jetstrata.tensor import (
    TENSOR_SEPARATOR,
    RingMap,
    TensorRing,
    tensor_component,
    truncated_polynomial_ring,
)

from conftest import four_manifold_ring
from test_check_oracles import SHAPES, _scale, twisted_rings
from test_filtration import depth3_bundles


def materialized_kunneth(left: ManifoldRing, right: ManifoldRing) -> ManifoldRing:
    """H*(left) ⊗ H*(right) with its full product table stored."""

    def label(a, b):
        return f"{left.labels[a]}{TENSOR_SEPARATOR}{right.labels[b]}"

    # Pairs of positions, sorted by total degree, then left degree, then
    # left and right position.
    pairs = sorted(
        itertools.product(range(len(left.labels)), range(len(right.labels))),
        key=lambda p: (left.degrees[p[0]] + right.degrees[p[1]], left.degrees[p[0]], p[0], p[1]),
    )
    basis = [(label(a, b), left.degrees[a] + right.degrees[b]) for a, b in pairs]
    products = {}
    for (a1, b1), (a2, b2) in itertools.combinations_with_replacement(pairs, 2):
        if (a1, b1) == (left.unit_position, right.unit_position):
            continue
        result = {}
        for ra, ca in left.basis_product(a1, a2):
            for rb, cb in right.basis_product(b1, b2):
                result[label(ra, rb)] = ca * cb
        if result:
            products[(label(a1, b1), label(a2, b2))] = result
    return ManifoldRing(
        left.mode,
        left.top_dim + right.top_dim,
        basis,
        products,
        label(left.fundamental_position, right.fundamental_position),
        orientable=left.orientable and right.orientable,
    )


def mod2_two_term_ring():
    # a*a has two terms, so products of the tensor ring have up to four.
    # Not orientable, so neither is any product it is a factor of.
    basis = [("1", 0), ("a", 1), ("s", 2), ("t", 2)]
    return ManifoldRing("mod2", 2, basis, {("a", "a"): {"s": 1, "t": 1}}, "t", orientable=False)


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


def unsorted_ring():
    # The basis lists x2 before x and the unit last, against the degrees.
    return ManifoldRing("integer_mod_torsion", 4, [("x2", 4), ("x", 2), ("1", 0)], {("x", "x"): {"x2": 1}}, "x2")


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
    unit = factors[0].labels[factors[0].unit_position]
    for factor in factors[1:]:
        factor_unit = factor.labels[factor.unit_position]
        maps = [{a: f"{image}{TENSOR_SEPARATOR}{factor_unit}" for a, image in m.items()} for m in maps]
        maps.append({b: f"{unit}{TENSOR_SEPARATOR}{b}" for b in factor.labels})
        unit = f"{unit}{TENSOR_SEPARATOR}{factor_unit}"
    return maps


CASES = {
    "four-by-four": four_by_four,
    "one-factor-unsorted": lambda: (unsorted_ring(),),
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
    # The oracle goes through the validating constructor; the tensor ring
    # fills the same slots from its rows, in the same order.
    product, oracle = case
    assert product.labels == oracle.labels
    assert product.degrees == oracle.degrees
    assert product.fundamental_position == oracle.fundamental_position
    assert product.unit_position == oracle.unit_position
    assert list(product.positions_by_degree.items()) == list(oracle.positions_by_degree.items())
    assert list(product.position.items()) == list(oracle.position.items())
    assert (product.mode, product.top_dim, product.orientable) == (oracle.mode, oracle.top_dim, oracle.orientable)
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
    for degrees in itertools.product(*(f.positions_by_degree for f in factors)):
        piece = tensor_component(everything, *degrees)
        tuples = math.prod(len(f.positions_by_degree[d]) for f, d in zip(factors, degrees))
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
    assert any(d % 2 for d in product.degrees)


def test_one_factor_product_keeps_an_unsorted_basis():
    # The basis lists x2 before x and the unit last: a one-factor product
    # keeps that order, and serializes to the ring's own document.
    ring = unsorted_ring()
    product, inject = kunneth_product(ring)
    assert product.labels == ring.labels and product.degrees == ring.degrees
    assert product.serialize() == ring.serialize()
    x = ring.basis_element("x")
    assert element_to_spec(inject(x) * inject(x)) == element_to_spec(x * x)


def test_two_factor_product_sorts_ties_by_the_first_factor_degree():
    # The first factor lists x2 before x and the unit last, so its positions
    # run against its degrees: pairs of equal total degree are ordered by the
    # first factor's degree, not by its position.
    first = unsorted_ring()
    product, _, _ = kunneth_product(first, four_manifold_ring())
    oracle = materialized_kunneth(first, four_manifold_ring())
    pairs = ["1 1", "1 x", "x 1", "1 x2", "x x", "x2 1", "x x2", "x2 x", "x2 x2"]
    assert product.labels == oracle.labels == tuple(p.replace(" ", TENSOR_SEPARATOR) for p in pairs)
    for i, j in itertools.product(range(len(product.labels)), repeat=2):
        assert product.basis_product(i, j) == oracle.basis_product(i, j)


def stated_order(factors) -> list[tuple[int, ...]]:
    """The basis order the README states, as factor position tuples: the
    first factor in its own order, then for each further factor the
    (previous tuple, new position) pairs stably sorted by total degree, then
    by the previous degree."""

    def degree(t):
        return sum(f.degrees[a] for f, a in zip(factors, t))

    tuples = [(a,) for a in range(len(factors[0].labels))]
    for factor in factors[1:]:
        pairs = sorted(
            itertools.product(tuples, range(len(factor.labels))),
            key=lambda p: (degree(p[0]) + factor.degrees[p[1]], degree(p[0])),
        )
        tuples = [t + (c,) for t, c in pairs]
    return tuples


def two_generators_of_one_degree():
    return truncated_polynomial_ring("integer_mod_torsion", 8, [("a", 2), ("b", 2)], fundamental="a^4")


# Products of one to four factors whose basis rows kunneth_product carries.
CARRIED = {
    "one-factor-unsorted": lambda: (unsorted_ring(),),
    "several-labels-per-degree": lambda: (integer_two_term_ring(), two_generators_of_one_degree()),
    "three-mod2-odd-degrees": three_mod2_odd_degrees,
    "four-factors": lambda: (unsorted_ring(), integer_two_term_ring(), two_generators_of_one_degree(), four_manifold_ring()),
    "depth3-stage-rings": lambda: tuple(bundle.ring for bundle in depth3_bundles()),
}


@pytest.mark.parametrize("name", sorted(CARRIED))
def test_carried_rows_match_the_factors(name):
    # Keys, labels and degrees are carried as the basis grows; each is
    # recomputed here from the factors alone.
    factors = CARRIED[name]()
    ring, *_ = kunneth_product(*factors)
    assert ring.factor_positions == tuple(stated_order(factors))
    for p, t in enumerate(ring.factor_positions):
        assert ring.position_of(t) == p
        assert ring.labels[p] == TENSOR_SEPARATOR.join(f.labels[a] for f, a in zip(factors, t))
        assert ring.degrees[p] == sum(f.degrees[a] for f, a in zip(factors, t))


@pytest.mark.parametrize("name", sorted({*CASES, *CARRIED}))
def test_tensor_ring_is_built_without_the_base_constructor(name, monkeypatch):
    # The factors are validated; the tensor ring fills every slot itself,
    # and so does kunneth_product for each injection.
    factors = {**CASES, **CARRIED}[name]()

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__}.__init__ ran in kunneth_product")

    monkeypatch.setattr(ManifoldRing, "__init__", refuse)
    monkeypatch.setattr(RingMap, "__init__", refuse)
    ring, *injections = kunneth_product(*factors)
    unset = [slot for slot in (*ManifoldRing.__slots__, *TensorRing.__slots__) if not hasattr(ring, slot)]
    assert unset == []
    assert len(injections) == len(factors)
    for factor, inject in zip(factors, injections):
        assert inject.source is factor and inject.target is ring
        assert len(inject.images) == len(factor.degrees)


@pytest.mark.parametrize("name", sorted({*CASES, *CARRIED}))
def test_injections_pass_the_map_checks(name):
    # What the RingMap constructor would check on each injection, unchanged:
    # image count, ring, degree, unit and multiplicativity.
    factors = {**CASES, **CARRIED}[name]()
    _, *injections = kunneth_product(*factors)
    for inject in injections:
        RingMap(inject.source, inject.target, inject.images)


# The top dimensions a drawn factor may have, and the most all factors may
# add up to, per mode: products stay under 64 labels, so the oracle is cheap.
FACTOR_TOPS = {"mod2": (range(5), 5), "integer_mod_torsion": (range(0, 9, 2), 8)}


@st.composite
def factor_rings(draw, count):
    """``count`` twisted polynomial rings of one coefficient mode."""
    mode = draw(st.sampled_from(sorted(SHAPES)))
    tops, budget = FACTOR_TOPS[mode]
    factors = []
    for _ in range(count):
        # Larger tops first, so that examples start large and shrink small.
        top = draw(st.sampled_from([t for t in reversed(tops) if t <= budget]))
        budget -= top
        twisted = draw(twisted_rings(mode, _scale(draw, mode), top))
        factors.append(twisted.ring(twisted.products()))
    return factors


@pytest.mark.parametrize("count", [1, 2, 3])
@settings(max_examples=25)
@given(data=st.data())
def test_kunneth_product_matches_the_iterated_oracle(count, data):
    factors = data.draw(factor_rings(count))
    product, *injections = kunneth_product(*factors)
    oracle = functools.reduce(materialized_kunneth, factors)
    assert product.labels == oracle.labels
    assert product.degrees == oracle.degrees
    assert product.fundamental_position == oracle.fundamental_position
    for i, j in itertools.product(range(len(product.labels)), repeat=2):
        assert product.basis_product(i, j) == oracle.basis_product(i, j), (product.labels[i], product.labels[j])
    # A label's factor labels, split off at the separator, sit in the degrees
    # of its tensor component.
    everything = product.element(dict.fromkeys(product.labels, 1))
    for degrees in itertools.product(*(f.positions_by_degree for f in factors)):
        expected = {
            label for label in oracle.labels
            if [f.degrees[f.position[part]] for f, part in zip(factors, label.split(TENSOR_SEPARATOR))] == list(degrees)
        }
        assert {product.labels[p] for p in tensor_component(everything, *degrees).coeffs} == expected
    for factor, inject, expected in zip(factors, injections, oracle_injections(factors), strict=True):
        assert inject.source is factor and inject.target is product
        RingMap(inject.source, inject.target, inject.images)
        for label in factor.labels:
            image = inject(factor.basis_element(label))
            assert element_to_spec(image) == element_to_spec(oracle.basis_element(expected[label]))
