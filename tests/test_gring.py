import itertools
import random
import time

import pytest

from jetstrata import gring
from jetstrata.gring import (
    BadUnit,
    DegreeOverflowEntry,
    ManifoldRing,
    MissingFundamental,
    ModeMismatch,
    NonAssociative,
    NotAUnit,
    PresentationError,
    RingMap,
    RingMismatch,
    element_to_spec,
    invert_total_class,
    is_degreewise_injective,
    kunneth_product,
    make_ring,
    pair_fundamental,
    tensor_component,
    truncated_polynomial_ring,
)

from conftest import FOUR_MANIFOLD_SPEC, four_manifold_ring


def test_point_ring():
    ring = ManifoldRing("integer_mod_torsion", 0, [("1", 0)])
    assert ring.fundamental_label == "1"
    assert pair_fundamental(ring.unit()) == 1


def test_four_manifold_ring_products(four_ring):
    x = four_ring.basis_element("x")
    x2 = four_ring.basis_element("x2")
    assert x * x == x2
    assert x * x2 == four_ring.zero()  # truncation above the top dimension
    assert four_ring.unit() * x == x


def test_degree_overflow_entry():
    spec = {
        "mode": "integer_mod_torsion",
        "topDim": 4,
        "basis": [
            {"label": "1", "degree": 0},
            {"label": "x", "degree": 2},
            {"label": "y", "degree": 5},
        ],
        "products": [],
        "fundamental": "x",
    }
    with pytest.raises(DegreeOverflowEntry):
        make_ring(spec)


def test_product_targeting_above_top_dim():
    ring_spec = {
        "mode": "integer_mod_torsion",
        "topDim": 4,
        "basis": [
            {"label": "1", "degree": 0},
            {"label": "x", "degree": 2},
            {"label": "x2", "degree": 4},
        ],
        "products": [
            {"a": "x", "b": "x2", "result": [{"label": "x2", "coeff": 1}]},
        ],
        "fundamental": "x2",
    }
    with pytest.raises((DegreeOverflowEntry, PresentationError)):
        make_ring(ring_spec)


def test_bad_unit_detection():
    with pytest.raises(BadUnit):
        ManifoldRing(
            "integer_mod_torsion",
            2,
            [("1", 0), ("e", 0), ("x", 2)],
            fundamental="x",
        )
    with pytest.raises(BadUnit):
        ManifoldRing(
            "integer_mod_torsion",
            4,
            [("1", 0), ("x", 2), ("x2", 4)],
            {("1", "x"): {"x2": 0, "x": 2}},
            "x2",
        )


def test_non_associative_detection():
    basis = [("1", 0), ("a", 2), ("b", 2), ("c", 4), ("d", 6)]
    products = {
        ("a", "a"): {"c": 1},
        ("a", "b"): {"c": 1},
        ("a", "c"): {"d": 1},
        ("b", "c"): {},
    }
    with pytest.raises(NonAssociative):
        ManifoldRing("integer_mod_torsion", 6, basis, products, "d")


def test_non_associative_triple_at_top_degree_detected():
    # Every bounded triple sits exactly at top_dim; only (a, a, b) fails:
    # (a*a)*b = c*b = t but (a*b)*a = 0.
    basis = [("1", 0), ("a", 2), ("b", 2), ("c", 4), ("t", 6)]
    products = {("a", "a"): {"c": 1}, ("b", "c"): {"t": 1}}
    with pytest.raises(NonAssociative, match="'a', 'a', 'b'"):
        ManifoldRing("integer_mod_torsion", 6, basis, products, "t")


def test_bounded_triples_match_filtered_brute_force():
    ordered = truncated_polynomial_ring(
        "mod2", 8, [("u", 1), ("v", 2), ("w", 3)], fundamental="u^8"
    )
    spec = ordered.serialize()
    spec["basis"] = spec["basis"][::-1]  # positions no longer follow degrees
    for ring in (ordered, make_ring(spec)):
        nonunit = [l for l in ring.labels if l != ring.unit_label]
        every = list(itertools.combinations_with_replacement(nonunit, 3))
        bounded = [t for t in every if sum(ring.degree_of[l] for l in t) <= ring.top_dim]
        assert 0 < len(bounded) < len(every)
        triples = [tuple(ring.labels[p] for p in t) for t in ring._bounded_triples()]
        assert triples == bounded


# (mode, basis, products, expected message) of presentations the ring refuses.
_XY = [("1", 0), ("x", 2), ("y", 2), ("z", 4)]
REFUSED_PRESENTATIONS = {
    "unknown mode": ("integer", _XY, {}, "unknown coefficient mode"),
    "duplicate label": ("mod2", [("1", 0), ("x", 2), ("x", 2), ("z", 4)], {}, "duplicate basis label 'x'"),
    "unknown factor": ("mod2", _XY, {("x", "w"): {"z": 1}}, "names unknown label 'w'"),
    "unknown target": ("mod2", _XY, {("x", "y"): {"w": 1}}, "targets unknown label 'w'"),
    "conflicting pair": (
        "integer_mod_torsion", _XY, {("x", "y"): {"z": 1}, ("y", "x"): {"z": 2}}, "conflicting product entries"
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSED_PRESENTATIONS))
def test_inconsistent_presentations_are_refused(name):
    mode, basis, products, message = REFUSED_PRESENTATIONS[name]
    with pytest.raises(PresentationError, match=message):
        ManifoldRing(mode, 4, basis, products, "z")


def test_explicit_unit_products_are_accepted_and_not_stored():
    products = {("1", "x"): {"x": 1}, ("y", "1"): {"y": 1}, ("x", "y"): {"z": 1}, ("y", "x"): {"z": 1}}
    ring = ManifoldRing("integer_mod_torsion", 4, _XY, products, "z")
    plain = ManifoldRing("integer_mod_torsion", 4, _XY, {("x", "y"): {"z": 1}}, "z")
    assert ring.serialize() == plain.serialize()
    assert list(ring._table) == [(ring.position["x"], ring.position["y"])]
    assert ring.basis_element("x") * ring.basis_element("y") == ring.basis_element("z")


def test_missing_fundamental():
    with pytest.raises(MissingFundamental):
        ManifoldRing("integer_mod_torsion", 4, [("1", 0), ("x", 2)], {}, None)
    with pytest.raises(MissingFundamental):
        ManifoldRing("integer_mod_torsion", 4, [("1", 0), ("x", 2), ("x2", 4)], {}, "x")


def test_integer_mode_rejects_odd_degrees():
    with pytest.raises(PresentationError):
        ManifoldRing("integer_mod_torsion", 3, [("1", 0), ("w", 3)], {}, "w")
    # the same shape is fine mod 2
    ManifoldRing("mod2", 3, [("1", 0), ("w", 3)], {}, "w")


def test_add_examples(four_ring):
    x = four_ring.basis_element("x")
    assert x + four_ring.zero() == x
    assert 3 * x + 4 * x == four_ring.element({"x": 7})


def test_mod2_addition_cancels():
    ring = ManifoldRing("mod2", 2, [("1", 0), ("x", 1), ("y", 2)], {("x", "x"): {"y": 1}}, "y")
    x = ring.basis_element("x")
    assert x + x == ring.zero()
    assert -x == x


def test_ring_mismatch_on_mixed_arithmetic():
    a = four_manifold_ring()
    b = four_manifold_ring()
    with pytest.raises(RingMismatch):
        a.basis_element("x") + b.basis_element("x")
    with pytest.raises(RingMismatch):
        a.basis_element("x") * b.basis_element("x")


def test_invert_total_class_identity(four_ring):
    assert invert_total_class(four_ring.unit()) == four_ring.unit()


def test_invert_total_class_geometric_series():
    ring = truncated_polynomial_ring("integer_mod_torsion", 12, [("t", 4)])
    t = ring.basis_element("t")
    inverse = invert_total_class(ring.unit() + t)
    expected = ring.unit() - t + t * t - t * t * t
    assert inverse == expected


def test_invert_total_class_single_step(four_ring):
    total = four_ring.element({"1": 1, "x2": 3})
    inverse = invert_total_class(total)
    assert inverse == four_ring.element({"1": 1, "x2": -3})
    assert total * inverse == four_ring.unit()


def test_invert_total_class_requires_unit(four_ring):
    with pytest.raises(NotAUnit):
        invert_total_class(four_ring.basis_element("x"))
    with pytest.raises(NotAUnit):
        invert_total_class(2 * four_ring.unit())


def test_invert_total_class_visits_only_basis_degrees():
    # Three labels under a huge top dimension: the inverse loops over the two
    # degrees the basis has, not over every degree up to topDim.
    ring = ManifoldRing(
        "integer_mod_torsion", 100_000_000, [("1", 0), ("x", 4), ("f", 100_000_000)]
    )
    start = time.perf_counter()
    inverse = invert_total_class(ring.element({"1": 1, "x": 1, "f": 2}))
    assert time.perf_counter() - start < 1.0
    assert inverse == ring.element({"1": 1, "x": -1, "f": -2})


def test_invert_involution_randomized(four_ring):
    rng = random.Random(20240817)
    ring8 = truncated_polynomial_ring(
        "integer_mod_torsion", 8, [("a", 2), ("b", 4)], fundamental="b^2"
    )
    for ring in (four_ring, ring8):
        labels = [l for l in ring.labels if l != ring.unit_label]
        for _ in range(25):
            coeffs = {ring.unit_label: 1}
            for label in labels:
                coeffs[label] = rng.randint(-9, 9)
            total = ring.element(coeffs)
            inverse = invert_total_class(total)
            assert total * inverse == ring.unit()
            assert invert_total_class(inverse) == total


def test_kunneth_with_point():
    ring = four_manifold_ring()
    point = ManifoldRing("integer_mod_torsion", 0, [("1", 0)])
    product, inject, _ = kunneth_product(ring, point)
    assert product.top_dim == ring.top_dim
    assert len(product.labels) == len(ring.labels)
    x = ring.basis_element("x")
    assert pair_fundamental(inject(x * x)) == 1


def test_kunneth_product_of_two_four_manifolds():
    a = four_manifold_ring()
    b = four_manifold_ring()
    product, qa, qb = kunneth_product(a, b)
    assert len(product.labels) == 9
    assert product.top_dim == 8
    assert product.fundamental_label == f"x2{gring.TENSOR_SEPARATOR}x2"
    x = a.basis_element("x")
    y = b.basis_element("x")
    assert qa(x) * qb(y) == product.basis_element(f"x{gring.TENSOR_SEPARATOR}x")


def test_kunneth_mode_mismatch():
    a = four_manifold_ring()
    b = ManifoldRing("mod2", 2, [("1", 0), ("u", 2)], {}, "u")
    with pytest.raises(ModeMismatch):
        kunneth_product(a, b)


def test_kunneth_pairing_factorizes():
    a = four_manifold_ring()
    b = four_manifold_ring()
    product, qa, qb = kunneth_product(a, b)
    top_a = a.basis_element("x2")
    top_b = b.basis_element("x2")
    assert pair_fundamental(qa(3 * top_a) * qb(5 * top_b)) == 15


def test_pair_fundamental_examples(four_ring):
    assert pair_fundamental(four_ring.basis_element("x2")) == 1
    assert pair_fundamental(four_ring.zero()) == 0
    assert pair_fundamental(four_ring.element({"x2": 5})) == 5
    assert pair_fundamental(four_ring.basis_element("x")) == 0


def test_apply_map_identity(four_ring):
    # The one-factor Künneth product keeps the ring's basis, so its
    # injection is the identity up to the ring it lands in.
    product, ident = kunneth_product(four_ring)
    assert product.labels == four_ring.labels
    assert product.degrees == four_ring.degrees
    assert product.fundamental_label == four_ring.fundamental_label
    c = four_ring.element({"1": 2, "x": -1, "x2": 4})
    assert element_to_spec(ident(c)) == element_to_spec(c)
    assert ident(c) * ident(c) == ident(c * c)


def test_apply_map_multiplicative_on_random_pairs():
    a = four_manifold_ring()
    b = four_manifold_ring()
    product, qa, _ = kunneth_product(a, b)
    rng = random.Random(7)
    labels = list(a.labels)
    for _ in range(20):
        u = a.element({rng.choice(labels): rng.randint(-4, 4)})
        v = a.element({rng.choice(labels): rng.randint(-4, 4)})
        assert qa(u * v) == qa(u) * qa(v)


def test_map_rejects_non_multiplicative_images():
    ring = four_manifold_ring()
    other = four_manifold_ring()
    images = {
        "1": other.unit(),
        "x": 2 * other.basis_element("x"),
        "x2": other.basis_element("x2"),  # should be 4*x2 to stay multiplicative
    }
    with pytest.raises(PresentationError):
        RingMap(ring, other, images)


def test_map_rejects_degree_shift():
    ring = four_manifold_ring()
    other = four_manifold_ring()
    images = {
        "1": other.unit(),
        "x": other.basis_element("x2"),
        "x2": other.zero(),
    }
    with pytest.raises(PresentationError):
        RingMap(ring, other, images)


def test_injections_are_degreewise_injective():
    a = four_manifold_ring()
    b = four_manifold_ring()
    _, qa, qb = kunneth_product(a, b)
    assert is_degreewise_injective(qa)
    assert is_degreewise_injective(qb)


def test_collapsing_map_is_not_injective():
    ring = four_manifold_ring()
    point = ManifoldRing("integer_mod_torsion", 0, [("1", 0)])
    to_point = RingMap(
        ring,
        point,
        {"1": point.unit(), "x": point.zero(), "x2": point.zero()},
    )
    assert not is_degreewise_injective(to_point)


def test_tensor_component_extraction():
    a = four_manifold_ring()
    b = four_manifold_ring()
    product, qa, qb = kunneth_product(a, b)
    mixed = qa(a.basis_element("x")) * qb(b.basis_element("x")) + qa(a.basis_element("x2"))
    assert tensor_component(mixed, 4, 0) == qa(a.basis_element("x2"))
    assert tensor_component(mixed, 2, 2) == qa(a.basis_element("x")) * qb(b.basis_element("x"))
    assert tensor_component(mixed, 0, 4) == product.zero()


def test_tensor_component_requires_tensor_ring(four_ring):
    with pytest.raises(PresentationError):
        tensor_component(four_ring.unit(), 0, 0)


def test_tensor_component_takes_one_degree_per_factor():
    a, b, c = four_manifold_ring(), four_manifold_ring(), four_manifold_ring()
    product, qa, qb, qc = kunneth_product(a, b, c)
    x = [q(r.basis_element("x")) for q, r in ((qa, a), (qb, b), (qc, c))]
    mixed = x[0] * x[2] + qb(b.basis_element("x2"))
    assert tensor_component(mixed, 2, 0, 2) == x[0] * x[2]
    assert tensor_component(mixed, 0, 4, 0) == qb(b.basis_element("x2"))
    assert tensor_component(mixed, 2, 2, 0) == product.zero()
    for degrees in ((2, 0), (2, 0, 2, 0)):
        with pytest.raises(PresentationError, match="3 factors, got"):
            tensor_component(mixed, *degrees)


def test_kunneth_product_needs_a_factor():
    with pytest.raises(PresentationError):
        kunneth_product()


def test_associativity_and_commutativity_exhaustive():
    rings = [
        four_manifold_ring(),
        truncated_polynomial_ring("mod2", 6, [("u", 1), ("v", 2)], fundamental="u^2*v^2"),
    ]
    a, b = four_manifold_ring(), four_manifold_ring()
    rings.append(kunneth_product(a, b)[0])
    for ring in rings:
        elements = [ring.basis_element(l) for l in ring.labels]
        for x, y in itertools.combinations_with_replacement(elements, 2):
            assert x * y == y * x
        for x, y, z in itertools.combinations_with_replacement(elements, 3):
            assert (x * y) * z == x * (y * z)


def test_serialize_round_trip(four_ring):
    spec = four_ring.serialize()
    again = make_ring(spec)
    assert again.serialize() == spec
    assert spec["basis"] == FOUR_MANIFOLD_SPEC["basis"]


def test_make_ring_reads_orientable_as_a_json_bool():
    assert make_ring(dict(FOUR_MANIFOLD_SPEC, orientable=False)).orientable is False
    assert make_ring(FOUR_MANIFOLD_SPEC).orientable is True
    for value in ("no", 0, None):
        with pytest.raises(PresentationError, match="orientable"):
            make_ring(dict(FOUR_MANIFOLD_SPEC, orientable=value))


def test_element_spec_round_trip(four_ring):
    c = four_ring.element({"x": -2, "x2": 9})
    spec = gring.element_to_spec(c)
    assert gring.element_from_spec(four_ring, spec) == c


def test_map_spec_round_trip():
    a = four_manifold_ring()
    b = four_manifold_ring()
    original = RingMap(
        a,
        b,
        {"1": b.unit(), "x": -1 * b.basis_element("x"), "x2": b.basis_element("x2")},
    )
    spec = original.serialize()
    again = gring.map_from_spec(a, b, spec)
    assert again.serialize() == spec
    assert again(a.basis_element("x")) == -1 * b.basis_element("x")


def test_map_spec_rejects_a_non_string_source_label():
    a = four_manifold_ring()
    b = four_manifold_ring()
    spec = {"images": [{"from": ["x"], "to": [{"label": "x", "coeff": 1}]}]}
    with pytest.raises(PresentationError, match="'from'"):
        gring.map_from_spec(a, b, spec)


def test_truncated_polynomial_ring_shape():
    ring = truncated_polynomial_ring(
        "integer_mod_torsion", 8, [("a", 4), ("b", 8)], fundamental="b"
    )
    assert set(ring.labels) == {"1", "a", "b", "a^2"}
    a = ring.basis_element("a")
    assert a * a == ring.basis_element("a^2")
    assert a * ring.basis_element("b") == ring.zero()


def test_ring_requires_orientable_to_be_a_bool():
    basis = [("1", 0), ("x", 2), ("x2", 4)]
    assert ManifoldRing("integer_mod_torsion", 4, basis, {("x", "x"): {"x2": 1}}).orientable is True
    for value in ("no", 0, 1, None):
        with pytest.raises(PresentationError, match="orientable"):
            ManifoldRing("integer_mod_torsion", 4, basis, {("x", "x"): {"x2": 1}}, orientable=value)
    with pytest.raises(PresentationError, match="orientable"):
        truncated_polynomial_ring("mod2", 2, [("a", 1)], orientable="no")


def test_truncated_polynomial_ring_rejects_a_bool_degree():
    for degree in (True, 1.0, "1"):
        with pytest.raises(PresentationError, match="generator degree"):
            truncated_polynomial_ring("mod2", 2, [("a", degree)])
