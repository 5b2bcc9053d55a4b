import itertools
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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

import gen
import replay
import tracing
from conftest import FOUR_MANIFOLD_SPEC, four_manifold_ring


def test_point_ring():
    ring = ManifoldRing("integer_mod_torsion", 0, [("1", 0)])
    assert ring.labels[ring.fundamental_position] == "1"
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


def uvw_rings():
    """The mod-2 ring on u, v, w of degrees 1, 2, 3 under top 8, its basis
    listed in ascending and in descending degree order."""
    ordered = truncated_polynomial_ring(
        "mod2", 8, [("u", 1), ("v", 2), ("w", 3)], fundamental="u^8"
    )
    spec = ordered.serialize()
    spec["basis"] = spec["basis"][::-1]  # positions no longer follow degrees
    return ordered, make_ring(spec)


def test_bounded_triples_match_filtered_brute_force():
    for ring in uvw_rings():
        nonunit = [l for l in ring.labels if l != ring.labels[ring.unit_position]]
        every = list(itertools.combinations_with_replacement(nonunit, 3))
        bounded = [t for t in every if sum(ring.degrees[ring.position[l]] for l in t) <= ring.top_dim]
        assert 0 < len(bounded) < len(every)
        triples = [tuple(ring.labels[p] for p in (x, y, z)) for x, y, zs in ring._triple_slices() for z in zs]
        assert triples == bounded
        # The triples are the slices flattened, one slice per pair, in order.
        pairs = [(x, y) for x, y, _ in ring._triple_slices()]
        assert pairs == sorted(set(pairs))


def test_first_failing_triple_is_named_from_the_middle_of_a_slice():
    # Slices (a, a, [a, b]), (a, b, [b]), (b, b, [b]).  a*a = c + d takes
    # more than one term and a*d = 2t a coefficient other than 1:
    # (a*a)*a = 3t on every side, but (a*a)*b = 2t while (a*b)*a = t, and
    # (a*b)*b = t while (b*b)*a = 2t fails in a later slice.
    basis = [("1", 0), ("a", 2), ("b", 2), ("c", 4), ("d", 4), ("t", 6)]
    products = {
        ("a", "a"): {"c": 1, "d": 1}, ("a", "b"): {"c": 1}, ("b", "b"): {"d": 1},
        ("a", "c"): {"t": 1}, ("a", "d"): {"t": 2}, ("b", "c"): {"t": 1}, ("b", "d"): {"t": 1},
    }
    ring = ManifoldRing("integer_mod_torsion", 6, basis, products, "t", verify=False)
    assert [(x, y, list(zs)) for x, y, zs in ring._triple_slices()] == [(1, 1, [1, 2]), (1, 2, [2]), (2, 2, [2])]
    with pytest.raises(NonAssociative, match="^products of 'a', 'a', 'b' do not associate$"):
        ManifoldRing("integer_mod_torsion", 6, basis, products, "t")


def test_associativity_triple_cap_is_exact(monkeypatch):
    ring = truncated_polynomial_ring("mod2", 8, [("u", 1), ("v", 2), ("w", 3)], fundamental="u^8")
    spec = ring.serialize()
    count = sum(len(zs) for _, _, zs in ring._triple_slices())
    monkeypatch.setattr(gring, "MAX_ASSOC_TRIPLES", count)
    assert make_ring(spec).serialize() == spec
    monkeypatch.setattr(gring, "MAX_ASSOC_TRIPLES", count - 1)
    with pytest.raises(PresentationError, match=f"^associativity check exceeds the cap MAX_ASSOC_TRIPLES = {count - 1} triples$"):
        make_ring(spec)
    # Without u*u = u^2 the ring is not associative; inside the cap the
    # check names the first failing triple, not the cap.
    bad = [p for p in spec["products"] if (p["a"], p["b"]) != ("u", "u")]
    monkeypatch.setattr(gring, "MAX_ASSOC_TRIPLES", count)
    with pytest.raises(NonAssociative, match="^products of 'u', 'u', 'v' do not associate$"):
        make_ring({**spec, "products": bad})


@settings(max_examples=200)
@given(data=st.data())
def test_triple_slices_match_the_bounded_brute_force(data):
    # Positions are shuffled, so they do not follow degrees, and the least
    # degree after a position varies along the basis.
    top = data.draw(st.integers(0, 9), label="top")
    degrees = data.draw(st.lists(st.integers(1, top), max_size=14), label="degrees") if top else []
    basis = [("1", 0), *((f"e{k}", d) for k, d in enumerate(degrees))] + ([("f", top)] if top else [])
    basis = data.draw(st.permutations(basis), label="basis")
    ring = ManifoldRing("mod2", top, basis, fundamental="f" if top else "1", verify=False)
    degrees, unit = ring.degrees, ring.unit_position
    expected: dict[tuple[int, int], list[int]] = {}
    for x, y, z in itertools.combinations_with_replacement([p for p in range(len(degrees)) if p != unit], 3):
        if degrees[x] + degrees[y] + degrees[z] <= top:
            expected.setdefault((x, y), []).append(z)
    assert list(ring._triple_slices()) == [(x, y, zs) for (x, y), zs in expected.items()]
    assert ring._bounded_triple_count() == sum(map(len, expected.values()))


def test_the_session_ring_triples_are_counted_from_its_degrees():
    session = gen.session_ring()
    document = session.presentation(session.monomials[-1])
    assert make_ring(document)._bounded_triple_count() == tracing.triple_counts(document)[1] == 24_893


def test_the_replayed_generator_fault_is_found_on_the_generators():
    # u*(u*v) gives v^2 in place of u^2*v; u^2*v is still u^2 times v, so the
    # check runs on u, v and w alone, and fails, before the walk names the
    # first failing triple.
    document = replay.edited(replay.RING, replay.REFUSED_RINGS["not associative, found through a generator"])
    basis = [(entry["label"], entry["degree"]) for entry in document["basis"]]
    ring = ManifoldRing(document["mode"], document["topDim"], basis, document["products"], document["fundamental"], verify=False)
    assert ring._associates_through_generators(ring._bounded_triple_count(), *ring._product_rows()) is False
    with pytest.raises(NonAssociative, match="^products of 'u', 'u', 'v' do not associate$"):
        make_ring(document)


def test_pairs_without_a_third_factor_count_toward_the_triple_cap(monkeypatch):
    # Under top 5 with one degree-1 label a between the degree-2 labels, a
    # pair (x, f_j) has no z >= f_j, yet each bounded pair has its own bounded
    # triple {x, y, a}.  The walked pairs stay inside the cap; the bounded
    # pairs, those without a z among them, number the triples and pass it.
    basis = [("1", 0), *((f"e{j}", 2) for j in range(4)), ("a", 1), *((f"f{j}", 2) for j in range(4)), ("t", 5)]
    ring = ManifoldRing("mod2", 5, basis, fundamental="t", verify=False)
    count = sum(len(zs) for _, _, zs in ring._triple_slices())
    walked = len(list(ring._triple_slices()))
    bounded = list(gring._bounded_pairs(ring.degrees, ring.unit_position, 4))
    assert walked < count - 1 < len(bounded) == count
    spec = ring.serialize()
    monkeypatch.setattr(gring, "MAX_ASSOC_TRIPLES", count)
    assert make_ring(spec).serialize() == spec
    monkeypatch.setattr(gring, "MAX_ASSOC_TRIPLES", count - 1)
    with pytest.raises(PresentationError, match=f"^associativity check exceeds the cap MAX_ASSOC_TRIPLES = {count - 1} triples$"):
        make_ring(spec)


def test_triple_cap_refuses_before_the_first_triple():
    # The 400-label ring of the CLI cap test, built without the check: of
    # its 10,746,800 bounded triples the walk meets only the first past the
    # cap, and no slice is yielded.
    basis = [("1", 0), *((f"e{j}", 1) for j in range(400)), ("top", 3)]
    ring = ManifoldRing("mod2", 3, basis, fundamental="top", verify=False)
    with pytest.raises(PresentationError, match=f"^associativity check exceeds the cap MAX_ASSOC_TRIPLES = {gring.MAX_ASSOC_TRIPLES} triples$"):
        next(ring._triple_slices())


def test_a_ring_without_triples_walks_no_pairs():
    # 4,000 labels in degree 2 under top 4: every pair reaches the top, so no
    # pair has a z, and the walk visits no pair rather than 8M of them.
    basis = [("1", 0), *((f"e{j}", 2) for j in range(4000)), ("top", 4)]
    start = time.perf_counter()
    ring = ManifoldRing("mod2", 4, basis, fundamental="top")
    assert time.perf_counter() - start < 1.0
    assert list(ring._triple_slices()) == []


def test_distinct_degrees_without_triples_build_in_linear_time():
    # 8,000 labels in degrees n + 1 .. 2n under top 3n: every pair sums past
    # top - least, so the walk visits no pair and builds no long list.
    n = 8000
    basis = [("1", 0), *((f"e{j}", n + j) for j in range(1, n + 1)), ("top", 3 * n)]
    start = time.perf_counter()
    ring = ManifoldRing("mod2", 3 * n, basis, fundamental="top")
    assert time.perf_counter() - start < 1.0
    assert list(ring._triple_slices()) == []


def test_many_product_free_generators_are_checked_in_linear_time():
    # u^0 .. u^130 and 50,000 product-free labels of degree 128: each label
    # is a generator with the one pair (u, u) to check, so the 104,160
    # checks stay under the 111,721 bounded triples and the generators
    # decide.  Each costs its own empty row and its pair, not a pass over
    # the 50,131 labels.
    top, n = 130, 50_000
    spec = truncated_polynomial_ring("mod2", top, [("u", 1)], fundamental=f"u^{top}").serialize()
    spec["basis"] += [{"label": f"e{j}", "degree": top - 2} for j in range(n)]
    basis = [(entry["label"], entry["degree"]) for entry in spec["basis"]]
    ring = ManifoldRing("mod2", top, basis, spec["products"], spec["fundamental"], verify=False)
    assert ring._associates_through_generators(ring._bounded_triple_count(), *ring._product_rows()) is True
    start = time.perf_counter()
    make_ring(spec)
    assert time.perf_counter() - start < 1.0


def test_distinct_degrees_past_the_cap_are_refused_early():
    # 8,000 labels in degrees 1 .. n under top n have billions of bounded
    # triples; the walk passes the cap within its first 130 pairs.
    n = 8000
    basis = [("1", 0), *((f"e{j}", j) for j in range(1, n + 1))]
    start = time.perf_counter()
    with pytest.raises(PresentationError, match=f"^associativity check exceeds the cap MAX_ASSOC_TRIPLES = {gring.MAX_ASSOC_TRIPLES} triples$"):
        ManifoldRing("mod2", n, basis, fundamental=f"e{n}")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("ring", [
    *uvw_rings(),
    kunneth_product(
        truncated_polynomial_ring("mod2", 3, [("a", 1)]),
        truncated_polynomial_ring("mod2", 4, [("b", 1), ("c", 2)], fundamental="b^4"),
    )[0],
], ids=["ascending", "descending", "tensor"])
def test_bounded_pairs_match_filtered_brute_force(ring):
    # Which pairs come first depends on the position order, not on degrees.
    degrees, unit = ring.degrees, ring.unit_position
    nonunit = [p for p in range(len(degrees)) if p != unit]
    least = min(degrees[p] for p in nonunit)
    for bound in sorted({-1, least - 1, *degrees, ring.top_dim, ring.top_dim + 1}):
        expected = [
            (x, y) for x, y in itertools.combinations_with_replacement(nonunit, 2)
            if degrees[x] + degrees[y] <= bound
        ]
        assert list(gring._bounded_pairs(degrees, unit, bound)) == expected


@pytest.mark.parametrize("ring", [
    ManifoldRing("integer_mod_torsion", 0, [("1", 0)]),
    truncated_polynomial_ring("mod2", 2, [("u", 1)]),
    gring.kunneth_product(truncated_polynomial_ring("mod2", 2, [("u", 1)]))[0],
], ids=["ring", "polynomial", "tensor"])
def test_rings_take_no_new_attributes(ring):
    with pytest.raises(AttributeError):
        ring.basis_product = lambda i, j: ()
    with pytest.raises(AttributeError):
        ring.extra = 1
    assert not hasattr(ring, "__dict__")


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


class _Count(int):
    """A caller's own integer type."""


# (mode, coefficient of z in x*y given in Python, stored coefficient or the
# refusal's message).
_PYTHON_COEFFICIENTS = {
    "int subclass": ("integer_mod_torsion", _Count(3), 3),
    "int subclass mod 2": ("mod2", _Count(3), 1),
    "negative mod 2": ("mod2", -3, 1),
    "negative": ("integer_mod_torsion", -3, -3),
    "even mod 2": ("mod2", 2, None),
    "bool": ("integer_mod_torsion", True, "coefficient of 'z' in 'x'*'y' must be an integer"),
    "bool mod 2": ("mod2", True, "coefficient of 'z' in 'x'*'y' must be an integer"),
    "float": ("integer_mod_torsion", 1.0, "coefficient of 'z' in 'x'*'y' must be an integer"),
}


@pytest.mark.parametrize("name", sorted(_PYTHON_COEFFICIENTS))
def test_python_product_coefficients_are_stored_by_value(name):
    mode, coefficient, stored = _PYTHON_COEFFICIENTS[name]
    if isinstance(stored, str):
        with pytest.raises(PresentationError) as raised:
            ManifoldRing(mode, 4, _XY, {("x", "y"): {"z": coefficient}}, "z")
        assert (type(raised.value), str(raised.value)) == (PresentationError, stored)
        return
    ring = ManifoldRing(mode, 4, _XY, {("x", "y"): {"z": coefficient}}, "z")
    assert ring._table == ({(1, 2): ((3, stored),)} if stored else {})
    assert ring.serialize()["products"] == ([{"a": "x", "b": "y", "result": [{"label": "z", "coeff": stored}]}] if stored else [])


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


def test_quotient_refuses_a_numerator_from_another_ring(four_ring):
    # A unit total would otherwise hand back the numerator's coefficients
    # keyed onto the total's ring.
    other = four_manifold_ring()
    with pytest.raises(RingMismatch):
        invert_total_class(four_ring.unit(), None, other.basis_element("x"))


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
        unit = ring.labels[ring.unit_position]
        labels = [l for l in ring.labels if l != unit]
        for _ in range(25):
            coeffs = {unit: 1}
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
    assert product.labels[product.fundamental_position] == f"x2{gring.TENSOR_SEPARATOR}x2"
    x = a.basis_element("x")
    y = b.basis_element("x")
    assert qa(x) * qb(y) == product.basis_element(f"x{gring.TENSOR_SEPARATOR}x")


def test_kunneth_product_cap_is_exact(monkeypatch):
    a = four_manifold_ring()
    b = four_manifold_ring()
    monkeypatch.setattr(gring, "MAX_PRODUCT_BASIS", 9)
    product, _, _ = kunneth_product(a, b)
    assert len(product.labels) == 9
    monkeypatch.setattr(gring, "MAX_PRODUCT_BASIS", 8)
    with pytest.raises(PresentationError, match="basis of 9 labels exceeds the cap MAX_PRODUCT_BASIS = 8"):
        kunneth_product(a, b)
    with pytest.raises(PresentationError, match="basis of 27 labels"):
        kunneth_product(a, b, four_manifold_ring())


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
    assert product.fundamental_position == four_ring.fundamental_position
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
    images = [
        other.unit(),
        2 * other.basis_element("x"),
        other.basis_element("x2"),  # should be 4*x2 to stay multiplicative
    ]
    assert ring.labels == ("1", "x", "x2")
    with pytest.raises(PresentationError, match=r"^map is not multiplicative on pair \('x', 'x'\)$"):
        RingMap(ring, other, images)


def test_map_rejects_degree_shift():
    ring = four_manifold_ring()
    other = four_manifold_ring()
    images = [other.unit(), other.basis_element("x2"), other.zero()]
    assert ring.labels == ("1", "x", "x2")
    with pytest.raises(PresentationError, match="^image of position 1 does not preserve degree$"):
        RingMap(ring, other, images)


def test_map_refuses_images_by_label():
    ring = four_manifold_ring()
    other = four_manifold_ring()
    images = {"1": other.unit(), "x": other.basis_element("x"), "x2": other.basis_element("x2")}
    with pytest.raises(PresentationError, match="^map images must be a sequence by source position, not a mapping$"):
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
    to_point = RingMap(ring, point, [point.unit(), point.zero(), point.zero()])
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


def test_kunneth_label_collision_names_the_label_and_the_separator():
    # x⊗x ⊗ x and x ⊗ x⊗x, both of degree 3, would share the label "x⊗x⊗x".
    a = ManifoldRing("mod2", 2, [("1", 0), ("x", 1), ("x⊗x", 2)], {("x", "x"): {"x⊗x": 1}})
    b = ManifoldRing("mod2", 2, [("1", 0), ("x", 1), ("y", 2)], {("x", "x"): {"y": 1}})
    with pytest.raises(PresentationError) as raised:
        kunneth_product(a, a)
    assert str(raised.value) == (
        "tensor basis label 'x⊗x⊗x' names two tensors: factor labels contain TENSOR_SEPARATOR = '⊗'"
    )
    # A label holding the glue is refused only where two joins meet.
    assert kunneth_product(a)[0].labels == a.labels
    assert {"x⊗x⊗1", "x⊗x⊗y"} <= set(kunneth_product(a, b)[0].labels)


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


# Documents with two or three faults, by their name in replay.REFUSED_RINGS:
# (error, message).  Every document-shape fault is named before any basis
# fault, and those before any product fault; faults of one kind in entry
# order, and within an entry in term order.
MULTI_FAULT_DOCUMENTS = {
    "late shape fault, early unknown factor": (
        PresentationError, "product entry: field 'b' must be a non-empty string"),
    "late shape fault, early unknown target": (PresentationError, "product entry: field 'result' must be a list"),
    "late missing coeff, early degree mismatch": (
        PresentationError, "result entry of product 'x'*'y': missing field 'coeff'"),
    "late term not an object, early bad coefficient": (
        PresentationError, "result entry of product 'y'*'y': not a JSON object"),
    "late duplicate pair, early bad coefficient": (PresentationError, "duplicate product entry for pair ('y', 'x')"),
    "late duplicate target, early unknown factor": (PresentationError, "duplicate target 'z' in product 'y'*'y'"),
    "duplicate target before a missing coeff": (PresentationError, "duplicate target 'z' in product 'x'*'y'"),
    "missing coeff before a duplicate target": (
        PresentationError, "result entry of product 'x'*'y': missing field 'coeff'"),
    "empty label before a duplicate target": (
        PresentationError, "result entry of product 'x'*'y': field 'label' must be a non-empty string"),
    "entry not an object after an unknown target": (PresentationError, "product entry: not a JSON object"),
    "product shape fault, basis duplicate label": (
        PresentationError, "product entry: field 'a' must be a non-empty string"),
    "product shape fault, unknown mode": (PresentationError, "result entry of product 'x'*'y': not a JSON object"),
    "basis shape fault, product shape fault": (PresentationError, "basis entry: missing field 'degree'"),
    "basis duplicate label, unknown target": (PresentationError, "duplicate basis label 'x'"),
    "bad fundamental, product degree mismatch": (
        MissingFundamental, "fundamental label 'x' is not a degree-4 basis element"),
    "two product faults in entry order": (PresentationError, "product 'x'*'x' (degree 4) targets 'y' of degree 2"),
    "duplicate pair before a bad unit product": (PresentationError, "duplicate product entry for pair ('x', 'x')"),
    "bad unit product before a degree mismatch": (
        BadUnit, "product with the unit must reproduce the other factor: '1'*'x'"),
    "no result field, then an unknown factor": (PresentationError, "product entry names unknown label 'q'"),
}


@pytest.mark.parametrize("name", sorted(MULTI_FAULT_DOCUMENTS))
def test_the_first_fault_of_a_document_is_named(name):
    with pytest.raises(PresentationError) as raised:
        make_ring(replay.edited(replay.RING, replay.REFUSED_RINGS[name]))
    assert (type(raised.value), str(raised.value)) == MULTI_FAULT_DOCUMENTS[name]


# Documents with one shape fault that construction alone does not meet as an
# unknown label or a bad coefficient: the one-pass install must fail on it,
# so that the fault is named at all.  (name in replay.REFUSED_RINGS, message)
# by test name.
LONE_SHAPE_FAULTS = {
    "pair repeated with the same result": ("duplicate pair", "duplicate product entry for pair ('x', 'x')"),
    "zero pair repeated, swapped": ("duplicate swapped pair", "duplicate product entry for pair ('y', 'x')"),
    "zero pair repeated with a nonzero result": (
        "zero pair repeated with a nonzero result", "duplicate product entry for pair ('y', 'x')"),
    "unit pair repeated": ("duplicate unit pair", "duplicate product entry for pair ('x', '1')"),
    "target repeated with the same coefficient": ("duplicate target", "duplicate target 'z' in product 'x'*'x'"),
    "zero target repeated": ("duplicate zero target", "duplicate target 'z' in product 'x'*'y'"),
    "result an empty object": ("empty result object", "product entry: field 'result' must be a list"),
    "result an empty string": ("empty result string", "product entry: field 'result' must be a list"),
}


@pytest.mark.parametrize("name", sorted(LONE_SHAPE_FAULTS))
def test_a_lone_shape_fault_is_named(name):
    document, message = LONE_SHAPE_FAULTS[name]
    with pytest.raises(PresentationError) as raised:
        make_ring(replay.edited(replay.RING, replay.REFUSED_RINGS[document]))
    assert (type(raised.value), str(raised.value)) == (PresentationError, message)


@st.composite
def polynomial_documents(draw):
    """A truncated polynomial presentation written out from monomial
    exponents, and the product table it presents: {(i, j), i <= j: ((t, 1),)}
    by basis position.  The basis is shuffled, the product entries are too,
    each with its factors swapped at random; some non-unit labels get an
    explicit unit product, and any entry may carry zero-coefficient terms on
    any label, or list a pair whose product lies above the top."""
    mode = draw(st.sampled_from(["mod2", "integer_mod_torsion"]), label="mode")
    u = 1 if mode == "mod2" else 2
    count = draw(st.integers(1, 3), label="generators")
    degrees = [u * d for d in draw(st.lists(st.integers(1, 2), min_size=count, max_size=count), label="degrees")]
    power = draw(st.integers(2, 6 // (degrees[0] // u)), label="power")
    rng = random.Random(draw(st.integers(0, 2**32), label="shuffle seed"))
    top = power * degrees[0]

    def degree(e):
        return sum(x * d for x, d in zip(e, degrees))

    def label(e):
        return "*".join(f"g{n}^{x}" for n, x in enumerate(e) if x) or "1"

    exponents = [e for e in itertools.product(*(range(top // d + 1) for d in degrees)) if degree(e) <= top]
    rng.shuffle(exponents)
    position = {e: p for p, e in enumerate(exponents)}
    labels = [label(e) for e in exponents]
    nonunit = [e for e in exponents if any(e)]

    def result(target):
        terms = [] if target is None else [{"label": label(target), "coeff": rng.choice([1, 3, -1] if u == 1 else [1])}]
        terms += [{"label": l, "coeff": rng.choice([0, 2, -2] if u == 1 else [0])}
                  for l in rng.sample(labels, min(len(labels), rng.choice([0, 0, 1, 2])))
                  if target is None or l != label(target)]
        rng.shuffle(terms)
        return terms

    entries, table = [], {}
    for e, f in itertools.combinations_with_replacement(nonunit, 2):
        product = tuple(x + y for x, y in zip(e, f))
        if degree(product) <= top:
            entries.append((e, f, result(product)))
            i, j = sorted((position[e], position[f]))
            table[i, j] = ((position[product], 1),)
        elif rng.random() < 0.3:
            entries.append((e, f, result(None)))
    unit = (0,) * len(degrees)
    entries += [(unit, e, result(e)) for e in nonunit if rng.random() < 0.3]
    rng.shuffle(entries)
    products = []
    for e, f, terms in entries:
        a, b = (label(f), label(e)) if rng.random() < 0.5 else (label(e), label(f))
        products.append({"a": a, "b": b, "result": terms} if terms or rng.random() < 0.5 else {"a": a, "b": b})
    document = {
        "mode": mode, "topDim": top, "fundamental": label((power,) + unit[1:]),
        "basis": [{"label": l, "degree": degree(e)} for l, e in zip(labels, exponents)], "products": products,
    }
    return document, table


@settings(max_examples=200)
@given(case=polynomial_documents())
def test_a_valid_document_is_stored_as_presented_in_one_pass(case):
    document, table = case
    with mock.patch.object(gring, "_raise_shape_fault", side_effect=AssertionError("the fault walk was entered")):
        ring = make_ring(document)
    assert ring.labels == tuple(entry["label"] for entry in document["basis"])
    assert ring._table == table


def test_the_fault_walk_is_never_entered_for_a_valid_document(monkeypatch):
    def walk(entries):
        raise AssertionError("the fault walk was entered")

    monkeypatch.setattr(gring, "_raise_shape_fault", walk)
    for document in [FOUR_MANIFOLD_SPEC, replay.RING, *(ring.serialize() for ring in uvw_rings())]:
        make_ring(document)
    # A document that fails construction is walked.
    with pytest.raises(AssertionError, match="the fault walk was entered"):
        make_ring(dict(replay.RING, fundamental="x"))


def test_element_spec_round_trip(four_ring):
    c = four_ring.element({"x": -2, "x2": 9})
    spec = gring.element_to_spec(c)
    assert gring.element_from_spec(four_ring, spec) == c


@pytest.mark.parametrize("build, error, message", [
    (lambda a, b: RingMap(a, b, [2 * b.unit(), -1 * b.basis_element("x"), b.basis_element("x2")]),
     BadUnit, "map must send the unit to the unit"),
    (lambda a, b: RingMap(a, b, [b.unit(), b.basis_element("x2"), b.basis_element("x2")]),
     PresentationError, "image of position 1 does not preserve degree"),
    (lambda a, b: RingMap(a, b, [b.unit(), a.basis_element("x"), b.basis_element("x2")]),
     RingMismatch, "image of position 1 is not an element of the target ring"),
    (lambda a, b: RingMap(a, b, [b.unit(), b.basis_element("x")]),
     PresentationError, "a map from 3 basis elements needs as many images, got 2"),
    (lambda a, b: RingMap(a, b, [b.unit(), -1 * b.basis_element("x"), b.basis_element("x2"), b.zero()]),
     PresentationError, "a map from 3 basis elements needs as many images, got 4"),
], ids=["unit", "degree", "ring", "too-few", "too-many"])
def test_map_edge_messages(build, error, message):
    a, b = four_manifold_ring(), four_manifold_ring()
    with pytest.raises(error) as raised:
        build(a, b)
    assert type(raised.value) is error
    assert str(raised.value) == message


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


def test_truncated_polynomial_ring_rejects_bad_and_repeated_generator_names():
    # A name that could be read as the unit or as a monomial label is refused.
    for name in ("a^2", "1", "", "a*b"):
        with pytest.raises(PresentationError) as raised:
            truncated_polynomial_ring("mod2", 2, [(name, 1)])
        assert str(raised.value) == f"bad generator name {name!r}"
    with pytest.raises(PresentationError, match="^duplicate generator name 'a'$"):
        truncated_polynomial_ring("mod2", 2, [("a", 1), ("a", 2)])


def test_ring_refuses_an_empty_basis():
    with pytest.raises(PresentationError, match="^basis must be nonempty$"):
        ManifoldRing("mod2", 0, [])


def test_map_refuses_an_element_outside_its_source(four_ring):
    identity = RingMap(four_ring, four_ring, [four_ring.basis_element(label) for label in four_ring.labels])
    with pytest.raises(RingMismatch, match="^element does not belong to the map's source ring$"):
        identity(four_manifold_ring().basis_element("x"))
