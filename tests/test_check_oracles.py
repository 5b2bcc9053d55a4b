"""The ring checks against string-keyed brute-force references.

``ManifoldRing`` checks associativity and ``RingMap`` checks
multiplicativity on basis positions.  The references below do the same on
label-keyed dicts built straight from the presentation, walking every
bounded-degree triple and every basis pair in label order, and report the
first failure.  The inputs are truncated polynomial rings written in a
random unitriangular basis within each degree, so products and images have
several terms with coefficients other than ±1; in integer mode every
non-unit product may also be scaled by 2 or 3, which keeps it associative
and gives single-term products with such coefficients.  One product entry or
one map image is then perturbed, and the ring or map must be rejected exactly when
the reference finds a failure, at the same first triple or pair.  The check
of associativity on the generators alone is held to the same reference on
truncated polynomial rings with one product edited.

Unperturbed maps must commute with the graded determinant and the inverse of
a total class.  The exact rank behind the injectivity check is compared with
elimination on fractions over Q and with the size of the row span over GF(2).
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstrata.charclass import det_graded
from jetstrata.gring import (
    ManifoldRing, NonAssociative, PresentationError, RingMap, _rank, invert_total_class, truncated_polynomial_ring,
)

from test_degree_bound import totals

# Generators and top dimension per coefficient mode; each has a degree that
# carries several monomials, so the basis change mixes labels.
SHAPES = {
    "mod2": ([1, 2, 2], 5),
    "integer_mod_torsion": ([2, 2, 4], 8),
}


def _normal(mode):
    return (lambda c: c % 2) if mode == "mod2" else (lambda c: c)


def _clean(terms, normal):
    return {label: normal(c) for label, c in terms.items() if normal(c)}


# -- presentations ------------------------------------------------------------


class Twisted:
    """The truncated polynomial ring on ``SHAPES[mode]`` with basis
    e_k = m_k + sum_{j<k} twist[k][j] m_j, m_k the k-th monomial and j over
    the earlier monomials of the same degree, and the product of two non-unit
    elements multiplied by ``scale``.  ``top`` truncates below the shape's
    top dimension."""

    def __init__(self, mode, twist_entries, scale=1, top=None):
        degrees, shape_top = SHAPES[mode]
        top = shape_top if top is None else top
        self.mode, self.top, self.scale = mode, top, scale
        self.normal = _normal(mode)
        boxes = [range(top // d + 1) for d in degrees]

        def weight(e):
            return sum(x * d for x, d in zip(e, degrees))

        self.monomials = sorted(
            (e for e in itertools.product(*boxes) if weight(e) <= top), key=lambda e: (weight(e), e)
        )
        self.degree = [weight(e) for e in self.monomials]
        self.index = {e: k for k, e in enumerate(self.monomials)}
        self.labels = [f"e{k}" for k in range(len(self.monomials))]
        entries = iter(twist_entries)
        # twist[k]: {j: coefficient of m_j in e_k} over earlier j of e_k's degree.
        self.twist = [
            {j: next(entries) for j in range(k) if self.degree[j] == self.degree[k]}
            for k in range(len(self.monomials))
        ]

    @staticmethod
    def twist_size(mode, top=None):
        return sum(len(t) for t in Twisted(mode, itertools.repeat(0), top=top).twist)

    def monomial_coords(self, k):
        """e_k in monomial coordinates."""
        return {k: 1, **self.twist[k]}

    def from_monomials(self, coords):
        """Monomial coordinates -> {label: coefficient} in the e basis:
        back substitution within each degree, last monomial first."""
        w = {}
        for j in reversed(range(len(self.monomials))):
            value = coords.get(j, 0) - sum(
                w.get(k, 0) * t[j] for k, t in enumerate(self.twist) if j in t
            )
            if self.normal(value):
                w[j] = self.normal(value)
        return {self.labels[j]: c for j, c in w.items()}

    def monomial_product(self, x, y):
        """Product of two non-unit monomial-coordinate vectors, truncated above top."""
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                e = tuple(p + q for p, q in zip(self.monomials[i], self.monomials[j]))
                if e in self.index:
                    out[self.index[e]] = out.get(self.index[e], 0) + self.scale * a * b
        return out

    def basis(self):
        return list(zip(self.labels, self.degree))

    def products(self):
        """Every non-unit pair of degree sum at most top, by label."""
        out = {}
        for a, b in itertools.combinations_with_replacement(range(1, len(self.labels)), 2):
            if self.degree[a] + self.degree[b] <= self.top:
                coords = self.monomial_product(self.monomial_coords(a), self.monomial_coords(b))
                out[self.labels[a], self.labels[b]] = self.from_monomials(coords)
        return out

    def fundamental(self):
        return self.labels[-1]

    def ring(self, products):
        return ManifoldRing(self.mode, self.top, self.basis(), products, self.fundamental())


# -- references ----------------------------------------------------------------


def _label_product(mode, basis, products):
    """Basis product on labels from a presentation, as a function."""
    unit = next(label for label, degree in basis if degree == 0)
    normal = _normal(mode)
    table = {}
    for (a, b), result in products.items():
        table[a, b] = table[b, a] = _clean(result, normal)

    def product(a, b):
        if a == unit:
            return {b: 1}
        if b == unit:
            return {a: 1}
        return table.get((a, b), {})

    return unit, product


def _times(x, y, product, normal):
    acc = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for t, c in product(a, b).items():
                acc[t] = acc.get(t, 0) + ca * cb * c
    return _clean(acc, normal)


def first_nonassociative_triple(mode, top, basis, products):
    """First bounded-degree triple x <= y <= z (label order) on which
    (xy)z, (xz)y and (yz)x differ, or None."""
    degree = dict(basis)
    unit, product = _label_product(mode, basis, products)
    normal = _normal(mode)
    nonunit = [label for label, _ in basis if label != unit]
    for x, y, z in itertools.combinations_with_replacement(nonunit, 3):
        if degree[x] + degree[y] + degree[z] > top:
            continue
        sides = [_times(product(p, q), {r: 1}, product, normal) for p, q, r in ((x, y, z), (x, z, y), (y, z, x))]
        if not sides[0] == sides[1] == sides[2]:
            return x, y, z
    return None


def first_nonmultiplicative_pair(mode, source, target, images):
    """First source pair a <= b (label order) with f(a)f(b) != f(ab), or None.
    ``source`` and ``target`` are (basis, products); ``images`` maps every
    non-unit source label to a {label: coefficient} dict."""
    normal = _normal(mode)
    source_unit, source_product = _label_product(mode, *source)
    _, target_product = _label_product(mode, *target)
    nonunit = [label for label, _ in source[0] if label != source_unit]
    for a, b in itertools.combinations_with_replacement(nonunit, 2):
        lhs = _times(images[a], images[b], target_product, normal)
        rhs = {}
        for t, c in source_product(a, b).items():
            for u, d in images[t].items():
                rhs[u] = rhs.get(u, 0) + c * d
        if lhs != _clean(rhs, normal):
            return a, b
    return None


# -- strategies ---------------------------------------------------------------


def _scale(draw, mode):
    return 1 if mode == "mod2" else draw(st.sampled_from([1, 2, 3]))


@st.composite
def twisted_rings(draw, mode, scale, top=None):
    size = Twisted.twist_size(mode, top)
    return Twisted(mode, draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)), scale, top)


def _delta(draw, mode):
    return 1 if mode == "mod2" else draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))


@st.composite
def perturbed_rings(draw, mode):
    """A twisted ring presentation with one product coefficient changed in
    three draws out of four."""
    twisted = draw(twisted_rings(mode, _scale(draw, mode)))
    products = twisted.products()
    if not draw(st.integers(0, 3)):
        return twisted, products
    pair = draw(st.sampled_from(sorted(products)))
    a, b = (int(label[1:]) for label in pair)
    targets = [k for k, d in enumerate(twisted.degree) if d == twisted.degree[a] + twisted.degree[b]]
    target = twisted.labels[draw(st.sampled_from(targets))]
    result = dict(products[pair])
    result[target] = result.get(target, 0) + _delta(draw, mode)
    products[pair] = result
    return twisted, products


@st.composite
def perturbed_maps(draw, mode, perturb=True):
    """The identity of the polynomial ring from one twisted basis to another,
    with one image changed by a multiple of a label of the same degree in
    three draws out of four, or never when ``perturb`` is false."""
    scale = _scale(draw, mode)
    source, target = draw(twisted_rings(mode, scale)), draw(twisted_rings(mode, scale))
    images = {
        label: target.from_monomials(source.monomial_coords(k))
        for k, label in enumerate(source.labels) if k
    }
    if not perturb or not draw(st.integers(0, 3)):
        return source, target, images
    k = draw(st.integers(1, len(source.labels) - 1))
    t = draw(st.sampled_from([j for j, d in enumerate(target.degree) if d == source.degree[k]]))
    image = dict(images[source.labels[k]])
    image[target.labels[t]] = image.get(target.labels[t], 0) + _delta(draw, mode)
    images[source.labels[k]] = _clean(image, target.normal)
    return source, target, images


# -- properties ---------------------------------------------------------------


@pytest.mark.parametrize("mode", sorted(SHAPES))
@settings(max_examples=60)
@given(data=st.data())
def test_associativity_check_agrees_with_the_reference(mode, data):
    twisted, products = data.draw(perturbed_rings(mode))
    expected = first_nonassociative_triple(mode, twisted.top, twisted.basis(), products)
    if expected is None:
        twisted.ring(products)
        return
    with pytest.raises(NonAssociative) as raised:
        twisted.ring(products)
    x, y, z = expected
    assert str(raised.value) == f"products of {x!r}, {y!r}, {z!r} do not associate"


@pytest.mark.parametrize("mode", sorted(SHAPES))
@settings(max_examples=60)
@given(data=st.data())
def test_multiplicativity_check_agrees_with_the_reference(mode, data):
    source, target, images = data.draw(perturbed_maps(mode))
    source_products, target_products = source.products(), target.products()
    expected = first_nonmultiplicative_pair(
        mode, (source.basis(), source_products), (target.basis(), target_products), images
    )
    source_ring, target_ring = source.ring(source_products), target.ring(target_products)
    # Position 0 is the unit, the one label ``images`` leaves out.
    elements = [target_ring.unit(), *(target_ring.element(images[label]) for label in source_ring.labels[1:])]
    if expected is None:
        RingMap(source_ring, target_ring, elements)
        return
    with pytest.raises(PresentationError) as raised:
        RingMap(source_ring, target_ring, elements)
    a, b = expected
    assert str(raised.value) == f"map is not multiplicative on pair ({a!r}, {b!r})"


@pytest.mark.parametrize("mode", sorted(SHAPES))
def test_unperturbed_presentations_pass_both_checks(mode):
    # A fixed twist and scale: multi-term products and images, and in
    # integer mode coefficients other than ±1 on single and multiple terms;
    # both checks and both references accept them.
    scale = 1 if mode == "mod2" else 2
    twisted = Twisted(mode, itertools.cycle([2, -3, 1]), scale)
    plain = Twisted(mode, itertools.repeat(0), scale)
    products = twisted.products()
    assert first_nonassociative_triple(mode, twisted.top, twisted.basis(), products) is None
    ring = twisted.ring(products)
    multi = [r for r in products.values() if len(r) > 1]
    assert multi
    if mode != "mod2":
        assert any(abs(c) > 1 for r in multi for c in r.values())
        assert any(abs(c) > 1 for r in products.values() if len(r) == 1 for c in r.values())
    images = {label: twisted.from_monomials(plain.monomial_coords(k)) for k, label in enumerate(plain.labels) if k}
    assert any(len(image) > 1 for image in images.values())
    plain_products = plain.products()
    assert first_nonmultiplicative_pair(mode, (plain.basis(), plain_products), (twisted.basis(), products), images) is None
    RingMap(plain.ring(plain_products), ring, [ring.unit(), *(ring.element(images[label]) for label in plain.labels[1:])])


def _presentation(ring):
    """A ring's (basis, products) by label, as the references read them."""
    labels = ring.labels
    products = {(labels[i], labels[j]): {labels[t]: c for t, c in packed} for (i, j), packed in ring._product_entries()}
    return list(zip(labels, ring.degrees)), products


def _monomial_count(degrees, top):
    exponents = itertools.product(*(range(top // d + 1) for d in degrees))
    return sum(sum(x * d for x, d in zip(e, degrees)) <= top for e in exponents)


@st.composite
def edited_polynomial_rings(draw):
    """(mode, top, basis, products, fundamental) by label: the truncated
    polynomial ring on one to three generators u, v, w, under a multiple of
    the degree of u of at most 14, from the upper half of those that give at
    most 120 labels; in three draws out of four one product is edited:
    deleted, its coefficient scaled by 2, 3 or -1 (integer mode), or its
    term retargeted to, or joined by, another label of its degree when there
    is one."""
    mode = draw(st.sampled_from(sorted(SHAPES)))
    step = 1 if mode == "mod2" else 2
    degrees = draw(st.lists(st.integers(1, 3).map(step.__mul__), min_size=1, max_size=3))
    tops = [k for k in range(1, 14 // degrees[0] + 1) if _monomial_count(degrees, k * degrees[0]) <= 120]
    k = draw(st.sampled_from(tops[len(tops) // 2:]))
    fundamental = "u" if k == 1 else f"u^{k}"
    basis, products = _presentation(truncated_polynomial_ring(mode, k * degrees[0], list(zip("uvw", degrees)), fundamental))
    if products and draw(st.integers(0, 3)):
        pair = draw(st.sampled_from(sorted(products)))
        (label, coefficient), = products[pair].items()  # every product is one monomial
        same = [other for other, d in basis if d == dict(basis)[label] and other != label]
        edit = draw(st.sampled_from(["delete", "retarget", "add"] + ([] if mode == "mod2" else ["scale"])))
        if edit == "delete":
            del products[pair]
        elif edit == "scale":
            products[pair] = {label: coefficient * draw(st.sampled_from([2, 3, -1]))}
        elif same:
            other = draw(st.sampled_from(same))
            products[pair] = {other: coefficient} if edit == "retarget" else {label: coefficient, other: 1}
    return mode, k * degrees[0], basis, products, fundamental


def test_generator_check_agrees_with_the_reference():
    # The check on the generators decides, or returns None and leaves the
    # ring to the walk over every triple.  Its verdict must be the
    # reference's, and so must the triple the refusal names.  It must decide
    # at least a third of the examples and refuse at least five of them
    # itself, so the walk cannot hide a wrong generator check.
    verdicts = []

    @settings(max_examples=150)
    @given(edited_polynomial_rings())
    def check(case):
        mode, top, basis, products, fundamental = case
        expected = first_nonassociative_triple(mode, top, basis, products)
        ring = ManifoldRing(mode, top, basis, products, fundamental, verify=False)
        verdict = ring._associates_through_generators(ring._bounded_triple_count(), *ring._product_rows())
        verdicts.append(verdict)
        assert verdict in (None, expected is None)
        if expected is None:
            ManifoldRing(mode, top, basis, products, fundamental)
            return
        with pytest.raises(NonAssociative) as raised:
            ManifoldRing(mode, top, basis, products, fundamental)
        x, y, z = expected
        assert str(raised.value) == f"products of {x!r}, {y!r}, {z!r} do not associate"

    check()
    assert 3 * (len(verdicts) - verdicts.count(None)) >= len(verdicts)
    assert verdicts.count(False) >= 5


@pytest.mark.parametrize("mode", sorted(SHAPES))
def test_map_into_a_lower_top_degree(mode):
    # u -> u from top 8 to top 4: u^3 and u^4 go to zero, and the pairs the
    # check skips, above degree 4, are zero on both sides.  With an image of
    # degree at most 4 changed, the check names the reference's first pair.
    source = truncated_polynomial_ring(mode, 8, [("u", 2)])
    target = truncated_polynomial_ring(mode, 4, [("u", 2)])
    images = {label: {label: 1} if label in target.position else {} for label in source.labels[1:]}
    presentations = _presentation(source), _presentation(target)

    def elements(images):
        return [target.unit(), *(target.element(images[label]) for label in source.labels[1:])]

    assert first_nonmultiplicative_pair(mode, *presentations, images) is None
    RingMap(source, target, elements(images))
    for label in ("u", "u^2"):
        changed = {**images, label: {} if mode == "mod2" else {label: 2}}
        expected = first_nonmultiplicative_pair(mode, *presentations, changed)
        assert expected is not None
        with pytest.raises(PresentationError, match=rf"^map is not multiplicative on pair \({expected[0]!r}, {expected[1]!r}\)$"):
            RingMap(source, target, elements(changed))


# -- naturality ---------------------------------------------------------------


@pytest.mark.parametrize("mode", sorted(SHAPES))
@settings(max_examples=40)
@given(data=st.data())
def test_ring_maps_commute_with_determinants_and_inverse_classes(mode, data):
    # f(det M) = det f(M) and f(c^-1) = f(c)^-1 for a multiplicative f, here
    # the identity of the polynomial ring between two twisted bases, so the
    # two sides multiply with different structure constants.
    source, target, images = data.draw(perturbed_maps(mode, perturb=False))
    source_ring, target_ring = source.ring(source.products()), target.ring(target.products())
    f = RingMap(
        source_ring, target_ring, [target_ring.unit(), *(target_ring.element(images[label]) for label in source.labels[1:])]
    )

    def element():
        return source_ring.element({label: data.draw(st.integers(-3, 3)) for label in source.labels})

    size = data.draw(st.integers(0, 4))
    matrix = [[element() for _ in range(size)] for _ in range(size)]
    image = [[f(entry) for entry in row] for row in matrix]
    assert f(det_graded(matrix, ring=source_ring)) == det_graded(image, ring=target_ring)
    total = data.draw(totals(source_ring))
    through = data.draw(st.none() | st.integers(0, source.top + 1))
    assert f(invert_total_class(total, through)) == invert_total_class(f(total), through)


# -- the rank behind the injectivity check ------------------------------------


def rational_rank(rows):
    """Rank over Q: Gauss-Jordan elimination with exact fractions."""
    matrix = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = [v / matrix[rank][col] for v in matrix[rank]]
        matrix[rank] = top
        for r in range(len(matrix)):
            if r != rank:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], top)]
        rank += 1
    return rank


def gf2_rank(rows):
    """Rank over GF(2): the span of the rows, built by brute force, has 2^rank
    elements."""
    span = {0}
    for row in rows:
        bits = sum(1 << j for j, v in enumerate(row) if v % 2)
        span |= {bits ^ s for s in span}
    return len(span).bit_length() - 1


@st.composite
def integer_matrices(draw):
    """Up to seven rows of one to five small integers; up to two rows are
    integer combinations of earlier ones, so deficient ranks are common."""
    width = draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=5))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([c * x + d * y for x, y in zip(a, b)])
    return rows


@settings(max_examples=300)
@given(integer_matrices())
def test_rank_agrees_with_fraction_elimination_and_the_mod_2_span(rows):
    before = [list(row) for row in rows]
    assert _rank(rows, mod2=False) == rational_rank(rows)
    assert _rank(rows, mod2=True) == gf2_rank(rows)
    assert rows == before
