"""Ring maps and Künneth tensor rings, the part of the ring engine that only
products of manifolds need: the filtration of self-equivalences and its
checks.  A command that works in one ring compiles none of it;
``gring.kunneth_product`` imports it when called.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Mapping, Sequence

from .gring import (
    BadUnit, CoefficientMode, GradedElement, ManifoldRing, ModeMismatch, PresentationError, RingMismatch, _pair_slices,
)
from .symbols import is_integer


def _bounded_pairs(degrees: Sequence[int], unit: int, bound: int) -> Iterator[tuple[int, int]]:
    """The position pairs x <= y, neither ``unit``, whose degrees sum to at
    most ``bound``, in the order of ``combinations_with_replacement``; no
    other pair is visited."""
    for x, ys in _pair_slices(degrees, unit)(bound):
        yield from zip(itertools.repeat(x), ys)


class RingMap:
    """Degree-preserving, unit-preserving, multiplicative map between rings.

    ``images`` holds one target element per source basis position, the
    unit's included.  The constructor checks all three, multiplicativity on
    the basis pairs at or below the target's top degree: images keep their
    degree and no product lives above a top, so above it both sides are
    zero.  ``kunneth_product`` builds its injections without it.
    """

    def __init__(self, source: ManifoldRing, target: ManifoldRing, images: Sequence[GradedElement]):
        if isinstance(images, Mapping):
            raise PresentationError("map images must be a sequence by source position, not a mapping")
        self.source = source
        self.target = target
        self.images: tuple[GradedElement, ...] = tuple(images)
        if len(self.images) != len(source.degrees):
            raise PresentationError(f"a map from {len(source.degrees)} basis elements needs as many images, got {len(self.images)}")
        for p, (image, degree) in enumerate(zip(self.images, source.degrees)):
            if not isinstance(image, GradedElement) or image.ring is not target:
                raise RingMismatch(f"image of position {p} is not an element of the target ring")
            if not image.is_homogeneous(degree):
                raise PresentationError(f"image of position {p} does not preserve degree")
        if self.images[source.unit_position] != target.unit():
            raise BadUnit("map must send the unit to the unit")
        self._verify_multiplicative()

    def _verify_multiplicative(self) -> None:
        source, target, images = self.source, self.target, self.images
        for a, b in _bounded_pairs(source.degrees, source.unit_position, target.top_dim):
            acc: dict[int, int] = {}  # f(ab), summed over the terms of ab
            for t, c in source.basis_product(a, b):
                for p, v in images[t].coeffs.items():
                    acc[p] = acc.get(p, 0) + c * v
            if GradedElement(target, acc).coeffs != (images[a] * images[b]).coeffs:
                a, b = source.labels[a], source.labels[b]
                raise PresentationError(f"map is not multiplicative on pair ({a!r}, {b!r})")

    def __call__(self, c: GradedElement) -> GradedElement:
        if c.ring is not self.source:
            raise RingMismatch("element does not belong to the map's source ring")
        return sum((self.images[p] * v for p, v in c.coeffs.items()), self.target.zero())


TENSOR_SEPARATOR = "⊗"  # the label glue of TensorRing


class TensorRing(ManifoldRing):
    """H*(P_0) ⊗ ... ⊗ H*(P_d), the Künneth ring of P_0 × ... × P_d
    (torsion-free or mod-2 coefficients, where the graded sign is 1).

    The basis is the first factor in its own order, then for each further
    factor the (previous tuple, new position) pairs stably sorted by total
    degree and then by the previous degree, as iterated binary products
    would list it.  Each position keeps its tuple of factor positions in
    ``factor_positions``; its degree adds the factor degrees, its label joins
    the factor labels with ``⊗`` and its key is their mixed-radix number, the
    first factor most significant.  The validated factors guarantee every
    check of the base constructor but distinct labels, so only that one is
    made.  Products are computed factor by factor, so no product table is
    stored.
    """

    __slots__ = ("factors", "factor_positions", "_steps", "_position_of")

    def __init__(self, factors: Sequence[ManifoldRing]):
        if not factors:
            raise PresentationError("a tensor product needs at least one factor")
        if any(f.mode is not factors[0].mode for f in factors):
            raise ModeMismatch("tensor factors must share a coefficient mode")
        sizes = [len(f.degrees) for f in factors]
        size = math.prod(sizes)
        if size > MAX_PRODUCT_BASIS:
            raise PresentationError(f"tensor product basis of {size} labels exceeds the cap MAX_PRODUCT_BASIS = {MAX_PRODUCT_BASIS}")
        # One row (degree, key, label, factor positions) per tensor.  The order
        # comes from degree buckets, not from a sort over the pairs.
        rows = [(d, a, label, (a,)) for a, (label, d) in enumerate(zip(factors[0].labels, factors[0].degrees))]
        for factor, n in zip(factors[1:], sizes[1:]):
            labels, new_by_degree = factor.labels, factor.positions_by_degree
            by_degree = {}
            for row in rows:
                by_degree.setdefault(row[0], []).append(row)
            rows = [
                (d + e, key * n + c, label + TENSOR_SEPARATOR + labels[c], t + (c,))
                for d, e in sorted(itertools.product(by_degree, new_by_degree), key=lambda de: (sum(de), de[0]))
                for _, key, label, t in by_degree[d]
                for c in new_by_degree[e]
            ]
        self.degrees, keys, self.labels, self.factor_positions = map(tuple, zip(*rows))
        self.position = dict(zip(self.labels, range(len(rows))))
        if len(self.position) < len(rows):  # the joins are distinct unless a factor label holds the glue
            seen = set()
            repeated = next(label for label in self.labels if label in seen or seen.add(label))
            raise PresentationError(
                f"tensor basis label {repeated!r} names two tensors: "
                f"factor labels contain TENSOR_SEPARATOR = {TENSOR_SEPARATOR!r}"
            )
        self.factors = tuple(factors)
        self._steps = tuple((f.basis_product, math.prod(sizes[k + 1:])) for k, f in enumerate(factors))
        self._position_of = [0] * size  # _position_of[key] is the position of the tuple
        by_degree = {}
        for p, (key, d) in enumerate(zip(keys, self.degrees)):
            self._position_of[key] = p
            by_degree.setdefault(d, []).append(p)
        self.positions_by_degree = {d: tuple(ps) for d, ps in by_degree.items()}
        self.mode = factors[0].mode
        self.top_dim = sum(f.top_dim for f in factors)
        self.orientable = all(f.orientable for f in factors)
        self.unit_position = self.position_of(f.unit_position for f in factors)
        self.fundamental_position = self.position_of(f.fundamental_position for f in factors)
        # A tensor product of associative rings is associative: nothing to verify.
        self._table = {}

    def position_of(self, factor_positions: Iterable[int]) -> int:
        """The position of the tensor of the given factor positions."""
        return self._position_of[sum(a * stride for a, (_, stride) in zip(factor_positions, self._steps))]

    def basis_product(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        # A single-term factor product shifts the key and scales; only the
        # others multiply the terms.  Every factor lists its terms by
        # position, all in one degree, so with the first factor most
        # significant the keys come out in the order of the tensor positions.
        key, scale, terms = 0, 1, ((0, 1),)
        for (factor_product, stride), a, b in zip(self._steps, self.factor_positions[i], self.factor_positions[j]):
            product = factor_product(a, b)
            if len(product) == 1:
                (r, c), = product
                key += r * stride
                scale *= c
            elif product:
                terms = [(k + r * stride, e * c) for k, e in terms for r, c in product]
            else:
                return ()
        index = self._position_of
        return tuple([(index[key + k], scale * e) for k, e in terms])

    def _product_entries(self) -> Iterator[tuple[tuple[int, int], tuple[tuple[int, int], ...]]]:
        for i, j in _bounded_pairs(self.degrees, self.unit_position, self.top_dim):
            if packed := self.basis_product(i, j):
                yield (i, j), packed


#: Largest tensor product basis, checked as the product of the factor sizes
#: before any list is built.  The tests and the benchmark use up to 31,977.
MAX_PRODUCT_BASIS = 100_000


def tensor_component(c: GradedElement, *degrees: int) -> GradedElement:
    """Part of a tensor-ring element whose factors sit in the given degrees,
    one degree per factor."""
    ring = c.ring
    if not isinstance(ring, TensorRing):
        raise PresentationError("element does not belong to a tensor ring")
    if len(degrees) != len(ring.factors):
        raise PresentationError(f"tensor ring has {len(ring.factors)} factors, got {len(degrees)} degrees")
    if not all(map(is_integer, degrees)):
        raise PresentationError(f"tensor component degrees must be integers, got {degrees!r}")
    factors, positions = ring.factors, ring.factor_positions
    return GradedElement(ring, {
        p: v for p, v in c.coeffs.items() if tuple(f.degrees[a] for f, a in zip(factors, positions[p])) == degrees
    })


def _rank(rows: list[list[int]], mod2: bool) -> int:
    """Exact rank over GF(2) when ``mod2``, else over the rationals.

    Fraction-free elimination: a row below the pivot row becomes
    pivot * row - entry * pivot_row, which keeps the rank since the pivot is
    nonzero; mod 2 every entry is reduced, so the pivot is 1.
    """
    matrix = [[v % 2 for v in row] if mod2 else list(row) for row in rows]
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = matrix[rank]
        for r in range(rank + 1, len(matrix)):
            if entry := matrix[r][col]:
                row = [top[col] * a - entry * b for a, b in zip(matrix[r], top)]
                matrix[r] = [v % 2 for v in row] if mod2 else row
        rank += 1
    return rank


def is_degreewise_injective(m: RingMap) -> bool:
    """Exact rank check: the map restricted to each degree has full rank."""
    mod2 = m.source.mode is CoefficientMode.MOD2
    for degree, positions in m.source.positions_by_degree.items():
        targets = m.target.positions_by_degree.get(degree, ())
        rows = [[m.images[p].coeffs.get(t, 0) for t in targets] for p in positions]
        if _rank(rows, mod2) < len(positions):
            return False
    return True


def truncated_polynomial_ring(
    mode: CoefficientMode | str,
    top_dim: int,
    generators: Sequence[tuple[str, int]],
    fundamental: str | None = None,
    *,
    orientable: bool = True,
) -> ManifoldRing:
    """Free graded-commutative ring on the given generators, truncated above
    ``top_dim``.  Basis labels are monomials like ``a``, ``a^2`` or ``a^2*b``;
    the unit is ``1``.
    """
    mode = CoefficientMode.parse(mode)
    names = []
    degrees = []
    for name, degree in generators:
        if not isinstance(name, str) or not name or name == "1" or "^" in name or "*" in name:
            raise PresentationError(f"bad generator name {name!r}")
        if name in names:
            raise PresentationError(f"duplicate generator name {name!r}")
        if not is_integer(degree) or degree < 1:
            raise PresentationError(f"generator degree must be a positive integer, got {degree!r}")
        names.append(name)
        degrees.append(degree)

    def label_of(exponents: tuple[int, ...]) -> str:
        if not any(exponents):
            return "1"
        parts = []
        for name, e in zip(names, exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    monomials: list[tuple[int, tuple[int, ...]]] = []

    def extend(prefix: tuple[int, ...], degree: int, index: int) -> None:
        if index == len(names):
            monomials.append((degree, prefix))
            return
        e = 0
        while degree + e * degrees[index] <= top_dim:
            extend(prefix + (e,), degree + e * degrees[index], index + 1)
            e += 1

    extend((), 0, 0)
    monomials.sort()
    basis = [(label_of(exps), degree) for degree, exps in monomials]

    products: dict[tuple[str, str], dict[str, int]] = {}
    for i, j in _bounded_pairs([degree for degree, _ in monomials], 0, top_dim):  # the unit sorts first
        combined = tuple(x + y for x, y in zip(monomials[i][1], monomials[j][1]))
        products[(basis[i][0], basis[j][0])] = {label_of(combined): 1}

    return ManifoldRing(mode, top_dim, basis, products, fundamental, orientable=orientable)
