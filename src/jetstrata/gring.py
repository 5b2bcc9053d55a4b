"""Exact graded-commutative ring engine for cohomology rings of closed manifolds.

A ring is presented by a finite graded basis with structure constants and a
designated fundamental class, with coefficients either integer (torsion
classes are simply not representable) or mod 2.  Products whose degree would
exceed the top dimension truncate silently to zero, matching cup products on
a closed manifold.

Structure constants are stored symmetrically, so commutativity holds by
construction.  Odd-degree basis elements are admitted only mod 2; this keeps
graded commutativity equal to plain commutativity in the integer mode.
All arithmetic is exact: arbitrary-precision integers, or bits mod 2.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence


class CoefficientMode(Enum):
    INTEGER_MOD_TORSION = "integer_mod_torsion"
    MOD2 = "mod2"

    @classmethod
    def parse(cls, value) -> "CoefficientMode":
        try:
            return cls(value)
        except ValueError:
            raise PresentationError(f"unknown coefficient mode: {value!r}") from None


class GringError(ValueError):
    """Base class for ring-engine validation failures."""


class PresentationError(GringError):
    """Malformed ring, element or map presentation."""


class BadUnit(PresentationError):
    pass


class NonAssociative(PresentationError):
    pass


class DegreeOverflowEntry(PresentationError):
    pass


class MissingFundamental(PresentationError):
    pass


class RingMismatch(GringError):
    pass


class ModeMismatch(GringError):
    pass


class NotAUnit(GringError):
    pass


class ConsistencyError(RuntimeError):
    """An identity the toolkit itself guarantees failed; indicates a bug."""


def is_integer(value) -> bool:
    """True for an int that is not a bool: JSON ``true`` is not the number 1."""
    return isinstance(value, int) and not isinstance(value, bool)


_REQUIRED = object()
_KIND_NAMES = {dict: "a JSON object", list: "a list", str: "a non-empty string", bool: "true or false"}


def read_field(document, key: str, kind: type, name: str, default=_REQUIRED):
    """``document[key]``, checked to be a JSON value of ``kind``: ``dict``,
    ``list``, ``str`` (non-empty), ``bool``, or ``object`` for any value.

    ``document`` must be a JSON object.  An absent key gives ``default``, or
    fails when there is none.  Every failure is a PresentationError naming the
    document by ``name`` and the key.  Integers are checked where their range
    is, with ``is_integer``.
    """
    if not isinstance(document, dict):
        raise PresentationError(f"{name}: not a JSON object")
    if key not in document:
        if default is _REQUIRED:
            raise PresentationError(f"{name}: missing field {key!r}")
        return default
    value = document[key]
    if not isinstance(value, kind) or (kind is str and not value):
        raise PresentationError(f"{name}: field {key!r} must be {_KIND_NAMES[kind]}")
    return value


class ManifoldRing:
    """Finite graded basis + structure constants, modelling H*(P) of a closed
    manifold modulo torsion (integer mode) or with mod-2 coefficients.

    ``basis`` is a sequence of (label, degree) pairs; degree 0 must contain
    exactly one label, the multiplicative unit.  ``products`` maps unordered
    pairs of non-unit labels to {label: coefficient}; omitted products are
    zero.  ``fundamental`` must be a top-degree label (inferred when the top
    degree carries a single label).

    Inside, a basis element is its position in ``basis``: structure constants,
    element coefficients and map images are keyed by position.  ``labels`` and
    its lookup ``position`` are read and written only at the edge: construction,
    documents and printing.
    """

    __slots__ = ("mode", "top_dim", "orientable", "labels", "position", "degrees",
                 "positions_by_degree", "unit_position", "fundamental_position", "_table")

    def __init__(
        self,
        mode: CoefficientMode | str,
        top_dim: int,
        basis: Sequence[tuple[str, int]],
        products: Mapping[tuple[str, str], Mapping[str, int]] | None = None,
        fundamental: str | None = None,
        *,
        orientable: bool = True,
        verify: bool = True,
    ):
        self.mode = CoefficientMode.parse(mode)
        if not is_integer(top_dim) or top_dim < 0:
            raise PresentationError(f"top dimension must be a nonnegative integer, got {top_dim!r}")
        self.top_dim = top_dim
        if not isinstance(orientable, bool):
            raise PresentationError(f"orientable must be true or false, got {orientable!r}")
        self.orientable = orientable

        if not basis:
            raise PresentationError("basis must be nonempty")
        position: dict[str, int] = {}
        degrees: list[int] = []
        by_degree: dict[int, list[int]] = {}
        for label, degree in basis:
            if not isinstance(label, str) or not label:
                raise PresentationError(f"basis label must be a nonempty string, got {label!r}")
            if label in position:
                raise PresentationError(f"duplicate basis label {label!r}")
            if not is_integer(degree) or degree < 0:
                raise PresentationError(f"basis degree must be a nonnegative integer, got {degree!r}")
            if degree > top_dim:
                raise DegreeOverflowEntry(
                    f"basis label {label!r} sits in degree {degree} above top dimension {top_dim}"
                )
            if self.mode is CoefficientMode.INTEGER_MOD_TORSION and degree % 2 == 1:
                raise PresentationError(
                    f"odd-degree basis label {label!r} requires mod-2 coefficients"
                )
            position[label] = len(degrees)
            by_degree.setdefault(degree, []).append(len(degrees))
            degrees.append(degree)
        self.labels: tuple[str, ...] = tuple(position)
        self.position = position
        self.degrees: tuple[int, ...] = tuple(degrees)
        self.positions_by_degree = {d: tuple(ps) for d, ps in by_degree.items()}

        units = self.positions_by_degree.get(0, ())
        if len(units) != 1:
            raise BadUnit(f"degree-0 basis must be exactly the unit, got {[self.labels[p] for p in units]}")
        self.unit_position = units[0]

        if fundamental is None:
            tops = self.positions_by_degree.get(top_dim, ())
            if len(tops) != 1:
                raise MissingFundamental(
                    f"no unique top-degree label in degree {top_dim}; pass fundamental explicitly"
                )
            fundamental = self.labels[tops[0]]
        p = position.get(fundamental) if isinstance(fundamental, str) else None
        if p is None or degrees[p] != top_dim:
            raise MissingFundamental(
                f"fundamental label {fundamental!r} is not a degree-{top_dim} basis element"
            )
        self.fundamental_position = p

        # Nonzero non-unit products: (i, j), i <= j -> ((position, coeff), ...).
        self._table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        for (a, b), result in (products or {}).items():
            self._install_product(a, b, result)

        if verify:
            self._verify_associativity()

    # -- construction internals ------------------------------------------

    def _normal(self, coefficient: int) -> int:
        if self.mode is CoefficientMode.MOD2:
            return coefficient % 2
        return coefficient

    def _install_product(self, a: str, b: str, result: Mapping[str, int]) -> None:
        position, degrees = self.position, self.degrees
        for label in (a, b):
            if label not in position:
                raise PresentationError(f"product entry names unknown label {label!r}")
        i, j = position[a], position[b]
        target_degree = degrees[i] + degrees[j]
        cleaned: dict[int, int] = {}
        for label, coefficient in result.items():
            t = position.get(label)
            if t is None:
                raise PresentationError(f"product {a!r}*{b!r} targets unknown label {label!r}")
            if not is_integer(coefficient):
                raise PresentationError(f"coefficient of {label!r} in {a!r}*{b!r} must be an integer")
            value = self._normal(coefficient)
            if value == 0:
                continue
            if degrees[t] != target_degree:
                raise PresentationError(
                    f"product {a!r}*{b!r} (degree {target_degree}) targets {label!r} "
                    f"of degree {degrees[t]}"
                )
            cleaned[t] = value
        if cleaned and target_degree > self.top_dim:
            raise DegreeOverflowEntry(
                f"product {a!r}*{b!r} targets degree {target_degree} above top dimension {self.top_dim}"
            )
        if self.unit_position in (i, j):
            other = j if i == self.unit_position else i
            if cleaned != {other: 1}:
                raise BadUnit(f"product with the unit must reproduce the other factor: {a!r}*{b!r}")
            return  # implied, not stored
        key = (i, j) if i <= j else (j, i)
        packed = tuple(sorted(cleaned.items()))
        if key in self._table and self._table[key] != packed:
            pair = (self.labels[key[0]], self.labels[key[1]])
            raise PresentationError(f"conflicting product entries for pair {pair!r}")
        if packed:
            self._table[key] = packed

    def basis_product(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """Structure constants of the basis pair at positions ``i`` and ``j``
        as ((position, coefficient), ...), by position."""
        if i == self.unit_position:
            return ((j, 1),)
        if j == self.unit_position:
            return ((i, 1),)
        return self._table.get((i, j) if i <= j else (j, i), ())

    def _bounded_triples(self) -> Iterator[tuple[int, int, int]]:
        """Non-unit position triples x <= y <= z whose degrees sum to at most
        top_dim, in the order of ``combinations_with_replacement``; past
        MAX_ASSOC_TRIPLES of them, a PresentationError before the first."""
        nonunit = [p for p in range(len(self.labels)) if p != self.unit_position]
        degrees = [self.degrees[p] for p in nonunit]
        positions, top = list(range(len(nonunit))), self.top_dim
        # within[b]: the positions of degree at most bounds[b], ascending;
        # degree 0 holds only the unit, so within[0] is empty.
        bounds = [0, *sorted(set(degrees))]
        within = [[k for k in positions if degrees[k] <= bound] for bound in bounds]

        def from_position(start: int, bound: int) -> tuple[list[int], int]:
            # ks[lo:] holds the positions from start on of degree at most bound.
            ks = within[bisect_right(bounds, bound) - 1]
            return ks, bisect_left(ks, start)

        def slices() -> Iterator[tuple[int, int, list[int], int]]:
            for i in positions:
                js, lo = from_position(i, top - degrees[i])
                for j in js[lo:]:
                    yield i, j, *from_position(j, top - degrees[i] - degrees[j])

        if sum(len(ks) - lo for _, _, ks, lo in slices()) > MAX_ASSOC_TRIPLES:
            raise PresentationError(f"associativity check exceeds the cap MAX_ASSOC_TRIPLES = {MAX_ASSOC_TRIPLES} triples")
        yield from ((nonunit[i], nonunit[j], nonunit[k]) for i, j, ks, lo in slices() for k in ks[lo:])

    def _verify_associativity(self) -> None:
        # Triples with total degree above top_dim associate trivially (both
        # sides truncate), so only bounded-degree triples are enumerated.
        # Each side is compared as a normalized term tuple, by position.
        rows: list[dict[int, tuple[tuple[int, int], ...]]] = [{} for _ in self.labels]
        for (i, j), packed in self._table.items():
            rows[i][j] = rows[j][i] = packed
        normal = self._normal

        def times(terms: tuple[tuple[int, int], ...], z: int) -> tuple[tuple[int, int], ...]:
            if not terms:
                return ()
            if len(terms) == 1:
                t, c = terms[0]
                row = rows[t].get(z, ())
                return row if c == 1 else tuple([(u, c * d) for u, d in row])
            acc: dict[int, int] = {}
            for t, c in terms:
                for u, d in rows[t].get(z, ()):
                    acc[u] = acc.get(u, 0) + c * d
            return tuple(sorted((u, v) for u, v in ((u, normal(v)) for u, v in acc.items()) if v))

        for x, y, z in self._bounded_triples():
            row = rows[x]
            if not (times(row.get(y, ()), z) == times(row.get(z, ()), y) == times(rows[y].get(z, ()), x)):
                x, y, z = (self.labels[p] for p in (x, y, z))
                raise NonAssociative(f"products of {x!r}, {y!r}, {z!r} do not associate")

    # -- elements ----------------------------------------------------------

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def unit(self) -> "GradedElement":
        return GradedElement(self, {self.unit_position: 1})

    def basis_element(self, label: str) -> "GradedElement":
        return self.element({label: 1})

    def element(self, coeffs: Mapping[str, int]) -> "GradedElement":
        """The element with the given coefficient per basis label."""
        by_position = {}
        for label, coefficient in coeffs.items():
            if label not in self.position:
                raise PresentationError(f"unknown basis label {label!r}")
            if not is_integer(coefficient):
                raise PresentationError(f"coefficient of {label!r} must be an integer")
            by_position[self.position[label]] = coefficient
        return GradedElement(self, by_position)

    # -- presentation ------------------------------------------------------

    def _product_entries(self) -> Iterable[tuple[tuple[int, int], tuple[tuple[int, int], ...]]]:
        """Nonzero non-unit products ((i, j), packed), i <= j, in position order."""
        return sorted(self._table.items())

    def serialize(self) -> dict:
        """Canonical presentation document; ``make_ring`` inverts this."""
        labels = self.labels
        products = [
            {"a": labels[i], "b": labels[j], "result": [{"label": labels[t], "coeff": c} for t, c in packed]}
            for (i, j), packed in self._product_entries()
        ]
        return {
            "mode": self.mode.value,
            "topDim": self.top_dim,
            "basis": [{"label": l, "degree": d} for l, d in zip(labels, self.degrees)],
            "products": products,
            "fundamental": labels[self.fundamental_position],
            "orientable": self.orientable,
        }

    def __repr__(self) -> str:
        return (
            f"ManifoldRing(mode={self.mode.value}, top_dim={self.top_dim}, "
            f"labels={len(self.labels)})"
        )


class GradedElement:
    """Exact finite sum of basis elements of one ManifoldRing, keyed by position."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ManifoldRing, coeffs: Mapping[int, int]):
        normalized = {}
        for p, coefficient in coeffs.items():
            value = ring._normal(coefficient)
            if value:
                normalized[p] = value
        self.ring = ring
        self.coeffs = normalized

    def _require_same_ring(self, other: "GradedElement") -> None:
        if self.ring is not other.ring:
            raise RingMismatch("elements belong to different rings")

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ring), tuple(sorted(self.coeffs.items()))))

    def __add__(self, other: "GradedElement") -> "GradedElement":
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._require_same_ring(other)
        acc = dict(self.coeffs)
        for p, coefficient in other.coeffs.items():
            acc[p] = acc.get(p, 0) + coefficient
        return GradedElement(self.ring, acc)

    def __neg__(self) -> "GradedElement":
        return GradedElement(self.ring, {p: -c for p, c in self.coeffs.items()})

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GradedElement(self.ring, {p: c * other for p, c in self.coeffs.items()})
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._require_same_ring(other)
        product = self.ring.basis_product
        acc: dict[int, int] = {}
        for i, ca in self.coeffs.items():
            for j, cb in other.coeffs.items():
                for t, c in product(i, j):
                    acc[t] = acc.get(t, 0) + ca * cb * c
        return GradedElement(self.ring, acc)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "GradedElement":
        if not is_integer(exponent) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.ring.unit()
        for _ in range(exponent):
            out = out * self
        return out

    def component(self, degree: int) -> "GradedElement":
        deg = self.ring.degrees
        return GradedElement(self.ring, {p: c for p, c in self.coeffs.items() if deg[p] == degree})

    def truncated(self, degree: int) -> "GradedElement":
        """Sum of the components of degree at most ``degree``."""
        deg = self.ring.degrees
        return GradedElement(self.ring, {p: c for p, c in self.coeffs.items() if deg[p] <= degree})

    def support_degrees(self) -> tuple[int, ...]:
        deg = self.ring.degrees
        return tuple(sorted({deg[p] for p in self.coeffs}))

    def is_homogeneous(self, degree: int) -> bool:
        """True when every nonzero term sits in ``degree`` (zero qualifies)."""
        deg = self.ring.degrees
        return all(deg[p] == degree for p in self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        labels = self.ring.labels
        return " + ".join(
            labels[p] if c == 1 else f"{c}*{labels[p]}" for p, c in sorted(self.coeffs.items())
        )


def pair_fundamental(c: GradedElement) -> int:
    """Coefficient of the fundamental class in the top-degree component."""
    return c.coeffs.get(c.ring.fundamental_position, 0)


def invert_total_class(c: GradedElement, through: int | None = None) -> GradedElement:
    """Formal inverse of a total class with unit leading term, exact in every
    degree up to ``through`` (all degrees when None) and zero above it.

    Computed degree by degree: the degree-d part of the inverse is minus the
    convolution of the known lower parts with the positive parts of ``c``.
    Only degrees that carry basis labels are visited, and only nonzero lower
    parts are multiplied; the part in any other degree is zero.  The
    degree-d part depends only on parts of degree <= d, so stopping at
    ``through`` changes nothing below it.
    """
    if through is not None and (not is_integer(through) or through < 0):
        raise ValueError("through must be None or a nonnegative integer")
    ring = c.ring
    if c.component(0) != ring.unit():
        raise NotAUnit("total class must have degree-0 component equal to 1")
    bound = ring.top_dim if through is None else min(through, ring.top_dim)
    parts: dict[int, GradedElement] = {0: ring.unit()}
    c_parts = {d: c.component(d) for d in c.support_degrees() if 0 < d <= bound}
    inverse = ring.unit()
    for d in sorted(d for d in ring.positions_by_degree if 0 < d <= bound):
        acc = ring.zero()
        for e, ce in c_parts.items():
            if parts.get(d - e):
                acc = acc + ce * parts[d - e]
        parts[d] = -acc
        inverse = inverse + parts[d]
    return inverse


class RingMap:
    """Degree-preserving, unit-preserving, multiplicative map between rings.

    ``images`` holds one target element per source basis position, the
    unit's included; ``map_from_spec`` reads a map by label.
    Multiplicativity is verified on all basis pairs at construction.
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
        source, images = self.source, self.images
        nonunit = [p for p in range(len(images)) if p != source.unit_position]
        for a, b in itertools.combinations_with_replacement(nonunit, 2):
            if self(GradedElement(source, dict(source.basis_product(a, b)))) != images[a] * images[b]:
                a, b = source.labels[a], source.labels[b]
                raise PresentationError(f"map is not multiplicative on pair ({a!r}, {b!r})")

    def __call__(self, c: GradedElement) -> GradedElement:
        if c.ring is not self.source:
            raise RingMismatch("element does not belong to the map's source ring")
        return sum((self.images[p] * v for p, v in c.coeffs.items()), self.target.zero())

    def serialize(self) -> dict:
        return {
            "images": [
                {"from": label, "to": element_to_spec(image)}
                for label, image in zip(self.source.labels, self.images)
            ]
        }


TENSOR_SEPARATOR = "⊗"  # the label glue used by kunneth_product


class TensorRing(ManifoldRing):
    """H*(P_0) ⊗ ... ⊗ H*(P_d), the Künneth ring of P_0 × ... × P_d
    (torsion-free or mod-2 coefficients, where the graded sign is 1).

    ``basis`` lists (degree, factor positions) per position, one factor
    position per ring in ``factors``, kept as ``factor_positions``: its label
    joins the factor labels with ``⊗`` and its degree adds theirs.  Products
    are computed factor by factor, so no product table is stored.
    """

    __slots__ = ("factors", "factor_positions", "_strides", "_steps", "_position_of")

    def __init__(self, factors: Sequence[ManifoldRing], basis: Sequence[tuple[int, tuple[int, ...]]]):
        self.factors = tuple(factors)
        self.factor_positions: tuple[tuple[int, ...], ...] = tuple(t for _, t in basis)
        # A tuple's key is its mixed-radix number, the first factor most
        # significant; _position_of[key] is the position of the tuple.
        sizes = [len(f.labels) for f in self.factors]
        self._strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
        self._steps = tuple(zip([f.basis_product for f in self.factors], self._strides))
        self._position_of = [0] * math.prod(sizes)
        for p, t in enumerate(self.factor_positions):
            self._position_of[sum(a * stride for a, stride in zip(t, self._strides))] = p
        labels = [TENSOR_SEPARATOR.join(f.labels[a] for f, a in zip(self.factors, t)) for t in self.factor_positions]
        # Each factor was checked when it was built, and a tensor product of
        # associative rings is associative: nothing to verify.
        super().__init__(
            self.factors[0].mode,
            sum(f.top_dim for f in self.factors),
            list(zip(labels, (d for d, _ in basis))),
            fundamental=labels[self.position_of(f.fundamental_position for f in self.factors)],
            orientable=all(f.orientable for f in self.factors),
            verify=False,
        )

    def position_of(self, factor_positions: Iterable[int]) -> int:
        """The position of the tensor of the given factor positions."""
        return self._position_of[sum(a * stride for a, stride in zip(factor_positions, self._strides))]

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
        degrees, top, by_degree = self.degrees, self.top_dim, self.positions_by_degree.items()
        for i in range(len(degrees)):
            if i == self.unit_position:
                continue
            # Degree 0 holds only the unit, whose products are implied.
            bound = top - degrees[i]
            for j in sorted(j for d, ps in by_degree if 0 < d <= bound for j in ps if j >= i):
                if packed := self.basis_product(i, j):
                    yield (i, j), packed


#: Most bounded-degree triples the associativity check of one ring walks; a
#: document past it is rejected.  The benchmark's largest ring has 227,396.
MAX_ASSOC_TRIPLES = 1_000_000

#: Largest tensor product basis, checked as the product of the factor sizes
#: before any list is built.  The tests and the benchmark use up to 31,977.
MAX_PRODUCT_BASIS = 100_000


def kunneth_product(*factors: ManifoldRing) -> tuple:
    """``ring, inject_0, ..., inject_d = kunneth_product(P_0, ..., P_d)``: the
    tensor ring of one or more rings and the factor injections.

    The basis is the first factor in its own order, then for each further
    factor the (previous tuple, new position) pairs stably sorted by total
    degree and then by the previous degree, as iterated binary products
    would list it.  Injection k sends ``a`` to the tensor with ``a`` in
    factor k and the unit in every other factor.
    """
    if not factors:
        raise PresentationError("a tensor product needs at least one factor")
    if any(f.mode is not factors[0].mode for f in factors):
        raise ModeMismatch("tensor factors must share a coefficient mode")
    size = math.prod(len(f.degrees) for f in factors)
    if size > MAX_PRODUCT_BASIS:
        raise PresentationError(f"tensor product basis of {size} labels exceeds the cap MAX_PRODUCT_BASIS = {MAX_PRODUCT_BASIS}")
    basis = [(d, (a,)) for a, d in enumerate(factors[0].degrees)]  # (degree, factor positions)
    for factor in factors[1:]:
        pairs = sorted(itertools.product(basis, enumerate(factor.degrees)), key=lambda p: (p[0][0] + p[1][1], p[0][0]))
        basis = [(d + e, t + (c,)) for (d, t), (c, e) in pairs]
    ring = TensorRing(factors, basis)
    units = [f.unit_position for f in factors]
    return ring, *(
        RingMap(factor, ring, [
            GradedElement(ring, {ring.position_of(units[:k] + [a] + units[k + 1:]): 1})
            for a in range(len(factor.degrees))
        ])
        for k, factor in enumerate(factors)
    )


def tensor_component(c: GradedElement, *degrees: int) -> GradedElement:
    """Part of a tensor-ring element whose factors sit in the given degrees,
    one degree per factor."""
    ring = c.ring
    if not isinstance(ring, TensorRing):
        raise PresentationError("element does not belong to a tensor ring")
    if len(degrees) != len(ring.factors):
        raise PresentationError(f"tensor ring has {len(ring.factors)} factors, got {len(degrees)} degrees")
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


# -- presentation documents -------------------------------------------------


def element_from_spec(ring: ManifoldRing, entries: list[dict]) -> GradedElement:
    coeffs: dict[str, int] = {}
    for entry in entries:
        label = read_field(entry, "label", str, "one of the element entries")
        coefficient = read_field(entry, "coeff", object, "one of the element entries")
        if label in coeffs:
            raise PresentationError(f"duplicate label {label!r} in element")
        coeffs[label] = coefficient
    return ring.element(coeffs)


def element_to_spec(c: GradedElement) -> list[dict]:
    labels = c.ring.labels
    return [{"label": labels[p], "coeff": v} for p, v in sorted(c.coeffs.items())]


def make_ring(spec: dict) -> ManifoldRing:
    """Build and validate a ring from its presentation document.

    Only the document's shape is read here; labels, degrees, coefficients,
    the unit and the fundamental class are checked by ``ManifoldRing``.
    """
    name = "ring presentation"
    mode = read_field(spec, "mode", object, name)
    top_dim = read_field(spec, "topDim", object, name)
    basis_entries = read_field(spec, "basis", list, name)
    fundamental = read_field(spec, "fundamental", object, name)
    product_entries = read_field(spec, "products", list, name, [])
    orientable = read_field(spec, "orientable", bool, name, True)
    basis = [
        (read_field(e, "label", object, "basis entry"), read_field(e, "degree", object, "basis entry"))
        for e in basis_entries
    ]
    products: dict[tuple[str, str], dict[str, int]] = {}
    for entry in product_entries:
        a = read_field(entry, "a", str, "product entry")
        b = read_field(entry, "b", str, "product entry")
        term_name = f"result entry of product {a!r}*{b!r}"
        result = {}
        for term in read_field(entry, "result", list, "product entry", []):
            label = read_field(term, "label", str, term_name)
            coefficient = read_field(term, "coeff", object, term_name)
            if label in result:
                raise PresentationError(f"duplicate target {label!r} in product {a!r}*{b!r}")
            result[label] = coefficient
        if (a, b) in products or (b, a) in products:
            raise PresentationError(f"duplicate product entry for pair {(a, b)!r}")
        products[a, b] = result
    return ManifoldRing(mode, top_dim, basis, products, fundamental, orientable=orientable)


def map_from_spec(source: ManifoldRing, target: ManifoldRing, spec: dict) -> RingMap:
    """Read a map document: one image per source label, the unit's optional."""
    images = {}
    for entry in read_field(spec, "images", list, "map presentation"):
        label = read_field(entry, "from", str, "map image")
        if label in images:
            raise PresentationError(f"duplicate image for {label!r}")
        images[label] = element_from_spec(target, read_field(entry, "to", list, "map image"))
    images.setdefault(source.labels[source.unit_position], target.unit())
    for label in source.labels:
        if label not in images:
            raise PresentationError(f"missing image for basis label {label!r}")
    for label in images:
        if label not in source.position:
            raise PresentationError(f"image given for unknown label {label!r}")
    return RingMap(source, target, [images[label] for label in source.labels])


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
    entries = [(label, degree, exps) for (degree, exps), (label, _) in zip(monomials, basis)]
    for i, (la, da, ea) in enumerate(entries):
        if la == "1":
            continue
        for lb, db, eb in entries[i:]:
            if lb == "1" or da + db > top_dim:
                continue
            combined = tuple(x + y for x, y in zip(ea, eb))
            products[(la, lb)] = {label_of(combined): 1}

    return ManifoldRing(mode, top_dim, basis, products, fundamental, orientable=orientable)
