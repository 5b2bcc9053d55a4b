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
from bisect import bisect_left, bisect_right
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence


class CoefficientMode(Enum):
    INTEGER_MOD_TORSION = "integer_mod_torsion"
    MOD2 = "mod2"

    @classmethod
    def parse(cls, value) -> "CoefficientMode":
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value:
                return member
        raise PresentationError(f"unknown coefficient mode: {value!r}")


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
    """

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
        self.orientable = bool(orientable)

        if not basis:
            raise PresentationError("basis must be nonempty")
        labels: list[str] = []
        degree_of: dict[str, int] = {}
        for entry in basis:
            label, degree = entry
            if not isinstance(label, str) or not label:
                raise PresentationError(f"basis label must be a nonempty string, got {label!r}")
            if label in degree_of:
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
            labels.append(label)
            degree_of[label] = degree
        self.labels: tuple[str, ...] = tuple(labels)
        self.degree_of = degree_of
        self.position = {label: j for j, label in enumerate(labels)}

        by_degree: dict[int, list[str]] = {}
        for label in labels:
            by_degree.setdefault(degree_of[label], []).append(label)
        self.basis_by_degree = {d: tuple(ls) for d, ls in by_degree.items()}

        units = self.basis_by_degree.get(0, ())
        if len(units) != 1:
            raise BadUnit(f"degree-0 basis must be exactly the unit, got {list(units)}")
        self.unit_label = units[0]

        if fundamental is None:
            top_labels = self.basis_by_degree.get(top_dim, ())
            if len(top_labels) != 1:
                raise MissingFundamental(
                    f"no unique top-degree label in degree {top_dim}; pass fundamental explicitly"
                )
            fundamental = top_labels[0]
        if not isinstance(fundamental, str) or degree_of.get(fundamental) != top_dim:
            raise MissingFundamental(
                f"fundamental label {fundamental!r} is not a degree-{top_dim} basis element"
            )
        self.fundamental_label = fundamental

        self._table: dict[tuple[str, str], tuple[tuple[str, int], ...]] = {}
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
        for label in (a, b):
            if label not in self.degree_of:
                raise PresentationError(f"product entry names unknown label {label!r}")
        target_degree = self.degree_of[a] + self.degree_of[b]
        cleaned: dict[str, int] = {}
        for label, coefficient in result.items():
            if label not in self.degree_of:
                raise PresentationError(f"product {a!r}*{b!r} targets unknown label {label!r}")
            if not is_integer(coefficient):
                raise PresentationError(f"coefficient of {label!r} in {a!r}*{b!r} must be an integer")
            value = self._normal(coefficient)
            if value == 0:
                continue
            if self.degree_of[label] != target_degree:
                raise PresentationError(
                    f"product {a!r}*{b!r} (degree {target_degree}) targets {label!r} "
                    f"of degree {self.degree_of[label]}"
                )
            cleaned[label] = value
        if cleaned and target_degree > self.top_dim:
            raise DegreeOverflowEntry(
                f"product {a!r}*{b!r} targets degree {target_degree} above top dimension {self.top_dim}"
            )
        if self.unit_label in (a, b):
            other = b if a == self.unit_label else a
            if cleaned != {other: 1}:
                raise BadUnit(f"product with the unit must reproduce the other factor: {a!r}*{b!r}")
            return  # implied, not stored
        key = (a, b) if self.position[a] <= self.position[b] else (b, a)
        packed = tuple(sorted(cleaned.items(), key=lambda kv: self.position[kv[0]]))
        if key in self._table and self._table[key] != packed:
            raise PresentationError(f"conflicting product entries for pair {key!r}")
        if packed:
            self._table[key] = packed

    def basis_product(self, a: str, b: str) -> tuple[tuple[str, int], ...]:
        """Structure constants of a basis pair as ((label, coefficient), ...)."""
        if a == self.unit_label:
            return ((b, 1),)
        if b == self.unit_label:
            return ((a, 1),)
        key = (a, b) if self.position[a] <= self.position[b] else (b, a)
        return self._table.get(key, ())

    def _mul_terms(self, terms: Iterable[tuple[str, int]], factor: str) -> dict[str, int]:
        acc: dict[str, int] = {}
        for label, coefficient in terms:
            for target, c in self.basis_product(label, factor):
                acc[target] = acc.get(target, 0) + coefficient * c
        return {k: v for k, v in ((k, self._normal(v)) for k, v in acc.items()) if v}

    def _bounded_triples(self) -> Iterator[tuple[str, str, str]]:
        """Non-unit triples x <= y <= z (by position) whose degrees sum to at
        most top_dim, in the order of ``combinations_with_replacement``."""
        nonunit = [l for l in self.labels if l != self.unit_label]
        degrees = [self.degree_of[l] for l in nonunit]
        positions = list(range(len(nonunit)))
        # within[b]: the positions of degree at most bounds[b], ascending;
        # degree 0 holds only the unit, so within[0] is empty.
        bounds = [0, *sorted(set(degrees))]
        within = [[k for k in positions if degrees[k] <= bound] for bound in bounds]

        def from_position(start: int, bound: int) -> list[int]:
            ks = within[bisect_right(bounds, bound) - 1]
            return ks[bisect_left(ks, start):]

        top = self.top_dim
        for i in positions:
            for j in from_position(i, top - degrees[i]):
                for k in from_position(j, top - degrees[i] - degrees[j]):
                    yield nonunit[i], nonunit[j], nonunit[k]

    def _verify_associativity(self) -> None:
        # Triples with total degree above top_dim associate trivially (both
        # sides truncate), so only bounded-degree triples are enumerated.
        for x, y, z in self._bounded_triples():
            xy_z = self._mul_terms(self.basis_product(x, y), z)
            xz_y = self._mul_terms(self.basis_product(x, z), y)
            yz_x = self._mul_terms(self.basis_product(y, z), x)
            if not (xy_z == xz_y == yz_x):
                raise NonAssociative(f"products of {x!r}, {y!r}, {z!r} do not associate")

    # -- elements ----------------------------------------------------------

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def unit(self) -> "GradedElement":
        return GradedElement(self, {self.unit_label: 1})

    def basis_element(self, label: str) -> "GradedElement":
        if label not in self.degree_of:
            raise PresentationError(f"unknown basis label {label!r}")
        return GradedElement(self, {label: 1})

    def element(self, coeffs: Mapping[str, int]) -> "GradedElement":
        for label, coefficient in coeffs.items():
            if label not in self.degree_of:
                raise PresentationError(f"unknown basis label {label!r}")
            if not is_integer(coefficient):
                raise PresentationError(f"coefficient of {label!r} must be an integer")
        return GradedElement(self, dict(coeffs))

    # -- presentation ------------------------------------------------------

    def _product_entries(self) -> Iterator[tuple[str, str, tuple[tuple[str, int], ...]]]:
        """Nonzero non-unit products (a, b, packed), a not after b, in position order."""
        pos = self.position
        for (a, b), packed in sorted(self._table.items(), key=lambda kv: [pos[l] for l in kv[0]]):
            yield a, b, packed

    def serialize(self) -> dict:
        """Canonical presentation document; ``make_ring`` inverts this."""
        products = [
            {"a": a, "b": b, "result": [{"label": l, "coeff": c} for l, c in packed]}
            for a, b, packed in self._product_entries()
        ]
        return {
            "mode": self.mode.value,
            "topDim": self.top_dim,
            "basis": [{"label": l, "degree": self.degree_of[l]} for l in self.labels],
            "products": products,
            "fundamental": self.fundamental_label,
            "orientable": self.orientable,
        }

    def __repr__(self) -> str:
        return (
            f"ManifoldRing(mode={self.mode.value}, top_dim={self.top_dim}, "
            f"labels={len(self.labels)})"
        )


class GradedElement:
    """Exact finite sum of basis labels of one ManifoldRing."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ManifoldRing, coeffs: Mapping[str, int]):
        normalized = {}
        for label, coefficient in coeffs.items():
            value = ring._normal(coefficient)
            if value:
                normalized[label] = value
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
        for label, coefficient in other.coeffs.items():
            acc[label] = acc.get(label, 0) + coefficient
        return GradedElement(self.ring, acc)

    def __neg__(self) -> "GradedElement":
        return GradedElement(self.ring, {l: -c for l, c in self.coeffs.items()})

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GradedElement(self.ring, {l: c * other for l, c in self.coeffs.items()})
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._require_same_ring(other)
        ring = self.ring
        acc: dict[str, int] = {}
        for la, ca in self.coeffs.items():
            for lb, cb in other.coeffs.items():
                for target, c in ring.basis_product(la, lb):
                    acc[target] = acc.get(target, 0) + ca * cb * c
        return GradedElement(ring, acc)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "GradedElement":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.ring.unit()
        for _ in range(exponent):
            out = out * self
        return out

    def component(self, degree: int) -> "GradedElement":
        deg = self.ring.degree_of
        return GradedElement(
            self.ring, {l: c for l, c in self.coeffs.items() if deg[l] == degree}
        )

    def truncated(self, degree: int) -> "GradedElement":
        """Sum of the components of degree at most ``degree``."""
        deg = self.ring.degree_of
        return GradedElement(
            self.ring, {l: c for l, c in self.coeffs.items() if deg[l] <= degree}
        )

    def support_degrees(self) -> tuple[int, ...]:
        deg = self.ring.degree_of
        return tuple(sorted({deg[l] for l in self.coeffs}))

    def is_homogeneous(self, degree: int) -> bool:
        """True when every nonzero term sits in ``degree`` (zero qualifies)."""
        deg = self.ring.degree_of
        return all(deg[l] == degree for l in self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        pos = self.ring.position
        parts = []
        for label, coefficient in sorted(self.coeffs.items(), key=lambda kv: pos[kv[0]]):
            parts.append(label if coefficient == 1 else f"{coefficient}*{label}")
        return " + ".join(parts)


def pair_fundamental(c: GradedElement) -> int:
    """Coefficient of the fundamental label in the top-degree component."""
    return c.coeffs.get(c.ring.fundamental_label, 0)


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
    ring = c.ring
    if c.component(0) != ring.unit():
        raise NotAUnit("total class must have degree-0 component equal to 1")
    bound = ring.top_dim if through is None else min(through, ring.top_dim)
    parts: dict[int, GradedElement] = {0: ring.unit()}
    c_parts = {d: c.component(d) for d in c.support_degrees() if 0 < d <= bound}
    inverse = ring.unit()
    for d in sorted(d for d in ring.basis_by_degree if 0 < d <= bound):
        acc = ring.zero()
        for e, ce in c_parts.items():
            if parts.get(d - e):
                acc = acc + ce * parts[d - e]
        parts[d] = -acc
        inverse = inverse + parts[d]
    return inverse


class RingMap:
    """Degree-preserving, unit-preserving, multiplicative map between rings.

    ``images`` assigns every source basis label a target element; the unit
    image may be omitted.  Multiplicativity is verified on all basis pairs at
    construction.
    """

    def __init__(
        self,
        source: ManifoldRing,
        target: ManifoldRing,
        images: Mapping[str, GradedElement],
        *,
        verify: bool = True,
    ):
        self.source = source
        self.target = target
        table = dict(images)
        table.setdefault(source.unit_label, target.unit())
        for label in source.labels:
            if label not in table:
                raise PresentationError(f"missing image for basis label {label!r}")
        for label, image in table.items():
            if label not in source.degree_of:
                raise PresentationError(f"image given for unknown label {label!r}")
            if not isinstance(image, GradedElement) or image.ring is not target:
                raise RingMismatch(f"image of {label!r} is not an element of the target ring")
            if not image.is_homogeneous(source.degree_of[label]):
                raise PresentationError(f"image of {label!r} does not preserve degree")
        if table[source.unit_label] != target.unit():
            raise BadUnit("map must send the unit to the unit")
        self.images = table
        if verify:
            self._verify_multiplicative()

    def _verify_multiplicative(self) -> None:
        nonunit = [l for l in self.source.labels if l != self.source.unit_label]
        for a, b in itertools.combinations_with_replacement(nonunit, 2):
            lhs = self.images[a] * self.images[b]
            rhs = self.target.zero()
            for label, coefficient in self.source.basis_product(a, b):
                rhs = rhs + self.images[label] * coefficient
            if lhs != rhs:
                raise PresentationError(f"map is not multiplicative on pair ({a!r}, {b!r})")

    def __call__(self, c: GradedElement) -> GradedElement:
        if c.ring is not self.source:
            raise RingMismatch("element does not belong to the map's source ring")
        out = self.target.zero()
        for label, coefficient in c.coeffs.items():
            out = out + self.images[label] * coefficient
        return out

    def serialize(self) -> dict:
        entries = []
        for label in self.source.labels:
            image = self.images[label]
            pos = self.target.position
            entries.append(
                {
                    "from": label,
                    "to": [
                        {"label": l, "coeff": c}
                        for l, c in sorted(image.coeffs.items(), key=lambda kv: pos[kv[0]])
                    ],
                }
            )
        return {"images": entries}


def identity_map(ring: ManifoldRing) -> RingMap:
    return RingMap(ring, ring, {l: ring.basis_element(l) for l in ring.labels}, verify=False)


def compose(outer: RingMap, inner: RingMap) -> RingMap:
    if inner.target is not outer.source:
        raise RingMismatch("maps do not compose: inner target differs from outer source")
    images = {l: outer(inner.images[l]) for l in inner.source.labels}
    return RingMap(inner.source, outer.target, images, verify=False)


TENSOR_SEPARATOR = "⊗"  # the label glue used by kunneth_product


class TensorRing(ManifoldRing):
    """H*(A) ⊗ H*(B), the Künneth ring of a product A × B (torsion-free or
    mod-2 coefficients, where the graded sign is 1).

    ``pairs`` lists the factor labels (a, b) in basis order; the basis label
    of a pair is ``a⊗b`` and its degree the sum of the factor degrees.  The
    attributes ``pairs`` and ``label_of`` map labels to pairs and back.
    Products are computed factor by factor, (a1⊗b1)(a2⊗b2) = (a1a2)⊗(b1b2),
    so no product table is stored.
    """

    def __init__(self, left: ManifoldRing, right: ManifoldRing, pairs: Sequence[tuple[str, str]]):
        self.left = left
        self.right = right
        labels = [f"{a}{TENSOR_SEPARATOR}{b}" for a, b in pairs]
        self.pairs: dict[str, tuple[str, str]] = dict(zip(labels, pairs))
        self.label_of: dict[tuple[str, str], str] = dict(zip(pairs, labels))
        super().__init__(
            left.mode,
            left.top_dim + right.top_dim,
            [(l, left.degree_of[a] + right.degree_of[b]) for l, (a, b) in zip(labels, pairs)],
            fundamental=self.label_of[left.fundamental_label, right.fundamental_label],
            orientable=left.orientable and right.orientable,
        )

    def _verify_associativity(self) -> None:
        """Nothing to enumerate: each factor was checked when it was built,
        and a tensor product of associative rings is associative."""

    def basis_product(self, a: str, b: str) -> tuple[tuple[str, int], ...]:
        a1, b1 = self.pairs[a]
        a2, b2 = self.pairs[b]
        left = self.left.basis_product(a1, a2)
        if not left:
            return ()
        right = self.right.basis_product(b1, b2)
        label = self.label_of
        # Both factors list their terms by position, one degree each, so the
        # tensor terms come out by position too.
        return tuple([(label[ra, rb], ca * cb) for ra, ca in left for rb, cb in right])

    def _product_entries(self) -> Iterator[tuple[str, str, tuple[tuple[str, int], ...]]]:
        labels, deg, top = self.labels, self.degree_of, self.top_dim
        # The basis is listed by degree with the unit first, so a row ends at
        # the first label whose product with ``a`` passes the top dimension.
        for i, a in enumerate(labels[1:], 1):
            for b in itertools.takewhile(lambda b: deg[a] + deg[b] <= top, labels[i:]):
                if packed := self.basis_product(a, b):
                    yield a, b, packed


def kunneth_product(left: ManifoldRing, right: ManifoldRing) -> tuple[TensorRing, RingMap, RingMap]:
    """Tensor ring of two rings plus the two factor injections.

    Basis labels are ``a⊗b``, listed by total degree, then by the degree and
    position of ``a``, then by the position of ``b``; degrees add; the
    fundamental class is the tensor of the factor fundamentals.  The
    injections send ``a`` to ``a⊗1`` and ``b`` to ``1⊗b``.
    """
    if left.mode is not right.mode:
        raise ModeMismatch("tensor factors must share a coefficient mode")
    by_left, by_right = left.basis_by_degree, right.basis_by_degree
    bidegrees = sorted(itertools.product(by_left, by_right), key=lambda d: (d[0] + d[1], d[0]))
    pairs = [p for da, db in bidegrees for p in itertools.product(by_left[da], by_right[db])]
    ring = TensorRing(left, right, pairs)
    label = ring.label_of
    inject_left = RingMap(
        left, ring, {l: ring.basis_element(label[l, right.unit_label]) for l in left.labels}
    )
    inject_right = RingMap(
        right, ring, {l: ring.basis_element(label[left.unit_label, l]) for l in right.labels}
    )
    return ring, inject_left, inject_right


def tensor_component(
    c: GradedElement, left_degree: int, right_degree: int
) -> GradedElement:
    """Part of a tensor-ring element whose factors sit in the given bidegree."""
    ring = c.ring
    if not isinstance(ring, TensorRing):
        raise PresentationError("element does not belong to a tensor ring")
    picked = {}
    for label, coefficient in c.coeffs.items():
        a, b = ring.pairs[label]
        if ring.left.degree_of[a] == left_degree and ring.right.degree_of[b] == right_degree:
            picked[label] = coefficient
    return GradedElement(ring, picked)


def _rank_rational(rows: list[list[int]]) -> int:
    matrix = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(matrix)):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = matrix[rank][col]
        for r in range(rank + 1, len(matrix)):
            if matrix[r][col]:
                factor = matrix[r][col] / inv
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def _rank_mod2(rows: list[list[int]]) -> int:
    vecs = []
    for row in rows:
        bits = 0
        for j, v in enumerate(row):
            if v % 2:
                bits |= 1 << j
        vecs.append(bits)
    rank = 0
    for j in range(max((len(r) for r in rows), default=0)):
        bit = 1 << j
        pivot = None
        for r in range(rank, len(vecs)):
            if vecs[r] & bit:
                pivot = r
                break
        if pivot is None:
            continue
        vecs[rank], vecs[pivot] = vecs[pivot], vecs[rank]
        for r in range(len(vecs)):
            if r != rank and vecs[r] & bit:
                vecs[r] ^= vecs[rank]
        rank += 1
    return rank


def is_degreewise_injective(m: RingMap) -> bool:
    """Exact rank check: the map restricted to each degree has full rank."""
    rank = _rank_mod2 if m.source.mode is CoefficientMode.MOD2 else _rank_rational
    for degree, labels in m.source.basis_by_degree.items():
        targets = m.target.basis_by_degree.get(degree, ())
        rows = []
        for label in labels:
            image = m.images[label].coeffs
            rows.append([image.get(t, 0) for t in targets])
        if rank(rows) < len(labels):
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
    pos = c.ring.position
    return [
        {"label": l, "coeff": v}
        for l, v in sorted(c.coeffs.items(), key=lambda kv: pos[kv[0]])
    ]


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
    images = {}
    for entry in read_field(spec, "images", list, "map presentation"):
        label = read_field(entry, "from", str, "map image")
        if label in images:
            raise PresentationError(f"duplicate image for {label!r}")
        images[label] = element_from_spec(target, read_field(entry, "to", list, "map image"))
    return RingMap(source, target, images)


def truncated_polynomial_ring(
    mode: CoefficientMode | str,
    top_dim: int,
    generators: Sequence[tuple[str, int]],
    fundamental: str | None = None,
    *,
    orientable: bool = True,
    verify: bool = True,
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
        if not isinstance(degree, int) or degree < 1:
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

    return ManifoldRing(
        mode, top_dim, basis, products, fundamental, orientable=orientable, verify=verify
    )
