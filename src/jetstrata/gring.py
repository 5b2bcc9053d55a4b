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
from functools import cache, partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .symbols import is_integer


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


def _positions_at_most(degrees: Sequence[int], unit: int) -> Callable[[int], list[int]]:
    """``at_most(bound)``: the positions other than ``unit`` of degree at most
    ``bound``, ascending.  Each list is built on first use from one
    degree-sorted order."""
    order = sorted((p for p in range(len(degrees)) if p != unit), key=degrees.__getitem__)
    keys = [degrees[p] for p in order]
    built = cache(lambda count: sorted(order[:count]))
    return lambda bound: built(bisect_right(keys, bound))


def _pair_slices(degrees: Sequence[int], unit: int) -> Callable:
    """``slices(bound, start=0)``: one (y, [z, ...]) per non-unit position
    y >= start that has a z, the non-unit positions z >= y with
    deg y + deg z <= bound, ascending.

    Only the ys with a z are stepped: reach[y], deg y plus the least non-unit
    degree at or after position y, is at most ``bound`` exactly for those."""
    at_most = _positions_at_most(degrees, unit)
    # floor[p]: the least non-unit degree at or after position p.  Only the
    # unit has degree 0; it is no z, so it counts as past every bound.
    floor = list(itertools.accumulate([d or math.inf for d in reversed(degrees)], min))[::-1]
    reaching = _positions_at_most([d + f for d, f in zip(degrees, floor)], unit)

    def slices(bound, start=0):
        ys = reaching(bound)
        for y in ys[bisect_left(ys, start):]:
            zs = at_most(bound - degrees[y])
            yield y, zs[bisect_left(zs, y):]

    return slices


def _bounded_pairs(degrees: Sequence[int], unit: int, bound: int) -> Iterator[tuple[int, int]]:
    """The position pairs x <= y, neither ``unit``, whose degrees sum to at
    most ``bound``, in the order of ``combinations_with_replacement``; no
    other pair is visited."""
    for x, ys in _pair_slices(degrees, unit)(bound):
        yield from zip(itertools.repeat(x), ys)


def _histogram(positions_by_degree: Mapping[int, Sequence[int]]) -> tuple:
    """The non-unit degrees ascending, the labels in each, and ``below[k]``,
    the labels in the first k degrees; degree 0 holds the unit alone."""
    degrees = sorted(positions_by_degree)[1:]
    sizes = [len(positions_by_degree[d]) for d in degrees]
    return degrees, sizes, list(itertools.accumulate(sizes, initial=0))


def _bounded_pair_count(histogram: tuple, bound: int, start: int = 0) -> int:
    """The non-unit position pairs x <= z whose degrees sum to at most
    ``bound``, both in the degrees of ``_histogram`` from index ``start`` on:
    per least degree, the pairs within it and those with a higher second
    degree.  Only the degrees that have a second are stepped."""
    degrees, sizes, below = histogram
    pairs = 0
    for a in range(start, len(degrees)):
        if 2 * degrees[a] > bound:
            break
        n = sizes[a]
        pairs += n * (n + 1) // 2 + n * (below[bisect_right(degrees, bound - degrees[a])] - below[a + 1])
    return pairs


class ManifoldRing:
    """Finite graded basis + structure constants, modelling H*(P) of a closed
    manifold modulo torsion (integer mode) or with mod-2 coefficients.

    ``basis`` is a sequence of (label, degree) pairs; degree 0 must contain
    exactly one label, the multiplicative unit.  ``products`` maps unordered
    pairs of non-unit labels to {label: coefficient}, or is the list of
    product entries of a ring document; omitted products are zero.
    ``fundamental`` must be a top-degree label (inferred when the top degree
    carries a single label).

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
        products: Mapping[tuple[str, str], Mapping[str, int]] | list[dict] | None = None,
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
            if type(degree) is not int and not is_integer(degree) or degree < 0:
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
        self._install_products(products or {})

        if verify:
            self._verify_associativity()

    # -- construction internals ------------------------------------------

    def _normal(self, coefficient: int) -> int:
        if self.mode is CoefficientMode.MOD2:
            return coefficient % 2
        return coefficient

    def _install_products(self, products: Mapping | list) -> None:
        """Store each product a*b of ``products``, a mapping or a document's
        entry list (see the class docstring), each entry read, checked and
        stored in one step: its labels; each term's label, integer coefficient
        and, when nonzero, degree, which keeps it at most the top; the unit;
        a repeated pair.  A plain int passes by its type alone, and a one-term
        result is stored without a dict or a sort.  A document entry of the
        wrong shape fails here too, and ``make_ring`` names its fault."""
        position, degrees = self.position, self.degrees
        unit, table = self.unit_position, self._table
        mod2 = self.mode is CoefficientMode.MOD2
        document = not isinstance(products, Mapping)
        unstored = []  # zero and unit products, in the table until every repeat is seen
        for entry in products if document else products.items():
            if document:
                a, b, result = entry["a"], entry["b"], entry.get("result", [])
                if type(result) is not list:
                    raise PresentationError(f"product {a!r}*{b!r} lists no terms")
            else:
                (a, b), result = entry
            i, j = position.get(a), position.get(b)
            if i is None or j is None:
                raise PresentationError(f"product entry names unknown label {a if i is None else b!r}")
            degree, terms = degrees[i] + degrees[j], ()
            for term in result if document else result.items():
                label, coefficient = (term["label"], term["coeff"]) if document else term
                t = position.get(label)
                if t is None:
                    raise PresentationError(f"product {a!r}*{b!r} targets unknown label {label!r}")
                if type(coefficient) is not int and not is_integer(coefficient):
                    raise PresentationError(f"coefficient of {label!r} in {a!r}*{b!r} must be an integer")
                if (value := coefficient % 2 if mod2 else coefficient) and degrees[t] != degree:
                    raise PresentationError(
                        f"product {a!r}*{b!r} (degree {degree}) targets {label!r} of degree {degrees[t]}"
                    )
                terms += ((t, value),)
            if len(terms) == 1:
                packed = terms if terms[0][1] else ()
            elif len(cleaned := dict(terms)) < len(terms):
                raise PresentationError(f"product {a!r}*{b!r} names a target twice")
            else:
                packed = tuple(sorted(term for term in cleaned.items() if term[1]))
            key = (i, j) if i <= j else (j, i)
            if i == unit or j == unit:
                if packed != ((j if i == unit else i, 1),):
                    raise BadUnit(f"product with the unit must reproduce the other factor: {a!r}*{b!r}")
                unstored.append(key)
            elif not packed:
                unstored.append(key)
            stored = table.get(key)
            if stored is not None and (document or stored != packed):
                pair = (self.labels[key[0]], self.labels[key[1]])
                raise PresentationError(f"conflicting product entries for pair {pair!r}")
            table[key] = packed
        for key in unstored:
            table.pop(key, None)

    def basis_product(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """Structure constants of the basis pair at positions ``i`` and ``j``
        as ((position, coefficient), ...), by position."""
        if i == self.unit_position:
            return ((j, 1),)
        if j == self.unit_position:
            return ((i, 1),)
        return self._table.get((i, j) if i <= j else (j, i), ())

    def _bounded_triple_count(self) -> int:
        """The non-unit position triples x <= y <= z whose degrees sum to at
        most top_dim, counted from the degree histogram; past
        MAX_ASSOC_TRIPLES, a PresentationError as soon as the count passes it.

        Per least degree d, with n labels: the triples that take one of them
        and a bounded pair of higher degrees, two of them and one label of a
        degree in (d, top - 2d], or three of them.  Only the degree pairs
        that have a third are stepped."""
        histogram, top, cap = _histogram(self.positions_by_degree), self.top_dim, MAX_ASSOC_TRIPLES
        degrees, sizes, below = histogram
        triples = 0
        for a, (d, n) in enumerate(zip(degrees, sizes)):
            if 3 * d > top:
                break
            above = below[bisect_right(degrees, top - 2 * d)] - below[a + 1]
            triples += n * _bounded_pair_count(histogram, top - d, a + 1) + n * (n + 1) // 2 * above + n * (n + 1) * (n + 2) // 6
            if triples > cap:
                raise PresentationError(f"associativity check exceeds the cap MAX_ASSOC_TRIPLES = {cap} triples")
        return triples

    def _triple_slices(self) -> Iterator[tuple[int, int, list[int]]]:
        """Non-unit position triples x <= y <= z whose degrees sum to at most
        top_dim, one (x, y, [z, ...]) per pair that has a z, in the order of
        ``combinations_with_replacement``; past MAX_ASSOC_TRIPLES triples, a
        PresentationError before the first."""
        self._bounded_triple_count()
        degrees, top, slices = self.degrees, self.top_dim, _pair_slices(self.degrees, self.unit_position)
        for x, degree in enumerate(degrees):
            if x != self.unit_position:
                for y, zs in slices(top - degree, x):
                    yield x, y, zs

    def _product_rows(self):
        """``rows[i][j]``, the stored product of positions i and j, and
        ``step(packed)``: for such a product, the callable whose ``(z, ())``
        is it times position z as a normalized term tuple, called like
        dict.get.  A product that is one basis element with coefficient 1
        multiplies by its row."""
        rows: list[dict[int, tuple[tuple[int, int], ...]]] = [{} for _ in self.labels]
        for (i, j), packed in self._table.items():
            rows[i][j] = rows[j][i] = packed
        row_gets, normal = [row.get for row in rows], self._normal

        def times(terms: tuple[tuple[int, int], ...], z: int, default=()) -> tuple[tuple[int, int], ...]:
            acc: dict[int, int] = {}
            for t, c in terms:
                for u, d in rows[t].get(z, ()):
                    acc[u] = acc.get(u, 0) + c * d
            return tuple(sorted((u, v) for u, v in ((u, normal(v)) for u, v in acc.items()) if v))

        def step(packed: tuple[tuple[int, int], ...]) -> Callable:
            t, c = packed[0]
            return row_gets[t] if c == 1 and len(packed) == 1 else partial(times, packed)

        return rows, step

    def _associates_through_generators(self, triples: int, rows: list, step: Callable) -> bool | None:
        """Whether the ring associates, decided on its generators, or None
        when that takes more checks than the ring's ``triples`` bounded
        triples; ``rows`` and ``step`` are those of ``_product_rows``.

        Call a label covered when a stored product of two non-unit labels is
        ±1 times it, and let G be the non-unit labels not covered.  The middle
        nucleus {m : (x*m)*z = x*(m*z) for all x, z} holds the unit and is
        closed under sums and products, and each covered label is ±1 times a
        product of two labels of lower degree.  So, by induction on degree,
        the ring associates exactly when (x*g)*z = x*(g*z) for every g in G
        and non-unit x <= z with deg x + deg g + deg z <= top; above the top
        both sides are zero, and the table is commutative, so (z, x) gives
        the same equation.

        The None is a cost guard, not a speed choice: with it the check
        never steps more pairs than the walk has triples, and each
        generator costs its own row and its pairs."""
        degrees, top = self.degrees, self.top_dim
        covered = {packed[0][0] for packed in self._table.values() if len(packed) == 1 and packed[0][1] in (1, -1)}
        histogram, generators, checks = _histogram(self.positions_by_degree), [], 0
        for g, d in enumerate(degrees):
            # A label with no bounded pair to check is left out.
            if d and g not in covered and (pairs := _bounded_pair_count(histogram, top - d)):
                generators.append(g)
                checks += pairs
                if checks > triples:
                    return None
        slices, zero, nothing = _pair_slices(degrees, self.unit_position), {}.get, itertools.repeat(())
        # by_g[x](z, ()) is (g*x)*z, as by[g][x] in _verify_associativity.
        # One list serves every g: only g's row is set, and reset after.
        by_g = [zero] * len(degrees)
        for g in generators:
            for x, packed in rows[g].items():
                by_g[x] = step(packed)
            for x, zs in slices(top - degrees[g]):
                if list(map(by_g[x], zs, nothing)) != [by_g[z](x, ()) for z in zs]:
                    return False
            for x in rows[g]:
                by_g[x] = zero
        return True

    def _verify_associativity(self) -> None:
        # Triples with total degree above top_dim associate trivially (both
        # sides truncate), so only bounded-degree triples are enumerated.
        # Each side is compared as a normalized term tuple, by position.  The
        # walk over every triple runs only when the generators do not decide,
        # and names the first triple that fails.
        triples = self._bounded_triple_count()
        rows, step = self._product_rows()
        if self._associates_through_generators(triples, rows, step):
            return
        # by[i][j](z, ()) is (i*j)*z, called like dict.get.
        by: list[dict[int, Callable]] = [{} for _ in rows]
        zero = {}.get
        for (i, j), packed in self._table.items():
            by[i][j] = by[j][i] = step(packed)
        for x, y, zs in self._triple_slices():
            by_x, by_y = by[x], by[y]
            xy = by_x.get(y, zero)
            for z in zs:
                if not (xy(z, ()) == by_x.get(z, zero)(y, ()) == by_y.get(z, zero)(x, ())):
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
        if is_integer(other):  # a bool is not a scalar
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
        if is_integer(other):
            return self * other
        return NotImplemented

    def component(self, degree: int) -> "GradedElement":
        deg = self.ring.degrees
        return GradedElement(self.ring, {p: c for p, c in self.coeffs.items() if deg[p] == degree})

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


def invert_total_class(
    c: GradedElement, through: int | None = None, numerator: GradedElement | None = None
) -> GradedElement:
    """The quotient ``numerator`` / ``c`` of a total class with unit leading
    term, exact in every degree up to ``through`` (all degrees when None) and
    zero above it.  The numerator defaults to the unit, giving the formal
    inverse of ``c``.

    Computed degree by degree: the degree-d part of the quotient is the
    numerator's degree-d part minus the convolution of the known lower parts
    with the positive parts of ``c``.  Only degrees that carry basis labels
    are visited, and only nonzero lower parts are multiplied; the part in any
    other degree is zero.  The degree-d part depends only on parts of degree
    <= d, so stopping at ``through`` changes nothing below it.
    """
    if through is not None and (not is_integer(through) or through < 0):
        raise ValueError("through must be None or a nonnegative integer")
    ring = c.ring
    if c.component(0) != ring.unit():
        raise NotAUnit("total class must have degree-0 component equal to 1")
    if numerator is None:
        numerator = ring.unit()
    c._require_same_ring(numerator)
    bound = ring.top_dim if through is None else min(through, ring.top_dim)
    parts: dict[int, GradedElement] = {}
    c_parts = {d: c.component(d) for d in c.support_degrees() if 0 < d <= bound}
    for d in sorted(d for d in ring.positions_by_degree if d <= bound):
        acc = ring.zero()
        for e, ce in c_parts.items():
            if parts.get(d - e):
                acc = acc + ce * parts[d - e]
        parts[d] = numerator.component(d) - acc
    return GradedElement(ring, {p: v for part in parts.values() for p, v in part.coeffs.items()})


class RingMap:
    """Degree-preserving, unit-preserving, multiplicative map between rings.

    ``images`` holds one target element per source basis position, the
    unit's included.
    Multiplicativity is verified at construction on the basis pairs at or
    below the target's top degree: images keep their degree and no product
    lives above a top, so above it both sides are zero.
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


TENSOR_SEPARATOR = "⊗"  # the label glue used by kunneth_product


class TensorRing(ManifoldRing):
    """H*(P_0) ⊗ ... ⊗ H*(P_d), the Künneth ring of P_0 × ... × P_d
    (torsion-free or mod-2 coefficients, where the graded sign is 1).

    ``basis`` lists (degree, key, label, factor positions) per position, one
    factor position per ring in ``factors``, kept as ``factor_positions``: its
    degree adds the factor degrees, its label joins the factor labels with
    ``⊗`` and its key is their mixed-radix number, the first factor most
    significant.  Products are computed factor by factor, so no product table
    is stored.
    """

    __slots__ = ("factors", "factor_positions", "_strides", "_steps", "_position_of")

    def __init__(self, factors: Sequence[ManifoldRing], basis: Sequence[tuple[int, int, str, tuple[int, ...]]]):
        self.factors = tuple(factors)
        self.factor_positions: tuple[tuple[int, ...], ...] = tuple(t for *_, t in basis)
        sizes = [len(f.labels) for f in self.factors]
        self._strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
        self._steps = tuple(zip([f.basis_product for f in self.factors], self._strides))
        self._position_of = [0] * math.prod(sizes)  # _position_of[key] is the position of the tuple
        for p, (_, key, _, _) in enumerate(basis):
            self._position_of[key] = p
        labels = [label for _, _, label, _ in basis]
        if len(set(labels)) < len(labels):  # the joins are distinct unless a factor label holds the glue
            seen: set[str] = set()
            repeated = next(label for label in labels if label in seen or seen.add(label))
            raise PresentationError(
                f"tensor basis label {repeated!r} names two tensors: "
                f"factor labels contain TENSOR_SEPARATOR = {TENSOR_SEPARATOR!r}"
            )
        # Each factor was checked when it was built, and a tensor product of
        # associative rings is associative: nothing to verify.
        super().__init__(
            self.factors[0].mode,
            sum(f.top_dim for f in self.factors),
            [(label, d) for d, _, label, _ in basis],
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
        for i, j in _bounded_pairs(self.degrees, self.unit_position, self.top_dim):
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
    would list it: the rows of each previous degree, in order, each with the
    new positions of each degree, in order.  Injection k sends ``a`` to the
    tensor with ``a`` in factor k and the unit in every other factor.
    """
    if not factors:
        raise PresentationError("a tensor product needs at least one factor")
    if any(f.mode is not factors[0].mode for f in factors):
        raise ModeMismatch("tensor factors must share a coefficient mode")
    size = math.prod(len(f.degrees) for f in factors)
    if size > MAX_PRODUCT_BASIS:
        raise PresentationError(f"tensor product basis of {size} labels exceeds the cap MAX_PRODUCT_BASIS = {MAX_PRODUCT_BASIS}")
    basis = [(d, a, label, (a,)) for a, (label, d) in enumerate(zip(factors[0].labels, factors[0].degrees))]
    for factor in factors[1:]:
        n, labels, new_by_degree = len(factor.labels), factor.labels, factor.positions_by_degree
        by_degree: dict[int, list] = {}
        for row in basis:
            by_degree.setdefault(row[0], []).append(row)
        basis = [
            (d + e, key * n + c, label + TENSOR_SEPARATOR + labels[c], t + (c,))
            for d, e in sorted(itertools.product(by_degree, new_by_degree), key=lambda de: (sum(de), de[0]))
            for _, key, label, t in by_degree[d]
            for c in new_by_degree[e]
        ]
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

    The fields and the basis entries are read here, and ``ManifoldRing``
    reads, checks and stores each product entry in one pass.  Only when that
    fails are the product entries walked for their first shape fault, which
    is named ahead of the ring's own error.
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
    try:
        return ManifoldRing(mode, top_dim, basis, product_entries, fundamental, orientable=orientable)
    except (GringError, LookupError, TypeError):  # an entry of the wrong shape fails by a lookup or type error
        _raise_shape_fault(product_entries)
        raise


def _raise_shape_fault(entries: list) -> None:
    """Raise the first shape fault of a document's product entries, in entry
    and term order: a missing field, a value of the wrong kind, or a repeated
    result label or product pair.  Return when there is none."""
    pairs = set()
    for entry in entries:
        a = read_field(entry, "a", str, "product entry")
        b = read_field(entry, "b", str, "product entry")
        terms = read_field(entry, "result", list, "product entry", [])
        labels, term_name = set(), f"result entry of product {a!r}*{b!r}"
        for term in terms:
            label = read_field(term, "label", str, term_name)
            read_field(term, "coeff", object, term_name)
            if label in labels:
                raise PresentationError(f"duplicate target {label!r} in product {a!r}*{b!r}")
            labels.add(label)
        if (a, b) in pairs or (b, a) in pairs:
            raise PresentationError(f"duplicate product entry for pair {(a, b)!r}")
        pairs.add((a, b))


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
