"""Characteristic classes of virtual bundles and determinant obstruction classes.

A virtual bundle is the formal difference of two stable bundles, presented by
their total classes; its own total class is the first total times the formal
inverse of the second.  The obstruction class of the kernel-rank-i stratum is
a determinant in the graded classes of the virtual bundle, with the entry at
row s, column t holding the class of index i+s-t (index 0 is the unit,
negative indices are zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .gring import (
    CoefficientMode,
    ConsistencyError,
    GradedElement,
    ManifoldRing,
    ModeMismatch,
    NotAUnit,
    RingMismatch,
    element_from_spec,
    element_to_spec,
    invert_total_class,
    is_integer,
    read_field,
)
from .symbols import JetContext


class CharClassError(ValueError):
    """Base class for characteristic-class validation failures."""


class NegativeSize(CharClassError):
    pass


class ParityError(CharClassError):
    pass


class UnsupportedDimension(CharClassError):
    pass


class NotSquare(CharClassError):
    pass


class ClassVariant(Enum):
    STIEFEL_WHITNEY = "sw"
    PONTRJAGIN = "pontrjagin"
    W_TABLE = "wtable"


class VirtualBundle:
    """Formal difference of stable bundles over one ring.

    ``total_positive`` is the total class of the positive part,
    ``total_negative_pulled`` the total class of the subtracted (pulled-back)
    part; both must have degree-0 component 1.  Mod-2 rings carry
    Stiefel-Whitney semantics, integer rings Pontrjagin semantics, in which
    case all class components must sit in degrees divisible by 4.
    """

    __slots__ = ("ring", "total_positive", "total_negative_pulled")

    def __init__(self, total_positive: GradedElement, total_negative_pulled: GradedElement):
        ring = total_positive.ring
        if total_negative_pulled.ring is not ring:
            raise RingMismatch("bundle totals belong to different rings")
        for total in (total_positive, total_negative_pulled):
            if total.component(0) != ring.unit():
                raise NotAUnit("bundle totals must have degree-0 component equal to 1")
        if ring.mode is CoefficientMode.INTEGER_MOD_TORSION:
            for total in (total_positive, total_negative_pulled):
                for degree in total.support_degrees():
                    if degree % 4 != 0:
                        raise ParityError(
                            f"integer-mode total class has a component in degree {degree}, "
                            f"not a multiple of 4"
                        )
        self.ring = ring
        self.total_positive = total_positive
        self.total_negative_pulled = total_negative_pulled

    @property
    def variant(self) -> ClassVariant:
        if self.ring.mode is CoefficientMode.MOD2:
            return ClassVariant.STIEFEL_WHITNEY
        return ClassVariant.PONTRJAGIN

    def virtual_total(self, through: int | None = None) -> GradedElement:
        """Total class of the difference bundle through degree ``through``
        (all degrees when None), zero above it.

        Parts above the bound are dropped from both factors first: the
        degree-d part of a product depends only on the factors' parts of
        degree <= d.
        """
        inverse = invert_total_class(self.total_negative_pulled, through)
        bound = self.ring.top_dim if through is None else min(through, self.ring.top_dim)
        return (self.total_positive.truncated(bound) * inverse).truncated(bound)


def _class_degree(bundle: VirtualBundle, j: int) -> int:
    return j if bundle.variant is ClassVariant.STIEFEL_WHITNEY else 4 * j


def _classes(bundle: VirtualBundle, indices) -> dict[int, GradedElement]:
    """The classes of the given indices, read off one total computed through
    the degree of the highest.  Degree 0 of a total is the unit and no part
    sits in a negative degree, so index 0 reads the unit and a negative index
    zero."""
    total = bundle.virtual_total(_class_degree(bundle, max((0, *indices))))
    return {j: total.component(_class_degree(bundle, j)) for j in indices}


def class_of_virtual(bundle: VirtualBundle, j: int) -> GradedElement:
    """j-th class of the virtual bundle: degree j mod 2, degree 4j integrally.

    j = 0 gives the unit, negative j gives zero.
    """
    return _classes(bundle, [j])[j]


@dataclass(frozen=True)
class ObstructionClass:
    """Determinant obstruction class together with its degree bookkeeping."""

    value: GradedElement
    stratum_index: int
    expected_degree: int
    variant: ClassVariant
    #: The class matrix whose determinant is ``value``; empty for the table.
    matrix: tuple[tuple[GradedElement, ...], ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if not self.value.is_homogeneous(self.expected_degree):
            raise ConsistencyError(
                f"obstruction class is not homogeneous of degree {self.expected_degree}: "
                f"components in degrees {self.value.support_degrees()}"
            )

    @property
    def is_zero(self) -> bool:
        return not self.value


def det_graded(
    matrix: list[list[GradedElement]], *, ring: ManifoldRing | None = None
) -> GradedElement:
    """Determinant over a commutative graded ring; the 0x0 determinant is 1.

    Bird's division-free algorithm (Inf. Process. Lett. 111 (2011) 1072):
    from X = A, set X to mu(X) * A r-1 times, where mu(X) is upper triangular
    with X above the diagonal and, at (i, i), minus the sum of X's diagonal
    below row i; then det A = (-1)^(r-1) X[0][0].  At most (r-1) r^2 (r+1)/2
    products and no division: every ring here is commutative.
    """
    rows = [list(r) for r in matrix]
    size = len(rows)
    if size == 0:
        if ring is None:
            raise NotSquare("empty determinant needs an explicit ring for its unit value")
        return ring.unit()
    for row in rows:
        if len(row) != size:
            raise NotSquare(f"matrix is {size} rows but a row has {len(row)} entries")
    owner = rows[0][0].ring
    if ring is not None and ring is not owner:
        raise RingMismatch("matrix entries do not belong to the given ring")
    for row in rows:
        for entry in row:
            if not isinstance(entry, GradedElement) or entry.ring is not owner:
                raise RingMismatch("matrix entries belong to different rings")

    zero, x = owner.zero(), rows
    for step in range(size - 1, 0, -1):
        trace, mu = zero, [None] * size
        for i in reversed(range(size)):
            mu[i] = [-trace, *x[i][i + 1:]]  # row i of mu(X), from column i
            trace = trace + x[i][i]
        x = [
            [sum((m * rows[k][j] for k, m in enumerate(mu[i], i) if m and rows[k][j]), zero) for j in range(size)]
            for i in range(size if step > 1 else 1)  # the last step needs row 0 only
        ]
    return x[0][0] if size % 2 else -x[0][0]


#: Largest class matrix a determinant class expands; a larger one is refused
#: before any class is computed.  Bird's algorithm takes at most
#: (r-1) * r^2 (r+1) / 2 products; the README gives the measurement behind
#: the cap.
MAX_MATRIX_SIZE = 23


def _porteous(bundle: VirtualBundle, i: int, center: int, size: int, formula: str) -> ObstructionClass:
    """Determinant of the size-square matrix whose (s, t) entry is the class
    of index center+s-t, homogeneous of size times the degree of ``center``.
    Only the 2*size-1 indices the matrix holds are read."""
    if size < 0:
        raise NegativeSize(f"matrix size {formula} = {size} is negative")
    if size > MAX_MATRIX_SIZE:
        raise CharClassError(f"matrix size {size} exceeds the cap MAX_MATRIX_SIZE = {MAX_MATRIX_SIZE}")
    classes = _classes(bundle, range(center - size + 1, center + size))
    matrix = tuple(tuple(classes[center + s - t] for t in range(size)) for s in range(size))
    value = det_graded(matrix, ring=bundle.ring)
    return ObstructionClass(value, i, size * _class_degree(bundle, center), bundle.variant, matrix)


def porteous_sw(i: int, ctx: JetContext, bundle: VirtualBundle) -> ObstructionClass:
    """Mod-2 determinant class of the kernel-rank-i stratum: the determinant
    of the (p-n+i)-square matrix whose (s, t) entry is the class of index
    i+s-t, a homogeneous class of degree (p-n+i)*i.
    """
    if bundle.variant is not ClassVariant.STIEFEL_WHITNEY:
        raise ModeMismatch("mod-2 determinant class needs a mod-2 bundle")
    if not is_integer(i) or i < 1:
        raise CharClassError(f"stratum index must be a positive integer, got {i!r}")
    return _porteous(bundle, i, i, ctx.p - ctx.n + i, "p-n+i")


def porteous_pontrjagin(i: int, ctx: JetContext, bundle: VirtualBundle) -> ObstructionClass:
    """Integer determinant class of the even stratum: with n-p = 2u and
    i = 2v, the determinant of the (v-u)-square matrix whose (s, t) entry is
    the class of index v+s-t, homogeneous of degree 4*v*(v-u).
    """
    if bundle.variant is not ClassVariant.PONTRJAGIN:
        raise ModeMismatch("integer determinant class needs an integer-mode bundle")
    if not is_integer(i) or i < 1:
        raise CharClassError(f"stratum index must be a positive integer, got {i!r}")
    if (ctx.n - ctx.p) % 2 != 0 or i % 2 != 0:
        raise ParityError(
            f"integer determinant class needs n-p and i even, got n-p={ctx.n - ctx.p}, i={i}"
        )
    return _porteous(bundle, i, i // 2, i // 2 - (ctx.n - ctx.p) // 2, "v-u")


#: Integer obstruction polynomials of the full bounded-codimension stratum for
#: self-maps in dimensions 5..8: identically zero below 8; in dimension 8 the
#: combination 9*(second class) + 3*(first class squared).
W_TABLE_DIMENSIONS = (5, 6, 7, 8)


def w_table_polynomial(p: int, bundle: VirtualBundle) -> ObstructionClass:
    """Tabulated integer obstruction class for self-maps of a p-manifold,
    p in 5..8.  Zero for p = 5, 6, 7; for p = 8 the degree-8 class
    9*P2 + 3*P1^2 of the virtual bundle.
    """
    if bundle.variant is not ClassVariant.PONTRJAGIN:
        raise ModeMismatch("the obstruction table is integer-mode only")
    if p not in W_TABLE_DIMENSIONS:
        raise UnsupportedDimension(f"no tabulated polynomial for dimension {p}")
    if p in (5, 6, 7):
        value = bundle.ring.zero()
    else:
        classes = _classes(bundle, (1, 2))
        value = 9 * classes[2] + 3 * (classes[1] * classes[1])
    return ObstructionClass(value, p, p, ClassVariant.W_TABLE)


def bundle_from_spec(ring: ManifoldRing, spec: dict) -> VirtualBundle:
    """Virtual bundle from its presentation document:
    {"totalPositive": [...], "totalNegativePulled": [...]}.
    """
    name = "bundle of two element lists"
    positive = read_field(spec, "totalPositive", list, name)
    negative = read_field(spec, "totalNegativePulled", list, name)
    return VirtualBundle(element_from_spec(ring, positive), element_from_spec(ring, negative))


def bundle_to_spec(bundle: VirtualBundle) -> dict:
    return {
        "totalPositive": element_to_spec(bundle.total_positive),
        "totalNegativePulled": element_to_spec(bundle.total_negative_pulled),
    }
