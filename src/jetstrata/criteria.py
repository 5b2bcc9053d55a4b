"""Decision procedures for stratum inclusions and the nonexistence verdict.

All inequalities are decided in exact integer arithmetic.  The quantity
``lhs`` below is (p-n+i)*(i(i+1)/2 - p + n) - i^2, an integer because
i(i+1) is always even; it depends on n and p only through p-n, so it is
invariant under shifting both dimensions.  A verdict of ``Inconclusive``
never asserts existence: a vanishing obstruction class proves nothing here.
"""

from __future__ import annotations

from .charclass import (
    ObstructionClass,
    VirtualBundle,
    porteous_pontrjagin,
    porteous_sw,
    w_table_polynomial,
    W_TABLE_DIMENSIONS,
)
from .gring import CoefficientMode, ModeMismatch
from .symbols import ConsistencyError, JetContext, Record, is_finite_order, is_integer

ESTABLISHED = "Established"
NOT_ESTABLISHED = "NotEstablished"
NOT_HOMOTOPIC = "NotHomotopicToRegular"
INCONCLUSIVE = "Inconclusive"


class BadInput(ValueError):
    pass


class CriterionReport(Record):
    """Outcome of an inclusion criterion with its witness arithmetic."""

    __slots__ = ("verdict", "lhs", "rhs", "k_required", "shift_used", "notes")

    @property
    def established(self) -> bool:
        return self.verdict == ESTABLISHED


def _check_order(k) -> None:
    if is_finite_order(k) and (not is_integer(k) or k < 1):
        raise BadInput(f"jet order must be a positive integer or inf, got {k!r}")


def _k_at_least(k, bound: int) -> bool:
    return not is_finite_order(k) or k >= bound


def _inclusion_lhs(n: int, p: int, i: int) -> int:
    return (p - n + i) * (i * (i + 1) // 2 - p + n) - i * i


def _check_inputs(n: int, p: int, i: int, ell: int, k) -> None:
    """Checked in order: the core (n, p, i), the budget, the jet order."""
    for name, value in (("n", n), ("p", p), ("i", i)):
        if not is_integer(value):
            raise BadInput(f"{name} must be an integer, got {value!r}")
    if n < 1 or p < 1:
        raise BadInput(f"dimensions must be positive, got n={n}, p={p}")
    if i < 1:
        raise BadInput(f"kernel rank must be positive, got i={i}")
    if p - n + i < 0:
        raise BadInput(f"p-n+i = {p - n + i} is negative: the stratum is empty")
    if not is_integer(ell) or ell < 0:
        raise BadInput(f"codimension budget must be a nonnegative integer, got {ell!r}")
    _check_order(k)


def nonstable_inclusion(n: int, p: int, i: int, k) -> CriterionReport:
    """Whether the kernel-rank-i stratum lies inside the nonstable-jet locus:
    established when (p-n+i)*(i(i+1)/2 - p + n) - i^2 >= n and k >= p+1, which
    is the orbit-codimension inclusion with budget 0.
    """
    return w_inclusion(n, p, i, 0, k)


def w_inclusion(n: int, p: int, i: int, ell: int, k) -> CriterionReport:
    """Whether the kernel-rank-i stratum lies inside the locus of orbit
    codimension above ell: established when lhs >= n + ell and k >= p+ell+1.
    For n = p the left side simplifies to i^2(i-1)/2.
    """
    _check_inputs(n, p, i, ell, k)
    lhs = _inclusion_lhs(n, p, i)
    if n == p and lhs != i * i * (i - 1) // 2:
        raise ConsistencyError("equal-dimension simplification of the inclusion bound failed")
    k_required = p + ell + 1
    k_ok = _k_at_least(k, k_required)
    established = lhs >= n + ell and k_ok
    notes = "" if k_ok else "jet order below the required minimum"
    return CriterionReport(
        ESTABLISHED if established else NOT_ESTABLISHED, lhs, n + ell, k_required, 0, notes
    )


def stabilized_w_inclusion(n: int, p: int, i: int, ell: int, k) -> CriterionReport:
    """Inclusion after shifting both dimensions down by the smallest m >= 0
    that makes the direct criterion succeed; the inequality's left side is
    shift-invariant, so only the right side and the jet-order requirement
    move with m.  Not established when no admissible shift works.

    A shifted core must carry a nonempty kernel-rank-i stratum: i <= n-m,
    and p-m >= 2 when n >= p.  Both requirements weaken as m grows, so the
    smallest working shift is read off in closed form.
    """
    _check_inputs(n, p, i, ell, k)
    top = n - i if n < p else min(n - i, p - 2)
    if top >= 0:
        report = w_inclusion(n, p, i, ell, k)
        # lhs >= n-m+ell and k >= p-m+ell+1.
        m = max(0, n + ell - report.lhs, p + ell + 1 - k if is_finite_order(k) else 0)
        if m <= top:
            report = w_inclusion(n - m, p - m, i, ell, k)
            if not report.established:
                raise ConsistencyError(f"the smallest working shift m={m} does not establish the inclusion")
            notes = "established directly" if m == 0 else f"established after shift m={m}"
            return CriterionReport(
                ESTABLISHED, report.lhs, report.rhs, report.k_required, m, notes
            )
    lhs = _inclusion_lhs(n, p, i)
    if i > n:
        notes = "kernel rank exceeds the source dimension at every shift"
    else:
        notes = "no shift satisfies the inequality and jet-order requirement"
    return CriterionReport(NOT_ESTABLISHED, lhs, n + ell, p + ell + 1, 0, notes)


ROUTE_SW = "sw"
ROUTE_PONTRJAGIN = "pontrjagin"
ROUTE_W_TABLE = "wtable"


class NonexistenceReport(Record):
    """Verdict for the question: can the map be deformed to one whose
    singularities all have orbit codimension within the budget?"""

    __slots__ = ("verdict", "route", "criterion", "obstruction", "notes")


def _table_fits(ell: int, dims: tuple[int, int]) -> bool:
    """Self-map of a 5..8-manifold at the budget one below the dimension."""
    dim_m, dim_q = dims
    return dim_m == dim_q and dim_m in W_TABLE_DIMENSIONS and ell == dim_m - 1


def _auto_route(bundle: VirtualBundle, ell: int, dims: tuple[int, int]) -> str:
    if bundle.ring.mode is CoefficientMode.MOD2:
        return ROUTE_SW
    return ROUTE_W_TABLE if _table_fits(ell, dims) else ROUTE_PONTRJAGIN


def nonexistence_verdict(
    bundle: VirtualBundle,
    i: int,
    ell: int,
    k,
    dims: tuple[int, int],
    route: str = "auto",
) -> NonexistenceReport:
    """Apply the obstruction test for maps from an (m+n)-manifold to an
    (m+p)-manifold: when the stratum inclusion is established (possibly after
    a dimension shift) and the selected determinant class does not vanish,
    the map cannot be deformed to one with singularities inside the budget.

    A vanishing obstruction, a failed criterion or an undeclared orientation
    all yield ``Inconclusive`` -- never a claim of existence.
    """
    dim_m, dim_q = dims
    if bundle.ring.top_dim != dim_m:
        raise BadInput(
            f"declared source dimension {dim_m} differs from the ring's top dimension "
            f"{bundle.ring.top_dim}"
        )
    if route == "auto":
        route = _auto_route(bundle, ell, dims)
    notes: list[str] = []
    obstruction: ObstructionClass | None = None

    if route == ROUTE_W_TABLE:
        if bundle.ring.mode is not CoefficientMode.INTEGER_MOD_TORSION:
            raise ModeMismatch("the table route is integer-mode only")
        if not _table_fits(ell, dims):
            raise BadInput(
                "table route needs a self-map of a 5..8-manifold with budget one below "
                "the dimension"
            )
        _check_order(k)
        k_required = dim_m + 2
        k_ok = _k_at_least(k, k_required)
        criterion = CriterionReport(
            ESTABLISHED if k_ok else NOT_ESTABLISHED,
            0,
            0,
            k_required,
            0,
            "tabulated obstruction polynomial for self-maps",
        )
        obstruction = w_table_polynomial(dim_m, bundle)
        if dim_m in (5, 6, 7):
            notes.append(
                "the tabulated class is identically zero in this dimension; the last two "
                "budget levels detect the same obstruction"
            )
        if obstruction.is_zero:
            notes.append(
                "for self-maps in dimensions up to 8 this class is the complete primary "
                "obstruction at this budget; it vanishes here, but the toolkit reports "
                "only obstructions, never existence"
            )
    elif route == ROUTE_SW:
        if bundle.ring.mode is not CoefficientMode.MOD2:
            raise ModeMismatch("the mod-2 route needs a mod-2 bundle")
        criterion = stabilized_w_inclusion(dim_m, dim_q, i, ell, k)
        obstruction = porteous_sw(i, JetContext(dim_m, dim_q, k), bundle)
    elif route == ROUTE_PONTRJAGIN:
        if bundle.ring.mode is not CoefficientMode.INTEGER_MOD_TORSION:
            raise ModeMismatch("the integer route needs an integer-mode bundle")
        criterion = stabilized_w_inclusion(dim_m, dim_q, i, ell, k)
        if not bundle.ring.orientable:
            notes.append(
                "integer route requires a declared orientation; none declared, so the "
                "obstruction test does not apply"
            )
            return NonexistenceReport(INCONCLUSIVE, route, criterion, None, tuple(notes))
        obstruction = porteous_pontrjagin(i, JetContext(dim_m, dim_q, k), bundle)
        if dim_m == dim_q == 4:
            notes.append(
                "for 4-dimensional self-maps the rank-4 obstruction reduces to the second "
                "class of the virtual bundle; budget levels 2 and 3 coincide"
            )
    else:
        raise BadInput(f"unknown route {route!r}")

    if not criterion.established:
        notes.append("inclusion criterion not established; the obstruction test does not apply")
        return NonexistenceReport(INCONCLUSIVE, route, criterion, obstruction, tuple(notes))
    if obstruction.is_zero:
        if route != ROUTE_W_TABLE:
            notes.append("obstruction class vanishes; vanishing never proves existence")
        return NonexistenceReport(INCONCLUSIVE, route, criterion, obstruction, tuple(notes))
    return NonexistenceReport(NOT_HOMOTOPIC, route, criterion, obstruction, tuple(notes))
