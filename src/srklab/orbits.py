"""Locating single-round periodic solutions (SR_k: period k+1, one point
above the switching strip, k points below it).

For the piecewise family the fixed-point problem of (saddle^k o return)
reduces to a quadratic in ``u = y - y_star`` at the above-strip point:
with A = lam**k*(x_star + ...)/(1 - c1*lam**k) and B the matching c2 slope,

    a*u**2 + b*u + c = 0,
    a = sigma**k*d5 + d3*B*Bs + d4*Bs,
    b = d1*Bs + sigma**k*d2 + 2*d3*A*Bs + d4*As - 1,
    c = d1*As + d3*A*As - y_star,

where As = (lam*sigma)**k*x_star/(1-c1*lam**k), Bs = (lam*sigma)**k*c2/(1-c1*lam**k).
With the example-family defaults this is sigma**k*d5*u**2
+ ((lam*sigma)**k*d1*c2 - 1)*u + ((lam*sigma)**k*d1 - 1) = 0.  The root
u_minus (the "-" sign of the quadratic formula) generates the branch that
the coexistence theory predicts to be asymptotically stable.

Closed-form orbits whose itinerary strays into the blend strip (and only
there) are re-solved with a damped Newton iteration on f^period.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, count
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateCoefficientsError,
    EscapeError,
    ItineraryInvalidError,
    NoConvergenceError,
    NotMinimalError,
    SingularJacobianError,
)
from .mapcore import (
    Jacobian2,
    Point2,
    Region,
    _return_jacobian,
    eval_map,
    eval_return,
    eval_saddle,
    region_of,
)
from .params import MapParams
from .stability import StabilityClass, classify, orbit_jacobian

__all__ = [
    "Branch",
    "RootPair",
    "OrbitPoints",
    "SRkOrbit",
    "ScanRecord",
    "ScanResult",
    "srk_quadratic",
    "assemble_orbit",
    "newton_periodic",
    "scan_srk",
    "orbits_to_csv",
    "orbits_from_csv",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 20
MINIMALITY_TOL = 1e-8
CLOSING_TOL = 1e-10  # largest closing residual of a scan orbit or registry entry
_SAME_ORBIT_TOL = 1e-8
_NEWTON_ESCAPE = 1e6


class Branch(Enum):
    MINUS = "minus"
    PLUS = "plus"


@dataclass(frozen=True)
class RootPair:
    """Roots u = y - y_star of the single-round quadratic (None if absent)."""

    u_minus: float | None
    u_plus: float | None

    def get(self, branch: Branch) -> float | None:
        return self.u_minus if branch is Branch.MINUS else self.u_plus


_FLOAT = frozenset({float})


def _exact_floats(column: Iterable[float]) -> tuple[float, ...]:
    """``column`` as a tuple of Python floats (``np.float64`` and ``int``
    values converted, so every coordinate formats as a plain float)."""
    column = tuple(column)
    return column if _FLOAT.issuperset(map(type, column)) else tuple(map(float, column))


class OrbitPoints(Sequence):
    """An orbit's points as two coordinate tuples of Python floats, ``xs``
    and ``ys``.

    A ``Point2`` is made only when a point is read; a slice reads as a
    tuple of them.  Equal to (and hashes as) the tuple of its points, so
    it compares with a plain tuple of ``Point2``.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, xs: Iterable[float], ys: Iterable[float]) -> None:
        self.xs = _exact_floats(xs)
        self.ys = _exact_floats(ys)

    @classmethod
    def of(cls, points: Sequence[Point2]) -> "OrbitPoints":
        """``points`` itself if it is an ``OrbitPoints``, else its columns."""
        if isinstance(points, OrbitPoints):
            return points
        return cls(tuple(p[0] for p in points), tuple(p[1] for p in points))

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(Point2, self.xs[index], self.ys[index]))
        return Point2(self.xs[index], self.ys[index])

    def __iter__(self) -> Iterator[Point2]:
        return map(Point2, self.xs, self.ys)

    def __eq__(self, other) -> bool:
        if isinstance(other, OrbitPoints):
            return self.xs == other.xs and self.ys == other.ys
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"OrbitPoints({tuple(self)!r})"

    def array(self) -> np.ndarray:
        """The points as a (period, 2) float array, read from the columns."""
        return np.column_stack((self.xs, self.ys))


@dataclass(frozen=True)
class SRkOrbit:
    """A computed periodic solution.

    ``points`` starts at the above-strip point for a closed-form orbit and
    at the converged iterate for a Newton orbit.  It is always an
    ``OrbitPoints``; any other sequence of points given to the
    constructor (or to ``dataclasses.replace``) is converted to one.
    ``residual``, ``trace`` and ``det`` are likewise Python floats, so
    they format as plain floats.  ``method`` is "closed-form", "newton",
    or "csv" for an orbit read by ``orbits_from_csv``.
    """

    k: int
    points: OrbitPoints
    branch: Branch | None
    residual: float
    trace: float
    det: float
    stability: StabilityClass
    method: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", OrbitPoints.of(self.points))
        for name in ("residual", "trace", "det"):
            value = getattr(self, name)
            if type(value) is not float:
                object.__setattr__(self, name, float(value))

    @property
    def period(self) -> int:
        return len(self.points)


def _quadratic_coefficients(params: MapParams, k: int) -> tuple[float, float, float]:
    lamk = params.lam**k
    sigk = params.sigma**k
    prod = (params.lam * params.sigma) ** k
    denom = 1.0 - params.c1 * lamk
    if denom == 0.0:
        raise DegenerateCoefficientsError("c1*lam**k == 1 degenerates the x-row")
    # A, B parameterize the above-strip abscissa x = A + B*u exactly;
    # As = sigma**k * A and Bs = sigma**k * B are grouped through
    # (lam*sigma)**k so the example family's cancellations stay exact.
    a_coef = lamk * params.x_star / denom
    b_coef = lamk * params.c2 / denom
    a_scaled = prod * params.x_star / denom
    b_scaled = prod * params.c2 / denom
    qa = sigk * params.d5 + params.d3 * b_coef * b_scaled + params.d4 * b_scaled
    qb = (
        params.d1 * b_scaled
        + sigk * params.d2
        + 2.0 * params.d3 * a_coef * b_scaled
        + params.d4 * a_scaled
        - 1.0
    )
    qc = params.d1 * a_scaled + params.d3 * a_coef * a_scaled - params.y_star
    return qa, qb, qc


def srk_quadratic(params: MapParams, k: int) -> RootPair:
    """Real roots of the single-round fixed-point quadratic for index k.

    The minus root corresponds to the branch that the theory predicts to
    be asymptotically stable.  Both roots absent means the discriminant
    is negative (no single-round pair at this k).  Raises
    ``DegenerateCoefficientsError`` when ``d5 == 0``, when
    ``c1*lam**k == 1``, or when the quadratic's leading coefficient
    vanishes at this k.
    """
    if params.d5 == 0.0:
        raise DegenerateCoefficientsError("srk_quadratic requires d5 != 0")
    if k < 0:
        raise ValueError("k must be non-negative")
    qa, qb, qc = _quadratic_coefficients(params, k)
    if qa == 0.0:
        raise DegenerateCoefficientsError(f"vanishing leading coefficient at k={k}")
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return RootPair(None, None)
    root = math.sqrt(disc)
    return RootPair(
        u_minus=(-qb - root) / (2.0 * qa),
        u_plus=(-qb + root) / (2.0 * qa),
    )


def _proper_divisors(n: int) -> list[int]:
    """The divisors d < n of n, in increasing order."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)} - {n})


def _point_above_strip(params: MapParams, k: int, u: float) -> Point2:
    """(lam**k*(x_star + c2*u)/(1 - c1*lam**k), y_star + u) for root u."""
    lamk = params.lam**k
    x_up = lamk * (params.x_star + params.c2 * u) / (1.0 - params.c1 * lamk)
    return Point2(x_up, params.y_star + u)


class _Walks(NamedTuple):
    """The batched walk's result: the candidates' ks, the record ``xs``,
    ``ys`` of every point walked (row j holds point j of each candidate;
    a candidate's column is valid down to row k), each candidate's points
    outside their required region (candidates without any are absent),
    and its period Jacobian's trace and det."""

    ks: Sequence[int]
    xs: np.ndarray
    ys: np.ndarray
    violations: dict[int, list[tuple[int, Region]]]
    trace: list[float]
    det: list[float]

    def points(self, row: int, count: int | None = None) -> OrbitPoints:
        """The first ``count`` recorded points of candidate ``row``; all
        k + 1 of its orbit by default."""
        stop = self.ks[row] + 1 if count is None else count
        return OrbitPoints(self.xs[:stop, row].tolist(), self.ys[:stop, row].tolist())

    def residual(self, params: MapParams, row: int) -> float:
        """The closing residual of an orbit whose itinerary holds.  In pure
        regions the map is the piece walked: one call on point k closes
        the orbit."""
        k = self.ks[row]
        closing = eval_map(params, Point2(self.xs.item(k, row), self.ys.item(k, row)))
        return max(abs(closing.x - self.xs.item(0, row)), abs(closing.y - self.ys.item(0, row)))

    def orbit(self, row: int, branch: Branch | None, residual: float) -> SRkOrbit:
        tau, delta = self.trace[row], self.det[row]
        return SRkOrbit(
            k=self.ks[row],
            points=self.points(row),
            branch=branch,
            residual=residual,
            trace=tau,
            det=delta,
            stability=classify(tau, delta),
            method="closed-form",
        )


def _walk(params: MapParams, ks: Sequence[int], ups: Sequence[Point2]) -> _Walks:
    """Walk the closed-form candidates (ks[i], ups[i]) together; ``ks``
    must not increase, so the rows still walking at step j (those with
    k >= j) form a prefix.

    Step j applies the scalar expressions elementwise: point j is
    ``eval_saddle`` of point j - 1, and the period Jacobian takes one
    saddle factor in the form ``Jacobian2.matmul`` gives it, after the
    return Jacobian at the above-strip point.  So every value equals the
    one-point walk and ``orbit_jacobian`` over the points bit for bit;
    the 0.0 terms keep their signed zeros and NaNs.
    Every point is recorded, (k_max + 1) x candidates x 16 bytes while
    the scan runs, and the itinerary is checked on each: point 0 must lie
    at or above h1, points 1..k at or below h0.
    """
    n = len(ks)
    k_max = ks[0] if n else 0
    # Point j of every candidate is record[j]: its x row, then its y row.
    record = np.empty((k_max + 1, 2, n))
    xs, ys = record[:, 0], record[:, 1]
    record[0] = np.fromiter(chain.from_iterable(ups), float, 2 * n).reshape(n, 2).T
    up = Point2(xs[0], ys[0])
    # Rows a, b, d, c of each candidate's Jacobian product: reversed,
    # each entry meets the one its 0.0 term reads.  Step j updates the
    # prefix in place, so a row keeps its values from its last step.
    jac = np.empty((4, n))
    jac_scale = np.array([[params.lam], [params.lam], [params.sigma], [params.sigma]])
    with np.errstate(all="ignore"):
        # A candidate whose first point is not above the strip fails its
        # itinerary, so the return piece's values stand for every row.
        if k_max:
            xs[1], ys[1] = eval_return(params, up)
        ja, jb, jc, jd = _return_jacobian(params, up).matmul(Jacobian2.identity())
        jac[0], jac[1], jac[2], jac[3] = ja, jb, jd, jc
        live = n
        for j in range(1, k_max + 1):
            while ks[live - 1] < j:
                live -= 1
            if j > 1:
                xs[j, :live], ys[j, :live] = eval_saddle(
                    params, Point2(xs[j - 1, :live], ys[j - 1, :live])
                )
            prefix = jac[:, :live]
            zero = prefix[::-1] * 0.0
            prefix *= jac_scale
            prefix += zero
        a, b, d, c = jac
        trace, det = (a + d).tolist(), (a * d - b * c).tolist()
        # Both tests fail on NaN; rows past a candidate's k are masked.
        stray = ~(ys <= params.h0)
        stray[0] = ~(ys[0] >= params.h1)
        stray[1:] &= np.arange(1, k_max + 1)[:, None] <= np.asarray(ks)
    violations = {}
    for row in np.flatnonzero(stray.any(axis=0)).tolist():
        steps = np.flatnonzero(stray[:, row]).tolist()
        violations[row] = [(j, region_of(params, ys.item(j, row))) for j in steps]
    return _Walks(ks, xs, ys, violations, trace, det)


def assemble_orbit(
    params: MapParams, k: int, u: float, branch: Branch | None = None
) -> SRkOrbit:
    """Build the closed-form orbit for root ``u`` and validate it.

    The above-strip point comes from ``_point_above_strip``; the return
    piece then the saddle piece applied k times produce the remaining
    points.  This is ``scan_srk``'s batched walk (``_walk``) run on one
    candidate: it checks the itinerary and multiplies the period Jacobian
    (the return Jacobian at the above-strip point, then k saddle factors)
    equal to ``orbit_jacobian`` over the points bit for bit, and one
    ``eval_map`` call on the last point gives the closing residual.
    Raises ``ItineraryInvalidError`` when any point falls outside its
    required region (the closed form is then not a genuine orbit of the
    piecewise map).  An orbit that passes is minimal: its one point above
    the strip cannot recur before k + 1 steps.
    """
    walks = _walk(params, [k], [_point_above_strip(params, k, u)])
    if walks.violations:
        raise ItineraryInvalidError(walks.violations[0])
    return walks.orbit(0, branch, walks.residual(params, 0))


def _cycle_and_residual(
    params: MapParams, p: Point2, period: int
) -> tuple[list[Point2], Point2]:
    """The orbit [p, ..., f^(period-1)(p)] and its closing image f^period(p),
    one ``eval_map`` call per step.  Raises ``EscapeError`` when the
    closing gap is not finite.
    """
    pts = [p]
    for _ in range(period):
        pts.append(eval_map(params, pts[-1]))
    closing = pts.pop()
    if not (math.isfinite(closing.x - p.x) and math.isfinite(closing.y - p.y)):
        raise EscapeError(at_step=period)
    return pts, closing


def newton_periodic(params: MapParams, seed: Point2, period: int) -> SRkOrbit:
    """Damped Newton iteration on g(p) = f^period(p) - p.

    The Jacobian of g is the chain-rule product of the single-step
    Jacobians minus the identity.  Steps are halved (up to 20 times)
    whenever the residual increases.  Raises ``NotMinimalError`` when the
    converged orbit returns to its first point (within ``MINIMALITY_TOL``)
    after a proper divisor d of the period.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    p = Point2(float(seed[0]), float(seed[1]))
    if max(abs(p.x), abs(p.y)) > _NEWTON_ESCAPE:
        raise NoConvergenceError(iterations=0, last_residual=math.inf)
    pts, closing = _cycle_and_residual(params, p, period)
    res = max(abs(closing.x - p.x), abs(closing.y - p.y))
    for iteration in range(NEWTON_MAX_ITER):
        if res <= NEWTON_TOL:
            break
        jac_prod = orbit_jacobian(params, pts)
        dg = Jacobian2(jac_prod.a - 1.0, jac_prod.b, jac_prod.c, jac_prod.d - 1.0)
        try:
            dx, dy = dg.solve(-(closing.x - p.x), -(closing.y - p.y))
        except SingularJacobianError:
            raise SingularJacobianError(at_iterate=p) from None
        step_scale = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            trial = Point2(p.x + step_scale * dx, p.y + step_scale * dy)
            try:
                trial_pts, trial_closing = _cycle_and_residual(params, trial, period)
            except EscapeError:
                step_scale *= 0.5
                continue
            trial_res = max(abs(trial_closing.x - trial.x), abs(trial_closing.y - trial.y))
            if trial_res < res or trial_res <= NEWTON_TOL:
                p, pts, closing, res = trial, trial_pts, trial_closing, trial_res
                break
            step_scale *= 0.5
        else:
            raise NoConvergenceError(iterations=iteration + 1, last_residual=res)
        if max(abs(p.x), abs(p.y)) > _NEWTON_ESCAPE:
            raise NoConvergenceError(iterations=iteration + 1, last_residual=res)
    if res > NEWTON_TOL:
        raise NoConvergenceError(iterations=NEWTON_MAX_ITER, last_residual=res)
    for d in _proper_divisors(period):
        if max(abs(pts[d].x - p.x), abs(pts[d].y - p.y)) <= MINIMALITY_TOL:
            raise NotMinimalError(divisor=d)
    jac = orbit_jacobian(params, pts)
    tau, delta = jac.trace, jac.det
    return SRkOrbit(period - 1, pts, None, res, tau, delta, classify(tau, delta), "newton")


@dataclass(frozen=True)
class ScanRecord:
    """Outcome of one (k, branch) attempt."""

    k: int
    branch: Branch
    status: str  # "closed-form" | "newton" | "no-real-root" | "degenerate" |
    #              "itinerary-invalid" | "newton-failed" | "duplicate" |
    #              "precision-limited" (see ``scan_srk``)
    orbit: SRkOrbit | None
    detail: str = ""


@dataclass(frozen=True)
class ScanResult:
    records: tuple[ScanRecord, ...]

    @property
    def orbits(self) -> list[SRkOrbit]:
        return [r.orbit for r in self.records if r.orbit is not None]

    def stable_orbits(self) -> list[SRkOrbit]:
        return [
            o
            for o in self.orbits
            if o.stability is StabilityClass.ASYMPTOTICALLY_STABLE
        ]

    def orbit(self, k: int, branch: Branch) -> SRkOrbit | None:
        for r in self.records:
            if r.k == k and r.branch is branch:
                return r.orbit
        return None


def _same_orbit(a: SRkOrbit, b: SRkOrbit) -> bool:
    if a.period != b.period:
        return False
    # Compare point sets up to cyclic rotation.  Each coordinate is tested
    # on its own, so a NaN in either never matches.
    ax, ay, bx, by = a.points.xs, a.points.ys, b.points.xs, b.points.ys
    for shift in range(b.period):
        if all(
            abs(xa - xb) <= _SAME_ORBIT_TOL and abs(ya - yb) <= _SAME_ORBIT_TOL
            for xa, ya, xb, yb in zip(ax, ay, bx[shift:] + bx[:shift], by[shift:] + by[:shift])
        ):
            return True
    return False


def _same_points(prev: SRkOrbit, walks: _Walks, row: int) -> bool:
    """Whether walked ``row`` has exactly the points of ``prev``, an orbit
    of the same k.  A closed-form orbit's points follow from its first
    two, so those decide against another one."""
    head = walks.points(row, min(walks.ks[row], 1) + 1)
    if prev.points[: len(head)] != tuple(head):
        return False
    return prev.method == "closed-form" or prev.points == walks.points(row)


def _closed_form_record(
    params: MapParams,
    branch: Branch,
    roots: RootPair,
    walks: _Walks,
    row: int,
    found: list[SRkOrbit],
) -> ScanRecord:
    """The scan's outcome for walked ``row``, a root of ``branch``."""
    k = walks.ks[row]
    violations = walks.violations.get(row)
    if violations:
        err = ItineraryInvalidError(violations)
        if not all(region is Region.BLEND for _, region in violations):
            return ScanRecord(k, branch, "itinerary-invalid", None, str(err))
        try:
            orbit = newton_periodic(params, walks.points(row, 1)[0], k + 1)
        except (NoConvergenceError, SingularJacobianError, NotMinimalError, EscapeError) as nerr:
            return ScanRecord(k, branch, "newton-failed", None, str(nerr))
        for other in found:
            if _same_orbit(orbit, other):
                return ScanRecord(
                    k, branch, "duplicate", None, "newton converged onto another branch"
                )
        return ScanRecord(k, branch, "newton", replace(orbit, branch=branch), str(err))
    residual = walks.residual(params, row)
    if not residual <= CLOSING_TOL:  # also flags NaN residuals
        detail = f"closing residual {residual:.3e}"
        return ScanRecord(k, branch, "precision-limited", None, detail)
    if found and found[-1].k == k and _same_points(found[-1], walks, row):
        if roots.u_minus == roots.u_plus:
            return ScanRecord(k, branch, "duplicate", None, "double root")
        return ScanRecord(k, branch, "precision-limited", None, "same points as minus")
    return ScanRecord(k, branch, "closed-form", walks.orbit(row, branch, residual))


def scan_srk(params: MapParams, k_min: int, k_max: int) -> ScanResult:
    """Attempt both single-round branches for every k in [k_min, k_max].

    The closed form is used where its itinerary is valid; orbits that
    stray into the blend strip (and only there) are re-solved by Newton
    iteration seeded with the closed form.  Per-k failures are recorded,
    never raised.  Every (k, branch) with a real root is walked in one
    batched pass (``_walk``), and points are built only for the orbits
    that are kept.

    Where doubles cannot carry a closed-form orbit it is recorded as
    ``precision-limited``, never labelled: ``sigma**k`` overflows, its
    points do not close to ``CLOSING_TOL`` under ``eval_map``, or the plus
    root gives the minus orbit's points.  An exact double root is a
    ``duplicate``.
    """
    if k_min > k_max:
        raise ValueError("k_min must not exceed k_max")
    # Each slot is a finished record or the (branch, roots) of a candidate.
    slots: list[ScanRecord | tuple[Branch, RootPair]] = []
    ks: list[int] = []
    ups: list[Point2] = []
    for k in range(k_min, k_max + 1):
        try:
            roots = srk_quadratic(params, k)
        except OverflowError as err:  # sigma**k beyond the double range
            slots += [ScanRecord(k, b, "precision-limited", None, str(err)) for b in Branch]
            continue
        except DegenerateCoefficientsError as err:  # d5 == 0, c1*lam**k == 1, or qa == 0
            slots += [ScanRecord(k, b, "degenerate", None, str(err)) for b in Branch]
            continue
        for branch in Branch:
            u = roots.get(branch)
            if u is None:
                slots.append(ScanRecord(k, branch, "no-real-root", None, "negative discriminant"))
            else:
                slots.append((branch, roots))
                ks.append(k)
                ups.append(_point_above_strip(params, k, u))
    # Walk in descending k, so the rows still walking form a prefix.
    walks = _walk(params, ks[::-1], ups[::-1])
    row = len(ks)
    records: list[ScanRecord] = []
    found: list[SRkOrbit] = []
    for slot in slots:
        if not isinstance(slot, ScanRecord):
            row -= 1
            slot = _closed_form_record(params, *slot, walks, row, found)
            if slot.orbit is not None:
                found.append(slot.orbit)
        records.append(slot)
    return ScanResult(records=tuple(records))


# -- CSV export -------------------------------------------------------------

_CSV_HEADER = "k,period,branch,j,x_j,y_j,trace,det,stability,residual"


class _ReprCache(dict):
    """``cache[x] == repr(x)`` for Python floats, each nonzero value
    formatted once.  Zeros are not stored: ``0.0`` and ``-0.0`` are equal
    keys that repr differently.  A stored float would also answer for an
    equal ``np.float64`` or ``int``, so only exact floats may use it, as
    ``OrbitPoints`` columns are."""

    __slots__ = ()

    def __missing__(self, x: float) -> str:
        text = repr(x)
        if x:
            self[x] = text
        return text


def orbits_to_csv(orbits: Iterable[SRkOrbit]) -> str:
    """One row per orbit point; floats use shortest round-trip formatting.

    Each distinct coordinate is formatted once per call: the SR_k family
    walks the same saddle passage, so its large-k orbits repeat most of
    their coordinates.
    """
    cache = _ReprCache()
    parts = [_CSV_HEADER + "\n"]
    for orbit in orbits:
        branch = orbit.branch.value if orbit.branch is not None else ""
        head = f"{orbit.k},{orbit.period},{branch},"
        tail = f",{orbit.trace!r},{orbit.det!r},{orbit.stability.value},{orbit.residual!r}\n"
        xs, ys = map(cache.__getitem__, orbit.points.xs), map(cache.__getitem__, orbit.points.ys)
        parts.append("".join([f"{head}{j},{x},{y}{tail}" for j, x, y in zip(count(), xs, ys)]))
    return "".join(parts)


_BRANCHES = {"": None, **{b.value: b for b in Branch}}
_STABILITIES = {s.value: s for s in StabilityClass}


def orbits_from_csv(text: str) -> list[SRkOrbit]:
    """Parse an orbit CSV back into the orbits ``orbits_to_csv`` wrote.

    Each orbit starts at a row with j = 0 and runs through j = period - 1
    with the same k, period and branch; any other sequence of rows raises
    ``ValueError``, so orbits that share (k, branch) stay apart.  So does
    a period other than k + 1, a branch other than "", "minus" or "plus"
    ("" reads as None) and an unknown stability.  The CSV has no method
    column, so every orbit's ``method`` is "csv".  The orbits are not
    checked under any map here: ``AttractorRegistry.from_orbits`` does that.
    """
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError("unrecognized orbit CSV header")
    # Per orbit: (k, period, branch), the fields of its j = 0 row, xs, ys.
    entries: list[tuple[tuple[int, int, str], list[str], list[float], list[float]]] = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 10:
            raise ValueError(f"malformed orbit CSV row: {line}")
        key, j = (int(fields[0]), int(fields[1]), fields[2]), int(fields[3])
        if j == 0:
            entries.append((key, fields, [], []))
        if not entries or (key, j) != (entries[-1][0], len(entries[-1][2])) or j >= key[1]:
            raise ValueError(f"orbit CSV row does not continue its orbit: {line}")
        entries[-1][2].append(float(fields[4]))
        entries[-1][3].append(float(fields[5]))
    orbits = []
    for (k, period, branch), head, xs, ys in entries:
        name = f"orbit k={k} branch {branch!r}"
        if len(xs) != period:
            raise ValueError(f"orbit CSV orbit k={k} has {len(xs)} of its {period} points")
        if period != k + 1:
            raise ValueError(f"{name} has period {period}, not k + 1")
        if branch not in _BRANCHES:
            raise ValueError(f"{name}: branch is not '', 'minus' or 'plus'")
        if head[8] not in _STABILITIES:
            raise ValueError(f"{name} has unknown stability {head[8]!r}")
        points, stability = OrbitPoints(xs, ys), _STABILITIES[head[8]]
        residual, trace, det = float(head[9]), float(head[6]), float(head[7])
        orbits.append(
            SRkOrbit(k, points, _BRANCHES[branch], residual, trace, det, stability, "csv")
        )
    return orbits
