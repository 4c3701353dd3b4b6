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
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

from .errors import (
    DegenerateCoefficientsError,
    EscapeError,
    ItineraryInvalidError,
    NoConvergenceError,
    NotMinimalError,
    SingularJacobianError,
)
from .mapcore import Jacobian2, Point2, Region, eval_map, eval_return, jacobian, region_of
from .params import MapParams
from .stability import StabilityClass, classify, orbit_jacobian

__all__ = [
    "Branch",
    "RootPair",
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


@dataclass(frozen=True)
class SRkOrbit:
    """A computed periodic solution.

    ``points`` starts at the above-strip point for a closed-form orbit and
    at the converged iterate for a Newton orbit.  ``method`` is
    "closed-form" or "newton".
    """

    k: int
    points: tuple[Point2, ...]
    branch: Branch | None
    residual: float
    trace: float
    det: float
    stability: StabilityClass
    method: str

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


def _finish_orbit(
    k: int,
    points: Sequence[Point2],
    closing: Point2,
    jac: Jacobian2,
    branch: Branch | None,
    method: str,
) -> SRkOrbit:
    """Label the orbit walked as ``points`` with closing image f^period(p0)
    and period Jacobian ``jac``."""
    p0 = points[0]
    tau, delta = jac.trace, jac.det
    return SRkOrbit(
        k=k,
        points=tuple(points),
        branch=branch,
        residual=max(abs(closing.x - p0.x), abs(closing.y - p0.y)),
        trace=tau,
        det=delta,
        stability=classify(tau, delta),
        method=method,
    )


def _point_above_strip(params: MapParams, k: int, u: float) -> Point2:
    """(lam**k*(x_star + c2*u)/(1 - c1*lam**k), y_star + u) for root u."""
    lamk = params.lam**k
    x_up = lamk * (params.x_star + params.c2 * u) / (1.0 - params.c1 * lamk)
    return Point2(x_up, params.y_star + u)


def assemble_orbit(
    params: MapParams, k: int, u: float, branch: Branch | None = None
) -> SRkOrbit:
    """Build the closed-form orbit for root ``u`` and validate it.

    The above-strip point comes from ``_point_above_strip``; the return
    piece then the saddle piece applied k times produce the remaining
    points.  One loop over plain floats steps the saddle piece, records
    every point outside its required region, and multiplies the period
    Jacobian: the return Jacobian at the above-strip point, then k times
    the saddle Jacobian (lam, 0, 0, sigma), with the products
    ``Jacobian2.matmul`` forms, so the result equals ``orbit_jacobian``
    over the points bit for bit.  Raises ``ItineraryInvalidError`` when
    any point falls outside its required region (the closed form is then
    not a genuine orbit of the piecewise map).  An orbit that passes is
    minimal: its one point above the strip cannot recur before k + 1 steps.
    """
    lam, sigma, h0 = params.lam, params.sigma, params.h0
    p_up = _point_above_strip(params, k, u)
    points = [p_up]
    region_up = region_of(params, p_up.y)
    violations = [] if region_up is Region.UPPER else [(0, region_up)]
    # The products orbit_jacobian forms through matmul, from the identity
    # on; the 0.0 terms keep its signed zeros and NaNs.
    a, b, c, d = jacobian(params, p_up).matmul(Jacobian2.identity())
    x, y = eval_return(params, p_up)
    for j in range(1, k + 1):
        points.append(Point2(x, y))
        if not y <= h0:
            violations.append((j, region_of(params, y)))
        a, b, c, d = (
            lam * a + 0.0 * c,
            lam * b + 0.0 * d,
            0.0 * a + sigma * c,
            0.0 * b + sigma * d,
        )
        x, y = lam * x, sigma * y
    if violations:
        raise ItineraryInvalidError(violations)
    # In pure regions the map is the piece used above: one call closes the orbit.
    closing = eval_map(params, points[-1])
    return _finish_orbit(
        k, points, closing, Jacobian2(a, b, c, d), branch, "closed-form"
    )


def _cycle_and_residual(
    params: MapParams, p: Point2, period: int
) -> tuple[list[Point2], Point2]:
    """The orbit [p, ..., f^(period-1)(p)] and its closing image f^period(p).

    Raises ``EscapeError`` when the closing gap is not finite.
    """
    pts = [p]
    for _ in range(period - 1):
        pts.append(eval_map(params, pts[-1]))
    closing = eval_map(params, pts[-1])
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
    return _finish_orbit(period - 1, pts, closing, jac, None, "newton")


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
    # Compare point sets up to cyclic rotation.
    for shift in range(b.period):
        if all(
            max(abs(pa.x - pb.x), abs(pa.y - pb.y)) <= _SAME_ORBIT_TOL
            for pa, pb in zip(a.points, b.points[shift:] + b.points[:shift])
        ):
            return True
    return False


def _scan_one(
    params: MapParams, k: int, branch: Branch, found: list[SRkOrbit]
) -> ScanRecord:
    try:
        roots = srk_quadratic(params, k)
    except OverflowError as err:  # sigma**k beyond the double range
        return ScanRecord(k, branch, "precision-limited", None, str(err))
    except DegenerateCoefficientsError as err:  # d5 == 0, c1*lam**k == 1, or qa == 0
        return ScanRecord(k, branch, "degenerate", None, str(err))
    u = roots.get(branch)
    if u is None:
        return ScanRecord(k, branch, "no-real-root", None, "negative discriminant")
    try:
        orbit = assemble_orbit(params, k, u, branch)
        if not orbit.residual <= CLOSING_TOL:  # also flags NaN residuals
            detail = f"closing residual {orbit.residual:.3e}"
            return ScanRecord(k, branch, "precision-limited", None, detail)
        if found and found[-1].k == k and found[-1].points == orbit.points:
            if roots.u_minus == roots.u_plus:
                return ScanRecord(k, branch, "duplicate", None, "double root")
            return ScanRecord(k, branch, "precision-limited", None, "same points as minus")
        return ScanRecord(k, branch, "closed-form", orbit)
    except ItineraryInvalidError as err:
        blend_only = all(region is Region.BLEND for _, region in err.violations)
        if not blend_only:
            return ScanRecord(k, branch, "itinerary-invalid", None, str(err))
        try:
            orbit = newton_periodic(params, _point_above_strip(params, k, u), k + 1)
        except (NoConvergenceError, SingularJacobianError, NotMinimalError, EscapeError) as nerr:
            return ScanRecord(k, branch, "newton-failed", None, str(nerr))
        for other in found:
            if _same_orbit(orbit, other):
                return ScanRecord(
                    k, branch, "duplicate", None, "newton converged onto another branch"
                )
        return ScanRecord(k, branch, "newton", replace(orbit, branch=branch), str(err))


def scan_srk(params: MapParams, k_min: int, k_max: int) -> ScanResult:
    """Attempt both single-round branches for every k in [k_min, k_max].

    The closed form is used where its itinerary is valid; orbits that
    stray into the blend strip (and only there) are re-solved by Newton
    iteration seeded with the closed form.  Per-k failures are recorded,
    never raised.

    Where doubles cannot carry a closed-form orbit it is recorded as
    ``precision-limited``, never labelled: ``sigma**k`` overflows, its
    points do not close to ``CLOSING_TOL`` under ``eval_map``, or the plus
    root gives the minus orbit's points.  An exact double root is a
    ``duplicate``.
    """
    if k_min > k_max:
        raise ValueError("k_min must not exceed k_max")
    records: list[ScanRecord] = []
    found: list[SRkOrbit] = []
    for k in range(k_min, k_max + 1):
        for branch in (Branch.MINUS, Branch.PLUS):
            record = _scan_one(params, k, branch, found)
            records.append(record)
            if record.orbit is not None:
                found.append(record.orbit)
    return ScanResult(records=tuple(records))


# -- CSV export -------------------------------------------------------------

_CSV_HEADER = "k,period,branch,j,x_j,y_j,trace,det,stability,residual"


def orbits_to_csv(orbits: Iterable[SRkOrbit]) -> str:
    """One row per orbit point; floats use shortest round-trip formatting."""
    lines = [_CSV_HEADER]
    for orbit in orbits:
        branch = orbit.branch.value if orbit.branch is not None else ""
        head = f"{orbit.k},{orbit.period},{branch},"
        tail = f",{orbit.trace!r},{orbit.det!r},{orbit.stability.value},{orbit.residual!r}"
        lines.extend(f"{head}{j},{x!r},{y!r}{tail}" for j, (x, y) in enumerate(orbit.points))
    return "\n".join(lines) + "\n"


def orbits_from_csv(text: str) -> list[dict]:
    """Parse an orbit CSV back into per-orbit dicts (points in file order)."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError("unrecognized orbit CSV header")
    grouped: dict[tuple[int, str], dict] = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 10:
            raise ValueError(f"malformed orbit CSV row: {line}")
        k = int(fields[0])
        branch = fields[2]
        key = (k, branch)
        entry = grouped.setdefault(
            key,
            {
                "k": k,
                "period": int(fields[1]),
                "branch": branch,
                "points": [],
                "trace": float(fields[6]),
                "det": float(fields[7]),
                "stability": fields[8],
                "residual": float(fields[9]),
            },
        )
        entry["points"].append(Point2(float(fields[4]), float(fields[5])))
    return list(grouped.values())
