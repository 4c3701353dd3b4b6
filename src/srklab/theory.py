"""Hypothesis checks for the infinite-coexistence conditions, plus the
trace-growth diagnostic that exhibits the necessity mechanism numerically.

The conditions checked per parameter set:

  * quadratic tangency: d2 = 0 (and d5 != 0),
  * unit eigenvalue product: |lam*sigma| = 1,
  * global resonance: |d1|*x_star/y_star = 1
    (with positive sign required when lam*sigma = +1),
  * resonance-sum cancellation a1 + b1 = 0 (only when lam*sigma = +1),
  * positive root discriminant D,
  * the stability margin -1 < c2*y*/x* < 1 - sqrt(D)/2.

Verdicts are exact-value tests with tolerance 1e-12: parameters are
user-specified constants, not measured quantities.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InsufficientDataError, NegativeDiscriminantError
from .orbits import Branch, scan_srk
from .params import MapParams
from .stability import AsymptoticPrediction, predict_asymptotics

__all__ = [
    "CONDITION_TOL",
    "Verdict",
    "TheoryReport",
    "GrowthDiagnostic",
    "stability_margin",
    "full_report",
    "trace_growth_experiment",
]

CONDITION_TOL = 1e-12

#: Traces at or below this magnitude are treated as exact zeros by the
#: growth fit (the unperturbed family has identically zero traces).
_ZERO_TRACE = 1e-12


@dataclass(frozen=True)
class Verdict:
    passed: bool
    value: float | None = None
    note: str = ""
    applicable: bool = True


@dataclass(frozen=True)
class TheoryReport:
    """Per-condition verdicts plus predicted large-k trace/determinant."""

    orientation: str  # "preserving" | "reversing" | "neither"
    parity: str  # "all" | "even" | "odd" | "none"
    tangency: Verdict
    eigenvalue_product: Verdict
    global_resonance: Verdict
    resonance_sum: Verdict
    quadratic_coefficient: Verdict
    discriminant: Verdict
    stability_margin: Verdict
    predicted: AsymptoticPrediction | None

    # Condition name -> label in the text report, in report order.
    _CONDITIONS = {
        "tangency": "tangency d2 = 0",
        "eigenvalue_product": "|lam*sigma| = 1",
        "global_resonance": "global resonance |d1|x*/y* = 1",
        "resonance_sum": "resonance sum a1 + b1 = 0",
        "quadratic_coefficient": "quadratic coefficient d5 != 0",
        "discriminant": "discriminant D > 0",
        "stability_margin": "stability margin on c2*y*/x*",
    }

    def failed_conditions(self) -> list[str]:
        out = []
        for name in self._CONDITIONS:
            verdict: Verdict = getattr(self, name)
            if verdict.applicable and not verdict.passed:
                out.append(name)
        return out

    def hypotheses_pass(self) -> bool:
        return not self.failed_conditions()

    def to_dict(self) -> dict:
        out = {
            "orientation": self.orientation,
            "parity": self.parity,
            "hypotheses_pass": self.hypotheses_pass(),
            "conditions": {name: asdict(getattr(self, name)) for name in self._CONDITIONS},
        }
        if self.predicted is not None:
            out["predicted"] = asdict(self.predicted)
        return out

    def to_text(self) -> str:
        lines = [
            "coexistence hypothesis report",
            f"  orientation        : {self.orientation}",
            f"  stable-k parity    : {self.parity}",
        ]
        for name, label in self._CONDITIONS.items():
            v: Verdict = getattr(self, name)
            if not v.applicable:
                status = "N/A "
            else:
                status = "PASS" if v.passed else "FAIL"
            value = "" if v.value is None else f"value = {v.value!r}"
            note = f"  ({v.note})" if v.note else ""
            lines.append(f"  {label:34s}: {status}  {value}{note}")
        if self.predicted is not None:
            lines.append(
                "  predicted limits   : "
                f"tau -> {{{self.predicted.tau_inf_minus!r}, {self.predicted.tau_inf_plus!r}}}, "
                f"det -> {self.predicted.delta_inf!r}"
            )
        lines.append(
            f"  overall            : {'PASS' if self.hypotheses_pass() else 'FAIL'}"
        )
        return "\n".join(lines)


def stability_margin(params: MapParams) -> Verdict:
    """Check -1 < c2*y*/x* < 1 - sqrt(D)/2 (both strict).

    Raises ``NegativeDiscriminantError`` when D < 0.  For the example
    family (c1 = d3 = d4 = 0, x* = y*) the check is equivalent to |c2| < 1.
    """
    disc = params.discriminant()
    if disc < 0.0:
        raise NegativeDiscriminantError(f"discriminant is negative: {disc}")
    ratio = params.c2 * params.y_star / params.x_star
    upper = 1.0 - math.sqrt(disc) / 2.0
    passed = (-1.0 < ratio) and (ratio < upper)
    return Verdict(
        passed=passed,
        value=ratio,
        note=f"requires -1 < {ratio!r} < {upper!r}",
    )


def _orientation(params: MapParams) -> str:
    prod = params.eigenvalue_product
    if abs(prod - 1.0) <= CONDITION_TOL:
        return "preserving"
    if abs(prod + 1.0) <= CONDITION_TOL:
        return "reversing"
    return "neither"


def _parity(orientation: str, d1_ratio: float) -> str:
    plus = abs(d1_ratio - 1.0) <= CONDITION_TOL
    minus = abs(d1_ratio + 1.0) <= CONDITION_TOL
    if orientation == "preserving" and plus:
        return "all"
    if orientation == "reversing" and plus:
        return "even"
    if orientation == "reversing" and minus:
        return "odd"
    return "none"


def full_report(params: MapParams) -> TheoryReport:
    """Evaluate every hypothesis; failed subchecks are verdicts, not errors."""
    orientation = _orientation(params)
    prod = params.eigenvalue_product
    d1_ratio = params.d1 * params.x_star / params.y_star

    tangency = Verdict(abs(params.d2) <= CONDITION_TOL, params.d2)
    eig = Verdict(abs(abs(prod) - 1.0) <= CONDITION_TOL, prod)
    resonance_ok = abs(abs(d1_ratio) - 1.0) <= CONDITION_TOL
    if orientation == "preserving":
        # lam*sigma = +1 additionally requires the positive sign of d1.
        resonance_ok = abs(d1_ratio - 1.0) <= CONDITION_TOL
    global_res = Verdict(resonance_ok, d1_ratio)
    res_sum = Verdict(
        abs(params.a1 + params.b1) <= CONDITION_TOL,
        params.a1 + params.b1,
        applicable=(orientation == "preserving"),
    )
    quad = Verdict(abs(params.d5) > CONDITION_TOL, params.d5)

    if params.d1 == 0.0:
        disc_v = Verdict(False, None, note="undefined: d1 = 0")
        margin_v = Verdict(False, None, note="undefined: d1 = 0")
        predicted = None
    else:
        disc = params.discriminant()
        disc_v = Verdict(disc > 0.0, disc)
        if disc < 0.0:
            margin_v = Verdict(False, None, note="negative discriminant")
            predicted = None
        else:
            margin_v = stability_margin(params)
            predicted = predict_asymptotics(params)

    return TheoryReport(
        orientation=orientation,
        parity=_parity(orientation, d1_ratio),
        tangency=tangency,
        eigenvalue_product=eig,
        global_resonance=global_res,
        resonance_sum=res_sum,
        quadratic_coefficient=quad,
        discriminant=disc_v,
        stability_margin=margin_v,
        predicted=predicted,
    )


@dataclass(frozen=True)
class GrowthDiagnostic:
    """Geometric growth fit of |tau_k| over the predicted-stable branch.

    ``fitted_ratio`` is exp(slope) of a least-squares line through
    log|tau_k|; a flat all-zero trace sequence is reported as ratio 1
    with ``degenerate`` set.
    """

    k_values: tuple[int, ...]
    tau_values: tuple[float, ...]
    fitted_ratio: float
    degenerate: bool = False


def trace_growth_experiment(
    params: MapParams, k_min: int, k_max: int
) -> GrowthDiagnostic:
    """Collect tau_k on the minus branch over [k_min, k_max] and fit growth.

    For orientation-reversing parameters only one parity of k exists, so
    the fit automatically runs over same-parity k.  Raises
    ``InsufficientDataError`` when fewer than 4 orbits exist in range.
    """
    minus = [
        r
        for r in scan_srk(params, k_min, k_max).records
        if r.branch is Branch.MINUS and r.orbit is not None
    ]
    ks = [r.k for r in minus]
    taus = [r.orbit.trace for r in minus]
    if len(ks) < 4:
        raise InsufficientDataError(
            f"only {len(ks)} orbits exist in k range [{k_min}, {k_max}]"
        )
    abs_taus = [abs(t) for t in taus]
    if all(t <= _ZERO_TRACE for t in abs_taus):
        return GrowthDiagnostic(tuple(ks), tuple(taus), 1.0, degenerate=True)
    fit_k = [k for k, t in zip(ks, abs_taus) if t > _ZERO_TRACE]
    fit_t = [t for t in abs_taus if t > _ZERO_TRACE]
    if len(fit_k) < 4:
        raise InsufficientDataError(
            f"only {len(fit_k)} nonzero traces in k range [{k_min}, {k_max}]"
        )
    slope = float(np.polyfit(fit_k, np.log(fit_t), 1)[0])
    return GrowthDiagnostic(tuple(ks), tuple(taus), math.exp(slope))
