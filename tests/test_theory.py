from __future__ import annotations

import math

import numpy as np
import pytest

from srklab import InsufficientDataError, NegativeDiscriminantError
from srklab.theory import (
    full_report,
    stability_margin,
    trace_growth_experiment,
)


class TestDiscriminant:
    def test_example_cases(self, all_cases):
        for params in all_cases.values():
            assert params.discriminant() == pytest.approx(2.25, rel=1e-14)

    def test_bare_head(self, pp):
        # Only the leading 1 survives when c1 = c2 = d3 = d4 = 0.
        params = pp.replace(c2=0.0)
        assert params.discriminant() == pytest.approx(1.0, rel=1e-14)

    def test_no_real_root_regime(self, pp):
        params = pp.replace(c2=0.0, d3=1.0, c1=1.0)
        assert params.discriminant() == pytest.approx(-7.0, rel=1e-14)

    def test_d1_zero_division(self, pp):
        with pytest.raises(ZeroDivisionError):
            pp.replace(d1=0.0).discriminant()


class TestStabilityMargin:
    def test_example_cases_pass(self, all_cases):
        for params in all_cases.values():
            verdict = stability_margin(params)
            assert verdict.passed
            assert verdict.value == pytest.approx(-0.5, rel=1e-14)

    def test_fail_on_the_right(self, pp):
        # c2*y*/x* = 0.3 with the discriminant pinned at 2.25 via d4.
        params = pp.replace(c2=0.3, d4=-0.8)
        assert params.discriminant() == pytest.approx(2.25, rel=1e-13)
        assert not stability_margin(params).passed

    def test_fail_on_the_left_strict(self, pp):
        assert not stability_margin(pp.replace(c2=-1.0)).passed

    def test_negative_discriminant_raises(self, pp):
        with pytest.raises(NegativeDiscriminantError):
            stability_margin(pp.replace(c2=0.0, d3=1.0, c1=1.0))

    def test_equivalent_to_abs_c2_below_one(self, pp):
        # For c1 = d3 = d4 = 0 and x* = y* the margin check reduces to
        # |c2| < 1.
        for c2 in np.linspace(-1.6, 0.999, 87):
            params = pp.replace(c2=float(c2))
            assert stability_margin(params).passed == (abs(c2) < 1.0)
        assert not stability_margin(pp.replace(c2=1.0000001)).passed


class TestFullReport:
    def test_preserving_cases_pass(self, pp, nn):
        for params in (pp, nn):
            report = full_report(params)
            assert report.orientation == "preserving"
            assert report.parity == "all"
            assert report.hypotheses_pass()
            assert report.discriminant.value == pytest.approx(2.25, rel=1e-14)
            assert report.predicted.delta_inf == pytest.approx(0.5, rel=1e-14)

    def test_reversing_cases_pass_with_parity(self, pn, np_case):
        report = full_report(pn)
        assert report.orientation == "reversing"
        assert report.parity == "even"
        assert report.hypotheses_pass()
        report = full_report(np_case)
        assert report.orientation == "reversing"
        assert report.parity == "odd"
        assert report.hypotheses_pass()

    @pytest.mark.parametrize(
        "override,expected",
        [
            ({"sigma": 1.3}, "eigenvalue_product"),
            ({"d1": 1.1}, "global_resonance"),
            ({"d5": 0.0}, "quadratic_coefficient"),
            ({"c2": 1.1}, "stability_margin"),
        ],
    )
    def test_single_violation_flags_single_condition(self, pp, override, expected):
        report = full_report(pp.replace(**override))
        assert report.failed_conditions() == [expected]

    def test_sigma_violation_clears_orientation(self, pp):
        report = full_report(pp.replace(sigma=1.3))
        assert report.orientation == "neither"
        assert report.parity == "none"
        assert report.eigenvalue_product.value == pytest.approx(1.04)

    def test_resonance_sum_checked_when_preserving(self, pp):
        report = full_report(pp.replace(a1=0.2, b1=0.1))
        assert report.failed_conditions() == ["resonance_sum"]

    def test_resonance_sum_ignored_when_reversing(self, pn):
        report = full_report(pn.replace(a1=0.2, b1=0.1))
        assert not report.resonance_sum.applicable
        assert report.hypotheses_pass()

    def test_d1_zero_never_raises(self, pp):
        report = full_report(pp.replace(d1=0.0))
        assert not report.hypotheses_pass()
        assert "global_resonance" in report.failed_conditions()
        assert report.predicted is None

    def test_serialization_round_trip_keys(self, pp):
        report = full_report(pp)
        data = report.to_dict()
        assert data["hypotheses_pass"] is True
        assert set(data["conditions"]) == set(report._CONDITIONS)
        text = report.to_text()
        assert "PASS" in text and "FAIL" not in text


class TestTraceGrowth:
    def test_unperturbed_flat_and_degenerate(self, pp):
        diag = trace_growth_experiment(pp, 4, 14)
        assert diag.degenerate
        assert diag.fitted_ratio == 1.0
        assert all(abs(t) <= 1e-12 for t in diag.tau_values)

    def test_unviolated_sets_flat(self, all_cases):
        for params in all_cases.values():
            diag = trace_growth_experiment(params, 4, 14)
            assert diag.degenerate

    def test_broken_global_resonance_growth(self, pp):
        # With d1 = 0.99 the minus-branch trace is exactly
        # 1.495 - sqrt(1.495**2 + 0.04*sigma**k): the growth ratio starts
        # near |sigma| while the constant term dominates the discriminant
        # and relaxes to sqrt|sigma| once 0.04*sigma**k takes over
        # (around k = 18).  Frozen values from the closed form:
        diag = trace_growth_experiment(pp.replace(d1=0.99), 6, 16)
        expected = [
            1.495 - math.sqrt(1.495**2 + 0.04 * 1.25**k) for k in range(6, 17)
        ]
        assert list(diag.k_values) == list(range(6, 17))
        for got, want in zip(diag.tau_values, expected):
            assert got == pytest.approx(want, rel=1e-9)
        assert diag.fitted_ratio == pytest.approx(1.2363, abs=2e-4)

    def test_broken_global_resonance_asymptotic_window(self, pp):
        # In the asymptotic window the ratio settles onto sqrt|sigma|.
        diag = trace_growth_experiment(pp.replace(d1=0.99), 25, 40)
        assert abs(diag.fitted_ratio / math.sqrt(1.25) - 1.0) <= 0.10

    def test_injected_d2_growth(self, pp):
        # A d2 perturbation makes the minus-branch trace grow like
        # d2*sigma**k; the fitted ratio lands within 10% of |sigma|.
        diag = trace_growth_experiment(pp.replace(d2=0.05), 6, 16)
        assert abs(diag.fitted_ratio / 1.25 - 1.0) <= 0.10

    def test_insufficient_data(self, pp):
        with pytest.raises(InsufficientDataError):
            trace_growth_experiment(pp, 0, 2)

    def test_reversing_same_parity_fit(self, pn):
        # Only even k exist; the fit runs over them without error.
        diag = trace_growth_experiment(pn.replace(d2=0.05), 4, 16)
        assert all(k % 2 == 0 for k in diag.k_values)
        assert abs(diag.fitted_ratio / 1.25 - 1.0) <= 0.15
