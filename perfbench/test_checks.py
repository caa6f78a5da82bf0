"""Each output check of the benchmark fails on a wrong output.

Run from the checkout root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import math

import numpy as np
import pytest

import checks

N_VALUES = (1000, 4000, 16000)


def _rows(**override):
    rows = [{"n": str(n), "status": "ok", "gap_aggregate": "0.001"} for n in N_VALUES]
    rows[-1].update(override)
    return rows


class TestSweep:
    def test_good_rows_pass(self):
        assert checks.check_sweep(0, _rows(), N_VALUES) == []

    def test_failed_status_fails(self):
        assert checks.check_sweep(0, _rows(status="failed: no content"), N_VALUES)

    def test_large_gap_fails(self):
        assert checks.check_sweep(0, _rows(gap_aggregate="0.05"), N_VALUES)

    def test_missing_gap_fails(self):
        assert checks.check_sweep(0, _rows(gap_aggregate="nan"), N_VALUES)

    def test_missing_row_fails(self):
        assert checks.check_sweep(0, _rows()[:2], N_VALUES)

    def test_nonzero_exit_fails(self):
        assert checks.check_sweep(3, _rows(), N_VALUES)


def _payload(hit):
    return {"aggregate_hit": hit, "total_requests": 1000, "tau_samples": 10}


class TestSimulation:
    def test_ttl_within_tolerance_passes(self):
        assert checks.check_simulation(0, _payload(0.7505), 0.7504, checks.TTL_HIT_TOL,
                                       False) == []

    def test_ttl_off_prediction_fails(self):
        assert checks.check_simulation(0, _payload(0.7504 + 2 * checks.TTL_HIT_TOL), 0.7504,
                                       checks.TTL_HIT_TOL, False)

    def test_lru_off_prediction_fails(self):
        assert checks.check_simulation(0, _payload(0.7504 - 2 * checks.LRU_HIT_TOL), 0.7504,
                                       checks.LRU_HIT_TOL, True)

    def test_lru_without_tau_samples_fails(self):
        payload = dict(_payload(0.7504), tau_samples=0)
        assert checks.check_simulation(0, payload, 0.7504, checks.LRU_HIT_TOL, True)

    def test_exit_code_fails(self):
        assert checks.check_simulation(2, None, 0.75, checks.TTL_HIT_TOL, False)


FAMILIES = {
    "exponential": {"rate": 2.0},
    "gamma": {"shape": 0.5, "rate": 1.0},
    "weibull": {"shape": 0.7, "scale": 1.0},
    "hyperexponential": {"weights": [0.9, 0.1], "rates": [1.0, 0.1]},
    "pareto_lomax": {"shape": 3.0, "scale": 1.0},
}


def _solve(family, alpha=0.8, n=2000, C=600.0):
    """Bisection on the reference K, to build a correct curve point."""
    lo, hi = 0.0, 1.0
    while checks.occupancy(family, FAMILIES[family], alpha, n, hi) < C:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if checks.occupancy(family, FAMILIES[family], alpha, n, mid) < C:
            lo = mid
        else:
            hi = mid
    return {"family": family, "params": FAMILIES[family], "alpha": alpha, "n": n, "C": C,
            "T": hi, "residual": 0.0, "hit": 0.5}


class TestCurvePoint:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_reference_root_passes(self, family):
        assert checks.check_curve_point(_solve(family), rtol=1e-9) == []

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_wrong_timer_fails(self, family):
        point = _solve(family)
        point["T"] *= 1.0 + 1e-5
        assert checks.check_curve_point(point, rtol=1e-9)

    def test_residual_above_rtol_fails(self):
        point = dict(_solve("exponential"), residual=1e-3)
        assert checks.check_curve_point(point, rtol=1e-9)

    def test_hit_outside_unit_interval_fails(self):
        point = dict(_solve("exponential"), hit=math.nan)
        assert checks.check_curve_point(point, rtol=1e-9)

    def test_matches_library(self):
        from ttlapprox import ZipfLaw, build_catalog, distribution_from_config, \
            expected_occupancy
        for family, params in FAMILIES.items():
            dist = distribution_from_config({"family": family, "params": params})
            catalog = build_catalog(ZipfLaw(1.2), 500, 500.0, dist)
            for T in (0.01, 0.7, 40.0):
                ref = checks.occupancy(family, params, 1.2, 500, T)
                assert ref == pytest.approx(expected_occupancy(catalog, T), rel=1e-10)


class TestMonotoneAndLimits:
    def test_monotone(self):
        assert checks.check_monotone([0.1, 0.5, 0.9]) == []
        assert checks.check_monotone([0.1, 0.5, 0.4]) == [2]

    def test_limit_residual_fails(self):
        assert checks.check_limit({"residual": 1e-12, "hit_limit": 0.7}, tol=1e-9) == []
        assert checks.check_limit({"residual": 1e-6, "hit_limit": 0.7}, tol=1e-9)
        assert checks.check_limit({"residual": 0.0, "hit_limit": 1.0}, tol=1e-9)

    def test_fagin_disagreement_fails(self):
        assert checks.check_fagin(0.7068549186, 0.7068549190) == []
        assert checks.check_fagin(0.70685, 0.70785)
        assert checks.check_fagin(np.nan, 0.7)
