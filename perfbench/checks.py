"""Output checks for the benchmark workloads.

Each check takes the outputs of one operation (one CLI call or one library
solve) and returns a list of failure messages; an empty list means the
output is correct.  The reference values are computed here with numpy and
scipy.special, not with ttlapprox, except where the check is an agreement
between two of the package's own independent paths.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sc

# Absolute tolerance on |simulated - predicted| aggregate hit ratio.  The
# TTL prediction is exact for renewal streams, so its tolerance only covers
# Monte Carlo noise (about 5e-4 at the workload's size); the LRU tolerance
# also covers the error of the characteristic-time approximation itself
# (about 2e-3 at n = 5000).
SWEEP_GAP_TOL = 0.01
TTL_HIT_TOL = 0.005
LRU_HIT_TOL = 0.01
# Relative tolerance on K(T) recomputed independently versus C; the solver
# meets 1e-9 and the two kernels differ in rounding only.
K_AGREEMENT_RTOL = 1e-7
# |hit_limit - ttl_hit(fagin_catalog)| for the Exponential model.
FAGIN_TOL = 1e-6


def check_sweep(rc: int, rows: list[dict], n_values) -> list[str]:
    """CLI convergence-sweep: exit 0, one ``ok`` row per n, bounded gap."""
    if rc != 0:
        return [f"convergence-sweep exited with {rc}"]
    failures = []
    if [int(r["n"]) for r in rows] != list(n_values):
        failures.append(f"rows cover n={[r['n'] for r in rows]}, expected {list(n_values)}")
    for r in rows:
        if r["status"] != "ok":
            failures.append(f"n={r['n']}: status {r['status']!r}")
            continue
        gap = float(r["gap_aggregate"])
        if not gap <= SWEEP_GAP_TOL:
            failures.append(f"n={r['n']}: gap_aggregate {gap!r} > {SWEEP_GAP_TOL}")
    return failures


def check_simulation(rc: int, payload: dict | None, predicted: float, tol: float,
                     expect_tau: bool) -> list[str]:
    """CLI simulate: exit 0 and aggregate hit within ``tol`` of ``predicted``."""
    if rc != 0 or payload is None:
        return [f"simulate exited with {rc}"]
    failures = []
    hit = payload["aggregate_hit"]
    if not (isinstance(hit, float) and abs(hit - predicted) <= tol):
        failures.append(f"aggregate_hit {hit!r} vs predicted {predicted!r} (tol {tol})")
    if not payload["total_requests"] > 0:
        failures.append("no measured requests")
    if expect_tau and not payload["tau_samples"] > 0:
        failures.append("no reuse-window samples")
    return failures


# -- independent occupancy K(T) -------------------------------------------


def _age_cdf(family: str, p: dict, t: np.ndarray) -> np.ndarray:
    """Stationary age cdf rate * int_0^t ccdf of the unscaled law."""
    if family == "exponential":
        return -np.expm1(-p["rate"] * t)
    if family == "gamma":
        k, th = p["shape"], p["rate"]
        return th * t / k * sc.gammaincc(k, th * t) + sc.gammainc(k + 1.0, th * t)
    if family == "weibull":
        return sc.gammainc(1.0 / p["shape"], (t / p["scale"]) ** p["shape"])
    if family == "hyperexponential":
        w, r = np.asarray(p["weights"]), np.asarray(p["rates"])
        wa = w / r / np.sum(w / r)
        return -np.expm1(-np.multiply.outer(t, r)) @ wa
    if family == "pareto_lomax":
        return -np.expm1((1.0 - p["shape"]) * np.log1p(t / p["scale"]))
    raise ValueError(f"no reference age cdf for {family!r}")


def _mean(family: str, p: dict) -> float:
    if family == "exponential":
        return 1.0 / p["rate"]
    if family == "gamma":
        return p["shape"] / p["rate"]
    if family == "weibull":
        return p["scale"] * math.gamma(1.0 + 1.0 / p["shape"])
    if family == "hyperexponential":
        return float(np.sum(np.asarray(p["weights"]) / np.asarray(p["rates"])))
    if family == "pareto_lomax":
        return p["scale"] / (p["shape"] - 1.0)
    raise ValueError(f"no reference mean for {family!r}")


def occupancy(family: str, params: dict, alpha: float, n: int, T: float) -> float:
    """K(T) for a Zipf(alpha) catalog of n contents with total rate n, every
    content following ``family`` rescaled to mean 1/rate_i."""
    w = np.arange(1, n + 1, dtype=float) ** -alpha
    rates = n * w / w.sum()
    return float(np.sum(_age_cdf(family, params, rates * T * _mean(family, params))))


def check_curve_point(point: dict, rtol: float) -> list[str]:
    """One hit-curve point: residual, independent K(T) = C, finite hit."""
    failures = []
    C = point["C"]
    if not point["residual"] <= rtol * C:
        failures.append(f"residual {point['residual']!r} > rtol*C = {rtol * C!r}")
    k = occupancy(point["family"], point["params"], point["alpha"], point["n"], point["T"])
    if not abs(k - C) <= K_AGREEMENT_RTOL * C:
        failures.append(f"independent K(T) = {k!r}, expected C = {C!r}")
    if not 0.0 < point["hit"] < 1.0:
        failures.append(f"aggregate hit {point['hit']!r} outside (0, 1)")
    return failures


def check_monotone(values) -> list[int]:
    """Indices i > 0 where values[i] < values[i - 1]."""
    return [i for i in range(1, len(values)) if values[i] < values[i - 1]]


def check_limit(result: dict, tol: float) -> list[str]:
    """One (model, beta0) limit: residual within tol, hit limit in (0, 1)."""
    failures = []
    if not result["residual"] <= tol:
        failures.append(f"nu0 residual {result['residual']!r} > {tol}")
    if not 0.0 < result["hit_limit"] < 1.0:
        failures.append(f"hit_limit {result['hit_limit']!r} outside (0, 1)")
    return failures


def check_fagin(hit_limit: float, ttl_hit_fagin: float) -> list[str]:
    """Exponential model: the limit agrees with ttl_hit on its own catalog."""
    if abs(hit_limit - ttl_hit_fagin) <= FAGIN_TOL:
        return []
    return [f"hit_limit {hit_limit!r} vs ttl_hit on fagin_catalog {ttl_hit_fagin!r}"]
