"""Experiment harness: convergence sweeps, assumption checking, emission.

A convergence sweep builds a catalog per n, solves the characteristic
time, predicts timer-cache hit probabilities, simulates the LRU cache,
and reports per-content and aggregate gaps with Monte Carlo standard
errors.  Per-content maxima are restricted to contents averaging at least
``cutoff_requests`` measured requests per replication, because below that
the estimator noise, not the approximation, dominates the maximum; the
number of excluded contents is reported with each row.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import approx, asymptotics, simulator
from .densities import PowerLawDensity
from .distributions import check_envelope, check_smoothness
from .errors import ConfigError, NumericsError
from .popularity import ZipfLaw, build_catalog, check_P1

__all__ = [
    "SweepSpec",
    "ConvergenceRow",
    "convergence_sweep",
    "AssumptionParams",
    "C1Report",
    "AssumptionsReport",
    "check_assumptions",
    "emit",
    "EMIT_COLUMNS",
]


@dataclass(frozen=True)
class SweepSpec:
    """Sweep over catalog sizes at a fixed cache-to-catalog ratio."""

    n_values: tuple
    beta: float
    law: object
    family_assignment: object
    events_per_point: int
    replications: int
    seed: int = 0
    total_rate: float | None = None  # None: total rate n (unit mean rate per content)
    cutoff_requests: float = 1000.0

    def __post_init__(self):
        ns = tuple(int(v) for v in self.n_values)
        if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError("n_values must be a nonempty increasing sequence")
        object.__setattr__(self, "n_values", ns)
        for n in ns:
            if not (0.0 < self.beta < 1.0 and 0 < round(self.beta * n) < n):
                raise ConfigError(f"beta={self.beta} gives infeasible cache size at n={n}")
        if self.events_per_point < 1 or self.replications < 1:
            raise ConfigError("events_per_point and replications must be >= 1")


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    C_n: int
    T_n: float
    gap_max: float
    gap_aggregate: float
    stderr_max: float
    stderr_agg: float
    fagin_limit: float | None
    curve_quartic: float
    curve_sqrt: float
    status: str = "ok"
    measured_contents: int = 0
    excluded_contents: int = 0
    aggregate_hit_sim: float = float("nan")
    aggregate_hit_ttl: float = float("nan")


def _fagin_reference(spec: SweepSpec) -> object | None:
    """Limit model for the sweep workload when one exists (single-class
    Zipf with exponent < 1)."""
    law, fam = spec.law, spec.family_assignment
    if not (isinstance(law, ZipfLaw) and law.alpha < 1.0 and hasattr(fam, "standardize")):
        return None
    density = PowerLawDensity(1.0 - law.alpha, law.alpha)  # constant 1 at alpha = 0
    cls = asymptotics.ModelClass(1.0, density, fam.standardize())
    return asymptotics.AsymptoticModel((cls,), spec.beta)


def _row_config(spec: SweepSpec, n: int):
    """(characteristic time, timer-cache hits, LRU simulation config) at n."""
    C = int(round(spec.beta * n))
    total_rate = float(n) if spec.total_rate is None else spec.total_rate
    catalog = build_catalog(spec.law, n, total_rate, spec.family_assignment)
    ct = approx.characteristic_time(catalog, float(C))
    ttl = approx.ttl_hit(catalog, ct.t)
    config = simulator.SimulationConfig(
        catalog=catalog, policy=simulator.LRU(C), horizon_events=spec.events_per_point,
        seed=spec.seed, replications=spec.replications)
    return ct, ttl, config


def _row(spec: SweepSpec, fagin: float | None, ct, ttl, config, report) -> ConvergenceRow:
    if isinstance(report, Exception):
        raise report
    n, C = config.catalog.n, config.policy.capacity
    frequent = report.requests / spec.replications >= spec.cutoff_requests
    measured = int(frequent.sum())
    if measured == 0:
        raise NumericsError(f"no content reached the {spec.cutoff_requests} request cutoff")
    gaps = np.abs(report.hit_ratio - ttl.per_content)
    imax = int(np.argmax(np.where(frequent, gaps, -np.inf)))
    stderr_max = float(report.hit_ratio_stderr[imax]) if report.hit_ratio_stderr is not None \
        else float("nan")
    gap_agg = abs(report.aggregate_hit - ttl.aggregate)
    stderr_agg = report.aggregate_stderr if report.aggregate_stderr is not None else float("nan")
    return ConvergenceRow(
        n=n, C_n=C, T_n=ct.t,
        gap_max=float(gaps[imax]), gap_aggregate=gap_agg,
        stderr_max=stderr_max, stderr_agg=stderr_agg,
        fagin_limit=fagin,
        curve_quartic=asymptotics.rate_curve("quartic", C),
        curve_sqrt=asymptotics.rate_curve("sqrt", C),
        status="ok", measured_contents=measured, excluded_contents=n - measured,
        aggregate_hit_sim=report.aggregate_hit, aggregate_hit_ttl=ttl.aggregate)


def _failed_row(spec: SweepSpec, n: int, fagin: float | None, exc: Exception) -> ConvergenceRow:
    nan = float("nan")
    C = int(round(spec.beta * n))
    return ConvergenceRow(
        n=n, C_n=C, T_n=nan, gap_max=nan, gap_aggregate=nan,
        stderr_max=nan, stderr_agg=nan, fagin_limit=fagin,
        curve_quartic=asymptotics.rate_curve("quartic", C) if C > 1 else nan,
        curve_sqrt=asymptotics.rate_curve("sqrt", C) if C > 1 else nan,
        status=f"failed: {exc}")


def convergence_sweep(spec: SweepSpec, workers: int | None = None) -> list[ConvergenceRow]:
    """One row per n; solver or simulator failures mark the row and the
    sweep continues.

    Every row is set up first (catalog, solve, prediction); then all
    replications of all rows run in one `simulator._replicate_all` call.
    """
    model = _fagin_reference(spec)
    fagin = asymptotics.hit_limit(model) if model is not None else None
    rows, ready = {}, {}
    for n in spec.n_values:
        try:
            ready[n] = _row_config(spec, n)
        except (ConfigError, NumericsError) as exc:
            rows[n] = _failed_row(spec, n, fagin, exc)
    reports = simulator._replicate_all([config for *_, config in ready.values()], workers)
    for (n, setup), report in zip(ready.items(), reports):
        try:
            rows[n] = _row(spec, fagin, *setup, report)
        except (ConfigError, NumericsError) as exc:
            rows[n] = _failed_row(spec, n, fagin, exc)
    return [rows[n] for n in spec.n_values]


@dataclass(frozen=True)
class AssumptionParams:
    kappa1: float
    kappa2: float
    gamma: float
    beta1: float | None = None  # default: C/n
    rho: float = 0.5


@dataclass(frozen=True)
class C1Report:
    """Linear cache-scaling feasibility: C <= beta1*n with beta1 < m_psi."""

    beta1: float
    m_psi: float
    n: int
    C: float
    holds: bool
    margin: float


@dataclass(frozen=True)
class AssumptionsReport:
    envelope: object
    smoothness: object
    p1: object
    c1: C1Report

    @property
    def all_hold(self) -> bool:
        return bool(self.envelope.holds and self.p1.holds and self.c1.holds)


def check_assumptions(catalog, C: float, psi, params: AssumptionParams) -> AssumptionsReport:
    """Run the envelope, smoothness, tail-regularity and cache-scaling
    checks and collect pass/fail with margins (report-only; never raises
    on a failed check)."""
    env = check_envelope(list(catalog.classes), psi)
    smooth = check_smoothness(list(catalog.classes), params.rho)
    try:
        p1 = check_P1(catalog, C, params.kappa1, params.kappa2, params.gamma)
    except ConfigError:
        if not params.kappa1 * C > catalog.n:
            raise
        # kappa1*C beyond the catalog: the tail there is empty, so the
        # inequality cannot hold; report the failure instead of raising.
        # kappa1 = 0 still checks kappa2 and gamma and gives the right side.
        p1 = replace(check_P1(catalog, C, 0.0, params.kappa2, params.gamma),
                     kappa1=params.kappa1, lhs=0.0, holds=False)
    beta1 = params.beta1 if params.beta1 is not None else C / catalog.n
    holds = (C <= beta1 * catalog.n + 1e-12) and (beta1 < env.m_psi)
    c1 = C1Report(beta1=beta1, m_psi=env.m_psi, n=catalog.n, C=C,
                  holds=bool(holds), margin=env.m_psi - beta1)
    return AssumptionsReport(envelope=env, smoothness=smooth, p1=p1, c1=c1)


EMIT_COLUMNS = ("n", "C_n", "T_n", "gap_max", "gap_aggregate", "stderr_max",
                "stderr_agg", "fagin_limit", "curve_quartic", "curve_sqrt", "status")


def _cell(value):
    if value is None:
        return None
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def emit(rows, path, fmt: str = "csv") -> str:
    """Write sweep rows with a fixed column order; returns the path written.

    CSV uses minimal RFC-4180 quoting with repr-precision floats; JSON is
    an array of objects with the same field names and values (missing
    values are empty cells / null).
    """
    path = str(path)
    records = [{col: _cell(getattr(r, col)) for col in EMIT_COLUMNS} for r in rows]
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(EMIT_COLUMNS)
            for rec in records:
                w.writerow(["" if rec[c] is None
                            else (repr(rec[c]) if isinstance(rec[c], float) else rec[c])
                            for c in EMIT_COLUMNS])
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(records, fh, indent=2, allow_nan=False)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown emit format {fmt!r}; use 'csv' or 'json'")
    return path
