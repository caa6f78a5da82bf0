"""The hypotheses of the convergence theorem, checked on a catalog.

``check_assumptions`` tests, for a catalog, a cache size C and an
envelope psi:

- the envelope: psi's ccdf lies below the standardized ccdf of every
  class, and its mean m_psi lies in (0, 1];
- smoothness: relative-Lipschitz constants of the standardized class
  cdfs (reported only, no pass or fail);
- P1, tail regularity: tail(ceil(kappa1 C)) > gamma tail(floor(kappa2 C));
- C1, linear cache scaling: C <= beta1 n with beta1 < m_psi.

One flat ``AssumptionsReport`` holds the outcome.  ``MaxEnvelope`` is the
envelope for a catalog that mixes families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Gamma, InterRequestDistribution, Weibull, _adaptive_gauss, _gauss_panels
from .errors import ConfigError

__all__ = ["MaxEnvelope", "AssumptionsReport", "check_assumptions"]

_ENVELOPE_GRID = (1e-6, 1e3, 1000)  # the envelope check's log t grid (lo, hi, points)
_ENVELOPE_TOL = 1e-9  # the margin the envelope check forgives
_ENVELOPE_QUAD_TOL = 1e-12  # absolute error target of MaxEnvelope's ccdf integral
_ENVELOPE_LOG_T = 700.0  # MaxEnvelope's ccdf integral stops at t = e^700
_SMOOTHNESS_T_GRID = (1e-4, 1e3, 400)  # the smoothness estimate's log t grid (lo, hi, points)
_SMOOTHNESS_X_POINTS = 40  # relative steps x in (0, rho]


class MaxEnvelope(InterRequestDistribution):
    """Pointwise maximum of the standardized cdfs of several families.

    This is the canonical envelope construction when the catalog mixes
    scale families: its ccdf is the pointwise minimum of the members'
    standardized ccdfs, so it lower-bounds every member by construction,
    and its mean is at most 1.

    The mean integrates the ccdf over t = expm1(u / (1 - u)), u in [0, 1),
    by ``_adaptive_gauss``: the log scale keeps a heavy tail within reach,
    and the Lomax tail cut off at t = e^700 is below 1e-15 for shapes from
    1.05 on.  The age cdf at t adds the closed panels left of t and one
    20-point panel up to t.  No density, rescaling or sampler is defined.
    """

    def __init__(self, members):
        if not members:
            raise ConfigError("MaxEnvelope needs at least one member distribution")
        self.members = tuple(m.standardize() for m in members)
        mean, (self._a, sums) = _adaptive_gauss(self._integrand, _ENVELOPE_QUAD_TOL)
        self._mean = float(mean)
        self._left = np.concatenate(([0.0], np.cumsum(sums)[:-1]))  # integral left of each panel

    def _cdf(self, t):
        return np.maximum.reduce([m._cdf(t) for m in self.members])

    def _ccdf(self, t):
        return np.minimum.reduce([m._ccdf(t) for m in self.members])

    def _integrand(self, u):
        """ccdf(t) dt/du at t = expm1(u / (1 - u)); 0 past t = e^700."""
        v = u / (1.0 - u)
        inside = v < _ENVELOPE_LOG_T
        t = np.expm1(np.where(inside, v, 0.0))
        return np.where(inside, self.ccdf(t) * (1.0 + t), 0.0) * (1.0 + v) ** 2

    @property
    def mean(self) -> float:
        return self._mean

    def _age_cdf_ccdf(self, t):
        s = np.log1p(t)
        u = np.ravel(s / (1.0 + s))
        k = np.searchsorted(self._a, u, side="right") - 1
        part = self._left[k] + _gauss_panels(self._integrand, self._a[k], u - self._a[k])[1]
        return np.minimum(part.reshape(np.shape(t)) / self._mean, 1.0), self._ccdf(t)


@dataclass(frozen=True)
class AssumptionsReport:
    """Outcome of ``check_assumptions``.

    The envelope holds when ``min_margin``, the least of
    ``min_i ccdf*_i(t) - psi.ccdf(t)`` over a log grid of t, is at least
    -1e-9; ``m_psi`` is psi's mean.  Smoothness: B bounds
    |G(t) - G(t +- x t)| <= B x for x in [0, rho] (grid estimate), b0 =
    sup_t t G'(t) is the density route to the same constant, and
    uniform_lipschitz_M = sup G' when the densities are bounded (None when
    a member density diverges at 0).  P1 holds when ``p1_lhs`` =
    tail(ceil(kappa1 C)) exceeds ``p1_rhs`` = gamma tail(floor(kappa2 C)).
    C1 holds when C <= beta1 n and ``c1_margin`` = m_psi - beta1 > 0.
    """

    envelope_holds: bool
    m_psi: float
    min_margin: float
    B: float
    rho: float
    b0: float
    uniform_lipschitz_M: float | None
    p1_holds: bool
    p1_lhs: float
    p1_rhs: float
    c1_holds: bool
    beta1: float
    c1_margin: float

    @property
    def all_hold(self) -> bool:
        return bool(self.envelope_holds and self.p1_holds and self.c1_holds)


def _sup_t_pdf(d) -> float:
    # maximize t*pdf(t): log-grid scan, then a linear rescan of the bracket
    # around the best point (2.8 % of t wide: value error ~1e-10 relative)
    ts = np.geomspace(1e-8, 1e4, 2000)
    vals = ts * d.pdf(ts)
    k = int(np.argmax(vals))
    fine = np.linspace(ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)], 4000)
    return float(max(vals[k], np.max(fine * d.pdf(fine))))


def _smoothness(std, rho: float):
    """(B, b0, uniform_lipschitz_M) of the standardized laws std."""
    t_grid = np.geomspace(*_SMOOTHNESS_T_GRID)
    xs = np.linspace(rho / _SMOOTHNESS_X_POINTS, rho, _SMOOTHNESS_X_POINTS)
    xs = xs[xs > 0]  # a subnormal rho underflows its first steps to 0
    B = 0.0
    for d in std:
        base = d.cdf(t_grid)
        for x in xs:
            up = np.abs(d.cdf(t_grid * (1.0 + x)) - base) / x
            dn = np.abs(base - d.cdf(t_grid * (1.0 - x))) / x
            B = max(B, float(up.max()), float(dn.max()))
    b0 = max(_sup_t_pdf(d) for d in std)
    M = None
    if all(not isinstance(d, (Gamma, Weibull)) or d.shape >= 1.0 for d in std):  # bounded pdfs
        M = max(max(float(np.max(d.pdf(np.geomspace(1e-10, 1e3, 2000)))), float(d.pdf(1e-12)))
                for d in std)
    return B, b0, M


def check_assumptions(catalog, C: float, psi, *, kappa1: float, kappa2: float, gamma: float,
                      beta1: float | None = None, rho: float = 0.5) -> AssumptionsReport:
    """Run the envelope, smoothness, tail-regularity and cache-scaling
    checks and collect pass/fail with margins.

    ``psi`` may be any object with ``ccdf`` and ``mean`` (a parametric
    distribution or a MaxEnvelope).  beta1 defaults to C / n.  A failed
    check is reported, not raised; a tail index past the catalog reads an
    empty tail.

    Raises
    ------
    ConfigError
        before any check runs, if C is not positive and finite, psi's mean
        lies outside (0, 1] (a valid envelope of unit-mean cdfs can never
        have mean above 1), rho outside (0, 1], kappa2 outside [0, 1],
        gamma outside (0, 1) or kappa1 below 0.
    """
    m_psi = float(psi.mean)
    if not (C > 0.0 and math.isfinite(C)):
        raise ConfigError(f"cache size C must be positive and finite, got {C}")
    if not 0.0 < m_psi <= 1.0 + _ENVELOPE_TOL:
        raise ConfigError(f"invalid envelope: mean {m_psi!r} outside (0, 1]")
    if not 0.0 < rho <= 1.0:
        raise ConfigError(f"rho must be in (0, 1], got {rho}")
    if not 0.0 <= kappa2 <= 1.0:
        raise ConfigError(f"kappa2 must be in [0, 1], got {kappa2}")
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"gamma must be in (0, 1), got {gamma}")
    if not kappa1 >= 0.0:
        raise ConfigError(f"kappa1 must be >= 0, got {kappa1}")
    std = [d.standardize() for d in catalog.classes]
    grid = np.geomspace(*_ENVELOPE_GRID)
    margin = np.minimum.reduce([d.ccdf(grid) for d in std]) - psi.ccdf(grid)
    min_margin = float(margin.min())
    B, b0, M = _smoothness(std, rho)
    n = catalog.n
    hi, lo = kappa1 * C, kappa2 * C
    lhs = catalog.tail(math.ceil(hi)) if hi <= n else 0.0
    rhs = gamma * (catalog.tail(math.floor(lo)) if lo <= n else 0.0)
    beta1 = beta1 if beta1 is not None else C / n
    return AssumptionsReport(
        envelope_holds=bool(min_margin >= -_ENVELOPE_TOL), m_psi=m_psi, min_margin=min_margin,
        B=B, rho=rho, b0=b0, uniform_lipschitz_M=M,
        p1_holds=bool(lhs > rhs), p1_lhs=lhs, p1_rhs=rhs,
        c1_holds=bool(C <= beta1 * n + 1e-12 and beta1 < m_psi), beta1=beta1,
        c1_margin=m_psi - beta1)
