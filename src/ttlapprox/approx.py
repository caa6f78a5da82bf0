"""Characteristic-time machinery for LRU caches.

The expected number of contents resident in a timer cache with reset
timer T is K(T) = sum_i age_cdf_i(T); the characteristic time of an LRU
cache of capacity C is the unique T with K(T) = C.  K is concave and
increasing, so ``characteristic_time`` finds T by monotone Newton from
the left; each step gets K and K' = sum_i rate_i ccdf_i(T) from one pass
of the class kernels.  Timer-cache hit probabilities evaluated at that T
approximate the LRU hit probabilities, per content and in aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import monotone_newton
from .errors import ConfigError
from .popularity import ContentCatalog

__all__ = [
    "expected_occupancy",
    "occupancy_derivative",
    "miss_probability",
    "tn_bracket",
    "CharacteristicTimeResult",
    "characteristic_time",
    "TtlHit",
    "ttl_hit",
    "ConcentrationCurve",
    "concentration_curve",
]


def _occupancy_and_slope(catalog: ContentCatalog, T: float) -> tuple[float, float]:
    """(K(T), K'(T)) in one pass over the classes: each class kernel returns
    the age cdf and the ccdf of its contents together."""
    if T < 0:
        raise ConfigError(f"T must be >= 0, got {T}")
    if T == math.inf:  # every content resident, none missing: the kernels' limits
        return float(catalog.n), 0.0
    k, slope = [], []
    # scale-family identity: the age cdf (ccdf) of content i at T is the
    # class age cdf (ccdf) at rate_i*T
    for dist, idx in catalog.groups:
        rates = catalog.rates[idx]
        age, ccdf = dist._age_cdf_ccdf(rates * T)
        k.append(float(np.sum(age)))
        slope.append(float(np.sum(rates * ccdf)))
    return math.fsum(k), math.fsum(slope)


def expected_occupancy(catalog: ContentCatalog, T: float) -> float:
    """K(T): expected number of timer-resident contents at timer T."""
    return _occupancy_and_slope(catalog, T)[0]


def occupancy_derivative(catalog: ContentCatalog, T: float) -> float:
    """K'(T) = sum_i rate_i * ccdf_i(T), the aggregate miss rate at timer T."""
    return _occupancy_and_slope(catalog, T)[1]


def miss_probability(catalog: ContentCatalog, T: float) -> float:
    """Aggregate miss probability of the timer cache: K'(T) / total_rate."""
    return occupancy_derivative(catalog, T) / catalog.total_rate


def tn_bracket(catalog: ContentCatalog, C: float, psi, n1: int | None = None,
               n2: int = 0) -> tuple[float, float]:
    """Analytic bracket for the characteristic time.

    lower = (C - n2) / (total_rate * tail(n2)) and
    upper = nu0 / rate_of_rank(n1), with nu0 the smallest value whose
    envelope age cdf reaches C / (n1 * m_psi).  Requires C < n * m_psi for
    a valid n1 (defaults to n); n2 must be <= C.
    """
    n = catalog.n
    m_psi = float(psi.mean)
    if C >= n * m_psi:
        raise ConfigError(
            f"cache too large for envelope: C={C} >= n*m_psi={n * m_psi:.6g}")
    if n1 is None:
        n1 = n
    if not (C / m_psi < n1 <= n):
        raise ConfigError(f"n1 must lie in (C/m_psi, n] = ({C / m_psi:.6g}, {n}], got {n1}")
    if not 0 <= n2 <= C:
        raise ConfigError(f"n2 must lie in [0, C], got {n2}")
    tail2 = catalog.tail(int(n2))
    lower = (C - n2) / (catalog.total_rate * tail2) if tail2 > 0 else 0.0
    nu0 = psi.age_quantile(C / (n1 * m_psi))
    rank_rate = catalog.rates[catalog.sorted_order[n1 - 1]]
    upper = nu0 / rank_rate
    return lower, upper


@dataclass(frozen=True)
class CharacteristicTimeResult:
    """Solved characteristic time, its residual |K(t) - C| and Newton steps."""

    t: float
    residual: float
    iterations: int


def characteristic_time(catalog: ContentCatalog, C: float,
                        rtol: float = 1e-9) -> CharacteristicTimeResult:
    """Solve K(T) = C by monotone Newton from T = C / total_rate.

    K is concave and strictly increasing while K < n, so the root is
    unique, and K(T) <= total_rate * T puts the start at or left of it:
    the Newton iterates rise monotonically to the root with no bracket.

    Raises
    ------
    ConfigError
        if C is not inside (0, n), where K saturates at n, or if rtol is
        not a positive finite number.
    NumericsError
        if the residual target rtol*C is not met.
    """
    n = catalog.n
    if not 0.0 < C < n:
        raise ConfigError(f"infeasible occupancy: C must be in (0, n), got C={C}, n={n}")
    if not (math.isfinite(rtol) and rtol > 0.0):
        raise ConfigError(f"rtol must be a positive finite number, got {rtol!r}")
    def f_and_slope(T):
        k, slope = _occupancy_and_slope(catalog, T)
        return k - C, slope

    t, residual, steps = monotone_newton(f_and_slope, C / catalog.total_rate, rtol * C)
    return CharacteristicTimeResult(t, residual, steps)


@dataclass(frozen=True)
class TtlHit:
    """Timer-cache hit probabilities at a fixed timer."""

    per_content: np.ndarray = field(repr=False)
    aggregate: float
    timer: float


def ttl_hit(catalog: ContentCatalog, T: float) -> TtlHit:
    """Per-content hit probabilities cdf_i(T) and their popularity-weighted mean."""
    if T < 0:
        raise ConfigError(f"T must be >= 0, got {T}")
    per = np.empty(catalog.n)
    for dist, idx in catalog.groups:
        per[idx] = dist.cdf(catalog.rates[idx] * T)
    aggregate = float(np.dot(catalog.popularity, per))
    return TtlHit(per_content=per, aggregate=aggregate, timer=T)


@dataclass(frozen=True)
class ConcentrationCurve:
    """Exponential bounds on how far the reuse-window width strays from the
    characteristic time, derived from a Kolmogorov-type inequality.

    bound_upper(x) bounds P[window > (1+x)T]; bound_lower(x) bounds
    P[window < (1-x)T] and is informative only once phi*x*C >= 1 (it
    returns the vacuous 1.0 below that).  Valid for 0 <= x <= min(1, x0).
    """

    phi: float
    x0: float
    C: float
    nu0: float

    def bound_upper(self, x):
        x = np.asarray(x, dtype=float)
        val = np.exp(-(self.phi * x * self.C) ** 2 / (4.0 * (1.0 + x) * self.C + 4.0))
        return float(val) if val.ndim == 0 else val

    def bound_lower(self, x):
        x = np.asarray(x, dtype=float)
        arg = self.phi * x * self.C
        val = np.where(arg >= 1.0,
                       np.exp(-(arg - 1.0) ** 2 / (4.0 * self.C + 4.0)), 1.0)
        return float(val) if val.ndim == 0 else val

    def two_sided(self, x):
        return self.bound_upper(x) + self.bound_lower(x)


def concentration_curve(kappa1: float, kappa2: float, gamma: float, psi, C: float,
                        beta1: float, x0: float = 1.0) -> ConcentrationCurve:
    """Build the concentration bounds for capacity C under tail parameters.

    phi = (1 - kappa2) * gamma * psi.ccdf((1 + x0) * nu0) with nu0 the
    smallest solution of the envelope age cdf reaching beta1/m_psi.  The
    minimal nu0 (the quantile) gives the tightest curve; x0 defaults to 1
    so the bounds cover x in [0, 1].
    """
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"gamma must be in (0, 1), got {gamma}")
    if not 0.0 <= kappa2 <= 1.0:
        raise ConfigError(f"kappa2 must be in [0, 1], got {kappa2}")
    if x0 <= 0:
        raise ConfigError(f"x0 must be positive, got {x0}")
    m_psi = float(psi.mean)
    if beta1 >= m_psi:
        raise ConfigError(f"infeasible: beta1={beta1} >= m_psi={m_psi:.6g}")
    if kappa1 <= 1.0 / m_psi:
        raise ConfigError(f"kappa1 must exceed 1/m_psi={1.0 / m_psi:.6g}, got {kappa1}")
    nu0 = psi.age_quantile(beta1 / m_psi)
    psibar = float(psi.ccdf((1.0 + x0) * nu0))
    if psibar <= 0.0:
        raise ConfigError("infeasible: envelope ccdf vanishes at (1+x0)*nu0")
    phi = (1.0 - kappa2) * gamma * psibar
    return ConcentrationCurve(phi=phi, x0=x0, C=C, nu0=nu0)
