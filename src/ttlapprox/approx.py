"""Characteristic-time machinery for LRU caches.

The expected number of contents resident in a timer cache with reset
timer T is K(T) = sum_i age_cdf_i(T); the characteristic time of an LRU
cache of capacity C is the unique T with K(T) = C.  K is concave and
increasing, so ``characteristic_time`` finds T by monotone Newton from
the left; each step gets K and K' = sum_i rate_i ccdf_i(T) from one pass
of the class kernels.  The solve has two stages.  A class law's age cdf A
is concave (its slope is the ccdf), so by Jensen's inequality a group g
of one class's contents has sum_{i in g} A(r_i T) <= |g| A(rbar_g T) at
the group's mean rate rbar_g.  Newton first solves U(T) = C for the sum
U >= K of these terms over at most _BOUND_GROUPS rate-sorted groups per
class, a few hundred kernel points; its root T_U lies left of the root of
K, so the full-catalog Newton starts there, typically one step from the
root.  Timer-cache hit probabilities evaluated at that T approximate the
LRU hit probabilities, per content and in aggregate.
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


def _weighted_pass(parts, T: float) -> tuple[float, float]:
    """(sum w A(r T), sum w r ccdf(r T)) over parts (class law, rates r,
    weights w), in one pass of each class kernel, which returns the age
    cdf A and the ccdf together."""
    if not T >= 0:  # NaN fails this too
        raise ConfigError(f"T must be >= 0, got {T}")
    k, slope = [], []
    # scale-family identity: the age cdf (ccdf) of a content at T is the
    # class age cdf (ccdf) at rate*T, whose limit is taken past the float range
    for dist, rates, w in parts:
        with np.errstate(over="ignore"):
            x = rates * T
        age, ccdf = dist.age_cdf_ccdf(x)
        k.append(float(np.sum(w * age)))
        slope.append(float(np.sum(w * rates * ccdf)))
    return math.fsum(k), math.fsum(slope)


def _occupancy_and_slope(catalog: ContentCatalog, T: float) -> tuple[float, float]:
    """(K(T), K'(T)) in one pass over the classes."""
    return _weighted_pass([(dist, catalog.rates[idx], 1.0) for dist, idx in catalog.groups], T)


# Rate-sorted groups per class, at most, in the Jensen bound U >= K that starts the solve.
_BOUND_GROUPS = 512


def _bound_parts(catalog: ContentCatalog) -> list:
    """Per class, (law, group mean rates, group sizes) over geometric rank
    groups of its rate-sorted contents: U(T) = sum_g |g| A(rbar_g T) >= K(T),
    by Jensen's inequality on the concave A."""
    order = catalog.sorted_order
    cls = catalog.class_of[order]
    parts = []
    for c, dist in enumerate(catalog.classes):
        rates = catalog.rates[order[cls == c]]
        if not rates.size:
            continue
        # group k holds the ranks [e_k, e_k+1), e_k = floor((m + 1)^(k / groups)):
        # singletons at the top, where the rates are far apart
        ends = np.unique(((rates.size + 1.0) ** (np.arange(_BOUND_GROUPS + 1) / _BOUND_GROUPS))
                         .astype(np.int64))
        sizes = np.diff(ends)
        parts.append((dist, np.add.reduceat(rates, ends[:-1] - 1) / sizes, sizes))
    return parts


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
    """Solved characteristic time, its residual |K(t) - C| and the Newton
    steps on the full catalog."""

    t: float
    residual: float
    iterations: int


def characteristic_time(catalog: ContentCatalog, C: float,
                        rtol: float = 1e-9) -> CharacteristicTimeResult:
    """Solve K(T) = C by monotone Newton, started at the root of a Jensen
    bound U >= K.

    K is concave and strictly increasing while K < n, so the root is
    unique.  U (see the module docstring) is concave and increasing too,
    and U(T) <= total_rate * T, so Newton on U from C / total_rate rises to
    its root T_U with no bracket.  There K(T_U) <= U(T_U) = C: Newton on K
    from T_U rises to the root of K in turn.

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
    bound = _bound_parts(catalog)

    def bound_and_slope(T):
        u, slope = _weighted_pass(bound, T)
        return u - C, slope

    def f_and_slope(T):
        k, slope = _occupancy_and_slope(catalog, T)
        return k - C, slope

    start = monotone_newton(bound_and_slope, C / catalog.total_rate, rtol * C)[0]
    t, residual, steps = monotone_newton(f_and_slope, start, rtol * C)
    return CharacteristicTimeResult(t, residual, steps)


@dataclass(frozen=True)
class TtlHit:
    """Timer-cache hit probabilities at a fixed timer."""

    per_content: np.ndarray = field(repr=False)
    aggregate: float
    timer: float


def ttl_hit(catalog: ContentCatalog, T: float) -> TtlHit:
    """Per-content hit probabilities cdf_i(T) and their popularity-weighted mean."""
    if not T >= 0:  # NaN fails this too
        raise ConfigError(f"T must be >= 0, got {T}")
    per = np.empty(catalog.n)
    for dist, idx in catalog.groups:
        with np.errstate(over="ignore"):  # rate_i*T past the float range is inf, where cdf is 1
            x = catalog.rates[idx] * T
        per[idx] = dist.cdf(x)
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
