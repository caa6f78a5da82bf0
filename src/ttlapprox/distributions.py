"""Continuous inter-request time distributions.

Each family models the time between successive requests for one content.
All families have a continuous cdf ``G`` with ``G(0) = 0`` and a finite,
strictly positive mean, so the request rate is ``rate = 1/mean``.

Besides the cdf, every distribution exposes the integrated-tail (age)
distribution

    age_cdf(t) = rate * integral_0^t (1 - G(z)) dz,

which is the stationary distribution of the time since (equivalently,
until) the last (next) request, its quantile, and seeded batch samplers
of the gap law and of the residual and age of a stationary gap.  Each
family defines four kernels on 0 < t < inf, each exact
in its own tail: ``_cdf``, ``_ccdf``, ``_pdf`` and ``_age_cdf_ccdf``, the
age cdf and the ccdf together, the value and slope of every Newton step
in the package (Gamma and Erlang take both from one incomplete-gamma call
per point).  The base class takes the limits at t <= 0 and t = inf in one
place, so no kernel sees a point outside its domain; ``age_cdf_ccdf`` is
the fused kernel with its limits.  An age quantile
without a closed form comes from ``monotone_newton``, the package's one
root finder: the age cdf is concave, so Newton from 0 rises to the root
with no bracket.  ``standardize`` rescales to unit mean.
The package's one quadrature rule, ``_adaptive_gauss``, lives here too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .errors import ConfigError, NumericsError, QuadratureError

__all__ = [
    "InterRequestDistribution",
    "Exponential",
    "Gamma",
    "Weibull",
    "Erlang",
    "Hyperexponential",
    "ParetoLomax",
    "distribution_from_config",
]


def _on_support(kernel, t, at_zero, at_inf):
    """kernel(t) where 0 < t < inf; the limit at_zero at t <= 0 and at_inf
    at t = inf.  The kernel sees 1.0 in place of every point outside its
    domain, so it never evaluates one.  A kernel may return values along
    a leading axis, with limits that broadcast against them."""
    a = np.asarray(t, dtype=float)
    inside = (a > 0.0) & (a < np.inf)
    out = np.where(inside, kernel(np.where(inside, a, 1.0)), np.where(a > 0.0, at_inf, at_zero))
    return float(out) if out.ndim == 0 else out


def _check_unit(u):
    if not 0.0 <= u < 1.0:
        raise ConfigError(f"unbounded quantile: u={u!r} outside [0, 1)")


# Quantile residual target relative to u: three times the largest rounding
# error seen in the incomplete-gamma age cdfs (6e-15 u, Gamma(0.05), u = 0.87).
_QUANTILE_RTOL = 2e-14


def monotone_newton(f_and_slope, x0: float, tol: float) -> tuple[float, float, int]:
    """Root of f by Newton's method from x0, returned as (x, |f(x)|, steps).

    ``f_and_slope(x)`` returns ``(f(x), f'(x))`` from one evaluation, so a
    caller whose value and slope share their expensive part computes it
    once per step.  f must be increasing and concave on [x0, root] with
    f(x0) <= 0.  Then each tangent lands between the iterate and the root,
    so the iterates rise monotonically and no bracket is needed.
    Iteration stops once |f| <= tol.

    Raises
    ------
    NumericsError
        if a slope is not positive, or if the iterate stops rising while
        |f| > tol: f is not concave there, x0 lies right of the root, or
        rounding in f outweighs the step before the target is met.
    """
    x, steps = float(x0), 0
    fx, d = f_and_slope(x)
    while not abs(fx) <= tol:  # a NaN residual goes on to fail the rise check
        if not d > 0.0:
            raise NumericsError(f"Newton slope {d!r} at x={x!r} is not positive")
        x_new = x - fx / d
        if not x_new > x:
            raise NumericsError(f"Newton stalled at x={x!r} with residual {abs(fx):.3e} "
                                f"above the target {tol:.3e}")
        x, steps = x_new, steps + 1
        fx, d = f_and_slope(x)
    return x, abs(fx), steps


_GAUSS_LO = np.polynomial.legendre.leggauss(10)
_GAUSS_HI = np.polynomial.legendre.leggauss(20)
_MAX_BISECTIONS = 60
_MAX_PANELS = 4096


def _finite(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise QuadratureError("integrand returned a value that is not finite")
    return v


def _gauss_panels(g, a, h):
    """10- and 20-point Gauss-Legendre sums of g on the panels [a, a + h]."""
    (x10, w10), (x20, w20) = _GAUSS_LO, _GAUSS_HI
    nodes = np.concatenate((x10, x20))
    v = _finite(g((a[:, None] + 0.5 * h[:, None] * (nodes + 1.0)).ravel()))
    v = v.reshape(v.shape[:-1] + (a.size, nodes.size))
    return 0.5 * h * (v[..., :10] @ w10), 0.5 * h * (v[..., 10:] @ w20)


def _adaptive_gauss(g, tol: float):
    """Integral of g over [0, 1] by adaptive Gauss-Legendre on panels, and
    the closed panels as (left ends, 20-point sums), left to right.

    g maps an array of points to values along its last axis, with any
    number of leading components.  Every round evaluates all open panels
    in one call of g.  The error of a panel is the largest difference of
    its 10- and 20-point sums over the components; a panel within its
    share tol * width is closed, and the others are bisected.  The 20-point
    sums are returned once the errors of all panels add up to at most tol.

    Raises
    ------
    QuadratureError
        if g returns a value that is not finite, or if the error does not
        meet tol within _MAX_BISECTIONS bisections or _MAX_PANELS panels.
    """
    a, h = np.zeros(1), np.ones(1)
    closed, closed_err = [], 0.0
    for _ in range(_MAX_BISECTIONS):
        i10, i20 = _gauss_panels(g, a, h)
        err = np.abs(i20 - i10).reshape(-1, a.size).max(axis=0)
        done = closed_err + math.fsum(err.tolist()) <= tol
        ok = np.full(a.size, True) if done else err <= tol * h
        closed.append((a[ok], i20[..., ok]))
        if done:
            a, sums = (np.concatenate(part, axis=-1) for part in zip(*closed))
            order = np.argsort(a)
            return np.sum(sums, axis=-1), (a[order], sums[..., order])
        closed_err += math.fsum(err[ok].tolist())
        a, h = a[~ok], 0.5 * h[~ok]
        a, h = np.concatenate((a, a + h)), np.concatenate((h, h))
        if a.size > _MAX_PANELS:
            break
    raise QuadratureError(f"integral did not meet its tolerance {tol:.1e}")


class InterRequestDistribution:
    """Base class; families define the four kernels, exact on 0 < t < inf,
    the mean, and the two batch samplers.  The base class derives the
    public laws, the age quantile and the unit-mean form from them."""

    # --- family kernels, on 0 < t < inf -----------------------------------

    def _cdf(self, t):
        raise NotImplementedError

    def _ccdf(self, t):
        raise NotImplementedError

    def _pdf(self, t):
        raise NotImplementedError

    def _age_cdf_ccdf(self, t):
        """(age cdf, ccdf) at t, from the work the two share."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        raise NotImplementedError

    def _scaled(self, factor: float) -> "InterRequestDistribution":
        """Return the same shape of distribution with all times multiplied by factor."""
        raise ConfigError(f"{type(self).__name__} cannot be rescaled, so it cannot be a class law")

    # --- shared surface ---------------------------------------------------

    @property
    def rate(self) -> float:
        return 1.0 / self.mean

    def cdf(self, t):
        """P[inter-request time <= t]; zero for t <= 0."""
        return _on_support(self._cdf, t, 0.0, 1.0)

    def ccdf(self, t):
        return _on_support(self._ccdf, t, 1.0, 0.0)

    def pdf(self, t):
        return _on_support(self._pdf, t, 0.0, 0.0)

    def age_cdf(self, t):
        """Integrated-tail cdf: rate * integral_0^t ccdf(z) dz."""
        return _on_support(lambda s: self._age_cdf_ccdf(s)[0], t, 0.0, 1.0)

    def age_cdf_ccdf(self, t):
        """(age_cdf(t), ccdf(t)) from one call of the fused kernel."""
        a = np.asarray(t, dtype=float)
        if a.size and 0.0 < a.min() <= a.max() < np.inf:  # no limit to take: no copies either
            return self._age_cdf_ccdf(a)
        limits = np.reshape((0.0, 1.0, 1.0, 0.0), (2, 2) + (1,) * a.ndim)
        age, ccdf = _on_support(lambda s: np.stack(self._age_cdf_ccdf(s)), a, *limits)
        return age, ccdf

    def age_quantile(self, u: float) -> float:
        """Inverse of age_cdf, by monotone Newton from 0: the age cdf is
        concave because its slope rate * ccdf never increases.

        Raises
        ------
        ConfigError
            if u is outside [0, 1); the age quantile is unbounded at u = 1.
        """
        _check_unit(u)

        def f_and_slope(t):
            age, ccdf = self._age_cdf_ccdf(np.asarray(t))
            return float(age) - u, self.rate * float(ccdf)

        return monotone_newton(f_and_slope, 0.0, _QUANTILE_RTOL * u)[0]

    def standardize(self) -> "InterRequestDistribution":
        """Rescale to unit mean: cdf of the result is G(t / rate_original)."""
        if not 0.0 < self.mean < math.inf:
            raise ConfigError(f"{self!r} has mean {self.mean!r}, not a positive finite number")
        return self._scaled(1.0 / self.mean)

    # --- sampling ----------------------------------------------------------

    def sample_inter_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def sample_straddle_batch(self, rng: np.random.Generator,
                              size: int) -> tuple[np.ndarray, np.ndarray]:
        """(R, A): residual and age of ``size`` independent gaps that
        straddle a stationary time point, exact and without root finding.

        R and A have the joint density g(a + r) / mean: each follows the
        age law, and given R = r, A + r is a gap conditioned to exceed r.
        Where no closed form exists, the equilibrium-renewal identity is
        used: if L has the length-biased law (density x g(x) / mean) and U
        is uniform on (0, 1), then R = U * L and A = (1 - U) * L.  Every
        family draws its R first.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(InterRequestDistribution):
    rate_param: float

    def __post_init__(self):
        if not self.rate_param > 0:
            raise ConfigError(f"exponential rate must be > 0, got {self.rate_param}")

    @property
    def mean(self):
        return 1.0 / self.rate_param

    def _cdf(self, t):
        return -np.expm1(-self.rate_param * t)

    def _ccdf(self, t):
        return np.exp(-self.rate_param * t)

    def _pdf(self, t):
        return self.rate_param * np.exp(-self.rate_param * t)

    def _age_cdf_ccdf(self, t):
        # memoryless: the age distribution coincides with the cdf
        return self._cdf(t), self._ccdf(t)

    def age_quantile(self, u):
        _check_unit(u)
        return -math.log1p(-u) / self.rate_param

    def _scaled(self, f):
        return Exponential(self.rate_param / f)

    def sample_inter_batch(self, rng, size):
        return rng.exponential(1.0 / self.rate_param, size)

    def sample_straddle_batch(self, rng, size):
        # memoryless: the age is an independent draw of the same law
        return (rng.exponential(1.0 / self.rate_param, size),
                rng.exponential(1.0 / self.rate_param, size))


# Largest Gamma shape: log Gamma(k + 1) and scipy's incomplete gammas at the
# largest float x fail from k = 2.53e305 on, where x^k leaves the float range.
_GAMMA_MAX_SHAPE = 1e305


@dataclass(frozen=True)
class Gamma(InterRequestDistribution):
    shape: float
    rate_param: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate_param > 0):
            raise ConfigError("gamma shape and rate must be > 0")
        object.__setattr__(self, "shape", float(self.shape))  # scipy takes no int past 64 bits
        object.__setattr__(self, "rate_param", float(self.rate_param))
        if not self.shape <= _GAMMA_MAX_SHAPE:
            raise ConfigError(f"gamma shape must be at most {_GAMMA_MAX_SHAPE:.4g}, "
                              f"got {self.shape!r}")

    @property
    def mean(self):
        return self.shape / self.rate_param

    def _x(self, t):  # rate * t; the largest float past the range, where every kernel is at its limit
        with np.errstate(over="ignore"):
            return np.minimum(self.rate_param * t, sys.float_info.max)

    def _regularized(self, t):
        """(x, P(k, x), Q(k, x), P(k+1, x)) at x = rate * t, with one
        incomplete-gamma call per point.

        With D = x^k e^-x / Gamma(k+1): below x = k + 1 the series for
        P(k+1, x) converges fast and P(k, x) = P(k+1, x) + D, a sum of
        positive terms; from k + 1 on, the continued fraction gives
        Q(k, x) and Q(k+1, x) = Q(k, x) + D.  Each branch runs only on its
        own points.
        """
        k = self.shape
        x = self._x(t)
        d = np.exp(sc.xlogy(k, x) - x - math.lgamma(k + 1.0))
        p, q, p1 = np.empty_like(x), np.empty_like(x), np.empty_like(x)
        lo = x < k + 1.0
        p1[lo] = sc.gammainc(k + 1.0, x[lo])
        p[lo] = p1[lo] + d[lo]
        q[lo] = 1.0 - p[lo]
        hi = ~lo
        q[hi] = sc.gammaincc(k, x[hi])
        p[hi] = 1.0 - q[hi]
        p1[hi] = 1.0 - (q[hi] + d[hi])
        return x, p, q, p1

    def _cdf(self, t):
        return self._regularized(t)[1]

    def _ccdf(self, t):
        return self._regularized(t)[2]

    def _pdf(self, t):
        x = self._x(t)
        return self.rate_param * np.exp(
            sc.xlogy(self.shape - 1.0, x) - x - sc.gammaln(self.shape))

    def _age_cdf_ccdf(self, t):
        # integral of the ccdf via the partial-expectation identity:
        # int_0^t ccdf = t*ccdf(t) + E[X; X<=t],  E[X; X<=t] = mean * P(shape+1, rate*t);
        # x/k is formed only where Q > 0: below shape 1 it overflows near the
        # float limit, where Q = 0
        x, _, q, p1 = self._regularized(t)
        return np.minimum(np.where(q > 0.0, x, 0.0) / self.shape * q + p1, 1.0), q

    def _scaled(self, f):
        return Gamma(self.shape, self.rate_param / f)

    def sample_inter_batch(self, rng, size):
        return rng.gamma(self.shape, 1.0 / self.rate_param, size)

    def sample_straddle_batch(self, rng, size):
        # the length-biased Gamma(shape, rate) is Gamma(shape + 1, rate)
        u = rng.random(size)
        length = rng.gamma(self.shape + 1.0, 1.0 / self.rate_param, size)
        return u * length, (1.0 - u) * length


class Erlang(Gamma):
    """Gamma law whose shape is an integer number of exponential stages."""

    def __init__(self, stages: int, rate_param: float):
        if isinstance(stages, float) and stages.is_integer():  # 2.0 is two stages
            stages = int(stages)
        if isinstance(stages, bool) or not (isinstance(stages, (int, np.integer)) and stages >= 1):
            raise ConfigError(f"erlang stages must be a positive integer, got {stages}")
        if not rate_param > 0:
            raise ConfigError("erlang rate must be > 0")
        super().__init__(float(stages), rate_param)

    @property
    def stages(self) -> int:
        return int(self.shape)

    def _scaled(self, f):
        return Erlang(self.stages, self.rate_param / f)


@dataclass(frozen=True)
class Weibull(InterRequestDistribution):
    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ConfigError("weibull shape and scale must be > 0")

    @property
    def mean(self):
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def _power(self, t):  # inf past the float range, where every kernel is at its limit
        with np.errstate(over="ignore"):
            return np.power(t / self.scale, self.shape)

    def _cdf(self, t):
        return -np.expm1(-self._power(t))

    def _ccdf(self, t):
        return np.exp(-self._power(t))

    def _pdf(self, t):
        # shape * p e^-p / t with p = (t/scale)^shape: p e^-p <= 1/e, so no
        # factor overflows unless the density does; p = inf is the limit 0
        p = np.minimum(self._power(t), sys.float_info.max)
        return self.shape * (p * np.exp(-p) / t)

    def _age_cdf_ccdf(self, t):
        # same partial-expectation identity; E[X; X<=t] reduces to a lower
        # incomplete gamma in (t/scale)^shape, and both share exp(-z)
        z = self._power(t)
        ccdf = np.exp(-z)
        part = t * ccdf + self.mean * sc.gammainc(1.0 + 1.0 / self.shape, z)
        return np.minimum(part / self.mean, 1.0), ccdf

    def _scaled(self, f):
        return Weibull(self.shape, self.scale * f)

    def sample_inter_batch(self, rng, size):
        return self.scale * rng.weibull(self.shape, size)

    def sample_straddle_batch(self, rng, size):
        # length-biased: (X / scale)^shape is Gamma(1 + 1/shape)
        g = rng.gamma(1.0 + 1.0 / self.shape, 1.0, size)
        u = rng.random(size)
        length = self.scale * np.power(g, 1.0 / self.shape)
        return u * length, (1.0 - u) * length


@dataclass(frozen=True)
class Hyperexponential(InterRequestDistribution):
    weights: tuple
    rates: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        r = np.asarray(self.rates, dtype=float)
        if w.ndim != 1 or w.shape != r.shape or w.size == 0:
            raise ConfigError("hyperexponential weights and rates must be equal-length vectors")
        if np.any(w <= 0) or np.any(r <= 0):
            raise ConfigError("hyperexponential weights and rates must be > 0")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ConfigError(f"hyperexponential weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", tuple(w / w.sum()))
        object.__setattr__(self, "rates", tuple(r))

    @property
    def _w(self):
        return np.asarray(self.weights)

    @property
    def _r(self):
        return np.asarray(self.rates)

    @property
    def mean(self):
        with np.errstate(over="ignore"):  # inf for a subnormal rate: standardize rejects it
            return float(np.sum(self._w / self._r))

    def _rt(self, t):  # -t * r_j; -inf past the float range, where every kernel is at its limit
        with np.errstate(over="ignore"):
            return -np.multiply.outer(t, self._r)

    def _cdf(self, t):
        return -(np.expm1(self._rt(t)) @ self._w)

    def _pdf(self, t):
        return np.exp(self._rt(t)) @ (self._w * self._r)

    def _ccdf(self, t):
        return np.exp(self._rt(t)) @ self._w

    def _age_cdf_ccdf(self, t):
        # age law is again hyperexponential with weights w_j/(r_j * mean);
        # both sums share the outer product
        x = self._rt(t)
        wa = self._w / self._r / self.mean
        return -(np.expm1(x) @ wa), np.exp(x) @ self._w

    def _scaled(self, f):
        return Hyperexponential(self.weights, tuple(r / f for r in self.rates))

    def _mixture_batch(self, rng, size, weights):
        """Draws of the mixture with these phase weights, and their phases."""
        comp = np.searchsorted(np.cumsum(weights), rng.random(size), side="right")
        comp = np.minimum(comp, len(self.rates) - 1)
        return rng.exponential(1.0, size) / self._r[comp], comp

    def sample_inter_batch(self, rng, size):
        return self._mixture_batch(rng, size, self._w)[0]

    def sample_straddle_batch(self, rng, size):
        # the straddling gap's phase j has probability w_j / (r_j * mean);
        # given it, residual and age are independent Exp(r_j)
        residual, comp = self._mixture_batch(rng, size, self._w / self._r / self.mean)
        return residual, rng.exponential(1.0, size) / self._r[comp]


@dataclass(frozen=True)
class ParetoLomax(InterRequestDistribution):
    """Lomax (Pareto type II) law; shape > 1 keeps the mean finite."""

    shape: float
    scale: float

    def __post_init__(self):
        if not self.shape > 1:
            raise ConfigError(f"pareto-lomax shape must be > 1 for a finite mean, got {self.shape}")
        if not self.scale > 0:
            raise ConfigError("pareto-lomax scale must be > 0")

    @property
    def mean(self):
        return self.scale / (self.shape - 1.0)

    def _log1p(self, t):  # inf past the float range, where every kernel is at its limit
        with np.errstate(over="ignore"):
            return np.log1p(t / self.scale)

    def _cdf(self, t):
        return -np.expm1(-self.shape * self._log1p(t))

    def _ccdf(self, t):
        return np.exp(-self.shape * self._log1p(t))

    def _pdf(self, t):
        return (self.shape / self.scale) * np.exp(-(self.shape + 1.0) * self._log1p(t))

    def _age_cdf_ccdf(self, t):
        # the age law is again Lomax with shape-1
        lg = self._log1p(t)
        return -np.expm1(-(self.shape - 1.0) * lg), np.exp(-self.shape * lg)

    def age_quantile(self, u):
        _check_unit(u)
        return self.scale * math.expm1(-math.log1p(-u) / (self.shape - 1.0))

    def _scaled(self, f):
        return ParetoLomax(self.shape, self.scale * f)

    def sample_inter_batch(self, rng, size):
        return self.scale * rng.pareto(self.shape, size)

    def sample_straddle_batch(self, rng, size):
        # the age law is Lomax(shape - 1, scale); given R = r, A + r is a gap
        # beyond r, and the tail of Lomax(shape, scale) beyond r is
        # Lomax(shape, scale + r)
        residual = self.scale * rng.pareto(self.shape - 1.0, size)
        return residual, (self.scale + residual) * rng.pareto(self.shape, size)


_FAMILIES = {
    "exponential": lambda p: Exponential(p["rate"]),
    "gamma": lambda p: Gamma(p["shape"], p["rate"]),
    "weibull": lambda p: Weibull(p["shape"], p["scale"]),
    "erlang": lambda p: Erlang(p["stages"], p["rate"]),
    "hyperexponential": lambda p: Hyperexponential(tuple(p["weights"]), tuple(p["rates"])),
    "pareto_lomax": lambda p: ParetoLomax(p["shape"], p["scale"]),
}


def distribution_from_config(spec: dict) -> InterRequestDistribution:
    """Build a distribution from {"family": ..., "params": {...}} config text;
    an unknown family or a missing or bad parameter raises ConfigError."""
    try:
        family = spec["family"]
        params = spec.get("params", {})
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"malformed distribution config: {spec!r}") from exc
    if not (isinstance(family, str) and family in _FAMILIES):
        raise ConfigError(f"unknown distribution family {family!r}; known: {sorted(_FAMILIES)}")
    try:
        return _FAMILIES[family](params)
    except (KeyError, TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise ConfigError(f"bad parameters for family {family!r}: {params!r}: {exc}") from exc
