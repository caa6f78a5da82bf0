"""Continuous inter-request time distributions.

Each family models the time between successive requests for one content.
All families have a continuous cdf ``G`` with ``G(0) = 0`` and a finite,
strictly positive mean, so the request rate is ``rate = 1/mean``.

Besides the cdf, every distribution exposes the integrated-tail (age)
distribution

    age_cdf(t) = rate * integral_0^t (1 - G(z)) dz,

which is the stationary distribution of the time since (equivalently,
until) the last (next) request, plus quantiles and seeded samplers for
both laws.  The private ``_age_cdf_ccdf`` returns the age cdf and the
ccdf together, the value and slope of every Newton step in the package;
Gamma (and Erlang), Weibull and Hyperexponential compute the two from
shared work, Gamma with one incomplete-gamma call per point.  Quantiles
without a closed form come from ``monotone_newton``, the package's one
root finder: both cdfs are concave where it is used, so Newton from 0
rises to the root with no bracket.  ``standardize`` rescales to unit
mean, the form used by envelope and smoothness checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, optimize
from scipy import special as sc

from .errors import ConfigError, NumericsError

__all__ = [
    "InterRequestDistribution",
    "Exponential",
    "Gamma",
    "Weibull",
    "Erlang",
    "Hyperexponential",
    "ParetoLomax",
    "MaxEnvelope",
    "EnvelopeReport",
    "SmoothnessReport",
    "check_envelope",
    "check_smoothness",
    "distribution_from_config",
]


def _as_array(t):
    a = np.asarray(t, dtype=float)
    return a, (a.ndim == 0)


def _ret(a, scalar):
    return float(a) if scalar else a


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


class InterRequestDistribution:
    """Base class; concrete families implement cdf/pdf/age_cdf closed forms."""

    # --- family-specific primitives -------------------------------------

    def _cdf(self, t):  # t: nonnegative ndarray
        raise NotImplementedError

    def _ccdf(self, t):  # overridden where 1 - cdf rounds to 0 in the tail
        return 1.0 - self._cdf(t)

    def _pdf(self, t):
        raise NotImplementedError

    def _age_cdf(self, t):
        raise NotImplementedError

    def _age_cdf_ccdf(self, t):
        """(age cdf, ccdf) at t; families whose two share work override it."""
        return self._age_cdf(t), self._ccdf(t)

    @property
    def mean(self) -> float:
        raise NotImplementedError

    def _scaled(self, factor: float) -> "InterRequestDistribution":
        """Return the same shape of distribution with all times multiplied by factor."""
        raise NotImplementedError

    # --- shared surface ---------------------------------------------------

    @property
    def rate(self) -> float:
        return 1.0 / self.mean

    def cdf(self, t):
        """P[inter-request time <= t]; zero for t < 0 by convention."""
        a, scalar = _as_array(t)
        out = np.where(a > 0, self._cdf(np.maximum(a, 0.0)), 0.0)
        return _ret(out, scalar)

    def ccdf(self, t):
        a, scalar = _as_array(t)
        out = np.where(a > 0, self._ccdf(np.maximum(a, 0.0)), 1.0)
        return _ret(out, scalar)

    def pdf(self, t):
        a, scalar = _as_array(t)
        mask = a > 0
        out = np.where(mask, self._pdf(np.where(mask, a, 1.0)), 0.0)
        return _ret(out, scalar)

    def age_cdf(self, t):
        """Integrated-tail cdf: rate * integral_0^t ccdf(z) dz."""
        a, scalar = _as_array(t)
        out = np.where(a > 0, self._age_cdf(np.maximum(a, 0.0)), 0.0)
        return _ret(out, scalar)

    def age_pdf(self, t):
        a, scalar = _as_array(t)
        out = self.rate * np.where(a > 0, self._ccdf(np.maximum(a, 0.0)), 1.0)
        return _ret(np.where(a < 0, 0.0, out), scalar)

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
        return self._scaled(1.0 / self.mean)

    def scaled_to_mean(self, m: float) -> "InterRequestDistribution":
        if m <= 0:
            raise ConfigError(f"mean must be positive, got {m}")
        return self._scaled(m / self.mean)

    # --- sampling ----------------------------------------------------------

    def sample_inter(self, rng: np.random.Generator) -> float:
        return float(self.sample_inter_batch(rng, 1)[0])

    def sample_inter_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def sample_age(self, rng: np.random.Generator) -> float:
        return float(self.sample_age_batch(rng, 1)[0])

    def sample_age_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Exact stationary age draws, without root finding.

        Where no closed form exists, the equilibrium-renewal identity is used:
        if L has the length-biased law (density x g(x) / mean) and U is
        uniform on (0, 1), then U * L has the age law.
        """
        raise NotImplementedError

    # --- config text ---------------------------------------------------------

    def config(self) -> dict:
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

    def _pdf(self, t):
        return self.rate_param * np.exp(-self.rate_param * t)

    def _age_cdf(self, t):
        # memoryless: the age distribution coincides with the cdf
        return -np.expm1(-self.rate_param * t)

    def quantile(self, u):
        _check_unit(u)
        return -math.log1p(-u) / self.rate_param

    def age_quantile(self, u):
        return self.quantile(u)

    def _scaled(self, f):
        return Exponential(self.rate_param / f)

    def sample_inter_batch(self, rng, size):
        return rng.exponential(1.0 / self.rate_param, size)

    def sample_age_batch(self, rng, size):
        return rng.exponential(1.0 / self.rate_param, size)

    def config(self):
        return {"family": "exponential", "params": {"rate": self.rate_param}}


@dataclass(frozen=True)
class Gamma(InterRequestDistribution):
    shape: float
    rate_param: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate_param > 0):
            raise ConfigError("gamma shape and rate must be > 0")

    @property
    def mean(self):
        return self.shape / self.rate_param

    def _regularized(self, t):
        """(x/k, P(k, x), Q(k, x), P(k+1, x)) at x = rate * t, with one
        incomplete-gamma call per point.

        With D = x^k e^-x / Gamma(k+1): below x = k + 1 the series for
        P(k+1, x) converges fast and P(k, x) = P(k+1, x) + D, a sum of
        positive terms; from k + 1 on, the continued fraction gives
        Q(k, x) and Q(k+1, x) = Q(k, x) + D.  Each branch runs only on its
        own points.
        """
        k = self.shape
        x = self.rate_param * t
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
        return x / k, p, q, p1

    def _cdf(self, t):
        return self._regularized(t)[1]

    def _ccdf(self, t):
        return self._regularized(t)[2]

    def _pdf(self, t):
        x = self.rate_param * t
        return self.rate_param * np.exp(
            sc.xlogy(self.shape - 1.0, x) - x - sc.gammaln(self.shape))

    def _age_cdf(self, t):
        return self._age_cdf_ccdf(t)[0]

    def _age_cdf_ccdf(self, t):
        # integral of the ccdf via the partial-expectation identity:
        # int_0^t ccdf = t*ccdf(t) + E[X; X<=t],  E[X; X<=t] = mean * P(shape+1, rate*t)
        xk, _, q, p1 = self._regularized(t)
        return np.minimum(xk * q + p1, 1.0), q

    def quantile(self, u):
        _check_unit(u)
        return float(sc.gammaincinv(self.shape, u)) / self.rate_param

    def _scaled(self, f):
        return Gamma(self.shape, self.rate_param / f)

    def sample_inter_batch(self, rng, size):
        return rng.gamma(self.shape, 1.0 / self.rate_param, size)

    def sample_age_batch(self, rng, size):
        # the length-biased Gamma(shape, rate) is Gamma(shape + 1, rate)
        return rng.random(size) * rng.gamma(self.shape + 1.0, 1.0 / self.rate_param, size)

    def config(self):
        return {"family": "gamma", "params": {"shape": self.shape, "rate": self.rate_param}}


class Erlang(Gamma):
    """Gamma law whose shape is an integer number of exponential stages."""

    def __init__(self, stages: int, rate_param: float):
        if not (isinstance(stages, (int, np.integer)) and stages >= 1):
            raise ConfigError(f"erlang stages must be a positive integer, got {stages}")
        if not rate_param > 0:
            raise ConfigError("erlang rate must be > 0")
        super().__init__(float(stages), rate_param)

    @property
    def stages(self) -> int:
        return int(self.shape)

    def _scaled(self, f):
        return Erlang(self.stages, self.rate_param / f)

    def config(self):
        return {"family": "erlang", "params": {"stages": self.stages, "rate": self.rate_param}}


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

    def _cdf(self, t):
        return -np.expm1(-np.power(t / self.scale, self.shape))

    def _ccdf(self, t):
        return np.exp(-np.power(t / self.scale, self.shape))

    def _pdf(self, t):
        z = t / self.scale
        return (self.shape / self.scale) * np.power(z, self.shape - 1.0) * np.exp(-np.power(z, self.shape))

    def _age_cdf(self, t):
        return self._age_cdf_ccdf(t)[0]

    def _age_cdf_ccdf(self, t):
        # same partial-expectation identity; E[X; X<=t] reduces to a lower
        # incomplete gamma in (t/scale)^shape, and both share exp(-z)
        z = np.power(t / self.scale, self.shape)
        ccdf = np.exp(-z)
        part = t * ccdf + self.mean * sc.gammainc(1.0 + 1.0 / self.shape, z)
        return np.minimum(part / self.mean, 1.0), ccdf

    def quantile(self, u):
        _check_unit(u)
        return self.scale * (-math.log1p(-u)) ** (1.0 / self.shape)

    def _scaled(self, f):
        return Weibull(self.shape, self.scale * f)

    def sample_inter_batch(self, rng, size):
        return self.scale * rng.weibull(self.shape, size)

    def sample_age_batch(self, rng, size):
        # length-biased: (X / scale)^shape is Gamma(1 + 1/shape)
        g = rng.gamma(1.0 + 1.0 / self.shape, 1.0, size)
        return rng.random(size) * self.scale * np.power(g, 1.0 / self.shape)

    def config(self):
        return {"family": "weibull", "params": {"shape": self.shape, "scale": self.scale}}


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
        return float(np.sum(self._w / self._r))

    def _cdf(self, t):
        return -np.einsum("j,...j->...", self._w,
                          np.expm1(-np.multiply.outer(t, self._r)))

    def _pdf(self, t):
        return np.einsum("j,...j->...", self._w * self._r,
                         np.exp(-np.multiply.outer(t, self._r)))

    def _age_cdf(self, t):
        return self._age_cdf_ccdf(t)[0]

    def _age_cdf_ccdf(self, t):
        # age law is again hyperexponential with weights w_j/(r_j * mean);
        # both sums share the outer expm1
        m = np.expm1(-np.multiply.outer(t, self._r))
        wa = self._w / self._r / self.mean
        return (-np.einsum("j,...j->...", wa, m),
                1.0 + np.einsum("j,...j->...", self._w, m))

    def quantile(self, u):
        # a mixture of exponentials has a concave cdf; the slope is _pdf,
        # since pdf(0) is 0 by convention
        _check_unit(u)
        return monotone_newton(lambda t: (self.cdf(t) - u, float(self._pdf(t))), 0.0,
                               _QUANTILE_RTOL * u)[0]

    def _scaled(self, f):
        return Hyperexponential(self.weights, tuple(r / f for r in self.rates))

    def _mixture_batch(self, rng, size, weights):
        comp = np.searchsorted(np.cumsum(weights), rng.random(size), side="right")
        comp = np.minimum(comp, len(self.rates) - 1)
        return rng.exponential(1.0, size) / self._r[comp]

    def sample_inter_batch(self, rng, size):
        return self._mixture_batch(rng, size, self._w)

    def sample_age_batch(self, rng, size):
        # age law: hyperexponential with weights w_j / (r_j * mean)
        return self._mixture_batch(rng, size, self._w / self._r / self.mean)

    def config(self):
        return {"family": "hyperexponential",
                "params": {"weights": list(self.weights), "rates": list(self.rates)}}


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

    def _cdf(self, t):
        return -np.expm1(-self.shape * np.log1p(t / self.scale))

    def _ccdf(self, t):
        return np.exp(-self.shape * np.log1p(t / self.scale))

    def _pdf(self, t):
        return (self.shape / self.scale) * np.exp(-(self.shape + 1.0) * np.log1p(t / self.scale))

    def _age_cdf(self, t):
        # the age law is again Lomax with shape-1
        return -np.expm1(-(self.shape - 1.0) * np.log1p(t / self.scale))

    def quantile(self, u):
        _check_unit(u)
        return self.scale * math.expm1(-math.log1p(-u) / self.shape)

    def age_quantile(self, u):
        _check_unit(u)
        return self.scale * math.expm1(-math.log1p(-u) / (self.shape - 1.0))

    def _scaled(self, f):
        return ParetoLomax(self.shape, self.scale * f)

    def sample_inter_batch(self, rng, size):
        return self.scale * rng.pareto(self.shape, size)

    def sample_age_batch(self, rng, size):
        return self.scale * rng.pareto(self.shape - 1.0, size)

    def config(self):
        return {"family": "pareto_lomax", "params": {"shape": self.shape, "scale": self.scale}}


_FAMILIES = {
    "exponential": lambda p: Exponential(p["rate"]),
    "gamma": lambda p: Gamma(p["shape"], p["rate"]),
    "weibull": lambda p: Weibull(p["shape"], p["scale"]),
    "erlang": lambda p: Erlang(int(p["stages"]), p["rate"]),
    "hyperexponential": lambda p: Hyperexponential(tuple(p["weights"]), tuple(p["rates"])),
    "pareto_lomax": lambda p: ParetoLomax(p["shape"], p["scale"]),
}


def distribution_from_config(spec: dict) -> InterRequestDistribution:
    """Build a distribution from {"family": ..., "params": {...}} config text."""
    try:
        family = spec["family"]
        params = spec.get("params", {})
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"malformed distribution config: {spec!r}") from exc
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ConfigError(f"unknown distribution family {family!r}; "
                          f"known: {sorted(_FAMILIES)}") from None
    try:
        return builder(params)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad parameters for family {family!r}: {params!r}") from exc


class MaxEnvelope:
    """Pointwise maximum of the standardized cdfs of several families.

    This is the canonical envelope construction when the catalog mixes
    scale families: its ccdf is the pointwise minimum of the members'
    standardized ccdfs, so it lower-bounds every member by construction,
    and its mean is at most 1.
    """

    def __init__(self, members, grid_points: int = 4096):
        if not members:
            raise ConfigError("MaxEnvelope needs at least one member distribution")
        self.members = tuple(m.standardize() for m in members)
        self._grid_points = grid_points
        self._mean = None
        self._age_grid = None

    def cdf(self, t):
        a, scalar = _as_array(t)
        out = np.maximum.reduce([m.cdf(a) for m in self.members])
        return _ret(out, scalar)

    def ccdf(self, t):
        a, scalar = _as_array(t)
        out = np.minimum.reduce([m.ccdf(a) for m in self.members])
        return _ret(out, scalar)

    @property
    def mean(self) -> float:
        if self._mean is None:
            val, err = integrate.quad(self.ccdf, 0.0, np.inf, epsabs=1e-11, limit=500)
            if err > 1e-7:
                raise NumericsError(f"envelope mean integral error {err:.2e} too large")
            self._mean = float(val)
        return self._mean

    def _age_table(self):
        # cumulative trapezoid of the min-ccdf on a dense log grid, dense
        # enough for quantile inversion to ~1e-7
        if self._age_grid is None:
            hi = 1.0
            while self.ccdf(hi) > 1e-13 and hi < 1e12:
                hi *= 2.0
            grid = np.concatenate([[0.0], np.geomspace(1e-9, hi, self._grid_points)])
            cc = self.ccdf(grid)
            cum = integrate.cumulative_trapezoid(cc, grid, initial=0.0) / self.mean
            self._age_grid = (grid, np.minimum(cum, 1.0))
        return self._age_grid

    def age_cdf(self, t):
        grid, cum = self._age_table()
        a, scalar = _as_array(t)
        out = np.interp(np.maximum(a, 0.0), grid, cum)
        return _ret(out, scalar)

    def age_quantile(self, u: float) -> float:
        _check_unit(u)
        grid, cum = self._age_table()
        if u >= cum[-1]:
            raise NumericsError(f"envelope age quantile u={u} beyond tabulated range")
        return float(np.interp(u, cum, grid))


@dataclass(frozen=True)
class EnvelopeReport:
    """Outcome of testing a candidate envelope against standardized ccdfs."""

    psi: object
    m_psi: float
    grid: np.ndarray = field(repr=False)
    min_margin: float
    holds: bool


def _default_envelope_grid():
    return np.geomspace(1e-6, 1e3, 1000)


def check_envelope(family, psi, grid=None, tol: float = 1e-9) -> EnvelopeReport:
    """Check that psi's ccdf lower-bounds every standardized member ccdf.

    ``psi`` may be any object with ``ccdf`` and ``mean`` (a parametric
    distribution or a MaxEnvelope).  The check evaluates
    ``min_i ccdf*_i(t) - psi.ccdf(t)`` on the grid; it holds when the
    minimum margin is >= -tol.

    Raises
    ------
    ConfigError
        if psi's mean lies outside (0, 1]; a valid envelope of unit-mean
        cdfs can never have mean above 1.
    """
    if grid is None:
        grid = _default_envelope_grid()
    elif isinstance(grid, tuple):
        lo, hi, num = grid
        grid = np.geomspace(lo, hi, int(num))
    else:
        grid = np.asarray(grid, dtype=float)
    m_psi = float(psi.mean)
    if not 0.0 < m_psi <= 1.0 + tol:
        raise ConfigError(f"invalid envelope: mean {m_psi!r} outside (0, 1]")
    std = [d.standardize() for d in family]
    member_ccdf = np.minimum.reduce([d.ccdf(grid) for d in std])
    margin = member_ccdf - psi.ccdf(grid)
    min_margin = float(margin.min())
    return EnvelopeReport(psi=psi, m_psi=m_psi, grid=grid,
                          min_margin=min_margin, holds=bool(min_margin >= -tol))


@dataclass(frozen=True)
class SmoothnessReport:
    """Relative-Lipschitz constants of a family of standardized cdfs.

    B bounds |G(t) - G(t +- x t)| <= B x for x in [0, rho] (grid estimate),
    b0 = sup_t t G'(t) is the density route to the same constant, and
    uniform_lipschitz_M = sup G' when the densities are bounded (None when
    a member density diverges at 0).
    """

    B: float
    rho: float
    b0: float
    uniform_lipschitz_M: float | None


def _density_bounded(d) -> bool:
    if isinstance(d, Gamma):
        return d.shape >= 1.0
    if isinstance(d, Weibull):
        return d.shape >= 1.0
    return True  # exponential, erlang, hyperexponential, lomax


def _sup_t_pdf(d) -> float:
    # maximize t*pdf(t): log-grid scan plus a bounded local polish
    ts = np.geomspace(1e-8, 1e4, 2000)
    vals = ts * d.pdf(ts)
    k = int(np.argmax(vals))
    lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    res = optimize.minimize_scalar(lambda u: -u * d.pdf(u), bounds=(lo, hi), method="bounded")
    return float(max(vals[k], -res.fun))


def check_smoothness(family, rho: float, t_grid=None, x_points: int = 40) -> SmoothnessReport:
    """Estimate the relative-Lipschitz constants of the standardized family."""
    if not 0.0 < rho <= 1.0:
        raise ConfigError(f"rho must be in (0, 1], got {rho}")
    std = [d.standardize() for d in family]
    if t_grid is None:
        t_grid = np.geomspace(1e-4, 1e3, 400)
    xs = np.linspace(rho / x_points, rho, x_points)
    B = 0.0
    for d in std:
        base = d.cdf(t_grid)
        for x in xs:
            up = np.abs(d.cdf(t_grid * (1.0 + x)) - base) / x
            dn = np.abs(base - d.cdf(t_grid * (1.0 - x))) / x
            B = max(B, float(up.max()), float(dn.max()))
    b0 = max(_sup_t_pdf(d) for d in std)
    if all(_density_bounded(d) for d in std):
        M = max(float(np.max(d.pdf(np.geomspace(1e-10, 1e3, 2000)))) for d in std)
        M = max(M, max(float(d.pdf(1e-12)) for d in std))
    else:
        M = None
    return SmoothnessReport(B=B, rho=rho, b0=b0, uniform_lipschitz_M=M)
