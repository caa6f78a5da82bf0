"""Large-system limits of the characteristic-time approximation.

For catalogs whose popularity approaches a density f on (0, 1] and whose
inter-request laws form scale families, the scaled characteristic time
converges: T_n ~ nu0 / (g_n * Lambda_n), with nu0 the root of

    beta(nu) = sum_j b_j * integral_0^1 psihat_j(nu * f_j(x)) dx = beta0,

where beta0 is the limiting cache-to-catalog ratio.  beta is increasing
and concave, so ``solve_nu0`` finds nu0 by the same monotone Newton that
solves K(T) = C at finite n.  The limiting aggregate hit probability is
sum_j b_j * integral f_j(x) psi_j(nu0 f_j(x)) dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .densities import ConstantDensity, PowerLawDensity, TabulatedDensity
from .distributions import monotone_newton
from .errors import ConfigError, QuadratureError
from .popularity import ContentCatalog

__all__ = [
    "ModelClass",
    "AsymptoticModel",
    "beta_fn",
    "Nu0Result",
    "solve_nu0",
    "hit_limit",
    "hit_limit_by_class",
    "zipf_gn",
    "tn_asymptotic",
    "rate_curve",
    "fagin_catalog",
]

_QUAD_ATOL = 1e-10


@dataclass(frozen=True)
class ModelClass:
    """One content class: fraction of contents, popularity density, and the
    unit-mean inter-request shape shared by the class."""

    weight: float
    density: object
    psi: object

    def __post_init__(self):
        if not self.weight > 0:
            raise ConfigError(f"class weight must be positive, got {self.weight}")
        if abs(self.psi.mean - 1.0) > 1e-9:
            raise ConfigError("class psi must have unit mean; standardize it first")


@dataclass(frozen=True)
class AsymptoticModel:
    """Limit model: classes plus the limiting cache fraction beta0 in (0, 1).

    Densities are kept in the canonical normalization
    sum_j weight_j * integral_0^1 f_j = 1 (enforced to 1e-8), which pins
    the popularity scale factor g_n to 1/n.
    """

    classes: tuple
    beta0: float

    def __post_init__(self):
        if not self.classes:
            raise ConfigError("model needs at least one class")
        object.__setattr__(self, "classes", tuple(self.classes))
        if not 0.0 < self.beta0 < 1.0:
            raise ConfigError(f"beta0 must be in (0, 1), got {self.beta0}")
        wsum = math.fsum(c.weight for c in self.classes)
        if abs(wsum - 1.0) > 1e-9:
            raise ConfigError(f"class weights must sum to 1, got {wsum!r}")
        norm = math.fsum(c.weight * c.density.integral() for c in self.classes)
        if abs(norm - 1.0) > 1e-8:
            raise ConfigError(
                f"densities are not normalized: sum of weighted integrals is {norm!r}, "
                "expected 1")


def _class_integral(cls: ModelClass, fn_of_f) -> float:
    """Integrate fn_of_f(f(x)) dx over (0, 1] for one class.

    Power-law densities are integrated after the substitution
    x = u^(1/(1-alpha)), which removes the endpoint singularity and leaves
    a bounded integrand; constants need no quadrature; tabulated densities
    use the midpoint rule on their own grid.
    """
    f = cls.density
    if isinstance(f, ConstantDensity):
        return float(fn_of_f(f.value))
    if isinstance(f, TabulatedDensity):
        vals = np.asarray(f.values)
        return float(np.mean([fn_of_f(v) for v in vals]))
    if isinstance(f, PowerLawDensity):
        a = f.exponent
        if a == 0.0:
            return float(fn_of_f(f.coefficient))
        q = a / (1.0 - a)

        def integrand(u):
            if u <= 0.0:
                return 0.0
            return fn_of_f(f.coefficient * u ** (-q)) * u ** q / (1.0 - a)

        val, err = integrate.quad(integrand, 0.0, 1.0, epsabs=_QUAD_ATOL / 10,
                                  epsrel=1e-12, limit=300)
        if err > _QUAD_ATOL:
            raise QuadratureError(f"class integral did not meet tolerance: error {err:.2e}")
        return float(val)
    raise ConfigError(f"unsupported density type {type(f).__name__}")


def beta_fn(model: AsymptoticModel, nu: float) -> float:
    """Expected limiting occupancy fraction at scaled timer nu."""
    if nu < 0:
        raise ConfigError(f"nu must be >= 0, got {nu}")
    if nu == 0:
        return 0.0
    val = math.fsum(
        c.weight * _class_integral(c, lambda fv: c.psi.age_cdf(nu * fv))
        for c in model.classes)
    return min(val, 1.0)  # quadrature rounding can land a few ulp above 1


@dataclass(frozen=True)
class Nu0Result:
    nu0: float
    residual: float


def solve_nu0(model: AsymptoticModel) -> Nu0Result:
    """Root of beta(nu) = beta0 by monotone Newton from nu = 0.

    The age density of a unit-mean psi is its ccdf, so
    beta'(nu) = sum_j b_j * integral f_j(x) psi_j.ccdf(nu f_j(x)) dx, which
    never increases: beta is concave.  The slope at 0 is the normalization
    1, so the first step lands on nu = beta0.  The residual target is ten
    times the quadrature tolerance.
    """
    def slope(nu):
        return math.fsum(c.weight * _class_integral(c, lambda fv: fv * c.psi.ccdf(nu * fv))
                         for c in model.classes)

    nu0, residual, _ = monotone_newton(lambda nu: beta_fn(model, nu) - model.beta0, slope,
                                       0.0, 10.0 * _QUAD_ATOL)
    return Nu0Result(nu0=nu0, residual=residual)


def hit_limit(model: AsymptoticModel, nu0: float | None = None) -> float:
    """Limiting aggregate hit probability of the LRU cache."""
    if nu0 is None:
        nu0 = solve_nu0(model).nu0
    return math.fsum(hit_limit_by_class(model, nu0))


def hit_limit_by_class(model: AsymptoticModel, nu0: float | None = None) -> list[float]:
    """Per-class contributions b_j * integral f_j(x) psi_j(nu0 f_j(x)) dx."""
    if nu0 is None:
        nu0 = solve_nu0(model).nu0
    return [c.weight * _class_integral(c, lambda fv: fv * c.psi.cdf(nu0 * fv))
            for c in model.classes]


def zipf_gn(alpha: float, n: int) -> float:
    """Asymptotic popularity scale factor for Zipf weights i^(-alpha), in the
    f(x) = x^(-alpha) convention: (1-alpha)/n for alpha < 1, 1/(n log n) at
    alpha = 1, and 1/(zeta(alpha) n^alpha) for alpha > 1."""
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    if n < 2:
        raise ConfigError(f"n must be >= 2, got {n}")
    if alpha < 1.0:
        return (1.0 - alpha) / n
    if alpha == 1.0:
        return 1.0 / (n * math.log(n))
    from scipy.special import zeta
    return 1.0 / (float(zeta(alpha)) * n ** alpha)


def tn_asymptotic(model: AsymptoticModel, g_n: float, Lambda_n: float,
                  nu0: float | None = None) -> float:
    """Predicted characteristic time nu0 / (g_n * Lambda_n).

    ``g_n`` must be expressed in the same normalization as the model's
    densities (the canonical exact choice is g_n = p_i / f(z_i), which for
    the canonical normalization tends to 1/n).
    """
    if not (g_n > 0 and Lambda_n > 0):
        raise ConfigError("g_n and Lambda_n must be positive")
    if nu0 is None:
        nu0 = solve_nu0(model).nu0
    return nu0 / (g_n * Lambda_n)


def rate_curve(kind: str, C: float):
    """Reference convergence-rate envelopes (log C / C)^(1/4) and ^(1/2)."""
    Ca = np.asarray(C, dtype=float)
    if np.any(Ca <= 1):
        raise ConfigError("C must exceed 1")
    base = np.log(Ca) / Ca
    if kind == "quartic":
        out = base ** 0.25
    elif kind == "sqrt":
        out = base ** 0.5
    else:
        raise ConfigError(f"unknown rate curve kind {kind!r}; use 'quartic' or 'sqrt'")
    return float(out) if out.ndim == 0 else out


def fagin_catalog(model: AsymptoticModel, n: int, total_rate: float) -> ContentCatalog:
    """Finite-n catalog matching the limit model.

    Class j receives round(weight_j * n) contents whose weights are the
    exact integrals of its density over the per-class cells (the
    cdf-difference form).  Exact cell masses keep the singular head of a
    power-law density faithful, so finite-n aggregates approach the limit
    at quadrature speed instead of being throttled by the head cell.
    """
    if n < len(model.classes):
        raise ConfigError("n too small for the number of classes")
    if not total_rate > 0:
        raise ConfigError(f"total_rate must be positive, got {total_rate}")
    counts = [int(round(c.weight * n)) for c in model.classes]
    counts[-1] = n - sum(counts[:-1])
    if min(counts) < 1:
        raise ConfigError("a class received zero contents; increase n")
    weights = []
    class_of = []
    for j, (cls, nj) in enumerate(zip(model.classes, counts)):
        w = cls.weight * np.asarray(cls.density.cell_masses(nj), dtype=float)
        if np.any(w <= 0):
            raise ConfigError("density produced a nonpositive popularity weight")
        weights.append(w)
        class_of.append(np.full(nj, j, dtype=np.int64))
    w = np.concatenate(weights)
    p = w / math.fsum(w)
    return ContentCatalog(rates=p * total_rate,
                          classes=tuple(c.psi for c in model.classes),
                          class_of=np.concatenate(class_of))
