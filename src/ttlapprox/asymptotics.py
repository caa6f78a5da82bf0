"""Large-system limits of the characteristic-time approximation.

For catalogs whose popularity approaches a density f on (0, 1] and whose
inter-request laws form scale families, the scaled characteristic time
converges: T_n ~ nu0 / (g_n * Lambda_n), with nu0 the root of

    beta(nu) = sum_j b_j * integral_0^1 psihat_j(nu * f_j(x)) dx = beta0,

where beta0 is the limiting cache-to-catalog ratio.  beta is increasing
and concave, so ``solve_nu0`` finds nu0 by the same monotone Newton that
solves K(T) = C at finite n.  The limiting aggregate hit probability is
sum_j b_j * integral f_j(x) psi_j(nu0 f_j(x)) dx.

The class integrals use the package's adaptive Gauss-Legendre rule,
``distributions._adaptive_gauss``: each round evaluates the integrand at
every node of every open panel in one call, and an integrand may return
several components, so one pass gives beta and beta' together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import ConstantDensity, PowerLawDensity, TabulatedDensity
from .distributions import _adaptive_gauss, _finite, monotone_newton
from .errors import ConfigError, NumericsError
from .popularity import ContentCatalog

__all__ = [
    "ModelClass",
    "AsymptoticModel",
    "beta_fn",
    "Nu0Result",
    "solve_nu0",
    "hit_limit",
    "hit_limit_by_class",
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


def _class_integral(cls: ModelClass, fn_of_f, by_f=False) -> np.ndarray:
    """Integrate fn_of_f(f(x)) dx over (0, 1] for one class, times f(x)
    in the components that by_f flags.

    fn_of_f is vectorized: it maps an array of density values to values
    along its last axis, with any number of leading components, and the
    result has the leading shape; by_f is one flag, or one per leading
    component.  Power-law densities c x^(-alpha) are integrated after the
    substitution x = u^(1/(1-alpha)), which removes the endpoint
    singularity and leaves a bounded integrand for ``_adaptive_gauss``:
    dx = u^q du / (1-alpha) and f dx = c du / (1-alpha), q = alpha/(1-alpha).
    Near u = 0, f overflows to inf (where the kernels take their limits)
    and u^q underflows once q is large, so f dx is never formed as their
    product.  Constants need no quadrature; tabulated densities use the
    midpoint rule on their own grid, all nodes in one call.

    Raises
    ------
    QuadratureError
        if fn_of_f returns a value that is not finite, or if the adaptive
        rule does not meet its tolerance.
    """
    f = cls.density
    by_f = np.reshape(by_f, np.shape(by_f) + (1,))  # against the points axis
    if isinstance(f, PowerLawDensity) and f.exponent > 0.0:
        a = f.exponent
        q = a / (1.0 - a)

        def integrand(u):
            with np.errstate(over="ignore"):
                fv = f.coefficient * u ** (-q)
            return fn_of_f(fv) * (np.where(by_f, f.coefficient, u ** q) / (1.0 - a))

        return _adaptive_gauss(integrand, _QUAD_ATOL / 10)[0]
    if isinstance(f, ConstantDensity):
        table = [f.value]
    elif isinstance(f, PowerLawDensity):
        table = [f.coefficient]
    elif isinstance(f, TabulatedDensity):
        table = f.values
    else:
        raise ConfigError(f"unsupported density type {type(f).__name__}")
    fv = np.asarray(table, dtype=float)
    return np.mean(_finite(fn_of_f(fv) * np.where(by_f, fv, 1.0)), axis=-1)


def _nu_times(nu: float, fv):
    """nu * fv: inf past the float range, and 0 at nu = 0 even where fv is inf."""
    if nu == 0.0:
        return np.zeros_like(fv)
    with np.errstate(over="ignore"):
        return nu * fv


def _beta_and_slope(model: AsymptoticModel, nu: float) -> tuple[float, float]:
    """(beta(nu), beta'(nu)) from one quadrature per class of the fused
    age-cdf/ccdf kernel; the slope integrates f * ccdf."""
    if nu < 0:
        raise ConfigError(f"nu must be >= 0, got {nu}")
    beta, slope = [], []
    for c in model.classes:
        def integrand(fv):
            return np.stack(c.psi.age_cdf_ccdf(_nu_times(nu, fv)))
        b, s = c.weight * _class_integral(c, integrand, (False, True))
        beta.append(b)
        slope.append(s)
    # quadrature rounding can land a few ulp above 1
    return min(math.fsum(beta), 1.0), math.fsum(slope)


def beta_fn(model: AsymptoticModel, nu: float) -> float:
    """Expected limiting occupancy fraction at scaled timer nu."""
    return _beta_and_slope(model, nu)[0]


@dataclass(frozen=True)
class Nu0Result:
    nu0: float
    residual: float


def solve_nu0(model: AsymptoticModel) -> Nu0Result:
    """Root of beta(nu) = beta0 by monotone Newton from nu = 0.

    The age density of a unit-mean psi is its ccdf, so
    beta'(nu) = sum_j b_j * integral f_j(x) psi_j.ccdf(nu f_j(x)) dx, which
    never increases: beta is concave.  Each step integrates beta and beta'
    together.  The slope at 0 is the normalization 1, so the first step
    lands on nu = beta0.  The residual target is ten times the quadrature
    tolerance.
    """
    def f_and_slope(nu):
        beta, slope = _beta_and_slope(model, nu)
        return beta - model.beta0, slope

    nu0, residual, _ = monotone_newton(f_and_slope, 0.0, 10.0 * _QUAD_ATOL)
    return Nu0Result(nu0=nu0, residual=residual)


def hit_limit(model: AsymptoticModel, nu0: float | None = None) -> float:
    """Limiting aggregate hit probability of the LRU cache."""
    return math.fsum(hit_limit_by_class(model, nu0))


def hit_limit_by_class(model: AsymptoticModel, nu0: float | None = None) -> list[float]:
    """Per-class contributions b_j * integral f_j(x) psi_j(nu0 f_j(x)) dx."""
    if nu0 is None:
        nu0 = solve_nu0(model).nu0
    return [c.weight * float(_class_integral(c, lambda fv: c.psi.cdf(_nu_times(nu0, fv)), True))
            for c in model.classes]


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
    scale = float(g_n) * float(Lambda_n)  # Python floats: inf or 0.0 past the range, no warning
    t = float(nu0) / scale if scale > 0 else math.inf
    if not math.isfinite(t):
        raise NumericsError(f"nu0 / (g_n * Lambda_n) = {nu0!r} / ({g_n!r} * {Lambda_n!r}) "
                            "is not a finite number")
    return t


def rate_curve(kind: str, C: float):
    """Reference convergence-rate envelopes (log C / C)^(1/4) and ^(1/2)."""
    Ca = np.asarray(C, dtype=float)
    if np.any(Ca <= 1):
        raise ConfigError("C must exceed 1")
    if kind not in ("quartic", "sqrt"):
        raise ConfigError(f"unknown rate curve kind {kind!r}; use 'quartic' or 'sqrt'")
    out = (np.log(Ca) / Ca) ** (0.25 if kind == "quartic" else 0.5)
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
    p = w / math.fsum(memoryview(w))
    return ContentCatalog(rates=p * total_rate,
                          classes=tuple(c.psi for c in model.classes),
                          class_of=np.concatenate(class_of))
