"""Popularity density descriptors on (0, 1].

These describe the continuum limit of a popularity profile: content at
relative rank x in (0, 1] has weight proportional to f(x).  Supported
shapes are constants, integrable power laws c * x^(-alpha) with
0 <= alpha < 1, and tabulated positive values on a uniform grid.  Other
singular shapes are rejected rather than integrated blindly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["ConstantDensity", "PowerLawDensity", "TabulatedDensity"]


@dataclass(frozen=True)
class ConstantDensity:
    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise ConfigError(f"constant density must be positive, got {self.value}")

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value)[()]

    def integral(self) -> float:
        return self.value

    def cell_masses(self, n: int) -> np.ndarray:
        """Exact integrals over the n uniform cells of (0, 1]."""
        return np.full(n, self.value / n)


@dataclass(frozen=True)
class PowerLawDensity:
    """f(x) = coefficient * x**(-exponent) with 0 <= exponent < 1."""

    coefficient: float
    exponent: float

    def __post_init__(self):
        if not self.coefficient > 0:
            raise ConfigError(f"power-law coefficient must be positive, got {self.coefficient}")
        if not 0.0 <= self.exponent < 1.0:
            raise ConfigError(
                f"unsupported singularity: power-law exponent must lie in [0, 1), "
                f"got {self.exponent}")

    def __call__(self, x):
        return self.coefficient * np.asarray(x, dtype=float) ** (-self.exponent)

    def integral(self) -> float:
        return self.coefficient / (1.0 - self.exponent)

    def cell_masses(self, n: int) -> np.ndarray:
        # antiderivative c x^(1-a)/(1-a): exact even across the singular head cell
        i = np.arange(0, n + 1, dtype=float)
        F = self.coefficient / (1.0 - self.exponent) * (i / n) ** (1.0 - self.exponent)
        return np.diff(F)


@dataclass(frozen=True)
class TabulatedDensity:
    """Positive values on the midpoints of a uniform partition of (0, 1]."""

    values: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ConfigError("tabulated density needs a nonempty 1-d value table")
        if np.any(v <= 0):
            raise ConfigError("tabulated density values must be strictly positive")
        object.__setattr__(self, "values", tuple(v))

    def __call__(self, x):
        v = np.asarray(self.values)
        k = np.clip((np.asarray(x, dtype=float) * v.size).astype(int), 0, v.size - 1)
        return v[k][()]

    def integral(self) -> float:
        # midpoint rule on the table's own grid
        return float(np.mean(self.values))

    def cell_masses(self, n: int) -> np.ndarray:
        # integrate the step density exactly over the n requested cells
        v = np.asarray(self.values)
        cum = np.concatenate([[0.0], np.cumsum(v)]) / v.size

        def F(x):
            k = np.clip(np.floor(x * v.size).astype(int), 0, v.size - 1)
            return cum[k] + (x - k / v.size) * v[k]

        edges = np.arange(0, n + 1, dtype=float) / n
        vals = F(edges)
        vals[-1] = cum[-1]
        return np.diff(vals)

