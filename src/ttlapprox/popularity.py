"""Popularity laws and content catalogs.

A catalog binds each of n contents to a request rate and an inter-request
distribution.  Content popularity p_i = rate_i / total_rate; the tail
``tail(i)`` is the aggregate popularity of the n - i least popular
contents, from suffix sums computed on the first call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import InterRequestDistribution
from .errors import ConfigError

__all__ = [
    "ZipfLaw",
    "DensityLaw",
    "ContentCatalog",
    "build_catalog",
]


@dataclass(frozen=True)
class ZipfLaw:
    alpha: float

    def weights(self, n: int) -> np.ndarray:
        """Zipf weights p_i = i^(-alpha) / sum_j j^(-alpha), already sorted."""
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        w = np.arange(1, n + 1, dtype=float) ** (-self.alpha)
        return w / math.fsum(memoryview(w))


@dataclass(frozen=True)
class DensityLaw:
    """Weights proportional to density((i - 1/2) / n); midpoints keep the
    discretization bias second order."""

    density: object

    def weights(self, n: int) -> np.ndarray:
        z = (np.arange(1, n + 1, dtype=float) - 0.5) / n
        with np.errstate(over="ignore"):  # a weight past the float range is rejected below
            w = np.asarray(self.density(z), dtype=float)
        if np.any(w <= 0):
            raise ConfigError("density law produced a zero or negative popularity weight")
        if not np.all(np.isfinite(w)):
            raise ConfigError("density law produced a popularity weight past the float range")
        # scaled by a power of two, exactly, so the sum of up to n weights of
        # at most 1 cannot overflow; the normalized weights are the same
        w = np.ldexp(w, -np.frexp(w.max())[1])
        return w / math.fsum(memoryview(w))


def _suffix_tail(p_sorted: np.ndarray) -> np.ndarray:
    # extended precision keeps million-entry suffix sums at ~1e-16 error
    rev = np.cumsum(p_sorted[::-1].astype(np.longdouble))[::-1]
    return np.append(rev.astype(float), 0.0)


@dataclass(frozen=True)
class ContentCatalog:
    """Rates, popularities and distribution classes for n contents.

    Immutable after construction and safe to share across workers.
    ``classes`` holds one standardized (unit-mean) distribution per class;
    ``class_of[i]`` maps content i to its class; the distribution of
    content i is the class representative rescaled to mean 1/rates[i].
    ``groups`` pairs each class with the indices of its contents.
    """

    rates: np.ndarray = field(repr=False)
    classes: tuple
    class_of: np.ndarray = field(repr=False)

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        if rates.ndim != 1 or rates.size == 0:
            raise ConfigError("rates must be a nonempty vector")
        if np.any(rates <= 0) or not np.all(np.isfinite(rates)):
            raise ConfigError("all rates must be positive and finite")
        class_of = np.asarray(self.class_of, dtype=np.int64)
        if class_of.shape != rates.shape:
            raise ConfigError("class_of must have one entry per content")
        if class_of.min() < 0 or class_of.max() >= len(self.classes):
            raise ConfigError("class_of refers to a nonexistent class")
        for d in self.classes:
            if abs(d.mean - 1.0) > 1e-9:
                raise ConfigError("class representatives must be standardized (unit mean)")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "class_of", class_of)
        total = math.fsum(memoryview(rates))  # over numpy scalars fsum is slow; a buffer gives floats
        object.__setattr__(self, "_total_rate", total)
        pop = rates / total
        object.__setattr__(self, "_popularity", pop)
        order = np.argsort(-pop, kind="stable")
        object.__setattr__(self, "_sorted_order", order)
        object.__setattr__(self, "_groups", tuple(
            (dist, np.flatnonzero(class_of == c)) for c, dist in enumerate(self.classes)))

    @property
    def n(self) -> int:
        return self.rates.size

    @property
    def total_rate(self) -> float:
        return self._total_rate

    @property
    def popularity(self) -> np.ndarray:
        return self._popularity

    @property
    def sorted_order(self) -> np.ndarray:
        """Permutation: sorted_order[k] is the index of the (k+1)-th most popular content."""
        return self._sorted_order

    @functools.cached_property
    def _tail(self) -> np.ndarray:
        # built on first use: only tail() reads it, and a catalog sent to a
        # replication worker need not carry it
        return _suffix_tail(self._popularity[self._sorted_order])

    def tail(self, i: int) -> float:
        """Aggregate popularity of the n - i least popular contents."""
        if not 0 <= i <= self.n:
            raise ConfigError(f"tail index {i} out of range [0, {self.n}]")
        return float(self._tail[i])

    @property
    def groups(self) -> tuple:
        """(standardized class distribution, indices of its contents) per
        class, the indices in increasing order."""
        return self._groups


def build_catalog(law, n: int, total_rate: float, family_assignment) -> ContentCatalog:
    """Bind a popularity law to distributions.

    ``family_assignment`` is a single distribution (all contents share its
    standardized shape) or a sequence of (fraction, distribution) class
    pairs assigned to contiguous index blocks, fractions summing to 1.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if not total_rate > 0:
        raise ConfigError(f"total_rate must be positive, got {total_rate}")
    pop = law.weights(n)
    rates = pop * total_rate
    if isinstance(family_assignment, InterRequestDistribution):
        classes = (family_assignment.standardize(),)
        class_of = np.zeros(n, dtype=np.int64)
    else:
        pairs = list(family_assignment)
        fracs = np.array([b for b, _ in pairs], dtype=float)
        if np.any(fracs <= 0) or abs(fracs.sum() - 1.0) > 1e-9:
            raise ConfigError("class fractions must be positive and sum to 1")
        counts = np.floor(fracs * n).astype(int)
        while counts.sum() < n:
            counts[int(np.argmax(fracs * n - counts))] += 1
        if np.any(counts == 0):
            raise ConfigError("a class received zero contents; increase n or its fraction")
        classes = tuple(d.standardize() for _, d in pairs)
        class_of = np.repeat(np.arange(len(pairs), dtype=np.int64), counts)
    return ContentCatalog(rates=rates, classes=classes, class_of=class_of)
