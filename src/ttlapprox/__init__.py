"""Characteristic-time (TTL) approximation toolkit for LRU caches.

The package solves the fixed timer at which a reset-timer cache holds, in
expectation, as many contents as an LRU cache of capacity C, evaluates
the resulting per-content and aggregate hit probabilities, computes their
large-system limits, and validates everything against an exact
simulator fed by independent stationary renewal streams.  The simulator
merges each time window's requests in one vectorized batch; only the LRU
update runs per request, and only over the requests that can miss.

The package exports the public names of its library modules, each listed
in that module's ``__all__``; the command line lives in ``ttlapprox.cli``.
"""

from . import (approx, assumptions, asymptotics, densities, distributions, errors, experiments,
               popularity, simulator)
from .approx import *  # noqa: F401,F403
from .assumptions import *  # noqa: F401,F403
from .asymptotics import *  # noqa: F401,F403
from .densities import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .popularity import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403

__all__ = [name for module in (approx, assumptions, asymptotics, densities, distributions, errors,
                               experiments, popularity, simulator) for name in module.__all__]

__version__ = "0.1.0"
