"""Characteristic-time (TTL) approximation toolkit for LRU caches.

The package solves the fixed timer at which a reset-timer cache holds, in
expectation, as many contents as an LRU cache of capacity C, evaluates
the resulting per-content and aggregate hit probabilities, computes their
large-system limits, and validates everything against an exact
simulator fed by independent stationary renewal streams.  The simulator
merges each time window's requests in one vectorized batch; only the LRU
recency update runs per request.
"""

from .approx import (CharacteristicTimeResult, ConcentrationCurve, TtlHit,
                     characteristic_time, concentration_curve, expected_occupancy,
                     miss_probability, occupancy_derivative, tn_bracket, ttl_hit)
from .asymptotics import (AsymptoticModel, ModelClass, Nu0Result, beta_fn,
                          fagin_catalog, hit_limit, hit_limit_by_class, rate_curve,
                          solve_nu0, tn_asymptotic, zipf_gn)
from .densities import ConstantDensity, PowerLawDensity, TabulatedDensity
from .distributions import (EnvelopeReport, Erlang, Exponential, Gamma,
                            Hyperexponential, InterRequestDistribution, MaxEnvelope,
                            ParetoLomax, SmoothnessReport, Weibull, check_envelope,
                            check_smoothness, distribution_from_config)
from .errors import ConfigError, NumericsError, QuadratureError
from .experiments import (AssumptionParams, AssumptionsReport, ConvergenceRow,
                          SweepSpec, check_assumptions, convergence_sweep, emit)
from .popularity import (ContentCatalog, DensityLaw, P1Report, ZipfLaw, build_catalog,
                         check_P1, zipf_popularity)
from .simulator import (LRU, TTL, SimulationConfig, SimulationReport, init_stationary,
                        replicate, run)

__version__ = "0.1.0"
