"""Monotone Newton: the helper's contract, and the solvers built on it."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlapprox.approx import characteristic_time, expected_occupancy
from ttlapprox.distributions import (Erlang, Exponential, Gamma, Hyperexponential,
                                     ParetoLomax, Weibull, monotone_newton)
from ttlapprox.errors import NumericsError
from ttlapprox.popularity import ZipfLaw, build_catalog


def _recorded(f):
    """f plus the list of points it was evaluated at, in order."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)
    return g, xs


# concave increasing functions with known roots: (f, f', root)
CONCAVE = {
    "exp-cdf": lambda c: (lambda x: -math.expm1(-x) - c, lambda x: math.exp(-x),
                          -math.log1p(-c)),
    "log1p": lambda c: (lambda x: math.log1p(x) - c, lambda x: 1.0 / (1.0 + x),
                        math.expm1(c)),
}


class TestMonotoneNewton:
    @pytest.mark.parametrize("kind, c", [("exp-cdf", 1e-9), ("exp-cdf", 0.3),
                                         ("exp-cdf", 0.9), ("exp-cdf", 1 - 1e-9),
                                         ("log1p", 0.01), ("log1p", 1.0), ("log1p", 20.0)])
    def test_iterates_rise_to_the_root_without_passing_it(self, kind, c):
        f, fprime, root = CONCAVE[kind](c)
        g, xs = _recorded(f)
        tol = 1e-15 * max(c, 1.0)
        x, residual, steps = monotone_newton(lambda x: (g(x), fprime(x)), 0.0, tol)
        assert residual == abs(f(x)) <= tol
        assert abs(x - root) <= 2.0 * tol / fprime(root) + 4e-16 * root
        assert steps == len(xs) - 1
        assert all(b > a for a, b in zip(xs, xs[1:]))
        assert all(v <= root * (1.0 + 4e-16) for v in xs)

    def test_root_at_start_takes_no_step(self):
        assert monotone_newton(lambda x: (x - 2.0, 1.0), 2.0, 0.0) == (2.0, 0.0, 0)

    @pytest.mark.parametrize("slope", [0.0, -1.0, math.nan])
    def test_slope_not_positive_raises(self, slope):
        with pytest.raises(NumericsError, match="slope"):
            monotone_newton(lambda x: (x - 1.0, slope), 0.0, 1e-12)

    def test_nan_residual_raises(self):
        with pytest.raises(NumericsError, match="stalled"):
            monotone_newton(lambda x: (math.nan, 1.0), 0.0, 1e-12)

    def test_start_right_of_root_is_a_stall(self):
        f, fprime, _ = CONCAVE["log1p"](1.0)
        with pytest.raises(NumericsError, match="stalled"):
            monotone_newton(lambda x: (f(x), fprime(x)), 10.0, 1e-12)

    def test_convex_overshoot_is_a_stall(self):
        # x^3 - 1 is convex: the tangent from 0.5 lands right of the root at 1
        with pytest.raises(NumericsError, match="stalled"):
            monotone_newton(lambda x: (x ** 3 - 1.0, 3.0 * x * x), 0.5, 1e-12)

    def test_noise_above_the_target_is_a_stall(self):
        # noise of amplitude 1e-3 in f: the iterate stops rising long before |f| <= 1e-9
        with pytest.raises(NumericsError, match="stalled"):
            monotone_newton(lambda x: (math.log1p(x) - 1.0 + 1e-3 * math.sin(1e9 * x),
                                       1.0 / (1.0 + x)), 0.0, 1e-9)

    def test_hyperexponential_slope_is_the_density_at_zero(self):
        # pdf(0) is 0 by convention, so a Newton slope at 0 must come from the
        # kernels: the age quantile's first slope is rate * ccdf(0) = rate
        d = Hyperexponential((0.3, 0.7), (5.0, 0.2))
        assert d.pdf(0.0) == 0.0
        assert float(d._pdf(0.0)) == pytest.approx(0.3 * 5.0 + 0.7 * 0.2)
        for u in (1e-12, 0.5, 1 - 1e-9):
            assert abs(d.age_cdf(d.age_quantile(u)) - u) <= 1e-12 * u


shapes = st.floats(0.0, 1.0)
families = st.one_of(
    st.builds(Exponential, st.floats(0.1, 10.0)),
    st.builds(lambda s: Gamma(0.05 + 20.0 * s ** 2, 1.0), shapes),
    st.builds(lambda s: Weibull(0.2 + 4.8 * s ** 2, 1.0), shapes),
    st.builds(lambda k: Erlang(k, 1.0), st.integers(1, 10)),
    st.builds(lambda w, r: Hyperexponential((w, 1.0 - w), (1.0, r)),
              st.floats(0.01, 0.99), st.floats(1e-3, 1e3)),
    st.builds(lambda s: ParetoLomax(1.1 + 4.0 * s, 1.0), shapes),
)


class TestSolverProperties:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(dist=families, alpha=st.floats(0.0, 3.0), n=st.integers(2, 400),
           frac=st.floats(0.0, 1.0))
    def test_characteristic_time_meets_its_residual(self, dist, alpha, n, frac):
        C = 1.0 + frac * (n - 2.0)  # C in [1, n - 1]
        catalog = build_catalog(ZipfLaw(alpha), n, float(n), dist)
        rtol = 1e-9
        res = characteristic_time(catalog, C, rtol=rtol)
        assert res.t > 0.0
        assert abs(expected_occupancy(catalog, res.t) - C) <= rtol * C

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(dist=families, u=st.floats(1e-12, 1.0 - 1e-9))
    def test_age_quantile_roundtrip(self, dist, u):
        assert abs(dist.age_cdf(dist.age_quantile(u)) - u) <= 1e-12 * u


class TestTails:
    """Far in the tail 1 - cdf rounds to 0; the Newton slopes use exact ccdfs."""

    @pytest.mark.parametrize("alpha", [0.0, 1.2, 3.0])
    def test_heavy_lomax_near_saturation(self, alpha):
        n, C = 100, 99.0
        catalog = build_catalog(ZipfLaw(alpha), n, float(n), ParetoLomax(1.1, 1.0))
        res = characteristic_time(catalog, C)
        assert abs(expected_occupancy(catalog, res.t) - C) <= 1e-9 * C

    @pytest.mark.parametrize("u", [1 - 1e-8, 1 - 1e-9])
    def test_weibull_small_shape_age_quantile(self, u):
        d = Weibull(0.1, 1.0)
        assert abs(d.age_cdf(d.age_quantile(u)) - u) <= 1e-12 * u
