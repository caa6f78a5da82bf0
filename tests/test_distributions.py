import math
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from ttlapprox.distributions import (Erlang, Exponential, Gamma, Hyperexponential, ParetoLomax,
                                     Weibull, distribution_from_config)
from ttlapprox.errors import ConfigError

from oracles import ccdf_mp, gamma_laws_mp, trapezoid_age_cdf

ALL_FAMILIES = [
    Exponential(1.3),
    Gamma(0.7, 2.0),
    Gamma(2.5, 1.0),
    Weibull(0.8, 1.5),
    Weibull(1.7, 0.6),
    Erlang(3, 2.0),
    Hyperexponential((0.4, 0.6), (0.5, 3.0)),
    ParetoLomax(2.2, 1.7),
    ParetoLomax(3.5, 0.4),
]

# shapes where the age law is far from the inter-request law
AGE_SAMPLED = ALL_FAMILIES + [Gamma(0.5, 1.0), Weibull(0.3, 1.0), Weibull(3.0, 1.0)]


class TestCdf:
    def test_exponential_at_zero(self):
        assert Exponential(1.0).cdf(0.0) == 0.0

    def test_exponential_median(self):
        assert Exponential(2.0).cdf(math.log(2) / 2) == pytest.approx(0.5, abs=1e-15)

    def test_gamma_2_2_closed_form(self):
        # Erlang-2 closed form, cross-checked by quadrature of the density
        d = Gamma(2.0, 2.0)
        expected = 1.0 - math.exp(-2.0) * (1.0 + 2.0)
        assert d.cdf(1.0) == pytest.approx(expected, abs=1e-12)
        quad, _ = integrate.quad(d.pdf, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        assert d.cdf(1.0) == pytest.approx(quad, abs=1e-12)

    def test_negative_argument_convention(self):
        for d in ALL_FAMILIES:
            assert d.cdf(-1.0) == 0.0
            assert d.ccdf(-1.0) == 1.0

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__ + repr(d.mean))
    def test_cdf_axioms_on_random_grid(self, d):
        rng = np.random.default_rng(7)
        t = np.sort(rng.exponential(2.0 * d.mean, 1000))
        g = d.cdf(t)
        assert np.all((0.0 <= g) & (g <= 1.0))
        assert np.all(np.diff(g) >= -1e-15)
        assert np.allclose(d.ccdf(t), 1.0 - g, atol=1e-15)
        assert d.cdf(0.0) == 0.0


class TestAgeCdf:
    def test_exponential_age_equals_cdf(self):
        d = Exponential(1.7)
        t = np.geomspace(1e-6, 50.0, 200)
        assert np.array_equal(d.age_cdf(t), d.cdf(t))

    def test_zero(self):
        for d in ALL_FAMILIES:
            assert d.age_cdf(0.0) == 0.0

    def test_gamma_2_2_against_trapezoid_oracle(self):
        d = Gamma(2.0, 2.0)
        oracle = trapezoid_age_cdf(d, 1.0)
        # closed form is 1 - 2 e^{-2} at unit mean
        assert oracle == pytest.approx(1.0 - 2.0 * math.exp(-2.0), abs=1e-11)
        assert d.age_cdf(1.0) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__ + repr(d.mean))
    def test_age_cdf_matches_quadrature(self, d):
        for t in (0.3 * d.mean, d.mean, 3.0 * d.mean):
            val, _ = integrate.quad(d.ccdf, 0.0, t, epsabs=1e-12, limit=200)
            assert d.age_cdf(t) == pytest.approx(d.rate * val, abs=1e-9)

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__ + repr(d.mean))
    def test_age_derivative_is_rate_times_ccdf(self, d):
        # finite differences at interior points, 1e-6 relative
        qs = np.linspace(0.05, 0.95, 100)
        ts = np.array([d.age_quantile(q) for q in qs])
        h = 1e-5 * np.maximum(ts, 0.1 * d.mean)
        fd = (d.age_cdf(ts + h) - d.age_cdf(ts - h)) / (2.0 * h)
        target = d.rate * d.ccdf(ts)
        assert np.all(np.abs(fd - target) <= 1e-6 * target)


# shapes of the Gamma kernel check, from near 0 to far above the scipy
# asymptotic-series threshold; Erlang shares the kernel at integer shapes
KERNEL_LAWS = ([Gamma(k, 2.0) for k in (0.05, 0.3, 0.5, 1.0, 2.5, 7.0, 30.0)]
               + [Erlang(1, 2.0), Erlang(7, 2.0)])


def _kernel_grid(k):
    """x from 1e-12 into the deep tail, densely over 0.4 <= x <= 1.2 (where
    scipy's gammaincc(0.5, x) takes its slow series) and around the kernel's
    branch switch at x = k + 1."""
    return np.unique(np.concatenate([
        np.geomspace(1e-12, 200.0 * max(k, 1.0), 100),
        np.linspace(0.4, 1.2, 33),
        (k + 1.0) * np.linspace(0.98, 1.02, 21),
        [np.nextafter(k + 1.0, 0.0), k + 1.0]]))


class TestGammaKernel:
    """cdf, ccdf and age cdf of Gamma/Erlang against mpmath at 40 digits.
    The ccdf is checked relative to its own size wherever it exceeds
    1e-300, so a tail computed as 1 - cdf fails."""

    @staticmethod
    def _rel(got, ref, where):
        return float(np.max(np.abs(got - ref)[where] / ref[where]))

    @pytest.mark.parametrize("d", KERNEL_LAWS, ids=repr)
    def test_against_mpmath(self, d):
        x = _kernel_grid(d.shape)
        t = x / d.rate_param  # exact: the rate is a power of 2
        P, Q, A = np.array([gamma_laws_mp(d.shape, v) for v in x]).T
        body, tail = P > 1e-300, Q > 1e-300
        assert self._rel(d.age_cdf(t), A, A > 0) <= 1e-13
        assert self._rel(d.ccdf(t), Q, tail) <= 1e-12
        assert self._rel(d.cdf(t), P, body) <= 1e-12


class TestFusedKernel:
    @pytest.mark.parametrize("d", AGE_SAMPLED, ids=repr)
    def test_age_cdf_ccdf_equals_the_two_kernels(self, d):
        t = np.concatenate([[0.0], np.geomspace(1e-9, 1e3, 200) * d.mean])
        age, ccdf = d._age_cdf_ccdf(t)
        assert np.array_equal(age, d.age_cdf(t))
        assert np.array_equal(ccdf, d.ccdf(t))


class TestExactTails:
    """The ccdf of every family against a 40-digit oracle, relative to its
    own size wherever it exceeds 1e-300: a tail computed as 1 - cdf fails."""

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=repr)
    def test_ccdf_against_mpmath(self, d):
        t = np.geomspace(1e-9, 1e4, 120) * d.mean
        ref = np.array([ccdf_mp(d, v) for v in t])
        tail = ref > 1e-300
        got = d.ccdf(t)
        assert float(np.max(np.abs(got - ref)[tail] / ref[tail])) <= 1e-12

    def test_exponential_deep_tail(self):
        # relative only: pytest.approx would also forgive an absolute 1e-12
        assert abs(Exponential(1.0).ccdf(40.0) / math.exp(-40.0) - 1.0) <= 1e-12


class TestSupportLimits:
    """(cdf, ccdf, age_cdf, pdf) at t = -1, 0 and inf come from the
    limits, with no warning, whether t is a scalar or in a mixed array."""

    @staticmethod
    def _expected(d):
        return {-1.0: (0.0, 1.0, 0.0, 0.0),
                0.0: (0.0, 1.0, 0.0, 0.0),
                math.inf: (1.0, 0.0, 1.0, 0.0)}

    @staticmethod
    def _laws(d):
        return (d.cdf, d.ccdf, d.age_cdf, d.pdf)

    @pytest.mark.parametrize("d", AGE_SAMPLED, ids=repr)
    def test_scalars(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t, want in self._expected(d).items():
                assert tuple(f(t) for f in self._laws(d)) == want

    @pytest.mark.parametrize("d", AGE_SAMPLED, ids=repr)
    def test_mixed_array(self, d):
        expected = self._expected(d)
        t = np.array([math.inf, d.mean, -1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k, f in enumerate(self._laws(d)):
                got = f(t)
                assert list(got[[0, 2, 3]]) == [expected[v][k] for v in (math.inf, -1.0, 0.0)]
                assert got[1] == f(d.mean)


    @pytest.mark.parametrize("shape", [0.7, 1.4])
    def test_weibull_past_the_float_range_of_its_power(self, shape):
        # (t / scale)^shape overflows at 1.4; every kernel is at its limit
        d = Weibull(shape, 1.0)
        t = np.array([1e300, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, limit in ((d.cdf, 1.0), (d.ccdf, 0.0), (d.pdf, 0.0), (d.age_cdf, 1.0)):
                assert list(f(t)) == [limit, limit]
                assert f(1e300) == limit

    @pytest.mark.parametrize("shape", [0.05, 0.5])
    def test_gamma_below_shape_one_at_the_float_limit(self, shape):
        # x / shape overflows there; the age cdf uses it only where Q > 0
        d = Gamma(shape, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1.7e308, sys.float_info.max):
                assert (d.age_cdf(t), d.cdf(t), d.ccdf(t)) == (1.0, 1.0, 0.0)


class TestExtremeShapes:
    """Shapes near the float limit end in a value or a ConfigError, never in
    an OverflowError, a TypeError or a warning."""

    @pytest.mark.parametrize("make", [lambda: Gamma(1e308, 1.0), lambda: Erlang(1e308, 1.0),
                                      lambda: Gamma(3e305, 2.0)])
    def test_gamma_shape_past_the_kernels_range_is_config_error(self, make):
        with pytest.raises(ConfigError, match="gamma shape must be at most"):
            make()

    def test_gamma_parameters_are_floats(self):
        d = Gamma(10**30, 2)
        assert type(d.shape) is float and type(d.rate_param) is float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.pdf(1.0) == 0.0
            assert d.cdf(1.0) == 0.0 and d.ccdf(1.0) == 1.0

    def test_gamma_at_the_largest_shape(self):
        d = Gamma(1e305, 1.0)
        t = np.array([5e-324, 1.0, 1e305, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (d.cdf, d.ccdf, d.age_cdf, d.pdf):
                v = f(t)
                assert np.all((v >= 0.0) & (v <= 1.0))
            assert list(d.cdf(t[[0, 1, 3]])) == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_weibull_density_of_a_huge_shape(self, scale):
        d = Weibull(1e308, scale).standardize()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(d.pdf(np.array([0.5, 2.0, np.finfo(float).max]))) == [0.0, 0.0, 0.0]
            assert d.pdf(2.0) == 0.0

    @pytest.mark.parametrize("shape, scale", [(0.7, 1.5), (1.7, 0.6), (3.0, 2.0)])
    def test_weibull_density_against_its_closed_form(self, shape, scale):
        t = np.geomspace(1e-6, 10.0, 200)
        z = t / scale
        want = (shape / scale) * z ** (shape - 1.0) * np.exp(-z ** shape)
        assert np.allclose(Weibull(shape, scale).pdf(t), want, rtol=1e-13, atol=0.0)


class TestQuantiles:
    def test_exponential_age_quantile(self):
        assert Exponential(2.0).age_quantile(0.5) == pytest.approx(math.log(2) / 2, rel=1e-12)

    def test_zero(self):
        for d in ALL_FAMILIES:
            assert d.age_quantile(0.0) == 0.0

    def test_gamma_heavy_shape_roundtrip(self):
        d = Gamma(0.5, 0.5)
        t = d.age_quantile(0.9)
        assert d.age_cdf(t) == pytest.approx(0.9, abs=1e-9)

    def test_unbounded_quantile_rejected(self):
        with pytest.raises(ConfigError, match="unbounded quantile"):
            Gamma(2.0, 2.0).age_quantile(1.0)
        with pytest.raises(ConfigError, match="unbounded quantile"):
            Exponential(1.0).age_quantile(1.5)

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__ + repr(d.mean))
    def test_roundtrips(self, d):
        rng = np.random.default_rng(3)
        for u in rng.uniform(0.01, 0.99, 25):
            assert d.age_cdf(d.age_quantile(u)) == pytest.approx(u, abs=1e-8)


class TestSampling:
    def test_exponential_mean_within_4_sigma(self):
        rng = np.random.default_rng(11)
        x = Exponential(1.0).sample_inter_batch(rng, 1_000_000)
        assert abs(x.mean() - 1.0) < 0.004

    def test_exponential_age_empirical_cdf(self):
        rng = np.random.default_rng(12)
        d = Exponential(1.0)
        for x in d.sample_straddle_batch(rng, 200_000):
            assert abs((x <= 1.0).mean() - (1.0 - math.exp(-1.0))) < 0.004

    def test_gamma_age_mean_matches_quadrature(self):
        d = Gamma(2.0, 2.0)
        rng = np.random.default_rng(13)
        target, _ = integrate.quad(lambda t: t * d.rate * d.ccdf(t), 0.0, np.inf)
        for x in d.sample_straddle_batch(rng, 20_000):
            se = x.std(ddof=1) / math.sqrt(x.size)
            assert abs(x.mean() - target) < 3.0 * se

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__ + repr(d.mean))
    def test_inter_sampler_mean(self, d):
        rng = np.random.default_rng(5)
        x = d.sample_inter_batch(rng, 1_000_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - d.mean) < 4.0 * se

    @pytest.mark.parametrize("d", AGE_SAMPLED, ids=lambda d: type(d).__name__ + repr(d.mean))
    def test_straddle_batch_ks_against_age_cdf_and_uniform_split(self, d):
        # the straddling gap has joint density g(a + r) / mean: R and A each
        # follow the age law, and given A + R the split R / (A + R) is
        # uniform; three KS tests at 1e-3 each, a Bonferroni level of 3e-3
        rng = np.random.default_rng(1707)
        residual, age = d.sample_straddle_batch(rng, 200_000)
        assert stats.kstest(residual, d.age_cdf).pvalue > 1e-3
        assert stats.kstest(age, d.age_cdf).pvalue > 1e-3
        assert stats.kstest(residual / (age + residual), "uniform").pvalue > 1e-3

    def test_erlang_age_sampler_matches_age_cdf(self):
        d = Erlang(3, 1.5)
        rng = np.random.default_rng(6)
        for x in d.sample_straddle_batch(rng, 100_000):
            for t in (0.5, 1.0, 2.0, 4.0):
                assert abs((x <= t).mean() - d.age_cdf(t)) < 0.006


class TestStandardize:
    def test_exponential(self):
        assert Exponential(5.0).standardize() == Exponential(1.0)

    def test_gamma(self):
        assert Gamma(2.0, 6.0).standardize() == Gamma(2.0, 2.0)

    def test_weibull_mean_one_by_quadrature(self):
        d = Weibull(0.5, 3.7).standardize()
        mean, _ = integrate.quad(d.ccdf, 0.0, np.inf, epsabs=1e-13, limit=500)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert d.mean == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__ + repr(d.mean))
    def test_unit_mean_numerically(self, d):
        s = d.standardize()
        mean, _ = integrate.quad(s.ccdf, 0.0, np.inf, epsabs=1e-12, limit=500)
        assert mean == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d", [Exponential(5e-324), Hyperexponential((1.0,), (5e-324,))],
                             ids=repr)
    def test_mean_past_the_float_range_is_config_error(self, d):
        with pytest.raises(ConfigError, match="not a positive finite number"):
            d.standardize()


class TestConfigText:
    @pytest.mark.parametrize("spec, expected", [
        ({"family": "exponential", "params": {"rate": 1.3}}, Exponential(1.3)),
        ({"family": "gamma", "params": {"shape": 0.7, "rate": 2.0}}, Gamma(0.7, 2.0)),
        ({"family": "weibull", "params": {"shape": 1.7, "scale": 0.6}}, Weibull(1.7, 0.6)),
        ({"family": "erlang", "params": {"stages": 3, "rate": 2.0}}, Erlang(3, 2.0)),
        ({"family": "erlang", "params": {"stages": 2.0, "rate": 1.0}}, Erlang(2, 1.0)),
        ({"family": "hyperexponential", "params": {"weights": [0.4, 0.6], "rates": [0.5, 3.0]}},
         Hyperexponential((0.4, 0.6), (0.5, 3.0))),
        ({"family": "pareto_lomax", "params": {"shape": 2.2, "scale": 1.7}}, ParetoLomax(2.2, 1.7)),
    ], ids=["exponential", "gamma", "weibull", "erlang", "erlang-2.0", "hyperexponential",
            "pareto_lomax"])
    def test_family_table(self, spec, expected):
        assert distribution_from_config(spec) == expected

    @pytest.mark.parametrize("spec", [
        {"family": "erlang", "params": {"stages": 2.7, "rate": 1.0}},
        {"family": "erlang", "params": {"stages": "x", "rate": 1.0}},
        {"family": "erlang", "params": {"stages": True, "rate": 1.0}},
        {"family": "hyperexponential", "params": {"weights": ["a"], "rates": [1.0]}},
        {"family": ["exponential"], "params": {"rate": 1.0}},
        {"family": "exponential", "params": {}},
        {"params": {"rate": 1.0}},
    ])
    def test_malformed_is_config_error(self, spec):
        with pytest.raises(ConfigError):
            distribution_from_config(spec)

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="unknown distribution family"):
            distribution_from_config({"family": "cauchy", "params": {}})

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            ParetoLomax(1.0, 1.0)  # infinite mean
        with pytest.raises(ConfigError):
            Hyperexponential((0.5, 0.6), (1.0, 2.0))  # weights don't sum to 1
