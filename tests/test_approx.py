import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import special

from ttlapprox import approx
from ttlapprox.approx import (_bound_parts, _occupancy_and_slope, _weighted_pass,
                              characteristic_time, concentration_curve, expected_occupancy,
                              miss_probability, occupancy_derivative, tn_bracket, ttl_hit)
from ttlapprox.assumptions import MaxEnvelope
from ttlapprox.distributions import Exponential, Gamma, Hyperexponential, ParetoLomax, Weibull
from ttlapprox.errors import ConfigError
from ttlapprox.popularity import ContentCatalog, ZipfLaw, build_catalog

from oracles import bisection_characteristic_time, single_stage_characteristic_time
from test_distributions import ALL_FAMILIES
from test_newton import families


def poisson_catalog(n, alpha, total_rate):
    return build_catalog(ZipfLaw(alpha), n, total_rate, Exponential(1.0))


def random_catalog(rng, n=None):
    n = n or int(rng.integers(20, 200))
    alpha = float(rng.uniform(0.0, 2.0))
    total = float(rng.uniform(0.5, 20.0))
    members = [Exponential(1.0), Gamma(float(rng.uniform(0.5, 3.0)), 1.0),
               Weibull(float(rng.uniform(0.7, 2.0)), 1.0),
               ParetoLomax(float(rng.uniform(1.5, 4.0)), 1.0),
               Hyperexponential((0.5, 0.5), (float(rng.uniform(0.2, 1.0)), 3.0))]
    k = int(rng.integers(1, 4))
    chosen = [members[int(j)] for j in rng.choice(len(members), size=k, replace=False)]
    if k == 1:
        fam = chosen[0]
    else:
        fr = rng.dirichlet(np.ones(k)) * 0.8 + 0.2 / k
        fr = fr / fr.sum()
        fam = list(zip(fr.tolist(), chosen))
    return build_catalog(ZipfLaw(alpha), n, total, fam)


class TestOccupancy:
    def test_zero(self):
        cat = poisson_catalog(50, 0.7, 5.0)
        assert expected_occupancy(cat, 0.0) == 0.0

    def test_identical_exponential_closed_form(self):
        cat = poisson_catalog(100, 0.0, 100.0)
        assert expected_occupancy(cat, math.log(2)) == pytest.approx(50.0, abs=1e-12)

    def test_zipf_against_mpmath_sum(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        cat = poisson_catalog(100, 0.8, 100.0)
        exact = mp.fsum(1 - mp.e ** (-mp.mpf(float(r))) for r in cat.rates)
        assert expected_occupancy(cat, 1.0) == pytest.approx(float(exact), abs=1e-10)

    def test_derivative_at_zero_is_total_rate(self):
        cat = poisson_catalog(100, 1.2, 7.0)
        assert occupancy_derivative(cat, 0.0) == pytest.approx(7.0, rel=1e-12)

    def test_identical_exponential_derivative(self):
        cat = poisson_catalog(100, 0.0, 100.0)
        assert occupancy_derivative(cat, math.log(2)) == pytest.approx(50.0, abs=1e-12)

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(21)
        cat = random_catalog(rng, n=60)
        T, h = 0.7, 1e-6
        fd = (expected_occupancy(cat, T + h) - expected_occupancy(cat, T - h)) / (2 * h)
        assert occupancy_derivative(cat, T) == pytest.approx(fd, rel=1e-5)

    def test_concavity_and_saturation(self):
        rng = np.random.default_rng(22)
        cat = random_catalog(rng, n=40)
        grid = np.geomspace(1e-3, 1e3, 60) / cat.total_rate * cat.n
        K = np.array([expected_occupancy(cat, t) for t in grid])
        Kp = np.array([occupancy_derivative(cat, t) for t in grid])
        assert np.all(np.diff(K) >= -1e-12)
        assert np.all(np.diff(Kp) <= 1e-9 * cat.total_rate)  # K' nonincreasing
        assert K[-1] == pytest.approx(cat.n, rel=1e-3)


class TestInfiniteTimer:
    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=repr)
    def test_saturated_at_infinity(self, d):
        # K(inf) = n and K'(inf) = 0, consistent with ttl_hit(inf) = 1; a
        # RuntimeWarning from a kernel fails the test (filterwarnings)
        cat = build_catalog(ZipfLaw(0.8), 40, 10.0, d)
        assert _occupancy_and_slope(cat, math.inf) == (40.0, 0.0)
        assert expected_occupancy(cat, math.inf) == 40.0
        assert occupancy_derivative(cat, math.inf) == 0.0
        assert miss_probability(cat, math.inf) == 0.0
        assert ttl_hit(cat, math.inf).aggregate == 1.0

    @pytest.mark.parametrize("T", [1e307, 1e308, sys.float_info.max], ids=repr)
    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=repr)
    def test_saturated_past_the_float_range(self, d, T):
        # rate_i*T and the kernels' own scalings overflow here: the limits,
        # with no overflow warning
        cat = build_catalog(ZipfLaw(0.8), 40, 50.0, d)
        assert _occupancy_and_slope(cat, T) == (40.0, 0.0)
        assert np.all(ttl_hit(cat, T).per_content == 1.0)


class TestInvalidTimer:
    @pytest.mark.parametrize("T", [math.nan, -1.0, -math.inf], ids=repr)
    @pytest.mark.parametrize("f", [expected_occupancy, occupancy_derivative,
                                   miss_probability, ttl_hit], ids=lambda f: f.__name__)
    def test_raises_config_error(self, f, T):
        # NaN fails a `T < 0` guard and would come back as NaN, or as a
        # 0.0 aggregate from ttl_hit
        with pytest.raises(ConfigError, match="T must be >= 0"):
            f(poisson_catalog(10, 0.8, 10.0), T)


class TestFusedOccupancy:
    """K and K' come from one pass over the classes."""

    def test_against_per_content_mpmath_sums(self):
        mp = pytest.importorskip("mpmath")
        gamma, weib = Gamma(0.5, 1.0), Weibull(0.7, 1.0)
        hyp = Hyperexponential((0.9, 0.1), (1.0, 0.1))
        cat = build_catalog(ZipfLaw(0.8), 90, 90.0, [(1 / 3, gamma), (1 / 3, weib),
                                                     (1 / 3, hyp)])
        k, s = cat.classes[1].shape, cat.classes[1].scale  # standardized Weibull
        w, r = cat.classes[2].weights, cat.classes[2].rates  # standardized mixture

        def content(c, t):
            """(age cdf, ccdf) of a unit-mean class law at t, at 40 digits."""
            if c == 0:  # Gamma(1/2, 1/2): x = t / 2
                x = t / 2
                Q = mp.gammainc(0.5, x, mp.inf, regularized=True)
                return 2 * x * Q + mp.gammainc(1.5, 0, x, regularized=True), Q
            if c == 1:  # mean 1: age = t e^-z + P(1 + 1/k, z)
                z = (t / s) ** k
                return t * mp.e ** -z + mp.gammainc(1 + 1 / mp.mpf(k), 0, z,
                                                    regularized=True), mp.e ** -z
            return (mp.fsum(wj / rj * -mp.expm1(-rj * t) for wj, rj in zip(w, r)),
                    mp.fsum(wj * mp.e ** (-rj * t) for wj, rj in zip(w, r)))

        with mp.workdps(40):
            for T in (0.05, 1.0, 30.0):
                pairs = [content(int(c), mp.mpf(float(rate)) * T)
                         for rate, c in zip(cat.rates, cat.class_of)]
                K = mp.fsum(a for a, _ in pairs)
                Kp = mp.fsum(mp.mpf(float(rate)) * q for rate, (_, q) in zip(cat.rates, pairs))
                got = _occupancy_and_slope(cat, T)
                assert got[0] == pytest.approx(float(K), rel=1e-13)
                assert got[1] == pytest.approx(float(Kp), rel=1e-13)
                assert got == (expected_occupancy(cat, T), occupancy_derivative(cat, T))

    def test_gamma_half_at_a_million_contents(self):
        # the n = 1e6 edge regime; the residual is checked with a K written
        # from scipy's incomplete gammas, independent of the fused kernel
        n, C, rtol = 10**6, 3e5, 1e-9
        cat = build_catalog(ZipfLaw(0.8), n, float(n), Gamma(0.5, 1.0))
        res = characteristic_time(cat, C, rtol=rtol)
        x = 0.5 * cat.rates * res.t
        K = math.fsum((2.0 * x * special.gammaincc(0.5, x)
                       + special.gammainc(1.5, x)).tolist())
        assert abs(K - C) <= rtol * C


class TestBracket:
    def test_identical_poisson_closed_form(self):
        cat = poisson_catalog(100, 0.0, 100.0)
        lo, hi = tn_bracket(cat, 50.0, Exponential(1.0), n1=100, n2=0)
        assert lo == pytest.approx(0.5, abs=1e-12)
        assert hi == pytest.approx(math.log(2), abs=1e-12)
        t = characteristic_time(cat, 50.0).t
        assert lo - 1e-9 <= t <= hi + 1e-9

    def test_cache_too_large_for_envelope(self):
        members = [Exponential(1.0), Gamma(2.0, 2.0)]
        cat = build_catalog(ZipfLaw(0.5), 50, 1.0, [(0.5, members[0]), (0.5, members[1])])
        psi = MaxEnvelope(members)
        with pytest.raises(ConfigError, match="cache too large"):
            tn_bracket(cat, 49.0, psi)

    def test_scaling_alpha_sublinear(self):
        # T_n * total_rate / n stays within a fixed band as n grows
        ratios = []
        for n in (100, 1000, 10000):
            lam = np.arange(1, n + 1, dtype=float) ** -0.8
            cat = ContentCatalog(rates=lam, classes=(Exponential(1.0),),
                                 class_of=np.zeros(n, dtype=np.int64))
            t = characteristic_time(cat, 0.3 * n).t
            ratios.append(t * cat.total_rate / n)
        assert max(ratios) / min(ratios) < 2.0

    def test_scaling_alpha_heavy(self):
        ratios = []
        for n in (100, 1000, 10000):
            lam = np.arange(1, n + 1, dtype=float) ** -1.5
            cat = ContentCatalog(rates=lam, classes=(Exponential(1.0),),
                                 class_of=np.zeros(n, dtype=np.int64))
            C = 0.1 * n
            t = characteristic_time(cat, C).t
            ratios.append(t * cat.total_rate / C ** 1.5)
        assert max(ratios) / min(ratios) < 2.0


class TestCharacteristicTime:
    def test_identical_poisson_closed_form(self):
        cat = poisson_catalog(100, 0.0, 100.0)
        res = characteristic_time(cat, 50.0)
        assert res.t == pytest.approx(math.log(2), abs=1e-10)
        assert res.residual <= 1e-9 * 50.0

    def test_identical_exponential_general(self):
        for lam, C, n in ((2.5, 30.0, 80), (0.3, 10.0, 40)):
            cat = build_catalog(ZipfLaw(0.0), n, lam * n, Exponential(1.0))
            res = characteristic_time(cat, C)
            assert res.t == pytest.approx(-math.log(1 - C / n) / lam, rel=1e-10)

    def test_solver_runtime_under_1ms(self):
        cat = poisson_catalog(100, 0.0, 100.0)
        characteristic_time(cat, 50.0)  # warm
        best = min(_timed_solve(cat) for _ in range(5))
        assert best < 1e-3

    def test_zipf_against_bisection_oracle(self):
        cat = poisson_catalog(10**4, 0.8, 1.0)
        res = characteristic_time(cat, 3000.0)
        oracle = bisection_characteristic_time(
            lambda T: expected_occupancy(cat, T), 3000.0)
        assert res.t == pytest.approx(oracle, rel=1e-8)

    def test_roundtrip_property(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            cat = random_catalog(rng)
            t0 = float(rng.uniform(0.2, 5.0)) / cat.total_rate * cat.n
            C = expected_occupancy(cat, t0)
            if not 0 < C < cat.n * 0.999:
                continue
            res = characteristic_time(cat, C)
            assert res.t == pytest.approx(t0, rel=1e-8)

    def test_infeasible_occupancy(self):
        cat = poisson_catalog(10, 0.0, 10.0)
        with pytest.raises(ConfigError, match="infeasible occupancy"):
            characteristic_time(cat, 10.0)
        with pytest.raises(ConfigError, match="infeasible occupancy"):
            characteristic_time(cat, 0.0)

    @pytest.mark.parametrize("rtol", [math.nan, math.inf, 0.0, -1e-9])
    def test_rtol_must_be_positive_finite(self, rtol):
        cat = poisson_catalog(1000, 0.8, 1000.0)
        with pytest.raises(ConfigError, match="rtol"):
            characteristic_time(cat, 300.0, rtol=rtol)

    def test_rate_rescaling_invariance(self):
        rng = np.random.default_rng(32)
        cat = random_catalog(rng, n=50)
        C = 0.4 * cat.n
        res1 = characteristic_time(cat, C)
        for c in (0.1, 10.0):
            scaled = ContentCatalog(rates=cat.rates * c, classes=cat.classes,
                                    class_of=cat.class_of)
            res2 = characteristic_time(scaled, C)
            assert res2.t == pytest.approx(res1.t / c, rel=1e-9)
            h1 = ttl_hit(cat, res1.t)
            h2 = ttl_hit(scaled, res2.t)
            assert np.allclose(h1.per_content, h2.per_content, atol=1e-10)


@st.composite
def catalogs(draw):
    """One- and two-class Zipf catalogs of 1 to 3000 contents; alpha = 0
    gives identical rates, and up to about 100 contents every rate group
    is a single content."""
    n = draw(st.integers(1, 3000))
    alpha = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    law = draw(families)
    if n >= 2 and draw(st.booleans()):
        law = [(0.5, law), (0.5, draw(families))]
    return build_catalog(ZipfLaw(alpha), n, float(n), law)


# the benchmark's hit-curve families, at n = 20000, Zipf 0.8 and 1.2, C/n = 0.05, 0.3, 0.9
HIT_CURVE_FAMILIES = [Exponential(1.0), Gamma(0.5, 1.0), Weibull(0.7, 1.0),
                      Hyperexponential((0.9, 0.1), (1.0, 0.1)), ParetoLomax(3.0, 1.0)]


class TestJensenStart:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(cat=catalogs(), log_t=st.floats(-6.0, 6.0))
    def test_bound_dominates_occupancy(self, cat, log_t):
        # U(T), from the rate groups whose root starts the solve, is >= K(T)
        T = 10.0 ** log_t  # the mean rate is 1
        U = _weighted_pass(_bound_parts(cat), T)[0]
        assert U >= expected_occupancy(cat, T) * (1.0 - 1e-12)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(cat=catalogs(), frac=st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    def test_agrees_with_the_single_stage_solve(self, cat, frac):
        C, rtol = 0.5 + frac * (cat.n - 1.0), 1e-9  # C in [0.5, n - 0.5]
        res = characteristic_time(cat, C, rtol=rtol)
        old, _, _ = single_stage_characteristic_time(
            lambda T: _occupancy_and_slope(cat, T), C, cat.total_rate, rtol * C)
        assert abs(expected_occupancy(cat, res.t) - C) <= rtol * C
        # both meet |K - C| <= rtol C, and K' falls: they differ by at most
        # 2 rtol C / K'(the larger)
        assert abs(res.t - old) <= 2.0 * rtol * C / occupancy_derivative(cat, max(res.t, old))

    @pytest.mark.parametrize("alpha, ratio", [(0.8, 0.3), (1.2, 0.9), (0.0, 0.05)])
    @pytest.mark.parametrize("law", HIT_CURVE_FAMILIES + [[(0.3, Gamma(0.5, 1.0)),
                                                           (0.7, Weibull(0.7, 1.0))]],
                             ids=["exponential", "gamma", "weibull", "hyperexponential",
                                  "pareto_lomax", "gamma+weibull"])
    def test_matches_bisection(self, law, alpha, ratio):
        n = 2000
        cat = build_catalog(ZipfLaw(alpha), n, float(n), law)
        res = characteristic_time(cat, ratio * n)
        oracle = bisection_characteristic_time(lambda T: expected_occupancy(cat, T), ratio * n)
        assert res.t == pytest.approx(oracle, rel=1e-8)

    def test_two_full_passes_per_solve_on_the_hit_curve_grid(self, monkeypatch):
        full = []

        def counted(cat, T):
            full.append(T)
            return _occupancy_and_slope(cat, T)

        monkeypatch.setattr(approx, "_occupancy_and_slope", counted)
        n, steps = 20_000, 0
        for law in HIT_CURVE_FAMILIES:
            for alpha in (0.8, 1.2):
                cat = build_catalog(ZipfLaw(alpha), n, float(n), law)
                for ratio in (0.05, 0.3, 0.9):
                    full.clear()
                    res = characteristic_time(cat, ratio * n, rtol=1e-9)
                    assert len(full) <= 2
                    assert len(full) == res.iterations + 1
                    assert res.residual <= 1e-9 * ratio * n
                    steps += res.iterations
        assert steps <= 40  # 150 from C / total_rate


class TestTtlHit:
    def test_zero_timer(self):
        cat = poisson_catalog(20, 0.5, 4.0)
        hit = ttl_hit(cat, 0.0)
        assert np.all(hit.per_content == 0.0)
        assert hit.aggregate == 0.0

    def test_identical_poisson_at_ln2(self):
        cat = poisson_catalog(100, 0.0, 100.0)
        hit = ttl_hit(cat, math.log(2))
        assert np.allclose(hit.per_content, 0.5, atol=1e-12)
        assert hit.aggregate == pytest.approx(0.5, abs=1e-12)

    def test_complement_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            cat = random_catalog(rng)
            T = float(rng.uniform(0.1, 3.0)) * cat.n / cat.total_rate
            agg = ttl_hit(cat, T).aggregate
            assert agg + miss_probability(cat, T) == pytest.approx(1.0, abs=1e-12)

    def test_aggregate_independent_of_blas_threads(self):
        # OpenBLAS splits a dot product across its threads from n of about
        # 12 000, which reorders the sum; the aggregate must not depend on it
        code = ("from ttlapprox.approx import ttl_hit\n"
                "from ttlapprox.distributions import Exponential\n"
                "from ttlapprox.popularity import ZipfLaw, build_catalog\n"
                "for n in (16_000, 100_000):\n"
                "    cat = build_catalog(ZipfLaw(0.8), n, float(n), Exponential(1.0))\n"
                "    print(repr(ttl_hit(cat, 0.7).aggregate))\n")
        src = str(Path(approx.__file__).resolve().parents[1])
        outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, timeout=120,
                               env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                                        PYTHONPATH=src)).stdout
                for threads in ("1", "2")]
        assert len(outs[0].split()) == 2 and outs[0] == outs[1]


def _timed_solve(cat):
    t0 = time.perf_counter()
    characteristic_time(cat, 50.0)
    return time.perf_counter() - t0


class TestConcentrationCurve:
    def test_at_zero(self):
        cc = concentration_curve(1.5, 0.0, 0.4, Exponential(1.0), 100.0, 0.5)
        assert cc.bound_upper(0.0) == 1.0

    def test_poisson_example_constants(self):
        cc = concentration_curve(1.5, 0.0, 0.4, Exponential(1.0), 1000.0, 0.5, x0=1.0)
        assert cc.nu0 == pytest.approx(math.log(2), rel=1e-12)
        assert cc.phi == pytest.approx(0.4 * math.exp(-2 * math.log(2)), rel=1e-12)

    def test_monotone_decreasing_in_capacity(self):
        vals = [concentration_curve(1.5, 0.0, 0.4, Exponential(1.0), C, 0.5).bound_upper(0.3)
                for C in (100.0, 1000.0, 10000.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_bounds_in_unit_interval(self):
        cc = concentration_curve(2.0, 0.1, 0.3, Gamma(2.0, 2.0), 500.0, 0.4)
        xs = np.linspace(0.0, 1.0, 50)
        up = cc.bound_upper(xs)
        lo = cc.bound_lower(xs)
        assert np.all((up > 0) & (up <= 1.0))
        assert np.all((lo > 0) & (lo <= 1.0))

    def test_infeasible_beta1(self):
        with pytest.raises(ConfigError, match="infeasible"):
            concentration_curve(1.5, 0.0, 0.4, Exponential(1.0), 100.0, 1.5)
