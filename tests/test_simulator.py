import math
import warnings

import numpy as np
import pytest

from ttlapprox.approx import characteristic_time
from ttlapprox.distributions import Exponential, Gamma, Weibull
from ttlapprox.errors import ConfigError
from ttlapprox.popularity import ContentCatalog, ZipfLaw, build_catalog
from ttlapprox.simulator import (LRU, TTL, LruState, SimulationConfig, TtlState,
                                 init_stationary, measure_tau, replicate, run)

from oracles import lru_irm_markov, lru_irm_product_form


def exp_catalog(rates):
    rates = np.asarray(rates, dtype=float)
    return ContentCatalog(rates=rates, classes=(Exponential(1.0),),
                          class_of=np.zeros(rates.size, dtype=np.int64))


THREE = exp_catalog([6.0, 3.0, 2.0])


class TestConfigValidation:
    def test_horizon_required(self):
        with pytest.raises(ConfigError, match="exactly one"):
            SimulationConfig(catalog=THREE, policy=LRU(2))
        with pytest.raises(ConfigError, match="exactly one"):
            SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=10,
                             horizon_time=1.0)

    def test_horizon_exceeds_warmup(self):
        with pytest.raises(ConfigError, match="horizon must exceed warmup"):
            SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=10,
                             warmup_events=10)

    def test_capacity_bounds(self):
        with pytest.raises(ConfigError):
            SimulationConfig(catalog=THREE, policy=LRU(4), horizon_events=10)
        with pytest.raises(ConfigError):
            SimulationConfig(catalog=THREE, policy=TTL(0.0), horizon_events=10)

    def test_tau_requires_lru(self):
        with pytest.raises(ConfigError, match="requires the LRU policy"):
            SimulationConfig(catalog=THREE, policy=TTL(1.0), horizon_events=10,
                             tau_stride=2)


class TestStationaryInit:
    def test_exponential_first_arrival_distribution(self):
        cat = exp_catalog([2.0])
        rng_draws = []
        for seed in range(20_000):
            arr, _ = init_stationary(cat, seed)
            rng_draws.append(arr[0])
        x = np.asarray(rng_draws)
        # memoryless: first arrival is exponential with the content's rate
        for t in (0.2, 0.5, 1.0):
            assert abs((x <= t).mean() - (1 - math.exp(-2 * t))) < 0.01

    def test_gamma_age_law_at_grid_points(self):
        d = Gamma(2.0, 2.0)
        cat = ContentCatalog(rates=np.ones(1), classes=(d,),
                             class_of=np.zeros(1, dtype=np.int64))
        rng = np.random.default_rng(0)
        x = np.array([d.sample_age(rng) for _ in range(100_000)])
        for t in (0.25, 0.5, 1.0, 2.0, 4.0):
            assert abs((x <= t).mean() - d.age_cdf(t)) < 0.005

    def test_bitwise_determinism(self):
        cfg = SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=30_000,
                               warmup_events=1_000, seed=123)
        a = run(cfg)
        b = run(cfg)
        assert np.array_equal(a.requests, b.requests)
        assert np.array_equal(a.hits, b.hits)
        assert a.elapsed_time == b.elapsed_time


class TestRun:
    def test_single_content_always_hits_after_first(self):
        cat = exp_catalog([1.0])
        cfg = SimulationConfig(catalog=cat, policy=LRU(1), horizon_events=2_000,
                               warmup_events=10, seed=5)
        rep = run(cfg)
        assert rep.aggregate_hit == 1.0

    def test_irm_markov_oracle_small(self):
        p = np.array([6 / 11, 3 / 11, 2 / 11])
        exact = lru_irm_markov(p, 2)
        assert np.allclose(exact, lru_irm_product_form(p, 2), atol=1e-12)
        cfg = SimulationConfig(catalog=THREE, policy=LRU(2),
                               horizon_events=1_020_000, warmup_events=20_000, seed=42)
        rep = run(cfg)
        se = np.sqrt(exact * (1 - exact) / rep.requests)
        assert np.all(np.abs(rep.hit_ratio - exact) < 4 * se)

    def test_ttl_at_characteristic_time(self):
        cat = build_catalog(ZipfLaw(0.0), 100, 100.0, Exponential(1.0))
        T = characteristic_time(cat, 50.0).t
        cfg = SimulationConfig(catalog=cat, policy=TTL(T), horizon_events=405_000,
                               warmup_events=5_000, seed=7)
        rep = run(cfg)
        se = math.sqrt(0.25 / rep.total_requests)
        assert abs(rep.aggregate_hit - 0.5) < 4 * se

    def test_aggregate_identity(self):
        cfg = SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=50_000,
                               warmup_events=1_000, seed=9)
        rep = run(cfg)
        weighted = np.sum(rep.requests * rep.hit_ratio) / rep.requests.sum()
        assert rep.aggregate_hit == pytest.approx(weighted, abs=1e-15)
        assert rep.hits.sum() <= rep.requests.sum() == rep.total_requests

    def test_per_content_rates_match_intensities(self):
        cat = exp_catalog([4.0, 2.0, 1.0, 0.5])
        cfg = SimulationConfig(catalog=cat, policy=LRU(2), horizon_events=160_000,
                               warmup_events=10_000, seed=11)
        rep = run(cfg)
        est = rep.requests / rep.elapsed_time
        se = np.sqrt(cat.rates / rep.elapsed_time)  # renewal count variance ~ rate*t for poisson
        assert np.all(np.abs(est - cat.rates) < 4 * se)

    def test_empirical_gap_means(self):
        cat = exp_catalog([2.0, 1.0])
        cfg = SimulationConfig(catalog=cat, policy=LRU(1), horizon_events=200_000,
                               warmup_events=1_000, seed=13)
        rep = run(cfg)
        measured_rate = rep.requests / rep.elapsed_time
        for i, lam in enumerate(cat.rates):
            se = lam / math.sqrt(rep.requests[i])
            assert abs(measured_rate[i] - lam) < 4 * se

    def test_capacity_invariant_checked(self):
        cfg = SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=20_000,
                               warmup_events=100, seed=3, check_invariants=True)
        rep = run(cfg)  # assertion inside the loop would fail on violation
        assert rep.total_requests == 19_900


class TestRecencySemantics:
    def test_measure_tau_example(self):
        st = LruState(2)
        st.request("c", 5.0)
        st.request("b", 8.0)
        st.request("a", 10.0)
        assert measure_tau(st, 11.0) == pytest.approx(3.0)

    def test_measure_tau_capacity_one(self):
        st = LruState(1)
        st.request("a", 4.0)
        st.request("b", 9.0)
        assert measure_tau(st, 10.0) == pytest.approx(1.0)

    def test_measure_tau_undefined(self):
        st = LruState(3)
        st.request("a", 1.0)
        assert measure_tau(st, 2.0) is None

    def test_lru_hit_iff_among_c_most_recent(self):
        # replay a random trace against a brute-force recency scan
        rng = np.random.default_rng(17)
        C, n = 5, 12
        st = LruState(C)
        recency = []
        now = 0.0
        for _ in range(10_000):
            now += float(rng.exponential(0.1))
            i = int(rng.integers(0, n))
            brute_hit = i in recency[:C]
            assert st.request(i, now) == brute_hit
            if i in recency:
                recency.remove(i)
            recency.insert(0, i)

    def test_ttl_hit_monotone_in_timer(self):
        rng = np.random.default_rng(19)
        times = np.cumsum(rng.exponential(0.2, 5_000))
        contents = rng.integers(0, 8, 5_000)
        small, large = TtlState(0.5), TtlState(1.5)
        for t, i in zip(times, contents):
            h1 = small.request(int(i), float(t))
            h2 = large.request(int(i), float(t))
            assert h2 >= h1  # pointwise: longer timer never loses a hit


class TestTauSampling:
    def test_exceedance_below_upper_concentration_bound(self):
        # one-sided: the bound is loose at this scale, so this checks the
        # inequality direction, not tightness
        from ttlapprox.approx import concentration_curve
        cat = build_catalog(ZipfLaw(0.0), 100, 100.0, Exponential(1.0))
        Tn = characteristic_time(cat, 50.0).t
        cfg = SimulationConfig(catalog=cat, policy=LRU(50), horizon_events=210_000,
                               warmup_events=5_000, seed=29, tau_stride=2)
        rep = run(cfg)
        assert rep.tau_samples.size >= 100_000
        freq = float(np.mean(rep.tau_samples > 1.2 * Tn))
        sigma = math.sqrt(max(freq * (1 - freq), 1e-12) / rep.tau_samples.size)
        curve = concentration_curve(kappa1=1.5, kappa2=0.0, gamma=0.4,
                                    psi=Exponential(1.0), C=50.0, beta1=0.5)
        assert freq <= curve.bound_upper(0.2) + 3 * sigma

    def test_tau_concentrates_near_characteristic_time(self):
        cat = build_catalog(ZipfLaw(0.0), 200, 200.0, Exponential(1.0))
        Tn = characteristic_time(cat, 100.0).t
        cfg = SimulationConfig(catalog=cat, policy=LRU(100), horizon_events=120_000,
                               warmup_events=2_000, seed=23, tau_stride=4)
        rep = run(cfg)
        assert rep.tau_samples.size > 20_000
        assert rep.tau_quantile(0.5) == pytest.approx(Tn, rel=0.05)
        # exceedance shrinks with the band width
        e1 = rep.tau_exceedance(0.9 * Tn, 1.1 * Tn)
        e2 = rep.tau_exceedance(0.7 * Tn, 1.3 * Tn)
        assert e2 < e1


class TestReplicate:
    def test_same_master_seed_reproduces(self):
        cfg = SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=40_000,
                               warmup_events=2_000, seed=77, replications=3)
        a = replicate(cfg, workers=1)
        b = replicate(cfg, workers=2)
        assert np.array_equal(a.hits, b.hits)
        assert np.array_equal(a.requests, b.requests)
        assert a.aggregate_stderr == b.aggregate_stderr

    def test_renewal_tau_report_independent_of_workers(self):
        cat = build_catalog(ZipfLaw(0.8), 60, 60.0,
                            [(0.5, Gamma(0.5, 1.0)), (0.5, Weibull(0.7, 1.0))])
        cfg = SimulationConfig(catalog=cat, policy=LRU(20), horizon_events=20_000,
                               warmup_events=2_000, seed=5, replications=3, tau_stride=7)
        a = replicate(cfg, workers=1)
        b = replicate(cfg, workers=2)
        assert a.tau_samples.size > 0
        assert np.array_equal(a.hits, b.hits)
        assert np.array_equal(a.requests, b.requests)
        assert np.array_equal(a.tau_samples, b.tau_samples)

    def test_stderr_of_rarely_requested_contents_warns_nothing(self):
        # with 2 replications many tail contents have < 2 finite hit ratios
        cat = build_catalog(ZipfLaw(0.8), 400, 400.0, Exponential(1.0))
        cfg = SimulationConfig(catalog=cat, policy=LRU(60), horizon_events=3_000,
                               warmup_events=500, seed=8, replications=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = replicate(cfg, workers=1)
        no_stderr = np.isnan(rep.hit_ratio_stderr)
        assert no_stderr.any() and not no_stderr.all()
        assert np.all(no_stderr[rep.requests == 0])

    def test_replications_differ(self):
        cfg = SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=30_000,
                               warmup_events=1_000, seed=77, replications=2)
        rep = replicate(cfg, workers=1)
        assert rep.per_replication_aggregate[0] != rep.per_replication_aggregate[1]

    def test_stderr_scales_like_inverse_sqrt_replications(self):
        # split a fixed pool of 64 per-replication aggregates into disjoint
        # groups: the group-mean standard error should scale ~ 1/sqrt(R)
        cat = build_catalog(ZipfLaw(0.0), 50, 50.0, Exponential(1.0))
        cfg = SimulationConfig(catalog=cat, policy=LRU(25), horizon_events=13_000,
                               warmup_events=1_000, seed=31, replications=64)
        rep = replicate(cfg, workers=2)
        a = rep.per_replication_aggregate
        sd = a.std(ddof=1)

        def stderr_of_R(R):
            groups = a[: (64 // R) * R].reshape(-1, R)
            return np.mean(groups.std(axis=1, ddof=1) / math.sqrt(R))

        for R in (4, 16, 64):
            expected = sd / math.sqrt(R)
            assert stderr_of_R(R) == pytest.approx(expected, rel=0.5)
        assert stderr_of_R(4) / stderr_of_R(16) == pytest.approx(2.0, rel=0.5)

    def test_aggregate_stderr_definition(self):
        cfg = SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=30_000,
                               warmup_events=1_000, seed=41, replications=4)
        rep = replicate(cfg, workers=1)
        a = rep.per_replication_aggregate
        assert rep.aggregate_stderr == pytest.approx(a.std(ddof=1) / 2.0, rel=1e-12)
