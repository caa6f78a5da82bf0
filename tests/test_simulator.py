import math
import warnings

import numpy as np
import pytest
from scipy import stats

from ttlapprox.approx import characteristic_time
from ttlapprox.distributions import Exponential, Gamma, InterRequestDistribution, Weibull
from ttlapprox.errors import ConfigError
from ttlapprox.popularity import ContentCatalog, ZipfLaw, build_catalog
from ttlapprox.simulator import (_WINDOW_EVENTS, LRU, TTL, SimulationConfig,
                                 _window_requests, init_stationary, replicate, run)

from oracles import lru_irm_markov, lru_irm_product_form, ordered_dict_lru


def exp_catalog(rates):
    rates = np.asarray(rates, dtype=float)
    return ContentCatalog(rates=rates, classes=(Exponential(1.0),),
                          class_of=np.zeros(rates.size, dtype=np.int64))


THREE = exp_catalog([6.0, 3.0, 2.0])

# bursty and non-exponential: a wrong window merge shows in these streams
RENEWAL = build_catalog(ZipfLaw(0.8), 12, 12.0,
                        [(0.5, Gamma(0.5, 1.0)), (0.5, Weibull(0.7, 1.0))])


def traced(config):
    """Run one replication and return its report and the measured requests
    as arrays (times, contents, hits)."""
    rows = []
    report = run(config, trace=lambda t, i, h: rows.append((t, i, h)))
    times, ids, hits = zip(*rows)
    return report, np.array(times), np.array(ids), np.array(hits)


def brute_force_lru(ids, times, C):
    """Replay through a recency list: per request, whether it hits and the
    reuse window just before it (None while fewer than C contents were
    seen)."""
    recency, last, hits, taus = [], {}, [], []
    for i, t in zip(ids.tolist(), times.tolist()):
        taus.append(t - last[recency[C - 1]] if len(recency) >= C else None)
        hits.append(i in recency[:C])
        if i in recency:
            recency.remove(i)
        recency.insert(0, i)
        last[i] = t
    return np.array(hits), taus


class ConstantGap(InterRequestDistribution):
    """Test-only unit-mean law: every gap is 1 and every age 1/4, so
    contents of equal rate request at exactly the same times."""

    mean = 1.0

    def sample_inter_batch(self, rng, size):
        return np.ones(size)

    def sample_age_batch(self, rng, size):
        return np.full(size, 0.25)


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
    # every request is measured (warmup 0), so the trace is the whole path
    # and spans several windows of the engine

    def test_measure_tau_example(self):
        cfg = SimulationConfig(catalog=RENEWAL, policy=LRU(2), horizon_events=40_000,
                               warmup_events=0, seed=3, tau_stride=1)
        rep, times, ids, _ = traced(cfg)
        _, taus = brute_force_lru(ids, times, 2)
        expected = [tau for tau in taus if tau is not None]
        assert times[-1] > 2 * _WINDOW_EVENTS / RENEWAL.total_rate
        assert np.array_equal(rep.tau_samples, expected)

    def test_measure_tau_capacity_one(self):
        # with C = 1 the window is the time since the previous request
        cfg = SimulationConfig(catalog=RENEWAL, policy=LRU(1), horizon_events=40_000,
                               warmup_events=0, seed=4, tau_stride=1)
        rep, times, _, _ = traced(cfg)
        assert np.array_equal(rep.tau_samples, np.diff(times))

    def test_measure_tau_undefined(self):
        # no window is sampled before C distinct contents have been seen,
        # and with warmup and stride 5 the samples are every fifth measured
        # request of the same path, counted across windows
        full = SimulationConfig(catalog=RENEWAL, policy=LRU(12), horizon_events=40_000,
                                warmup_events=0, seed=5, tau_stride=1)
        rep, times, ids, _ = traced(full)
        _, taus = brute_force_lru(ids, times, 12)
        undefined = sum(tau is None for tau in taus)
        assert 12 <= undefined < rep.total_requests
        assert taus[undefined:].count(None) == 0
        assert np.array_equal(rep.tau_samples, taus[undefined:])
        strided = SimulationConfig(catalog=RENEWAL, policy=LRU(12),
                                   horizon_events=40_000, warmup_events=7_001, seed=5,
                                   tau_stride=5)
        assert np.array_equal(run(strided).tau_samples, taus[7_001::5])

    def test_lru_hit_iff_among_c_most_recent(self):
        for C in (1, 5, 11):
            cfg = SimulationConfig(catalog=RENEWAL, policy=LRU(C), horizon_events=40_000,
                                   warmup_events=0, seed=17, check_invariants=True)
            rep, times, ids, hits = traced(cfg)
            assert rep.total_requests == times.size == 40_000
            assert np.all(np.diff(times) >= 0)
            assert np.array_equal(hits, brute_force_lru(ids, times, C)[0])

    def test_ttl_hit_iff_previous_request_within_timer(self):
        T = 1.3
        cfg = SimulationConfig(catalog=RENEWAL, policy=TTL(T), horizon_events=40_000,
                               warmup_events=0, seed=18)
        _, times, ids, hits = traced(cfg)
        assert np.all(np.diff(times) >= 0)
        last = {}
        expected = []
        for i, t in zip(ids.tolist(), times.tolist()):
            expected.append(i in last and t - last[i] <= T)
            last[i] = t
        assert np.array_equal(hits, expected)

    def test_ttl_hit_monotone_in_timer(self):
        # the request path depends on the seed only, so both timers see it
        short, long = (SimulationConfig(catalog=RENEWAL, policy=TTL(T),
                                        horizon_events=20_000, warmup_events=0, seed=19)
                       for T in (0.5, 1.5))
        _, t1, i1, h1 = traced(short)
        _, t2, i2, h2 = traced(long)
        assert np.array_equal(t1, t2) and np.array_equal(i1, i2)
        assert np.all(h2 >= h1)  # pointwise: longer timer never loses a hit
        assert np.any(h2 > h1)


# Zipf(0.8) over 2000 bursty renewal streams; 60 000 requests span four
# windows of the engine
ZIPF_RENEWAL = build_catalog(ZipfLaw(0.8), 2000, 2000.0,
                             [(0.5, Gamma(0.5, 1.0)), (0.5, Weibull(0.7, 1.0))])


class TestPointerScan:
    """The LRU scan against the former OrderedDict loop (``ordered_dict_lru``)
    replayed over the same sample path, which depends on the seed alone."""

    @pytest.mark.parametrize("C", [1, 600, 1999, 2000])
    def test_bitwise_equal_to_ordered_dict_loop(self, C):
        n, warm = ZIPF_RENEWAL.n, 20_000  # warmup ends inside the second window
        width = _WINDOW_EVENTS / ZIPF_RENEWAL.total_rate
        cases = [({"horizon_events": 60_000}, stride) for stride in (0, 1, 7)]
        cases.append(({"horizon_time": 2.5 * width}, 7))
        for horizon, stride in cases:
            # the whole path: every request measured, any policy
            _, times, ids, _ = traced(SimulationConfig(
                catalog=ZIPF_RENEWAL, policy=TTL(1.0), warmup_events=0, seed=37, **horizon))
            assert width < times[warm] < 2 * width < times[-1]
            rep = run(SimulationConfig(catalog=ZIPF_RENEWAL, policy=LRU(C), warmup_events=warm,
                                       seed=37, tau_stride=stride, check_invariants=True,
                                       **horizon))
            hit, taus = ordered_dict_lru(ids, times, C, first=warm, stride=stride)
            seen = ids[warm:]
            assert np.array_equal(rep.requests, np.bincount(seen, minlength=n))
            assert np.array_equal(rep.hits, np.bincount(seen[hit[warm:]], minlength=n))
            assert rep.tau_samples.tobytes() == taus.tobytes()
            if stride and C <= 600:  # near n, the cache does not fill in this path
                assert taus.size > 0


class TestWindowMerge:
    def test_tied_times_ordered_by_content(self):
        # rates 1, 2, 4 and 0.5 repeat over 64 contents, so gaps and ages
        # are dyadic, every sum is exact, and the 16 contents of each rate
        # request at the same times
        rates = np.tile([1.0, 2.0, 4.0, 0.5], 16)
        cat = ContentCatalog(rates=rates, classes=(ConstantGap(),),
                             class_of=np.zeros(rates.size, dtype=np.int64))
        nxt, rng = init_stationary(cat, seed=0)
        last = np.full(cat.n, -np.inf)
        t1 = _WINDOW_EVENTS / cat.total_rate
        times, ids, prev = _window_requests(cat.rates, cat.groups, nxt, last, rng, t1)
        assert times.size > _WINDOW_EVENTS // 2
        assert np.sum(np.diff(times) == 0) > times.size // 2
        assert np.array_equal(np.lexsort((ids, times)), np.arange(times.size))
        again = np.isfinite(prev)
        assert np.array_equal((times - prev)[again], 1.0 / rates[ids[again]])
        # and across windows, as the engine sees them
        _, times, ids, _ = traced(SimulationConfig(catalog=cat, policy=TTL(1.0),
                                                   horizon_events=40_000, warmup_events=0))
        assert np.array_equal(np.lexsort((ids, times)), np.arange(times.size))

    def test_gaps_follow_class_law_across_windows(self):
        # 4096 equally popular unit-rate contents make about 4 requests each
        # per window, so roughly a quarter of all gaps straddle a window edge.
        # A gap is kept iff it starts before time 50, which depends on the
        # earlier gaps only, so the kept gaps are i.i.d. draws of the law;
        # keeping the gaps that end before the horizon instead would drop
        # each content's last, length-biased gap.  Gaps longer than 25 (the
        # horizon is at 75) have probability below 1e-4 in both classes.
        cat = build_catalog(ZipfLaw(0.0), 4096, 4096.0,
                            [(0.5, Gamma(0.5, 1.0)), (0.5, Weibull(0.7, 1.0))])
        cfg = SimulationConfig(catalog=cat, policy=TTL(1.0), horizon_time=75.0,
                               warmup_events=0, seed=21)
        _, times, ids, _ = traced(cfg)
        order = np.lexsort((times, ids))
        t, i = times[order], ids[order]
        keep = (i[1:] == i[:-1]) & (t[:-1] < 50.0)
        start, end, who = t[:-1][keep], t[1:][keep], i[1:][keep]
        width = _WINDOW_EVENTS / cat.total_rate
        straddle = np.floor(end / width) > np.floor(start / width)
        assert straddle.sum() > 40_000
        for c, dist in enumerate(cat.classes):
            mine = cat.class_of[who] == c
            u = dist.cdf((end - start)[mine] * cat.rates[who[mine]])
            assert stats.kstest(u, "uniform").pvalue > 1e-3

    def test_horizon_time_cuts_the_same_path(self):
        width = _WINDOW_EVENTS / THREE.total_rate
        horizon = 2.6 * width
        short, long = (SimulationConfig(catalog=THREE, policy=LRU(2), horizon_time=h,
                                        warmup_time=0.3 * width, seed=23)
                       for h in (horizon, 4.0 * width))
        rep, t1, i1, h1 = traced(short)
        _, t2, i2, h2 = traced(long)
        assert t1[-1] <= horizon < t2[-1]
        assert t1[0] >= 0.3 * width
        k = t1.size
        assert np.array_equal(t1, t2[:k]) and np.array_equal(i1, i2[:k])
        assert np.array_equal(h1, h2[:k]) and t2[k] > horizon
        assert rep.elapsed_time == t1[-1] - t1[0]


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
