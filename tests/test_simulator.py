import math
import multiprocessing
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ttlapprox.approx import characteristic_time
from ttlapprox.distributions import (Exponential, Gamma, Hyperexponential,
                                     InterRequestDistribution, ParetoLomax, Weibull)
from ttlapprox import simulator
from ttlapprox.errors import ConfigError
from ttlapprox.popularity import ContentCatalog, ZipfLaw, build_catalog
from ttlapprox.simulator import (_WINDOW_EVENTS, LRU, TTL, SimulationConfig, _Lru, _merged,
                                 _window_draws, init_stationary, replicate, run)

from oracles import (lru_irm_markov, lru_irm_product_form, ordered_dict_lru,
                     segmented_window_draws)


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
        # unit-rate contents: every first arrival is a draw from d's age law
        d = Gamma(2.0, 2.0)
        n = 100_000
        cat = ContentCatalog(rates=np.ones(n), classes=(d,),
                             class_of=np.zeros(n, dtype=np.int64))
        x, _ = init_stationary(cat, 0)
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


# rates 1, 2, 4 and 0.5 repeat over 64 contents: 16 contents share every
# request time
TIED = ContentCatalog(rates=np.tile([1.0, 2.0, 4.0, 0.5], 16), classes=(ConstantGap(),),
                      class_of=np.zeros(64, dtype=np.int64))


def check_against_ordered_dict_loop(catalog, C, stride, seed, warmup, horizon):
    """Run LRU(C) with ``check_invariants`` and compare hits, requests,
    tau_samples and elapsed_time bitwise with ``ordered_dict_lru`` replayed
    over the whole sample path, which depends on the seed alone.  Returns
    the report, the path's times and contents, and the index of its first
    measured request."""
    _, times, ids, _ = traced(SimulationConfig(catalog=catalog, policy=TTL(1.0),
                                               warmup_events=0, seed=seed, **horizon))
    rep = run(SimulationConfig(catalog=catalog, policy=LRU(C), seed=seed, tau_stride=stride,
                               check_invariants=True, **warmup, **horizon))
    first = min(times.size, max(warmup.get("warmup_events", 0),
                                int(np.searchsorted(times, warmup.get("warmup_time", 0.0)))))
    hit, taus = ordered_dict_lru(ids, times, C, first=first, stride=stride)
    seen = ids[first:]
    assert np.array_equal(rep.requests, np.bincount(seen, minlength=catalog.n))
    assert np.array_equal(rep.hits, np.bincount(seen[hit[first:]], minlength=catalog.n))
    assert rep.tau_samples.tobytes() == taus.tobytes()
    assert rep.elapsed_time == (times[-1] - times[first] if seen.size else 0.0)
    return rep, times, ids, first


class TestPointerScan:
    """The LRU scan against the former OrderedDict loop (``ordered_dict_lru``)
    replayed over the same sample path, which depends on the seed alone."""

    @pytest.mark.parametrize("C", [1, 600, 1999, 2000])
    def test_bitwise_equal_to_ordered_dict_loop(self, C):
        width = _WINDOW_EVENTS / ZIPF_RENEWAL.total_rate
        cases = [({"horizon_events": 60_000}, stride) for stride in (0, 1, 7, 16)]
        cases.append(({"horizon_time": 2.5 * width}, 7))
        for horizon, stride in cases:
            # the warmup ends inside the second window
            rep, times, _, first = check_against_ordered_dict_loop(
                ZIPF_RENEWAL, C, stride, seed=37, warmup={"warmup_events": 20_000},
                horizon=horizon)
            assert width < times[first] < 2 * width < times[-1]
            if stride and C <= 600:  # near n, the cache does not fill in this path
                assert rep.tau_samples.size > 0


class TestWarmupRebuild:
    """Windows wholly inside the warmup are neither merged nor scanned; the
    LRU starts at the first measured window from each content's latest
    request, which must give the same path as scanning the warmup."""

    @pytest.mark.parametrize("stride", [0, 3])
    @pytest.mark.parametrize("C", [5, 17, 40, 63])
    def test_tied_latest_requests_cached_in_merge_order(self, C, stride):
        # the warmup ends exactly at a window edge, so the first measured
        # request sees the rebuilt state itself; 16 contents share each
        # latest request time, and C cuts through a group of them
        width = _WINDOW_EVENTS / TIED.total_rate
        rep, times, ids, first = check_against_ordered_dict_loop(
            TIED, C, stride, seed=0, warmup={"warmup_time": 2 * width},
            horizon={"horizon_events": 4 * _WINDOW_EVENTS})
        assert times[first - 1] < 2 * width <= times[first]
        assert rep.total_requests > _WINDOW_EVENTS
        latest = np.full(TIED.n, -np.inf)
        np.maximum.at(latest, ids[:first], times[:first])
        top = np.sort(latest)[::-1]
        assert top[C - 1] == top[C]

    @pytest.mark.parametrize("C", [29, 30])
    def test_fewer_requested_contents_than_capacity(self, C):
        # Zipf(3): only 20 of 30 contents are requested in the first window
        cat = build_catalog(ZipfLaw(3.0), 30, 30.0,
                            [(0.5, Gamma(0.5, 1.0)), (0.5, Weibull(0.7, 1.0))])
        width = _WINDOW_EVENTS / cat.total_rate
        for stride in (0, 1):
            _, times, ids, first = check_against_ordered_dict_loop(
                cat, C, stride, seed=41, warmup={"warmup_time": width},
                horizon={"horizon_time": 4 * width})
            assert np.unique(ids[:first]).size < C - 1

    def test_warmup_outlasts_time_horizon(self):
        width = _WINDOW_EVENTS / ZIPF_RENEWAL.total_rate
        for C in (1, 600, 2000):
            rep, times, _, first = check_against_ordered_dict_loop(
                ZIPF_RENEWAL, C, 3, seed=9, warmup={"warmup_events": 10 * _WINDOW_EVENTS},
                horizon={"horizon_time": 3.5 * width})
            assert first == times.size > 3 * _WINDOW_EVENTS  # nothing measured
            assert rep.total_requests == 0 and rep.elapsed_time == 0.0
            assert rep.tau_samples.size == 0

    @pytest.mark.parametrize("C", [1, 600, 1999])
    def test_warmup_ends_mid_window_after_skipped_windows(self, C):
        width = _WINDOW_EVENTS / ZIPF_RENEWAL.total_rate
        for stride in (0, 7):
            _, times, _, first = check_against_ordered_dict_loop(
                ZIPF_RENEWAL, C, stride, seed=43,
                warmup={"warmup_events": int(3.5 * _WINDOW_EVENTS)},
                horizon={"horizon_events": 6 * _WINDOW_EVENTS})
            assert 3 * width < times[first - 1] < times[first] < 4 * width

    @pytest.mark.parametrize("C", [1, 600])
    def test_warmup_ends_in_the_final_window_before_its_cut(self, C):
        # a content's latest request before the first measured one is the
        # prev of its next request, which may lie past the horizon's cut
        width = _WINDOW_EVENTS / ZIPF_RENEWAL.total_rate
        for horizon in ({"horizon_events": int(1.8 * _WINDOW_EVENTS)},
                        {"horizon_time": 1.8 * width}):
            _, times, _, first = check_against_ordered_dict_loop(
                ZIPF_RENEWAL, C, 7, seed=37, warmup={"warmup_events": int(1.5 * _WINDOW_EVENTS)},
                horizon=horizon)
            assert width < times[first] < times[-1] < 2 * width

    def test_warmup_only_windows_are_not_scanned(self, monkeypatch):
        scanned = []
        scan = _Lru._scan

        def counting_scan(self, ids, misses):
            scanned.append(len(ids))
            scan(self, ids, misses)

        monkeypatch.setattr(_Lru, "_scan", counting_scan)
        width = _WINDOW_EVENTS / ZIPF_RENEWAL.total_rate
        rep, times, _, first = check_against_ordered_dict_loop(
            ZIPF_RENEWAL, 600, 0, seed=47, warmup={"warmup_events": int(3.5 * _WINDOW_EVENTS)},
            horizon={"horizon_events": 6 * _WINDOW_EVENTS})
        assert times[first] > 3 * width
        assert sum(scanned) == rep.total_requests  # the measured requests alone


class ShortGap(InterRequestDistribution):
    """Test-only law declared unit-mean whose gaps average 1e-3, so a
    content's gaps all fall inside the window and it draws again, about a
    thousand times per window."""

    mean = 1.0

    def sample_inter_batch(self, rng, size):
        return rng.exponential(1e-3, size)

    def sample_age_batch(self, rng, size):
        return rng.random(size)


class TestWindowDraws:
    """The window draws against the former segmented cumulative sum
    (``segmented_window_draws``), from the same stream, window after
    window: the same requests, the same pending state and the same RNG
    state after every window."""

    @pytest.mark.parametrize("catalog", [
        build_catalog(ZipfLaw(0.8), 1000, 1000.0, Exponential(1.0)),
        build_catalog(ZipfLaw(0.8), 16000, 16000.0, Exponential(1.0)),
        ZIPF_RENEWAL,
        TIED,
    ], ids=["exponential-1000", "exponential-16000", "gamma-weibull", "constant-gap-ties"])
    def test_same_requests_as_segmented_cumsum(self, catalog):
        self.check(catalog, _WINDOW_EVENTS / catalog.total_rate, 20)

    def test_redraws_when_every_gap_falls_inside(self):
        cat = ContentCatalog(rates=np.ones(8), classes=(ShortGap(),),
                             class_of=np.zeros(8, dtype=np.int64))
        sizes = self.check(cat, 1.0, 20)
        assert sum(sizes) > 100 * 8 * 20  # about 8 requests expected per window

    def test_draws_per_request_on_the_largest_sweep_row(self):
        # the convergence sweep's n = 16000 row: its warmup and 1e5 measured
        # requests span 19 windows; most contents expect about one request
        # in a window, where a wide margin discards the most gaps
        cat = build_catalog(ZipfLaw(0.8), 16000, 16000.0, Exponential(1.0))
        drawn = []

        class Counted:
            def sample_inter_batch(self, rng, size):
                drawn.append(size)
                return cat.classes[0].sample_inter_batch(rng, size)

        nxt, rng = init_stationary(cat, seed=3)
        last = np.full(cat.n, -np.inf)
        width = _WINDOW_EVENTS / cat.total_rate
        kept = sum(_window_draws(cat.rates, ((Counted(), np.arange(cat.n)),), nxt, last, rng,
                                 w * width)[0].size for w in range(1, 20))
        assert kept > 300_000
        assert sum(drawn) <= 1.7 * kept

    @staticmethod
    def check(catalog, width, windows):
        (nxt, rng), (nxt0, rng0) = (init_stationary(catalog, seed=3) for _ in range(2))
        last, last0 = np.full(catalog.n, -np.inf), np.full(catalog.n, -np.inf)
        sizes = []
        for w in range(1, windows + 1):
            new = _window_draws(catalog.rates, catalog.groups, nxt, last, rng, w * width)
            old = segmented_window_draws(catalog.rates, catalog.groups, nxt0, last0, rng0,
                                         w * width)
            (t, i, p), (t0, i0, p0) = (
                tuple(a[np.lexsort(draws[::-1])] for a in draws) for draws in (new, old))
            assert t.tobytes() == t0.tobytes() and p.tobytes() == p0.tobytes()
            assert np.array_equal(i, i0)
            assert nxt.tobytes() == nxt0.tobytes() and last.tobytes() == last0.tobytes()
            assert repr(rng.bit_generator.state) == repr(rng0.bit_generator.state)  # has arrays
            sizes.append(t.size)
        return sizes


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
        times, ids, prev = _merged(*_window_draws(cat.rates, cat.groups, nxt, last, rng, t1))
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
        assert float(np.quantile(rep.tau_samples, 0.5)) == pytest.approx(Tn, rel=0.05)
        # exceedance shrinks with the band width
        e1 = rep.tau_exceedance(0.9 * Tn, 1.1 * Tn)
        e2 = rep.tau_exceedance(0.7 * Tn, 1.3 * Tn)
        assert e2 < e1


SMALL_LAWS = [Exponential(1.0), Gamma(0.5, 1.0), Weibull(0.7, 1.0),
              Hyperexponential((0.9, 0.1), (1.0, 0.1)), ParetoLomax(1.5, 1.0),
              [(0.5, Gamma(0.5, 1.0)), (0.5, Weibull(0.7, 1.0))]]


@st.composite
def small_configs(draw, replications=1):
    """An LRU (capacity 1 to n) or TTL run on a Zipf catalog of 2 to 40
    contents, 2000 events of which the first 200 are warmup."""
    n = draw(st.integers(2, 40))
    cat = build_catalog(ZipfLaw(draw(st.floats(0.0, 2.0))), n, float(n),
                        draw(st.sampled_from(SMALL_LAWS)))
    policy = draw(st.one_of(st.builds(LRU, st.integers(1, n)),
                            st.builds(TTL, st.floats(0.01, 10.0))))
    return SimulationConfig(catalog=cat, policy=policy, horizon_events=2000, warmup_events=200,
                            seed=draw(st.integers(0, 2**32 - 1)), replications=replications,
                            check_invariants=isinstance(policy, LRU))


class TestProperties:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(cfg=small_configs())
    def test_hits_within_requests(self, cfg):
        # check_invariants raises if the LRU ever holds more than C contents
        rep = run(cfg)
        assert rep.total_requests == 1800
        assert np.all((0 <= rep.hits) & (rep.hits <= rep.requests))
        if isinstance(cfg.policy, LRU) and cfg.policy.capacity == cfg.catalog.n:
            # nothing is evicted, so each content misses at most once
            assert np.all(rep.requests - rep.hits <= 1)

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(cfg=small_configs(replications=3))
    def test_report_independent_of_workers(self, cfg):
        a = replicate(cfg, workers=1)
        b = replicate(cfg, workers=2)
        assert np.array_equal(a.hits, b.hits)
        assert np.array_equal(a.requests, b.requests)
        assert np.array_equal(a.per_replication_aggregate, b.per_replication_aggregate)
        assert np.array_equal(a.hit_ratio_stderr, b.hit_ratio_stderr, equal_nan=True)
        assert a.aggregate_stderr == b.aggregate_stderr
        assert a.elapsed_time == b.elapsed_time


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


def assert_same_report(a, b):
    assert np.array_equal(a.hits, b.hits) and np.array_equal(a.requests, b.requests)
    assert a.tau_samples.tobytes() == b.tau_samples.tobytes()
    assert a.per_replication_aggregate.tobytes() == b.per_replication_aggregate.tobytes()
    assert a.aggregate_stderr == b.aggregate_stderr and a.elapsed_time == b.elapsed_time


class TestCallPool:
    """A call's replications are taken from one shared range by the calling
    process and a pool of workers - 1 processes made for that call."""

    CFG = SimulationConfig(catalog=RENEWAL, policy=LRU(4), horizon_events=6_000,
                           warmup_events=500, seed=13, replications=6, tau_stride=5)

    def test_the_calling_process_takes_replications_too(self, monkeypatch):
        here = []
        worker = simulator._replicate_worker
        monkeypatch.setattr(simulator, "_replicate_worker",
                            lambda job: here.append(job[1]) or worker(job))
        report = replicate(self.CFG, workers=2)
        assert here  # the pool's worker appends to its own copy of the list
        assert_same_report(report, replicate(self.CFG, workers=1))

    def test_workers_beyond_the_replications_start_no_process(self, monkeypatch):
        sizes = []

        class Recorded(simulator.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(simulator, "ProcessPoolExecutor", Recorded)
        cfg = SimulationConfig(catalog=RENEWAL, policy=LRU(4), horizon_events=3_000,
                               seed=13, replications=2)
        replicate(cfg, workers=8)
        assert sizes == [1]
        assert not multiprocessing.active_children()  # joined before the call returns

    def test_each_job_is_taken_once_with_more_workers_than_cores(self, monkeypatch):
        monkeypatch.setattr(simulator, "_replicate_worker", lambda job: -job)
        jobs = list(range(5000))
        untaken = multiprocessing.Array("q", [0, len(jobs)])
        with simulator.ProcessPoolExecutor(max_workers=4, initializer=simulator._join,
                                           initargs=(jobs, untaken)) as pool:
            theirs = [pool.submit(simulator._take) for _ in range(4)]
            taken = [simulator._take(jobs, untaken, from_back=True)]
            taken += [future.result(timeout=60) for future in theirs]
        assert sorted(k for done in taken for k in done) == jobs  # none lost, none twice
        assert all(result == -k for done in taken for k, result in done.items())

    def test_a_law_redefined_between_calls_runs_as_redefined(self, monkeypatch):
        def law(shape):  # a unit-mean Gamma, made under the same importable name
            class Late(InterRequestDistribution):
                mean = 1.0

                def sample_inter_batch(self, rng, size):
                    return rng.gamma(shape, 1.0 / shape, size)

                def sample_age_batch(self, rng, size):
                    return rng.exponential(1.0, size)

            Late.__module__, Late.__qualname__ = module.__name__, "Late"
            module.Late = Late
            return ContentCatalog(rates=np.linspace(1.0, 3.0, 12), classes=(Late(),),
                                  class_of=np.zeros(12, dtype=np.int64))

        module = types.ModuleType("late_laws")
        monkeypatch.setitem(sys.modules, module.__name__, module)
        reports = []
        for shape in (1.0, 4.0):
            cfg = SimulationConfig(catalog=law(shape), policy=LRU(4), horizon_events=6_000,
                                   warmup_events=500, seed=17, replications=3)
            reports.append(replicate(cfg, workers=2))
            assert_same_report(reports[-1], replicate(cfg, workers=1))
        assert reports[0].elapsed_time != reports[1].elapsed_time
