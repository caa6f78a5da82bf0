import ast
import math
import multiprocessing
import os
import signal
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ttlapprox.approx import characteristic_time, ttl_hit
from ttlapprox.distributions import (Exponential, Gamma, Hyperexponential,
                                     InterRequestDistribution, ParetoLomax, Weibull)
from ttlapprox import simulator
from ttlapprox.errors import ConfigError
from ttlapprox.popularity import ContentCatalog, ZipfLaw, build_catalog
from ttlapprox.simulator import (_WINDOW_EVENTS, LRU, TTL, SimulationConfig, _merged,
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


def start_of(config, replication=0):
    """Each content's latest request at or before 0, as the request stream
    yields it first."""
    return next(simulator._requests(config, replication))


def brute_force_lru(ids, times, C, start):
    """Replay through a recency list of all contents, which starts ordered
    by (start time, content index), most recent first: per request, whether
    it hits and the reuse window just before it."""
    recency = sorted(range(start.size), key=lambda i: (start[i], i), reverse=True)
    last, hits, taus = dict(enumerate(start.tolist())), [], []
    for i, t in zip(ids.tolist(), times.tolist()):
        taus.append(t - last[recency[C - 1]])
        hits.append(i in recency[:C])
        recency.remove(i)
        recency.insert(0, i)
        last[i] = t
    return np.array(hits), taus


class ConstantGap(InterRequestDistribution):
    """Test-only unit-mean law: every gap is 1, and the gap straddling 0 has
    residual 1/4 and age 3/4, so contents of equal rate request at exactly
    the same times."""

    mean = 1.0

    def sample_inter_batch(self, rng, size):
        return np.ones(size)

    def sample_straddle_batch(self, rng, size):
        return np.full(size, 0.25), np.full(size, 0.75)


class TestConfigValidation:
    def test_horizon_required(self):
        with pytest.raises(ConfigError, match="exactly one"):
            SimulationConfig(catalog=THREE, policy=LRU(2))
        with pytest.raises(ConfigError, match="exactly one"):
            SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=10,
                             horizon_time=1.0)

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
        first, age = [], []
        for seed in range(20_000):
            nxt, last, _ = init_stationary(cat, seed)
            first.append(nxt[0])
            age.append(-last[0])
        # memoryless: the first arrival and the age at 0 are exponential
        # with the content's rate
        for x in (np.asarray(first), np.asarray(age)):
            for t in (0.2, 0.5, 1.0):
                assert abs((x <= t).mean() - (1 - math.exp(-2 * t))) < 0.01

    def test_gamma_age_law_at_grid_points(self):
        # unit-rate contents: every first arrival, and every age at 0, is a
        # draw from d's age law
        d = Gamma(2.0, 2.0)
        n = 100_000
        cat = ContentCatalog(rates=np.ones(n), classes=(d,),
                             class_of=np.zeros(n, dtype=np.int64))
        x, last, _ = init_stationary(cat, 0)
        for t in (0.25, 0.5, 1.0, 2.0, 4.0):
            assert abs((x <= t).mean() - d.age_cdf(t)) < 0.005
            assert abs((-last <= t).mean() - d.age_cdf(t)) < 0.005

    def test_bitwise_determinism(self):
        cfg = SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=29_000, seed=123)
        a = run(cfg)
        b = run(cfg)
        assert np.array_equal(a.requests, b.requests)
        assert np.array_equal(a.hits, b.hits)
        assert a.elapsed_time == b.elapsed_time


def per_run_z(config, runs, exact):
    """Per-content and aggregate z of ``runs`` replications of config
    against exact per-content hit probabilities.  In each run a content's
    hits less exact times its requests have mean 0; z is their mean over
    the runs in standard errors of that mean, and the aggregate z that of
    their sum over the contents."""
    reports = [run(config, replication=r) for r in range(runs)]
    reqs = np.array([r.requests for r in reports])
    d = np.array([r.hits for r in reports]) - exact * reqs
    total = d.sum(axis=1)
    return (d.mean(axis=0) / (d.std(axis=0, ddof=1) / math.sqrt(runs)),
            total.mean() / (total.std(ddof=1) / math.sqrt(runs)))


def bonferroni_z(tests, level=1e-3):
    """Two-sided z bound of ``tests`` tests at family level ``level``."""
    return stats.norm.ppf(1.0 - level / (2 * tests))


class TestExactStart:
    """Each stream starts exactly stationary at 0, so hit ratios are
    unbiased with no warmup at all, over runs far too short to wash out an
    empty start; and the cache starts full, as the C contents with the
    latest requests before 0."""

    def test_lru_hits_match_the_irm_oracle_with_no_warmup(self):
        # Poisson streams: from the stationary start every request sees the
        # stationary LRU state, so a fixed number of requests is unbiased
        p = np.arange(1, 8) ** -0.8
        p /= p.sum()
        cfg = SimulationConfig(catalog=exp_catalog(7.0 * p), policy=LRU(3), horizon_events=40,
                               seed=61)
        z, z_agg = per_run_z(cfg, 4000, lru_irm_product_form(p, 3))
        z_star = bonferroni_z(p.size + 1)
        assert np.all(np.abs(z) < z_star) and abs(z_agg) < z_star

    def test_ttl_hits_match_ttl_hit_with_no_warmup(self):
        # bursty renewal streams over a fixed time span: by the Campbell
        # formula each content's expected hits are ttl_hit times its
        # expected requests (about 300 per run)
        cat = build_catalog(ZipfLaw(0.8), 200, 200.0,
                            [(0.5, Gamma(0.5, 1.0)), (0.5, Weibull(0.7, 1.0))])
        T = characteristic_time(cat, 60.0).t
        cfg = SimulationConfig(catalog=cat, policy=TTL(T), horizon_time=1.5, seed=62)
        z, z_agg = per_run_z(cfg, 3000, ttl_hit(cat, T).per_content)
        z_star = bonferroni_z(cat.n + 1)
        assert np.all(np.abs(z) < z_star) and abs(z_agg) < z_star

    @pytest.mark.parametrize("stride", [0, 3])
    @pytest.mark.parametrize("C", [5, 17, 40, 63])
    def test_tied_latest_requests_cached_in_merge_order(self, C, stride):
        # 16 contents share each latest request time before 0, and C cuts
        # through a group of them
        rep, _, _ = check_against_ordered_dict_loop(
            TIED, C, stride, seed=0, horizon={"horizon_events": 4 * _WINDOW_EVENTS})
        assert rep.total_requests == 4 * _WINDOW_EVENTS
        top = np.sort(start_of(SimulationConfig(catalog=TIED, policy=LRU(C),
                                                horizon_events=1)))[::-1]
        assert top[C - 1] == top[C]

    @pytest.mark.parametrize("C", [29, 30])
    def test_contents_never_requested_stay_cached(self, C):
        # Zipf(3): only about 20 of 30 contents are requested in the run,
        # and the others keep their places from the start
        cat = build_catalog(ZipfLaw(3.0), 30, 30.0,
                            [(0.5, Gamma(0.5, 1.0)), (0.5, Weibull(0.7, 1.0))])
        width = _WINDOW_EVENTS / cat.total_rate
        for stride in (0, 1):
            _, _, ids = check_against_ordered_dict_loop(
                cat, C, stride, seed=41, horizon={"horizon_time": width})
            assert np.unique(ids).size < C - 1


class TestRun:
    def test_single_content_always_hits_after_first(self):
        cat = exp_catalog([1.0])
        cfg = SimulationConfig(catalog=cat, policy=LRU(1), horizon_events=1_990, seed=5)
        rep = run(cfg)
        assert rep.aggregate_hit == 1.0

    def test_irm_markov_oracle_small(self):
        p = np.array([6 / 11, 3 / 11, 2 / 11])
        exact = lru_irm_markov(p, 2)
        assert np.allclose(exact, lru_irm_product_form(p, 2), atol=1e-12)
        cfg = SimulationConfig(catalog=THREE, policy=LRU(2),
                               horizon_events=1_000_000, seed=42)
        rep = run(cfg)
        se = np.sqrt(exact * (1 - exact) / rep.requests)
        assert np.all(np.abs(rep.hit_ratio - exact) < 4 * se)

    def test_ttl_at_characteristic_time(self):
        cat = build_catalog(ZipfLaw(0.0), 100, 100.0, Exponential(1.0))
        T = characteristic_time(cat, 50.0).t
        cfg = SimulationConfig(catalog=cat, policy=TTL(T), horizon_events=400_000, seed=7)
        rep = run(cfg)
        se = math.sqrt(0.25 / rep.total_requests)
        assert abs(rep.aggregate_hit - 0.5) < 4 * se

    def test_aggregate_identity(self):
        cfg = SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=49_000, seed=9)
        rep = run(cfg)
        weighted = np.sum(rep.requests * rep.hit_ratio) / rep.requests.sum()
        assert rep.aggregate_hit == pytest.approx(weighted, abs=1e-15)
        assert rep.hits.sum() <= rep.requests.sum() == rep.total_requests

    def test_per_content_rates_match_intensities(self):
        cat = exp_catalog([4.0, 2.0, 1.0, 0.5])
        cfg = SimulationConfig(catalog=cat, policy=LRU(2), horizon_events=150_000, seed=11)
        rep = run(cfg)
        est = rep.requests / rep.elapsed_time
        se = np.sqrt(cat.rates / rep.elapsed_time)  # renewal count variance ~ rate*t for poisson
        assert np.all(np.abs(est - cat.rates) < 4 * se)

    def test_empirical_gap_means(self):
        cat = exp_catalog([2.0, 1.0])
        cfg = SimulationConfig(catalog=cat, policy=LRU(1), horizon_events=199_000, seed=13)
        rep = run(cfg)
        measured_rate = rep.requests / rep.elapsed_time
        for i, lam in enumerate(cat.rates):
            se = lam / math.sqrt(rep.requests[i])
            assert abs(measured_rate[i] - lam) < 4 * se

    def test_capacity_invariant_checked(self):
        cfg = SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=19_900,
                               seed=3, check_invariants=True)
        rep = run(cfg)  # assertion inside the loop would fail on violation
        assert rep.total_requests == 19_900


class TestRecencySemantics:
    # every request is measured, so the trace is the whole path
    # from 0 and spans several windows of the engine; replays start from
    # each content's latest request before 0

    def test_measure_tau_example(self):
        cfg = SimulationConfig(catalog=RENEWAL, policy=LRU(2), horizon_events=40_000,
                               seed=3, tau_stride=1)
        rep, times, ids, _ = traced(cfg)
        _, taus = brute_force_lru(ids, times, 2, start_of(cfg))
        assert times[-1] > 2 * _WINDOW_EVENTS / RENEWAL.total_rate
        assert np.array_equal(rep.tau_samples, taus)

    def test_measure_tau_capacity_one(self):
        # with C = 1 the window is the time since the previous request
        cfg = SimulationConfig(catalog=RENEWAL, policy=LRU(1), horizon_events=40_000,
                               seed=4, tau_stride=1)
        rep, times, _, _ = traced(cfg)
        assert np.array_equal(rep.tau_samples, np.diff(times, prepend=start_of(cfg).max()))

    def test_measure_tau_from_the_start(self):
        # the cache is full from the start, so the window is sampled before
        # every measured request; with stride 5 the samples are every fifth
        # request of the same, shorter path, counted across windows
        full = SimulationConfig(catalog=RENEWAL, policy=LRU(12), horizon_events=40_000,
                                seed=5, tau_stride=1)
        rep, times, ids, _ = traced(full)
        _, taus = brute_force_lru(ids, times, 12, start_of(full))
        assert rep.tau_samples.size == rep.total_requests
        assert np.array_equal(rep.tau_samples, taus)
        strided = SimulationConfig(catalog=RENEWAL, policy=LRU(12),
                                   horizon_events=32_999, seed=5,
                                   tau_stride=5)
        assert np.array_equal(run(strided).tau_samples, taus[:40_000 - 7_001:5])

    def test_lru_hit_iff_among_c_most_recent(self):
        for C in (1, 5, 11):
            cfg = SimulationConfig(catalog=RENEWAL, policy=LRU(C), horizon_events=40_000,
                                   seed=17, check_invariants=True)
            rep, times, ids, hits = traced(cfg)
            assert rep.total_requests == times.size == 40_000
            assert np.all(np.diff(times) >= 0)
            assert np.array_equal(hits, brute_force_lru(ids, times, C, start_of(cfg))[0])

    def test_ttl_hit_iff_previous_request_within_timer(self):
        T = 1.3
        cfg = SimulationConfig(catalog=RENEWAL, policy=TTL(T), horizon_events=40_000, seed=18)
        _, times, ids, hits = traced(cfg)
        assert np.all(np.diff(times) >= 0)
        last = dict(enumerate(start_of(cfg).tolist()))
        expected = []
        for i, t in zip(ids.tolist(), times.tolist()):
            expected.append(t - last[i] <= T)
            last[i] = t
        assert np.array_equal(hits, expected)

    def test_ttl_hit_monotone_in_timer(self):
        # the request path depends on the seed only, so both timers see it
        short, long = (SimulationConfig(catalog=RENEWAL, policy=TTL(T),
                                        horizon_events=20_000, seed=19)
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


def check_against_ordered_dict_loop(catalog, C, stride, seed, horizon):
    """Run LRU(C) with ``check_invariants`` and compare hits, requests,
    tau_samples and elapsed_time bitwise with ``ordered_dict_lru`` replayed
    over the same sample path from the same start; path and start depend
    on the seed and the horizon alone.  Returns the report and
    the path's times and contents."""
    path = SimulationConfig(catalog=catalog, policy=TTL(1.0), seed=seed, **horizon)
    _, times, ids, _ = traced(path)
    rep = run(SimulationConfig(catalog=catalog, policy=LRU(C), seed=seed, tau_stride=stride,
                               check_invariants=True, **horizon))
    hit, taus = ordered_dict_lru(ids, times, C, start_of(path), stride=stride)
    assert np.array_equal(rep.requests, np.bincount(ids, minlength=catalog.n))
    assert np.array_equal(rep.hits, np.bincount(ids[hit], minlength=catalog.n))
    assert rep.tau_samples.tobytes() == taus.tobytes()
    assert rep.elapsed_time == times[-1] - times[0]
    return rep, times, ids


class TestPointerScan:
    """The LRU scan against the former OrderedDict loop (``ordered_dict_lru``)
    replayed over the same sample path, which depends on the seed alone."""

    @pytest.mark.parametrize("C", [1, 600, 1999, 2000])
    def test_bitwise_equal_to_ordered_dict_loop(self, C):
        width = _WINDOW_EVENTS / ZIPF_RENEWAL.total_rate
        cases = [({"horizon_events": 40_000}, stride) for stride in (0, 1, 7, 16)]
        cases.append(({"horizon_time": 2.5 * width - 20_000 / ZIPF_RENEWAL.total_rate}, 7))
        for horizon, stride in cases:
            # the measured path spans two windows
            rep, times, _ = check_against_ordered_dict_loop(
                ZIPF_RENEWAL, C, stride, seed=37, horizon=horizon)
            assert times[0] < width < times[-1]
            if stride:  # the cache is full from the start
                assert rep.tau_samples.size > 0


def counting_law(law, drawn):
    """``law`` with every sampler call appended to ``drawn`` as (sampler,
    size)."""
    class Counting(InterRequestDistribution):
        mean = law.mean

        def sample_inter_batch(self, rng, size):
            drawn.append(("inter", size))
            return law.sample_inter_batch(rng, size)

        def sample_straddle_batch(self, rng, size):
            drawn.append(("straddle", size))
            return law.sample_straddle_batch(rng, size)

    return Counting()


class ShortGap(InterRequestDistribution):
    """Test-only law declared unit-mean whose gaps average 1e-3, so a
    content's gaps all fall inside the window and it draws again, about a
    thousand times per window."""

    mean = 1.0

    def sample_inter_batch(self, rng, size):
        return rng.exponential(1e-3, size)

    def sample_straddle_batch(self, rng, size):
        return rng.random(size), rng.random(size)


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
        # the convergence sweep's n = 16000 row over 19 windows; most
        # contents expect about one request in a window, where a wide margin
        # discards the most gaps
        cat = build_catalog(ZipfLaw(0.8), 16000, 16000.0, Exponential(1.0))
        drawn = []

        class Counted:
            def sample_inter_batch(self, rng, size):
                drawn.append(size)
                return cat.classes[0].sample_inter_batch(rng, size)

        nxt, last, rng = init_stationary(cat, seed=3)
        width = _WINDOW_EVENTS / cat.total_rate
        kept = sum(_window_draws(cat.rates, ((Counted(), np.arange(cat.n)),), nxt, last, rng,
                                 w * width)[0].size for w in range(1, 20))
        assert kept > 300_000
        assert sum(drawn) <= 1.7 * kept

    @pytest.mark.parametrize("horizon", [{"horizon_events": 200}, {"horizon_time": 200 / 12}],
                             ids=["events", "time"])
    def test_a_run_shorter_than_a_window_draws_about_its_own_length(self, horizon):
        # the window expects the run's 200 requests, not the 2**14 whose
        # gaps a full window would draw
        drawn = []
        cat = ContentCatalog(rates=np.linspace(0.5, 1.5, 12),
                             classes=(counting_law(Exponential(1.0), drawn),),
                             class_of=np.zeros(12, dtype=np.int64))
        rep = run(SimulationConfig(catalog=cat, policy=LRU(4), seed=7, **horizon))
        gaps = sum(size for sampler, size in drawn if sampler == "inter")
        assert 150 < rep.total_requests and gaps < 1000

    @staticmethod
    def check(catalog, width, windows):
        (nxt, last, rng), (nxt0, last0, rng0) = (init_stationary(catalog, seed=3)
                                                 for _ in range(2))
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
        # rates 1, 2, 4 and 0.5 repeat over 64 contents, so gaps, residuals
        # and ages are dyadic, every sum is exact, and the 16 contents of
        # each rate request at the same times
        rates = np.tile([1.0, 2.0, 4.0, 0.5], 16)
        cat = ContentCatalog(rates=rates, classes=(ConstantGap(),),
                             class_of=np.zeros(rates.size, dtype=np.int64))
        nxt, last, rng = init_stationary(cat, seed=0)
        t1 = _WINDOW_EVENTS / cat.total_rate
        times, ids, prev = _merged(*_window_draws(cat.rates, cat.groups, nxt, last, rng, t1))
        assert times.size > _WINDOW_EVENTS // 2
        assert np.sum(np.diff(times) == 0) > times.size // 2
        assert np.array_equal(np.lexsort((ids, times)), np.arange(times.size))
        # the first request's prev is the start of the gap straddling 0
        assert np.array_equal(times - prev, 1.0 / rates[ids])
        # and across windows, as the engine sees them
        _, times, ids, _ = traced(SimulationConfig(catalog=cat, policy=TTL(1.0),
                                                   horizon_events=40_000))
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
        cfg = SimulationConfig(catalog=cat, policy=TTL(1.0), horizon_time=75.0, seed=21)
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
        short, long = (SimulationConfig(catalog=THREE, policy=LRU(2),
                                        horizon_time=h - 0.3 * width, seed=23)
                       for h in (horizon, 4.0 * width))
        rep, t1, i1, h1 = traced(short)
        _, t2, i2, h2 = traced(long)
        cut = horizon - 0.3 * width
        assert 0.0 <= t1[0] and t1[-1] < cut < t2[-1]
        k = t1.size
        assert np.array_equal(t1, t2[:k]) and np.array_equal(i1, i2[:k])
        assert np.array_equal(h1, h2[:k]) and t2[k] >= cut
        assert rep.elapsed_time == t1[-1] - t1[0]


class TestTauSampling:
    def test_exceedance_below_upper_concentration_bound(self):
        # one-sided: the bound is loose at this scale, so this checks the
        # inequality direction, not tightness
        from ttlapprox.approx import concentration_curve
        cat = build_catalog(ZipfLaw(0.0), 100, 100.0, Exponential(1.0))
        Tn = characteristic_time(cat, 50.0).t
        cfg = SimulationConfig(catalog=cat, policy=LRU(50), horizon_events=205_000,
                               seed=29, tau_stride=2)
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
        cfg = SimulationConfig(catalog=cat, policy=LRU(100), horizon_events=118_000,
                               seed=23, tau_stride=4)
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
    contents, 1800 measured events."""
    n = draw(st.integers(2, 40))
    cat = build_catalog(ZipfLaw(draw(st.floats(0.0, 2.0))), n, float(n),
                        draw(st.sampled_from(SMALL_LAWS)))
    policy = draw(st.one_of(st.builds(LRU, st.integers(1, n)),
                            st.builds(TTL, st.floats(0.01, 10.0))))
    return SimulationConfig(catalog=cat, policy=policy, horizon_events=1800,
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
            # every content is cached from the start and nothing is evicted
            assert np.array_equal(rep.hits, rep.requests)

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
        cfg = SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=38_000,
                               seed=77, replications=3)
        a = replicate(cfg, workers=1)
        b = replicate(cfg, workers=2)
        assert np.array_equal(a.hits, b.hits)
        assert np.array_equal(a.requests, b.requests)
        assert a.aggregate_stderr == b.aggregate_stderr

    def test_renewal_tau_report_independent_of_workers(self):
        cat = build_catalog(ZipfLaw(0.8), 60, 60.0,
                            [(0.5, Gamma(0.5, 1.0)), (0.5, Weibull(0.7, 1.0))])
        cfg = SimulationConfig(catalog=cat, policy=LRU(20), horizon_events=18_000,
                               seed=5, replications=3, tau_stride=7)
        a = replicate(cfg, workers=1)
        b = replicate(cfg, workers=2)
        assert a.tau_samples.size > 0
        assert np.array_equal(a.hits, b.hits)
        assert np.array_equal(a.requests, b.requests)
        assert np.array_equal(a.tau_samples, b.tau_samples)

    def test_stderr_of_rarely_requested_contents_warns_nothing(self):
        # with 2 replications many tail contents have < 2 finite hit ratios
        cat = build_catalog(ZipfLaw(0.8), 400, 400.0, Exponential(1.0))
        cfg = SimulationConfig(catalog=cat, policy=LRU(60), horizon_events=2_500,
                               seed=8, replications=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = replicate(cfg, workers=1)
        no_stderr = np.isnan(rep.hit_ratio_stderr)
        assert no_stderr.any() and not no_stderr.all()
        assert np.all(no_stderr[rep.requests == 0])

    def test_replications_differ(self):
        cfg = SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=29_000,
                               seed=77, replications=2)
        rep = replicate(cfg, workers=1)
        assert rep.per_replication_aggregate[0] != rep.per_replication_aggregate[1]

    def test_stderr_scales_like_inverse_sqrt_replications(self):
        # split a fixed pool of 64 per-replication aggregates into disjoint
        # groups: the group-mean standard error should scale ~ 1/sqrt(R)
        cat = build_catalog(ZipfLaw(0.0), 50, 50.0, Exponential(1.0))
        cfg = SimulationConfig(catalog=cat, policy=LRU(25), horizon_events=12_000,
                               seed=31, replications=64)
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
        cfg = SimulationConfig(catalog=THREE, policy=LRU(2), horizon_events=29_000,
                               seed=41, replications=4)
        rep = replicate(cfg, workers=1)
        a = rep.per_replication_aggregate
        assert rep.aggregate_stderr == pytest.approx(a.std(ddof=1) / 2.0, rel=1e-12)


def test_the_simulator_imports_nothing_it_checks():
    # the simulator checks the solver and the limits, so it must not use them
    tree = ast.parse(Path(simulator.__file__).read_text())
    names = set()
    for node in ast.walk(tree):  # function-level imports too
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    assert "multiprocessing" in names  # the walk sees the imports
    assert not {part for name in names for part in name.split(".")} & {"approx", "asymptotics"}


def assert_same_report(a, b):
    assert np.array_equal(a.hits, b.hits) and np.array_equal(a.requests, b.requests)
    assert a.tau_samples.tobytes() == b.tau_samples.tobytes()
    assert a.per_replication_aggregate.tobytes() == b.per_replication_aggregate.tobytes()
    assert a.aggregate_stderr == b.aggregate_stderr and a.elapsed_time == b.elapsed_time


class TestCallPool:
    """A call's replications are taken from one shared range by the calling
    process and workers - 1 children forked for that call, each of which
    sends its results back over a pipe.  No child outlives the call, and
    a failure in a child or in the caller ends it."""

    CFG = SimulationConfig(catalog=RENEWAL, policy=LRU(4), horizon_events=5_500,
                           seed=13, replications=6, tau_stride=5)

    @staticmethod
    def patch_worker(monkeypatch, in_child=lambda: None, in_caller=lambda: time.sleep(0.2)):
        """Run in_child() before each job a forked child takes, in_caller()
        before each job the calling process takes.  The caller's default
        sleep leaves the child time to take jobs of its own."""
        caller, worker = os.getpid(), simulator._replicate_worker

        def patched(job):
            (in_child if os.getpid() != caller else in_caller)()
            return worker(job)

        monkeypatch.setattr(simulator, "_replicate_worker", patched)

    @staticmethod
    def record_children(monkeypatch):
        """The list of every child the fork context starts from now on."""
        started, start = [], multiprocessing.context.ForkProcess.start
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                            lambda child: started.append(child) or start(child))
        return started

    def test_the_calling_process_takes_replications_too(self, monkeypatch):
        here = []
        worker = simulator._replicate_worker
        monkeypatch.setattr(simulator, "_replicate_worker",
                            lambda job: here.append(job[1]) or worker(job))
        report = replicate(self.CFG, workers=2)
        assert here  # a child appends to its own copy of the list
        assert_same_report(report, replicate(self.CFG, workers=1))

    def test_workers_beyond_the_replications_start_no_process(self, monkeypatch):
        started = self.record_children(monkeypatch)
        cfg = SimulationConfig(catalog=RENEWAL, policy=LRU(4), horizon_events=3_000,
                               seed=13, replications=2)
        replicate(cfg, workers=8)
        assert len(started) == 1
        assert not multiprocessing.active_children()  # joined before the call returns

    def test_each_job_is_taken_once_with_more_workers_than_cores(self, monkeypatch):
        monkeypatch.setattr(simulator, "_replicate_worker", lambda job: -job)
        jobs = list(range(5000))
        fork = multiprocessing.get_context("fork")
        untaken = fork.Array("q", [0, len(jobs)])
        pipes = [fork.Pipe(duplex=False) for _ in range(4)]
        children = [fork.Process(target=simulator._child, args=(jobs, untaken, send))
                    for _, send in pipes]
        for child in children:
            child.start()
        taken = [simulator._take(jobs, untaken, from_back=True)]
        for recv, _ in pipes:
            assert recv.poll(60)
            taken.append(recv.recv())
        for child in children:
            child.join(60)
            assert child.exitcode == 0
        assert sorted(k for done in taken for k in done) == jobs  # none lost, none twice
        assert all(result == -k for done in taken for k, result in done.items())

    def test_an_unexpected_error_in_a_child_is_raised_by_the_caller(self, monkeypatch):
        def fail():
            raise ZeroDivisionError("raised in a child")

        self.patch_worker(monkeypatch, in_child=fail)
        with pytest.raises(ZeroDivisionError, match="raised in a child") as raised:
            replicate(self.CFG, workers=2)
        assert "in fail" in str(raised.value.__cause__)  # the child's traceback
        assert not multiprocessing.active_children()

    def test_a_child_that_exits_before_sending_is_a_runtime_error(self, monkeypatch):
        def hung(signum, frame):
            raise TimeoutError("the caller still waits for the dead child")

        self.patch_worker(monkeypatch, in_child=lambda: os._exit(3))
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError, match="code 3"):
                replicate(self.CFG, workers=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert not multiprocessing.active_children()

    def test_an_error_in_the_caller_terminates_the_children(self, monkeypatch):
        def fail():
            raise ZeroDivisionError("raised in the caller")

        started = self.record_children(monkeypatch)
        self.patch_worker(monkeypatch, in_child=lambda: time.sleep(60), in_caller=fail)
        begin = time.monotonic()
        with pytest.raises(ZeroDivisionError, match="raised in the caller"):
            replicate(self.CFG, workers=3)
        assert time.monotonic() - begin < 30  # the children's jobs were not waited for
        assert [child.exitcode for child in started] == [-signal.SIGTERM] * 2
        assert not multiprocessing.active_children()

    def test_children_are_forked_whatever_the_default_start_method(self, monkeypatch):
        ran_in_child = multiprocessing.get_context("fork").RawValue("i", 0)
        self.patch_worker(monkeypatch, in_child=lambda: setattr(ran_in_child, "value", 1),
                          in_caller=lambda: time.sleep(0.05))
        default = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            report = replicate(self.CFG, workers=2)
        finally:
            multiprocessing.set_start_method(default, force=True)
        assert ran_in_child.value == 1  # a spawned child would run the unpatched worker
        assert_same_report(report, replicate(self.CFG, workers=1))

    def test_equal_horizons_run_the_larger_catalog_first(self, monkeypatch):
        # a job's cost counts the n straddle draws of its stationary start
        # as well as its measured requests
        order = []
        worker = simulator._replicate_worker
        monkeypatch.setattr(simulator, "_replicate_worker",
                            lambda job: order.append(job[0].catalog.n) or worker(job))
        configs = [SimulationConfig(catalog=build_catalog(ZipfLaw(0.8), n, float(n),
                                                          Exponential(1.0)),
                                    policy=LRU(n // 4), replications=2, **horizon)
                   for n, horizon in ((40, {"horizon_events": 2_000}),
                                      (400, {"horizon_events": 2_000}),
                                      (100, {"horizon_time": 20.0}))]
        simulator._replicate_all(configs, workers=1)
        assert order == [400, 400, 100, 100, 40, 40]

    def test_a_law_redefined_between_calls_runs_as_redefined(self, monkeypatch):
        def law(shape):  # a unit-mean Gamma, made under the same importable name
            class Late(InterRequestDistribution):
                mean = 1.0

                def sample_inter_batch(self, rng, size):
                    return rng.gamma(shape, 1.0 / shape, size)

                def sample_straddle_batch(self, rng, size):
                    return rng.exponential(1.0, size), rng.exponential(1.0, size)

            Late.__module__, Late.__qualname__ = module.__name__, "Late"
            module.Late = Late
            return ContentCatalog(rates=np.linspace(1.0, 3.0, 12), classes=(Late(),),
                                  class_of=np.zeros(12, dtype=np.int64))

        module = types.ModuleType("late_laws")
        monkeypatch.setitem(sys.modules, module.__name__, module)
        reports = []
        for shape in (1.0, 4.0):
            cfg = SimulationConfig(catalog=law(shape), policy=LRU(4), horizon_events=5_500,
                                   seed=17, replications=3)
            reports.append(replicate(cfg, workers=2))
            assert_same_report(reports[-1], replicate(cfg, workers=1))
        assert reports[0].elapsed_time != reports[1].elapsed_time
