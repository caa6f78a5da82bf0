"""Event-driven simulation of LRU and reset-timer caches.

Each content is driven by its own stationary renewal stream: the first
arrival is drawn from the age (integrated-tail) law so the system starts
in steady state, and subsequent gaps are i.i.d. inter-request draws.
Requests across contents are merged in time order (ties broken by content
index).  Hit/miss indicators are recorded at request epochs after warmup,
which matches the request-average definition of hit probability.

A single run is strictly sequential and draws all its randomness from one
Philox stream keyed by (seed, replication); parallelism exists only across
replications, whose results are merged in replication order so reports
are reproducible bit for bit from (config, seed).
"""

from __future__ import annotations

import heapq
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .popularity import ContentCatalog

__all__ = [
    "LRU",
    "TTL",
    "SimulationConfig",
    "SimulationReport",
    "LruState",
    "TtlState",
    "measure_tau",
    "init_stationary",
    "run",
    "replicate",
]


@dataclass(frozen=True)
class LRU:
    capacity: int

    def __post_init__(self):
        if not (isinstance(self.capacity, (int, np.integer)) and self.capacity >= 1):
            raise ConfigError(f"LRU capacity must be a positive integer, got {self.capacity}")


@dataclass(frozen=True)
class TTL:
    timer: float

    def __post_init__(self):
        if not self.timer > 0:
            raise ConfigError(f"TTL timer must be positive, got {self.timer}")


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation experiment.

    Exactly one of ``horizon_events`` (total events processed, warmup
    included) or ``horizon_time`` (virtual time) must be set.  Warmup may
    be given in events and/or time; with neither, the default rule
    discards events until virtual time reaches 20 reference timers (the
    solved characteristic time for LRU, the timer itself for TTL) and at
    least 5n events have been processed.

    ``tau_stride`` > 0 samples the reuse-window width at every stride-th
    post-warmup request (LRU only).
    """

    catalog: ContentCatalog
    policy: object
    horizon_events: int | None = None
    horizon_time: float | None = None
    warmup_events: int | None = None
    warmup_time: float | None = None
    seed: int = 0
    replications: int = 1
    tau_stride: int = 0
    check_invariants: bool = False

    def __post_init__(self):
        if isinstance(self.policy, LRU):
            # C = n is allowed (cache never evicts); the solver alone needs C < n
            if not 0 < self.policy.capacity <= self.catalog.n:
                raise ConfigError(
                    f"LRU capacity must satisfy 0 < C <= n, got C={self.policy.capacity}, "
                    f"n={self.catalog.n}")
        elif not isinstance(self.policy, TTL):
            raise ConfigError(f"policy must be LRU or TTL, got {self.policy!r}")
        if (self.horizon_events is None) == (self.horizon_time is None):
            raise ConfigError("set exactly one of horizon_events or horizon_time")
        if self.horizon_events is not None and self.horizon_events < 1:
            raise ConfigError("horizon_events must be >= 1")
        if self.horizon_time is not None and self.horizon_time <= 0:
            raise ConfigError("horizon_time must be positive")
        if self.warmup_events is not None and self.horizon_events is not None \
                and self.warmup_events >= self.horizon_events:
            raise ConfigError("horizon must exceed warmup")
        if self.warmup_time is not None and self.horizon_time is not None \
                and self.warmup_time >= self.horizon_time:
            raise ConfigError("horizon must exceed warmup")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.tau_stride < 0:
            raise ConfigError("tau_stride must be >= 0")
        if self.tau_stride and not isinstance(self.policy, LRU):
            raise ConfigError("reuse-window sampling requires the LRU policy")


@dataclass(frozen=True)
class SimulationReport:
    """Per-content and aggregate hit statistics.

    ``hit_ratio_stderr`` and ``aggregate_stderr`` come from the
    across-replication variance and are None for a single run.
    """

    requests: np.ndarray = field(repr=False)
    hits: np.ndarray = field(repr=False)
    elapsed_time: float
    tau_samples: np.ndarray = field(repr=False)
    replications: int = 1
    hit_ratio_stderr: np.ndarray | None = field(default=None, repr=False)
    aggregate_stderr: float | None = None
    per_replication_aggregate: np.ndarray | None = field(default=None, repr=False)

    @property
    def hit_ratio(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.where(self.requests > 0, self.hits / np.maximum(self.requests, 1),
                            np.nan)

    @property
    def total_requests(self) -> int:
        return int(self.requests.sum())

    @property
    def aggregate_hit(self) -> float:
        return float(self.hits.sum() / max(self.requests.sum(), 1))

    def tau_quantile(self, q) -> float:
        if self.tau_samples.size == 0:
            raise ConfigError("no reuse-window samples were collected")
        return float(np.quantile(self.tau_samples, q))

    def tau_exceedance(self, low: float, high: float) -> float:
        """Fraction of sampled windows outside [low, high]."""
        if self.tau_samples.size == 0:
            raise ConfigError("no reuse-window samples were collected")
        s = self.tau_samples
        return float(np.mean((s < low) | (s > high)))


class LruState:
    """Recency structure: an insertion-ordered map content -> last request
    time, oldest first, holding at most ``capacity`` entries."""

    __slots__ = ("capacity", "cache")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.cache = {}

    def request(self, content, now) -> bool:
        """Apply one request; returns True on hit."""
        cache = self.cache
        if content in cache:
            del cache[content]
            cache[content] = now
            return True
        cache[content] = now
        if len(cache) > self.capacity:
            del cache[next(iter(cache))]
        return False

    @property
    def occupancy(self) -> int:
        return len(self.cache)

    def oldest_timestamp(self):
        return next(iter(self.cache.values())) if self.cache else None


class TtlState:
    """Reset-timer structure: last request time per content; a request hits
    iff the previous request to the same content is within the timer."""

    __slots__ = ("timer", "last")

    def __init__(self, timer: float):
        self.timer = timer
        self.last = {}

    def request(self, content, now) -> bool:
        prev = self.last.get(content)
        self.last[content] = now
        return prev is not None and now - prev <= self.timer

    def occupancy_at(self, now) -> int:
        return sum(1 for t in self.last.values() if now - t <= self.timer)


def measure_tau(state: LruState, now: float):
    """Width of the smallest past window holding ``capacity`` distinct
    contents: now minus the capacity-th most recent distinct request time.
    Returns None while fewer than ``capacity`` distinct contents have been
    seen."""
    if len(state.cache) < state.capacity:
        return None
    return now - state.oldest_timestamp()


def _replication_rng(seed: int, replication: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return np.random.Generator(np.random.Philox(ss))


def _by_class(catalog: ContentCatalog):
    """Yield (standardized class distribution, indices of its contents)."""
    for c, dist in enumerate(catalog.classes):
        yield dist, np.flatnonzero(catalog.class_of == c)


def init_stationary(catalog: ContentCatalog, seed: int, replication: int = 0):
    """Streams of all contents started in the stationary regime.

    Returns (first_arrivals, rng): first_arrivals[i] is a draw from content
    i's age law, and rng is the replication's single generator, from which
    the engine then draws every inter-request gap.  Each class draws its
    ages in one call from its standardized law, divided by the contents'
    rates; this is exact because every family is a scale family.
    """
    rng = _replication_rng(seed, replication)
    arrivals = np.empty(catalog.n)
    for dist, idx in _by_class(catalog):
        arrivals[idx] = dist.sample_age_batch(rng, idx.size) / catalog.rates[idx]
    return arrivals, rng


def _resolve_warmup(config: SimulationConfig):
    """Return (warmup_events, warmup_time); (0, 0.0) means measure at once."""
    if config.warmup_events is not None or config.warmup_time is not None:
        return config.warmup_events or 0, config.warmup_time or 0.0
    if isinstance(config.policy, TTL):
        t_ref = config.policy.timer
    elif config.policy.capacity >= config.catalog.n:
        t_ref = 0.0  # cache never evicts; no occupancy transient to wait out
    else:
        from .approx import characteristic_time
        t_ref = characteristic_time(config.catalog, float(config.policy.capacity)).t
    return 5 * config.catalog.n, 20.0 * t_ref


_BUF0 = 8
_BUF_MAX = 4096


def _start_streams(catalog: ContentCatalog, seed: int, replication: int):
    """Event heap, per-content gap buffers and their refill function.

    Gaps of content i are standardized class draws divided by rates[i], all
    from the replication's one generator: the first _BUF0 per content in
    one call per class, later ones in doubling batches as buffers run out.
    """
    arrivals, rng = init_stationary(catalog, seed, replication)
    bufs = [None] * catalog.n
    for dist, idx in _by_class(catalog):
        block = dist.sample_inter_batch(rng, idx.size * _BUF0).reshape(idx.size, _BUF0)
        for i, row in zip(idx.tolist(), (block / catalog.rates[idx, None]).tolist()):
            bufs[i] = row
    class_dist = [catalog.classes[c] for c in catalog.class_of.tolist()]
    rates = catalog.rates.tolist()

    def refill(i, size):
        return (class_dist[i].sample_inter_batch(rng, size) / rates[i]).tolist()

    heap = list(zip(arrivals.tolist(), range(catalog.n)))
    heapq.heapify(heap)
    return heap, bufs, refill


def _run_lru_fast(catalog, capacity, total_events, warmup_events, seed, replication):
    # hot loop: event-count horizon, no tau sampling, no trace
    n = catalog.n
    heap, bufs, refill = _start_streams(catalog, seed, replication)
    cursors = [0] * n
    cache = {}
    hits = [0] * n
    reqs = [0] * n
    push, pop = heapq.heappush, heapq.heappop
    t_start = None
    now = 0.0
    for k in range(total_events):
        now, i = pop(heap)
        if k >= warmup_events:
            if t_start is None:
                t_start = now
            reqs[i] += 1
            if i in cache:
                del cache[i]
                cache[i] = now
                hits[i] += 1
            else:
                cache[i] = now
                if len(cache) > capacity:
                    del cache[next(iter(cache))]
        else:
            if i in cache:
                del cache[i]
                cache[i] = now
            else:
                cache[i] = now
                if len(cache) > capacity:
                    del cache[next(iter(cache))]
        c = cursors[i]
        b = bufs[i]
        if c == len(b):
            b = refill(i, min(_BUF_MAX, 2 * len(b)))
            bufs[i] = b
            c = 0
        push(heap, (now + b[c], i))
        cursors[i] = c + 1
    elapsed = now - (t_start if t_start is not None else now)
    return (np.asarray(reqs, dtype=np.int64), np.asarray(hits, dtype=np.int64),
            elapsed, np.empty(0))


def _run_generic(config: SimulationConfig, replication: int, trace=None):
    catalog = config.catalog
    n = catalog.n
    heap, bufs, refill = _start_streams(catalog, config.seed, replication)
    cursors = [0] * n
    is_lru = isinstance(config.policy, LRU)
    state = LruState(config.policy.capacity) if is_lru else TtlState(config.policy.timer)
    warm_ev, warm_t = _resolve_warmup(config)
    hits = np.zeros(n, dtype=np.int64)
    reqs = np.zeros(n, dtype=np.int64)
    taus = []
    stride = config.tau_stride
    push, pop = heapq.heappush, heapq.heappop
    measuring = False
    t_start = None
    now = 0.0
    k = 0
    measured = 0
    while True:
        if config.horizon_events is not None and k >= config.horizon_events:
            break
        t, i = pop(heap)
        if config.horizon_time is not None and t > config.horizon_time:
            break
        now = t
        k += 1
        if not measuring and k > warm_ev and now >= warm_t:
            measuring = True
            t_start = now
        if measuring:
            if stride and measured % stride == 0:
                tau = measure_tau(state, now)
                if tau is not None:
                    taus.append(tau)
            hit = state.request(i, now)
            reqs[i] += 1
            if hit:
                hits[i] += 1
            measured += 1
            if trace is not None:
                trace(now, i, hit)
        else:
            state.request(i, now)
        if config.check_invariants and is_lru:
            assert state.occupancy <= config.policy.capacity, "LRU capacity exceeded"
        c = cursors[i]
        b = bufs[i]
        if c == len(b):
            b = refill(i, min(_BUF_MAX, 2 * len(b)))
            bufs[i] = b
            c = 0
        push(heap, (now + b[c], i))
        cursors[i] = c + 1
    elapsed = now - (t_start if t_start is not None else now)
    return reqs, hits, elapsed, np.asarray(taus, dtype=float)


def run(config: SimulationConfig, replication: int = 0, trace=None) -> SimulationReport:
    """Execute one replication and report request-epoch hit statistics."""
    fast = (trace is None and not config.check_invariants and config.tau_stride == 0
            and isinstance(config.policy, LRU) and config.horizon_events is not None
            and config.warmup_time is None and config.warmup_events is not None)
    if fast:
        reqs, hits, elapsed, taus = _run_lru_fast(
            config.catalog, config.policy.capacity, config.horizon_events,
            config.warmup_events, config.seed, replication)
    else:
        reqs, hits, elapsed, taus = _run_generic(config, replication, trace)
    return SimulationReport(requests=reqs, hits=hits, elapsed_time=elapsed,
                            tau_samples=taus, replications=1)


def _replicate_worker(args):
    config, rep = args
    return run(config, replication=rep)


def replicate(config: SimulationConfig, workers: int | None = None) -> SimulationReport:
    """Run all replications and aggregate; deterministic in (config, seed).

    Replications execute concurrently when workers > 1, but results are
    always merged in replication order.
    """
    R = config.replications
    if workers is None:
        workers = min(R, os.cpu_count() or 1)
    if R == 1:
        return run(config)
    jobs = [(config, rep) for rep in range(R)]
    if workers <= 1:
        results = [_replicate_worker(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_worker, jobs, chunksize=1))
    n = config.catalog.n
    reqs = np.zeros(n, dtype=np.int64)
    hits = np.zeros(n, dtype=np.int64)
    ratios = np.full((R, n), np.nan)
    agg = np.empty(R)
    taus = []
    elapsed = 0.0
    for r, rep in enumerate(results):
        reqs += rep.requests
        hits += rep.hits
        ratios[r] = rep.hit_ratio
        agg[r] = rep.aggregate_hit
        taus.append(rep.tau_samples)
        elapsed += rep.elapsed_time
    # contents with fewer than 2 finite per-replication ratios have no stderr
    counts = np.sum(np.isfinite(ratios), axis=0)
    some = counts > 1
    stderr = np.full(n, np.nan)
    stderr[some] = np.nanstd(ratios[:, some], axis=0, ddof=1) / np.sqrt(counts[some])
    return SimulationReport(
        requests=reqs, hits=hits, elapsed_time=elapsed,
        tau_samples=np.concatenate(taus) if taus else np.empty(0),
        replications=R,
        hit_ratio_stderr=stderr,
        aggregate_stderr=float(np.std(agg, ddof=1) / np.sqrt(R)),
        per_replication_aggregate=agg,
    )
