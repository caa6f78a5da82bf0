"""Simulation of LRU and reset-timer caches fed by stationary renewal streams.

Each content is driven by its own stationary renewal stream: the first
arrival is drawn from the age (integrated-tail) law so the system starts
in steady state, and subsequent gaps are i.i.d. inter-request draws.
Hit/miss indicators are recorded at request epochs after warmup, which
matches the request-average definition of hit probability.

One engine serves both policies.  It cuts time into windows of about
2**14 expected requests; in each window the contents whose next request
falls inside draw their gaps in one vectorized call per class, a
segmented cumulative sum turns the gaps into request times, and the
window's requests are merged in time order (ties broken by content
index).  LRU depends on this merged sequence alone (the stack view of
Mattson et al. 1970): the cache holds the contents whose latest request
lies at or after a pointer into the sequence that only moves forward, so
the one per-request Python loop is a pointer scan that costs a list
load, a compare and a store per request.  A reset-timer cache needs no
loop, because a request hits iff the same content's previous request is
at most the timer earlier.

A single run is strictly sequential and draws all its randomness from one
Philox stream keyed by (seed, replication); parallelism exists only across
replications, whose results are merged in replication order so reports
are reproducible bit for bit from (config, seed).
"""

from __future__ import annotations

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
    post-warmup request (LRU only).  ``check_invariants`` checks the LRU
    state at the end of every window: its cached contents number exactly
    its count, and no more than the capacity.
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


def _replication_rng(seed: int, replication: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return np.random.Generator(np.random.Philox(ss))


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
    for dist, idx in catalog.groups:
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


_WINDOW_EVENTS = 2 ** 14  # expected requests per window


def _window_requests(rates, groups, nxt, last, rng, t1):
    """Requests before t1 of every content whose next request is before t1.

    Each such content draws ceil(m + 3 sqrt(m) + 2) gaps, m being its
    expected number of requests left in the window.  The count is fixed
    before any gap is seen, so keeping the requests below t1 and dropping
    the unused gaps is exact; the rare content whose gaps all fall inside
    the window draws again.  Advances nxt (each content's first request at
    or after t1) and last (its latest request before t1).  Returns (times,
    ids, prev) in time order, ties broken by content index; prev is the
    same content's previous request time, -inf before its first.
    """
    parts = []
    for dist, idx in groups:
        todo = idx[nxt[idx] < t1]
        while todo.size:
            rate = rates[todo]
            m = rate * (t1 - nxt[todo])
            k = np.ceil(m + 3.0 * np.sqrt(m) + 2.0).astype(np.int64)
            # one segment per content: a zero step, then its k gaps, so a
            # cumulative sum restarted at each segment gives offsets from nxt
            ends = np.cumsum(k + 1)
            starts = ends - k - 1
            steps = np.zeros(ends[-1])
            is_gap = np.ones(ends[-1], dtype=bool)
            is_gap[starts] = False
            steps[is_gap] = dist.sample_inter_batch(rng, int(k.sum())) / np.repeat(rate, k)
            run = np.cumsum(steps)
            t = np.repeat(nxt[todo], k + 1) + (run - np.repeat(run[starts], k + 1))
            keep = t < t1
            keep[ends - 1] = False  # the last time of a segment stays pending
            count = np.add.reduceat(keep, starts, dtype=np.int64)
            prev = np.empty_like(t)
            prev[1:] = t[:-1]
            prev[starts] = last[todo]
            parts.append((t[keep], np.repeat(todo, k + 1)[keep], prev[keep]))
            last[todo] = t[starts + count - 1]
            nxt[todo] = t[starts + count]
            todo = todo[nxt[todo] < t1]
    if not parts:
        return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0)
    times, ids, prev = (np.concatenate(p) for p in zip(*parts))
    order = np.argsort(times)
    ordered = times[order]
    if np.any(ordered[1:] == ordered[:-1]):  # exact ties: order them by content
        order = np.lexsort((ids, times))
        ordered = times[order]
    return ordered, ids[order], prev[order]


class _Lru:
    """LRU as a pointer scan over the merged request sequence.

    The cache holds the contents whose latest request is at or after
    position ``p``.  ``latest[i]`` is the position of content i's latest
    request (-1 before its first); ``seq`` holds the requested contents
    from position ``base`` on, and ``at`` their times when the reuse window
    is sampled.  An entry is live iff it is its content's latest request,
    and ``count`` live entries lie at or after ``p``.  ``p`` moves only
    forward: over dead entries, and past the least recent live one to
    evict it.
    """

    def __init__(self, n, capacity):
        self.capacity = capacity
        self.latest = [-1] * n
        self.seq, self.at = [], []
        self.base = self.p = self.count = self.pos = 0

    def _scan(self, ids, misses):
        """The LRU update: apply requests in order and append the positions
        of the misses.  A request hits iff its content's latest request is
        at or after p."""
        latest, seq, base, capacity = self.latest, self.seq, self.base, self.capacity
        p, count = self.p, self.count
        record = misses.append
        for k, i in enumerate(ids, self.pos):
            if latest[i] < p:
                record(k)
                if count == capacity:
                    while latest[seq[p - base]] != p:
                        p += 1
                    p += 1
                else:
                    count += 1
            latest[i] = k
        self.p, self.count = p, count
        self.pos += len(ids)

    def _least_recent(self):
        """Skip the dead entries at p; p is then the least recent cached
        content's latest request (the cache must not be empty)."""
        latest, seq, base, p = self.latest, self.seq, self.base, self.p
        while latest[seq[p - base]] != p:
            p += 1
        self.p = p
        return p - base

    def window(self, ids, times, first_tau, stride, check, taus):
        """Hit flags of one window's requests.

        With ``stride``, the reuse window (now minus the least recent cached
        content's latest request time) is sampled before the requests at
        first_tau, first_tau + stride, ... whenever the cache is full; with
        ``check``, the live entries are counted against ``count`` and the
        capacity at the window's end.
        """
        start = self.pos
        self.seq.extend(ids)
        misses, done = [], 0
        if stride:
            self.at.extend(times)
            for s in range(first_tau, len(ids), stride):
                self._scan(ids[done:s], misses)
                done = s
                if self.count >= self.capacity:
                    taus.append(times[s] - self.at[self._least_recent()])
        self._scan(ids[done:], misses)
        if self.count:
            cut = self._least_recent()
            del self.seq[:cut], self.at[:cut]
            self.base = self.p
        if check:  # raised, not asserted: python -O keeps it
            live = sum(self.latest[i] == k for k, i in enumerate(self.seq, self.base))
            if live != self.count or self.count > self.capacity:
                raise AssertionError(f"LRU holds {live} live entries, counts {self.count}, "
                                     f"capacity {self.capacity}")
        hit = np.ones(len(ids), dtype=bool)
        hit[np.array(misses, dtype=np.int64) - start] = False
        return hit


def _simulate(config: SimulationConfig, replication: int, trace=None):
    catalog, policy = config.catalog, config.policy
    n = catalog.n
    nxt, rng = init_stationary(catalog, config.seed, replication)
    last = np.full(n, -np.inf)
    width = _WINDOW_EVENTS / catalog.total_rate
    warm_ev, warm_t = _resolve_warmup(config)
    stride = config.tau_stride
    lru = _Lru(n, policy.capacity) if isinstance(policy, LRU) else None
    reqs = np.zeros(n, dtype=np.int64)
    hits = np.zeros(n, dtype=np.int64)
    taus = []
    done = measured = window = 0
    t_start = None
    now = 0.0
    final = False
    while not final:
        window += 1
        t1 = window * width
        times, ids, prev = _window_requests(catalog.rates, catalog.groups, nxt, last, rng, t1)
        if config.horizon_time is not None:
            size = int(np.searchsorted(times, config.horizon_time, side="right"))
            final = config.horizon_time < t1
        else:
            size = min(times.size, config.horizon_events - done)
            final = done + size == config.horizon_events
        times, ids, prev = times[:size], ids[:size], prev[:size]
        first = 0
        if t_start is None:
            first = min(size, max(warm_ev - done, int(np.searchsorted(times, warm_t))))
            if first < size:
                t_start = float(times[first])
        if lru is not None:
            first_tau = first + (-measured) % stride if stride else 0
            hit = lru.window(ids.tolist(), times.tolist() if stride else None,
                             first_tau, stride, config.check_invariants, taus)
        else:
            hit = times - prev <= policy.timer
        seen, seen_hit = ids[first:], hit[first:]
        reqs += np.bincount(seen, minlength=n)
        hits += np.bincount(seen[seen_hit], minlength=n)
        if trace is not None:
            for event in zip(times[first:].tolist(), seen.tolist(), seen_hit.tolist()):
                trace(*event)
        measured += size - first
        done += size
        if size:
            now = float(times[-1])
    elapsed = now - t_start if t_start is not None else 0.0
    return reqs, hits, elapsed, np.asarray(taus, dtype=float)


def run(config: SimulationConfig, replication: int = 0, trace=None) -> SimulationReport:
    """Execute one replication and report request-epoch hit statistics.

    ``trace``, if given, is called as trace(time, content, hit) for every
    measured request, in time order.
    """
    reqs, hits, elapsed, taus = _simulate(config, replication, trace)
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
