"""Simulation of LRU and reset-timer caches fed by stationary renewal streams.

Each content is driven by its own stationary renewal stream, started
exactly stationary at t = 0: the gap that straddles 0 is drawn as its
residual R (the first request is at R) and its age A (the latest request
is at -A) from their joint law, and subsequent gaps are i.i.d.
inter-request draws.  The LRU cache starts as the C contents with the
latest requests before 0, which is its stationary state, so every
request from 0 on is measured and there is no warmup.  Hit/miss
indicators are recorded at request epochs, which matches the
request-average definition of hit probability.

One request stream, which knows nothing of the policy, feeds both
policies.  It cuts time into windows of about 2**14 expected requests
(the run's expected number, if that is smaller); in each window the
contents whose next request falls inside draw their gaps in one
vectorized call per class, about one standard deviation more than they
are expected to use, and again if that is too few (1.25 to 1.6 gaps
drawn per request kept on Zipf(0.8) catalogs of 1000 to 16000
contents).  One cumulative sum runs over all of these gaps; less its
value before a content's first gap, it gives that content's request
times from its pending one, and the times before the window's end are a
prefix of them.  The window's measured requests are merged in time order
(ties broken by content index), each with the same content's previous
request time.

LRU depends on the merged sequence alone (the stack view of Mattson et
al. 1970): the cache holds the C most recently requested contents, those
whose latest request lies at or after a pointer into the sequence that
only moves forward.  It starts from each content's latest request at or
before 0, which the stream yields first, and its one per-request Python
loop is a pointer scan that costs a list load, a compare and a store per
request, and takes the reuse-window samples on its way.  A reset-timer
cache needs no loop: a request hits iff the same content's previous
request is at most the timer earlier.

A single run is strictly sequential and draws all its randomness from one
Philox stream keyed by (seed, replication); parallelism exists only across
replications.  The calling process and a pool of workers - 1 processes,
made for the call, share a call's replications (every row of a sweep):
the workers take them from the longest, the caller from the shortest,
so the caller's own core does not sit idle and a call forks one process
fewer.  Results are merged in replication order, so reports are
reproducible bit for bit from (config, seed).
"""

from __future__ import annotations

import multiprocessing
import os
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericsError
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

    Exactly one of ``horizon_events`` (the number of measured requests)
    or ``horizon_time`` (the measured span of virtual time) must be set.
    The streams start exactly stationary, so every request from t = 0 on
    is measured and there is no warmup.

    ``tau_stride`` > 0 samples the reuse-window width at every stride-th
    measured request (LRU only).  ``check_invariants`` checks the LRU
    state at the end of every window: exactly ``capacity`` contents are
    cached.
    """

    catalog: ContentCatalog
    policy: object
    horizon_events: int | None = None
    horizon_time: float | None = None
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
        return np.where(self.requests > 0, self.hits / np.maximum(self.requests, 1), np.nan)

    @property
    def total_requests(self) -> int:
        return int(self.requests.sum())

    @property
    def aggregate_hit(self) -> float:
        return float(self.hits.sum() / max(self.requests.sum(), 1))

    def tau_exceedance(self, low: float, high: float) -> float:
        """Fraction of sampled windows outside [low, high]."""
        if self.tau_samples.size == 0:
            raise ConfigError("no reuse-window samples were collected")
        s = self.tau_samples
        return float(np.mean((s < low) | (s > high)))


def init_stationary(catalog: ContentCatalog, seed: int, replication: int = 0):
    """Streams of all contents started in the stationary regime at t = 0.

    Returns (first, last, rng): of the gap of content i that straddles
    t = 0, first[i] = R / rate_i is its end, i's first request after 0,
    and last[i] = -A / rate_i its start, i's latest request at or before
    0, with (R, A) drawn from the joint residual-age law
    (``sample_straddle_batch``).  rng is the replication's single
    generator, from which the engine then draws every inter-request gap.
    Each class draws its (R, A) in one call from its standardized law,
    divided by the contents' rates; this is exact because every family is
    a scale family.
    """
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(replication,))))
    first, last = np.empty(catalog.n), np.empty(catalog.n)
    for dist, idx in catalog.groups:
        residual, age = dist.sample_straddle_batch(rng, idx.size)
        first[idx] = residual / catalog.rates[idx]
        last[idx] = -age / catalog.rates[idx]
    return first, last, rng


_WINDOW_EVENTS = 2 ** 14  # expected requests per window


def _window_draws(rates, groups, nxt, last, rng, t1):
    """Requests before t1 of every content whose next request is before t1.

    Each such content draws ceil(m + sqrt(m)) + 1 gaps, m being its
    expected number of requests left in the window.  The count is fixed
    before any gap is seen, so keeping the requests below t1 and dropping
    the unused gaps is exact; a content whose gaps all fall inside the
    window draws again.  That is not rare: on Zipf(0.8) catalogs of 1000
    to 16000 Exponential streams 3-10 % of the due contents draw again,
    and 15 % on a Gamma(0.5)/Weibull(0.7) one, for 2 % and 7 % of all
    gaps; a wider margin would discard more gaps than it saves.  Advances
    nxt (each content's first request at or after t1) and last (its latest
    request before t1).  Returns (times, ids, prev), not in time order;
    prev is the same content's previous request time.
    """
    parts = []
    for dist, idx in groups:
        todo = idx[nxt[idx] < t1]
        while todo.size:
            rate, pending = rates[todo], nxt[todo]
            m = rate * (t1 - pending)
            k = np.ceil(m + np.sqrt(m)).astype(np.int64) + 1
            # one cumulative sum over all the contents' gaps; each content's
            # offsets from its pending request subtract the sum before it
            ends = np.cumsum(k)
            starts = ends - k
            run = np.cumsum(dist.sample_inter_batch(rng, int(ends[-1])) / np.repeat(rate, k))
            base = np.concatenate(([0.0], run[ends[:-1] - 1]))
            t = np.repeat(pending, k) + (run - np.repeat(base, k))
            keep = t < t1
            keep[ends - 1] = False  # a content's last time stays pending
            kept = np.add.reduceat(keep, starts, dtype=np.int64)  # a prefix: times increase
            times = t[keep]
            prev = np.empty_like(times)
            prev[1:] = times[:-1]
            some = kept > 0
            prev[(np.cumsum(kept) - kept)[some]] = pending[some]
            parts += [(pending, todo, last[todo]), (times, np.repeat(todo, kept), prev)]
            last[todo] = np.where(some, t[starts + kept - 1], pending)
            nxt[todo] = t[starts + kept]
            todo = todo[nxt[todo] < t1]
    if not parts:
        return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0)
    return tuple(np.concatenate(p) for p in zip(*parts))


def _merged(times, ids, prev):
    """The requests in time order, ties broken by content index."""
    order = np.argsort(times)
    ordered = times[order]
    if np.any(ordered[1:] == ordered[:-1]):  # exact ties: order them by content
        order = np.lexsort((ids, times))
        ordered = times[order]
    return ordered, ids[order], prev[order]


def _requests(config: SimulationConfig, replication: int):
    """The measured requests of one replication, whatever the policy.

    Yields first each content's latest request time at or before 0, then
    each window's measured (times, ids, prev) in ``_merged`` order: the
    first horizon_events requests from t = 0 on, or those before
    horizon_time.  The event horizon cuts at a count over a window's
    unsorted draws, equal to a position in that order.  A window expects
    2**14 requests, or the run's expected number if that is smaller.
    """
    catalog = config.catalog
    nxt, last, rng = init_stationary(catalog, config.seed, replication)
    yield last.copy()
    events, length = config.horizon_events, config.horizon_time
    if length is None:
        length = events / catalog.total_rate  # the run's expected length in time
    width = min(_WINDOW_EVENTS / catalog.total_rate, length)
    done, window, final = 0, 0, False
    while not final:
        window += 1
        t1 = window * width
        times, ids, prev = _window_draws(catalog.rates, catalog.groups, nxt, last, rng, t1)
        if config.horizon_time is None:
            final = done + times.size >= events
            size = min(times.size, events - done)
            done += times.size
        else:
            final = length <= t1
            size = int(np.count_nonzero(times < length))
        times, ids, prev = _merged(times, ids, prev)
        yield times[:size], ids[:size], prev[:size]
        del times, ids, prev  # free this window before the next is drawn


class _Lru:
    """LRU as a pointer scan over the merged request sequence.

    The cache holds the contents whose latest request is at or after
    position ``p``.  ``latest[i]`` is the position of content i's latest
    request; ``seq`` holds the requested contents from position ``base``
    on, and ``at`` their times when the reuse window is sampled.  An entry
    is live iff it is its content's latest request, and exactly
    ``capacity`` live entries lie at or after ``p``: the cache is full
    from the start.  ``p`` moves only forward: over dead entries, and past
    the least recent live one to evict it.

    LRU depends only on the recency order, so the state at any moment is
    the ``capacity`` most recently requested contents.  The constructor
    takes every content's latest request time at or before the start and
    caches the ``capacity`` contents with the largest (time, content
    index), the merge's own order, as positions 0, 1, ... from least to
    most recent.

    With ``stride``, the reuse window (now minus the least recent cached
    content's latest request time) goes to ``taus`` before every stride-th
    measured request, the next at position ``due``; the scan notes the
    window's two ends (positions) in the same loop as the update, and the
    window's widths are then taken from the request times ``at`` in one
    vector step.  With no stride ``due`` is -1, a position the scan never
    reaches.  ``check`` counts the live entries against the capacity.
    """

    def __init__(self, last, capacity, stride, check):
        self.capacity, self.stride, self.check = capacity, stride, check
        self.taus, self.ends = [], []  # tau arrays by window; the scan's (k, p) pairs
        # sort only the times at or above the capacity-th largest, ties included
        cut = np.partition(last, last.size - capacity)[last.size - capacity]
        top = np.flatnonzero(last >= cut)
        order = top[np.argsort(last[top], kind="stable")][-capacity:]  # ties: by index
        latest = np.full(last.size, -1, dtype=np.int64)
        latest[order] = np.arange(capacity)
        self.latest, self.seq, self.at = latest.tolist(), order.tolist(), last[order]
        self.base = self.p = 0
        self.pos = capacity
        self.due = self.pos if stride else -1  # position of the next reuse-window sample

    def _scan(self, ids, misses):
        """The LRU update: apply requests in order and append the positions
        of the misses.  A request hits iff its content's latest request is
        at or after p.  Before the request at position ``due`` the ends of
        its reuse window go to ``ends``."""
        latest, seq, base, stride = self.latest, self.seq, self.base, self.stride
        p, due = self.p, self.due
        record, end = misses.append, self.ends.append
        for k, i in enumerate(ids, self.pos):
            if k == due:
                due += stride
                while latest[seq[p - base]] != p:  # skip dead entries to the least recent
                    p += 1
                end(k)
                end(p)
            if latest[i] < p:
                record(k)
                while latest[seq[p - base]] != p:
                    p += 1
                p += 1
            latest[i] = k
        self.p, self.due = p, due
        self.pos += len(ids)

    def _least_recent(self):
        """Skip the dead entries at p; p is then the least recent cached
        content's latest request."""
        latest, seq, base, p = self.latest, self.seq, self.base, self.p
        while latest[seq[p - base]] != p:
            p += 1
        self.p = p
        return p - base

    def __call__(self, times, ids, prev):
        """Hit flags of one window's measured requests, in time order."""
        start, ids = self.pos, ids.tolist()
        self.seq.extend(ids)
        misses = array("q")
        self._scan(ids, misses)
        if self.stride:
            self.at = np.concatenate((self.at, times))
            if self.ends:
                k, p = np.array(self.ends).reshape(-1, 2).T - self.base
                self.taus.append(self.at[k] - self.at[p])
                self.ends.clear()
        cut = self._least_recent()
        del self.seq[:cut]
        self.at = self.at[cut:]
        self.base = self.p
        if self.check:  # raised, not asserted: python -O keeps it
            live = sum(self.latest[i] == k for k, i in enumerate(self.seq, self.base))
            if live != self.capacity:
                raise AssertionError(f"LRU holds {live} live entries, capacity {self.capacity}")
        hit = np.ones(len(ids), dtype=bool)
        hit[np.frombuffer(misses, dtype=np.int64) - start] = False
        return hit


def run(config: SimulationConfig, replication: int = 0, trace=None) -> SimulationReport:
    """Execute one replication and report request-epoch hit statistics.

    ``trace``, if given, is called as trace(time, content, hit) for every
    measured request, in time order.
    """
    n, policy = config.catalog.n, config.policy
    stream = _requests(config, replication)
    start = next(stream)
    if isinstance(policy, LRU):
        hit_of = _Lru(start, policy.capacity, config.tau_stride, config.check_invariants)
        taus = hit_of.taus
    else:
        hit_of, taus = (lambda times, ids, prev: times - prev <= policy.timer), []
    reqs, hits = np.zeros((2, n), dtype=np.int64)
    span = []  # times of the first and the latest measured request
    for times, ids, prev in stream:
        hit = hit_of(times, ids, prev)
        reqs += np.bincount(ids, minlength=n)
        hits += np.bincount(ids[hit], minlength=n)
        if trace is not None:
            for event in zip(times.tolist(), ids.tolist(), hit.tolist()):
                trace(*event)
        if times.size:
            span = [span[0] if span else times[0], times[-1]]
        del times, ids, prev, hit  # free this window before the next is drawn
    elapsed = float(span[1] - span[0]) if span else 0.0
    return SimulationReport(requests=reqs, hits=hits, elapsed_time=elapsed,
                            tau_samples=np.concatenate([np.empty(0), *taus]), replications=1)


def _replicate_worker(job):
    config, rep = job
    try:
        return run(config, replication=rep)
    except (ConfigError, NumericsError) as exc:  # fails its own config alone
        return exc


def replicate(config: SimulationConfig, workers: int | None = None) -> SimulationReport:
    """Run all replications and aggregate; deterministic in (config, seed).
    The one-config case of ``_replicate_all``."""
    (report,) = _replicate_all([config], workers)
    if isinstance(report, Exception):
        raise report
    return report


def _replicate_all(configs, workers: int | None = None) -> list:
    """Each config's merged report, or the ConfigError or NumericsError of
    its first failing replication.

    The replications of all configs run in the calling process and, when
    workers > 1, in a pool of workers - 1 processes made for the call
    (see ``_take``); each config's results are merged in replication
    order, so the reports do not depend on the workers.  Jobs are taken
    longest first by their expected draws: the measured requests and the
    n straddle draws of the stationary start.
    """
    cost = [(c.horizon_events or c.horizon_time * c.catalog.total_rate) + c.catalog.n
            for c in configs]
    keys = sorted(((i, rep) for i, c in enumerate(configs) for rep in range(c.replications)),
                  key=lambda key: -cost[key[0]])
    jobs = [(configs[i], rep) for i, rep in keys]
    workers = min((os.cpu_count() or 1) if workers is None else workers, len(jobs))
    if workers <= 1:
        done = dict(enumerate(map(_replicate_worker, jobs)))
    else:
        untaken = multiprocessing.Array("q", [0, len(jobs)])  # jobs[untaken[0]:untaken[1]]
        with ProcessPoolExecutor(max_workers=workers - 1, initializer=_join,
                                 initargs=(jobs, untaken)) as pool:
            theirs = [pool.submit(_take) for _ in range(workers - 1)]
            done = _take(jobs, untaken, from_back=True)
            for future in theirs:
                done.update(future.result())
    by_key = {keys[k]: result for k, result in done.items()}
    return [_merge([by_key[i, rep] for rep in range(c.replications)])
            for i, c in enumerate(configs)]


_batch = None  # in a pool's worker: the (jobs, untaken) of the call that made it


def _join(jobs, untaken):
    global _batch
    _batch = jobs, untaken


def _take(jobs=None, untaken=None, from_back=False) -> dict:
    """The result of each job this process takes, by job index, until
    ``jobs[untaken[0]:untaken[1]]`` is empty.

    A pool's worker takes its call's jobs from the front, the longest
    first; the calling process takes from the back, so it runs the
    shortest jobs, and its own peak memory grows by their working set
    only.
    """
    if jobs is None:
        jobs, untaken = _batch
    done = {}
    while True:
        with untaken.get_lock():
            if untaken[0] == untaken[1]:
                return done
            if from_back:
                untaken[1] -= 1
                k = untaken[1]
            else:
                k = untaken[0]
                untaken[0] += 1
        done[k] = _replicate_worker(jobs[k])


def _merge(results):
    """One config's replication reports merged, in replication order."""
    failed = [r for r in results if isinstance(r, Exception)]
    if failed or len(results) == 1:
        return (failed or results)[0]
    R = len(results)
    ratios = np.array([r.hit_ratio for r in results])
    agg = np.array([r.aggregate_hit for r in results])
    # contents with fewer than 2 finite per-replication ratios have no stderr
    counts = np.sum(np.isfinite(ratios), axis=0)
    some = counts > 1
    stderr = np.full(ratios.shape[1], np.nan)
    stderr[some] = np.nanstd(ratios[:, some], axis=0, ddof=1) / np.sqrt(counts[some])
    return SimulationReport(
        requests=np.sum([r.requests for r in results], axis=0),
        hits=np.sum([r.hits for r in results], axis=0),
        elapsed_time=float(np.cumsum([r.elapsed_time for r in results])[-1]),  # added in order
        tau_samples=np.concatenate([r.tau_samples for r in results]),
        replications=R,
        hit_ratio_stderr=stderr,
        aggregate_stderr=float(np.std(agg, ddof=1) / np.sqrt(R)),
        per_replication_aggregate=agg,
    )
