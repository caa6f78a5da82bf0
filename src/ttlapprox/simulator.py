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
request time and its index in the window (-1 if it lies before).

LRU depends on the merged sequence alone (the stack view of Mattson et
al. 1970): the cache holds the C most recently requested contents, those
whose latest request lies at or after a pointer into the sequence that
only moves forward.  It starts from each content's latest request at or
before 0, which the stream yields first.  A request at most C positions
after its content's previous one hits for certain, so the one Python
loop visits only the others (about half of them on Zipf(0.8) catalogs at
C = 0.3 n) and the reuse-window samples, and its pointer walks only the
entries that can still be live when it reaches them; numpy finds both
from the previous-request indices.  A reset-timer cache needs no loop: a
request hits iff the same content's previous request is at most the
timer earlier.

A single run is strictly sequential and draws all its randomness from one
Philox stream keyed by (seed, replication); parallelism exists only across
replications.  The calling process and workers - 1 children, forked for
the call and joined before it returns, share a call's replications (every
row of a sweep): the children take them from the longest, the caller from
the shortest, so the caller's own core does not sit idle and a call forks
one process fewer.  Each child sends its results back over a pipe.
Results are merged in replication order, so reports are reproducible bit
for bit from (config, seed).
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from array import array
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
    measured request (LRU only).
    """

    catalog: ContentCatalog
    policy: object
    horizon_events: int | None = None
    horizon_time: float | None = None
    seed: int = 0
    replications: int = 1
    tau_stride: int = 0

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
    request before t1).  Returns (times, ids, prev, prev_at), not in time
    order; prev is the same content's previous request time and prev_at
    the index of that request in these arrays, or -1 if it lies before
    the window.
    """
    parts, size = [], 0
    for dist, idx in groups:
        todo = idx[nxt[idx] < t1]
        latest = np.full(todo.size, -1, dtype=np.int64)  # index of each one's latest request
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
            # this round's pending requests go at size, its kept ones after
            # them; each kept one follows its previous, or its pending one
            below = size + todo.size - 1  # the index just below the kept ones
            prev = np.empty_like(times)
            prev[1:] = times[:-1]
            prev_at = np.arange(below, below + times.size)
            some = kept > 0
            tops = np.cumsum(kept)
            heads = (tops - kept)[some]
            prev[heads] = pending[some]
            prev_at[heads] = np.flatnonzero(some) + size
            parts += [(pending, todo, last[todo], latest),
                      (times, np.repeat(todo, kept), prev, prev_at)]
            last[todo] = np.where(some, t[starts + kept - 1], pending)
            nxt[todo] = t[starts + kept]
            again = nxt[todo] < t1  # all its times fell inside: its latest is a kept one
            latest = tops[again] + below
            size += todo.size + times.size
            todo = todo[again]
    if not parts:
        return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64)
    return tuple(np.concatenate(p) for p in zip(*parts))


def _merged(times, ids, prev, prev_at):
    """The requests in time order, ties broken by content index; prev_at
    becomes the previous request's index in that order."""
    order = np.argsort(times)
    ordered = times[order]
    if np.any(ordered[1:] == ordered[:-1]):  # exact ties: order them by content
        order = np.lexsort((ids, times))
        ordered = times[order]
    rank = np.empty(order.size + 1, dtype=np.int64)  # rank[-1] = -1 keeps -1
    rank[order] = np.arange(order.size)
    rank[-1] = -1
    prev_at = rank[prev_at[order]]
    del rank  # before the other gathers: one fewer array at the peak
    return ordered, ids[order], prev[order], prev_at


def _requests(config: SimulationConfig, replication: int):
    """The measured requests of one replication, whatever the policy.

    Yields first each content's latest request time at or before 0, then
    each window's measured (times, ids, prev, prev_at) in ``_merged``
    order: the first horizon_events requests from t = 0 on, or those
    before horizon_time.  The event horizon cuts at a count over a window's
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
        times, ids, prev, prev_at = _window_draws(catalog.rates, catalog.groups, nxt, last,
                                                  rng, t1)
        if config.horizon_time is None:
            final = done + times.size >= events
            size = min(times.size, events - done)
            done += times.size
        else:
            final = length <= t1
            size = int(np.count_nonzero(times < length))
        times, ids, prev, prev_at = _merged(times, ids, prev, prev_at)
        yield times[:size], ids[:size], prev[:size], prev_at[:size]
        del times, ids, prev, prev_at  # free this window before the next is drawn


class _Lru:
    """LRU over the merged request sequence, visiting only the requests
    that can miss.

    LRU depends only on the recency order, so the state at any moment is
    the ``capacity`` most recently requested contents.  The constructor
    takes every content's latest request time at or before the start and
    caches the ``capacity`` contents with the largest (time, content
    index), the merge's own order.  A window starts from its cache,
    ``cached`` (least recent first, requested at ``at``), as if those C
    contents had been requested at entries 1, ..., C of a sequence whose
    entry C + 1 + k is the window's request k; ``place[i]`` is content
    i's entry among 1..C, and 0, which stands for every evicted content.

    In that sequence the cache holds the contents whose latest request
    is at or after a pointer that only moves forward: a miss moves it
    past the entries that are no longer their content's latest (dead)
    and past the least recent live one, which it evicts.  C live entries
    lie between the pointer and the request, so the pointer passes entry
    q only at a request C or more after it, and a dead one only more than
    C after it.  Hence a request at most C entries after its content's
    previous one hits for certain, and an entry requested again fewer
    than C entries later is dead before the pointer reaches it.  The
    Python loop visits the other requests only, and its pointer walks
    only the entries requested again at least C later or not in the
    window: one requested again exactly C later can be the least recent
    at a reuse-window sample.  The walked entries from the pointer on
    that are not requested again in the window are the cache at its end,
    C of them, or the update is wrong and raises.

    With ``stride``, the reuse window (now minus the least recent cached
    content's latest request time) goes to ``taus`` before every
    stride-th measured request, counted across windows: the loop visits
    those requests too and notes the walked entry at the pointer, and the
    widths are then taken from the times in one vector step.
    """

    def __init__(self, last, capacity, stride):
        self.capacity, self.stride = capacity, stride
        self.taus = []  # tau arrays by window
        # sort only the times at or above the capacity-th largest, ties included
        cut = np.partition(last, last.size - capacity)[last.size - capacity]
        top = np.flatnonzero(last >= cut)
        self.cached = top[np.argsort(last[top], kind="stable")][-capacity:]  # ties: by index
        self.at = last[self.cached]
        self.place = np.zeros(last.size, dtype=np.int64)
        self.place[self.cached] = np.arange(1, capacity + 1)
        self.pos = 0  # measured requests before this window

    def __call__(self, times, ids, prev, prev_at):
        """Hit flags of one window's measured requests, in time order."""
        C, n = self.capacity, ids.size
        # the window's sequence: 0 stands for every evicted content, 1..C
        # are the cache carried in and C + 1 + k is request k
        length = n + C + 1
        none = length + C  # the next request of an entry not requested again
        seq = np.arange(length)
        back = prev_at + (C + 1)  # each request's previous entry
        np.copyto(back, self.place[ids], where=prev_at < 0)
        visit = seq[C + 1:] - back > C
        if self.stride:
            samples = np.arange(-self.pos % self.stride, n, self.stride)
            visit[samples] = True
        nxt = np.full(length, none)
        nxt[back] = seq[C + 1:]  # entry 0 takes the evicted contents' requests
        walked = nxt - seq >= C
        walked[0] = False
        walk = np.flatnonzero(walked)
        ahead = nxt[walk]
        del nxt
        # the walk index of the first walked entry at or after each entry;
        # -1 at 0, so a visited request after an eviction misses
        index = seq  # seq is not needed again
        index[0] = -1
        np.cumsum(walked[:-1], out=index[1:])
        del walked
        vis = np.flatnonzero(visit)
        previous = index[back[vis]]
        del seq, index, back
        # each walked entry's next request as the count of visited requests
        # up to it, so the entry is dead at visited request j iff that count
        # is <= j (none: never); C live entries stay beyond the pointer, so
        # it reads no more than walk.size - C + 1 of them
        count = np.empty(length + 1, dtype=np.int64)
        np.cumsum(visit, out=count[C + 1:length])
        count[length] = none
        walk_next = np.take(count, ahead[:walk.size - C + 1], mode="clip")
        dues = iter((count[samples + (C + 1)] - 1).tolist() if self.stride else ())
        del visit, count
        previous, walk_next = previous.tolist(), walk_next.tolist()
        misses, ends = array("q"), array("q")
        record, end = misses.append, ends.append
        due = next(dues, -1)  # the visited index of the next sample
        p = 0  # the pointer, a walk index
        for j, q in enumerate(previous):  # q: the walk index from the previous request on
            if j == due:
                while walk_next[p] <= j:  # skip dead entries to the least recent
                    p += 1
                end(p)
                due = next(dues, -1)
            if q < p:
                record(j)
                while walk_next[p] <= j:
                    p += 1
                p += 1
        del previous, walk_next
        tail = walk[p + np.flatnonzero(ahead[p:] == none)] - 1
        if tail.size != C:  # raised, not asserted: python -O keeps it
            raise AssertionError(f"LRU holds {tail.size} live entries, capacity {C}")
        at = np.concatenate((self.at, times))
        if ends:
            self.taus.append(times[samples] - at[walk[np.frombuffer(ends, dtype=np.int64)] - 1])
        self.place[self.cached] = 0
        self.cached, self.at = np.concatenate((self.cached, ids))[tail], at[tail]
        self.place[self.cached] = np.arange(1, C + 1)
        self.pos += n
        hit = np.ones(n, dtype=bool)
        hit[vis[np.frombuffer(misses, dtype=np.int64)]] = False
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
        hit_of = _Lru(start, policy.capacity, config.tau_stride)
        taus = hit_of.taus
    else:
        hit_of, taus = (lambda times, ids, prev, prev_at: times - prev <= policy.timer), []
    reqs, hits = np.zeros((2, n), dtype=np.int64)
    span = []  # times of the first and the latest measured request
    for times, ids, prev, prev_at in stream:
        hit = hit_of(times, ids, prev, prev_at)
        reqs += np.bincount(ids, minlength=n)
        hits += np.bincount(ids[hit], minlength=n)
        if trace is not None:
            for event in zip(times.tolist(), ids.tolist(), hit.tolist()):
                trace(*event)
        if times.size:
            span = [span[0] if span else times[0], times[-1]]
        del times, ids, prev, prev_at, hit  # free this window before the next is drawn
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
    workers > 1, in workers - 1 processes forked for the call (see
    ``_take``); each config's results are merged in replication order, so
    the reports do not depend on the workers.  Jobs are taken longest
    first by their expected draws: the measured requests and the n
    straddle draws of the stationary start.  Any other exception a job
    raises, in a child or in the caller, ends the call with it; a child
    that exits without sending its results ends it with a RuntimeError.
    No child outlives the call.
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
        done = _fan_out(jobs, workers)
    by_key = {keys[k]: result for k, result in done.items()}
    return [_merge([by_key[i, rep] for rep in range(c.replications)])
            for i, c in enumerate(configs)]


def _fan_out(jobs, workers) -> dict:
    """Every job's result by job index, from the caller and workers - 1
    forked children.  Fork, whatever the default start method: the
    children inherit ``jobs`` and the code as it is in the caller."""
    fork = multiprocessing.get_context("fork")
    untaken = fork.Array("q", [0, len(jobs)])  # jobs[untaken[0]:untaken[1]]
    children = []
    try:
        for _ in range(workers - 1):
            recv, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_child, args=(jobs, untaken, send))
            child.start()
            children.append((child, recv))
            send.close()  # the child's end: recv sees EOF once the child exits
        done = _take(jobs, untaken, from_back=True)
        for child, recv in children:
            try:
                theirs = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a replication worker exited with code {child.exitcode} "
                                   "before sending its results") from None
            if isinstance(theirs, tuple):  # a job raised in the child
                exc, trace = theirs
                raise exc from RuntimeError(f"raised in a replication worker:\n{trace}")
            done.update(theirs)
        return done
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()


def _child(jobs, untaken, send):
    """A forked worker: sends the results of the jobs it takes, or the
    exception one of them raised with its traceback.  On an interrupt or
    exit it sends nothing and the caller sees the child's exit code."""
    try:
        done = _take(jobs, untaken)
    except Exception as exc:
        done = exc, traceback.format_exc()
    send.send(done)


def _take(jobs, untaken, from_back=False) -> dict:
    """The result of each job this process takes, by job index, until
    ``jobs[untaken[0]:untaken[1]]`` is empty.

    A forked child takes the call's jobs from the front, the longest
    first; the calling process takes from the back, so it runs the
    shortest jobs, and its own peak memory grows by their working set
    only.
    """
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
