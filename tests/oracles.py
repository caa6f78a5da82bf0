"""Independent reference implementations used to freeze expected values.

Everything here is deliberately brute force and shares no code with the
library paths it checks.
"""

import itertools
from collections import OrderedDict

import numpy as np


def trapezoid_age_cdf(dist, t, points=2_000_001):
    """Integrated-tail cdf via a dense trapezoid rule on the ccdf."""
    z = np.linspace(0.0, t, points)
    return dist.rate * np.trapezoid(dist.ccdf(z), z)


def lru_irm_markov(p, C):
    """Exact per-content LRU hit probabilities under i.i.d. requests.

    Solves the stationary distribution of the recency-order chain (one
    state per permutation of all contents, most recent first); a request
    for content j moves j to the front.  The hit probability of content i
    is the stationary mass of orders whose first C entries contain i,
    because the requested label is independent of the current order.
    """
    p = np.asarray(p, dtype=float)
    n = p.size
    states = list(itertools.permutations(range(n)))
    index = {s: k for k, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for s, k in index.items():
        for j in range(n):
            t = (j,) + tuple(x for x in s if x != j)
            P[k, index[t]] += p[j]
    # stationary distribution: left null space of (P - I)
    A = np.vstack([P.T - np.eye(len(states)), np.ones(len(states))])
    b = np.zeros(len(states) + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    hit = np.zeros(n)
    for s, k in index.items():
        for i in s[:C]:
            hit[i] += pi[k]
    return hit


def lru_irm_product_form(p, C):
    """Same quantity via the known product-form stationary law, as a
    cross-check of the chain solve (n = 3, C = 2 closed form)."""
    p = np.asarray(p, dtype=float)
    n = p.size
    hit = np.zeros(n)
    for order in itertools.permutations(range(n)):
        mass = 1.0
        rem = 1.0
        for x in order:
            mass *= p[x] / rem
            rem -= p[x]
        for i in order[:C]:
            hit[i] += mass
    return hit


def ordered_dict_lru(ids, times, capacity, first=0, stride=0):
    """Replay requests through an OrderedDict recency list (content -> latest
    request time, least recent first), the simulator's former LRU loop.

    Returns the hit flag of every request and the reuse windows (now minus
    the least recent cached content's latest request time) sampled, with
    ``stride``, before the requests first, first + stride, ... whenever
    capacity contents are cached.
    """
    cache, hits, taus = OrderedDict(), [], []
    for k, (i, t) in enumerate(zip(ids.tolist(), times.tolist())):
        if stride and k >= first and (k - first) % stride == 0 and len(cache) >= capacity:
            taus.append(t - next(iter(cache.values())))
        hits.append(i in cache)
        if i in cache:
            cache.move_to_end(i)
        cache[i] = t
        if len(cache) > capacity:
            cache.popitem(last=False)
    return np.array(hits), np.array(taus, dtype=float)


def segmented_window_draws(rates, groups, nxt, last, rng, t1):
    """The simulator's former window draws: one segment per content, a zero
    step and then its gaps, turned into times by a cumulative sum over all
    segments from which each segment's start value is subtracted.

    Same contract as ``simulator._window_draws``: draws
    ceil(m + sqrt(m)) + 1 gaps per content whose next request is before
    t1 (again while all of them fall inside), advances nxt and last in
    place, and returns (times, ids, prev) grouped by content.
    """
    parts = []
    for dist, idx in groups:
        todo = idx[nxt[idx] < t1]
        while todo.size:
            rate = rates[todo]
            m = rate * (t1 - nxt[todo])
            k = np.ceil(m + np.sqrt(m)).astype(np.int64) + 1
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
    return tuple(np.concatenate(p) for p in zip(*parts))


def bisection_characteristic_time(occupancy, C, lo=0.0, hi=None, iters=1000):
    """Plain bisection on occupancy(T) = C with a doubling upper bracket."""
    if hi is None:
        hi = 1.0
        while occupancy(hi) < C:
            hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if occupancy(mid) < C:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * hi:
            break
    return 0.5 * (lo + hi)


def single_stage_characteristic_time(occupancy_and_slope, C, total_rate, tol, max_steps=100):
    """The characteristic-time solve before the Jensen start: Newton on
    K(T) = C from T = C / total_rate, which K(T) <= total_rate * T puts
    left of the root.  ``occupancy_and_slope(T)`` returns (K(T), K'(T));
    the result is (T, |K(T) - C|, steps)."""
    T, steps = C / total_rate, 0
    k, slope = occupancy_and_slope(T)
    while abs(k - C) > tol:
        if steps == max_steps:
            raise RuntimeError(f"no root within {max_steps} Newton steps")
        T, steps = T - (k - C) / slope, steps + 1
        k, slope = occupancy_and_slope(T)
    return T, abs(k - C), steps


def midpoint_power_integral(coefficient, exponent, phi, points=10_000_000):
    """Midpoint rule for integral_0^1 phi(c * x^(-a)) dx after the
    singularity-removing substitution x = u^(1/(1-a))."""
    a = exponent
    q = a / (1.0 - a)
    u = (np.arange(points, dtype=float) + 0.5) / points
    vals = phi(coefficient * u ** (-q)) * u ** q / (1.0 - a)
    return float(np.mean(vals))


def midpoint_power_hit_integral(coefficient, exponent, psi_cdf, nu, points=10_000_000):
    """Midpoint rule for integral_0^1 f(x) psi(nu f(x)) dx with
    f = c x^(-a), using the same substitution (f dx = c/(1-a) du)."""
    a = exponent
    q = a / (1.0 - a)
    u = (np.arange(points, dtype=float) + 0.5) / points
    vals = psi_cdf(nu * coefficient * u ** (-q)) * coefficient / (1.0 - a)
    return float(np.mean(vals))


def gamma_laws_mp(k, x, dps=40):
    """(cdf, ccdf, age cdf) of the unit-rate Gamma(k) law at x, from
    mpmath's regularized incomplete gamma at dps digits.

    The cdf and ccdf are P(k, x) and Q(k, x), each computed directly, so
    the tail gets no 1 - P cancellation.  The age cdf is the stationary
    law of the time since the last request, rate * E[min(X, x)], with
    rate = 1/k and E[min(X, x)] = x Q(k, x) + k P(k+1, x).
    """
    import mpmath as mp
    with mp.workdps(dps):
        k, x = mp.mpf(k), mp.mpf(x)
        P = mp.gammainc(k, 0, x, regularized=True)
        Q = mp.gammainc(k, x, mp.inf, regularized=True)
        P1 = mp.gammainc(k + 1, 0, x, regularized=True)
        return float(P), float(Q), float((x * Q + k * P1) / k)


def _ccdf_mpf(dist, t):
    """P[X > t] for t > 0 as an mpf at the working precision, from each
    family's closed form, read off the public parameters only, so no
    cancellation enters the tail."""
    import mpmath as mp
    name = type(dist).__name__
    if name in ("Gamma", "Erlang"):
        return mp.gammainc(mp.mpf(dist.shape), mp.mpf(dist.rate_param) * t, mp.inf,
                           regularized=True)
    if name == "Exponential":
        return mp.exp(-mp.mpf(dist.rate_param) * t)
    if name == "Weibull":
        return mp.exp(-(t / mp.mpf(dist.scale)) ** mp.mpf(dist.shape))
    if name == "Hyperexponential":
        return mp.fsum(mp.mpf(w) * mp.exp(-mp.mpf(r) * t)
                       for w, r in zip(dist.weights, dist.rates))
    if name == "ParetoLomax":
        return (1 + t / mp.mpf(dist.scale)) ** (-mp.mpf(dist.shape))
    raise TypeError(f"no ccdf oracle for {name}")


def ccdf_mp(dist, t, dps=40):
    """P[X > t] for t > 0 at dps digits (``_ccdf_mpf``)."""
    import mpmath as mp
    with mp.workdps(dps):
        return float(_ccdf_mpf(dist, mp.mpf(t)))


def _age_ccdf_mpf(dist, t):
    """1 - age cdf at t > 0, rate * integral_t^inf ccdf, as an mpf at the
    working precision, from the closed forms of the families the
    power-law limit oracle uses."""
    import mpmath as mp
    name = type(dist).__name__
    if name == "Exponential":
        return mp.exp(-mp.mpf(dist.rate_param) * t)
    if name == "Gamma":
        k = mp.mpf(dist.shape)
        x = mp.mpf(dist.rate_param) * t
        return (mp.gammainc(k + 1, x, mp.inf, regularized=True)
                - x * mp.gammainc(k, x, mp.inf, regularized=True) / k)
    if name == "Weibull":  # integral_t^inf of exp(-(z/s)^k), over the mean s Gamma(1 + 1/k)
        k = mp.mpf(dist.shape)
        return mp.gammainc(1 / k, (t / mp.mpf(dist.scale)) ** k, mp.inf, regularized=True)
    raise TypeError(f"no age-ccdf oracle for {name}")


def power_law_limits_mp(psi, alpha, nu, dps=40):
    """(beta(nu), hit(nu)) of one class with density f(x) = c x^(-alpha),
    c = 1 - alpha, and unit-mean law psi, at dps digits.

    beta = integral_0^1 A(nu f(x)) dx and hit = integral_0^1 f psi(nu f) dx,
    with A the age cdf, are taken over y = f(x) in [c, inf), where
    dx = (c^(1/alpha) / alpha) y^(-1/alpha - 1) dy.  Each is 1 minus an
    integral of a tail (1 - A, or the ccdf), so the slowly decaying
    power of y multiplies a fast decaying factor only.
    """
    import mpmath as mp
    with mp.workdps(dps):
        a, nu = mp.mpf(alpha), mp.mpf(nu)
        c = 1 - a
        scale = c ** (1 / a) / a
        cuts = [c * mp.mpf(10) ** j for j in range(12) if c * 10 ** j < 100 / nu] + [mp.inf]
        beta = 1 - scale * mp.quad(
            lambda y: _age_ccdf_mpf(psi, nu * y) * y ** (-1 / a - 1), cuts)
        hit = 1 - scale * mp.quad(lambda y: _ccdf_mpf(psi, nu * y) * y ** (-1 / a), cuts)
        return float(beta), float(hit)


def envelope_mp(members, ts, dps=20):
    """(mean, [age cdf at each t in ts]) of the law whose ccdf is the
    pointwise minimum of the members' ccdfs, at dps digits.

    Every point where two members' ccdfs cross (sign changes on a log grid
    from 1e-8 to 1e3, refined by a root finder) splits the tanh-sinh
    integral, so each piece integrates one smooth ccdf; every third power
    of 10 from 10 to 1e298 splits the tail too, so a heavy one is
    integrated piece by piece.
    """
    import mpmath as mp
    with mp.workdps(dps):
        def ccdf(t):
            return min(_ccdf_mpf(m, t) for m in members)

        grid = [mp.mpf(10) ** (k / mp.mpf(20)) for k in range(-160, 61)]
        cuts = [mp.mpf(10) ** e for e in range(1, 301, 3)]
        for i, j in itertools.combinations(members, 2):
            def diff(t, i=i, j=j):
                return _ccdf_mpf(i, t) - _ccdf_mpf(j, t)
            d = [diff(t) for t in grid]
            cuts += [mp.findroot(diff, (lo, hi), solver="anderson")
                     for lo, hi, dlo, dhi in zip(grid, grid[1:], d, d[1:]) if dlo * dhi < 0]
        cuts.sort()
        mean = mp.quad(ccdf, [0] + cuts + [mp.inf])
        ages = [mp.quad(ccdf, [0] + [c for c in cuts if c < t] + [mp.mpf(t)]) / mean
                for t in ts]
        return float(mean), [float(a) for a in ages]


def midpoint_density_integral(density, phi, points=1_000_000):
    """Midpoint rule for integral_0^1 phi(f(x)) dx on a uniform grid in x,
    with no substitution: fine for bounded densities (constant, tabulated)."""
    x = (np.arange(points, dtype=float) + 0.5) / points
    return float(np.mean(phi(np.asarray(density(x), dtype=float))))
