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


def ccdf_mp(dist, t, dps=40):
    """P[X > t] for t > 0 from each family's closed form at dps digits
    (``gamma_laws_mp`` for Gamma and Erlang), read off the public
    parameters only, so no cancellation enters the tail."""
    import mpmath as mp
    name = type(dist).__name__
    with mp.workdps(dps):
        t = mp.mpf(t)
        if name in ("Gamma", "Erlang"):
            return gamma_laws_mp(dist.shape, mp.mpf(dist.rate_param) * t, dps)[1]
        if name == "Exponential":
            q = mp.exp(-mp.mpf(dist.rate_param) * t)
        elif name == "Weibull":
            q = mp.exp(-(t / mp.mpf(dist.scale)) ** mp.mpf(dist.shape))
        elif name == "Hyperexponential":
            q = mp.fsum(mp.mpf(w) * mp.exp(-mp.mpf(r) * t)
                        for w, r in zip(dist.weights, dist.rates))
        elif name == "ParetoLomax":
            q = (1 + t / mp.mpf(dist.scale)) ** (-mp.mpf(dist.shape))
        else:
            raise TypeError(f"no ccdf oracle for {name}")
        return float(q)


def midpoint_density_integral(density, phi, points=1_000_000):
    """Midpoint rule for integral_0^1 phi(f(x)) dx on a uniform grid in x,
    with no substitution: fine for bounded densities (constant, tabulated)."""
    x = (np.arange(points, dtype=float) + 0.5) / points
    return float(np.mean(phi(np.asarray(density(x), dtype=float))))
