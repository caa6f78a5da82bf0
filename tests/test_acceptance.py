"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  The sweep-based checks share one simulation campaign via a
module fixture.  All tolerances are fixed here, not tuned at runtime.

Criterion 9 checks the sampled reuse window against its exact binomial
law at n = 1000, C = 300, and the exponential concentration bound at
C = 0.3 n for n = 1e5 and 1e6; see its docstring.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from ttlapprox.approx import (characteristic_time, concentration_curve,
                              occupancy_derivative, tn_bracket)
from ttlapprox.asymptotics import (AsymptoticModel, ModelClass, beta_fn, fagin_catalog,
                                   hit_limit, solve_nu0, tn_asymptotic)
from ttlapprox.densities import ConstantDensity, PowerLawDensity
from ttlapprox.distributions import (Erlang, Exponential, Gamma, Hyperexponential,
                                     MaxEnvelope, ParetoLomax, Weibull)
from ttlapprox.experiments import SweepSpec, convergence_sweep
from ttlapprox.popularity import ContentCatalog, ZipfLaw, build_catalog
from ttlapprox.simulator import LRU, SimulationConfig, replicate, run

from oracles import (lru_irm_markov, lru_irm_product_form,
                     midpoint_power_hit_integral)

MASTER_SEED = 20260809

ZIPF_LIMIT_MODEL = AsymptoticModel(
    (ModelClass(1.0, PowerLawDensity(0.2, 0.8), Exponential(1.0)),), 0.3)


def _line(num, name, ok, detail):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}")


@pytest.fixture(scope="module")
def sweep_rows():
    # criterion 4's campaign, shared with criterion 5: Zipf(0.8), Poisson,
    # C = 0.3 n, >= 32 replications x 1e6 measured events per point
    spec = SweepSpec(n_values=(100, 400, 1600, 6400), beta=0.3, law=ZipfLaw(0.8),
                     family_assignment=Exponential(1.0), events_per_point=1_000_000,
                     replications=128, seed=MASTER_SEED, cutoff_requests=1000.0)
    return convergence_sweep(spec)


def _simulate_fagin(model, n, C, seed, replications=6, events=1_000_000):
    catalog = fagin_catalog(model, n, float(n))
    config = SimulationConfig(catalog=catalog, policy=LRU(C), horizon_events=events,
                              seed=seed, replications=replications)
    return replicate(config)


def test_01_closed_form_characteristic_time():
    """100 identical unit-rate exponential contents, C=50: T = ln 2."""
    catalog = build_catalog(ZipfLaw(0.0), 100, 100.0, Exponential(1.0))
    characteristic_time(catalog, 50.0)  # warm code paths before timing
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        result = characteristic_time(catalog, 50.0)
        best = min(best, time.perf_counter() - t0)
    err = abs(result.t - math.log(2))
    ok = err <= 1e-10 and best < 1e-3
    _line(1, "closed-form characteristic time", ok,
          f"|T - ln2| = {err:.2e}, solve time {best * 1e3:.3f} ms")
    assert err <= 1e-10
    assert best < 1e-3


def test_02_lru_simulation_vs_recency_chain():
    """n=3, C=2 under Poisson streams: 1e7 requests vs the exact 6-state
    recency-order chain solve, within 4 Monte Carlo standard errors."""
    t0 = time.time()
    p = np.array([6 / 11, 3 / 11, 2 / 11])
    exact = lru_irm_markov(p, 2)
    assert np.allclose(exact, lru_irm_product_form(p, 2), atol=1e-12)
    catalog = ContentCatalog(rates=p * 11.0, classes=(Exponential(1.0),),
                             class_of=np.zeros(3, dtype=np.int64))
    config = SimulationConfig(catalog=catalog, policy=LRU(2),
                              horizon_events=10_000_000, seed=MASTER_SEED)
    report = run(config)
    se = np.sqrt(exact * (1 - exact) / report.requests)
    z = (report.hit_ratio - exact) / se
    elapsed = time.time() - t0
    ok = bool(np.all(np.abs(z) < 4.0)) and elapsed < 60.0
    _line(2, "simulated LRU vs exact recency chain", ok,
          f"z-scores {np.round(z, 2).tolist()}, {elapsed:.0f}s")
    assert np.all(np.abs(z) < 4.0)
    assert elapsed < 60.0


def test_03_bracket_containment_randomized():
    """1000 randomized feasible catalogs (mixed families, Zipf alpha in
    [0,2]): the solved characteristic time lies in the analytic bracket."""
    rng = np.random.default_rng(MASTER_SEED)
    members_pool = [Exponential(1.0), Gamma(0.7, 0.7), Gamma(2.5, 2.5),
                    Weibull(1.4, 1.0).standardize(), Erlang(3, 3.0),
                    Hyperexponential((0.5, 0.5), (0.6, 3.0)).standardize(),
                    ParetoLomax(2.5, 1.5).standardize()]
    failures = 0
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(30, 300))
        alpha = float(rng.uniform(0.0, 2.0))
        total = float(rng.uniform(0.5, 10.0))
        k = int(rng.integers(1, 4))
        idx = rng.choice(len(members_pool), size=k, replace=False)
        if k == 1:
            fam = members_pool[int(idx[0])]
            psi = fam
        else:
            fr = rng.dirichlet(np.ones(k)).tolist()
            chosen = [members_pool[int(j)] for j in idx]
            fam = list(zip(fr, chosen))
            psi = MaxEnvelope(chosen)
        try:
            catalog = build_catalog(ZipfLaw(alpha), n, total, fam)
        except Exception:
            continue
        m_psi = psi.mean
        C = float(rng.uniform(0.05, 0.95)) * n * m_psi
        if not 1.0 <= C < n - 1:
            continue
        n1 = int(rng.integers(math.floor(C / m_psi) + 1, n + 1))
        n2 = int(rng.integers(0, math.floor(C) + 1))
        lo, hi = tn_bracket(catalog, C, psi, n1=n1, n2=n2)
        t = characteristic_time(catalog, C).t
        checked += 1
        if not (lo - 1e-7 * max(lo, 1e-300) <= t <= hi * (1 + 1e-7)):
            failures += 1
    ok = failures == 0 and checked >= 900
    _line(3, "analytic bracket containment", ok,
          f"{checked} instances, {failures} violations")
    assert checked >= 900
    assert failures == 0


def _significance_z(m):
    """Two-sided z threshold at family level 0.05 over m comparisons (Bonferroni).

    A row's gap_max is the largest |gap| over its m measured contents, so
    its own z-score is a maximum of m noisy z-scores.  If no content had a
    bias, each |z_i| would exceed z* with probability 0.05 / m, and the
    row would pass the filter with probability at most 0.05.
    """
    return float(stats.norm.isf(0.05 / (2 * m)))


def test_04_convergence_sweep_gap_decay(sweep_rows):
    """Zipf(0.8), Poisson, C=0.3n sweep: max-over-frequent-contents gaps
    strictly decrease across rows whose gap is significant over the row's
    measured contents (Bonferroni, family level 0.05), and the aggregate
    gap at n=6400 is below 0.01."""
    assert all(r.status == "ok" for r in sweep_rows)
    z_star = [_significance_z(r.measured_contents) for r in sweep_rows]
    significant = [(r.n, r.gap_max) for r, z in zip(sweep_rows, z_star)
                   if r.gap_max > z * r.stderr_max]
    chain = [g for _, g in significant]
    decreasing = all(b < a for a, b in zip(chain, chain[1:]))
    agg_last = sweep_rows[-1].gap_aggregate
    ok = decreasing and agg_last < 0.01
    detail = (f"max gaps {[f'{r.gap_max:.2e}' for r in sweep_rows]}, "
              f"z {[f'{r.gap_max / r.stderr_max:.2f}' for r in sweep_rows]}, "
              f"z* {[f'{z:.2f}' for z in z_star]}, "
              f"significant rows {[n for n, _ in significant]}, "
              f"agg gap at n=6400 {agg_last:.2e}")
    _line(4, "timer-approximation gap decay", ok, detail)
    assert decreasing, f"significant gaps not strictly decreasing: {significant}"
    assert agg_last < 0.01


RATE_EXPONENTS = (0.6, 1.6)


def _rate_band(anchor, anchor_se, ratio, z):
    """Gaps at rate ratio ``ratio`` allowed by the exponents in
    RATE_EXPONENTS and an anchor gap within z standard errors: the range of
    the four corners (anchor +- z se) ratio^p."""
    corners = [(anchor + e) * ratio ** p for e in (-z * anchor_se, z * anchor_se)
               for p in RATE_EXPONENTS]
    return min(corners), max(corners)


def test_05_rate_shape(sweep_rows):
    """The aggregate gap decays like sqrt(log C / C)^p with p in [0.6, 1.6],
    up to Monte Carlo noise.

    The n = 100 row is the anchor: gap g0, standard error s0.  At a later
    row with rate ratio r = curve_n / curve_100, the exponents 0.6 to 1.6
    and the anchor values within z* s0 of g0 allow gaps between the least
    and the largest of the four corners (g0 +- z* s0) r^0.6 and
    (g0 +- z* s0) r^1.6.  The row passes if its gap g lies within z* s_n
    of that band.

    False-alarm rate: let the signed gaps be delta r^p for one p in
    [0.6, 1.6], measured with normal errors: d0 = delta + e0 and
    d = delta r^p + e, with g0 = |d0| and g = |d|.  The band reaches from
    at most (g0 - z* s0) r^p to at least (g0 + z* s0) r^p, so a row outside
    it has | |d| - |d0| r^p | > z* (s_n + s0 r^p), and since
    | |d| - |d0| r^p | <= |d - d0 r^p| = |e - e0 r^p|, the error difference
    e - e0 r^p is more than z* (s_n + s0 r^p) from 0.  Whatever the
    correlation of the two rows, s_n + s0 r^p is at least its standard
    deviation, so a row fails with probability at most 2 (1 - Phi(z*)).
    With z* = Phi^-1(1 - 0.05/6) = 2.39 (Bonferroni over the three rows) a
    correct simulator fails this test with probability at most 0.05.

    From n = 400 on the aggregate gap is below its standard error, so a
    log-log fit of the gaps would be decided by noise; this band is not.
    """
    assert all(r.status == "ok" for r in sweep_rows)
    anchor, rows = sweep_rows[0], sweep_rows[1:]
    z = float(stats.norm.isf(0.05 / (2 * len(rows))))
    verdicts = []
    for r in rows:
        lo, hi = _rate_band(anchor.gap_aggregate, anchor.stderr_agg,
                            r.curve_sqrt / anchor.curve_sqrt, z)
        verdicts.append((r.n, r.gap_aggregate, lo - z * r.stderr_agg,
                         hi + z * r.stderr_agg))
    ok = all(lo <= g <= hi for _, g, lo, hi in verdicts)
    _line(5, "aggregate-gap rate shape", ok,
          f"z* {z:.2f}, n=100 gap {anchor.gap_aggregate:.2e} "
          f"(se {anchor.stderr_agg:.1e}); "
          + ", ".join(f"n={n}: {g:.2e} in [{lo:+.2e}, {hi:.2e}]"
                      for n, g, lo, hi in verdicts))
    for n, g, lo, hi in verdicts:
        assert lo <= g <= hi, f"n={n}: aggregate gap {g:.2e} outside [{lo:+.2e}, {hi:.2e}]"


def test_06_fagin_limit_single_class():
    """Power-law density 0.2 x^-0.8, Poisson, beta0=0.3: root residual,
    brute-force quadrature agreement, and simulation at n=1e4."""
    res = solve_nu0(ZIPF_LIMIT_MODEL)
    roundtrip = abs(beta_fn(ZIPF_LIMIT_MODEL, res.nu0) - 0.3)
    hl = hit_limit(ZIPF_LIMIT_MODEL, res.nu0)
    oracle = midpoint_power_hit_integral(0.2, 0.8, Exponential(1.0).cdf, res.nu0,
                                         points=10_000_000)
    quad_err = abs(hl - oracle)
    report = _simulate_fagin(ZIPF_LIMIT_MODEL, 10_000, 3000, seed=MASTER_SEED + 1)
    sim_gap = abs(report.aggregate_hit - hl)
    ok = roundtrip <= 1e-9 and quad_err <= 1e-6 and sim_gap < 0.01
    _line(6, "large-system hit limit", ok,
          f"nu0 {res.nu0:.8f} (roundtrip {roundtrip:.1e}), "
          f"|limit - brute force| {quad_err:.1e}, |sim - limit| {sim_gap:.4f}")
    assert roundtrip <= 1e-9
    assert quad_err <= 1e-6
    assert sim_gap < 0.01


def test_07_multi_class_limit():
    """Two identical classes collapse to the single-class solution exactly;
    a heterogeneous exponential + Erlang-2 pair meets the root residual and
    its n=1e4 simulation agrees within 0.01."""
    doubled = AsymptoticModel(
        (ModelClass(0.5, PowerLawDensity(0.2, 0.8), Exponential(1.0)),
         ModelClass(0.5, PowerLawDensity(0.2, 0.8), Exponential(1.0))), 0.3)
    single = solve_nu0(ZIPF_LIMIT_MODEL)
    collapsed = solve_nu0(doubled)
    exact_match = (collapsed.nu0 == single.nu0 and
                   hit_limit(doubled, collapsed.nu0) == hit_limit(ZIPF_LIMIT_MODEL,
                                                                  single.nu0))
    het = AsymptoticModel(
        (ModelClass(0.5, PowerLawDensity(0.6, 0.6), Exponential(1.0)),
         ModelClass(0.5, ConstantDensity(0.5), Gamma(2.0, 2.0))), 0.3)
    res = solve_nu0(het)
    hl = hit_limit(het, res.nu0)
    report = _simulate_fagin(het, 10_000, 3000, seed=MASTER_SEED + 2)
    sim_gap = abs(report.aggregate_hit - hl)
    ok = exact_match and res.residual <= 1e-9 and sim_gap < 0.01
    _line(7, "multi-class limit", ok,
          f"identical-class collapse exact: {exact_match}, residual {res.residual:.1e}, "
          f"|sim - limit| {sim_gap:.4f} (limit {hl:.5f})")
    assert exact_match
    assert res.residual <= 1e-9
    assert sim_gap < 0.01


def test_08_characteristic_time_asymptotics():
    """Rates i^-0.8 with C = 0.3 n: the solved characteristic time matches
    nu0 n^0.8 corrected by the exact popularity scale, within 3% at n=1e4."""
    nu0 = solve_nu0(ZIPF_LIMIT_MODEL).nu0
    ratios = []
    for n in (100, 1000, 10_000):
        lam = np.arange(1, n + 1, dtype=float) ** -0.8
        catalog = ContentCatalog(rates=lam, classes=(Exponential(1.0),),
                                 class_of=np.zeros(n, dtype=np.int64))
        g_exact = catalog.popularity[0] / (0.2 * (1.0 / n) ** -0.8)
        pred = tn_asymptotic(ZIPF_LIMIT_MODEL, g_exact, catalog.total_rate, nu0)
        ratios.append(characteristic_time(catalog, 0.3 * n).t / pred)
    err = abs(ratios[-1] - 1.0)
    ok = err < 0.03 and abs(ratios[-1] - 1) <= abs(ratios[0] - 1)
    _line(8, "characteristic-time asymptotics", ok,
          f"T/pred ratios {[f'{r:.4f}' for r in ratios]} (n=1e4 err {err:.2%})")
    assert err < 0.03
    assert abs(ratios[-1] - 1) <= abs(ratios[0] - 1)


def _window_tails(n, C, T, x):
    """Exact (P[tau > (1+x)T], P[tau < (1-x)T]) for n identical unit-rate
    Poisson streams: tau > s iff Binomial(n, 1 - e^-s) <= C - 1."""
    upper = stats.binom.cdf(C - 1, n, -math.expm1(-(1 + x) * T))
    lower = stats.binom.sf(C - 1, n, -math.expm1(-(1 - x) * T))
    return float(upper), float(lower)


def test_09_reuse_window_concentration():
    """Identical Poisson, n=1000, C=300: the sampled reuse window follows
    its exact finite-size law, and the exponential concentration bound
    holds and is informative where C is large.

    Sampled just before a request, the window exceeds s exactly when fewer
    than C distinct contents were requested in the preceding s time units.
    Each unit-rate Poisson stream (a request epoch does not bias any
    stream's past) shows up in that interval independently with
    probability 1 - e^-s, so tau > s iff Binomial(n, 1 - e^-s) <= C - 1.
    At x = 0.1 this gives P[tau > 1.1T] = 0.04474 and P[tau < 0.9T] =
    0.03964, two-sided 0.08438.  Windows sampled at every event are
    strongly autocorrelated, so each tail is compared with its exact value
    in units of a batch-means standard error: 40 batches, 10 per
    replication, none crossing a replication boundary.

    At C = 300 the bound two_sided(0.1) is about 2 and cannot fail.  It is
    checked at C = 0.3 n for n = 1e5 and 1e6 instead: there it must lie
    below 1 and at or above the exact two-sided exceedance (8.7e-63 at
    n = 1e5; it underflows to 0 at n = 1e6).
    """
    n, C = 1000, 300
    replications, events, batches = 4, 150_000, 40
    catalog = build_catalog(ZipfLaw(0.0), n, float(n), Exponential(1.0))
    T = characteristic_time(catalog, float(C)).t
    config = SimulationConfig(catalog=catalog, policy=LRU(C), horizon_events=events,
                              seed=MASTER_SEED, replications=replications, tau_stride=1)
    report = replicate(config)
    tau = report.tau_samples
    assert tau.size == replications * events
    upper, lower = tau > 1.1 * T, tau < 0.9 * T
    exact_upper, exact_lower = _window_tails(n, C, T, 0.1)
    tails = {"upper": (upper, exact_upper), "lower": (lower, exact_lower),
             "two-sided": (upper | lower, exact_upper + exact_lower)}
    z = {}
    details = []
    for name, (outside, exact) in tails.items():
        batch = outside.reshape(batches, -1).mean(axis=1)
        se = float(batch.std(ddof=1) / math.sqrt(batches))
        z[name] = (float(outside.mean()) - exact) / se
        details.append(f"{name} {outside.mean():.4f} (exact {exact:.4f}, "
                       f"se {se:.4f}, z {z[name]:+.2f})")
    law_ok = all(abs(v) <= 4.0 for v in z.values())

    large = []
    for n_big in (100_000, 1_000_000):
        C_big = 3 * n_big // 10
        T_big = math.log(n_big / (n_big - C_big))  # n (1 - e^-T) = C
        curve = concentration_curve(kappa1=2.0, kappa2=0.0, gamma=0.35,
                                    psi=Exponential(1.0), C=float(C_big), beta1=0.3)
        large.append((n_big, float(curve.two_sided(0.1)),
                      sum(_window_tails(n_big, C_big, T_big, 0.1))))
    bound_ok = all(exact <= bound < 1.0 for _, bound, exact in large)

    details.append(", ".join(f"n={n_big:.0e}: bound {bound:.3g}, exact {exact:.3g}"
                             for n_big, bound, exact in large))
    _line(9, "reuse-window concentration", law_ok and bound_ok, "; ".join(details))
    for name, v in z.items():
        assert abs(v) <= 4.0, f"{name} tail is {v:.1f} batch standard errors from exact"
    for n_big, bound, exact in large:
        assert bound < 1.0, f"bound {bound:.3g} is vacuous at n={n_big}"
        assert bound >= exact, f"bound {bound:.3g} below exact {exact:.3g} at n={n_big}"


def test_10_property_suites():
    """Compact re-run of the core property checks (full versions live in
    the per-module test files)."""
    rng = np.random.default_rng(MASTER_SEED)
    # cdf axioms
    for d in (Exponential(1.3), Gamma(0.7, 2.0), Weibull(1.7, 0.6),
              ParetoLomax(2.2, 1.7)):
        t = np.sort(rng.exponential(2.0 * d.mean, 1000))
        g = d.cdf(t)
        assert np.all((g >= 0) & (g <= 1)) and np.all(np.diff(g) >= -1e-15)
        # age-cdf derivative vs finite differences, 1e-6 relative
        ts = np.array([d.age_quantile(q) for q in np.linspace(0.1, 0.9, 20)])
        h = 1e-5 * np.maximum(ts, 0.1 * d.mean)
        fd = (d.age_cdf(ts + h) - d.age_cdf(ts - h)) / (2 * h)
        assert np.all(np.abs(fd - d.rate * d.ccdf(ts)) <= 1e-6 * d.rate * d.ccdf(ts))
    # occupancy concavity on a grid
    catalog = build_catalog(ZipfLaw(0.9), 200, 200.0,
                            [(0.5, Exponential(1.0)), (0.5, Gamma(2.0, 2.0))])
    grid = np.geomspace(0.01, 100.0, 50)
    Kp = np.array([occupancy_derivative(catalog, t) for t in grid])
    assert np.all(np.diff(Kp) <= 1e-9 * catalog.total_rate)
    # beta monotonicity
    vals = [beta_fn(ZIPF_LIMIT_MODEL, v) for v in np.geomspace(0.01, 100.0, 30)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # seed determinism
    cfg = SimulationConfig(catalog=catalog, policy=LRU(60), horizon_events=45_000,
                           seed=MASTER_SEED)
    r1, r2 = run(cfg), run(cfg)
    assert np.array_equal(r1.hits, r2.hits) and np.array_equal(r1.requests, r2.requests)
    # LRU capacity invariant (checked at the end of every window)
    cfg_inv = SimulationConfig(catalog=catalog, policy=LRU(60), horizon_events=29_000,
                               seed=1)
    run(cfg_inv)
    _line(10, "property suites", True,
          "cdf axioms, age derivative, concavity, beta monotonicity, "
          "determinism, capacity invariant")
