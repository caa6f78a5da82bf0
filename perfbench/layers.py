"""Per-layer metrics derived from one traced pass.

Times are totals over the pass in seconds unless the name says otherwise.
Counters (unit ``count`` in BENCHMARK.json) are exact: they repeat across
traced passes of the same seed, and ``run.py`` checks that they do.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import LAYERS

FAMILIES = ("exponential", "gamma", "weibull", "hyperexponential", "pareto_lomax")
KERNELS = ("age_cdf", "ccdf", "cdf")
SAMPLED_AGE = ("gamma", "weibull", "exponential")
RUN_KINDS = ("lru_fast", "lru_tau", "ttl")
CLI_COMMANDS = ("simulate", "convergence-sweep")
SWEEP_N = (1000, 4000, 16000)

# Counters that later claims may cite; run.py requires them to repeat.
EXACT = ("approx.k_evals", "approx.kprime_evals", "approx.iterations",
         "asymptotics.beta_fn_evals", "distributions.age_cdf.points",
         "distributions.sample_inter_batch.draws", "popularity.dist_of.calls",
         "simulator.events", "trace.spans")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(tracer, wall_1worker: float, wall_2workers: float, wall_traced: float) -> dict:
    dur = tracer.durations()
    self_t = tracer.self_times()
    units = np.frombuffer(tracer.units, dtype=float)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    name_of = np.asarray(tracer.name, dtype=np.int64)
    names = tracer.names
    groups = {k: np.asarray(v, dtype=np.int64) for k, v in tracer.by_name().items()}
    empty = np.empty(0, dtype=np.int64)

    def spans(name):
        return groups.get(name, empty)

    def total(name):
        return float(dur[spans(name)].sum())

    layer_of = np.asarray([n.split(".", 1)[0] for n in names] + ["bench"])
    parent_layer = layer_of[np.where(parent >= 0, name_of[np.maximum(parent, 0)], len(names))]

    m = {}
    # distributions: kernels as called by the K/K' sums and ttl_hit (cache
    # resident at the workload's catalog size), samplers as called by the
    # simulator
    for fam in FAMILIES:
        for k in KERNELS:
            idx = spans(f"distributions.{fam}.{k}")
            idx = idx[parent_layer[idx] == "approx"]
            m[f"distributions.{fam}.{k}_ns_per_point"] = \
                1e9 * _ratio(float(dur[idx].sum()), float(units[idx].sum()))
    m["distributions.age_cdf.points"] = sum(
        tracer.unit_totals[k] for k in tracer.unit_totals
        if k.startswith("distributions.") and k.endswith(".age_cdf"))
    for fam in SAMPLED_AGE:
        idx = spans(f"distributions.{fam}.sample_age")
        m[f"distributions.{fam}.sample_age_us"] = 1e6 * _ratio(float(dur[idx].sum()), idx.size)
    batch = np.concatenate([spans(k) for k in groups if k.startswith("distributions.")
                            and k.endswith(".sample_inter_batch")] or [empty])
    m["distributions.sample_inter_batch.draws"] = sum(
        tracer.unit_totals[k] for k in tracer.unit_totals if k.endswith(".sample_inter_batch"))
    m["distributions.sample_inter_batch.ns_per_draw"] = \
        1e9 * _ratio(float(dur[batch].sum()), float(units[batch].sum()))

    # popularity
    m["popularity.build_catalog_s"] = total("popularity.build_catalog")
    m["popularity.dist_of.calls"] = tracer.calls["popularity.content_catalog.dist_of"]

    # approx
    ct = spans("approx.characteristic_time")
    for fam in FAMILIES + ("mixed",):
        sel = [i for i in ct if tracer.tags.get(int(i)) == fam]
        m[f"approx.characteristic_time.{fam}_s"] = float(dur[sel].sum())
    m["approx.k_evals"] = tracer.calls["approx.expected_occupancy"]
    m["approx.kprime_evals"] = tracer.calls["approx.occupancy_derivative"]
    m["approx.iterations"] = tracer.unit_totals["approx.characteristic_time"]
    m["approx.ttl_hit_s"] = total("approx.ttl_hit")

    # asymptotics
    m["asymptotics.solve_nu0_s"] = total("asymptotics.solve_nu0")
    m["asymptotics.beta_fn_evals"] = tracer.calls["asymptotics.beta_fn"]
    m["asymptotics.hit_limit_s"] = total("asymptotics.hit_limit")

    # simulator: engine rate excludes stationary init, which has its own metric
    runs = spans("simulator.run")
    init = spans("simulator.init_stationary")
    init_in = defaultdict(float)
    for i in init:
        init_in[int(parent[i])] += dur[i]
    events, engine, measured = defaultdict(float), defaultdict(float), 0.0
    for i in runs:
        kind, reqs = tracer.tags.get(int(i), ("lru_fast", 0.0))
        events[kind] += units[i]
        engine[kind] += dur[i] - init_in[int(i)]
        measured += reqs
    for kind in RUN_KINDS:
        m[f"simulator.run_events_per_s.{kind}"] = _ratio(events[kind], engine[kind])
    m["simulator.run_s"] = float(dur[runs].sum())
    m["simulator.events"] = tracer.unit_totals["simulator.run"]
    m["simulator.warmup_share"] = 1.0 - _ratio(measured, m["simulator.events"]) \
        if m["simulator.events"] else 0.0
    m["simulator.init_stationary_us_per_content"] = \
        1e6 * _ratio(float(dur[init].sum()), float(units[init].sum()))
    m["simulator.replicate_merge_s"] = float(self_t[spans("simulator.replicate")].sum())
    m["simulator.parallel_efficiency"] = _ratio(wall_1worker, 2.0 * wall_2workers)

    # experiments: a row runs from its build_catalog to the next one
    rows = defaultdict(float)
    measured_contents = contents = 0
    for s in spans("experiments.convergence_sweep"):
        starts = sorted((tracer.start[i], tracer.tags[int(i)])
                        for i in spans("popularity.build_catalog") if parent[i] == s)
        bounds = [t for t, _ in starts[1:]] + [tracer.end[int(s)]]
        for (t0, n), t1 in zip(starts, bounds):
            rows[n] += t1 - t0
        for n, measured_n in tracer.tags.get(int(s), []):
            contents += n
            measured_contents += measured_n
    for n in SWEEP_N:
        m[f"experiments.row_s.n{n}"] = rows[n]
    m["experiments.emit_s"] = total("experiments.emit")
    m["experiments.measured_share"] = _ratio(measured_contents, contents)

    # cli: parsing, config handling and JSON emission
    mains = spans("cli.main")
    for cmd in CLI_COMMANDS:
        sel = [i for i in mains if tracer.tags.get(int(i)) == cmd]
        m[f"cli.self_s.{cmd}"] = float(self_t[sel].sum())

    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(self_t[layer_of[name_of] == layer].sum())
        m[f"{layer}.runtime_warnings"] = tracer.warnings[(layer, True)]
    m["trace.other_warnings"] = sum(v for (_, rt), v in tracer.warnings.items() if not rt)
    m["trace.overhead_s"] = wall_traced - wall_1worker
    m["trace.spans"] = len(tracer.start)
    return m
