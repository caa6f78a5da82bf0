"""Command-line interface.

Subcommands: solve-ct, ttl-hit, simulate, limit, convergence-sweep,
check-assumptions.  All read a JSON config file (--config); see the
README for the schema.  Every config value is read through ``_get``, so a
malformed one ends in a ConfigError that names its key path.  Exit codes:
0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import approx, asymptotics, experiments, simulator
from .assumptions import MaxEnvelope, check_assumptions
from .densities import ConstantDensity, PowerLawDensity, TabulatedDensity
from .distributions import distribution_from_config
from .errors import ConfigError, NumericsError
from .popularity import DensityLaw, ZipfLaw, build_catalog

__all__ = ["main"]

_REQUIRED = object()
_KINDS = {int: "a 64-bit integer", float: "a finite number", dict: "a nonempty object",
          list: "a nonempty list"}


def _load_config(path):
    if path is None:
        raise ConfigError("--config is required for this subcommand")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object, not {type(cfg).__name__}")
    return cfg


def _join(path, key):
    return f"{path}.{key}" if path else str(key)


def _get(node, key, kind, default=_REQUIRED, path=""):
    """node[key] read as kind: int, float, dict or list.

    An int must be integral (50 and 50.0 pass) and fit 64 bits, a float
    must be finite, a dict or list nonempty; a bool is not a number.  A
    missing key gives ``default``.  ``path`` is the key path of node, so a
    ConfigError names the full path of a missing or malformed value.
    """
    name = _join(path, key)
    if isinstance(node, dict) and key not in node:
        if default is _REQUIRED:
            raise ConfigError(f"config key {name} is required")
        return default
    value = node[key]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and number and value % 1 == 0 and -2**63 <= value < 2**63:
        return int(value)
    if kind is float and number and abs(value) <= sys.float_info.max:  # NaN fails this too
        return float(value)
    if kind in (dict, list) and isinstance(value, kind) and value:
        return value
    raise ConfigError(f"config key {name} must be {_KINDS[kind]}, got {value!r}")


def _items(node, key, kind, path=""):
    """The entries of the list node[key], each read as kind."""
    items = _get(node, key, list, path=path)
    return [_get(items, i, kind, path=_join(path, key)) for i in range(len(items))]


def _distribution(node, key, path=""):
    """The distribution config at node[key]; each param is read as a float
    or a list of floats, and the family checks the rest."""
    spec, path = _get(node, key, dict, path=path), _join(path, key)
    params = _get(spec, "params", dict, {}, path)
    params = {k: (_items if isinstance(v, list) else _get)(params, k, float, path=f"{path}.params")
              for k, v in params.items()}
    try:
        return distribution_from_config(dict(spec, params=params))
    except ConfigError as exc:
        raise ConfigError(f"config key {path}: {exc}") from exc


def _one_of(spec, path, table):
    """A one-key object {kind: {params}} with kind in table: table[kind](params, their path)."""
    if len(spec) != 1 or next(iter(spec)) not in table:
        raise ConfigError(f"config key {path} must hold one key of {sorted(table)}, "
                          f"got {sorted(spec)}")
    (kind,) = spec
    return table[kind](_get(spec, kind, dict, path=path), _join(path, kind))


_DENSITIES = {
    "constant": lambda p, path: ConstantDensity(_get(p, "c", float, path=path)),
    "power": lambda p, path: PowerLawDensity(*(_get(p, k, float, path=path) for k in ("c", "alpha"))),
    "tabulated": lambda p, path: TabulatedDensity(tuple(_items(p, "values", float, path))),
}
_LAWS = {
    "zipf": lambda p, path: ZipfLaw(_get(p, "alpha", float, path=path)),
    "density": lambda p, path: DensityLaw(_one_of(p, path, _DENSITIES)),
}


def _family_from_config(cfg):
    classes = _items(cfg, "classes", dict)
    if len(classes) == 1 and "fraction" not in classes[0]:
        return _distribution(classes, 0, "classes")
    return [(_get(c, "fraction", float, path=f"classes.{i}"), _distribution(classes, i, "classes"))
            for i, c in enumerate(classes)]


def _catalog_from_config(cfg):
    n = _get(cfg, "n", int)
    law = _one_of(_get(cfg, "popularity", dict), "popularity", _LAWS)
    fam = _family_from_config(cfg)
    return build_catalog(law, n, _get(cfg, "total_rate", float, float(n)), fam)


def _model_from_config(cfg):
    spec = _get(cfg, "limit", dict)
    beta0 = _get(spec, "beta0", float, path="limit")
    model_classes = []
    for i, c in enumerate(_items(spec, "classes", dict, "limit")):
        path = f"limit.classes.{i}"
        psi = _distribution(c, "psi", path).standardize()
        model_classes.append(asymptotics.ModelClass(
            _get(c, "weight", float, 1.0, path),
            _one_of(_get(c, "density", dict, path=path), f"{path}.density", _DENSITIES), psi))
    return asymptotics.AsymptoticModel(tuple(model_classes), beta0)


def _to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):  # NaN, an undefined value, is null
        return None if obj != obj else float(obj)
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj


def _emit_json(payload, args, default_name):
    text = json.dumps(_to_jsonable(payload), indent=2, allow_nan=False)
    if args.out:
        path = Path(args.out)
        path.mkdir(parents=True, exist_ok=True)
        (path / default_name).write_text(text + "\n")
        print(path / default_name)
    else:
        print(text)


def _per_content_csv(catalog, hit, stream):
    w = csv.writer(stream)
    w.writerow(("i", "lambda_i", "p_i", "H_ttl_i"))
    for i in range(catalog.n):
        w.writerow((i + 1, repr(float(catalog.rates[i])),
                    repr(float(catalog.popularity[i])), repr(float(hit[i]))))


def _cmd_solve_ct(args):
    cfg = _load_config(args.config)
    catalog = _catalog_from_config(cfg)
    C = _get(_get(cfg, "cache", dict), "capacity", int, path="cache")
    res = approx.characteristic_time(catalog, float(C))
    hit = approx.ttl_hit(catalog, res.t)
    payload = {"T_n": res.t, "residual": res.residual, "iterations": res.iterations,
               "aggregate_ttl_hit": hit.aggregate}
    _emit_json(payload, args, "solve_ct.json")
    if args.per_content:
        _per_content_csv(catalog, hit.per_content, sys.stdout)
    return 0


def _cmd_ttl_hit(args):
    cfg = _load_config(args.config)
    catalog = _catalog_from_config(cfg)
    T = _get(_get(cfg, "cache", dict), "timer", float, path="cache")
    hit = approx.ttl_hit(catalog, T)
    payload = {"timer": T, "aggregate_ttl_hit": hit.aggregate,
               "miss_probability": approx.miss_probability(catalog, T)}
    _emit_json(payload, args, "ttl_hit.json")
    if args.per_content:
        _per_content_csv(catalog, hit.per_content, sys.stdout)
    return 0


def _sim_config(cfg, catalog, seed):
    cache = _get(cfg, "cache", dict)
    policy_name = cache.get("policy", "lru")
    if policy_name == "lru":
        policy = simulator.LRU(_get(cache, "capacity", int, path="cache"))
    elif policy_name == "ttl":
        policy = simulator.TTL(_get(cache, "timer", float, path="cache"))
    else:
        raise ConfigError(f"config key cache.policy: unknown policy {policy_name!r}; known: lru, ttl")
    sim = _get(cfg, "sim", dict, {})
    events = _get(sim, "events", int, None, "sim")
    time = _get(sim, "time", float, None, "sim")
    warm_ev = _get(sim, "warmup_events", int, None, "sim")
    warm_t = _get(sim, "warmup_time", float, None, "sim")
    for key, warmup in (("warmup_events", warm_ev), ("warmup_time", warm_t)):
        if warmup is not None and warmup < 0:
            raise ConfigError(f"config key sim.{key} must be >= 0, got {warmup}")
    config = simulator.SimulationConfig(
        catalog=catalog, policy=policy, seed=seed, horizon_events=events, horizon_time=time,
        replications=_get(sim, "replications", int, 1, "sim"),
        tau_stride=_get(sim, "tau_stride", int, 0, "sim"))
    # sim.events / sim.time include a warmup; the streams start stationary,
    # so it is not simulated but subtracted from the measured horizon
    if warm_ev is None and warm_t is None:  # 20 reference timers and at least 5n events
        if isinstance(policy, simulator.TTL):
            t_ref = policy.timer
        elif policy.capacity >= catalog.n:
            t_ref = 0.0  # the cache never evicts: there is no characteristic time
        else:
            t_ref = approx.characteristic_time(catalog, float(policy.capacity)).t
        warm_ev, warm_t = 5 * catalog.n, 20.0 * t_ref
    warm_ev, warm_t, rate = warm_ev or 0, warm_t or 0.0, catalog.total_rate
    if time is None:
        # the clamp keeps a huge warmup time's request count finite
        events -= max(warm_ev, math.ceil(min(rate * warm_t, events)))
        if events < 1:
            raise ConfigError("config key sim.events: the warmup leaves no request to measure")
        return dataclasses.replace(config, horizon_events=events)
    time -= max(warm_t, warm_ev / rate)
    if not time > 0:
        raise ConfigError("config key sim.time: the warmup leaves no time to measure")
    return dataclasses.replace(config, horizon_time=time)


def _cmd_simulate(args):
    cfg = _load_config(args.config)
    catalog = _catalog_from_config(cfg)
    seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
    config = _sim_config(cfg, catalog, seed)
    trace_rows = [] if args.trace else None
    if args.trace:
        if config.replications != 1:
            raise ConfigError("--trace requires replications = 1")
        report = simulator.run(config, trace=lambda t, i, h: trace_rows.append((t, i, h)))
    else:
        report = simulator.replicate(config, workers=args.threads)
    payload = {
        "policy": dataclasses.asdict(config.policy),
        "replications": report.replications,
        "total_requests": report.total_requests,
        "aggregate_hit": report.aggregate_hit,
        "aggregate_stderr": report.aggregate_stderr,
        "elapsed_virtual_time": report.elapsed_time,
        "tau_samples": int(report.tau_samples.size),
    }
    _emit_json(payload, args, "simulate.json")
    if args.per_content:
        w = csv.writer(sys.stdout)
        w.writerow(("i", "lambda_i", "requests", "hits", "H_hat", "stderr"))
        hr = report.hit_ratio
        se = report.hit_ratio_stderr
        for i in range(catalog.n):
            w.writerow((i + 1, repr(float(catalog.rates[i])), int(report.requests[i]),
                        int(report.hits[i]),
                        "" if np.isnan(hr[i]) else repr(float(hr[i])),
                        "" if se is None or np.isnan(se[i]) else repr(float(se[i]))))
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("time", "content", "hit"))
            for t, i, h in trace_rows:
                w.writerow((repr(t), i + 1, int(h)))
    return 0


def _cmd_limit(args):
    cfg = _load_config(args.config)
    model = _model_from_config(cfg)
    res = asymptotics.solve_nu0(model)
    contributions = asymptotics.hit_limit_by_class(model, res.nu0)
    payload = {"nu0": res.nu0, "residual": res.residual,
               "hit_limit": math.fsum(contributions),
               "per_class": list(contributions)}
    if args.tn_asymptotic:
        spec = cfg["limit"]
        n = _get(spec, "n", int, path="limit")
        if n < 1:
            raise ConfigError(f"config key limit.n must be >= 1, got {n}")
        Lambda_n = _get(spec, "Lambda_n", float, path="limit")
        g_n = _get(spec, "g_n", float, 1.0 / n, "limit")
        payload["tn_asymptotic"] = asymptotics.tn_asymptotic(model, g_n, Lambda_n, res.nu0)
    _emit_json(payload, args, "limit.json")
    return 0


def _cmd_sweep(args):
    cfg = _load_config(args.config)
    sweep = _get(cfg, "sweep", dict)
    law = _one_of(_get(cfg, "popularity", dict), "popularity", _LAWS)
    fam = _family_from_config(cfg)
    spec = experiments.SweepSpec(
        n_values=tuple(_items(sweep, "n_values", int, "sweep")),
        beta=_get(sweep, "beta", float, path="sweep"),
        law=law, family_assignment=fam,
        events_per_point=_get(sweep, "events", int, path="sweep"),
        replications=_get(sweep, "replications", int, 8, "sweep"),
        seed=args.seed if args.seed is not None else _get(cfg, "seed", int, 0),
        total_rate=_get(sweep, "total_rate", float, None, "sweep"),
        cutoff_requests=_get(sweep, "cutoff", float, 1000.0, "sweep"))
    rows = experiments.convergence_sweep(spec, workers=args.threads)
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    path = experiments.emit(rows, out / f"convergence.{args.format}", args.format)
    for r in rows:
        print(f"n={r.n} C={r.C_n} status={r.status} gap_max={r.gap_max:.3e} "
              f"gap_agg={r.gap_aggregate:.3e}")
    print(path)
    return 0


def _cmd_check_assumptions(args):
    cfg = _load_config(args.config)
    catalog = _catalog_from_config(cfg)
    a = _get(cfg, "assumptions", dict)
    params = {key: _get(a, key, float, path="assumptions") for key in ("kappa1", "kappa2", "gamma")}
    params.update(beta1=_get(a, "beta1", float, None, "assumptions"),
                  rho=_get(a, "rho", float, 0.5, "assumptions"))
    C = float(_get(_get(cfg, "cache", dict), "capacity", int, path="cache"))
    psi = (MaxEnvelope(list(catalog.classes)) if a.get("psi", "max") == "max"
           else _distribution(a, "psi", "assumptions").standardize())
    r = check_assumptions(catalog, C, psi, **params)
    payload = {
        "envelope": {"holds": r.envelope_holds, "m_psi": r.m_psi, "min_margin": r.min_margin},
        "smoothness": {"B": r.B, "rho": r.rho, "b0": r.b0,
                       "uniform_lipschitz_M": r.uniform_lipschitz_M},
        "P1": {"holds": r.p1_holds, "lhs": r.p1_lhs, "rhs": r.p1_rhs},
        "C1": {"holds": r.c1_holds, "beta1": r.beta1, "m_psi": r.m_psi, "margin": r.c1_margin},
        "all_hold": r.all_hold,
    }
    _emit_json(payload, args, "assumptions.json")
    return 0


_COMMANDS = {
    "solve-ct": _cmd_solve_ct,
    "ttl-hit": _cmd_ttl_hit,
    "simulate": _cmd_simulate,
    "limit": _cmd_limit,
    "convergence-sweep": _cmd_sweep,
    "check-assumptions": _cmd_check_assumptions,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ttlapprox",
        description="Characteristic-time approximation toolkit for LRU caches")
    parser.add_argument("--config", help="path to the JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", help="output directory (default: print to stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table output format for sweeps")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes for replications")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve-ct", "ttl-hit"):
        p = sub.add_parser(name)
        p.add_argument("--per-content", action="store_true",
                       help="stream per-content CSV rows to stdout")
    p = sub.add_parser("simulate")
    p.add_argument("--per-content", action="store_true")
    p.add_argument("--trace", help="write a (time, content, hit) CSV; single replication only")
    p = sub.add_parser("limit")
    p.add_argument("--tn-asymptotic", action="store_true",
                   help="also print the predicted characteristic time (needs limit.n, limit.Lambda_n)")
    sub.add_parser("convergence-sweep")
    sub.add_parser("check-assumptions")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
