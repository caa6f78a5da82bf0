"""Command-line interface.

Subcommands: solve-ct, ttl-hit, simulate, limit, convergence-sweep,
check-assumptions.  All read a JSON config file (--config); see the
README for the schema.  Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import approx, asymptotics, experiments, simulator
from .densities import density_from_config
from .distributions import MaxEnvelope, distribution_from_config
from .errors import ConfigError, NumericsError
from .popularity import DensityLaw, ZipfLaw, build_catalog

__all__ = ["main"]


def _load_config(path):
    if path is None:
        raise ConfigError("--config is required for this subcommand")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _law_from_config(spec):
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(f"malformed popularity config: {spec!r}")
    kind, params = next(iter(spec.items()))
    if kind == "zipf":
        return ZipfLaw(float(params["alpha"]))
    if kind == "density":
        return DensityLaw(density_from_config(params))
    raise ConfigError(f"unknown popularity law {kind!r}; known: zipf, density")


def _family_from_config(classes):
    if not isinstance(classes, list) or not classes:
        raise ConfigError("config key 'classes' must be a nonempty list")
    if len(classes) == 1 and "fraction" not in classes[0]:
        return distribution_from_config(classes[0])
    pairs = []
    for c in classes:
        if "fraction" not in c:
            raise ConfigError("multi-class configs need a 'fraction' per class")
        pairs.append((float(c["fraction"]), distribution_from_config(c)))
    return pairs


def _catalog_from_config(cfg):
    try:
        n = int(cfg["n"])
        law = _law_from_config(cfg["popularity"])
        fam = _family_from_config(cfg["classes"])
    except KeyError as exc:
        raise ConfigError(f"config is missing key {exc}") from exc
    total_rate = float(cfg.get("total_rate", n))
    return build_catalog(law, n, total_rate, fam)


def _model_from_config(cfg):
    try:
        spec = cfg["limit"]
        beta0 = float(spec["beta0"])
        classes = spec["classes"]
    except KeyError as exc:
        raise ConfigError(f"limit config is missing key {exc}") from exc
    model_classes = []
    for c in classes:
        psi = distribution_from_config(c["psi"]).standardize()
        model_classes.append(asymptotics.ModelClass(
            float(c.get("weight", 1.0)), density_from_config(c["density"]), psi))
    return asymptotics.AsymptoticModel(tuple(model_classes), beta0)


def _psi_from_config(cfg, catalog):
    spec = cfg.get("assumptions", {}).get("psi", "max")
    if spec == "max":
        return MaxEnvelope(list(catalog.classes))
    return distribution_from_config(spec).standardize()


def _to_jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and (obj != obj):
        return None
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


def _cache_spec(cfg, kind):
    cache = cfg.get("cache", {})
    if kind == "lru":
        if "capacity" not in cache:
            raise ConfigError("config key cache.capacity is required")
        return int(cache["capacity"])
    if "timer" not in cache:
        raise ConfigError("config key cache.timer is required")
    return float(cache["timer"])


def _cmd_solve_ct(args):
    cfg = _load_config(args.config)
    catalog = _catalog_from_config(cfg)
    C = _cache_spec(cfg, "lru")
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
    T = _cache_spec(cfg, "ttl")
    hit = approx.ttl_hit(catalog, T)
    payload = {"timer": T, "aggregate_ttl_hit": hit.aggregate,
               "miss_probability": approx.miss_probability(catalog, T)}
    _emit_json(payload, args, "ttl_hit.json")
    if args.per_content:
        _per_content_csv(catalog, hit.per_content, sys.stdout)
    return 0


def _sim_config(cfg, catalog, seed):
    cache = cfg.get("cache", {})
    policy_name = cache.get("policy", "lru")
    if policy_name == "lru":
        policy = simulator.LRU(int(cache["capacity"]))
    elif policy_name == "ttl":
        policy = simulator.TTL(float(cache["timer"]))
    else:
        raise ConfigError(f"unknown cache policy {policy_name!r}")
    sim = cfg.get("sim", {})
    return simulator.SimulationConfig(
        catalog=catalog, policy=policy,
        horizon_events=sim.get("events"),
        horizon_time=sim.get("time"),
        warmup_events=sim.get("warmup_events"),
        warmup_time=sim.get("warmup_time"),
        seed=seed,
        replications=int(sim.get("replications", 1)),
        tau_stride=int(sim.get("tau_stride", 0)))


def _cmd_simulate(args):
    cfg = _load_config(args.config)
    catalog = _catalog_from_config(cfg)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
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
               "hit_limit": float(sum(contributions)),
               "per_class": list(contributions)}
    if args.tn_asymptotic:
        spec = cfg["limit"]
        try:
            n = int(spec["n"])
            Lambda_n = float(spec["Lambda_n"])
        except KeyError as exc:
            raise ConfigError(f"--tn-asymptotic needs limit.{exc.args[0]} in the config") from exc
        g_n = float(spec.get("g_n", 1.0 / n))
        payload["tn_asymptotic"] = asymptotics.tn_asymptotic(model, g_n, Lambda_n, res.nu0)
    _emit_json(payload, args, "limit.json")
    return 0


def _cmd_sweep(args):
    cfg = _load_config(args.config)
    sweep = cfg.get("sweep")
    if sweep is None:
        raise ConfigError("config key 'sweep' is required")
    law = _law_from_config(cfg["popularity"])
    fam = _family_from_config(cfg["classes"])
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    spec = experiments.SweepSpec(
        n_values=tuple(sweep["n_values"]),
        beta=float(sweep["beta"]),
        law=law, family_assignment=fam,
        events_per_point=int(sweep["events"]),
        replications=int(sweep.get("replications", 8)),
        seed=seed,
        total_rate=sweep.get("total_rate"),
        cutoff_requests=float(sweep.get("cutoff", 1000.0)))
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
    a = cfg.get("assumptions", {})
    try:
        params = experiments.AssumptionParams(
            kappa1=float(a["kappa1"]), kappa2=float(a["kappa2"]),
            gamma=float(a["gamma"]), beta1=a.get("beta1"),
            rho=float(a.get("rho", 0.5)))
    except KeyError as exc:
        raise ConfigError(f"assumptions config is missing key {exc}") from exc
    C = float(_cache_spec(cfg, "lru"))
    psi = _psi_from_config(cfg, catalog)
    report = experiments.check_assumptions(catalog, C, psi, params)
    payload = {
        "envelope": {"holds": report.envelope.holds, "m_psi": report.envelope.m_psi,
                     "min_margin": report.envelope.min_margin},
        "smoothness": {"B": report.smoothness.B, "rho": report.smoothness.rho,
                       "b0": report.smoothness.b0,
                       "uniform_lipschitz_M": report.smoothness.uniform_lipschitz_M},
        "P1": {"holds": report.p1.holds, "lhs": report.p1.lhs, "rhs": report.p1.rhs},
        "C1": {"holds": report.c1.holds, "beta1": report.c1.beta1,
               "m_psi": report.c1.m_psi, "margin": report.c1.margin},
        "all_hold": report.all_hold,
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
