"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
that ``setup_s`` measures), runs one pass of fixed work in ``run_pass``
(the region ``wall_s`` times), and checks a pass's outputs in ``check``,
outside the timed region.  Library calls go through module attributes
(``approx.characteristic_time``), so the tracer's wrappers see them.

- ``sweep-poisson``: CLI ``convergence-sweep``, Zipf 0.8, Poisson streams,
  three catalog sizes.  The heap LRU path and the replication pool do the
  work; stationary init and the distribution kernels are closed forms.
- ``renewal-mixed``: two CLI ``simulate`` calls, LRU with reuse-window
  sampling and TTL at the solved timer, on a Gamma/Weibull catalog.  The
  generic engine path, numeric age quantiles in stationary init and the
  time-based warmup rule do the work.
- ``hit-curve``: library only, no simulation.  Characteristic time and
  hit ratio over five families, two Zipf exponents and three cache sizes,
  then the large-system limits.  Distribution kernels and the K/K' solve
  do the work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ttlapprox import approx, asymptotics, cli, distributions, popularity
from ttlapprox.densities import PowerLawDensity

import checks

@dataclass
class Op:
    """One operation of a pass: a CLI call or a library solve."""

    name: str
    output: object = None
    error: str | None = None
    meta: dict = field(default_factory=dict)


def _attempt(op: Op, fn):
    """Run ``fn`` for ``op``; a raised exception fails the op, not the run."""
    try:
        op.output = fn()
    except Exception:  # noqa: BLE001 - every failure is counted, then reported
        op.error = traceback.format_exc()
        print(op.error, file=sys.stderr)
    return op


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class SweepPoisson:
    name = "sweep-poisson"
    N_VALUES = (1000, 4000, 16000)
    EVENTS = 100_000
    REPLICATIONS = 4
    BETA = 0.3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config = workdir / "sweep.json"
        self.out = workdir / "sweep-out"
        self.config.write_text(json.dumps({
            "n": self.N_VALUES[0],
            "popularity": {"zipf": {"alpha": 0.8}},
            "classes": [{"family": "exponential", "params": {"rate": 1.0}}],
            "sweep": {"n_values": list(self.N_VALUES), "beta": self.BETA,
                      "events": self.EVENTS, "replications": self.REPLICATIONS},
            "seed": seed}))

    def run_pass(self, workers: int) -> list[Op]:
        argv = ["--config", str(self.config), "--seed", str(self.seed), "--out",
                str(self.out), "--format", "csv", "--threads", str(workers),
                "convergence-sweep"]
        return [_attempt(Op("convergence-sweep"), lambda: _cli(argv)[0])]

    def _rows(self):
        with open(self.out / "convergence.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def check(self, ops: list[Op]) -> list[list[str]]:
        (op,) = ops
        if op.error is not None:
            return [["raised"]]
        rows = self._rows() if op.output == 0 else []
        op.meta["rows"] = rows
        return [checks.check_sweep(op.output, rows, self.N_VALUES)]

    def events(self, ops: list[Op]) -> int:
        # warmup rule of experiments.convergence_sweep: max(5n, 20 T_n Lambda)
        # events, with Lambda = n here; the CSV gives T_n
        total = 0
        for r in ops[0].meta.get("rows", []):
            n = int(r["n"])
            warm = max(5 * n, int(math.ceil(20.0 * float(r["T_n"]) * n)))
            total += self.REPLICATIONS * (warm + self.EVENTS)
        return total


class RenewalMixed:
    name = "renewal-mixed"
    N = 5000
    CAPACITY = 1500
    EVENTS = 150_000
    REPLICATIONS = 2
    CLASSES = [{"family": "gamma", "params": {"shape": 0.5, "rate": 1.0}, "fraction": 0.5},
               {"family": "weibull", "params": {"shape": 0.7, "scale": 1.0}, "fraction": 0.5}]

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        base = {"n": self.N, "total_rate": float(self.N),
                "popularity": {"zipf": {"alpha": 0.8}}, "classes": self.CLASSES,
                "sim": {"events": self.EVENTS, "replications": self.REPLICATIONS}}
        catalog = popularity.build_catalog(
            popularity.ZipfLaw(0.8), self.N, float(self.N),
            [(c["fraction"], distributions.distribution_from_config(c)) for c in self.CLASSES])
        self.timer = approx.characteristic_time(catalog, float(self.CAPACITY)).t
        self.predicted = approx.ttl_hit(catalog, self.timer).aggregate
        self.lru = workdir / "lru.json"
        self.ttl = workdir / "ttl.json"
        self.lru.write_text(json.dumps(dict(
            base, cache={"policy": "lru", "capacity": self.CAPACITY},
            sim=dict(base["sim"], tau_stride=16))))
        self.ttl.write_text(json.dumps(dict(
            base, cache={"policy": "ttl", "timer": self.timer})))

    def _simulate(self, config: Path, workers: int):
        rc, text = _cli(["--config", str(config), "--seed", str(self.seed),
                         "--threads", str(workers), "simulate"])
        return rc, (json.loads(text) if rc == 0 else None)

    def run_pass(self, workers: int) -> list[Op]:
        return [_attempt(Op("simulate-lru"), lambda: self._simulate(self.lru, workers)),
                _attempt(Op("simulate-ttl"), lambda: self._simulate(self.ttl, workers))]

    def check(self, ops: list[Op]) -> list[list[str]]:
        result = []
        for op, tol, tau in zip(ops, (checks.LRU_HIT_TOL, checks.TTL_HIT_TOL), (True, False)):
            if op.error is not None:
                result.append(["raised"])
            else:
                rc, payload = op.output
                result.append(checks.check_simulation(rc, payload, self.predicted, tol, tau))
        return result

    def events(self, ops: list[Op]) -> int:
        return len(ops) * self.REPLICATIONS * self.EVENTS


class HitCurve:
    name = "hit-curve"
    N = 20_000
    RTOL = 1e-9
    FAMILIES = {
        "exponential": {"rate": 1.0},
        "gamma": {"shape": 0.5, "rate": 1.0},
        "weibull": {"shape": 0.7, "scale": 1.0},
        "hyperexponential": {"weights": [0.9, 0.1], "rates": [1.0, 0.1]},
        "pareto_lomax": {"shape": 3.0, "scale": 1.0},
    }
    ALPHAS = (0.8, 1.2)
    RATIOS = (0.05, 0.3, 0.9)
    BETAS = (0.05, 0.3, 0.9)

    def __init__(self, seed: int, workdir: Path):
        # nothing here is random: the seed only fixes the evaluation order
        rng = np.random.default_rng(seed)
        grid = [(f, a, r) for f in self.FAMILIES for a in self.ALPHAS for r in self.RATIOS]
        self.grid = [grid[i] for i in rng.permutation(len(grid))]
        self.dists = {f: distributions.distribution_from_config({"family": f, "params": p})
                      for f, p in self.FAMILIES.items()}
        density = PowerLawDensity(0.2, 0.8)  # Zipf 0.8 limit, unit integral
        exp = asymptotics.ModelClass(1.0, density, self.dists["exponential"].standardize())
        mixed = (asymptotics.ModelClass(0.5, density, self.dists["gamma"].standardize()),
                 asymptotics.ModelClass(0.5, density, self.dists["weibull"].standardize()))
        limits = [(kind, b, asymptotics.AsymptoticModel(classes, b))
                  for b in self.BETAS
                  for kind, classes in (("exponential", (exp,)), ("mixed", mixed))]
        self.limits = [limits[i] for i in rng.permutation(len(limits))]
        self._fagin = {}

    def _point(self, family, alpha, ratio):
        catalog = popularity.build_catalog(popularity.ZipfLaw(alpha), self.N, float(self.N),
                                           self.dists[family])
        C = ratio * self.N
        ct = approx.characteristic_time(catalog, C, rtol=self.RTOL)
        hit = approx.ttl_hit(catalog, ct.t)
        return {"family": family, "params": self.FAMILIES[family], "alpha": alpha,
                "ratio": ratio, "n": self.N, "C": C, "T": ct.t, "residual": ct.residual,
                "iterations": ct.iterations, "hit": hit.aggregate}

    def _limit(self, kind, beta0, model):
        res = asymptotics.solve_nu0(model)
        return {"kind": kind, "beta0": beta0, "nu0": res.nu0, "residual": res.residual,
                "hit_limit": asymptotics.hit_limit(model, res.nu0)}

    def run_pass(self, workers: int) -> list[Op]:
        ops = [_attempt(Op(f"curve-{f}-{a}-{r}"), lambda f=f, a=a, r=r: self._point(f, a, r))
               for f, a, r in self.grid]
        ops += [_attempt(Op(f"limit-{k}-{b}", meta={"model": m}),
                         lambda k=k, b=b, m=m: self._limit(k, b, m))
                for k, b, m in self.limits]
        return ops

    def _fagin_hit(self, beta0, model) -> float:
        if beta0 not in self._fagin:
            catalog = asymptotics.fagin_catalog(model, self.N, float(self.N))
            t = approx.characteristic_time(catalog, beta0 * self.N).t
            self._fagin[beta0] = approx.ttl_hit(catalog, t).aggregate
        return self._fagin[beta0]

    def check(self, ops: list[Op]) -> list[list[str]]:
        failures = [["raised"] if op.error is not None else [] for op in ops]
        curves, limits = {}, {}
        for i, op in enumerate(ops):
            if op.error is not None:
                continue
            out = op.output
            if "family" in out:
                failures[i] += checks.check_curve_point(out, self.RTOL)
                curves.setdefault((out["family"], out["alpha"]), []).append((out["ratio"], i))
            else:
                failures[i] += checks.check_limit(out, tol=1e-9)
                limits.setdefault(out["kind"], []).append((out["beta0"], i))
                if out["kind"] == "exponential":
                    reference = self._fagin_hit(out["beta0"], op.meta["model"])
                    failures[i] += checks.check_fagin(out["hit_limit"], reference)
        # hit ratio nondecreasing in C; nu0 increasing in beta0
        for group, key in ((curves, "hit"), (limits, "nu0")):
            for members in group.values():
                members.sort()
                values = [ops[i].output[key] for _, i in members]
                for j in checks.check_monotone(values):
                    failures[members[j][1]].append(f"{key} decreased along the curve")
        return failures

    def events(self, ops: list[Op]) -> int:
        return 0


WORKLOADS = {w.name: w for w in (SweepPoisson, RenewalMixed, HitCurve)}
