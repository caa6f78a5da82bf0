"""Benchmark entry point for ttlapprox.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {sweep-poisson,renewal-mixed,hit-curve}
                             --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: set-up time (median of five
fresh interpreters that import the package and build the inputs), the
median wall time of a pass with 2 worker processes, repeated after one
warm-up pass until the passes add up to ``--seconds``, and the peak RSS of
this process and its workers.  ``--trace 1`` measures the per-layer
metrics: after a warm-up pass, one untraced pass with 2 workers, one with
1 worker, and two traced passes with 1 worker whose exact counters must
agree.  Every pass's outputs are checked.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names
and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2  # worker processes of the untraced passes: nproc of the reference box
SETUP_PROBES = 5
OUT_DIR = ROOT / ".perfbench_out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep-poisson", "renewal-mixed", "hit-curve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import the package and build the inputs (times setup_s)")
    return p.parse_args(argv)


def _llc_bytes():
    """Size of the largest cache level of cpu0, from sysfs; None if unknown."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def _context():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "llc_bytes": _llc_bytes()}


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Counts:
    """Operations attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ops, failures):
        self.attempted += len(ops)
        for op, fails in zip(ops, failures):
            if fails:
                self.failed += 1
                print(f"FAILED {op.name}: {'; '.join(fails)}", file=sys.stderr)


def _timed_pass(workload, workers, counts, tracer=None):
    """One pass, then its checks; returns (wall time, ops, warnings caught).
    Warnings are counted, not shown; with a tracer, per layer."""
    caught = []
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = tracer.showwarning if tracer is not None \
            else lambda *args, **kwargs: caught.append(args[1])
        try:
            span = tracer.instrument().span("bench.pass") if tracer is not None \
                else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span:
                ops = workload.run_pass(workers)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
    counts.add(ops, workload.check(ops))
    return wall, ops, len(caught)


def _tail(values):
    """Highest percentile with at least ten samples beyond it, if it is at
    least the median (20 samples or more)."""
    n = len(values)
    if n < 20:
        return None
    q = int(100 * (n - 10) / n)
    return q, statistics.quantiles(values, n=100)[q - 1]


def _setup_probe(workload, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {done.returncode}")
    return elapsed


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _end_to_end(args, workload, counts):
    setups = [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    _timed_pass(workload, WORKERS, counts)  # warm-up: first-call costs are not steady state
    walls, events, warned = [], 0, 0
    while sum(walls) < args.seconds or not walls:
        wall, ops, caught = _timed_pass(workload, WORKERS, counts)
        walls.append(wall)
        events += workload.events(ops)
        warned += caught
    wall = statistics.median(walls)
    metrics = {"setup_s": statistics.median(setups), "wall_s": wall,
               "peak_rss_mb": _peak_rss_mb()}
    tail = _tail(walls)
    print(f"setup_s      {metrics['setup_s']:.4f} s (median of {len(setups)} fresh interpreters)")
    print(f"wall_s       {wall:.4f} s (median of {len(walls)} passes" + (
        f"; p{tail[0]} {tail[1]:.4f} s)" if tail else "; under 20 passes, so no tail percentile)"))
    if events:
        print(f"events_per_s {events / sum(walls):.1f} 1/s ({events} events, warmup included)")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"failed_ratio {counts.failed / max(counts.attempted, 1):.4f} ratio "
          f"({counts.failed} of {counts.attempted} operations)")
    print(f"warnings     {warned} (Python warnings raised inside the passes)")
    return metrics, True


def _per_layer(args, workload, counts):
    import layers
    from tracer import Tracer

    _timed_pass(workload, WORKERS, counts)  # warm-up, as in the end-to-end mode
    wall_2, _, _ = _timed_pass(workload, WORKERS, counts)
    wall_1, _, _ = _timed_pass(workload, 1, counts)
    traced = []
    for _ in range(2):
        tracer = Tracer()
        wall_t, _, _ = _timed_pass(workload, 1, counts, tracer)
        traced.append((tracer, wall_t))
    (first, wall_t), (second, _) = traced
    metrics = layers.derive(first, wall_1, wall_2, wall_t)
    repeat = layers.derive(second, wall_1, wall_2, wall_t)
    correct = True
    for name in layers.EXACT:
        if metrics[name] != repeat[name]:
            correct = False
            print(f"counter {name} did not repeat: {metrics[name]} vs {repeat[name]}",
                  file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}.npz"
    first.save(spans)
    print(f"spans        {len(first.start)} written to {spans.relative_to(ROOT)}")
    print(f"walls        2 workers {wall_2:.4f} s, 1 worker {wall_1:.4f} s, "
          f"traced {wall_t:.4f} s")
    return metrics, correct


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "ttlapprox" / "__init__.py").is_file():
        print(f"no ttlapprox sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # imports ttlapprox from the checkout's src

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            return 0
        end_to_end, per_layer = _declared()
        context = _context()
        print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
              f"context={json.dumps(context)}")
        counts = Counts()
        if args.trace:
            metrics, correct = _per_layer(args, workload, counts)
            units = per_layer
        else:
            metrics, correct = _end_to_end(args, workload, counts)
            units = end_to_end
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 2
    result = {"correct": correct and counts.failed == 0, "attempted": counts.attempted,
              "failed": counts.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
