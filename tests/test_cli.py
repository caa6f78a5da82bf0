import contextlib
import copy
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlapprox import cli, simulator
from ttlapprox.approx import expected_occupancy
from ttlapprox.asymptotics import AsymptoticModel, ModelClass, hit_limit, solve_nu0
from ttlapprox.densities import PowerLawDensity
from ttlapprox.distributions import Exponential, distribution_from_config
from ttlapprox.errors import NumericsError
from ttlapprox.popularity import ZipfLaw, build_catalog


def base_config():
    return {
        "n": 60,
        "total_rate": 60.0,
        "popularity": {"zipf": {"alpha": 0.8}},
        "classes": [{"family": "exponential", "params": {"rate": 1.0}}],
        "cache": {"policy": "lru", "capacity": 18},
        "sim": {"events": 40000, "warmup_events": 4000, "replications": 2},
        "limit": {
            "beta0": 0.3,
            "classes": [{"weight": 1.0,
                         "density": {"power": {"c": 0.2, "alpha": 0.8}},
                         "psi": {"family": "exponential", "params": {"rate": 1.0}}}],
            "n": 1000,
            "Lambda_n": 1000.0,
        },
        "assumptions": {"kappa1": 1.2, "kappa2": 0.0, "gamma": 0.1, "beta1": 0.3,
                        "rho": 0.5, "psi": {"family": "exponential", "params": {"rate": 1.0}}},
        "sweep": {"n_values": [40, 80], "beta": 0.3, "events": 20000,
                  "replications": 2, "cutoff": 100},
    }


def write_config(tmp_path, extra=None):
    cfg = base_config()
    if extra:
        cfg.update(extra)
    path = Path(tmp_path) / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class _Drop:
    """As a value in ``_mutated``: delete the key.  Its repr is fixed, so
    the test ids that show it are the same in every run."""

    def __repr__(self):
        return "DROP"


_DROP = _Drop()


def _mutated(cfg, dotted, value):
    """A copy of cfg with the value at a dotted key path (list indices as
    numbers) replaced, or deleted for _DROP."""
    cfg = copy.deepcopy(cfg)
    *head, last = dotted.split(".")
    node = cfg
    for k in head:
        node = node[int(k) if isinstance(node, list) else k]
    last = int(last) if isinstance(node, list) else last
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return cfg


class TestSolveCt:
    def test_json_payload(self, tmp_path, capsys):
        rc = cli.main(["--config", write_config(tmp_path), "solve-ct"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        catalog = build_catalog(ZipfLaw(0.8), 60, 60.0, Exponential(1.0))
        assert abs(expected_occupancy(catalog, payload["T_n"]) - 18) <= 1e-9 * 18
        assert payload["residual"] <= 1e-9 * 18
        assert 0.0 < payload["aggregate_ttl_hit"] < 1.0

    def test_per_content_stream(self, tmp_path, capsys):
        rc = cli.main(["--config", write_config(tmp_path), "solve-ct", "--per-content"])
        assert rc == 0
        out = capsys.readouterr().out
        csv_part = out[out.index("i,lambda_i"):]
        rows = list(csv.DictReader(csv_part.splitlines()))
        assert len(rows) == 60
        assert float(rows[0]["H_ttl_i"]) > float(rows[-1]["H_ttl_i"])


class TestSimulate:
    def test_basic(self, tmp_path, capsys):
        rc = cli.main(["--config", write_config(tmp_path), "--threads", "1", "simulate"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replications"] == 2
        assert payload["total_requests"] == 2 * 36000
        assert 0.0 < payload["aggregate_hit"] < 1.0

    def test_trace(self, tmp_path, capsys):
        cfgpath = write_config(tmp_path, {"sim": {"events": 2000, "warmup_events": 100,
                                                  "replications": 1}})
        trace = tmp_path / "trace.csv"
        rc = cli.main(["--config", cfgpath, "simulate", "--trace", str(trace)])
        assert rc == 0
        rows = list(csv.DictReader(open(trace)))
        assert len(rows) == 1900
        times = [float(r["time"]) for r in rows]
        assert times == sorted(times)
        assert set(r["hit"] for r in rows) <= {"0", "1"}


def _simulate(tmp_path, capsys, threads="1", **extra):
    """The exit code and JSON payload (None on failure) of CLI simulate."""
    rc = cli.main(["--config", write_config(tmp_path, extra), "--threads", threads, "simulate"])
    out = capsys.readouterr().out
    return rc, json.loads(out) if rc == 0 else None


class TestWarmup:
    """sim.events and sim.time include a warmup, which the CLI subtracts:
    it runs the library's measured horizon H - W, or h - w in time."""

    CATALOG = build_catalog(ZipfLaw(0.8), 60, 60.0, Exponential(1.0))

    # (cache, sim, the library's measured horizon); total rate 60, n = 60
    CASES = [
        ({"policy": "ttl", "timer": 1.0}, {"events": 40000},  # default: 20 timers > 5n
         {"horizon_events": 40000 - 1200}),
        ({"policy": "lru", "capacity": 60}, {"events": 40000},  # C = n: no timer, 5n events
         {"horizon_events": 40000 - 300}),
        ({"policy": "lru", "capacity": 18}, {"events": 40000, "warmup_time": 10.0},
         {"horizon_events": 40000 - 600}),
        ({"policy": "lru", "capacity": 18},
         {"events": 40000, "warmup_events": 1000, "warmup_time": 10.0},
         {"horizon_events": 40000 - 1000}),
        ({"policy": "lru", "capacity": 18}, {"time": 100.0, "warmup_events": 600},
         {"horizon_time": 100.0 - 10.0}),
        ({"policy": "ttl", "timer": 1.0}, {"time": 100.0, "warmup_time": 10.0},
         {"horizon_time": 100.0 - 10.0}),
    ]

    @pytest.mark.parametrize("cache, sim, measured", CASES, ids=[
        "ttl-default", "lru-C=n-default", "events-warmup_time", "events-both-warmups",
        "time-warmup_events", "time-warmup_time"])
    def test_the_library_runs_the_measured_horizon(self, tmp_path, capsys, cache, sim, measured):
        rc, payload = _simulate(tmp_path, capsys, cache=cache, sim=dict(sim, replications=2))
        assert rc == 0
        policy = (simulator.TTL(cache["timer"]) if cache["policy"] == "ttl"
                  else simulator.LRU(cache["capacity"]))
        report = simulator.replicate(simulator.SimulationConfig(
            catalog=self.CATALOG, policy=policy, replications=2, **measured), workers=1)
        if "horizon_events" in measured:
            assert payload["total_requests"] == 2 * measured["horizon_events"]
        assert payload["total_requests"] == report.total_requests
        assert payload["aggregate_hit"] == report.aggregate_hit
        assert payload["elapsed_virtual_time"] == report.elapsed_time

    def test_the_default_lru_rule_is_solved_once_per_call(self, tmp_path, capsys, monkeypatch):
        solve, calls = cli.approx.characteristic_time, []

        def once(*args, **kwargs):  # forked workers inherit calls as it is at the fork
            if calls:
                raise NumericsError("characteristic time solved twice")
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli.approx, "characteristic_time", once)
        rc, payload = _simulate(tmp_path, capsys, threads="2",
                                sim={"events": 40000, "replications": 4})
        assert rc == 0 and len(calls) == 1
        T = solve(self.CATALOG, 18.0).t  # 20 T of the total rate 60 against 5n = 300
        assert payload["total_requests"] == 4 * (40000 - max(300, math.ceil(1200 * T)))

    # (config edits, the horizon key the error names)
    CONSUMED = [
        ({"n": 200, "total_rate": 200.0, "cache": {"policy": "lru", "capacity": 60},
          "sim": {"events": 900}}, "sim.events"),  # the default 5n = 1000 events
        ({"cache": {"policy": "ttl", "timer": 1.0},
          "sim": {"events": 5000, "warmup_time": 1e9}}, "sim.events"),
        ({"sim": {"events": 5000, "warmup_events": 5000}}, "sim.events"),
        ({"sim": {"events": 60000, "warmup_time": 1e308}}, "sim.events"),  # overflows a float
        ({"sim": {"time": 1.0, "warmup_time": 1.0}}, "sim.time"),
        ({"sim": {"time": 1.0, "warmup_events": 60}}, "sim.time"),
    ]

    @pytest.mark.parametrize("edits, named", CONSUMED,
                             ids=[json.dumps(e["sim"]) for e, _ in CONSUMED])
    def test_a_warmup_that_consumes_the_horizon_is_2(self, tmp_path, capsys, edits, named):
        path = write_config(tmp_path, edits)
        assert cli.main(["--config", path, "--threads", "1", "simulate"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"config key {named}: " in err


class TestLimit:
    def test_limit_values(self, tmp_path, capsys):
        rc = cli.main(["--config", write_config(tmp_path), "limit", "--tn-asymptotic"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nu0"] == pytest.approx(0.7127325, abs=1e-5)
        assert payload["hit_limit"] == pytest.approx(0.7068549, abs=1e-5)
        assert payload["per_class"] == [payload["hit_limit"]]
        assert payload["tn_asymptotic"] == pytest.approx(payload["nu0"], rel=1e-12)

    def test_hit_limit_is_the_exact_sum_of_the_classes(self, tmp_path, capsys):
        # with three classes the plain sum rounds differently: 0.9789445897134863
        density = {"power": {"c": 0.2, "alpha": 0.8}}
        laws = [("gamma", {"shape": 2.0, "rate": 1.0}, 0.2),
                ("pareto_lomax", {"shape": 3.0, "scale": 1.0}, 0.3),
                ("exponential", {"rate": 1.0}, 0.5)]
        limit = {"beta0": 0.9, "classes": [
            {"weight": w, "density": density, "psi": {"family": f, "params": p}}
            for f, p, w in laws]}
        assert cli.main(["--config", write_config(tmp_path, {"limit": limit}), "limit"]) == 0
        payload = json.loads(capsys.readouterr().out)
        model = AsymptoticModel(tuple(
            ModelClass(w, PowerLawDensity(0.2, 0.8),
                       distribution_from_config({"family": f, "params": p}).standardize())
            for f, p, w in laws), 0.9)
        assert payload["nu0"] == solve_nu0(model).nu0
        assert payload["hit_limit"] == hit_limit(model) == math.fsum(payload["per_class"])


class TestSweepCommand:
    def test_csv_output(self, tmp_path, capsys):
        rc = cli.main(["--config", write_config(tmp_path), "--out", str(tmp_path),
                       "--format", "csv", "--threads", "1", "convergence-sweep"])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "convergence.csv")))
        assert [r["n"] for r in rows] == ["40", "80"]
        assert all(r["status"] == "ok" for r in rows)

    def test_zipf_near_one_has_a_finite_fagin_limit(self, tmp_path, capsys):
        # from an exponent of about 0.993 on, f overflows in the limit integrals
        path = write_config(tmp_path, {"popularity": {"zipf": {"alpha": 0.995}}})
        rc = cli.main(["--config", path, "--out", str(tmp_path), "--format", "csv",
                       "--threads", "1", "convergence-sweep"])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "convergence.csv")))
        assert [r["n"] for r in rows] == ["40", "80"]
        assert all(math.isfinite(float(r["fagin_limit"])) for r in rows)


class TestCheckAssumptions:
    def test_all_hold(self, tmp_path, capsys):
        rc = cli.main(["--config", write_config(tmp_path), "check-assumptions"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_hold"] is True
        assert payload["envelope"]["m_psi"] == 1.0
        assert payload["smoothness"]["b0"] == pytest.approx(math.exp(-1), rel=1e-5)


class TestExitCodes:
    def test_missing_config_is_2(self, capsys):
        assert cli.main(["--config", "/does/not/exist.json", "solve-ct"]) == 2

    def test_malformed_config_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["--config", str(bad), "solve-ct"]) == 2

    @pytest.mark.parametrize("command", ["solve-ct", "ttl-hit", "simulate", "limit",
                                         "convergence-sweep", "check-assumptions"])
    def test_top_level_list_is_2(self, tmp_path, capsys, command):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert cli.main(["--config", str(bad), command]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_semantic_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"cache": {"policy": "lru", "capacity": 60}})
        assert cli.main(["--config", path, "solve-ct"]) == 2

    def test_numeric_failure_is_3(self, tmp_path, monkeypatch, capsys):
        def boom(*a, **k):
            raise NumericsError("synthetic non-convergence")

        monkeypatch.setattr(cli.approx, "characteristic_time", boom)
        assert cli.main(["--config", write_config(tmp_path), "solve-ct"]) == 3

    def test_nan_limit_integrand_is_3(self, tmp_path, monkeypatch, capsys):
        # the limit quadrature raises on a NaN integrand; it never returns NaN
        def nan_kernel(self, t):
            return np.full_like(t, np.nan), np.full_like(t, np.nan)

        monkeypatch.setattr(Exponential, "_age_cdf_ccdf", nan_kernel)
        assert cli.main(["--config", write_config(tmp_path), "limit"]) == 3
        assert "not finite" in capsys.readouterr().err

    # (subcommand argv, key path, new value or _DROP, the key path the message names)
    PROBES = [
        (["solve-ct"], "popularity.zipf.alpha", "x", "popularity.zipf.alpha"),
        (["solve-ct"], "n", "x", "n"),
        (["solve-ct"], "n", 50.7, "n"),
        (["solve-ct"], "n", True, "n"),
        (["solve-ct"], "n", 1e308, "n"),
        (["solve-ct"], "total_rate", "x", "total_rate"),
        (["solve-ct"], "classes", [{"fraction": "x", "family": "exponential",
                                    "params": {"rate": 1.0}}], "classes.0.fraction"),
        (["solve-ct"], "classes", [5], "classes.0"),
        (["solve-ct"], "classes", [], "classes"),
        (["solve-ct"], "classes.0.family", ["exponential"], "classes.0"),
        (["solve-ct"], "classes.0.family", "cauchy", "classes.0"),
        (["solve-ct"], "classes.0.params.rate", "x", "classes.0.params.rate"),
        (["solve-ct"], "classes.0", {"family": "erlang", "params": {"stages": 2.7, "rate": 1.0}},
         "classes.0"),
        (["solve-ct"], "cache.capacity", "x", "cache.capacity"),
        (["solve-ct"], "popularity.zipf", [0.8], "popularity.zipf"),
        (["solve-ct"], "popularity", {"zipf": {"alpha": 0.8}, "density": {}}, "popularity"),
        (["solve-ct"], "popularity", {"cauchy": {"a": 1}}, "popularity"),
        (["solve-ct"], "popularity", {"density": {"power": {"c": 0.2}}},
         "popularity.density.power.alpha"),
        (["solve-ct"], "popularity", {"density": {"tabulated": {"values": ["a"]}}},
         "popularity.density.tabulated.values.0"),
        (["ttl-hit"], "cache.timer", "x", "cache.timer"),
        (["ttl-hit"], "cache.timer", math.nan, "cache.timer"),
        (["ttl-hit"], "cache.timer", -math.inf, "cache.timer"),
        (["simulate"], "sim", [1], "sim"),
        (["simulate"], "cache.capacity", _DROP, "cache.capacity"),
        (["simulate"], "cache.policy", "fifo", "cache.policy"),
        (["simulate"], "sim.replications", 1.5, "sim.replications"),
        (["simulate"], "sim.events", "x", "sim.events"),
        (["simulate"], "sim", {"events": 200}, "sim.events"),  # the default warmup is 5n = 300
        (["simulate"], "sim.warmup_time", 1e9, "sim.events"),
        (["simulate"], "seed", "x", "seed"),
        (["limit"], "limit.classes", 5, "limit.classes"),
        (["limit"], "limit.classes.0.density.power.alpha", _DROP,
         "limit.classes.0.density.power.alpha"),
        (["limit"], "limit.classes.0.weight", "x", "limit.classes.0.weight"),
        (["limit"], "limit.beta0", _DROP, "limit.beta0"),
        (["limit", "--tn-asymptotic"], "limit.n", 0, "limit.n"),
        (["limit", "--tn-asymptotic"], "limit.g_n", "x", "limit.g_n"),
        (["convergence-sweep"], "sweep.n_values", ["a"], "sweep.n_values.0"),
        (["convergence-sweep"], "sweep", _DROP, "sweep"),
        (["check-assumptions"], "assumptions.beta1", "x", "assumptions.beta1"),
        (["check-assumptions"], "assumptions.psi", [1], "assumptions.psi"),
    ]

    @pytest.mark.parametrize("argv, key, value, named", PROBES,
                             ids=[f"{p[0][0]}:{p[1]}={p[2]!r}" for p in PROBES])
    def test_malformed_value_is_2_naming_its_key(self, tmp_path, capsys, argv, key, value, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_mutated(base_config(), key, value)))
        assert cli.main(["--config", str(path), "--threads", "1", "--out", str(tmp_path)]
                        + argv) == 2
        assert re.search(rf"config key {re.escape(named)}[ :]", capsys.readouterr().err)

    @pytest.mark.parametrize("g_n, Lambda_n", [(1e-6, 5e-324), (1e-3, 1e-310)])
    def test_non_finite_tn_asymptotic_is_3(self, tmp_path, capsys, g_n, Lambda_n):
        limit = dict(base_config()["limit"], g_n=g_n, Lambda_n=Lambda_n)
        path = write_config(tmp_path, {"limit": limit})
        assert cli.main(["--config", path, "limit", "--tn-asymptotic"]) == 3
        assert "not a finite number" in capsys.readouterr().err


class TestHugeTimer:
    def test_ttl_hit_at_the_float_limit(self, tmp_path, capsys):
        path = write_config(tmp_path, {"cache": {"policy": "ttl", "timer": 1e308}})
        assert cli.main(["--config", path, "ttl-hit"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregate_ttl_hit"] == pytest.approx(1.0, rel=1e-14)
        assert payload["miss_probability"] == 0.0


class TestExtremeParameters:
    """Parameters at the float limit that once overflowed: each run ends in
    an exit code, with finite JSON and no warning (pytest turns a
    RuntimeWarning into a failure)."""

    # (key path, new value, exit code of solve-ct, exit code of check-assumptions)
    CASES = [
        ("classes.0", {"family": "gamma", "params": {"shape": 1e308, "rate": 1.0}}, 2, 2),
        ("classes.0", {"family": "erlang", "params": {"stages": 1e308, "rate": 1.0}}, 2, 2),
        ("classes.0", {"family": "gamma", "params": {"shape": 1e30, "rate": 1.0}}, 0, 0),
        ("classes.0", {"family": "weibull", "params": {"shape": 1e308, "scale": 1.0}}, 0, 0),
        ("classes.0", {"family": "weibull", "params": {"shape": 1e308, "scale": 0.5}}, 0, 0),
        ("popularity", {"density": {"constant": {"c": 1e308}}}, 0, 0),
        ("popularity", {"density": {"tabulated": {"values": [1e308, 1.0]}}}, 0, 0),
        ("popularity", {"density": {"power": {"c": 1e308, "alpha": 0.5}}}, 2, 2),
        ("assumptions.psi", {"family": "gamma", "params": {"shape": 1e308, "rate": 1.0}}, 0, 2),
    ]

    @pytest.mark.parametrize("key, value, solve_code, check_code", CASES,
                             ids=[f"{k}={json.dumps(v)}" for k, v, _, _ in CASES])
    def test_ends_in_an_exit_code(self, tmp_path, capsys, key, value, solve_code, check_code):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_mutated(base_config(), key, value)))
        for command, code in (("solve-ct", solve_code), ("check-assumptions", check_code)):
            assert cli.main(["--config", str(path), command]) == code
            out = capsys.readouterr().out
            if code == 0:
                json.loads(out, parse_constant=_reject_constant)


def _reject_constant(token):
    raise AssertionError(f"non-finite JSON token {token}")


# The fuzz base: write_config's schema with tiny sizes, so every example runs in milliseconds.
_FUZZ_BASE = dict(base_config(), n=12, cache={"policy": "lru", "capacity": 4},
                  sim={"events": 600, "warmup_events": 100, "replications": 1},
                  sweep={"n_values": [10, 20], "beta": 0.3, "events": 400, "replications": 1,
                         "cutoff": 5})


def _paths(node, prefix=""):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        path = f"{prefix}{k}"
        yield path
        if isinstance(v, (dict, list)):
            yield from _paths(v, path + ".")


_FUZZ_PATHS = sorted(_paths(_FUZZ_BASE))
# The huge values lie past 64 bits as integers, so a key that sizes the work (n,
# events, replications) rejects them instead of starting a valid but endless run.
_FUZZ_VALUES = [_DROP, "x", True, None, [], {}, [1], 0, -1, 2.5, math.nan, math.inf, -math.inf,
                1e308, -1e308, 10 ** 30, 5e-324]
_FUZZ_ARGV = [["solve-ct"], ["ttl-hit"], ["simulate"], ["limit", "--tn-asymptotic"],
              ["convergence-sweep"], ["check-assumptions"]]


class TestFuzz:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(argv=st.sampled_from(_FUZZ_ARGV),
           edits=st.lists(st.tuples(st.sampled_from(_FUZZ_PATHS), st.sampled_from(_FUZZ_VALUES)),
                          min_size=1, max_size=3))
    def test_main_ends_in_an_exit_code(self, argv, edits):
        cfg = _FUZZ_BASE
        for key, value in edits:
            try:
                cfg = _mutated(cfg, key, value)
            except (KeyError, IndexError, TypeError, ValueError):  # an earlier edit took the path
                pass
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(["--config", str(path), "--threads", "1", "--out", tmp,
                               "--format", "json"] + argv)
            assert rc in (0, 2, 3)
            if rc == 0:  # with --out, the last line printed is the JSON file written
                written = Path(out.getvalue().splitlines()[-1]).read_text()
                json.loads(written, parse_constant=_reject_constant)
