import csv
import json
import math

import pytest

from ttlapprox import cli
from ttlapprox.approx import expected_occupancy
from ttlapprox.distributions import Exponential
from ttlapprox.errors import NumericsError
from ttlapprox.popularity import ZipfLaw, build_catalog


def write_config(tmp_path, extra=None):
    cfg = {
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
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


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


class TestLimit:
    def test_limit_values(self, tmp_path, capsys):
        rc = cli.main(["--config", write_config(tmp_path), "limit", "--tn-asymptotic"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nu0"] == pytest.approx(0.7127325, abs=1e-5)
        assert payload["hit_limit"] == pytest.approx(0.7068549, abs=1e-5)
        assert payload["per_class"] == [payload["hit_limit"]]
        assert payload["tn_asymptotic"] == pytest.approx(payload["nu0"], rel=1e-12)


class TestSweepCommand:
    def test_csv_output(self, tmp_path, capsys):
        rc = cli.main(["--config", write_config(tmp_path), "--out", str(tmp_path),
                       "--format", "csv", "--threads", "1", "convergence-sweep"])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "convergence.csv")))
        assert [r["n"] for r in rows] == ["40", "80"]
        assert all(r["status"] == "ok" for r in rows)


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

    def test_semantic_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"cache": {"policy": "lru", "capacity": 60}})
        assert cli.main(["--config", path, "solve-ct"]) == 2

    def test_numeric_failure_is_3(self, tmp_path, monkeypatch, capsys):
        def boom(*a, **k):
            raise NumericsError("synthetic non-convergence")

        monkeypatch.setattr(cli.approx, "characteristic_time", boom)
        assert cli.main(["--config", write_config(tmp_path), "solve-ct"]) == 3
