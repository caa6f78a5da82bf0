import csv
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import ttlapprox
from ttlapprox.distributions import Exponential
from ttlapprox.errors import ConfigError
from ttlapprox.experiments import EMIT_COLUMNS, SweepSpec, convergence_sweep, emit
from ttlapprox.popularity import ZipfLaw, build_catalog


def tiny_spec(**overrides):
    base = dict(n_values=(40, 80), beta=0.3, law=ZipfLaw(0.8),
                family_assignment=Exponential(1.0), events_per_point=40_000,
                replications=2, seed=5, cutoff_requests=200.0)
    base.update(overrides)
    return SweepSpec(**base)


class TestSweep:
    def test_row_per_n_with_status(self):
        rows = convergence_sweep(tiny_spec(), workers=1)
        assert [r.n for r in rows] == [40, 80]
        assert all(r.status == "ok" for r in rows)
        assert all(r.gap_max >= 0 and r.gap_aggregate >= 0 for r in rows)
        assert all(np.isfinite(r.stderr_max) and np.isfinite(r.stderr_agg) for r in rows)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1e308, math.nan])
    def test_infeasible_beta_is_config_error(self, beta):
        with pytest.raises(ConfigError, match="infeasible cache size"):
            tiny_spec(beta=beta)

    def test_failed_row_marked_not_dropped(self):
        rows = convergence_sweep(tiny_spec(cutoff_requests=1e9), workers=1)
        assert len(rows) == 2
        assert all(r.status.startswith("failed:") for r in rows)
        assert all(math.isnan(r.gap_max) for r in rows)

    def test_reproducible_bit_for_bit(self):
        a = convergence_sweep(tiny_spec(), workers=1)
        b = convergence_sweep(tiny_spec(), workers=2)
        assert a == b

    # the most popular content makes about 6600, 5300 and 3300 requests per
    # replication at n = 40, 80 and 400: only the last row misses the cutoff
    PARTLY_FAILING = dict(cutoff_requests=4500.0, replications=3)

    def test_failed_row_leaves_the_others_ok(self):
        rows = convergence_sweep(tiny_spec(n_values=(40, 80, 400), **self.PARTLY_FAILING),
                                 workers=2)
        assert [r.status for r in rows[:2]] == ["ok", "ok"]
        assert rows[2].status.startswith("failed: no content reached")
        assert rows[:2] == convergence_sweep(tiny_spec(**self.PARTLY_FAILING), workers=2)

    def test_rows_independent_of_workers(self):
        # one pool runs every row's replications, longest first; a failed
        # row's NaN cells compare equal through repr
        spec = tiny_spec(n_values=(40, 80, 400), **self.PARTLY_FAILING)
        assert repr(convergence_sweep(spec, workers=1)) == repr(convergence_sweep(spec, workers=2))

    def test_fagin_reference_present_for_sublinear_zipf(self):
        rows = convergence_sweep(tiny_spec(), workers=1)
        assert rows[0].fagin_limit is not None
        assert 0.3 < rows[0].fagin_limit < 1.0

    def test_identical_poisson_gap_within_noise(self):
        # uniform popularity: the timer-cache prediction is exact in aggregate
        rows = convergence_sweep(tiny_spec(law=ZipfLaw(0.0), events_per_point=100_000,
                                           replications=4), workers=2)
        for r in rows:
            assert r.gap_aggregate < 5 * max(r.stderr_agg, 1e-4)


class TestImports:
    def test_package_loads_only_scipy_special(self):
        # the tests import scipy.stats themselves, so a fresh interpreter checks
        code = textwrap.dedent("""
            import sys
            import ttlapprox
            from ttlapprox.approx import tn_bracket
            from ttlapprox.assumptions import MaxEnvelope, check_assumptions
            from ttlapprox.distributions import Gamma, Weibull
            from ttlapprox.popularity import ZipfLaw, build_catalog
            members = [Gamma(2.5, 2.5), Weibull(1.4, 1.0)]
            cat = build_catalog(ZipfLaw(0.8), 200, 200.0,
                                [(0.5, members[0]), (0.5, members[1])])
            psi = MaxEnvelope(members)
            check_assumptions(cat, 60.0, psi, kappa1=1.5, kappa2=0.0, gamma=0.2)
            tn_bracket(cat, 60.0, psi)
            print(sorted({"scipy.integrate", "scipy.optimize"} & set(sys.modules)))
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(ttlapprox.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"

    def test_package_exports_the_union_of_the_layers(self):
        from ttlapprox import (approx, assumptions, asymptotics, cli, densities, distributions,
                               errors, experiments, popularity, simulator)
        layers = (approx, assumptions, asymptotics, cli, densities, distributions, errors,
                  experiments, popularity, simulator)
        union = {(name, m) for m in layers for name in m.__all__} - {("main", cli)}
        assert len(ttlapprox.__all__) == len(union)
        assert set(ttlapprox.__all__) == {name for name, _ in union}
        for name, m in union:
            assert getattr(ttlapprox, name) is getattr(m, name)


class TestEmit:
    def test_empty_table_header_only(self, tmp_path):
        path = emit([], tmp_path / "t.csv", "csv")
        lines = open(path).read().splitlines()
        assert lines == [",".join(EMIT_COLUMNS)]

    def test_csv_roundtrip_15_digits(self, tmp_path):
        rows = convergence_sweep(tiny_spec(n_values=(40,), events_per_point=20_000),
                                 workers=1)
        path = emit(rows, tmp_path / "t.csv", "csv")
        with open(path) as fh:
            rec = list(csv.DictReader(fh))[0]
        for col in ("T_n", "gap_max", "gap_aggregate", "fagin_limit", "curve_sqrt"):
            parsed = float(rec[col])
            original = getattr(rows[0], col)
            assert parsed == pytest.approx(original, rel=1e-15)
        assert int(rec["n"]) == 40

    def test_json_matches_csv(self, tmp_path):
        rows = convergence_sweep(tiny_spec(n_values=(40,), events_per_point=20_000),
                                 workers=1)
        cpath = emit(rows, tmp_path / "t.csv", "csv")
        jpath = emit(rows, tmp_path / "t.json", "json")
        jrec = json.load(open(jpath))[0]
        with open(cpath) as fh:
            crec = list(csv.DictReader(fh))[0]
        for col in EMIT_COLUMNS:
            if col in ("n", "C_n", "status"):
                continue
            jval = jrec[col]
            cval = crec[col]
            if jval is None:
                assert cval == ""
            else:
                assert float(cval) == jval

    def test_failed_rows_serialize(self, tmp_path):
        rows = convergence_sweep(tiny_spec(cutoff_requests=1e9), workers=1)
        jpath = emit(rows, tmp_path / "t.json", "json")
        data = json.load(open(jpath))
        assert all(rec["status"].startswith("failed:") for rec in data)
        assert all(rec["gap_max"] is None for rec in data)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            emit([], tmp_path / "t.xml", "xml")
