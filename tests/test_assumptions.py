import math

import numpy as np
import pytest

from ttlapprox.assumptions import MaxEnvelope, check_assumptions
from ttlapprox.distributions import Exponential, Gamma, ParetoLomax, Weibull
from ttlapprox.errors import ConfigError
from ttlapprox.popularity import ZipfLaw, build_catalog

from oracles import envelope_mp


def report(members, psi=None, C=30.0, n=100, **params):
    """check_assumptions on an n-content Zipf(0.8) catalog with one class
    per member; psi defaults to Exponential(1.0)."""
    cat = build_catalog(ZipfLaw(0.8), n, float(n), [(1 / len(members), m) for m in members])
    params = {"kappa1": 1.2, "kappa2": 0.0, "gamma": 0.1, **params}
    return check_assumptions(cat, C, Exponential(1.0) if psi is None else psi, **params)


ENVELOPES = {
    "gamma2.5-weibull1.4": [Gamma(2.5, 2.5), Weibull(1.4, 1.0)],
    "gamma0.7-gamma2.5": [Gamma(0.7, 0.7), Gamma(2.5, 2.5)],
    "exp-gamma2.5-lomax2.5": [Exponential(1.0), Gamma(2.5, 2.5), ParetoLomax(2.5, 1.5)],
    "lomax1.05": [ParetoLomax(1.05, 1.0)],
    "lomax1.2": [ParetoLomax(1.2, 1.0)],
    "lomax1.5": [ParetoLomax(1.5, 1.0)],
}


class TestEnvelope:
    @pytest.mark.parametrize("members", ENVELOPES.values(), ids=ENVELOPES.keys())
    def test_against_mpmath_oracle(self, members):
        # mean, age cdf and age quantile to 1e-10 (quad's mean of the
        # first pair was 6.6e-7 off)
        psi = MaxEnvelope(members)
        ts = [0.3, 1.0, 2.5]
        us = [0.1, 0.5, 0.9]
        qs = [psi.age_quantile(u) for u in us]
        mean, ages = envelope_mp(psi.members, ts + qs)
        assert abs(psi.mean - mean) <= 1e-10
        assert np.max(np.abs(psi.age_cdf(np.array(ts)) - ages[:3])) <= 1e-10
        assert np.max(np.abs(np.array(us) - ages[3:])) <= 1e-10

    def test_all_exponential_degenerate(self):
        rep = report([Exponential(r) for r in (0.2, 1.0, 7.0)], Exponential(1.0))
        assert rep.envelope_holds
        assert rep.min_margin == 0.0
        assert rep.m_psi == 1.0

    def test_pointwise_max_of_two_gammas(self):
        members = [Gamma(1.0, 4.0), Gamma(2.0, 3.0)]
        rep = report(members, MaxEnvelope(members))
        assert rep.envelope_holds
        assert rep.m_psi < 1.0

    def test_exponential_fails_under_gamma2_envelope(self):
        rep = report([Exponential(1.0)], Gamma(2.0, 2.0))
        assert not rep.envelope_holds
        # explicit margin at t = 0.01: exp ccdf below the Erlang-2 ccdf
        t = 0.01
        assert math.exp(-t) - math.exp(-2 * t) * (1 + 2 * t) < 0
        assert rep.min_margin < -1e-4

    def test_mean_above_one_rejected(self):
        with pytest.raises(ConfigError, match="invalid envelope"):
            report([Exponential(1.0)], Exponential(0.5))


class TestSmoothness:
    def test_exponential_relative_lipschitz_bound(self):
        rep = report([Exponential(1.0)], rho=1.0)
        assert rep.B <= 1.0 + 1e-9

    def test_exponential_sup_t_density(self):
        rep = report([Exponential(1.0)], rho=1.0)
        assert rep.b0 == pytest.approx(math.exp(-1.0), rel=1e-6)

    def test_gamma_family_b0(self):
        shapes = (0.5, 1.0, 1.5, 2.0)
        rep = report([Gamma(a, a) for a in shapes], rho=0.5)
        analytic = max(a ** a * math.exp(-a) / math.gamma(a) for a in shapes)
        assert rep.b0 == pytest.approx(analytic, rel=1e-6)
        # density unbounded at zero for shape < 1
        assert rep.uniform_lipschitz_M is None

    def test_subnormal_rho(self):
        # rho / 40 underflows to a zero step, which is skipped
        assert report([Exponential(1.0)], rho=5e-324).B == 0.0

    def test_bound_holds_on_samples(self):
        rep = report([Gamma(1.5, 1.5), Exponential(1.0)], rho=0.5)
        rng = np.random.default_rng(2)
        for d in (Gamma(1.5, 1.5), Exponential(1.0)):
            t = rng.exponential(1.0, 50)
            for x in rng.uniform(0.0, 0.5, 20):
                gap = np.abs(d.cdf(t) - d.cdf(t * (1 + x)))
                assert np.all(gap <= rep.B * x + 1e-9)


def catalog_report(cat, C, **params):
    """check_assumptions on cat with the envelope Exponential(1.0)."""
    return check_assumptions(cat, C, Exponential(1.0), **params)


class TestP1:
    def test_zipf_08_holds(self):
        n = 10**4
        cat = build_catalog(ZipfLaw(0.8), n, 1.0, Exponential(1.0))
        rep = catalog_report(cat, 0.3 * n, kappa1=1.2, kappa2=0.0, gamma=0.1)
        assert rep.p1_holds
        # limit of the tail ratio is 1 - (kappa1*beta1)^(1-alpha) = 0.185...
        assert rep.p1_lhs / rep.p1_rhs * 0.1 > 0.1

    def test_uniform_popularity_holds(self):
        n, beta1 = 1000, 0.5
        kappa1 = 1.5
        gamma = 0.5 * (1.0 - kappa1 * beta1)
        cat = build_catalog(ZipfLaw(0.0), n, 1.0, Exponential(1.0))
        rep = catalog_report(cat, beta1 * n, kappa1=kappa1, kappa2=0.0, gamma=gamma)
        assert rep.p1_holds
        assert rep.p1_lhs == pytest.approx(1.0 - math.ceil(kappa1 * beta1 * n) / n, abs=1e-12)

    def test_very_skewed_zipf_fails(self):
        cat = build_catalog(ZipfLaw(2.0), 10**4, 1.0, Exponential(1.0))
        rep = catalog_report(cat, 100.0, kappa1=1.2, kappa2=0.0, gamma=0.9)
        assert not rep.p1_holds

    @pytest.mark.parametrize("kappa1", [1.5, 1e308])
    def test_kappa1_past_the_catalog_fails(self, kappa1):
        # the tail past the catalog is empty, so the inequality cannot hold
        cat = build_catalog(ZipfLaw(0.0), 100, 1.0, Exponential(1.0))
        rep = catalog_report(cat, 90.0, kappa1=kappa1, kappa2=0.0, gamma=0.5)
        assert not rep.p1_holds
        assert rep.p1_lhs == 0.0
        assert rep.p1_rhs == 0.5 * cat.tail(0)

    def test_kappa2_past_the_catalog_fails(self):
        # floor(kappa2*C) = 3000 > n reads an empty tail, as kappa1*C does
        cat = build_catalog(ZipfLaw(0.8), 1000, 1000.0, Exponential(1.0))
        rep = catalog_report(cat, 3000.0, kappa1=1.2, kappa2=1.0, gamma=0.1)
        assert (rep.p1_lhs, rep.p1_rhs, rep.p1_holds) == (0.0, 0.0, False)

    @pytest.mark.parametrize("kappa1", [-1e308, -1.0])
    def test_negative_kappa1(self, kappa1):
        cat = build_catalog(ZipfLaw(0.0), 100, 1.0, Exponential(1.0))
        with pytest.raises(ConfigError, match="kappa1"):
            catalog_report(cat, 90.0, kappa1=kappa1, kappa2=0.0, gamma=0.5)


class _Untouchable:
    """An envelope of mean 1 whose ccdf must not be evaluated."""

    mean = 1.0

    def ccdf(self, t):
        raise AssertionError("a grid was evaluated before the parameters were checked")


class TestCheckAssumptions:
    def test_poisson_zipf_all_pass(self):
        cat = build_catalog(ZipfLaw(0.8), 1000, 1000.0, Exponential(1.0))
        rep = check_assumptions(cat, 300.0, Exponential(1.0),
                                kappa1=1.2, kappa2=0.0, gamma=0.1, beta1=0.3)
        assert rep.envelope_holds and rep.p1_holds and rep.c1_holds
        assert rep.all_hold
        assert rep.m_psi == 1.0

    def test_cache_nearly_n_fails_c1(self):
        members = [Exponential(1.0), Gamma(2.0, 2.0)]
        cat = build_catalog(ZipfLaw(0.5), 100, 100.0,
                            [(0.5, members[0]), (0.5, members[1])])
        psi = MaxEnvelope(members)
        rep = check_assumptions(cat, 99.0, psi, kappa1=1.01 / psi.mean, kappa2=0.0,
                                gamma=0.001, beta1=0.99)
        assert rep.m_psi < 0.99
        assert not rep.c1_holds
        assert not rep.all_hold

    @pytest.mark.parametrize("params", [dict(kappa1=1.2, kappa2=1.5, gamma=0.1),
                                        dict(kappa1=1e308, kappa2=0.0, gamma=2.0)])
    def test_out_of_range_kappa2_or_gamma_is_config_error(self, params):
        # only kappa1*C past the catalog is reported as a failed P1
        cat = build_catalog(ZipfLaw(0.8), 200, 200.0, Exponential(1.0))
        with pytest.raises(ConfigError, match="kappa2|gamma"):
            check_assumptions(cat, 20.0, Exponential(1.0), **params)

    def test_mixed_gamma_max_envelope(self):
        members = [Gamma(1.0, 1.0), Gamma(2.0, 2.0)]
        cat = build_catalog(ZipfLaw(0.7), 200, 200.0,
                            [(0.5, members[0]), (0.5, members[1])])
        psi = MaxEnvelope(members)
        rep = check_assumptions(cat, 60.0, psi, kappa1=1.5, kappa2=0.0, gamma=0.2)
        assert rep.envelope_holds
        assert rep.m_psi < 1.0

    @pytest.mark.parametrize("C", [0.0, -5.0, math.nan, math.inf])
    def test_cache_size_not_positive_is_config_error(self, C):
        # C = 0 once passed every check, and C = -5 was blamed on kappa1
        with pytest.raises(ConfigError, match="cache size C must be positive"):
            report([Exponential(1.0)], C=C)

    @pytest.mark.parametrize("edit, named", [
        (dict(C=0.0), "cache size C"), (dict(kappa1=-1.0), "kappa1"),
        (dict(kappa2=1.5), "kappa2"), (dict(gamma=1.0), "gamma"), (dict(rho=0.0), "rho")])
    def test_every_range_is_checked_before_any_grid(self, edit, named):
        with pytest.raises(ConfigError, match=named):
            report([Exponential(1.0)], _Untouchable(), **edit)
