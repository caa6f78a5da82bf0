import math
import warnings

import numpy as np
import pytest

from ttlapprox.approx import characteristic_time
from ttlapprox.asymptotics import (_QUAD_ATOL, AsymptoticModel, ModelClass, _class_integral,
                                   beta_fn, fagin_catalog, hit_limit, hit_limit_by_class,
                                   rate_curve, solve_nu0, tn_asymptotic)
from ttlapprox.densities import ConstantDensity, PowerLawDensity, TabulatedDensity
from ttlapprox.distributions import Exponential, Gamma, Weibull
from ttlapprox.errors import ConfigError, NumericsError, QuadratureError
from ttlapprox.popularity import ZipfLaw, build_catalog

from oracles import (midpoint_density_integral, midpoint_power_hit_integral,
                     midpoint_power_integral, power_law_limits_mp)

UNIFORM_POISSON = AsymptoticModel(
    (ModelClass(1.0, ConstantDensity(1.0), Exponential(1.0)),), 0.5)
ZIPF_LIMIT = AsymptoticModel(
    (ModelClass(1.0, PowerLawDensity(0.2, 0.8), Exponential(1.0)),), 0.3)


class TestBetaFunction:
    def test_zero(self):
        assert beta_fn(ZIPF_LIMIT, 0.0) == 0.0

    def test_uniform_poisson_closed_form(self):
        assert beta_fn(UNIFORM_POISSON, math.log(2)) == pytest.approx(0.5, abs=1e-12)

    def test_power_law_against_midpoint_oracle(self):
        psi = Exponential(1.0)
        oracle = midpoint_power_integral(0.2, 0.8, lambda v: psi.age_cdf(v), points=10**6)
        assert beta_fn(ZIPF_LIMIT, 1.0) == pytest.approx(oracle, abs=1e-7)

    def test_monotone_grid(self):
        nus = np.geomspace(1e-3, 1e3, 40)
        vals = [beta_fn(ZIPF_LIMIT, v) for v in nus]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)
        # strictly increasing wherever below 1
        assert all(b > a for a, b in zip(vals, vals[1:]) if b < 1.0 - 1e-9)


class TestSolveNu0:
    def test_uniform_poisson(self):
        res = solve_nu0(UNIFORM_POISSON)
        assert res.nu0 == pytest.approx(math.log(2), abs=1e-8)
        assert res.residual <= 1e-9

    def test_two_identical_classes_collapse(self):
        doubled = AsymptoticModel(
            (ModelClass(0.5, PowerLawDensity(0.2, 0.8), Exponential(1.0)),
             ModelClass(0.5, PowerLawDensity(0.2, 0.8), Exponential(1.0))), 0.3)
        assert solve_nu0(doubled).nu0 == solve_nu0(ZIPF_LIMIT).nu0

    def test_power_law_against_independent_oracle(self):
        # brute-force: midpoint quadrature + plain interval halving
        psi = Exponential(1.0)

        def beta_brute(nu):
            return midpoint_power_integral(0.2, 0.8, lambda v: psi.age_cdf(nu * v),
                                           points=200_000)

        lo, hi = 0.0, 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if beta_brute(mid) < 0.3:
                lo = mid
            else:
                hi = mid
        assert solve_nu0(ZIPF_LIMIT).nu0 == pytest.approx(0.5 * (lo + hi), abs=1e-6)

    def test_roundtrip(self):
        res = solve_nu0(ZIPF_LIMIT)
        assert beta_fn(ZIPF_LIMIT, res.nu0) == pytest.approx(0.3, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            AsymptoticModel((ModelClass(1.0, ConstantDensity(1.0), Exponential(1.0)),), 1.0)
        with pytest.raises(ConfigError):
            AsymptoticModel((ModelClass(1.0, ConstantDensity(1.0), Exponential(1.0)),), 0.0)


class TestHitLimit:
    def test_uniform_poisson(self):
        assert hit_limit(UNIFORM_POISSON) == pytest.approx(0.5, abs=1e-8)

    def test_dominates_beta0_for_poisson_power_laws(self):
        # popular contents hit more often than average
        for alpha in (0.2, 0.5, 0.8):
            for beta0 in (0.2, 0.5, 0.8):
                model = AsymptoticModel(
                    (ModelClass(1.0, PowerLawDensity(1 - alpha, alpha), Exponential(1.0)),),
                    beta0)
                assert hit_limit(model) >= beta0 - 1e-9

    def test_zipf_limit_against_brute_force(self):
        res = solve_nu0(ZIPF_LIMIT)
        oracle = midpoint_power_hit_integral(0.2, 0.8, Exponential(1.0).cdf, res.nu0,
                                             points=10**6)
        assert hit_limit(ZIPF_LIMIT, res.nu0) == pytest.approx(oracle, abs=1e-6)

    def test_degenerate_uniform_closed_form(self):
        # f constant: hit limit is psi evaluated at the age-quantile of beta0
        psi = Gamma(2.0, 2.0)
        model = AsymptoticModel((ModelClass(1.0, ConstantDensity(1.0), psi),), 0.37)
        nu0 = psi.age_quantile(0.37)
        assert solve_nu0(model).nu0 == pytest.approx(nu0, abs=1e-8)
        assert hit_limit(model) == pytest.approx(psi.cdf(nu0), abs=1e-8)

    def test_identical_classes_bitwise_equal(self):
        doubled = AsymptoticModel(
            (ModelClass(0.5, PowerLawDensity(0.2, 0.8), Exponential(1.0)),
             ModelClass(0.5, PowerLawDensity(0.2, 0.8), Exponential(1.0))), 0.3)
        nu0 = solve_nu0(ZIPF_LIMIT).nu0
        assert hit_limit(doubled, nu0) == hit_limit(ZIPF_LIMIT, nu0)
        contr = hit_limit_by_class(doubled, nu0)
        assert contr[0] == contr[1]


GAMMA_PSI = Gamma(0.5, 0.5)  # unit mean


def _beta_pair(nu):
    """The solve's two-component integrand: age cdf and f * ccdf at nu * f."""
    return lambda fv: np.stack((GAMMA_PSI.age_cdf(nu * fv), fv * GAMMA_PSI.ccdf(nu * fv)))


class TestExponentNearOne:
    """Power-law exponents near 1, where f = c x^(-alpha) overflows near
    x = 0 in the limit integrals, against the 40-digit mpmath oracle."""

    LAWS = [Exponential(1.0), Weibull(0.7, 1.0).standardize(), Gamma(0.5, 1.0).standardize()]

    @staticmethod
    def model(alpha, psi):
        return AsymptoticModel((ModelClass(1.0, PowerLawDensity(1.0 - alpha, alpha), psi),), 0.2)

    @pytest.mark.parametrize("psi", LAWS, ids=lambda psi: type(psi).__name__)
    @pytest.mark.parametrize("alpha", [0.99, 0.995, 0.999])
    def test_limits_against_mpmath_oracle(self, alpha, psi):
        model = self.model(alpha, psi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nu0 = solve_nu0(model).nu0
            beta, hit = beta_fn(model, nu0), hit_limit(model, nu0)
        beta_mp, hit_mp = power_law_limits_mp(psi, alpha, nu0)
        assert abs(beta_mp - model.beta0) <= 10 * _QUAD_ATOL  # the solve's residual target
        assert beta == pytest.approx(beta_mp, abs=_QUAD_ATOL / 10)
        assert hit == pytest.approx(hit_mp, abs=_QUAD_ATOL / 10)

    @pytest.mark.parametrize("psi", LAWS, ids=lambda psi: type(psi).__name__)
    def test_beyond_the_rule_fails_loudly(self, psi):
        # at 0.9999 the adaptive rule can miss the boundary layer at u = 1:
        # an error, or else the oracle's values
        model = self.model(0.9999, psi)
        try:
            nu0 = solve_nu0(model).nu0
            hit = hit_limit(model, nu0)
        except (NumericsError, QuadratureError):
            return
        beta_mp, hit_mp = power_law_limits_mp(psi, 0.9999, nu0)
        assert abs(beta_mp - model.beta0) <= 10 * _QUAD_ATOL
        assert hit == pytest.approx(hit_mp, abs=_QUAD_ATOL / 10)


class TestVectorizedQuadrature:
    """The adaptive Gauss rule against independent midpoint sums."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.8, 0.95])
    @pytest.mark.parametrize("nu", [0.05, 20.0])
    def test_power_law_against_midpoint_oracle(self, alpha, nu):
        # the midpoint error at 1e6 points is at most 3.2e-12 on this grid
        # (it falls 4x when the points double); the rule's tolerance is 1e-11
        cls = ModelClass(1.0, PowerLawDensity(1.0 - alpha, alpha), GAMMA_PSI)
        got = _class_integral(cls, _beta_pair(nu))
        ref = [midpoint_power_integral(1.0 - alpha, alpha, lambda v: GAMMA_PSI.age_cdf(nu * v),
                                       points=10**6),
               midpoint_power_integral(1.0 - alpha, alpha,
                                       lambda v: v * GAMMA_PSI.ccdf(nu * v), points=10**6)]
        assert got.shape == (2,)
        assert got == pytest.approx(ref, abs=_QUAD_ATOL / 10)

    @pytest.mark.parametrize("density", [
        ConstantDensity(1.0),
        TabulatedDensity(tuple(1.0 + 0.5 * np.sin(np.linspace(0.0, 3.0, 64))))], ids=repr)
    def test_tables_against_midpoint_oracle(self, density):
        # 1000 midpoints per table cell: the oracle sums the same values
        cls = ModelClass(1.0, density, GAMMA_PSI)
        got = _class_integral(cls, _beta_pair(0.7))
        ref = [midpoint_density_integral(density, lambda v: GAMMA_PSI.age_cdf(0.7 * v), 64_000),
               midpoint_density_integral(density, lambda v: v * GAMMA_PSI.ccdf(0.7 * v), 64_000)]
        assert got == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.2, 0.8])
    def test_two_components_equal_the_single_integrals(self, alpha):
        # the pair refines where either component needs it, so the sums
        # differ only within the rule's tolerance (1.3e-12 at alpha = 0.2)
        cls = ModelClass(1.0, PowerLawDensity(1.0 - alpha, alpha), GAMMA_PSI)
        pair = _class_integral(cls, _beta_pair(1.3))
        single = [_class_integral(cls, lambda fv: GAMMA_PSI.age_cdf(1.3 * fv)),
                  _class_integral(cls, lambda fv: fv * GAMMA_PSI.ccdf(1.3 * fv))]
        assert single[0].shape == single[1].shape == ()
        assert pair == pytest.approx(single, abs=_QUAD_ATOL / 10)

    @pytest.mark.parametrize("density", [PowerLawDensity(0.2, 0.8), ConstantDensity(1.0),
                                         TabulatedDensity((0.5, 1.5))], ids=repr)
    def test_nan_integrand_raises(self, density):
        cls = ModelClass(1.0, density, GAMMA_PSI)
        with pytest.raises(QuadratureError, match="not finite"):
            _class_integral(cls, lambda fv: np.where(fv > 0.9, np.nan, fv))


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            AsymptoticModel((ModelClass(0.6, ConstantDensity(1.0), Exponential(1.0)),
                             ModelClass(0.6, ConstantDensity(1.0), Exponential(1.0))), 0.5)

    def test_normalization_enforced(self):
        with pytest.raises(ConfigError, match="not normalized"):
            AsymptoticModel((ModelClass(1.0, ConstantDensity(2.0), Exponential(1.0)),), 0.5)

    def test_psi_must_be_standardized(self):
        with pytest.raises(ConfigError, match="unit mean"):
            ModelClass(1.0, ConstantDensity(1.0), Exponential(2.0))

    def test_unsupported_singularity(self):
        with pytest.raises(ConfigError, match="unsupported singularity"):
            PowerLawDensity(1.0, 1.2)

    def test_tabulated_density(self):
        vals = 1.0 + 0.5 * np.sin(np.linspace(0, 3, 64))
        vals = vals / vals.mean()
        model = AsymptoticModel(
            (ModelClass(1.0, TabulatedDensity(tuple(vals)), Exponential(1.0)),), 0.4)
        res = solve_nu0(model)
        assert res.residual <= 1e-9
        assert 0.0 < hit_limit(model, res.nu0) < 1.0


class TestTnAsymptotic:
    def test_uniform_poisson_exact_at_all_n(self):
        # identical exponential contents: the finite-n characteristic time
        # equals the asymptotic prediction at every n
        nu0 = solve_nu0(UNIFORM_POISSON).nu0
        for n in (40, 400, 4000):
            cat = build_catalog(ZipfLaw(0.0), n, float(n), Exponential(1.0))
            pred = tn_asymptotic(UNIFORM_POISSON, 1.0 / n, cat.total_rate, nu0)
            t = characteristic_time(cat, 0.5 * n).t
            assert t == pytest.approx(pred, rel=1e-7)

    def test_zipf_rates_ratio_approaches_one(self):
        # rates i^(-0.8), C = 0.3 n: prediction with the exact scale factor
        # g_n = p_1 / f(1/n); the ratio tightens as n grows
        from ttlapprox.popularity import ContentCatalog
        nu0 = solve_nu0(ZIPF_LIMIT).nu0
        ratios = []
        for n in (100, 1000, 10000):
            lam = np.arange(1, n + 1, dtype=float) ** -0.8
            cat = ContentCatalog(rates=lam, classes=(Exponential(1.0),),
                                 class_of=np.zeros(n, dtype=np.int64))
            g_exact = cat.popularity[0] / (0.2 * (1.0 / n) ** -0.8)
            pred = tn_asymptotic(ZIPF_LIMIT, g_exact, cat.total_rate, nu0)
            ratios.append(characteristic_time(cat, 0.3 * n).t / pred)
        assert abs(ratios[-1] - 1.0) < 0.03
        assert abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0)


    @pytest.mark.parametrize("g_n, Lambda_n", [(1e-6, 5e-324), (1e-3, 1e-310)])
    def test_non_finite_prediction_raises(self, g_n, Lambda_n):
        # the product underflows to 0, or the ratio overflows to inf
        with pytest.raises(NumericsError, match="not a finite number"):
            tn_asymptotic(UNIFORM_POISSON, g_n, Lambda_n, 0.71)


class TestRateCurve:
    def test_values_at_e(self):
        assert rate_curve("sqrt", math.e) == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert rate_curve("quartic", math.e) == pytest.approx(math.exp(-0.25), rel=1e-12)

    def test_decreasing(self):
        Cs = np.arange(3, 200, dtype=float)
        for kind in ("sqrt", "quartic"):
            vals = rate_curve(kind, Cs)
            assert np.all(np.diff(vals) < 0)

    def test_domain(self):
        with pytest.raises(ConfigError):
            rate_curve("sqrt", 1.0)
        with pytest.raises(ConfigError):
            rate_curve("cubic", 10.0)


class TestFaginCatalog:
    def test_single_class_matches_density_law(self):
        cat = fagin_catalog(ZIPF_LIMIT, 1000, 1000.0)
        assert cat.n == 1000
        assert math.fsum(cat.popularity) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(cat.popularity) <= 0)

    def test_two_class_sizes(self):
        model = AsymptoticModel(
            (ModelClass(0.5, PowerLawDensity(0.6, 0.6), Exponential(1.0)),
             ModelClass(0.5, ConstantDensity(0.5), Gamma(2.0, 2.0))), 0.3)
        cat = fagin_catalog(model, 10, 10.0)
        assert (cat.class_of == 0).sum() == 5
        assert (cat.class_of == 1).sum() == 5
        assert math.fsum(cat.popularity) == pytest.approx(1.0, abs=1e-12)
