import math

import numpy as np
import pytest
from scipy.special import zeta

from ttlapprox.densities import ConstantDensity, PowerLawDensity, TabulatedDensity
from ttlapprox.distributions import Exponential, Gamma, MaxEnvelope, Weibull
from ttlapprox.errors import ConfigError
from ttlapprox.popularity import (ContentCatalog, DensityLaw, ZipfLaw, build_catalog,
                                  check_P1)


class TestZipf:
    def test_n3_alpha1(self):
        p = ZipfLaw(1.0).weights(3)
        assert np.allclose(p, [6 / 11, 3 / 11, 2 / 11], atol=1e-15)

    def test_uniform(self):
        assert np.allclose(ZipfLaw(0.0).weights(5), 0.2, atol=1e-15)

    def test_large_catalog_identities(self):
        p = ZipfLaw(0.8).weights(10**4)
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)
        assert p[0] / p[1] == pytest.approx(2.0 ** 0.8, abs=1e-12)
        assert np.all(np.diff(p) <= 0)


class TestExactSums:
    def test_list_fsum_equals_numpy_scalar_fsum(self):
        # math.fsum over the array's buffer gives the same exactly rounded
        # sum as over its numpy scalars, only faster
        rng = np.random.default_rng(11)
        n = int(rng.integers(1000, 5000))
        rates = rng.lognormal(0.0, 3.0, n)
        cat = ContentCatalog(rates=rates, classes=(Exponential(1.0),),
                             class_of=np.zeros(n, dtype=np.int64))
        assert cat.total_rate == math.fsum(rates)
        assert np.array_equal(cat.popularity, rates / math.fsum(rates))
        alpha = float(rng.uniform(0.0, 2.0))
        w = np.arange(1, n + 1, dtype=float) ** (-alpha)
        assert np.array_equal(ZipfLaw(alpha).weights(n), w / math.fsum(w))


    def test_strided_rates(self):
        # a non-contiguous rates array sums through its buffer like a copy
        rates = np.random.default_rng(12).lognormal(0.0, 3.0, 2001)[::2]
        assert not rates.flags.c_contiguous
        cat = ContentCatalog(rates=rates, classes=(Exponential(1.0),),
                             class_of=np.zeros(rates.size, dtype=np.int64))
        assert cat.total_rate == math.fsum(rates.tolist())
        assert np.array_equal(cat.popularity, rates / math.fsum(rates.tolist()))


class TestDensityWeights:
    @pytest.mark.parametrize("density", [PowerLawDensity(0.2, 0.8), PowerLawDensity(3e-5, 0.5),
                                         ConstantDensity(7.0), TabulatedDensity((3.0, 1e-3, 2.5))],
                             ids=repr)
    def test_scaling_leaves_the_weights_unchanged(self, density):
        # the weights are scaled by a power of two before the sum, exactly
        n = 1000
        w = np.asarray(density((np.arange(1, n + 1) - 0.5) / n), dtype=float)
        assert np.array_equal(DensityLaw(density).weights(n), w / math.fsum(w.tolist()))

    @pytest.mark.parametrize("density", [ConstantDensity(1e308),
                                         TabulatedDensity((1e308, 1.7e308))], ids=repr)
    def test_weights_near_the_float_limit(self, density):
        w = DensityLaw(density).weights(10)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)
        assert np.all(w > 0)

    def test_weight_past_the_float_range_is_config_error(self):
        with pytest.raises(ConfigError, match="past the float range"):
            DensityLaw(PowerLawDensity(1e308, 0.5)).weights(10)


class TestTail:
    def test_small_zipf(self):
        cat = build_catalog(ZipfLaw(1.0), 3, 1.0, Exponential(1.0))
        assert cat.tail(1) == pytest.approx(5 / 11, abs=1e-14)
        assert cat.tail(3) == 0.0
        assert cat.tail(0) == pytest.approx(1.0, abs=1e-12)

    def test_heavy_tail_asymptotics(self):
        # alpha > 1: tail(i) approaches i^(1-alpha) / ((alpha-1) zeta(alpha)) as
        # the catalog grows; at n = 1e4 the truncated mass beyond rank n still
        # contributes ~9%, so the 5% agreement needs n >= 1e5
        approx_tail = 100.0 ** (-0.5) / (0.5 * float(zeta(1.5)))
        errs = []
        for n in (10**4, 10**5, 10**6):
            cat = build_catalog(ZipfLaw(1.5), n, 1.0, Exponential(1.0))
            errs.append(abs(cat.tail(100) - approx_tail) / approx_tail)
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] < 0.05

    def test_monotone_and_bounds(self):
        cat = build_catalog(ZipfLaw(0.7), 500, 3.0, Exponential(1.0))
        tails = np.array([cat.tail(i) for i in range(501)])
        assert np.all(np.diff(tails) <= 1e-15)
        assert tails[0] == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range(self):
        cat = build_catalog(ZipfLaw(0.0), 10, 1.0, Exponential(1.0))
        with pytest.raises(ConfigError):
            cat.tail(11)
        with pytest.raises(ConfigError):
            cat.tail(-1)

    def test_uniform_fraction_tail(self):
        # uniform popularity: tail(i) = 1 - i/n up to rounding
        cat = build_catalog(ZipfLaw(0.0), 400, 1.0, Exponential(1.0))
        for i in (0, 37, 200, 399):
            assert cat.tail(i) == pytest.approx(1.0 - i / 400, abs=1e-12)

    @pytest.mark.parametrize("alpha,tol_at_1e4", [(0.5, 0.02), (0.8, 0.20)])
    def test_zipf_sublinear_tail_limit(self, alpha, tol_at_1e4):
        # alpha < 1: tail(floor(x n)) approaches 1 - x^(1-alpha) monotonically;
        # the approach is O(n^(alpha-1)), so the 2% window at n = 1e4 is
        # reached for alpha = 0.5 while alpha = 0.8 is still ~16% away
        x = 0.3
        limit = 1.0 - x ** (1 - alpha)
        vals = []
        for n in (10**2, 10**3, 10**4):
            cat = build_catalog(ZipfLaw(alpha), n, 1.0, Exponential(1.0))
            vals.append(cat.tail(int(x * n)))
        errs = [abs(v - limit) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < tol_at_1e4 * limit


class TestSortedOrder:
    def test_descending_and_deterministic_ties(self):
        rng = np.random.default_rng(0)
        rates = rng.integers(1, 5, 50).astype(float)
        cat = ContentCatalog(rates=rates, classes=(Exponential(1.0),),
                             class_of=np.zeros(50, dtype=np.int64))
        sorted_pop = cat.popularity[cat.sorted_order]
        assert np.all(np.diff(sorted_pop) <= 0)
        # ties broken by content index: stable argsort
        for k in range(49):
            if sorted_pop[k] == sorted_pop[k + 1]:
                assert cat.sorted_order[k] < cat.sorted_order[k + 1]
        assert sorted(cat.sorted_order.tolist()) == list(range(50))


class TestGroups:
    def test_partition_in_content_order(self):
        # interleaved classes: each group lists its contents in increasing
        # index order, and the groups together cover every content once
        rng = np.random.default_rng(4)
        class_of = rng.integers(0, 3, 200)
        classes = (Exponential(1.0), Gamma(2.0, 2.0), Weibull(1.0, 1.0))
        cat = ContentCatalog(rates=np.ones(200), classes=classes, class_of=class_of)
        assert [d for d, _ in cat.groups] == list(classes)
        for c, (_, idx) in enumerate(cat.groups):
            assert np.array_equal(idx, np.flatnonzero(class_of == c))
        assert np.array_equal(np.sort(np.concatenate([i for _, i in cat.groups])),
                              np.arange(200))


class TestCheckP1:
    def test_zipf_08_holds(self):
        n = 10**4
        cat = build_catalog(ZipfLaw(0.8), n, 1.0, Exponential(1.0))
        rep = check_P1(cat, 0.3 * n, kappa1=1.2, kappa2=0.0, gamma=0.1)
        assert rep.holds
        # limit of the tail ratio is 1 - (kappa1*beta1)^(1-alpha) = 0.185...
        assert rep.lhs / rep.rhs * 0.1 > 0.1

    def test_uniform_popularity_holds(self):
        n, beta1 = 1000, 0.5
        kappa1 = 1.5
        gamma = 0.5 * (1.0 - kappa1 * beta1)
        cat = build_catalog(ZipfLaw(0.0), n, 1.0, Exponential(1.0))
        rep = check_P1(cat, beta1 * n, kappa1=kappa1, kappa2=0.0, gamma=gamma)
        assert rep.holds
        assert rep.lhs == pytest.approx(1.0 - math.ceil(kappa1 * beta1 * n) / n, abs=1e-12)

    def test_very_skewed_zipf_fails(self):
        cat = build_catalog(ZipfLaw(2.0), 10**4, 1.0, Exponential(1.0))
        rep = check_P1(cat, 100.0, kappa1=1.2, kappa2=0.0, gamma=0.9)
        assert not rep.holds

    def test_kappa1_too_large(self):
        cat = build_catalog(ZipfLaw(0.0), 100, 1.0, Exponential(1.0))
        with pytest.raises(ConfigError, match="kappa1 too large"):
            check_P1(cat, 90.0, kappa1=1.5, kappa2=0.0, gamma=0.5)

    @pytest.mark.parametrize("kappa1", [1e308, -1e308, -1.0])
    def test_kappa1_past_the_float_range_or_negative(self, kappa1):
        cat = build_catalog(ZipfLaw(0.0), 100, 1.0, Exponential(1.0))
        with pytest.raises(ConfigError, match="kappa1"):
            check_P1(cat, 90.0, kappa1=kappa1, kappa2=0.0, gamma=0.5)


class TestBuildCatalog:
    def test_uniform_exponential(self):
        cat = build_catalog(ZipfLaw(0.0), 4, 4.0, Exponential(1.0))
        assert np.allclose(cat.rates, 1.0, atol=1e-14)
        # content i's gaps are draws of classes[class_of[i]] divided by rates[i]
        for i in range(4):
            d = cat.classes[cat.class_of[i]]
            assert isinstance(d, Exponential)
            assert d.mean / cat.rates[i] == pytest.approx(1.0, rel=1e-12)

    def test_zipf_rates(self):
        cat = build_catalog(ZipfLaw(1.0), 2, 3.0, Exponential(1.0))
        assert np.allclose(cat.rates, [2.0, 1.0], atol=1e-12)

    def test_sampled_means_match_rates(self):
        cat = build_catalog(ZipfLaw(0.9), 30, 7.0,
                            [(0.5, Gamma(2.0, 2.0)), (0.5, Weibull(1.5, 1.0))])
        for i, family in ((0, Gamma), (10, Gamma), (15, Weibull), (29, Weibull)):
            d = cat.classes[cat.class_of[i]]
            assert isinstance(d, family)
            assert d.mean / cat.rates[i] == pytest.approx(1.0 / cat.rates[i], rel=1e-9)

    def test_density_law_approaches_zipf(self):
        # density-form weights converge to Zipf beyond the first few ranks;
        # at O(1) ranks the midpoint grid differs by a fixed factor
        alpha = 0.8
        law = DensityLaw(PowerLawDensity(1.0 - alpha, alpha))
        gaps = []
        for n in (10**3, 10**4):
            dens = law.weights(n)
            zipf = ZipfLaw(alpha).weights(n)
            lo = int(math.isqrt(n))
            gaps.append(np.max(np.abs(dens[lo:] / zipf[lo:] - 1.0)))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 0.05

    def test_density_zero_weight_rejected(self):
        class Hole:
            def __call__(self, x):
                return np.where(np.asarray(x) < 0.5, 1.0, 0.0)

        with pytest.raises(ConfigError, match="zero or negative"):
            build_catalog(DensityLaw(Hole()), 10, 1.0, Exponential(1.0))

    def test_multi_class_fractions(self):
        cat = build_catalog(ZipfLaw(0.5), 10, 1.0,
                            [(0.3, Exponential(1.0)), (0.7, Gamma(2.0, 2.0))])
        assert (cat.class_of == 0).sum() == 3
        assert (cat.class_of == 1).sum() == 7
        with pytest.raises(ConfigError, match="sum to 1"):
            build_catalog(ZipfLaw(0.5), 10, 1.0,
                          [(0.3, Exponential(1.0)), (0.6, Gamma(2.0, 2.0))])

    def test_popularity_sums_to_one(self):
        cat = build_catalog(ZipfLaw(1.2), 10**5, 11.0, Exponential(1.0))
        assert math.fsum(cat.popularity) == pytest.approx(1.0, abs=1e-12)

    def test_envelope_is_not_a_class(self):
        psi = MaxEnvelope([Gamma(2.0, 2.0), Exponential(1.0)])
        for family in (psi, [(0.5, psi), (0.5, Exponential(1.0))]):
            with pytest.raises(ConfigError, match="MaxEnvelope"):
                build_catalog(ZipfLaw(0.8), 10, 10.0, family)
