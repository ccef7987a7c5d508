import math

import numpy as np
import pytest
from scipy import integrate, special

from fisherwatch.errors import ConfigError
from fisherwatch.rmt import (
    clt_constants,
    gaussian_quantile,
    lsd_cdf,
    lsd_density,
    mp_upper_edge,
    rejection_threshold,
    statistic_value,
    support_edges,
)

# Frozen values from a 40-digit mpmath evaluation of the closed forms.
EDGES_HALF = {
    "h": 0.8660254037844386,
    "a": 0.07179676972449083,
    "b": 13.928203230275509,
}
B_80_239 = 6.892694255792866  # y1 = y2 = 80/239
CLT_01 = {
    "Fg": 0.2729766803840878,
    "mu_g": 0.3901844231062338,
    "nu_g": 0.8453326793462387,
}
DENSITY_AT_ONE_HALF = 0.27566444771089602
Q_995 = 2.575829303548901
Q_975 = 1.959963984540054
# F at a + f (b - a), f in CDF_FRACTIONS, by 30-digit mpmath quadrature of
# the density (agreeing with a 40-digit run to 1e-25)
CDF_FRACTIONS = (1e-9, 0.3, 0.7, 1 - 1e-9)
CDF_30 = {
    (0.2, 0.1): (3.313339487533226e-13, 0.5511725610366901,
                 0.9085607841179966, 0.9999999999999853),
    (0.2, 0.5): (4.203963121939217e-12, 0.851110007085292,
                 0.9779384734954445, 0.9999999999999969),
    (0.2, 0.957): (1.1254534863795207e-08, 0.9923329525774167,
                   0.9989274626837911, 0.9999999999999999),
    (0.9, 0.1): (2.8419436301796247e-11, 0.6887208198350193,
                 0.9362429572601985, 0.9999999999999897),
    (0.9, 0.5): (1.7651972556699934e-10, 0.8636440908418564,
                 0.9791313310668208, 0.999999999999997),
    (0.9, 0.957): (2.972170726962392e-07, 0.9923361156826394,
                   0.998927711890384, 0.9999999999999999),
    (1.06, 0.1): (0.05660377366844129, 0.7098836677023893,
                  0.9401657887074435, 0.9999999999999902),
    (1.06, 0.5): (0.05660377405532338, 0.8670328860229919,
                  0.9794640210639869, 0.999999999999997),
    (1.06, 0.957): (0.05660448249916817, 0.9923373735397024,
                    0.9989278110132804, 0.9999999999999999),
    (1.5, 0.1): (0.333333333334712, 0.7558424307814053,
                 0.9485830918625239, 0.9999999999999916),
    (1.5, 0.5): (0.3333333333396384, 0.8761799213189515,
                 0.9803856207995079, 0.9999999999999971),
    (1.5, 0.957): (0.33333334048698915, 0.9923418000517369,
                   0.9989281599356699, 0.9999999999999999),
    (3.0, 0.1): (0.6666666666667872, 0.841654166072156,
                 0.9644544499870652, 0.999999999999994),
    (3.0, 0.5): (0.666666666667041, 0.9017682143351721,
                 0.9831746350888462, 0.9999999999999974),
    (3.0, 0.957): (0.6666666668617925, 0.9923665955822077,
                   0.998930117342659, 0.9999999999999999),
}
# a point where the former quadrature was 3.6e-7 off
CDF_REGRESSION = (1.06, 0.2, 4.639604437857843, 0.9594829110022115)


def integrate_density(params):
    """Continuous mass via the edge-regularizing sin^2 substitution."""
    a, b = params.a, params.b

    def integrand(t):
        x = a + (b - a) * math.sin(t) ** 2
        return lsd_density(x, params) * (b - a) * 2.0 * math.sin(t) * math.cos(t)

    val, _ = integrate.quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-10, limit=300)
    return val


def erf_quantile(q, lo=-10.0, hi=10.0):
    """Bisection on the error-function CDF, independent of scipy."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSupportEdges:
    def test_frozen_half_half(self):
        params = support_edges(0.5, 0.5)
        assert params.h == pytest.approx(EDGES_HALF["h"], abs=1e-15)
        assert params.a == pytest.approx(EDGES_HALF["a"], abs=1e-15)
        assert params.b == pytest.approx(EDGES_HALF["b"], abs=1e-12)
        assert params.mass_at_zero == 0.0

    def test_frozen_screening_ratio(self):
        y = 80 / 239
        assert support_edges(y, y).b == pytest.approx(B_80_239, abs=1e-12)

    def test_point_mass_above_one(self):
        params = support_edges(1.25, 0.5)
        assert params.mass_at_zero == pytest.approx(1 - 1 / 1.25, abs=1e-15)

    def test_invalid_ratios(self):
        with pytest.raises(ConfigError):
            support_edges(0.0, 0.5)
        with pytest.raises(ConfigError):
            support_edges(0.5, 1.0)


class TestLsdDensity:
    def test_frozen_value_at_one(self):
        params = support_edges(0.5, 0.5)
        assert lsd_density(1.0, params) == pytest.approx(DENSITY_AT_ONE_HALF, abs=1e-14)

    def test_zero_off_support(self):
        params = support_edges(0.5, 0.5)
        assert lsd_density(params.a - 1e-6, params) == 0.0
        assert lsd_density(params.b + 1e-6, params) == 0.0
        assert lsd_density(-1.0, params) == 0.0

    def test_vectorized(self):
        params = support_edges(0.5, 0.5)
        x = np.linspace(0.0, params.b + 1.0, 50)
        d = lsd_density(x, params)
        assert d.shape == x.shape
        assert (d >= 0.0).all()

    @pytest.mark.parametrize("y1", [0.2, 0.7, 1.5, 3.0])
    @pytest.mark.parametrize("y2", [0.1, 0.5, 0.9])
    def test_total_mass_is_one(self, y1, y2):
        params = support_edges(y1, y2)
        total = params.mass_at_zero + integrate_density(params)
        assert total == pytest.approx(1.0, abs=1e-7)


class TestLsdCdf:
    def test_median_by_symmetry(self):
        # y1 = y2 makes the LSD invariant under x -> 1/x, so F(1) = 1/2
        params = support_edges(0.5, 0.5)
        assert lsd_cdf(1.0, params) == pytest.approx(0.5, abs=1e-8)

    def test_limits_and_monotone(self):
        params = support_edges(0.5, 0.5)
        xs = np.linspace(0.0, params.b + 1.0, 40)
        vals = [lsd_cdf(x, params) for x in xs]
        assert vals[0] == 0.0
        assert vals[-1] == 1.0
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(vals, vals[1:]))

    def test_point_mass_included_below_support(self):
        params = support_edges(2.0, 0.4)
        assert lsd_cdf(params.a / 2.0, params) == pytest.approx(0.5, abs=1e-12)

    def test_negative_argument(self):
        params = support_edges(2.0, 0.4)
        assert lsd_cdf(-0.1, params) == 0.0

    @pytest.mark.parametrize("y1, y2", CDF_30)
    def test_frozen_values(self, y1, y2):
        params = support_edges(y1, y2)
        for f, want in zip(CDF_FRACTIONS, CDF_30[y1, y2]):
            x = params.a + f * (params.b - params.a)
            assert lsd_cdf(x, params) == pytest.approx(want, abs=1e-10), f

    def test_regression_point(self):
        y1, y2, x, want = CDF_REGRESSION
        assert lsd_cdf(x, support_edges(y1, y2)) == pytest.approx(want, abs=1e-12)

    def test_array_matches_scalar_calls(self):
        params = support_edges(2.0, 0.4)
        xs = np.linspace(-0.5, params.b + 0.5, 41)
        vals = lsd_cdf(xs, params)
        assert vals.shape == xs.shape
        scalars = [lsd_cdf(x, params) for x in xs]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(vals, scalars)


class TestCltConstants:
    def test_frozen_spot_values(self):
        c = clt_constants(0.1, 0.1, kappa=2, beta1=0.0, beta2=0.0)
        assert c.Fg == pytest.approx(CLT_01["Fg"], abs=1e-12)
        assert c.mu_g == pytest.approx(CLT_01["mu_g"], abs=1e-12)
        assert c.nu_g == pytest.approx(CLT_01["nu_g"], abs=1e-12)

    def test_complex_gaussian_centering_vanishes(self):
        for y1 in np.linspace(0.05, 2.0, 10):
            for y2 in np.linspace(0.05, 0.95, 10):
                c = clt_constants(y1, y2, kappa=1, beta1=0.0, beta2=0.0)
                assert c.mu_g == 0.0

    def test_beta_terms_enter_linearly(self):
        base = clt_constants(0.3, 0.4, kappa=2)
        bumped = clt_constants(0.3, 0.4, kappa=2, beta1=1.0)
        twice = clt_constants(0.3, 0.4, kappa=2, beta1=2.0)
        d1 = bumped.mu_g - base.mu_g
        d2 = twice.mu_g - bumped.mu_g
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ConfigError):
            clt_constants(0.5, 0.5, kappa=2, beta1=-1e6)

    def test_invalid_kappa(self):
        with pytest.raises(ConfigError):
            clt_constants(0.5, 0.5, kappa=3)

    def test_statistic_standardization(self):
        c = clt_constants(0.1, 0.1)
        raw = 50 * c.Fg + c.mu_g + 2.0 * math.sqrt(c.nu_g)
        assert statistic_value(raw, 50, c) == pytest.approx(2.0, rel=1e-12)


class TestQuantiles:
    def test_frozen_values(self):
        assert gaussian_quantile(0.995) == pytest.approx(Q_995, abs=1e-12)
        assert gaussian_quantile(0.975) == pytest.approx(Q_975, abs=1e-12)

    @pytest.mark.parametrize("q", [0.6, 0.9, 0.975, 0.995, 0.9995])
    def test_against_erf_bisection(self, q):
        assert gaussian_quantile(q) == pytest.approx(erf_quantile(q), abs=1e-9)

    def test_symmetry(self):
        assert gaussian_quantile(0.3) == pytest.approx(-gaussian_quantile(0.7), abs=1e-12)

    # upper tail, lower-tail mirrors, and U_{1-alpha/2} at the default and
    # criterion-1 alpha (0.01) and at 0.05
    UPPER = [0.5, 0.9, 0.95, 0.975, 0.995, 0.9995, 1 - 1e-10]
    LEVELS = UPPER + [1 - q for q in UPPER] + [1 - alpha / 2 for alpha in (0.01, 0.05)]

    @pytest.mark.parametrize("q", LEVELS)
    def test_against_scipy_ndtri(self, q):
        x = special.ndtri(q)
        assert abs(gaussian_quantile(q) - x) <= 1e-15 * max(1.0, abs(x))

    def test_rejection_threshold_two_sided(self):
        assert rejection_threshold(0.01) == pytest.approx(gaussian_quantile(0.995))
        assert rejection_threshold(0.05) == pytest.approx(Q_975, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            gaussian_quantile(0.0)
        with pytest.raises(ConfigError):
            rejection_threshold(1.0)


class TestMpEdge:
    def test_value(self):
        assert mp_upper_edge(0.25) == pytest.approx(2.25, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ConfigError):
            mp_upper_edge(0.0)
