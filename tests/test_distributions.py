import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wetmax import (
    GammaParams,
    GGParams,
    MaximaSample,
    ModelParams,
    MomentNotDefinedError,
    NegBinParams,
    PrecipSeries,
    QuantileTriple,
    build_maxima,
    fit_least_squares,
    fit_quantile,
    gamma_pdf,
    gg_pdf,
    limit_cdf,
    limit_log_pdf,
    limit_moment,
    limit_pdf,
    limit_quantile,
    make_rng,
    negbin_odds_mixing_density,
    negbin_pmf,
    negbin_prob_mixing_density,
    sample_negbin_odds,
    sample_stable_onesided,
    sample_stable_ratio,
    sample_weibull,
    segment,
    simulate_prelimit_max,
    snedecor_fisher_density,
    stable_moment,
    stable_ratio_density,
    weibull_cdf,
)
from wetmax.distributions import _log_pdf_terms

from oracles import (
    bisect_inverse,
    integrate_against_odds_density,
    integrate_against_prob_density,
    log_pdf_textbook,
)

PARAM_SETS = [
    ModelParams(1.0, 1.0, 1.0),
    ModelParams(0.5, 2.0, 1.5),
    ModelParams(0.85, 2.0, 1.2),
    ModelParams(0.876, 3.0, 0.9),
    ModelParams(2.0, 0.5, 2.0),
]


class TestParamContainers:
    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0), (np.nan, 1, 1)])
    def test_model_params_reject_nonpositive(self, bad):
        with pytest.raises(ValueError):
            ModelParams(*bad)

    def test_gamma_params_reject(self):
        with pytest.raises(ValueError):
            GammaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaParams(1.0, 0.0)

    def test_gg_params_reject_zero_gamma(self):
        with pytest.raises(ValueError):
            GGParams(1.0, 0.0, 1.0)
        GGParams(1.0, -0.5, 1.0)  # negative powers are allowed

    def test_negbin_params(self):
        nb = NegBinParams(0.847, 0.322)
        assert nb.mu == pytest.approx(0.322 / 0.678)
        with pytest.raises(ValueError):
            NegBinParams(0.5, 1.0)
        with pytest.raises(ValueError):
            NegBinParams(-1.0, 0.5)


_P = ModelParams(0.85, 1.5, 1.2)
_SAMPLE = MaximaSample(np.arange(1.0, 101.0))

# every scalar parameter check in the library: a call taking the checked
# value, and one finite value just outside its interval
SCALAR_CHECKS = {
    "ModelParams.r": (lambda v: ModelParams(v, 1.0, 1.0), 0.0),
    "ModelParams.lam": (lambda v: ModelParams(1.0, v, 1.0), -2.0),
    "ModelParams.gamma": (lambda v: ModelParams(1.0, 1.0, v), 0.0),
    "GammaParams.r": (lambda v: GammaParams(v, 1.0), 0.0),
    "GammaParams.lam": (lambda v: GammaParams(1.0, v), 0.0),
    "GGParams.r": (lambda v: GGParams(v, 1.0, 1.0), 0.0),
    "GGParams.gamma": (lambda v: GGParams(1.0, v, 1.0), 0.0),
    "GGParams.lam": (lambda v: GGParams(1.0, 1.0, v), 0.0),
    "NegBinParams.r": (lambda v: NegBinParams(v, 0.5), -1.0),
    "NegBinParams.p": (lambda v: NegBinParams(1.0, v), 1.0),
    "limit_quantile.eps": (lambda v: limit_quantile(v, _P), 1.0),
    "limit_quantile.eps array": (lambda v: limit_quantile(np.array([0.5, v]), _P), 0.0),
    "limit_moment.delta": (lambda v: limit_moment(v, _P), 0.0),
    "weibull_cdf.gamma": (lambda v: weibull_cdf(1.0, v), 0.0),
    "negbin_odds_mixing_density.r": (lambda v: negbin_odds_mixing_density(2.0, v, 1.0), 1.0),
    "negbin_odds_mixing_density.mu": (lambda v: negbin_odds_mixing_density(2.0, 0.5, v), 0.0),
    "negbin_prob_mixing_density.r": (lambda v: negbin_prob_mixing_density(0.5, v, 0.3), 0.0),
    "negbin_prob_mixing_density.p": (lambda v: negbin_prob_mixing_density(0.5, 0.5, v), 1.0),
    "stable_ratio_density.alpha": (lambda v: stable_ratio_density(1.0, v), 1.0),
    "stable_moment.alpha": (lambda v: stable_moment(v, 0.1), 1.5),
    "stable_moment.beta": (lambda v: stable_moment(0.5, v), 0.5),
    "snedecor_fisher_density.r": (lambda v: snedecor_fisher_density(1.0, v), -1.0),
    "sample_weibull.gamma": (lambda v: sample_weibull(v, make_rng(0)), 0.0),
    "sample_stable_onesided.alpha": (lambda v: sample_stable_onesided(v, make_rng(0)), 1.5),
    "sample_stable_ratio.alpha": (lambda v: sample_stable_ratio(v, make_rng(0)), 0.0),
    "sample_negbin_odds.r": (lambda v: sample_negbin_odds(v, 1.0, make_rng(0)), 1.2),
    "sample_negbin_odds.mu": (lambda v: sample_negbin_odds(0.5, v, make_rng(0)), 0.0),
    "simulate_prelimit_max.n": (lambda v: simulate_prelimit_max(v, _P, 0.5, 1.0, make_rng(0)), 0.0),
    "simulate_prelimit_max.q": (lambda v: simulate_prelimit_max(10, _P, v, 1.0, make_rng(0)), 1.0),
    "simulate_prelimit_max.pareto_gamma": (
        lambda v: simulate_prelimit_max(10, _P, 0.5, v, make_rng(0)), 0.0),
    "fit_quantile.r": (lambda v: fit_quantile(_SAMPLE, r=v), 0.0),
    "fit_least_squares.r": (lambda v: fit_least_squares(_SAMPLE, v), -1.0),
    "QuantileTriple.p2": (lambda v: QuantileTriple(0.25, v, 0.75), 0.25),
    "QuantileTriple.from_tau": (lambda v: QuantileTriple.from_tau(v), 0.25),
    "segment.wet_threshold": (lambda v: segment(PrecipSeries(np.ones(3)), wet_threshold=v), -0.5),
    "build_maxima.h": (lambda v: build_maxima(segment(PrecipSeries(np.ones(3))), v), 0.0),
}


# every public density, mass function and d.f., with its value at 1e-300
# and 1e300 (negbin_pmf takes whole counts: 0 and 1e300)
DENSITIES_AT_EXTREMES = {
    "limit_cdf": (lambda x: limit_cdf(x, _P), (0.0, 1.0)),
    "limit_pdf": (lambda x: limit_pdf(x, _P), (1.4397190194810834e-06, 0.0)),
    "limit_log_pdf": (lambda x: limit_log_pdf(x, _P), (-13.451062588776153, -1520.091823856882)),
    "gamma_pdf": (lambda x: gamma_pdf(x, GammaParams(0.7, 2.0)), (1.2514911744163584e90, 0.0)),
    "gg_pdf": (lambda x: gg_pdf(x, GGParams(0.85, 1.2, 1.5)), (1.5225274990432444e-06, 0.0)),
    "weibull_cdf": (lambda x: weibull_cdf(x, 1.2), (0.0, 1.0)),
    "negbin_pmf": (lambda x: negbin_pmf(np.floor(x), NegBinParams(0.85, 0.3)), (0.35937930668721074, 0.0)),
    "negbin_odds_mixing_density": (lambda x: negbin_odds_mixing_density(x, 0.5, 1.5), (0.0, 0.0)),
    "negbin_prob_mixing_density": (lambda x: negbin_prob_mixing_density(x, 0.5, 0.3), (0.0, 0.0)),
    "stable_ratio_density": (lambda x: stable_ratio_density(x, 0.7), (2.575181074002499e89, 0.0)),
    "snedecor_fisher_density": (lambda x: snedecor_fisher_density(x, 0.85), (7.403294274818915e44, 0.0)),
}


@pytest.mark.parametrize("x", [1e-300, 1e300])
@pytest.mark.parametrize("name", sorted(DENSITIES_AT_EXTREMES))
def test_density_at_float_extremes_raises_no_floating_point_error(name, x):
    call, (at_tiny, at_huge) = DENSITIES_AT_EXTREMES[name]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        value = call(x)
    assert value == pytest.approx(at_tiny if x < 1.0 else at_huge, rel=1e-12)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "edge"])
@pytest.mark.parametrize("check", sorted(SCALAR_CHECKS))
def test_scalar_parameter_rejects_non_finite_and_out_of_range(check, bad):
    call, edge = SCALAR_CHECKS[check]
    with pytest.raises(ValueError, match=r"^\S+ must lie in [(\[]"):
        call(edge if bad == "edge" else float(bad))


class TestLimitCdf:
    def test_zero(self):
        for p in PARAM_SETS:
            assert limit_cdf(0.0, p) == 0.0

    def test_unit_point_all_ones(self):
        assert limit_cdf(1.0, ModelParams(1, 1, 1)) == pytest.approx(0.5, abs=0)

    def test_against_quadrature_of_pdf(self):
        # frozen from adaptive quadrature of the density over [0, 2]
        assert limit_cdf(2.0, ModelParams(0.5, 2.0, 1.5)) == pytest.approx(
            0.9218345270045301, abs=1e-10
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            limit_cdf(-0.1, PARAM_SETS[0])

    def test_array_check_names_nan_and_prints_plain_floats(self):
        p = PARAM_SETS[0]
        with pytest.raises(ValueError, match=r"^x must not be NaN$"):
            limit_cdf(np.float64("nan"), p)
        with pytest.raises(ValueError, match=r"^x must not be NaN$"):
            limit_pdf(np.array([1.0, -2.0, np.nan]), p)
        with pytest.raises(ValueError, match=r"^x must be >= 0\.0, got -2\.0$"):
            limit_cdf(np.array([1.0, -2.0, -0.5]), p)
        with pytest.raises(ValueError, match=r"^x must be > 0\.0, got 0\.0$"):
            limit_pdf(np.float64(0.0), p)

    def test_monotone_and_limits(self):
        rng = np.random.default_rng(1)
        for p in PARAM_SETS:
            xs = np.sort(rng.uniform(0.0, 50.0, 300))
            values = limit_cdf(xs, p)
            assert np.all(np.diff(values) >= 0.0)
            assert 0.0 <= values[0] <= values[-1] <= 1.0
        assert limit_cdf(1e200, PARAM_SETS[1]) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_on_random_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            p = ModelParams(*np.exp(rng.uniform(-2.0, 2.0, 3)))
            xs = np.sort(rng.uniform(0.0, 100.0, 200))
            values = limit_cdf(xs, p)
            assert limit_cdf(0.0, p) == 0.0
            assert np.all(np.diff(values) >= 0.0)
            assert limit_cdf(1e280, p) == pytest.approx(1.0, abs=1e-10)

    def test_array_and_scalar_agree(self):
        p = PARAM_SETS[2]
        xs = np.array([0.0, 0.3, 2.0, 11.0])
        batch = limit_cdf(xs, p)
        assert batch.tolist() == [limit_cdf(float(x), p) for x in xs]


class TestLimitPdf:
    def test_unit_point(self):
        assert limit_pdf(1.0, ModelParams(1, 1, 1)) == pytest.approx(0.25, rel=1e-14)

    def test_integrates_to_one(self):
        p = ModelParams(0.85, 2.0, 1.2)
        total = sum(
            quad(lambda x: limit_pdf(x, p), a, b, limit=300)[0]
            for a, b in [(0.0, 1.0), (1.0, 100.0), (100.0, np.inf)]
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_power_tail(self):
        p = ModelParams(0.5, 1.0, 0.7)
        x = 1e8
        assert limit_pdf(x, p) * x ** (1.0 + p.gamma) == pytest.approx(
            p.r * p.gamma / p.lam, rel=1e-4
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.builds(ModelParams, st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=20),
    )
    def test_log_pdf_matches_the_textbook_form(self, p, xs):
        value = limit_log_pdf(np.array(xs), p)
        error = np.abs(value - log_pdf_textbook(xs, p))
        np.testing.assert_array_less(error, 1e-12 * (1.0 + np.abs(value)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.floats(-745.0, 745.0) | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
        min_size=1, max_size=50,
    ))
    def test_log_pi_is_the_logaddexp_value(self, log_t):
        # with lam = gamma = 1 the helper's log t is log x itself
        log_t = np.array(log_t)
        with np.errstate(all="ignore"):
            _, log_pi, _ = _log_pdf_terms(log_t, 1.0, 1.0, 1.0)
            expected = -np.logaddexp(0.0, -log_t)
        finite = np.isfinite(expected)
        np.testing.assert_array_equal(log_pi[~finite], expected[~finite])  # inf and NaN alike
        gap = np.abs(log_pi[finite] - expected[finite])
        assert np.all(gap <= 4.0 * np.spacing(np.abs(expected[finite])))

    def test_log_pdf_where_gamma_log_x_overflows(self):
        # gamma log x is -inf at the left point and +inf at the right one
        with np.errstate(all="raise"):
            value = limit_log_pdf(np.array([1e-300, 1e300]), ModelParams(1.0, 1.0, 1e306))
        assert value.tolist() == [-np.inf, -np.inf]
        assert limit_pdf(1e-300, ModelParams(1.0, 1.0, 1e306)) == 0.0

    @pytest.mark.parametrize("params", [
        ModelParams(1e-3, 1.0, 1e306),
        ModelParams(0.5, 2.0, 3e305),
        ModelParams(1e10, 1e-300, 1e306),  # r gamma overflows: the density is below every float
    ])
    def test_log_pdf_where_t_underflows_matches_mpmath(self, params):
        # gamma log x overflows to -inf at x = 1e-300, so t = lam x^gamma is 0 in floats
        import mpmath  # a test dependency; imported here so that its absence fails only this test
        x = 1e-300
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            value = limit_log_pdf(x, params)
            array = limit_log_pdf(np.array([x, 1.0]), params)
        assert params.gamma * math.log(x) == -math.inf
        with mpmath.workdps(50):
            xx, r, lam, g = (mpmath.mpf(v) for v in (x, params.r, params.lam, params.gamma))
            exact = float(mpmath.log(r * g) + r * mpmath.log(lam) + (r * g - 1) * mpmath.log(xx)
                          - (r + 1) * mpmath.log1p(lam * xx**g))
        assert value == pytest.approx(exact, rel=4e-16) if math.isfinite(exact) else value == exact
        assert array[0] == value

    @pytest.mark.parametrize("params", [
        ModelParams(1e300, 1e300, 1e300),
        ModelParams(1e200, 3.0, 1e200),
        ModelParams(1e160, 1e-5, 1e160),
    ])
    def test_log_pdf_where_r_gamma_overflows_matches_mpmath(self, params):
        # r gamma is inf in floats, while log r + log gamma is not
        import mpmath
        xs = [0.5, 1.0, 1.5, 1e-300, 1e300]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            values = [limit_log_pdf(x, params) for x in xs]
            array = limit_log_pdf(np.array(xs), params)
        assert params.r * params.gamma == math.inf
        for x, value in zip(xs, values):
            with mpmath.workdps(50):
                xx, r, lam, g = (mpmath.mpf(v) for v in (x, params.r, params.lam, params.gamma))
                t = lam * xx**g
                exact = float(mpmath.log(r * g) - mpmath.log(xx) - r * mpmath.log1p(1 / t)
                              - mpmath.log1p(t))
            assert value == pytest.approx(exact, rel=4e-16) if math.isfinite(exact) else value == exact
        assert array.tolist() == values
        assert limit_log_pdf(1.0, ModelParams(1e300, 1e300, 1e300)) == 689.7755278982137

    @pytest.mark.parametrize("function", [limit_log_pdf, limit_cdf])
    def test_underflow_raises_nowhere(self, function):
        # exp(-|log t|) underflows at both points, x ** gamma at the left one
        x, params = np.array([1e-300, 1e300]), ModelParams(1.0, 1.0, 1.2)
        expected = function(x, params).tolist()
        with np.errstate(all="raise"):
            assert function(x, params).tolist() == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            limit_pdf(0.0, PARAM_SETS[0])
        with pytest.raises(ValueError):
            limit_pdf(-1.0, PARAM_SETS[0])

    def test_matches_cdf_derivative(self):
        for p in PARAM_SETS:
            for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
                x = limit_quantile(eps, p)
                h = 1e-5 * x
                derivative = (limit_cdf(x + h, p) - limit_cdf(x - h, p)) / (2.0 * h)
                assert derivative == pytest.approx(limit_pdf(x, p), rel=1e-6)


class TestLimitQuantile:
    def test_median_unit(self):
        assert limit_quantile(0.5, ModelParams(1, 1, 1)) == pytest.approx(1.0, rel=1e-14)

    def test_round_trip(self):
        p = ModelParams(0.876, 3.0, 0.9)
        assert limit_cdf(limit_quantile(0.123, p), p) == pytest.approx(0.123, abs=1e-12)
        for params in PARAM_SETS:
            for eps in np.linspace(0.02, 0.98, 25):
                assert limit_cdf(limit_quantile(eps, params), params) == pytest.approx(
                    eps, abs=1e-10
                )
                x = limit_quantile(eps, params)
                assert limit_quantile(limit_cdf(x, params), params) == pytest.approx(
                    x, rel=1e-10
                )

    def test_against_bisection(self):
        p = ModelParams(2.0, 0.5, 2.0)
        oracle = bisect_inverse(lambda x: limit_cdf(x, p), 0.25, 1e-12, 1e6)
        assert limit_quantile(0.25, p) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError):
            limit_quantile(eps, PARAM_SETS[0])


class TestLimitMoment:
    def test_small_delta_tends_to_one(self):
        assert limit_moment(1e-12, ModelParams(0.85, 2.0, 1.2)) == pytest.approx(1.0, abs=1e-9)

    def test_half_integer_case(self):
        # Gamma(1.5) * Gamma(0.5) = pi / 2
        assert limit_moment(1.0, ModelParams(1, 1, 2)) == pytest.approx(math.pi / 2, rel=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(MomentNotDefinedError):
            limit_moment(1.0, ModelParams(1, 1, 1))
        with pytest.raises(ValueError):
            limit_moment(0.0, ModelParams(1, 1, 1))

    def test_against_quadrature(self):
        for p in (ModelParams(0.85, 2.0, 1.2), ModelParams(0.876, 3.0, 0.9)):
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                delta = frac * p.gamma
                integral = sum(
                    quad(lambda x: x ** delta * limit_pdf(x, p), a, b, limit=400)[0]
                    for a, b in [(0.0, 1.0), (1.0, 1e3), (1e3, np.inf)]
                )
                assert limit_moment(delta, p) == pytest.approx(integral, rel=1e-6)


def model_params():
    """Random (r, lam, gamma), each log-uniform over a factor of about 20."""
    return st.builds(
        ModelParams,
        st.floats(0.2, 5.0),
        st.floats(0.2, 5.0),
        st.floats(0.3, 3.0),
    )


class TestLawProperties:
    @settings(max_examples=40, deadline=None)
    @given(model_params(), st.floats(0.01, 0.99))
    def test_quantile_and_cdf_invert_each_other(self, p, eps):
        x = limit_quantile(eps, p)
        assert limit_cdf(x, p) == pytest.approx(eps, abs=1e-12)
        assert limit_quantile(limit_cdf(x, p), p) == pytest.approx(x, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(model_params(), st.floats(0.05, 0.95))
    def test_pdf_is_the_cdf_derivative(self, p, eps):
        x = limit_quantile(eps, p)
        h = 1e-5 * x
        derivative = (limit_cdf(x + h, p) - limit_cdf(x - h, p)) / (2.0 * h)
        assert derivative == pytest.approx(limit_pdf(x, p), rel=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(model_params(), st.floats(0.05, 0.8))
    def test_moment_matches_quadrature(self, p, frac):
        # over y = log x the integrand decays at least like exp(-0.06 |y|),
        # so |y| <= 700 leaves out less than exp(-40) of it
        delta = frac * p.gamma

        def integrand(y):
            return math.exp((delta + 1.0) * y + limit_log_pdf(math.exp(y), p))

        cuts = [-700.0, *np.log(limit_quantile(np.array([0.01, 0.5, 0.99]), p)), 700.0]
        integral = sum(quad(integrand, a, b, limit=400)[0] for a, b in zip(cuts, cuts[1:]))
        assert limit_moment(delta, p) == pytest.approx(integral, rel=1e-6)


class TestNegBinPmf:
    def test_k_zero(self):
        nb = NegBinParams(0.7, 0.4)
        assert negbin_pmf(0, nb) == pytest.approx(0.4 ** 0.7, rel=1e-14)

    def test_geometric_special_case(self):
        nb = NegBinParams(1.0, 0.3)
        for k in range(6):
            assert negbin_pmf(k, nb) == pytest.approx(0.3 * 0.7 ** k, rel=1e-13)

    def test_sums_to_one(self):
        nb = NegBinParams(0.847, 0.322)
        total = float(np.sum(negbin_pmf(np.arange(501), nb)))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_k(self):
        nb = NegBinParams(0.5, 0.5)
        with pytest.raises(ValueError):
            negbin_pmf(-1, nb)
        with pytest.raises(ValueError):
            negbin_pmf(1.5, nb)
        with pytest.raises(ValueError, match="k must be numeric"):
            negbin_pmf("a", nb)


class TestMixingDensities:
    def test_zero_outside_support(self):
        assert negbin_odds_mixing_density(0.5, 0.5, 1.0) == 0.0
        assert negbin_prob_mixing_density(0.2, 0.876, 0.489) == 0.0
        assert negbin_prob_mixing_density(1.0, 0.876, 0.489) == 0.0

    def test_odds_density_normalizes(self):
        total = integrate_against_odds_density(lambda z: 1.0, 0.5, 1.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_prob_density_normalizes(self):
        total = integrate_against_prob_density(lambda y: 1.0, 0.876, 0.489)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_odds_density_reproduces_negbin(self):
        r, p = 0.5, 0.3
        nb = NegBinParams(r, p)
        mu = nb.mu
        for k in range(21):
            value = integrate_against_odds_density(
                lambda z, k=k: (z / (z + 1.0)) * (1.0 / (z + 1.0)) ** k, r, mu
            )
            assert value == pytest.approx(negbin_pmf(k, nb), abs=1e-8)

    def test_prob_density_reproduces_negbin(self):
        r, p = 0.6, 0.4
        nb = NegBinParams(r, p)
        for k in range(16):
            value = integrate_against_prob_density(
                lambda y, k=k: y * (1.0 - y) ** k, r, p
            )
            assert value == pytest.approx(negbin_pmf(k, nb), abs=1e-8)

    def test_density_matches_quadrature_weight(self):
        # the quadrature helper and the pointwise density agree on plain cells
        value = integrate_against_odds_density(
            lambda z: 1.0 if 2.0 <= z <= 3.0 else 0.0, 0.5, 1.0
        )
        direct, _ = quad(lambda z: negbin_odds_mixing_density(z, 0.5, 1.0), 2.0, 3.0)
        assert value == pytest.approx(direct, rel=1e-7)

    def test_rejects_shape_outside_open_interval(self):
        for bad_r in (0.0, 1.0, 1.3):
            with pytest.raises(ValueError):
                negbin_odds_mixing_density(2.0, bad_r, 1.0)
            with pytest.raises(ValueError):
                negbin_prob_mixing_density(0.5, bad_r, 0.3)


class TestStableRatioDensity:
    def test_self_reciprocal_change_of_variables(self):
        x, alpha = 2.5, 0.6
        assert stable_ratio_density(x, alpha) == pytest.approx(
            stable_ratio_density(1.0 / x, alpha) / x ** 2, rel=1e-12
        )

    def test_normalizes(self):
        total = sum(
            quad(lambda x: stable_ratio_density(x, 0.5), a, b, limit=400)[0]
            for a, b in [(0.0, 1.0), (1.0, 1e4), (1e4, np.inf)]
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_alpha_half_at_one(self):
        assert stable_ratio_density(1.0, 0.5) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_rejects_degenerate_alpha(self):
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError):
                stable_ratio_density(1.0, alpha)


class TestStableMoment:
    def test_alpha_one_degenerate(self):
        for beta in (0.1, 0.5, 0.99):
            assert stable_moment(1.0, beta) == pytest.approx(1.0, rel=1e-12)

    def test_levy_quarter_moment(self):
        # frozen: math.gamma(0.5) / math.gamma(0.75)
        assert stable_moment(0.5, 0.25) == pytest.approx(1.4464090846320767, rel=1e-12)

    def test_small_beta_tends_to_one(self):
        assert stable_moment(0.7, 1e-10) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_beta_at_or_above_alpha(self):
        with pytest.raises(ValueError):
            stable_moment(0.5, 0.5)
        with pytest.raises(ValueError):
            stable_moment(0.5, 0.7)


class TestSnedecorFisher:
    def test_unit_point(self):
        assert snedecor_fisher_density(1.0, 1.0) == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("r,expected", [(0.5, math.inf), (1.0, 1.0), (2.0, 0.0)])
    def test_at_zero_is_the_limit_of_x_to_the_r_minus_1(self, r, expected):
        assert snedecor_fisher_density(0.0, r) == expected

    def test_normalizes(self):
        total = sum(
            quad(lambda x: snedecor_fisher_density(x, 0.876), a, b, limit=400)[0]
            for a, b in [(0.0, 1.0), (1.0, 100.0), (100.0, np.inf)]
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_power_transform_matches_limit_pdf(self):
        # M = (r Q / lam)^(1/gamma) maps the F-type density onto the limit law:
        # f_M(x) = f_Q(lam x^gamma / r) * lam gamma x^(gamma-1) / r
        p = ModelParams(0.7, 2.0, 1.3)
        xs = np.linspace(0.05, 5.0, 50)
        q = p.lam * xs ** p.gamma / p.r
        jacobian = p.lam * p.gamma * xs ** (p.gamma - 1.0) / p.r
        transformed = snedecor_fisher_density(q, p.r) * jacobian
        assert np.allclose(transformed, limit_pdf(xs, p), rtol=1e-10, atol=0.0)


class TestComponentLaws:
    def test_gg_density_is_power_transform_of_gamma(self):
        r, gamma, lam = 0.85, 1.4, 2.0
        xs = np.linspace(0.05, 4.0, 60)
        # X = G^(1/gamma): f_X(x) = f_G(x^gamma) * gamma * x^(gamma-1)
        transform = gamma_pdf(xs ** gamma, GammaParams(r, lam)) * gamma * xs ** (gamma - 1.0)
        assert np.allclose(gg_pdf(xs, GGParams(r, gamma, lam)), transform, rtol=1e-10)

    def test_exponential_density_at_zero_is_the_rate(self):
        assert gamma_pdf(0.0, GammaParams(1.0, 2.5)) == 2.5
        assert gamma_pdf(np.array([0.0, 1.0]), GammaParams(1.0, 2.5))[0] == 2.5

    def test_gamma_pdf_normalizes(self):
        total = quad(lambda x: gamma_pdf(x, GammaParams(0.876, 2.0)), 0, np.inf, limit=300)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_weibull_cdf_values(self):
        assert weibull_cdf(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
        assert weibull_cdf(0.0, 0.5) == 0.0
