import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    fit_mle_nelder_mead,
    fit_negbin_per_spell,
    log_likelihood,
    negbin_log_likelihood,
    shape_root_scan,
)
from wetmax import (
    EstimationError,
    MaximaSample,
    ModelParams,
    NegBinParams,
    QuantileTriple,
    Representation,
    fit_least_squares,
    fit_mle,
    fit_negbin,
    fit_quantile,
    fit_quantile_tau_scan,
    ks_model,
    limit_quantile,
    make_rng,
    sample_limit,
    sample_negbin,
)
from wetmax.distributions import _log_odds
from wetmax.estimation import (
    _newton_ascent,
    _newton_step,
    _score_hessian,
    _solve_shape_equation,
    _standard_errors,
)


def exact_quantile_sample(params: ModelParams, m: int) -> MaximaSample:
    """Sample whose order statistic at [m p] equals the exact quantile at p."""
    values = [limit_quantile(i / m, params) for i in range(1, m)]
    values.append(2.0 * values[-1])
    return MaximaSample(np.array(values))


def exact_ls_sample(r: float, lam: float, gamma: float, m: int) -> MaximaSample:
    """Order statistics lying exactly on the least-squares regression line."""
    i = np.arange(1, m, dtype=float)
    body = (i ** (1.0 / r) / (lam * (m ** (1.0 / r) - i ** (1.0 / r)))) ** (1.0 / gamma)
    return MaximaSample(np.append(body, 2.0 * body[-1]))


class TestMaximaSample:
    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            MaximaSample(np.array([]))
        with pytest.raises(ValueError):
            MaximaSample(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            MaximaSample(np.array([1.0, np.nan]))

    def test_keeps_both_orders(self):
        sample = MaximaSample(np.array([3.0, 1.0, 2.0]))
        assert sample.values.tolist() == [3.0, 1.0, 2.0]
        assert sample.sorted_values.tolist() == [1.0, 2.0, 3.0]
        assert sample.m == 3


class TestQuantileTriple:
    def test_default_and_validation(self):
        triple = QuantileTriple()
        assert (triple.p1, triple.p2, triple.p3) == (0.25, 0.5, 0.75)
        with pytest.raises(ValueError):
            QuantileTriple(0.5, 0.5, 0.75)
        with pytest.raises(ValueError):
            QuantileTriple(0.0, 0.5, 0.75)

    def test_from_tau(self):
        triple = QuantileTriple.from_tau(0.1)
        assert (triple.p1, triple.p2, triple.p3) == (0.1, 0.5, 0.9)
        with pytest.raises(ValueError):
            QuantileTriple.from_tau(0.3)


class TestFitQuantile:
    def test_exact_inversion(self):
        truth = ModelParams(0.8, 2.0, 1.4)
        params = fit_quantile(exact_quantile_sample(truth, 100))
        assert params.r == pytest.approx(truth.r, rel=1e-8)
        assert params.lam == pytest.approx(truth.lam, rel=1e-8)
        assert params.gamma == pytest.approx(truth.gamma, rel=1e-8)

    def test_known_r_skips_root_solve(self):
        truth = ModelParams(0.8, 2.0, 1.4)
        params = fit_quantile(exact_quantile_sample(truth, 100), r=0.8)
        assert params.r == 0.8
        assert params.lam == pytest.approx(truth.lam, rel=1e-8)
        assert params.gamma == pytest.approx(truth.gamma, rel=1e-8)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(EstimationError):
            fit_quantile(MaximaSample(np.full(50, 3.0)))

    def test_too_small_sample_rejected(self):
        with pytest.raises(EstimationError):
            fit_quantile(MaximaSample(np.array([1.0, 2.0, 3.0])))

    def test_synthetic_recovery_default_triple(self):
        # the central triple (0.25, 0.5, 0.75) determines r weakly: about 70%
        # of m = 10^4 samples land within 15% on every parameter
        truth = ModelParams(0.85, 1.5, 1.2)
        hits = 0
        for seed in range(20):
            sample = MaximaSample(
                sample_limit(truth, Representation.DIRECT, make_rng(100, seed), size=10_000)
            )
            params = fit_quantile(sample)
            if (
                abs(params.r - truth.r) / truth.r < 0.15
                and abs(params.lam - truth.lam) / truth.lam < 0.15
                and abs(params.gamma - truth.gamma) / truth.gamma < 0.15
            ):
                hits += 1
        assert hits >= 13

    def test_synthetic_recovery_wide_triple(self):
        # a wider symmetric triple conditions the shape much better
        truth = ModelParams(0.85, 1.5, 1.2)
        triple = QuantileTriple.from_tau(0.10)
        hits = 0
        for seed in range(20):
            sample = MaximaSample(
                sample_limit(truth, Representation.DIRECT, make_rng(100, seed), size=10_000)
            )
            params = fit_quantile(sample, triple)
            if (
                abs(params.r - truth.r) / truth.r < 0.15
                and abs(params.lam - truth.lam) / truth.lam < 0.15
                and abs(params.gamma - truth.gamma) / truth.gamma < 0.15
            ):
                hits += 1
        assert hits >= 18


@st.composite
def shape_equation_cases(draw):
    """(x1, x2, x3, p1, p2, p3): exact quantiles of a random law, each jittered."""
    params = ModelParams(draw(st.floats(0.1, 10.0)), draw(st.floats(0.2, 5.0)),
                         draw(st.floats(0.2, 5.0)))
    p1 = draw(st.floats(0.01, 0.45))
    p3 = draw(st.floats(0.55, 0.99))
    p2 = draw(st.floats(p1 + 0.02, p3 - 0.02))
    jitter = draw(st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3))
    xs = [limit_quantile(p, params) * math.exp(e) for p, e in zip((p1, p2, p3), jitter)]
    assume(xs[0] < xs[1] < xs[2])
    return (*xs, p1, p2, p3)


def kappa_limits(p1, p2, p3):
    """(kappa_0, kappa_inf): the shape ratio's limits as r -> 0 and r -> inf."""
    kappa_0 = math.log(p3 / p2) / math.log(p2 / p1)
    kappa_inf = math.log(math.log(p2) / math.log(p3)) / math.log(math.log(p1) / math.log(p2))
    return kappa_0, kappa_inf


class TestShapeEquation:
    @settings(max_examples=300, deadline=None)
    @given(shape_equation_cases())
    def test_brentq_matches_grid_scan(self, case):
        try:
            expected = shape_root_scan(*case)
        except ValueError:
            # the scan covers s = 1/r in [1e-3, 1e3] only
            try:
                s = 1.0 / _solve_shape_equation(*case)
            except EstimationError as exc:
                assert "quantile fit failed" in str(exc)
                return
            assert not 1e-3 <= s <= 1e3
            return
        assert 1.0 / _solve_shape_equation(*case) == pytest.approx(expected, rel=1e-9, abs=0)

    @settings(max_examples=40, deadline=None)
    @given(shape_equation_cases())
    def test_kappa_rises_from_kappa_0_to_kappa_inf(self, case):
        # (l3 - l2) / (l2 - l1) as a function of r, at the case's levels
        p1, p2, p3 = case[3:]
        r = np.logspace(-3.0, 6.0, 91)
        l1, l2, l3 = (_log_odds(p, r) for p in (p1, p2, p3))
        kappa = (l3 - l2) / (l2 - l1)
        kappa_0, kappa_inf = kappa_limits(p1, p2, p3)
        tol = 1e-13  # rounding in l_i, which grow like log r and 1/r
        assert np.all(np.diff(kappa) >= -tol * kappa[1:])
        assert np.all(kappa >= kappa_0 * (1.0 - tol))
        assert np.all(kappa <= kappa_inf * (1.0 + tol))

    def test_failure_names_the_reason(self):
        # a median this close to the upper quartile is beyond every r > 0
        kappa = math.log(10.0 / 9.0) / math.log(9.0)
        kappa_0, kappa_inf = kappa_limits(0.25, 0.5, 0.75)
        with pytest.raises(EstimationError, match="no r > 0 matches") as info:
            _solve_shape_equation(1.0, 9.0, 10.0, 0.25, 0.5, 0.75)
        for value in (kappa, kappa_0, kappa_inf):
            assert repr(value) in str(info.value)

    def test_recovers_large_r(self):
        # exact quantiles of r = 5000 put the root at s = 2e-4, far into the Frechet end
        xs = [limit_quantile(p, ModelParams(5000.0, 1.0, 1.0)) for p in (0.25, 0.5, 0.75)]
        assert _solve_shape_equation(*xs, 0.25, 0.5, 0.75) == pytest.approx(5000.0, rel=1e-6)

    def test_sample_beyond_the_frechet_limit_fails_with_kappa(self):
        # m = 100 from (0.7, 1.5, 0.8): kappa ~ 1.61 lies above kappa_inf ~ 1.269
        sample = MaximaSample(
            sample_limit(ModelParams(0.7, 1.5, 0.8), Representation.DIRECT, make_rng(20001), size=100)
        )
        x1, x2, x3 = (sample.sorted_values[i - 1] for i in (25, 50, 75))
        kappa = math.log(x3 / x2) / math.log(x2 / x1)
        kappa_0, kappa_inf = kappa_limits(0.25, 0.5, 0.75)
        assert kappa > kappa_inf
        with pytest.raises(EstimationError, match="no r > 0 matches") as info:
            fit_quantile(sample)
        for value in (kappa, kappa_0, kappa_inf):
            assert repr(value) in str(info.value)


class TestTauScan:
    def test_single_point_matches_plain_fit(self):
        truth = ModelParams(0.8, 2.0, 1.4)
        sample = exact_quantile_sample(truth, 200)
        scanned, tau = fit_quantile_tau_scan(sample, [0.1])
        direct = fit_quantile(sample, QuantileTriple.from_tau(0.1))
        assert tau == 0.1
        assert scanned == direct

    def test_returns_grid_minimum(self):
        truth = ModelParams(0.85, 1.5, 1.2)
        sample = MaximaSample(
            sample_limit(truth, Representation.DIRECT, make_rng(101), size=10_000)
        )
        grid = [0.05, 0.10, 0.15, 0.20]
        best, tau = fit_quantile_tau_scan(sample, grid)
        best_ks = ks_model(sample, best).ks_distance
        for point in grid:
            params = fit_quantile(sample, QuantileTriple.from_tau(point))
            assert best_ks <= ks_model(sample, params).ks_distance + 1e-15
        assert tau in grid

    def test_empty_grid_rejected(self):
        sample = MaximaSample(np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError):
            fit_quantile_tau_scan(sample, [])

    def test_out_of_range_tau_rejected_upfront(self):
        sample = MaximaSample(np.arange(1.0, 101.0))
        with pytest.raises(ValueError, match="tau must lie"):
            fit_quantile_tau_scan(sample, [0.1, 0.3])

    def test_all_failures_aggregate(self):
        sample = MaximaSample(np.full(100, 2.0))  # every triple degenerates
        with pytest.raises(EstimationError, match="every tau"):
            fit_quantile_tau_scan(sample, [0.05, 0.1])


class TestFitLeastSquares:
    def test_exact_recovery(self):
        r, lam, gamma = 0.876, 3.0, 0.9
        lam_hat, gamma_hat = fit_least_squares(exact_ls_sample(r, lam, gamma, 200), r)
        assert lam_hat == pytest.approx(lam, rel=1e-9)
        assert gamma_hat == pytest.approx(gamma, rel=1e-9)

    def test_normal_equations_optimum(self):
        truth = ModelParams(0.847, 2.0, 1.1)
        sample = MaximaSample(
            sample_limit(truth, Representation.DIRECT, make_rng(102), size=500)
        )
        lam_hat, gamma_hat = fit_least_squares(sample, truth.r)
        logx = np.log(sample.sorted_values[:-1])
        c = _log_odds(np.arange(1, sample.m) / sample.m, truth.r)

        def ssq(log_lam, gamma):
            return float(np.sum((log_lam + gamma * logx - c) ** 2))

        base = ssq(np.log(lam_hat), gamma_hat)
        for d_log_lam in (-1e-3, 0.0, 1e-3):
            for d_gamma in (-1e-3, 0.0, 1e-3):
                assert ssq(np.log(lam_hat) + d_log_lam, gamma_hat + d_gamma) >= base

    def test_synthetic_recovery(self):
        truth = ModelParams(0.847, 2.0, 1.1)
        hits = 0
        for seed in range(20):
            sample = MaximaSample(
                sample_limit(truth, Representation.DIRECT, make_rng(103, seed), size=10_000)
            )
            lam_hat, gamma_hat = fit_least_squares(sample, truth.r)
            if abs(lam_hat - truth.lam) / truth.lam < 0.10 and abs(gamma_hat - truth.gamma) / truth.gamma < 0.10:
                hits += 1
        assert hits >= 18

    def test_scale_equivariance(self):
        truth = ModelParams(0.85, 1.5, 1.2)
        sample = MaximaSample(
            sample_limit(truth, Representation.DIRECT, make_rng(104), size=2000)
        )
        lam_hat, gamma_hat = fit_least_squares(sample, truth.r)
        c = 2.5
        lam_scaled, gamma_scaled = fit_least_squares(MaximaSample(c * sample.values), truth.r)
        assert gamma_scaled == pytest.approx(gamma_hat, rel=1e-12)
        assert lam_scaled == pytest.approx(lam_hat * c ** (-gamma_hat), rel=1e-12)

    def test_zero_variance_regressor(self):
        with pytest.raises(EstimationError):
            fit_least_squares(MaximaSample(np.array([2.0, 2.0, 2.0, 5.0])), 0.8)

    @pytest.mark.parametrize("scale, lam", [(1e300, "0.0"), (1e-300, "inf")])
    def test_lam_beyond_float_range(self, scale, lam):
        values = sample_limit(ModelParams(0.85, 1.5, 3.0), Representation.DIRECT, make_rng(1), size=300)
        message = f"least squares fit produced invalid parameters: lam must lie in \\(0.0, inf\\), got {lam}$"
        with pytest.raises(EstimationError, match=message):
            fit_least_squares(MaximaSample(scale * values), 0.85)

    def test_needs_three_points(self):
        with pytest.raises(EstimationError):
            fit_least_squares(MaximaSample(np.array([1.0, 2.0])), 0.8)


class TestFitMle:
    def test_start_at_truth_stays_close(self):
        truth = ModelParams(0.85, 1.5, 1.2)
        sample = MaximaSample(
            sample_limit(truth, Representation.DIRECT, make_rng(105), size=5000)
        )
        report = fit_mle(sample, truth)

        assert report.log_likelihood >= log_likelihood(sample.values, truth)
        assert abs(report.params.r - truth.r) / truth.r < 0.05
        assert abs(report.params.lam - truth.lam) / truth.lam < 0.05
        assert abs(report.params.gamma - truth.gamma) / truth.gamma < 0.05

    def test_fix_r_keeps_r(self):
        truth = ModelParams(0.85, 1.5, 1.2)
        sample = MaximaSample(
            sample_limit(truth, Representation.DIRECT, make_rng(106), size=2000)
        )
        report = fit_mle(sample, ModelParams(0.7, 1.0, 1.0), fix_r=True)
        assert report.params.r == 0.7

    def test_improves_on_rough_seed(self):
        truth = ModelParams(0.85, 1.5, 1.2)
        sample = MaximaSample(
            sample_limit(truth, Representation.DIRECT, make_rng(107), size=10_000)
        )
        seed_fit = fit_quantile(sample)
        report = fit_mle(sample, seed_fit)

        assert report.log_likelihood >= log_likelihood(sample.values, seed_fit)

    def test_invalid_start_rejected(self):
        sample = MaximaSample(np.array([0.5, 1.0, 2.0]))
        with pytest.raises(EstimationError, match="invalid start"):
            fit_mle(sample, ModelParams(1e200, 1.0, 1e200))

    def test_report_fields(self):
        truth = ModelParams(1.0, 1.0, 1.0)
        sample = MaximaSample(
            sample_limit(truth, Representation.DIRECT, make_rng(108), size=500)
        )
        report = fit_mle(sample, truth)
        assert report.method == "mle"
        assert report.m == 500
        assert report.ks_distance is None  # measured by the caller, where it is reported
        assert report.iterations >= 1
        assert report.converged is True
        assert sorted(report.standard_errors) == ["gamma", "lambda", "r"]
        assert all(se > 0.0 for se in report.standard_errors.values())
        fixed = fit_mle(sample, truth, fix_r=True)
        assert fixed.standard_errors["r"] is None
        assert fixed.standard_errors["lambda"] > 0.0 and fixed.standard_errors["gamma"] > 0.0

    @pytest.mark.parametrize("fix_r", [True, False])
    @pytest.mark.parametrize("point", [ModelParams(0.85, 1.5, 1.2), ModelParams(2.0, 0.4, 0.7)])
    def test_score_hessian_matches_finite_differences(self, point, fix_r):
        values = sample_limit(
            ModelParams(1.0, 1.0, 1.0), Representation.DIRECT, make_rng(111), size=300
        )
        u0 = np.log([point.r, point.lam, point.gamma])[1 if fix_r else 0:]

        def ll(u):
            theta = np.exp(u)
            params = ModelParams(point.r, *theta) if fix_r else ModelParams(*theta)
            return log_likelihood(values, params)

        steps = 1e-4 * np.eye(u0.size)
        fd_score = np.array([(ll(u0 + e) - ll(u0 - e)) / 2e-4 for e in steps])
        fd_hessian = np.array([
            [(ll(u0 + ei + ej) - ll(u0 + ei - ej) - ll(u0 - ei + ej) + ll(u0 - ei - ej)) / 4e-8
             for ej in steps]
            for ei in steps
        ])
        ll_kernel, score, hessian = _score_hessian(np.log(values), point.r, point.lam, point.gamma, fix_r)
        assert ll_kernel == log_likelihood(values, point)  # same expression, same order
        assert score.shape == (u0.size,) and hessian.shape == (u0.size, u0.size)
        np.testing.assert_allclose(score, fd_score, rtol=0, atol=1e-7 * values.size)
        np.testing.assert_allclose(hessian, fd_hessian, rtol=0, atol=1e-6 * values.size)

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.floats(0.3, 2.0),
        lam=st.floats(0.2, 5.0),
        gamma=st.floats(0.5, 2.5),
        m=st.integers(300, 2000),
        seed=st.integers(0, 2**32 - 1),
        fix_r=st.booleans(),
    )
    def test_newton_fit_is_a_stationary_maximum(self, r, lam, gamma, m, seed, fix_r):
        # r <= 2 and m >= 300 keep away from samples whose likelihood only
        # levels off as r grows without bound, which have no finite MLE
        sample = MaximaSample(
            sample_limit(ModelParams(r, lam, gamma), Representation.DIRECT, make_rng(seed), size=m)
        )
        if fix_r:
            start = ModelParams(r, *fit_least_squares(sample, r))
        else:
            try:
                start = fit_quantile(sample, QuantileTriple(0.05, 0.5, 0.95))
            except EstimationError:
                assume(False)
        report = fit_mle(sample, start, fix_r=fix_r)
        p = report.params
        _, score, _ = _score_hessian(np.log(sample.values), p.r, p.lam, p.gamma, fix_r)
        assert np.max(np.abs(score)) <= 1e-6 * m
        assert report.converged is True
        _, ll_oracle, _ = fit_mle_nelder_mead(sample.values, start, fix_r=fix_r)
        assert report.log_likelihood >= ll_oracle - 1e-9 * abs(ll_oracle)

    @staticmethod
    def _ascent_with_kernel(sample, start, fix_r, doctor):
        """_newton_ascent over fit_mle's kernel with every result passed through
        doctor(call, result), under warnings as errors; returns the ascent's
        params, log likelihood and score, and the log parameters of every call."""
        logx, fixed, calls = np.log(sample.values), [start.r] if fix_r else [], []

        def kernel(theta):
            calls.append(theta)
            return doctor(len(calls), _score_hessian(logx, *fixed, *theta, fix_r))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, (ll, score, _), _ = _newton_ascent(
                kernel, [start.r, start.lam, start.gamma][len(fixed):], 1e-6 * sample.m
            )
        return ModelParams(*fixed, *theta), ll, score, [np.log(theta) for theta in calls]

    @staticmethod
    def _assert_same_maximum(sample, found, expected, fix_r):
        # both fits stop with every score component below 1e-6 m, so the
        # information times their gap in log space is below 2e-6 m, up to
        # the information's change across the gap
        p, ll, score, _ = found
        assert np.max(np.abs(score)) <= 1e-6 * sample.m
        q = expected.params
        _, _, hessian = _score_hessian(np.log(sample.values), q.r, q.lam, q.gamma, fix_r)
        gap = np.log([p.r, p.lam, p.gamma]) - np.log([q.r, q.lam, q.gamma])
        assert np.max(np.abs(hessian @ gap[1 if fix_r else 0:])) <= 2.2e-6 * sample.m
        assert ll == pytest.approx(expected.log_likelihood, rel=1e-12)

    @pytest.mark.parametrize("part", ["ll", "score", "hessian"])
    @pytest.mark.parametrize("fix_r", [True, False])
    def test_non_finite_trial_point_is_rejected_not_raised(self, fix_r, part):
        # at the first trial point one part of the kernel's result is NaN,
        # while the log likelihood there would otherwise rise: the step must
        # be halved, not taken and not raised
        truth = ModelParams(0.85, 1.5, 1.2)
        sample = MaximaSample(
            sample_limit(truth, Representation.DIRECT, make_rng(114), size=400)
        )
        expected = fit_mle(sample, truth, fix_r=fix_r)

        def nan_at_first_trial(call, result):
            if call != 2:
                return result
            ll, score, hessian = result
            if part == "ll":
                return math.nan, score, hessian
            if part == "score":
                return ll, np.full_like(score, math.nan), hessian
            return ll, score, np.full_like(hessian, math.nan)

        found = self._ascent_with_kernel(sample, truth, fix_r, nan_at_first_trial)
        points = found[3]
        np.testing.assert_allclose(points[2] - points[0], (points[1] - points[0]) / 2, rtol=1e-12)
        self._assert_same_maximum(sample, found, expected, fix_r)

    @pytest.mark.parametrize("fix_r", [True, False])
    def test_out_of_range_trial_step_is_rejected_not_raised(self, fix_r):
        # the Hessian at the start, scaled down a millionfold, stretches the
        # first Newton step until exp(u) overflows or underflows; such trial
        # points must count as falls, not reach the kernel, raise or warn
        truth = ModelParams(0.85, 1.5, 1.2)
        sample = MaximaSample(
            sample_limit(truth, Representation.DIRECT, make_rng(114), size=400)
        )
        expected = fit_mle(sample, truth, fix_r=fix_r)
        theta = [truth.lam, truth.gamma] if fix_r else [truth.r, truth.lam, truth.gamma]
        _, score, hessian = _score_hessian(np.log(sample.values), truth.r, truth.lam, truth.gamma, fix_r)
        first = _newton_step(-1e-6 * hessian, score)
        with np.errstate(over="ignore", under="ignore"):
            trial = np.exp(np.log(theta) + first)
        assert not np.all((0.0 < trial) & (trial < np.inf))

        def flat_at_start(call, result):
            ll, score, hessian = result
            return ll, score, (1e-6 * hessian if call == 1 else hessian)

        found = self._ascent_with_kernel(sample, truth, fix_r, flat_at_start)
        # the first trial that reaches the kernel is the first step halved k >= 1 times
        halvings = np.log2(first / (found[3][1] - found[3][0]))
        assert halvings[0] >= 1.0
        np.testing.assert_allclose(halvings, np.round(halvings[0]), atol=1e-6)
        self._assert_same_maximum(sample, found, expected, fix_r)

    @pytest.mark.parametrize("r, tol", [(1e9, 1e-8), (1e12, 1e-10)])
    def test_log_likelihood_stays_exact_towards_the_frechet_law(self, r, tol):
        # along lam = r/c the law tends to the Frechet law exp(-c x^-gamma);
        # at the ridge sample's Frechet fit the two log likelihoods differ by
        # about 0.92/r, so the Frechet one is the reference to within tol
        values, c, gamma = self._ridge_sample().values, 0.7563693, 0.7077884
        frechet = float(np.sum(math.log(c * gamma) - (gamma + 1.0) * np.log(values) - c * values ** -gamma))
        ll_kernel, _, _ = _score_hessian(np.log(values), r, r / c, gamma, False)
        assert abs(log_likelihood(values, ModelParams(r, r / c, gamma)) - frechet) <= tol
        assert abs(ll_kernel - frechet) <= tol

    def test_lam_score_tends_to_the_frechet_score(self):
        # with y = c x^-gamma the lam score tends to sum y - m as r grows
        values, c, gamma, r = self._ridge_sample().values, 0.7563693, 0.7077884, 1e12
        _, score, _ = _score_hessian(np.log(values), r, r / c, gamma, False)
        assert abs(score[1] - (np.sum(c * values ** -gamma) - values.size)) <= 1e-8

    def test_r_free_fit_from_a_far_start_reaches_the_interior_maximum(self):
        # a Newton step from this start tries r = 9.4e54, lam = 6.6e143; only
        # a log likelihood that is exact out there rejects that trial point
        truth = ModelParams(2.304913587627624, 1.5033427445670258, 1.399464251273976)
        sample = MaximaSample(sample_limit(truth, Representation.DIRECT, make_rng(900, 78), size=2520))
        report = fit_mle(sample, ModelParams(4.221145996961613, 1.4876583853454544, 0.7220466215364729))
        assert report.converged is True
        assert report.params.r < 10.0
        assert report.log_likelihood == pytest.approx(fit_mle(sample, truth).log_likelihood, rel=1e-12)

    @staticmethod
    def _ridge_sample():
        """Sample of 272 whose likelihood only levels off as r grows; CHANGES.md has it
        in the FOUND line on r-free fits that report converged with no finite maximum."""
        params = ModelParams(2.723676254650796, 2.702371904618805, 0.8057300462913457)
        return MaximaSample(sample_limit(params, Representation.DIRECT, make_rng(10022), size=272))

    def test_r_free_ridge_sample_stops_above_the_trust_region_fit(self):
        # the likelihood of this sample only levels off as r grows (the
        # CHANGES.md FOUND on r-free fits that report converged with no
        # finite maximum); the bound lies above the -634.0459961 at which a
        # trust-region search stopped after 19 steps
        sample = self._ridge_sample()
        start = fit_quantile(sample, QuantileTriple(0.05, 0.5, 0.95))
        report = fit_mle(sample, start)
        assert report.iterations <= 2000
        assert report.log_likelihood >= -634.0459959

    @pytest.mark.parametrize("fix_r", [True, False])
    @settings(max_examples=15, deadline=None)
    @given(
        r=st.floats(0.3, 3.0),
        lam=st.floats(0.2, 5.0),
        gamma=st.floats(0.5, 2.5),
        offsets=st.tuples(*[st.floats(-1.5, 1.5)] * 3),
        m=st.integers(20, 1000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_below_the_start(self, fix_r, r, lam, gamma, offsets, m, seed):
        sample = MaximaSample(
            sample_limit(ModelParams(r, lam, gamma), Representation.DIRECT, make_rng(seed), size=m)
        )
        start = ModelParams(*(v * math.exp(d) for v, d in zip((r, lam, gamma), offsets)))
        try:
            report = fit_mle(sample, start, fix_r=fix_r)
        except EstimationError:
            assume(False)
        assert report.iterations <= 2000
        assert report.log_likelihood >= log_likelihood(sample.values, start)

    def test_standard_errors_match_the_replicate_spread(self):
        truth = ModelParams(0.85, 1.5, 1.2)
        estimates, errors = [], []
        for seed in range(100):
            sample = MaximaSample(
                sample_limit(truth, Representation.DIRECT, make_rng(112, seed), size=1000)
            )
            report = fit_mle(sample, truth, fix_r=True)
            estimates.append((report.params.lam, report.params.gamma))
            errors.append((report.standard_errors["lambda"], report.standard_errors["gamma"]))
        spread = np.std(estimates, axis=0, ddof=1)
        np.testing.assert_allclose(np.median(errors, axis=0), spread, rtol=0.25)

    def test_standard_errors_are_the_inverse_information(self):
        params = ModelParams(0.85, 1.5, 1.2)
        values = sample_limit(params, Representation.DIRECT, make_rng(113), size=400)
        _, _, hessian = _score_hessian(np.log(values), params.r, params.lam, params.gamma, False)
        se = _standard_errors(params, -hessian)
        expected = np.array([0.85, 1.5, 1.2]) * np.sqrt(np.diag(np.linalg.inv(-hessian)))
        np.testing.assert_allclose([se["r"], se["lambda"], se["gamma"]], expected, rtol=1e-10)

    @pytest.mark.parametrize("information", [[[1.0, 2.0], [2.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]])
    def test_standard_errors_none_without_positive_definite_information(self, information):
        assert _standard_errors(ModelParams(1.0, 1.0, 1.0), np.array(information)) is None

    def test_standard_errors_none_where_an_error_overflows(self):
        # the information is positive definite, but r sqrt(1e300) is beyond the float range
        information = np.diag([1e-300, 1.0, 1.0])
        assert _standard_errors(ModelParams(1e300, 1.0, 1.0), information) is None


def symmetric_with_eigenvalues(eigenvalues, seed):
    """Q diag(eigenvalues) Q^T for a random orthogonal Q, and a random score."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues),) * 2))
    matrix = (q * eigenvalues) @ q.T
    return 0.5 * (matrix + matrix.T), rng.normal(size=len(eigenvalues))


def cholesky_doubling_shifts(information):
    """The shifts 0, mu_1, 2 mu_1, ... with mu_1 = 1e-8 max|I|, up to the first
    at which I + mu Id has a Cholesky factor."""
    shifts = [0.0]
    while True:
        try:
            np.linalg.cholesky(information + shifts[-1] * np.eye(len(information)))
            return shifts
        except np.linalg.LinAlgError:
            shifts.append(2.0 * shifts[-1] or 1e-8 * np.max(np.abs(information)))


spectra = st.tuples(
    st.integers(2, 3),
    st.lists(st.floats(0.0, math.log(1e6)), min_size=3, max_size=3),  # condition number <= 1e6
    st.floats(-6.0, 6.0),
    st.integers(0, 2**32 - 1),
)


class TestNewtonStep:
    @settings(max_examples=200, deadline=None)
    @given(spectrum=spectra)
    def test_positive_definite_information_takes_the_newton_step(self, spectrum):
        n, log_w, scale, seed = spectrum
        information, score = symmetric_with_eigenvalues(10.0 ** scale * np.exp(log_w[:n]), seed)
        expected = np.linalg.solve(information, score)
        step = _newton_step(information, score)
        assert np.linalg.norm(step - expected) <= 1e-9 * np.linalg.norm(expected)

    @settings(max_examples=200, deadline=None)
    @given(spectrum=spectra, signs=st.lists(st.booleans(), min_size=3, max_size=3))
    def test_indefinite_information_takes_the_first_shift_with_a_cholesky_factor(self, spectrum, signs):
        n, log_w, scale, seed = spectrum
        signs[0] = True  # at least one eigenvalue below zero
        w = np.where(signs[:n], -1.0, 1.0) * 10.0 ** scale * np.exp(log_w[:n])
        information, score = symmetric_with_eigenvalues(w, seed)
        shifts = cholesky_doubling_shifts(information)
        # no shift in the sequence lands within rounding of an eigenvalue's negative
        gap = 1e-6 * np.max(np.abs(information))
        assume(all(abs(v + mu) >= gap for v in np.linalg.eigvalsh(information) for mu in shifts))
        expected = np.linalg.solve(information + shifts[-1] * np.eye(n), score)
        step = _newton_step(information, score)
        assert shifts[-1] > 0.0
        assert np.linalg.norm(step - expected) <= 1e-9 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [2, 3])
    def test_information_with_a_nan_takes_a_nan_step(self, n):
        # no shift makes such an I positive definite; the step is NaN, which
        # the Newton driver's loop stops on, and the shift loop ends
        information = np.eye(n)
        information[-1, -1] = math.nan
        assert np.isnan(_newton_step(information, np.ones(n))).all()


class TestNewtonAscent:
    @staticmethod
    def _quadratic(information, peak):
        """Kernel of the concave quadratic ll = -(u - peak)' I (u - peak) / 2 in u = log theta."""
        def kernel(theta):
            gap = np.log(theta) - peak
            return -0.5 * float(gap @ information @ gap), -information @ gap, -information
        return kernel

    @pytest.mark.parametrize("information, peak", [
        ([[2.0, 0.5], [0.5, 1.0]], [0.3, -1.2]),
        ([[4.0, 1.0, 0.5], [1.0, 3.0, -0.7], [0.5, -0.7, 2.0]], [1.5, -0.4, 0.2]),
    ])
    def test_concave_quadratic_peaks_in_one_accepted_step(self, information, peak):
        information, peak = np.array(information), np.array(peak)
        kernel = self._quadratic(information, peak)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, (ll, score, hessian), steps = _newton_ascent(kernel, [1.0] * peak.size, 1e-9)
        assert steps == 1
        np.testing.assert_allclose(np.log(theta), peak, rtol=0, atol=1e-12)
        assert np.max(np.abs(score)) <= 1e-9
        assert ll == kernel(theta)[0] and ll > kernel([1.0] * peak.size)[0]
        np.testing.assert_array_equal(hessian, -information)

    def test_kernel_finite_only_at_the_start_returns_the_start(self):
        # exp(log theta) is not theta for these floats, so the start is
        # evaluated as given, and no trial point near it is finite
        start = [0.1, 0.35, 2.0]
        assert np.exp(np.log(start)).tolist() != start

        def kernel(theta):
            ll = -1.0 if theta == [0.1, 0.35, 2.0] else math.nan
            return ll, np.array([1.0, -2.0, 0.5]), -np.eye(3)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, (ll, score, hessian), steps = _newton_ascent(kernel, start, 1e-9)
        assert steps == 0 and theta == [0.1, 0.35, 2.0] and start == [0.1, 0.35, 2.0]
        assert ll == -1.0 and score.tolist() == [1.0, -2.0, 0.5]

    @pytest.mark.parametrize("start", [[1.0, 2.0], [1.0, 2.0, 3.0], [0.0, 2.0], [1.0, math.inf]])
    def test_start_without_finite_values_gives_none(self, start):
        calls = []

        def kernel(theta):
            calls.append(theta)
            return 0.0, np.array([math.nan] * len(theta)), -np.eye(len(theta))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _newton_ascent(kernel, start, 1e-9) is None
        assert calls == ([start] if all(0.0 < v < math.inf for v in start) else [])

    @pytest.mark.parametrize("fix_r", [True, False])
    def test_fit_mle_names_an_invalid_start(self, fix_r):
        sample, init = MaximaSample(np.array([0.5, 1.0, 2.0])), ModelParams(1e200, 1.0, 1e200)
        with pytest.raises(EstimationError) as excinfo:
            fit_mle(sample, init, fix_r=fix_r)
        assert str(excinfo.value) == (
            "invalid start: log likelihood or its derivatives at "
            "ModelParams(r=1e+200, lam=1.0, gamma=1e+200) are not finite"
        )


class TestStandardErrors:
    @settings(max_examples=200, deadline=None)
    @given(spectrum=spectra, signs=st.lists(st.booleans(), min_size=3, max_size=3))
    def test_are_the_inverse_information_or_none_without_a_cholesky_factor(self, spectrum, signs):
        n, log_w, scale, seed = spectrum
        w = np.where(signs[:n], -1.0, 1.0) * 10.0 ** scale * np.exp(log_w[:n])
        information, _ = symmetric_with_eigenvalues(w, seed)
        params = ModelParams(0.85, 1.5, 1.2)
        se = _standard_errors(params, information)
        try:
            np.linalg.cholesky(information)
        except np.linalg.LinAlgError:
            assert se is None
            return
        theta = np.array([params.r, params.lam, params.gamma][3 - n:])
        expected = theta * np.sqrt(np.diag(np.linalg.inv(information)))
        np.testing.assert_allclose([se[name] for name in ("r", "lambda", "gamma")[3 - n:]], expected, rtol=1e-10)
        assert (se["r"] is None) == (n == 2)


class TestConsistencySweep:
    def test_error_decreases_with_sample_size(self):
        truth = ModelParams(0.85, 1.5, 1.2)
        sizes = (100, 1000, 10_000)
        medians = {"quantile": [], "ls": [], "mle": []}
        for m in sizes:
            errors = {"quantile": [], "ls": [], "mle": []}
            for seed in range(50):
                sample = MaximaSample(
                    sample_limit(truth, Representation.DIRECT, make_rng(200 + m, seed), size=m)
                )

                def relative_error(params):
                    return max(
                        abs(params.r - truth.r) / truth.r,
                        abs(params.lam - truth.lam) / truth.lam,
                        abs(params.gamma - truth.gamma) / truth.gamma,
                    )

                try:
                    rough = fit_quantile(sample)
                    errors["quantile"].append(relative_error(rough))
                except EstimationError:
                    rough = None
                lam_hat, gamma_hat = fit_least_squares(sample, truth.r)
                errors["ls"].append(relative_error(ModelParams(truth.r, lam_hat, gamma_hat)))
                if rough is not None:
                    refined = fit_mle(sample, rough).params
                    errors["mle"].append(relative_error(refined))
            for method, values in errors.items():
                # the rough method can fail to bracket on very small samples
                assert len(values) >= 35, (method, m)
                medians[method].append(float(np.median(values)))
        for method, curve in medians.items():
            assert curve[0] >= curve[1] >= curve[2], (method, curve)


class TestFitNegBin:
    def test_recovery(self):
        nb = NegBinParams(0.876, 0.489)
        durations = sample_negbin(nb, make_rng(109), size=10_000) + 1
        fitted = fit_negbin(durations)
        assert abs(fitted.r - nb.r) / nb.r < 0.10
        assert abs(fitted.p - nb.p) / nb.p < 0.05

    def test_geometric_data(self):
        hits = 0
        for seed in range(10):
            durations = sample_negbin(NegBinParams(1.0, 0.4), make_rng(110, seed), size=10_000) + 1
            try:
                fitted = fit_negbin(durations)
            except EstimationError:
                continue
            if 0.9 <= fitted.r <= 1.1:
                hits += 1
        assert hits >= 8

    def test_underdispersed_rejected(self):
        with pytest.raises(EstimationError):
            fit_negbin([3, 3, 3, 3])
        with pytest.raises(EstimationError):
            fit_negbin([2])  # fewer than two values

    def test_variance_not_above_mean_rejected(self):
        # alternating 1s and 2s: shifted variance 0.25... vs mean 0.5
        with pytest.raises(EstimationError):
            fit_negbin([1, 2] * 20)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            fit_negbin([1.5, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_negbin([0, 1, 2])

    @pytest.mark.parametrize(
        "durations",
        [
            [3, 3, 3, 3],
            [2],  # fewer than two values
            [1, 2] * 20,  # shifted variance 0.25 vs mean 0.5
            [1, 3],  # shifted variance 1 with divisor m, 2 with divisor m - 1, mean 1
            [1.5, 2.0, 3.0],
            [0, 1, 2],
            [-1, 2, 3],
        ],
    )
    def test_rejections_match_the_per_spell_fit(self, durations):
        with pytest.raises((ValueError, EstimationError)) as expected:
            fit_negbin_per_spell(durations)
        with pytest.raises(expected.type) as got:
            fit_negbin(durations)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("order", [*itertools.permutations([13, 18, 21]),
                                       *itertools.permutations([4, 7, 10])])
    def test_variance_equal_to_mean_rejected_in_any_order(self, order):
        # [13, 18, 21]: shifted variance with divisor m - 1 and mean are both
        # 49/3, and float sums over the spells in four of these orders put that
        # variance one ulp above the mean; [4, 7, 10]: the variance with divisor
        # m, which the gate takes, and the mean are both 6
        with pytest.raises(EstimationError, match="no overdispersion"):
            fit_negbin(list(order))

    @pytest.mark.parametrize("durations", [[1, 3], [1, 3, 1, 3]])
    def test_variance_above_mean_only_with_divisor_m_minus_1_rejected(self, durations):
        # the profile likelihood rises for ever in r unless the variance with
        # divisor m exceeds the mean: these fits returned r0 e^7
        with pytest.raises(EstimationError, match="no overdispersion: variance 1 <= mean 1;"):
            fit_negbin(durations)

    def test_root_above_the_first_bracket(self):
        import mpmath  # a test dependency; imported here so that its absence fails only this test

        # three near-Poisson durations: their root lies about twice r0 e^7
        # above the moment estimate r0 that centres the first bracket
        durations = 1 + make_rng(482).poisson(1000.0, size=3)
        shifted = durations - 1.0
        mean = float(shifted.mean())
        edge = mean * mean / float(shifted.var(ddof=1) - mean) * math.exp(7.0)
        fitted = fit_negbin(durations)
        assert fitted.r > 1.5 * edge
        assert fitted.p == fitted.r / (fitted.r + mean)
        with mpmath.workdps(40):
            k = [mpmath.mpf(int(v)) for v in shifted]
            mu = mpmath.fsum(k) / len(k)

            def score(r):
                return mpmath.fsum(mpmath.digamma(r + v) - mpmath.digamma(r) for v in k) - len(k) * mpmath.log1p(mu / r)

            def log_likelihood(r):
                return mpmath.fsum(mpmath.loggamma(r + v) - mpmath.loggamma(r) + r * mpmath.log(r / (r + mu))
                                   + v * mpmath.log(mu / (r + mu)) for v in k)

            r = mpmath.mpf(fitted.r)
            # the score changes sign within 0.1 % of the fit, and the fit beats the bracket end
            assert score(r * 0.999) > 0 > score(r * 1.001)
            assert log_likelihood(r) >= log_likelihood(mpmath.mpf(edge))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="durations must be whole days >= 1"):
                fit_negbin([1, 2, bad, 3])

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(0.3, 3.0),
        st.floats(0.1, 0.6),
        st.integers(200, 3000),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_spell_fit(self, r, p, m, seed):
        durations = sample_negbin(NegBinParams(r, p), make_rng(seed), size=m) + 1
        try:
            reference = fit_negbin_per_spell(durations).r
        except EstimationError as exc:
            # a small sample can show no overdispersion; both fits refuse it
            with pytest.raises(EstimationError) as got:
                fit_negbin(durations)
            assert str(got.value) == str(exc)
            return
        fitted = fit_negbin(durations).r
        assert fitted == pytest.approx(reference, rel=1e-6)
        ll, ll_reference = (negbin_log_likelihood(durations, x) for x in (fitted, reference))
        assert ll >= ll_reference - 1e-12 * abs(ll_reference)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=2, max_size=300), st.randoms(use_true_random=False))
    def test_depends_only_on_the_multiset(self, durations, random):
        shuffled = list(durations)
        random.shuffle(shuffled)
        try:
            expected = fit_negbin(durations)
        except EstimationError as exc:
            with pytest.raises(EstimationError) as got:
                fit_negbin(shuffled)
            assert str(got.value) == str(exc)
            return
        assert fit_negbin(shuffled) == expected
