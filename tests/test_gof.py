import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wetmax import (
    FitReport,
    MaximaSample,
    ModelParams,
    Representation,
    emit_plot_data,
    fit_mle,
    ks_model,
    limit_cdf,
    limit_quantile,
    make_rng,
    sample_limit,
    tail_index,
)

from oracles import (
    ecdf_counting,
    ks_critical_one_sample,
    ks_critical_two_sample,
    ks_two_sample,
    one_sample_ks,
    plot_data_per_value,
)


def _report(sample, params):
    return FitReport(params, "quantile", 0.25, sample.m)


def _empirical_column(sample, grid):
    text = emit_plot_data(sample, _report(sample, ModelParams(1, 1, 1)), grid)
    return [line.split("\t")[1] for line in text.splitlines()[1:]]


class TestPlotEmpiricalColumn:
    def test_ties_merge_into_one_jump(self):
        sample = MaximaSample(np.array([2.0, 1.0, 2.0, 3.0]))
        grid = [1.0, 1.999, 2.0, 2.5]
        assert _empirical_column(sample, grid) == ["0.25", "0.25", "0.75", "0.75"]
        assert ecdf_counting(sample.values, grid).tolist() == [0.25, 0.25, 0.75, 0.75]

    def test_zero_below_minimum(self):
        sample = MaximaSample(np.array([1.0, 2.0]))
        assert _empirical_column(sample, [0.0, 0.5, 1.0]) == ["0", "0", "0.5"]

    def test_one_at_and_past_maximum(self):
        sample = MaximaSample(np.array([3.0, 1.0, 2.0]))
        assert _empirical_column(sample, [2.0, 3.0, 9.0]) == ["0.666666666667", "1", "1"]

    def test_matches_counting_oracle(self):
        sample = MaximaSample(make_rng(305).pareto(1.5, 500) + 0.5)
        grid = np.linspace(0.0, 1.05 * sample.values.max(), 201)
        expected = [f"{e:.12g}" for e in ecdf_counting(sample.values, grid)]
        assert _empirical_column(sample, grid) == expected


class TestKsModel:
    def test_stratified_quantile_sample(self):
        p = ModelParams(0.85, 1.5, 1.2)
        m = 100
        xs = np.array([limit_quantile((i - 0.5) / m, p) for i in range(1, m + 1)])
        result = ks_model(xs, p)
        assert result.ks_distance == pytest.approx(0.5 / m, abs=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="sample must be nonempty"):
            ks_model(np.array([]), ModelParams(0.85, 1.5, 1.2))

    def test_single_point_at_median(self):
        p = ModelParams(0.876, 2.0, 0.9)
        result = ks_model(np.array([limit_quantile(0.5, p)]), p)
        assert result.ks_distance == pytest.approx(0.5, abs=1e-12)

    def test_calibrated_on_model_draws(self):
        p = ModelParams(0.85, 1.5, 1.2)
        n = 10_000
        critical = ks_critical_one_sample(n)
        below = sum(
            ks_model(sample_limit(p, Representation.DIRECT, make_rng(300, s), size=n), p).ks_distance
            < critical
            for s in range(100)
        )
        assert below >= 95

    def test_location_is_an_observation(self):
        p = ModelParams(1, 1, 1)
        xs = np.array([0.2, 0.7, 1.9])
        result = ks_model(xs, p)
        assert result.location in xs
        assert result.m == 3

    def test_maxima_sample_gives_the_same_bits(self):
        p = ModelParams(0.85, 1.5, 1.2)
        xs = sample_limit(p, Representation.DIRECT, make_rng(306), size=2000)
        assert ks_model(MaximaSample(xs), p) == ks_model(xs, p)

    def test_probability_integral_transform_invariance(self):
        p = ModelParams(0.85, 1.5, 1.2)
        xs = sample_limit(p, Representation.DIRECT, make_rng(301), size=500)
        direct = ks_model(xs, p).ks_distance
        u = np.sort(np.asarray(limit_cdf(xs, p)))
        i = np.arange(1, u.size + 1) / u.size
        uniform_ks = float(np.max(np.maximum(np.abs(i - u), np.abs(i - 1.0 / u.size - u))))
        assert direct == pytest.approx(uniform_ks, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.one_of(st.floats(1e-6, 1e6), st.sampled_from([0.5, 1.0, 2.0])),
                        min_size=1, max_size=50),
        r=st.floats(0.05, 20.0),
        lam=st.floats(1e-3, 1e3),
        gamma=st.floats(0.1, 5.0),
    )
    def test_equals_the_distance_of_absolute_gaps(self, values, r, lam, gamma):
        """max(a, b) of the signed gaps is max(|a|, |b|) bit for bit, and peaks at the same point."""
        p = ModelParams(r, lam, gamma)
        result = ks_model(values, p)
        assert result.ks_distance == one_sample_ks(values, lambda x: limit_cdf(x, p))
        xs = np.sort(values)
        model = limit_cdf(xs, p)
        i = np.arange(1, xs.size + 1) / xs.size
        assert result.location == xs[np.argmax(np.maximum(np.abs(i - model), np.abs(i - 1.0 / xs.size - model)))]


class TestKsTwoSample:
    def test_identical_samples(self):
        xs = np.array([1.0, 2.0, 5.0])
        assert ks_two_sample(xs, xs) == 0.0

    def test_disjoint_singletons(self):
        assert ks_two_sample(np.array([1.0]), np.array([2.0])) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = rng.exponential(size=100), rng.exponential(size=80) * 1.3
        assert ks_two_sample(a, b) == ks_two_sample(b, a)

    def test_zero_iff_same_multiset(self):
        a = np.array([1.0, 2.0, 2.0])
        assert ks_two_sample(a, np.array([2.0, 1.0, 2.0])) == 0.0
        assert ks_two_sample(a, np.array([1.0, 2.0, 3.0])) > 0.0

    def test_calibrated_on_same_sampler(self):
        p = ModelParams(0.85, 1.5, 1.2)
        n = 10_000
        critical = ks_critical_two_sample(n, n)
        below = 0
        for s in range(100):
            a = sample_limit(p, Representation.DIRECT, make_rng(302, 2 * s), size=n)
            b = sample_limit(p, Representation.DIRECT, make_rng(302, 2 * s + 1), size=n)
            below += ks_two_sample(a, b) < critical
        assert below >= 95


class TestTailIndex:
    def test_pareto_recovery(self):
        gamma = 1.5
        n, k = 10_000, 500
        hits = 0
        for seed in range(50):
            u = make_rng(303, seed).random(n)
            xs = (1.0 - u) ** (-1.0 / gamma)
            if 1.35 <= tail_index(xs, k) <= 1.65:
                hits += 1
        assert hits >= 45

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError, match="zero log-spacings"):
            tail_index(np.full(100, 3.0), 10)

    def test_scale_invariance(self):
        xs = make_rng(304).pareto(2.0, 1000) + 1.0
        # power-of-two scaling is exact in floating point, so equality is exact
        assert tail_index(16.0 * xs, 50) == tail_index(xs, 50)
        assert tail_index(17.5 * xs, 50) == pytest.approx(tail_index(xs, 50), rel=1e-12)

    def test_k_range_checked(self):
        xs = np.array([1.0, 2.0, 3.0])
        for k in (1, 3, 10):
            with pytest.raises(ValueError):
                tail_index(xs, k)

    def test_positive_values_required(self):
        with pytest.raises(ValueError):
            tail_index(np.array([0.0, 1.0, 2.0, 3.0]), 2)


class TestEmitPlotData:
    def test_three_rows_on_two_point_sample(self):
        p = ModelParams(1, 1, 1)
        sample = MaximaSample(np.array([1.0, 2.0]))
        text = emit_plot_data(sample, _report(sample, p), [0.0, 1.5, 3.0])
        lines = text.strip().split("\n")
        assert lines[0] == "# ks=0.25 m=2 r=1 lambda=1 gamma=1"
        assert len(lines) == 4
        for line in lines[1:]:
            assert len(line.split("\t")) == 3

    def test_header_carries_the_report(self):
        # the distance comes from the report as given, not recomputed
        p = ModelParams(0.85, 1.5, 1.2)
        sample = MaximaSample(np.array([1.0, 2.0]))
        report = FitReport(p, "mle", 0.123456789012345, 7)
        header = emit_plot_data(sample, report, [1.0]).splitlines()[0]
        assert header == "# ks=0.123456789012 m=7 r=0.85 lambda=1.5 gamma=1.2"

    def test_bare_mle_report_is_measured(self):
        # fit_mle leaves the distance None; the table then measures it itself
        p = ModelParams(0.85, 1.5, 1.2)
        sample = MaximaSample(sample_limit(p, Representation.DIRECT, make_rng(306), size=300))
        bare = fit_mle(sample, p)
        assert bare.ks_distance is None
        measured = dataclasses.replace(bare, ks_distance=ks_model(sample, bare.params).ks_distance)
        grid = np.linspace(0.0, 1.05 * float(sample.sorted_values[-1]), 21)
        text, expected = emit_plot_data(sample, bare, grid), emit_plot_data(sample, measured, grid)
        assert text.splitlines()[0] == expected.splitlines()[0]
        assert text.splitlines()[0].startswith(f"# ks={measured.ks_distance:.12g} m=300 ")
        assert text == expected

    def test_model_column_at_zero(self):
        p = ModelParams(0.85, 1.5, 1.2)
        sample = MaximaSample(np.array([1.0, 2.0]))
        text = emit_plot_data(sample, _report(sample, p), [0.0])
        x, empirical, model = text.strip().split("\n")[1].split("\t")
        assert float(model) == 0.0
        assert float(empirical) == 0.0

    def test_empty_grid_rejected(self):
        sample = MaximaSample(np.array([1.0]))
        with pytest.raises(ValueError):
            emit_plot_data(sample, _report(sample, ModelParams(1, 1, 1)), [])

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.5, 1.0, 2.0])),
                        min_size=1, max_size=30),
        inner=st.lists(st.floats(0.0, 1.0), max_size=20),
        r=st.floats(0.1, 5.0),
        lam=st.floats(0.1, 5.0),
        gamma=st.floats(0.2, 3.0),
        ks=st.floats(0.0, 1.0),
    )
    def test_matches_per_value_oracle(self, values, inner, r, lam, gamma, ks):
        sample = MaximaSample(np.array(values))
        top = float(sample.values.max())
        # x = 0, points inside and beyond the sample, and one past the maximum
        grid = np.array([0.0, *(2.0 * top * u for u in inner), 1.05 * top])
        report = FitReport(ModelParams(r, lam, gamma), "ls", ks, sample.m)
        assert emit_plot_data(sample, report, grid) == plot_data_per_value(sample, report, grid)
