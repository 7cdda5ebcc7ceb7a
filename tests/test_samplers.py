import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import chi2

from wetmax import (
    GammaParams,
    ModelParams,
    NegBinParams,
    Representation,
    RepresentationDomainError,
    limit_cdf,
    limit_moment,
    make_rng,
    negbin_odds_mixing_density,
    negbin_pmf,
    sample_gamma,
    sample_limit,
    sample_negbin,
    sample_negbin_odds,
    sample_stable_onesided,
    sample_stable_ratio,
    sample_weibull,
    simulate_prelimit_max,
    stable_moment,
    stable_ratio_density,
)
from wetmax.samplers import RESTRICTED_REPRESENTATIONS

from oracles import (
    ks_critical_one_sample,
    ks_critical_two_sample,
    ks_two_sample,
    levy_cdf,
    limit_product_formula,
    negbin_odds_gamma_pair,
    one_sample_ks,
    prelimit_max_brute_force,
    stable_ratio_kanter,
)


ALL_SAMPLER_CALLS = [
    ("gamma", lambda rng: sample_gamma(GammaParams(0.7, 2.0), rng, size=50)),
    ("weibull", lambda rng: sample_weibull(0.8, rng, size=50)),
    ("stable", lambda rng: sample_stable_onesided(0.6, rng, size=50)),
    ("ratio", lambda rng: sample_stable_ratio(0.6, rng, size=50)),
    ("odds", lambda rng: sample_negbin_odds(0.5, 1.5, rng, size=50)),
    ("negbin", lambda rng: sample_negbin(NegBinParams(0.85, 0.3), rng, size=50)),
    ("limit", lambda rng: sample_limit(ModelParams(0.8, 1.0, 0.9), "direct", rng, size=50)),
    (
        "prelimit",
        lambda rng: simulate_prelimit_max(100, ModelParams(0.85, 1.0, 1.5), 0.5, 1.5, rng, size=50),
    ),
]


class TestDeterminism:
    @pytest.mark.parametrize("name,call", ALL_SAMPLER_CALLS, ids=[n for n, _ in ALL_SAMPLER_CALLS])
    def test_same_seed_same_stream(self, name, call):
        a = call(make_rng(1234))
        b = call(make_rng(1234))
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))

    def test_substreams_are_disjoint_and_order_free(self):
        def batch(stream):
            return sample_limit(ModelParams(0.8, 1.5, 0.9), "direct", make_rng(99, stream), size=1000)

        sequential = [batch(i) for i in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(batch, range(4)))
        assert np.mean(sequential) == np.mean(parallel)
        for i, a in enumerate(sequential):
            np.testing.assert_array_equal(a, parallel[i])
            for b in sequential[i + 1 :]:
                assert not np.array_equal(a, b)

    @pytest.mark.parametrize("name,call", ALL_SAMPLER_CALLS, ids=[n for n, _ in ALL_SAMPLER_CALLS])
    def test_positive_and_finite(self, name, call):
        values = np.asarray(call(make_rng(5)), dtype=float)
        assert np.all(np.isfinite(values))
        if name in ("prelimit", "negbin"):
            # counts start at 0; the empty pre-limit maximum is the 0 sentinel
            assert np.all(values >= 0.0)
        else:
            assert np.all(values > 0.0)


class TestGammaSampler:
    def test_exponential_case_ks(self):
        draws = sample_gamma(GammaParams(1.0, 1.0), make_rng(0), size=10_000)
        ks = one_sample_ks(draws, lambda x: -np.expm1(-x))
        assert ks < ks_critical_one_sample(10_000, 0.05)

    def test_small_shape_mean(self):
        n = 100_000
        draws = sample_gamma(GammaParams(0.876, 2.0), make_rng(1), size=n)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - 0.876 / 2.0) < 3.0 * se

    def test_scale_equivariance(self):
        n = 10_000
        scaled = sample_gamma(GammaParams(0.6, 1.0), make_rng(2), size=n) / 3.0
        direct = sample_gamma(GammaParams(0.6, 3.0), make_rng(3), size=n)
        assert ks_two_sample(scaled, direct) < ks_critical_two_sample(n, n)


class TestWeibullSampler:
    def test_unit_exponent_ks(self):
        draws = sample_weibull(1.0, make_rng(4), size=10_000)
        assert one_sample_ks(draws, lambda x: -np.expm1(-x)) < ks_critical_one_sample(10_000, 0.05)

    def test_cdf_at_one_free_of_exponent(self):
        n = 100_000
        draws = sample_weibull(0.5, make_rng(5), size=n)
        frac = np.mean(draws < 1.0)
        target = 1.0 - math.exp(-1.0)
        assert abs(frac - target) < 3.0 * math.sqrt(target * (1 - target) / n)

    def test_exponential_over_stable_is_weibull(self):
        n = 10_000
        rng = make_rng(6)
        quotient = rng.standard_exponential(n) / sample_stable_onesided(0.7, rng, size=n)
        direct = sample_weibull(0.7, make_rng(7), size=n)
        assert ks_two_sample(quotient, direct) < ks_critical_two_sample(n, n)


class TestStableSampler:
    def test_alpha_one_degenerate(self):
        draws = sample_stable_onesided(1.0, make_rng(8), size=1000)
        assert np.all(draws == 1.0)
        assert sample_stable_onesided(1.0, make_rng(8)) == 1.0

    def test_levy_case_ks(self):
        draws = sample_stable_onesided(0.5, make_rng(9), size=10_000)
        assert one_sample_ks(draws, levy_cdf) < ks_critical_one_sample(10_000)

    def test_fractional_moment(self):
        n = 200_000
        draws = sample_stable_onesided(0.5, make_rng(10), size=n)
        powered = draws ** 0.25
        se = powered.std(ddof=1) / math.sqrt(n)
        assert abs(powered.mean() - stable_moment(0.5, 0.25)) < 3.0 * se

    def test_stability_identity(self):
        n = 10_000
        alpha = 0.7
        rng = make_rng(11)
        s1 = sample_stable_onesided(alpha, rng, size=n)
        s2 = sample_stable_onesided(alpha, rng, size=n)
        combined = (s1 + s2) / 2.0 ** (1.0 / alpha)
        fresh = sample_stable_onesided(alpha, make_rng(12), size=n)
        assert ks_two_sample(combined, fresh) < ks_critical_two_sample(n, n)


class TestStableRatioSampler:
    def test_self_reciprocal(self):
        n = 10_000
        draws = sample_stable_ratio(0.6, make_rng(13), size=n)
        fresh = sample_stable_ratio(0.6, make_rng(14), size=n)
        assert ks_two_sample(draws, 1.0 / fresh) < ks_critical_two_sample(n, n)

    def test_median_at_one(self):
        n = 10_000
        draws = sample_stable_ratio(0.5, make_rng(15), size=n)
        frac = np.mean(draws < 1.0)
        assert abs(frac - 0.5) < 3.0 * math.sqrt(0.25 / n)

    def test_chi2_against_density(self):
        n = 100_000
        alpha = 0.7
        draws = sample_stable_ratio(alpha, make_rng(16), size=n)
        edges = np.quantile(draws, np.linspace(0.0, 1.0, 41))
        edges[0], edges[-1] = 0.0, np.inf
        observed, _ = np.histogram(draws, bins=edges)
        from scipy.integrate import quad

        expected = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            hi_eff = hi if np.isfinite(hi) else max(10.0 * edges[-2], 1e4)
            cell, _ = quad(lambda x: stable_ratio_density(x, alpha), lo, hi_eff, limit=300)
            if not np.isfinite(hi):
                tail, _ = quad(lambda x: stable_ratio_density(x, alpha), hi_eff, np.inf, limit=300)
                cell += tail
            expected.append(n * cell)
        expected = np.asarray(expected)
        stat = float(np.sum((observed - expected) ** 2 / expected))
        p_value = float(chi2.sf(stat, len(expected) - 1))
        assert p_value > 0.01

    def test_alpha_one_degenerate(self):
        assert np.all(sample_stable_ratio(1.0, make_rng(17), size=100) == 1.0)
        assert sample_stable_ratio(1.0, make_rng(17)) == 1.0

    @pytest.mark.parametrize("stream,alpha", enumerate([0.3, 0.6, 0.876]))
    def test_matches_kanter_pair(self, stream, alpha):
        n = 20_000
        exact = sample_stable_ratio(alpha, make_rng(40, stream), size=n)
        composed = stable_ratio_kanter(alpha, make_rng(41, stream), size=n)
        assert ks_two_sample(exact, composed) < ks_critical_two_sample(n, n)

    def test_inverts_the_ratio_law_at_one_uniform_per_variate(self):
        alpha, n = 0.6, 1000
        theta = math.pi * alpha
        rng, twin = make_rng(42), make_rng(42)
        y = sample_stable_ratio(alpha, rng, size=n) ** alpha
        u = twin.random(n)
        # d.f. of R^alpha (Lamperti 1958) at each draw gives back its uniform
        cdf = (np.arctan((y + math.cos(theta)) / math.sin(theta)) - (math.pi / 2 - theta)) / theta
        np.testing.assert_allclose(cdf, u, rtol=0, atol=1e-12)
        assert rng.random() == twin.random()


class TestOddsSampler:
    def test_support(self):
        draws = sample_negbin_odds(0.5, 2.0, make_rng(18), size=100_000)
        assert np.all(draws >= 2.0)

    def test_tail_against_quadrature(self):
        from scipy.integrate import quad

        n = 100_000
        r, mu = 0.5, 1.0
        draws = sample_negbin_odds(r, mu, make_rng(19), size=n)
        for z0 in np.linspace(1.2, 8.0, 10):
            # past the singular endpoint the density integrates directly
            tail, _ = quad(lambda z: negbin_odds_mixing_density(z, r, mu), z0, np.inf, limit=300)
            assert abs(np.mean(draws > z0) - tail) < 0.01

    def test_scale_in_mu(self):
        n = 10_000
        scaled = 3.0 * sample_negbin_odds(0.4, 1.0, make_rng(20), size=n)
        direct = sample_negbin_odds(0.4, 3.0, make_rng(21), size=n)
        assert ks_two_sample(scaled, direct) < ks_critical_two_sample(n, n)

    def test_geometric_edge_is_point_mass(self):
        assert np.all(sample_negbin_odds(1.0, 2.5, make_rng(22), size=50) == 2.5)

    def test_rejects_shape_above_one(self):
        with pytest.raises(ValueError):
            sample_negbin_odds(1.2, 1.0, make_rng(23), size=2)

    @pytest.mark.parametrize("stream,r", enumerate([0.2, 0.5, 0.876]))
    def test_matches_gamma_pair(self, stream, r):
        n = 20_000
        exact = sample_negbin_odds(r, 1.5, make_rng(43, stream), size=n)
        composed = negbin_odds_gamma_pair(r, 1.5, make_rng(44, stream), size=n)
        assert ks_two_sample(exact, composed) < ks_critical_two_sample(n, n)

    def test_one_beta_per_variate(self):
        r, mu, n = 0.4, 2.0, 1000
        rng, twin = make_rng(45), make_rng(45)
        z = sample_negbin_odds(r, mu, rng, size=n)
        np.testing.assert_allclose(mu / z, twin.beta(r, 1.0 - r, n), rtol=1e-15)
        assert rng.random() == twin.random()


class TestNegBinSampler:
    def test_geometric_tail(self):
        n = 100_000
        p = 0.3
        draws = sample_negbin(NegBinParams(1.0, p), make_rng(24), size=n)
        for m in range(1, 6):
            target = (1.0 - p) ** m
            se = math.sqrt(target * (1.0 - target) / n)
            assert abs(np.mean(draws >= m) - target) < 3.0 * se

    def test_mean(self):
        n = 100_000
        nb = NegBinParams(0.847, 0.322)
        draws = sample_negbin(nb, make_rng(25), size=n)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - nb.mean) < 3.0 * se
        assert nb.mean == pytest.approx(1.783, abs=5e-4)

    def test_chi2_against_pmf(self):
        n = 100_000
        nb = NegBinParams(0.5, 0.4)
        draws = sample_negbin(nb, make_rng(26), size=n)
        top = int(np.max(draws))
        counts = np.bincount(draws, minlength=top + 1).astype(float)
        pmf = negbin_pmf(np.arange(top + 1), nb)
        # merge the tail so every expected cell is comfortably populated
        cut = int(np.searchsorted(np.cumsum(pmf), 1.0 - 50.0 / n))
        observed = np.append(counts[:cut], counts[cut:].sum())
        expected = n * np.append(pmf[:cut], 1.0 - pmf[:cut].sum())
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert float(chi2.sf(stat, observed.size - 1)) > 0.01


class TestLimitSampler:
    def test_direct_unit_case_ks(self):
        n = 10_000
        draws = sample_limit(ModelParams(1, 1, 1), Representation.DIRECT, make_rng(27), size=n)
        assert one_sample_ks(draws, lambda x: x / (1.0 + x)) < ks_critical_one_sample(n, 0.05)

    def test_direct_vs_folded_normal(self):
        n = 10_000
        p = ModelParams(0.876, 1.0, 0.9)
        a = sample_limit(p, Representation.DIRECT, make_rng(28), size=n)
        b = sample_limit(p, Representation.FOLDED_NORMAL, make_rng(29), size=n)
        assert ks_two_sample(a, b) < ks_critical_two_sample(n, n)

    def test_mixed_exponential_vs_analytic_cdf(self):
        n = 100_000
        p = ModelParams(0.5, 2.0, 0.8)
        draws = sample_limit(p, Representation.MIXED_EXPONENTIAL, make_rng(30), size=n)
        assert one_sample_ks(draws, lambda x: limit_cdf(x, p)) < ks_critical_one_sample(n)

    def test_pairwise_representations_agree(self):
        n = 10_000
        p = ModelParams(0.876, 1.0, 0.9)
        draws = {
            tag: sample_limit(p, tag, make_rng(33, stream), size=n)
            for stream, tag in enumerate(Representation)
        }
        tags = list(draws)
        critical = ks_critical_two_sample(n, n)
        for i, a in enumerate(tags):
            for b in tags[i + 1 :]:
                assert ks_two_sample(draws[a], draws[b]) < critical, (a, b)

    def test_moment_consistency(self):
        p = ModelParams(0.85, 1.5, 1.2)
        n = 200_000
        draws = sample_limit(p, Representation.DIRECT, make_rng(32), size=n)
        delta = p.gamma / 2.0
        powered = draws ** delta
        se = powered.std(ddof=1) / math.sqrt(n)
        assert abs(powered.mean() - limit_moment(delta, p)) < 3.0 * se

    def test_restricted_tags_reject_large_parameters(self):
        for tag in RESTRICTED_REPRESENTATIONS:
            with pytest.raises(RepresentationDomainError):
                sample_limit(ModelParams(0.5, 1.0, 1.5), tag, make_rng(33), size=2)
            with pytest.raises(RepresentationDomainError):
                sample_limit(ModelParams(1.5, 1.0, 0.5), tag, make_rng(33), size=2)
        # unrestricted forms accept any positive parameters
        sample_limit(ModelParams(2.0, 1.0, 3.0), Representation.DIRECT, make_rng(34), size=2)
        sample_limit(ModelParams(2.0, 1.0, 3.0), Representation.SNEDECOR_FISHER, make_rng(34), size=2)

    def test_tag_accepts_plain_string(self):
        a = sample_limit(ModelParams(1, 1, 1), "direct", make_rng(35), size=5)
        b = sample_limit(ModelParams(1, 1, 1), Representation.DIRECT, make_rng(35), size=5)
        np.testing.assert_array_equal(a, b)


# every tag at a restricted triple, at the r = 1 and gamma = 1 edges, and
# the two unrestricted tags with r and gamma above 1
PINNED_STREAMS = [
    pytest.param(triple, tag.value, id=f"{tag.value}-{triple[0]},{triple[1]},{triple[2]}")
    for triple in [(0.85, 1.5, 0.9), (1.0, 2.0, 1.0), (0.3, 0.7, 0.5), (2.5, 0.4, 2.0)]
    for tag in Representation
    if tag not in RESTRICTED_REPRESENTATIONS or max(triple[0], triple[2]) <= 1.0
]


class TestInPlaceArithmetic:
    @pytest.mark.parametrize("triple,tag", PINNED_STREAMS)
    def test_streams_equal_the_product_formulas_bit_for_bit(self, triple, tag):
        p = ModelParams(*triple)
        for stream, size in enumerate([7, 5000, (3, 4), 0]):
            rng, twin = make_rng(46, stream), make_rng(46, stream)
            draws = sample_limit(p, tag, rng, size=size)
            expected = limit_product_formula(p, tag, twin, size)
            assert draws.shape == expected.shape
            assert draws.tobytes() == expected.tobytes()
            assert rng.random() == twin.random()

    @pytest.mark.parametrize("triple,tag", PINNED_STREAMS)
    def test_one_variate_is_the_one_element_draw_as_a_float(self, triple, tag):
        p = ModelParams(*triple)
        for seed in range(50):
            rng, twin = make_rng(seed), make_rng(seed)
            value = sample_limit(p, tag, rng)
            assert type(value) is float
            assert value == limit_product_formula(p, tag, twin, 1)[0]
            assert rng.random() == twin.random()

    @pytest.mark.parametrize(
        "tag,arrays",
        [("direct", 2), ("snedecor-fisher", 2), ("stable", 4), ("weibull-ratio", 2),
         ("pareto-ratio", 3), ("folded-normal", 3), ("mixed-exponential", 4)],
    )
    def test_peak_memory_in_arrays_of_the_draws(self, tag, arrays):
        # each factor is folded into the result as soon as it is drawn
        n = 200_000
        p, rng = ModelParams(0.85, 1.5, 0.9), make_rng(47)
        tracemalloc.start()
        try:
            draws = sample_limit(p, tag, rng, size=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert draws.nbytes == 8 * n
        assert peak <= arrays * 8 * n + 65536  # array headers and small objects


class TestPrelimitMax:
    def test_empty_maximum_recorded_as_zero(self):
        # n = 1 makes p_n large, so zero counts occur often
        draws = simulate_prelimit_max(1, ModelParams(0.85, 0.5, 1.5), 0.9, 1.5, make_rng(36), size=2000)
        assert np.any(draws == 0.0)
        assert np.all(draws >= 0.0)

    def test_scalar_mode(self):
        value = simulate_prelimit_max(100, ModelParams(0.85, 1.0, 1.5), 0.5, 1.5, make_rng(37))
        assert isinstance(value, float)

    def test_converges_to_limit_law(self):
        p = ModelParams(0.85, 1.0, 1.5)
        draws = simulate_prelimit_max(10_000, p, 0.5, 1.5, make_rng(38), size=10_000)
        assert one_sample_ks(draws, lambda x: limit_cdf(x, p)) < 0.05

    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_matches_brute_force_maximum(self, n):
        p, size = ModelParams(0.85, 1.5, 1.2), 20_000
        draws = simulate_prelimit_max(n, p, 0.5, 1.2, make_rng(40 + n), size=size)
        brute = prelimit_max_brute_force(n, p, 0.5, 1.2, make_rng(140 + n), size)
        assert ks_two_sample(draws, brute) < ks_critical_two_sample(size, size)

    @pytest.mark.parametrize("n,q", [(1, 0.9), (10, 0.5), (100, 0.5)])
    def test_zero_share_is_p_to_the_r(self, n, q):
        p, size = ModelParams(0.85, 1.5, 1.2), 100_000
        atom = min(q, p.lam / n) ** p.r
        share = np.mean(simulate_prelimit_max(n, p, q, 1.2, make_rng(43), size=size) == 0.0)
        assert abs(share - atom) < 5.0 * math.sqrt(atom * (1.0 - atom) / size)

    def test_zero_uniform_is_an_empty_maximum_without_warning(self):
        class ZerosFirst:  # a generator whose uniforms start with an exact 0.0
            def random(self, size=None):
                return 0.0 if size is None else np.resize([0.0, 0.5, 1e-300, 1.0 - 2.0**-53], size)

        p = ModelParams(0.85, 1.5, 1.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert simulate_prelimit_max(10, p, 0.5, 1.2, ZerosFirst()) == 0.0
            draws = simulate_prelimit_max(10, p, 0.5, 1.2, ZerosFirst(), size=8)
        assert list(draws == 0.0) == [True, False, True, False] * 2
        assert np.all(np.isfinite(draws))

    def test_validates_arguments(self):
        p = ModelParams(1, 1, 1)
        with pytest.raises(ValueError):
            simulate_prelimit_max(0, p, 0.5, 1.0, make_rng(39))
        with pytest.raises(ValueError):
            simulate_prelimit_max(10, p, 1.5, 1.0, make_rng(39))
        with pytest.raises(ValueError):
            simulate_prelimit_max(10, p, 0.5, -1.0, make_rng(39))
