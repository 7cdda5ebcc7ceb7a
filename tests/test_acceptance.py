"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every statistical check uses fixed seeds, so the outcomes are
deterministic for a given numpy/scipy build.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from wetmax import (
    EmptySampleError,
    MaximaSample,
    ModelParams,
    NegBinParams,
    PrecipSeries,
    QuantileTriple,
    Representation,
    build_maxima,
    fit_least_squares,
    fit_mle,
    fit_quantile,
    ks_model,
    limit_cdf,
    limit_moment,
    limit_pdf,
    limit_quantile,
    make_rng,
    negbin_pmf,
    sample_limit,
    sample_stable_onesided,
    segment,
    simulate_prelimit_max,
    stable_moment,
)
from wetmax.cli import main as cli_main

from oracles import (
    integrate_against_odds_density,
    integrate_against_prob_density,
    ks_critical_one_sample,
    levy_cdf,
    log_likelihood,
    one_sample_ks,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _report(number: int, name: str, problems: list):
    status = "FAIL" if problems else "PASS"
    print(f"\n[criterion {number:02d}] {name}: {status}")
    for problem in problems:
        print(f"    - {problem}")
    assert not problems, f"criterion {number} ({name}): {problems}"


def test_criterion_01_analytic_identities():
    problems = []
    started = time.time()
    params_grid = [
        ModelParams(1.0, 1.0, 1.0),
        ModelParams(0.5, 2.0, 1.5),
        ModelParams(0.85, 2.0, 1.2),
        ModelParams(0.876, 3.0, 0.9),
        ModelParams(2.0, 0.5, 2.0),
    ]
    from scipy.integrate import quad

    for p in params_grid:
        # inverse identities to 1e-10 / 1e-12
        for eps in np.linspace(0.03, 0.97, 33):
            x = limit_quantile(eps, p)
            if abs(limit_cdf(x, p) - eps) > 1e-12:
                problems.append(f"cdf(quantile) off at {p}, eps={eps}")
            if abs(limit_quantile(limit_cdf(x, p), p) - x) > 1e-10 * max(1.0, x):
                problems.append(f"quantile(cdf) off at {p}, eps={eps}")
        # derivative identity to relative 1e-6 away from 0
        for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
            x = limit_quantile(eps, p)
            h = 1e-5 * x
            numeric = (limit_cdf(x + h, p) - limit_cdf(x - h, p)) / (2.0 * h)
            if abs(numeric - limit_pdf(x, p)) > 1e-6 * limit_pdf(x, p):
                problems.append(f"pdf != d(cdf)/dx at {p}, eps={eps}")
        # quadrature moments to relative 1e-6
        for frac in (0.1, 0.5, 0.9):
            delta = frac * p.gamma
            integral = sum(
                quad(lambda x: x ** delta * limit_pdf(x, p), a, b, limit=400)[0]
                for a, b in [(0.0, 1.0), (1.0, 1e3), (1e3, np.inf)]
            )
            if abs(limit_moment(delta, p) - integral) > 1e-6 * integral:
                problems.append(f"moment != quadrature at {p}, delta={delta}")
    elapsed = time.time() - started
    if elapsed > 10.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(1, "analytic cdf/pdf/quantile/moment identities", problems)


def test_criterion_02_mixing_density_identities():
    problems = []
    started = time.time()
    for r in (0.3, 0.5, 0.847, 0.876):
        for p in (0.322, 0.489, 0.7):
            nb = NegBinParams(r, p)
            pmf = negbin_pmf(np.arange(21), nb)
            for k in range(21):
                odds = integrate_against_odds_density(
                    lambda z, k=k: (z / (z + 1.0)) * (1.0 / (z + 1.0)) ** k, r, nb.mu
                )
                prob = integrate_against_prob_density(
                    lambda y, k=k: y * (1.0 - y) ** k, r, p
                )
                if abs(odds - pmf[k]) > 1e-8:
                    problems.append(f"odds density off at r={r}, p={p}, k={k}")
                if abs(prob - pmf[k]) > 1e-8:
                    problems.append(f"prob density off at r={r}, p={p}, k={k}")
    elapsed = time.time() - started
    if elapsed > 30.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _report(2, "mixing densities reproduce the negative binomial pmf", problems)


def test_criterion_03_representation_equivalence():
    problems = []
    started = time.time()
    n = 10_000
    critical = ks_critical_one_sample(n)
    heights = np.arange(1, n + 1) / n
    settings = list(itertools.product([0.5, 0.876, 1.0], [0.5, 0.876, 1.0], [0.5, 2.0]))
    for i, (r, gamma, lam) in enumerate(settings):
        params = ModelParams(r, lam, gamma)
        for j, tag in enumerate(Representation):
            below = 0
            for seed in range(100):
                rng = make_rng(7001, stream=(i * 7 + j) * 100 + seed)
                draws = np.sort(sample_limit(params, tag, rng, size=n))
                model = np.asarray(limit_cdf(draws, params))
                ks = max(np.max(heights - model), np.max(model - (heights - 1.0 / n)))
                below += ks < critical
            if below < 95:
                problems.append(
                    f"{tag.value} at (r={r}, gamma={gamma}, lam={lam}): {below}/100 below critical"
                )
    elapsed = time.time() - started
    if elapsed > 300.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 5min")
    _report(3, "every representation matches the analytic d.f. (KS, 1%)", problems)


def test_criterion_04_moment_cross_check():
    problems = []
    started = time.time()
    triples = [
        ModelParams(0.5, 0.5, 0.8),
        ModelParams(0.5, 2.0, 1.2),
        ModelParams(0.876, 1.0, 0.9),
        ModelParams(0.847, 2.0, 1.1),
        ModelParams(1.0, 1.5, 1.0),
        ModelParams(2.0, 3.0, 2.5),
    ]
    n = 1_000_000
    for i, params in enumerate(triples):
        draws = sample_limit(params, Representation.DIRECT, make_rng(8500, i), size=n)
        delta = params.gamma / 2.0
        powered = draws ** delta
        se = powered.std(ddof=1) / math.sqrt(n)
        gap = abs(float(powered.mean()) - limit_moment(delta, params))
        if gap > 3.0 * se:
            problems.append(f"moment off by {gap / se:.1f} SE at {params}")
    elapsed = time.time() - started
    if elapsed > 120.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 2min")
    _report(4, "empirical fractional moments match the closed form (3 SE)", problems)


def test_criterion_05_stable_law_checks():
    problems = []
    n = 1_000_000
    draws = sample_stable_onesided(0.5, make_rng(8600), size=n)
    powered = draws ** 0.25
    se = powered.std(ddof=1) / math.sqrt(n)
    gap = abs(float(powered.mean()) - stable_moment(0.5, 0.25))
    if gap > 3.0 * se:
        problems.append(f"stable quarter-moment off by {gap / se:.1f} SE")
    levy_draws = sample_stable_onesided(0.5, make_rng(8601), size=10_000)
    ks = one_sample_ks(levy_draws, levy_cdf)
    if ks >= ks_critical_one_sample(10_000):
        problems.append(f"Levy KS {ks:.5f} at or above the 1% critical value")
    _report(5, "one-sided stable sampler: moment and Levy d.f. checks", problems)


def test_criterion_06_prelimit_convergence():
    problems = []
    started = time.time()
    params = ModelParams(0.85, 1.0, 1.5)
    replicates = 10_000

    def ks_at(n, seed):
        draws = simulate_prelimit_max(n, params, 0.5, 1.5, make_rng(seed), size=replicates)
        return ks_model(draws, params).ks_distance

    big = ks_at(10_000, 8000)
    if big >= 0.05:
        problems.append(f"KS at n=10^4 is {big:.4f}, expected < 0.05")
    small_mean = float(np.mean([ks_at(100, 8100 + s) for s in range(20)]))
    big_mean = float(np.mean([ks_at(10_000, 8100 + s) for s in range(20)]))
    if big_mean >= small_mean:
        problems.append(f"mean KS not decreasing: n=100 gives {small_mean:.4f}, n=10^4 gives {big_mean:.4f}")
    elapsed = time.time() - started
    if elapsed > 300.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 5min")
    _report(6, "pre-limit maxima converge to the limit law", problems)


def test_criterion_07_estimator_recovery():
    problems = []
    started = time.time()
    seeds = range(50)

    truth = ModelParams(0.85, 1.5, 1.2)
    triple = QuantileTriple.from_tau(0.10)
    quantile_hits = 0
    likelihood_monotone = 0
    ks_improved = 0
    for seed in seeds:
        sample = MaximaSample(
            sample_limit(truth, Representation.DIRECT, make_rng(9000, seed), size=10_000)
        )
        rough = fit_quantile(sample, triple)
        err = max(
            abs(rough.r - truth.r) / truth.r,
            abs(rough.lam - truth.lam) / truth.lam,
            abs(rough.gamma - truth.gamma) / truth.gamma,
        )
        quantile_hits += err < 0.15
        refined = fit_mle(sample, rough)
        likelihood_monotone += refined.log_likelihood >= log_likelihood(sample.values, rough)
        ks_improved += ks_model(sample, refined.params).ks_distance <= ks_model(sample, rough).ks_distance
    if quantile_hits < 45:
        problems.append(f"quantile method within 15% on only {quantile_hits}/50 seeds")
    if likelihood_monotone < 50:
        problems.append(f"MLE decreased the likelihood on {50 - likelihood_monotone} seeds")
    if ks_improved < 35:
        problems.append(f"MLE improved KS on only {ks_improved}/50 seeds (need 35)")

    ls_truth = ModelParams(0.847, 2.0, 1.1)
    ls_hits = 0
    for seed in seeds:
        sample = MaximaSample(
            sample_limit(ls_truth, Representation.DIRECT, make_rng(9100, seed), size=10_000)
        )
        lam_hat, gamma_hat = fit_least_squares(sample, ls_truth.r)
        ls_hits += (
            abs(lam_hat - ls_truth.lam) / ls_truth.lam < 0.10
            and abs(gamma_hat - ls_truth.gamma) / ls_truth.gamma < 0.10
        )
    if ls_hits < 45:
        problems.append(f"least squares within 10% on only {ls_hits}/50 seeds")

    elapsed = time.time() - started
    if elapsed > 600.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 10min")
    _report(7, "estimator recovery rates on synthetic samples", problems)


def test_criterion_08_noiseless_inversions():
    problems = []

    truth = ModelParams(0.8, 2.0, 1.4)
    m = 100
    values = [limit_quantile(i / m, truth) for i in range(1, m)]
    values.append(2.0 * values[-1])
    fitted = fit_quantile(MaximaSample(np.array(values)))
    for name, got, want in (
        ("r", fitted.r, truth.r),
        ("lambda", fitted.lam, truth.lam),
        ("gamma", fitted.gamma, truth.gamma),
    ):
        if abs(got - want) > 1e-8 * want:
            problems.append(f"quantile inversion drifts in {name}: {got} vs {want}")

    r, lam, gamma = 0.876, 3.0, 0.9
    i = np.arange(1, 200, dtype=float)
    body = (i ** (1 / r) / (lam * (200 ** (1 / r) - i ** (1 / r)))) ** (1 / gamma)
    sample = MaximaSample(np.append(body, 2.0 * body[-1]))
    lam_hat, gamma_hat = fit_least_squares(sample, r)
    if abs(lam_hat - lam) > 1e-9 * lam or abs(gamma_hat - gamma) > 1e-9 * gamma:
        problems.append(f"least squares drifts: ({lam_hat}, {gamma_hat}) vs ({lam}, {gamma})")

    for p in (ModelParams(0.876, 3.0, 0.9), ModelParams(2.0, 0.5, 2.0)):
        for eps in np.linspace(0.05, 0.95, 19):
            x = limit_quantile(eps, p)
            if abs(limit_quantile(limit_cdf(x, p), p) - x) > 1e-10 * max(1.0, x):
                problems.append(f"round trip drifts at {p}, eps={eps}")

    _report(8, "noiseless inversions are exact", problems)


def test_criterion_09_pipeline_fixtures():
    problems = []

    wp = segment(PrecipSeries(np.array([0.0, 1.0, 2.0, 0.0, 3.0, 0.0])), 0.0)
    if [list(p) for p in wp.periods] != [[1.0, 2.0], [3.0]] or wp.lengths != [2, 1]:
        problems.append("basic segmentation fixture mismatch")
    if segment(PrecipSeries(np.zeros(4) + 0.0)).m != 0:
        problems.append("all-dry series should give zero periods")
    wp2 = segment(PrecipSeries(np.array([5.0, 0.0, 0.0, 7.0, 8.0, 9.0])), 0.0)
    if [list(p) for p in wp2.periods] != [[5.0], [7.0, 8.0, 9.0]] or wp2.lengths != [1, 3]:
        problems.append("leading/trailing run fixture mismatch")
    if build_maxima(wp, 1).values.tolist() != [2.0, 3.0]:
        problems.append("maxima at h=1 mismatch")
    if build_maxima(wp, 2).values.tolist() != [2.0]:
        problems.append("maxima at h=2 mismatch")
    try:
        build_maxima(wp, 3)
        problems.append("h=3 should raise the empty-sample error")
    except EmptySampleError:
        pass
    if wp.lengths != [2, 1]:
        problems.append("durations fixture mismatch")

    rng = np.random.default_rng(123)
    for _ in range(5):
        values = np.where(rng.random(1500) < 0.65, rng.uniform(0.1, 8.0, 1500), 0.0)
        if not values.any():
            continue
        periods = segment(PrecipSeries(values))
        sizes = []
        for h in range(1, 8):
            try:
                sizes.append(build_maxima(periods, h).m)
            except EmptySampleError:
                sizes.append(0)
        if sizes != sorted(sizes, reverse=True):
            problems.append(f"censored sample size not nonincreasing: {sizes}")

    _report(9, "segmentation / maxima / censoring fixtures", problems)


def test_criterion_10_end_to_end_cli(tmp_path, capsys):
    problems = []

    fixture = str(FIXTURES / "precip_seed42.csv")
    truth = {"r": 0.85, "lambda": 1.5, "gamma": 1.2}

    # determinism: two runs agree byte-for-byte and match the committed report
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        code = cli_main(["fit", "--input", fixture, "--method", "all", "--r", "0.85",
                         "--out", str(out)])
        if code != 0:
            problems.append(f"fit exited {code}")
    if out_a.read_text() != out_b.read_text():
        problems.append("fit output not reproducible across runs")
    got = json.loads(out_a.read_text())
    expected = json.loads((FIXTURES / "expected_fit_seed42.json").read_text())
    got.pop("input"), expected.pop("input")
    if got != expected:
        problems.append("fit report differs from the committed expected report")

    # recovery on the committed fixture
    for method, tolerance in (("ls", 0.10), ("mle", 0.15), ("quantile", 0.15)):
        report = expected["reports"][method]
        for key in ("lambda", "gamma"):
            if abs(report[key] - truth[key]) / truth[key] >= tolerance:
                problems.append(f"{method} misses {key} by more than {tolerance:.0%}")

    # simulate | fit: draws written by the CLI feed the fit as a maxima sample
    draws_path = tmp_path / "draws.txt"
    code = cli_main(["simulate", "--r", "0.85", "--lambda", "1.5", "--gamma", "1.2",
                     "--n", "10000", "--seed", "5", "--out", str(draws_path)])
    if code != 0:
        problems.append(f"simulate exited {code}")
    fit_out = tmp_path / "roundtrip.json"
    code = cli_main(["fit", "--input", str(draws_path), "--input-kind", "maxima",
                     "--method", "all", "--r", "0.85", "--out", str(fit_out)])
    if code != 0:
        problems.append(f"round-trip fit exited {code}")
    else:
        doc = json.loads(fit_out.read_text())
        for method, report in doc["reports"].items():
            for key in ("lambda", "gamma"):
                if abs(report[key] - truth[key]) / truth[key] >= 0.15:
                    problems.append(f"round-trip {method} misses {key} by >= 15%")

    # gof-sweep over the fixture is reproducible and nonincreasing in m
    sweep_a, sweep_b = tmp_path / "sa.tsv", tmp_path / "sb.tsv"
    for out in (sweep_a, sweep_b):
        code = cli_main(["gof-sweep", "--input", fixture, "--method", "ls", "--r", "0.85",
                         "--h-range", "1:4", "--out", str(out)])
        if code != 0:
            problems.append(f"gof-sweep exited {code}")
    if sweep_a.read_text() != sweep_b.read_text():
        problems.append("gof-sweep output not reproducible")
    rows = [line.split("\t") for line in sweep_a.read_text().splitlines()[1:]]
    sizes = [int(row[1]) for row in rows]
    if sizes != sorted(sizes, reverse=True):
        problems.append(f"gof-sweep sample sizes not nonincreasing: {sizes}")

    _report(10, "end-to-end CLI on the committed seed-42 fixture", problems)
