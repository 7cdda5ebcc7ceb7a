"""Tests of the benchmark's own parts: python3 -m pytest bench/test_bench.py

The generator's recorded truth must describe the series it writes, and its
closed forms must agree with quadrature, so that the output checks compare
the program against something right.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

TRIPLES = [(0.7, 1.5, 0.8), (1.2, 2.0, 1.3), (0.85, 0.05, 1.1)]


def _runs(values):
    """Wet runs of a series by a plain loop: a day is wet when > 0, NaN ends a run."""
    lengths, maxima, splits, run_ = [], [], 0, []
    for i, v in enumerate(values):
        if v == v and v > 0.0:
            run_.append(v)
            continue
        if run_:
            lengths.append(len(run_))
            maxima.append(max(run_))
            run_ = []
        if v != v and 0 < i < len(values) - 1 and values[i - 1] > 0.0 and values[i + 1] > 0.0:
            splits += 1
    if run_:
        lengths.append(len(run_))
        maxima.append(max(run_))
    return lengths, maxima, splits


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_station_truth_matches_series(seed):
    st = gen.make_station(np.random.default_rng(seed), "t", 8, (0.8, 0.3, 0.1, 1.2))
    lengths, maxima, splits = _runs(list(st.values))
    assert st.values.size == 8 * 365
    assert lengths == list(st.lengths)
    assert maxima == list(st.maxima)
    assert splits == st.split_warnings > 0
    assert np.sum(np.isnan(st.values)) > st.split_warnings  # missing days that split nothing too


def test_station_csv_round_trips():
    st = gen.make_station(np.random.default_rng(3), "t", 2, (0.8, 0.3, 0.1, 1.2))
    rows = st.csv_text().splitlines()
    assert rows[0] == "date,value_mm" and len(rows) == 1 + st.values.size
    parsed = np.array([float("nan") if r.split(",")[1] == "NA" else float(r.split(",")[1]) for r in rows[1:]])
    assert np.array_equal(parsed, st.values, equal_nan=True)
    assert rows[1].startswith("1950-01-01,") and rows[-1].startswith("1951-12-31,")


@pytest.mark.parametrize("triple", TRIPLES)
def test_cdf_and_log_pdf_agree_with_quadrature(triple):
    pdf = lambda t: math.exp(gen.log_pdf(t, *triple))  # noqa: E731
    total, _ = integrate.quad(pdf, 0.0, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=1e-7)
    for u in (0.05, 0.5, 0.95):
        x = float(gen.quantile(u, *triple))
        area, _ = integrate.quad(pdf, 0.0, x, limit=200)
        assert area == pytest.approx(u, abs=1e-7)
        assert float(gen.cdf(x, *triple)) == pytest.approx(u, rel=1e-12)


@pytest.mark.parametrize("n", gen.PRELIMIT_N)
def test_prelimit_law_agrees_with_quadrature(n):
    """NegBin(r, p) is Poisson with a Gamma(r, rate p/(1-p)) rate L, so
    P(M <= x) = E exp(-L (1 - s)), integrated here against the gamma density."""
    r, lam, gamma = gen.RESTRICTED
    p = min(gen.PRELIMIT_Q, lam / n)
    rate = p / (1.0 - p)
    for x in (0.0, 0.5 * n ** (-1.0 / gamma), 0.3, 1.0, 4.0, 50.0):
        s = max(0.0, 1.0 - 1.0 / (n * x ** gamma)) if x > 0.0 else 0.0
        value, _ = integrate.quad(lambda L: stats.gamma.pdf(L, r, scale=1.0 / rate) * math.exp(-L * (1.0 - s)),
                                  0.0, np.inf, limit=200)
        assert float(gen.prelimit_cdf(x, n, r, lam, gen.PRELIMIT_Q, gamma)) == pytest.approx(value, abs=1e-8)


def test_ks_distance_matches_scipy():
    x = gen.quantile(np.random.default_rng(4).random(500), *TRIPLES[0])
    xs = np.sort(x)
    ours = gen.ks_distance(xs, gen.cdf(xs, *TRIPLES[0]))
    assert ours == pytest.approx(stats.kstest(x, lambda t: gen.cdf(t, *TRIPLES[0])).statistic, abs=1e-12)


def test_draw_checks_reject_the_wrong_law():
    rng = np.random.default_rng(5)
    right = gen.quantile(rng.random(200_000), *gen.RESTRICTED)
    assert checks.check_limit_draws(right, gen.RESTRICTED, "right") == []
    assert checks.check_limit_draws(right * 1.05, gen.RESTRICTED, "scaled") != []
    assert checks.check_prelimit_draws(right, 10, gen.RESTRICTED, "limit as pre-limit") != []


@pytest.mark.parametrize("n", gen.PRELIMIT_N)
def test_prelimit_check_accepts_the_exact_law(n):
    """Draw the pre-limit maximum directly: N ~ NegBin(r, p), the largest of N
    uniforms is U^(1/N), mapped through the Pareto quantile."""
    r, lam, gamma = gen.RESTRICTED
    rng = np.random.default_rng(n)
    counts = rng.negative_binomial(r, min(gen.PRELIMIT_Q, lam / n), size=200_000)
    u = rng.random(counts.size)
    with np.errstate(divide="ignore"):
        top = (1.0 - u ** (1.0 / np.maximum(counts, 1))) ** (-1.0 / gamma) / n ** (1.0 / gamma)
    values = np.where(counts > 0, top, 0.0)
    assert checks.check_prelimit_draws(values, n, gen.RESTRICTED, "exact") == []


def test_segment_check_catches_a_merged_spell(tmp_path):
    st = gen.make_station(np.random.default_rng(6), "t", 3, (0.8, 0.3, 0.1, 1.2))
    periods = [[float(m)] * int(n) for n, m in zip(st.lengths, st.maxima)]
    doc = {"periods": periods, "lengths": [int(n) for n in st.lengths], "warnings": ["w"] * st.split_warnings}
    path = tmp_path / "seg.json"
    path.write_text(run.json.dumps(doc))
    assert checks.check_segment(st, path) == []
    doc["periods"][:2] = [doc["periods"][0] + doc["periods"][1]]
    doc["lengths"][:2] = [doc["lengths"][0] + doc["lengths"][1]]
    path.write_text(run.json.dumps(doc))
    assert len(checks.check_segment(st, path)) == 2


def test_sweep_check_catches_a_blank_cell(tmp_path):
    from wetmax.cli import main
    st = gen.make_station(np.random.default_rng(8), "t", 3, (0.8, 0.3, 0.1, 1.2))
    csv, out, plots = tmp_path / "t.csv", tmp_path / "sweep.tsv", tmp_path / "plots"
    csv.write_text(st.csv_text())
    assert main(["gof-sweep", "--input", str(csv), "--method", "all", "--r", "from-durations",
                 "--h-range", "1:4", "--plot-dir", str(plots), "--out", str(out)]) == 0
    assert checks.check_sweep(st, out, plots, 4) == []
    lines = out.read_text().splitlines()
    cells = lines[2].split("\t")
    cells[3] = ""  # ls at h = 2, where m is in the hundreds
    out.write_text("\n".join(lines[:2] + ["\t".join(cells)] + lines[3:]) + "\n")
    assert len(checks.check_sweep(st, out, plots, 4)) == 1


def test_median_check_catches_a_bias_of_four_sds():
    """Normal estimates with sd proportional to 1/sqrt(m): no bias passes, a
    bias of four replicate sds in one cell fails there."""
    rng = np.random.default_rng(9)
    cells = [gen.Cell(0.7, 1.5, 0.8, m, 0.3, [], []) for m in (400, 1000, 3000)]
    truth = np.array([0.7, 1.5, 0.8])

    def fits(m, shift=0.0):
        out = []
        for _ in range(6):
            est = {name: tuple(truth * (1.0 + 3.0 / math.sqrt(m) * (rng.standard_normal(3) + shift)))
                   for name in ("quantile", "ls", "mle_fixed", "mle_free")}
            est["negbin_r"] = 0.7 * (1.0 + 3.0 / math.sqrt(m) * (rng.standard_normal() + shift))
            out.append(est)
        return out

    assert checks.check_medians(cells, [fits(c.m) for c in cells]) == []
    errors = checks.check_medians(cells, [fits(400), fits(1000), fits(3000, shift=4.0)])
    assert errors and all("m=3000" in e for e in errors)


def test_tracer_self_time_and_uninstall():
    import wetmax.cli
    import wetmax.gof
    original = wetmax.gof.ks_model
    tracer = Tracer()
    tracer.install()
    try:
        assert wetmax.cli.ks_model is wetmax.gof.ks_model is not original
        x = gen.quantile(np.random.default_rng(7).random(100), *TRIPLES[0])
        tracer.call("outer", wetmax.gof.ks_model, x, wetmax.ModelParams(*TRIPLES[0]))
    finally:
        tracer.uninstall()
    assert wetmax.cli.ks_model is wetmax.gof.ks_model is original
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "gof.ks_model", "distributions.limit_cdf"]
    inclusive, own = tracer.totals()
    assert own["outer"] == pytest.approx(inclusive["outer"] - inclusive["gof.ks_model"])
    assert tracer.counts["distributions.limit_cdf.points"] == 100


def test_import_seconds_reads_cumulative_microseconds():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      120 |     350000 |   scipy.special\n"
            "import time:       80 |     900000 | wetmax\n")
    assert run.import_seconds(text) == pytest.approx({"import.scipy_special_s": 0.35, "import.wetmax_s": 0.9})


def test_host_factors_are_kernel_medians_over_nominal():
    import hostref
    samples = [{kind: nominal * f * (2.0 if kind == "np" else 1.0) for kind, nominal in hostref.NOMINAL_S.items()}
               for f in (0.9, 1.5, 1.2)]
    assert hostref.host_factor(samples) == pytest.approx(1.2 * 2.0 ** (1.0 / 3.0))
    assert all(t > 0.0 for t in hostref.Reference().time_all().values())
