"""Output checks: each compares the program's output with a value computed
apart from it (the generator's recorded truth, the closed forms in
:mod:`gen`) or with a property the method must have.

Each function returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import gammaln

import gen

KS_TOL = 1e-8          # reported distances carry 12 significant digits
LL_TOL = 1e-9          # relative slack on log likelihood comparisons
# the smallest m each gof-sweep method is defined for: the quantile fit at
# the default triple needs the order statistic [m/4] >= 1; least squares
# needs m >= 3, and the MLE with a known r starts from it
SWEEP_MIN_M = {"quantile": 4, "ls": 3, "mle": 3}


def _positive(*values):
    return all(math.isfinite(v) and v > 0.0 for v in values)


def _ks(sample, r, lam, g):
    xs = np.sort(sample)
    return gen.ks_distance(xs, gen.cdf(xs, r, lam, g))


def _ll(sample, r, lam, g):
    return float(np.sum(gen.log_pdf(sample, r, lam, g)))


def negbin_r_tolerance(lengths, r_hat):
    """Five standard errors of the NegBin shape estimate, from the observed
    information of the profile log likelihood (p = r / (r + mean))."""
    k = np.asarray(lengths, dtype=float) - 1.0
    mean = k.mean()

    def profile(r):
        p = r / (r + mean)
        return float(np.sum(gammaln(r + k)) - k.size * gammaln(r)
                     + k.size * r * np.log(p) + k.sum() * np.log1p(-p))

    h = 1e-3 * r_hat
    curvature = (profile(r_hat + h) - 2.0 * profile(r_hat) + profile(r_hat - h)) / (h * h)
    return 5.0 / math.sqrt(-curvature) if curvature < 0.0 else math.inf


# ---------------------------------------------------------------------------
# stations


def check_segment(station, path: Path):
    doc = json.loads(path.read_text())
    errors = []
    lengths = np.array(doc["lengths"])
    if not np.array_equal(lengths, station.lengths):
        errors.append(f"{station.name}: segment lengths differ from the generated spells")
    maxima = np.array([max(p) for p in doc["periods"]])
    if maxima.shape != station.maxima.shape or not np.array_equal(maxima, station.maxima):
        errors.append(f"{station.name}: segment maxima differ from the generated maxima")
    if len(doc["warnings"]) != station.split_warnings:
        errors.append(f"{station.name}: {len(doc['warnings'])} split warnings, "
                      f"{station.split_warnings} missing days sit between wet days")
    return errors


def _check_r(station, r_given):
    tol = negbin_r_tolerance(station.lengths, r_given)
    if abs(r_given - station.r) > tol:
        return [f"{station.name}: r from durations {r_given:.4f} is not within {tol:.4f} of {station.r:.4f}"]
    return []


def check_fit(station, path: Path):
    doc = json.loads(path.read_text())
    errors = []
    if doc["m"] != station.maxima.size:
        errors.append(f"{station.name}: fit m={doc['m']}, {station.maxima.size} spells generated")
    errors += _check_r(station, doc["r_given"])
    reports = doc["reports"]
    if sorted(reports) != ["ls", "mle", "quantile"]:
        return errors + [f"{station.name}: fit reports {sorted(reports)}"]
    for name, rep in reports.items():
        if not _positive(rep["r"], rep["lambda"], rep["gamma"]):
            errors.append(f"{station.name}: {name} parameters not finite and positive")
            continue
        ks = _ks(station.maxima, rep["r"], rep["lambda"], rep["gamma"])
        if abs(ks - rep["ks_distance"]) > KS_TOL:
            errors.append(f"{station.name}: {name} ks {rep['ks_distance']} != recomputed {ks}")
    ls, mle = reports["ls"], reports["mle"]
    if ls["r"] != doc["r_given"] or mle["r"] != doc["r_given"]:
        errors.append(f"{station.name}: ls/mle do not keep r fixed at r_given")
    ll_start = _ll(station.maxima, ls["r"], ls["lambda"], ls["gamma"])
    ll_mle = _ll(station.maxima, mle["r"], mle["lambda"], mle["gamma"])
    if abs(ll_mle - mle["log_likelihood"]) > LL_TOL * abs(ll_mle):
        errors.append(f"{station.name}: mle log likelihood {mle['log_likelihood']} != recomputed {ll_mle}")
    if ll_mle < ll_start - LL_TOL * abs(ll_start):
        errors.append(f"{station.name}: mle log likelihood {ll_mle} below its start {ll_start}")
    return errors


def check_sweep(station, out: Path, plot_dir: Path, h_max: int):
    lines = out.read_text().splitlines()
    errors = []
    head = lines[0].split("\t")
    if head != ["h", "m", "ks_quantile", "ks_ls", "ks_mle"] or len(lines) != h_max + 1:
        return [f"{station.name}: sweep table layout {head}, {len(lines)} lines"]
    for line in lines[1:]:
        cells = line.split("\t")
        h, m = int(cells[0]), int(cells[1])
        kept = station.maxima[station.lengths >= h]
        if m != kept.size:
            errors.append(f"{station.name}: sweep m={m} at h={h}, {kept.size} spells of length >= h")
            continue
        for method, cell in zip(("quantile", "ls", "mle"), cells[2:]):
            if (cell == "") != (m < SWEEP_MIN_M[method]):
                errors.append(f"{station.name}: h={h} m={m} {method} cell {cell!r}: a blank belongs "
                              f"exactly where m < {SWEEP_MIN_M[method]}")
                continue
            if cell == "":
                continue
            text = (plot_dir / f"gof_h{h}_{method}.tsv").read_text().splitlines()
            fields = dict(tok.split("=") for tok in text[0][2:].split())
            r, lam, g = float(fields["r"]), float(fields["lambda"]), float(fields["gamma"])
            ks = _ks(kept, r, lam, g)
            if abs(ks - float(cell)) > KS_TOL or abs(ks - float(fields["ks"])) > KS_TOL:
                errors.append(f"{station.name}: h={h} {method} ks {cell} != recomputed {ks}")
            rows = np.array([[float(v) for v in row.split("\t")] for row in text[1:]])
            if np.max(np.abs(rows[:, 2] - gen.cdf(rows[:, 0], r, lam, g))) > 1e-9:
                errors.append(f"{station.name}: h={h} {method} plot model column != closed form")
    return errors


# ---------------------------------------------------------------------------
# replicates


def check_replicate(cell, k, fits):
    """One replicate's fits: finite positive parameters, MLE never loses likelihood."""
    x = cell.maxima[k]
    errors = []
    for name in ("quantile", "ls", "mle_fixed", "mle_free"):
        if not _positive(*fits[name]):
            errors.append(f"cell m={cell.m} ({cell.r},{cell.lam},{cell.gamma}) rep {k}: {name} {fits[name]}")
    if not _positive(fits["negbin_r"]):
        errors.append(f"cell m={cell.m} rep {k}: negbin r {fits['negbin_r']}")
    if errors:
        return errors
    for name, ks in fits["ks"].items():
        if abs(ks - _ks(x, *fits[name])) > KS_TOL:
            errors.append(f"cell m={cell.m} rep {k}: {name} ks {ks} != recomputed {_ks(x, *fits[name])}")
    for mle, start in (("mle_fixed", "ls"), ("mle_free", "quantile")):
        ll_start, ll_mle = _ll(x, *fits[start]), _ll(x, *fits[mle])
        if ll_mle < ll_start - LL_TOL * abs(ll_start):
            errors.append(f"cell m={cell.m} rep {k}: {mle} log likelihood {ll_mle} below its start {ll_start}")
    return errors


# The median check: each cell's median estimate may lie MEDIAN_K standard
# errors of the median plus BIAS_SD replicate standard deviations from the
# truth.  Both scale with the replicate sd at that m, sigma / sqrt(m), where
# sigma is pooled over the cells of the triple (three sizes, 15 degrees of
# freedom at 6 replicates), so one cell's few replicates do not set its own
# bound.  See README.md for how the constants were chosen.
MEDIAN_K = 6.0
BIAS_SD = 0.5


def _estimates(fits):
    """(estimator, parameter) -> the array of one cell's replicate estimates."""
    out = {("negbin_r", "r"): [f["negbin_r"] for f in fits]}
    for name in ("quantile", "ls", "mle_fixed", "mle_free"):
        for i, param in enumerate(("r", "lam", "gamma")):
            if not (param == "r" and name in ("ls", "mle_fixed")):
                out[(name, param)] = [f[name][i] for f in fits]
    return {key: np.asarray(values) for key, values in out.items()}


def check_medians(cells, fits_by_cell):
    """The cells of one true triple, one per sample size m, each with the
    fits of its replicates: per cell, estimator and parameter, the median
    estimate lies within the bound above of the truth."""
    estimates = [_estimates(fits) for fits in fits_by_cell]
    errors = []
    for key in estimates[0]:
        ss = sum(cell.m * float(np.sum((e[key] - e[key].mean()) ** 2)) for cell, e in zip(cells, estimates))
        sigma = math.sqrt(ss / sum(e[key].size - 1 for e in estimates))
        for cell, e in zip(cells, estimates):
            sd = sigma / math.sqrt(cell.m)
            bound = MEDIAN_K * 1.2533 * sd / math.sqrt(e[key].size) + BIAS_SD * sd
            truth = {"r": cell.r, "lam": cell.lam, "gamma": cell.gamma}[key[1]]
            med = float(np.median(e[key]))
            if abs(med - truth) > bound:
                errors.append(f"cell m={cell.m} ({cell.r},{cell.lam},{cell.gamma}): median {key[0]} {key[1]} "
                              f"{med:.4g} not within {bound:.3g} of {truth}")
    return errors


# ---------------------------------------------------------------------------
# draws


def check_limit_draws(values, triple, label):
    n = values.size
    xs = np.sort(values)
    ks = gen.ks_distance(xs, gen.cdf(xs, *triple))
    crit = gen.ks_critical(n)
    return [] if ks < crit else [f"{label}: KS {ks:.5f} >= critical {crit:.5f} (n={n})"]


def check_prelimit_draws(values, n, triple, label):
    """KS distance to the exact pre-limit law, which has an atom p^r at 0."""
    r, lam, gamma = triple
    size = values.size
    xs = np.sort(values)
    zeros = int(np.sum(xs == 0.0))
    atom = float(gen.prelimit_cdf(0.0, n, r, lam, gen.PRELIMIT_Q, gamma))
    f = gen.prelimit_cdf(xs[zeros:], n, r, lam, gen.PRELIMIT_Q, gamma)
    i = np.arange(zeros + 1, size + 1) / size
    ks = max(abs(zeros / size - atom),
             float(np.max(np.maximum(np.abs(i - f), np.abs(f - (i - 1.0 / size))), initial=0.0)))
    crit = gen.ks_critical(size)
    return [] if ks < crit else [f"{label}: KS {ks:.5f} >= critical {crit:.5f} (n={size})"]
