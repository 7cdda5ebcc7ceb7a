"""Independent numerical oracles shared by the test modules.

Everything here is deliberately computed through a different route than the
library code it checks: quadrature instead of closed forms, bisection
instead of algebraic inversion, math.gamma instead of gammaln, and the
closed Levy distribution function for the alpha = 1/2 stable law.  Where a
library routine replaced a loop, the loop is kept here as its reference.
"""

import csv
import io
import math
from typing import List

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize, minimize_scalar
from scipy.special import erfc, gammaln

from wetmax import (
    CsvFormatError,
    EstimationError,
    GammaParams,
    ModelParams,
    NegBinParams,
    PrecipSeries,
    limit_cdf,
    limit_log_pdf,
    sample_gamma,
    sample_stable_onesided,
)


def ks_critical_one_sample(n: int, level: float = 0.01) -> float:
    """Asymptotic Kolmogorov-Smirnov critical value for a one-sample test."""
    coefficient = {0.01: 1.628, 0.05: 1.358}[level]
    return coefficient / math.sqrt(n)


def ks_critical_two_sample(n: int, m: int, level: float = 0.01) -> float:
    coefficient = {0.01: 1.628, 0.05: 1.358}[level]
    return coefficient * math.sqrt((n + m) / (n * m))


def ks_two_sample(a, b) -> float:
    """Exact sup |empirical d.f. of a - empirical d.f. of b| over the pooled values."""
    a, b = np.sort(a), np.sort(b)
    merged = np.concatenate([a, b])
    return float(
        np.max(
            np.abs(
                np.searchsorted(a, merged, side="right") / a.size
                - np.searchsorted(b, merged, side="right") / b.size
            )
        )
    )


def levy_cdf(x):
    """Distribution function of the alpha = 1/2 one-sided stable law.

    For the Laplace-transform normalization exp(-sqrt(s)) the law is
    1/(2 Z^2) for a standard normal Z, i.e. P(S < x) = erfc(1/(2 sqrt(x))).
    """
    x = np.asarray(x, dtype=float)
    return erfc(1.0 / (2.0 * np.sqrt(x)))


def bisect_inverse(fn, target: float, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Invert a monotone increasing function by plain bisection."""
    f_lo, f_hi = fn(lo) - target, fn(hi) - target
    assert f_lo <= 0.0 <= f_hi, "target not bracketed"
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, mid):
            break
        if fn(mid) - target <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def integrate_against_odds_density(fn, r: float, mu: float) -> float:
    """Integral of fn(z) against the odds mixing density on [mu, inf).

    The density is const * (z - mu)^(-r) / z; substituting u = (z - mu)^(1-r)
    removes the endpoint singularity exactly, leaving a bounded integrand.
    """
    const = math.exp(r * math.log(mu) - math.lgamma(1.0 - r) - math.lgamma(r))
    power = 1.0 / (1.0 - r)

    def transformed(u):
        z = mu + u ** power
        return fn(z) / z

    value, _err = quad(transformed, 0.0, np.inf, limit=400, epsabs=1e-12, epsrel=1e-11)
    return const * value / (1.0 - r)


def integrate_against_prob_density(fn, r: float, p: float) -> float:
    """Integral of fn(y) against the success-probability mixing density on (p, 1).

    The density is const * (1-y)^(r-1) / (y (y-p)^r), singular at both ends;
    each half gets its own singularity-removing substitution
    (u = (y-p)^(1-r) on the left, v = (1-y)^r on the right).
    """
    const = math.exp(r * math.log(p) - math.lgamma(1.0 - r) - math.lgamma(r))
    mid = 0.5 * (p + 1.0)

    power_left = 1.0 / (1.0 - r)

    def left(u):
        y = p + u ** power_left
        return fn(y) * (1.0 - y) ** (r - 1.0) / y

    left_value, _ = quad(
        left, 0.0, (mid - p) ** (1.0 - r), limit=400, epsabs=1e-12, epsrel=1e-11
    )

    power_right = 1.0 / r

    def right(v):
        y = 1.0 - v ** power_right
        return fn(y) / (y * (y - p) ** r)

    right_value, _ = quad(
        right, 0.0, (1.0 - mid) ** r, limit=400, epsabs=1e-12, epsrel=1e-11
    )
    return const * (left_value / (1.0 - r) + right_value / r)


def one_sample_ks(values, cdf) -> float:
    """Exact one-sample Kolmogorov-Smirnov statistic (local copy for oracles)."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    model = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(np.abs(i - model), np.abs(i - 1.0 / n - model))))


def segment_loop(values, wet_threshold=0.0, dates=None):
    """Wet runs found by walking the series one day at a time.

    The loop form of :func:`wetmax.segment`: returns the runs (lists of
    values, in series order) and the warnings.  A run ends at a dry or
    missing day, and at a calendar gap between two dated rows; a missing day
    or a gap between two wet days is noted.
    """
    values = np.asarray(values, dtype=float)
    days = None if dates is None else np.array(dates, dtype="datetime64[D]").astype(np.int64)
    missing = np.isnan(values)
    wet = ~missing & (values > wet_threshold)
    periods, warnings, start = [], [], None
    for i in range(values.size + 1):
        is_wet = i < values.size and wet[i]
        gap = days is not None and 0 < i < values.size and days[i] - days[i - 1] > 1
        if start is not None and (not is_wet or gap):
            periods.append([float(v) for v in values[start:i]])
            start = None
            if is_wet:
                warnings.append(
                    f"calendar gap of {days[i] - days[i - 1] - 1} day(s) between "
                    f"{dates[i - 1]} and {dates[i]} (index {i}) split a wet run"
                )
        if is_wet and start is None:
            start = i
        if 0 < i < values.size - 1 and missing[i] and wet[i - 1] and wet[i + 1]:
            warnings.append(f"missing day at index {i} split a wet run")
    return periods, warnings


def _is_iso_date(text: str) -> bool:
    try:
        return len(text) == 10 and not np.isnat(np.datetime64(text, "D"))
    except ValueError:
        return False


def _parse_cell(cell: str, line_no: int, missing_marker: str) -> float:
    cell = cell.strip()
    if cell == missing_marker:
        return float("nan")
    try:
        value = float(cell)
    except ValueError:
        raise CsvFormatError(f"line {line_no}: cannot parse value {cell!r}") from None
    if not np.isfinite(value):
        raise CsvFormatError(f"line {line_no}: value {cell!r} is not finite")
    if value < 0.0:
        raise CsvFormatError(f"line {line_no}: negative precipitation {cell!r}")
    return value


def _has_header(first: List[str], missing_marker: str) -> bool:
    cell = first[-1].strip()
    if cell == missing_marker:
        return False
    try:
        float(cell)
    except ValueError:
        return True
    return False


def parse_csv_lines(text: str, path: str, missing_marker: str) -> PrecipSeries:
    """Row-by-row ``csv.reader`` parse that names the first offending line.

    The reference for :func:`wetmax.ingest_csv`, which splits plain text
    with ``str`` methods and converts and checks the dates and values as
    arrays.  Each row is checked in turn: its cell count against the first
    row's, its date (a ten-character string numpy reads as a day, after
    the previous row's date), then its value.
    """
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise CsvFormatError(f"{path!r} is empty")
    first = rows[0]
    if len(first) not in (1, 2):
        raise CsvFormatError(f"line 1: expected 1 or 2 columns, got {len(first)}")
    two_columns = len(first) == 2
    start = 1 if _has_header(first, missing_marker) else 0

    values: List[float] = []
    dates: List[str] = []
    for offset, row in enumerate(rows[start:], start=start + 1):
        if len(row) != len(first):
            raise CsvFormatError(
                f"line {offset}: expected {len(first)} column(s), got {len(row)}"
            )
        if two_columns:
            date = row[0].strip()
            if not _is_iso_date(date):
                raise CsvFormatError(f"line {offset}: cannot parse date {date!r} (expected YYYY-MM-DD)")
            if dates and np.datetime64(date) <= np.datetime64(dates[-1]):
                raise CsvFormatError(
                    f"line {offset}: date {date!r} does not follow {dates[-1]!r}; "
                    "dates must increase strictly"
                )
            dates.append(date)
        values.append(_parse_cell(row[-1], offset, missing_marker))
    if not values:
        raise CsvFormatError(f"{path!r} contains a header but no data rows")
    return PrecipSeries(np.array(values), dates=dates if two_columns else None)


def shape_root_scan(x1, x2, x3, p1, p2, p3) -> float:
    """Root s = 1/r of the quantile fit's shape equation, by grid scan and bisection.

    The reference for the quantile fit's r-free root.  It writes the
    equation in s with its own closed form, sharing no code with the fit's
    log odds: the first sign change on a 601-point log grid over
    s in [1e-3, 1e3], refined by bisection to an interval of 1e-12.  Raises
    ValueError where the grid shows no sign change.
    """
    def log_one_minus_pow(p, s):
        return np.log(-np.expm1(s * np.log(p)))

    log_x12 = np.log(x1 / x2)
    log_x13 = np.log(x1 / x3)
    c = log_x13 * np.log(p1 / p2) - log_x12 * np.log(p1 / p3)

    def equation(s):
        b = log_one_minus_pow(p3, s) - log_one_minus_pow(p1, s)
        a = log_one_minus_pow(p2, s) - log_one_minus_pow(p1, s)
        return c * s - (b * log_x12 - a * log_x13)

    grid = np.logspace(-3.0, 3.0, 601)
    values = equation(grid)
    finite = np.isfinite(values)
    sign_change = None
    for i in range(len(grid) - 1):
        if not (finite[i] and finite[i + 1]):
            continue
        if values[i] == 0.0:
            return float(grid[i])
        if values[i] * values[i + 1] < 0.0:
            sign_change = i
            break
    if sign_change is None:
        raise ValueError("no sign change of the shape equation on s in [1e-3, 1e3]")
    lo, hi = float(grid[sign_change]), float(grid[sign_change + 1])
    f_lo = float(values[sign_change])
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        f_mid = float(equation(mid))
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def log_pdf_textbook(x, params: ModelParams):
    """Log density log(r gamma) + r log lam + (gamma r - 1) log x - (r + 1) log1p(lam x^gamma).

    The independent reference for :func:`wetmax.limit_log_pdf`, which
    evaluates the same density through log pi = -log1p(1/t).  Its r log lam
    term loses precision as r and lam grow together, so it is a reference
    for moderate parameters only.
    """
    logx = np.log(np.asarray(x, dtype=float))
    r, lam, gamma = params.r, params.lam, params.gamma
    return (math.log(r * gamma) + r * math.log(lam) + (gamma * r - 1.0) * logx
            - (r + 1.0) * np.log1p(lam * np.exp(gamma * logx)))


def log_likelihood(values, params: ModelParams) -> float:
    """Sample log likelihood, summed from :func:`wetmax.limit_log_pdf`.

    ``fit_mle``'s kernel sums the same array, so the two agree to the last
    bit; this is no independent check of the density, which
    :func:`log_pdf_textbook` is.
    """
    return float(np.sum(limit_log_pdf(values, params)))


def stable_ratio_kanter(alpha: float, rng, size=None):
    """Ratio of two independent one-sided stable variates, each drawn by Kanter.

    The reference for :func:`wetmax.sample_stable_ratio`, which inverts the
    ratio's closed-form d.f. at one uniform instead.
    """
    return sample_stable_onesided(alpha, rng, size) / sample_stable_onesided(alpha, rng, size)


def negbin_odds_gamma_pair(r: float, mu: float, rng, size=None):
    """Odds variable mu (G_r + G_{1-r}) / G_r from two standard gamma variates.

    The reference for :func:`wetmax.sample_negbin_odds`, which draws the same
    law as mu over one Beta(r, 1 - r) variate.
    """
    g1 = sample_gamma(GammaParams(r, 1.0), rng, size)
    g2 = sample_gamma(GammaParams(1.0 - r, 1.0), rng, size)
    return mu * (g1 + g2) / g1


def limit_product_formula(params: ModelParams, tag: str, rng, size):
    """The limit variate of representation ``tag``, one fresh array per factor.

    The reference for :func:`wetmax.sample_limit`, which folds each factor
    into its result in place: the same draws in the same order and the same
    floating operations, so the two agree bit for bit.  Each factor is
    one plain expression on fresh arrays.  ``size`` is an int or a tuple.
    """
    r, lam, gamma = params.r, params.lam, params.gamma
    inv_g = 1.0 / gamma

    def gamma_variate(rate):
        if r < 1.0:
            g = rng.standard_gamma(r + 1.0, size=size)
            g = g * (1.0 - rng.random(size)) ** (1.0 / r)
        else:
            g = rng.standard_gamma(r, size=size)
        return g / rate

    def weibull():
        e = -np.log1p(-rng.random(size))
        return e ** (1.0 / gamma)

    def stable():
        if gamma == 1.0:
            return np.ones(size)
        u = np.pi * rng.random(size)
        e = -np.log1p(-rng.random(size))
        c = (1.0 - gamma) / gamma
        log_s = (
            np.log(np.sin(gamma * u))
            + c * np.log(np.sin((1.0 - gamma) * u))
            - np.log(np.sin(u)) / gamma
            - c * np.log(e)
        )
        return np.exp(log_s)

    def ratio():
        if gamma == 1.0:
            return np.ones(size)
        theta, u = np.pi * gamma, rng.random(size)
        return (np.sin(theta * u) / np.sin(theta * (1.0 - u))) ** (1.0 / gamma)

    def odds():
        return np.full(size, lam) if r == 1.0 else lam / rng.beta(r, 1.0 - r, size)

    if tag == "direct":
        g = gamma_variate(lam)
        w = weibull()
        return g ** inv_g / w
    if tag == "snedecor-fisher":
        g = gamma_variate(1.0)
        e = rng.standard_exponential(size)
        q = g / (r * e)
        return (r * q / lam) ** inv_g
    if tag == "stable":
        g = gamma_variate(lam)
        s = stable()
        e = rng.standard_exponential(size)
        return g ** inv_g * s / e
    if tag == "weibull-ratio":
        w1 = weibull()
        w2 = weibull()
        z = odds()
        return (w1 / w2) / z ** inv_g
    if tag == "pareto-ratio":
        u = rng.random(size)
        pareto = u / (1.0 - u)
        rho = ratio()
        z = odds()
        return pareto * rho / z ** inv_g
    if tag == "folded-normal":
        half_normal = np.abs(rng.standard_normal(size))
        e1 = rng.standard_exponential(size)
        rho = ratio()
        e2 = rng.standard_exponential(size)
        z = odds()
        return half_normal * np.sqrt(2.0 * e1) * rho / (e2 * z ** inv_g)
    if tag == "mixed-exponential":
        e = rng.standard_exponential(size)
        rate_e = rng.standard_exponential(size)
        rho = ratio()
        z = odds()
        return e / (rate_e * rho * z ** inv_g)
    raise ValueError(f"unknown representation {tag!r}")


def prelimit_max_brute_force(n: int, params: ModelParams, q: float, pareto_gamma: float, rng, size: int):
    """Scaled maximum of N Pareto variates, with N drawn and the maximum taken.

    The reference for :func:`wetmax.simulate_prelimit_max`, which inverts
    the closed-form law of the maximum at one uniform instead.  N comes
    from numpy's ``negative_binomial`` with shape r and p = min(q, lam/n);
    an empty maximum is 0.
    """
    counts = rng.negative_binomial(params.r, min(q, params.lam / n), size)
    pareto = (1.0 - rng.random(int(counts.sum()))) ** (-1.0 / pareto_gamma)
    out = np.zeros(size)
    for i, (start, count) in enumerate(zip(np.cumsum(counts) - counts, counts)):
        if count:
            out[i] = pareto[start:start + count].max()
    return out / n ** (1.0 / pareto_gamma)


def fit_mle_nelder_mead(values, init, fix_r=False, max_iter=2000, xtol=1e-8):
    """Maximum likelihood by Nelder-Mead search in log-parameter space.

    The reference for :func:`wetmax.fit_mle`, which takes Newton steps with
    the exact derivatives instead: the simplex runs over (log r, log lam,
    log gamma), or the last two with ``fix_r``, until its diameter is below
    ``xtol``.  Returns ``(params, log likelihood, iterations)``; the result
    is never below the start.
    """
    values = np.asarray(values, dtype=float)

    if fix_r:
        def unpack(u):
            return ModelParams(init.r, float(np.exp(u[0])), float(np.exp(u[1])))

        u0 = np.log([init.lam, init.gamma])
    else:
        def unpack(u):
            return ModelParams(*(float(v) for v in np.exp(u)))

        u0 = np.log([init.r, init.lam, init.gamma])

    def negative_ll(u):
        try:
            ll = log_likelihood(values, unpack(u))
        except (OverflowError, ValueError):
            return np.inf
        return -ll if np.isfinite(ll) else np.inf

    result = minimize(
        negative_ll,
        u0,
        method="Nelder-Mead",
        options={"xatol": xtol, "fatol": np.inf, "maxiter": max_iter, "maxfev": 10 * max_iter},
    )
    params = unpack(result.x)
    ll, ll_init = log_likelihood(values, params), log_likelihood(values, init)
    if ll < ll_init:
        return init, ll_init, int(result.nit)
    return params, ll, int(result.nit)


def negbin_log_likelihood(durations, r: float) -> float:
    """Negative binomial log likelihood of durations - 1 at shape r and the
    profiled p = r / (r + mean), summed spell by spell."""
    shifted = np.asarray(durations).astype(float) - 1.0
    p = r / (r + float(shifted.mean()))
    return float(np.sum(
        gammaln(r + shifted) - gammaln(r) - gammaln(shifted + 1.0)
        + r * np.log(p) + shifted * np.log1p(-p)
    ))


def fit_negbin_per_spell(durations) -> NegBinParams:
    """Negative binomial fit summing the profile likelihood over every spell.

    The reference for :func:`wetmax.fit_negbin`, which sums over the
    distinct durations weighted by their counts instead.  The checks, among
    them the gate on the variance with divisor m, and the moment start are
    the same; the search is bounded to the first bracket log r0 +- 7.
    """
    arr = np.asarray(durations)
    if arr.size < 2:
        raise EstimationError("need at least 2 durations to fit")
    if np.any(arr < 1) or np.any(arr != np.floor(arr)):
        raise ValueError(f"durations must be whole days >= 1, got {durations!r}")
    if np.unique(arr).size < 2:
        raise EstimationError(
            "need at least 2 distinct duration values "
            "(no overdispersion: variance <= mean, the fit degenerates "
            "to the geometric/Poisson boundary)"
        )
    shifted = arr.astype(float) - 1.0
    mean = float(shifted.mean())
    var = float(shifted.var())
    if var <= mean:
        raise EstimationError(
            f"no overdispersion: variance {var:.6g} <= mean {mean:.6g}; "
            "negative binomial fit with r > 0 unavailable "
            "(data sit at the geometric/Poisson boundary)"
        )
    r0 = mean * mean / (float(shifted.var(ddof=1)) - mean)

    def negative_profile_ll(log_r):
        r = float(np.exp(log_r))
        p = r / (r + mean)
        return -float(
            np.sum(gammaln(r + shifted)) - shifted.size * gammaln(r)
            + shifted.size * r * np.log(p) + np.sum(shifted) * np.log1p(-p)
        )

    result = minimize_scalar(
        negative_profile_ll,
        bounds=(np.log(r0) - 7.0, np.log(r0) + 7.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    r_hat = float(np.exp(result.x))
    return NegBinParams(r_hat, r_hat / (r_hat + mean))


def ecdf_counting(values, x):
    """Empirical d.f. at each x, as the share of the sample at or below it.

    Every observation is compared with every x, with no sort, so ties and
    points outside the sample's range need no special case.  The reference
    for the empirical column of :func:`wetmax.emit_plot_data`.
    """
    values = np.asarray(values, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    return np.count_nonzero(values[None, :] <= x[:, None], axis=1) / values.size


def simulate_text_per_value(values) -> str:
    """``wetmax simulate``'s output, one f-string per draw.

    The reference for the CLI, which formats its draws in blocks of
    ``cli.SIMULATE_BLOCK``, one ``%`` operation per block.
    """
    return "".join(f"{v:.17g}\n" for v in np.atleast_1d(values))


def plot_data_per_value(sample, report, grid) -> str:
    """:func:`wetmax.emit_plot_data`'s table, one f-string per row.

    The reference for the library, which formats all rows in one operation.
    """
    xs = np.asarray(grid, dtype=float).ravel()
    params = report.params
    lines = [
        f"# ks={report.ks_distance:.12g} m={report.m} "
        f"r={params.r:.12g} lambda={params.lam:.12g} gamma={params.gamma:.12g}"
    ]
    empirical = ecdf_counting(sample.values, xs)
    model = np.atleast_1d(limit_cdf(xs, params))
    for x, e, f in zip(xs, empirical, model):
        lines.append(f"{x:.12g}\t{e:.12g}\t{f:.12g}")
    return "\n".join(lines) + "\n"


def log_pdf_terms_expressions(logx, r: float, lam: float, gamma: float):
    """``distributions._log_pdf_terms`` as plain expressions, a new array per operation.

    The reference for the library kernel, which computes the same
    operations in place, in the same order; the two agree bit for bit.
    """
    gl = gamma * logx
    log_t = np.log(lam) + gl
    log_pi = -(np.maximum(-log_t, 0.0) + np.log1p(np.exp(-np.abs(log_t))))
    return (np.log(r * gamma) - logx) + (r * log_pi - (log_t - log_pi)), log_pi, gl


def score_hessian_expressions(logx, r: float, lam: float, gamma: float, fix_r: bool):
    """``estimation._score_hessian`` as plain expressions over :func:`log_pdf_terms_expressions`.

    The reference for the in-place kernel: the same (ll, score, Hessian)
    bit for bit.
    """
    m = logx.size
    log_pdf, log_pi, gl = log_pdf_terms_expressions(logx, r, lam, gamma)
    ll = float(np.sum(log_pdf))
    pi, s = np.exp(log_pi), -np.expm1(log_pi)
    q = pi * s
    gl_q = gl * q
    sum_log_pi, sum_s, gl_s = np.sum(log_pi), np.sum(s), np.dot(gl, s)
    gl_a = r * gl_s - np.dot(gl, pi)
    score = np.array([m + r * sum_log_pi, r * sum_s - np.sum(pi), m + gl_a])
    aa, ab, ac = r * sum_log_pi, r * sum_s, r * gl_s
    bb, bc = -(r + 1.0) * np.sum(q), -(r + 1.0) * np.sum(gl_q)
    cc = gl_a - (r + 1.0) * np.dot(gl, gl_q)
    hessian = np.array([[aa, ab, ac], [ab, bb, bc], [ac, bc, cc]])
    if fix_r:
        return ll, score[1:], hessian[1:, 1:]
    return ll, score, hessian


def limit_cdf_expression(x, params: ModelParams):
    """:func:`wetmax.limit_cdf` as one expression, unchecked; the reference for its in-place steps."""
    arr = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        t = params.lam * arr ** params.gamma
        return np.exp(-params.r * np.log1p(1.0 / t))


def ks_per_point_expression(sorted_values, params: ModelParams):
    """max(i/m - F(x_(i)), F(x_(i)) - (i-1)/m) per order statistic, in plain expressions.

    The reference for :func:`wetmax.ks_model`, which computes the same
    values in place and reports their maximum and where it is attained.
    """
    m = sorted_values.size
    model = limit_cdf_expression(sorted_values, params)
    i = np.arange(1, m + 1) / m
    return np.maximum(i - model, model - (i - 1.0 / m))
