"""Parameter estimation for the wet-spell maximum law.

Three estimators are provided for the triple (r, lam, gamma) given a sample
of per-spell maxima:

* :func:`fit_quantile` - matches three empirical quantiles to the explicit
  quantile formula of the law.  On the log-odds scale of
  :func:`~wetmax.distributions._log_odds` the law is a line in log x, so
  the shape r is the root of one scalar equation in the ratio kappa of the
  three log spacings, found by ``brentq`` in log r over all r > 0.  When
  kappa lies outside its limits as r -> 0 and as r -> inf there is no
  root, and the fit fails naming both.  lam and gamma then follow in
  closed form.  With r known the root solve is skipped.
* :func:`fit_least_squares` - with r known, regresses the log order
  statistics on the log odds of their plotting positions; lam and gamma
  come out of the normal equations in closed form.
* :func:`fit_mle` - refines any starting triple by damped Newton steps on
  the log likelihood in log-parameter space, and gives standard errors from
  the observed information.  The fixed-r and free fits run one driver,
  :func:`_newton_ascent`, over the exact score and Hessian of a kernel that
  runs in place and keeps the bits of the plain expressions.

:func:`fit_negbin` fits the negative binomial law to wet-period durations
(shifted down by one day so the support starts at zero) and is how the shape
r is usually fixed before the two-parameter fits.

Scalar arguments (r, the quantile levels, tau) are checked to be finite and
inside their intervals, and raise ``ValueError`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import digamma

from . import gof
from .distributions import ModelParams, NegBinParams, _checked, _log_odds, _log_pdf_terms


class EstimationError(RuntimeError):
    """An estimator could not produce parameters from the given data."""


@dataclass(frozen=True, eq=False)
class MaximaSample:
    """Sample of per-wet-period maxima; keeps a sorted copy for order statistics."""

    values: np.ndarray
    sorted_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("maxima sample must be nonempty")
        if not np.isfinite(arr).all() or (arr <= 0.0).any():
            raise ValueError("maxima must all be finite and > 0")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "sorted_values", np.sort(arr))

    @property
    def m(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class QuantileTriple:
    """Three probability levels 0 < p1 < p2 < p3 < 1 used by the quantile fit."""

    p1: float = 0.25
    p2: float = 0.50
    p3: float = 0.75

    def __post_init__(self):
        p1 = _checked("p1", self.p1, 0.0, 1.0)
        p2 = _checked("p2", self.p2, p1, 1.0)
        p3 = _checked("p3", self.p3, p2, 1.0)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "p3", p3)

    @classmethod
    def from_tau(cls, tau: float) -> "QuantileTriple":
        """Symmetric triple (tau, 1/2, 1-tau) for tau in (0, 1/4)."""
        tau = _checked("tau", tau, 0.0, 0.25)
        return cls(tau, 0.5, 1.0 - tau)


@dataclass(frozen=True)
class FitReport:
    """Estimated parameters plus fit diagnostics.

    ``ks_distance`` is the uniform distance of the fitted law to the
    sample's empirical d.f., or None where it was not measured:
    :func:`fit_mle` leaves it None, and the CLI measures each report it
    prints, of every method, once.  ``log_likelihood``, ``iterations``,
    ``converged`` and ``standard_errors`` are set by the MLE only.
    ``standard_errors`` maps ``r``, ``lambda`` and ``gamma`` to their
    standard errors, ``r`` to None when it was held fixed, and is None when
    the observed information is not positive definite.
    """

    params: ModelParams
    method: str
    ks_distance: Optional[float]
    m: int
    log_likelihood: Optional[float] = None
    iterations: Optional[int] = None
    converged: Optional[bool] = None
    standard_errors: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "r": self.params.r,
            "lambda": self.params.lam,
            "gamma": self.params.gamma,
            "ks_distance": self.ks_distance,
            "m": self.m,
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
            "standard_errors": self.standard_errors,
        }


# ---------------------------------------------------------------------------
# quantile matching


def _solve_shape_equation(x1, x2, x3, p1, p2, p3) -> float:
    """Root r of the quantile fit's shape equation.

    With l_i = ell(p_i, r), the log odds of
    :func:`~wetmax.distributions._log_odds`, the law puts the three order
    statistics on its line l_i = log lam + gamma log x_i exactly when
    (l3 - l2) / (l2 - l1) equals kappa = log(x3/x2) / log(x2/x1), which is
    free of lam and gamma.  As r runs over (0, inf) that ratio rises (on
    every triple tested) from kappa_0 = log(p3/p2) / log(p2/p1) to the
    Frechet value kappa_inf = log(log p2 / log p3) / log(log p1 / log p2).
    ``brentq`` solves (l3 - l2) - kappa (l2 - l1) = 0 in log r on
    [-50, 50], where the ratio already equals both limits in double
    precision, so the equation's signs at the two ends tell whether any
    r > 0 matches.  When none does, the fit raises :class:`EstimationError`
    naming kappa and the open range (kappa_0, kappa_inf).
    """
    kappa = math.log(x3 / x2) / math.log(x2 / x1)

    def equation(log_r):
        r = math.exp(log_r)
        l1, l2, l3 = (_log_odds(p, r, math) for p in (p1, p2, p3))
        return (l3 - l2) - kappa * (l2 - l1)

    lo, hi = -50.0, 50.0
    if not equation(lo) < 0.0 < equation(hi):
        kappa_0 = math.log(p3 / p2) / math.log(p2 / p1)
        kappa_inf = math.log(math.log(p2) / math.log(p3)) / math.log(math.log(p1) / math.log(p2))
        raise EstimationError(
            f"quantile fit failed: no r > 0 matches the order statistics {(x1, x2, x3)!r}; "
            f"kappa = log(x3/x2) / log(x2/x1) = {kappa!r} lies outside the range "
            f"({kappa_0!r}, {kappa_inf!r}) that the law spans as r runs over (0, inf)"
        )
    return math.exp(brentq(equation, lo, hi, xtol=1e-14))


def _order_statistics(sample: MaximaSample, triple: QuantileTriple):
    m = sample.m
    indices = []
    for p in (triple.p1, triple.p2, triple.p3):
        # integer part of m*p, clamped to a valid order statistic; the tiny
        # nudge keeps e.g. 100 * 0.29 = 28.999...996 from truncating to 28
        idx = int(np.floor(m * p + 1e-9))
        if idx < 1:
            raise EstimationError(
                f"sample of size {m} too small for quantile level {p}: [m*p] < 1"
            )
        indices.append(min(idx, m))
    x1, x2, x3 = (float(sample.sorted_values[i - 1]) for i in indices)
    if not (x1 < x2 < x3):
        raise EstimationError(
            f"degenerate sample: order statistics {(x1, x2, x3)!r} at levels "
            f"{(triple.p1, triple.p2, triple.p3)!r} are not strictly increasing"
        )
    return x1, x2, x3


def fit_quantile(
    sample: MaximaSample,
    triple: QuantileTriple | None = None,
    r: float | None = None,
) -> ModelParams:
    """Quantile-matching estimate of (r, lam, gamma).

    Matches the order statistics at levels (p1, p2, p3) to the explicit
    quantile formula: their log odds l1, l2, l3 lie on the line
    log lam + gamma log x.  When ``r`` is given the scalar root solve for r
    is skipped and only lam and gamma are estimated.
    """
    triple = triple if triple is not None else QuantileTriple()
    x1, x2, x3 = _order_statistics(sample, triple)
    levels = (triple.p1, triple.p2, triple.p3)
    r = _solve_shape_equation(x1, x2, x3, *levels) if r is None else _checked("r", r)
    l1, l2, l3 = _log_odds(np.array(levels), r)
    gamma = (l3 - l1) / (np.log(x3) - np.log(x1))
    with np.errstate(over="ignore"):  # lam = inf fails the check below
        lam = float(np.exp(l2 - gamma * np.log(x2)))
    try:
        return ModelParams(r, lam, float(gamma))
    except ValueError as exc:
        raise EstimationError(f"quantile fit produced invalid parameters: {exc}") from exc


def fit_quantile_tau_scan(
    sample: MaximaSample,
    tau_grid: Sequence[float],
    r: float | None = None,
):
    """Run the quantile fit over triples (tau, 1/2, 1-tau) and keep the best.

    Returns ``(params, tau)`` for the grid point whose fitted law is closest
    to the empirical d.f. in uniform distance; ties go to the smaller tau.
    """
    taus = [float(t) for t in tau_grid]
    if not taus:
        raise ValueError("tau grid must be nonempty")
    triples = [(tau, QuantileTriple.from_tau(tau)) for tau in sorted(taus)]
    best = None
    failures = []
    for tau, triple in triples:
        try:
            params = fit_quantile(sample, triple, r=r)
            ks = gof.ks_model(sample, params).ks_distance
        except EstimationError as exc:
            failures.append(f"tau={tau}: {exc}")
            continue
        if best is None or ks < best[0]:
            best = (ks, tau, params)
    if best is None:
        raise EstimationError(
            "quantile fit failed for every tau in the grid: " + "; ".join(failures)
        )
    return best[2], best[1]


# ---------------------------------------------------------------------------
# least squares on the order statistics


def fit_least_squares(sample: MaximaSample, r: float):
    """Closed-form least-squares estimate of (lam, gamma) with known shape r.

    The empirical d.f. heights i/m are mapped through the inverse law onto
    targets c_i which are linear in log X*_(i) with slope gamma and
    intercept log lam; the top order statistic is excluded because its
    target is infinite.  Returns ``(lam, gamma)``, or raises
    :class:`EstimationError` where they are no valid parameters, as when
    lam over- or underflows a float.
    """
    r = _checked("r", r)
    m = sample.m
    if m < 3:
        raise EstimationError(f"least squares needs m >= 3, got m={m}")
    logx = np.log(sample.sorted_values[: m - 1])
    if np.all(logx == logx[0]):
        raise EstimationError("least squares failed: all regressor values equal")
    c = _log_odds(np.arange(1, m) / m, r)
    logx_c = logx - logx.mean()
    gamma = float(np.dot(c - c.mean(), logx_c) / np.dot(logx_c, logx_c))
    with np.errstate(over="ignore"):  # lam = inf fails the check below
        lam = float(np.exp(c.mean() - gamma * logx.mean()))
    try:
        ModelParams(r, lam, gamma)
    except ValueError as exc:
        raise EstimationError(f"least squares fit produced invalid parameters: {exc}") from exc
    return lam, gamma


# ---------------------------------------------------------------------------
# maximum likelihood refinement


def _score_hessian(logx: np.ndarray, r: float, lam: float, gamma: float, fix_r: bool):
    """Log likelihood, score and Hessian in u = (log r, log lam, log gamma).

    All three come from :func:`~wetmax.distributions._log_pdf_terms`, so the
    log likelihood is the sum of ``limit_log_pdf`` to the last bit.  With
    L = log x, s = 1 - pi = -expm1(log pi), q = pi s and a = r s - pi, the
    score is (m + r sum log pi, sum a, m + sum gamma L a); d log pi / d log lam
    = s and d s / d log lam = -q give the Hessian.  Sums of s are direct, so
    no total is subtracted from a nearly equal one.  With ``fix_r`` the log r
    row and column are dropped.  ``logx`` holds log x for the sample.
    The kernel runs in place in the three arrays the terms return, with the
    same operations in the same order, so its bits are those of the plain
    expressions (pinned in ``tests/oracles.py``).
    """
    m = logx.size
    log_pdf, log_pi, gl = _log_pdf_terms(logx, r, lam, gamma)
    ll = float(log_pdf.sum())
    sum_log_pi = log_pi.sum()
    s = np.expm1(log_pi, out=log_pdf)  # each buffer is reused once its sums are taken
    np.negative(s, out=s)
    pi = np.exp(log_pi, out=log_pi)
    sum_s, gl_s, sum_pi = s.sum(), np.dot(gl, s), pi.sum()
    gl_a = r * gl_s - np.dot(gl, pi)
    q = np.multiply(pi, s, out=s)
    sum_q = q.sum()
    gl_q = np.multiply(gl, q, out=q)
    score = np.array([m + r * sum_log_pi, r * sum_s - sum_pi, m + gl_a])
    aa, ab, ac = r * sum_log_pi, r * sum_s, r * gl_s
    bb, bc = -(r + 1.0) * sum_q, -(r + 1.0) * gl_q.sum()
    cc = gl_a - (r + 1.0) * np.dot(gl, gl_q)
    hessian = np.array([[aa, ab, ac], [ab, bb, bc], [ac, bc, cc]])
    if fix_r:
        return ll, score[1:], hessian[1:, 1:]
    return ll, score, hessian


def _padded(matrix: np.ndarray) -> list:
    """``matrix`` as a 3 x 3 list of floats; a 2 x 2 one (r fixed) first gets a unit row and column.

    The unit pivot and the zeros round exactly, so a factor or solve of the
    padded matrix equals that of the 2 x 2 one in its last two entries, and
    its first entry belongs to no parameter.
    """
    a = matrix.tolist()
    return [[1.0, 0.0, 0.0], [0.0, *a[0]], [0.0, *a[1]]] if len(a) == 2 else a


def _cholesky(a: list, mu: float = 0.0) -> Optional[tuple]:
    """Lower Cholesky factor (l00, l10, l11, l20, l21, l22) of a + mu Id, or None where it has none.

    ``a`` is a symmetric 3 x 3 list of rows, of which only the lower
    triangle is read.  A pivot that is not > 0, NaN included, means that
    a + mu Id is not positive definite.  In plain floats this costs a small
    fraction of a numpy ``linalg`` call.
    """
    (a00, _, _), (a10, a11, _), (a20, a21, a22) = a
    pivot = a00 + mu
    if not pivot > 0.0:
        return None
    l00 = math.sqrt(pivot)
    l10, l20 = a10 / l00, a20 / l00
    pivot = a11 + mu - l10 * l10
    if not pivot > 0.0:
        return None
    l11 = math.sqrt(pivot)
    l21 = (a21 - l20 * l10) / l11
    pivot = a22 + mu - l20 * l20 - l21 * l21
    if not pivot > 0.0:
        return None
    return l00, l10, l11, l20, l21, math.sqrt(pivot)


def _standard_errors(params: ModelParams, information: np.ndarray) -> Optional[dict]:
    """Delta-method standard errors from the observed information in log space.

    The covariance of u = log theta is the inverse of ``information`` (the
    negative Hessian).  With its Cholesky factor I = L L^T and M = L^-1,
    var u_i is the sum of M_ki^2 over the rows k, and
    se(theta_i) = theta_i sqrt(var u_i).  A 2 x 2 ``information`` is that of
    a fit with r fixed, and the ``r`` entry is then None.  Returns None when
    I has no Cholesky factor or an error is not finite, so that no NaN
    reaches a report.
    """
    fix_r = len(information) == 2
    low = _cholesky(_padded(information))
    if low is None:
        return None
    l00, l10, l11, l20, l21, l22 = low
    m21 = -l21 / (l11 * l22)
    m10 = -l10 / (l00 * l11)
    m20 = -(l20 / l00 + l21 * m10) / l22
    variances = (1.0 / l00**2 + m10 * m10 + m20 * m20, 1.0 / l11**2 + m21 * m21, 1.0 / l22**2)
    fitted = zip(("r", "lambda", "gamma"), (params.r, params.lam, params.gamma), variances)
    se = {name: theta * math.sqrt(var) for name, theta, var in list(fitted)[1 if fix_r else 0:]}
    if not all(map(math.isfinite, se.values())):
        return None
    return {"r": None, **se}


def _newton_step(information: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Solve (I + mu Id) step = score, with mu = 0 when I is positive definite.

    mu is 0 when I has a Cholesky factor; otherwise it starts at
    1e-8 max|I_ij| and doubles until I + mu Id has one, a
    Levenberg-Marquardt shift that turns the step into an ascent direction.
    The factor L L^T = I + mu Id, in plain floats, gives the step by one
    forward and one back substitution.  An I that no finite shift makes
    positive definite (one with a NaN entry) gives a NaN step.
    """
    a = _padded(information)
    low, mu = _cholesky(a), 0.0
    while low is None and mu < math.inf:
        mu = 2.0 * mu or 1e-8 * float(np.max(np.abs(information))) or 1e-8  # 1e-8 where I = 0
        low = _cholesky(a, mu)
    if low is None:
        return np.full(score.size, math.nan)
    l00, l10, l11, l20, l21, l22 = low
    b0, b1, b2 = [0.0, *score.tolist()] if score.size == 2 else score.tolist()
    y0 = b0 / l00
    y1 = (b1 - l10 * y0) / l11
    y2 = (b2 - l20 * y0 - l21 * y1) / l22
    x2 = y2 / l22
    x1 = (y1 - l21 * x2) / l11
    x0 = (y0 - l10 * x1 - l20 * x2) / l00
    return np.array([x0, x1, x2][3 - score.size:])


def _newton_ascent(kernel, theta: list, gtol: float):
    """Damped Newton ascent of a log likelihood in u = log theta, from the floats ``theta``.

    ``kernel(theta)`` gives (ll, score, Hessian) in u at a list of positive
    floats.  While the score's norm is at least ``gtol``, for at most 2000
    steps, the step solves I step = score with I = -Hessian, shifted where I
    has no Cholesky factor (see :func:`_newton_step`), and is halved until
    ll rises strictly.  A trial point where exp(u) overflows or underflows,
    or where a kernel value is not finite, counts as a fall, and one
    ``np.errstate`` keeps numpy quiet.  The search stops when halving no
    longer moves u, so ll never falls below that at the start.  Returns
    (theta, (ll, score, Hessian), accepted steps) at the last accepted
    point, or None where the start has no finite values.
    """
    def evaluate(theta):
        """(ll, score, Hessian) at theta, or None where a value is out of range."""
        if not all(0.0 < v < math.inf for v in theta):  # exp(u) overflowed or underflowed
            return None
        ll, score, hessian = kernel(theta)
        if math.isfinite(ll) and np.isfinite(score).all() and np.isfinite(hessian).all():
            return ll, score, hessian
        return None

    with np.errstate(all="ignore"):
        point = evaluate(theta)
        if point is None:
            return None
        ll, score, hessian = point
        u, steps = np.log(theta), 0
        while steps < 2000 and math.hypot(*score) >= gtol:
            step = _newton_step(-hessian, score)
            while np.isfinite(step).all() and (u + step != u).any():
                trial_theta = np.exp(u + step).tolist()
                trial = evaluate(trial_theta)
                if trial is not None and trial[0] > ll:
                    break
                step = 0.5 * step
            else:
                break  # no step that moves u raises the likelihood
            u, theta, steps = u + step, trial_theta, steps + 1
            ll, score, hessian = trial
    return theta, (ll, score, hessian), steps


def fit_mle(sample: MaximaSample, init: ModelParams, fix_r: bool = False) -> FitReport:
    """Maximize the sample log likelihood from ``init`` by :func:`_newton_ascent`.

    The fixed-r and free fits run that one driver over the exact kernel
    :func:`_score_hessian` in u = (log r, log lam, log gamma), or the last two
    with ``fix_r``, with gtol = 1e-6 m.  ``converged`` says whether every
    score component at the result is at most gtol in size; ``standard_errors``
    come from the observed information there, with None for r under ``fix_r``.
    ``ks_distance`` is None: the caller measures the fit where it needs to.
    """
    logx, gtol = np.log(sample.values), 1e-6 * sample.m
    fixed = [init.r] if fix_r else []
    start = [init.r, init.lam, init.gamma][len(fixed):]
    found = _newton_ascent(lambda theta: _score_hessian(logx, *fixed, *theta, fix_r), start, gtol)
    if found is None:
        raise EstimationError(f"invalid start: log likelihood or its derivatives at {init!r} "
                              "are not finite")
    theta, (ll, score, hessian), iterations = found
    params = ModelParams(*fixed, *theta)
    return FitReport(
        params=params,
        method="mle",
        ks_distance=None,
        m=sample.m,
        log_likelihood=ll,
        iterations=iterations,
        converged=bool(np.max(np.abs(score)) <= gtol),
        standard_errors=_standard_errors(params, -hessian),
    )


# ---------------------------------------------------------------------------
# negative binomial fit for wet-period durations


def fit_negbin(durations: Sequence[int]) -> NegBinParams:
    """Fit the negative binomial law to wet-period durations.

    Durations are whole days >= 1 while the negative binomial is supported
    on {0, 1, 2, ...}, so the fit is applied to durations - 1.  Moment
    estimates seed a one-dimensional likelihood maximization in the shape r,
    with p profiled out as p = r / (r + mean).  The profile likelihood has a
    finite maximum exactly when the variance with divisor m, var_m, exceeds
    the mean: for large r the score below is about m (mean - var_m) / (2 r^2).
    Data with var_m <= mean carry no overdispersion signal and are rejected.

    The fit runs on the counts of the distinct durations, their sufficient
    statistic: with counts c_j of the shifted values k_j, m spells and
    S = sum c_j k_j, the profile log likelihood is
    sum c_j gammaln(r + k_j) - m gammaln(r) + m r log p + S log(1 - p),
    and its derivative in r, the profile score, is
    sum c_j digamma(r + k_j) - m digamma(r) - m log1p(mean / r).
    So its cost grows with the number of distinct lengths, not of spells,
    and the result depends only on the multiset of durations, bit for bit.
    r is the root of the score in log r, found by ``brentq`` to about 1e-12
    relative on log r0 +- 7 around the moment estimate r0 (divisor m - 1).
    Where the score keeps its sign over that bracket, the bracket moves by 7
    in the direction the score points until the sign changes.  Above the
    first bracket the digamma differences, which cancel to rounding noise
    there, are summed exactly as sum_i N_i / (r + i), N_i the spells with
    k > i, at a cost that grows with the longest spell.
    """
    arr = np.asarray(durations)
    if arr.size < 2:
        raise EstimationError("need at least 2 durations to fit")
    values, counts = np.unique(arr, return_counts=True)
    if not np.all(np.isfinite(values)) or values[0] < 1 or np.any(values != np.floor(values)):
        raise ValueError(f"durations must be whole days >= 1, got {durations!r}")
    if values.size < 2:
        raise EstimationError(
            "need at least 2 distinct duration values "
            "(no overdispersion: variance <= mean, the fit degenerates "
            "to the geometric/Poisson boundary)"
        )
    # sums and moments in exact integers, so that var = mean is a tie
    # however the float rounding falls; each division rounds once
    m = arr.size
    pairs = [(c, int(v) - 1) for v, c in zip(values.tolist(), counts.tolist())]
    total = sum(c * k for c, k in pairs)
    square = sum(c * k * k for c, k in pairs)
    spread = m * square - total * total  # m^2 var_m
    mean = total / m
    if spread <= m * total:
        var = spread / (m * m)
        raise EstimationError(
            f"no overdispersion: variance {var:.6g} <= mean {mean:.6g}; "
            "negative binomial fit with r > 0 unavailable "
            "(data sit at the geometric/Poisson boundary)"
        )
    r0 = total * total * (m - 1) / (m * (spread - (m - 1) * total))
    shifted = values.astype(float) - 1.0
    counts = counts.astype(float)

    lo, hi = math.log(r0) - 7.0, math.log(r0) + 7.0
    top = hi

    def profile_score(log_r):
        # d/dr of the profile log likelihood; its terms in log(1 - p) cancel
        r = math.exp(log_r)
        if log_r <= top:
            rise = float(counts @ digamma(r + shifted)) - m * float(digamma(r))
        else:  # N_i for i < the longest k, built only where a fit needs it
            longer = m - np.cumsum(np.bincount(shifted.astype(np.int64), weights=counts))[:-1]
            rise = float(longer @ (1.0 / (r + np.arange(longer.size))))
        return rise - m * math.log1p(mean / r)

    while profile_score(hi) > 0.0:  # the root lies above the bracket
        lo, hi = hi, hi + 7.0
    while profile_score(lo) < 0.0:  # the root lies below it
        lo, hi = lo - 7.0, lo
    r_hat = math.exp(brentq(profile_score, lo, hi))
    return NegBinParams(r_hat, r_hat / (r_hat + mean))
