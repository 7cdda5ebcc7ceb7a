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
* :func:`fit_mle` - refines any starting triple by Newton trust-region
  steps on the log likelihood in log-parameter space, with the exact score
  and Hessian, and gives standard errors from the observed information.

:func:`fit_negbin` fits the negative binomial law to wet-period durations
(shifted down by one day so the support starts at zero) and is how the shape
r is usually fixed before the two-parameter fits.

Scalar arguments (r, the quantile levels, tau) are checked to be finite and
inside their intervals, and raise ``ValueError`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar
from scipy.special import gammaln

from . import gof
from .distributions import ModelParams, NegBinParams, _checked, _log_odds


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
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
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

    ``log_likelihood``, ``iterations``, ``converged`` and ``standard_errors``
    are set by the MLE only.  ``standard_errors`` maps ``r``, ``lambda`` and
    ``gamma`` to their standard errors, ``r`` to None when it was held fixed,
    and is None when the observed information is not positive definite.
    """

    params: ModelParams
    method: str
    ks_distance: float
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
    log_lam = l2 - gamma * np.log(x2)
    try:
        return ModelParams(r, float(np.exp(log_lam)), float(gamma))
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
    target is infinite.  Returns ``(lam, gamma)``.
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
    lam = float(np.exp(c.mean() - gamma * logx.mean()))
    return lam, gamma


# ---------------------------------------------------------------------------
# maximum likelihood refinement


def _score_hessian(logx: np.ndarray, r: float, lam: float, gamma: float, fix_r: bool):
    """Log likelihood, score and Hessian in u = (log r, log lam, log gamma).

    The log likelihood sums :func:`~wetmax.distributions.limit_log_pdf`'s
    expression, term for term, so the two agree to the last bit.  With
    t = lam x^gamma, L = log x, pi = t/(1+t), q = pi (1-pi) and
    a = r - (r+1) pi, the score is (m + r sum log pi, sum a,
    m + sum gamma L a); the Hessian follows from d pi / d log lam = q and
    d pi / d log gamma = gamma L q.  With ``fix_r`` the log r row and
    column are dropped.  ``logx`` holds log x for the sample.
    """
    m = logx.size
    gl = gamma * logx
    log_t = np.log(lam) + gl
    ll = float(np.sum(np.log(r * gamma) + r * np.log(lam) + (gamma * r - 1.0) * logx
                      - (r + 1.0) * np.logaddexp(0.0, log_t)))
    log_pi = -np.logaddexp(0.0, -log_t)
    pi = np.exp(log_pi)
    one_minus_pi = 1.0 - pi
    q = pi * one_minus_pi
    a = r - (r + 1.0) * pi
    sum_log_pi, gl_a = np.sum(log_pi), np.dot(gl, a)
    score = np.array([m + r * sum_log_pi, np.sum(a), m + gl_a])
    aa, ab, ac = r * sum_log_pi, r * np.sum(one_minus_pi), r * np.dot(gl, one_minus_pi)
    bb, bc = -(r + 1.0) * np.sum(q), -(r + 1.0) * np.dot(gl, q)
    cc = gl_a - (r + 1.0) * np.dot(gl * gl, q)
    hessian = np.array([[aa, ab, ac], [ab, bb, bc], [ac, bc, cc]])
    if fix_r:
        return ll, score[1:], hessian[1:, 1:]
    return ll, score, hessian


def _standard_errors(params: ModelParams, information: np.ndarray, fix_r: bool) -> Optional[dict]:
    """Delta-method standard errors from the observed information in log space.

    The covariance of u = log theta is the inverse of ``information`` (the
    negative Hessian), found through its Cholesky factor, and
    se(theta) = theta sqrt(Cov_u[ii]).  With ``fix_r`` the ``r`` entry is
    None.  Returns None when the information is not positive definite, so
    that no NaN reaches a report.
    """
    try:
        factor = np.linalg.cholesky(information)
    except np.linalg.LinAlgError:
        return None
    # Cov_u = (L L^T)^-1, so its diagonal holds the column sums of squares of L^-1
    variances = np.sum(np.linalg.inv(factor) ** 2, axis=0)
    first = 1 if fix_r else 0
    thetas = (params.r, params.lam, params.gamma)[first:]
    names = ("r", "lambda", "gamma")[first:]
    se = {name: theta * math.sqrt(v) for name, theta, v in zip(names, thetas, variances)}
    if not all(map(math.isfinite, se.values())):
        return None
    return {"r": None, **se}


def fit_mle(sample: MaximaSample, init: ModelParams, fix_r: bool = False) -> FitReport:
    """Maximize the sample log likelihood by Newton trust-region steps.

    The search runs in log-parameter space, over (log r, log lam, log gamma)
    or over the last two with ``fix_r``, which keeps every iterate strictly
    positive without constraints.  It is scipy's ``trust-exact`` method fed
    with the exact score and Hessian, and it stops once the Euclidean norm of
    the score falls below gtol = 1e-6 m, for a sample of size m, or after
    2000 iterations.  ``converged`` then says whether every score component
    at the reported parameters is at most gtol in size.
    The reported likelihood never falls below the likelihood at ``init``.
    ``standard_errors`` come from the observed information at the reported
    parameters, by the delta method; with ``fix_r`` the entry for r is None.
    """
    logx = np.log(sample.values)
    gtol = 1e-6 * sample.m

    if fix_r:
        def unpack(u):
            return init.r, float(np.exp(u[0])), float(np.exp(u[1]))

        u0 = np.log([init.lam, init.gamma])
    else:
        def unpack(u):
            return tuple(float(v) for v in np.exp(u))

        u0 = np.log([init.r, init.lam, init.gamma])

    @lru_cache(maxsize=1)  # scipy asks for the objective, score and Hessian at each point apart
    def evaluate(u_bytes):
        """Negative log likelihood, score and Hessian at u."""
        u = np.frombuffer(u_bytes)
        with np.errstate(over="ignore", invalid="ignore"):
            theta = unpack(u)
            if all(0.0 < v < math.inf for v in theta):  # exp(u) may overflow or underflow
                ll, score, hessian = _score_hessian(logx, *theta, fix_r)
                if np.isfinite(ll) and np.all(np.isfinite(score)) and np.all(np.isfinite(hessian)):
                    return -ll, -score, -hessian
        # trust-exact factors the Hessian at a trial point before it compares
        # objectives: finite stand-ins let the inf reject the step
        return np.inf, np.zeros(u.size), np.zeros((u.size, u.size))

    ll_init = -evaluate(u0.tobytes())[0]  # cached: trust-exact starts at the same point
    if not np.isfinite(ll_init):
        raise EstimationError(
            f"invalid start: log likelihood or its derivatives at {init!r} are not finite"
        )
    result = minimize(
        lambda u: evaluate(u.tobytes())[0],
        u0,
        method="trust-exact",
        jac=lambda u: evaluate(u.tobytes())[1],
        hess=lambda u: evaluate(u.tobytes())[2],
        options={"gtol": gtol, "maxiter": 2000},
    )
    u, params, ll = result.x, ModelParams(*unpack(result.x)), -float(result.fun)
    if ll < ll_init:  # a trust-region step never lowers the likelihood; belt and braces
        u, params, ll = u0, init, ll_init
    negative_ll, negative_score, information = evaluate(u.tobytes())
    in_range = bool(np.isfinite(negative_ll))
    return FitReport(
        params=params,
        method="mle",
        ks_distance=gof.ks_model(sample, params).ks_distance,
        m=sample.m,
        log_likelihood=ll,
        iterations=int(result.nit),
        converged=in_range and bool(np.max(np.abs(negative_score)) <= gtol),
        standard_errors=_standard_errors(params, information, fix_r) if in_range else None,
    )


# ---------------------------------------------------------------------------
# negative binomial fit for wet-period durations


def fit_negbin(durations: Sequence[int]) -> NegBinParams:
    """Fit the negative binomial law to wet-period durations.

    Durations are whole days >= 1 while the negative binomial is supported
    on {0, 1, 2, ...}, so the fit is applied to durations - 1.  Moment
    estimates seed a one-dimensional likelihood maximization in the shape r,
    with p profiled out as p = r / (r + mean).  Data whose variance does not
    exceed the mean carry no overdispersion signal and are rejected.

    The fit runs on the counts of the distinct durations, their sufficient
    statistic: with counts c_j of the shifted values k_j, m spells and
    S = sum c_j k_j, the profile log likelihood is
    sum c_j gammaln(r + k_j) - m gammaln(r) + m r log p + S log(1 - p).
    So its cost grows with the number of distinct lengths, not of spells,
    and the result depends only on the multiset of durations, bit for bit.
    The bounded search in log r stops at a step of about
    sqrt(machine eps) |log r| + ``xatol`` / 3, and a likelihood flat to
    rounding at its peak limits it alike, so r is resolved to about 1e-8
    to 1e-7 relative, not to ``xatol``.
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
    excess = m * square - total * total - (m - 1) * total  # m (m - 1) (var - mean)
    mean = total / m
    if excess <= 0:
        var = (m * square - total * total) / (m * (m - 1))
        raise EstimationError(
            f"no overdispersion: variance {var:.6g} <= mean {mean:.6g}; "
            "negative binomial fit with r > 0 unavailable "
            "(data sit at the geometric/Poisson boundary)"
        )
    r0 = total * total * (m - 1) / (m * excess)
    shifted = values.astype(float) - 1.0
    counts = counts.astype(float)

    def negative_profile_ll(log_r):
        # log p = -log1p(t) and log(1 - p) = log t - log1p(t) with t = mean / r,
        # finite even where p = r / (r + mean) rounds to 1
        r = math.exp(log_r)
        t = mean / r
        return -(
            float(counts @ gammaln(r + shifted)) - m * math.lgamma(r)
            + total * math.log(t) - (m * r + total) * math.log1p(t)
        )

    result = minimize_scalar(
        negative_profile_ll,
        bounds=(np.log(r0) - 7.0, np.log(r0) + 7.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    r_hat = float(np.exp(result.x))
    return NegBinParams(r_hat, r_hat / (r_hat + mean))
