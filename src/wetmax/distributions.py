"""Closed-form distributions for wet-spell precipitation maxima.

The central object is the three-parameter law on the positive half line with
distribution function

    F(x) = (lam * x**gamma / (1 + lam * x**gamma))**r,    x >= 0,

the limit distribution of the scaled maximum of a random (negative-binomial)
number of heavy-tailed daily precipitation volumes.  It is a gamma scale
mixture of Frechet laws, and also the law of a power of a Snedecor-Fisher
variate.

Besides the limit law (cdf, pdf, quantile, fractional moments) the module
evaluates the component laws the limit is built from: gamma and generalized
gamma densities, the Weibull distribution function, the negative binomial
pmf, the two mixing densities of its mixed-geometric representation,
fractional moments of one-sided stable laws, the density of a ratio of two
independent one-sided stable variates, and the Snedecor-Fisher density.

All functions are pure and deterministic, accept scalars or numpy arrays for
the principal argument, and are accurate to near machine precision where a
closed form exists.  Gamma-function ratios are evaluated through ``gammaln``
so that large arguments (e.g. negative binomial counts of several hundred)
do not overflow.  Every scalar parameter is checked by one helper, which
rejects NaN, infinities and values outside the parameter's interval with a
``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


class MomentNotDefinedError(ValueError):
    """Requested moment order is at or beyond the tail exponent."""


def _checked(name: str, value, low: float = 0.0, high: float = math.inf, closed: str = "()") -> float:
    """``value`` as a float, checked to be finite and inside the interval from low to high.

    ``closed`` spells the interval's brackets: ``"()"`` (the default) is open
    at both ends, ``"[)"`` includes ``low``, ``"(]"`` includes ``high``.
    Plain float comparisons keep the check cheap, since the estimators build
    parameter objects in their inner loops.
    """
    x = float(value)
    above = x >= low if closed[0] == "[" else x > low
    below = x <= high if closed[1] == "]" else x < high
    if not (above and below and math.isfinite(x)):
        raise ValueError(f"{name} must lie in {closed[0]}{low!r}, {high!r}{closed[1]}, got {x!r}")
    return x


def _checked_count(name: str, value) -> int:
    """``value`` as an int, checked to be a whole number >= 1.

    The interval check of :func:`_checked` comes first, so NaN and
    infinities get its message instead of the errors ``int()`` raises on them.
    """
    _checked(name, value, 1, closed="[)")
    n = int(value)
    if n != value:
        raise ValueError(f"{name} must be a whole number, got {float(value)!r}")
    return n


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class ModelParams:
    """Parameters (r, lam, gamma) of the wet-spell maximum law.

    r is the shape, lam the scale rate (units mm**-gamma for data in mm) and
    gamma the tail exponent.  Moments of order delta exist only for
    delta < gamma.  All three must be strictly positive; product-form
    samplers impose the extra restriction r <= 1 and gamma <= 1, not this
    container.
    """

    r: float
    lam: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "r", _checked("r", self.r))
        object.__setattr__(self, "lam", _checked("lam", self.lam))
        object.__setattr__(self, "gamma", _checked("gamma", self.gamma))


@dataclass(frozen=True)
class GammaParams:
    """Gamma law with shape r and rate lam, density lam^r x^(r-1) e^(-lam x) / Gamma(r)."""

    r: float
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "r", _checked("r", self.r))
        object.__setattr__(self, "lam", _checked("lam", self.lam))


@dataclass(frozen=True)
class GGParams:
    """Generalized gamma law: the power transform G^(1/gamma) of a gamma variate."""

    r: float
    gamma: float
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "r", _checked("r", self.r))
        object.__setattr__(self, "lam", _checked("lam", self.lam))
        gamma = float(self.gamma)
        _checked("|gamma|", abs(gamma))  # either sign, not zero
        object.__setattr__(self, "gamma", gamma)


@dataclass(frozen=True)
class NegBinParams:
    """Negative binomial law with shape r > 0 and success probability p in (0, 1)."""

    r: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "r", _checked("r", self.r))
        object.__setattr__(self, "p", _checked("p", self.p, 0.0, 1.0))

    @property
    def mu(self) -> float:
        """Odds p / (1 - p), the rate of the gamma law mixing the Poisson form."""
        return self.p / (1.0 - self.p)

    @property
    def mean(self) -> float:
        return self.r * (1.0 - self.p) / self.p


# ---------------------------------------------------------------------------
# argument handling


def _as_float_array(x, strict=False):  # checked to be >= 0, or > 0 when strict
    arr = np.asarray(x, dtype=float)
    if not np.logical_and.reduce(arr > 0.0 if strict else arr >= 0.0, axis=None):
        if np.isnan(arr).any():
            raise ValueError("x must not be NaN")
        raise ValueError(f"x must be {'>' if strict else '>='} 0.0, got {float(np.min(arr))!r}")
    return arr


def _maybe_scalar(out, x):
    return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# the limit law


def limit_cdf(x, params: ModelParams):
    """Distribution function (lam x^gamma / (1 + lam x^gamma))^r for x >= 0."""
    arr = _as_float_array(x)
    # (t/(1+t))^r written as exp(-r*log1p(1/t)); exact 0 at t=0, exact 1 at
    # t=inf, so x**gamma overflowing to inf still lands on the right value.
    # Each step after the power runs in place in its result; the 1-d view
    # gives a 0-d x an array that ufuncs can write to.
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        out = arr.reshape(-1) ** params.gamma
        out *= params.lam
        np.divide(1.0, out, out=out)
        np.log1p(out, out=out)
        out *= -params.r
        np.exp(out, out=out)
    return _maybe_scalar(out.reshape(arr.shape), x)


def _log_pdf_terms(logx, r: float, lam: float, gamma: float):
    """(log density, log pi, gamma log x) of the limit law at log x, unchecked.

    With t = lam x^gamma and pi = t / (1 + t), the log density is
    (log(r gamma) - log x) + (r log pi - (log t - log pi)), and
    log pi = -log1p(1/t) = -(max(-log t, 0) + log1p(exp(-|log t|))), the
    formula of ``-np.logaddexp(0, -log t)`` written in numpy's vectorised
    ``exp`` and ``log1p``, which are several times faster than its
    per-element loop.  With no r log lam term the density stays exact as r
    and lam grow together towards the Frechet law, where r log pi tends to
    -(r/lam) x^-gamma, and where r gamma overflows log(r gamma) is taken as
    log r + log gamma.  ``logx`` is an array of at least one dimension: the
    terms are computed in place, in four arrays of its size, by the same
    operations in the same order as the formulas above.
    """
    gl = gamma * logx
    log_t = np.log(lam) + gl
    log_pi = np.abs(log_t)
    np.negative(log_pi, out=log_pi)
    np.exp(log_pi, out=log_pi)
    np.log1p(log_pi, out=log_pi)
    out = np.negative(log_t)
    np.maximum(out, 0.0, out=out)
    log_pi += out
    np.negative(log_pi, out=log_pi)
    log_t -= log_pi
    np.multiply(r, log_pi, out=out)
    out -= log_t
    rg = r * gamma
    log_rg = np.log(rg) if rg < math.inf else math.log(r) + math.log(gamma)  # r gamma overflowed
    np.subtract(log_rg, logx, out=log_t)
    out += log_t  # the first bracket plus the second, commuted
    return out, log_pi, gl


def limit_log_pdf(x, params: ModelParams):
    """Log density of the limit law at x > 0, in the stable form of :func:`_log_pdf_terms`.

    Where gamma log x overflows to -inf, t = lam x^gamma is 0 in floats and
    those terms give nan.  The log density there is the textbook form
    without its log1p(t) term, log(r gamma) + r log lam + (r gamma - 1) log x,
    which can be finite; it is written as
    (log r + log gamma - log x) + r gamma (log x + log(lam) / gamma) so that
    it is -inf, not nan, where r gamma or the product overflows.
    """
    arr = _as_float_array(x, strict=True)
    r, lam, gamma = params.r, params.lam, params.gamma
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        logx = np.log(arr.reshape(-1))
        out, _, gl = _log_pdf_terms(logx, r, lam, gamma)
        edge = gl == -np.inf
        lx = logx[edge]
        out[edge] = (math.log(r) + math.log(gamma) - lx) + (r * gamma) * (lx + math.log(lam) / gamma)
    return _maybe_scalar(out.reshape(arr.shape), x)


def limit_pdf(x, params: ModelParams):
    """Density r gamma lam^r x^(gamma r - 1) / (1 + lam x^gamma)^(r+1), x > 0."""
    with np.errstate(under="ignore"):  # a density below the smallest float is 0
        return np.exp(limit_log_pdf(x, params))


def _log_odds(p, r, xp=np):
    """Log odds ell(p, r) = log(p^(1/r) / (1 - p^(1/r))) of levels p in (0, 1).

    F(x) = p exactly when ell(p, r) = log lam + gamma log x: on this scale
    the law is a line in log x.  ``xp`` supplies ``log`` and ``expm1``:
    numpy for arrays, or ``math`` for one float, where numpy's per-call
    cost would dominate.
    """
    log_t = xp.log(p) / r
    return log_t - xp.log(-xp.expm1(log_t))


def limit_quantile(eps, params: ModelParams):
    """Quantile of order eps in (0, 1): (eps^(1/r) / (lam (1 - eps^(1/r))))^(1/gamma)."""
    arr = np.asarray(eps, dtype=float)
    if arr.size:  # the extremes stand for the array; NaN propagates into both
        _checked("eps", arr.min(), 0.0, 1.0)
        _checked("eps", arr.max(), 0.0, 1.0)
    out = np.exp((_log_odds(arr, params.r) - np.log(params.lam)) / params.gamma)
    return _maybe_scalar(out, eps)


def limit_moment(delta: float, params: ModelParams) -> float:
    """Fractional moment E[M^delta] for 0 < delta < gamma.

    Equals Gamma(r + delta/gamma) * Gamma(1 - delta/gamma) /
    (lam^(delta/gamma) * Gamma(r)).  Orders delta >= gamma do not exist
    because the density decays like x^(-1-gamma).
    """
    delta = _checked("delta", delta)
    if delta >= params.gamma:
        raise MomentNotDefinedError(
            f"moment of order {delta} does not exist: requires delta < gamma = {params.gamma}"
        )
    u = delta / params.gamma
    return float(
        np.exp(gammaln(params.r + u) + gammaln(1.0 - u) - u * np.log(params.lam) - gammaln(params.r))
    )


# ---------------------------------------------------------------------------
# component laws


def gamma_pdf(x, params: GammaParams):
    """Gamma density with shape r and rate lam."""
    arr = _as_float_array(x)
    r, lam = params.r, params.lam
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        out = np.exp(r * np.log(lam) - gammaln(r) + (r - 1.0) * np.log(arr) - lam * arr)
    if r == 1.0:  # x = 0 gives 0*log(0) above; the exponential density is lam there
        out = np.where(arr == 0.0, lam, out)
    return _maybe_scalar(out, x)


def gg_pdf(x, params: GGParams):
    """Generalized gamma density |gamma| lam^r x^(gamma r - 1) e^(-lam x^gamma) / Gamma(r)."""
    arr = _as_float_array(x, strict=True)
    r, gamma, lam = params.r, params.gamma, params.lam
    with np.errstate(over="ignore", under="ignore"):  # x^gamma = inf gives exp(-inf) = 0
        out = np.exp(
            np.log(abs(gamma))
            + r * np.log(lam)
            - gammaln(r)
            + (gamma * r - 1.0) * np.log(arr)
            - lam * arr ** gamma
        )
    return _maybe_scalar(out, x)


def weibull_cdf(x, gamma: float):
    """Weibull distribution function 1 - exp(-x^gamma) for x >= 0."""
    gamma = _checked("gamma", gamma)
    arr = _as_float_array(x)
    with np.errstate(over="ignore", under="ignore"):  # x^gamma = inf gives exactly 1
        out = -np.expm1(-(arr ** gamma))
    return _maybe_scalar(out, x)


def negbin_pmf(k, params: NegBinParams):
    """P(N = k) = Gamma(r+k) p^r (1-p)^k / (k! Gamma(r)) for k = 0, 1, 2, ..."""
    arr = np.asarray(k)
    if not np.issubdtype(arr.dtype, np.number):
        raise ValueError(f"k must be numeric, got {k!r}")
    if np.any(arr < 0) or np.any(arr != np.floor(arr)):
        raise ValueError(f"k must contain nonnegative integers, got {k!r}")
    kk = arr.astype(float)
    r, p = params.r, params.p
    with np.errstate(under="ignore"):  # a mass below the smallest float is 0
        out = np.exp(
            gammaln(r + kk) - gammaln(kk + 1.0) - gammaln(r)
            + r * np.log(p) + kk * np.log1p(-p)
        )
    return _maybe_scalar(out, k)


def negbin_odds_mixing_density(z, r: float, mu: float):
    """Density of the random odds in the mixed-geometric form of the negative binomial.

    A negative binomial count with shape r in (0, 1) is a geometric count
    whose success probability is random; writing that probability as
    Z/(Z+1), the odds variable Z has density

        mu^r / (Gamma(1-r) Gamma(r)) * 1(z >= mu) / ((z - mu)^r z),

    where mu = p/(1-p).  The singularity at z = mu is integrable.
    """
    r = _checked("r", r, 0.0, 1.0)
    mu = _checked("mu", mu)
    arr = np.asarray(z, dtype=float)
    log_const = r * np.log(mu) - gammaln(1.0 - r) - gammaln(r)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        out = np.where(
            arr >= mu,
            np.exp(log_const - r * np.log(arr - mu) - np.log(arr)),
            0.0,
        )
    return _maybe_scalar(out, z)


def negbin_prob_mixing_density(y, r: float, p: float):
    """Density of the random success probability in the mixed-geometric form.

    Supported on p < y < 1:

        p^r / (Gamma(1-r) Gamma(r)) * (1 - y)^(r-1) / (y (y - p)^r).
    """
    r = _checked("r", r, 0.0, 1.0)
    p = _checked("p", p, 0.0, 1.0)
    arr = np.asarray(y, dtype=float)
    log_const = r * np.log(p) - gammaln(1.0 - r) - gammaln(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            (arr > p) & (arr < 1.0),
            np.exp(
                log_const
                + (r - 1.0) * np.log1p(-arr)
                - np.log(arr)
                - r * np.log(arr - p)
            ),
            0.0,
        )
    return _maybe_scalar(out, y)


def stable_ratio_density(x, alpha: float):
    """Density of the ratio of two i.i.d. one-sided stable variates.

    For alpha in (0, 1):

        v(x) = sin(pi alpha) x^(alpha-1) / (pi [1 + x^(2 alpha) + 2 x^alpha cos(pi alpha)]).

    The law is self-reciprocal: the ratio and its inverse coincide in
    distribution, equivalently v(x) = v(1/x) / x^2.
    """
    alpha = _checked("alpha", alpha, 0.0, 1.0)
    arr = _as_float_array(x, strict=True)
    with np.errstate(over="ignore", under="ignore"):  # an infinite denominator gives exactly 0
        xa = arr ** alpha
        out = np.sin(np.pi * alpha) * arr ** (alpha - 1.0) / (
            np.pi * (1.0 + xa * xa + 2.0 * xa * np.cos(np.pi * alpha))
        )
    return _maybe_scalar(out, x)


def stable_moment(alpha: float, beta: float) -> float:
    """Fractional moment E[S^beta] = Gamma(1 - beta/alpha) / Gamma(1 - beta).

    S is the one-sided strictly stable variate with exponent alpha in (0, 1]
    (normalized so that its Laplace transform is exp(-s^alpha)); the moment
    exists for 0 < beta < alpha, and equals 1 identically when alpha = 1.
    """
    alpha = _checked("alpha", alpha, 0.0, 1.0, "(]")
    beta = _checked("beta", beta, 0.0, alpha)
    return float(np.exp(gammaln(1.0 - beta / alpha) - gammaln(1.0 - beta)))


def snedecor_fisher_density(x, r: float):
    """Snedecor-Fisher density r^(r+1) x^(r-1) / (1 + r x)^(r+1) for x >= 0.

    This is the F density with (2r, 2) degrees of freedom, i.e. the law of
    G / (r E) for independent G ~ gamma(r, 1) and standard exponential E.
    The wet-spell maximum law is recovered as the law of (r Q / lam)^(1/gamma)
    for Q with this density.
    """
    r = _checked("r", r)
    arr = _as_float_array(x)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        out = np.exp(
            (r + 1.0) * np.log(r)
            + (r - 1.0) * np.log(arr)
            - (r + 1.0) * np.log1p(r * arr)
        )
    if np.any(arr == 0.0):
        # x^(r-1) at zero: 0 for r > 1, 1 for r = 1 (value r^(r+1) = 1), inf for r < 1
        at_zero = 1.0 if r == 1.0 else (0.0 if r > 1.0 else np.inf)
        out = np.where(arr == 0.0, at_zero, out)
    return _maybe_scalar(out, x)
