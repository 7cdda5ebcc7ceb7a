"""Seedable random variate generation for the wet-spell maximum model.

Every sampler is a pure function of its parameters and a numpy
``Generator``; identical seeds give bit-identical streams.  The generator
factory :func:`make_rng` is built on the counter-based Philox engine, so
Monte Carlo studies can hand out disjoint substreams per replicate index and
still be reproducible when run in parallel.

The limit law can be drawn through any of seven equivalent product
representations (:class:`Representation`); the representations built from
stable ratios or from the mixed-geometric odds variable are only valid for
shape r <= 1 and tail exponent gamma <= 1.  Each of those two components
is one exact draw: the ratio by inversion of its d.f. (Lamperti 1958), the
odds variable as mu over a Beta(r, 1 - r) variate.

The arithmetic runs in place on the arrays the generator returns, with the
same draws and floating operations, in the same order, as the plain product
formulas, so the array streams are unchanged bit for bit; ``size=None``
gives the one-element draw as a float.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .distributions import (
    GammaParams,
    ModelParams,
    NegBinParams,
    _checked,
    _checked_count,
    _log_odds,
    _maybe_scalar,
)


class RepresentationDomainError(ValueError):
    """Representation requested outside its parameter domain (needs r, gamma <= 1)."""


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; distinct ``stream`` values give disjoint substreams."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)).jumped(stream))


class Representation(str, Enum):
    """Product forms of the limit variate M with d.f. (lam x^g / (1 + lam x^g))^r.

    DIRECT           G_{r,lam}^(1/gamma) / W_gamma (gamma variate over Weibull).
    SNEDECOR_FISHER  (r Q / lam)^(1/gamma) for a Snedecor-Fisher variate Q.
    STABLE           G_{r,lam}^(1/gamma) S_gamma / E  (one-sided stable factor).
    WEIBULL_RATIO    (W_gamma / W'_gamma) / Z^(1/gamma).
    PARETO_RATIO     Pi R_gamma / Z^(1/gamma)  (Pareto times stable ratio).
    FOLDED_NORMAL    |X| sqrt(2 E) R_gamma / (E' Z^(1/gamma)).
    MIXED_EXPONENTIAL  E / (E' R_gamma Z^(1/gamma)): exponential with random rate.

    Z is the random odds variable of the mixed-geometric representation of
    the negative binomial (drawn by :func:`sample_negbin_odds` at rate lam).
    All forms except DIRECT and SNEDECOR_FISHER require r <= 1 and gamma <= 1.
    """

    DIRECT = "direct"
    SNEDECOR_FISHER = "snedecor-fisher"
    STABLE = "stable"
    WEIBULL_RATIO = "weibull-ratio"
    PARETO_RATIO = "pareto-ratio"
    FOLDED_NORMAL = "folded-normal"
    MIXED_EXPONENTIAL = "mixed-exponential"


RESTRICTED_REPRESENTATIONS = frozenset(
    {
        Representation.STABLE,
        Representation.WEIBULL_RATIO,
        Representation.PARETO_RATIO,
        Representation.FOLDED_NORMAL,
        Representation.MIXED_EXPONENTIAL,
    }
)


def _shape(size):
    """The generator's ``size`` for a draw: ``()`` stands for one variate."""
    return () if size is None else size


def _finish(out, size):
    """The draws ``out``, or their one variate as a float when ``size`` is None."""
    return float(out) if size is None else out


def _exponential_in_place(u):
    """Standard exponential variates -log1p(-u), written over the uniforms ``u``."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def sample_gamma(params: GammaParams, rng, size=None):
    """Gamma variates with shape r and rate lam.

    Shapes below one are drawn by boosting a shape r+1 variate with an
    independent uniform power factor U^(1/r), which stays accurate where
    rejection samplers degrade.
    """
    shape = _shape(size)
    if params.r < 1.0:
        g = rng.standard_gamma(params.r + 1.0, size=shape)
        u = rng.random(shape)
        np.subtract(1.0, u, out=u)
        u **= 1.0 / params.r
        g *= u
    else:
        g = rng.standard_gamma(params.r, size=shape)
    g /= params.lam
    return _finish(g, size)


def sample_weibull(gamma: float, rng, size=None):
    """Weibull variates with d.f. 1 - exp(-x^gamma), drawn as E^(1/gamma) by inversion."""
    gamma = _checked("gamma", gamma)
    e = _exponential_in_place(rng.random(_shape(size)))
    e **= 1.0 / gamma
    return _finish(e, size)


def sample_stable_onesided(alpha: float, rng, size=None):
    """One-sided strictly stable variates, Laplace transform exp(-s^alpha).

    Uses the exact uniform-exponential (Kanter) transform for alpha < 1;
    alpha = 1 is the law degenerate at 1.  With U uniform on (0, pi), E
    standard exponential and c = (1 - alpha) / alpha, the log of the variate
    is log sin(alpha U) + c log sin((1 - alpha) U) - log sin(U) / alpha
    - c log E, summed from the left.
    """
    alpha = _checked("alpha", alpha, 0.0, 1.0, "(]")
    shape = _shape(size)
    if alpha == 1.0:
        return _finish(np.ones(shape), size)
    u = rng.random(shape)
    u *= np.pi
    c = (1.0 - alpha) / alpha
    log_s = np.multiply(alpha, u, out=np.empty_like(u))
    np.log(np.sin(log_s, out=log_s), out=log_s)
    term = np.multiply(1.0 - alpha, u, out=np.empty_like(u))
    np.log(np.sin(term, out=term), out=term)
    term *= c
    log_s += term
    np.log(np.sin(u, out=u), out=u)
    u /= alpha
    log_s -= u
    log_e = _exponential_in_place(rng.random(out=term))  # E goes into a spent buffer
    np.log(log_e, out=log_e)
    log_e *= c
    log_s -= log_e
    return _finish(np.exp(log_s, out=log_s), size)


def sample_stable_ratio(alpha: float, rng, size=None):
    """Ratio R of two independent one-sided stable variates with the same exponent.

    Drawn exactly from one uniform U by inverting the d.f. of R^alpha,
    (1/theta) [arctan((y + cos theta) / sin theta) - (pi/2 - theta)] with
    theta = pi alpha (Lamperti 1958): R = (sin(theta U) / sin(theta (1 - U)))^(1/alpha).
    alpha = 1 is accepted and degenerates to the constant 1, matching the
    degenerate stable factors it divides.
    """
    alpha = _checked("alpha", alpha, 0.0, 1.0, "(]")
    shape = _shape(size)
    if alpha == 1.0:
        return _finish(np.ones(shape), size)
    theta, u = np.pi * alpha, rng.random(shape)
    ratio = np.multiply(theta, u, out=np.empty_like(u))
    np.sin(ratio, out=ratio)
    np.subtract(1.0, u, out=u)
    u *= theta
    ratio /= np.sin(u, out=u)
    ratio **= 1.0 / alpha
    return _finish(ratio, size)


def sample_negbin_odds(r: float, mu: float, rng, size=None):
    """Random odds Z >= mu of the mixed-geometric negative binomial form.

    Z = mu / B for one variate B ~ Beta(r, 1 - r): the law of
    mu (G_r + G_{1-r}) / G_r for independent standard gamma variates.
    r = 1 is the plain geometric case where the mixing law collapses to the
    point mass at mu.
    """
    r = _checked("r", r, 0.0, 1.0, "(]")
    mu = _checked("mu", mu)
    shape = _shape(size)
    if r == 1.0:
        return _finish(np.full(shape, mu), size)
    b = rng.beta(r, 1.0 - r, shape)
    return _finish(np.divide(mu, b, out=b), size)


def sample_negbin(params: NegBinParams, rng, size=None):
    """Negative binomial counts, drawn as Poisson with a gamma(r, p/(1-p)) random rate."""
    rate = sample_gamma(GammaParams(params.r, params.mu), rng, size)
    return rng.poisson(rate)


def sample_limit(params: ModelParams, tag: Representation, rng, size=None):
    """Draw from the limit law through the product representation ``tag``.

    Every representation yields the same distribution on its domain; the
    stable/ratio based forms require r <= 1 and gamma <= 1 and raise
    :class:`RepresentationDomainError` otherwise.  Each factor is folded
    into the result as soon as it is drawn.
    """
    tag = Representation(tag)
    if tag in RESTRICTED_REPRESENTATIONS and (params.r > 1.0 or params.gamma > 1.0):
        raise RepresentationDomainError(
            f"representation {tag.value!r} requires r <= 1 and gamma <= 1, "
            f"got r={params.r}, gamma={params.gamma}"
        )
    r, lam, gamma = params.r, params.lam, params.gamma
    inv_g = 1.0 / gamma
    shape = _shape(size)

    def odds_power():  # Z^(1/gamma)
        z = sample_negbin_odds(r, lam, rng, shape)
        z **= inv_g
        return z

    if tag is Representation.DIRECT:
        out = sample_gamma(GammaParams(r, lam), rng, shape)
        out **= inv_g
        out /= sample_weibull(gamma, rng, shape)
    elif tag is Representation.SNEDECOR_FISHER:
        out = sample_gamma(GammaParams(r, 1.0), rng, shape)
        e = rng.standard_exponential(shape)
        e *= r
        out /= e  # Q = G / (r E)
        out *= r
        out /= lam
        out **= inv_g
    elif tag is Representation.STABLE:
        out = sample_gamma(GammaParams(r, lam), rng, shape)
        out **= inv_g
        out *= sample_stable_onesided(gamma, rng, shape)
        out /= rng.standard_exponential(shape)
    elif tag is Representation.WEIBULL_RATIO:
        out = sample_weibull(gamma, rng, shape)
        out /= sample_weibull(gamma, rng, shape)
        out /= odds_power()
    elif tag is Representation.PARETO_RATIO:
        out = rng.random(shape)
        out /= np.subtract(1.0, out)  # Pi = U / (1 - U): P(Pi > x) = 1/(1+x)
        out *= sample_stable_ratio(gamma, rng, shape)
        out /= odds_power()
    elif tag is Representation.FOLDED_NORMAL:
        out = rng.standard_normal(shape)
        np.abs(out, out=out)
        e = rng.standard_exponential(shape)
        e *= 2.0
        out *= np.sqrt(e, out=e)
        del e
        out *= sample_stable_ratio(gamma, rng, shape)
        den = rng.standard_exponential(shape)
        den *= odds_power()
        out /= den
    else:  # MIXED_EXPONENTIAL
        out = rng.standard_exponential(shape)
        den = rng.standard_exponential(shape)
        den *= sample_stable_ratio(gamma, rng, shape)
        den *= odds_power()
        out /= den
    return _finish(out, size)


def simulate_prelimit_max(n: int, params: ModelParams, q: float, pareto_gamma: float, rng, size=None):
    """Scaled maximum of a negative-binomial number of Pareto variates.

    The count N is negative binomial with shape ``params.r`` and success
    probability p = min(q, lam/n); the maximum is taken over N i.i.d. Pareto
    variates (d.f. 1 - x^-pareto_gamma on x >= 1) and divided by
    n^(1/pareto_gamma).  As n grows the output converges in distribution to
    the limit law with parameters (params.r, params.lam, pareto_gamma).  An
    empty maximum (N = 0) is recorded as 0; its probability p^r vanishes as
    n grows, and dropping the atom would bias small-n comparisons.

    The draw inverts the closed-form law of that maximum (Korolev & Sokolov
    2008).  Write gamma = pareto_gamma and mu = p / (1 - p).  The NegBin pgf
    (p / (1 - (1 - p) s))^r at s = 1 - 1/(n x^gamma), the chance that one
    scaled Pareto variate is <= x, gives

        P(M <= x) = (t / (1 + t))^r,  t = mu n x^gamma >= mu,

    and below that the atom P(M = 0) = (mu / (1 + mu))^r = p^r.  So
    M = (T / (mu n))^(1/gamma) when T > mu and 0 otherwise, for T with
    d.f. (t / (1 + t))^r on t > 0: the beta-prime(r, 1) law of G_r / E for
    a standard gamma G_r and a standard exponential E, which is the
    gamma-mixed Poisson form of the count (Korolev 2017).  One uniform V
    gives log T = ell(V, r) (:func:`~wetmax.distributions._log_odds`);
    V = 0 is T = 0, an empty maximum.
    """
    n = _checked_count("n", n)
    q = _checked("q", q, 0.0, 1.0)
    pareto_gamma = _checked("pareto_gamma", pareto_gamma)
    log_mu = math.log(NegBinParams(params.r, min(q, params.lam / n)).mu)
    v = rng.random(size)
    with np.errstate(divide="ignore"):  # log 0 = -inf at V = 0
        log_t = _log_odds(v, params.r)
    out = np.where(log_t > log_mu, np.exp((log_t - (log_mu + math.log(n))) / pareto_gamma), 0.0)
    return _maybe_scalar(out, v)
