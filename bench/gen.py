"""Benchmark inputs and the closed forms the output checks use.

Everything here uses numpy alone and none of ``wetmax``, so a change to the
program can change neither the inputs nor the reference values its outputs
are checked against.

The law of a wet-spell maximum is F(x) = (lam x^g / (1 + lam x^g))^r.  A
station's daily series is a run of wet spells separated by dry gaps; each
spell is 1 + NegBin(r, p) days long and carries its maximum, drawn by
inverting F, on one of its days.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# closed forms


def cdf(x, r, lam, g):
    """F(x) = (lam x^g / (1 + lam x^g))^r, written as exp(-r log1p(1/t))."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        t = lam * x ** g
        return np.exp(-r * np.log1p(1.0 / t))


def log_pdf(x, r, lam, g):
    """log of r g lam^r x^(g r - 1) / (1 + lam x^g)^(r + 1), for x > 0."""
    logx = np.log(np.asarray(x, dtype=float))
    return (np.log(r * g) + r * np.log(lam) + (g * r - 1.0) * logx
            - (r + 1.0) * np.logaddexp(0.0, np.log(lam) + g * logx))


def quantile(u, r, lam, g):
    """Inverse of F: (u^(1/r) / (lam (1 - u^(1/r))))^(1/g), for u in (0, 1)."""
    log_t = np.log(np.asarray(u, dtype=float)) / r
    return np.exp((log_t - np.log(lam) - np.log(-np.expm1(log_t))) / g)


def prelimit_cdf(x, n, r, lam, q, pareto_gamma):
    """Exact law of the scaled maximum of N ~ NegBin(r, p) Pareto variates.

    p = min(q, lam/n), Pareto d.f. 1 - y^-gamma on y >= 1, and the maximum
    is divided by n^(1/gamma).  By the NegBin pgf (p / (1 - (1-p) s))^r at
    s = P(Pareto <= x n^(1/gamma)) = max(0, 1 - 1/(n x^gamma)); the value at
    s = 0 is the atom p^r at 0 (an empty maximum).
    """
    x = np.asarray(x, dtype=float)
    p = min(q, lam / n)
    with np.errstate(divide="ignore"):
        s = np.where(x * n ** (1.0 / pareto_gamma) >= 1.0, 1.0 - 1.0 / (n * x ** pareto_gamma), 0.0)
    return (p / (1.0 - (1.0 - p) * s)) ** r


def ks_distance(values, cdf_at_sorted):
    """Exact sup |ECDF - F| over the sorted sample, F given at the sorted values."""
    m = len(cdf_at_sorted)
    i = np.arange(1, m + 1) / m
    return float(np.max(np.maximum(np.abs(i - cdf_at_sorted), np.abs(cdf_at_sorted - (i - 1.0 / m)))))


def ks_critical(n, alpha=1e-9):
    """Asymptotic one-sample Kolmogorov-Smirnov critical value at level alpha."""
    return float(np.sqrt(-np.log(alpha / 2.0) / 2.0) / np.sqrt(n))


# ---------------------------------------------------------------------------
# stations


@dataclass
class Station:
    """One synthetic station: its law, its series and the truth it was built from."""

    name: str
    r: float
    p: float
    lam: float
    gamma: float
    dates: np.ndarray        # datetime64[D], consecutive days
    values: np.ndarray       # mm, NaN for a missing day
    lengths: np.ndarray      # spell lengths, in series order
    maxima: np.ndarray       # spell maxima, in series order
    split_warnings: int      # missing days placed between two wet days

    def csv_text(self) -> str:
        cells = ["NA" if v != v else repr(float(v)) for v in self.values]
        return "date,value_mm\n" + "".join(
            f"{d},{c}\n" for d, c in zip(self.dates.astype(str), cells))


def make_station(rng: np.random.Generator, name: str, years: int, law) -> Station:
    """A daily series of ``years`` * 365 days with the law ``(r, p, lam, gamma)``.

    Gaps between spells are 1 + Geometric dry days, except that about one gap
    in a hundred is a single missing day between two spells (the segmenter
    must split there and warn) and about one in a hundred holds a missing day
    next to a dry one (no warning).
    """
    r, p, lam, gamma = law
    n_days = 365 * years
    n = n_days // 2  # more spells than can fit; the tail is cut below

    lengths = 1 + rng.negative_binomial(r, p, size=n)
    maxima = quantile(1.0 - rng.random(n), r, lam, gamma)
    gaps = rng.geometric(0.45, size=n)
    kind = rng.random(n)
    split = kind < 0.01                      # the gap is one missing day
    quiet = (kind >= 0.01) & (kind < 0.02)   # a missing day beside a dry one
    gaps[split] = 1
    gaps[quiet] = np.maximum(gaps[quiet], 2)

    # keep the whole spells (and their trailing gaps) that fit, pad with dry days
    ends = np.cumsum(lengths + gaps)
    keep = int(np.searchsorted(ends, n_days, side="right"))
    lengths, maxima, gaps, split, quiet = (a[:keep] for a in (lengths, maxima, gaps, split, quiet))

    values = np.zeros(n_days)
    starts = np.concatenate(([0], np.cumsum(lengths + gaps)[:-1]))
    wet_day = np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    spell_of_day = np.repeat(np.arange(keep), lengths)
    values[wet_day] = maxima[spell_of_day] * (1.0 - rng.random(wet_day.size))  # in (0, max]
    peak = starts + (rng.random(keep) * lengths).astype(int)
    values[peak] = maxima
    gap_start = starts + lengths
    values[gap_start[split]] = np.nan
    values[gap_start[quiet] + 1] = np.nan  # its neighbours: dry before, dry or wet after

    # after the last kept spell come dry padding days, so its gap splits nothing
    split_warnings = int(np.sum(split[:-1]))
    dates = np.datetime64("1950-01-01") + np.arange(n_days)
    return Station(name, float(r), float(p), float(lam), float(gamma), dates, values,
                   lengths, maxima, split_warnings)


# ranges of (r, p, lam, gamma) over the stations of a batch
STATION_RANGES = ((0.55, 0.95), (0.25, 0.4), (0.02, 0.2), (0.8, 1.6))


def station_laws(count: int) -> np.ndarray:
    """One (r, p, lam, gamma) per station: a Latin hypercube over
    STATION_RANGES, each station in its own stratum of every range.  The laws
    are the same for every seed (the seed draws the series), so the work a
    batch makes does not move with the seed."""
    rng = np.random.default_rng(20170601)
    strata = np.array([rng.permutation(count) for _ in STATION_RANGES]).T
    u = (strata + 0.5) / count
    lo, hi = np.array(STATION_RANGES).T
    return lo + u * (hi - lo)


def make_stations(seed: int, years) -> list:
    rng = np.random.default_rng([seed, 1])
    laws = station_laws(len(years))
    return [make_station(rng, f"st{k:02d}", y, law) for k, (y, law) in enumerate(zip(years, laws))]


# ---------------------------------------------------------------------------
# replicates


@dataclass
class Cell:
    """One cell of the estimator study: a true triple, a sample size, its replicates."""

    r: float
    lam: float
    gamma: float
    m: int
    p_dur: float
    maxima: list      # one array of m maxima per replicate
    durations: list   # one array of m spell lengths per replicate


# r and gamma on both sides of 1
TRIPLES = ((0.7, 1.5, 0.8), (0.7, 0.5, 1.4), (1.2, 1.0, 0.8), (1.2, 2.0, 1.3))


def make_cells(seed: int, sizes, replicates: int, triples=TRIPLES) -> list:
    rng = np.random.default_rng([seed, 2])
    cells = []
    for m in sizes:
        for r, lam, gamma in triples:
            maxima = [quantile(1.0 - rng.random(m), r, lam, gamma) for _ in range(replicates)]
            durations = [1 + rng.negative_binomial(r, 0.3, size=m) for _ in range(replicates)]
            cells.append(Cell(r, lam, gamma, m, 0.3, maxima, durations))
    return cells


# ---------------------------------------------------------------------------
# draws

RESTRICTED = (0.8, 1.2, 0.75)      # r, gamma <= 1: every representation applies
UNRESTRICTED = (1.3, 0.8, 1.4)     # only direct and snedecor-fisher apply
ALL_TAGS = ("direct", "snedecor-fisher", "stable", "weibull-ratio", "pareto-ratio",
            "folded-normal", "mixed-exponential")
PRELIMIT_N = (10, 100, 1000)
PRELIMIT_Q = 0.5


def draw_seeds(seed: int, count: int) -> list:
    """Seeds for the sampler calls, made by numpy alone from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence([seed, 3]).generate_state(count, dtype=np.uint32)]
