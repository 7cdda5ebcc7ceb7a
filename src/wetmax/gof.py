"""Goodness-of-fit statistics against the empirical distribution function.

The fit metric used throughout is the uniform (Kolmogorov-Smirnov) distance
between the empirical d.f. and the fitted model d.f.  It is computed exactly
from order statistics, never on a grid, so small discrepancies are not
blurred away.

:func:`emit_plot_data` writes the empirical-vs-model tables of one
sample's fits, one per report.  It takes the distance from each report
where the report has one, and measures it by :func:`ks_model` only where
the report has none (as :func:`~wetmax.estimation.fit_mle` leaves it).
The x and empirical d.f. columns, which the fits share, are formatted once
in one ``%`` operation, and the model column of each table in one more.

:func:`tail_index` is a Hill-type diagnostic for the regular-variation
(power tail) assumption the limit model rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .distributions import ModelParams, limit_cdf

if TYPE_CHECKING:
    from .estimation import FitReport


def _values(sample) -> np.ndarray:
    arr = np.asarray(getattr(sample, "values", sample), dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("sample must be nonempty")
    return arr


@dataclass(frozen=True)
class GofResult:
    """Uniform distance, where it is attained, and the sample size."""

    ks_distance: float
    location: float
    m: int


def ks_model(sample, params: ModelParams) -> GofResult:
    """Exact sup |empirical d.f. - model d.f.|.

    Evaluated over order statistics as max(|i/m - F(x_(i))|,
    |(i-1)/m - F(x_(i))|), which is exact even with ties.  In floats the
    lower level (i-1)/m is computed as i/m - 1/m, which differs from a
    once-rounded (i-1)/m in the last bit at about a quarter of the points.
    The distance is max(a, b) bit for bit, a = i/m - F and
    b = F - (i/m - 1/m): rounding is monotone and keeps i/m - 1/m <= i/m, so
    a negative one is at most the other in size.  The per-point values are
    computed in place, in three arrays of size m, by the same operations as
    those formulas, so the distance keeps its bits.
    """
    xs = getattr(sample, "sorted_values", None)  # a MaximaSample keeps its sorted copy
    if xs is None:
        xs = np.sort(_values(sample))
    m = xs.size
    model = np.asarray(limit_cdf(xs, params))
    i = np.arange(1.0, m + 1.0)  # whole floats, so i / m rounds as (integer i) / m does
    i /= m
    per_point = i - model
    i -= 1.0 / m
    np.subtract(model, i, out=model)
    np.maximum(per_point, model, out=per_point)
    at = int(per_point.argmax())
    return GofResult(float(per_point[at]), float(xs[at]), int(m))


def tail_index(sample, k: int) -> float:
    """Hill-type tail exponent estimate from the top k order statistics.

    gamma_hat = k / sum_{j=1..k} log(X_(m-j+1) / X_(m-k)).  Scale invariant;
    requires strictly positive data and 2 <= k < m.
    """
    xs = np.sort(_values(sample))
    m = xs.size
    if np.any(xs <= 0.0):
        raise ValueError("tail index needs strictly positive values")
    k = int(k)
    if not (2 <= k < m):
        raise ValueError(f"k must satisfy 2 <= k < m, got k={k}, m={m}")
    pivot = xs[m - k - 1]
    spacings = np.log(xs[m - k:] / pivot)
    total = float(np.sum(spacings))
    if total <= 0.0:
        raise ValueError("tail index undefined: zero log-spacings in the top sample")
    return k / total


def emit_plot_data(sample, reports: Iterable[FitReport], grid) -> list[str]:
    """Empirical vs model d.f. tables of fits over a grid of x values, as TSV, one per report.

    ``sample`` is the :class:`~wetmax.estimation.MaximaSample` that was
    fitted and ``reports`` its fits, in the order of the returned tables.
    Each header line carries the report's uniform distance (measured here by
    :func:`ks_model` where the report's is None), m and parameters; each
    row holds x, the empirical d.f. at x and the model d.f. at x.
    """
    xs = np.asarray(grid, dtype=float).ravel()
    if xs.size == 0:
        raise ValueError("grid must be nonempty")
    empirical = np.searchsorted(sample.sorted_values, xs, side="right") / sample.m
    shared = np.column_stack((xs, empirical)).ravel().tolist()
    rows = ("%.12g\t%.12g\t%%.12g\n" * xs.size) % tuple(shared)  # a %.12g slot left for the model d.f.
    tables = []
    for report in reports:
        params = report.params
        ks = report.ks_distance
        if ks is None:
            ks = ks_model(sample, params).ks_distance
        header = (
            f"# ks={ks:.12g} m={report.m} "
            f"r={params.r:.12g} lambda={params.lam:.12g} gamma={params.gamma:.12g}\n"
        )
        tables.append(header + rows % tuple(np.asarray(limit_cdf(xs, params)).tolist()))
    return tables
