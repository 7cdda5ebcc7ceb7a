"""Daily precipitation ingestion, wet-period segmentation, maxima extraction.

A wet period is a maximal run of consecutive days whose precipitation
exceeds the wet threshold (default 0: any positive reading is wet).  Runs
are bounded by dry days; a day marked missing also terminates a run, and so
does a calendar gap when the series carries dates (two rows more than one
day apart).  The per-period maxima, censored by a minimum period length h,
form the sample the estimators in :mod:`wetmax.estimation` consume, and the
period lengths feed the negative binomial duration fit.

The periods are stored as runs over the series: start index, length and
maximum of each run, found with array operations on the wet mask, so
censoring at h is a mask over the run lengths.
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import dataclass, field
from itertools import repeat
from typing import List, Optional

import numpy as np

from .distributions import _checked, _checked_count
from .estimation import MaximaSample


class CsvFormatError(ValueError):
    """Input file does not conform to the documented CSV layout."""


class EmptySampleError(ValueError):
    """Censoring left no wet period to take a maximum from."""


def _day_numbers(dates: List[str]) -> np.ndarray:
    """Day numbers of ISO ``YYYY-MM-DD`` dates, checked to increase strictly."""
    try:
        days = np.array(dates, dtype="datetime64[D]")
    except ValueError:
        days = None
    if days is None or set(map(len, dates)) != {10} or np.isnat(days).any():
        for i, date in enumerate(dates):
            if not _is_iso_date(date):
                raise ValueError(f"date {date!r} at index {i} is not a YYYY-MM-DD date")
        raise ValueError("dates must be YYYY-MM-DD dates")
    days = days.astype(np.int64)
    backward = np.flatnonzero(np.diff(days) <= 0)
    if backward.size:
        i = int(backward[0]) + 1
        raise ValueError(
            f"dates must increase strictly: {dates[i]!r} at index {i} "
            f"follows {dates[i - 1]!r}"
        )
    return days


def _is_iso_date(text: str) -> bool:
    try:
        return len(text) == 10 and not np.isnat(np.datetime64(text, "D"))
    except ValueError:
        return False


@dataclass(frozen=True, eq=False)
class PrecipSeries:
    """Ordered daily precipitation record; NaN marks an explicitly missing day.

    ``dates``, when given, are ISO ``YYYY-MM-DD`` strings in strictly
    increasing order; ``days`` holds them as day numbers.
    """

    values: np.ndarray
    dates: Optional[List[str]] = None
    days: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("precipitation series must be nonempty")
        observed = arr[~np.isnan(arr)]
        if np.any(observed < 0.0) or np.any(np.isinf(observed)):
            raise ValueError("precipitation values must be finite and >= 0")
        if self.dates is not None:
            if len(self.dates) != arr.size:
                raise ValueError("dates and values must have equal length")
            object.__setattr__(self, "days", _day_numbers(self.dates))
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(eq=False)
class WetPeriods:
    """Segmented wet spells as runs over the series, plus any segmentation warnings.

    Run k covers ``values[starts[k] : starts[k] + run_lengths[k]]`` and has
    maximum ``maxima[k]``; runs are in series order.
    """

    values: np.ndarray
    starts: np.ndarray
    run_lengths: np.ndarray
    maxima: np.ndarray
    warnings: List[str] = field(default_factory=list)

    @property
    def periods(self) -> List[np.ndarray]:
        return [self.values[s:s + n].copy() for s, n in zip(self.starts, self.run_lengths)]

    @property
    def lengths(self) -> List[int]:
        return self.run_lengths.tolist()

    @property
    def m(self) -> int:
        return int(self.starts.size)

    def to_json_dict(self) -> dict:
        values, lengths = self.values.tolist(), self.lengths
        return {
            "periods": [values[s:s + n] for s, n in zip(self.starts.tolist(), lengths)],
            "lengths": lengths,
        }


@dataclass(frozen=True)
class CensoringSpec:
    """Minimum wet-period length (days) for a period's maximum to be kept."""

    h: int = 1

    def __post_init__(self):
        object.__setattr__(self, "h", _checked_count("h", self.h))


def segment(
    series: PrecipSeries,
    wet_threshold: float = 0.0,
    missing_policy: str = "split",
) -> WetPeriods:
    """Split the series into maximal runs of days above the wet threshold.

    Days at or below the threshold are dry.  A missing day always ends the
    current run, and so does a calendar gap between two dated rows.  Under
    the default ``split`` policy a missing day or a calendar gap falling
    between two wet days is recorded as a warning; under ``dry`` both are
    treated as ordinary dry days silently.
    """
    wet_threshold = _checked("wet_threshold", wet_threshold, closed="[)")
    if missing_policy not in ("split", "dry"):
        raise ValueError(f"missing policy must be 'split' or 'dry', got {missing_policy!r}")
    values = series.values
    wet = values > wet_threshold  # NaN compares False: missing days are never wet

    # joined[i]: day i continues the run of day i - 1
    joined = np.zeros(values.size, dtype=bool)
    joined[1:] = wet[1:] & wet[:-1]
    gap_at = np.zeros(0, dtype=np.intp)
    if series.days is not None:
        gap = np.zeros(values.size, dtype=bool)
        gap[1:] = np.diff(series.days) > 1
        gap_at = np.flatnonzero(joined & gap)
        joined &= ~gap
    starts = np.flatnonzero(wet & ~joined)
    ends = np.flatnonzero(wet & ~np.append(joined[1:], False)) + 1
    if starts.size:
        maxima = np.maximum.reduceat(np.where(wet, values, -np.inf), starts)
    else:
        maxima = np.zeros(0)

    notes = []
    if missing_policy == "split":
        split_at = np.flatnonzero(np.isnan(values[1:-1]) & wet[:-2] & wet[2:]) + 1
        notes += [(i, f"missing day at index {i} split a wet run") for i in split_at.tolist()]
        for i in gap_at.tolist():
            skipped = int(series.days[i] - series.days[i - 1]) - 1
            notes.append((i, f"calendar gap of {skipped} day(s) between {series.dates[i - 1]} "
                             f"and {series.dates[i]} (index {i}) split a wet run"))
    warnings = [text for _i, text in sorted(notes)]
    return WetPeriods(values, starts, ends - starts, maxima, warnings)


def durations(wp: WetPeriods) -> List[int]:
    """Lengths of the wet periods, in days, in series order."""
    return wp.lengths


def build_maxima(wp: WetPeriods, censoring: CensoringSpec | int = CensoringSpec(1)) -> MaximaSample:
    """Per-period maxima of every wet period at least h days long, in order."""
    spec = censoring if isinstance(censoring, CensoringSpec) else CensoringSpec(censoring)
    kept = wp.maxima[wp.run_lengths >= spec.h]
    if not kept.size:
        longest = int(wp.run_lengths.max(initial=0))
        raise EmptySampleError(
            f"no wet period of length >= {spec.h} days "
            f"(longest available: {longest} days)"
        )
    return MaximaSample(kept)


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
    """A first row whose value cell is neither a number nor the missing marker is a header.

    A number that is not a valid reading (negative, infinite, NaN) is data,
    and the row parse names it as an error on line 1.
    """
    cell = first[-1].strip()
    if cell == missing_marker:
        return False
    try:
        float(cell)
    except ValueError:
        return True
    return False


def _parse_whole(text: str, missing_marker: str) -> Optional[PrecipSeries]:
    """Parse the text in one vectorised pass; None when a row needs the line parser.

    The pass takes only text that ``csv.reader`` would split the same way
    (no quotes, no lone carriage returns, one column count throughout) and
    whose every row is valid, so it returns exactly what
    :func:`_parse_lines` returns, without the per-row Python work.
    """
    if '"' in text or missing_marker != missing_marker.strip():
        return None
    text = text.replace("\r\n", "\n")
    if "\r" in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    commas = set(map(str.count, lines, repeat(",")))
    if not lines or len(commas) != 1 or not commas <= {0, 1}:
        return None
    two_columns = commas == {1}
    body = lines[1:] if _has_header(lines[0].split(","), missing_marker) else lines
    if not body:
        return None
    if two_columns:
        cells = ",".join(body).split(",")
        dates, column = [d.strip() for d in cells[0::2]], cells[1::2]
    else:
        dates, column = None, body
    missing = column.count(missing_marker)
    if missing:
        column = ["nan" if c == missing_marker else c for c in column]
    try:
        values = np.array(list(map(float, column)))
    except ValueError:
        return None
    if np.count_nonzero(np.isnan(values)) != missing:
        return None  # a 'nan' cell that is not the missing marker
    try:
        return PrecipSeries(values, dates=dates)
    except ValueError:
        return None


def _parse_lines(text: str, path: str, missing_marker: str) -> PrecipSeries:
    """Row-by-row ``csv.reader`` parse that names the first offending line."""
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


def ingest_csv(
    path: str,
    missing_marker: str = "NA",
) -> PrecipSeries:
    """Read a daily precipitation series from ``path`` ('-' for stdin).

    Accepted layouts: one value per row, or two columns ``date,value`` with
    ISO ``YYYY-MM-DD`` dates in strictly increasing order.  A header row is
    skipped if its value cell is not a number at all.  Cells equal to
    ``missing_marker`` become missing days.  Malformed or negative cells,
    and duplicate or backward dates, raise :class:`CsvFormatError` naming
    the offending line.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, newline="") as handle:
                text = handle.read()
        except OSError as exc:
            raise CsvFormatError(f"cannot read {path!r}: {exc}") from exc
    series = _parse_whole(text, missing_marker)
    return series if series is not None else _parse_lines(text, path, missing_marker)
