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

:func:`ingest_csv` is the one reader from CSV text to a series.  It splits
rows as ``csv.reader`` does, with ``csv.reader`` itself only for text with
a quote; other text, its CR and CRLF line ends made LF, is scanned once as
UTF-8 bytes for its commas and newlines.  It converts each column once with
``np.array``, and looks for the first offending line only when that
conversion or a check fails.
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import List, Optional

import numpy as np

from .distributions import _checked, _checked_count
from .estimation import MaximaSample


class CsvFormatError(ValueError):
    """Input file does not conform to the documented CSV layout."""


class EmptySampleError(ValueError):
    """Censoring left no wet period to take a maximum from."""


class _DateError(ValueError):
    """Date ``index`` is no YYYY-MM-DD date or does not follow the one before, as ``problem`` says."""

    def __init__(self, dates: List[str], index: int, backward: bool):
        self.index, date = index, dates[index]
        self.problem = (f"date {date!r} does not follow {dates[index - 1]!r}; dates must increase strictly"
                        if backward else f"cannot parse date {date!r} (expected YYYY-MM-DD)")
        super().__init__(f"index {index}: {self.problem}")


def _convert_prefix(items: list, dtype):
    """``(np.array(items[:k], dtype=dtype), k)`` for the longest prefix numpy converts.

    numpy converts item by item (to ``float`` by Python's ``float``); when the
    whole list fails, a bisection finds the first item that does in about
    one more pass over the list.
    """
    try:
        return np.array(items, dtype=dtype), len(items)
    except ValueError:
        lo, hi = 0, len(items)  # items[:lo] convert, items[lo:hi] hold a failure
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.array(items[lo:mid], dtype=dtype)
            lo = mid
        except ValueError:
            hi = mid
    return np.array(items[:lo], dtype=dtype), lo


def _day_numbers(dates: List[str]) -> np.ndarray:
    """Day numbers of ISO ``YYYY-MM-DD`` dates, checked to increase strictly.

    Raises :class:`_DateError` at the first date, in order, that is not ten
    characters numpy reads as a day (its NaT strings, ``""`` and ``"NaT"`` in
    any case, are shorter), or that does not follow the one before.
    """
    # the lengths first: numpy warns on some longer strings, such as a time zone
    n = len(dates) if set(map(len, dates)) <= {10} else [len(d) == 10 for d in dates].index(False)
    days, n = _convert_prefix(dates[:n], "datetime64[D]")
    days = days.astype(np.int64)
    backward = np.flatnonzero(np.diff(days) <= 0)
    if backward.size:
        raise _DateError(dates, int(backward[0]) + 1, backward=True)
    if n < len(dates):
        raise _DateError(dates, n, backward=False)
    return days


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
        if np.any(arr < 0.0) or np.any(np.isinf(arr)):  # NaN, a missing day, fails both
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


def segment(series: PrecipSeries, wet_threshold: float = 0.0) -> WetPeriods:
    """Split the series into maximal runs of days above the wet threshold.

    Days at or below the threshold are dry.  A missing day ends the current
    run, and so does a calendar gap between two dated rows; each missing day
    or calendar gap that falls between two wet days is recorded as a warning.
    """
    wet_threshold = _checked("wet_threshold", wet_threshold, closed="[)")
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

    split_at = np.flatnonzero(np.isnan(values[1:-1]) & wet[:-2] & wet[2:]) + 1
    notes = [(i, f"missing day at index {i} split a wet run") for i in split_at.tolist()]
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


def _table(text: str):
    """(w, cells, short): rows split as ``csv.reader`` does, a blank line a row of no cells.

    w is the first row's cell count, cells those of the leading rows of w
    cells in one list, short the (index, count) of the first other row or
    None.  Only text with a quote goes to ``csv.reader``; a ``csv.Error``,
    such as a cell beyond ``csv.field_size_limit()``, raises
    :class:`CsvFormatError` naming the reader's line.  In other text, its
    CRLF and CR line ends made LF, no UTF-8 byte of another character is a
    comma or a newline: their byte positions give the cell counts, and one
    ``str`` split the cells.  A cell has at least as many bytes as
    characters, so only a row of more bytes than the field size limit is
    split on its own to find a cell beyond it, which raises the message
    ``csv.reader`` gives.
    """
    if '"' in text:
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise CsvFormatError(f"line {reader.line_num}: {exc}") from None
        width = len(rows[0])
        k = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
        return width, list(chain.from_iterable(rows[:k])), (k, len(rows[k])) if k < len(rows) else None
    body = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    body = body[:-1] if body.endswith("\n") else body
    data = np.frombuffer(body.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    ends = np.flatnonzero(data == 10)
    counts = np.bincount(np.searchsorted(ends, np.flatnonzero(data == 44)), minlength=ends.size + 1)
    spans = np.diff(ends, prepend=-1, append=data.size)  # each row's bytes and its newline
    counts += spans > 1  # a row of no bytes has no cells
    limit = csv.field_size_limit()
    if spans.max() > limit + 1:  # a cell of more characters than the limit has more bytes too
        lines = body.split("\n")
        for i in np.flatnonzero(spans > limit + 1).tolist():
            if max(map(len, lines[i].split(","))) > limit:
                raise CsvFormatError(f"line {i + 1}: field larger than field limit ({limit})")
    width = int(counts[0])
    short = np.flatnonzero(counts != width)
    if not short.size:
        return width, body.replace("\n", ",").split(",") if width else [], None
    k = int(short[0])  # the leading rows by line, as byte offsets are not string offsets
    return width, ",".join(body.split("\n", k)[:k]).split(",") if width else [], (k, int(counts[k]))


def _readings(cells: List[str], missing_marker: str):
    """(readings, None), or the readings before the first bad cell and its (index, error).

    A cell is missing, NaN, when it equals the marker once stripped.  The
    column is converted once; only a cell that does not parse, or a NaN that
    is not the marker, a negative or an infinite reading, sends it on to
    find the bad cell.
    """
    cells = list(map(str.strip, cells))
    missing = cells.count(missing_marker)
    column = ["nan" if c == missing_marker else c for c in cells] if missing else cells
    values, n = _convert_prefix(column, float)
    if n == len(cells) and np.count_nonzero(np.isfinite(values)) == n - missing and not np.any(values < 0.0):
        return values, None
    unmarked = np.array([c != missing_marker for c in cells[:n]], dtype=bool)
    infinite = ~np.isfinite(values) & unmarked
    bad = np.flatnonzero(infinite | (values < 0.0))
    if bad.size:
        n = int(bad[0])
        error = "value {!r} is not finite" if infinite[n] else "negative precipitation {!r}"
    else:
        error = "cannot parse value {!r}"
    return values[:n], (n, error.format(cells[n]))


def ingest_csv(path: str, missing_marker: str = "NA") -> PrecipSeries:
    """Read a daily precipitation series from ``path`` ('-' for stdin).

    Accepted layouts: one value per row, or two columns ``date,value`` with
    ISO ``YYYY-MM-DD`` dates in strictly increasing order.  A header row is
    skipped if its value cell is not a number at all.  Cells equal to
    ``missing_marker`` once stripped become missing days.  Rows are split as
    ``csv.reader`` splits them, and a blank line is a row of no cells.  A
    row ``csv.reader`` rejects (such as a cell beyond its field size limit)
    or with another cell count than the first, a malformed, negative or
    infinite value, or a malformed, duplicate or backward date raises
    :class:`CsvFormatError` naming the first offending line.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, newline="") as handle:
                text = handle.read()
        except OSError as exc:
            raise CsvFormatError(f"cannot read {path!r}: {exc}") from exc
    if not text:
        raise CsvFormatError(f"{path!r} is empty")
    width, cells, short = _table(text)
    if width not in (1, 2):
        raise CsvFormatError(f"line 1: expected 1 or 2 columns, got {width}")
    # a first row whose value cell is neither a number nor the marker is a header;
    # a number that is not a reading (negative, infinite, NaN) is an error on line 1
    cell = cells[width - 1].strip()
    header = cell != missing_marker and not _convert_prefix([cell], float)[1]
    body = cells[width:] if header else cells
    if not body and short is None:
        raise CsvFormatError(f"{path!r} contains a header but no data rows")
    dates = list(map(str.strip, body[0::2])) if width == 2 else None
    values, bad = _readings(body[width - 1::width], missing_marker)
    first_line = 2 if header else 1
    try:
        if bad is None and short is None:
            return PrecipSeries(values, dates=dates)
        if dates is not None:
            _day_numbers(dates[:values.size + 1])  # a bad date comes before a bad value on its row
    except _DateError as exc:
        raise CsvFormatError(f"line {exc.index + first_line}: {exc.problem}") from None
    if bad is not None:
        raise CsvFormatError(f"line {bad[0] + first_line}: {bad[1]}")
    raise CsvFormatError(f"line {short[0] + 1}: expected {width} column(s), got {short[1]}")
