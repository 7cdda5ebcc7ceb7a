import contextlib
import csv
import io
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import parse_csv_lines, segment_loop
from wetmax import (
    CsvFormatError,
    EmptySampleError,
    PrecipSeries,
    build_maxima,
    ingest_csv,
    segment,
)
from wetmax import pipeline
from wetmax.pipeline import _table


def series(*values):
    return PrecipSeries(np.array(values, dtype=float))


class TestSegment:
    def test_basic(self):
        wp = segment(series(0, 1, 2, 0, 3, 0), wet_threshold=0.0)
        assert [list(p) for p in wp.periods] == [[1.0, 2.0], [3.0]]
        assert wp.lengths == [2, 1]

    def test_all_dry(self):
        wp = segment(series(0, 0, 0))
        assert wp.m == 0
        assert wp.periods == []

    def test_leading_and_trailing_runs(self):
        wp = segment(series(5, 0, 0, 7, 8, 9))
        assert [list(p) for p in wp.periods] == [[5.0], [7.0, 8.0, 9.0]]
        assert wp.lengths == [1, 3]

    def test_threshold(self):
        wp = segment(series(0.1, 0.2, 1.0, 0.1, 2.0), wet_threshold=0.5)
        assert [list(p) for p in wp.periods] == [[1.0], [2.0]]

    def test_missing_splits_run_with_warning(self):
        wp = segment(series(1.0, np.nan, 2.0))
        assert [list(p) for p in wp.periods] == [[1.0], [2.0]]
        assert len(wp.warnings) == 1
        assert "index 1" in wp.warnings[0]

    def test_missing_next_to_dry_day_not_flagged(self):
        wp = segment(series(1.0, np.nan, 0.0, 2.0))
        assert wp.warnings == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            segment(series(1.0), wet_threshold=-1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        values = np.where(rng.random(500) < 0.6, rng.uniform(0.1, 5.0, 500), 0.0)
        wp = segment(PrecipSeries(values))
        rebuilt = []
        for p in wp.periods:
            rebuilt.extend(p)
            rebuilt.append(0.0)
        wp2 = segment(PrecipSeries(np.array(rebuilt))) if rebuilt else wp
        assert [list(a) for a in wp.periods] == [list(b) for b in wp2.periods]

    def test_day_count_invariant(self):
        rng = np.random.default_rng(1)
        values = np.where(rng.random(300) < 0.5, rng.uniform(0.1, 5.0, 300), 0.0)
        wp = segment(PrecipSeries(values))
        dry = int(np.sum(values == 0.0))
        assert sum(wp.lengths) + dry == values.size


class TestBuildMaxima:
    def test_h_one(self):
        wp = segment(series(0, 1, 2, 0, 3, 0))
        assert build_maxima(wp, 1).values.tolist() == [2.0, 3.0]

    def test_h_two(self):
        wp = segment(series(0, 1, 2, 0, 3, 0))
        assert build_maxima(wp, 2).values.tolist() == [2.0]

    def test_h_three_empty(self):
        wp = segment(series(0, 1, 2, 0, 3, 0))
        with pytest.raises(EmptySampleError, match="length >= 3.*longest available: 2"):
            build_maxima(wp, 3)

    def test_accepts_whole_number_of_any_type(self):
        wp = segment(series(0, 1, 2, 0, 3, 0))
        for h in (2.0, np.int64(2), np.float64(2.0)):
            assert build_maxima(wp, h).values.tolist() == [2.0]

    def test_monotone_in_h(self):
        rng = np.random.default_rng(2)
        values = np.where(rng.random(2000) < 0.7, rng.uniform(0.1, 9.0, 2000), 0.0)
        wp = segment(PrecipSeries(values))
        sizes = []
        for h in range(1, 6):
            try:
                sizes.append(build_maxima(wp, h).m)
            except EmptySampleError:
                sizes.append(0)
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == wp.m

    def test_maximum_is_largest_element(self):
        rng = np.random.default_rng(3)
        values = np.where(rng.random(500) < 0.6, rng.uniform(0.1, 5.0, 500), 0.0)
        wp = segment(PrecipSeries(values))
        maxima = build_maxima(wp, 1)
        for value, period in zip(maxima.values, wp.periods):
            assert value == max(period)

    def test_h_validation(self):
        wp = segment(series(0, 1, 2, 0, 3, 0))
        with pytest.raises(ValueError, match=r"^h must lie in \[1, inf\), got 0\.0$"):
            build_maxima(wp, 0)
        with pytest.raises(ValueError, match=r"^h must be a whole number, got 1\.5$"):
            build_maxima(wp, 1.5)
        with pytest.raises(ValueError, match=r"^h must lie in \[1, inf\), got nan$"):
            build_maxima(wp, float("nan"))


class TestDurations:
    def test_examples(self):
        assert segment(series(0, 1, 2, 0, 3, 0)).lengths == [2, 1]
        assert segment(series(0.0, 0.0)).lengths == []
        assert segment(series(5, 0, 0, 7, 8, 9)).lengths == [1, 3]


class TestIngestCsv:
    def test_two_column_with_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "date,value_mm\n"
            "2001-01-01,0.0\n2001-01-02,1.5\n2001-01-03,2.5\n"
            "2001-01-04,0.0\n2001-01-05,3.5\n2001-01-06,0.0\n"
        )
        got = ingest_csv(str(path))
        assert got.n == 6
        assert got.dates[0] == "2001-01-01"
        assert got.values[1] == 1.5

    def test_single_column(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("0.0\n1.0\n2.0\n")
        got = ingest_csv(str(path))
        assert got.values.tolist() == [0.0, 1.0, 2.0]
        assert got.dates is None

    def test_malformed_row_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,value_mm\n2001-02-28,1.0\n2001-02-30,abc\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            ingest_csv(str(path))

    def test_negative_rejected_with_line(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1.0\n-2.0\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            ingest_csv(str(path))

    def test_missing_marker_becomes_nan(self, tmp_path):
        path = tmp_path / "na.csv"
        path.write_text("date,value_mm\n2001-01-01,1.0\n2001-01-02,NA\n2001-01-03,2.0\n")
        got = ingest_csv(str(path))
        assert np.isnan(got.values[1])
        wp = segment(got)
        assert [list(p) for p in wp.periods] == [[1.0], [2.0]]
        assert len(wp.warnings) == 1

    def test_custom_missing_marker(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0\nmiss\n")
        got = ingest_csv(str(path), missing_marker="miss")
        assert np.isnan(got.values[1])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            ingest_csv(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("date,value_mm\n")
        with pytest.raises(CsvFormatError, match="no data"):
            ingest_csv(str(path))

    def test_missing_file(self):
        with pytest.raises(CsvFormatError, match="cannot read"):
            ingest_csv("/no/such/file.csv")

    def test_inconsistent_columns(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("2001-01-01,1.0\n2.0\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            ingest_csv(str(path))

    @pytest.mark.parametrize("text", ["\n1.5\n2.5\n0.7\n", '\n"1.5"\n2.5\n0.7\n', "\r\n1.5\r\n2.5\r\n"])
    def test_leading_blank_line_is_a_row_of_no_cells(self, tmp_path, text):
        path = tmp_path / "blank.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=r"^line 1: expected 1 or 2 columns, got 0$"):
            ingest_csv(str(path))

    @pytest.mark.parametrize("text", ["1.5\n\n2.5\n", '1.5\n\n"2.5"\n', "date,value_mm\n\n2001-01-01,1.0\n"])
    def test_inner_blank_line_is_a_row_of_no_cells(self, tmp_path, text):
        path = tmp_path / "blank.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=r"^line 2: expected \d column\(s\), got 0$"):
            ingest_csv(str(path))

    def test_padded_cells_and_markers_parse(self, tmp_path):
        path = tmp_path / "pad.csv"
        path.write_text(" date , value_mm \n 2001-01-01 , 1.5 \n2001-01-02, NA\n2001-01-03 ,\t2.0\n")
        got = ingest_csv(str(path))
        assert got.dates == ["2001-01-01", "2001-01-02", "2001-01-03"]
        assert np.array_equal(got.values, [1.5, np.nan, 2.0], equal_nan=True)
        path.write_text("1.0\n 999.9 \n0.5\n")
        got = ingest_csv(str(path), missing_marker="999.9")
        assert np.array_equal(got.values, [1.0, np.nan, 0.5], equal_nan=True)

    def test_oversized_quoted_cell_is_a_format_error(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1.0\n" + '"' + "x" * 200_000 + '"\n')
        with pytest.raises(CsvFormatError, match=r"^line 2: field larger than field limit"):
            ingest_csv(str(path))

    def test_oversized_unquoted_cell_is_a_format_error(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("v\n1\n" + "x" * 200_000 + "\n")
        with pytest.raises(CsvFormatError, match=r"^line 3: field larger than field limit \(131072\)$"):
            ingest_csv(str(path))

    @pytest.mark.parametrize("text, line", [
        ("1\n" + "9" * 11, 2),                      # a cell beyond the limit
        ("1\n" + "9" * 10 + "\n2\n" + "9" * 11, 4),  # one at the limit, then one beyond it
        ("1\n" + ",".join("1" * 8) + "\n" + "9" * 11, 3),  # more bytes than the limit in short cells
        ("1\n" + "\u00e9" * 10, None),              # more bytes, not more characters, than the limit
        ("1\n" + "\u00e9" * 11, 2),
        ("1\n" + "9" * 10 + "\n2,3\n", None),
    ])
    @pytest.mark.parametrize("ends", ["\n", "\r\n", "\r"])
    def test_field_size_limit_as_the_reader_applies_it(self, text, line, ends):
        # the byte scan raises where csv.reader does, with its message, under the limit set now
        text = text.replace("\n", ends)
        limit = csv.field_size_limit(10)
        try:
            reader = csv.reader(io.StringIO(text, newline=""))
            with pytest.raises(csv.Error) if line else contextlib.nullcontext():
                list(reader)
            if line is None:
                _table(text)
            else:
                assert reader.line_num == line
                with pytest.raises(CsvFormatError, match=rf"^line {line}: field larger than field limit \(10\)$"):
                    _table(text)
        finally:
            csv.field_size_limit(limit)


class TestPrecipSeries:
    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            PrecipSeries(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            PrecipSeries(np.array([]))

    def test_nan_allowed(self):
        PrecipSeries(np.array([1.0, np.nan]))

    def test_dates_length_checked(self):
        with pytest.raises(ValueError):
            PrecipSeries(np.array([1.0, 2.0]), dates=["2001-01-01"])


class TestCalendarDates:
    def test_gap_ends_run_with_warning(self):
        ps = PrecipSeries(np.array([1.0, 2.0, 3.0]), dates=["2000-01-01", "2000-01-02", "2000-01-05"])
        wp = segment(ps)
        assert wp.lengths == [2, 1]
        assert wp.warnings == [
            "calendar gap of 2 day(s) between 2000-01-02 and 2000-01-05 (index 2) split a wet run"
        ]

    def test_gap_between_dry_days_is_silent(self):
        ps = PrecipSeries(np.array([1.0, 0.0, 3.0]), dates=["2000-01-01", "2000-01-02", "2000-01-09"])
        wp = segment(ps)
        assert wp.lengths == [1, 1] and wp.warnings == []

    @pytest.mark.parametrize("dates", [["2000-01-02", "2000-01-02"], ["2000-01-02", "2000-01-01"],
                                       ["2000-01-01", "20000102"], ["2000-01-01", "2000-02-30"]])
    def test_series_rejects_bad_dates(self, dates):
        with pytest.raises(ValueError, match="index 1"):
            PrecipSeries(np.array([1.0, 2.0]), dates=dates)

    def test_series_and_reader_name_the_first_bad_date_in_order(self, tmp_path):
        dates = ["2000-01-02", "2000-01-01", "2000-13-01"]
        with pytest.raises(ValueError, match=r"^index 1: date '2000-01-01' does not follow '2000-01-02'"):
            PrecipSeries(np.array([1.0, 2.0, 3.0]), dates=dates)
        path = tmp_path / "order.csv"
        path.write_text("".join(f"{d},1.0\n" for d in dates))
        with pytest.raises(CsvFormatError, match=r"^line 2: date '2000-01-01' does not follow '2000-01-02'"):
            ingest_csv(str(path))

    def test_ingest_names_the_backward_line(self, tmp_path):
        path = tmp_path / "back.csv"
        path.write_text("date,value_mm\n2001-01-01,1.0\n2001-01-03,0.0\n2001-01-02,2.0\n")
        with pytest.raises(CsvFormatError, match="line 4: date '2001-01-02' does not follow '2001-01-03'"):
            ingest_csv(str(path))

    def test_ingest_names_the_bad_date(self, tmp_path):
        path = tmp_path / "date.csv"
        path.write_text("2001-01-01,1.0\n01/02/2001,2.0\n")
        with pytest.raises(CsvFormatError, match="line 2: cannot parse date '01/02/2001'"):
            ingest_csv(str(path))

    @pytest.mark.parametrize("late", [False, True])
    def test_time_zone_date_is_named_without_a_warning(self, tmp_path, late):
        # numpy warns when it reads a time zone, so the date's length is checked first
        dates = ["2001-01-01", "2001-01-02T00Z"] if late else ["2001-01-01T00Z", "2001-01-02"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^index {int(late)}: cannot parse date '{dates[late]}'"):
                PrecipSeries(np.array([1.0, 2.0]), dates=dates)
            path = tmp_path / "tz.csv"
            path.write_text("".join(f"{d},1.0\n" for d in dates))
            with pytest.raises(CsvFormatError, match=f"^line {int(late) + 1}: cannot parse date '{dates[late]}'"):
                ingest_csv(str(path))

    @pytest.mark.parametrize("date", ["", "NaT", "nat"])
    def test_date_numpy_reads_as_nat_is_named(self, tmp_path, date):
        # numpy reads these as NaT, not as an error: their length rejects them
        with pytest.raises(ValueError, match=f"^index 0: cannot parse date '{date}'"):
            PrecipSeries([1.0], dates=[date])
        path = tmp_path / "nat.csv"
        path.write_text(f"date,v\n2000-01-01,1\n{date},2\n")
        with pytest.raises(CsvFormatError, match=f"^line 3: cannot parse date '{date}' \\(expected YYYY-MM-DD\\)$"):
            ingest_csv(str(path))


class TestWetPeriodsJson:
    def test_shape(self):
        wp = segment(series(0, 1, 2, 0, 3, 0))
        doc = wp.to_json_dict()
        assert doc == {"periods": [[1.0, 2.0], [3.0]], "lengths": [2, 1], "warnings": []}


# ---------------------------------------------------------------------------
# properties against the day-by-day reference


day_value = st.one_of(
    st.just(0.0),
    st.just(float("nan")),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False).map(abs),
)


@st.composite
def daily_series(draw, dated=None):
    values = draw(st.lists(day_value, min_size=1, max_size=120))
    if dated is None:
        dated = draw(st.booleans())
    dates = None
    if dated:
        steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 5]), min_size=len(values) - 1,
                              max_size=len(values) - 1))
        days = np.datetime64("1999-12-30") + np.cumsum([0] + steps)
        dates = days.astype(str).tolist()
    return PrecipSeries(np.array(values), dates=dates)


class TestSegmentProperties:
    @settings(max_examples=200, deadline=None)
    @given(daily_series(), st.sampled_from([0.0, 0.5, 10.0]))
    def test_matches_day_loop(self, ps, threshold):
        wp = segment(ps, wet_threshold=threshold)
        periods, warnings = segment_loop(ps.values, threshold, ps.dates)
        assert [p.tolist() for p in wp.periods] == periods
        assert wp.lengths == [len(p) for p in periods]
        assert wp.maxima.tolist() == [max(p) for p in periods]
        assert wp.warnings == warnings
        assert wp.to_json_dict() == {"periods": periods, "lengths": wp.lengths, "warnings": warnings}

    @settings(deadline=None)
    @given(daily_series(), st.sampled_from([0.0, 0.5, 10.0]))
    def test_lengths_sum_to_wet_days(self, ps, threshold):
        wp = segment(ps, wet_threshold=threshold)
        assert sum(wp.lengths) == int(np.sum(ps.values > threshold))

    @settings(deadline=None)
    @given(daily_series(), st.integers(min_value=1, max_value=6))
    def test_maximum_is_largest_value_of_its_run(self, ps, h):
        wp = segment(ps)
        for value, period in zip(wp.maxima, wp.periods):
            assert value == np.max(period)
        kept = [float(np.max(p)) for p in wp.periods if len(p) >= h]
        if kept:
            assert build_maxima(wp, h).values.tolist() == kept
        else:
            with pytest.raises(EmptySampleError):
                build_maxima(wp, h)


# ---------------------------------------------------------------------------
# the reader against the row-by-row reference


@st.composite
def csv_texts(draw):
    """(text, dated) of a well-formed file, as the CLI documents it."""
    ps = draw(daily_series())
    dated = ps.dates is not None and draw(st.booleans())
    header = draw(st.booleans())
    cells = ["NA" if np.isnan(v) else repr(float(v)) for v in ps.values]
    rows = [f"{d},{c}" for d, c in zip(ps.dates, cells)] if dated else cells
    if header:
        rows.insert(0, "date,value_mm" if dated else "value_mm")
    end = "" if draw(st.booleans()) else "\n"
    return "\n".join(rows) + end, dated


def read_text(text, missing_marker="NA"):
    """:func:`ingest_csv` of the text, read from stdin with its line ends as they are."""
    with mock.patch("sys.stdin", io.StringIO(text)):
        return ingest_csv("-", missing_marker=missing_marker)


def outcome(parse, text, missing_marker="NA"):
    """The series a parser returns (values bit for bit, dates, whether it has
    day numbers), or the message of the CsvFormatError it raises."""
    try:
        got = parse(text, missing_marker)
    except CsvFormatError as exc:
        return str(exc)
    return got.values.tobytes(), got.dates, got.days is None


def agree(text, missing_marker="NA"):
    """The reader's outcome, checked to equal the reference's."""
    got = outcome(read_text, text, missing_marker)
    assert got == outcome(lambda t, m: parse_csv_lines(t, "-", m), text, missing_marker)
    return got


def data_lines(text):
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def quote_cells(line):
    return ",".join(f'"{c}"' for c in line.split(",")) if line else line


TWISTS = {
    "\r\n": lambda lines, k: "\r\n".join(lines) + "\r\n",
    "\r": lambda lines, k: "\r".join(lines) + "\r",
    "pad right": lambda lines, k: "\n".join(line + " " for line in lines) + "\n",
    "pad left": lambda lines, k: "\n".join(" " + line for line in lines),
    "pad cells": lambda lines, k: "\n".join(line.replace(",", " ,\t") for line in lines),
    '"': lambda lines, k: "\n".join(map(quote_cells, lines)) + "\n",
    "blank line": lambda lines, k: "\n".join(lines[:k] + [""] + lines[k:]) + "\n",
}


MISSING_MARKERS = ["NA", "", "-999", "nan", "2.5", " NA "]
VALUE_DEFECTS = ["-1.5", "abc", "inf", "nan"]
DATE_DEFECTS = ["2001-02-30", "01/02/2001", "repeat date"]
MESSY_CELLS = VALUE_DEFECTS + DATE_DEFECTS[:2] + [
    "NA", " NA ", "", " 2.5 ", "-999", "2000-01-01", " 2000-01-05", "value_mm"]


class TestIngestProperties:
    @settings(max_examples=200, deadline=None)
    @given(csv_texts())
    def test_well_formed_texts_agree(self, case):
        text, dated = case
        values, dates, no_days = agree(text)
        assert (dates is not None) == dated and no_days == (not dated)

    @settings(deadline=None)
    @given(csv_texts(), st.sampled_from(sorted(TWISTS)), st.data())
    def test_twisted_layouts_agree(self, case, twist, data):
        """Line ends, padding, quotes and blank lines, all through the one reader."""
        lines = data_lines(case[0])
        k = data.draw(st.integers(min_value=0, max_value=len(lines)))
        got = agree(TWISTS[twist](lines, k))
        if twist == "blank line":
            assert got.startswith(f"line {k + 1}: expected ")
        else:
            assert not isinstance(got, str)

    @settings(deadline=None)
    @given(csv_texts(), st.sampled_from(VALUE_DEFECTS + DATE_DEFECTS + ["extra cell", "no cell"]), st.data())
    def test_bad_row_is_named_by_line(self, case, bad, data):
        text, dated = case
        assume(dated or bad not in DATE_DEFECTS)
        lines = data_lines(text)
        header = int(lines[0].endswith("value_mm"))
        # no defect on a row where it would make a header, or set the width for the rows below
        first = {"abc": 1, "extra cell": 1, "no cell": 1, "repeat date": header + 1}.get(
            bad, header if bad in DATE_DEFECTS else 0)
        assume(len(lines) > first)
        k = data.draw(st.integers(min_value=first, max_value=len(lines) - 1))
        date, value = lines[k].split(",") if dated else (None, lines[k])
        if bad == "repeat date":
            lines[k] = lines[k - 1].split(",")[0] + "," + value
        elif bad in DATE_DEFECTS:
            lines[k] = bad + "," + value
        elif bad == "extra cell":
            lines[k] += ",1.0"
        elif bad == "no cell":
            lines[k] = value if dated else ""
        else:
            lines[k] = bad if date is None else f"{date},{bad}"
        assert agree("\n".join(lines) + "\n").startswith(f"line {k + 1}:")

    @settings(max_examples=300, deadline=None)
    @given(csv_texts(),
           st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(MESSY_CELLS),
                              st.integers(min_value=-1, max_value=2)), max_size=4),
           st.sampled_from(["\n", "\r\n", "\r"]), st.booleans(),
           st.sampled_from(MISSING_MARKERS))
    def test_messy_texts_agree(self, case, edits, end, quoted, marker):
        """Bad values, dates and cell counts, blank lines, padding, quotes and
        line ends together, under markers that are empty, padded or numbers."""
        rows = [line.split(",") if line else [] for line in data_lines(case[0])]
        for at, cell, column in edits:
            if not rows:
                break
            row = rows[at % len(rows)]
            if column < 0:
                row.clear()
            elif column < len(row):
                row[column] = cell
            else:
                row.append(cell)
        lines = [",".join(f'"{c}"' if quoted else c for c in row) for row in rows]
        agree(end.join(lines) + end, marker)


def split_by_line(text):
    """(w, cells, short) of plain text split line by line, a blank line a row of no cells."""
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    rows = [line.split(",") if line else [] for line in lines]
    width = len(rows[0])
    k = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
    return width, [c for row in rows[:k] for c in row], (k, len(rows[k])) if k < len(rows) else None


# wide characters of two to four UTF-8 bytes, and the lone surrogate that stdin
# gives, under surrogateescape, for a byte that is no UTF-8
PLAIN_CELL = st.text(st.sampled_from(["1", ".", "x", " ", "\t", "é", "\ufb00", "\U0001f327", "\udcff"]),
                     max_size=3)


@st.composite
def plain_texts(draw):
    """Text without a quote or a lone CR: rows of 1 to 3 cells, some of another width, some blank."""
    width = draw(st.integers(min_value=1, max_value=3))
    row = st.one_of(st.just([]), st.lists(PLAIN_CELL, min_size=width, max_size=width),
                    st.lists(PLAIN_CELL, min_size=1, max_size=4))
    rows = draw(st.lists(row, min_size=1, max_size=8))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(map(",".join, rows)) + (end if draw(st.booleans()) else "")
    assume(text)
    return text


class TestPlainScan:
    """The byte scan of plain text against a split line by line."""

    @settings(max_examples=300, deadline=None)
    @given(plain_texts())
    def test_rows_and_cells_as_split_by_line(self, text):
        assert _table(text) == split_by_line(text)

    def test_short_row_after_a_wide_character(self):
        # the leading rows are cut by line: a cut at the byte offset would add a cell here
        text = "date,v\n2000-01-01,\u00e9\n2000-01-02,1\n2000-01-03\n"
        assert _table(text) == (2, ["date", "v", "2000-01-01", "\u00e9", "2000-01-02", "1"], (3, 1))
        assert agree(text) == "line 2: cannot parse value '\u00e9'"

    def test_wide_character_cell_before_a_blank_line(self):
        assert agree("v\n1\n\u00fc\n\n2\n") == "line 3: cannot parse value '\u00fc'"


def split_by_reader(text):
    """(w, cells, short) of text split by ``csv.reader``."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    width = len(rows[0])
    k = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
    return width, [c for row in rows[:k] for c in row], (k, len(rows[k])) if k < len(rows) else None


class TestReaderOnlyForQuotes:
    """``csv.reader`` splits text with a quote, and no other."""

    @pytest.mark.parametrize("text", [
        "v\r1\r\r2\r",
        "date,v\r2000-01-01,1\r2000-01-02,NA\r\n2000-01-03\r",
        "v\n\r1\r\n2",
        "\r\u00e9,1\r",
    ])
    def test_lone_cr_text_is_scanned(self, text):
        expected = split_by_reader(text)
        with mock.patch.object(pipeline.csv, "reader", side_effect=AssertionError("csv.reader called")):
            assert _table(text) == expected

    def test_quoted_text_with_a_lone_cr_is_read_once(self):
        text = 'date,v\r"2000-01-01","1"\r2000-01-02,2\n'
        expected = split_by_reader(text)
        with mock.patch.object(pipeline.csv, "reader", side_effect=csv.reader) as reader:
            assert _table(text) == expected
        assert reader.call_count == 1
