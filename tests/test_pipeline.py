import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import segment_loop
from wetmax import (
    CensoringSpec,
    CsvFormatError,
    EmptySampleError,
    PrecipSeries,
    build_maxima,
    durations,
    ingest_csv,
    segment,
)
from wetmax.pipeline import _parse_lines, _parse_whole


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
        assert durations(wp) == [1, 3]

    def test_threshold(self):
        wp = segment(series(0.1, 0.2, 1.0, 0.1, 2.0), wet_threshold=0.5)
        assert [list(p) for p in wp.periods] == [[1.0], [2.0]]

    def test_missing_splits_run_with_warning(self):
        wp = segment(series(1.0, np.nan, 2.0), missing_policy="split")
        assert [list(p) for p in wp.periods] == [[1.0], [2.0]]
        assert len(wp.warnings) == 1
        assert "index 1" in wp.warnings[0]

    def test_missing_as_dry_is_silent(self):
        wp = segment(series(1.0, np.nan, 2.0), missing_policy="dry")
        assert [list(p) for p in wp.periods] == [[1.0], [2.0]]
        assert wp.warnings == []

    def test_missing_next_to_dry_day_not_flagged(self):
        wp = segment(series(1.0, np.nan, 0.0, 2.0), missing_policy="split")
        assert wp.warnings == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            segment(series(1.0), wet_threshold=-1.0)
        with pytest.raises(ValueError):
            segment(series(1.0), missing_policy="drop")

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
        assert build_maxima(wp, CensoringSpec(1)).values.tolist() == [2.0, 3.0]

    def test_h_two(self):
        wp = segment(series(0, 1, 2, 0, 3, 0))
        assert build_maxima(wp, CensoringSpec(2)).values.tolist() == [2.0]

    def test_h_three_empty(self):
        wp = segment(series(0, 1, 2, 0, 3, 0))
        with pytest.raises(EmptySampleError, match="length >= 3.*longest available: 2"):
            build_maxima(wp, CensoringSpec(3))

    def test_accepts_plain_int(self):
        wp = segment(series(0, 1, 2, 0, 3, 0))
        assert build_maxima(wp, 2).values.tolist() == [2.0]

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

    def test_censoring_spec_validation(self):
        with pytest.raises(ValueError):
            CensoringSpec(0)
        with pytest.raises(ValueError):
            CensoringSpec(1.5)


class TestDurations:
    def test_examples(self):
        assert durations(segment(series(0, 1, 2, 0, 3, 0))) == [2, 1]
        assert durations(segment(series(0.0, 0.0))) == []
        assert durations(segment(series(5, 0, 0, 7, 8, 9))) == [1, 3]


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
        wp = segment(got, missing_policy="split")
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
        assert segment(ps, missing_policy="dry").warnings == []

    def test_gap_between_dry_days_is_silent(self):
        ps = PrecipSeries(np.array([1.0, 0.0, 3.0]), dates=["2000-01-01", "2000-01-02", "2000-01-09"])
        wp = segment(ps)
        assert wp.lengths == [1, 1] and wp.warnings == []

    @pytest.mark.parametrize("dates", [["2000-01-02", "2000-01-02"], ["2000-01-02", "2000-01-01"],
                                       ["2000-01-01", "20000102"], ["2000-01-01", "2000-02-30"]])
    def test_series_rejects_bad_dates(self, dates):
        with pytest.raises(ValueError, match="index 1"):
            PrecipSeries(np.array([1.0, 2.0]), dates=dates)

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


class TestWetPeriodsJson:
    def test_shape(self):
        wp = segment(series(0, 1, 2, 0, 3, 0))
        doc = wp.to_json_dict()
        assert doc == {"periods": [[1.0, 2.0], [3.0]], "lengths": [2, 1]}


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
    @given(daily_series(), st.sampled_from([0.0, 0.5, 10.0]), st.sampled_from(["split", "dry"]))
    def test_matches_day_loop(self, ps, threshold, policy):
        wp = segment(ps, wet_threshold=threshold, missing_policy=policy)
        periods, warnings = segment_loop(ps.values, threshold, policy, ps.dates)
        assert [p.tolist() for p in wp.periods] == periods
        assert wp.lengths == [len(p) for p in periods]
        assert wp.maxima.tolist() == [max(p) for p in periods]
        assert wp.warnings == warnings
        assert wp.to_json_dict() == {"periods": periods, "lengths": wp.lengths}

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
# the one-pass ingest against the line parser


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


def same_series(a, b):
    return (a.dates == b.dates
            and np.array_equal(a.values, b.values, equal_nan=True)
            and (a.days is None) == (b.days is None))


class TestIngestProperties:
    @settings(max_examples=200, deadline=None)
    @given(csv_texts())
    def test_one_pass_equals_line_parser(self, case):
        text, dated = case
        fast = _parse_whole(text, "NA")
        assert fast is not None
        assert same_series(fast, _parse_lines(text, "gen.csv", "NA"))
        assert (fast.dates is not None) == dated

    @settings(deadline=None)
    @given(csv_texts(), st.sampled_from(["\r\n", "pad right", "pad left", '"']))
    def test_deferred_layouts_agree(self, case, twist):
        """Line ends, padding or quotes the pass may hand to the line parser."""
        text, _dated = case
        if twist == "\r\n":
            text = text.replace("\n", "\r\n")
        elif twist == "pad right":
            text = text.replace("\n", " \n")
        elif twist == "pad left":
            text = "\n".join(" " + line if line else line for line in text.split("\n"))
        else:
            text = "\n".join(",".join(f'"{c}"' for c in line.split(",")) if line else line
                             for line in text.split("\n"))
        slow = _parse_lines(text, "gen.csv", "NA")
        fast = _parse_whole(text, "NA")
        assert fast is None or same_series(fast, slow)

    @settings(deadline=None)
    @given(csv_texts(), st.data())
    def test_bad_row_is_named_by_line(self, case, data):
        text, dated = case
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        bad = data.draw(st.sampled_from(["-1.5", "abc", "inf", "nan"]))
        # a first row whose value is not a number is a header; any number is data
        first = 1 if bad == "abc" else 0
        assume(len(lines) > first)
        k = data.draw(st.integers(min_value=first, max_value=len(lines) - 1))
        lines[k] = (lines[k].split(",")[0] + "," + bad) if dated else bad
        text = "\n".join(lines) + "\n"
        assert _parse_whole(text, "NA") is None
        with pytest.raises(CsvFormatError, match=f"^line {k + 1}:"):
            _parse_lines(text, "gen.csv", "NA")
