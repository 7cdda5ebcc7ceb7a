import importlib.util
import io
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")
check_bench_line = _load("check_bench_line")
make_fixtures = _load("make_fixtures")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [entry["name"] for entry in SPEC["end_to_end"]]
LAYER_NAMES = [entry["name"] for entry in SPEC["per_layer"]]
TRACED_HEADER = "# env {}\n# workload=stations seed=1 rounds=3 trace=1 host_factor=1.0000\n"


def _line(correct=True, failed=0, metrics=None):
    if metrics is None:
        metrics = {name: {"value": 1.5, "unit": "s"} for name in NAMES}
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics})


class TestCheckBenchLine:
    def test_well_formed_line_passes(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("# env {}\n" + _line() + "\n"))
        assert check_bench_line.main() == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "line, fault",
        [
            ("operation failed: x", "not strict JSON"),
            (_line().replace("1.5", "NaN", 1), "NaN"),
            (_line().replace("1.5", "Infinity", 1), "Infinity"),
            (_line(correct=False), "correct is False"),
            (_line(failed=2), "failed is 2"),
            (_line(metrics={name: {"value": 1.0} for name in NAMES[1:]}), "expected"),
            (_line(metrics={name: {"value": None} for name in NAMES}), "no finite value"),
            ("[1, 2]", "not a JSON object"),
        ],
    )
    def test_faults_are_named(self, line, fault):
        found = check_bench_line.faults(line, NAMES)
        assert found and any(fault in message for message in found), found

    def test_traced_line_needs_every_per_layer_name(self, capsys, monkeypatch):
        full = {name: {"value": 0.5, "unit": "s"} for name in LAYER_NAMES}
        monkeypatch.setattr("sys.stdin", io.StringIO(TRACED_HEADER + _line(metrics=full) + "\n"))
        assert check_bench_line.main() == 0
        assert f"ok, {len(LAYER_NAMES)} per_layer metrics" in capsys.readouterr().out

        del full["import.scipy_optimize_s"]
        monkeypatch.setattr("sys.stdin", io.StringIO(TRACED_HEADER + _line(metrics=full) + "\n"))
        assert check_bench_line.main() == 1
        assert "expected" in capsys.readouterr().err

    def test_traced_line_with_end_to_end_names_fails(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TRACED_HEADER + _line() + "\n"))
        assert check_bench_line.main() == 1

    def test_untraced_header_keeps_end_to_end_names(self, capsys, monkeypatch):
        header = TRACED_HEADER.replace("trace=1", "trace=0")
        monkeypatch.setattr("sys.stdin", io.StringIO(header + _line() + "\n"))
        assert check_bench_line.main() == 0

    def test_empty_input_fails(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert check_bench_line.main() == 1
        assert "no output" in capsys.readouterr().err


class TestMakeFixtures:
    def test_daily_series_reproduces_the_committed_csv(self):
        # pins the direct and negative binomial streams that built the fixture
        committed = (ROOT / "tests" / "fixtures" / "precip_seed42.csv").read_bytes()
        assert make_fixtures.csv_text(*make_fixtures.build_daily_series()).encode() == committed


class TestBenchPairsSummary:
    SPEC = [
        {"name": "fits_per_s", "unit": "1/s", "better": "higher"},
        {"name": "setup_s", "unit": "s", "better": "lower"},
        {"name": "not_reported", "unit": "s", "better": "lower"},
    ]

    @staticmethod
    def _lines(fits, setup):
        return [
            {"correct": True, "attempted": 5, "failed": 0,
             "metrics": {"fits_per_s": {"value": f, "unit": "1/s"}, "setup_s": {"value": s, "unit": "s"}}}
            for f, s in zip(fits, setup)
        ]

    def test_medians_spread_and_wins(self):
        parent = self._lines([100, 104, 101, 103, 102, 108, 105, 107, 106, 109], [1.0] * 10)
        change = self._lines([120, 99, 121, 122, 123, 124, 125, 126, 127, 128], [1.0] * 9 + [0.9])
        out = bench_pairs.summarize(parent, change, self.SPEC)
        assert sorted(out) == ["fits_per_s", "setup_s"]
        fits = out["fits_per_s"]
        assert fits["parent"][:2] == [100, 104] and fits["n"] == 10
        assert fits["parent_median"] == 104.5 and fits["change_median"] == 123.5
        assert fits["parent_iqr"] == 4.5  # quartiles 102.25 and 106.75
        assert fits["wins"] == 9  # pair 2 reads 99 against 104
        assert fits["relative_change"] == (123.5 - 104.5) / 104.5
        assert fits["gain_rule"]
        setup = out["setup_s"]
        assert setup["wins"] == 1 and setup["parent_iqr"] == 0.0
        assert not setup["gain_rule"]  # ties win nothing and one win is not nine tenths

    def test_margin_must_exceed_the_parent_iqr(self):
        parent = self._lines([100, 110, 100, 110], [1.0] * 4)
        change = self._lines([111, 111, 111, 111], [1.0] * 4)
        fits = bench_pairs.summarize(parent, change, self.SPEC)["fits_per_s"]
        assert fits["wins"] == 4 and fits["parent_iqr"] == 10.0
        assert not fits["gain_rule"]  # medians 105 -> 111 move by less than the IQR

    def test_unpaired_lines_are_refused(self):
        with pytest.raises(ValueError):
            bench_pairs.summarize(self._lines([1.0], [1.0]), [], self.SPEC)


class TestBenchPairsSuite:
    CANNED = """\
..........F...........................................................E. [ 50%]
........................................................................ [100%]
=================================== FAILURES ===================================
____________________________ test_x[1] ____________________________
E   assert 2 passed in 3.0s
============================== slowest durations ===============================
15.90s call     tests/test_acceptance.py::test_criterion_03_representation_equivalence
1.05s call     tests/test_estimation.py::TestShapeEquation::test_brentq_matches_grid_scan[case0]
0.50s setup    tests/test_cli.py::test_fit[all-0.85]
0.25s teardown tests/test_cli.py::test_fit[all-0.85]
0.01s call     tests/test_cli.py::test_fit[all-0.85]

(540 durations < 0.005s hidden.  Use -vv to show these durations.)
=========================== short test summary info ============================
FAILED tests/test_x.py::test_x[1] - assert 2 passed in 3.0s
ERROR tests/test_y.py::test_y
1 failed, 141 passed, 2 warnings, 1 error in 75.12s (0:01:15)
"""

    def test_wall_time_counts_and_test_times(self):
        out = bench_pairs.parse_suite(self.CANNED)
        assert out["wall_s"] == 75.12
        assert out["counts"] == {"failed": 1, "passed": 141, "error": 1}
        assert out["tests"][bench_pairs.CRITERION_03] == 15.90
        assert out["tests"]["tests/test_cli.py::test_fit[all-0.85]"] == pytest.approx(0.76)  # all phases
        assert len(out["tests"]) == 3

    def test_output_without_a_summary_is_refused(self):
        with pytest.raises(ValueError, match="no pytest summary"):
            bench_pairs.parse_suite(self.CANNED.rsplit("\n", 2)[0])
