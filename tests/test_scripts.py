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
