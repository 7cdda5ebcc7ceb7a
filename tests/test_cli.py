import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wetmax import (
    ModelParams,
    Representation,
    build_maxima,
    cli,
    gof,
    ingest_csv,
    ks_model,
    make_rng,
    sample_limit,
    segment,
    simulate_prelimit_max,
)
from wetmax.cli import main

from oracles import simulate_text_per_value
from test_pipeline import MESSY_CELLS, MISSING_MARKERS, TWISTS, csv_texts, data_lines

FIXTURES = Path(__file__).parent / "fixtures"
SEED42_CSV = str(FIXTURES / "precip_seed42.csv")
SEED42_TRUTH = {"r": 0.85, "lambda": 1.5, "gamma": 1.2}


def write_scaled_draws(tmp_path):
    """Draws of the law scaled by 1e300, each followed by a dry day: least squares puts lam at 0."""
    values = 1e300 * sample_limit(ModelParams(0.85, 1.5, 3.0), Representation.DIRECT, make_rng(1), size=300)
    path = tmp_path / "scaled.csv"
    path.write_text(("%.17g\n0\n" * values.size) % tuple(values.tolist()))
    return str(path)


def write_six_rows(tmp_path):
    path = tmp_path / "six.csv"
    path.write_text(
        "date,value_mm\n"
        "2001-01-01,0.0\n2001-01-02,1.5\n2001-01-03,2.5\n"
        "2001-01-04,0.0\n2001-01-05,3.5\n2001-01-06,0.0\n"
    )
    return str(path)


class TestSegmentCommand:
    def test_six_row_fixture(self, tmp_path, capsys):
        assert main(["segment", "--input", write_six_rows(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["periods"] == [[1.5, 2.5], [3.5]]
        assert doc["lengths"] == [2, 1]

    def test_missing_file_exits_2(self, capsys):
        assert main(["segment", "--input", "/no/such/file.csv"]) == 2
        assert "error" in capsys.readouterr().err

    def test_all_dry_is_success(self, tmp_path, capsys):
        path = tmp_path / "dry.csv"
        path.write_text("0.0\n0.0\n0.0\n")
        assert main(["segment", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["periods"] == [] and doc["lengths"] == []

    def test_out_file(self, tmp_path):
        out = tmp_path / "wp.json"
        assert main(["segment", "--input", write_six_rows(tmp_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["lengths"] == [2, 1]

    def test_calendar_gap_splits_spell_with_warning(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text("2000-01-01,1\n2000-01-05,2\n")
        assert main(["segment", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["periods"] == [[1.0], [2.0]] and doc["lengths"] == [1, 1]
        assert len(doc["warnings"]) == 1
        assert "calendar gap of 3 day(s)" in doc["warnings"][0]

    @pytest.mark.parametrize("second", ["2000-01-02", "2000-01-01"])
    def test_dates_out_of_order_exit_2(self, tmp_path, capsys, second):
        path = tmp_path / "order.csv"
        path.write_text(f"date,value_mm\n2000-01-02,1\n{second},2\n")
        assert main(["segment", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3:") and "Traceback" not in err


    def test_leading_blank_line_exits_2_with_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        path.write_text("\n1.5\n2.5\n0.7\n")
        assert main(["segment", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: expected 1 or 2 columns, got 0\n"

    def test_crlf_quoted_copy_of_fixture_gives_same_output(self, tmp_path, capsys):
        lines = Path(SEED42_CSV).read_text().splitlines()
        path = tmp_path / "quoted.csv"
        path.write_bytes("".join(",".join(f'"{c}"' for c in line.split(",")) + "\r\n"
                                 for line in lines).encode())
        assert main(["segment", "--input", SEED42_CSV]) == 0
        plain = capsys.readouterr().out
        assert main(["segment", "--input", str(path)]) == 0
        assert capsys.readouterr().out == plain

    def test_oversized_quoted_cell_exits_2_with_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text('"' + "x" * 200_000 + '"\n')
        assert main(["segment", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: field larger than field limit (131072)\n"

    def test_oversized_unquoted_cell_exits_2_with_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("v\n1\n" + "x" * 200_000 + "\n")
        assert main(["segment", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: field larger than field limit (131072)\n"


class TestNoWarningBeforeTheError:
    """Failing runs print their one ``error:`` line and no numpy warning before it."""

    @staticmethod
    def _run(argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        return code, captured.err

    def test_time_zone_date(self, tmp_path, capsys):
        path = tmp_path / "tz.csv"
        path.write_text("1980-01-01T00Z,1.0\n")
        assert self._run(["segment", "--input", str(path)], capsys) == (
            2, "error: line 1: cannot parse date '1980-01-01T00Z' (expected YYYY-MM-DD)\n")

    @staticmethod
    def _invalid_lam(method, lam):
        # ls and mle start from the least-squares fit, quantile and all from the quantile fit
        fit = "least squares" if method in ("ls", "mle") else "quantile"
        return 3, f"error: {fit} fit produced invalid parameters: lam must lie in (0.0, inf), got {lam}\n"

    @pytest.mark.parametrize("method", ["ls", "mle", "quantile", "all"])
    def test_overflowing_scale(self, method, capsys):
        argv = ["fit", "--input", SEED42_CSV, "--method", method, "--r", "1e308"]
        assert self._run(argv, capsys) == self._invalid_lam(method, "inf")

    @pytest.mark.parametrize("method", ["ls", "mle", "quantile", "all"])
    def test_underflowing_scale(self, method, tmp_path, capsys):
        argv = ["fit", "--input", write_scaled_draws(tmp_path), "--method", method, "--r", "0.85"]
        assert self._run(argv, capsys) == self._invalid_lam(method, "0.0")

    @pytest.mark.parametrize("extra,draw", [
        (["--gamma", "0.001"], "draw 1 of 5 is inf, outside the support (0, inf)"),
        (["--gamma", "1.2", "--prelimit-n", "10", "--pareto-gamma", "0.001"],
         "draw 2 of 5 is inf, outside the support [0, inf)"),
    ], ids=["direct", "prelimit"])
    def test_draws_beyond_the_float_range(self, extra, draw, tmp_path, capsys):
        out = tmp_path / "draws.txt"
        argv = ["simulate", "--r", "0.85", "--lambda", "1.5", "--n", "5", "--seed", "1",
                "--out", str(out)] + extra
        assert self._run(argv, capsys) == (
            2, f"error: {draw}: these parameters take draws beyond the float range\n")
        assert not out.exists()

    def test_overflowing_quantile(self, capsys):
        argv = ["quantile", "--r", "1e300", "--lambda", "1e300", "--gamma", "1e-300", "--eps", "0.5"]
        assert self._run(argv, capsys) == (
            2, "error: the quantile of order 0.5 overflows a float for these parameters\n")

    def test_underflowing_quantile(self, capsys):
        # the law's quantiles are positive, so 0 is never the answer either
        argv = ["quantile", "--r", "1", "--lambda", "1e300", "--gamma", "1e-3", "--eps", "0.5"]
        assert self._run(argv, capsys) == (
            2, "error: the quantile of order 0.5 underflows a float for these parameters\n")


@st.composite
def messy_inputs(draw):
    """A well-formed file with up to three cells made messy, then a twist of its layout."""
    lines = data_lines(draw(csv_texts())[0])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        k = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        cells = lines[k].split(",")
        cells[draw(st.integers(min_value=0, max_value=len(cells) - 1))] = draw(st.sampled_from(MESSY_CELLS))
        lines[k] = ",".join(cells)
    twist = draw(st.sampled_from(sorted(TWISTS)))
    return TWISTS[twist](lines, draw(st.integers(min_value=0, max_value=len(lines))))


class TestContractOverMessyInput:
    """On any input, exit 0 with nothing on stderr, or exit 2 or 3 with one ``error:`` line."""

    @settings(max_examples=200, deadline=None)
    @given(messy_inputs(), st.sampled_from(MISSING_MARKERS))
    def test_exit_code_and_stderr(self, text, marker):
        for argv in (["segment", "--input", "-"], ["fit", "--input", "-", "--method", "ls", "--r", "0.85"]):
            err = io.StringIO()
            with warnings.catch_warnings(), mock.patch("sys.stdin", io.StringIO(text)), \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main([*argv, f"--missing-marker={marker}"])
            if code == 0:
                assert err.getvalue() == ""
            else:
                assert code in (2, 3)
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
                assert err.getvalue().endswith("\n")


class TestFitCommand:
    def test_ls_with_known_r_recovers_fixture_params(self, capsys):
        assert main(["fit", "--input", SEED42_CSV, "--method", "ls", "--r", "0.85"]) == 0
        doc = json.loads(capsys.readouterr().out)
        report = doc["reports"]["ls"]
        assert doc["m"] == 5000
        assert report["r"] == 0.85
        assert abs(report["lambda"] - SEED42_TRUTH["lambda"]) / SEED42_TRUTH["lambda"] < 0.10
        assert abs(report["gamma"] - SEED42_TRUTH["gamma"]) / SEED42_TRUTH["gamma"] < 0.10

    def test_quantile_method(self, capsys):
        assert main(["fit", "--input", SEED42_CSV, "--method", "quantile"]) == 0
        report = json.loads(capsys.readouterr().out)["reports"]["quantile"]
        for key in ("r", "lambda", "gamma", "ks_distance"):
            assert math.isfinite(report[key])

    def test_r_from_durations(self, capsys):
        assert main(
            ["fit", "--input", SEED42_CSV, "--method", "ls", "--r", "from-durations"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r_source"] == "durations"
        # fixture durations are 1 + NegBin(0.85, 0.4)
        assert abs(doc["r_given"] - 0.85) / 0.85 < 0.15

    def test_huge_h_exits_3(self, capsys):
        assert main(
            ["fit", "--input", SEED42_CSV, "--method", "quantile", "--min-wet-days", "500"]
        ) == 3
        assert "no wet period" in capsys.readouterr().err

    def test_every_report_keeps_the_given_r_exactly(self, capsys):
        assert main(["fit", "--input", SEED42_CSV, "--method", "all", "--r", "3.7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r_given"] == 3.7
        assert sorted(doc["reports"]) == ["ls", "mle", "quantile"]
        for report in doc["reports"].values():
            assert report["r"] == doc["r_given"]

    def test_quantile_without_root_exits_3(self, tmp_path, capsys):
        # its kappa ~ 1.61 lies above the Frechet limit kappa_inf ~ 1.269 of the default triple
        values = sample_limit(ModelParams(0.7, 1.5, 0.8), Representation.DIRECT, make_rng(20001), size=100)
        path = tmp_path / "maxima.csv"
        path.write_text(("%.17g\n" * values.size) % tuple(values.tolist()))
        assert main(
            ["fit", "--input", str(path), "--input-kind", "maxima", "--method", "quantile"]
        ) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: quantile fit failed") and err.count("\n") == 1
        assert "kappa" in err and "Traceback" not in err

    def test_unparsable_r_exits_2(self, capsys):
        assert main(["fit", "--input", SEED42_CSV, "--r", "abc"]) == 2
        assert capsys.readouterr().err == "error: --r must be a number or 'from-durations', got 'abc'\n"

    def test_unparsable_tau_grid_exits_2(self, capsys):
        assert main(["fit", "--input", SEED42_CSV, "--tau-grid", "0.1,x"]) == 2
        assert capsys.readouterr().err == "error: cannot parse --tau-grid '0.1,x'\n"

    def test_durations_without_overdispersion_exit_3(self, tmp_path, capsys):
        # wet periods of 1, 3, 1 and 3 days: their variance with divisor m equals their mean
        path = tmp_path / "twelve.csv"
        path.write_text("1\n0\n2\n3\n4\n0\n5\n0\n6\n7\n8\n0\n")
        assert main(["fit", "--input", str(path), "--method", "quantile", "--r", "from-durations"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: no overdispersion: variance 1 <= mean 1;") and err.count("\n") == 1

    def test_ls_without_r_is_config_error(self, capsys):
        assert main(["fit", "--input", SEED42_CSV, "--method", "ls"]) == 2

    def test_maxima_kind_skips_segmentation(self, tmp_path, capsys):
        from wetmax import ModelParams, limit_quantile

        path = tmp_path / "maxima.csv"
        values = [limit_quantile((i - 0.5) / 100, ModelParams(0.9, 2.0, 1.1)) for i in range(1, 101)]
        path.write_text("".join(f"{v}\n" for v in values))
        assert main(
            ["fit", "--input", str(path), "--input-kind", "maxima", "--method", "quantile"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["m"] == 100

    def test_from_durations_needs_daily(self, tmp_path, capsys):
        path = tmp_path / "maxima.csv"
        path.write_text("1.0\n2.0\n3.0\n4.0\n")
        assert main(
            ["fit", "--input", str(path), "--input-kind", "maxima",
             "--method", "ls", "--r", "from-durations"]
        ) == 2

    def test_tau_grid(self, capsys):
        assert main(
            ["fit", "--input", SEED42_CSV, "--method", "quantile", "--tau-grid", "0.05,0.1,0.2"]
        ) == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["reports"]["quantile"]["r"])

    def test_mle_alone_starts_from_the_tau_scan(self, capsys):
        # as in --method all, the MLE starts from the quantile fit over the grid
        argv = ["fit", "--input", SEED42_CSV, "--min-wet-days", "3", "--tau-grid", "0.05,0.1,0.2"]
        reports = []
        for method in ("mle", "all"):
            assert main([*argv, "--method", method]) == 0
            reports.append(json.loads(capsys.readouterr().out)["reports"]["mle"])
        assert reports[0] == reports[1]

    def test_json_round_trip(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(
                ["fit", "--input", SEED42_CSV, "--method", "all", "--r", "0.85",
                 "--out", str(out)]
            ) == 0
        assert out1.read_text() == out2.read_text()
        doc = json.loads(out1.read_text())
        assert json.loads(json.dumps(doc)) == doc


class TestGofSweepCommand:
    def test_rows_and_monotone_m(self, capsys):
        assert main(
            ["gof-sweep", "--input", SEED42_CSV, "--method", "ls", "--r", "0.85",
             "--h-range", "1:3"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split("\t") == ["h", "m", "ks_ls"]
        rows = [line.split("\t") for line in lines[1:]]
        assert [int(row[0]) for row in rows] == [1, 2, 3]
        sizes = [int(row[1]) for row in rows]
        assert sizes == sorted(sizes, reverse=True)

    def test_single_h_matches_fit(self, capsys):
        assert main(
            ["gof-sweep", "--input", SEED42_CSV, "--method", "ls", "--r", "0.85",
             "--h-range", "1:1"]
        ) == 0
        sweep_ks = float(capsys.readouterr().out.strip().split("\n")[1].split("\t")[2])
        assert main(["fit", "--input", SEED42_CSV, "--method", "ls", "--r", "0.85"]) == 0
        fit_ks = json.loads(capsys.readouterr().out)["reports"]["ls"]["ks_distance"]
        assert sweep_ks == pytest.approx(fit_ks, rel=1e-10)

    def test_mle_row_matches_fit_with_tau_grid(self, capsys):
        args = ["--input", SEED42_CSV, "--method", "all", "--tau-grid", "0.05,0.1,0.2"]
        assert main(["gof-sweep", *args, "--h-range", "1:1"]) == 0
        sweep_ks = float(capsys.readouterr().out.strip().split("\n")[1].split("\t")[3])
        assert main(["fit", *args]) == 0
        fit_ks = json.loads(capsys.readouterr().out)["reports"]["mle"]["ks_distance"]
        assert sweep_ks == pytest.approx(fit_ks, rel=1e-10)

    def test_impossible_h_gives_blank_row(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("1.0\n0.0\n2.0\n3.0\n0.0\n4.0\n")
        assert main(
            ["gof-sweep", "--input", str(path), "--method", "quantile", "--h-range", "1:4"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        row4 = lines[4].split("\t")
        assert row4 == ["4", "0", ""]

    def test_plot_files(self, tmp_path):
        plots = tmp_path / "plots"
        out = tmp_path / "sweep.tsv"
        assert main(
            ["gof-sweep", "--input", SEED42_CSV, "--method", "ls", "--r", "0.85",
             "--h-range", "1:2", "--plot-dir", str(plots), "--out", str(out)]
        ) == 0
        rows = out.read_text().splitlines()[1:]
        for h, row in zip((1, 2), rows):
            text = (plots / f"gof_h{h}_ls.tsv").read_text()
            h_cell, m_cell, ks_cell = row.split("\t")
            assert text.startswith(f"# ks={ks_cell} m={m_cell} r=0.85 ")
            assert len(text.strip().split("\n")) == 202

    def test_one_plot_call_per_threshold_with_a_fit(self, monkeypatch, tmp_path):
        # each threshold's fitted reports go to one call, in method order; a row of blank cells makes none
        calls = []

        def counting(sample, reports, grid):
            calls.append([report.method for report in reports])
            return emit(sample, reports, grid)

        emit = cli.emit_plot_data
        monkeypatch.setattr(cli, "emit_plot_data", counting)
        plots = tmp_path / "fixture"
        assert main(["gof-sweep", "--input", SEED42_CSV, "--method", "all", "--r", "0.85", "--h-range", "1:3",
                     "--plot-dir", str(plots), "--out", str(tmp_path / "sweep.tsv")]) == 0
        assert calls == [["quantile", "ls", "mle"]] * 3
        assert len(list(plots.iterdir())) == 9
        calls.clear()
        plots = tmp_path / "blank"
        assert main(["gof-sweep", "--input", write_scaled_draws(tmp_path), "--method", "all", "--r", "0.85",
                     "--h-range", "1:2", "--plot-dir", str(plots), "--out", str(tmp_path / "blank.tsv")]) == 0
        assert calls == []
        assert list(plots.iterdir()) == []

    def test_fits_out_of_float_range_give_blank_cells(self, tmp_path, capsys):
        argv = ["gof-sweep", "--input", write_scaled_draws(tmp_path), "--method", "all", "--r", "0.85",
                "--h-range", "1:2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        assert capsys.readouterr() == ("h\tm\tks_quantile\tks_ls\tks_mle\n1\t300\t\t\t\n2\t0\t\t\t\n", "")

    def test_bad_range_exits_2(self, capsys):
        assert main(["gof-sweep", "--input", SEED42_CSV, "--h-range", "5:1"]) == 2
        assert main(["gof-sweep", "--input", SEED42_CSV, "--h-range", "abc"]) == 2

    def test_one_least_squares_fit_per_threshold(self, monkeypatch, tmp_path, capsys):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return fit_least_squares(*args, **kwargs)

        fit_least_squares = cli.fit_least_squares
        monkeypatch.setattr(cli, "fit_least_squares", counting)
        assert main(["fit", "--input", SEED42_CSV, "--method", "all", "--r", "from-durations"]) == 0
        assert len(calls) == 1
        calls.clear()
        assert main(["gof-sweep", "--input", SEED42_CSV, "--method", "all",
                     "--r", "from-durations", "--h-range", "1:15"]) == 0
        assert len(calls) == 15
        # least squares puts lam at 0 on these draws: the MLE, which starts
        # from it, fails with its error and does not fit it again
        calls.clear()
        capsys.readouterr()
        path = write_scaled_draws(tmp_path)
        assert main(["gof-sweep", "--input", path, "--method", "all", "--r", "0.85", "--h-range", "1:1"]) == 0
        assert capsys.readouterr() == ("h\tm\tks_quantile\tks_ls\tks_mle\n1\t300\t\t\t\n", "")
        assert len(calls) == 1
        # fit reports the first failure in method order, and the MLE alone its start's
        lam_error = "fit produced invalid parameters: lam must lie in (0.0, inf), got 0.0\n"
        assert main(["fit", "--input", path, "--method", "all", "--r", "0.85"]) == 3
        assert capsys.readouterr().err == "error: quantile " + lam_error
        assert main(["fit", "--input", path, "--method", "mle", "--r", "0.85"]) == 3
        assert capsys.readouterr().err == "error: least squares " + lam_error


class TestOneDistancePerReport:
    @pytest.mark.parametrize("argv,reports", [
        (["fit", "--method", "mle"], 1),
        (["fit", "--method", "all"], 2),
        (["fit", "--method", "all", "--r", "0.85"], 3),
        (["gof-sweep", "--method", "mle", "--r", "0.85", "--h-range", "1:3"], 3),
    ])
    def test_one_ks_model_call_per_printed_report(self, argv, reports, monkeypatch, tmp_path, capsys):
        # the start that the MLE fits for itself is not measured, nor is a plot table
        calls = []

        def counting(sample, params):
            calls.append(params)
            return measure(sample, params)

        measure = gof.ks_model
        monkeypatch.setattr(gof, "ks_model", counting)
        monkeypatch.setattr(cli, "ks_model", counting)
        plots = ["--plot-dir", str(tmp_path)] if argv[0] == "gof-sweep" else []
        assert main([*argv, "--input", SEED42_CSV, *plots]) == 0
        out = capsys.readouterr().out
        if argv[0] == "fit":
            printed = len(json.loads(out)["reports"])
        else:
            printed = sum(cell != "" for line in out.splitlines()[1:] for cell in line.split("\t")[2:])
            assert len(list(tmp_path.iterdir())) == printed
        assert len(calls) == printed == reports

    @pytest.mark.parametrize("r", [["--r", "0.85"], []])
    def test_mle_distance_is_that_of_its_params(self, r, tmp_path, capsys):
        assert main(["fit", "--input", SEED42_CSV, "--method", "all", *r]) == 0
        mle = json.loads(capsys.readouterr().out)["reports"]["mle"]
        sample = build_maxima(segment(ingest_csv(SEED42_CSV)), 1)
        ks = ks_model(sample, ModelParams(mle["r"], mle["lambda"], mle["gamma"])).ks_distance
        assert mle["ks_distance"] == ks
        assert main(["gof-sweep", "--input", SEED42_CSV, "--method", "all", *r, "--h-range", "1:1",
                     "--plot-dir", str(tmp_path)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert dict(zip(header.split("\t"), row.split("\t")))["ks_mle"] == f"{ks:.12g}"
        plot_header = (tmp_path / "gof_h1_mle.tsv").read_text().splitlines()[0]
        assert plot_header.startswith(f"# ks={ks:.12g} m={sample.m} r={mle['r']:.12g} ")


SIMULATE_ARGV = ["simulate", "--r", "0.876", "--lambda", "2.0", "--gamma", "0.9", "--seed", "3"]


def _simulate_both_ways(argv, tmp_path, capsys):
    """The bytes ``argv`` writes to --out and to stdout."""
    out = tmp_path / "sim.txt"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    return out.read_bytes(), capsys.readouterr().out.encode()


class TestSimulateCommand:
    @pytest.mark.parametrize("tag", [t.value for t in Representation])
    def test_every_tag_matches_per_value_oracle(self, tag, tmp_path, capsys):
        written = _simulate_both_ways(SIMULATE_ARGV + ["--tag", tag, "--n", "40"], tmp_path, capsys)
        draws = sample_limit(ModelParams(0.876, 2.0, 0.9), Representation(tag), make_rng(3), size=40)
        expected = simulate_text_per_value(draws).encode()
        assert written == (expected, expected)

    # n = 0 writes an empty --out file; the others straddle the block boundaries
    @pytest.mark.parametrize("n", [0, 1, 300, cli.SIMULATE_BLOCK - 1, cli.SIMULATE_BLOCK,
                                   cli.SIMULATE_BLOCK + 1, 2 * cli.SIMULATE_BLOCK + 1])
    @pytest.mark.parametrize("prelimit", [False, True])
    def test_small_n_and_prelimit_match_per_value_oracle(self, n, prelimit, tmp_path, capsys):
        extra = ["--prelimit-n", "10"] if prelimit else []
        written = _simulate_both_ways(SIMULATE_ARGV + extra + ["--n", str(n)], tmp_path, capsys)
        params, rng = ModelParams(0.876, 2.0, 0.9), make_rng(3)
        if prelimit:
            draws = simulate_prelimit_max(10, params, 0.5, params.gamma, rng, size=n)
        else:
            draws = sample_limit(params, Representation.DIRECT, rng, size=n)
        expected = simulate_text_per_value(draws).encode()
        assert written == (expected, expected)
        assert expected.count(b"\n") == n
        if prelimit and n == 300:
            assert b"\n0\n" in expected  # N = 0 spells draw exact zeros

    def test_peak_memory_is_a_few_bytes_per_draw(self, tmp_path):
        # the draws take 8 bytes each, and the sampler's temporaries a few times that;
        # the text is held one block at a time
        n = 200_000
        argv = SIMULATE_ARGV + ["--n", str(n), "--out", str(tmp_path / "sim.txt")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * n

    def test_reader_that_stops_early_is_no_error(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-W", "error", "-m", "wetmax.cli"] + SIMULATE_ARGV + ["--n", "200000"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()  # as `| head -1` does
            try:
                _out, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert (proc.returncode, err) == (0, b"")

    def test_reproducible(self, tmp_path):
        args = ["simulate", "--r", "0.85", "--lambda", "1.5", "--gamma", "1.2",
                "--n", "5", "--seed", "7"]
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        assert len(out1.read_text().strip().split("\n")) == 5

    def test_seed_changes_stream(self, tmp_path):
        base = ["simulate", "--r", "1.0", "--lambda", "1.0", "--gamma", "1.0", "--n", "4"]
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(base + ["--seed", "1", "--out", str(out1)]) == 0
        assert main(base + ["--seed", "2", "--out", str(out2)]) == 0
        assert out1.read_text() != out2.read_text()

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--seed", str(2**64)), ("--n", "-3")])
    def test_out_of_range_argument_exits_2(self, capsys, flag, value):
        args = {"--seed": "0", "--n": "4"}
        args[flag] = value
        argv = ["simulate", "--r", "0.85", "--lambda", "1.5", "--gamma", "1.2"]
        assert main(argv + [tok for item in args.items() for tok in item]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be") and err.count("\n") == 1

    def test_largest_seed_is_accepted(self, capsys):
        assert main(["simulate", "--r", "1", "--lambda", "1", "--gamma", "1",
                     "--n", "2", "--seed", str(2**64 - 1)]) == 0
        assert len(capsys.readouterr().out.split()) == 2

    def test_restricted_tag_domain_exits_2(self, capsys):
        assert main(
            ["simulate", "--r", "0.5", "--lambda", "1.0", "--gamma", "1.5",
             "--tag", "stable", "--n", "3", "--seed", "0"]
        ) == 2
        assert "requires r <= 1 and gamma <= 1" in capsys.readouterr().err

    def test_every_tag_runs_in_domain(self, tmp_path):
        for tag in ("direct", "snedecor-fisher", "stable", "weibull-ratio",
                    "pareto-ratio", "folded-normal", "mixed-exponential"):
            out = tmp_path / f"{tag}.txt"
            assert main(
                ["simulate", "--r", "0.876", "--lambda", "2.0", "--gamma", "0.9",
                 "--tag", tag, "--n", "10", "--seed", "3", "--out", str(out)]
            ) == 0
            values = [float(v) for v in out.read_text().split()]
            assert len(values) == 10 and all(v > 0 for v in values)

    def test_prelimit_mode(self, tmp_path):
        out = tmp_path / "pre.txt"
        assert main(
            ["simulate", "--r", "0.85", "--lambda", "1.0", "--gamma", "1.5",
             "--prelimit-n", "1000", "--n", "20", "--seed", "11", "--out", str(out)]
        ) == 0
        values = [float(v) for v in out.read_text().split()]
        assert len(values) == 20 and all(v >= 0 for v in values)

    def test_simulate_then_fit_round_trip(self, tmp_path, capsys):
        sample_path = tmp_path / "draws.txt"
        assert main(
            ["simulate", "--r", "0.85", "--lambda", "1.5", "--gamma", "1.2",
             "--n", "10000", "--seed", "5", "--out", str(sample_path)]
        ) == 0
        assert main(
            ["fit", "--input", str(sample_path), "--input-kind", "maxima",
             "--method", "mle", "--r", "0.85"]
        ) == 0
        report = json.loads(capsys.readouterr().out)["reports"]["mle"]
        assert abs(report["lambda"] - 1.5) / 1.5 < 0.15
        assert abs(report["gamma"] - 1.2) / 1.2 < 0.15


class TestScalarCommands:
    def test_quantile(self, capsys):
        assert main(
            ["quantile", "--eps", "0.5", "--r", "1", "--lambda", "1", "--gamma", "1"]
        ) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0)

    def test_moment(self, capsys):
        assert main(
            ["moment", "--delta", "1.0", "--r", "1", "--lambda", "1", "--gamma", "2"]
        ) == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.pi / 2, rel=1e-10)

    def test_moment_beyond_tail_exits_2(self, capsys):
        assert main(
            ["moment", "--delta", "2.0", "--r", "1", "--lambda", "1", "--gamma", "1"]
        ) == 2


VALID_ARGV = {
    "segment": ["segment", "--input", SEED42_CSV, "--wet-threshold", "0"],
    "fit": ["fit", "--input", SEED42_CSV, "--method", "all", "--r", "0.85",
            "--wet-threshold", "0"],
    "gof-sweep": ["gof-sweep", "--input", SEED42_CSV, "--method", "ls", "--r", "0.85",
                  "--h-range", "1:1", "--wet-threshold", "0"],
    "simulate": ["simulate", "--r", "0.85", "--lambda", "1.5", "--gamma", "1.2", "--n", "3",
                 "--prelimit-n", "10", "--q", "0.5", "--pareto-gamma", "1.2"],
    "quantile": ["quantile", "--eps", "0.5", "--r", "1", "--lambda", "1", "--gamma", "1"],
    "moment": ["moment", "--delta", "0.5", "--r", "1", "--lambda", "1", "--gamma", "1"],
}
FLOAT_FLAGS = ("--eps", "--delta", "--r", "--lambda", "--gamma", "--wet-threshold", "--q",
               "--pareto-gamma")
BAD_FLOAT_CASES = [
    (command, flag, value)
    for command, argv in VALID_ARGV.items()
    for flag in FLOAT_FLAGS if flag in argv
    for value in ("nan", "inf", "0", "-1")
    if not (flag == "--wet-threshold" and value == "0")  # a zero threshold is the default
]


class TestBadArgumentValues:
    @pytest.mark.parametrize("command", sorted(VALID_ARGV))
    def test_valid_arguments_succeed(self, command, capsys):
        assert main(VALID_ARGV[command]) == 0

    @pytest.mark.parametrize("command,flag,value", BAD_FLOAT_CASES)
    def test_bad_float_exits_2_with_one_error_line(self, command, flag, value, capsys):
        argv = list(VALID_ARGV[command])
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


    # 1e15 draws are 8 PB, beyond the address space: the allocation fails
    # before any page is touched.  Never use a size that could be allocated.
    @pytest.mark.parametrize("extra", [[], ["--prelimit-n", "10"]])
    def test_draws_beyond_memory_exit_2_with_one_error_line(self, extra, tmp_path, capsys):
        out = tmp_path / "draws.txt"
        argv = ["simulate", "--r", "0.85", "--lambda", "1.5", "--gamma", "1.2",
                "--n", "1000000000000000", "--out", str(out)] + extra
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert not out.exists()

REMOVED_FLAGS = [
    ("gof-sweep", "--min-wet-days", "3"),
    ("gof-sweep", "--input-kind", "daily"),
    ("segment", "--missing-policy", "split"),
    ("fit", "--missing-policy", "split"),
    ("gof-sweep", "--missing-policy", "split"),
]


SIMULATE_DRAWS = ["simulate", "--r", "0.85", "--lambda", "1.5", "--gamma", "1.2", "--n", "20"]
FIT_OVER_TAU_GRID = ["--input", SEED42_CSV, "--method", "quantile", "--tau-grid", "0.05,0.1"]
# (valid arguments, a flag that has no effect with them and a value, the reason)
FLAGS_OF_NO_EFFECT_WITH = [
    *((["fit", *FIT_OVER_TAU_GRID], level, "0.3", "with --tau-grid") for level in ("--p1", "--p2", "--p3")),
    (["gof-sweep", *FIT_OVER_TAU_GRID, "--h-range", "1:1"], "--p2", "0.5", "with --tau-grid"),
    (SIMULATE_DRAWS, "--q", "0.9", "without --prelimit-n"),
    (SIMULATE_DRAWS, "--pareto-gamma", "1.2", "without --prelimit-n"),
    (SIMULATE_DRAWS + ["--prelimit-n", "10"], "--tag", "direct", "with --prelimit-n"),
    # no quantile fit runs with ls, nor with an MLE that starts from ls (r known)
    (["fit", "--input", SEED42_CSV, "--method", "ls", "--r", "0.85"], "--p1", "0.3", "with --method ls"),
    (["fit", "--input", SEED42_CSV, "--method", "ls", "--r", "from-durations"], "--tau-grid", "0.1",
     "with --method ls"),
    (["fit", "--input", SEED42_CSV, "--method", "mle", "--r", "0.85"], "--tau-grid", "0.1",
     "with --method mle and a known r"),
    (["gof-sweep", "--input", SEED42_CSV, "--method", "mle", "--r", "from-durations", "--h-range", "1:1"],
     "--p3", "0.8", "with --method mle and a known r"),
    (["gof-sweep", "--input", SEED42_CSV, "--method", "ls", "--r", "0.85", "--h-range", "1:1"], "--p2", "0.6",
     "with --method ls"),
]


class TestFlagsOfNoEffect:
    @pytest.mark.parametrize("command,flag,value", REMOVED_FLAGS)
    def test_are_unrecognized(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as stop:
            main(VALID_ARGV[command] + [flag, value])
        assert stop.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag} {value}\n")

    @pytest.mark.parametrize("argv,flag,value,reason", FLAGS_OF_NO_EFFECT_WITH)
    def test_with_other_flags_exit_2(self, argv, flag, value, reason, capsys):
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + [flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --") and err.endswith(f"no effect {reason}\n") and err.count("\n") == 1
        assert flag in err

    @pytest.mark.parametrize("argv,flag,value", [
        (["fit", "--input", SEED42_CSV], "--p1", "0.3"),
        (["fit", "--input", SEED42_CSV, "--r", "0.85"], "--tau-grid", "0.1"),
        (["fit", "--input", SEED42_CSV, "--method", "all", "--r", "0.85"], "--p1", "0.3"),
        (["fit", "--input", SEED42_CSV, "--method", "all", "--r", "from-durations"], "--tau-grid", "0.1"),
        # an MLE with r free starts from the quantile fit
        (["fit", "--input", SEED42_CSV, "--method", "mle"], "--p1", "0.3"),
        (["fit", "--input", SEED42_CSV, "--method", "mle"], "--tau-grid", "0.1"),
        (["gof-sweep", "--input", SEED42_CSV, "--method", "mle", "--h-range", "1:2"], "--p3", "0.8"),
        (SIMULATE_DRAWS + ["--prelimit-n", "1"], "--q", "0.2"),
        (SIMULATE_DRAWS + ["--prelimit-n", "10"], "--pareto-gamma", "2"),
        (SIMULATE_DRAWS, "--tag", "snedecor-fisher"),
    ])
    def test_have_effect_without_them(self, argv, flag, value, capsys):
        outputs = []
        for extra in ([], [flag, value]):
            assert main(argv + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]


class TestParserReuse:
    COMMANDS = ["segment", "fit", "gof-sweep", "simulate", "quantile", "moment"]

    def test_help_matches_a_fresh_parser(self, capsys):
        for argv in [["--help"]] + [[command, "--help"] for command in self.COMMANDS]:
            with pytest.raises(SystemExit):
                cli.build_parser.__wrapped__().parse_args(argv)
            expected = capsys.readouterr().out
            for _ in range(2):
                with pytest.raises(SystemExit) as stop:
                    main(argv)
                assert stop.value.code == 0
                assert capsys.readouterr().out == expected

    def test_calls_share_no_state(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        assert main(["fit", "--input", SEED42_CSV, "--method", "quantile", "--r", "0.85"]) == 0
        assert json.loads(capsys.readouterr().out)["r_given"] == 0.85
        assert main(["fit", "--input", SEED42_CSV, "--method", "quantile"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r_given"] is None and doc["r_source"] is None
