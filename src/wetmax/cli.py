"""Command line interface.

Subcommands cover the whole workflow: ``segment`` a daily series into wet
periods, ``fit`` the maximum law to per-period maxima, sweep the censoring
threshold with ``gof-sweep``, draw synthetic samples with ``simulate``, and
evaluate ``quantile`` / ``moment`` values of a given parameter triple.

Exit codes: 0 on success, 2 for input or configuration errors (a request
too large for memory, or draws that leave the float range, among them), 3
when an estimator fails on the given data.  A reader of stdout that goes
away early, as ``| head`` does, is no error.  All randomness sits behind
``--seed``, so every output is reproducible.

``simulate`` writes its draws in blocks of :data:`SIMULATE_BLOCK`, one ``%``
operation per block, so the text it holds at once stays fixed whatever
``--n``; ``gof-sweep`` formats the x and empirical d.f. columns of its plot
tables once per threshold, and each method's model column in one ``%``
operation.  Both give the same bytes as one ``%.17g`` / ``%.12g`` per value.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .distributions import ModelParams, _checked, limit_moment, limit_quantile
from .estimation import (
    EstimationError,
    FitReport,
    MaximaSample,
    QuantileTriple,
    fit_least_squares,
    fit_mle,
    fit_negbin,
    fit_quantile,
    fit_quantile_tau_scan,
)
from .gof import emit_plot_data, ks_model, plot_columns
from .pipeline import (
    CensoringSpec,
    CsvFormatError,
    EmptySampleError,
    build_maxima,
    durations,
    ingest_csv,
    segment,
)
from .samplers import Representation, make_rng, sample_limit, simulate_prelimit_max

METHODS = ("quantile", "ls", "mle")
SIMULATE_BLOCK = 4096  # draws formatted per write by ``simulate``


def _write_text(pieces, out: str | None):
    """Writes the text pieces, in order, to the file ``out`` or to stdout."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with Path(out).open("w") as stream:
            stream.writelines(pieces)


def _model_params_from(args) -> ModelParams:
    return ModelParams(args.r, args.lam, args.gamma)


def _add_law_options(sub):
    sub.add_argument("--r", type=float, required=True)
    sub.add_argument("--lambda", dest="lam", type=float, required=True)
    sub.add_argument("--gamma", type=float, required=True)


def _add_input_options(sub):
    sub.add_argument("--input", required=True, help="CSV path, or '-' for stdin")
    sub.add_argument("--wet-threshold", type=float, default=0.0,
                     help="day is wet when value > threshold (default 0)")
    sub.add_argument("--missing-marker", default="NA")


def _add_fit_options(sub):
    sub.add_argument("--method", choices=METHODS + ("all",), default="quantile")
    sub.add_argument("--r", default=None,
                     help="known shape r (float) or 'from-durations' to fit it "
                          "from the wet-period lengths")
    for level in ("--p1", "--p2", "--p3"):  # QuantileTriple holds their defaults
        sub.add_argument(level, type=float)
    sub.add_argument("--tau-grid", default=None,
                     help="comma separated taus in (0, 0.25); scans triples "
                          "(tau, 1/2, 1-tau) and keeps the best fit, in place of --p1..--p3")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    The ``wetmax`` command builds it once per run either way; the cache pays
    off only where ``main`` runs many times in one process, as the rounds of
    ``bench/run.py`` and the tests do.  ``parse_args`` returns a fresh
    namespace on every call and no default is mutable, so the calls share
    nothing through it.
    """
    parser = argparse.ArgumentParser(
        prog="wetmax",
        description="Wet-spell maximum precipitation model: segment, fit, check, simulate.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    seg = commands.add_parser("segment", help="segment a daily series into wet periods")
    _add_input_options(seg)
    seg.add_argument("--out", default=None)
    seg.set_defaults(func=_cmd_segment)

    fit = commands.add_parser("fit", help="estimate (r, lambda, gamma) from maxima")
    _add_input_options(fit)
    fit.add_argument("--input-kind", choices=("daily", "maxima"), default="daily",
                     help="'daily' segments the series first; 'maxima' takes "
                          "the input column as the maxima sample itself")
    fit.add_argument("--min-wet-days", type=int, default=1,
                     help="censoring threshold h: keep periods of at least h days")
    _add_fit_options(fit)
    fit.add_argument("--out", default=None)
    fit.set_defaults(func=_cmd_fit)

    sweep = commands.add_parser("gof-sweep",
                                help="fit and measure uniform distance per censoring threshold")
    _add_input_options(sweep)
    _add_fit_options(sweep)
    sweep.add_argument("--h-range", default="1:15", help="inclusive range 'min:max'")
    sweep.add_argument("--plot-dir", default=None,
                       help="directory for per-threshold empirical/model d.f. tables")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=_cmd_gof_sweep)

    sim = commands.add_parser("simulate", help="draw variates from the limit law")
    _add_law_options(sim)
    sim.add_argument("--tag", choices=[t.value for t in Representation],
                     help=f"product representation (default {Representation.DIRECT.value})")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--prelimit-n", type=int, default=None,
                     help="draw pre-limit scaled maxima of Pareto samples of "
                          "effective size N~NegBin(r, min(q, lambda/n)) instead")
    sim.add_argument("--q", type=float, help="cap on p for --prelimit-n (default 0.5)")
    sim.add_argument("--pareto-gamma", type=float, default=None)
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=_cmd_simulate)

    quant = commands.add_parser("quantile", help="print a quantile of the limit law")
    quant.add_argument("--eps", type=float, required=True)
    _add_law_options(quant)
    quant.set_defaults(func=_cmd_quantile)

    mom = commands.add_parser("moment", help="print a fractional moment of the limit law")
    mom.add_argument("--delta", type=float, required=True)
    _add_law_options(mom)
    mom.set_defaults(func=_cmd_moment)

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _segment_input(args):
    """The wet periods of the ``--input`` series, per the input options."""
    series = ingest_csv(args.input, missing_marker=args.missing_marker)
    return segment(series, wet_threshold=args.wet_threshold)


def _cmd_segment(args) -> int:
    wp = _segment_input(args)
    doc = wp.to_json_dict()
    doc["warnings"] = wp.warnings
    _write_text((json.dumps(doc, sort_keys=True) + "\n",), args.out)
    return 0


def _load_sample(args):
    """Returns (maxima sample, durations list or None) per the input kind."""
    if args.input_kind == "maxima":
        return MaximaSample(ingest_csv(args.input, missing_marker=args.missing_marker).values), None
    wp = _segment_input(args)
    sample = build_maxima(wp, CensoringSpec(args.min_wet_days))
    return sample, durations(wp)


def _resolve_r(args, duration_list):
    """Returns (r value or None, source tag)."""
    if args.r is None:
        return None, None
    if args.r == "from-durations":
        if duration_list is None:
            raise ValueError("--r from-durations requires --input-kind daily")
        return fit_negbin(duration_list).r, "durations"
    try:
        value = float(args.r)
    except ValueError:
        raise ValueError(f"--r must be a number or 'from-durations', got {args.r!r}") from None
    return _checked("--r", value), "flag"


def _fit_setup(args, duration_list):
    """(r value, its source, methods, fit) of the fit options; ``fit(sample)`` runs :func:`_fit_reports`."""
    r_value, r_source = _resolve_r(args, duration_list)
    if args.method == "ls" and r_value is None:
        raise ValueError("method 'ls' needs a known shape: pass --r VALUE or --r from-durations")
    methods = [m for m in METHODS if args.method in (m, "all") and (m != "ls" or r_value is not None)]
    levels = {p: getattr(args, p) for p in ("p1", "p2", "p3") if getattr(args, p) is not None}
    quantile_flags = [f"--{p}" for p in levels] + (["--tau-grid"] if args.tau_grid is not None else [])
    if quantile_flags and "quantile" not in methods and not ("mle" in methods and r_value is None):
        known = " and a known r" if args.method == "mle" else ""  # the MLE starts from ls
        raise ValueError(f"{quantile_flags[0]} has no effect with --method {args.method}{known}")
    if args.tau_grid and levels:
        raise ValueError(f"--{min(levels)} has no effect with --tau-grid")
    try:
        tau_grid = [float(tok) for tok in args.tau_grid.split(",") if tok.strip()] if args.tau_grid else None
    except ValueError:
        raise ValueError(f"cannot parse --tau-grid {args.tau_grid!r}") from None
    return r_value, r_source, methods, functools.partial(
        _fit_reports, methods=methods, r_value=r_value, triple=QuantileTriple(**levels), tau_grid=tau_grid)


def _fit_reports(sample, methods, r_value, triple, tau_grid):
    """Each method's FitReport, measured once, or the EstimationError that stopped it, by method.

    ``quantile`` (over ``tau_grid`` where given) and ``ls`` are fitted at most
    once: the MLE starts from ``ls`` when r is known, else from ``quantile``,
    and fails with its start's error.  An unreported start is not measured.
    """
    def estimate(method) -> ModelParams:
        if method == "ls":
            return ModelParams(r_value, *fit_least_squares(sample, r_value))
        if tau_grid is not None:
            return fit_quantile_tau_scan(sample, tau_grid, r=r_value)[0]
        return fit_quantile(sample, triple, r=r_value)

    base = "ls" if r_value is not None else "quantile"
    fits: dict[str, FitReport | EstimationError] = {}
    for method in methods:  # in METHODS order: the MLE's start comes first where it is reported
        try:
            if method != "mle":
                fits[method] = FitReport(estimate(method), method, None, sample.m)
            elif isinstance(start := fits.get(base), EstimationError):
                fits[method] = start
            else:
                params = start.params if start is not None else estimate(base)
                fits[method] = fit_mle(sample, params, fix_r=r_value is not None)
        except EstimationError as exc:
            fits[method] = exc
    return {method: fit if isinstance(fit, EstimationError)
            else dataclasses.replace(fit, ks_distance=ks_model(sample, fit.params).ks_distance)
            for method, fit in fits.items()}


def _cmd_fit(args) -> int:
    sample, duration_list = _load_sample(args)
    r_value, r_source, _methods, fit = _fit_setup(args, duration_list)
    reports = fit(sample)
    if failed := [report for report in reports.values() if isinstance(report, EstimationError)]:
        raise failed[0]
    doc = {
        "input": args.input,
        "m": sample.m,
        "min_wet_days": args.min_wet_days if args.input_kind == "daily" else None,
        "r_given": r_value,
        "r_source": r_source,
        "reports": {name: report.to_dict() for name, report in reports.items()},
    }
    _write_text((json.dumps(doc, sort_keys=True) + "\n",), args.out)
    return 0


def _cmd_gof_sweep(args) -> int:
    wp = _segment_input(args)
    _r_value, _source, methods, fit = _fit_setup(args, durations(wp))

    try:
        h_lo, h_hi = (int(tok) for tok in args.h_range.split(":"))
    except ValueError:
        raise ValueError(f"cannot parse --h-range {args.h_range!r}, expected 'min:max'") from None
    if not (1 <= h_lo <= h_hi):
        raise ValueError(f"need 1 <= min <= max in --h-range, got {args.h_range!r}")

    plot_dir = Path(args.plot_dir) if args.plot_dir else None
    if plot_dir is not None:
        plot_dir.mkdir(parents=True, exist_ok=True)

    lines = ["h\tm\t" + "\t".join(f"ks_{m}" for m in methods)]
    for h in range(h_lo, h_hi + 1):
        try:
            sample = build_maxima(wp, CensoringSpec(h))
        except EmptySampleError:
            lines.append(f"{h}\t0\t" + "\t".join("" for _ in methods))
            continue
        cells = [str(h), str(sample.m)]
        if plot_dir is not None:  # the x and empirical d.f. columns of every method's table
            columns = plot_columns(sample, np.linspace(0.0, 1.05 * float(sample.sorted_values[-1]), 201))
        for method, report in fit(sample).items():
            failed = isinstance(report, EstimationError)
            cells.append("" if failed else f"{report.ks_distance:.12g}")
            if plot_dir is not None and not failed:
                path = plot_dir / f"gof_h{h}_{method}.tsv"
                path.write_text(emit_plot_data(sample, report, columns))
        lines.append("\t".join(cells))
    _write_text(("\n".join(lines) + "\n",), args.out)
    return 0


def _cmd_simulate(args) -> int:
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed must be in [0, 2**64), got {args.seed}")
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    if args.prelimit_n is None and (args.q, args.pareto_gamma) != (None, None):
        raise ValueError("--q and --pareto-gamma have no effect without --prelimit-n")
    if args.prelimit_n is not None and args.tag is not None:
        raise ValueError("--tag has no effect with --prelimit-n")
    params = _model_params_from(args)
    rng = make_rng(args.seed)
    with np.errstate(all="ignore"):  # a draw beyond the float range is rejected below
        if args.prelimit_n is not None:
            q = args.q if args.q is not None else 0.5
            pareto_gamma = args.pareto_gamma if args.pareto_gamma is not None else params.gamma
            values = simulate_prelimit_max(args.prelimit_n, params, q, pareto_gamma, rng, size=args.n)
            inside, support = values >= 0.0, "[0, inf)"  # 0 is the empty maximum
        else:
            values = sample_limit(params, Representation(args.tag or Representation.DIRECT), rng, size=args.n)
            inside, support = values > 0.0, "(0, inf)"
        inside &= values < np.inf
    if not inside.all():
        i = int(np.argmin(inside))
        raise ValueError(f"draw {i + 1} of {values.size} is {values[i]:.17g}, outside the support "
                         f"{support}: these parameters take draws beyond the float range")
    _write_text(_draw_lines(values), args.out)
    return 0


def _draw_lines(values):
    """The ``%.17g`` lines of ``values``, one text piece per block of draws."""
    for start in range(0, values.size, SIMULATE_BLOCK):
        block = values[start:start + SIMULATE_BLOCK].tolist()
        yield ("%.17g\n" * len(block)) % tuple(block)


def _cmd_quantile(args) -> int:
    with np.errstate(over="ignore"):  # the law's quantiles are positive and finite: 0 or inf is no answer
        value = limit_quantile(args.eps, _model_params_from(args))
    if not 0.0 < value < np.inf:
        flow = "overflows" if value else "underflows"
        raise ValueError(f"the quantile of order {args.eps!r} {flow} a float for these parameters")
    print(f"{value:.12g}")
    return 0


def _cmd_moment(args) -> int:
    print(f"{limit_moment(args.delta, _model_params_from(args)):.12g}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader of stdout went away, as ``| head`` does: no error.  Point
        # stdout at the null device so that its flush at exit stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (EstimationError, EmptySampleError, CsvFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (EstimationError, EmptySampleError)) else 2
    except MemoryError as exc:  # e.g. a simulate --n whose draws cannot be allocated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
