#!/usr/bin/env python3
"""wetmax benchmark: one workload, its output checks, and its metrics.

    python3 bench/run.py --workload {stations,replicates,draws} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src``.
Every workload runs, in each round, every timed operation: the CLI
commands ``fit``, ``gof-sweep``, ``segment`` and ``simulate`` warm and in
process through ``wetmax.cli.main``, a block of replicate fits, and a
block of sampler draws.  A workload's focus operations run on a large
input and the others on a small companion input, so each end-to-end metric
exists on every workload (see README.md).  Rounds repeat until ``--seconds`` have passed; each metric is
the median over rounds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds in which every layer call is wrapped in a span,
and prints the per-layer metrics, including the tracing overhead.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
from hostref import Reference, host_factor  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
H_MAX = 15
SETUP_STARTS = 5          # cold starts whose median is setup_s
IMPORT_STARTS = 3         # cold starts under -X importtime in a traced run
QUANTILE_ARGV = ["quantile", "--eps", "0.99", "--r", "0.85", "--lambda", "1.5", "--gamma", "1.2"]


@dataclass(frozen=True)
class Workload:
    focus: str            # the part built from --seed; the others use COMPANION_SEED
    years: tuple          # one station per entry, its length in years
    sizes: tuple          # replicate sample sizes m
    triples: tuple        # true (r, lam, gamma) of the replicates; cells = sizes x triples
    replicates: int       # replicates per cell; a round fits them all
    draw_n: int           # draws per sampler call
    simulate_n: int       # draws written by the CLI simulate


# The companion inputs of the operations outside a workload's focus.  They
# are the same for every seed, so that the metrics they give do not move
# with the seed.  They are small inputs, but they run several times per
# round; README.md gives the share of the round they take.
COMPANION_SEED = 0
SMALL_STATIONS = (25,)
SMALL_CELLS = dict(sizes=(400,), triples=gen.TRIPLES[::2], replicates=3)
SMALL_DRAWS = dict(draw_n=50_000, simulate_n=50_000)
WORKLOADS = {
    # pipeline-heavy: ~160k days over 12 stations of 10 to 60 years
    "stations": Workload("stations", years=(25, 30, 35, 40, 45, 50, 55, 60, 25, 30, 40, 10),
                         **SMALL_CELLS, **SMALL_DRAWS),
    # estimation-heavy: 12 cells of 6 replicates, m = 400 .. 3000, both sides of r = 1 and gamma = 1
    "replicates": Workload("replicates", years=SMALL_STATIONS, sizes=(400, 1000, 3000),
                           triples=gen.TRIPLES, replicates=6, **SMALL_DRAWS),
    # sampler-heavy: 2e5 draws per representation and pre-limit n
    "draws": Workload("draws", years=SMALL_STATIONS, **SMALL_CELLS, draw_n=200_000, simulate_n=200_000),
}
MIN_ROUNDS = 3
# the r-free quantile fit uses a wide triple: with (1/4, 1/2, 3/4) its shape
# equation has no root on a share of samples of m <= 1000 (see CHANGES.md)
QUANTILE_TRIPLE = (0.05, 0.5, 0.95)
MEDIAN_CHECK_REPLICATES = 6   # fewer replicates give no usable spread


# ---------------------------------------------------------------------------
# cold start


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_start(importtime=False):
    """Seconds for a fresh interpreter to print ``wetmax quantile``'s answer, and its stderr."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-m", "wetmax.cli"] + QUANTILE_ARGV
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=ROOT)
    first = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _rest, err = proc.communicate(timeout=60)
    if proc.returncode != 0 or not first.strip():
        raise RuntimeError(f"cold start failed ({proc.returncode}): {err.strip()[-300:]}")
    if abs(float(first) - float(gen.quantile(0.99, 0.85, 1.5, 1.2))) > 1e-9 * float(first):
        raise RuntimeError(f"cold start printed {first.strip()}")
    return elapsed, err


def import_seconds(stderr_text):
    """Cumulative import seconds of wetmax, scipy.optimize and scipy.special from -X importtime."""
    wanted = {"wetmax": "import.wetmax_s", "scipy.optimize": "import.scipy_optimize_s",
              "scipy.special": "import.scipy_special_s"}
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = (tok.strip() for tok in line[len("import time:"):].split("|"))
        if name in wanted and cumulative.isdigit():
            out[wanted[name]] = int(cumulative) * 1e-6
    return out


# ---------------------------------------------------------------------------
# the rounds


def _digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _remove(*paths):
    """Remove earlier outputs, so each command writes new files: ext4 flushes a
    file that is truncated and written again when it is closed, which would
    put disk latency into the timings."""
    for path in paths:
        if path.is_dir():
            for child in path.iterdir():
                child.unlink()
        elif path.exists():
            path.unlink()


class Bench:
    """The inputs of one workload, the operations on them, and their timings.

    A round runs the focus units, each once, and between them the companion
    units, each ``reps`` times, spread evenly.  Each unit ends with one run of
    the reference kernels (see hostref)."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        import wetmax.cli
        import wetmax.estimation
        import wetmax.gof
        import wetmax.samplers
        from wetmax.distributions import ModelParams
        self.cli, self.est, self.gof, self.smp = wetmax.cli, wetmax.estimation, wetmax.gof, wetmax.samplers
        self.ModelParams = ModelParams
        self.wl, self.work = wl, work
        seed_of = {part: seed if part == wl.focus else COMPANION_SEED for part in WORKLOADS}
        self.stations = gen.make_stations(seed_of["stations"], wl.years)
        for st in self.stations:
            (work / f"{st.name}.csv").write_text(st.csv_text())
            st.values = None  # the CSV holds the series; the checks need only the truth
        self.cells = gen.make_cells(seed_of["replicates"], wl.sizes, wl.replicates, wl.triples)
        self.seeds = gen.draw_seeds(seed_of["draws"], 16)
        self.draw_calls = ([(gen.RESTRICTED, tag, None) for tag in gen.ALL_TAGS]
                           + [(gen.UNRESTRICTED, tag, None) for tag in gen.ALL_TAGS[:2]]
                           + [(gen.RESTRICTED, "prelimit", n) for n in gen.PRELIMIT_N])
        self.attempted = 0
        self.failed = 0
        self.errors = []      # failed output checks
        self.failures = []    # failed operations
        self.first = {}       # operation key -> digest of its first output
        self.rep_fits = {}    # (cell index, replicate) -> fits
        self.reference = Reference()
        self.round_index = 0
        self.refs = {}        # round index -> reference-kernel timings
        self.samples = {}     # operation key -> [(seconds, round index)]

        stations = [lambda st=st: self.station_unit(st) for st in self.stations]
        cells = [lambda c=c: self.cell_unit(c) for c in range(len(self.cells))]
        every_draw = range(len(self.draw_calls))
        if wl.focus == "stations":
            self.focus = stations
            self.companions = cells + [lambda: self.draw_unit(every_draw), self.simulate_unit]
        elif wl.focus == "replicates":
            self.focus = cells
            self.companions = stations + [lambda: self.draw_unit(every_draw), self.simulate_unit]
        else:
            self.focus = [lambda i=i: self.draw_unit([i]) for i in every_draw] + [self.simulate_unit]
            self.companions = stations + cells
        self.reps = max(1, round(len(self.focus) / len(self.companions)))

    # -- bookkeeping -------------------------------------------------------------

    def _time(self, key, seconds):
        self.samples.setdefault(key, []).append((seconds, self.round_index))

    def _record(self, key, digest, check):
        """Full check on an operation's first output; later outputs must be identical."""
        if key not in self.first:
            self.first[key] = digest
            self.errors += check()
        elif self.first[key] != digest:
            self.errors.append(f"{key}: output differs from the first one")

    def _cli(self, key, argv, outputs):
        _remove(*outputs)
        self.attempted += 1
        t0 = time.perf_counter()
        code = self.cli.main(argv)
        self._time(key, time.perf_counter() - t0)
        if code != 0:
            self.failed += 1
            self.failures.append(f"wetmax {' '.join(argv)}: exit {code}")
        return code == 0

    def _ref(self):
        self.refs.setdefault(self.round_index, []).append(self.reference.time_all())

    # -- the units ---------------------------------------------------------------

    def station_unit(self, st):
        """fit, gof-sweep and segment on one station."""
        csv = str(self.work / f"{st.name}.csv")
        base = self.work / st.name
        fit_out, sweep_out, seg_out = (Path(f"{base}.{ext}") for ext in ("fit.json", "sweep.tsv", "seg.json"))
        plots = Path(f"{base}.plots")

        if self._cli(("fit", st.name), ["fit", "--input", csv, "--method", "all", "--r", "from-durations",
                                         "--out", str(fit_out)], [fit_out]):
            self._record(("fit", st.name), _digest(fit_out), lambda: checks.check_fit(st, fit_out))

        if self._cli(("sweep", st.name), ["gof-sweep", "--input", csv, "--method", "all",
                                           "--r", "from-durations", "--h-range", f"1:{H_MAX}",
                                           "--plot-dir", str(plots), "--out", str(sweep_out)],
                     [sweep_out, plots]):
            files = [sweep_out] + sorted(plots.iterdir())
            self._record(("sweep", st.name), _digest(*files),
                         lambda: checks.check_sweep(st, sweep_out, plots, H_MAX))

        if self._cli(("segment", st.name), ["segment", "--input", csv, "--out", str(seg_out)], [seg_out]):
            self._record(("segment", st.name), _digest(seg_out), lambda: checks.check_segment(st, seg_out))
        self._ref()

    def cell_unit(self, c):
        """Every replicate of one cell, fitted by every estimator."""
        est, gof, cell = self.est, self.gof, self.cells[c]
        for k in range(self.wl.replicates):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                sample = est.MaximaSample(cell.maxima[k])
                negbin = est.fit_negbin(cell.durations[k])
                quant = est.fit_quantile(sample, est.QuantileTriple(*QUANTILE_TRIPLE))
                lam, gamma = est.fit_least_squares(sample, cell.r)
                ls = self.ModelParams(cell.r, lam, gamma)
                mle_fixed = est.fit_mle(sample, ls, fix_r=True)
                mle_free = est.fit_mle(sample, quant, fix_r=False)
                fitted = {"quantile": quant, "ls": ls, "mle_fixed": mle_fixed.params, "mle_free": mle_free.params}
                ks = {name: gof.ks_model(sample, p).ks_distance for name, p in fitted.items()}
            except (ValueError, RuntimeError) as exc:
                self._time(("fits", c, k), time.perf_counter() - t0)
                self.failed += 1
                self.failures.append(f"cell {c} rep {k}: {exc}")
                continue
            self._time(("fits", c, k), time.perf_counter() - t0)
            fits = {name: (p.r, p.lam, p.gamma) for name, p in fitted.items()}
            fits["negbin_r"] = negbin.r
            fits["ks"] = ks
            if (c, k) not in self.rep_fits:
                self.rep_fits[c, k] = fits
                self.errors += checks.check_replicate(cell, k, fits)
            elif self.rep_fits[c, k] != fits:
                self.errors.append(f"cell {c} rep {k}: fits differ from the first ones")
        self._ref()

    def draw_unit(self, indices):
        """The sampler calls of the draw block with the given indices."""
        smp = self.smp
        for i in indices:
            triple, tag, n = self.draw_calls[i]
            params = self.ModelParams(*triple)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                rng = smp.make_rng(self.seeds[i])
                if n is None:
                    values = smp.sample_limit(params, tag, rng, size=self.wl.draw_n)
                else:
                    values = smp.simulate_prelimit_max(n, params, gen.PRELIMIT_Q, triple[2], rng,
                                                       size=self.wl.draw_n)
            except (ValueError, RuntimeError) as exc:
                self._time(("draws", i), time.perf_counter() - t0)
                self.failed += 1
                self.failures.append(f"draws {tag} {triple}: {exc}")
                continue
            self._time(("draws", i), time.perf_counter() - t0)
            label = f"draws {tag} at {triple}" + (f" n={n}" if n else "")
            digest = hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()
            if n is None:
                self._record(("draws", i), digest, lambda: checks.check_limit_draws(values, triple, label))
            else:
                self._record(("draws", i), digest, lambda: checks.check_prelimit_draws(values, n, triple, label))
        self._ref()

    def simulate_unit(self):
        out = self.work / "simulate.txt"
        r, lam, gamma = gen.RESTRICTED
        seed = self.seeds[15]
        if self._cli(("simulate",), ["simulate", "--r", repr(r), "--lambda", repr(lam), "--gamma", repr(gamma),
                                     "--tag", "direct", "--n", str(self.wl.simulate_n), "--seed", str(seed),
                                     "--out", str(out)], [out]):
            self._record(("simulate",), _digest(out), lambda: self._check_simulate_file(out, seed))
        self._ref()

    def _check_simulate_file(self, out, seed):
        # np.fromfile parses each %.17g line to the same double, and holds no
        # more than the array, so the check stays below the command's own
        # footprint and does not set peak_rss_mb
        written = np.fromfile(out, sep="\n")
        expected = self.smp.sample_limit(self.ModelParams(*gen.RESTRICTED), "direct", self.smp.make_rng(seed),
                                         size=self.wl.simulate_n)
        if written.shape != expected.shape or not np.array_equal(written, expected):
            return ["simulate: file differs from sample_limit with the same seed and tag"]
        return []

    # -- rounds --------------------------------------------------------------------

    def round(self, tracer=None):
        """Run one round; every timing it makes is filed under its round index."""
        self.round_index += 1
        cli_main = self.cli.main
        if tracer is not None:
            # the CLI commands get their own spans, parents of the layer spans
            names = {"fit": "cli.fit", "gof-sweep": "cli.sweep", "segment": "cli.segment", "simulate": "cli.simulate"}
            self.cli.main = lambda argv: tracer.call(names[argv[0]], cli_main, argv)
        slots = len(self.companions) * self.reps
        companions = itertools.cycle(self.companions)
        try:
            self._ref()
            for i, unit in enumerate(self.focus):
                unit()
                for _ in range((i + 1) * slots // len(self.focus) - i * slots // len(self.focus)):
                    next(companions)()
        finally:
            self.cli.main = cli_main

    def host_factor(self, index):
        return host_factor(self.refs[index])

    def final_checks(self):
        if self.wl.replicates < MEDIAN_CHECK_REPLICATES:
            return
        by_triple = {}
        for c, cell in enumerate(self.cells):
            fits = [self.rep_fits[(c, k)] for k in range(self.wl.replicates) if (c, k) in self.rep_fits]
            if len(fits) != self.wl.replicates:
                self.errors.append(f"cell {c}: {len(fits)} of {self.wl.replicates} replicates fitted")
                return
            by_triple.setdefault((cell.r, cell.lam, cell.gamma), []).append((cell, fits))
        for group in by_triple.values():
            self.errors += checks.check_medians(*zip(*group))


# ---------------------------------------------------------------------------
# metrics


def end_to_end(bench, rounds, setup, scaled=True):
    """Medians over ``rounds`` of each round's figure.

    A round's time for an operation is the mean of its timings in the round
    (companion units run several times), with ``scaled`` each divided by the
    round's host factor; a pass sums the operations.  The replicate fits count
    each cell by its median replicate, so that one sample on which the
    optimiser wanders does not move the figure.
    """
    per_round = {}
    for key, samples in bench.samples.items():
        for seconds, r in samples:
            per_round.setdefault(r, {}).setdefault(key, []).append(seconds)

    def figure(compute):
        values = []
        for r in rounds:
            host = bench.host_factor(r) if scaled else 1.0
            times = {key: statistics.fmean(ts) / host for key, ts in per_round[r].items()}
            values.append(compute(times))
        return statistics.median(values)

    def station_pass(command):
        return figure(lambda t: sum(t[command, st.name] for st in bench.stations))

    def fits_per_s(t):
        per_cell = [statistics.median(t["fits", c, k] for k in range(bench.wl.replicates))
                    for c in range(len(bench.cells))]
        return len(per_cell) / sum(per_cell)

    n_draws = len(bench.draw_calls) * bench.wl.draw_n
    values = {
        "setup_s": (setup, "s"),
        "fit_s": (station_pass("fit"), "s"),
        "sweep_s": (station_pass("sweep"), "s"),
        "segment_s": (station_pass("segment"), "s"),
        "fits_per_s": (figure(fits_per_s), "1/s"),
        "draws_per_s": (figure(lambda t: n_draws / sum(t["draws", i] for i in range(len(bench.draw_calls)))), "1/s"),
        "simulate_s": (figure(lambda t: t["simulate",]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


PER_LAYER_TIMES = [
    "pipeline.ingest_csv", "pipeline.segment", "pipeline.build_maxima",
    "estimation.fit_negbin", "estimation.fit_quantile", "estimation.fit_least_squares",
    "estimation.fit_mle_fixed", "estimation.fit_mle_free",
    "gof.ks_model", "gof.emit_plot_data",
]
PER_LAYER_COUNTS = ["pipeline.days", "pipeline.spells", "pipeline.split_warnings",
                    "estimation.mle_iterations", "estimation.mle_converged"]
PER_POINT = {"distributions.limit_log_pdf": "_ns_per_point", "distributions.limit_cdf": "_ns_per_point"}
PER_POINT.update({f"samplers.{tag}": ".ns_per_draw" for tag in gen.ALL_TAGS + ("prelimit",)})
CLI_SPANS = {"cli.fit": "cli.fit.self_s", "cli.sweep": "cli.sweep.self_s",
             "cli.segment": "cli.segment.self_s", "cli.simulate": "cli.simulate.self_s"}


def per_layer(tracer, traced_rounds, plain_rounds, imports):
    n_traced = len(traced_rounds)
    inclusive, own = tracer.totals()
    out = {}
    for name in PER_LAYER_TIMES:
        out[name + "_s"] = (inclusive[name] / n_traced, "s")
    for name in PER_LAYER_COUNTS:
        out[name] = (tracer.counts[name] / n_traced, "count")
    for name, suffix in PER_POINT.items():
        points = tracer.counts[name + ".points"]
        out[name + suffix] = (inclusive[name] / points * 1e9 if points else 0.0, "ns")
    for span, metric in CLI_SPANS.items():
        out[metric] = (own[span] / n_traced, "s")
    for metric, values in imports.items():
        out[metric] = (statistics.median(values), "s")
    traced = statistics.median(traced_rounds)
    plain = statistics.median(plain_rounds)
    out["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}


def environment():
    import scipy
    return {"machine": platform.machine(), "processor": platform.processor() or platform.uname().machine,
            "cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wetmax" / "cli.py").is_file():
        print(f"error: no wetmax sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    # set-up: cold starts first, while little else is imported or allocated
    cold_start()  # writes the bytecode caches, not timed
    imports, setup = {}, None
    if args.trace:
        for _ in range(IMPORT_STARTS):
            for name, value in import_seconds(cold_start(importtime=True)[1]).items():
                imports.setdefault(name, []).append(value)
    else:
        setup = statistics.median(cold_start()[0] for _ in range(SETUP_STARTS))

    work = ROOT / "bench" / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(wl, args.seed, work)
        bench.round()  # warm-up: caches, lazy imports, first-output checks
        tracer = Tracer() if args.trace else None
        rounds, traced_rounds, plain_rounds = [], [], []
        t_end = time.perf_counter() + args.seconds
        while time.perf_counter() < t_end or len(rounds) < MIN_ROUNDS:
            # untraced rounds give the end-to-end metrics; a traced run pairs
            # each with a traced round
            t0 = time.perf_counter()
            bench.round()
            rounds.append(bench.round_index)
            plain_rounds.append(time.perf_counter() - t0)
            if tracer is None:
                continue
            tracer.install()
            try:
                t0 = time.perf_counter()
                bench.round(tracer)
                traced_rounds.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
        host = statistics.median(bench.host_factor(r) for r in rounds)
        if tracer is None:
            metrics = end_to_end(bench, rounds, setup)
            raw = {k: v["value"] for k, v in end_to_end(bench, rounds, setup, scaled=False).items()}
        else:
            metrics = per_layer(tracer, traced_rounds, plain_rounds, imports)
        bench.final_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in bench.failures[:20]:
        print(f"operation failed: {message}", file=sys.stderr)
    for message in bench.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload={args.workload} seed={args.seed} rounds={len(rounds)} trace={args.trace} "
          f"host_factor={host:.4f}")
    if not args.trace:
        print("# unscaled " + json.dumps(raw))
    print(json.dumps({"correct": not bench.errors, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
