#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python3 scripts/bench_pairs.py --parent REV [--change REV] --out BENCH_<n>.json \\
        [--seed-base 701] [--trace-pairs 0] [--workdir DIR]

Both revisions are exported with ``git archive`` into a temporary directory,
and the benchmark's ``command`` from ``BENCHMARK.json`` runs from the root of
each export, so each side is measured on its committed files.  Every
workload of the spec gets 10 pairs of ``run_seconds`` each; pair i runs both
sides on seed ``seed-base + i``, the parent first in even pairs and the
change first in odd ones.  ``--trace-pairs`` adds that many traced pairs per
workload, for the per-layer metrics.  The script changes nothing in the
checkout except the ``--out`` file.

Per workload and metric the output gives each side's values in pair order,
both medians, both interquartile ranges, the change's relative move of the
median, and its wins out of the pairs (ties count for neither).
``gain_rule`` is true where the change won at least nine tenths of the
pairs and its median beats the parent's by more than the parent's IQR.
The seeds, the host, and the Python, numpy and scipy versions go with them.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def export(rev: str, dest: Path) -> str:
    """Writes the tree of ``rev`` under ``dest``; returns its commit id."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_bench(spec: dict, tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run; its result line with the ``# env`` record."""
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(spec['command'])} failed in {tree} "
                           f"({workload}, seed {seed}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = [json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")]
    result["env"] = env[0] if env else None
    return result


def iqr(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(parent_lines, change_lines, spec) -> dict:
    """Per-metric comparison of paired result lines.

    ``parent_lines[i]`` and ``change_lines[i]`` are the parsed result lines of
    pair i; ``spec`` lists the metrics as ``BENCHMARK.json`` does, each with
    ``name`` and ``better``.  A metric missing from any line is left out.
    """
    if len(parent_lines) != len(change_lines) or not parent_lines:
        raise ValueError("need the same nonzero number of parent and change lines")
    out = {}
    for entry in spec:
        name, lower = entry["name"], entry["better"] == "lower"
        try:
            values = {side: [line["metrics"][name]["value"] for line in lines]
                      for side, lines in zip(SIDES, (parent_lines, change_lines))}
        except KeyError:
            continue
        parent, change = values["parent"], values["change"]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        medians = {side: statistics.median(v) for side, v in values.items()}
        spread = iqr(parent) if len(parent) > 1 else 0.0
        margin = (medians["parent"] - medians["change"]) if lower else (medians["change"] - medians["parent"])
        out[name] = {
            "unit": entry.get("unit"),
            "better": entry["better"],
            "parent": parent,
            "change": change,
            "parent_median": medians["parent"],
            "change_median": medians["change"],
            "parent_iqr": spread,
            "change_iqr": iqr(change) if len(change) > 1 else 0.0,
            "relative_change": (medians["change"] - medians["parent"]) / medians["parent"]
            if medians["parent"] else None,
            "wins": wins,
            "n": len(parent),
            "gain_rule": wins >= 0.9 * len(parent) and margin > spread,
        }
    return out


def run_pairs(spec, trees, workload, seeds, trace):
    """Alternating pairs; returns the result lines per side, in pair order."""
    lines = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_bench(spec, trees[side], workload, seed, trace)
            lines[side].append(result)
            print(f"{workload} trace={trace} seed={seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']}", file=sys.stderr, flush=True)
    return lines


def checks(lines) -> dict:
    every = [line for side in SIDES for line in lines[side]]
    return {"runs": len(every), "all_correct": all(line["correct"] for line in every),
            "failed": sum(line["failed"] for line in every)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change (default HEAD)")
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_13.json")
    parser.add_argument("--seed-base", type=int, default=701)
    parser.add_argument("--trace-pairs", type=int, default=0)
    parser.add_argument("--workdir", default=None, help="where the exports go (default: system temp)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    doc = {"seconds": spec["run_seconds"], "pairs": PAIRS, "trace_pairs": args.trace_pairs,
           "host": {"node": platform.node(), "machine": platform.machine(), "system": platform.system()},
           "workloads": {}}
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        doc["parent"] = export(args.parent, trees["parent"])
        doc["change"] = export(args.change, trees["change"])
        bench_files = {side: sorted((p.relative_to(t), p.read_bytes())
                                    for path in spec["paths"] for p in (t / path).rglob("*") if p.is_file())
                       for side, t in trees.items()}
        doc["bench_identical"] = bench_files["parent"] == bench_files["change"]
        for workload in (w["name"] for w in spec["workloads"]):
            seeds = list(range(args.seed_base, args.seed_base + PAIRS))
            lines = run_pairs(spec, trees, workload, seeds, 0)
            entry = {"seeds": seeds, "checks": checks(lines),
                     "end_to_end": summarize(lines["parent"], lines["change"], spec["end_to_end"])}
            doc["env"] = lines["change"][-1]["env"]
            if args.trace_pairs:
                traced_seeds = seeds[:args.trace_pairs]
                traced = run_pairs(spec, trees, workload, traced_seeds, 1)
                entry["traced_seeds"] = traced_seeds
                entry["traced_checks"] = checks(traced)
                entry["per_layer"] = summarize(traced["parent"], traced["change"], spec["per_layer"])
            doc["workloads"][workload] = entry
            Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
