#!/usr/bin/env python3
"""Check the result line of one benchmark run read from standard input.

    python3 bench/run.py --workload replicates --seed 1 --seconds 1 \\
        | python3 scripts/check_bench_line.py

The last line of the run's standard output must be one strict JSON object
(no NaN or Infinity) with ``correct`` true, ``failed`` 0, and exactly the
metrics that BENCHMARK.json names, each with a finite number as its value.
Those are the ``per_layer`` metrics when the run's ``# workload=... trace=1``
line says it was traced, and the ``end_to_end`` metrics otherwise.  Exits 0
when it is, and 1 with one message per fault when not.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def faults(line: str, metric_names) -> list:
    """The faults of one result line; an empty list passes."""
    try:
        doc = json.loads(line, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"the last line is not strict JSON ({exc}): {line[:200]!r}"]
    if not isinstance(doc, dict):
        return [f"the last line is not a JSON object: {line[:200]!r}"]
    found = []
    if doc.get("correct") is not True:
        found.append(f"correct is {doc.get('correct')!r}, not true")
    if doc.get("failed") != 0:
        found.append(f"failed is {doc.get('failed')!r}, not 0")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["no metrics object"]
    if sorted(metrics) != sorted(metric_names):
        found.append(f"metrics {sorted(metrics)}, expected {sorted(metric_names)}")
    for name, entry in sorted(metrics.items()):
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"metric {name} has no finite value: {entry!r}")
    return found


def traced(lines) -> bool:
    """Whether the run's ``# workload=...`` line says ``trace=1``."""
    for line in lines:
        if line.startswith("# workload="):
            return "trace=1" in line[2:].split()
    return False


def main() -> int:
    lines = sys.stdin.read().splitlines()
    kind = "per_layer" if traced(lines) else "end_to_end"
    names = [entry["name"] for entry in json.loads(BENCHMARK.read_text())[kind]]
    found = faults(lines[-1], names) if lines else ["no output"]
    for message in found:
        print(f"bench line: {message}", file=sys.stderr)
    if not found:
        print(f"bench line: ok, {len(names)} {kind} metrics")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
