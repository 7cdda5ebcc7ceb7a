#!/usr/bin/env python3
"""Regenerate the committed synthetic fixtures under tests/fixtures/.

The daily series is built from seed 42: per-spell maxima are drawn from the
limit law with (r, lambda, gamma) = (0.85, 1.5, 1.2), spell lengths are
1 + NegBin(0.85, 0.4) days, each spell carries its maximum at a random
position with the remaining days uniform below it, and spells are separated
by single dry days.  The expected fit report is the output of

    wetmax fit --input precip_seed42.csv --method all --r 0.85

run on that file.  Output is byte-stable for a fixed seed, numpy and scipy.
"""

from __future__ import annotations

import datetime
import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

from wetmax.cli import main as cli_main
from wetmax.distributions import ModelParams, NegBinParams
from wetmax.samplers import Representation, make_rng, sample_limit, sample_negbin

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

SEED = 42
TRUE_PARAMS = ModelParams(r=0.85, lam=1.5, gamma=1.2)
DURATION_LAW = NegBinParams(r=0.85, p=0.4)
N_SPELLS = 5000


def build_daily_series() -> tuple[list[str], list[float]]:
    rng = make_rng(SEED)
    maxima = sample_limit(TRUE_PARAMS, Representation.DIRECT, rng, size=N_SPELLS)
    extra_days = sample_negbin(DURATION_LAW, rng, size=N_SPELLS)

    dates: list[str] = []
    values: list[float] = []
    day = datetime.date(1950, 1, 1)

    def push(value: float):
        nonlocal day
        dates.append(day.isoformat())
        values.append(value)
        day += datetime.timedelta(days=1)

    for spell_max, extra in zip(maxima, extra_days):
        length = int(extra) + 1
        spell = spell_max * (1.0 - rng.random(length))  # in (0, max]
        spell[int(rng.integers(length))] = spell_max
        for v in spell:
            push(float(v))
        push(0.0)  # dry separator
    return dates, values


def csv_text(dates: list[str], values: list[float]) -> str:
    """The fixture CSV: a ``date,value_mm`` header, then one row per day."""
    return "date,value_mm\n" + "".join(f"{date},{value:.17g}\n" for date, value in zip(dates, values))


def main() -> int:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    dates, values = build_daily_series()
    csv_path = FIXTURE_DIR / "precip_seed42.csv"
    with open(csv_path, "w") as handle:
        handle.write(csv_text(dates, values))
    print(f"wrote {csv_path} ({len(values)} rows, {N_SPELLS} wet spells)")

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(
            # relative to the working directory, so that the report does not
            # record where the checkout lives
            ["fit", "--input", os.path.relpath(csv_path), "--method", "all", "--r", "0.85"]
        )
    if code != 0:
        print(f"fit failed with exit code {code}", file=sys.stderr)
        return code
    report_path = FIXTURE_DIR / "expected_fit_seed42.json"
    report_path.write_text(buffer.getvalue())
    report = json.loads(buffer.getvalue())
    print(f"wrote {report_path}")
    for name, entry in sorted(report["reports"].items()):
        print(
            f"  {name}: r={entry['r']:.6g} lambda={entry['lambda']:.6g} "
            f"gamma={entry['gamma']:.6g} ks={entry['ks_distance']:.6g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
