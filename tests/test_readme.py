"""The README's library tour runs as written, with its station file the committed fixture."""

from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "precip_seed42.csv"


def _tour() -> str:
    """The Python block under the README's "Library tour" heading."""
    section = (ROOT / "README.md").read_text().split("\n## Library tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_tour_runs_on_the_fixture(capsys):
    tour = _tour()
    assert tour.count('"station.csv"') == 1
    namespace = {}
    exec(compile(tour.replace('"station.csv"', repr(str(FIXTURE))), "README.md", "exec"), namespace)
    periods, sample, report, table = (namespace[k] for k in ("periods", "sample", "report", "table"))
    assert namespace["draws"].shape == (10_000,)
    assert sample.m == np.count_nonzero(periods.run_lengths >= 3)
    assert report.params.r == namespace["shape"]
    assert capsys.readouterr().out.startswith(f"{report.params} ")
    lines = table.splitlines()
    assert lines[0].startswith(f"# ks={namespace['ks_model'](sample, report.params).ks_distance:.12g} m={sample.m} ")
    assert len(lines) == 202
