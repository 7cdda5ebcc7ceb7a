"""Reference kernels: fixed work, sharing no code with wetmax, that measures
how fast the host runs right now.

The host's speed drifts by up to a fifth between windows of tens of
seconds, and not alike for all code.  So there is one kernel per kind of
work the workloads do:

* ``py``  - csv parsing, a Python loop over numpy scalars, JSON and float
  formatting, as in the CLI commands;
* ``opt`` - a Nelder-Mead search whose objective makes small numpy calls on
  1000 points, as in the fits;
* ``np``  - random variates and transcendental functions on arrays of
  50 000, as in the samplers.

The host factor of a round is the geometric mean, over the three kernels,
of the kernel's median time in the round over ``NOMINAL_S``, its median time
on the reference host (2 cores, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
In five runs per workload the mean of the three tracked every end-to-end
time better than any one kernel did.  A time over the factor reads in
seconds of the reference host at its usual speed.
"""

from __future__ import annotations

import csv
import io
import json
import time

import numpy as np
from scipy.optimize import minimize

NOMINAL_S = {"py": 0.0035, "opt": 0.0040, "np": 0.0050}


class Reference:
    def __init__(self):
        rng = np.random.default_rng(12345)
        values = rng.gamma(0.8, 5.0, size=2_000).tolist()
        self._csv = "".join(f"1950-01-{1 + i % 28:02d},{v!r}\n" for i, v in enumerate(values))
        self._y = rng.gamma(2.0, 1.0, size=1_000) + 0.1
        self._u = rng.random(50_000) + 0.1

    def _py(self):
        rows = list(csv.reader(io.StringIO(self._csv)))
        values = [float(row[1]) for row in rows]
        arr = np.array(values)
        wet = arr > 1.0
        runs = 0
        for i in range(1, arr.size):
            if wet[i] and not wet[i - 1]:
                runs += 1
        text = json.dumps(values[:1000]) + "".join(f"{v:.17g}\n" for v in values[:1000])
        return runs + len(text)

    def _opt(self):
        log_y = np.log(self._y)

        def objective(u):
            return -float(np.sum(u[0] * log_y - np.logaddexp(0.0, u[1] + 1.3 * log_y)))

        return minimize(objective, [0.3, 0.2], method="Nelder-Mead",
                        options={"xatol": 1e-12, "fatol": np.inf, "maxiter": 40}).fun

    def _np(self):
        gen = np.random.Generator(np.random.Philox(7))
        g = gen.standard_gamma(0.8, self._u.size)
        e = gen.standard_exponential(self._u.size)
        return float(np.sum((g / e) ** 0.75 * np.log1p(self._u)))

    def time_all(self):
        """Seconds for each kernel, one run each."""
        out = {}
        for kind, kernel in (("py", self._py), ("opt", self._opt), ("np", self._np)):
            t0 = time.perf_counter()
            result = kernel()
            out[kind] = time.perf_counter() - t0
            if not np.isfinite(result):
                raise RuntimeError(f"reference kernel {kind} went wrong")
        return out


def host_factor(samples):
    """Geometric mean over the kernels of median seconds over nominal seconds,
    from a list of ``Reference.time_all()`` results."""
    logs = [np.log(np.median([s[kind] for s in samples]) / nominal) for kind, nominal in NOMINAL_S.items()]
    return float(np.exp(np.mean(logs)))
