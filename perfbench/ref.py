"""The reference kernel: a fixed task that tells how fast the machine runs.

On a shared host the speed of a core drifts: a fixed task takes twice as long
from one tenth of a second to the next, and a run can be slower on average
than the run before it by a fifth, with CPU time moving as much as wall time.
So a run times this kernel between its units of work, at most every
``EVERY_S``, in the runner and in the program process alike (a
:class:`Sampler` in each), and scales its timings to the speed at which the
kernel takes ``NOMINAL_S``: a program call by the samples just before it, a
cold process or import probe by the mean of the run's samples.  The kernel
mixes what sympcoh's time goes to: small-matrix numpy linear algebra,
interpreter-bound Python, and unmarshalling and running module code as an
import does.  It uses no sympcoh code, so no change to the program can change
it.
"""

from __future__ import annotations

import marshal
import statistics
from time import perf_counter

import numpy as np

#: About the kernel's mean time on an Intel Xeon with 2 shared cores, Python
#: 3.11 and numpy 2.4, the machine on which the benchmark was defined.
NOMINAL_S = 0.002
#: Least time between two samples of the kernel.
EVERY_S = 0.02

_MATS = [np.random.default_rng(0).standard_normal((n, n)) for n in (4, 8, 16)]
_CODE = marshal.dumps(compile(
    "\n".join(f"def f{i}(x, y=1.0):\n    return [x * y + k for k in range({i % 7 + 1})]" for i in range(60)),
    "ref", "exec"))

def kernel() -> float:
    acc = 0.0
    for _ in range(3):
        for a in _MATS:
            s = a + a.T
            acc += float(np.linalg.eigvalsh(s)[0])
            q, _r = np.linalg.qr(a)
            acc += float(np.linalg.solve(s + 10.0 * np.eye(len(a)), q[:, 0])[0])
        table = {i: float(i) * 0.5 for i in range(400)}
        acc += sum(v for k, v in table.items() if k % 3)
        acc += len(",".join(f"{x:.3f}" for x in list(table.values())[:150]))
        ns: dict = {}
        exec(marshal.loads(_CODE), ns)
        acc += sum(len(ns[f"f{i}"](1.0)) for i in range(60))
    return acc


class Sampler:
    """The kernel times of one run in one process."""

    def __init__(self):
        kernel()  # warm-up, untimed
        self.samples: list[float] = []
        self._last = -EVERY_S

    def tick(self) -> None:
        """Time the kernel once if ``EVERY_S`` has passed since the last sample.

        Call it between units of work, never inside a timed span.
        """
        if perf_counter() - self._last < EVERY_S:
            return
        begin = perf_counter()
        kernel()
        self._last = perf_counter()
        self.samples.append(self._last - begin)

    def scale(self) -> float:
        """Factor for a span timed now, from the last two samples (1 before the first)."""
        return NOMINAL_S / statistics.fmean(self.samples[-2:]) if self.samples else 1.0


def factor(times: list[float]) -> float:
    """What to multiply a time of the run by, to read it at the nominal speed."""
    return NOMINAL_S / statistics.fmean(times)
