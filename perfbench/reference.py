"""A fixed reference kernel that tracks the machine's speed.

On a shared host the same code runs up to about 1.5× slower for tens of
seconds at a time, in the process's CPU time as much as in wall time, on
either vCPU, and not always on both at once.  A 20 s run falls mostly
into one such phase, so raw times of whole runs spread by up to 30%.  The
benchmark therefore pins its process tree to one CPU, runs this kernel,
which uses no code of the package, after every operation and before every
set-up (never inside a timed region), and scales each time by
``REFERENCE_S / (the kernel's own time nearby)``: the times it reports are
seconds on a machine on which the kernel takes ``REFERENCE_S``.  A change
to the package moves them; a slow phase of the host moves the kernel with
it and cancels.  The raw times stay in every run's record.

The kernel mixes the three kinds of work the workloads do: interpreted
Python arithmetic, small dense LAPACK calls and interpreted indexing into
numpy arrays.
"""

import statistics
import time

import numpy as np
import scipy.linalg

#: The kernel's time on the 2-vCPU Xeon VM used for the reference figures,
#: outside a slow phase.
REFERENCE_S = 0.035

#: Least number of kernel runs per cycle, spread evenly over its
#: operations, so that a short cycle's scale is not set by one or two runs.
RUNS_PER_CYCLE = 12

_A = np.random.default_rng(0).standard_normal((80, 80))


def kernel() -> float:
    total = 0
    for i in range(100_000):
        total += i * i
    for _ in range(10):
        scipy.linalg.svd(_A)
        scipy.linalg.lu_factor(_A)
        np.linalg.qr(_A)
    acc: dict[int, float] = {}
    for i in range(3000):
        acc[i % 97] = acc.get(i % 97, 0.0) + float(_A[i % 80, i % 79])
        total += int(_A[i % 80] @ _A[:, i % 80])
    return total + sum(acc.values())


def seconds() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factor(samples) -> float:
    """Scale from measured seconds to seconds at reference speed."""
    return REFERENCE_S / statistics.median(samples)


def sample_factor(count: int = 7) -> float:
    """Scale measured by ``count`` kernel runs after one untimed run."""
    kernel()
    return factor([seconds() for _ in range(count)])
