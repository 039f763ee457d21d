"""Host-speed probe: a fixed kernel that is timed next to every timed job.

The shared host this benchmark runs on changes speed by up to 2x for tens
of seconds at a time, in CPU time as well as wall time. A job slows by the
same factor as this kernel: over 150 s in which the raw time of one fixed
`threshold` job moved between 1.25x and 2.1x its fastest, its ratio to the
kernel's time stayed within 1.05x-1.17x. So the timing metrics scale each
measured time by REFERENCE_S / (kernel time next to it): the time the job
takes on a host that runs the kernel in REFERENCE_S. A change to the
program does not change the kernel, so it moves these figures as it moves
wall time.

The kernel mixes small dense numpy calls with plain Python arithmetic, as
the program does. It never touches seasonthresh.
"""

import time

import numpy as np

# close to the kernel's fastest time on a 2-vCPU VM (Python 3.11, numpy 2.4)
REFERENCE_S = 0.0095

_MATRICES = [np.random.default_rng(0).standard_normal((n, n)) for n in (3, 4, 6, 8)]
_REPEATS = 120


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(_REPEATS):
        for m in _MATRICES:
            total += float(np.abs(np.linalg.eigvals(m)).max())
            total += sum(x * 1.0001 for x in range(40))
    if total <= 0.0:  # keeps the work from being skipped
        raise RuntimeError("calibration kernel gave a non-positive sum")
    return time.perf_counter() - start


def scaled(seconds: float, kernel_s: float) -> float:
    """A measured time at the reference host speed."""
    return seconds * REFERENCE_S / kernel_s
