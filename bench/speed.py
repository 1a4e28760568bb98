"""Machine-speed reference that the benchmark's timings are scaled by.

The shared 2-vCPU machine this benchmark was defined on has spells of many
seconds, often longer than a run, in which all code runs 1.3-1.8 times
slower; nothing inside the VM causes them.  Raw wall times therefore
spread by up to 30 % between runs of the same code, and a median flips
between the fast and the slow spell.  A fixed reference kernel, timed right
next to every measurement, gauges the current speed.  A scaled time is
reported as ``wall * REFERENCE_S / reference``: the time the work would have
taken while the kernel ran at REFERENCE_S.  Set-up times are always scaled;
each workload fixes whether its op times are (``SCALE_OP_TIMES``), so that no
change to sqzkd can switch the method.  The kernel is small-matrix numpy work,
the mix that tracked sqzkd's own slowdowns most closely among the kernels
tried.

Run as a script in a fresh interpreter, this file times importing
``sqzkd.cli`` plus building its parser, then the reference kernel, and
prints both in seconds: ``python3 bench/speed.py`` with ``src`` on the path.
"""

from __future__ import annotations

from time import perf_counter

# The reference kernel's time while the machine above is idle (Intel Xeon,
# Python 3.11, numpy 2.4): scaled times read as seconds on that machine.
REFERENCE_S = 0.5e-3
KERNEL_EIGH_CALLS = 60
KERNEL_REPEATS = 3


def reference_s() -> float:
    """Best of a few timings of the fixed kernel, in seconds."""
    import numpy as np  # here, so that running this file times numpy's import too

    matrix = np.eye(6) + 0.1
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        start = perf_counter()
        for _ in range(KERNEL_EIGH_CALLS):
            np.linalg.eigh(matrix)
        best = min(best, perf_counter() - start)
    return best


def scaled(wall_s: float, reference: float) -> float:
    """Wall time converted to the reference speed."""
    return wall_s * REFERENCE_S / reference


if __name__ == "__main__":
    start = perf_counter()
    import sqzkd.cli
    sqzkd.cli.build_parser()
    setup_s = perf_counter() - start
    print(setup_s, reference_s())
