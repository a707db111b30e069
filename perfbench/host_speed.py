"""Fixed reference computation, timed on request in a process of its own.

``run.py`` starts this once per run and writes one line to its standard
input whenever it wants a sample; each line is answered with the seconds the
reference took.  It runs in its own process so that its arrays stay out of
the workload process's peak memory.  The reference is harness code that no
program change touches: complex LU solves, FFTs, a power over a large array,
and an interpreter loop, the four kinds of work the workloads do.
"""

import sys
from time import perf_counter

import numpy as np


def main() -> None:
    rng = np.random.default_rng(12345)
    matrix = rng.standard_normal((384, 384)) + 1j * rng.standard_normal((384, 384))
    rhs = rng.standard_normal(384) + 0j
    signal = rng.standard_normal(8192) + 0j
    array = rng.random(1 << 20) + 0.5
    for _ in sys.stdin:
        start = perf_counter()
        for _ in range(2):
            np.linalg.solve(matrix, rhs)
        for _ in range(32):
            np.fft.ifft(np.fft.fft(signal))
        for _ in range(4):
            float((array**2.5).sum())
        total = 0.0
        for i in range(80000):
            total += i * 0.5
        print(repr(perf_counter() - start), flush=True)


if __name__ == "__main__":
    main()
