"""Test-session setup: single-threaded BLAS.

The dense kernels here are small (patch Schur blocks of a few hundred
columns, multi-right-hand-side sparse triangular solves).  OpenBLAS threads
add only synchronization at that size, and when the CPUs are shared with
another busy process their spin-waits slow the patch solves down about
fourfold.  This file is imported before any test module, so numpy and scipy
load their BLAS with the cap already set; a value set by the caller wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def force_workers(monkeypatch, workers):
    """Make msbasis.forked_map, which the basis builds, the coarse phase and
    eig-diag share, take `workers` processes (at most one per item); None
    keeps one per CPU."""
    from mslab import msbasis

    if workers is not None:
        monkeypatch.setattr(msbasis, "_cpu_count", lambda: workers)
