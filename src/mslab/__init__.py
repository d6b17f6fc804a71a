"""Multiscale finite element laboratory for high-contrast elliptic problems.

Coarse spaces are built per oversampling patch by constrained local solves:
an element-based orthogonal-decomposition baseline (lod), repeated local
subspace iteration (lssi-n) and a local Krylov space of the patch solution
operator (lksi-n).  Spectral diagnostics verify the convergence theory.
"""

import os
import sys
import warnings

# One BLAS thread unless the caller chose otherwise: the dense kernels are
# small, and on shared CPUs OpenBLAS's spin-waiting threads slow the patch
# solves about fourfold.  This must run before numpy loads its BLAS; once it
# has loaded, the setting comes too late, so say so.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and not any(v in os.environ for v in _THREAD_VARS):
    warnings.warn("mslab was imported after numpy, so BLAS may run several threads; "
                  "import mslab first or set OPENBLAS_NUM_THREADS=1",
                  RuntimeWarning, stacklevel=2)
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")

from . import coeff, fem, grid, localsolve, msbasis, msgalerkin, specdiag
from .errors import MsLabError

__all__ = [
    "coeff", "fem", "grid", "localsolve", "msbasis", "msgalerkin", "specdiag",
    "MsLabError",
]

__version__ = "0.1.0"
