"""Constrained local solver shared by the multiscale basis constructions.

A PatchSystem holds the patch stiffness/mass on the interior DOFs, sliced
out of the global system (homogeneous Dirichlet conditions on the patch
boundary), together with its banded Cholesky factor A = L L^T.  Saddle
problems with L2 constraints B are solved through the Schur complement
S = B^T A^{-1} B, on one of two paths chosen by the type of B:

- a sparse B (the LOD block: 4 or 8 columns per coarse cell of the patch, up
  to a few hundred, each zero above its cell) goes through
  SpdFactor.gram, one pass over dense row blocks of the band with GEMM and
  TRSM that never stores L^{-1} B; the solution A^{-1} (B C) is one solve on
  the few target columns;
- a dense B (the LSSI block M Phi, a handful of columns) is solved forward
  as W = L^{-1} B with LAPACK tbtrs and S = W^T W; the backward half then
  runs on the solution columns only, L^{-T} (W C).  On so few columns the
  level-2 tbtrs is the faster one: a 4-column saddle on a 7921-DoF patch
  takes 3.9 ms this way against 7.8 ms through the block-row pass (one
  BLAS thread).

Both paths check S for dependent constraints the same way.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import fem
from .errors import DependentConstraints


class PatchSystem:
    """Factorized local operator on the interior DOFs of one patch."""

    def __init__(self, patch, system):
        self.patch = patch
        self.system = system
        self.A = system.stiffness
        self.M = system.mass
        self._factor = fem.SpdFactor(self.A)

    @classmethod
    def build(cls, system, patch):
        """The patch system cut out of the global system."""
        return cls(patch, system.on_patch(patch))

    @property
    def ndof(self):
        return self.A.shape[0]

    def solve(self, b):
        """A_omega^{-1} b for a vector or a column block."""
        return self._factor.solve(b)

    def solve_lower(self, b):
        """L^{-1} b for the Cholesky factor A_omega = L L^T."""
        return self._factor.solve_lower(b)

    def solve_upper(self, b):
        """L^{-T} b for the Cholesky factor A_omega = L L^T."""
        return self._factor.solve_upper(b)

    def gram(self, B):
        """B^T A_omega^{-1} B for a sparse column block B."""
        return self._factor.gram(B)

    def restrict(self, v_full):
        return self.system.restrict(v_full)


class ConstraintSet:
    """Mass-weighted constraint vectors b_j for a patch saddle problem, as a
    dense array or a sparse matrix (which selects the block-row Schur path)."""

    def __init__(self, B):
        if sp.issparse(B):
            B = sp.csr_matrix(B, dtype=float)
        else:
            B = np.asarray(B, dtype=float)
            if B.ndim == 1:
                B = B[:, None]
        self.B = B

    @classmethod
    def from_local_functions(cls, sys, funcs):
        """Constraints (phi_j, .)_{L2} for functions given on the interior DOFs."""
        F = np.asarray(funcs, dtype=float)
        if F.ndim == 1:
            F = F[:, None]
        return cls(sys.M @ F)

    @property
    def count(self):
        return self.B.shape[1]


def _schur_solve(sys, B):
    """A Cholesky factor of S = B^T A^{-1} B and the map C -> A^{-1} B C;
    raises on dependence."""
    if sp.issparse(B):
        S = sys.gram(B)
        apply = lambda C: sys.solve(B @ C)
    else:
        W = sys.solve_lower(B)
        S = W.T @ W
        apply = lambda C: sys.solve_upper(W @ C)
    try:
        cf = sla.cho_factor(S, lower=True)
    except sla.LinAlgError:
        raise DependentConstraints("constraint Schur complement is not positive definite")
    piv = np.diag(cf[0]) ** 2
    if piv.min() <= 1e-12 * np.abs(S).max():
        raise DependentConstraints("constraint vectors dependent to tolerance")
    return apply, cf


def solve_saddle_block(sys, constraints, targets=None, rhs=None):
    """All saddle solutions at once: column k solves the RHS e_{targets[k]},
    or the columns of ``rhs`` (L x p) when given.

    Shares one factorization and one Schur complement across the block; the
    solution A^{-1} B C is applied to the p solution columns only.
    """
    apply, cf = _schur_solve(sys, constraints.B)
    if rhs is None:
        if targets is None:
            targets = np.arange(constraints.count)
        rhs = np.zeros((constraints.count, len(targets)))
        rhs[targets, np.arange(len(targets))] = 1.0
    return apply(sla.cho_solve(cf, rhs))


def apply_local_inverse(sys, g):
    """Discrete local solution operator: A_omega^{-1} M_omega g."""
    return sys.solve(sys.M @ np.asarray(g))
