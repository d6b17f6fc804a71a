"""Constrained local solver shared by the multiscale basis constructions.

A PatchSystem holds the patch stiffness/mass on the interior DOFs together
with its banded Cholesky factor A = L L^T.  Saddle problems with L2
constraints B are solved through the Schur complement S = B^T A^{-1} B,
formed as W^T W from the forward half W = L^{-1} B; the backward half is then
applied only to the few solution columns, never to all of B.
"""

import numpy as np
import scipy.linalg as sla

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
    def build(cls, pair, field, kind, patch):
        return cls(patch, fem.assemble(pair, field, kind, patch=patch))

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

    def pair_full(self, v_full):
        """Exact L2 pairing of a full fine-grid function against interior tests."""
        return self.system.m_pair @ np.asarray(v_full)

    def restrict(self, v_full):
        return self.system.restrict(v_full)

    def pad(self, v):
        return self.system.pad(v)


class ConstraintSet:
    """Mass-weighted constraint vectors b_j for a patch saddle problem."""

    def __init__(self, B):
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


def _schur_solve(sys, B, rtol=1e-12):
    """W = L^{-1}B and a Cholesky factor of S = B^T A^{-1} B = W^T W; raises
    on dependence."""
    W = sys.solve_lower(B)
    S = W.T @ W
    try:
        cf = sla.cho_factor(S, lower=True)
    except sla.LinAlgError:
        raise DependentConstraints("constraint Schur complement is not positive definite")
    piv = np.diag(cf[0]) ** 2
    if piv.min() <= rtol * np.abs(S).max():
        raise DependentConstraints("constraint vectors dependent to tolerance")
    return W, cf


def solve_saddle_block(sys, constraints, targets=None, rhs=None, rtol=1e-12):
    """All saddle solutions at once: column k solves the RHS e_{targets[k]},
    or the columns of ``rhs`` (L x p) when given.

    Shares one factorization and one Schur complement across the block; the
    solution A^{-1} B C is applied as L^{-T} (W C), so the backward half runs
    on the p solution columns only.
    """
    B = constraints.B
    W, cf = _schur_solve(sys, B, rtol)
    L = B.shape[1]
    if rhs is None:
        if targets is None:
            targets = np.arange(L)
        rhs = np.zeros((L, len(targets)))
        rhs[targets, np.arange(len(targets))] = 1.0
    C = sla.cho_solve(cf, rhs)
    return sys.solve_upper(W @ C)


def apply_local_inverse(sys, g):
    """Discrete local solution operator: A_omega^{-1} M_omega g."""
    return sys.solve(sys.M @ np.asarray(g))
