"""Constrained local solver shared by the multiscale basis constructions.

A PatchSystem holds the patch stiffness/mass on the interior DOFs, sliced
out of the global system (homogeneous Dirichlet conditions on the patch
boundary), or out of the system of a patch it nests in, together with its
banded Cholesky factor A = L L^T, its own or the leading block of the
factor of the patch it nests in (natural order, or reversed for patches
that share the top edge).  Saddle problems with L2 constraints B are solved
through the Schur complement S = B^T A^{-1} B, on one of two paths chosen
by the type of B:

- a sparse B (the LOD block: 4 or 8 columns per coarse cell of the patch, up
  to a few hundred, each zero above its cell) goes through
  SpdFactor.gram, one pass over dense row blocks of the band with GEMM and
  TRSM that never stores L^{-1} B; the solution A^{-1} (B C) is one solve on
  the few target columns.  A set may carry S already formed: the LOD sets
  of a nest get theirs from one pass over the master's block
  (msbasis.lod_constraints);
- a dense B (the LSSI block M Phi, 4 or 8 columns) is solved whole,
  X = A^{-1} B (one banded solve), S = B^T X, and the solution is X C.

Both paths check S for dependent constraints the same way.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import fem
from .errors import DependentConstraints


class PatchSystem:
    """Factorized local operator on the interior DOFs of one patch.

    Patches clipped at the domain boundary nest: a patch whose DOFs are the
    leading rows of a taller patch's DOFs, or its trailing rows, is cut out
    of that patch's system and runs on a leading block of its factor
    (SpdFactor.leading).  For trailing rows the factor is of the DOFs taken
    backwards, which turns them into leading ones; solve and gram apply
    that reversal, so callers always see natural order.
    """

    def __init__(self, patch, system, factor, reverse=False):
        self.patch = patch
        self.system = system
        self.A = system.stiffness
        self.M = system.mass
        self._factor = factor
        self.reverse = reverse

    @classmethod
    def build(cls, system, patch, reverse=False, within=None):
        """The patch system cut out of the global system, with its own factor
        (of its DOFs taken backwards when `reverse`).  Given `within`, the
        system of a patch it nests in (the master), it is sliced instead
        from the master's system, its leading rows and columns (the trailing
        ones in a reversed master), exactly what the global slice would
        give, and runs on the leading block of the master's factor, in the
        master's order.  Raises if the patch's DOFs are not
        that block of the master's."""
        if within is None:
            local = system.on_patch(patch)
            A = _reversed(local.stiffness) if reverse else local.stiffness
            return cls(patch, local, fem.SpdFactor(A), reverse)
        outer = within.system
        dofs = patch.interior_dofs(fem.nblock(outer.kind))
        n = dofs.size
        lo = outer.ndof - n if within.reverse else 0
        if not np.array_equal(dofs, outer.dofs[lo:lo + n]):
            raise ValueError(f"patch around coarse element {patch.center} does not nest "
                             f"in the patch around coarse element {within.patch.center}")
        return cls(patch, outer.on_range(lo, lo + n), within._factor.leading(n),
                   within.reverse)

    @property
    def ndof(self):
        return self.A.shape[0]

    def solve(self, b):
        """A_omega^{-1} b for a vector or a column block."""
        if not self.reverse:
            return self._factor.solve(b)
        return self._factor.solve(np.asarray(b, dtype=float)[::-1])[::-1]

    def gram(self, B, blocks=None):
        """B^T A_omega^{-1} B for a sparse column block B, or with `blocks`,
        (rows, cols) sizes, the Grams of its nested blocks: the leading rows
        and columns of B, or in a reversed system the trailing ones."""
        if not self.reverse:
            return self._factor.gram(B, blocks)
        out = self._factor.gram(_reversed(B), blocks)
        return out[::-1, ::-1] if blocks is None else [G[::-1, ::-1] for G in out]


def _reversed(X):
    """A sparse matrix with its rows and its columns taken backwards, as CSR;
    reversing the entry arrays of a canonical CSR matrix keeps it canonical."""
    X = sp.csr_matrix(X)
    if not X.has_canonical_format:
        X = X.copy()
        X.sum_duplicates()
    return sp.csr_matrix((X.data[::-1], X.shape[1] - 1 - X.indices[::-1],
                          X.nnz - X.indptr[::-1]), shape=X.shape)


class ConstraintSet:
    """Mass-weighted constraint vectors b_j for a patch saddle problem, as a
    dense array or a sparse matrix (which selects the block-row Schur path).

    A sparse set may carry its Schur complement S = B^T A^{-1} B, formed
    beforehand (`schur`); its saddle solves then start from it.
    """

    def __init__(self, B, schur=None):
        if sp.issparse(B):
            B = sp.csr_matrix(B, dtype=float)
        else:
            B = np.asarray(B, dtype=float)
            if B.ndim == 1:
                B = B[:, None]
        self.B = B
        self.schur = schur

    @property
    def count(self):
        return self.B.shape[1]


def _schur_solve(sys, B, S=None):
    """A Cholesky factor of S = B^T A^{-1} B and the map C -> A^{-1} B C;
    raises on dependence.  For a sparse B, S may come already formed; a
    dense B is solved whole, X = A^{-1} B, and the map is C -> X C."""
    if sp.issparse(B):
        if S is None:
            S = sys.gram(B)
        apply = lambda C: sys.solve(B @ C)
    else:
        X = sys.solve(B)
        S = B.T @ X
        apply = lambda C: X @ C
    try:
        cf = sla.cho_factor(S, lower=True)
    except sla.LinAlgError:
        raise DependentConstraints("constraint Schur complement is not positive definite")
    piv = np.diag(cf[0]) ** 2
    if piv.min() <= 1e-12 * np.abs(S).max():
        raise DependentConstraints("constraint vectors dependent to tolerance")
    return apply, cf


def solve_saddle_block(sys, constraints, rhs=None):
    """All saddle solutions at once: column k solves the RHS e_k, or the
    columns of ``rhs`` (L x p) when given.

    Shares one factorization and one Schur complement across the block; the
    solution A^{-1} B C is one solve on the p solution columns for a sparse
    set, X C from the solved block X = A^{-1} B for a dense one.  A set that
    carries its Schur complement starts from it.
    """
    apply, cf = _schur_solve(sys, constraints.B, constraints.schur)
    if rhs is None:
        rhs = np.eye(constraints.count)
    return apply(sla.cho_solve(cf, rhs))

