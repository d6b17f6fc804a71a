"""Coarse Galerkin solve in a multiscale space and result reporting."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import fem
from .errors import SingularCoarse

CSV_COLUMNS = ["method", "n", "m", "H", "h", "contrast", "channel_len",
               "e_energy", "e_L2", "DoF", "wall_time_s", "NoLP"]


def basis_matrix(system, basis):
    """Sparse fine-DOF x coarse-DoF matrix of all basis vectors.

    Filled column-major into preallocated CSC arrays: the columns of a patch
    share its interior rows, so no per-column index array is ever formed."""
    free_index = np.full(system.n_full, -1, dtype=np.int64)
    free_index[system.dofs] = np.arange(system.ndof)
    nb = fem.nblock(basis.kind)
    rows = [free_index[pb.patch.interior_dofs(nb)] for pb in basis.patch_bases]
    if any(np.any(r < 0) for r in rows):
        raise ValueError("basis vector supported outside the free DOFs")
    counts = [pb.count for pb in basis.patch_bases]
    indptr = np.zeros(sum(counts) + 1, dtype=np.int64)
    np.cumsum(np.repeat([r.size for r in rows], counts), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    start = 0
    for r, pb in zip(rows, basis.patch_bases):
        end = start + r.size * pb.count
        indices[start:end].reshape(pb.count, r.size)[:] = r
        data[start:end].reshape(pb.count, r.size)[:] = pb.vectors.T
        start = end
    return sp.csc_matrix((data, indices, indptr), shape=(system.ndof, indptr.size - 1)).tocsr()


class CoarseSystem:
    """Galerkin triple product over a multiscale basis, ready to solve."""

    def __init__(self, Phi, A_ms, b_ms, factor, cond_estimate):
        self.Phi = Phi
        self.A_ms = A_ms
        self.b_ms = b_ms
        self._factor = factor
        self.cond_estimate = cond_estimate

    @property
    def dof(self):
        return self.A_ms.shape[0]


def _row_bands(system, basis):
    """Row boundaries of Phi, one band per row of coarse elements.

    Free DOFs are numbered lexicographically, so the fine node rows of coarse
    row j are one contiguous range of Phi's rows."""
    pair = basis.patch_bases[0].patch.pair
    N, n, r = pair.coarse.n, pair.fine.n, pair.r
    nb = fem.nblock(basis.kind)
    starts = np.searchsorted(system.dofs, nb * (n + 1) * r * np.arange(N))
    return np.append(starts, system.ndof)


def _dense_band(X, s, e):
    """Rows s:e of a CSR matrix as (first column, dense block spanning the
    columns from its first to its last nonzero)."""
    rows = X[s:e]
    if rows.nnz == 0:
        return 0, np.zeros((e - s, 0))
    c0 = rows.indices.min()
    width = rows.indices.max() + 1 - c0
    block = sp.csr_matrix((rows.data, rows.indices - c0, rows.indptr),
                          shape=(e - s, width))
    return c0, block.toarray()


def _galerkin_matrix(Phi, APhi, bounds):
    """Phi^T (A Phi) as a sum of one dense product per row band of Phi.

    Patches are numbered by their centre cell, so the basis columns living on
    one band form a short contiguous range; any partition of the rows into
    bands gives the same sum."""
    A_ms = np.zeros((Phi.shape[1], Phi.shape[1]))
    for s, e in zip(bounds[:-1], bounds[1:]):
        a, P = _dense_band(Phi, s, e)
        c, Q = _dense_band(APhi, s, e)
        A_ms[a:a + P.shape[1], c:c + Q.shape[1]] += P.T @ Q
    return A_ms


def assemble_coarse(system, b, basis):
    """Form Phi^T A Phi and Phi^T b, band by band over rows of coarse
    elements; SPD-checked by attempted factorization."""
    Phi = basis_matrix(system, basis)
    bounds = _row_bands(system, basis)
    A_ms = _galerkin_matrix(Phi, system.stiffness @ Phi, bounds)
    A_ms = 0.5 * (A_ms + A_ms.T)
    b_ms = Phi.T @ np.asarray(b)
    try:
        factor = sla.cho_factor(A_ms, lower=True)
    except sla.LinAlgError:
        w = sla.eigvalsh(A_ms, subset_by_index=[0, 0])[0]
        raise SingularCoarse(
            f"coarse matrix not SPD (smallest eigenvalue ~ {w:.3e})")
    cond = 1.0
    if A_ms.size:
        # 1-norm condition number, ||A_ms^{-1}|| estimated by LAPACK on the factor
        rcond, _ = sla.lapack.dpocon(factor[0], np.abs(A_ms).sum(axis=0).max(), uplo="L")
        cond = 1.0 / rcond
    return CoarseSystem(Phi, A_ms, b_ms, factor, cond)


def solve_ms(cs):
    """Solve the coarse system; returns (fine-grid free vector, coarse coefficients)."""
    c = sla.cho_solve(cs._factor, cs.b_ms)
    u = cs.Phi @ c
    return u, c


@dataclass
class ResultRow:
    method: str
    n: int
    m: int
    H: float
    h: float
    contrast: float
    channel_len: int
    e_energy: float
    e_L2: float
    DoF: int
    wall_time_s: float
    NoLP: int

    def to_csv(self, with_timing=True):
        t = f"{self.wall_time_s:.3f}" if with_timing else ""
        return ",".join([
            self.method, str(self.n), str(self.m),
            f"{self.H:.17g}", f"{self.h:.17g}", f"{self.contrast:.17g}",
            str(self.channel_len),
            f"{self.e_energy:.10e}", f"{self.e_L2:.10e}",
            str(self.DoF), t, str(self.NoLP),
        ])

    @staticmethod
    def header():
        return ",".join(CSV_COLUMNS)


def report(u_ref, u_ms, A, M, metadata):
    """Build a ResultRow from a reference/multiscale solution pair.

    metadata must provide: method, n, m, H, h, contrast, channel_len, DoF,
    wall_time_s, NoLP.
    """
    ea, el = fem.relative_errors(np.asarray(u_ref), np.asarray(u_ms), A, M)
    return ResultRow(
        method=metadata["method"], n=int(metadata["n"]), m=int(metadata["m"]),
        H=float(metadata["H"]), h=float(metadata["h"]),
        contrast=float(metadata["contrast"]),
        channel_len=int(metadata.get("channel_len", 0)),
        e_energy=ea, e_L2=el, DoF=int(metadata["DoF"]),
        wall_time_s=float(metadata.get("wall_time_s", 0.0)),
        NoLP=int(metadata["NoLP"]),
    )
