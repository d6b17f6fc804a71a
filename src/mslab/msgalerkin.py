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
    return sp.csc_matrix((data, indices, indptr), shape=(system.ndof, indptr.size - 1))


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


def _galerkin_matrix(system, basis):
    """Phi^T A Phi as a sum of one dense product per row of coarse elements.

    The free DOFs are the interior fine nodes in lexicographic order, so the
    fine rows of one coarse row are one contiguous range of A's rows, and A
    couples them only to the fine rows one above and one below.  The dense
    block P of Phi on these extended rows is filled straight from the patch
    vectors (each lives on an interior box of the fine grid); the band adds
    P_core^T (A[core, ext] P) to the coarse matrix, P_core being the band's
    own rows of P restricted to the columns nonzero on them.  Patches are
    numbered by their centre cell, so the basis columns living on one band
    form a short contiguous range; any column order gives the same sum."""
    pair = basis.patch_bases[0].patch.pair
    N, n, r = pair.coarse.n, pair.fine.n, pair.r
    nb = fem.nblock(basis.kind)
    w = (n - 1) * nb                                    # free DOFs per fine row
    if system.ndof != (n - 1) * w:
        raise ValueError("coarse assembly needs the system on all free fine DOFs")
    bases = basis.patch_bases
    counts = np.array([pb.count for pb in bases])
    ends = np.cumsum(counts)
    starts = ends - counts
    boxes = np.array([pb.patch.box for pb in bases]).reshape(-1, 4)
    ylo, yhi = boxes[:, 2] * r + 1, (boxes[:, 3] + 1) * r - 1   # interior fine rows
    A_ms = np.zeros((ends[-1], ends[-1]))
    for j in range(N):
        y0, y1 = max(j * r, 1), min((j + 1) * r, n) - 1           # band rows, inclusive
        e0, e1 = max(y0 - 1, 1), min(y1 + 1, n - 1)
        core = np.flatnonzero((counts > 0) & (ylo <= y1) & (yhi >= y0))
        if y0 > y1 or core.size == 0:
            continue
        ext = np.flatnonzero((counts > 0) & (ylo <= e1) & (yhi >= e0))
        c0, c1 = starts[ext].min(), ends[ext].max()
        P = np.zeros((e1 - e0 + 1, n - 1, nb, c1 - c0))
        for k in ext:
            pb, s = bases[k], starts[k] - c0
            x0, x1 = boxes[k, 0] * r + 1, (boxes[k, 1] + 1) * r - 1
            V = pb.vectors.reshape(yhi[k] - ylo[k] + 1, x1 - x0 + 1, nb, pb.count)
            t0, t1 = max(ylo[k], e0), min(yhi[k], e1) + 1
            P[t0 - e0:t1 - e0, x0 - 1:x1, :, s:s + pb.count] = V[t0 - ylo[k]:t1 - ylo[k]]
        P = P.reshape(-1, c1 - c0)
        Q = system.stiffness[(y0 - 1) * w:y1 * w, (e0 - 1) * w:e1 * w] @ P
        a0, a1 = starts[core].min(), ends[core].max()
        P_core = P[(y0 - e0) * w:(y1 + 1 - e0) * w, a0 - c0:a1 - c0]
        A_ms[a0:a1, c0:c1] += P_core.T @ Q
    return A_ms


def assemble_coarse(system, b, basis):
    """Form Phi^T A Phi, band by band over rows of coarse elements, and
    Phi^T b; SPD-checked by attempted factorization."""
    Phi = basis_matrix(system, basis)
    A_ms = _galerkin_matrix(system, basis)
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
