"""Coarse Galerkin solve in a multiscale space and result reporting."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import fem
from .errors import SingularCoarse

CSV_COLUMNS = ["method", "n", "m", "H", "h", "contrast", "channel_len",
               "e_energy", "e_L2", "DoF", "wall_time_s", "NoLP"]


@dataclass
class CoarseSystem:
    """Galerkin system ready to solve: the load, the Cholesky factor of A_ms
    (in the buffer A_ms was assembled in) and the basis, which prolongs."""
    basis: object
    b_ms: np.ndarray
    _factor: tuple
    cond_estimate: float

    @property
    def dof(self):
        return self.b_ms.size


def _box_views(basis, v):
    """Each patch basis with the view of the free-DOF vector v on its
    interior box, shaped (rows, columns, components).  Free and patch DOFs
    both run lexicographically, so a view's entries are its vectors' rows."""
    pair = basis.patch_bases[0].patch.pair
    n, r = pair.fine.n, pair.r
    free = v.reshape(n - 1, n - 1, fem.nblock(basis.kind))
    return [(pb, free[jlo * r:(jhi + 1) * r - 1, ilo * r:(ihi + 1) * r - 1])
            for pb in basis.patch_bases for ilo, ihi, jlo, jhi in [pb.patch.box]]


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
        A_ms[a0:a1, c0:c1] += P[(y0 - e0) * w:(y1 + 1 - e0) * w, a0 - c0:a1 - c0].T @ Q
        del P, Q                          # before the next band allocates its own
    return A_ms


def _coarse_matrix(system, basis, k=128):
    """The band-assembled Galerkin matrix made symmetric in place, entry by
    entry 0.5 * (A + A^T), a strip of k rows and columns at a time, and its
    1-norm, from each column block once its strip has made it final."""
    A = _galerkin_matrix(system, basis)
    norm = 0.0
    for i in range(0, A.shape[0], k):
        s = 0.5 * (A[i:i + k, i:] + A[i:, i:i + k].T)
        A[i:i + k, i:] = s
        A[i:, i:i + k] = s.T
        norm = max(norm, np.abs(A[:, i:i + k]).sum(axis=0).max())
    return A, norm


def assemble_coarse(system, b, basis):
    """A_ms = Phi^T A Phi band by band and b_ms = Phi^T b patch by patch, never
    Phi itself; A_ms is factored in its own buffer, which checks it is SPD:
    a pivot with L_ii^2 <= 1e-12 A_ii, as from a rank-deficient basis, fails
    the check like a nonpositive one."""
    A_ms, norm = _coarse_matrix(system, basis)
    # summed over the rows in their order, so no BLAS kernel choice changes the bits
    b_ms = np.concatenate([(pb.vectors * box.reshape(-1, 1)).sum(axis=0)
                           for pb, box in _box_views(basis, np.asarray(b, dtype=float))])
    diag = A_ms.diagonal().copy()
    # A_ms is symmetric: its transpose, F-ordered, is factored without a copy
    L, info = sla.lapack.dpotrf(A_ms.T, lower=1, clean=0, overwrite_a=1)
    if info != 0 or np.any(L.diagonal() ** 2 <= 1e-12 * diag):
        A_ms, _ = _coarse_matrix(system, basis)         # the factorization overwrote it
        w = sla.eigvalsh(A_ms, subset_by_index=[0, 0])[0]
        raise SingularCoarse(f"coarse matrix not SPD to tolerance "
                             f"(smallest eigenvalue ~ {w:.3e})")
    # 1-norm condition number, ||A_ms^{-1}|| estimated by LAPACK on the factor
    rcond = sla.lapack.dpocon(L, norm, uplo="L")[0] if L.size else 1.0
    return CoarseSystem(basis, b_ms, (L, True), 1.0 / rcond)


def solve_ms(cs):
    """Solve the coarse system; returns (fine-grid free vector, coarse
    coefficients).  Each patch adds its V_p c_p into its interior box, one
    column at a time, so no BLAS kernel choice changes the bits."""
    c = sla.cho_solve(cs._factor, cs.b_ms)
    pair = cs.basis.patch_bases[0].patch.pair
    u = np.zeros((pair.fine.n - 1) ** 2 * fem.nblock(cs.basis.kind))
    columns = ((v, box) for pb, box in _box_views(cs.basis, u) for v in pb.vectors.T)
    for (v, box), ck in zip(columns, c):
        box += (v * ck).reshape(box.shape)
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
