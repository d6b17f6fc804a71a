"""Coarse Galerkin solve in a multiscale space and the result row."""

from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg as sla

from . import fem
from .errors import SingularCoarse


@dataclass
class CoarseSystem:
    """Galerkin system ready to solve: the load in the basis order, the basis
    column of each coarse DoF (_cols, the order of A_ms), the Cholesky factor
    of A_ms (in the buffer A_ms was assembled in) and the basis, which
    prolongs."""
    basis: object
    b_ms: np.ndarray
    _cols: np.ndarray
    _factor: tuple
    cond_estimate: float

    @property
    def dof(self):
        return self.b_ms.size


def _box_views(basis, v):
    """Each patch basis with the view of the free-DOF vector v on its
    interior box, shaped (rows, columns, components).  Free and patch DOFs
    both run lexicographically, so a view's entries are its vectors' rows."""
    n = basis.patch_bases[0].patch.pair.fine.n
    free = v.reshape(n - 1, n - 1, fem.nblock(basis.kind))
    return [(pb, free[y0 - 1:y1, x0 - 1:x1])
            for pb in basis.patch_bases for x0, x1, y0, y1 in [pb.patch.interior_box]]


def _tile_width(m):
    """Centre columns per x-tile of the coarse order, about m / 2.  A tile's
    patches span w + 2m coarse columns, so its products cost about
    ((w + 2m) / (2m + 1))^2 times what the patch overlaps alone would, while
    wider tiles mean fewer and larger products."""
    return max(m // 2, 1)


def _coarse_order(basis):
    """The coarse order of the patches: their positions in basis.patch_bases,
    patches without columns left out, sorted by (x-tile, centre row, centre
    column), an x-tile being _tile_width(m) centre columns.  Returns the
    positions and the x-tile of each."""
    pbs = basis.patch_bases
    N = pbs[0].patch.pair.coarse.n
    ks = np.flatnonzero([pb.count > 0 for pb in pbs])
    centre = np.array([pbs[k].patch.center for k in ks], dtype=int)
    ci, cj = centre % N, centre // N
    tile = ci // _tile_width(pbs[0].patch.m)
    s = np.lexsort((ci, cj, tile))
    return ks[s], tile[s]


def _coarse_columns(basis, order):
    """The basis column of each coarse DoF, for patches in `order`."""
    counts = np.array([pb.count for pb in basis.patch_bases], dtype=int)
    starts = np.cumsum(counts) - counts
    n = counts[order]
    return np.arange(n.sum()) + np.repeat(starts[order] - (np.cumsum(n) - n), n)


def _galerkin_matrix(system, basis, order, tile):
    """The upper triangle of Phi^T A Phi in the coarse order (_coarse_order),
    as a sum of dense products, per band of fine rows (a row of coarse
    elements) and pair of x-tiles T <= T' whose fine columns overlap.

    The free DOFs are the interior fine nodes in lexicographic order, and A
    couples the rows of a band only to one more fine row on each side (the
    halo).  Per x-tile the dense block P of Phi on the tile's fine columns
    and the band's and halo rows is filled straight from the patch vectors
    (each lives on an interior box of the fine grid), x-major, and
    Q = A[band, band and halo] P / 2 is formed on the tile's columns and one
    more on each side.  A tile pair adds P_T^T Q_T' and Q_T^T P_T', P on
    the band's rows, over their overlap, one contiguous range of rows of
    each, to the block of A_ms they span, a view: each entry sums A applied
    to either of its two columns, so that, as in the symmetric part of the
    full product, the rounding errors of a combination of columns that
    nearly cancels cancel with it.  Tiles are sorted by centre row, so the
    columns of a tile's patches that meet a band are one contiguous range of
    the coarse order, those nonzero on its own rows (its core) their tail.
    Below the diagonal the result holds parts of the blocks of a tile with
    itself, never read."""
    pair = basis.patch_bases[0].patch.pair
    N, n, r = pair.coarse.n, pair.fine.n, pair.r
    nb = fem.nblock(basis.kind)
    if system.ndof != (n - 1) ** 2 * nb:
        raise ValueError("coarse assembly needs the system on all free fine DOFs")
    bases = [basis.patch_bases[k] for k in order]
    counts = np.array([pb.count for pb in bases], dtype=int)
    ends = np.cumsum(counts)
    starts = ends - counts
    # interior fine columns and rows
    xlo, xhi, ylo, yhi = np.array([pb.patch.interior_box for pb in bases],
                                  dtype=int).reshape(-1, 4).T
    # each patch's vectors x-major: (columns, rows, components, vectors)
    views = [pb.vectors.reshape(y1 - y0 + 1, x1 - x0 + 1, nb, pb.count).transpose(1, 0, 2, 3)
             for pb, x0, x1, y0, y1 in zip(bases, xlo, xhi, ylo, yhi)]
    cuts = np.flatnonzero(np.diff(tile)) + 1
    tiles = list(zip(np.r_[0, cuts], np.r_[cuts, len(bases)])) if bases else []
    x0 = [int(xlo[t0:t1].min()) for t0, t1 in tiles]
    x1 = [int(xhi[t0:t1].max()) for t0, t1 in tiles]
    # from tile t on, a tile is needed while its columns reach reach[t]
    reach = np.minimum.accumulate(x0[::-1])[::-1] - 1

    def dofs(ys):
        """Free DOFs of the fine rows ys, x-major: (column, row, component)."""
        node = (np.asarray(ys, dtype=int) - 1) * (n - 1) + np.arange(n - 1)[:, None]
        return fem._expand_dofs(node.ravel(), nb)

    A_ms = np.zeros((counts.sum(), counts.sum()))
    for j in range(N):
        y0, y1 = max(j * r, 1), min((j + 1) * r, n) - 1           # band rows, inclusive
        if y0 > y1:
            continue
        e0, e1 = max(y0 - 1, 1), min(y1 + 1, n - 1)
        ys = list(range(y0, y1 + 1))
        ye = ys + [y for y in (e0, e1) if not y0 <= y <= y1]     # and the halo
        kc, ke = len(ys) * nb, len(ye) * nb          # DOFs per fine column
        A_b = 0.5 * system.stiffness[dofs(ys)][:, dofs(ye)]
        # per tile: its fine columns, L, Q's first fine column, Q, and the
        # coarse columns a0:c1 of L and c0:c1 of Q
        live = []
        for t, (t0, t1) in enumerate(tiles):
            live = [v for v in live if v[1] >= reach[t]]
            ext = t0 + np.flatnonzero((ylo[t0:t1] <= e1) & (yhi[t0:t1] >= e0))
            if ext.size == 0:
                continue
            c0, c1, xw = starts[ext[0]], ends[ext[-1]], x1[t] - x0[t] + 1
            P = np.zeros((xw, len(ye), nb, c1 - c0))
            for k in ext.tolist():
                V, lo, hi = views[k], int(ylo[k]), int(yhi[k])
                xs = slice(xlo[k] - x0[t], xhi[k] - x0[t] + 1)
                cs = slice(starts[k] - c0, ends[k] - c0)
                ya, yb = max(lo, y0), min(hi, y1) + 1
                P[xs, ya - y0:yb - y0, :, cs] = V[:, ya - lo:yb - lo]
                for h, y in enumerate(ye[len(ys):], len(ys)):
                    if lo <= y <= hi:
                        P[xs, h, :, cs] = V[:, y - lo]
            xa, xb = max(x0[t] - 1, 1), min(x1[t] + 1, n - 1)
            Q = (A_b[(xa - 1) * kc:xb * kc, (x0[t] - 1) * ke:x1[t] * ke]
                 @ P.reshape(-1, c1 - c0)).reshape(xb - xa + 1, kc, c1 - c0)
            core = ext[(ylo[ext] <= y1) & (yhi[ext] >= y0)]
            a0 = starts[core[0]] if core.size else c1
            # P on the band's rows and core columns, contiguous for the products
            L = np.ascontiguousarray(P[:, :len(ys), :, a0 - c0:]).reshape(xw, kc, c1 - a0)
            live.append((x0[t], x1[t], L, xa, Q, a0, c0, c1))
            for u0, u1, Lu, ua, Qu, b0, d0, d1 in live:              # tiles T <= this one
                # P_T^T Q_T': A applied to this tile's columns
                lo, hi = max(u0, xa), min(u1, xb)
                if lo <= hi and d1 > b0:
                    B = (Lu[lo - u0:hi - u0 + 1].reshape(-1, d1 - b0).T
                         @ Q[lo - xa:hi - xa + 1].reshape(-1, c1 - c0))
                    A_ms[b0:d1, c0:c1] += B
                    if d0 == c0:          # with itself, Q_T^T P_T is B^T
                        A_ms[c0:c1, a0:c1] += B.T
                # Q_T^T P_T': A applied to T's columns
                lo, hi = max(ua, x0[t]), min(ua + Qu.shape[0] - 1, x1[t])
                if d0 != c0 and lo <= hi and c1 > a0:
                    A_ms[d0:d1, a0:c1] += (Qu[lo - ua:hi - ua + 1].reshape(-1, d1 - d0).T
                                           @ L[lo - x0[t]:hi - x0[t] + 1].reshape(-1, c1 - a0))
            del P, Q, L                    # before the next tile allocates its own
    return A_ms


def _upper_norm1(A, k=128):
    """The 1-norm of the symmetric matrix whose upper triangle A holds, a
    strip of k rows at a time: column j sums down to the diagonal, then along
    row j."""
    sums = np.zeros(A.shape[0])
    for i in range(0, A.shape[0], k):
        s = np.abs(A[i:i + k, i:])
        s[:, :k] = np.triu(s[:, :k])
        sums[i:] += s.sum(axis=0)
        sums[i:i + k] += s.sum(axis=1) - s.diagonal()
    return sums.max(initial=0.0)


def _coarse_matrix(system, basis):
    """A_ms in the coarse order, of which only the upper triangle is to be
    read, its 1-norm, and the basis column of each coarse DoF."""
    order, tile = _coarse_order(basis)
    A = _galerkin_matrix(system, basis, order, tile)
    return A, _upper_norm1(A), _coarse_columns(basis, order)


def assemble_coarse(system, b, basis):
    """A_ms = Phi^T A Phi band by band and b_ms = Phi^T b patch by patch, never
    Phi itself; A_ms is factored in its own buffer, in the coarse order
    (_coarse_order), from its upper triangle, which checks it is SPD: a pivot
    with L_ii^2 <= 1e-12 A_ii, as from a rank-deficient basis, fails the
    check like a nonpositive one.  b_ms keeps the basis order."""
    A_ms, norm, cols = _coarse_matrix(system, basis)
    # numpy's own loops, no BLAS call and no temporary, so no BLAS kernel choice
    # changes the bits; a patch of two or more columns sums its rows in their order
    b_ms = np.concatenate([np.einsum("ij,i->j", pb.vectors, box.reshape(-1))
                           for pb, box in _box_views(basis, np.asarray(b, dtype=float))])
    diag = A_ms.diagonal().copy()
    # the transpose, F-ordered, is factored without a copy; its lower triangle
    # is the upper triangle of A_ms
    L, info = sla.lapack.dpotrf(A_ms.T, lower=1, clean=0, overwrite_a=1)
    if info != 0 or np.any(L.diagonal() ** 2 <= 1e-12 * diag):
        A_ms, _, _ = _coarse_matrix(system, basis)      # the factorization overwrote it
        w = sla.eigvalsh(A_ms.T, subset_by_index=[0, 0])[0]
        raise SingularCoarse(f"coarse matrix not SPD to tolerance "
                             f"(smallest eigenvalue ~ {w:.3e})")
    # 1-norm condition number, ||A_ms^{-1}|| estimated by LAPACK on the factor
    rcond = sla.lapack.dpocon(L, norm, uplo="L")[0] if L.size else 1.0
    return CoarseSystem(basis, b_ms, cols, (L, True), 1.0 / rcond)


def solve_ms(cs):
    """Solve the coarse system; returns (fine-grid free vector, coarse
    coefficients in the basis order).  Each patch adds its V_p c_p into its
    interior box, one column at a time, so no BLAS kernel choice changes the
    bits."""
    c = np.empty_like(cs.b_ms)
    # the factor's other triangle holds what assembly left there, never read
    c[cs._cols] = sla.cho_solve(cs._factor, cs.b_ms[cs._cols], check_finite=False)
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

    @classmethod
    def header(cls):
        return ",".join(f.name for f in fields(cls))
