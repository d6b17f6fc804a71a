"""Structured quadrilateral meshes on the unit square, coarse/fine nesting and
oversampling patches.

Node numbering is lexicographic with x running fastest: node (i, j) has index
j*(n+1)+i and coordinates (i/n, j/n).  Element (i, j) has index j*n+i and its
four corner nodes are listed counter-clockwise starting from the lower-left.
"""

import numpy as np

from . import fem
from .errors import CoverGap, PatchEmptyInterior


def box_indices(i0, i1, j0, j1, width):
    """Lexicographic indices (x fastest) of the box [i0, i1) x [j0, j1) on a
    grid whose rows are `width` entries long."""
    return (np.arange(j0, j1)[:, None] * width + np.arange(i0, i1)).ravel()


class StructuredMesh:
    """Uniform n x n quadrilateral mesh of [0,1]^2."""

    def __init__(self, n_per_side):
        n = int(n_per_side)
        if n < 1:
            raise ValueError("n_per_side must be >= 1")
        self.n = n
        self.h = 1.0 / n
        self.n_nodes = (n + 1) ** 2
        self.n_elems = n ** 2

        jj, ii = np.divmod(np.arange(self.n_nodes), n + 1)
        self.coords = np.column_stack([ii / n, jj / n])

        ll = box_indices(0, n, 0, n, n + 1)
        # counter-clockwise: LL, LR, UR, UL
        self.elem_nodes = np.column_stack([ll, ll + 1, ll + n + 2, ll + n + 1])

        xi = self.coords[:, 0]
        yi = self.coords[:, 1]
        self.boundary = (xi == 0.0) | (xi == 1.0) | (yi == 0.0) | (yi == 1.0)


class NestedPair:
    """A coarse mesh T_H and a fine mesh T_h with h dividing H."""

    def __init__(self, n_coarse, n_fine):
        if n_fine % n_coarse != 0:
            raise ValueError("fine resolution must be a multiple of the coarse one")
        self.coarse = StructuredMesh(n_coarse)
        self.fine = StructuredMesh(n_fine)
        self.r = n_fine // n_coarse

    @property
    def H(self):
        return self.coarse.h

    @property
    def h(self):
        return self.fine.h


class Patch:
    """Oversampling block: coarse element `center` grown by m layers.

    Growth is by closure intersection, so diagonal neighbours are included and
    the block is an axis-aligned box of coarse elements clipped at the domain
    boundary.  Interior DOFs are the fine nodes strictly inside the box (which
    also excludes every node on the outer domain boundary).
    """

    def __init__(self, pair, center, m):
        N = pair.coarse.n
        if not (0 <= center < N * N):
            raise ValueError("coarse element index out of range")
        if m < 0:
            raise ValueError("layer count must be >= 0")
        self.pair = pair
        self.center = center
        self.m = m
        ci, cj = center % N, center // N
        # m rounds of closure-intersection growth, clipped at the boundary
        ilo, ihi, jlo, jhi = ci, ci, cj, cj
        for _ in range(m):
            ilo = max(ilo - 1, 0)
            jlo = max(jlo - 1, 0)
            ihi = min(ihi + 1, N - 1)
            jhi = min(jhi + 1, N - 1)
        self.box = (ilo, ihi, jlo, jhi)

        self.coarse_elems = box_indices(ilo, ihi + 1, jlo, jhi + 1, N)

        n, r = pair.fine.n, pair.r
        i0, i1, j0, j1 = ilo * r, (ihi + 1) * r, jlo * r, (jhi + 1) * r
        self.fine_nodes = box_indices(i0, i1 + 1, j0, j1 + 1, n + 1)
        self.interior_nodes = box_indices(i0 + 1, i1, j0 + 1, j1, n + 1)
        if self.interior_nodes.size == 0:
            raise PatchEmptyInterior(
                f"patch around coarse element {center} with m={m} has no interior fine DOFs"
            )
        self.fine_elems = box_indices(i0, i1, j0, j1, n)

    def interior_dofs(self, nblock=1):
        """Interior DOF indices in the full fine numbering (block size 1 or 2)."""
        return fem._expand_dofs(self.interior_nodes, nblock)


def build_patch(pair, i, m):
    """Build the oversampling patch around coarse element i with m layers."""
    return Patch(pair, i, m)


def build_all_patches(pair, m):
    return [Patch(pair, i, m) for i in range(pair.coarse.n_elems)]


class PartitionOfUnity:
    """Shepard-normalized bilinear bumps, one per patch.

    weights[i] is a pair (node_indices, values) with support inside patch i.
    """

    def __init__(self, weights, n_nodes):
        self.weights = weights
        self.n_nodes = n_nodes

    def dense(self, i):
        chi = np.zeros(self.n_nodes)
        idx, val = self.weights[i]
        chi[idx] = val
        return chi


def _bump(pair, patch):
    """Per-axis distance bump on the patch's node set.

    Sides of the patch box lying on the domain boundary do not cut the bump,
    so the weight stays positive on (clipped) boundary nodes.
    """
    ilo, ihi, jlo, jhi = patch.box
    N = pair.coarse.n
    H = pair.H
    coords = pair.fine.coords[patch.fine_nodes]

    def axis_weight(t, lo, hi, nmax):
        a, b = lo * H, (hi + 1) * H
        left = np.full_like(t, np.inf) if lo == 0 else t - a
        right = np.full_like(t, np.inf) if hi == nmax - 1 else b - t
        # a side on the domain boundary does not cut; a patch spanning the
        # whole axis gets constant weight 1
        w = np.minimum(left, right)
        return np.where(np.isfinite(w), w, 1.0)

    wx = axis_weight(coords[:, 0], ilo, ihi, N)
    wy = axis_weight(coords[:, 1], jlo, jhi, N)
    return np.maximum(wx, 0.0) * np.maximum(wy, 0.0)


def build_pou(pair, patches):
    """Shepard normalization of per-patch bilinear bumps; sums to 1 at every node."""
    n_nodes = pair.fine.n_nodes
    raw = []
    denom = np.zeros(n_nodes)
    for p in patches:
        d = _bump(pair, p)
        raw.append((p.fine_nodes, d))
        denom[p.fine_nodes] += d
    if np.any(denom == 0.0):
        bad = int(np.argmin(denom))
        raise CoverGap(f"fine node {bad} is covered by no patch bump")
    weights = [(idx, d / denom[idx]) for idx, d in raw]
    return PartitionOfUnity(weights, n_nodes)
