"""Multiscale basis construction: LOD baseline, LSSI-n and LKSI-n spaces.

Each method is one iteration kernel on a patch system, seeded by the method's
seed: LOD is a single round, LSSI-n takes round n of constrained subspace
iteration, LKSI-n collects n Krylov iterates.  Every basis vector lives on the
interior DOFs of its patch and is zero elsewhere by construction.  Patches
are processed one at a time so that only one local factorization is alive at
once; build_bases shares that factorization across all requested methods on
the same coefficient field.
"""

import itertools
import logging
import time

import numpy as np
import scipy.sparse as sp

from . import fem
from .errors import DependentConstraints
from .grid import box_indices, build_all_patches
from .localsolve import ConstraintSet, PatchSystem, solve_saddle_block

log = logging.getLogger(__name__)

LOD = "lod"
LSSI = "lssi"
LKSI = "lksi"


class PatchBasis:
    """Basis vectors of one patch, stored on the patch interior DOFs."""

    def __init__(self, patch, vectors):
        self.patch = patch
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim == 1:
            vectors = vectors[:, None]
        if vectors.shape[0] % patch.interior_nodes.size != 0:
            raise ValueError("vector length inconsistent with patch")
        self.vectors = vectors

    @property
    def count(self):
        return self.vectors.shape[1]


class MsBasis:
    """Collection of per-patch basis vectors defining a multiscale space."""

    def __init__(self, method, kind, patch_bases):
        self.method = method
        self.kind = kind
        self.patch_bases = patch_bases

    @property
    def total_dofs(self):
        return sum(pb.count for pb in self.patch_bases)

    def padded_vectors(self, n_full):
        """All basis vectors as full fine-grid columns (dense, for diagnostics)."""
        nb = fem.nblock(self.kind)
        out = np.zeros((n_full, self.total_dofs))
        col = 0
        for pb in self.patch_bases:
            dofs = pb.patch.interior_dofs(nb)
            out[dofs, col:col + pb.count] = pb.vectors
            col += pb.count
        return out


def build_patch_systems(pair, field, kind, m):
    """All patch systems as a list; only for desk-scale problems."""
    return [PatchSystem.build(pair, field, kind, p) for p in build_all_patches(pair, m)]


def _cell_nodes(pair, coarse_elem, inset):
    """Fine nodes of one coarse cell, lexicographic; inset=1 keeps only the
    nodes strictly inside it.  Returns (nodes, xi, eta) with cell coordinates."""
    N, r, n = pair.coarse.n, pair.r, pair.fine.n
    ci, cj = coarse_elem % N, coarse_elem // N
    nodes = box_indices(ci * r + inset, (ci + 1) * r + 1 - inset,
                        cj * r + inset, (cj + 1) * r + 1 - inset, n + 1)
    fj, fi = np.divmod(nodes, n + 1)
    return nodes, (fi - ci * r) / r, (fj - cj * r) / r


def element_shape_functions(pair, coarse_elem, kind=fem.DIFFUSION):
    """The Q1 shape functions of one coarse element, sampled on its fine nodes;
    the LOD and LSSI seed.

    Returns (dofs, V): fine DOF indices of the closed cell and a matrix whose
    columns are the 4 shapes (scalar) or 8 per-component shapes (elasticity).
    """
    nodes, xi, eta = _cell_nodes(pair, coarse_elem, 0)
    shapes = np.column_stack(
        [(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta]
    )
    nb = fem.nblock(kind)
    return fem._expand_dofs(nodes, nb), np.kron(shapes, np.eye(nb))


def _cell_shapes_matrix(pair, coarse_elems, kind):
    """element_shape_functions of several coarse elements as one sparse
    full-DOF matrix, 4 (scalar) or 8 (elasticity) columns per element in the
    given order.  Every cell carries the same shapes, shifted by its origin."""
    dofs, V = element_shape_functions(pair, 0, kind)
    elems = np.asarray(coarse_elems, dtype=np.int64)
    N, r, nb = pair.coarse.n, pair.r, fem.nblock(kind)
    shift = nb * r * ((elems // N) * (pair.fine.n + 1) + elems % N)
    d, c = np.nonzero(V)
    w = V.shape[1]
    rows = dofs[d][None, :] + shift[:, None]
    cols = c[None, :] + w * np.arange(elems.size)[:, None]
    vals = np.broadcast_to(V[d, c], rows.shape)
    n_full = nb * pair.fine.n_nodes
    return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n_full, w * elems.size))


def seed_constant(pair, i, kind=fem.DIFFUSION):
    """LKSI seed: indicator of the fine nodes strictly inside K_i (1 scalar / 2 elasticity)."""
    nodes, _, _ = _cell_nodes(pair, i, 1)
    nb = fem.nblock(kind)
    return fem._expand_dofs(nodes, nb), np.kron(np.ones((nodes.size, 1)), np.eye(nb))


def restrict_entry(entry, sys, kind):
    """Restrict full-grid seed columns to the interior DOFs of a patch system."""
    dofs, V = entry
    interior = sys.patch.interior_dofs(fem.nblock(kind))     # sorted
    k = np.minimum(np.searchsorted(interior, dofs), interior.size - 1)
    hit = interior[k] == dofs
    out = np.zeros((sys.ndof, V.shape[1]))
    out[k[hit]] = V[hit]
    return out


def method_seed(sys, name):
    """A method's seed block on the patch interior: the center cell's Q1 shapes
    for LOD and LSSI, the indicator of its interior for LKSI."""
    pair, kind = sys.patch.pair, sys.system.kind
    shapes = seed_constant if name == LKSI else element_shape_functions
    return restrict_entry(shapes(pair, sys.patch.center, kind), sys, kind)


def m_orthonormalize(M, V, drop_tol=1e-10):
    """Modified Gram-Schmidt in the M inner product; drops dependent columns.

    Returns (Q, kept_indices).
    """
    V = np.array(V, dtype=float)
    cols = []
    kept = []
    mcols = []
    for k in range(V.shape[1]):
        v = V[:, k].copy()
        norm0 = np.sqrt(max(v @ (M @ v), 0.0))
        for q, mq in zip(cols, mcols):
            v -= (mq @ v) * q
        mv = M @ v
        nrm = np.sqrt(max(v @ mv, 0.0))
        if norm0 == 0.0 or nrm <= drop_tol * norm0:
            continue
        v /= nrm
        cols.append(v)
        mcols.append(mv / nrm)
        kept.append(k)
    Q = np.column_stack(cols) if cols else np.zeros((V.shape[0], 0))
    return Q, kept


def lod_kernel(sys, lam):
    """LOD iteration kernel: yields its single round.

    The round is the energy minimizer that keeps the mass functionals of the
    block `lam` against the Q1 shapes of every coarse element in the patch
    (the localized kernel-space constraints of the baseline).  Seeded with the
    center element's shapes, it decays exponentially away from the center
    element, so moderate oversampling suffices.  The constraint block stays
    sparse, which sends the saddle solve down the block-row Schur path.
    """
    pair, kind = sys.patch.pair, sys.system.kind
    shapes = _cell_shapes_matrix(pair, sys.patch.coarse_elems, kind)
    B = sys.system.m_pair @ shapes
    try:
        Phi = solve_saddle_block(sys, ConstraintSet(B), rhs=B.T @ lam)
    except DependentConstraints as exc:
        raise DependentConstraints(f"patch {sys.patch.center}: {exc}") from exc
    yield Phi


def lssi_kernel(sys, Phi):
    """LSSI iteration kernel: yields the saddle-solve block of each round,
    constrained by the L2 functionals of the previous block (`Phi` first)."""
    for rnd in itertools.count(1):
        constraints = ConstraintSet.from_local_functions(sys, Phi)
        try:
            Phi = solve_saddle_block(sys, constraints)
        except DependentConstraints as exc:
            raise DependentConstraints(
                f"patch {sys.patch.center}, round {rnd}: {exc}") from exc
        yield Phi


def lksi_kernel(sys, psi):
    """LKSI iteration kernel: yields the k-th Krylov iterate of the seed `psi`,
    the single-constraint solve A^{-1} M psi_{k-1} scaled to unit functional.

    Stops on breakdown (nonpositive functional) or once an iterate adds
    nothing to the span of the earlier ones (the seed is not part of it).
    """
    hist = []
    for k in itertools.count(1):
        b = sys.M @ psi
        y = sys.solve(b)
        s = b @ y
        if s <= 0.0:
            log.info("patch %d: Krylov breakdown at step %d", sys.patch.center, k)
            return
        psi = y / s
        if hist:
            _, kept = m_orthonormalize(sys.M, np.column_stack(hist + [psi]))
            if len(kept) <= len(hist):
                log.info("patch %d: Krylov space stagnated at step %d",
                         sys.patch.center, k)
                return
        hist.append(psi)
        yield psi


class BuildStats:
    """Counts the saddle solves performed during a basis construction."""

    def __init__(self):
        self.n_local_problems = 0


def _raw_block(sys, name, n):
    """One method's block on one patch before orthonormalization, and the
    number of local problems solved for it."""
    seed = method_seed(sys, name)
    if name == LOD:
        return next(lod_kernel(sys, seed)), seed.shape[1]
    if name == LSSI:
        Phi = next(itertools.islice(lssi_kernel(sys, seed), n - 1, None))   # round n
        return Phi, n * seed.shape[1]
    if name == LKSI:
        # one chain per seed column (per displacement component)
        cols = [psi for c in range(seed.shape[1])
                for psi in itertools.islice(lksi_kernel(sys, seed[:, c]), n)]
        return np.column_stack(cols), len(cols)
    raise ValueError(f"unknown method: {name}")


def build_bases(pair, field, kind, m, requests, patches=None):
    """Build several bases in one pass over the patches.

    requests is a list of (method, n); returns a list of
    (label, MsBasis, BuildStats, wall_seconds) in request order, where each
    wall time includes the shared local-factorization cost.  LOD and LSSI
    blocks must keep full rank; LKSI keeps the iterates its chains reach.
    """
    if any(name != LOD and (n is None or n < 1) for name, n in requests):
        raise ValueError("iteration count must be >= 1")
    labels = [name if name == LOD else f"{name}-{n}" for name, n in requests]
    per = {lab: [] for lab in labels}
    stats = {lab: BuildStats() for lab in labels}
    secs = {lab: 0.0 for lab in labels}
    t_shared = 0.0
    if patches is None:
        patches = build_all_patches(pair, m)
    for p in patches:
        t0 = time.perf_counter()
        sys = PatchSystem.build(pair, field, kind, p)
        t_shared += time.perf_counter() - t0
        for lab, (name, n) in zip(labels, requests):
            t0 = time.perf_counter()
            V, solves = _raw_block(sys, name, n)
            Q, kept = m_orthonormalize(sys.M, V)
            if name != LKSI and len(kept) != V.shape[1]:
                raise DependentConstraints(f"patch {p.center}: {lab} block degenerate")
            per[lab].append(PatchBasis(p, Q))
            stats[lab].n_local_problems += solves
            secs[lab] += time.perf_counter() - t0
    out = []
    for lab, (name, n) in zip(labels, requests):
        basis = MsBasis(name, kind, per[lab])
        out.append((lab, basis, stats[lab], secs[lab] + t_shared))
    return out
