"""Multiscale basis construction: LOD baseline, LSSI-n and LKSI-n spaces.

Each method is one iteration kernel on a patch system, seeded by the method's
seed: LOD is a single round, LSSI-n takes round n of constrained subspace
iteration, LKSI-n collects n Krylov iterates.  Every basis vector lives on the
interior DOFs of its patch and is zero elsewhere by construction.  The unit
of work is the nest (patch_nests: the boundary-clipped patches of a coarse
column whose DOFs are leading or trailing blocks of the tallest one's):
nest_systems factors its master once and slices the members' systems from
it.  _nest_bases builds every requested basis on one nest, sharing that
factorization across the nest and the methods, with one Schur pass over the
master's LOD block for every member (lod_constraints), and draws each
method's kernel once per patch, as deep as its deepest request.
build_bases runs _nest_bases on every nest, in this process or in forked
workers, and puts the patch bases back in patch order.  build_patch_systems
(eig-diag) keeps every patch system, in one process, one factor per nest.
"""

import functools
import itertools
import logging
import os
import time
from collections import defaultdict

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


def method_label(method):
    """(name, n) -> 'lod' | 'lssi-3' | 'lksi-4'."""
    name, n = method
    return name if name == LOD else f"{name}-{n}"


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
    """Restrict full-grid seed columns of operator `kind` to the interior
    DOFs of a patch system, read from the system itself."""
    dofs, V = entry
    interior = sys.system.dofs                               # sorted
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


def _mgs_append(M, v, cols, mcols, drop_tol=1e-10, mv=None):
    """One modified Gram-Schmidt step in the M inner product: M-orthogonalize
    a copy of v (`mv` = M v, if known) against the kept columns `cols` (with
    `mcols` = M cols) and append it, normalized, unless it depends on them.
    Returns whether it was kept."""
    v = np.array(v, dtype=float)
    norm0 = np.sqrt(max(v @ (M @ v if mv is None else mv), 0.0))
    for q, mq in zip(cols, mcols):
        v -= (mq @ v) * q
    mv = M @ v
    nrm = np.sqrt(max(v @ mv, 0.0))
    if norm0 == 0.0 or nrm <= drop_tol * norm0:
        return False
    v /= nrm
    cols.append(v)
    mcols.append(mv / nrm)
    return True


def m_orthonormalize(M, V, drop_tol=1e-10):
    """Modified Gram-Schmidt in the M inner product; drops dependent columns.

    Returns (Q, kept_indices).
    """
    V = np.asarray(V, dtype=float)
    cols, mcols = [], []
    kept = [k for k in range(V.shape[1])
            if _mgs_append(M, V[:, k], cols, mcols, drop_tol)]
    Q = np.column_stack(cols) if cols else np.zeros((V.shape[0], 0))
    return Q, kept


def lod_constraints(systems):
    """The LOD constraint sets of a nest of patch systems, master first: each
    system's mass pairings with the Q1 shapes of every coarse element in its
    patch (the localized kernel-space constraints of the baseline), each
    with its Schur complement.

    The master's block B is formed once.  A member nests in the master, so
    its rows are the leading rows of the master's (the trailing ones in a
    reversed nest) and its coarse elements the leading (trailing) ones: its
    block is that slice of B, each row's entries in the order its own
    product would give.  One pass of the master's gram forms the Schur
    complements of all the blocks.
    """
    master = systems[0]
    outer = master.patch.coarse_elems
    B = master.system.m_pair @ _cell_shapes_matrix(master.patch.pair, outer,
                                                   master.system.kind)
    w = B.shape[1] // outer.size
    blocks = []
    for sys in systems:
        elems = sys.patch.coarse_elems
        c, n = elems.size, sys.ndof
        if not np.array_equal(elems, outer[-c:] if master.reverse else outer[:c]):
            raise ValueError(f"coarse elements of patch {sys.patch.center} do not "
                             f"nest in those of patch {master.patch.center}")
        blocks.append(B[-n:, -w * c:] if master.reverse else B[:n, :w * c])
    grams = master.gram(B, [b.shape for b in blocks])
    return [ConstraintSet(b, schur=S) for b, S in zip(blocks, grams)]


def lod_kernel(sys, lam, constraints):
    """LOD iteration kernel: yields its single round.

    The round is the energy minimizer that keeps the mass functionals of the
    block `lam` against the Q1 shapes of every coarse element in the patch,
    the patch's set from lod_constraints.  Seeded with the center element's
    shapes, it decays exponentially away from the center element, so
    moderate oversampling suffices.  The constraint block stays sparse,
    which sends the saddle solve down the block-row Schur path.
    """
    B = constraints.B
    try:
        Phi = solve_saddle_block(sys, constraints, rhs=B.T @ lam)
    except DependentConstraints as exc:
        raise DependentConstraints(f"patch {sys.patch.center}: {exc}") from exc
    yield Phi


def lssi_kernel(sys, Phi):
    """LSSI iteration kernel: yields the saddle-solve block of each round,
    constrained by the L2 functionals of the previous block (`Phi` first)."""
    for rnd in itertools.count(1):
        constraints = ConstraintSet(sys.M @ Phi)
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
    nothing to the span of the earlier ones (the seed is not part of it):
    each iterate is M-orthogonalized against the earlier ones as they were
    kept, and the chain stagnates once one of them was dropped.
    """
    cols, mcols = [], []
    b = sys.M @ psi
    for k in itertools.count(1):
        y = sys.solve(b)
        s = b @ y
        if s <= 0.0:
            log.info("patch %d: Krylov breakdown at step %d", sys.patch.center, k)
            return
        psi = y / s
        b = sys.M @ psi                      # for its M-norm and the next step
        _mgs_append(sys.M, psi, cols, mcols, mv=b)
        if k > 1 and len(cols) < k:
            log.info("patch %d: Krylov space stagnated at step %d",
                     sys.patch.center, k)
            return
        yield psi


class BuildStats:
    """Counts the saddle solves performed during a basis construction."""

    def __init__(self):
        self.n_local_problems = 0


def _run_kernel(sys, name, depth, lod_set):
    """A method's kernel on one patch, drawn `depth` rounds deep up front: a
    chain per seed column for LKSI (per displacement component), a single
    chain otherwise.  Returns the seconds spent on the seed and, per chain,
    its blocks, fewer if it stops first, and their cumulative seconds:
    secs[k] is the time of the first k blocks, and a chain that stops early
    gets one more entry, the time up to its stopping step.  So the first n
    rounds cost secs[min(n, len(secs) - 1)], reached or not."""
    t0 = time.perf_counter()
    seed = method_seed(sys, name)
    if name == LOD:
        chains = [lod_kernel(sys, seed, lod_set)]
    elif name == LSSI:
        chains = [lssi_kernel(sys, seed)]
    else:
        chains = [lksi_kernel(sys, psi) for psi in seed.T]
    seed_secs, drawn = time.perf_counter() - t0, []
    for chain in chains:
        blocks, secs = [], [0.0]
        t0 = time.perf_counter()
        for block in itertools.islice(chain, depth):
            blocks.append(block)
            secs.append(time.perf_counter() - t0)
        if len(blocks) < depth:
            secs.append(time.perf_counter() - t0)
        drawn.append((blocks, secs))
    return seed_secs, drawn


def patch_nests(patches):
    """Group patches whose interior DOFs nest, as (positions in `patches`,
    reverse) pairs, the tallest patch (the master) first.

    Lexicographic DOFs run along x, then y.  Patches with the same box x-range
    and lower edge (ilo, ihi, jlo) are leading blocks of the tallest one's
    DOFs; of the rest, those with the same (ilo, ihi, jhi) are trailing blocks
    of it, leading ones once the DOFs are taken backwards (reverse).  Any
    other patch is a group of one.  Groups come in order of their first
    position.
    """
    low, high, nests = defaultdict(list), defaultdict(list), []
    for k, p in enumerate(patches):
        low[p.box[:3]].append(k)
    for ks in low.values():
        if len(ks) > 1:
            nests.append((sorted(ks, key=lambda k: -patches[k].box[3]), False))
        else:
            ilo, ihi, _, jhi = patches[ks[0]].box
            high[ilo, ihi, jhi].append(ks[0])
    for ks in high.values():
        nests.append((sorted(ks, key=lambda k: patches[k].box[2]), len(ks) > 1))
    return sorted(nests, key=lambda nest: min(nest[0]))


def nest_systems(system, patches, nest):
    """The patch systems of one nest (positions in `patches`, reverse), master
    first: the master with its own factor, each member sliced from it and
    running on a leading block of that factor."""
    ks, reverse = nest
    master = PatchSystem.build(system, patches[ks[0]], reverse=reverse)
    return [master] + [PatchSystem.build(system, patches[k], within=master)
                       for k in ks[1:]]


def build_patch_systems(pair, system, m):
    """All patch systems of the global system in patch order, one
    factorization per nest; only for desk-scale problems."""
    patches = build_all_patches(pair, m)
    systems = [None] * len(patches)
    for nest in patch_nests(patches):
        for k, sys in zip(nest[0], nest_systems(system, patches, nest)):
            systems[k] = sys
    return systems


def _nest_bases(system, patches, plan, nest):
    """Every requested basis on one nest of `patches`.  plan lists the
    requests as (label, method, rounds).  Returns, per request, the nest's
    patch vectors in nest order, its local problem count and its seconds:
    the nest's slicing and factorization, the seed and kernel rounds it
    takes on each patch, and for LOD the nest's lod_constraints call."""
    depth = {name: max(n for _, nm, n in plan if nm == name) for _, name, _ in plan}
    t0 = time.perf_counter()
    systems = nest_systems(system, patches, nest)
    secs = [time.perf_counter() - t0] * len(plan)
    lod_sets = [None] * len(systems)
    if LOD in depth:
        t0 = time.perf_counter()
        lod_sets = lod_constraints(systems)
        t_lod = time.perf_counter() - t0
        secs = [s + t_lod if name == LOD else s for s, (_, name, _) in zip(secs, plan)]
    vectors, solves = [[] for _ in plan], [0] * len(plan)
    for sys, lod_set in zip(systems, lod_sets):
        runs = {name: _run_kernel(sys, name, d, lod_set) for name, d in depth.items()}
        for j, (lab, name, n) in enumerate(plan):
            t0 = time.perf_counter()
            seed_secs, chains = runs[name]
            if name == LKSI:
                V = np.column_stack([psi for blocks, _ in chains for psi in blocks[:n]])
                solves[j] += V.shape[1]
            else:
                [(blocks, _)] = chains
                V = blocks[n - 1]
                solves[j] += n * V.shape[1]
            Q, kept = m_orthonormalize(sys.M, V)
            if name != LKSI and len(kept) != V.shape[1]:
                raise DependentConstraints(
                    f"patch {sys.patch.center}: {lab} block degenerate")
            vectors[j].append(Q)
            secs[j] += (seed_secs + sum(s[min(n, len(s) - 1)] for _, s in chains)
                        + time.perf_counter() - t0)
    return list(zip(vectors, solves, secs))


# the task of the build whose workers are forked, _nest_bases with its
# arguments but the nest bound; the workers inherit it, so the global system
# is never pickled
_FORKED = None


def _forked_task(nest):
    return _FORKED(nest)


def _cpu_count():
    """The CPUs this process may run on, or 1 where that is not known or
    processes cannot fork (no os.sched_getaffinity: macOS, Windows)."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _forked_map(task, nests, workers):
    """map(task, nests) over `workers` forked processes, in Pool.map's chunks
    of about a quarter of a worker's share, each to the next free worker.
    The pool is closed (terminated on error) and joined before this returns;
    a worker's error is raised here with its class and message."""
    import multiprocessing                  # here: only a forked build needs it

    global _FORKED
    _FORKED = task
    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        done = pool.map(_forked_task, nests)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
        _FORKED = None
    return done


def build_bases(pair, system, m, requests, patches=None, workers=None):
    """Build several bases, one nest of `patches` at a time (_nest_bases).

    requests is a list of (method, n), no two alike: LSSI-n takes round n of
    the one LSSI chain, LKSI-n the first n iterates of each LKSI chain, LOD
    its one round.  Returns a list of (label, MsBasis, BuildStats,
    wall_seconds) in request order, the patch bases in the order of
    `patches`.  Each wall time includes the shared slicing and factorization
    cost, and the seed and kernel rounds it takes, so a round serving
    several requests counts for each; lod_constraints counts for LOD alone.
    The local problem counts are each request's own, as if it ran alone.
    LOD and LSSI blocks must keep full rank; LKSI keeps the iterates its
    chains reach.

    The nests go largest first (patch interior DOFs), through map in this
    process with one worker, or with more through a pool of that many forked
    processes (_forked_map).  workers defaults to the CPUs this process may
    run on where it can fork, else 1, capped at the nest count; the bases
    are the same bit for bit for any count.  Each wall time and count is the
    sum of the nests', not elapsed time.
    """
    if any(name not in (LOD, LSSI, LKSI) for name, _ in requests):
        raise ValueError(f"unknown method in {requests}")
    if any(name != LOD and (n is None or n < 1) for name, n in requests):
        raise ValueError("iteration count must be >= 1")
    plan = [(method_label((name, n)), name, 1 if name == LOD else n)
            for name, n in requests]
    labels = [lab for lab, _, _ in plan]
    if len(set(labels)) < len(labels):
        raise ValueError(f"duplicate method requests: {labels}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    patches = build_all_patches(pair, m) if patches is None else list(patches)
    nests = sorted(patch_nests(patches),
                   key=lambda nest: -sum(patches[k].interior_nodes.size for k in nest[0]))
    workers = min(_cpu_count() if workers is None else workers, len(nests))
    task = functools.partial(_nest_bases, system, patches, plan)
    done = list(map(task, nests)) if workers == 1 else _forked_map(task, nests, workers)
    out = []
    for j, (lab, name, _) in enumerate(plan):
        bases, stats, wall = [None] * len(patches), BuildStats(), 0.0
        for (ks, _), results in zip(nests, done):
            vectors, solves, secs = results[j]
            for k, V in zip(ks, vectors):
                bases[k] = PatchBasis(patches[k], V)
            stats.n_local_problems += solves
            wall += secs
        out.append((lab, MsBasis(name, system.kind, bases), stats, wall))
    return out
