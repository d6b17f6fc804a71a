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
build_bases maps _nest_bases over the nests through forked_map, the one
place that chooses a worker count (one forked process per CPU, at most one
per item; with one worker a plain map in this process).  The
workers inherit the task by fork, so nothing it binds is pickled; they
write the bases into one shared store per build (_basis_store) and return
counts only.  eig-diag maps its per-nest task through forked_map too, and
`mslab solve` each method's coarse phase.
"""

import functools
import itertools
import logging
import mmap
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


def iteration_count(method):
    """(name, n) -> the rounds it takes: LOD runs one, whatever n it names."""
    name, n = method
    return 1 if name == LOD else n


class PatchBasis:
    """Basis vectors of one patch, stored on the patch interior DOFs."""

    def __init__(self, patch, vectors):
        self.patch = patch
        vectors = np.asarray(vectors, dtype=float)
        if vectors.shape[0] % patch.interior_nodes.size != 0:
            raise ValueError("vector length inconsistent with patch")
        self.vectors = vectors

    @property
    def count(self):
        return self.vectors.shape[1]


class MsBasis:
    """Collection of per-patch basis vectors defining a multiscale space."""

    def __init__(self, kind, patch_bases):
        self.kind = kind
        self.patch_bases = patch_bases

    @property
    def total_dofs(self):
        return sum(pb.count for pb in self.patch_bases)


def _cell_block(pair, kind):
    """The Q1 shapes of a coarse cell on its (r+1) x (r+1) fine nodes, the
    same in every cell, shaped (rows, columns, components, shapes): 4 shapes
    (scalar) or 8 per-component ones (elasticity, component c of shape s in
    column nb s + c)."""
    t = np.arange(pair.r + 1) / pair.r
    xi, eta = t[None, :], t[:, None]
    shapes = np.stack([(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta],
                      axis=-1).reshape(-1, 4)
    nb = fem.nblock(kind)
    return np.kron(shapes, np.eye(nb)).reshape(pair.r + 1, pair.r + 1, nb, 4 * nb)


def _cell_shapes_matrix(pair, coarse_elems, kind):
    """The Q1 shapes of several coarse elements as one sparse full-DOF
    matrix, 4 (scalar) or 8 (elasticity) columns per element in the given
    order: _cell_block placed at each cell's origin."""
    N, r, nb = pair.coarse.n, pair.r, fem.nblock(kind)
    V = _cell_block(pair, kind).reshape((r + 1) ** 2 * nb, -1)
    dofs = fem._expand_dofs(box_indices(0, r + 1, 0, r + 1, pair.fine.n + 1), nb)
    elems = np.asarray(coarse_elems, dtype=np.int64)
    shift = nb * r * ((elems // N) * (pair.fine.n + 1) + elems % N)
    d, c = np.nonzero(V)
    w = V.shape[1]
    rows = dofs[d][None, :] + shift[:, None]
    cols = c[None, :] + w * np.arange(elems.size)[:, None]
    vals = np.broadcast_to(V[d, c], rows.shape)
    n_full = nb * pair.fine.n_nodes
    return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n_full, w * elems.size))


def method_seed(sys, name):
    """A method's seed block on the patch interior, cut from a block on the
    center cell's nodes to the patch's interior box: the cell's Q1 shapes
    (_cell_block) for LOD and LSSI, the indicator of its interior nodes (1
    scalar column, 2 elasticity ones) for LKSI."""
    patch, nb = sys.patch, fem.nblock(sys.system.kind)
    N, r = patch.pair.coarse.n, patch.pair.r
    if name == LKSI:
        block = np.zeros((r + 1, r + 1, nb, nb))
        block[1:r, 1:r] = np.eye(nb)
    else:
        block = _cell_block(patch.pair, sys.system.kind)
    x0, x1, y0, y1 = patch.interior_box
    ci, cj = patch.center % N * r, patch.center // N * r       # the cell's origin
    xa, xb, ya, yb = max(ci, x0), min(ci + r, x1), max(cj, y0), min(cj + r, y1)
    seed = np.zeros((y1 - y0 + 1, x1 - x0 + 1) + block.shape[2:])
    seed[ya - y0:yb - y0 + 1, xa - x0:xb - x0 + 1] = block[ya - cj:yb - cj + 1,
                                                           xa - ci:xb - ci + 1]
    return seed.reshape(sys.ndof, -1)


def _mgs_append(M, v, mv, cols, mcols, drop_tol=1e-10):
    """One modified Gram-Schmidt step in the M inner product: M-orthogonalize
    a copy of v (`mv` = M v) against the kept columns `cols` (with
    `mcols` = M cols) and append it, normalized, unless it depends on them.
    Returns whether it was kept."""
    v = np.array(v, dtype=float)
    norm0 = np.sqrt(max(v @ mv, 0.0))
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
    M V is formed once, as one block product, for the columns' starting
    norms; a sparse M gives each column the bits of its own M @ v.

    Returns (Q, kept_indices).
    """
    V = np.asarray(V, dtype=float)
    MV = np.ascontiguousarray((M @ V).T)
    cols, mcols = [], []
    kept = [k for k in range(V.shape[1])
            if _mgs_append(M, V[:, k], MV[k], cols, mcols, drop_tol)]
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
    moderate oversampling suffices.  The set carries its Schur complement,
    so the saddle solve is one solve on the seed's columns.
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
    """LKSI iteration kernel: yields (psi_k, q_k), the k-th Krylov iterate of
    the seed `psi`, the single-constraint solve A^{-1} M psi_{k-1} scaled to
    unit functional, and q_k, psi_k M-orthonormalized against q_1..q_{k-1}.

    Stops on breakdown (nonpositive functional) or once an iterate adds
    nothing to the span of the earlier ones (the seed is not part of it):
    the chain stagnates once an iterate was dropped, so q_1..q_k are what
    m_orthonormalize makes of psi_1..psi_k, bit for bit.
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
        _mgs_append(sys.M, psi, b, cols, mcols)
        if k > 1 and len(cols) < k:
            log.info("patch %d: Krylov space stagnated at step %d",
                     sys.patch.center, k)
            return
        yield psi, cols[-1]


def lksi_block(M, chains):
    """The M-orthonormal LKSI basis of the (psi, q) pairs that one or more
    lksi_kernel chains yielded: a single chain's own q's, several chains'
    psi's M-orthonormalized jointly (on one chain the two are the same bits)."""
    if len(chains) == 1:
        return np.column_stack([q for _, q in chains[0]])
    Q, _ = m_orthonormalize(M, np.column_stack([psi for chain in chains for psi, _ in chain]))
    return Q


class BuildStats:
    """Counts the saddle solves performed during a basis construction."""

    def __init__(self):
        self.n_local_problems = 0


def _run_kernel(sys, name, depth, lod_set):
    """A method's kernel on one patch, drawn `depth` rounds deep up front: a
    chain per seed column for LKSI (per displacement component), a single
    chain otherwise.  Returns the seconds spent on the seed and, per chain,
    what it yields (blocks; for LKSI (psi, q) pairs), fewer if it stops
    first, and their cumulative seconds:
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
    other patch is a group of one.  Groups come largest first (interior
    nodes summed over the group), so that a map over them starts the longest
    tasks first; ties in order of their first position.
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
    return sorted(nests, key=lambda nest: (
        -sum(patches[k].interior_nodes.size for k in nest[0]), min(nest[0])))


def nest_systems(system, patches, nest):
    """The patch systems of one nest (positions in `patches`, reverse), master
    first: the master with its own factor, each member sliced from it and
    running on a leading block of that factor."""
    ks, reverse = nest
    master = PatchSystem.build(system, patches[ks[0]], reverse=reverse)
    return [master] + [PatchSystem.build(system, patches[k], within=master)
                       for k in ks[1:]]


def _basis_store(patches, plan, kind):
    """One anonymous shared mapping with a slot per (request, patch), as
    flat float views, slots[j][k] for request j and patch k: nb rows per
    interior node, and the request's widest block as columns (4 nb for LOD
    and LSSI, n nb for LKSI-n).  Forked workers inherit the mapping, so what
    they write the parent reads, and only the pages written become resident."""
    nb = fem.nblock(kind)
    rows = [nb * p.interior_nodes.size for p in patches]
    widths = [nb * (n if name == LKSI else 4) for _, name, n in plan]
    # one entry at least: mapping 0 bytes is an OSError, and requests may be empty
    flat = np.frombuffer(mmap.mmap(-1, 8 * max(sum(rows) * sum(widths), 1)))
    sizes = [r * w for w in widths for r in rows]
    slots = (flat[e - s:e] for s, e in zip(sizes, itertools.accumulate(sizes)))
    return [[next(slots) for _ in patches] for _ in plan]


def _nest_bases(system, patches, plan, store, nest):
    """Every requested basis on one nest of `patches`, written into its slots
    of `store` (_basis_store): each M-orthonormal block, C-ordered, into the
    leading entries of its (request, patch) slot.  plan lists the requests
    as (label, method, rounds).  Returns, per request, the nest's column
    counts in nest order, its local problem count and its seconds: the
    nest's slicing and factorization, the seed and kernel rounds it takes on
    each patch, and for LOD the nest's lod_constraints call."""
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
    counts, solves = [[] for _ in plan], [0] * len(plan)
    for k, sys, lod_set in zip(nest[0], systems, lod_sets):
        runs = {name: _run_kernel(sys, name, d, lod_set) for name, d in depth.items()}
        for j, (lab, name, n) in enumerate(plan):
            t0 = time.perf_counter()
            seed_secs, chains = runs[name]
            if name == LKSI:
                iterates = [blocks[:n] for blocks, _ in chains]
                solves[j] += sum(map(len, iterates))
                Q = lksi_block(sys.M, iterates)
            else:
                [(blocks, _)] = chains
                V = blocks[n - 1]
                solves[j] += n * V.shape[1]
                Q, kept = m_orthonormalize(sys.M, V)
                if len(kept) != V.shape[1]:
                    raise DependentConstraints(
                        f"patch {sys.patch.center}: {lab} block degenerate")
            store[j][k][:Q.size] = Q.ravel()
            counts[j].append(Q.shape[1])
            secs[j] += (seed_secs + sum(s[min(n, len(s) - 1)] for _, s in chains)
                        + time.perf_counter() - t0)
    return list(zip(counts, solves, secs))


# the task of the forked_map whose workers are running, its arguments but
# the item bound; the workers inherit it, so what it binds is never pickled
_FORKED = None


def _forked_task(item):
    """_FORKED on one item: what the pool pickles, by name, in its place."""
    return _FORKED(item)


def _cpu_count():
    """The CPUs this process may run on, or 1 where that is not known or
    processes cannot fork (no os.sched_getaffinity: macOS, Windows)."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _forked_map(task, items, workers):
    """map(task, items) over `workers` forked processes, in Pool.map's chunks
    of about a quarter of a worker's share, each to the next free worker,
    collected in item order.  The first failing item in item order stops
    the map: its error is raised here with its class, its message and the
    worker's traceback as __cause__, and the pool is terminated, whatever
    items are still running or waiting.  The pool is joined before this
    returns."""
    import multiprocessing                  # here: only a forked map needs it

    global _FORKED
    _FORKED = task
    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        done = list(pool.imap(_forked_task, items, -(-len(items) // (4 * workers))))
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
        _FORKED = None
    return done


def forked_map(task, items):
    """list(map(task, items)), in this process or in forked workers.

    The worker count is the CPUs this process may run on where it can fork,
    else 1 (_cpu_count), capped at the item count.  One worker maps in this
    process; more fork a pool of that many (_forked_map), which inherits
    `task` and everything it binds, so only the items and the results are
    pickled, and a shared mapping it binds (build_bases's store) is the
    same pages in every worker.  The results come back in item order; as
    with map, the first failing item in item order stops the map, and its
    error is raised with its class and message.
    """
    items = list(items)
    workers = min(_cpu_count(), len(items))
    if workers <= 1:
        return list(map(task, items))
    return _forked_map(task, items, workers)


def build_bases(pair, system, m, requests, patches=None):
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

    The nests go largest first (patch_nests) through forked_map, one
    worker per CPU; in this process or forked, they write their vectors
    into one shared store (_basis_store), allocated before any worker forks,
    and return only column counts, local problem counts and seconds.  Each
    PatchBasis holds a C-contiguous view of its slot's written prefix, which
    keeps the mapping alive.  The bases are the same bit for bit for any
    worker count.  Each wall time and count is the sum of the nests', not
    elapsed time.
    """
    if any(name not in (LOD, LSSI, LKSI) for name, _ in requests):
        raise ValueError(f"unknown method in {requests}")
    if any(name != LOD and (n is None or n < 1) for name, n in requests):
        raise ValueError("iteration count must be >= 1")
    plan = [(method_label(req), req[0], iteration_count(req)) for req in requests]
    labels = [lab for lab, _, _ in plan]
    if len(set(labels)) < len(labels):
        raise ValueError(f"duplicate method requests: {labels}")
    patches = build_all_patches(pair, m) if patches is None else list(patches)
    nests = patch_nests(patches)
    store, nb = _basis_store(patches, plan, system.kind), fem.nblock(system.kind)
    done = forked_map(functools.partial(_nest_bases, system, patches, plan, store), nests)
    out = []
    for j, lab in enumerate(labels):
        bases, stats, wall = [None] * len(patches), BuildStats(), 0.0
        for (ks, _), results in zip(nests, done):
            counts, solves, secs = results[j]
            for k, c in zip(ks, counts):
                rows = nb * patches[k].interior_nodes.size
                bases[k] = PatchBasis(patches[k], store[j][k][:rows * c].reshape(rows, c))
            stats.n_local_problems += solves
            wall += secs
        out.append((lab, MsBasis(system.kind, bases), stats, wall))
    return out
