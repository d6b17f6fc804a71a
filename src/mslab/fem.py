"""Q1 finite element kernels on structured meshes.

Element matrices, global sparse assembly with homogeneous Dirichlet
elimination, patch systems sliced out of the global one
(AssembledSystem.on_patch), a banded Cholesky factor for the SPD systems
(patch and fine grid alike: lexicographic DOFs on a box give a band one grid
row wide), norms and the fine-grid reference solution.
Elasticity DOFs are node-major: dof = 2*node + component.
"""

from dataclasses import dataclass, field as dfield

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import EmptySystem, NotSPD

DIFFUSION = "diffusion"
ELASTICITY = "elasticity"

# exact integrals of bilinear shape gradients on a square element (h-independent in 2D)
_K_SCALAR = np.array(
    [[4.0, -1.0, -2.0, -1.0],
     [-1.0, 4.0, -1.0, -2.0],
     [-2.0, -1.0, 4.0, -1.0],
     [-1.0, -2.0, -1.0, 4.0]]
) / 6.0

_M_SCALAR = np.array(
    [[4.0, 2.0, 1.0, 2.0],
     [2.0, 4.0, 2.0, 1.0],
     [1.0, 2.0, 4.0, 2.0],
     [2.0, 1.0, 2.0, 4.0]]
) / 36.0

_GAUSS = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


def _shape_vals(xi, eta):
    return np.array([(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta])


def _shape_grads(xi, eta):
    # d/dxi, d/deta rows for the four shapes
    dxi = np.array([-(1 - eta), (1 - eta), eta, -eta])
    deta = np.array([-(1 - xi), -xi, xi, (1 - xi)])
    return dxi, deta


def _elasticity_parts():
    """8x8 unit matrices K_lam, K_mu with Ke = lam*K_lam + mu*K_mu (h-independent)."""
    d_lam = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    d_mu = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    K_lam = np.zeros((8, 8))
    K_mu = np.zeros((8, 8))
    for xi in _GAUSS:
        for eta in _GAUSS:
            dxi, deta = _shape_grads(xi, eta)
            B = np.zeros((3, 8))
            B[0, 0::2] = dxi
            B[1, 1::2] = deta
            B[2, 0::2] = deta
            B[2, 1::2] = dxi
            # physical gradients carry 1/h, the jacobian h^2, weight 1/4
            K_lam += 0.25 * B.T @ d_lam @ B
            K_mu += 0.25 * B.T @ d_mu @ B
    return K_lam, K_mu


_K_LAM, _K_MU = _elasticity_parts()


def element_stiffness(kind, coeff):
    """Dense element stiffness: 4x4 scalar (coeff=kappa) or 8x8 (coeff=(lam, mu)).

    Coefficient arrays give one matrix per entry, stacked along leading axes."""
    if kind == DIFFUSION:
        return np.multiply.outer(coeff, _K_SCALAR)
    if kind == ELASTICITY:
        lam, mu = coeff
        return np.multiply.outer(lam, _K_LAM) + np.multiply.outer(mu, _K_MU)
    raise ValueError(f"unknown operator kind: {kind}")


def element_mass(h, kind=DIFFUSION):
    """Dense element mass matrix (consistent, 2x2 Gauss exact)."""
    m = h * h * _M_SCALAR
    if kind == DIFFUSION:
        return m
    if kind == ELASTICITY:
        m8 = np.zeros((8, 8))
        m8[0::2, 0::2] = m
        m8[1::2, 1::2] = m
        return m8
    raise ValueError(f"unknown operator kind: {kind}")


def nblock(kind):
    return 2 if kind == ELASTICITY else 1


@dataclass
class AssembledSystem:
    """Stiffness/mass on the free DOFs of a region, plus index bookkeeping.

    dofs holds the free DOF ids in the full fine numbering; m_pair maps a full
    fine-grid vector to its exact L2 pairing against the free test functions
    (rows = free DOFs, cols = all DOFs of the fine grid).
    """

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    dofs: np.ndarray
    n_full: int
    kind: str
    m_pair: sp.csr_matrix = dfield(repr=False, default=None)

    @property
    def ndof(self):
        return self.dofs.size

    def pad(self, v):
        """Embed a free-DOF vector into the full fine numbering."""
        out = np.zeros(self.n_full) if v.ndim == 1 else np.zeros((self.n_full, v.shape[1]))
        out[self.dofs] = v
        return out

    def restrict(self, v_full):
        return np.asarray(v_full)[self.dofs]

    def on_patch(self, patch):
        """The system on the interior DOFs of a patch, with homogeneous
        Dirichlet conditions on the patch boundary.

        Every element touching an interior node lies inside the patch, so the
        patch matrices are exactly the rows and columns of the patch DOFs in
        this system (and m_pair its rows), entries summed in the same order.
        Stiffness and mass are assembled from the same element DOF pairs, so
        they share one sparsity pattern: one gather serves both.
        """
        dofs = patch.interior_dofs(nblock(self.kind))
        pos = np.minimum(np.searchsorted(self.dofs, dofs), self.ndof - 1)
        if not np.array_equal(self.dofs[pos], dofs):
            raise ValueError(f"patch around coarse element {patch.center} "
                             "has DOFs that are not free in this system")
        A, n = self.stiffness, dofs.size
        take, bounds = _row_entries(A.indptr, pos)
        local = np.full(self.ndof, -1, dtype=A.indices.dtype)
        local[pos] = np.arange(n)
        cols = local[A.indices[take]]
        keep = cols >= 0
        kept = np.zeros(take.size + 1, dtype=A.indptr.dtype)
        np.cumsum(keep, out=kept[1:])
        take, pattern = take[keep], (cols[keep], kept[bounds])
        mt, mbounds = _row_entries(self.m_pair.indptr, pos)
        m_pair = sp.csr_matrix((self.m_pair.data[mt], self.m_pair.indices[mt], mbounds),
                               shape=(n, self.n_full))
        return AssembledSystem(sp.csr_matrix((A.data[take], *pattern), shape=(n, n)),
                               sp.csr_matrix((self.mass.data[take], *pattern), shape=(n, n)),
                               dofs, self.n_full, self.kind, m_pair=m_pair)

    def on_range(self, lo, hi):
        """The system on its free DOFs lo:hi, with homogeneous Dirichlet
        conditions on the others: rows and columns lo:hi of stiffness and
        mass and rows lo:hi of m_pair, as plain slices, which keep each row's
        entries in their order here.  When those DOFs are the interior DOFs
        of a patch nested in this system's patch, it is exactly on_patch of
        the global system for that patch."""
        s = slice(lo, hi)
        return AssembledSystem(self.stiffness[s, s], self.mass[s, s], self.dofs[s],
                               self.n_full, self.kind, m_pair=self.m_pair[s])


def _row_entries(indptr, rows):
    """Positions of the entries of the given CSR rows in its data array, row
    after row, and where each row starts and ends in that list (an indptr)."""
    start = indptr[rows]
    bounds = np.zeros(rows.size + 1, dtype=indptr.dtype)
    np.cumsum(indptr[rows + 1] - start, out=bounds[1:])
    return np.repeat(start - bounds[:-1], np.diff(bounds)) + np.arange(bounds[-1]), bounds


def _expand_dofs(nodes, nb):
    if nb == 1:
        return np.asarray(nodes, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    d = np.empty(nodes.size * nb, dtype=np.int64)
    for c in range(nb):
        d[c::nb] = nb * nodes + c
    return d


def assemble(pair, field, kind=DIFFUSION):
    """Assemble stiffness and mass on the whole mesh, with the homogeneous
    Dirichlet rows/columns of the outer boundary eliminated."""
    mesh = pair.fine
    nb = nblock(kind)
    free_nodes = np.flatnonzero(~mesh.boundary)
    if free_nodes.size == 0:
        raise EmptySystem("assembly region has no free DOFs")

    conn = mesh.elem_nodes                              # (ne, 4)
    edofs = _expand_dofs(conn.ravel(), nb).reshape(mesh.n_elems, 4 * nb)

    if kind == ELASTICITY:
        coeff = tuple(c.ravel() for c in field.lame())
    else:
        coeff = field.per_elem()
    ke = element_stiffness(kind, coeff)
    me = np.broadcast_to(element_mass(mesh.h, kind), ke.shape)

    nloc = 4 * nb
    rows = np.repeat(edofs, nloc, axis=1).ravel()
    cols = np.tile(edofs, (1, nloc)).ravel()
    n_full = mesh.n_nodes * nb
    A_full = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n_full, n_full)).tocsr()
    M_full = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(n_full, n_full)).tocsr()

    dofs = _expand_dofs(free_nodes, nb)
    A = A_full[dofs][:, dofs].tocsr()
    m_pair = M_full[dofs].tocsr()
    M = m_pair[:, dofs].tocsr()
    A.sum_duplicates()
    M.sum_duplicates()
    return AssembledSystem(A, M, dofs, n_full, kind, m_pair=m_pair)


class SpdFactor:
    """Banded Cholesky factor A = L L^T of a sparse SPD matrix (LAPACK pbtrf).

    The bandwidth is read off the lower triangle of A.  Lexicographic DOFs on a
    box make it about one grid row (times the block size) wide, so the band is
    a small multiple of the nonzeros.  A failed factorization certifies that A
    is not SPD.  Besides solves (LAPACK pbtrs), the factor forms the energy
    Gram matrix B^T A^{-1} B of a sparse column block (gram).  The
    leading n x n block of L is the factor of the leading n x n block of A;
    leading(n) serves it as a view on the band, without a new factorization.
    """

    def __init__(self, A):
        A = sp.csr_matrix(A)
        if not A.has_canonical_format:
            A = A.copy()
            A.sum_duplicates()
        n = A.shape[0]
        rows = np.repeat(np.arange(n), np.diff(A.indptr))
        low = rows >= A.indices
        offset = rows[low] - A.indices[low]
        band = np.zeros((offset.max(initial=0) + 1, n))
        band[offset, A.indices[low]] = A.data[low]
        try:
            self._band = np.asfortranarray(
                sla.cholesky_banded(band, lower=True, check_finite=False))
        except sla.LinAlgError:
            raise NotSPD("nonpositive pivot in factorization")
        piv = self._band[0]
        if not np.all(np.isfinite(piv) & (piv > 0.0)):
            raise NotSPD("nonpositive or non-finite pivot in factorization")

    def leading(self, n):
        """The factor of the leading n x n block of A: the first n columns of
        the band (Fortran order keeps them contiguous), shared, not copied."""
        if not 0 < n <= self._band.shape[1]:
            raise ValueError(f"leading block of {n} rows in a factor of {self._band.shape[1]}")
        block = object.__new__(SpdFactor)
        block._band = self._band[:, :n]
        return block

    def solve(self, b):
        """A^{-1} b for a vector or a column block."""
        return sla.cho_solve_banded((self._band, True), np.asarray(b, dtype=float),
                                    check_finite=False)

    def _dense(self, r0, r1, c0, c1):
        """Strided view of L[r0:r1, c0:c1].  In the Fortran-ordered band L[i, j]
        sits at flat offset i + j*bw; entries outside the band read other
        band entries and must not be used."""
        bw, item = self._band.shape[0] - 1, self._band.itemsize
        return np.ndarray((r1 - r0, c1 - c0), buffer=self._band,
                          offset=(r0 + c0 * bw) * item, strides=(item, bw * item))

    def gram(self, B, blocks=None):
        """B^T A^{-1} B = X^T X with X = L^{-1} B, for a sparse column block B.

        With `blocks`, a list of (rows, cols) sizes, it returns instead the
        list of the Grams of the leading blocks B[:rows, :cols], each against
        the leading rows x rows block of A, from the same pass.

        The forward half runs over dense row blocks of the band, as high as
        the band (k = bw + 1 rows): X_b = D_b^{-1} (B_b - P_b X_{b-1}), with
        D_b the diagonal triangle of L and P_b its strictly upper coupling to
        the previous block, one GEMM and one TRSM per block (on the transposes,
        where OpenBLAS solves faster).  The X_b^T of up to _STACK_ROWS rows on
        the same columns stay side by side in a stack Y and are added to the
        running sum S = X^T X together, Y Y^T in one SYRK, so neither X nor a
        dense B is ever stored.  The columns are taken in the order of their
        first nonzero row (X is zero above it), so each block works only on
        the prefix of columns that has reached it, whatever order the caller
        gives them in.  L[:rows, :rows] factors the leading block of A, so the
        Gram of a leading block is the running sum up to its last row:
        S[q, q] + Y[q, :j] Y[q, :j]^T, where q are its columns and the first
        j stacked rows reach down to that row.
        """
        B = sp.csr_matrix(B)
        if not B.has_canonical_format:
            B = B.copy()
            B.sum_duplicates()
        n, ncols = B.shape
        k = self._band.shape[0]
        wanted = [(n, ncols)] if blocks is None else list(blocks)
        due = {}
        for i, (r, c) in enumerate(wanted):
            if not (0 < r <= n and 0 <= c <= ncols):
                raise ValueError(f"no leading {r} x {c} block in a {n} x {ncols} block")
            due.setdefault((r - 1) // k * k, []).append(i)
        rows = np.repeat(np.arange(n), np.diff(B.indptr))
        first = np.full(ncols, n)
        np.minimum.at(first, B.indices, rows)
        order = np.argsort(first, kind="stable")
        first = first[order]
        rank = np.empty(ncols, dtype=np.int64)
        rank[order] = np.arange(ncols)
        cols = rank[B.indices]
        strict_upper = np.triu(np.ones((k, k)), 1)
        starts = np.arange(0, n, k)
        ends = np.minimum(starts + k, n)
        reach = np.searchsorted(first, ends)
        most = max(1, _STACK_ROWS // k) * k
        S = np.zeros((ncols, ncols))
        stack, used = np.zeros((0, 0)), 0
        Xt = stack
        grams = [None] * len(wanted)
        for r0, r1, p in zip(starts, ends, reach):
            if p > 0:
                if p != stack.shape[0] or used + r1 - r0 > stack.shape[1]:
                    Y = stack[:, :used]
                    S[:Y.shape[0], :Y.shape[0]] += Y @ Y.T
                    last = np.searchsorted(reach, p, side="right") - 1
                    stack = np.zeros((p, min(ends[last] - r0, most)), order="F")
                    used = 0
                s, e = B.indptr[r0], B.indptr[r1]
                Bt = stack[:, used:used + r1 - r0]
                Bt[cols[s:e], rows[s:e] - r0] = B.data[s:e]
                if Xt.shape[0] > 0:
                    P = self._dense(r0, r1, r0 - k, r0) * strict_upper[:r1 - r0]
                    Bt[:Xt.shape[0]] -= Xt @ P.T
                Xt = sla.blas.dtrsm(1.0, self._dense(r0, r1, r0, r1), Bt, side=1,
                                    lower=1, trans_a=1, overwrite_b=1)
                if Xt is not Bt:
                    Bt[...] = Xt
                    Xt = Bt
                used += r1 - r0
            for i in due.get(r0, ()):
                r, c = wanted[i]
                q = rank[:c]
                G = S[np.ix_(q, q)]
                live = q < stack.shape[0]
                Y = stack[q[live], :used - (r1 - r)]
                if live.all():
                    G += Y @ Y.T
                else:
                    G[np.ix_(live, live)] += Y @ Y.T
                grams[i] = G
        return grams[0] if blocks is None else grams


# rows of X = L^{-1} B that SpdFactor.gram stacks before adding them into S
_STACK_ROWS = 1024


def assemble_rhs(pair, kind, f):
    """Full-grid load vector for f(x, y) by 2x2 Gauss quadrature per element.

    For elasticity f must return a pair (f_x, f_y).
    """
    mesh = pair.fine
    h = mesh.h
    nb = nblock(kind)
    conn = mesh.elem_nodes
    x0 = mesh.coords[conn[:, 0]]                        # lower-left corners
    b_full = np.zeros(mesh.n_nodes * nb)
    for xi in _GAUSS:
        for eta in _GAUSS:
            N = _shape_vals(xi, eta)                    # (4,)
            xs = x0[:, 0] + xi * h
            ys = x0[:, 1] + eta * h
            w = 0.25 * h * h
            if kind == DIFFUSION:
                fv = np.asarray(f(xs, ys))
                contrib = w * fv[:, None] * N[None, :]
                np.add.at(b_full, conn, contrib)
            else:
                fx, fy = f(xs, ys)
                cx = w * np.asarray(fx)[:, None] * N[None, :]
                cy = w * np.asarray(fy)[:, None] * N[None, :]
                np.add.at(b_full, 2 * conn, cx)
                np.add.at(b_full, 2 * conn + 1, cy)
    return b_full


def reference_solve(pair, field, kind, f):
    """Fine-grid Galerkin reference solution; returns (padded solution, system, rhs_free)."""
    system = assemble(pair, field, kind)
    b = assemble_rhs(pair, kind, f)[system.dofs]
    u = SpdFactor(system.stiffness).solve(b)
    return system.pad(u), system, b


def energy_norm(A, v):
    return float(np.sqrt(max(v @ (A @ v), 0.0)))


def l2_norm(M, v):
    return float(np.sqrt(max(v @ (M @ v), 0.0)))


def relative_errors(u_ref, u_ms, A, M):
    """Relative energy and L2 errors of u_ms against u_ref (free-DOF vectors)."""
    d = u_ref - u_ms
    ea = energy_norm(A, d) / energy_norm(A, u_ref)
    el = l2_norm(M, d) / l2_norm(M, u_ref)
    return ea, el
