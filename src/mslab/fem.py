"""Q1 finite element kernels on structured meshes.

Element matrices, global/patch sparse assembly with homogeneous Dirichlet
elimination, a banded Cholesky factor for the SPD systems (patch and fine
grid alike: lexicographic DOFs on a box give a band one grid row wide), norms
and the fine-grid reference solution.
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


def element_stiffness(kind, coeff, h):
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


def _expand_dofs(nodes, nb):
    if nb == 1:
        return np.asarray(nodes, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    d = np.empty(nodes.size * nb, dtype=np.int64)
    for c in range(nb):
        d[c::nb] = nb * nodes + c
    return d


def assemble(pair, field, kind=DIFFUSION, patch=None):
    """Assemble stiffness and mass on the whole mesh or on a patch.

    Homogeneous Dirichlet rows/columns are eliminated: on the outer boundary
    for global assembly, on the patch boundary (and the outer boundary) for
    patch assembly.
    """
    mesh = pair.fine
    h = mesh.h
    nb = nblock(kind)
    if patch is None:
        elems = np.arange(mesh.n_elems)
        free_nodes = np.flatnonzero(~mesh.boundary)
    else:
        elems = patch.fine_elems
        free_nodes = patch.interior_nodes
    if free_nodes.size == 0:
        raise EmptySystem("assembly region has no free DOFs")

    conn = mesh.elem_nodes[elems]                       # (ne, 4)
    edofs = _expand_dofs(conn.ravel(), nb).reshape(len(elems), 4 * nb)

    if kind == ELASTICITY:
        coeff = tuple(c.ravel()[elems] for c in field.lame())
    else:
        coeff = field.per_elem()[elems]
    ke = element_stiffness(kind, coeff, h)
    me = np.broadcast_to(element_mass(h, kind), ke.shape)

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
    is not SPD.  Besides full solves, the factor applies its two triangular
    halves L^{-1} and L^{-T} (LAPACK tbtrs on the same band) and forms the
    energy Gram matrix B^T A^{-1} B of a sparse column block (gram).
    """

    def __init__(self, A):
        A = sp.csr_matrix(A, copy=True)
        A.sum_duplicates()
        A = A.tocoo()
        low = A.row >= A.col
        offset = A.row[low] - A.col[low]
        band = np.zeros((offset.max(initial=0) + 1, A.shape[0]))
        band[offset, A.col[low]] = A.data[low]
        try:
            self._band = np.asfortranarray(
                sla.cholesky_banded(band, lower=True, check_finite=False))
        except sla.LinAlgError:
            raise NotSPD("nonpositive pivot in factorization")
        piv = self._band[0]
        if not np.all(np.isfinite(piv) & (piv > 0.0)):
            raise NotSPD("nonpositive or non-finite pivot in factorization")

    def solve(self, b):
        """A^{-1} b for a vector or a column block."""
        return sla.cho_solve_banded((self._band, True), np.asarray(b, dtype=float),
                                    check_finite=False)

    def _tbtrs(self, b, trans):
        x, info = sla.lapack.dtbtrs(self._band, np.asarray(b, dtype=float),
                                    uplo="L", trans=trans)
        if info != 0:
            raise ValueError(f"dtbtrs failed with info={info}")
        return x

    def solve_lower(self, b):
        """L^{-1} b, the forward half of a solve."""
        return self._tbtrs(b, "N")

    def solve_upper(self, b):
        """L^{-T} b, the backward half of a solve."""
        return self._tbtrs(b, "T")

    def _dense(self, r0, r1, c0, c1):
        """Strided view of L[r0:r1, c0:c1].  In the Fortran-ordered band L[i, j]
        sits at flat offset i + j*bw; entries outside the band read other
        band entries and must not be used."""
        bw, item = self._band.shape[0] - 1, self._band.itemsize
        return np.ndarray((r1 - r0, c1 - c0), buffer=self._band,
                          offset=(r0 + c0 * bw) * item, strides=(item, bw * item))

    def gram(self, B):
        """B^T A^{-1} B = X^T X with X = L^{-1} B, for a sparse column block B.

        The forward half runs over dense row blocks of the band, as high as
        the band (k = bw + 1 rows): X_b = D_b^{-1} (B_b - P_b X_{b-1}), with
        D_b the diagonal triangle of L and P_b its strictly upper coupling to
        the previous block, one GEMM and one TRSM per block (on the transposes,
        where OpenBLAS solves faster); X_b^T X_b is added to the result at
        once, so neither X nor a dense B is ever stored.  Column c is zero
        above row min(first nonzero row of columns c, c+1, ...), so each block
        works only on the prefix of columns that has reached it.
        """
        B = sp.csr_matrix(B)
        if not B.has_canonical_format:
            B = B.copy()
            B.sum_duplicates()
        n, ncols = B.shape
        k = self._band.shape[0]
        rows = np.repeat(np.arange(n), np.diff(B.indptr))
        first = np.full(ncols, n)
        np.minimum.at(first, B.indices, rows)
        reach = np.minimum.accumulate(first[::-1])[::-1]
        strict_upper = np.triu(np.ones((k, k)), 1)
        S = np.zeros((ncols, ncols))
        Xt = np.zeros((0, k))
        for r0 in range(0, n, k):
            r1 = min(r0 + k, n)
            p = int(np.searchsorted(reach, r1))
            if p == 0:
                continue
            s, e = B.indptr[r0], B.indptr[r1]
            Bt = np.zeros((p, r1 - r0), order="F")
            Bt[B.indices[s:e], rows[s:e] - r0] = B.data[s:e]
            if Xt.shape[0] > 0:
                P = self._dense(r0, r1, r0 - k, r0) * strict_upper[:r1 - r0]
                Bt[:Xt.shape[0]] -= Xt @ P.T
            Xt = sla.blas.dtrsm(1.0, self._dense(r0, r1, r0, r1), Bt, side=1,
                                lower=1, trans_a=1, overwrite_b=1)
            S[:p, :p] += Xt @ Xt.T
        return S


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
