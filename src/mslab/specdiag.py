"""Spectral oracles and theory checks: local eigenproblems, the Ritz values
and rates of the msbasis kernels, principal angles, the interpolation bound.

Eigenproblems are posed on the pencil M v = lambda A v, so the eigenvalues are
those of the local solution operator directly (descending lambda convention).
eig-diag takes them from lanczos_eig, checked against the dense local_eig:
eigenvalues agree to about 1e-11 relative, and either may return any basis of
a repeated eigenspace.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem, msbasis
from .msbasis import m_orthonormalize


@dataclass
class EigPairs:
    """Leading eigenpairs of a patch pencil, descending, A-orthonormal vectors."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def count(self):
        return self.values.size

    def l2_normalized(self):
        """Vectors rescaled to unit L2 (mass) norm: v^T M v = lambda for A-normal v."""
        return self.vectors / np.sqrt(self.values)[None, :]


def local_eig(sys, count):
    """Leading eigenpairs of M_omega v = lambda A_omega v, dense reference
    (Cholesky reduction inside eigh, computing only the `count` largest)."""
    ndof = sys.ndof
    if count < 1 or count > ndof:
        raise ValueError("eigenpair count out of range")
    w, v = sla.eigh(sys.M.toarray(), sys.A.toarray(),
                    subset_by_index=[ndof - count, ndof - 1])
    return EigPairs(w[::-1], v[:, ::-1])


def lanczos_eig(sys, count):
    """The pairs of local_eig for 1 <= count < ndof by implicitly restarted
    Lanczos (ARPACK), applying A^{-1} by the patch's own factor (sys.solve).
    The fixed-seed random start gives the same bits every call and, unlike a
    symmetric one, meets both members of a symmetric patch's repeated pair."""
    n = sys.ndof
    if count < 1 or count >= n:
        raise ValueError("eigenpair count out of range")
    inv = spla.LinearOperator((n, n), matvec=sys.solve, dtype=float)
    w, v = spla.eigsh(sys.M, k=count, M=sys.A, Minv=inv, which="LM", tol=0,
                      v0=np.random.default_rng(0).standard_normal(n))
    order = np.argsort(w)[::-1]
    return EigPairs(w[order], v[:, order])


def ritz_values(sys, steps):
    """Ritz values of M v = lambda A v on the patch's lksi-`steps` basis
    (lksi_block of each seed chain's first `steps` iterates, fewer if one
    stops), descending; Q^T M Q stays in, as Gram-Schmidt leaves it ~1e-10 off I."""
    seed = msbasis.method_seed(sys, msbasis.LKSI)
    Q = msbasis.lksi_block(sys.M, [list(itertools.islice(msbasis.lksi_kernel(sys, col), steps))
                                   for col in seed.T])
    return sla.eigh(Q.T @ (sys.M @ Q), Q.T @ (sys.A @ Q), eigvals_only=True)[::-1]


@dataclass
class AngleReport:
    angles: np.ndarray

    @property
    def max_angle(self):
        return float(self.angles.max()) if self.angles.size else 0.0


def principal_angles(U, V, inner=None):
    """Canonical angles between the column spans of U and V in an inner product."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    W = sp.identity(U.shape[0], format="csr") if inner is None else inner
    Uq, _ = m_orthonormalize(W, U, drop_tol=1e-13)
    Vq, _ = m_orthonormalize(W, V, drop_tol=1e-13)
    cross = Uq.T @ (W @ Vq)
    s = np.linalg.svd(cross, compute_uv=False)
    k = min(Uq.shape[1], Vq.shape[1])
    s = np.clip(s[:k], 0.0, 1.0)
    angles = np.arccos(s)
    # cosine-based angles lose accuracy near zero; recompute the small ones
    # from the orthogonal residual (sine formulation)
    small = angles < 0.5
    if np.any(small):
        R = Vq - Uq @ cross
        G = R.T @ (W @ R)
        G = 0.5 * (G + G.T)
        sines = np.sqrt(np.clip(np.sort(np.linalg.eigvalsh(G))[:k], 0.0, 1.0))
        fine = np.arcsin(sines)
        angles[small] = fine[small]
    return AngleReport(angles)


def interp_term(sys, chi, eig, u_full):
    """One patch's terms of the eigenfunction-interpolation energy bound, for
    its partition-of-unity weight chi (on the fine nodes) and its leading L+1
    eigenpairs eig: (the interpolant of chi u on the patch's interior DOFs,
    from the L2-normalized leading L eigenvectors; the L2 norm of the
    discrete operator, lumped-mass-inverse times stiffness, on chi u)."""
    w = sys.system.restrict(np.repeat(chi, fem.nblock(sys.system.kind)) * u_full)
    phi = eig.l2_normalized()[:, :eig.count - 1]
    g = (1.0 / np.asarray(sys.M.sum(axis=1)).ravel()) * (sys.A @ w)
    return phi @ (phi.T @ (sys.M @ w)), fem.l2_norm(sys.M, g)


def interp_bound(patches, terms, lam_next, u_full, global_system):
    """Both sides of the bound from the patches' interp_terms, summed in
    patch order, and lam_next = max_i lambda_i^{L+1}: lhs = energy norm (of
    the fine-grid global_system) of u minus the summed interpolant; rhs =
    sqrt(lam_next) times the summed norms.  Returns (lhs, rhs)."""
    nb = fem.nblock(global_system.kind)
    interp, rhs_sum = np.zeros_like(u_full), 0.0
    for patch, (contrib, norm) in zip(patches, terms):
        interp[patch.interior_dofs(nb)] += contrib
        rhs_sum += norm
    d = (u_full - interp)[global_system.dofs]
    return fem.energy_norm(global_system.stiffness, d), np.sqrt(lam_next) * rhs_sum


def check_interp_bound(systems, pou, eigs, u_full, global_system):
    """Both sides (lhs, rhs) of the eigenfunction-interpolation energy bound,
    eigs[i] holding the leading L+1 eigenpairs of systems[i]: interp_term on
    every patch, summed by interp_bound."""
    terms = [interp_term(sys, pou.dense(i), eig, u_full)
             for i, (sys, eig) in enumerate(zip(systems, eigs))]
    return interp_bound([sys.patch for sys in systems], terms,
                        max(eig.values[-1] for eig in eigs), u_full, global_system)


@dataclass
class RateReport:
    """Observed angle decay on one patch against the predicted envelopes."""

    method: str
    rounds: np.ndarray
    angles: np.ndarray
    envelope: np.ndarray
    gap: float
    fitted_rate: float = None
    clustered: bool = False

    def rows(self):
        return list(zip(self.rounds, self.angles, self.envelope))


def _fit_rate(rounds, angles):
    """Log-linear least squares over the final two-thirds of the rounds."""
    mask = (angles > 0) & np.isfinite(np.log(np.maximum(angles, 1e-300)))
    r = np.asarray(rounds, dtype=float)[mask]
    a = np.asarray(angles, dtype=float)[mask]
    if r.size < 2:
        return None
    start = r.size // 3
    r, a = r[start:], a[start:]
    if r.size < 2:
        return None
    slope = np.polyfit(r, np.log(a), 1)[0]
    return float(np.exp(slope))


def rate_report(sys, eig, n_max, method="lssi"):
    """Per-round principal angles of a method's iterated local space to the
    leading eigenspace, with the eigenvalue-ratio envelope.

    eig holds the leading L+1 eigenpairs of the patch pencil; L is the LSSI
    block width, or 1 to follow LKSI towards the leading eigenvector.  The
    rounds come from the method's iteration kernel and seed in msbasis, so
    they are the iterates its basis is built from; an LKSI chain that breaks
    down or stagnates ends the table early.
    """
    L = eig.count - 1
    lead = eig.vectors[:, :L]
    gap = float(eig.values[L] / eig.values[L - 1])
    gamma = (eig.values[:-1] - eig.values[1:]) / eig.values[1:]
    clustered = bool(np.any(gamma < 1e-10))

    seed = msbasis.method_seed(sys, method)
    if method == msbasis.LSSI:
        blocks = msbasis.lssi_kernel(sys, seed)
    elif method == msbasis.LKSI:
        chain = msbasis.lksi_kernel(sys, seed[:, 0])
        blocks = map(np.column_stack, itertools.accumulate([psi] for psi, _ in chain))
    else:
        raise ValueError(f"unknown method: {method}")
    rounds, angles = [], []
    for n, block in enumerate(itertools.islice(blocks, n_max), 1):
        target = lead if method == msbasis.LSSI else lead[:, :min(n, L)]
        rounds.append(n)
        angles.append(principal_angles(block, target, inner=sys.M).max_angle)

    rounds = np.asarray(rounds)
    angles = np.asarray(angles)
    if angles.size and angles[0] > 0 and gap > 0:
        envelope = angles[0] * gap ** (rounds - rounds[0])
    else:
        envelope = np.full(rounds.shape, np.nan)
    fitted = None
    if n_max > 1 and not clustered:
        fitted = _fit_rate(rounds, angles)
    return RateReport(method, rounds, angles, envelope, gap,
                      fitted_rate=fitted, clustered=clustered)
