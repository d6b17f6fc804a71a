"""Spectral oracles and theory checks: local eigenproblems, the Ritz values
and rates of the msbasis kernels, principal angles, the interpolation bound.

Eigenproblems are posed on the pencil M v = lambda A v, so the eigenvalues are
those of the local solution operator directly (descending lambda convention).
eig-diag takes them from lanczos_eig, Lanczos in standard form on
L^{-1} M L^{-T} with A = L L^T the patch's banded factor, applied by the
two triangular halves of its solve; it is checked against the dense
local_eig: eigenvalues agree to about 1e-11 relative, and either may return
any basis of a repeated eigenspace.
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
    Lanczos (ARPACK) in standard form, on C = L^{-1} M L^{-T} with A = L L^T
    the patch's banded factor: C has the pencil's eigenvalues, and its
    orthonormal eigenvectors y give the A-orthonormal v = L^{-T} y.  L^{-1}
    and L^{-T} are the two halves of the factor's solve (sys.forward,
    sys.back), so each Lanczos step is a back half, a mass product and a
    forward half.  The fixed-seed random start gives the same bits every
    call and, unlike a symmetric one, meets both members of a symmetric
    patch's repeated pair."""
    n = sys.ndof
    if count < 1 or count >= n:
        raise ValueError("eigenpair count out of range")
    op = spla.LinearOperator((n, n), matvec=lambda y: sys.forward(sys.M @ sys.back(y)),
                             dtype=float)
    w, y = spla.eigsh(op, k=count, which="LM", tol=0,
                      v0=np.random.default_rng(0).standard_normal(n))
    order = np.argsort(w)[::-1]
    return EigPairs(w[order], np.column_stack([sys.back(col) for col in y[:, order].T]))


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
    return _angles(W, Uq, Vq, W @ Vq)


def _angles(W, Uq, Vq, WVq):
    """principal_angles of W-orthonormal Uq and Vq, given WVq = W Vq."""
    cross = Uq.T @ WVq
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


def interp_terms(sys, chi, eig, us):
    """One patch's terms of the eigenfunction-interpolation energy bound, for
    its partition-of-unity weight chi (on the fine nodes), its leading L+1
    eigenpairs eig and each instance u in `us` (on the full fine DOFs):
    (the interpolant of chi u on the patch's interior DOFs, from the
    L2-normalized leading L eigenvectors; the L2 norm of the discrete
    operator, lumped-mass-inverse times stiffness, on chi u).  The lumped
    mass and the normalized eigenvectors are formed once; each instance
    gets the bits it would get alone."""
    weight = np.repeat(chi, fem.nblock(sys.system.kind))
    phi = eig.l2_normalized()[:, :eig.count - 1]
    inv_lumped = 1.0 / np.asarray(sys.M.sum(axis=1)).ravel()
    terms = []
    for u in us:
        w = sys.system.restrict(weight * u)
        g = inv_lumped * (sys.A @ w)
        terms.append((phi @ (phi.T @ (sys.M @ w)), fem.l2_norm(sys.M, g)))
    return terms


def interp_bound(patches, terms, lam_next, u_full, global_system):
    """Both sides of the bound from the patches' interp_terms for one
    instance u_full, summed in patch order, and lam_next = max_i
    lambda_i^{L+1}: lhs = energy norm (of the fine-grid global_system) of u
    minus the summed interpolant; rhs = sqrt(lam_next) times the summed
    norms.  Returns (lhs, rhs)."""
    nb = fem.nblock(global_system.kind)
    interp, rhs_sum = np.zeros_like(u_full), 0.0
    for patch, (contrib, norm) in zip(patches, terms):
        interp[patch.interior_dofs(nb)] += contrib
        rhs_sum += norm
    d = (u_full - interp)[global_system.dofs]
    return fem.energy_norm(global_system.stiffness, d), np.sqrt(lam_next) * rhs_sum


def check_interp_bound(systems, pou, eigs, u_full, global_system):
    """Both sides (lhs, rhs) of the eigenfunction-interpolation energy bound,
    eigs[i] holding the leading L+1 eigenpairs of systems[i]: interp_terms on
    every patch, summed by interp_bound."""
    terms = [interp_terms(sys, pou.dense(i), eig, [u_full])[0]
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
    down or stagnates ends the table early.  The eigenvectors are
    M-orthonormalized once, with their M product, for every round; an LSSI
    round's block is M-orthonormalized for its angle, and LKSI rounds take
    the chain's own q's, what M-orthonormalizing its iterates would give.
    """
    L = eig.count - 1
    gap = float(eig.values[L] / eig.values[L - 1])
    gamma = (eig.values[:-1] - eig.values[1:]) / eig.values[1:]
    clustered = bool(np.any(gamma < 1e-10))

    seed = msbasis.method_seed(sys, method)
    if method == msbasis.LSSI:
        blocks = (m_orthonormalize(sys.M, Phi, drop_tol=1e-13)[0]
                  for Phi in msbasis.lssi_kernel(sys, seed))
    elif method == msbasis.LKSI:
        chain = msbasis.lksi_kernel(sys, seed[:, 0])
        blocks = map(np.column_stack, itertools.accumulate([q] for _, q in chain))
    else:
        raise ValueError(f"unknown method: {method}")
    target, _ = m_orthonormalize(sys.M, eig.vectors[:, :L], drop_tol=1e-13)
    m_target = sys.M @ target
    rounds, angles = [], []
    for n, Uq in enumerate(itertools.islice(blocks, n_max), 1):
        j = L if method == msbasis.LSSI else min(n, L)
        rounds.append(n)
        # C-contiguous, as a fresh M-orthonormalization leaves the target:
        # the bits of the dense products depend on the layout
        angles.append(_angles(sys.M, Uq, np.ascontiguousarray(target[:, :j]),
                              np.ascontiguousarray(m_target[:, :j])).max_angle)

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
