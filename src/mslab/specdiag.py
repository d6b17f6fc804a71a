"""Spectral oracles and theory checks: local eigenproblems, subspace and
Krylov iteration diagnostics, principal angles, and the interpolation bound.

Eigenproblems are posed on the pencil M v = lambda A v, so the eigenvalues are
those of the local solution operator directly (descending lambda convention).
"""

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem, msbasis
from .msbasis import m_orthonormalize

DENSE_CAP = 4000


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


def local_eig(sys, count, cap=DENSE_CAP):
    """Leading eigenpairs of M_omega v = lambda A_omega v.

    Dense (Cholesky reduction inside eigh, computing only the `count` largest
    pairs) up to `cap` DOFs, Lanczos above.
    """
    ndof = sys.ndof
    if count < 1 or count > ndof:
        raise ValueError("eigenpair count out of range")
    if ndof <= cap:
        w, v = sla.eigh(sys.M.toarray(), sys.A.toarray(),
                        subset_by_index=[ndof - count, ndof - 1])
        return EigPairs(w[::-1], v[:, ::-1])
    w, v = spla.eigsh(sys.M.tocsc(), k=count, M=sys.A.tocsc(), which="LM")
    order = np.argsort(w)[::-1]
    return EigPairs(w[order], v[:, order])


@dataclass
class ArnoldiResult:
    basis: np.ndarray          # orthonormal columns (in the chosen inner product)
    hess: np.ndarray           # (j+1) x j Hessenberg data
    ritz_values: np.ndarray
    breakdown: bool


def arnoldi(op, x1, l, inner=None):
    """Arnoldi orthogonalization of the Krylov space of `op`, plus Ritz pairs.

    `inner` is an optional SPD matrix defining the inner product (pass the
    patch stiffness for the pencil, making the operator self-adjoint and the
    Hessenberg matrix tridiagonal).
    """
    dot = (lambda u, v: float(u @ v)) if inner is None else \
        (lambda u, v: float(u @ (inner @ v)))
    x1 = np.asarray(x1, dtype=float)
    nrm = np.sqrt(dot(x1, x1))
    if nrm == 0.0:
        raise ValueError("zero start vector")
    V = [x1 / nrm]
    H = np.zeros((l, l))
    breakdown = False
    j = 0
    for j in range(l - 1):
        w = op(V[j])
        for i in range(j + 1):
            H[i, j] = dot(w, V[i])
            w = w - H[i, j] * V[i]
        h = np.sqrt(max(dot(w, w), 0.0))
        H[j + 1, j] = h
        if h <= 1e-14 * max(1.0, abs(H[: j + 1, j]).max()):
            breakdown = True
            break
        V.append(w / h)
    k = len(V)
    Vm = np.column_stack(V)
    Hm = H[:k, :k]
    # last column of the square Hessenberg: projections of op(v_k)
    w = op(V[-1])
    for i in range(k):
        Hm[i, k - 1] = dot(w, V[i])
    w_ritz = np.sort(np.linalg.eig(Hm)[0].real)[::-1]
    return ArnoldiResult(Vm, H[: k + 1, :k], w_ritz, breakdown)


@dataclass
class AngleReport:
    angles: np.ndarray

    @property
    def max_angle(self):
        return float(self.angles.max()) if self.angles.size else 0.0


def principal_angles(U, V, inner=None):
    """Canonical angles between span(U) and span(V) in the given inner product."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if U.shape[0] == 1:
        U = U.T
    if V.shape[0] == 1:
        V = V.T
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


def _lumped_mass_inverse(M):
    d = np.asarray(M.sum(axis=1)).ravel()
    return 1.0 / d


def check_interp_bound(systems, pou, eigs, u_full, global_system):
    """Evaluate both sides of the eigenfunction-interpolation energy bound.

    eigs[i] holds the leading L+1 eigenpairs of systems[i] (from local_eig).
    lhs = energy norm of u minus its local-eigenfunction interpolant; rhs =
    sqrt(max_i lambda_i^{L+1}) * sum_i ||discrete-operator(chi_i u)||_{L2},
    with the discrete operator realized as lumped-mass-inverse times stiffness
    on each patch; global_system is the fine-grid system the energy norm is
    taken in.  Returns (lhs, rhs).
    """
    nb = fem.nblock(global_system.kind)
    u_full = np.asarray(u_full, dtype=float)
    interp = np.zeros_like(u_full)
    lam_next = 0.0
    rhs_sum = 0.0
    for i, (sys, eig) in enumerate(zip(systems, eigs)):
        chi = pou.dense(i)
        chi_dof = np.repeat(chi, nb) if nb > 1 else chi
        w_full = chi_dof * u_full
        w = sys.restrict(w_full)
        L = eig.count - 1
        lam_next = max(lam_next, eig.values[L])
        phi = eig.l2_normalized()[:, :L]
        coeffs = phi.T @ (sys.M @ w)
        contrib = phi @ coeffs
        dofs = sys.patch.interior_dofs(nb)
        interp[dofs] += contrib
        g = _lumped_mass_inverse(sys.M) * (sys.A @ w)
        rhs_sum += fem.l2_norm(sys.M, g)
    d = (u_full - interp)[global_system.dofs]
    lhs = fem.energy_norm(global_system.stiffness, d)
    rhs = np.sqrt(lam_next) * rhs_sum
    return lhs, rhs


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
        blocks = map(np.column_stack, itertools.accumulate([psi] for psi in chain))
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
