"""Correctness checks run after the timed span of a study.

They test properties and independent recomputations, never stored outputs.
The stiffness, mass and load are assembled here element by element from the
coefficient array the benchmark wrote, with Q1 element matrices integrated
by 2x2 Gauss quadrature, so no matrix of the program under test is reused.
Node (i, j) of an n x n fine mesh has index j*(n+1)+i, element (i, j) takes
the coefficient values[j, i].
"""

import csv
import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from workloads import method_labels

RESIDUAL_TOL = 1e-8       # reference solve, measured up to 7.3e-10 (desk)
# |a(u,u) - a(u_ms,u_ms) - a(e,e)| / a(u,u); the coarse solve loses about
# eps * cond(coarse matrix), measured up to 4.3e-7 (channel, lksi-4)
GALERKIN_TOL = 1e-5
ERROR_RTOL = 1e-6         # results.csv keeps 11 significant digits
RITZ_RTOL = 1e-9
ANGLE_TOL = 1e-9          # rounding slack on the angle tables

_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))     # counter-clockwise from lower-left
_GAUSS = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


def _shape(x, y):
    """Values and reference gradients of the four bilinear shapes at (x, y)."""
    vals, grads = [], []
    for cx, cy in _CORNERS:
        sx, dx = (x, 1.0) if cx else (1.0 - x, -1.0)
        sy, dy = (y, 1.0) if cy else (1.0 - y, -1.0)
        vals.append(sx * sy)
        grads.append((dx * sy, sx * dy))
    return np.array(vals), np.array(grads)


def q1_element():
    """Unit-coefficient element stiffness and unit-size element mass (4 x 4)."""
    K = np.zeros((4, 4))
    M = np.zeros((4, 4))
    for x in _GAUSS:
        for y in _GAUSS:
            v, g = _shape(x, y)
            K += 0.25 * g @ g.T          # gradients scale 1/h, area h^2
            M += 0.25 * np.outer(v, v)
    return K, M


def assemble(values, box=None, rhs=None):
    """Stiffness, mass (and load) on the free nodes of a box of fine elements.

    box = (i0, i1, j0, j1) is a half-open range of fine elements, the whole
    mesh by default.  Free nodes lie strictly inside the box and off the
    domain boundary.  Returns (A, M, free_nodes, b or None).
    """
    n = values.shape[0]
    h = 1.0 / n
    i0, i1, j0, j1 = box or (0, n, 0, n)
    K, Mu = q1_element()
    rows, cols, kv, mv = [], [], [], []
    b_full = np.zeros((n + 1) ** 2) if rhs is not None else None
    gauss = [(x, y, _shape(x, y)[0]) for x in _GAUSS for y in _GAUSS]
    for j in range(j0, j1):
        for i in range(i0, i1):
            nodes = [(j + cy) * (n + 1) + i + cx for cx, cy in _CORNERS]
            for a in range(4):
                for c in range(4):
                    rows.append(nodes[a])
                    cols.append(nodes[c])
                    kv.append(values[j, i] * K[a, c])
                    mv.append(h * h * Mu[a, c])
            if rhs is not None:
                for x, y, v in gauss:
                    b_full[nodes] += 0.25 * h * h * rhs((i + x) * h, (j + y) * h) * v
    size = (n + 1) ** 2
    A = sp.coo_matrix((kv, (rows, cols)), shape=(size, size)).tocsr()
    M = sp.coo_matrix((mv, (rows, cols)), shape=(size, size)).tocsr()
    gi, gj = np.meshgrid(np.arange(max(i0 + 1, 1), min(i1, n - 1) + 1),
                         np.arange(max(j0 + 1, 1), min(j1, n - 1) + 1), indexing="xy")
    free = (gj * (n + 1) + gi).ravel()
    b = None if rhs is None else b_full[free]
    return A[free][:, free].tocsr(), M[free][:, free].tocsr(), free, b


def load(x, y):
    return math.sin(math.pi * x) * math.sin(math.pi * y)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class Report:
    """Named pass/fail results with a short detail each."""

    def __init__(self):
        self.items = []

    def check(self, name, ok, detail=""):
        self.items.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.items)

    def failures(self):
        return [f"{name}: {detail}" for name, ok, detail in self.items if not ok]


def reference_problem(values):
    A, _, free, b = assemble(values, rhs=load)
    return A, free, b


def check_solve(shape, values, rows, u_ref_pad, solutions):
    """Checks of one `solve` study.

    rows are the records of results.csv; u_ref_pad and solutions[label] are
    full fine-grid vectors.  Returns (report, {label: recomputed e_energy}).
    """
    report = Report()
    A, free, b = reference_problem(values)
    u = np.asarray(u_ref_pad)[free]
    res = np.linalg.norm(A @ u - b) / np.linalg.norm(b)
    report.check("reference residual", res <= RESIDUAL_TOL, f"{res:.3e}")

    labels = method_labels(shape)
    report.check("one row per method", [r["method"] for r in rows] == labels,
                 str([r["method"] for r in rows]))
    n_patches = shape["H"] ** 2
    uAu = u @ (A @ u)
    errors = {}
    for r in rows:
        label = r["method"]
        if label not in solutions:
            report.check(f"{label} solution", False, "missing")
            continue
        ums = np.asarray(solutions[label])[free]
        d = u - ums
        dAd = d @ (A @ d)
        dev = abs(uAu - ums @ (A @ ums) - dAd) / uAu
        report.check(f"{label} Galerkin identity", dev <= GALERKIN_TOL, f"{dev:.3e}")
        e = math.sqrt(dAd / uAu)
        e_csv = float(r["e_energy"])
        report.check(f"{label} e_energy recomputed",
                     abs(e_csv - e) <= ERROR_RTOL * e, f"csv {e_csv:.6e} vs {e:.6e}")
        report.check(f"{label} e_energy in (0, 1)", 0.0 < e_csv < 1.0, f"{e_csv:.3e}")
        errors[label] = e

        dof, nolp = int(r["DoF"]), int(r["NoLP"])
        name, _, n = label.partition("-")
        n = int(n) if n else 1
        if name in ("lod", "lssi"):
            want_nolp = 4 * n_patches * (n if name == "lssi" else 1)
            ok = dof == 4 * n_patches and nolp == want_nolp
        else:
            ok = 1 <= dof <= n * n_patches and nolp <= n * n_patches
        report.check(f"{label} DoF and NoLP", ok,
                     f"DoF {dof}, NoLP {nolp}, {n_patches} patches")
    return report, errors


def _patch_box(shape, center):
    """Half-open fine-element range of the patch around a coarse cell."""
    N, m = shape["H"], shape["m"]
    r = shape["h"] // N
    ci, cj = center % N, center // N
    lo_i, hi_i = max(ci - m, 0), min(ci + m, N - 1)
    lo_j, hi_j = max(cj - m, 0), min(cj + m, N - 1)
    return lo_i * r, (hi_i + 1) * r, lo_j * r, (hi_j + 1) * r


def check_eig_diag(shape, values, out, n_max=6, n_check=10):
    """Checks of the three eig-diag tables in `out`.

    Returns (report, relative energy error of the eigenfunction interpolant
    of the reference solution, row 0 of interp_bound.csv).
    """
    report = Report()
    n_patches = shape["H"] ** 2

    angles = read_csv(out / "angles.csv")
    report.check("angle rows", len(angles) == 2 * n_max * n_patches, str(len(angles)))
    bad = [a for a in angles if not -ANGLE_TOL <= float(a["angle"]) <= math.pi / 2 + ANGLE_TOL]
    report.check("angles in [0, pi/2]", not bad, f"{len(bad)} outside")
    chains = {}
    for a in angles:
        if a["method"] == "lksi":
            chains.setdefault(a["patch"], []).append((int(a["round"]), float(a["angle"])))
    rising = 0
    for chain in chains.values():
        chain.sort()
        rising += sum(b > a + ANGLE_TOL for (_, a), (_, b) in zip(chain, chain[1:]))
    report.check("lksi angles never increase", rising == 0, f"{rising} increases")

    bound = read_csv(out / "interp_bound.csv")
    report.check("interp_bound rows", len(bound) == n_check, str(len(bound)))
    over = [r for r in bound if float(r["lhs"]) > float(r["rhs"])]
    report.check("interp bound lhs <= rhs", not over, f"{len(over)} rows violate")

    A, free, b = reference_problem(values)
    u = spla.spsolve(A.tocsc(), b)
    e_interp = float(bound[0]["lhs"]) / math.sqrt(b @ u) if bound else float("nan")
    report.check("interpolant error in (0, 1)", 0.0 < e_interp < 1.0, f"{e_interp:.3e}")

    ritz = read_csv(out / "ritz.csv")
    by_patch = {}
    for r in ritz:
        by_patch.setdefault(int(r["patch"]), []).append(float(r["ritz_value"]))
    report.check("ritz patches", sorted(by_patch) == list(range(min(4, n_patches))),
                 str(sorted(by_patch)))
    for center, vals in sorted(by_patch.items()):
        Ap, Mp, _, _ = assemble(values, box=_patch_box(shape, center))
        top = sla.eigh(Mp.toarray(), Ap.toarray(), eigvals_only=True,
                       subset_by_index=[Ap.shape[0] - 1, Ap.shape[0] - 1])[0]
        high = max(vals)
        report.check(f"patch {center} Ritz values <= largest eigenvalue",
                     high <= top * (1.0 + RITZ_RTOL), f"{high:.6e} vs {top:.6e}")
    return report, e_interp
