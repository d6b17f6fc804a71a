"""Generation, storage and file I/O of multiscale coefficient fields.

Coefficients are piecewise constant per fine element and stored as an (n, n)
array indexed [row, col] with row 0 at y = 0.  Background value is 1; the
contrast multiplies the background.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ChannelOverflow, ParseError


class CoefficientField:
    """Per-fine-element positive scalar field (kappa, or the shared Lame geometry)."""

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("field values must be a 2D array")
        if np.any(values <= 0.0):
            raise ValueError("coefficient values must be positive")
        self.values = values
        self.contrast = float(values.max() / values.min())

    @property
    def n(self):
        return self.values.shape[0]

    def per_elem(self):
        """Flat per-fine-element values in element-index order (x fastest)."""
        return self.values.ravel()

    def lame(self):
        """Lame pair for elasticity; lambda and mu share this geometry."""
        return self.values, self.values


@dataclass
class ChannelSpec:
    """Horizontal high-value channels: length in coarse cells, thickness in fine cells."""

    length_coarse: int
    thickness_fine: int = 3
    count: int = 5
    seed: int = 0
    contrast: float = 1e4


def gen_inclusions(pair, density, contrast, seed, streak_len=(1, 3)):
    """Scatter high-value rectangular blocks on background 1.

    Plain blocks are 2 to 5 fine cells a side.  About 30% of the blocks are
    elongated streaks whose length is drawn from streak_len (in coarse-cell
    units), so the field has features crossing coarse-element boundaries.
    Reproducible per seed; covered area fraction ~ density.
    """
    if not 0.0 <= density < 1.0:
        raise ValueError("density must be in [0, 1)")
    if contrast < 1.0:
        raise ValueError("contrast must be >= 1")
    n = pair.fine.n
    r = pair.r
    values = np.ones((n, n))
    if density > 0.0 and contrast > 1.0:
        rng = np.random.default_rng(seed)
        target = density * n * n
        covered = 0.0
        mask = np.zeros((n, n), dtype=bool)
        while covered < target:
            if rng.random() < 0.3:
                w = int(rng.integers(streak_len[0] * r, streak_len[1] * r + 1))
                t = int(rng.integers(2, max(3, r // 3) + 1))
                bw, bh = (w, t) if rng.random() < 0.5 else (t, w)
            else:
                bw = int(rng.integers(2, 6))
                bh = int(rng.integers(2, 6))
            i0 = int(rng.integers(0, max(1, n - bw)))
            j0 = int(rng.integers(0, max(1, n - bh)))
            mask[j0:j0 + bh, i0:i0 + bw] = True
            covered = mask.sum()
        values[mask] = contrast
    return CoefficientField(values)


def gen_channels(pair, spec):
    """Horizontal channels of length_coarse coarse cells at deterministic rows.

    Channels are centered horizontally, so growing the length only extends the
    same channels; rows are drawn once from the seed, independent of length.
    """
    N = pair.coarse.n
    n = pair.fine.n
    r = pair.r
    c = int(spec.length_coarse)
    if c < 1:
        raise ValueError("channel length must be >= 1 coarse cell")
    if c > N:
        raise ChannelOverflow(f"channel of {c} coarse cells exceeds domain width {N}")
    if spec.thickness_fine < 1 or spec.thickness_fine > r:
        raise ValueError("channel thickness must be between 1 and r fine cells")
    rng = np.random.default_rng(spec.seed)
    rows = rng.choice(N, size=min(spec.count, N), replace=False)
    i0 = ((N - c) // 2) * r
    i1 = i0 + c * r
    values = np.ones((n, n))
    off = (r - spec.thickness_fine) // 2
    for row in sorted(int(q) for q in rows):
        j0 = row * r + off
        values[j0:j0 + spec.thickness_fine, i0:i1] = spec.contrast
    return CoefficientField(values)


def save_field(field, path):
    """Write the ASCII grid format: 'ncols nrows' then nrows lines, y=0 first."""
    v = field.values
    nrows, ncols = v.shape
    with open(path, "w") as f:
        f.write(f"{ncols} {nrows}\n")
        for row in v:
            f.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def load_field(path):
    """Read the ASCII grid format written by save_field."""
    with open(path) as f:
        header = f.readline()
        if not header:
            raise ParseError("empty file", line=1)
        parts = header.split()
        if len(parts) != 2:
            raise ParseError("header must be 'ncols nrows'", line=1)
        try:
            ncols, nrows = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("header must contain two integers", line=1)
        if ncols < 1 or nrows < 1:
            raise ParseError("grid dimensions must be positive", line=1)
        values = np.empty((nrows, ncols))
        for j in range(nrows):
            line = f.readline()
            if not line:
                raise ParseError("unexpected end of file", line=2 + j)
            toks = line.split()
            if len(toks) != ncols:
                raise ParseError(f"expected {ncols} values, got {len(toks)}",
                                 line=2 + j, column=len(toks) + 1)
            try:
                values[j] = [float(t) for t in toks]
            except ValueError as exc:
                raise ParseError(f"bad number: {exc}", line=2 + j)
    if np.any(values <= 0.0):
        raise ParseError("coefficient values must be positive", line=2)
    return CoefficientField(values)
