"""Workload definitions: the problem each workload poses and the inputs a seed makes.

Every workload is a fixed coefficient field (its generator and field seed are
part of the workload) turned by one of the eight symmetries of the unit
square, chosen by the benchmark seed.  The Q1 meshes, the oversampling
patches, the load sin(pi x) sin(pi y) and every basis construction are
invariant under those symmetries, so the eight inputs pose the same problem:
the work and the errors agree to rounding, while the coefficient arrays the
program reads differ.  Drawing a fresh field per seed was measured and
rejected: across field seeds 1-5 the desk LOD error ranges over 0.037-0.30,
and across channel rows the channel lssi-2 error over 0.27-0.78.
"""

import numpy as np

SOLVE = "solve"
EIG_DIAG = "eig-diag"

# name -> shape; "field" holds the arguments of the mslab generator
WORKLOADS = {
    "desk": {
        "command": SOLVE, "H": 10, "h": 100, "m": 4,
        "methods": "lod, lssi-1, lssi-2, lssi-4, lksi-4",
        "field": {"generator": "inclusions", "density": 0.12, "contrast": 1e4,
                  "seed": 1},
    },
    "channel": {
        "command": SOLVE, "H": 20, "h": 100, "m": 5,
        "methods": "lssi-2, lksi-4",
        "field": {"generator": "channels", "length": 10, "thickness": 1,
                  "count": 1, "contrast": 1e4, "seed": 16},
    },
    "eig-diag": {
        "command": EIG_DIAG, "H": 8, "h": 40, "m": 2, "methods": None,
        "field": {"generator": "inclusions", "density": 0.12, "contrast": 1e4,
                  "seed": 1},
    },
}


def operations(shape):
    """Operations one study attempts: a coarse solution per method, or the
    three eig-diag tables."""
    if shape["command"] == EIG_DIAG:
        return 3
    return len(method_labels(shape))


def method_labels(shape):
    return [t.strip().lower() for t in shape["methods"].split(",")]


def make_field_values(shape):
    """The workload's untransformed coefficient array, from the mslab generators."""
    from mslab import coeff, grid

    pair = grid.NestedPair(shape["H"], shape["h"])
    f = shape["field"]
    if f["generator"] == "inclusions":
        field = coeff.gen_inclusions(pair, f["density"], f["contrast"], f["seed"])
    else:
        field = coeff.gen_channels(pair, coeff.ChannelSpec(
            length_coarse=f["length"], thickness_fine=f["thickness"],
            count=f["count"], seed=f["seed"], contrast=f["contrast"]))
    return field.values


def symmetry(values, seed):
    """Apply symmetry seed % 8 of the square: a rotation by a multiple of 90
    degrees, preceded by a transpose for the upper four."""
    k = seed % 8
    if k >= 4:
        values = values.T
    return np.ascontiguousarray(np.rot90(values, k % 4))


def write_inputs(shape, seed, run_dir):
    """Write the coefficient file and the run config for one seed; returns
    the config path."""
    values = symmetry(make_field_values(shape), seed)
    coeff_path = run_dir / "coeff.txt"
    with open(coeff_path, "w") as f:
        f.write(f"{values.shape[1]} {values.shape[0]}\n")
        for row in values:
            f.write(" ".join(f"{x:.17g}" for x in row) + "\n")
    config = run_dir / "run.ini"
    config.write_text(
        "[problem]\n"
        "kind = diffusion\n"
        f"h = {shape['h']}\n"
        f"H = {shape['H']}\n"
        f"m = {shape['m']}\n"
        f"seed = {shape['field']['seed']}\n"
        + (f"methods = {shape['methods']}\n" if shape["methods"] else "")
        + "\n[coeff]\n"
        "source = file\n"
        f"path = {coeff_path}\n")
    return config
