"""Error versus coefficient contrast.

Sweeps the contrast of an inclusion field over several orders of magnitude
with the mesh fixed.  The iterate-based coarse spaces stay flat while the
baseline degrades as the contrast grows.
"""

from mslab import cli, coeff, grid, msbasis

pair = grid.NestedPair(10, 100)
methods = [("lod", 1), ("lssi", 2), ("lksi", 4)]
contrasts = [1e2, 1e3, 1e4, 1e5, 1e6]

print(f"{'contrast':>9s}" + "".join(f" {msbasis.method_label(m):>10s}" for m in methods))
for kappa in contrasts:
    field = coeff.gen_inclusions(pair, density=0.12, contrast=kappa, seed=1,
                                 streak_len=(2, 6))
    rows, _ = cli.run_methods(pair, field, "diffusion", 4, methods)
    print(f"{kappa:9.0e}" + "".join(f" {r.e_energy:10.3e}" for r in rows))
