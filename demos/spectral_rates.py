"""Why the subspace iteration converges: eigengaps and principal angles.

Picks one oversampling patch of a high-contrast inclusion field, computes
the leading eigenpairs of the local pencil M v = lambda A v, then tracks the
principal angle between the subspace-iteration block and the leading
eigenspace round by round.  The decay rate should track the eigenvalue gap.
"""

# mslab first: importing it caps BLAS at one thread, which must precede numpy
from mslab import coeff, fem, grid, localsolve, specdiag

import numpy as np

pair = grid.NestedPair(8, 48)
field = coeff.gen_inclusions(pair, density=0.15, contrast=1e4, seed=5)
patch = grid.Patch(pair, pair.coarse.n * 4 + 4, 2)
sys = localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), patch)

eig = specdiag.local_eig(sys, 8)
print("leading eigenvalues of the local pencil:")
for k, lam in enumerate(eig.values):
    print(f"  lambda_{k + 1} = {lam:.6e}")
print(f"gap lambda_5/lambda_4 = {eig.values[4] / eig.values[3]:.3e}")

rep = specdiag.rate_report(sys, specdiag.EigPairs(eig.values[:5], eig.vectors[:, :5]),
                           8, method="lssi")
print("\nround   angle to leading eigenspace")
for k, ang in enumerate(rep.angles):
    print(f"{k:5d}   {ang:.6e}")
if rep.fitted_rate is not None:
    print(f"\nfitted per-round contraction: {rep.fitted_rate:.3e}"
          f"   (eigenvalue gap: {rep.gap:.3e})")

# the Krylov variant sees the same spectrum through one seed
print("\nRitz values of the lksi-8 space:")
print(np.array2string(specdiag.ritz_values(sys, 8), precision=4))
