"""The diffusion matrix: symmetric, traceless, forward-backward channels.

Every diagonal entry of D vanishes identically, so its spectrum splits into
positive (forward-time) and negative (backward-time) diffusion directions
whose eigenvalues sum to zero.  D also decomposes into rank-1 channels
4g (B- B-^T - B+ B+^T), one row per ordered coupling tuple of the channel
arrays; their sum is an independent route to D, which itself is contracted
with the compiled pair-space coupling matrix.
"""

import numpy as np

from majoranaq import (
    QuarticCoupling,
    channel_spectrum,
    diffusion,
    diffusion_channels,
    diffusion_expanded,
    random_boundary_point,
    random_interior_point,
)

g = QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.8), (1, 2, 5, 6, -0.5)])
x = random_interior_point(3, seed=1, scale=0.5)
D = diffusion(x, g)

print("=== structure at a random interior point (M = 3) ===")
print(f"max |D|                : {np.max(np.abs(D)):.4f}")
print(f"symmetry defect        : {np.max(np.abs(D - D.T)):.2e}")
print(f"largest |diagonal|     : {np.max(np.abs(np.diag(D))):.2e}")
print(f"vs expanded-form check : {np.max(np.abs(D - diffusion_expanded(x, g))):.2e}")

spec = channel_spectrum(x, g)
print("\n=== sign-resolved spectrum ===")
print(f"eigenvalues: {np.array2string(spec.eigenvalues, precision=3)}")
print(f"forward / backward / null: {spec.forward_count} / "
      f"{spec.backward_count} / {spec.null_count}")
print(f"eigenvalue sum (traceless): {np.sum(spec.eigenvalues):+.2e}")

decomp = diffusion_channels(x, g)
recon = decomp.reconstruct()
print("\n=== rank-1 channel decomposition ===")
print(f"channels               : {len(decomp.weights)} (24 per stored coupling)")
print(f"reconstruction defect  : {np.max(np.abs(recon - D)):.2e}")
t = int(np.flatnonzero(decomp.weights > 0)[0])
fwd = decomp.weights[t] * np.outer(decomp.b_minus[t], decomp.b_minus[t])
print(f"a forward term's lowest eigenvalue: {np.min(np.linalg.eigvalsh(fwd)):+.2e}"
      "  (positive semidefinite)")

print("\n=== boundary behaviour depends on the mode count ===")
print("For M <= 3 a quartic of 2M <= 6 Majoranas is parity times a quadratic,")
print("and D vanishes on the pure-state surface; at M = 4 it does not:")
xb3 = random_boundary_point(3, 2)
print(f"  M = 3 boundary: max |D| = {np.max(np.abs(diffusion(xb3, g))):.2e}")
g4 = QuarticCoupling.from_entries(4, [(1, 2, 3, 4, 0.5), (2, 4, 6, 8, 0.7)])
xb4 = random_boundary_point(4, 2)
spec4 = channel_spectrum(xb4, g4)
print(f"  M = 4 boundary: max |D| = {np.max(np.abs(diffusion(xb4, g4))):.2f}, "
      f"forward/backward = {spec4.forward_count}/{spec4.backward_count}, "
      f"eigenvalue sum = {np.sum(spec4.eigenvalues):+.2e}")
