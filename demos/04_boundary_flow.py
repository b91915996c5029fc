"""Drift flow on the phase space and boundary preservation.

The drift is a commutator field A = [x, c(x)], so on the pure-state boundary
x^2 = -I it satisfies xA + Ax = [x^2, c] = 0 exactly: the flow is tangent to
the surface.  A trajectory started on the boundary stays there up to
integrator error, which the recorded domain margin measures directly (no
retraction is applied).
"""

import numpy as np

from majoranaq import (
    CouplingMatrix,
    HamiltonianSpec,
    QuarticCoupling,
    flow,
    random_boundary_point,
    tangency_residual,
)
from majoranaq.errors import DivergenceError

rng = np.random.default_rng(42)
M = 3
a = rng.normal(size=(6, 6)) * 0.3
t = CouplingMatrix.from_matrix(a - a.T)
g = QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.3), (2, 3, 5, 6, -0.25)])
spec = HamiltonianSpec(M, t, g)
x0 = random_boundary_point(M, seed=9)

print("=== pointwise tangency on the boundary ===")
res = tangency_residual(x0, t, g)
print(f"max |xA + Ax| at the starting point: {np.max(np.abs(res)):.2e}")

print("\n=== interacting flow from a boundary point (rk4, dt = 1e-3) ===")
traj = flow(x0, spec, dt=1e-3, steps=1000, method="rk4")
for frac in (0, 250, 500, 750, 1000):
    print(f"t = {traj.times[frac]:4.2f}: margin = {traj.margins[frac]:+.3e}")
print(f"worst |margin| over the run: {np.max(np.abs(traj.margins)):.3e}")

print("\n=== quadratic-only flow vs matrix-exponential transport ===")
free = HamiltonianSpec.free(t)
traj_free = flow(x0, free, dt=1e-3, steps=1000, method="rk4")
# e^(4T) from one eigendecomposition: iT = W diag(mu) W^H is Hermitian for
# the real antisymmetric T, so e^(4T) = W e^(-4i mu) W^H, which is real
mu, W = np.linalg.eigh(1j * t.matrix())
prop = ((W * np.exp(-4j * mu)) @ W.conj().T).real
ref = prop @ x0.matrix() @ prop.T
dev = np.max(np.abs(traj_free.final.matrix() - ref))
print(f"deviation from e^(4tT) x0 e^(-4tT) at t = 1: {dev:.2e}")

print("\n=== integrator comparison at coarse steps ===")
for method in ("euler", "rk4"):
    try:
        coarse = flow(x0, spec, dt=1e-2, steps=100, method=method)
        print(f"{method:>5}: final margin = {coarse.margins[-1]:+.3e}")
    except DivergenceError as exc:
        print(f"{method:>5}: {exc}")
