"""Single-mode moment identity: <Xhat> = 3 * integral of x Q(x) dx.

At M = 1 the phase space is the interval s in [-1, 1] and the resolution of
identity can be integrated by quadrature, fixing the overall normalization.
The first moment of Q then reproduces the two-point correlation of any state.
"""

import numpy as np

from majoranaq import (
    PhasePoint,
    gaussian_basis,
    random_density_matrix,
    verify_moment_identity_m1,
)

print("=== resolution of identity on the interval ===")
nodes, weights = np.polynomial.legendre.leggauss(64)
lam_int = sum(w * gaussian_basis(PhasePoint(1, np.array([s])))
              for s, w in zip(nodes, weights))
print("quadrature of Lambda(s) ds over [-1, 1]:")
print(np.round(lam_int.real, 12))

print("\n=== moment identity for reference and random states ===")
states = [
    ("vacuum |0><0|", np.diag([1.0, 0.0]).astype(complex)),
    ("occupied |1><1|", np.diag([0.0, 1.0]).astype(complex)),
    ("maximally mixed", np.eye(2, dtype=complex) / 2),
    ("random mixed #1", random_density_matrix(1, 1)),
    ("random mixed #2", random_density_matrix(1, 2)),
]
print(f"{'state':>16} {'<Xhat_12>':>12} {'3 int s Q ds':>13} {'difference':>11}")
for name, rho in states:
    lhs, rhs = verify_moment_identity_m1(rho)
    print(f"{name:>16} {lhs:>12.8f} {rhs:>13.8f} {abs(lhs - rhs):>11.2e}")

print("\n=== the Q-function itself is a probability density here ===")
rho = random_density_matrix(1, 3)
grid = np.linspace(-0.99, 0.99, 5)
print(f"Q(s) for a random state at s = {np.round(grid, 2)}:")
print(np.round([np.trace(rho @ gaussian_basis(PhasePoint(1, np.array([s])))).real
                for s in grid], 6))
