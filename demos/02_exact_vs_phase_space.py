"""Headline check: phase-space equation of motion vs exact quantum dynamics.

For a model H = i sum t_{ij} g_i g_j + (1/2) sum g_{ijkl} g_i g_j g_k g_l the
Q-function obeys dQ/dt = -Abar.grad Q + (1/2) D : hess Q with the closed-form
transport vector Abar and diffusion matrix D evaluated by the kernel.  Here
both sides are computed independently: the left from the exact Liouville
commutator on the Fock space, the right from the kernel plus finite
differences of the exact Q.
"""

import numpy as np

from majoranaq import (
    CouplingMatrix,
    HamiltonianSpec,
    ModelConfig,
    QuarticCoupling,
    chain_entries,
    config_to_spec,
    random_density_matrix,
    random_interior_point,
    verify_fpe,
)

print("=== M = 2, single-site Hubbard couplings ===")
t_entries, g_entries, _shift = chain_entries(sites=1, hop=0.0, onsite=4.0)
spec = config_to_spec(ModelConfig(2, t_entries, g_entries))
print(f"{'instance':>8} {'exact dQ/dt':>14} {'kernel rhs':>14} {'residual':>10}")
for i in range(4):
    rho = random_density_matrix(2, 100 + i)
    x = random_interior_point(2, 200 + i)
    chk = verify_fpe(rho, spec, x)
    print(f"{i:>8} {chk.lhs:>14.8f} {chk.rhs:>14.8f} {chk.residual:>10.2e}")

print("\n=== M = 3, random quadratic plus two quartic couplings ===")
rng = np.random.default_rng(5)
a = rng.normal(size=(6, 6)) * 0.25
spec3 = HamiltonianSpec(
    3,
    CouplingMatrix.from_matrix(a - a.T),
    QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.5), (1, 3, 5, 6, -0.4)]),
)
print(f"{'instance':>8} {'exact dQ/dt':>14} {'kernel rhs':>14} {'residual':>10}")
for i in range(3):
    rho = random_density_matrix(3, 300 + i)
    x = random_interior_point(3, 400 + i, scale=0.3)
    chk = verify_fpe(rho, spec3, x)
    print(f"{i:>8} {chk.lhs:>14.8f} {chk.rhs:>14.8f} {chk.residual:>10.2e}")

print("\n=== drift-form arbitration ===")
print("Two closed-form assemblies of the drift exist; the defining")
print("decomposition (eq36: transport + diffusion divergence) matches the")
print("oracle, the alternative form (eq50) does not:")
rho = random_density_matrix(3, 999)
x = random_interior_point(3, 888, scale=0.3)
for form in ("eq36", "eq50"):
    chk = verify_fpe(rho, spec3, x, drift_form=form)
    print(f"  {form}: residual = {chk.residual:.3e}")
