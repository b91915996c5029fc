"""Fermi-Hubbard chains as Majorana couplings.

A Hubbard chain with S sites maps onto M = 2S modes: hopping becomes
quadratic couplings t, the on-site repulsion becomes one quartic coupling per
site plus quadratic shifts, and a leftover multiple of the identity is
reported (it has no antisymmetric-coupling representation and does not affect
dynamics).
"""

import sys
from pathlib import Path

import numpy as np

from majoranaq import (
    ModelConfig,
    build_hamiltonian,
    chain_entries,
    config_to_spec,
    random_boundary_point,
)

# the ladder-operator reference and the exact covariance evolution are test oracles
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from basis_oracle import gaussian_covariance_comparison  # noqa: E402
from coupling_oracle import fermi_hubbard_matrix, hubbard_comparison  # noqa: E402

for sites, hop, onsite in ((1, 0.0, 4.0), (2, 1.0, 4.0)):
    t_entries, g_entries, shift = chain_entries(sites, hop, onsite)
    spec = config_to_spec(ModelConfig(2 * sites, t_entries, g_entries))
    print(f"=== {sites} site(s), hop J = {hop}, on-site U = {onsite} ===")
    print(f"modes M = {spec.M}; quadratic entries = "
          f"{int(np.sum(np.asarray(spec.t.packed) != 0))}, "
          f"quartic entries = {len(spec.g.table)}")
    for quad, v in spec.g.items():
        print(f"  quartic coupling {quad} -> {v:+.6f}  (U/48 = {onsite/48:+.6f})")
    print(f"dropped identity shift: {shift:+.3f}")
    residual = hubbard_comparison(sites, hop, onsite)
    print(f"fidelity vs ladder-operator reference (traceless parts): {residual:.2e}")
    H = build_hamiltonian(spec)
    direct = fermi_hubbard_matrix(sites, hop, onsite)
    print(f"spectrum (Majorana build) : "
          f"{np.array2string(np.linalg.eigvalsh(H)[:4], precision=4)} ...")
    print(f"spectrum (reference - shift): "
          f"{np.array2string(np.linalg.eigvalsh(direct)[:4] - shift, precision=4)} ...")
    print()

print("=== quadratic sector cross-validation (U = 0 chain) ===")
print("A pure Gaussian state evolved exactly under the hopping Hamiltonian")
print("keeps a Gaussian covariance transported at the drift-flow rate 4:")
spec = config_to_spec(ModelConfig(4, *chain_entries(2, 1.0, 0.0)[:2]))
x0 = random_boundary_point(spec.M, 31)
dev = gaussian_covariance_comparison(x0, spec.t, horizon=1.0)
print(f"max covariance deviation over the horizon at rate 4: {dev:.2e}")
