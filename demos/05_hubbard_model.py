"""Fermi-Hubbard chains as Majorana couplings.

A Hubbard chain with S sites maps onto M = 2S modes: hopping becomes
quadratic couplings t, the on-site repulsion becomes one quartic coupling per
site plus quadratic shifts, and a leftover multiple of the identity is
reported (it has no antisymmetric-coupling representation and does not affect
dynamics).
"""

import numpy as np

from majoranaq import (
    HamiltonianSpec,
    build_hamiltonian,
    build_majoranas,
    fermi_hubbard_matrix,
    gaussian_covariance_comparison,
    hubbard_comparison,
    preset_hubbard,
    random_boundary_point,
)

for sites, hop, onsite in ((1, 0.0, 4.0), (2, 1.0, 4.0)):
    preset = preset_hubbard(sites, hop, onsite)
    print(f"=== {sites} site(s), hop J = {hop}, on-site U = {onsite} ===")
    print(f"modes M = {preset.M}; quadratic entries = "
          f"{int(np.sum(np.asarray(preset.t.packed) != 0))}, "
          f"quartic entries = {len(preset.g.table)}")
    for quad, v in preset.g.items():
        print(f"  quartic coupling {quad} -> {v:+.6f}  (U/48 = {onsite/48:+.6f})")
    print(f"dropped identity shift: {preset.identity_shift:+.3f}")
    residual = hubbard_comparison(preset, hop, onsite)
    print(f"fidelity vs ladder-operator reference (traceless parts): {residual:.2e}")
    majo = build_majoranas(preset.M)
    H = build_hamiltonian(HamiltonianSpec(preset.M, preset.t, preset.g), majo)
    direct = fermi_hubbard_matrix(sites, hop, onsite)
    print(f"spectrum (Majorana build) : "
          f"{np.array2string(np.linalg.eigvalsh(H)[:4], precision=4)} ...")
    print(f"spectrum (reference - shift): "
          f"{np.array2string(np.linalg.eigvalsh(direct)[:4] - preset.identity_shift, precision=4)} ...")
    print()

print("=== quadratic sector cross-validation (U = 0 chain) ===")
print("A pure Gaussian state evolved exactly under the hopping Hamiltonian")
print("keeps a Gaussian covariance transported at the drift-flow rate 4; a")
print("free fit of the rate at the first sample is shown for information:")
preset = preset_hubbard(2, 1.0, 0.0)
x0 = random_boundary_point(preset.M, 31)
dev, rate = gaussian_covariance_comparison(x0, preset.t, horizon=1.0)
print(f"fitted transport rate: {rate:.8f} (flow generator normalization: 4)")
print(f"max covariance deviation over the horizon at rate 4: {dev:.2e}")
