"""Tour of the Gaussian basis operator Lambda(x).

The phase point x is a real antisymmetric 2M x 2M matrix.  Lambda(x) is the
unit-trace, normal-ordered Gaussian operator at that point: at x = 0 it is
the maximally mixed state, in the interior a full-rank mixed Gaussian, and on
the boundary x^2 = -I a pure-state projector.  The library builds it from
Wick's theorem as 2^-M sum_S i^{|S|/2} Pf(x_S) gamma_S over the even subsets S
of the Majorana labels, a polynomial in x that holds on the whole closed
domain; the test suite checks it against the normal-ordered exponential that
defines Lambda and against the product form over the 2x2 blocks of x.
"""

import numpy as np

from majoranaq import (
    PhasePoint,
    build_majoranas,
    covariance_of_basis,
    domain_margin,
    gaussian_basis,
    random_boundary_point,
    random_interior_point,
)

np.set_printoptions(precision=6, suppress=True)

print("=== single mode: the analytic family ===")
for s in (-0.9, 0.0, 0.5):
    lam = gaussian_basis(PhasePoint(1, np.array([s])))
    print(f"s = {s:+.1f}:  diag(Lambda) = {np.diag(lam).real}, "
          f"expected ({(1-s)/2:.3f}, {(1+s)/2:.3f})")

print("\nAt x = +J the defining quadratic form is singular, but the Wick sum is")
print("exact there: Lambda(+J) is the occupied projector")
lam = gaussian_basis(PhasePoint(1, np.array([1.0])))
print(f"  Lambda(+J) = {lam.real.tolist()}, imaginary part {np.max(np.abs(lam.imag))}")

print("\n=== two modes: state properties at a random interior point ===")
x = random_interior_point(2, seed=7)
lam = gaussian_basis(x)
print(f"domain margin        : {domain_margin(x):.4f}  (> 0: interior)")
print(f"trace                : {np.trace(lam).real:.12f}")
print(f"hermiticity defect   : {np.max(np.abs(lam - lam.conj().T)):.2e}")
print(f"smallest eigenvalue  : {np.min(np.linalg.eigvalsh(lam)):+.2e}")

print("\n=== boundary points are pure ===")
for seed in (3, 4):
    xb = random_boundary_point(2, seed)
    lam = gaussian_basis(xb)
    purity = np.max(np.abs(lam @ lam - lam))
    print(f"seed {seed}: margin = {domain_margin(xb):+.2e},  "
          f"|Lambda^2 - Lambda| = {purity:.2e}")

print("\n=== the basis covariance reproduces the phase point ===")
print("Tr[Lambda(x) Xhat_mn] with Xhat = (i/2)[gamma_m, gamma_n] equals x")
print("exactly at M = 1; the tests assert it to 1e-12 at M = 2, 3, on interior")
print("and boundary points:")
for M in (1, 2, 3):
    majo = build_majoranas(M)
    x = random_interior_point(M, seed=11)
    cov = covariance_of_basis(x, majo)
    print(f"  M = {M}: max |cov - x| = {np.max(np.abs(cov - x.matrix())):.2e}")
