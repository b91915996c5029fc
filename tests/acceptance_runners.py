"""Acceptance-only sweeps, used only by the tests.

No ``verify --suite`` runs these checks, so they live here rather than in
:mod:`majoranaq.suites`: the Clifford algebra of the Jordan-Wigner
Majoranas, the Gaussian basis at known points, the headline fpe model set,
the divergence identities of Appendix C, the quadratic flow against its
matrix-exponential transport, and the Hubbard preset against its
ladder-operator build.  Each keeps its record in :class:`suites._Sweep`,
so a NaN at any instance fails its check as in the suites, and gates at
its bar in :data:`ACCEPTANCE_TOLERANCES`.

The oracle, the flow and the Hubbard reference are reached through their
modules' attributes, so a test that replaces one of them reaches the
runner.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from majoranaq import dynamics, fock, hubbard, kernel
from majoranaq.config import ModelConfig, config_to_spec
from majoranaq.suites import (
    CheckResult,
    _instance,
    _random_coupling_matrix,
    _random_quartic,
    _Sweep,
)
from majoranaq.tensors import (
    CouplingMatrix,
    HamiltonianSpec,
    PhasePoint,
    QuarticCoupling,
    pair_count,
    random_boundary_point,
    random_interior_point,
)

import coupling_oracle

# Pinned bars of the acceptance-only checks.
ACCEPTANCE_TOLERANCES = {
    "anticommutation": 1e-13,
    "basis-at-origin": 1e-14,
    "basis-single-mode": 1e-12,
    "basis-boundary-purity": 1e-10,
    "divergence-closed-form": 1e-12,
    "drift-divergence-free": 1e-12,
    "double-divergence": 1e-12,
    "conservative-equivalence": 1e-12,
    "flow-matrix-equivalence": 1e-8,
    "hubbard-fidelity": 1e-12,
}


def run_anticommutation() -> CheckResult:
    Ms = (1, 2, 3)
    with _Sweep("anticommutation", ACCEPTANCE_TOLERANCES["anticommutation"]) as sweep:
        for M in Ms:
            majo = fock.build_majoranas(M)
            eye = np.eye(2 ** M)
            for i in range(2 * M):
                for j in range(2 * M):
                    anti = majo[i] @ majo[j] + majo[j] @ majo[i]
                    residuals = [np.max(np.abs(anti - 2 * (i == j) * eye))]
                    if i == j:  # the diagonal instance also checks that gamma_i is Hermitian
                        residuals.append(np.max(np.abs(majo[i] - majo[i].conj().T)))
                    sweep.add(residuals)
    return sweep.result(modes=list(Ms))


def run_gaussian_basis(seed: int, n_boundary: int = 10) -> list[CheckResult]:
    with _Sweep("basis-at-origin", ACCEPTANCE_TOLERANCES["basis-at-origin"]) as origin:
        for M in (1, 2, 3):
            lam = fock.gaussian_basis(PhasePoint.zero(M))
            origin.add(np.abs(lam - np.eye(2 ** M) / 2 ** M))
    with _Sweep("basis-single-mode", ACCEPTANCE_TOLERANCES["basis-single-mode"]) as single:
        for s in (-0.9, -0.5, 0.0, 0.5, 0.9):
            lam = fock.gaussian_basis(PhasePoint(1, np.array([s])))
            single.add(np.abs(lam - np.diag([(1 - s) / 2, (1 + s) / 2])))
    purity_tol = ACCEPTANCE_TOLERANCES["basis-boundary-purity"]
    with _Sweep("basis-boundary-purity", purity_tol) as purity:
        for i in range(n_boundary):
            lam = fock.gaussian_basis(random_boundary_point(1 + i % 2, seed + i))
            purity.add(np.abs(lam @ lam - lam))
    return [origin.result(), single.result(), purity.result()]


def acceptance_fpe_cases(seed: int) -> list[tuple[str, HamiltonianSpec, int]]:
    """The headline comparison set: (label, model, instance count)."""
    rng = np.random.default_rng(seed)
    cases = []
    t1 = CouplingMatrix.from_entries(1, [(1, 2, float(rng.uniform(0.3, 0.8)))])
    cases.append(("fpe-m1-quadratic", HamiltonianSpec.free(t1), 20))
    t2 = _random_coupling_matrix(2, rng, scale=0.4)
    cases.append(("fpe-m2-quadratic", HamiltonianSpec.free(t2), 20))
    g2 = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, float(rng.uniform(0.3, 0.8)))])
    cases.append(("fpe-m2-quartic", HamiltonianSpec(2, _random_coupling_matrix(2, rng, 0.4), g2), 20))
    cases.append(("fpe-m2-hubbard", _chain_spec(1, 0.0, 4.0), 20))
    t3 = _random_coupling_matrix(3, rng, scale=0.25)
    quads = [(1, 2, 3, 4), (1, 3, 5, 6)]
    g3 = QuarticCoupling.from_entries(
        3, [(*q, float(rng.uniform(-0.5, 0.5))) for q in quads]
    )
    cases.append(("fpe-m3-quartic", HamiltonianSpec(3, t3, g3), 5))
    cases.append(("fpe-m6-hubbard", _chain_spec(3, 1.0, 4.0), 5))
    return cases


def _chain_spec(sites: int, hop: float, onsite: float) -> HamiltonianSpec:
    """The Hubbard chain's model, built as a preset config's is."""
    return config_to_spec(ModelConfig(2 * sites, *hubbard.chain_entries(sites, hop, onsite)[:2]))


# Central stencils along packed axes: (step h, derivative order, offsets in
# steps along each axis, weights).  D is cubic and A quadratic in the packed
# point, so at a step of order one these are exact up to round-off: the
# 5-point first derivative is exact for polynomials of degree <= 4 along the
# line, the 3-point second difference and the 4-point mixed stencil for total
# degree <= 3.
_FIRST = (0.5, 1, ((-2,), (-1,), (1,), (2,)), (1 / 12, -8 / 12, 8 / 12, -1 / 12))
_SECOND = (1.0, 2, ((-1,), (0,), (1,)), (1.0, -2.0, 1.0))
_MIXED = (1.0, 2, ((1, 1), (-1, -1), (1, -1), (-1, 1)), (0.25, 0.25, -0.25, -0.25))


def _central(f, v: np.ndarray, *axes: int):
    """d_p f, d_p^2 f (repeated axis) or d_p d_q f of ``f`` at the packed point ``v``."""
    if len(axes) == 1:
        h, order, offsets, weights = _FIRST
    elif axes[0] == axes[1]:
        (h, order, offsets, weights), axes = _SECOND, axes[:1]
    else:
        h, order, offsets, weights = _MIXED
    total = 0.0
    for offset, w in zip(offsets, weights):
        u = v.copy()
        for axis, k in zip(axes, offset):
            u[axis] += k * h
        total = total + w * f(u)
    return total / h**order


def conservative_rhs(x, t, g, grad, hess, q: float, div_a: float, div_div_d: float) -> list:
    """The FPE's [defining, conservative] sides at x, with the measured q terms.

    :func:`majoranaq.kernel._rhs_forms` evaluates both sides from one
    evaluation of D, and leaves out the conservative side's terms in the
    value q of Q, as both divergences vanish in closed form; here the
    measured drift divergence ``div_a`` and double divergence ``div_div_d``
    of D add -(div A) q + (1/2)(div div D) q.
    """
    defining, conservative = kernel._rhs_forms(x, t, g, grad, hess)
    return [defining, conservative - div_a * q + 0.5 * div_div_d * q]


def run_appendix_c(
    Ms=(2, 3), seed: int = 0, cases: int = 50,
) -> list[CheckResult]:
    """Divergence identities of the closed-form coefficients.

    Each divergence is taken with the polynomial-exact stencils of
    :func:`_central`.  ``drift-divergence-free`` holds term by term for any
    commutator drift [x, c(x)] with antisymmetric couplings, so it is a
    structural identity of the commutator form: it catches a non-commutator
    term, such as a dilation, rather than a wrong coefficient.

    ``info["worst"]`` of each check records the instance of its worst
    residual as its index, seed, M and packed x; the instance's ``t``, ``g``
    (``_random_coupling_matrix`` then ``_random_quartic``) and the
    conservative-equivalence test data are drawn, in that order, from
    ``default_rng(seed + 1000 M + index)``.
    """
    div, free, double, equiv = (
        _Sweep(name, ACCEPTANCE_TOLERANCES[name], seed)
        for name in ("divergence-closed-form", "drift-divergence-free",
                     "double-divergence", "conservative-equivalence"))
    per_m = max(1, cases // len(Ms))
    for M in Ms:
        npairs = pair_count(M)
        for i in range(per_m):
            rng = np.random.default_rng(seed + 1000 * M + i)
            x = random_interior_point(M, seed + 1000 * M + i, scale=0.5)
            t = _random_coupling_matrix(M, rng)
            g = _random_quartic(M, rng)
            v = x.packed
            at = _instance(i, seed, x)

            def dmat(u):
                return kernel.diffusion(PhasePoint(M, u), g)

            def avec(u):
                return kernel.drift(PhasePoint(M, u), t, g)

            with div:
                div_d = sum(_central(dmat, v, q)[:, q] for q in range(npairs))
                div.add(np.abs(kernel.div_diffusion(x, g) - div_d), at)
            with free:
                div_a = sum(_central(avec, v, p)[p] for p in range(npairs))
                free.add(abs(float(div_a)), at)
            with double:
                div_div_d = sum(_central(dmat, v, p, q)[p, q] * (1 if p == q else 2)
                                for p in range(npairs) for q in range(p, npairs))
                double.add(abs(float(div_div_d)), at)
            with equiv:
                grad = rng.normal(size=npairs)
                hess = rng.normal(size=(npairs, npairs))
                hess = (hess + hess.T) / 2
                q = float(rng.normal())
                r1, r2 = conservative_rhs(x, t, g, grad, hess, q, float(div_a), float(div_div_d))
                equiv.add(abs(r1 - r2) / max(abs(r1), 1e-12), at)
    return [div.result(), free.result(), double.result(), equiv.result()]


def run_flow_equivalence(
    Ms=(1, 2, 3), seed: int = 0, seeds_per_m: int = 10, steps: int = 1000,
) -> CheckResult:
    """Quadratic-only trajectories against the matrix-exponential transport."""
    dt = 1e-3
    tol = ACCEPTANCE_TOLERANCES["flow-matrix-equivalence"]
    with _Sweep("flow-matrix-equivalence", tol) as sweep:
        for M in Ms:
            for i in range(seeds_per_m):
                rng = np.random.default_rng(seed + 37 * M + i)
                t = _random_coupling_matrix(M, rng)
                x0 = random_boundary_point(M, seed + 37 * M + i)
                traj = dynamics.flow(x0, HamiltonianSpec.free(t), dt, steps, method="rk4")
                horizon = steps * dt
                prop = expm(4 * horizon * t.matrix())
                ref = prop @ x0.matrix() @ prop.T
                sweep.add(np.abs(traj.final.matrix() - ref))
    return sweep.result()


def run_hubbard_fidelity() -> CheckResult:
    shifts = []
    with _Sweep("hubbard-fidelity", ACCEPTANCE_TOLERANCES["hubbard-fidelity"]) as sweep:
        for sites, hop, onsite in ((1, 0.0, 4.0), (2, 1.0, 4.0), (2, 0.7, 0.0)):
            sweep.add(coupling_oracle.hubbard_comparison(sites, hop, onsite))
            shifts.append(hubbard.chain_entries(sites, hop, onsite)[2])
    return sweep.result(identity_shifts=shifts)
