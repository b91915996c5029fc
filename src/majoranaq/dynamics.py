"""Deterministic drift flow on the phase space and diffusion spectra.

The drift defines an ordinary flow dx/dt = A(x).  Because A is tangent to the
pure-state boundary x^2 = -I, a trajectory started on the boundary should stay
there up to integrator error; no projection is applied by default so that the
recorded domain margin directly measures that property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError
from .fock import build_majoranas, build_hamiltonian, covariance_of_basis, gaussian_basis
from .kernel import diffusion, drift
from .tensors import (
    CouplingMatrix,
    HamiltonianSpec,
    PhasePoint,
    QuarticCoupling,
    domain_margin,
)

__all__ = [
    "Trajectory",
    "flow",
    "polar_project",
    "ChannelSpectrum",
    "channel_spectrum",
    "gaussian_covariance_comparison",
]


@dataclass(frozen=True)
class Trajectory:
    """Time grid, phase points, and per-step domain margins of one flow run."""

    times: np.ndarray
    points: tuple
    margins: np.ndarray

    @property
    def final(self) -> PhasePoint:
        return self.points[-1]


def polar_project(x: PhasePoint) -> PhasePoint:
    """Retract onto the boundary x^2 = -I via the polar orthogonal factor."""
    xm = x.matrix()
    w, V = np.linalg.eigh(xm.T @ xm)
    if np.min(w) <= 0:
        raise DivergenceError(0)
    inv_sqrt = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    q = xm @ inv_sqrt
    q = (q - q.T) / 2.0
    return PhasePoint.from_matrix(q, tol=1e-9)


def flow(
    x0: PhasePoint,
    spec: HamiltonianSpec,
    dt: float,
    steps: int,
    method: str = "rk4",
    project: bool = False,
) -> Trajectory:
    """Integrate dx/dt = A(x) with fixed steps; records the domain margin.

    ``method`` is 'euler' or 'rk4'.  With ``project`` the state is retracted
    onto the boundary after every step (off by default, see module note).
    """
    if spec.M != x0.M:
        raise DimensionError(f"spec M={spec.M} != initial point M={x0.M}")
    if dt <= 0 or steps < 1:
        raise ValueError("dt must be positive and steps >= 1")
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    M = x0.M
    t_mat, g = spec.t, spec.g

    def rate(v: np.ndarray) -> np.ndarray:
        return drift(PhasePoint(M, v), t_mat, g)

    v = np.asarray(x0.packed).copy()
    times = [0.0]
    points = [x0]
    margins = [domain_margin(x0)]
    for step in range(1, steps + 1):
        if method == "euler":
            v = v + dt * rate(v)
        else:
            k1 = rate(v)
            k2 = rate(v + 0.5 * dt * k1)
            k3 = rate(v + 0.5 * dt * k2)
            k4 = rate(v + dt * k3)
            v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(v)):
            raise DivergenceError(step)
        point = PhasePoint(M, v)
        if project:
            point = polar_project(point)
            v = np.asarray(point.packed).copy()
        try:
            margin = domain_margin(point)
        except np.linalg.LinAlgError as exc:  # overflow inside the eigensolver
            raise DivergenceError(step) from exc
        if not np.isfinite(margin):
            raise DivergenceError(step)
        times.append(step * dt)
        points.append(point)
        margins.append(margin)
    return Trajectory(np.array(times), tuple(points), np.array(margins))


@dataclass(frozen=True)
class ChannelSpectrum:
    """Sign-resolved spectrum of the diffusion matrix at one phase point."""

    eigenvalues: np.ndarray
    forward_count: int
    backward_count: int
    null_count: int


def channel_spectrum(
    x: PhasePoint, g: QuarticCoupling, tol: float = 1e-10
) -> ChannelSpectrum:
    """Eigen-decompose the diffusion into forward/backward/null directions.

    Positive eigenvalues diffuse forward in time, negative ones backward; the
    eigenvalue sum vanishes because the matrix is traceless.
    """
    eigs = np.sort(np.linalg.eigvalsh(diffusion(x, g)))
    forward = int(np.sum(eigs > tol))
    backward = int(np.sum(eigs < -tol))
    null = len(eigs) - forward - backward
    return ChannelSpectrum(eigs, forward, backward, null)


def gaussian_covariance_comparison(
    x0: PhasePoint,
    t: CouplingMatrix,
    horizon: float,
    n_samples: int = 8,
) -> tuple[float, float]:
    """Quadratic-sector cross-validation against exact quantum evolution.

    Evolves the pure Gaussian state Lambda(x0) exactly under the quadratic
    Hamiltonian and compares its covariance Tr[rho(tau) Xhat] with the
    transported matrix e^{c tau T} Gamma_0 e^{-c tau T} at the generator rate
    c = 4 of dx/dt = 4[t, x].  Returns (max deviation over the samples at
    c = 4, fitted c).  The fitted rate is information only: a bounded scalar
    fit of c at the first sample, which is ill-defined when the state is
    invariant under the transport (M = 1); it does not enter the deviation.
    """
    if t.M != x0.M:
        raise DimensionError(f"coupling M={t.M} != initial point M={x0.M}")
    # scipy is imported on use: no CLI command reaches this comparison, and
    # keeping scipy off the package import path halves CLI start-up
    from scipy.linalg import expm
    from scipy.optimize import minimize_scalar

    M = x0.M
    majo = build_majoranas(M)
    spec = HamiltonianSpec.free(t)
    H = build_hamiltonian(spec, majo)
    lam0 = gaussian_basis(x0, majo)
    rho0 = lam0 / np.trace(lam0).real
    gamma0 = covariance_of_basis(x0, majo)
    T = t.matrix()
    taus = np.linspace(0.0, horizon, n_samples + 1)[1:]

    def exact_cov(tau: float) -> np.ndarray:
        U = expm(-1j * tau * H)
        rho = U @ rho0 @ U.conj().T
        n = 2 * M
        out = np.zeros((n, n))
        for mu in range(n):
            for nu in range(mu + 1, n):
                xhat = 0.5j * (
                    majo[mu] @ majo[nu] - majo[nu] @ majo[mu]
                )
                out[mu, nu] = np.trace(rho @ xhat).real
                out[nu, mu] = -out[mu, nu]
        return out

    first = exact_cov(taus[0])
    if np.max(np.abs(T)) == 0.0:
        return float(np.max(np.abs(first - gamma0))), 0.0

    def mismatch(c: float, tau: float, exact: np.ndarray) -> float:
        prop = expm(c * tau * T)
        return float(np.max(np.abs(prop @ gamma0 @ prop.T - exact)))

    exact = [first] + [exact_cov(tau) for tau in taus[1:]]
    deviation = max(mismatch(4.0, tau, e) for tau, e in zip(taus, exact))
    fit = minimize_scalar(lambda c: mismatch(c, taus[0], first), bounds=(0.0, 16.0),
                          method="bounded", options={"xatol": 1e-12})
    return deviation, float(fit.x)
