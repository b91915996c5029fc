"""Deterministic drift flow on the phase space and diffusion spectra.

The drift defines an ordinary flow dx/dt = A(x).  Because A is tangent to the
pure-state boundary x^2 = -I, a trajectory started on the boundary should stay
there up to integrator error; no projection is applied by default so that the
recorded domain margin directly measures that property.  The flow steps the
packed components of x as one array and records them as one array per run.
Each drift evaluation runs the stage kernel compiled once per flow
(:func:`majoranaq.kernel._compile_rate`).  Margins are taken from the stored
states in blocks of at most 64 steps, one stacked eigensolve per block; a
failure inside the loop first evaluates the pending margins, so the earliest
failing step is reported, with its own cause.

In the quadratic sector the flow transports the covariance of a pure Gaussian
state at the generator rate 4; :func:`gaussian_covariance_comparison` checks
that rate against exact evolution in Fock space, with nothing fitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError
from .kernel import _compile_rate, diffusion
from .tensors import (
    CouplingMatrix,
    HamiltonianSpec,
    PhasePoint,
    QuarticCoupling,
    _margin,
    _unpack,
    pair_count,
)

# stored states per stacked margin eigensolve: a (64, 2M, 2M) stack is
# 32 KB at M = 4 and 0.5 MB at the M = 16 flow cap
_MARGIN_BLOCK = 64

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
    """One flow run: row k of ``packed`` is x at ``times[k]``, with margin ``margins[k]``."""

    M: int
    times: np.ndarray
    packed: np.ndarray
    margins: np.ndarray

    @property
    def final(self) -> PhasePoint:
        return PhasePoint(self.M, self.packed[-1])


def polar_project(x: PhasePoint) -> PhasePoint:
    """Retract onto the boundary x^2 = -I via the polar orthogonal factor.

    A singular x^T x raises :class:`DivergenceError` at step 0; :func:`flow`
    re-raises it at the step it projects.
    """
    xm = x.matrix()
    w, V = np.linalg.eigh(xm.T @ xm)
    if np.min(w) <= 0:
        raise DivergenceError(0, "singular x^T x")
    inv_sqrt = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    q = xm @ inv_sqrt
    q = (q - q.T) / 2.0
    return PhasePoint.from_matrix(q, tol=1e-9)


def _guarded_margin(xm: np.ndarray, step: int) -> float:
    try:
        value = float(_margin(xm))
    except np.linalg.LinAlgError as exc:  # overflow inside the eigensolver
        raise DivergenceError(step, "margin eigensolve") from exc
    if not np.isfinite(value):
        raise DivergenceError(step, "non-finite margin")
    return value


def _settle_margins(M: int, packed: np.ndarray, margins: np.ndarray, start: int, stop: int) -> None:
    """Fill margins[start:stop] from the stored states with one stacked eigensolve.

    If that call fails or gives a non-finite margin, the block is re-run one
    state at a time through the guard, so the earliest failing step raises,
    with its own cause.
    """
    xs = _unpack(M, packed[start:stop])
    try:
        values = _margin(xs)
        settled = bool(np.all(np.isfinite(values)))
    except np.linalg.LinAlgError:
        settled = False
    if not settled:
        values = [_guarded_margin(xm, step) for step, xm in enumerate(xs, start)]
    margins[start:stop] = values


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
    A non-finite state or margin, a failed margin eigensolve, or a singular
    projection raises :class:`DivergenceError` at its step; the initial point
    is step 0.  Margins are evaluated in blocks of at most 64 stored states,
    one stacked eigensolve per block.  Before a failure inside the loop is
    raised, the pending margins are evaluated, so the earliest failing step
    wins, as if each margin were taken right after its step.  States,
    margins and times are bit-identical to a step-by-step loop through
    :func:`majoranaq.kernel.drift` and :func:`majoranaq.tensors.domain_margin`.
    """
    if spec.M != x0.M:
        raise DimensionError(f"spec M={spec.M} != initial point M={x0.M}")
    if dt <= 0 or steps < 1:
        raise ValueError("dt must be positive and steps >= 1")
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    M = x0.M
    rate = _compile_rate(M, spec.g.pair_matrix, spec.t.packed)
    packed = np.empty((steps + 1, pair_count(M)))
    margins = np.empty(steps + 1)
    v = packed[0] = x0.packed
    pending = 0  # first step whose margin is not yet evaluated
    for step in range(1, steps + 1):
        try:
            if method == "euler":
                v = v + dt * rate(v)
            else:
                k1 = rate(v)
                k2 = rate(v + 0.5 * dt * k1)
                k3 = rate(v + 0.5 * dt * k2)
                k4 = rate(v + dt * k3)
                v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.isfinite(v).all():
                raise DivergenceError(step)
            if project:
                try:
                    v = polar_project(PhasePoint(M, v)).packed
                except DivergenceError as exc:
                    raise DivergenceError(step, exc.reason) from exc
        except (ArithmeticError, DivergenceError, np.linalg.LinAlgError):
            _settle_margins(M, packed, margins, pending, step)
            raise
        packed[step] = v
        if step + 1 - pending == _MARGIN_BLOCK:
            _settle_margins(M, packed, margins, pending, step + 1)
            pending = step + 1
    _settle_margins(M, packed, margins, pending, steps + 1)
    return Trajectory(M, np.arange(steps + 1) * dt, packed, margins)


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
) -> float:
    """Quadratic-sector cross-validation against exact quantum evolution.

    Evolves the pure Gaussian state Lambda(x0) exactly under the quadratic
    Hamiltonian and compares its covariance Tr[rho(tau) Xhat] with the
    transported matrix e^{c tau T} Gamma_0 e^{-c tau T} at the generator rate
    c = 4 of dx/dt = 4[t, x].  Returns the max deviation over the
    ``n_samples`` times evenly spaced in (0, horizon].
    """
    if t.M != x0.M:
        raise DimensionError(f"coupling M={t.M} != initial point M={x0.M}")
    # scipy and the Fock-space oracle are imported on use, so that the
    # `flow` command, which never reaches this comparison, loads neither
    from scipy.linalg import expm

    from .fock import build_hamiltonian, build_majoranas, covariance_of_basis, gaussian_basis

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

    def mismatch(tau: float) -> float:
        prop = expm(4.0 * tau * T)
        return float(np.max(np.abs(prop @ gamma0 @ prop.T - exact_cov(tau))))

    return max(mismatch(tau) for tau in taus)
