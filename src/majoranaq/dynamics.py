"""Deterministic drift flow on the phase space.

The drift defines an ordinary flow dx/dt = A(x).  Because A is tangent to the
pure-state boundary x^2 = -I, a trajectory started on the boundary should stay
there up to integrator error; no projection is applied, so the recorded
domain margin directly measures that property.  The flow steps the
full antisymmetric matrix x through every stage: each drift evaluation runs
the stage kernel compiled once per flow
(:func:`majoranaq.tensors._compile_rate`), one product with the coupling's
compiled block over only the pairs its quadruples touch, and one matmul,
with no scatter of x and no gather of the rate.  The flow imports that
kernel from :mod:`majoranaq.tensors`, so it loads neither
:mod:`majoranaq.kernel` nor the verification suites.  Each step writes its
state straight into a block buffer of :data:`_BLOCK` full matrices; each
block is checked for non-finite entries with one vectorised ``isfinite``,
written to the run's packed array with one gather and given its margins by
one stacked eigensolve.  A non-finite state first evaluates the margins
before it, so the earliest failing step is reported, with its own cause.

In the quadratic sector the flow transports the covariance of a pure Gaussian
state at the generator rate 4; the tests check that rate against exact
evolution in Fock space (``tests/basis_oracle.py``), with nothing fitted.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DivergenceError
from .tensors import (
    HamiltonianSpec,
    PhasePoint,
    _drift_rate,
    _margin,
    _pack,
    pair_count,
)

# stored states per block buffer and stacked margin eigensolve, and rows per
# write of the flow CSV: 128 KB at M = 4, 2 MB at the flow cap majoranaq._MAX_M
_BLOCK = 256

__all__ = [
    "Trajectory",
    "flow",
]


class Trajectory(NamedTuple):
    """One flow run: row k of ``packed`` is x at ``times[k]``, with margin ``margins[k]``."""

    M: int
    times: np.ndarray
    packed: np.ndarray
    margins: np.ndarray

    @property
    def final(self) -> PhasePoint:
        return PhasePoint(self.M, self.packed[-1])


def _guarded_margin(xm: np.ndarray, step: int) -> float:
    try:
        value = float(_margin(xm))
    except np.linalg.LinAlgError as exc:  # overflow inside the eigensolver
        raise DivergenceError(step, "margin eigensolve") from exc
    if not np.isfinite(value):
        raise DivergenceError(step, "non-finite margin")
    return value


def _settle_block(block: np.ndarray, packed: np.ndarray, margins: np.ndarray,
                  start: int, stop: int) -> None:
    """Check and store the states start..stop-1, held in ``block``, as packed rows and margins.

    One vectorised ``isfinite`` checks every computed state of the block.  A
    non-finite entry stays non-finite under X + s, so the states from the
    first non-finite one on are all non-finite, and its step is the first
    to fail: only the states before it are stored, and then
    :class:`DivergenceError` is raised at that step.  The initial point
    (step 0) is given, not computed; its margin alone checks it.

    The packed rows are one ``take`` of the block, and the margins one
    stacked eigensolve.  If that call fails or gives a non-finite margin, the
    block is re-run one state at a time through the guard, so the earliest
    failing step raises, with its own cause, ahead of a later non-finite
    state.
    """
    given = 1 if start == 0 else 0
    finite = np.isfinite(block[given:stop - start])
    diverged = not finite.all()
    if diverged:
        stop = start + given + int(np.argmin(finite.all(axis=(1, 2))))
    xs = block[:stop - start]
    packed[start:stop] = _pack(block.shape[-1] // 2, xs)
    try:
        values = _margin(xs)
        settled = bool(np.all(np.isfinite(values)))
    except np.linalg.LinAlgError:
        settled = False
    if not settled:
        values = [_guarded_margin(xm, step) for step, xm in enumerate(xs, start)]
    margins[start:stop] = values
    if diverged:
        raise DivergenceError(stop)


def flow(
    x0: PhasePoint,
    spec: HamiltonianSpec,
    dt: float,
    steps: int,
    method: str = "rk4",
) -> Trajectory:
    """Integrate dx/dt = A(x) with fixed steps; records the domain margin.

    ``x0`` is a single point; a stack raises :class:`DimensionError`.
    ``method`` is 'euler' or 'rk4'.  The state is the full antisymmetric
    matrix x through every stage; each stage is one product with the
    coupling's compiled block
    (:attr:`majoranaq.tensors.QuarticCoupling.pair_block`, built once per
    coupling) scaled by the drift's coefficient, and one matmul
    (:func:`majoranaq.tensors._compile_rate`).  The stored states are
    checked, packed and given margins in the row blocks ``k * _BLOCK`` to
    ``(k + 1) * _BLOCK``, the blocks in which the flow command writes them.

    A trajectory too large to allocate raises :class:`MemoryError` before
    any step.  A non-finite state or margin, or a failed margin eigensolve,
    raises :class:`DivergenceError` at its step; the initial point is step
    0.  Before a non-finite state is raised, the margins of the states
    before it are evaluated, so the earliest failing step wins, as if each
    state and margin were checked right after its step.  Overflow and
    invalid-value warnings of the rate's compilation, the stages and the
    margin solves are silenced: every non-finite result they flag becomes
    that error.  A horizon ``dt * steps`` that is not finite raises
    :class:`ValueError`, so every recorded time is finite.  States, margins
    and times are bit-identical to a step-by-step loop through
    :func:`majoranaq.kernel.drift` and :func:`majoranaq.tensors.domain_margin`.
    """
    if spec.M != x0.M:
        raise DimensionError(f"spec M={spec.M} != initial point M={x0.M}")
    if x0.packed.ndim != 1:
        raise DimensionError(f"the initial point must be a single point, not a stack of "
                             f"{len(x0.packed)}")
    if dt <= 0 or steps < 1:
        raise ValueError("dt must be positive and steps >= 1")
    # a count past sys.maxsize cannot be stored: it raises MemoryError below
    if steps <= sys.maxsize and not math.isfinite(float(dt) * steps):
        raise ValueError(f"the horizon dt * steps must be finite, got {dt!r} * {steps}")
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    M = x0.M
    try:
        packed = np.empty((steps + 1, pair_count(M)))
    except ValueError as exc:  # numpy refuses a byte count past the index range
        raise MemoryError(f"cannot allocate a trajectory of {steps} steps ({exc})") from None
    margins = np.empty(steps + 1)
    block = np.empty((min(steps + 1, _BLOCK), 2 * M, 2 * M))
    X = block[0] = x0.matrix()
    pending = 0  # first step whose state is not yet settled
    # the step factors as read-only full matrices, built once: a Python float
    # is converted on every product, and each product is the same bit for bit
    half, full, sixth = factors = [np.full(X.shape, f, float) for f in (0.5 * dt, dt, dt / 6.0)]
    for factor in factors:
        factor.flags.writeable = False
    with np.errstate(over="ignore", invalid="ignore"):
        rate = _drift_rate(spec.g, spec.t)
        for step in range(1, steps + 1):
            out = block[step - pending]
            if method == "euler":
                np.add(X, full * rate(X), out=out)
            else:
                k1 = rate(X)
                k2 = rate(X + half * k1)
                k3 = rate(X + half * k2)
                k4 = rate(X + full * k3)
                np.add(X, sixth * (k1 + (k2 + k2) + (k3 + k3) + k4), out=out)
            X = out
            if step + 1 - pending == _BLOCK:
                _settle_block(block, packed, margins, pending, step + 1)
                pending = step + 1
        _settle_block(block, packed, margins, pending, steps + 1)
    return Trajectory(M, np.arange(steps + 1) * dt, packed, margins)

