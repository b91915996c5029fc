"""Seeded verification sweeps with pass/fail records.

Each runner executes one structural claim over a reproducible ensemble and
returns a :class:`CheckResult`; the CLI assembles them into a
:class:`VerificationReport`, and the acceptance test suite runs them at the
pinned tolerances.  ``TOLERANCES`` is defined in :mod:`majoranaq.config`,
which validates overrides against it without loading this module; this
module re-exports the same dictionary.
"""

from __future__ import annotations

import platform
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import fock, kernel
from .config import TOLERANCES
from .dynamics import flow
from .hubbard import hubbard_comparison, preset_hubbard
from .tensors import (
    CouplingMatrix,
    HamiltonianSpec,
    PhasePoint,
    QuarticCoupling,
    _unpack,
    pair_count,
    random_boundary_point,
    random_interior_point,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "TOLERANCES",
    "run_anticommutation",
    "run_gaussian_basis",
    "run_quadratic_identities",
    "run_four_gamma",
    "run_fpe_sweep",
    "fpe_instance",
    "acceptance_fpe_cases",
    "run_traceless_and_channels",
    "run_appendix_c",
    "run_tangency",
    "run_flow_margin",
    "run_moment_m1",
    "run_flow_equivalence",
    "run_hubbard_fidelity",
    "build_report",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    instances: int
    max_residual: float
    tolerance: float
    passed: bool
    seconds: float = 0.0
    informational: bool = False
    info: dict = field(default_factory=dict)

    def line(self) -> str:
        if self.informational:
            status = "RECORDED"
        else:
            status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status:8s}] {self.name}: max residual {self.max_residual:.3e} "
            f"(tol {self.tolerance:.1e}, {self.instances} instances, "
            f"{self.seconds:.2f}s)"
        )


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: tuple
    seed: int
    M: int | None = None

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "M": self.M,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "overall_pass": self.overall_pass,
            "checks": [
                {
                    "name": c.name,
                    "instances": c.instances,
                    "max_residual": c.max_residual,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                    "informational": c.informational,
                    "seconds": c.seconds,
                    **({"info": c.info} if c.info else {}),
                }
                for c in self.checks
            ],
        }

    def text(self) -> str:
        lines = [f"suite: {self.suite} (seed {self.seed}"
                 + (f", M={self.M})" if self.M is not None else ")")]
        lines += [c.line() for c in self.checks]
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)


def build_report(suite: str, checks: list[CheckResult], seed: int, M: int | None = None) -> VerificationReport:
    return VerificationReport(suite, tuple(checks), seed, M)


class _CheckClock:
    """Accumulates the time spent inside ``with clock(name):`` blocks, per name."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start


def _random_coupling_matrix(M: int, rng: np.random.Generator, scale: float = 0.5) -> CouplingMatrix:
    a = rng.normal(size=(2 * M, 2 * M)) * scale
    return CouplingMatrix.from_matrix(a - a.T)


def _random_quartic(M: int, rng: np.random.Generator, max_quadruples: int = 10,
                    scale: float = 0.5) -> QuarticCoupling:
    from itertools import combinations

    quads = list(combinations(range(1, 2 * M + 1), 4))
    count = min(len(quads), max_quadruples)
    chosen = rng.choice(len(quads), size=count, replace=False)
    entries = [(*quads[c], rng.uniform(-scale, scale)) for c in chosen]
    return QuarticCoupling.from_entries(M, entries)


# Scale of the interior points the Fock-space oracle sweeps sample.
_ORACLE_SCALE = 0.35


def _instance(index: int, seed: int, x: PhasePoint) -> dict:
    """Report record of one sweep instance: enough to re-run it."""
    return {"index": index, "seed": seed, "M": x.M, "x": [float(v) for v in x.packed]}


def _worst(results: list) -> tuple:
    """The (residual, instance record) pair with the largest residual."""
    return max(results, key=lambda r: r[0], default=(0.0, None))


# ---------------------------------------------------------------------------
# criterion runners
# ---------------------------------------------------------------------------


def run_anticommutation(Ms=(1, 2, 3), tol: float | None = None) -> CheckResult:
    tol = TOLERANCES["anticommutation"] if tol is None else tol
    clock = _CheckClock()
    worst = 0.0
    count = 0
    with clock("anticommutation"):
        for M in Ms:
            majo = fock.build_majoranas(M)
            eye = np.eye(majo.dim)
            for i in range(2 * M):
                for j in range(2 * M):
                    anti = majo[i] @ majo[j] + majo[j] @ majo[i]
                    worst = max(worst, float(np.max(np.abs(anti - 2 * (i == j) * eye))))
                    count += 1
            for i in range(2 * M):
                worst = max(worst, float(np.max(np.abs(majo[i] - majo[i].conj().T))))
    return CheckResult("anticommutation", count, worst, tol, worst <= tol,
                       clock.seconds["anticommutation"], info={"modes": list(Ms)})


def run_gaussian_basis(seed: int, n_boundary: int = 10) -> list[CheckResult]:
    tol0 = TOLERANCES["basis-at-origin"]
    tol1 = TOLERANCES["basis-single-mode"]
    tolp = TOLERANCES["basis-boundary-purity"]
    clock = _CheckClock()
    w_origin = w_single = w_purity = 0.0
    with clock("basis-at-origin"):
        for M in (1, 2, 3):
            lam = fock.gaussian_basis(PhasePoint.zero(M))
            w_origin = max(w_origin, float(np.max(np.abs(lam - np.eye(2 ** M) / 2 ** M))))
    with clock("basis-single-mode"):
        for s in (-0.9, -0.5, 0.0, 0.5, 0.9):
            lam = fock.gaussian_basis(PhasePoint(1, np.array([s])))
            ref = np.diag([(1 - s) / 2, (1 + s) / 2])
            w_single = max(w_single, float(np.max(np.abs(lam - ref))))
    with clock("basis-boundary-purity"):
        for i in range(n_boundary):
            M = 1 + i % 2
            x = random_boundary_point(M, seed + i)
            lam = fock.gaussian_basis(x)
            w_purity = max(w_purity, float(np.max(np.abs(lam @ lam - lam))))
    secs = clock.seconds
    return [
        CheckResult("basis-at-origin", 3, w_origin, tol0, w_origin <= tol0,
                    secs["basis-at-origin"]),
        CheckResult("basis-single-mode", 5, w_single, tol1, w_single <= tol1,
                    secs["basis-single-mode"]),
        CheckResult("basis-boundary-purity", n_boundary, w_purity, tolp, w_purity <= tolp,
                    secs["basis-boundary-purity"]),
    ]


def run_quadratic_identities(
    Ms=(1, 2), seed: int = 0, n_points: int = 20, tol: float | None = None,
) -> CheckResult:
    tol = TOLERANCES["quadratic-identities"] if tol is None else tol
    clock = _CheckClock()
    results = []
    per_m = max(1, n_points // len(Ms))
    with clock("quadratic-identities"):
        for M in Ms:
            majo = fock.build_majoranas(M)
            for i in range(per_m):
                x = random_interior_point(M, seed + 100 * M + i, scale=_ORACLE_SCALE)
                res = fock.verify_quadratic_identities(x, majo)
                results.append((max(res.values()), _instance(i, seed, x)))
    worst, worst_at = _worst(results)
    return CheckResult("quadratic-identities", len(results), worst, tol, worst <= tol,
                       clock.seconds["quadratic-identities"], info={"worst": worst_at})


def run_four_gamma(
    M: int = 2, seed: int = 0, n_points: int = 5, tol: float | None = None,
) -> CheckResult:
    tol = TOLERANCES["four-gamma"] if tol is None else tol
    clock = _CheckClock()
    results = []
    with clock("four-gamma"):
        majo = fock.build_majoranas(M)
        for i in range(n_points):
            x = random_interior_point(M, seed + i, scale=_ORACLE_SCALE)
            report = fock.verify_four_gamma(x, majo)
            res = max((max(pair) for pair in report.values()), default=0.0)
            results.append((res, _instance(i, seed, x)))
    worst, worst_at = _worst(results)
    return CheckResult("four-gamma", len(results), worst, tol, worst <= tol,
                       clock.seconds["four-gamma"], info={"worst": worst_at})


def run_fpe_sweep(
    spec: HamiltonianSpec,
    seed: int,
    n_instances: int = 20,
    label: str = "fpe",
    drift_form: str = "eq36",
    tol: float | None = None,
    scale: float = 1.0,
) -> CheckResult:
    """Exact-vs-kernel dQ/dt over seeded (rho, x) instances for one model."""
    tol = TOLERANCES["fpe"] if tol is None else tol
    clock = _CheckClock()
    results = []
    with clock(label):
        majo = fock.build_majoranas(spec.M)
        for i in range(n_instances):
            rho, x = fpe_instance(spec.M, seed, i)
            chk = fock.verify_fpe(rho, spec, x, majo, scale=scale, drift_form=drift_form)
            results.append((chk.residual, _instance(i, seed, x)))
    worst, worst_at = _worst(results)
    informational = drift_form != "eq36"
    info = {"drift_form": drift_form,
            "median_residual": float(np.median([r for r, _ in results])),
            "worst": worst_at}
    return CheckResult(label, len(results), worst, tol,
                       (worst <= tol) or informational, clock.seconds[label],
                       informational=informational, info=info)


def fpe_instance(M: int, seed: int, index: int) -> tuple[np.ndarray, PhasePoint]:
    """The (rho, x) of instance ``index`` of :func:`run_fpe_sweep` with ``seed``."""
    rho = fock.random_density_matrix(M, seed + 31 * index + 1)
    x = random_interior_point(M, seed + 97 * index, scale=_ORACLE_SCALE)
    return rho, x


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
    hub = preset_hubbard(1, 0.0, 4.0)
    cases.append(("fpe-m2-hubbard", HamiltonianSpec(2, hub.t, hub.g), 20))
    t3 = _random_coupling_matrix(3, rng, scale=0.25)
    quads = [(1, 2, 3, 4), (1, 3, 5, 6)]
    g3 = QuarticCoupling.from_entries(
        3, [(*q, float(rng.uniform(-0.5, 0.5))) for q in quads]
    )
    cases.append(("fpe-m3-quartic", HamiltonianSpec(3, t3, g3), 5))
    return cases


def run_traceless_and_channels(
    M: int,
    seed: int,
    cases: int = 100,
    g: QuarticCoupling | None = None,
) -> list[CheckResult]:
    """Diagonal/trace/eigensum of D plus its forward/backward split, one sweep.

    Each instance takes D from :func:`majoranaq.kernel.diffusion` and its
    channel decomposition from :func:`majoranaq.kernel.diffusion_channels`,
    two independent routes: D from the compound form of x, the channels
    from the Re/Im tables.  The traceless check passes only if both the
    worst diagonal entry and the worst eigenvalue sum are within their
    tolerances; the eigenvalues of all instances come from one stacked
    eigensolve after the loop, each equal to its own solve bit for bit.

    The channel check needs three things.  The channel reconstruction must
    match D.  The power balance |tr F - tr Bk| / max(tr F, 1) -- the
    traceless theorem written over the channels -- must hold, where the
    forward part F = sum_t |w_t| f_t f_t^T takes each channel's b_minus when
    w_t > 0 and its b_plus otherwise, and Bk takes the other vector, so that
    F - Bk = D; the traces are sums of |w_t| times squared row norms, so
    neither matrix is assembled (as such sums both are PSD by construction).
    And D must have the boundary structure of the pure-state surface
    x^2 = -I, at the boundary instances (odd i):

    * tangency: every column of D, unpacked to a matrix dX, satisfies
      x dX + dX x = 0, so the diffusion never leaves the surface;
    * the spectrum of D is +- symmetric, lambda_k = -lambda_{n-1-k};
    * at M <= 3, D vanishes: every even pure state of at most 3 modes is
      Gaussian, so the dynamics keeps a pure Gaussian state pure and
      Gaussian, and its point on the surface moves without spreading.

    An error in the Re/Im tables reaches only the channels, so the
    reconstruction catches it; an error in the compound route moves D, and
    the reconstruction or the boundary structure catches it.  Each boundary
    value is relative to max(|D|, 1), like the reconstruction, and the
    largest of the three is gated by ``channel-boundary``.
    """
    tol_diag = TOLERANCES["traceless-diagonal"]
    tol_sum = TOLERANCES["traceless-eigsum"]
    tol_rec = TOLERANCES["channel-reconstruction"]
    tol_bnd = TOLERANCES["channel-boundary"]
    tol_bal = TOLERANCES["channel-balance"]
    clock = _CheckClock()
    npairs = pair_count(M)
    stack = np.empty((cases, npairs, npairs))
    # unit denominator floor: couplings are order-one rates, and at M=2 the
    # only quartic channel gives an identically zero D
    scale = np.empty(cases)
    worst_diag = worst_rec = worst_bal = worst_tan = worst_zero = 0.0
    for i in range(cases):
        gi = g if g is not None else _random_quartic(M, np.random.default_rng(seed + i))
        on_boundary = i % 2 == 1
        if on_boundary:
            x = random_boundary_point(M, seed + 10000 + i)
        else:
            x = random_interior_point(M, seed + 10000 + i, scale=0.5)
        with clock("traceless"):
            D = kernel.diffusion(x, gi)
            stack[i] = D
            worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(D)))))
        with clock("channels"):
            decomp = kernel.diffusion_channels(x, gi)
            size = float(np.max(np.abs(D)))
            scale[i] = denom = max(size, 1.0)
            worst_rec = max(worst_rec, float(np.max(np.abs(decomp.reconstruct() - D))) / denom)
            w = decomp.weights
            minus = np.einsum("tp,tp->t", decomp.b_minus, decomp.b_minus)
            plus = np.einsum("tp,tp->t", decomp.b_plus, decomp.b_plus)
            trace_f = float(np.abs(w) @ np.where(w > 0, minus, plus))
            trace_b = float(np.abs(w) @ np.where(w > 0, plus, minus))
            worst_bal = max(worst_bal, abs(trace_f - trace_b) / max(trace_f, 1.0))
            if on_boundary:
                xm = x.matrix()
                dX = _unpack(M, D)  # the rows of the symmetric D are its columns
                worst_tan = max(worst_tan, float(np.max(np.abs(xm @ dX + dX @ xm))) / denom)
                if M <= 3:
                    worst_zero = max(worst_zero, size / denom)
    with clock("traceless"):
        eigs = np.linalg.eigvalsh(stack)
        worst_sum = float(np.max(np.abs(eigs.sum(axis=-1)), initial=0.0))
    with clock("channels"):
        edge = eigs[1::2]
        worst_sym = float(np.max(np.abs(edge + edge[:, ::-1]) / scale[1::2, None], initial=0.0))
    worst_bnd = max(worst_tan, worst_sym, worst_zero)
    return [
        CheckResult(f"traceless-m{M}", cases, worst_diag, tol_diag,
                    worst_diag <= tol_diag and worst_sum <= tol_sum,
                    clock.seconds["traceless"],
                    info={"eigsum": worst_sum, "eigsum_tol": tol_sum,
                          "eigsum_pass": worst_sum <= tol_sum}),
        CheckResult(f"channels-m{M}", cases, worst_rec, tol_rec,
                    worst_rec <= tol_rec and worst_bnd <= tol_bnd and worst_bal <= tol_bal,
                    clock.seconds["channels"],
                    info={"balance": worst_bal,
                          "boundary_tangency": worst_tan,
                          "boundary_symmetry": worst_sym,
                          "boundary_vanishing": worst_zero if M <= 3 else None}),
    ]


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


def run_appendix_c(
    Ms=(2, 3), seed: int = 0, cases: int = 50,
) -> list[CheckResult]:
    """Divergence identities of the closed-form coefficients.

    Each divergence is taken with the polynomial-exact stencils of
    :func:`_central`.  ``drift-divergence-free`` holds term by term for any
    commutator drift [x, c(x)] with antisymmetric couplings, so it is a
    structural identity of the commutator form: it catches a non-commutator
    term, such as a dilation, rather than a wrong coefficient.
    """
    tol_div = TOLERANCES["divergence-closed-form"]
    tol_da = TOLERANCES["drift-divergence-free"]
    tol_dd = TOLERANCES["double-divergence"]
    tol_eq = TOLERANCES["conservative-equivalence"]
    clock = _CheckClock()
    w_div = w_da = w_dd = w_eq = 0.0
    count = 0
    per_m = max(1, cases // len(Ms))
    for M in Ms:
        npairs = pair_count(M)
        for i in range(per_m):
            rng = np.random.default_rng(seed + 1000 * M + i)
            x = random_interior_point(M, seed + 1000 * M + i, scale=0.5)
            t = _random_coupling_matrix(M, rng)
            g = _random_quartic(M, rng)
            v = x.packed

            def dmat(u):
                return kernel.diffusion(PhasePoint(M, u), g)

            def avec(u):
                return kernel.drift(PhasePoint(M, u), t, g)

            with clock("divergence-closed-form"):
                div_d = sum(_central(dmat, v, q)[:, q] for q in range(npairs))
                w_div = max(w_div, float(np.max(np.abs(kernel.div_diffusion(x, g) - div_d))))
            with clock("drift-divergence-free"):
                div_a = sum(_central(avec, v, p)[p] for p in range(npairs))
                w_da = max(w_da, abs(float(div_a)))
            with clock("double-divergence"):
                div_div_d = sum(_central(dmat, v, p, q)[p, q] * (1 if p == q else 2)
                                for p in range(npairs) for q in range(p, npairs))
                w_dd = max(w_dd, abs(float(div_div_d)))
            with clock("conservative-equivalence"):
                grad = rng.normal(size=npairs)
                hess = rng.normal(size=(npairs, npairs))
                hess = (hess + hess.T) / 2
                q = float(rng.normal())
                r1 = kernel.fpe_rhs(x, t, g, grad, hess)
                r2 = kernel.conservative_rhs(x, t, g, q, grad, hess,
                                             float(div_a), float(div_div_d))
                w_eq = max(w_eq, abs(r1 - r2) / max(abs(r1), 1e-12))
            count += 1
    secs = clock.seconds
    return [
        CheckResult("divergence-closed-form", count, w_div, tol_div, w_div <= tol_div,
                    secs["divergence-closed-form"]),
        CheckResult("drift-divergence-free", count, w_da, tol_da, w_da <= tol_da,
                    secs["drift-divergence-free"]),
        CheckResult("double-divergence", count, w_dd, tol_dd, w_dd <= tol_dd,
                    secs["double-divergence"]),
        CheckResult("conservative-equivalence", count, w_eq, tol_eq, w_eq <= tol_eq,
                    secs["conservative-equivalence"]),
    ]


def run_tangency(
    Ms=(2, 3), seed: int = 0, n_points: int = 50, tol: float | None = None,
    spec: HamiltonianSpec | None = None,
) -> CheckResult:
    """Boundary tangency of the drift; couplings random unless a model is given."""
    tol = TOLERANCES["tangency"] if tol is None else tol
    clock = _CheckClock()
    worst = 0.0
    count = 0
    ms = (spec.M,) if spec is not None else Ms
    per_m = max(1, n_points // len(ms))
    with clock("tangency"):
        for M in ms:
            for i in range(per_m):
                rng = np.random.default_rng(seed + 500 * M + i)
                x = random_boundary_point(M, seed + 500 * M + i)
                if spec is not None:
                    t, g = spec.t, spec.g
                else:
                    t = _random_coupling_matrix(M, rng)
                    g = _random_quartic(M, rng)
                res = kernel.tangency_residual(x, t, g)
                worst = max(worst, float(np.max(np.abs(res))))
                count += 1
    return CheckResult("tangency", count, worst, tol, worst <= tol, clock.seconds["tangency"])


def run_flow_margin(
    Ms=(2, 3), seed: int = 0, dt: float = 1e-3, steps: int = 1000,
    tol: float | None = None, spec: HamiltonianSpec | None = None,
) -> CheckResult:
    """Margin growth of a boundary-started trajectory over the full horizon.

    No retraction is applied, so this measures the tangency of the drift at
    integrator order.  The random ensemble uses order-1/4 coupling rates: the
    margin bound is a statement about the integrator error of order-one
    dynamics over unit time, not about arbitrarily stiff models.
    """
    tol = TOLERANCES["flow-boundary-margin"] if tol is None else tol
    clock = _CheckClock()
    worst = 0.0
    count = 0
    ms = (spec.M,) if spec is not None else Ms
    with clock("flow-boundary-margin"):
        for M in ms:
            rng = np.random.default_rng(seed + M)
            x0 = random_boundary_point(M, seed + M)
            if spec is not None:
                model = spec
            else:
                model = HamiltonianSpec(
                    M,
                    _random_coupling_matrix(M, rng, scale=0.25),
                    _random_quartic(M, rng, max_quadruples=4, scale=0.25),
                )
            traj = flow(x0, model, dt, steps, method="rk4")
            worst = max(worst, float(np.max(np.abs(traj.margins))))
            count += 1
    return CheckResult("flow-boundary-margin", count, worst, tol, worst <= tol,
                       clock.seconds["flow-boundary-margin"])


def run_moment_m1(seed: int = 0, tol: float | None = None) -> CheckResult:
    tol = TOLERANCES["moment-m1"] if tol is None else tol
    clock = _CheckClock()
    worst = 0.0
    ground = None
    with clock("moment-m1"):
        states = [
            np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex),
            np.eye(2, dtype=complex) / 2,
            fock.random_density_matrix(1, seed + 1),
            fock.random_density_matrix(1, seed + 2),
        ]
        for idx, rho in enumerate(states):
            lhs, rhs = fock.verify_moment_identity_m1(rho)
            worst = max(worst, abs(lhs - rhs))
            if idx == 0:
                ground = (lhs, rhs)
    ok = worst <= tol and abs(ground[1] + 1.0) <= tol
    return CheckResult("moment-m1", len(states), worst, tol, ok, clock.seconds["moment-m1"],
                       info={"vacuum_lhs": ground[0], "vacuum_rhs": ground[1]})


def run_flow_equivalence(
    Ms=(1, 2, 3), seed: int = 0, seeds_per_m: int = 10, dt: float = 1e-3,
    steps: int = 1000, tol: float | None = None,
) -> CheckResult:
    """Quadratic-only trajectories against the matrix-exponential transport."""
    from scipy.linalg import expm  # on use, like dynamics: no CLI command runs this

    tol = TOLERANCES["flow-matrix-equivalence"] if tol is None else tol
    clock = _CheckClock()
    worst = 0.0
    count = 0
    with clock("flow-matrix-equivalence"):
        for M in Ms:
            for i in range(seeds_per_m):
                rng = np.random.default_rng(seed + 37 * M + i)
                t = _random_coupling_matrix(M, rng)
                x0 = random_boundary_point(M, seed + 37 * M + i)
                traj = flow(x0, HamiltonianSpec.free(t), dt, steps, method="rk4")
                horizon = steps * dt
                prop = expm(4 * horizon * t.matrix())
                ref = prop @ x0.matrix() @ prop.T
                worst = max(worst, float(np.max(np.abs(traj.final.matrix() - ref))))
                count += 1
    return CheckResult("flow-matrix-equivalence", count, worst, tol, worst <= tol,
                       clock.seconds["flow-matrix-equivalence"])


def run_hubbard_fidelity(tol: float | None = None) -> CheckResult:
    tol = TOLERANCES["hubbard-fidelity"] if tol is None else tol
    clock = _CheckClock()
    worst = 0.0
    shifts = []
    with clock("hubbard-fidelity"):
        for sites, hop, onsite in ((1, 0.0, 4.0), (2, 1.0, 4.0), (2, 0.7, 0.0)):
            preset = preset_hubbard(sites, hop, onsite)
            worst = max(worst, hubbard_comparison(preset, hop, onsite))
            shifts.append(preset.identity_shift)
    return CheckResult("hubbard-fidelity", len(shifts), worst, tol, worst <= tol,
                       clock.seconds["hubbard-fidelity"], info={"identity_shifts": shifts})
