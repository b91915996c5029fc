"""Seeded verification sweeps with pass/fail records.

Each runner executes one structural claim over a reproducible ensemble and
returns a :class:`CheckResult`; the CLI assembles them into a
:class:`VerificationReport`, and the acceptance test suite runs them at the
pinned tolerances below.
"""

from __future__ import annotations

import platform
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import fock, kernel
from .dynamics import flow
from .hubbard import hubbard_comparison, preset_hubbard
from .tensors import (
    CouplingMatrix,
    HamiltonianSpec,
    PhasePoint,
    QuarticCoupling,
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

# Pinned acceptance tolerances.
TOLERANCES = {
    "anticommutation": 1e-13,
    "basis-at-origin": 1e-14,
    "basis-single-mode": 1e-12,
    "basis-boundary-purity": 1e-10,
    "quadratic-identities": 1e-10,
    "four-gamma": 1e-10,
    "fpe": 1e-10,
    "traceless-diagonal": 1e-12,
    "traceless-eigsum": 1e-10,
    "channel-reconstruction": 1e-12,
    "channel-psd": 1e-12,
    "channel-balance": 1e-12,
    "divergence-closed-form": 1e-12,
    "drift-divergence-free": 1e-12,
    "double-divergence": 1e-12,
    "conservative-equivalence": 1e-12,
    "tangency": 1e-9,
    "flow-boundary-margin": 1e-7,
    "moment-m1": 1e-6,
    "flow-matrix-equivalence": 1e-8,
    "hubbard-fidelity": 1e-12,
}


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


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


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
    def body():
        worst = 0.0
        count = 0
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
        return worst, count
    (worst, count), secs = _timed(body)
    return CheckResult("anticommutation", count, worst, tol, worst <= tol, secs,
                       info={"modes": list(Ms)})


def run_gaussian_basis(seed: int, n_boundary: int = 10) -> list[CheckResult]:
    tol0 = TOLERANCES["basis-at-origin"]
    tol1 = TOLERANCES["basis-single-mode"]
    tolp = TOLERANCES["basis-boundary-purity"]
    checks = []

    def origin():
        worst = 0.0
        for M in (1, 2, 3):
            lam = fock.gaussian_basis(PhasePoint.zero(M))
            worst = max(worst, float(np.max(np.abs(lam - np.eye(2 ** M) / 2 ** M))))
        return worst, 3
    (worst, count), secs = _timed(origin)
    checks.append(CheckResult("basis-at-origin", count, worst, tol0, worst <= tol0, secs))

    def single_mode():
        worst = 0.0
        grid = (-0.9, -0.5, 0.0, 0.5, 0.9)
        for s in grid:
            lam = fock.gaussian_basis(PhasePoint(1, np.array([s])))
            ref = np.diag([(1 - s) / 2, (1 + s) / 2])
            worst = max(worst, float(np.max(np.abs(lam - ref))))
        return worst, 5
    (worst, count), secs = _timed(single_mode)
    checks.append(CheckResult("basis-single-mode", count, worst, tol1, worst <= tol1, secs))

    def purity():
        worst = 0.0
        for i in range(n_boundary):
            M = 1 + i % 2
            x = random_boundary_point(M, seed + i)
            lam = fock.gaussian_basis(x)
            worst = max(worst, float(np.max(np.abs(lam @ lam - lam))))
        return worst, n_boundary
    (worst, count), secs = _timed(purity)
    checks.append(
        CheckResult("basis-boundary-purity", count, worst, tolp, worst <= tolp, secs)
    )
    return checks


def run_quadratic_identities(
    Ms=(1, 2), seed: int = 0, n_points: int = 20, tol: float | None = None,
) -> CheckResult:
    tol = TOLERANCES["quadratic-identities"] if tol is None else tol
    def body():
        results = []
        per_m = max(1, n_points // len(Ms))
        for M in Ms:
            majo = fock.build_majoranas(M)
            for i in range(per_m):
                x = random_interior_point(M, seed + 100 * M + i, scale=_ORACLE_SCALE)
                res = fock.verify_quadratic_identities(x, majo)
                results.append((max(res.values()), _instance(i, seed, x)))
        return results
    results, secs = _timed(body)
    worst, worst_at = _worst(results)
    return CheckResult("quadratic-identities", len(results), worst, tol, worst <= tol, secs,
                       info={"worst": worst_at})


def run_four_gamma(
    M: int = 2, seed: int = 0, n_points: int = 5, tol: float | None = None,
) -> CheckResult:
    tol = TOLERANCES["four-gamma"] if tol is None else tol
    def body():
        majo = fock.build_majoranas(M)
        results = []
        for i in range(n_points):
            x = random_interior_point(M, seed + i, scale=_ORACLE_SCALE)
            report = fock.verify_four_gamma(x, majo)
            res = max((max(pair) for pair in report.values()), default=0.0)
            results.append((res, _instance(i, seed, x)))
        return results
    results, secs = _timed(body)
    worst, worst_at = _worst(results)
    return CheckResult("four-gamma", len(results), worst, tol, worst <= tol, secs,
                       info={"worst": worst_at})


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
    def body():
        majo = fock.build_majoranas(spec.M)
        results = []
        for i in range(n_instances):
            rho, x = fpe_instance(spec.M, seed, i)
            chk = fock.verify_fpe(rho, spec, x, majo, scale=scale, drift_form=drift_form)
            results.append((chk.residual, _instance(i, seed, x)))
        return results
    results, secs = _timed(body)
    worst, worst_at = _worst(results)
    informational = drift_form != "eq36"
    info = {"drift_form": drift_form,
            "median_residual": float(np.median([r for r, _ in results])),
            "worst": worst_at}
    return CheckResult(label, len(results), worst, tol,
                       (worst <= tol) or informational, secs,
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

    The traceless check passes only if both the worst diagonal entry and the
    worst eigenvalue sum are within their tolerances.

    The channel check assembles, per instance, the forward part
    F = sum_t |w_t| f_t f_t^T and the backward part Bk = sum_t |w_t| k_t k_t^T,
    where f_t is the channel's b_minus when w_t > 0 and its b_plus otherwise,
    and k_t is the other vector, so that F - Bk = D.  It needs three things:
    the channel reconstruction (an independent route to D) within tolerance,
    F and Bk positive semidefinite, and the power balance
    |tr F - tr Bk| / max(tr F, 1) -- the traceless theorem written over the
    channels -- within tolerance.  Each single channel |w| f f^T has the
    closed-form spectrum {|w| |f|^2, 0, ...}, so F and Bk are tested as
    assembled sums rather than one eigensolve per channel; as sums of such
    terms they are PSD up to round-off, so a wrong decomposition shows in
    the balance and the reconstruction.
    """
    tol_diag = TOLERANCES["traceless-diagonal"]
    tol_sum = TOLERANCES["traceless-eigsum"]
    tol_rec = TOLERANCES["channel-reconstruction"]
    tol_psd = TOLERANCES["channel-psd"]
    tol_bal = TOLERANCES["channel-balance"]
    clock = _CheckClock()
    worst_diag = worst_sum = worst_rec = worst_psd = worst_bal = 0.0
    for i in range(cases):
        rng = np.random.default_rng(seed + i)
        gi = g if g is not None else _random_quartic(M, rng)
        if i % 2 == 0:
            x = random_interior_point(M, seed + 10000 + i, scale=0.5)
        else:
            x = random_boundary_point(M, seed + 10000 + i)
        with clock("traceless"):
            D = kernel.diffusion(x, gi)
            worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(D)))) if D.size else 0.0)
            eigs = np.linalg.eigvalsh(D)
            worst_sum = max(worst_sum, abs(float(np.sum(eigs))))
        with clock("channels"):
            decomp = kernel.diffusion_channels(x, gi)
            recon = decomp.reconstruct()
            # unit denominator floor: couplings are order-one rates, and at
            # M=2 the only quartic channel gives an identically zero D
            denom = max(float(np.max(np.abs(D))), 1.0)
            worst_rec = max(worst_rec, float(np.max(np.abs(recon - D))) / denom)
            forward_is_minus = (decomp.weights > 0)[:, None]
            fwd = np.where(forward_is_minus, decomp.b_minus, decomp.b_plus)
            bwd = np.where(forward_is_minus, decomp.b_plus, decomp.b_minus)
            w = np.abs(decomp.weights)[:, None]
            F = (w * fwd).T @ fwd
            Bk = (w * bwd).T @ bwd
            lowest = min(float(np.linalg.eigvalsh(F)[0]), float(np.linalg.eigvalsh(Bk)[0]))
            worst_psd = max(worst_psd, -lowest)
            trace_f = float(np.trace(F))
            worst_bal = max(worst_bal, abs(trace_f - float(np.trace(Bk))) / max(trace_f, 1.0))
    return [
        CheckResult(f"traceless-m{M}", cases, worst_diag, tol_diag,
                    worst_diag <= tol_diag and worst_sum <= tol_sum,
                    clock.seconds["traceless"],
                    info={"eigsum": worst_sum, "eigsum_tol": tol_sum,
                          "eigsum_pass": worst_sum <= tol_sum}),
        CheckResult(f"channels-m{M}", cases, worst_rec, tol_rec,
                    worst_rec <= tol_rec and worst_psd <= tol_psd and worst_bal <= tol_bal,
                    clock.seconds["channels"],
                    info={"psd_defect": worst_psd, "balance": worst_bal}),
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
                r2 = kernel.conservative_rhs(x, t, g, q, grad, hess)
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
    def body():
        worst = 0.0
        count = 0
        ms = (spec.M,) if spec is not None else Ms
        per_m = max(1, n_points // len(ms))
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
        return worst, count
    (worst, count), secs = _timed(body)
    return CheckResult("tangency", count, worst, tol, worst <= tol, secs)


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
    def body():
        worst = 0.0
        count = 0
        ms = (spec.M,) if spec is not None else Ms
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
        return worst, count
    (worst, count), secs = _timed(body)
    return CheckResult("flow-boundary-margin", count, worst, tol, worst <= tol, secs)


def run_moment_m1(seed: int = 0, tol: float | None = None) -> CheckResult:
    tol = TOLERANCES["moment-m1"] if tol is None else tol
    def body():
        states = [
            np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex),
            np.eye(2, dtype=complex) / 2,
            fock.random_density_matrix(1, seed + 1),
            fock.random_density_matrix(1, seed + 2),
        ]
        worst = 0.0
        ground = None
        for idx, rho in enumerate(states):
            lhs, rhs = fock.verify_moment_identity_m1(rho)
            worst = max(worst, abs(lhs - rhs))
            if idx == 0:
                ground = (lhs, rhs)
        return worst, len(states), ground
    (worst, count, ground), secs = _timed(body)
    ok = worst <= tol and abs(ground[1] + 1.0) <= tol
    return CheckResult("moment-m1", count, worst, tol, ok, secs,
                       info={"vacuum_lhs": ground[0], "vacuum_rhs": ground[1]})


def run_flow_equivalence(
    Ms=(1, 2, 3), seed: int = 0, seeds_per_m: int = 10, dt: float = 1e-3,
    steps: int = 1000, tol: float | None = None,
) -> CheckResult:
    """Quadratic-only trajectories against the matrix-exponential transport."""
    from scipy.linalg import expm  # on use, like dynamics: no CLI command runs this

    tol = TOLERANCES["flow-matrix-equivalence"] if tol is None else tol
    def body():
        worst = 0.0
        count = 0
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
        return worst, count
    (worst, count), secs = _timed(body)
    return CheckResult("flow-matrix-equivalence", count, worst, tol, worst <= tol, secs)


def run_hubbard_fidelity(tol: float | None = None) -> CheckResult:
    tol = TOLERANCES["hubbard-fidelity"] if tol is None else tol
    def body():
        worst = 0.0
        shifts = []
        for sites, hop, onsite in ((1, 0.0, 4.0), (2, 1.0, 4.0), (2, 0.7, 0.0)):
            preset = preset_hubbard(sites, hop, onsite)
            worst = max(worst, hubbard_comparison(preset, hop, onsite))
            shifts.append(preset.identity_shift)
        return worst, 3, shifts
    (worst, count, shifts), secs = _timed(body)
    return CheckResult("hubbard-fidelity", count, worst, tol, worst <= tol, secs,
                       info={"identity_shifts": shifts})
