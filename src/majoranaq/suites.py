"""Seeded verification sweeps with pass/fail records.

Each runner executes one structural claim over a reproducible ensemble and
returns a :class:`CheckResult`; the CLI assembles them into a
:class:`VerificationReport`, and the acceptance test suite runs them at the
pinned tolerances.  Every check is kept in one record, :class:`_Sweep`: it
times the check, counts its instances, keeps the worst residual (with the
record that re-runs its instance, where the check has one) and every other
value that gates ``passed``, and builds the result.  NaN ranks above every
number there, so a NaN residual or gated value at any instance fails its
check, and ``verify`` exits 1.  ``TOLERANCES`` is defined in :mod:`majoranaq.config`,
which validates overrides against it without loading this module; this
module re-exports the same dictionary.  The Fock-space oracle is imported
by the runners that use it, so the kernel sweeps (traceless, tangency) run
without loading it.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernel
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
    random_points,
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

# instances per stacked kernel call of the traceless/channel sweep with a
# given coupling: each holds its tables and a (4M^2, 4M^2) cross Gram, about
# 70 KB at M = 4, so the blocks stay small beside the per-instance overhead
# they remove
_SWEEP_BLOCK = 4


def _instance(index: int, seed: int, x: PhasePoint) -> dict:
    """Report record of one sweep instance: enough to re-run it.

    ``x`` is the instance's point, or the sweep's stack of points, of which
    row ``index`` is the instance's.
    """
    packed = x.packed if x.packed.ndim == 1 else x.packed[index]
    return {"index": index, "seed": seed, "M": x.M, "x": packed.tolist()}


def _median(values: list) -> float:
    """The median, bit for bit as np.median gives it, which would import numpy.ma.

    The middle value of the sorted values, or the mean (a + b) / 2 of the
    two middle values.
    """
    ordered = np.sort(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def _peak(values) -> float:
    """The largest of ``values`` (a number or an array), and 0.0 if they are empty.

    Residuals are non-negative, so the 0.0 floor moves none; a NaN among
    the values is the peak.
    """
    return float(np.max(values, initial=0.0))


def _above(value: float, worst: float) -> bool:
    """Whether ``value`` ranks above ``worst``: a larger number, or NaN over a number."""
    return value > worst or (value != value and worst == worst)


class _Sweep:
    """The record of one check's sweep, from which its :class:`CheckResult` is built.

    ``with sweep:`` charges the time of its block to the check.  Each
    :meth:`add` counts instances and keeps the worst residual, with NaN
    ranked above every number and ties kept by the first instance; a sweep
    given a ``seed`` reports that instance's record as ``info["worst"]``.
    Each keyword of ``gates`` names a further value that gates ``passed``,
    with its tolerance; :meth:`peak` keeps its largest value the same way.
    A NaN residual or gated value therefore fails the check.
    """

    def __init__(self, name: str, tol: float, seed: int | None = None, **gates: float):
        self.name, self.tol, self.seed, self.gates = name, tol, seed, gates
        self.seconds = 0.0
        self.instances = 0
        self.worst = 0.0
        self.at = None
        self.peaks = dict.fromkeys(gates, 0.0)

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._start

    def add(self, residual, record: dict | None = None, count: int = 1) -> None:
        """``count`` instances whose worst residual is the peak of ``residual``.

        ``record`` re-runs the instance of that residual.
        """
        residual = _peak(residual)
        if self.instances == 0 or _above(residual, self.worst):
            self.worst, self.at = residual, record
        self.instances += count

    def add_rows(self, residuals: np.ndarray, points: PhasePoint) -> None:
        """One instance per residual; instance i is row i of ``points``."""
        if len(residuals):
            at = int(np.argmax(residuals))  # the first maximum, or the first NaN
            self.add(residuals[at], _instance(at, self.seed, points), len(residuals))

    def peak(self, key: str, values) -> None:
        """Keeps the largest of ``values`` as the gated value ``key``."""
        value = _peak(values)
        if _above(value, self.peaks[key]):
            self.peaks[key] = value

    def result(self, informational: bool = False, **info) -> CheckResult:
        passed = self.worst <= self.tol and all(
            self.peaks[key] <= tol for key, tol in self.gates.items())
        if self.seed is not None:
            info["worst"] = self.at
        return CheckResult(self.name, self.instances, self.worst, self.tol,
                           passed or informational, self.seconds, informational, info)


# ---------------------------------------------------------------------------
# criterion runners
# ---------------------------------------------------------------------------


def run_anticommutation(Ms=(1, 2, 3), tol: float | None = None) -> CheckResult:
    from . import fock

    tol = TOLERANCES["anticommutation"] if tol is None else tol
    with _Sweep("anticommutation", tol) as sweep:
        for M in Ms:
            majo = fock.build_majoranas(M)
            eye = np.eye(majo.dim)
            for i in range(2 * M):
                for j in range(2 * M):
                    anti = majo[i] @ majo[j] + majo[j] @ majo[i]
                    residuals = [np.max(np.abs(anti - 2 * (i == j) * eye))]
                    if i == j:  # the diagonal instance also checks that gamma_i is Hermitian
                        residuals.append(np.max(np.abs(majo[i] - majo[i].conj().T)))
                    sweep.add(residuals)
    return sweep.result(modes=list(Ms))


def run_gaussian_basis(seed: int, n_boundary: int = 10) -> list[CheckResult]:
    from . import fock

    with _Sweep("basis-at-origin", TOLERANCES["basis-at-origin"]) as origin:
        for M in (1, 2, 3):
            lam = fock.gaussian_basis(PhasePoint.zero(M))
            origin.add(np.abs(lam - np.eye(2 ** M) / 2 ** M))
    with _Sweep("basis-single-mode", TOLERANCES["basis-single-mode"]) as single:
        for s in (-0.9, -0.5, 0.0, 0.5, 0.9):
            lam = fock.gaussian_basis(PhasePoint(1, np.array([s])))
            single.add(np.abs(lam - np.diag([(1 - s) / 2, (1 + s) / 2])))
    with _Sweep("basis-boundary-purity", TOLERANCES["basis-boundary-purity"]) as purity:
        for i in range(n_boundary):
            lam = fock.gaussian_basis(random_boundary_point(1 + i % 2, seed + i))
            purity.add(np.abs(lam @ lam - lam))
    return [origin.result(), single.result(), purity.result()]


def run_quadratic_identities(
    Ms=(1, 2), seed: int = 0, n_points: int = 20, tol: float | None = None,
) -> CheckResult:
    from . import fock

    tol = TOLERANCES["quadratic-identities"] if tol is None else tol
    per_m = max(1, n_points // len(Ms))
    with _Sweep("quadratic-identities", tol, seed) as sweep:
        for M in Ms:
            majo = fock.build_majoranas(M)
            for i in range(per_m):
                x = random_interior_point(M, seed + 100 * M + i, scale=_ORACLE_SCALE)
                res = fock.verify_quadratic_identities(x, majo)
                sweep.add(list(res.values()), _instance(i, seed, x))
    return sweep.result()


def run_four_gamma(
    M: int = 2, seed: int = 0, n_points: int = 5, tol: float | None = None,
) -> CheckResult:
    from . import fock

    tol = TOLERANCES["four-gamma"] if tol is None else tol
    with _Sweep("four-gamma", tol, seed) as sweep:
        majo = fock.build_majoranas(M)
        for i in range(n_points):
            x = random_interior_point(M, seed + i, scale=_ORACLE_SCALE)
            report = fock.verify_four_gamma(x, majo)
            sweep.add(list(report.values()), _instance(i, seed, x))
    return sweep.result()


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
    from . import fock

    tol = TOLERANCES["fpe"] if tol is None else tol
    residuals = []
    with _Sweep(label, tol, seed) as sweep:
        majo = fock.build_majoranas(spec.M)
        for i in range(n_instances):
            rho, x = fpe_instance(spec.M, seed, i)
            chk = fock.verify_fpe(rho, spec, x, majo, scale=scale, drift_form=drift_form)
            sweep.add(chk.residual, _instance(i, seed, x))
            residuals.append(chk.residual)
    return sweep.result(informational=drift_form != "eq36", drift_form=drift_form,
                        median_residual=_median(residuals))


def fpe_instance(M: int, seed: int, index: int) -> tuple[np.ndarray, PhasePoint]:
    """The (rho, x) of instance ``index`` of :func:`run_fpe_sweep` with ``seed``."""
    from . import fock

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
    hub3 = preset_hubbard(3, 1.0, 4.0)
    cases.append(("fpe-m6-hubbard", HamiltonianSpec(6, hub3.t, hub3.g), 5))
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
    tolerances; the eigenvalues of each kernel stack come from one stacked
    eigensolve, each equal to its own solve bit for bit, and no D is kept
    past its stack.

    The points are drawn as one stack by
    :func:`majoranaq.tensors.random_points`.  Instances that share a
    coupling go through the kernel as stacks: up to ``_SWEEP_BLOCK`` of them
    with a given ``g``, and one at a time with random couplings.  Every
    residual and worst-instance record equals that of the point alone bit
    for bit.

    The channel check needs three things.  The channel reconstruction must
    match D.  The power balance |tr F - tr Bk| / max(tr F, 1) -- the
    traceless theorem written over the channels -- must hold, where the
    forward part F = sum_t |w_t| f_t f_t^T takes each channel's b_minus when
    w_t > 0 and its b_plus otherwise, and Bk takes the other vector, so that
    F - Bk = D.  :meth:`majoranaq.kernel.ChannelDecomposition.traces` takes
    both traces from the Re/Im table row norms and one cross Gram of the
    tables, so neither matrix is assembled (as sums of |w_t| times squared
    norms both are PSD by construction), and
    :meth:`~majoranaq.kernel.ChannelDecomposition.reconstruct` takes the
    channel sum as one weighted product of the tables; no per-channel vector
    is gathered.
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

    ``info["worst"]`` of each check records the instance of its worst
    residual -- the largest diagonal entry, the worst reconstruction -- as
    its index, seed, M and packed x; with the coupling (the given ``g``, or
    ``_random_quartic(M, default_rng(seed + index))``) it re-runs that
    instance.
    """
    tol_sum = TOLERANCES["traceless-eigsum"]
    tol_bnd = TOLERANCES["channel-boundary"]
    traceless = _Sweep(f"traceless-m{M}", TOLERANCES["traceless-diagonal"], seed, eigsum=tol_sum)
    channels = _Sweep(f"channels-m{M}", TOLERANCES["channel-reconstruction"], seed,
                      balance=TOLERANCES["channel-balance"], boundary_tangency=tol_bnd,
                      boundary_symmetry=tol_bnd, boundary_vanishing=tol_bnd)
    npairs = pair_count(M)
    on_boundary = np.arange(cases) % 2 == 1
    points = random_points(M, range(seed + 10000, seed + 10000 + cases), on_boundary, scale=0.5)
    if g is not None:
        blocks = [(lo, min(lo + _SWEEP_BLOCK, cases), g) for lo in range(0, cases, _SWEEP_BLOCK)]
    else:
        blocks = [(i, i + 1, _random_quartic(M, np.random.default_rng(seed + i)))
                  for i in range(cases)]
    eigs = np.empty((cases, npairs))
    # unit denominator floor: couplings are order-one rates, and at M=2 the
    # only quartic channel gives an identically zero D
    scale = np.empty(cases)
    diags = np.empty(cases)
    recs = np.empty(cases)
    for lo, hi, gi in blocks:
        x = PhasePoint(M, points.packed[lo:hi])
        with traceless:
            D = kernel.diffusion(x, gi)
            diags[lo:hi] = np.abs(np.diagonal(D, axis1=-2, axis2=-1)).max(axis=-1)
            eigs[lo:hi] = np.linalg.eigvalsh(D)
        with channels:
            decomp = kernel.diffusion_channels(x, gi)
            size = np.abs(D).max(axis=(-2, -1))
            denom = scale[lo:hi] = np.maximum(size, 1.0)
            recs[lo:hi] = np.abs(decomp.reconstruct() - D).max(axis=(-2, -1)) / denom
            trace_f, trace_b = decomp.traces()
            channels.peak("balance", np.abs(trace_f - trace_b) / np.maximum(trace_f, 1.0))
            on = on_boundary[lo:hi]
            if on.any():
                xm = x.matrix()[on, None]
                dX = _unpack(M, D[on])  # the rows of the symmetric D are its columns
                tangency = np.abs(xm @ dX + dX @ xm).max(axis=(-3, -2, -1)) / denom[on]
                channels.peak("boundary_tangency", tangency)
                if M <= 3:
                    channels.peak("boundary_vanishing", size[on] / denom[on])
    with traceless:
        traceless.peak("eigsum", np.abs(eigs.sum(axis=-1)))
    with channels:
        edge = eigs[1::2]
        channels.peak("boundary_symmetry", np.abs(edge + edge[:, ::-1]) / scale[1::2, None])
    traceless.add_rows(diags, points)
    channels.add_rows(recs, points)
    eigsum, peaks = traceless.peaks["eigsum"], channels.peaks
    return [
        traceless.result(eigsum=eigsum, eigsum_tol=tol_sum, eigsum_pass=eigsum <= tol_sum),
        channels.result(balance=peaks["balance"],
                        boundary_tangency=peaks["boundary_tangency"],
                        boundary_symmetry=peaks["boundary_symmetry"],
                        boundary_vanishing=peaks["boundary_vanishing"] if M <= 3 else None),
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

    ``info["worst"]`` of each check records the instance of its worst
    residual as its index, seed, M and packed x; the instance's ``t``, ``g``
    (``_random_coupling_matrix`` then ``_random_quartic``) and the
    conservative-equivalence test data are drawn, in that order, from
    ``default_rng(seed + 1000 M + index)``.
    """
    div, free, double, equiv = (
        _Sweep(name, TOLERANCES[name], seed)
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
                r1 = kernel.fpe_rhs(x, t, g, grad, hess)
                r2 = kernel.conservative_rhs(x, t, g, q, grad, hess,
                                             float(div_a), float(div_div_d))
                equiv.add(abs(r1 - r2) / max(abs(r1), 1e-12), at)
    return [div.result(), free.result(), double.result(), equiv.result()]


def run_tangency(
    Ms=(2, 3), seed: int = 0, n_points: int = 50, tol: float | None = None,
    spec: HamiltonianSpec | None = None,
) -> CheckResult:
    """Boundary tangency of the drift; couplings random unless a model is given.

    The boundary points of each M are drawn as one stack by
    :func:`majoranaq.tensors.random_points`, point i from seed
    ``seed + 500 M + i``.  ``info["worst"]`` records the point with the
    largest residual as its index, seed, M and packed x; with the coupling
    (the given ``spec``, or ``_random_coupling_matrix`` then
    ``_random_quartic`` drawn from ``default_rng(seed + 500 M + index)``) it
    re-runs that instance.
    """
    tol = TOLERANCES["tangency"] if tol is None else tol
    ms = (spec.M,) if spec is not None else Ms
    per_m = max(1, n_points // len(ms))
    with _Sweep("tangency", tol, seed) as sweep:
        for M in ms:
            seeds = range(seed + 500 * M, seed + 500 * M + per_m)
            points = random_points(M, seeds, True)
            for i, point_seed in enumerate(seeds):
                if spec is not None:
                    t, g = spec.t, spec.g
                else:
                    rng = np.random.default_rng(point_seed)
                    t = _random_coupling_matrix(M, rng)
                    g = _random_quartic(M, rng)
                x = PhasePoint(M, points.packed[i])
                sweep.add(np.abs(kernel.tangency_residual(x, t, g)), _instance(i, seed, x))
    return sweep.result()


def run_flow_margin(
    Ms=(2, 3), seed: int = 0, dt: float = 1e-3, steps: int = 1000,
    tol: float | None = None, spec: HamiltonianSpec | None = None,
) -> CheckResult:
    """Margin growth of a boundary-started trajectory over the full horizon.

    No retraction is applied, so this measures the tangency of the drift at
    integrator order.  The random ensemble uses order-1/4 coupling rates: the
    margin bound is a statement about the integrator error of order-one
    dynamics over unit time, not about arbitrarily stiff models.

    ``info["worst"]`` records the run with the largest |margin| as its index,
    seed, M and packed starting point, plus the ``step`` of that margin and
    the run's ``dt`` and ``steps``.  With the model (the given ``spec``, or
    the random ensemble drawn from ``default_rng(seed + M)``) it re-runs that
    flow.
    """
    tol = TOLERANCES["flow-boundary-margin"] if tol is None else tol
    ms = (spec.M,) if spec is not None else Ms
    with _Sweep("flow-boundary-margin", tol, seed) as sweep:
        for i, M in enumerate(ms):
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
            margins = np.abs(flow(x0, model, dt, steps, method="rk4").margins)
            step = int(np.argmax(margins))
            record = {**_instance(i, seed, x0), "step": step, "dt": dt, "steps": steps}
            sweep.add(margins[step], record)
    return sweep.result()


def run_moment_m1(seed: int = 0, tol: float | None = None) -> CheckResult:
    """The M = 1 moment identity over five states, the vacuum first.

    The vacuum's right side must also read -1.  ``info["worst"]`` records
    the index of the worst state and the seed of the two random ones.
    """
    from . import fock

    tol = TOLERANCES["moment-m1"] if tol is None else tol
    with _Sweep("moment-m1", tol, seed, vacuum=tol) as sweep:
        states = [
            np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex),
            np.eye(2, dtype=complex) / 2,
            fock.random_density_matrix(1, seed + 1),
            fock.random_density_matrix(1, seed + 2),
        ]
        moments = [fock.verify_moment_identity_m1(rho) for rho in states]
        for idx, (lhs, rhs) in enumerate(moments):
            sweep.add(abs(lhs - rhs), {"index": idx, "seed": seed})
        vacuum_lhs, vacuum_rhs = moments[0]
        sweep.peak("vacuum", abs(vacuum_rhs + 1.0))
    return sweep.result(vacuum_lhs=vacuum_lhs, vacuum_rhs=vacuum_rhs)


def run_flow_equivalence(
    Ms=(1, 2, 3), seed: int = 0, seeds_per_m: int = 10, dt: float = 1e-3,
    steps: int = 1000, tol: float | None = None,
) -> CheckResult:
    """Quadratic-only trajectories against the matrix-exponential transport."""
    from scipy.linalg import expm  # on use, like dynamics: no CLI command runs this

    tol = TOLERANCES["flow-matrix-equivalence"] if tol is None else tol
    with _Sweep("flow-matrix-equivalence", tol) as sweep:
        for M in Ms:
            for i in range(seeds_per_m):
                rng = np.random.default_rng(seed + 37 * M + i)
                t = _random_coupling_matrix(M, rng)
                x0 = random_boundary_point(M, seed + 37 * M + i)
                traj = flow(x0, HamiltonianSpec.free(t), dt, steps, method="rk4")
                horizon = steps * dt
                prop = expm(4 * horizon * t.matrix())
                ref = prop @ x0.matrix() @ prop.T
                sweep.add(np.abs(traj.final.matrix() - ref))
    return sweep.result()


def run_hubbard_fidelity(tol: float | None = None) -> CheckResult:
    tol = TOLERANCES["hubbard-fidelity"] if tol is None else tol
    shifts = []
    with _Sweep("hubbard-fidelity", tol) as sweep:
        for sites, hop, onsite in ((1, 0.0, 4.0), (2, 1.0, 4.0), (2, 0.7, 0.0)):
            preset = preset_hubbard(sites, hop, onsite)
            sweep.add(hubbard_comparison(preset, hop, onsite))
            shifts.append(preset.identity_shift)
    return sweep.result(identity_shifts=shifts)
