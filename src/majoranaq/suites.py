"""Seeded verification sweeps with pass/fail records.

Each runner executes one structural claim over a reproducible ensemble at
one mode count M and returns a :class:`CheckResult`; its default ensemble
size is the one ``verify`` runs.  :func:`_verify_checks` checks the
mode-count caps of each ``verify --suite`` and runs its runners, and the
CLI assembles their results into a :class:`VerificationReport`.  Every
runner here is one that ``verify`` reaches; the sweeps that only the
acceptance tests run, with their own pinned bars, live with the tests.
Every check is kept in one record, :class:`_Sweep`: it times the check,
counts its instances, keeps the worst residual (with the record that
re-runs its instance, where the check has one) and every other value that
gates ``passed``, and builds the result.  NaN ranks above every number
there, so a NaN residual or gated value at any instance fails its check,
and ``verify`` exits 1.  :data:`TOLERANCES` pins the bar of every check
here: each runner reads the bars it gates from it when it is called, and
no config or argument changes them.  The Fock-space oracle and
the flow are imported by the runners that use them, so the traceless sweep
loads neither, and the tangency suite only the flow.
"""

from __future__ import annotations

import platform
import time
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import kernel
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

if TYPE_CHECKING:
    from .config import ModelConfig

__all__ = [
    "CheckResult",
    "VerificationReport",
    "TOLERANCES",
    "run_quadratic_identities",
    "run_four_gamma",
    "run_fpe_sweep",
    "fpe_instance",
    "run_traceless_and_channels",
    "run_tangency",
    "run_flow_margin",
    "run_moment_m1",
]


# Pinned tolerances: the bar of every check a ``verify --suite`` gates.
TOLERANCES = {
    "quadratic-identities": 1e-10,
    "four-gamma": 1e-10,
    "fpe": 1e-10,
    "traceless-diagonal": 1e-12,
    "traceless-eigsum": 1e-10,
    "channel-reconstruction": 1e-12,
    "channel-balance": 1e-12,
    "channel-boundary": 1e-12,
    "tangency": 1e-9,
    "flow-boundary-margin": 1e-7,
    "moment-m1": 1e-6,
}


class CheckResult(NamedTuple):
    """One check's record; ``info`` defaults to an empty read-only map."""

    name: str
    instances: int
    max_residual: float
    tolerance: float
    passed: bool
    seconds: float = 0.0
    informational: bool = False
    info: dict | MappingProxyType = MappingProxyType({})

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


class VerificationReport(NamedTuple):
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
# 70 KB at M = 4, so a block of 16 peaks near 1.5 MB there (traced) and pays
# the per-call overhead once for 16 instances
_SWEEP_BLOCK = 16


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


def run_quadratic_identities(M: int, seed: int = 0, n_points: int = 10) -> CheckResult:
    """Quadratic identities at M modes; point i is drawn from seed ``seed + 100 M + i``."""
    from . import fock

    with _Sweep("quadratic-identities", TOLERANCES["quadratic-identities"], seed) as sweep:
        for i in range(n_points):
            x = random_interior_point(M, seed + 100 * M + i, scale=_ORACLE_SCALE)
            res = fock.verify_quadratic_identities(x)
            sweep.add(list(res.values()), _instance(i, seed, x))
    return sweep.result()


def run_four_gamma(M: int, seed: int = 0, n_points: int = 3) -> CheckResult:
    """Four-gamma identities at M >= 2 modes; point i is drawn from seed ``seed + i``."""
    from . import fock

    with _Sweep("four-gamma", TOLERANCES["four-gamma"], seed) as sweep:
        for i in range(n_points):
            x = random_interior_point(M, seed + i, scale=_ORACLE_SCALE)
            report = fock.verify_four_gamma(x)
            sweep.add(list(report.values()), _instance(i, seed, x))
    return sweep.result()


def run_fpe_sweep(
    spec: HamiltonianSpec,
    seed: int,
    n_instances: int = 20,
    drift_form: str = "eq36",
) -> CheckResult:
    """Exact-vs-kernel dQ/dt over seeded (rho, x) instances for one model."""
    from . import fock

    checks = []
    with _Sweep("fpe", TOLERANCES["fpe"], seed) as sweep:
        for i in range(n_instances):
            rho, x = fpe_instance(spec.M, seed, i)
            checks.append(fock.verify_fpe(rho, spec, x, drift_form=drift_form))
            sweep.add(checks[-1].residual, _instance(i, seed, x))
    return sweep.result(informational=drift_form != "eq36", drift_form=drift_form,
                        median_residual=_median([c.residual for c in checks]),
                        conservative_residual=_peak([c.conservative for c in checks]))


def fpe_instance(M: int, seed: int, index: int) -> tuple[np.ndarray, PhasePoint]:
    """The (rho, x) of instance ``index`` of :func:`run_fpe_sweep` with ``seed``."""
    from . import fock

    rho = fock.random_density_matrix(M, seed + 31 * index + 1)
    x = random_interior_point(M, seed + 97 * index, scale=_ORACLE_SCALE)
    return rho, x


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
            try:
                eigs[lo:hi] = np.linalg.eigvalsh(D)
            except np.linalg.LinAlgError as exc:  # an overflowed D: a numerical error
                raise FloatingPointError(f"{traceless.name}: eigensolve of D failed "
                                         f"at instances {lo}-{hi - 1}: {exc}") from None
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


def run_tangency(
    M: int, seed: int = 0, n_points: int = 25, spec: HamiltonianSpec | None = None,
) -> CheckResult:
    """Boundary tangency of the drift at M modes; couplings random unless a model is given.

    The boundary points are drawn as one stack by
    :func:`majoranaq.tensors.random_points`, point i from seed
    ``seed + 500 M + i``.  ``info["worst"]`` records the point with the
    largest residual as its index, seed, M and packed x; with the coupling
    (the given ``spec``, or ``_random_coupling_matrix`` then
    ``_random_quartic`` drawn from ``default_rng(seed + 500 M + index)``) it
    re-runs that instance.
    """
    seeds = range(seed + 500 * M, seed + 500 * M + n_points)
    with _Sweep("tangency", TOLERANCES["tangency"], seed) as sweep:
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


# step and step count of the flow-boundary-margin run: unit time
_MARGIN_DT = 1e-3
_MARGIN_STEPS = 1000


def run_flow_margin(M: int, seed: int = 0, spec: HamiltonianSpec | None = None) -> CheckResult:
    """Margin growth of a boundary-started trajectory of M modes over unit time.

    The flow starts at ``random_boundary_point(M, seed + M)`` and takes
    ``_MARGIN_STEPS`` RK4 steps of ``_MARGIN_DT``.  No retraction is applied,
    so this measures the tangency of the drift at integrator order.  The
    random ensemble uses order-1/4 coupling rates: the margin bound is a
    statement about the integrator error of order-one dynamics over unit
    time, not about arbitrarily stiff models.

    ``info["worst"]`` records the run as its index, seed, M and packed
    starting point, plus the ``step`` of its largest |margin| and the run's
    ``dt`` and ``steps``.  With the model (the given ``spec``, or the random
    ensemble drawn from ``default_rng(seed + M)``) it re-runs that flow.
    """
    from .dynamics import flow

    with _Sweep("flow-boundary-margin", TOLERANCES["flow-boundary-margin"], seed) as sweep:
        x0 = random_boundary_point(M, seed + M)
        if spec is None:
            rng = np.random.default_rng(seed + M)
            spec = HamiltonianSpec(M, _random_coupling_matrix(M, rng, scale=0.25),
                                   _random_quartic(M, rng, max_quadruples=4, scale=0.25))
        margins = np.abs(flow(x0, spec, _MARGIN_DT, _MARGIN_STEPS, method="rk4").margins)
        step = int(np.argmax(margins))
        sweep.add(margins[step], {**_instance(0, seed, x0), "step": step, "dt": _MARGIN_DT,
                                  "steps": _MARGIN_STEPS})
    return sweep.result()


def run_moment_m1(seed: int = 0) -> CheckResult:
    """The M = 1 moment identity over five states, the vacuum first.

    The vacuum's right side must also read -1.  ``info["worst"]`` records
    the index of the worst state and the seed of the two random ones.
    """
    from . import fock

    tol = TOLERANCES["moment-m1"]
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


# ---------------------------------------------------------------------------
# the checks of each ``verify --suite``
# ---------------------------------------------------------------------------

# mode-count cap of the traceless and tangency suites; the identities and
# fpe suites are capped at fock.ORACLE_MAX_M
_KERNEL_SUITE_MAX_M = 4


def _check_suite_caps(suite: str, M: int) -> None:
    """Check every mode-count cap of ``suite`` at ``M``, before any model is built."""
    from .config import _check_cap
    from .errors import ConfigError

    if suite in ("identities", "fpe", "all"):
        from .fock import ORACLE_MAX_M  # loaded only for the suites that run the oracle

        _check_cap("identities" if suite == "all" else suite, M, ORACLE_MAX_M)
    if suite in ("traceless", "tangency", "all"):
        _check_cap("traceless" if suite == "all" else suite, M, _KERNEL_SUITE_MAX_M)
    if suite == "moment-m1" and M != 1:
        raise ConfigError(f"suite 'moment-m1' requires M = 1, config has M = {M}")


def _verify_checks(cfg: ModelConfig, suite: str, seed: int, drift_form: str) -> list[CheckResult]:
    """The checks of ``verify --suite suite`` on the model of ``cfg``, in report order.

    Every cap of the suite is checked first, so an oversized config builds
    no model and runs no check.  Each runner runs at its default size,
    except fpe: 20 instances at M <= 2, else 5.  The runners run with numpy's floating-point warnings off, as the flow
    does: an overflowing model shows in its residuals, where a NaN fails its
    check, or as a numerical error, not as warnings on stderr.
    """
    _check_suite_caps(suite, cfg.M)

    from .config import config_to_spec

    spec = config_to_spec(cfg)
    M = cfg.M
    checks = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if suite in ("identities", "all"):
            checks.append(run_quadratic_identities(M, seed))
            if 2 * M >= 4:
                checks.append(run_four_gamma(M, seed))
        if suite in ("fpe", "all"):
            checks.append(run_fpe_sweep(spec, seed, n_instances=20 if M <= 2 else 5,
                                        drift_form=drift_form))
        if suite in ("traceless", "all"):
            g = spec.g if spec.g.table else None
            checks.extend(run_traceless_and_channels(M, seed, g=g))
        if suite in ("tangency", "all"):
            has_model = bool(spec.g.table) or np.any(np.asarray(spec.t.packed) != 0.0)
            model = spec if has_model else None
            checks.append(run_tangency(M, seed, spec=model))
            checks.append(run_flow_margin(M, seed, spec=model))
        if suite == "moment-m1" or (suite == "all" and M == 1):
            checks.append(run_moment_m1(seed=seed))
    return checks
