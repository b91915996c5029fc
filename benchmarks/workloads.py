"""Seeded workload inputs, the CLI commands of one pass, and their output gates.

Every input is generated from the benchmark seed: the model configs and the
``--seed`` handed to ``verify`` and ``flow``.  The program only sees the
files written here.

Coupling strengths are chosen inside the regime the ``flow-boundary-margin``
check documents (order-one rates over unit time).  Flows use a step small
enough that the boundary margin sits near round-off, so the residual
headroom reads the same few decades for every seed instead of the RK4
truncation error of one particular starting point.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("verify-m3", "flow-hubbard-m4", "dense-m4")

# Check name -> (instances, key of the tolerance in suites.TOLERANCES), as
# produced by `majoranaq verify` for the suites and M used below.  A shrunken
# sweep or a missing check is an output-gate miss, not a speed-up.
VERIFY_ALL_M3 = {
    "quadratic-identities": (10, "quadratic-identities"),
    "four-gamma": (3, "four-gamma"),
    "fpe": (5, "fpe"),
    "traceless-m3": (100, "traceless-diagonal"),
    "channels-m3": (100, "channel-reconstruction"),
    "tangency": (25, "tangency"),
    "flow-boundary-margin": (1, "flow-boundary-margin"),
}
VERIFY_TANGENCY_M3 = {k: VERIFY_ALL_M3[k] for k in ("tangency", "flow-boundary-margin")}
VERIFY_TRACELESS_M4 = {
    "traceless-m4": (100, "traceless-diagonal"),
    "channels-m4": (100, "channel-reconstruction"),
}

# Residuals are floored here so an exact zero does not give an infinite headroom.
_RESIDUAL_FLOOR = 1e-300


@dataclass
class Outcome:
    """Result of the output gate for one CLI invocation."""

    ok: bool = True
    checks: int = 0
    failed_checks: int = 0
    headroom: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def miss(self, problem: str) -> None:
        self.ok = False
        self.problems.append(problem)


@dataclass(frozen=True)
class Step:
    """One CLI invocation: arguments after ``majoranaq``, the file it writes, its gate."""

    label: str
    argv: tuple
    output: Path
    gate: Callable[[int, dict], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    setup_config: str
    steps: tuple


def _antisymmetric(rng: np.random.Generator, n: int, norm: float) -> list:
    """Upper-triangle entries of a random antisymmetric matrix of Frobenius norm ``norm``."""
    a = rng.normal(size=(n, n))
    a = a - a.T
    a *= norm / np.linalg.norm(a)
    return [[i + 1, j + 1, float(a[i, j])] for i in range(n) for j in range(i + 1, n)]


def _quartic(rng: np.random.Generator, quads, low: float, high: float) -> list:
    """Entries with magnitudes in [low, high) and random signs, none zero."""
    mags = rng.uniform(low, high, size=len(quads))
    signs = rng.choice([-1.0, 1.0], size=len(quads))
    return [[*q, float(s * m)] for q, s, m in zip(quads, signs, mags)]


def _write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return str(path)


def _headroom(tol: float, residual: float) -> float:
    return math.log10(tol / max(abs(residual), _RESIDUAL_FLOOR))


def verify_gate(report_path: Path, expected: dict) -> Callable[[int, dict], Outcome]:
    """Exit 0, overall PASS, exactly the expected checks, each gated and passing."""

    def gate(code: int, tolerances: dict) -> Outcome:
        out = Outcome(checks=len(expected))
        if code != 0:
            out.miss(f"verify exited {code}")
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            checks = {c["name"]: c for c in report["checks"]}
            overall = report["overall_pass"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.miss(f"unreadable report: {exc}")
            out.failed_checks = len(expected)
            return out
        if overall is not True:
            out.miss("overall_pass is not true")
        if set(checks) != set(expected):
            out.miss(f"check names {sorted(checks)} != {sorted(expected)}")
        for name, (instances, tol_key) in expected.items():
            check = checks.get(name)
            if check is None:
                out.failed_checks += 1
                continue
            problems = []
            if check.get("instances") != instances:
                problems.append(f"{check.get('instances')} instances, expected {instances}")
            if check.get("informational") or check.get("pass") is not True:
                problems.append("not a gated PASS")
            residual = float(check.get("max_residual", math.inf))
            if not residual <= tolerances[tol_key]:
                problems.append(f"residual {residual:.3e} above {tolerances[tol_key]:.1e}")
            if problems:
                out.failed_checks += 1
                out.problems.append(f"{name}: " + "; ".join(problems))
            else:
                out.headroom.append(_headroom(tolerances[tol_key], residual))
        return out

    return gate


def flow_gate(csv_path: Path, M: int, steps: int, dt: float) -> Callable[[int, dict], Outcome]:
    """Exit 0, steps + 1 finite rows on the time grid, every |margin| within tolerance."""
    width = 1 + M * (2 * M - 1) + 1

    def gate(code: int, tolerances: dict) -> Outcome:
        out = Outcome()
        if code != 0:
            out.miss(f"flow exited {code}")
        tol = tolerances["flow-boundary-margin"]
        try:
            with open(csv_path, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            values = [[float(v) for v in row] for row in rows[1:]]
        except (OSError, ValueError) as exc:
            out.miss(f"unreadable trajectory: {exc}")
            return out
        if len(values) != steps + 1:
            out.miss(f"{len(values)} rows, expected {steps + 1}")
            return out
        if rows[0][0] != "time" or rows[0][-1] != "margin" or any(len(r) != width for r in values):
            out.miss(f"rows are not time, {width - 2} components, margin")
            return out
        if not all(math.isfinite(v) for row in values for v in row):
            out.miss("non-finite value in trajectory")
            return out
        if abs(values[-1][0] - steps * dt) > 1e-9 * max(1.0, steps * dt):
            out.miss(f"final time {values[-1][0]} != {steps * dt}")
        worst = max(abs(row[-1]) for row in values)
        if worst > tol:
            out.miss(f"max |margin| {worst:.3e} above {tol:.1e}")
        else:
            out.headroom.append(_headroom(tol, worst))
        return out

    return gate


def preset_gate(config_path: Path, expected: dict) -> Callable[[int, dict], Outcome]:
    """Exit 0 and the written config equals the expected preset config."""

    def gate(code: int, tolerances: dict) -> Outcome:
        out = Outcome()
        if code != 0:
            out.miss(f"preset exited {code}")
        try:
            written = json.loads(config_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            out.miss(f"unreadable preset config: {exc}")
            return out
        if written != expected:
            out.miss(f"preset config {written} != {expected}")
        return out

    return gate


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _verify_m3(rng, work: Path, tiny: bool) -> Workload:
    """Random antisymmetric t plus quadruples (1,2,3,4), (1,3,5,6): the fpe-m3-quartic shape."""
    seed = _cli_seed(rng)
    config = _write_json(work / "m3.json", {
        "M": 3,
        "t_entries": _antisymmetric(rng, 6, 0.25),
        "g_entries": _quartic(rng, [(1, 2, 3, 4), (1, 3, 5, 6)], 0.01, 0.02),
        "seed": seed,
    })
    suite, expected = ("tangency", VERIFY_TANGENCY_M3) if tiny else ("all", VERIFY_ALL_M3)
    report = work / "m3-report.json"
    argv = ("verify", "--config", config, "--suite", suite, "--seed", str(seed),
            "--out", str(report))
    return Workload("verify-m3", config, (Step("verify", argv, report, verify_gate(report, expected)),))


def _flow_hubbard_m4(rng, work: Path, tiny: bool) -> Workload:
    """Two-site Hubbard chain (hop 1, onsite 4): 2 stored quadruples, RK4 flow."""
    preset_seed, flow_seed = _cli_seed(rng), _cli_seed(rng)
    expected = {
        "M": 4,
        "preset": {"name": "hubbard", "sites": 2, "hop": 1.0, "onsite": 4.0,
                   "geometry": "chain"},
        "seed": preset_seed,
    }
    setup_config = _write_json(work / "hubbard-setup.json", expected)
    config = work / "hubbard.json"
    steps, dt = (50, 5e-5) if tiny else (2000, 5e-5)
    trajectory = work / "hubbard.csv"
    preset = ("preset", "hubbard", "--sites", "2", "--hop", "1", "--onsite", "4",
              "--seed", str(preset_seed), "--out", str(config))
    flow = ("flow", "--config", str(config), "--method", "rk4", "--dt", repr(dt),
            "--steps", str(steps), "--seed", str(flow_seed), "--out", str(trajectory))
    return Workload("flow-hubbard-m4", setup_config, (
        Step("preset", preset, config, preset_gate(config, expected)),
        Step("flow", flow, trajectory, flow_gate(trajectory, 4, steps, dt)),
    ))


def _dense_m4(rng, work: Path, tiny: bool) -> Workload:
    """All 70 quadruples at M = 4 with small seeded values: traceless suite, then flow."""
    quads = list(itertools.combinations(range(1, 9), 4))
    if tiny:
        quads = quads[:4]
    verify_seed, flow_seed = _cli_seed(rng), _cli_seed(rng)
    config = _write_json(work / "dense.json", {
        "M": 4,
        "t_entries": _antisymmetric(rng, 8, 0.5),
        "g_entries": _quartic(rng, quads, 0.01, 0.02),
        "seed": verify_seed,
    })
    steps, dt = (20, 1e-4) if tiny else (100, 1e-4)
    report = work / "dense-report.json"
    trajectory = work / "dense.csv"
    verify = ("verify", "--config", config, "--suite", "traceless", "--seed",
              str(verify_seed), "--out", str(report))
    flow = ("flow", "--config", config, "--method", "rk4", "--dt", repr(dt),
            "--steps", str(steps), "--seed", str(flow_seed), "--out", str(trajectory))
    return Workload("dense-m4", config, (
        Step("verify", verify, report, verify_gate(report, VERIFY_TRACELESS_M4)),
        Step("flow", flow, trajectory, flow_gate(trajectory, 4, steps, dt)),
    ))


_BUILDERS = {"verify-m3": _verify_m3, "flow-hubbard-m4": _flow_hubbard_m4, "dense-m4": _dense_m4}


def build(name: str, seed: int, work: Path, tiny: bool = False) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``work``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _BUILDERS[name](rng, work, tiny)
