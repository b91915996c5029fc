"""Acceptance gate: every headline claim at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the measured residuals.  The sweeps live in
:mod:`majoranaq.suites`; this module fixes the ensemble sizes, mode counts,
and tolerances, and is intentionally the slowest part of the test suite
(about a minute in total).
"""

import numpy as np
import pytest

from majoranaq import suites
from majoranaq.suites import (
    TOLERANCES,
    acceptance_fpe_cases,
    run_anticommutation,
    run_appendix_c,
    run_flow_equivalence,
    run_flow_margin,
    run_four_gamma,
    run_fpe_sweep,
    run_gaussian_basis,
    run_hubbard_fidelity,
    run_moment_m1,
    run_quadratic_identities,
    run_tangency,
    run_traceless_and_channels,
)

SEED = 20260810


def report(label, checks):
    if not isinstance(checks, list):
        checks = [checks]
    for chk in checks:
        print(f"{label}: {chk.line()}")
    return checks


def test_criterion_01_anticommutation():
    chk = run_anticommutation(Ms=(1, 2, 3))
    report("criterion 01", chk)
    assert chk.passed
    assert chk.max_residual <= 1e-13


def test_criterion_02_gaussian_basis():
    checks = report("criterion 02", run_gaussian_basis(SEED, n_boundary=10))
    by_name = {c.name: c for c in checks}
    assert by_name["basis-at-origin"].max_residual <= 1e-14
    assert by_name["basis-single-mode"].max_residual <= 1e-12
    assert by_name["basis-boundary-purity"].max_residual <= 1e-10
    assert all(c.passed for c in checks)


def test_criterion_03_differential_identities():
    quad = run_quadratic_identities(Ms=(1, 2), seed=SEED, n_points=20)
    four = run_four_gamma(M=2, seed=SEED, n_points=5)
    report("criterion 03", [quad, four])
    assert quad.passed and quad.max_residual <= 1e-10
    assert four.passed and four.max_residual <= 1e-10


def test_criterion_04_fpe_equivalence():
    checks = []
    for label, spec, n_instances in acceptance_fpe_cases(SEED):
        checks.append(
            run_fpe_sweep(spec, SEED, n_instances=n_instances, label=label)
        )
    report("criterion 04", checks)
    assert all(c.passed for c in checks)
    assert max(c.max_residual for c in checks) <= 1e-10


def test_criterion_04_arbitration_alternative_drift():
    # the alternative published drift form: recorded, no pass bar
    cases = acceptance_fpe_cases(SEED)
    recorded = []
    for label, spec, _ in (cases[1], cases[4]):
        chk = run_fpe_sweep(
            spec, SEED, n_instances=5, label=f"{label}-alt-drift",
            drift_form="eq50",
        )
        recorded.append(chk)
    rep = suites.build_report("fpe-drift-arbitration", recorded, SEED)
    print(rep.text())
    assert all(np.isfinite(c.max_residual) for c in recorded)
    assert all(c.informational for c in recorded)
    # the defining decomposition wins the arbitration on every sampled model
    assert min(c.max_residual for c in recorded) > 1e-3


@pytest.mark.parametrize("M", [2, 3, 4])
def test_criteria_05_06_traceless_and_decomposition(M):
    traceless, channels = report(
        f"criteria 05/06 (M={M})",
        run_traceless_and_channels(M, SEED, cases=100),
    )
    assert traceless.max_residual <= 1e-12          # every diagonal entry
    assert traceless.info["eigsum"] <= 1e-10        # eigenvalue sum
    assert channels.max_residual <= 1e-12           # reconstruction, relative
    assert channels.info["psd_defect"] <= 1e-12     # forward channels PSD
    assert channels.info["balance"] <= 1e-12        # tr F = tr Bk
    assert traceless.passed and channels.passed


def test_criterion_07_divergence_identities():
    checks = report("criterion 07", run_appendix_c(Ms=(2, 3), seed=SEED, cases=50))
    by_name = {c.name: c for c in checks}
    assert by_name["divergence-closed-form"].max_residual <= 1e-12
    assert by_name["drift-divergence-free"].max_residual <= 1e-12
    assert by_name["double-divergence"].max_residual <= 1e-12
    assert by_name["conservative-equivalence"].max_residual <= 1e-12
    assert all(c.passed for c in checks)


def test_criterion_08_tangency_and_flow_margin():
    tang = run_tangency(Ms=(2, 3), seed=SEED, n_points=50)
    margin = run_flow_margin(Ms=(2, 3), seed=SEED, dt=1e-3, steps=1000)
    report("criterion 08", [tang, margin])
    assert tang.passed and tang.max_residual <= 1e-9
    assert margin.passed and margin.max_residual <= 1e-7


def test_criterion_09_moment_identity():
    chk = run_moment_m1(seed=SEED)
    report("criterion 09", chk)
    assert chk.passed
    assert chk.max_residual <= 1e-6
    assert chk.info["vacuum_rhs"] == pytest.approx(-1.0, abs=1e-6)


def test_criterion_10_flow_matrix_equivalence():
    chk = run_flow_equivalence(Ms=(1, 2, 3), seed=SEED, seeds_per_m=10)
    report("criterion 10", chk)
    assert chk.passed
    assert chk.max_residual <= 1e-8
    assert chk.instances == 30


def test_criterion_11_hubbard_fidelity():
    chk = run_hubbard_fidelity()
    report("criterion 11", chk)
    assert chk.passed
    assert chk.max_residual <= 1e-12
    assert chk.info["identity_shifts"][0] == pytest.approx(1.0)


def test_default_tolerances_are_the_pinned_ones():
    # guard against accidental loosening: these are the contract values
    assert TOLERANCES["anticommutation"] == 1e-13
    assert TOLERANCES["basis-at-origin"] == 1e-14
    assert TOLERANCES["basis-single-mode"] == 1e-12
    assert TOLERANCES["basis-boundary-purity"] == 1e-10
    assert TOLERANCES["quadratic-identities"] == 1e-10
    assert TOLERANCES["four-gamma"] == 1e-10
    assert TOLERANCES["fpe"] == 1e-10
    assert TOLERANCES["traceless-diagonal"] == 1e-12
    assert TOLERANCES["traceless-eigsum"] == 1e-10
    assert TOLERANCES["channel-reconstruction"] == 1e-12
    assert TOLERANCES["channel-psd"] == 1e-12
    assert TOLERANCES["channel-balance"] == 1e-12
    assert TOLERANCES["divergence-closed-form"] == 1e-12
    assert TOLERANCES["drift-divergence-free"] == 1e-12
    assert TOLERANCES["double-divergence"] == 1e-12
    assert TOLERANCES["conservative-equivalence"] == 1e-12
    assert TOLERANCES["tangency"] == 1e-9
    assert TOLERANCES["flow-boundary-margin"] == 1e-7
    assert TOLERANCES["moment-m1"] == 1e-6
    assert TOLERANCES["flow-matrix-equivalence"] == 1e-8
    assert TOLERANCES["hubbard-fidelity"] == 1e-12
