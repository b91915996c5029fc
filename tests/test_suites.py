"""Report bookkeeping of the verification sweeps."""

import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from majoranaq import PhasePoint, fock, suites


@pytest.mark.parametrize(
    "runner",
    [
        lambda: suites.run_traceless_and_channels(3, seed=4, cases=6),
        lambda: suites.run_appendix_c(Ms=(2,), seed=4, cases=2),
    ],
    ids=["traceless_and_channels", "appendix_c"],
)
def test_per_check_seconds_are_measured(runner):
    start = time.perf_counter()
    checks = runner()
    wall = time.perf_counter() - start
    assert all(c.seconds > 0 for c in checks)
    assert sum(c.seconds for c in checks) <= wall
    # each check times its own work, not an even share of the sweep
    assert len({c.seconds for c in checks}) == len(checks)


def test_eigensum_gates_the_traceless_check(monkeypatch):
    traceless, _ = suites.run_traceless_and_channels(4, seed=4, cases=4)
    eigsum = traceless.info["eigsum"]
    assert traceless.passed and traceless.info["eigsum_pass"]
    assert 0.0 < eigsum <= suites.TOLERANCES["traceless-eigsum"]
    monkeypatch.setitem(suites.TOLERANCES, "traceless-eigsum", eigsum / 2)
    traceless, channels = suites.run_traceless_and_channels(4, seed=4, cases=4)
    # the diagonal still passes; only the eigenvalue sum is out of tolerance
    assert traceless.max_residual <= traceless.tolerance
    assert traceless.info["eigsum_pass"] is False
    assert traceless.passed is False
    assert channels.passed


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: replace(d, indices=d.indices[1:], weights=d.weights[1:],
                          b_minus=d.b_minus[1:], b_plus=d.b_plus[1:]),
        # only on positive-weight rows: sum_t w_t |b_plus_t|^2 vanishes on its
        # own, so scaling every b_plus alike leaves the balance untouched
        lambda d: replace(d, b_plus=d.b_plus * np.where(d.weights > 0, 1 + 1e-6, 1.0)[:, None]),
    ],
    ids=["ordering-dropped", "forward-b_plus-scaled"],
)
def test_corrupt_decomposition_fails_the_balance(monkeypatch, corrupt):
    channels_of = suites.kernel.diffusion_channels
    monkeypatch.setattr(suites.kernel, "diffusion_channels",
                        lambda x, g: corrupt(channels_of(x, g)))
    traceless, channels = suites.run_traceless_and_channels(4, seed=4, cases=4)
    assert traceless.passed
    assert channels.info["balance"] > suites.TOLERANCES["channel-balance"]
    assert channels.passed is False


def test_balance_tolerance_gates_the_channel_check(monkeypatch):
    _, channels = suites.run_traceless_and_channels(4, seed=4, cases=4)
    balance = channels.info["balance"]
    assert channels.passed and 0.0 < balance
    monkeypatch.setitem(suites.TOLERANCES, "channel-balance", balance / 2)
    _, channels = suites.run_traceless_and_channels(4, seed=4, cases=4)
    # reconstruction and PSD still pass; only the balance is out of tolerance
    assert channels.max_residual <= channels.tolerance
    assert channels.info["psd_defect"] <= suites.TOLERANCES["channel-psd"]
    assert channels.passed is False


def _recorded_point(check):
    # through the JSON report, as a user re-running a FAIL would read it
    info = json.loads(json.dumps(suites.build_report("x", [check], 0).to_dict()))["checks"][0]["info"]
    worst = info["worst"]
    return worst, PhasePoint(worst["M"], np.array(worst["x"]))


def test_worst_fpe_instance_reproduces_its_residual():
    _, spec, _ = suites.acceptance_fpe_cases(11)[4]
    check = suites.run_fpe_sweep(spec, seed=11, n_instances=5)
    worst, x = _recorded_point(check)
    assert (worst["seed"], worst["M"]) == (11, 3) and "resampled_singular_points" not in check.info
    rho, sampled = suites.fpe_instance(worst["M"], worst["seed"], worst["index"])
    np.testing.assert_array_equal(sampled.packed, x.packed)
    assert fock.verify_fpe(rho, spec, x).residual == check.max_residual > 0.0


@pytest.mark.parametrize("runner, verify", [
    (lambda: suites.run_quadratic_identities(Ms=(2, 3), seed=5, n_points=6),
     lambda x, majo: max(fock.verify_quadratic_identities(x, majo).values())),
    (lambda: suites.run_four_gamma(M=3, seed=5, n_points=4),
     lambda x, majo: max(max(pair) for pair in fock.verify_four_gamma(x, majo).values())),
], ids=["quadratic-identities", "four-gamma"])
def test_worst_identity_instance_reproduces_its_residual(runner, verify):
    check = runner()
    worst, x = _recorded_point(check)
    assert worst["seed"] == 5 and 0 <= worst["index"] < check.instances
    assert verify(x, fock.build_majoranas(worst["M"])) == check.max_residual > 0.0


def _polynomial(n, degree, seed):
    """A random polynomial of total degree ``degree`` in ``n`` variables.

    ``poly(v)`` is its value and ``poly(v, *axes)`` its exact derivative.
    """
    rng = np.random.default_rng(seed)
    exps = np.array([e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree])
    coef = rng.uniform(-1, 1, size=len(exps))

    def poly(v, *axes):
        c, e = coef.copy(), exps.copy()
        for axis in axes:
            c = c * e[:, axis]
            e[:, axis] = np.maximum(e[:, axis] - 1, 0)
        return float(c @ np.prod(v ** e, axis=1))

    return poly


# the degree each stencil is exact for, and the axes that select it
STENCILS = [(4, (1,)), (3, (2, 2)), (3, (0, 2))]


@pytest.mark.parametrize("degree, axes", STENCILS, ids=["first", "second", "mixed"])
@pytest.mark.parametrize("seed", range(3))
def test_stencils_are_exact_at_their_degree(degree, axes, seed):
    poly = _polynomial(3, degree, seed)
    v = np.random.default_rng(seed + 10).uniform(-0.5, 0.5, size=3)
    assert abs(suites._central(poly, v, *axes) - poly(v, *axes)) <= 1e-12


@pytest.mark.parametrize("monomial, axes, error", [
    # the leading truncation terms: -h^4 f^(5) / 30 at h = 0.5, h^2 f'''' / 12
    # and h^2 (f_xxxy + f_xyyy) / 6 at h = 1
    (lambda v: v[1] ** 5, (1,), -0.25),
    (lambda v: v[2] ** 4, (2, 2), 2.0),
    (lambda v: v[0] ** 3 * v[2], (0, 2), 1.0),
], ids=["first", "second", "mixed"])
def test_stencils_are_wrong_one_degree_higher(monomial, axes, error):
    v = np.array([0.3, -0.2, 0.1])
    exact = {(1,): 5 * v[1] ** 4, (2, 2): 12 * v[2] ** 2, (0, 2): 3 * v[0] ** 2}[axes]
    assert suites._central(monomial, v, *axes) - exact == pytest.approx(error, abs=1e-12)
