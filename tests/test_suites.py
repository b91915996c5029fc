"""Report bookkeeping of the verification sweeps."""

import time
from dataclasses import replace

import numpy as np
import pytest

from majoranaq import suites


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
