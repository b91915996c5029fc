"""Report bookkeeping of the verification sweeps."""

import time

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
