"""Drift flow, boundary preservation, diffusion spectra, covariance transport."""

import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import majoranaq
from majoranaq import (
    CouplingMatrix,
    HamiltonianSpec,
    PhasePoint,
    QuarticCoupling,
    diffusion,
    domain_margin,
    drift,
    dynamics,
    flow,
    pair_count,
    random_boundary_point,
    random_interior_point,
)
from majoranaq.dynamics import _BLOCK
from majoranaq.config import ModelConfig, config_to_spec
from majoranaq.errors import DimensionError, DivergenceError
from majoranaq.hubbard import chain_entries
from majoranaq.tensors import _drift_rate

from basis_oracle import gaussian_covariance_comparison


def random_spec(M, seed, t_scale=0.5, g_entries=None):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 * M, 2 * M)) * t_scale
    t = CouplingMatrix.from_matrix(a - a.T)
    g = QuarticCoupling.from_entries(M, g_entries or [])
    return HamiltonianSpec(M, t, g)


class TestFlow:
    def test_free_model_is_stationary(self):
        spec = HamiltonianSpec(2, CouplingMatrix.zero(2), QuarticCoupling.zero(2))
        x0 = random_boundary_point(2, 0)
        traj = flow(x0, spec, dt=0.01, steps=50)
        assert traj.packed.shape == (51, pair_count(2))
        for state in traj.packed:
            np.testing.assert_array_equal(state, x0.packed)
        assert traj.times[-1] == pytest.approx(0.5)

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_quadratic_flow_matches_matrix_exponential(self, M):
        spec = random_spec(M, M + 10)
        x0 = random_boundary_point(M, M)
        traj = flow(x0, spec, dt=1e-3, steps=1000, method="rk4")
        prop = expm(4 * spec.t.matrix())
        ref = prop @ x0.matrix() @ prop.T
        assert np.max(np.abs(traj.final.matrix() - ref)) <= 1e-8

    def test_boundary_margin_with_interaction(self):
        spec = random_spec(2, 3, g_entries=[(1, 2, 3, 4, 0.8)])
        x0 = random_boundary_point(2, 4)
        traj = flow(x0, spec, dt=1e-3, steps=1000, method="rk4")
        assert np.max(np.abs(traj.margins)) <= 1e-7

    def test_euler_less_accurate_but_tangent(self):
        spec = random_spec(2, 5)
        x0 = random_boundary_point(2, 5)
        rk = flow(x0, spec, dt=1e-2, steps=100, method="rk4")
        eu = flow(x0, spec, dt=1e-2, steps=100, method="euler")
        assert np.max(np.abs(eu.margins)) >= np.max(np.abs(rk.margins))

    def test_points_stay_antisymmetric(self):
        spec = random_spec(3, 6, g_entries=[(1, 2, 3, 4, 0.4), (2, 3, 5, 6, -0.5)])
        traj = flow(random_boundary_point(3, 6), spec, dt=5e-3, steps=40)
        for state in traj.packed:
            m = PhasePoint(3, state).matrix()
            np.testing.assert_array_equal(m, -m.T)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_detected(self):
        spec = random_spec(3, 7, t_scale=0.0,
                           g_entries=[(1, 2, 3, 4, 1e3), (3, 4, 5, 6, 1e3)])
        x0 = random_boundary_point(3, 7)
        with pytest.raises(DivergenceError) as err:
            flow(x0, spec, dt=1e3, steps=50)
        assert err.value.step >= 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x0", [
        PhasePoint(1, [1e160]),
        PhasePoint(3, 1e160 * random_boundary_point(3, 7).packed),
        PhasePoint(1, [np.inf]),
        PhasePoint(2, [0.0, np.nan, 0.0, 0.0, 0.0, 0.0]),
    ], ids=["M1", "M3", "M1-inf", "M2-nan"])
    def test_initial_margin_is_guarded(self, x0):
        # the eigensolver overflows (M = 3) or the margin is not finite (M = 1);
        # a non-finite initial point is given, not computed, so its margin
        # names the cause, not the check of the states the steps compute
        spec = HamiltonianSpec.free(CouplingMatrix.zero(x0.M))
        with pytest.raises(DivergenceError) as err:
            flow(x0, spec, dt=1e-3, steps=5)
        assert err.value.step == 0
        assert err.value.reason in ("margin eigensolve", "non-finite margin")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_margin_failure_on_finite_state(self):
        # the state after step 1 is finite, but its margin overflows the
        # eigensolver; a flow that checked margins late would report step 2
        spec = random_spec(3, 0, t_scale=0.0,
                           g_entries=[(1, 2, 3, 4, 1e20), (3, 4, 5, 6, 1e20)])
        with pytest.raises(DivergenceError) as err:
            flow(random_boundary_point(3, 7), spec, dt=1e-3, steps=5)
        assert err.value.step == 1
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("M,g_entries", [
        (1, []), (2, []), (2, [(1, 2, 3, 4, 0.6)]), (3, []),
        (3, [(1, 2, 3, 4, 0.6), (1, 3, 5, 6, -0.4)]), (4, []),
        (4, [(1, 2, 3, 4, 0.6), (1, 3, 7, 8, -0.4), (2, 4, 5, 6, 0.3)]),
    ])
    def test_packed_flow_matches_public_drift(self, M, g_entries):
        # the flow runs on the compiled stage kernel and stacked margins; a
        # hand-written loop through the public kernel.drift and domain_margin
        # on phase points must reproduce its states and margins bit for bit
        spec = random_spec(M, 20 + M, g_entries=g_entries)
        x0 = random_boundary_point(M, 30 + M)
        self._assert_matches_public_loop(x0, spec, 1e-2, 20, "rk4")

    # margins are evaluated in blocks of _BLOCK stored states: runs that end
    # inside, on and just past a block boundary, and past the second one,
    # from a boundary point (margin near 0) and from an interior one
    @pytest.mark.parametrize("interior", [False, True])
    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_packed_flow_matches_public_drift_across_blocks(self, steps, method, interior):
        spec = random_spec(3, 23, g_entries=[(1, 2, 3, 4, 0.6), (1, 3, 5, 6, -0.4)])
        x0 = random_interior_point(3, 33, scale=0.5) if interior else random_boundary_point(3, 33)
        self._assert_matches_public_loop(x0, spec, 1e-3, steps, method)

    def test_packed_flow_matches_public_drift_at_m16(self):
        spec = config_to_spec(ModelConfig(16, *chain_entries(8, 1.0, 4.0)[:2]))
        x0 = random_boundary_point(16, 3)
        self._assert_matches_public_loop(x0, spec, 1e-3, _BLOCK + 1, "rk4")

    @staticmethod
    def _assert_matches_public_loop(x0, spec, dt, steps, method):
        traj = flow(x0, spec, dt=dt, steps=steps, method=method)
        M = x0.M

        def rate(v):
            return drift(PhasePoint(M, v), spec.t, spec.g)

        v = np.asarray(x0.packed)
        expected = [v]
        for _ in range(steps):
            if method == "euler":
                v = v + dt * rate(v)
            else:
                k1 = rate(v)
                k2 = rate(v + 0.5 * dt * k1)
                k3 = rate(v + 0.5 * dt * k2)
                k4 = rate(v + dt * k3)
                v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            expected.append(v)
        np.testing.assert_array_equal(traj.packed, np.array(expected))
        np.testing.assert_array_equal(
            traj.margins, [domain_margin(PhasePoint(M, row)) for row in traj.packed])
        np.testing.assert_array_equal(traj.times, np.arange(steps + 1) * dt)
        np.testing.assert_array_equal(traj.final.packed, traj.packed[-1])

    @staticmethod
    def _first_failures(x0, spec, dt, steps, method="euler", wrap=lambda rate: rate):
        # public-API reference: the first step whose margin eigensolve
        # raises, and the first step whose state is not finite; ``wrap``
        # alters the packed drift as a patched stage kernel alters the
        # flow's; the public functions warn on overflow, the flow does not
        M = x0.M
        rate = wrap(lambda v: drift(PhasePoint(M, v), spec.t, spec.g))
        v = np.asarray(x0.packed)
        margin_step = state_step = None
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(steps + 1):
                if step:
                    if method == "euler":
                        v = v + dt * rate(v)
                    else:
                        k1 = rate(v)
                        k2 = rate(v + 0.5 * dt * k1)
                        k3 = rate(v + 0.5 * dt * k2)
                        k4 = rate(v + dt * k3)
                        v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
                    if not np.all(np.isfinite(v)):
                        state_step = step
                        break
                if margin_step is None:
                    try:
                        domain_margin(PhasePoint(M, v))
                    except np.linalg.LinAlgError:
                        margin_step = step
        return margin_step, state_step

    @staticmethod
    def _poison(call, value):
        """A wrapper of a rate that sets the first entry of its ``call``-th result (from 0) to ``value``."""
        def wrap(rate):
            calls = itertools.count()

            def poisoned(X):
                out = rate(X)
                if next(calls) == call:
                    out.flat[1 if out.ndim == 2 else 0] = value  # x_12, full or packed
                return out
            return poisoned
        return wrap

    # finiteness is checked once per block of _BLOCK stored states: a state
    # that first goes non-finite in the last slot of the first block, in the
    # first slot of the next one, and inside the final partial block; for
    # RK4 the poisoned stage varies with the step
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("bad_step", [_BLOCK - 1, _BLOCK, 2 * _BLOCK + 13])
    def test_non_finite_state_raises_at_its_step(self, monkeypatch, bad_step, method, value):
        spec = random_spec(3, 23, g_entries=[(1, 2, 3, 4, 0.6), (1, 3, 5, 6, -0.4)])
        x0 = random_boundary_point(3, 33)
        steps = 2 * _BLOCK + 22
        stages = 4 if method == "rk4" else 1
        wrap = self._poison(stages * (bad_step - 1) + bad_step % stages, value)
        margin_step, state_step = self._first_failures(x0, spec, 1e-3, steps, method, wrap)
        assert (margin_step, state_step) == (None, bad_step)
        monkeypatch.setattr(dynamics, "_drift_rate", lambda g, t: wrap(_drift_rate(g, t)))
        with pytest.raises(DivergenceError) as err:
            flow(x0, spec, dt=1e-3, steps=steps, method=method)
        assert err.value.step == bad_step
        assert err.value.reason == "non-finite state"

    def test_euler_divergence_raises_no_warning(self):
        # demo 04's coarse Euler run: its margin eigensolve overflows at a
        # finite state.  Under warnings-as-errors the flow raises the same
        # DivergenceError, at the same step and with the same cause, as the
        # public-API reference, and no numpy warning escapes first
        rng = np.random.default_rng(42)
        a = rng.normal(size=(6, 6)) * 0.3
        spec = HamiltonianSpec(3, CouplingMatrix.from_matrix(a - a.T), QuarticCoupling.from_entries(
            3, [(1, 2, 3, 4, 0.3), (2, 3, 5, 6, -0.25)]))
        x0 = random_boundary_point(3, seed=9)
        margin_step, _ = self._first_failures(x0, spec, 1e-2, 100)
        assert margin_step is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                flow(x0, spec, dt=1e-2, steps=100, method="euler")
        assert err.value.step == margin_step
        assert err.value.reason == "margin eigensolve"
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_margin_failure_past_first_block(self):
        # Euler steps of a quadratic model with a large dt grow a tiny start
        # geometrically: the margin of a finite state overflows the
        # eigensolver in the second block, and the state stays finite to the
        # end, so the failure is found by that block's stacked eigensolve
        spec = random_spec(3, 0, t_scale=1.0)
        x0 = PhasePoint(3, 1e-150 * np.asarray(random_boundary_point(3, 7).packed))
        dt, steps = 0.2, 520
        margin_step, state_step = self._first_failures(x0, spec, dt, steps)
        assert _BLOCK <= margin_step < 2 * _BLOCK <= steps
        assert state_step is None
        with pytest.raises(DivergenceError) as err:
            flow(x0, spec, dt=dt, steps=steps, method="euler")
        assert err.value.step == margin_step
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
        assert "margin eigensolve" in str(err.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_earlier_margin_failure_wins_in_same_block(self):
        # the margin fails first, the state goes non-finite later in the same
        # block: the pending margins are evaluated before the state's failure
        # is raised, so the margin's earlier step is reported
        spec = random_spec(3, 0, t_scale=1.0)
        x0 = PhasePoint(3, 1e-150 * np.asarray(random_boundary_point(3, 7).packed))
        dt, steps = 0.5, 450
        margin_step, state_step = self._first_failures(x0, spec, dt, steps)
        assert margin_step < state_step
        assert margin_step // _BLOCK == state_step // _BLOCK == 1
        with pytest.raises(DivergenceError) as err:
            flow(x0, spec, dt=dt, steps=steps, method="euler")
        assert err.value.step == margin_step
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_earlier_margin_failure_wins_over_a_poisoned_state(self, monkeypatch):
        # the margin fails on a finite state, and a poisoned stage makes a
        # later state of the same block non-finite: the margins before that
        # state are evaluated first, so the margin's step is reported
        spec = random_spec(3, 0, t_scale=1.0)
        x0 = PhasePoint(3, 1e-150 * np.asarray(random_boundary_point(3, 7).packed))
        dt, steps = 0.2, 520
        clean_margin_step, _ = self._first_failures(x0, spec, dt, steps)
        wrap = self._poison(clean_margin_step + 1, np.inf)
        margin_step, state_step = self._first_failures(x0, spec, dt, steps, wrap=wrap)
        assert (margin_step, state_step) == (clean_margin_step, clean_margin_step + 2)
        assert margin_step // _BLOCK == state_step // _BLOCK == 1
        monkeypatch.setattr(dynamics, "_drift_rate", lambda g, t: wrap(_drift_rate(g, t)))
        with pytest.raises(DivergenceError) as err:
            flow(x0, spec, dt=dt, steps=steps, method="euler")
        assert err.value.step == margin_step
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_arguments(self):
        spec = random_spec(2, 9)
        x0 = random_boundary_point(2, 9)
        with pytest.raises(ValueError):
            flow(x0, spec, dt=-0.1, steps=10)
        with pytest.raises(ValueError):
            flow(x0, spec, dt=0.1, steps=10, method="leapfrog")
        # a horizon past the float range would record inf times
        for dt in (1e308, np.float64(1e308), np.nan):
            with pytest.raises(ValueError, match="horizon"):
                flow(x0, spec, dt=dt, steps=3)

    @pytest.mark.parametrize("points", [1, 2])
    def test_stacked_initial_point_raises(self, points):
        spec = random_spec(2, 9)
        x0 = majoranaq.random_points(2, range(points), boundary=True)
        assert x0.packed.shape == (points, pair_count(2))
        with pytest.raises(DimensionError, match="single point"):
            flow(x0, spec, dt=0.1, steps=3)


def spectrum(x, g, tol=1e-10):
    """Eigenvalues of D, with the forward (> tol), backward (< -tol) and null counts."""
    eigs = np.linalg.eigvalsh(diffusion(x, g))
    forward, backward = int(np.sum(eigs > tol)), int(np.sum(eigs < -tol))
    return eigs, forward, backward, len(eigs) - forward - backward


class TestChannelSpectrum:
    """The sign-resolved spectrum of D: forward and backward diffusion directions."""

    def test_free_model_all_null(self):
        x = random_interior_point(2, 12)
        _, forward, backward, null = spectrum(x, QuarticCoupling.zero(2))
        assert null == pair_count(2)
        assert forward == backward == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_traceless_spectrum(self, seed):
        # interior points: for M <= 3 the diffusion vanishes on the boundary
        # itself (a quartic of 2M <= 6 Majoranas is parity times a quadratic)
        g = QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.8), (1, 2, 5, 6, -0.5)])
        x = random_interior_point(3, seed, scale=0.5)
        eigs, forward, backward, null = spectrum(x, g)
        assert forward + backward + null == pair_count(3)
        assert abs(np.sum(eigs)) <= 1e-10
        assert forward > 0 and backward > 0

    def test_m2_boundary_example(self):
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 1.0)])
        eigs, forward, backward, _ = spectrum(random_boundary_point(2, 3), g)
        assert abs(np.sum(eigs)) <= 1e-10
        assert forward == backward

    def test_boundary_spectrum_vanishes_at_small_m(self):
        g = QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.8), (1, 2, 5, 6, -0.5)])
        _, _, _, null = spectrum(random_boundary_point(3, 0), g)
        assert null == pair_count(3)

    def test_boundary_spectrum_nonzero_at_m4(self):
        g = QuarticCoupling.from_entries(4, [(1, 2, 3, 4, 0.5), (2, 4, 6, 8, 0.7)])
        eigs, forward, backward, _ = spectrum(random_boundary_point(4, 0), g)
        assert abs(np.sum(eigs)) <= 1e-10
        assert forward > 0 and backward > 0


class TestCovarianceTransport:
    def test_zero_coupling(self):
        x0 = random_boundary_point(2, 13)
        dev = gaussian_covariance_comparison(x0, CouplingMatrix.zero(2), horizon=0.5)
        assert dev <= 1e-12

    def test_single_mode_exact(self):
        x0 = PhasePoint(1, np.array([-1.0]))
        t = CouplingMatrix.from_entries(1, [(1, 2, 0.9)])
        dev = gaussian_covariance_comparison(x0, t, horizon=1.0)
        assert dev <= 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_m2_deviation_at_generator_rate(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4)) * 0.6
        t = CouplingMatrix.from_matrix(a - a.T)
        x0 = random_boundary_point(2, seed + 40)
        dev = gaussian_covariance_comparison(x0, t, horizon=1.0)
        assert dev <= 1e-12

    def test_package_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize at package import would add a large share of every
        # CLI start-up
        src = str(Path(majoranaq.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        code = "import sys, majoranaq; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
        # the package imports no scipy at all, so the CLI loads none of it
        code = ("import sys, majoranaq.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
