"""Drift flow, boundary preservation, diffusion spectra, covariance transport."""

import os
import subprocess
import sys
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
    channel_spectrum,
    domain_margin,
    drift,
    flow,
    gaussian_covariance_comparison,
    pair_count,
    polar_project,
    random_boundary_point,
    random_interior_point,
)
from majoranaq.dynamics import _MARGIN_BLOCK
from majoranaq.errors import DivergenceError
from majoranaq.hubbard import preset_hubbard


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        spec = random_spec(3, 7, t_scale=0.0,
                           g_entries=[(1, 2, 3, 4, 1e3), (3, 4, 5, 6, 1e3)])
        x0 = random_boundary_point(3, 7)
        with pytest.raises(DivergenceError) as err:
            flow(x0, spec, dt=1e3, steps=50)
        assert err.value.step >= 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("x0", [
        PhasePoint(1, [1e160]),
        PhasePoint(3, 1e160 * random_boundary_point(3, 7).packed),
    ], ids=["M1", "M3"])
    def test_initial_margin_is_guarded(self, x0):
        # the eigensolver overflows (M = 3) or the margin is not finite (M = 1)
        spec = HamiltonianSpec.free(CouplingMatrix.zero(x0.M))
        with pytest.raises(DivergenceError) as err:
            flow(x0, spec, dt=1e-3, steps=5)
        assert err.value.step == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        # hand-written loop through the public kernel.drift, polar_project
        # and domain_margin on phase points must reproduce its states and
        # margins bit for bit
        spec = random_spec(M, 20 + M, g_entries=g_entries)
        x0 = random_boundary_point(M, 30 + M)
        self._assert_matches_public_loop(x0, spec, 1e-2, 20, "rk4", False)

    # margins are evaluated in blocks of 64 stored states: runs that end
    # inside, on and just past a block boundary, and past the second one
    @pytest.mark.parametrize("project", [False, True])
    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 129])
    def test_packed_flow_matches_public_drift_across_blocks(self, steps, method, project):
        spec = random_spec(3, 23, g_entries=[(1, 2, 3, 4, 0.6), (1, 3, 5, 6, -0.4)])
        x0 = random_boundary_point(3, 33)
        self._assert_matches_public_loop(x0, spec, 1e-3, steps, method, project)

    def test_packed_flow_matches_public_drift_at_m16(self):
        pre = preset_hubbard(8, 1.0, 4.0)
        spec = HamiltonianSpec(pre.M, pre.t, pre.g)
        self._assert_matches_public_loop(
            random_boundary_point(16, 3), spec, 1e-3, 130, "rk4", False)

    @staticmethod
    def _assert_matches_public_loop(x0, spec, dt, steps, method, project):
        traj = flow(x0, spec, dt=dt, steps=steps, method=method, project=project)
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
            if project:
                v = np.asarray(polar_project(PhasePoint(M, v)).packed)
            expected.append(v)
        np.testing.assert_array_equal(traj.packed, np.array(expected))
        np.testing.assert_array_equal(
            traj.margins, [domain_margin(PhasePoint(M, row)) for row in traj.packed])
        np.testing.assert_array_equal(traj.times, np.arange(steps + 1) * dt)
        np.testing.assert_array_equal(traj.final.packed, traj.packed[-1])

    @staticmethod
    def _first_failures(x0, spec, dt, steps):
        # public-API reference for an Euler run: the first step whose margin
        # eigensolve raises, and the first step whose state is not finite
        M = x0.M
        v = np.asarray(x0.packed)
        margin_step = state_step = None
        for step in range(steps + 1):
            if step:
                v = v + dt * drift(PhasePoint(M, v), spec.t, spec.g)
                if not np.all(np.isfinite(v)):
                    state_step = step
                    break
            if margin_step is None:
                try:
                    domain_margin(PhasePoint(M, v))
                except np.linalg.LinAlgError:
                    margin_step = step
        return margin_step, state_step

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_margin_failure_past_first_block(self):
        # Euler steps of a quadratic model with a huge dt grow a tiny start
        # geometrically: the margin of a finite state overflows the
        # eigensolver in the second block, and the state stays finite to the
        # end, so the failure is found by that block's stacked eigensolve
        spec = random_spec(3, 0, t_scale=1.0)
        x0 = PhasePoint(3, 1e-150 * np.asarray(random_boundary_point(3, 7).packed))
        dt, steps = 100.0, 130
        margin_step, state_step = self._first_failures(x0, spec, dt, steps)
        assert _MARGIN_BLOCK <= margin_step < 2 * _MARGIN_BLOCK <= steps
        assert state_step is None
        with pytest.raises(DivergenceError) as err:
            flow(x0, spec, dt=dt, steps=steps, method="euler")
        assert err.value.step == margin_step
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
        assert "margin eigensolve" in str(err.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_earlier_margin_failure_wins_in_same_block(self):
        # the margin fails first, the state goes non-finite later in the same
        # block: the pending margins are evaluated before the state's failure
        # is raised, so the margin's earlier step is reported
        spec = random_spec(3, 0, t_scale=1.0)
        x0 = PhasePoint(3, 1e-150 * np.asarray(random_boundary_point(3, 7).packed))
        dt, steps = 300.0, 200
        margin_step, state_step = self._first_failures(x0, spec, dt, steps)
        assert margin_step < state_step
        assert margin_step // _MARGIN_BLOCK == state_step // _MARGIN_BLOCK == 1
        with pytest.raises(DivergenceError) as err:
            flow(x0, spec, dt=dt, steps=steps, method="euler")
        assert err.value.step == margin_step
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_projection_failure_reports_its_step(self):
        # the origin has margin 1, but x^T x = 0 cannot be projected: the
        # first projection, after step 1, fails
        spec = HamiltonianSpec.free(CouplingMatrix.zero(2))
        with pytest.raises(DivergenceError) as err:
            flow(PhasePoint.zero(2), spec, 1e-2, 5, project=True)
        assert err.value.step == 1
        assert "singular x^T x" in str(err.value)
        assert isinstance(err.value.__cause__, DivergenceError)

    def test_projection_option(self):
        spec = random_spec(2, 8, g_entries=[(1, 2, 3, 4, 0.7)])
        x0 = random_boundary_point(2, 8)
        traj = flow(x0, spec, dt=1e-2, steps=100, project=True)
        assert np.max(np.abs(traj.margins)) <= 1e-11

    def test_bad_arguments(self):
        spec = random_spec(2, 9)
        x0 = random_boundary_point(2, 9)
        with pytest.raises(ValueError):
            flow(x0, spec, dt=-0.1, steps=10)
        with pytest.raises(ValueError):
            flow(x0, spec, dt=0.1, steps=10, method="leapfrog")


class TestPolarProjection:
    def test_retracts_scaled_complex_structure(self):
        x = random_boundary_point(2, 11)
        scaled = PhasePoint(2, 1.1 * np.asarray(x.packed))
        proj = polar_project(scaled)
        assert abs(domain_margin(proj)) <= 1e-12
        np.testing.assert_allclose(proj.packed, x.packed, atol=1e-12)


class TestChannelSpectrum:
    def test_free_model_all_null(self):
        x = random_interior_point(2, 12)
        spec = channel_spectrum(x, QuarticCoupling.zero(2))
        assert spec.null_count == pair_count(2)
        assert spec.forward_count == spec.backward_count == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_traceless_spectrum(self, seed):
        # interior points: for M <= 3 the diffusion vanishes on the boundary
        # itself (a quartic of 2M <= 6 Majoranas is parity times a quadratic)
        g = QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.8), (1, 2, 5, 6, -0.5)])
        x = random_interior_point(3, seed, scale=0.5)
        spec = channel_spectrum(x, g)
        assert spec.forward_count + spec.backward_count + spec.null_count == pair_count(3)
        assert abs(np.sum(spec.eigenvalues)) <= 1e-10
        assert spec.forward_count > 0 and spec.backward_count > 0

    def test_m2_boundary_example(self):
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 1.0)])
        spec = channel_spectrum(random_boundary_point(2, 3), g)
        assert abs(np.sum(spec.eigenvalues)) <= 1e-10
        assert spec.forward_count == spec.backward_count

    def test_boundary_spectrum_vanishes_at_small_m(self):
        g = QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.8), (1, 2, 5, 6, -0.5)])
        spec = channel_spectrum(random_boundary_point(3, 0), g)
        assert spec.null_count == pair_count(3)

    def test_boundary_spectrum_nonzero_at_m4(self):
        g = QuarticCoupling.from_entries(4, [(1, 2, 3, 4, 0.5), (2, 4, 6, 8, 0.7)])
        spec = channel_spectrum(random_boundary_point(4, 0), g)
        assert abs(np.sum(spec.eigenvalues)) <= 1e-10
        assert spec.forward_count > 0 and spec.backward_count > 0


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
        # scipy.linalg.expm is imported on use too, so the CLI loads no scipy
        code = ("import sys, majoranaq.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
