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
    flow,
    gaussian_covariance_comparison,
    pair_count,
    polar_project,
    random_boundary_point,
    random_interior_point,
)
from majoranaq.errors import DivergenceError


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
        for point in traj.points:
            np.testing.assert_array_equal(point.packed, x0.packed)
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
        for point in traj.points:
            m = point.matrix()
            np.testing.assert_array_equal(m, -m.T)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        spec = random_spec(3, 7, t_scale=0.0,
                           g_entries=[(1, 2, 3, 4, 1e3), (3, 4, 5, 6, 1e3)])
        x0 = random_boundary_point(3, 7)
        with pytest.raises(DivergenceError) as err:
            flow(x0, spec, dt=1e3, steps=50)
        assert err.value.step >= 1

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
        dev, rate = gaussian_covariance_comparison(
            x0, CouplingMatrix.zero(2), horizon=0.5
        )
        assert dev <= 1e-12 and rate == 0.0

    def test_single_mode_exact(self):
        x0 = PhasePoint(1, np.array([-1.0]))
        t = CouplingMatrix.from_entries(1, [(1, 2, 0.9)])
        dev, _ = gaussian_covariance_comparison(x0, t, horizon=1.0)
        assert dev <= 1e-8

    def test_m2_transport_rate_stable(self):
        rates = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(4, 4)) * 0.6
            t = CouplingMatrix.from_matrix(a - a.T)
            x0 = random_boundary_point(2, seed + 40)
            dev, rate = gaussian_covariance_comparison(x0, t, horizon=1.0)
            assert dev <= 1e-6
            rates.append(rate)
        assert np.std(rates) <= 1e-5
        # the fitted transport rate matches the flow generator normalization
        assert rates[0] == pytest.approx(4.0, abs=1e-5)

    @pytest.mark.parametrize("seed", range(3))
    def test_m2_deviation_at_generator_rate(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4)) * 0.6
        t = CouplingMatrix.from_matrix(a - a.T)
        x0 = random_boundary_point(2, seed + 40)
        dev, _ = gaussian_covariance_comparison(x0, t, horizon=1.0)
        assert dev <= 1e-12

    def test_package_import_leaves_scipy_optimize_unloaded(self):
        # the rate fit imports scipy.optimize on use; at package import it
        # would add a large share of every CLI start-up
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
