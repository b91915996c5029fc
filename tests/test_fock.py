"""Exact Fock-space oracle: operators, Gaussian basis, and identity checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from basis_oracle import (
    NormalOrderedPolynomial,
    SingularDefinitionError,
    _normal_order_word,
    central_difference,
    check_density_matrix,
    definition_basis,
    dense_subset_gammas,
    product_basis,
)
from majoranaq import (
    CouplingMatrix,
    HamiltonianSpec,
    PhasePoint,
    QuarticCoupling,
    build_hamiltonian,
    build_majoranas,
    exact_dqdt,
    gaussian_basis,
    q_derivatives,
    random_boundary_point,
    random_density_matrix,
    random_interior_point,
    verify_fpe,
    verify_four_gamma,
    verify_moment_identity_m1,
    verify_quadratic_identities,
)
from majoranaq.errors import DimensionError
from majoranaq.fock import _clifford_signs, _covariance, _monomials


def interior(M, seed, scale=0.35):
    return random_interior_point(M, seed, scale=scale)


PROPERTY = settings(deadline=None, derandomize=True, database=None)


@st.composite
def phase_points(draw):
    """x = O B O^T at M <= 4: a random orthogonal O and 2x2 blocks B.

    Interior draws take block weights in (-1, 1); boundary draws take weights
    of modulus one, which include points where the definition is singular.
    """
    M = draw(st.integers(1, 4))
    if draw(st.booleans()):
        weights = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=M, max_size=M))
    else:
        weights = draw(st.lists(st.floats(-0.99, 0.99), min_size=M, max_size=M))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    O, _ = np.linalg.qr(rng.normal(size=(2 * M, 2 * M)))
    B = np.zeros((2 * M, 2 * M))
    for k, w in enumerate(weights):
        B[2 * k, 2 * k + 1], B[2 * k + 1, 2 * k] = w, -w
    return PhasePoint.from_matrix(O @ B @ O.T)


class TestNormalOrdering:
    """Direct checks of the ladder-monomial algebra behind the definition oracle."""

    def test_swap_sign_without_contraction(self):
        # a_0 a_0^dag normal-orders to -a_0^dag a_0: no contraction constant
        p = NormalOrderedPolynomial({((1, 0),): 1.0})   # a_0
        q = NormalOrderedPolynomial({((0, 0),): 1.0})   # a_0^dag
        prod = p.multiply(q)
        assert prod.terms == {((0, 0), (1, 0)): -1.0}

    def test_repeated_label_vanishes(self):
        p = NormalOrderedPolynomial({((1, 0),): 1.0})
        assert p.multiply(p).terms == {}

    def test_canonical_order_and_parity(self):
        # a_1 a_0^dag a_0 -> creations first, then annihilations ascending
        word = ((1, 1), (0, 0), (1, 0))
        canonical, sign = _normal_order_word(word)
        assert canonical == ((0, 0), (1, 0), (1, 1))
        # permutation (1,2,0) -> identity order is a 3-cycle: even
        assert sign == 1

    def test_matrix_of_monomial(self):
        from majoranaq import jordan_wigner_ladders

        a = jordan_wigner_ladders(2)
        poly = NormalOrderedPolynomial({((0, 0), (1, 1)): 2.0})  # 2 a_0^dag a_1
        np.testing.assert_allclose(
            poly.to_matrix(2), 2.0 * a[0].conj().T @ a[1], atol=0
        )

    def test_polynomial_degree_truncation(self):
        # squaring a full-degree monomial annihilates it, terminating series
        full = NormalOrderedPolynomial({((0, 0), (1, 0)): 1.0})
        assert full.multiply(full).terms == {}


class TestMajoranas:
    def test_m1_matrices(self):
        majo = build_majoranas(1)
        np.testing.assert_array_equal(majo[0], np.array([[0, 1], [1, 0]]))
        np.testing.assert_array_equal(majo[1], np.array([[0, -1j], [1j, 0]]))

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_anticommutation(self, M):
        majo = build_majoranas(M)
        eye = np.eye(2 ** M)
        for i in range(2 * M):
            np.testing.assert_allclose(majo[i], majo[i].conj().T, atol=1e-15)
            for j in range(2 * M):
                anti = majo[i] @ majo[j] + majo[j] @ majo[i]
                np.testing.assert_allclose(anti, 2 * (i == j) * eye, atol=1e-13)

    def test_one_jordan_wigner_representation(self):
        # the oracle works in the Jordan-Wigner set alone: no function takes a
        # set, and one passed positionally is refused, not read as a later option
        import inspect

        from majoranaq import fock, jordan_wigner_ladders

        for name in fock.__all__:
            obj = getattr(fock, name)
            if inspect.isfunction(inspect.unwrap(obj)):  # the cached accessors too
                assert "majoranas" not in inspect.signature(obj).parameters, name
        for M in (1, 2, 3):
            majo = build_majoranas(M)
            a = jordan_wigner_ladders(M)
            jw = [a[k] + a[k].conj().T for k in range(M)] + [1j * (a[k].conj().T - a[k])
                                                              for k in range(M)]
            assert majo.shape == (2 * M, 2 ** M, 2 ** M) and not majo.flags.writeable
            np.testing.assert_array_equal(majo, np.stack(jw))
            with pytest.raises(ValueError):
                majo[0, 0, 0] = 1.0
        spec = HamiltonianSpec(2, CouplingMatrix.zero(2), QuarticCoupling.zero(2))
        x = interior(2, 5)
        with pytest.raises(TypeError):
            verify_four_gamma(x, build_majoranas(2))
        with pytest.raises(TypeError):
            verify_fpe(random_density_matrix(2, 1), spec, x, build_majoranas(2))

    def test_no_warning_within_the_verify_cap(self):
        # the largest stack any suite builds comes silently, once per M
        import warnings

        from majoranaq.fock import ORACLE_MAX_M

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            majo = build_majoranas(ORACLE_MAX_M)
        assert majo.shape == (2 * ORACLE_MAX_M, 2 ** ORACLE_MAX_M, 2 ** ORACLE_MAX_M)
        assert build_majoranas(ORACLE_MAX_M) is majo


class TestHamiltonian:
    def test_zero(self):
        spec = HamiltonianSpec(2, CouplingMatrix.zero(2), QuarticCoupling.zero(2))
        H = build_hamiltonian(spec)
        np.testing.assert_array_equal(H, 0.0)

    def test_single_mode_spectrum(self):
        tau = 0.8
        spec = HamiltonianSpec.free(CouplingMatrix.from_entries(1, [(1, 2, tau)]))
        H = build_hamiltonian(spec)
        np.testing.assert_allclose(H, H.conj().T, atol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(H), [-2 * tau, 2 * tau])

    def test_quartic_is_scaled_product(self):
        u = 0.6
        majo = build_majoranas(2)
        spec = HamiltonianSpec(
            2, CouplingMatrix.zero(2), QuarticCoupling.from_entries(2, [(1, 2, 3, 4, u)])
        )
        H = build_hamiltonian(spec)
        ref = 12 * u * majo[0] @ majo[1] @ majo[2] @ majo[3]
        np.testing.assert_allclose(H, ref, atol=1e-14)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(H), [-12 * u, -12 * u, 12 * u, 12 * u], atol=1e-12
        )

    def test_hermitian_random(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 6))
        spec = HamiltonianSpec(
            3,
            CouplingMatrix.from_matrix(a - a.T),
            QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.5), (2, 3, 4, 6, -0.7)]),
        )
        H = build_hamiltonian(spec)
        np.testing.assert_allclose(H, H.conj().T, atol=1e-12)


class TestGaussianBasis:
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_identity_at_origin(self, M):
        lam = gaussian_basis(PhasePoint.zero(M))
        np.testing.assert_allclose(lam, np.eye(2 ** M) / 2 ** M, atol=1e-14)

    @pytest.mark.parametrize("s", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_single_mode_analytic(self, s):
        lam = gaussian_basis(PhasePoint(1, np.array([s])))
        np.testing.assert_allclose(
            lam, np.diag([(1 - s) / 2, (1 + s) / 2]), atol=1e-12
        )

    def test_plus_j_is_occupied_projector(self):
        # the definition's J + J x J is singular here; the Wick sum is exact
        lam = gaussian_basis(PhasePoint(1, np.array([1.0])))
        np.testing.assert_array_equal(lam, np.diag([0.0, 1.0]))

    def test_limit_onto_occupied_projector(self):
        s = 1.0 - 1e-8
        lam = gaussian_basis(PhasePoint(1, np.array([s])))
        np.testing.assert_allclose(lam, np.diag([0.0, 1.0]), atol=1e-8)
        assert np.max(np.abs(lam @ lam - lam)) <= 1e-8

    def test_minus_j_is_vacuum_projector(self):
        lam = gaussian_basis(PhasePoint(1, np.array([-1.0])))
        np.testing.assert_allclose(lam, np.diag([1.0, 0.0]), atol=1e-13)

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_state_properties_interior(self, M):
        x = interior(M, 11)
        lam = gaussian_basis(x)
        assert abs(np.trace(lam) - 1) <= 1e-12
        np.testing.assert_allclose(lam, lam.conj().T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(lam)) >= -1e-10

    def test_boundary_purity(self):
        for seed in range(6):
            M = 1 + seed % 2
            x = random_boundary_point(M, seed + 50)
            lam = gaussian_basis(x)
            assert np.max(np.abs(lam @ lam - lam)) <= 1e-10

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_matches_definition_oracle(self, M):
        # the Wick sum against the normal-ordered exponential that defines
        # Lambda; about half of the random boundary points are singular for it
        boundary_used = 0
        for seed in range(16):
            x = random_interior_point(M, seed + 300)
            np.testing.assert_allclose(gaussian_basis(x), definition_basis(x), rtol=0, atol=1e-13)
            xb = random_boundary_point(M, seed + 300)
            try:
                ref = definition_basis(xb)
            except SingularDefinitionError:
                continue
            np.testing.assert_allclose(gaussian_basis(xb), ref, rtol=0, atol=1e-13)
            boundary_used += 1
        assert boundary_used >= 4

    @staticmethod
    def _blocked_point(weights, seed):
        # x = O B O^T with 2x2 blocks [[0, w], [-w, 0]] and a random orthogonal O
        n = 2 * len(weights)
        B = np.zeros((n, n))
        for k, w in enumerate(weights):
            B[2 * k, 2 * k + 1], B[2 * k + 1, 2 * k] = w, -w
        O, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
        return PhasePoint.from_matrix(O @ B @ O.T)

    @pytest.mark.parametrize("weights", [
        (0.6, 0.0, -0.4),          # rank-deficient: one zero block
        (0.5, 0.5 + 1e-9, -0.3),   # nearly equal weights
        (0.7, -0.7 + 1e-10, 0.2),  # nearly equal moduli of opposite sign
    ])
    def test_degenerate_blocks_match_definition_oracle(self, weights):
        for seed in range(4):
            x = self._blocked_point(weights, seed)
            np.testing.assert_allclose(gaussian_basis(x), definition_basis(x), rtol=0, atol=1e-13)

    def test_default_majoranas_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = gaussian_basis(random_interior_point(4, 1))
        assert abs(np.trace(lam) - 1) <= 1e-12

    @PROPERTY
    @given(phase_points())
    def test_property_matches_product_form(self, x):
        np.testing.assert_allclose(gaussian_basis(x), product_basis(x), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
    def test_matches_product_form(self, M):
        for seed in range(10):
            for x in (random_interior_point(M, seed + 700), random_boundary_point(M, seed + 700)):
                np.testing.assert_allclose(gaussian_basis(x), product_basis(x), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_evaluated_where_the_definition_is_singular(self, M):
        # boundary points where J + J x J is singular: Lambda is still the
        # pure Gaussian state there, equal to the product form
        singular = 0
        for seed in range(40):
            x = random_boundary_point(M, seed + 900)
            try:
                definition_basis(x)
                continue
            except SingularDefinitionError:
                singular += 1
            lam = gaussian_basis(x)
            np.testing.assert_allclose(lam, product_basis(x), rtol=0, atol=1e-13)
            assert np.max(np.abs(lam @ lam - lam)) <= 1e-13
            assert abs(np.trace(lam) - 1) <= 1e-14
        assert singular >= 5


class TestMonomialTables:
    """The oracle's bit-arithmetic tables against the dense gamma_S stack."""

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
    def test_monomial_form_is_the_dense_stack(self, M):
        flips, order, phases = _monomials(M)
        dense = dense_subset_gammas(M)
        k = np.arange(2 ** M)
        rebuilt = np.zeros_like(dense)
        rebuilt[order[..., None], flips[:, None, None] ^ k, k] = phases
        np.testing.assert_array_equal(rebuilt, dense)

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_clifford_signs_are_the_dense_words(self, M):
        gam = build_majoranas(M)
        dense = dense_subset_gammas(M)
        source, left, right, mixed = _clifford_signs(M)
        for i in range(2 * M):
            for j in range(2 * M):
                S = dense[source[i, j]]
                np.testing.assert_array_equal(gam[i] @ gam[j] @ S, left[i, j, :, None, None] * dense)
                np.testing.assert_array_equal(S @ gam[i] @ gam[j], right[i, j, :, None, None] * dense)
                np.testing.assert_array_equal(gam[i] @ S @ gam[j], mixed[i, j, :, None, None] * dense)


class TestQFunction:
    @pytest.mark.parametrize("M", [1, 2])
    def test_maximally_mixed(self, M):
        rho = np.eye(2 ** M) / 2 ** M
        for seed in range(3):
            assert np.trace(rho @ gaussian_basis(interior(M, seed))).real == pytest.approx(
                2.0 ** -M, abs=1e-13
            )

    def test_single_mode_vacuum(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        for s in (-0.8, -0.2, 0.0, 0.4):
            q = np.trace(rho @ gaussian_basis(PhasePoint(1, np.array([s])))).real
            assert q == pytest.approx((1 - s) / 2, abs=1e-13)

    def test_occupied_near_boundary(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        s = 1.0 - 1e-8
        q = np.trace(rho @ gaussian_basis(PhasePoint(1, np.array([s])))).real
        assert q == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("M", [1, 2])
    def test_positivity(self, M):
        for seed in range(5):
            rho = random_density_matrix(M, seed)
            q = np.trace(rho @ gaussian_basis(interior(M, seed + 13))).real
            assert q >= -1e-10


class TestCovariance:
    def test_zero_point(self):
        np.testing.assert_allclose(
            _covariance(gaussian_basis(PhasePoint.zero(2))), 0.0, atol=1e-13
        )

    def test_single_mode_equals_point(self):
        for s in (-0.7, 0.0, 0.5):
            cov = _covariance(gaussian_basis(PhasePoint(1, np.array([s]))))
            np.testing.assert_allclose(cov, [[0, s], [-s, 0]], atol=1e-10)

    def test_antisymmetry_m2(self):
        cov = _covariance(gaussian_basis(interior(2, 21)))
        np.testing.assert_allclose(cov, -cov.T, atol=1e-12)

    @pytest.mark.parametrize("M", [2, 3])
    def test_equals_point(self, M):
        for seed in range(4):
            for x in (interior(M, seed + 60), random_boundary_point(M, seed + 60)):
                cov = _covariance(gaussian_basis(x))
                np.testing.assert_allclose(cov, x.matrix(), rtol=0, atol=1e-12)


class TestExactRate:
    def test_stationary_cases(self):
        x = interior(2, 1)
        spec = HamiltonianSpec(2, CouplingMatrix.zero(2), QuarticCoupling.zero(2))
        rho = random_density_matrix(2, 3)
        assert exact_dqdt(rho, spec, x) == 0.0
        spec2 = HamiltonianSpec.free(
            CouplingMatrix.from_entries(2, [(1, 2, 0.9), (3, 4, -0.4)])
        )
        mixed = np.eye(4) / 4
        assert exact_dqdt(mixed, spec2, x) == pytest.approx(0.0, abs=1e-14)

    def test_m_mismatch(self):
        spec = HamiltonianSpec(2, CouplingMatrix.zero(2), QuarticCoupling.zero(2))
        rho, x = random_density_matrix(2, 3), interior(3, 1)
        for call in (lambda: exact_dqdt(rho, spec, x), lambda: verify_fpe(rho, spec, x)):
            with pytest.raises(DimensionError, match="spec M=2 != phase point M=3"):
                call()

    @pytest.mark.parametrize("M,seed", [(1, 0), (2, 1)])
    def test_against_propagator(self, M, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2 * M, 2 * M)) * 0.5
        entries = [(1, 2, 3, 4, 0.6)] if M == 2 else []
        spec = HamiltonianSpec(
            M,
            CouplingMatrix.from_matrix(a - a.T),
            QuarticCoupling.from_entries(M, entries),
        )
        if M == 1:
            # gamma_1 eigenstate; note any single-mode quadratic Hamiltonian
            # commutes with every Lambda(s), so the rate is exactly zero and
            # the propagator must agree on that
            plus = np.array([1.0, 1.0]) / np.sqrt(2)
            rho = np.outer(plus, plus).astype(complex)
        else:
            rho = random_density_matrix(M, seed + 5)
        x = interior(M, seed + 9)
        H = build_hamiltonian(spec)
        lam = gaussian_basis(x)
        delta = 1e-6
        up = expm(-1j * delta * H)
        down = expm(1j * delta * H)
        q_plus = np.trace(up @ rho @ up.conj().T @ lam).real
        q_minus = np.trace(down @ rho @ down.conj().T @ lam).real
        fd_rate = (q_plus - q_minus) / (2 * delta)
        rate = exact_dqdt(rho, spec, x)
        if M == 2:
            assert abs(rate) > 1e-4  # non-degenerate instance
        assert abs(rate - fd_rate) / max(abs(rate), 1e-3) <= 1e-5


class TestRealityContracts:
    def test_qfunction_trace_is_real(self):
        rho = random_density_matrix(2, 31)
        lam = gaussian_basis(interior(2, 32))
        assert abs(np.trace(rho @ lam).imag) <= 1e-12

    def test_rate_trace_is_real(self):
        rng = np.random.default_rng(33)
        a = rng.normal(size=(6, 6)) * 0.3
        spec = HamiltonianSpec(
            3,
            CouplingMatrix.from_matrix(a - a.T),
            QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.5)]),
        )
        rho = random_density_matrix(3, 34)
        H = build_hamiltonian(spec)
        lam = gaussian_basis(interior(3, 35))
        raw = np.trace((H @ rho - rho @ H) @ lam) / 1j
        assert abs(raw.imag) <= 1e-11


class TestFiniteDifferencesOfQ:
    """Exact derivatives of Q against known values and central differences."""

    def test_constant_q_gradient(self):
        rho = np.eye(4) / 4
        grad, hess = q_derivatives(rho, interior(2, 2))
        np.testing.assert_allclose(grad, 0.0, atol=1e-10)
        np.testing.assert_allclose(hess, 0.0, atol=1e-10)

    def test_single_mode_linear(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        x = PhasePoint(1, np.array([0.3]))
        grad, hess = q_derivatives(rho, x)
        np.testing.assert_allclose(grad, [-0.5], atol=1e-10)
        np.testing.assert_allclose(hess, [[0.0]], atol=1e-10)

    @pytest.mark.parametrize("s", [1.0 - 1e-4, 1.0])
    def test_exact_next_to_and_at_plus_j(self, s):
        # a central stencil of step 1e-4 about 1 - 1e-4 reached the point +J,
        # where the definition is singular; the exact derivatives need no stencil
        rho = np.diag([1.0, 0.0]).astype(complex)
        grad, hess = q_derivatives(rho, PhasePoint(1, np.array([s])))
        np.testing.assert_array_equal(grad, [-0.5])
        np.testing.assert_array_equal(hess, [[0.0]])

    @settings(PROPERTY, max_examples=30)
    @given(phase_points(), st.integers(0, 2**32 - 1))
    def test_property_matches_central_difference(self, x, rho_seed):
        # Q is affine in each packed component and bilinear in any two, so the
        # stencils have no truncation error; what is left is round-off, about
        # eps / h in the gradient and eps / h^2 in the Hessian
        rho = random_density_matrix(x.M, rho_seed)
        grad, hess = q_derivatives(rho, x)
        fd_grad, fd_hess = central_difference(rho, x, 1e-2)
        np.testing.assert_allclose(grad, fd_grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(hess, fd_hess, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(hess, hess.T)


class TestQuadraticIdentities:
    @pytest.mark.parametrize("M", [1, 2])
    def test_residuals(self, M):
        for seed in range(2):
            res = verify_quadratic_identities(interior(M, seed + 30))
            assert set(res) == {"left", "right", "mixed", "commutator"}
            assert max(res.values()) <= 1e-10

    def test_at_origin(self):
        res = verify_quadratic_identities(PhasePoint.zero(1))
        assert max(res.values()) <= 1e-10


class TestFourGamma:
    def test_at_origin(self):
        report = verify_four_gamma(PhasePoint.zero(2))
        res_left, res_right = report[(1, 2, 3, 4)]
        assert res_left <= 1e-10 and res_right <= 1e-10

    def test_random_interior(self):
        report = verify_four_gamma(interior(2, 42))
        res_left, res_right = report[(1, 2, 3, 4)]
        # both sides are exact, so each residual is round-off
        assert res_left <= 1e-13 and res_right <= 1e-13

    def test_m3_tuple_selection(self):
        report = verify_four_gamma(interior(3, 4), tuples=[(1, 2, 3, 4), (2, 3, 5, 6)])
        assert set(report) == {(1, 2, 3, 4), (2, 3, 5, 6)}
        assert all(max(pair) <= 1e-10 for pair in report.values())


class TestVerifyFpe:
    def test_free_theory_zero(self):
        spec = HamiltonianSpec(1, CouplingMatrix.zero(1), QuarticCoupling.zero(1))
        rho = random_density_matrix(1, 1)
        chk = verify_fpe(rho, spec, PhasePoint(1, np.array([0.2])))
        assert chk.lhs == 0.0 and chk.rhs == pytest.approx(0.0, abs=1e-12)
        assert chk.residual <= 1e-12

    def test_single_mode_quadratic(self):
        # at M=1 every quadratic Hamiltonian commutes with Lambda(s): both
        # sides of the equation of motion vanish identically, and the check
        # verifies they agree to tolerance
        spec = HamiltonianSpec.free(CouplingMatrix.from_entries(1, [(1, 2, 0.7)]))
        rho = random_density_matrix(1, 2)
        chk = verify_fpe(rho, spec, PhasePoint(1, np.array([0.35])))
        assert chk.lhs == pytest.approx(0.0, abs=1e-12)
        assert chk.residual <= 1e-10

    def test_m2_quadratic_nondegenerate(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) * 0.5
        spec = HamiltonianSpec.free(CouplingMatrix.from_matrix(a - a.T))
        rho = random_density_matrix(2, 4)
        chk = verify_fpe(rho, spec, interior(2, 5))
        assert abs(chk.lhs) > 1e-3
        assert chk.residual <= 1e-10

    def test_m3_quartic(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6)) * 0.25
        spec = HamiltonianSpec(
            3,
            CouplingMatrix.from_matrix(a - a.T),
            QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.5), (1, 3, 5, 6, -0.4)]),
        )
        rho = random_density_matrix(3, 6)
        chk = verify_fpe(rho, spec, interior(3, 7, scale=0.3))
        assert chk.residual <= 1e-10
        assert chk.conservative <= chk.residual

    @pytest.mark.parametrize("shift", [1.0, np.nan])
    def test_conservative_form_gates_the_residual(self, monkeypatch, shift):
        # the residual is the worse of the defining and the conservative
        # form, and a NaN in the conservative form is not dropped
        from majoranaq import fock

        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) * 0.5
        spec = HamiltonianSpec(2, CouplingMatrix.from_matrix(a - a.T),
                               QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.5)]))
        rho, x = random_density_matrix(2, 6), interior(2, 7)
        good = verify_fpe(rho, spec, x)
        exact = fock._rhs_forms

        def shifted(*args, **kwargs):
            defining, conservative = exact(*args, **kwargs)
            return [defining, conservative + shift]

        monkeypatch.setattr(fock, "_rhs_forms", shifted)
        bad = verify_fpe(rho, spec, x)
        assert (bad.lhs, bad.rhs) == (good.lhs, good.rhs)
        assert bad.conservative > 1e-3 or np.isnan(shift)
        np.testing.assert_array_equal(bad.residual, bad.conservative)

    def test_alternative_drift_form_disagrees(self):
        # the recorded arbitration form should NOT match exact dynamics
        # (M=2: the t-part of the two forms differs by a sign)
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 4)) * 0.5
        spec = HamiltonianSpec.free(CouplingMatrix.from_matrix(a - a.T))
        rho = random_density_matrix(2, 7)
        x = interior(2, 8)
        good = verify_fpe(rho, spec, x, drift_form="eq36")
        alt = verify_fpe(rho, spec, x, drift_form="eq50")
        assert good.residual <= 1e-10
        assert alt.residual > 1e-3

    def test_unknown_form(self):
        spec = HamiltonianSpec(1, CouplingMatrix.zero(1), QuarticCoupling.zero(1))
        with pytest.raises(ValueError):
            verify_fpe(np.eye(2) / 2, spec, PhasePoint.zero(1), drift_form="eq99")


class TestMomentIdentity:
    def test_vacuum(self):
        lhs, rhs = verify_moment_identity_m1(np.diag([1.0, 0.0]))
        assert lhs == pytest.approx(-1.0)
        assert rhs == pytest.approx(-1.0, abs=1e-8)

    def test_occupied(self):
        lhs, rhs = verify_moment_identity_m1(np.diag([0.0, 1.0]))
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0, abs=1e-8)

    def test_mixed(self):
        lhs, rhs = verify_moment_identity_m1(np.eye(2) / 2)
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(0.0, abs=1e-10)

    def test_random_states(self):
        for seed in range(3):
            rho = random_density_matrix(1, seed)
            lhs, rhs = verify_moment_identity_m1(rho)
            assert abs(lhs - rhs) <= 1e-6

    def test_wrong_shape(self):
        with pytest.raises(DimensionError):
            verify_moment_identity_m1(np.eye(4) / 4)


class TestDensityMatrices:
    def test_random_is_valid(self):
        for M in (1, 2, 3):
            check_density_matrix(random_density_matrix(M, 0))

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.array([[1.0, 0.1], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            check_density_matrix(np.diag([0.7, 0.7]))
        with pytest.raises(ValueError):
            check_density_matrix(np.diag([1.5, -0.5]))
