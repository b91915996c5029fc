"""Phase-space coefficient formulas against independent evaluations."""

import itertools

import numpy as np
import pytest

from majoranaq import (
    CouplingMatrix,
    PhasePoint,
    QuarticCoupling,
    conservative_rhs,
    contract_quartic,
    diagonal_diffusion,
    diffusion,
    diffusion_channels,
    diffusion_expanded,
    div_diffusion,
    drift,
    drift_bar,
    drift_matrix,
    fpe_rhs,
    im_x,
    pair_count,
    pair_enumerate,
    random_boundary_point,
    random_interior_point,
    re_x,
    tangency_residual,
    x_component,
    trace_diffusion,
    x_plus_minus,
)
from majoranaq.errors import IndexRangeError, OffBoundaryError


def all_quadruples(M, seed):
    """A coupling storing every canonical quadruple, values uniform in [-1, 1)."""
    rng = np.random.default_rng(seed)
    quads = list(itertools.combinations(range(1, 2 * M + 1), 4))
    return QuarticCoupling.from_entries(M, [(*q, rng.uniform(-1, 1)) for q in quads])


def random_t(M, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 * M, 2 * M)) * scale
    return CouplingMatrix.from_matrix(a - a.T)


class TestXPlusMinus:
    def test_at_origin(self):
        xp, xm = x_plus_minus(PhasePoint.zero(2))
        np.testing.assert_array_equal(xp, 1j * np.eye(4))
        np.testing.assert_array_equal(xm, -1j * np.eye(4))

    def test_single_mode(self):
        xp, _ = x_plus_minus(PhasePoint(1, np.array([0.3])))
        np.testing.assert_allclose(xp, np.array([[1j, 0.3], [-0.3, 1j]]))

    def test_difference_and_transpose_relation(self):
        x = random_interior_point(2, 0)
        xp, xm = x_plus_minus(x)
        np.testing.assert_allclose(xp - xm, 2j * np.eye(4), atol=0)
        np.testing.assert_allclose(xp, -xm.T, atol=0)


class TestXComponents:
    def test_origin(self):
        x = PhasePoint.zero(2)
        for i, j, a, b in itertools.product(range(1, 5), repeat=4):
            assert im_x(x, i, j, a, b) == 0.0
            assert re_x(x, i, j, a, b) == float((i == a) and (b == j))

    def test_single_mode_diagonal_entries(self):
        x = PhasePoint(1, np.array([0.6]))
        assert im_x(x, 1, 2, 1, 2) == 0.0
        assert re_x(x, 1, 2, 1, 2) == pytest.approx(1.0)

    def test_against_complex_product(self):
        x = random_interior_point(2, 7)
        xp, xm = x_plus_minus(x)
        for i, j, a, b in itertools.product(range(1, 5), repeat=4):
            z = xp[i - 1, a - 1] * xm[b - 1, j - 1]
            assert x_component(x, i, j, a, b) == z
            assert re_x(x, i, j, a, b) == pytest.approx(z.real, abs=1e-14)
            assert im_x(x, i, j, a, b) == pytest.approx(z.imag, abs=1e-14)

    def test_conjugate_relation(self):
        x = random_interior_point(2, 17)
        xp, xm = x_plus_minus(x)
        for i, j, a, b in itertools.product(range(1, 5), repeat=4):
            conj = xm[i - 1, a - 1] * xp[b - 1, j - 1]
            assert np.conj(x_component(x, i, j, a, b)) == pytest.approx(conj, abs=0)

    def test_index_symmetry(self):
        # X_{ji}^{(beta alpha)} = X_{ij}^{(alpha beta)}
        x = random_interior_point(2, 8)
        for i, j, a, b in itertools.product(range(1, 5), repeat=4):
            assert re_x(x, j, i, b, a) == pytest.approx(re_x(x, i, j, a, b), abs=1e-14)
            assert im_x(x, j, i, b, a) == pytest.approx(im_x(x, i, j, a, b), abs=1e-14)

    def test_range_error(self):
        x = PhasePoint.zero(2)
        with pytest.raises(IndexRangeError):
            im_x(x, 0, 1, 1, 2)
        with pytest.raises(IndexRangeError):
            re_x(x, 1, 5, 1, 2)


class TestContractQuartic:
    @pytest.mark.parametrize("M", [2, 3, 4])
    def test_against_dense_einsum(self, M):
        rng = np.random.default_rng(M)
        quads = list(itertools.combinations(range(1, 2 * M + 1), 4))[:6]
        g = QuarticCoupling.from_entries(
            M, [(*q, rng.uniform(-1, 1)) for q in quads]
        )
        x = random_interior_point(M, M + 1)
        ref = np.einsum("ijkl,kl->ij", g.dense(), x.matrix())
        np.testing.assert_allclose(contract_quartic(g, x.matrix()), ref, atol=1e-13)

    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    def test_all_quadruples_against_dense_einsum(self, M):
        g = all_quadruples(M, seed=10 + M)
        for x in (random_interior_point(M, M), random_boundary_point(M, M)):
            ref = np.einsum("ijkl,kl->ij", g.dense(), x.matrix())
            np.testing.assert_allclose(contract_quartic(g, x.matrix()), ref, rtol=0, atol=1e-12)


class TestDiffusion:
    def test_zero_coupling(self):
        x = random_interior_point(2, 1)
        np.testing.assert_array_equal(diffusion(x, QuarticCoupling.zero(2)), 0.0)

    def test_zero_point(self):
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 1.0)])
        np.testing.assert_allclose(diffusion(PhasePoint.zero(2), g), 0.0, atol=1e-15)

    @pytest.mark.parametrize("M,seed", [(2, 0), (2, 1), (3, 2), (3, 3), (3, 4)])
    def test_matches_expanded_form(self, M, seed):
        rng = np.random.default_rng(seed)
        quads = list(itertools.combinations(range(1, 2 * M + 1), 4))[:4]
        g = QuarticCoupling.from_entries(M, [(*q, rng.uniform(-1, 1)) for q in quads])
        for x in (random_boundary_point(M, seed), random_interior_point(M, seed)):
            D = diffusion(x, g)
            np.testing.assert_allclose(D, diffusion_expanded(x, g), atol=1e-12)

    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    def test_all_quadruples_match_expanded_form(self, M):
        g = all_quadruples(M, seed=20 + M)
        for x in (random_boundary_point(M, M), random_interior_point(M, M)):
            np.testing.assert_allclose(diffusion(x, g), diffusion_expanded(x, g),
                                       rtol=0, atol=1e-12)

    def test_symmetric_zero_diagonal(self):
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 1.0)])
        x = random_boundary_point(2, 5)
        D = diffusion(x, g)
        np.testing.assert_allclose(D, D.T, atol=1e-12)
        assert np.max(np.abs(np.diag(D))) <= 1e-12
        assert abs(trace_diffusion(x, g)) <= 1e-12
        assert trace_diffusion(x, QuarticCoupling.zero(2)) == 0.0

    def test_complex_arithmetic_reality(self):
        # evaluate 4i g (X X - conj) per ordered tuple: imaginary part cancels
        M = 2
        g = QuarticCoupling.from_entries(M, [(1, 2, 3, 4, 0.9)])
        x = random_interior_point(M, 9, scale=0.5)
        xp, xm = x_plus_minus(x)
        pairs = [(p.alpha - 1, p.beta - 1) for p in pair_enumerate(M)]
        npairs = len(pairs)
        D_cplx = np.zeros((npairs, npairs), dtype=complex)
        dense = g.dense()
        for i, j, k, l in itertools.product(range(4), repeat=4):
            gv = dense[i, j, k, l]
            if gv == 0:
                continue
            for p, (a, b) in enumerate(pairs):
                for q, (m, n) in enumerate(pairs):
                    zw = (xp[i, a] * xm[b, j]) * (xp[k, m] * xm[n, l])
                    D_cplx[p, q] += 4j * gv * (zw - np.conj(zw))
        assert np.max(np.abs(D_cplx.imag)) <= 1e-14
        np.testing.assert_allclose(D_cplx.real, diffusion(x, g), atol=1e-12)


class TestChannels:
    def test_empty(self):
        x = random_interior_point(2, 3)
        dec = diffusion_channels(x, QuarticCoupling.zero(2))
        npairs = pair_count(2)
        assert dec.indices.shape == (0, 4)
        assert dec.weights.shape == (0,)
        assert dec.b_minus.shape == dec.b_plus.shape == (0, npairs)
        recon = dec.reconstruct()
        assert recon.shape == (npairs, npairs)
        np.testing.assert_array_equal(recon, 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_reconstruction(self, seed):
        # M=3: the decomposition is nondegenerate there (at M=2 the single
        # quartic channel sums to an identically zero diffusion)
        g = QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.8), (2, 3, 5, 6, -0.4)])
        x = random_interior_point(3, seed)
        D = diffusion(x, g)
        assert np.max(np.abs(D)) > 0.01
        recon = diffusion_channels(x, g).reconstruct()
        assert np.max(np.abs(recon - D)) / np.max(np.abs(D)) <= 1e-12

    @pytest.mark.parametrize("boundary", [False, True])
    def test_reconstruction_all_quadruples_m4(self, boundary):
        g = all_quadruples(4, seed=4)
        x = random_boundary_point(4, 5) if boundary else random_interior_point(4, 5)
        D = diffusion(x, g)
        assert np.max(np.abs(D)) > 0.01
        dec = diffusion_channels(x, g)
        assert len(dec.weights) == 24 * 70
        assert np.max(np.abs(dec.reconstruct() - D)) / np.max(np.abs(D)) <= 1e-12

    def test_m2_quartic_sector_vanishes_identically(self):
        # (g.x) is the Hodge dual of x at M=2, so [x, g.x] = 0 and D = 0
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.8)])
        x = random_interior_point(2, 0)
        assert np.max(np.abs(diffusion(x, g))) <= 1e-14
        recon = diffusion_channels(x, g).reconstruct()
        assert np.max(np.abs(recon)) <= 1e-14

    def test_forward_terms_psd(self):
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.8)])
        x = random_boundary_point(2, 4)
        dec = diffusion_channels(x, g)
        positive = np.flatnonzero(dec.weights > 0)
        assert len(positive) == 12
        for t in positive:
            forward = dec.weights[t] * np.outer(dec.b_minus[t], dec.b_minus[t])
            assert np.min(np.linalg.eigvalsh(forward)) >= -1e-12

    def test_term_bookkeeping(self):
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.5)])
        x = random_interior_point(2, 6)
        dec = diffusion_channels(x, g)
        assert len(dec.weights) == len(dec.indices) == 24
        canonical = np.flatnonzero((dec.indices == (1, 2, 3, 4)).all(axis=1))
        assert len(canonical) == 1 and dec.weights[canonical[0]] == pytest.approx(4 * 0.5)

    def test_rows_are_signed_orderings(self):
        # each row is one ordering of a stored quadruple, weighted by 4 g there
        g = QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.5), (2, 3, 5, 6, -0.7)])
        x = random_interior_point(3, 7)
        dec = diffusion_channels(x, g)
        assert len({tuple(row) for row in dec.indices}) == 48
        for row, w in zip(dec.indices, dec.weights):
            assert w == 4.0 * g.entry(*row)
        i, j, k, l = dec.indices[5]
        u = np.array([re_x(x, i, j, p.alpha, p.beta) for p in pair_enumerate(3)])
        v = np.array([im_x(x, k, l, p.alpha, p.beta) for p in pair_enumerate(3)])
        np.testing.assert_allclose(dec.b_minus[5], u - v, rtol=0, atol=1e-15)
        np.testing.assert_allclose(dec.b_plus[5], u + v, rtol=0, atol=1e-15)


class TestDriftBar:
    def test_zero_point(self):
        t = random_t(2, 0)
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 1.0)])
        np.testing.assert_allclose(drift_bar(PhasePoint.zero(2), t, g), 0.0, atol=1e-15)

    def test_single_mode_quadratic_is_stationary(self):
        t = CouplingMatrix.from_entries(1, [(1, 2, 0.7)])
        g = QuarticCoupling.zero(1)
        x = PhasePoint(1, np.array([0.4]))
        np.testing.assert_allclose(drift_bar(x, t, g), 0.0, atol=1e-15)

    def test_against_componentwise_sum(self):
        # independent path: 4 sum Im X (3 (g.x) - t) via scalar accessors
        M = 3
        t = random_t(M, 1)
        g = QuarticCoupling.from_entries(M, [(1, 2, 3, 4, 0.6), (1, 2, 5, 6, -0.4)])
        x = random_interior_point(M, 2, scale=0.5)
        gx = np.einsum("ijkl,kl->ij", g.dense(), x.matrix())
        tm = t.matrix()
        expected = []
        for p in pair_enumerate(M):
            acc = 0.0
            for i in range(1, 2 * M + 1):
                for j in range(1, 2 * M + 1):
                    acc += 4 * im_x(x, i, j, p.alpha, p.beta) * (
                        3 * gx[i - 1, j - 1] - tm[i - 1, j - 1]
                    )
            expected.append(acc)
        np.testing.assert_allclose(drift_bar(x, t, g), expected, atol=1e-13)

    def test_complex_arithmetic_reality(self):
        # keep the identity part of x+ in the cubic term; it must cancel
        M = 3
        t = random_t(M, 3)
        g = QuarticCoupling.from_entries(M, [(1, 2, 3, 4, 0.7), (3, 4, 5, 6, 0.2)])
        x = random_interior_point(M, 4)
        xp, _ = x_plus_minus(x)
        gx_plus = np.einsum("ijkl,kl->ij", g.dense().astype(complex), xp)
        tm = t.matrix()
        vec = np.zeros(pair_count(M), dtype=complex)
        for pos, p in enumerate(pair_enumerate(M)):
            for i in range(1, 2 * M + 1):
                for j in range(1, 2 * M + 1):
                    vec[pos] += 4 * im_x(x, i, j, p.alpha, p.beta) * (
                        3 * gx_plus[i - 1, j - 1] - tm[i - 1, j - 1]
                    )
        assert np.max(np.abs(vec.imag)) <= 1e-14
        np.testing.assert_allclose(vec.real, drift_bar(x, t, g), atol=1e-13)


class TestDivergences:
    def test_zero_cases(self):
        x = random_interior_point(2, 5)
        np.testing.assert_array_equal(div_diffusion(x, QuarticCoupling.zero(2)), 0.0)
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 1.0)])
        np.testing.assert_allclose(
            div_diffusion(PhasePoint.zero(2), g), 0.0, atol=1e-15
        )

    @pytest.mark.parametrize(
        "M,entries",
        [
            (2, [(1, 2, 3, 4, 1.0)]),  # degenerate sector: both sides vanish
            (3, [(1, 2, 3, 4, 1.0)]),
            (3, [(1, 2, 3, 4, 0.6), (2, 4, 5, 6, -0.9)]),
        ],
    )
    def test_closed_form_vs_finite_differences(self, M, entries):
        g = QuarticCoupling.from_entries(M, entries)
        x = random_interior_point(M, 6, scale=0.5)
        h = 1e-4
        npairs = pair_count(M)
        fd = np.zeros(npairs)
        v0 = np.asarray(x.packed)
        for q in range(npairs):
            vp = v0.copy(); vp[q] += h
            vm = v0.copy(); vm[q] -= h
            fd += (
                diffusion(PhasePoint(M, vp), g)[:, q]
                - diffusion(PhasePoint(M, vm), g)[:, q]
            ) / (2 * h)
        np.testing.assert_allclose(div_diffusion(x, g), fd, atol=1e-6)


class TestDrift:
    def test_decomposition(self):
        M = 2
        t = random_t(M, 7)
        g = QuarticCoupling.from_entries(M, [(1, 2, 3, 4, 0.5)])
        x = random_interior_point(M, 8)
        np.testing.assert_allclose(
            drift(x, t, g), drift_bar(x, t, g) + div_diffusion(x, g), atol=1e-13
        )

    def test_quadratic_only_reduces_to_drift_bar(self):
        t = random_t(2, 9)
        g = QuarticCoupling.zero(2)
        x = random_interior_point(2, 10)
        np.testing.assert_allclose(drift(x, t, g), drift_bar(x, t, g), atol=0)

    def test_zero_point(self):
        t = random_t(2, 11)
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.5)])
        np.testing.assert_allclose(drift(PhasePoint.zero(2), t, g), 0.0, atol=1e-15)

    def test_matrix_form_consistent(self):
        t = random_t(3, 12)
        g = QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.5), (2, 3, 5, 6, -0.3)])
        x = random_interior_point(3, 13)
        A = drift_matrix(x, t, g)
        np.testing.assert_allclose(A, -A.T, atol=0)
        packed = PhasePoint.from_matrix(A, tol=1e-9).packed
        np.testing.assert_allclose(packed, drift(x, t, g), atol=1e-14)


class TestRhsForms:
    def test_zero_inputs(self):
        x = random_interior_point(2, 14)
        t = random_t(2, 14)
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.5)])
        zeros = np.zeros(6)
        assert fpe_rhs(x, t, g, zeros, np.zeros((6, 6))) == 0.0
        assert conservative_rhs(x, t, g, 0.0, zeros, np.zeros((6, 6))) == 0.0

    def test_quadratic_only_is_first_order(self):
        x = random_interior_point(2, 15)
        t = random_t(2, 15)
        g = QuarticCoupling.zero(2)
        rng = np.random.default_rng(15)
        grad = rng.normal(size=6)
        hess = rng.normal(size=(6, 6)); hess = (hess + hess.T) / 2
        assert fpe_rhs(x, t, g, grad, hess) == pytest.approx(
            -float(drift_bar(x, t, g) @ grad)
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_conservative_equals_defining_form(self, seed):
        M = 2
        rng = np.random.default_rng(seed)
        x = random_interior_point(M, seed)
        t = random_t(M, seed)
        g = QuarticCoupling.from_entries(M, [(1, 2, 3, 4, rng.uniform(-1, 1))])
        grad = rng.normal(size=6)
        hess = rng.normal(size=(6, 6)); hess = (hess + hess.T) / 2
        q = float(rng.normal())
        r1 = fpe_rhs(x, t, g, grad, hess)
        r2 = conservative_rhs(x, t, g, q, grad, hess)
        assert abs(r1 - r2) / max(abs(r1), 1e-12) <= 1e-12


class TestTracelessExpansion:
    """Term-level view of why every diagonal entry vanishes."""

    @staticmethod
    def _cubic_linear_parts(xm, i, j, k, l, a, b):
        eye = np.eye(xm.shape[0])
        re1_xx = xm[i, a] * xm[b, j]
        re2_xx = xm[k, a] * xm[b, l]
        re1_dd = eye[i, a] * eye[b, j]
        re2_dd = eye[k, a] * eye[b, l]
        im1 = -xm[i, a] * eye[b, j] + eye[i, a] * xm[b, j]
        im2 = -xm[k, a] * eye[b, l] + eye[k, a] * xm[b, l]
        cubic = re1_xx * im2 + im1 * re2_xx
        linear = re1_dd * im2 + im1 * re2_dd
        return cubic, linear

    def test_cubic_terms_cancel_pairwise_and_linear_vanish(self):
        M = 2
        xm = random_interior_point(M, 16, scale=0.7).matrix()
        quad = (0, 1, 2, 3)
        for perm in itertools.permutations(range(4)):
            i, j, k, l = (quad[p] for p in perm)
            for a in range(4):
                for b in range(a + 1, 4):
                    cub1, lin1 = self._cubic_linear_parts(xm, i, j, k, l, a, b)
                    cub2, _ = self._cubic_linear_parts(xm, k, j, i, l, a, b)
                    # i <-> k is an odd swap of g, and the cubic part is
                    # symmetric under it, so the weighted pair cancels
                    assert cub1 == pytest.approx(cub2, abs=1e-15)
                    # delta chains require a repeated Latin index
                    assert lin1 == 0.0

    @pytest.mark.parametrize("M", [2, 3, 4])
    def test_diagonal_vanishes(self, M):
        rng = np.random.default_rng(M)
        quads = list(itertools.combinations(range(1, 2 * M + 1), 4))[:5]
        g = QuarticCoupling.from_entries(M, [(*q, rng.uniform(-1, 1)) for q in quads])
        for seed in range(3):
            x = (
                random_boundary_point(M, seed)
                if seed % 2
                else random_interior_point(M, seed)
            )
            assert np.max(np.abs(diagonal_diffusion(x, g))) <= 1e-12


class TestLargeModeScaling:
    """The kernel never materializes the dense coupling tensor."""

    def test_m8_diffusion_structure(self):
        M = 8
        rng = np.random.default_rng(0)
        quads = [(1, 2, 3, 4), (5, 6, 7, 8), (1, 5, 9, 13), (2, 6, 10, 14),
                 (3, 7, 11, 15), (4, 8, 12, 16)]
        g = QuarticCoupling.from_entries(M, [(*q, rng.uniform(-1, 1)) for q in quads])
        x = random_interior_point(M, 1)
        D = diffusion(x, g)
        assert D.shape == (pair_count(M), pair_count(M))
        np.testing.assert_allclose(D, D.T, atol=1e-12)
        assert np.max(np.abs(np.diag(D))) <= 1e-12
        assert np.max(np.abs(D)) > 0.01

    def test_m8_drift_identities(self):
        M = 8
        rng = np.random.default_rng(2)
        t = random_t(M, 2)
        g = QuarticCoupling.from_entries(M, [(1, 2, 3, 4, 0.5), (9, 12, 14, 16, -0.8)])
        x = random_interior_point(M, 3)
        np.testing.assert_allclose(
            drift(x, t, g), drift_bar(x, t, g) + div_diffusion(x, g), atol=1e-12
        )
        xb = random_boundary_point(M, 4)
        assert np.max(np.abs(tangency_residual(xb, t, g))) <= 1e-9


class TestTangency:
    def test_single_mode_trivial(self):
        x = PhasePoint(1, np.array([1.0]))  # the complex structure itself
        t = CouplingMatrix.from_entries(1, [(1, 2, 0.9)])
        res = tangency_residual(x, t, QuarticCoupling.zero(1))
        assert np.max(np.abs(res)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_boundary_residual(self, seed):
        M = 2
        x = random_boundary_point(M, seed)
        t = random_t(M, seed)
        g = QuarticCoupling.from_entries(M, [(1, 2, 3, 4, 0.8)])
        assert np.max(np.abs(tangency_residual(x, t, g))) <= 1e-9

    def test_interior_precondition(self):
        x = PhasePoint(1, np.array([np.sqrt(0.5)]))  # margin 0.5
        t = CouplingMatrix.from_entries(1, [(1, 2, 1.0)])
        with pytest.raises(OffBoundaryError) as err:
            tangency_residual(x, t, QuarticCoupling.zero(1))
        assert err.value.margin == pytest.approx(0.5)
