"""Phase-space coefficient formulas against independent evaluations."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majoranaq import (
    CouplingMatrix,
    PhasePoint,
    QuarticCoupling,
    diffusion,
    diffusion_channels,
    div_diffusion,
    drift,
    drift_bar,
    drift_matrix,
    kernel,
    pair_count,
    pair_enumerate,
    random_boundary_point,
    random_interior_point,
    suites,
    tangency_residual,
)
from majoranaq.errors import DimensionError, IndexRangeError, OffBoundaryError
from majoranaq.kernel import _rhs_forms
from majoranaq.tensors import _pack, _unpack

from acceptance_runners import _central

from coupling_oracle import dense_by_permutations, dense_pair_matrix, diffusion_expanded
from x_oracle import im_x, re_x, x_component, x_plus_minus


def all_quadruples(M, seed):
    """A coupling storing every canonical quadruple, values uniform in [-1, 1)."""
    rng = np.random.default_rng(seed)
    quads = list(itertools.combinations(range(1, 2 * M + 1), 4))
    return QuarticCoupling.from_entries(M, [(*q, rng.uniform(-1, 1)) for q in quads])


def block_contraction(g, xm):
    """(g.x) read off the compiled block: 2 K0 times the touched entries of x, put there and mirrored."""
    _, read, write, K0 = g.pair_block
    out = np.zeros(xm.shape)
    out.put(write, 2.0 * K0.dot(xm.take(read)))
    return out


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
    """(g.x)_{ij} = sum_{kl} g_{ijkl} x_{kl} through QuarticCoupling.pair_block, against the dense einsum."""

    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    def test_against_dense_einsum(self, M):
        rng = np.random.default_rng(M)
        quads = list(itertools.combinations(range(1, 2 * M + 1), 4))[:6]
        g = QuarticCoupling.from_entries(
            M, [(*q, rng.uniform(-1, 1)) for q in quads]
        )
        for x in (random_interior_point(M, M + 1), random_boundary_point(M, M + 1)):
            ref = np.einsum("ijkl,kl->ij", dense_by_permutations(g), x.matrix())
            np.testing.assert_allclose(block_contraction(g, x.matrix()), ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    def test_all_quadruples_against_dense_einsum(self, M):
        g = all_quadruples(M, seed=10 + M)
        for x in (random_interior_point(M, M), random_boundary_point(M, M)):
            ref = np.einsum("ijkl,kl->ij", dense_by_permutations(g), x.matrix())
            np.testing.assert_allclose(block_contraction(g, x.matrix()), ref, rtol=0, atol=1e-12)


class TestDiffusion:
    def test_zero_coupling(self):
        for M in (1, 2):
            x = random_interior_point(M, 1)
            np.testing.assert_array_equal(diffusion(x, QuarticCoupling.zero(M)), 0.0)

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_compound_rows(self, M):
        # REa = I - C2(x), the 2 x 2 minors of x; IMa^T c = pack([x, c])
        x = random_interior_point(M, 30 + M)
        xm = x.matrix()
        REa, IMa = kernel._compound_rows(M, xm)
        pairs = [(p.alpha - 1, p.beta - 1) for p in pair_enumerate(M)]
        minors = np.array([[np.linalg.det(xm[np.ix_(P, a)]) for a in pairs] for P in pairs])
        np.testing.assert_allclose(REa, np.eye(len(pairs)) - minors, rtol=0, atol=1e-15)
        c = random_interior_point(M, 40 + M)
        commutator = xm @ c.matrix() - c.matrix() @ xm
        np.testing.assert_allclose(IMa.T @ c.packed, PhasePoint.from_matrix(commutator).packed,
                                   rtol=0, atol=1e-15)

    def test_does_not_build_the_tables(self, monkeypatch):
        def refuse(M, xm):
            raise AssertionError("diffusion read the Re/Im tables")

        g = all_quadruples(3, seed=7)
        x = random_boundary_point(3, 7)
        monkeypatch.setattr(kernel, "_re_im_tables", refuse)
        D = diffusion(x, g)
        np.testing.assert_allclose(D, diffusion_expanded(x, g), rtol=0, atol=1e-12)

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
        assert abs(np.trace(D)) <= 1e-12
        assert np.trace(diffusion(x, QuarticCoupling.zero(2))) == 0.0

    def test_complex_arithmetic_reality(self):
        # evaluate 4i g (X X - conj) per ordered tuple: imaginary part cancels
        M = 2
        g = QuarticCoupling.from_entries(M, [(1, 2, 3, 4, 0.9)])
        x = random_interior_point(M, 9, scale=0.5)
        xp, xm = x_plus_minus(x)
        pairs = [(p.alpha - 1, p.beta - 1) for p in pair_enumerate(M)]
        npairs = len(pairs)
        D_cplx = np.zeros((npairs, npairs), dtype=complex)
        dense = dense_by_permutations(g)
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

    @settings(deadline=None, derandomize=True, database=None, max_examples=40)
    @given(M=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
           quadruples=st.integers(1, 70), boundary=st.booleans())
    def test_factored_form_equals_the_literal_channel_sum(self, M, seed, quadruples, boundary):
        rng = np.random.default_rng(seed)
        g = suites._random_quartic(M, rng, max_quadruples=quadruples,
                                   scale=float(rng.uniform(0.01, 2.0)))
        if boundary:
            x = random_boundary_point(M, seed)
        else:
            x = random_interior_point(M, seed, scale=0.5)
        D = diffusion(x, g)
        dec = diffusion_channels(x, g)
        w, bm, bp = dec.weights, dec.b_minus, dec.b_plus
        literal = (w[:, None] * bm).T @ bm - (w[:, None] * bp).T @ bp
        denom = max(float(np.max(np.abs(D))), 1.0)
        assert np.max(np.abs(dec.reconstruct() - literal)) / denom <= 1e-12
        minus = np.einsum("tp,tp->t", bm, bm)
        plus = np.einsum("tp,tp->t", bp, bp)
        forward = np.abs(w) @ np.where(w > 0, minus, plus)
        backward = np.abs(w) @ np.where(w > 0, plus, minus)
        for got, ref in zip(dec.traces(), (forward, backward)):
            assert abs(got - ref) <= 1e-12 * ref
        # the traceless property, at the bars the traceless check pins
        assert np.max(np.abs(np.diag(D))) <= suites.TOLERANCES["traceless-diagonal"]
        assert abs(np.sum(np.linalg.eigvalsh(D))) <= suites.TOLERANCES["traceless-eigsum"]


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
        gx = np.einsum("ijkl,kl->ij", dense_by_permutations(g), x.matrix())
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
        gx_plus = np.einsum("ijkl,kl->ij", dense_by_permutations(g).astype(complex), xp)
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
        v = x.packed

        def dmat(u):
            return diffusion(PhasePoint(M, u), g)

        div_d = sum(_central(dmat, v, q)[:, q] for q in range(pair_count(M)))
        np.testing.assert_allclose(div_diffusion(x, g), div_d, rtol=0, atol=1e-12)


class TestPolynomialDegree:
    """D is cubic and A quadratic in the packed point: the premise that makes
    the divergence stencils of ``acceptance_runners._central`` exact at a step of order one."""

    @settings(deadline=None, derandomize=True, database=None, max_examples=30)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_forward_differences_vanish_along_lines(self, M, seed):
        rng = np.random.default_rng(seed)
        g, t = all_quadruples(M, seed), random_t(M, seed)
        v = random_interior_point(M, seed).packed
        u = rng.normal(size=pair_count(M))
        u /= np.linalg.norm(u)  # unit steps keep the values, and their round-off, order one
        points = [PhasePoint(M, v + s * u) for s in range(5)]
        for values, order in (
            (np.array([diffusion(p, g) for p in points]), 4),
            (np.array([drift(p, t, g) for p in points[:4]]), 3),
        ):
            scale = max(float(np.max(np.abs(values))), 1.0)
            assert np.max(np.abs(np.diff(values, n=order, axis=0))) <= 1e-12 * scale


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
        packed = PhasePoint.from_matrix(A).packed
        np.testing.assert_allclose(packed, drift(x, t, g), atol=1e-14)


class TestRhsForms:
    def test_zero_inputs(self):
        x = random_interior_point(2, 14)
        t = random_t(2, 14)
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.5)])
        zeros = np.zeros(6)
        assert _rhs_forms(x, t, g, zeros, np.zeros((6, 6))) == [0.0, 0.0]

    def test_quadratic_only_is_first_order(self):
        x = random_interior_point(2, 15)
        t = random_t(2, 15)
        g = QuarticCoupling.zero(2)
        rng = np.random.default_rng(15)
        grad = rng.normal(size=6)
        hess = rng.normal(size=(6, 6)); hess = (hess + hess.T) / 2
        assert _rhs_forms(x, t, g, grad, hess)[0] == pytest.approx(
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
        # the closed-form divergences div A = 0 and div div D = 0 leave no q terms
        r1, r2 = _rhs_forms(x, t, g, grad, hess)
        assert abs(r1 - r2) / max(abs(r1), 1e-12) <= 1e-12

    # the ids name the defining and the conservative side
    @pytest.mark.parametrize("rhs", [
        lambda x, t, g, grad, hess: _rhs_forms(x, t, g, grad, hess)[0],
        lambda x, t, g, grad, hess: _rhs_forms(x, t, g, grad, hess)[1],
    ], ids=["fpe_rhs", "conservative_rhs"])
    def test_derivative_shapes_are_checked(self, rhs):
        x = random_interior_point(2, 17)
        t = random_t(2, 17)
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.5)])
        with pytest.raises(DimensionError, match="do not match 6 independent"):
            rhs(x, t, g, np.zeros(5), np.zeros((6, 6)))
        with pytest.raises(DimensionError):
            rhs(x, t, g, np.zeros(6), np.zeros((6, 5)))


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
            assert np.max(np.abs(np.diag(diffusion(x, g)))) <= 1e-12


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


def _stage_models():
    """(M, t, g) over M = 1-8 and 16, with zero, sparse and dense couplings."""
    from majoranaq import ModelConfig, chain_entries, config_to_spec

    for M in (1, 2, 3, 4, 5, 6, 7, 8, 16):
        rng = np.random.default_rng(70 + M)
        quads = list(itertools.combinations(range(1, 2 * M + 1), 4))
        couplings = [("zero", QuarticCoupling.zero(M))]
        if quads and M <= 8:
            chosen = rng.choice(len(quads), size=min(3, len(quads)), replace=False)
            couplings.append(("sparse", QuarticCoupling.from_entries(
                M, [(*quads[c], rng.uniform(-0.5, 0.5)) for c in chosen])))
        if quads and M <= 6:
            couplings.append(("dense", all_quadruples(M, 80 + M)))
        if M % 2 == 0:
            chain = ModelConfig(M, *chain_entries(M // 2, 1.0, 4.0)[:2])
            couplings.append(("hubbard", config_to_spec(chain).g))
        for t_name, t in (("t0", CouplingMatrix.zero(M)), ("t", random_t(M, 90 + M))):
            for g_name, g in couplings:
                yield pytest.param(M, t, g, id=f"M{M}-{g_name}-{t_name}")


class TestStageMap:
    """The drift's stage kernel, run by every RK4 stage (tensors._compile_rate)."""

    @pytest.mark.parametrize("M, t, g", list(_stage_models()))
    def test_rate_is_antisymmetric_and_matches_the_formula(self, M, t, g):
        for x in (random_boundary_point(M, M), random_interior_point(M, M)):
            A = drift_matrix(x, t, g)
            # P - P^T: the lower triangle negates the upper one bit for bit
            np.testing.assert_array_equal(A, -A.T)
            assert not np.any(np.diag(A))
            # against 4((4M - 3) 2 G v - t), with the scale applied after G v:
            # componentwise relative to the scale |x||c| + |c||x| of [x, c]
            xm = x.matrix()
            c = _unpack(M, 4.0 * ((4 * M - 3) * 2.0 * (dense_pair_matrix(g) @ x.packed) - t.packed))
            bound = np.abs(xm) @ np.abs(c) + np.abs(c) @ np.abs(xm)
            assert np.all(np.abs(A - (xm @ c - c @ xm)) <= 1e-15 * bound)

    @pytest.mark.parametrize("M, t, g", list(_stage_models()))
    def test_drift_matrix_is_one_flow_stage(self, M, t, g):
        from majoranaq import HamiltonianSpec, flow

        x = random_boundary_point(M, 5)
        dt = 1e-3
        traj = flow(x, HamiltonianSpec(M, t, g), dt, 1, method="euler")
        A = drift_matrix(x, t, g)
        packed = PhasePoint.from_matrix(A).packed
        np.testing.assert_array_equal(traj.packed[1], x.packed + dt * packed)
        np.testing.assert_array_equal(drift(x, t, g), packed)

    @pytest.mark.parametrize("M", [1, 3, 4])
    def test_pair_block_reads_and_writes_only_the_coupled_pairs(self, M):
        if M == 1:
            g = QuarticCoupling.zero(M)
        else:
            g = QuarticCoupling.from_entries(M, [(1, 2, 3, 4, 0.5)])
        _, read, write, K0 = g.pair_block
        w = len(read)
        assert K0.shape == (2 * w, w) and len(write) == 2 * w
        if M == 1:
            assert w == 0
            return
        n = 2 * M
        # the six pairs of (1, 2, 3, 4) and their mirrors
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        np.testing.assert_array_equal(read, [a * n + b for a, b in pairs])
        np.testing.assert_array_equal(write[w:], [b * n + a for a, b in pairs])
        # a stage rewrites the coefficient c = -4 t at those entries only
        x = random_boundary_point(M, 1)
        t = random_t(M, 1)
        A = drift_matrix(x, t, g)
        c = -4.0 * t.matrix()
        c.put(write, (8.0 * (4 * M - 3) * K0).dot(x.matrix().take(read)) + c.take(write))
        P = x.matrix() @ c
        np.testing.assert_array_equal(A, P - P.T)


class TestDenseReference:
    """Every kernel route that reads the compiled block, against the dense pair matrix G."""

    @pytest.mark.parametrize("M, t, g", list(_stage_models()))
    def test_drift_type_terms_match_their_formulas(self, M, t, g):
        # [x, c] with c = a (2 G v) + b t for each term, componentwise
        # relative to the scale |x||c| + |c||x| of the commutator
        G = dense_pair_matrix(g)
        for x in (random_boundary_point(M, M), random_interior_point(M, M)):
            xm, Gv = x.matrix(), G @ x.packed
            for got, a, b in (
                (drift(x, t, g), 4.0 * (4 * M - 3), -4.0),
                (drift_bar(x, t, g), 12.0, -4.0),
                (div_diffusion(x, g), -8.0 * (3 - 2 * M), 0.0),
                (kernel.drift_alternative(x, t, g), 64 * M - 120.0, 4.0),
            ):
                c = _unpack(M, a * 2.0 * Gv + b * t.packed)
                bound = _pack(M, np.abs(xm) @ np.abs(c) + np.abs(c) @ np.abs(xm))
                assert np.all(np.abs(got - _pack(M, xm @ c - c @ xm)) <= 1e-15 * bound)

    @pytest.mark.parametrize("M, t, g", list(_stage_models()))
    def test_contract_quartic_is_two_g_v(self, M, t, g):
        G = dense_pair_matrix(g)
        for x in (random_boundary_point(M, M), random_interior_point(M, M)):
            got = block_contraction(g, x.matrix())
            scale = _unpack(M, 2.0 * (np.abs(G) @ np.abs(x.packed)))
            assert np.all(np.abs(got - _unpack(M, 2.0 * (G @ x.packed))) <= 1e-15 * np.abs(scale))

    @pytest.mark.parametrize("M, t, g", [p for p in _stage_models() if p.values[0] <= 8])
    def test_diffusion_is_the_dense_contraction_bit_for_bit(self, M, t, g):
        # the zero rows and columns of G add exact zeros, so leaving them
        # out keeps every product and its order in a single-block matmul
        G = dense_pair_matrix(g)
        _, stack = _sample_stack(M, 3)
        REa, IMa = kernel._compound_rows(M, stack.matrix())
        E = REa.swapaxes(-1, -2) @ (G @ IMa)
        np.testing.assert_array_equal(diffusion(stack, g), -8.0 * (E + E.swapaxes(-1, -2)))

    def test_no_pair_space_matrix_at_m16(self):
        # the 8-site Hubbard chain: a 496 x 496 float array would take 1.97 MB
        import tracemalloc

        from majoranaq import ModelConfig, chain_entries, config_to_spec

        pre = config_to_spec(ModelConfig(16, *chain_entries(8, 1.0, 4.0)[:2]))
        x = random_boundary_point(16, 1)
        limit = pair_count(16) ** 2 * 8
        tracemalloc.start()
        try:
            for call in (lambda g: g.pair_block, lambda g: drift_bar(x, pre.t, g)):
                g = QuarticCoupling(16, dict(pre.g.table))  # compiled inside the trace
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                call(g)
                assert tracemalloc.get_traced_memory()[1] - before < limit
        finally:
            tracemalloc.stop()


def _sample_stack(M, B, seed=300):
    flags = np.arange(B) % 2 == 1
    return flags, PhasePoint(M, np.array([
        (random_boundary_point(M, seed + i) if flags[i]
         else random_interior_point(M, seed + i, scale=0.5)).packed for i in range(B)]))


def _one_boundary_point(M, seed):
    """Reference: one boundary point drawn alone, as the sampler documents it."""
    from majoranaq.tensors import _pack, standard_complex_structure

    A = np.random.default_rng(seed).normal(size=(2 * M, 2 * M))
    R, upper = np.linalg.qr(A)
    R = R * np.sign(np.diag(upper))
    x = R @ standard_complex_structure(M) @ R.T
    return _pack(M, (x - x.T) / 2.0)


def _one_interior_point(M, seed, scale, margin_floor=0.05):
    """Reference: one interior point drawn alone, shrunk one margin check at a time."""
    from majoranaq import domain_margin

    packed = np.random.default_rng(seed).normal(size=pair_count(M)) * scale / np.sqrt(M)
    while domain_margin(PhasePoint(M, packed)) < margin_floor:
        packed = packed * 0.8
    return packed


class TestStacks:
    """Stacked points through diffusion, the channels and the sampler, bit for bit."""

    @pytest.mark.parametrize("M, g", [
        (1, QuarticCoupling.zero(1)),
        (2, QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.7)])),
        (3, QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.3), (1, 3, 5, 6, -0.4)])),
        (4, all_quadruples(4, 5)),
    ])
    @pytest.mark.parametrize("B", [1, 7, 16])
    def test_stack_equals_each_point(self, M, g, B):
        _, stack = _sample_stack(M, B)
        D = diffusion(stack, g)
        decomp = diffusion_channels(stack, g)
        rec = decomp.reconstruct()
        forward, backward = decomp.traces()
        assert D.shape == rec.shape == (B, pair_count(M), pair_count(M))
        assert forward.shape == backward.shape == (B,)
        for i in range(B):
            x = PhasePoint(M, stack.packed[i])
            one = diffusion_channels(x, g)
            np.testing.assert_array_equal(D[i], diffusion(x, g))
            np.testing.assert_array_equal(rec[i], one.reconstruct())
            assert (forward[i], backward[i]) == one.traces()
            np.testing.assert_array_equal(decomp.b_minus[i], one.b_minus)
            np.testing.assert_array_equal(decomp.b_plus[i], one.b_plus)

    def test_single_point_traces_are_floats(self):
        x = random_boundary_point(3, 2)
        g = QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.3)])
        assert all(isinstance(v, float) for v in diffusion_channels(x, g).traces())

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 6])
    def test_sampler_equals_the_one_seed_samplers(self, M):
        from majoranaq import random_points

        seeds = list(range(40, 60))
        flags = np.arange(20) % 3 == 0
        for scale in (0.5, 3.0):  # 3.0 shrinks most interior points several times
            stack = random_points(M, seeds, flags, scale=scale)
            for s, on, row in zip(seeds, flags, stack.packed):
                x = random_boundary_point(M, s) if on else random_interior_point(M, s, scale=scale)
                np.testing.assert_array_equal(row, x.packed)
                np.testing.assert_array_equal(
                    row, _one_boundary_point(M, s) if on else _one_interior_point(M, s, scale))

    def test_single_point_functions_reject_a_stack(self):
        _, stack = _sample_stack(2, 3)
        t, g = random_t(2, 1), QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.5)])
        for fn in (drift, drift_bar, drift_matrix):
            with pytest.raises(DimensionError, match="single phase point"):
                fn(stack, t, g)
        with pytest.raises(DimensionError, match="single point"):
            stack.entry(1, 2)
        with pytest.raises(DimensionError):
            PhasePoint(2, np.zeros((2, 3, 6)))
