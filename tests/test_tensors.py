"""Packed antisymmetric storage, quartic accessor, and domain geometry."""

import itertools

import numpy as np
import pytest

from majoranaq import (
    CouplingMatrix,
    HamiltonianSpec,
    PhasePoint,
    QuarticCoupling,
    antisymmetrize_quartic,
    domain_margin,
    pair_count,
    pair_enumerate,
    random_boundary_point,
    random_interior_point,
    standard_complex_structure,
)
from majoranaq.errors import DimensionError, IndexRangeError


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class TestPairEnumeration:
    def test_m1(self):
        pairs = pair_enumerate(1)
        assert [(p.alpha, p.beta) for p in pairs] == [(1, 2)]

    def test_m2(self):
        pairs = pair_enumerate(2)
        assert [(p.alpha, p.beta) for p in pairs] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_m3_count(self):
        assert len(pair_enumerate(3)) == 15

    @pytest.mark.parametrize("M", range(1, 9))
    def test_round_trip(self, M):
        pairs = pair_enumerate(M)
        assert len(pairs) == pair_count(M)
        for p in pairs:
            assert pairs[p.linear] is p
            assert 1 <= p.alpha < p.beta <= 2 * M
        # linear positions are exactly 0..count-1
        assert sorted(p.linear for p in pairs) == list(range(pair_count(M)))


class TestPhasePoint:
    def test_accessor_antisymmetry_exact(self):
        rng = np.random.default_rng(0)
        x = PhasePoint(2, rng.normal(size=6))
        for a in range(1, 5):
            assert x.entry(a, a) == 0.0
            for b in range(1, 5):
                assert x.entry(a, b) == -x.entry(b, a)

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(1)
        x = PhasePoint(3, rng.normal(size=15))
        again = PhasePoint.from_matrix(x.matrix())
        np.testing.assert_array_equal(again.packed, x.packed)

    def test_from_matrix_rejects_symmetric_part(self):
        with pytest.raises(DimensionError):
            PhasePoint.from_matrix(np.eye(4))

    def test_packed_is_immutable(self):
        x = PhasePoint.zero(2)
        with pytest.raises(ValueError):
            x.packed[0] = 1.0

    def test_bad_length(self):
        with pytest.raises(DimensionError):
            PhasePoint(2, np.zeros(5))


class TestAntisymmetrizeQuartic:
    def test_single_entry(self):
        dense = np.zeros((4, 4, 4, 4))
        dense[0, 1, 2, 3] = 24.0
        g = antisymmetrize_quartic(dense, 2)
        assert g.entry(1, 2, 3, 4) == pytest.approx(1.0)
        assert g.entry(2, 1, 3, 4) == pytest.approx(-1.0)
        assert g.entry(1, 1, 3, 4) == 0.0

    def test_projector_idempotent(self):
        rng = np.random.default_rng(2)
        dense = rng.normal(size=(4, 4, 4, 4))
        g1 = antisymmetrize_quartic(dense, 2)
        g2 = antisymmetrize_quartic(g1.dense(), 2)
        for key, v in g1.items():
            assert g2.entry(*key) == pytest.approx(v, abs=1e-15)

    def test_antisymmetric_input_unchanged(self):
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.37)])
        h = antisymmetrize_quartic(g.dense(), 2)
        for idx in itertools.product(range(1, 5), repeat=4):
            assert h.entry(*idx) == pytest.approx(g.entry(*idx), abs=1e-15)

    def test_symmetric_first_pair_annihilates(self):
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(4, 4, 4, 4))
        dense = dense + dense.transpose(1, 0, 2, 3)
        g = antisymmetrize_quartic(dense, 2)
        # cancellation is to rounding, not bitwise (24-term alternating sum)
        for idx in itertools.product(range(1, 5), repeat=4):
            assert abs(g.entry(*idx)) <= 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            antisymmetrize_quartic(np.zeros((4, 4, 4, 3)), 2)


class TestQuarticAccessor:
    def test_full_permutation_antisymmetry(self):
        g = QuarticCoupling.from_entries(3, [(1, 3, 4, 6, -0.8)])
        base = (1, 3, 4, 6)
        for perm in itertools.permutations(range(4)):
            idx = tuple(base[p] for p in perm)
            assert g.entry(*idx) == perm_sign(perm) * (-0.8)

    def test_repeated_index_zero(self):
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 1.0)])
        assert g.entry(1, 1, 3, 4) == 0.0
        assert g.entry(2, 3, 3, 4) == 0.0

    def test_non_canonical_key_rejected(self):
        with pytest.raises(IndexRangeError):
            QuarticCoupling(2, {(2, 1, 3, 4): 1.0})

    def test_out_of_range(self):
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 1.0)])
        with pytest.raises(IndexRangeError):
            g.entry(0, 2, 3, 4)
        with pytest.raises(IndexRangeError):
            QuarticCoupling.from_entries(2, [(1, 2, 3, 5, 1.0)])


class TestCompiledQuartic:
    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    def test_pair_matrix_is_dense_restricted_to_pairs(self, M):
        rng = np.random.default_rng(M)
        quads = list(itertools.combinations(range(1, 2 * M + 1), 4))
        g = QuarticCoupling.from_entries(M, [(*q, rng.uniform(-1, 1)) for q in quads])
        rows, cols = np.triu_indices(2 * M, k=1)
        G = g.pair_matrix
        np.testing.assert_array_equal(G, g.dense()[rows, cols][:, rows, cols])
        np.testing.assert_array_equal(G, G.T)
        assert np.count_nonzero(G) == 6 * len(quads)

    def test_pair_matrix_signs_of_the_three_splits(self):
        # pairs of M = 2 in packed order: 12, 13, 14, 23, 24, 34
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.5)])
        G = g.pair_matrix
        assert (G[0, 5], G[1, 4], G[2, 3]) == (0.5, -0.5, 0.5)
        assert (G[5, 0], G[4, 1], G[3, 2]) == (0.5, -0.5, 0.5)

    def test_compiled_once(self):
        g = QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.5)])
        assert g.pair_matrix is g.pair_matrix
        assert g.ordered_tuples is g.ordered_tuples

    def test_pair_matrix_is_read_only_float64(self):
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.5)])
        G = g.pair_matrix
        assert isinstance(G, np.ndarray) and G.dtype == np.float64
        assert G.shape == (pair_count(2), pair_count(2))
        assert not G.flags.writeable
        with pytest.raises(ValueError):
            G[0, 5] = 1.0

    def test_empty(self):
        g = QuarticCoupling.zero(3)
        assert g.pair_matrix.shape == (pair_count(3), pair_count(3))
        assert np.count_nonzero(g.pair_matrix) == 0
        tuples, weights = g.ordered_tuples
        assert tuples.shape == (0, 4) and weights.shape == (0,)

    def test_ordered_tuples_carry_signed_values(self):
        g = QuarticCoupling.from_entries(3, [(1, 3, 4, 6, -0.8), (2, 3, 4, 5, 0.3)])
        tuples, weights = g.ordered_tuples
        assert tuples.shape == (48, 4)
        assert len({tuple(t) for t in tuples}) == 48
        for t, w in zip(tuples, weights):
            assert w == g.entry(*(t + 1))


class TestCouplings:
    def test_coupling_matrix_antisymmetry(self):
        t = CouplingMatrix.from_entries(2, [(1, 2, 0.5), (2, 4, -0.3)])
        m = t.matrix()
        np.testing.assert_allclose(m, -m.T, atol=0)
        assert t.entry(2, 1) == -0.5

    def test_non_canonical_entry_rejected(self):
        with pytest.raises(IndexRangeError):
            CouplingMatrix.from_entries(2, [(2, 1, 0.5)])

    def test_spec_m_mismatch(self):
        t = CouplingMatrix.zero(2)
        g = QuarticCoupling.zero(3)
        with pytest.raises(DimensionError):
            HamiltonianSpec(2, t, g)


class TestDomainGeometry:
    def test_margin_at_origin(self):
        assert domain_margin(PhasePoint.zero(1)) == pytest.approx(1.0)
        assert domain_margin(PhasePoint.zero(3)) == pytest.approx(1.0)

    def test_margin_on_boundary(self):
        x = PhasePoint(1, np.array([1.0]))
        assert domain_margin(x) == pytest.approx(0.0, abs=1e-14)

    def test_margin_outside(self):
        x = PhasePoint(1, np.array([2.0]))
        assert domain_margin(x) == pytest.approx(-3.0)

    def test_boundary_point_m1_is_complex_structure(self):
        J = standard_complex_structure(1)
        for seed in range(6):
            x = random_boundary_point(1, seed).matrix()
            assert min(np.max(np.abs(x - J)), np.max(np.abs(x + J))) < 1e-12

    @pytest.mark.parametrize("M", [2, 3])
    def test_boundary_point_properties(self, M):
        for seed in range(5):
            x = random_boundary_point(M, seed)
            xm = x.matrix()
            assert np.max(np.abs(xm @ xm + np.eye(2 * M))) <= 1e-12
            assert np.max(np.abs(xm + xm.T)) <= 1e-14
            assert np.max(np.abs(xm.T @ xm - np.eye(2 * M))) <= 1e-12
            assert abs(domain_margin(x)) <= 1e-10

    def test_boundary_point_reproducible(self):
        a = random_boundary_point(2, 123).packed
        b = random_boundary_point(2, 123).packed
        np.testing.assert_array_equal(a, b)

    def test_interior_point_margin(self):
        for seed in range(5):
            x = random_interior_point(2, seed)
            assert domain_margin(x) >= 0.05
