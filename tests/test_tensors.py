"""Packed antisymmetric storage, quartic accessor, and domain geometry."""

import itertools

import numpy as np
import pytest

from majoranaq import (
    CouplingMatrix,
    HamiltonianSpec,
    PhasePoint,
    QuarticCoupling,
    domain_margin,
    pair_count,
    pair_enumerate,
    random_boundary_point,
    random_interior_point,
    standard_complex_structure,
)
from majoranaq.config import parse_config
from majoranaq.errors import ConfigError, DimensionError, IndexRangeError

from coupling_oracle import dense_by_permutations, dense_pair_matrix


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
        with pytest.raises(DimensionError):
            pair_enumerate(0)

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
        with pytest.raises(DimensionError):
            PhasePoint(0, np.zeros(0))


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
        with pytest.raises(DimensionError):
            QuarticCoupling(0, {})

    def test_out_of_range(self):
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 1.0)])
        with pytest.raises(IndexRangeError):
            g.entry(0, 2, 3, 4)
        with pytest.raises(IndexRangeError):
            QuarticCoupling.from_entries(2, [(1, 2, 3, 5, 1.0)])


def _block_couplings():
    """Random couplings at M = 1-4, the Hubbard chains at M = 4, 8 and 16, and zero ones."""
    from majoranaq import ModelConfig, chain_entries, config_to_spec

    for M in (1, 2, 3, 4):
        rng = np.random.default_rng(40 + M)
        quads = list(itertools.combinations(range(1, 2 * M + 1), 4))
        chosen = rng.choice(len(quads), size=min(3, len(quads)), replace=False) if quads else []
        yield pytest.param(QuarticCoupling.from_entries(
            M, [(*quads[c], rng.uniform(-1, 1)) for c in chosen]), id=f"M{M}-sparse")
    for sites in (2, 4, 8):
        chain = ModelConfig(2 * sites, *chain_entries(sites, 1.0, 4.0)[:2])
        yield pytest.param(config_to_spec(chain).g, id=f"M{2 * sites}-hubbard")
    for M in (1, 3, 16):
        yield pytest.param(QuarticCoupling.zero(M), id=f"M{M}-zero")


class TestCompiledQuartic:
    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    def test_pair_matrix_is_dense_restricted_to_pairs(self, M):
        rng = np.random.default_rng(M)
        quads = list(itertools.combinations(range(1, 2 * M + 1), 4))
        g = QuarticCoupling.from_entries(M, [(*q, rng.uniform(-1, 1)) for q in quads])
        rows, cols = np.triu_indices(2 * M, k=1)
        G = dense_pair_matrix(g)
        np.testing.assert_array_equal(G, dense_by_permutations(g)[rows, cols][:, rows, cols])
        np.testing.assert_array_equal(G, G.T)
        assert np.count_nonzero(G) == 6 * len(quads)
        # every quadruple present: the block is all of G
        pairs, _, _, K0 = g.pair_block
        np.testing.assert_array_equal(pairs, np.arange(pair_count(M)))
        np.testing.assert_array_equal(K0[:pair_count(M)], G)

    def test_pair_matrix_signs_of_the_three_splits(self):
        # pairs of M = 2 in packed order: 12, 13, 14, 23, 24, 34
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.5)])
        for G in (dense_pair_matrix(g), g.pair_block[3][:6]):
            assert (G[0, 5], G[1, 4], G[2, 3]) == (0.5, -0.5, 0.5)
            assert (G[5, 0], G[4, 1], G[3, 2]) == (0.5, -0.5, 0.5)

    @pytest.mark.parametrize("g", list(_block_couplings()))
    def test_pair_block_is_the_nonzero_block_of_the_pair_matrix(self, g):
        G = dense_pair_matrix(g)
        pairs, read, write, K0 = g.pair_block
        w = len(pairs)
        np.testing.assert_array_equal(pairs, np.flatnonzero(G.any(axis=0)))
        assert K0.shape == (2 * w, w)
        np.testing.assert_array_equal(K0[:w], G[np.ix_(pairs, pairs)])
        np.testing.assert_array_equal(K0[w:], -K0[:w])
        n = 2 * g.M
        rows, cols = np.triu_indices(n, k=1)
        np.testing.assert_array_equal(read, rows[pairs] * n + cols[pairs])
        np.testing.assert_array_equal(write, np.concatenate([read, cols[pairs] * n + rows[pairs]]))

    def test_compiled_once(self):
        g = QuarticCoupling.from_entries(3, [(1, 2, 3, 4, 0.5)])
        assert g.pair_block is g.pair_block
        assert g.ordered_tuples is g.ordered_tuples

    def test_pair_block_is_read_only_float64(self):
        g = QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.5)])
        K0 = g.pair_block[3]
        assert isinstance(K0, np.ndarray) and K0.dtype == np.float64
        assert K0.shape == (2 * pair_count(2), pair_count(2))
        assert not any(arr.flags.writeable for arr in g.pair_block)
        with pytest.raises(ValueError):
            K0[0, 5] = 1.0

    def test_empty(self):
        g = QuarticCoupling.zero(3)
        pairs, read, write, K0 = g.pair_block
        assert pairs.shape == read.shape == write.shape == (0,) and K0.shape == (0, 0)
        tuples, weights = g.ordered_tuples
        assert tuples.shape == (0, 4) and weights.shape == (0,)

    def test_ordered_tuples_carry_signed_values(self):
        g = QuarticCoupling.from_entries(3, [(1, 3, 4, 6, -0.8), (2, 3, 4, 5, 0.3)])
        tuples, weights = g.ordered_tuples
        assert tuples.shape == (48, 4)
        assert len({tuple(t) for t in tuples}) == 48
        for t, w in zip(tuples, weights):
            assert w == g.entry(*(t + 1))


class TestPermutationTables:
    """The dense tensor filled from ordered_tuples is the permutation loop's, bit for bit."""

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_dense_equals_the_permutation_loop(self, M):
        rng = np.random.default_rng(60 + M)
        quads = list(itertools.combinations(range(1, 2 * M + 1), 4))
        g = QuarticCoupling.from_entries(M, [(*q, rng.uniform(-1, 1)) for q in quads])
        tuples, weights = g.ordered_tuples
        dense = np.zeros((2 * M,) * 4)
        dense[tuple(tuples.T)] = weights
        assert dense.tobytes() == dense_by_permutations(g).tobytes()


class TestCouplings:
    def test_coupling_matrix_antisymmetry(self):
        t = CouplingMatrix.from_entries(2, [(1, 2, 0.5), (2, 4, -0.3)])
        m = t.matrix()
        np.testing.assert_allclose(m, -m.T, atol=0)
        assert t.entry(2, 1) == -0.5

    def test_non_canonical_entry_rejected(self):
        with pytest.raises(IndexRangeError):
            CouplingMatrix.from_entries(2, [(2, 1, 0.5)])
        with pytest.raises(IndexRangeError, match="repeat"):
            CouplingMatrix.from_entries(2, [(2, 2, 0.5)])
        # an entry is checked against M = 0 before the mode count is
        with pytest.raises(IndexRangeError):
            CouplingMatrix.from_entries(0, [(1, 2, 0.5)])
        with pytest.raises(DimensionError):
            CouplingMatrix.from_entries(0, [])

    def test_spec_m_mismatch(self):
        t = CouplingMatrix.zero(2)
        g = QuarticCoupling.zero(3)
        with pytest.raises(DimensionError):
            HamiltonianSpec(2, t, g)


# Coupling index tuples at M = 2 that break a canonical rule, and the rule the
# error names first: range, then repeats, then order.
BAD_INDEX_TUPLES = [
    ((0, 2), "outside"), ((1, 5), "outside"), ((5, 1), "outside"), ((3, 3), "repeat"),
    ((2, 1), "canonical order i < j"),
    ((0, 1, 2, 3), "outside"), ((1, 2, 3, 5), "outside"), ((5, 4, 4, 1), "outside"),
    ((1, 2, 2, 3), "repeat"), ((1, 1, 1, 1), "repeat"), ((4, 3, 2, 2), "repeat"),
    ((1, 2, 4, 3), "canonical order i < j < k < l"), ((4, 3, 2, 1), "canonical order"),
]


@pytest.mark.parametrize("entry_point", ["parse_config", "constructor"])
@pytest.mark.parametrize("idx,rule", BAD_INDEX_TUPLES, ids=str)
def test_bad_index_tuple_rejected_by_every_entry_point(entry_point, idx, rule):
    # a pair goes to CouplingMatrix.from_entries, a quadruple to QuarticCoupling
    field = "t_entries" if len(idx) == 2 else "g_entries"
    if entry_point == "parse_config":
        with pytest.raises(ConfigError, match=rf"^{field}: .*{rule}"):
            parse_config({"M": 2, field: [[*idx, 0.5]]})
    elif len(idx) == 2:
        with pytest.raises(IndexRangeError, match=rule):
            CouplingMatrix.from_entries(2, [(*idx, 0.5)])
    else:
        with pytest.raises(IndexRangeError, match=rule):
            QuarticCoupling(2, {idx: 0.5})


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
