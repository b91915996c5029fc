"""Antisymmetric tensor data model and phase-space geometry.

The phase point of the Majorana Q-function is a real antisymmetric 2M x 2M
matrix x.  Only the M(2M-1) independent components x_{ab} with a < b are
stored (lexicographic pair order); the accessor supplies x_{ba} = -x_{ab} and
x_{aa} = 0 by sign flips, never by arithmetic.  The physical domain is
I + x^2 >= 0, with pure Gaussian states on the boundary x^2 = -I (the real
antisymmetric orthogonal matrices, i.e. complex structures).

Quadratic couplings t_{ij} use the same packed antisymmetric storage; quartic
couplings g_{ijkl} are stored on sorted quadruples i<j<k<l with the
permutation sign applied on access.  Each quartic coupling is compiled once,
on first use, into the symmetric pair-space matrix G[P, Q] = g_{PQ} over
packed pairs P = (i<j), Q = (k<l) (a dense npairs x npairs array with six
nonzero entries per stored quadruple), which is the only form the kernel
contracts with.

All indices in the public API are 1-based, matching the conventions of the
file formats; internal numpy arrays are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import permutations
from types import MappingProxyType

import numpy as np

from .errors import DimensionError, IndexRangeError

__all__ = [
    "PairIndex",
    "PhasePoint",
    "CouplingMatrix",
    "QuarticCoupling",
    "HamiltonianSpec",
    "pair_enumerate",
    "pair_count",
    "antisymmetrize_quartic",
    "domain_margin",
    "random_boundary_point",
    "random_interior_point",
    "standard_complex_structure",
]


def pair_count(M: int) -> int:
    """Number of independent components of a 2M x 2M antisymmetric matrix."""
    return M * (2 * M - 1)


@lru_cache(maxsize=None)
def _pairs0(M: int) -> tuple[tuple[int, int], ...]:
    """Lexicographic (a, b) with 0 <= a < b < 2M."""
    n = 2 * M
    return tuple((a, b) for a in range(n) for b in range(a + 1, n))


@lru_cache(maxsize=None)
def _pair_lookup(M: int) -> dict[tuple[int, int], int]:
    return {ab: p for p, ab in enumerate(_pairs0(M))}


@dataclass(frozen=True)
class PairIndex:
    """One independent component slot: 1 <= alpha < beta <= 2M."""

    alpha: int
    beta: int
    linear: int


def pair_enumerate(M: int) -> list[PairIndex]:
    """All independent pair indices in lexicographic order (1-based)."""
    if M < 1:
        raise DimensionError(f"mode count must be >= 1, got {M}")
    return [PairIndex(a + 1, b + 1, p) for p, (a, b) in enumerate(_pairs0(M))]


def _check_index(M: int, *idx: int) -> None:
    for i in idx:
        if not 1 <= i <= 2 * M:
            raise IndexRangeError(f"index {i} outside [1, {2 * M}]")


@lru_cache(maxsize=None)
def _pair_rows_cols(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of the packed pairs, in ``_pairs0`` order."""
    rows, cols = np.triu_indices(2 * M, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@lru_cache(maxsize=None)
def _pair_index_matrix(M: int) -> np.ndarray:
    """(2M, 2M) array whose (a, b) and (b, a) entries are the packed index of a < b."""
    rows, cols = _pair_rows_cols(M)
    idx = np.zeros((2 * M, 2 * M), dtype=np.intp)
    idx[rows, cols] = idx[cols, rows] = np.arange(len(rows))
    idx.flags.writeable = False
    return idx


def _pack(M: int, mat: np.ndarray) -> np.ndarray:
    rows, cols = _pair_rows_cols(M)
    return np.array(mat[rows, cols], dtype=float)


def _unpack(M: int, packed: np.ndarray) -> np.ndarray:
    rows, cols = _pair_rows_cols(M)
    x = np.zeros((2 * M, 2 * M))
    x[rows, cols] = packed
    x[cols, rows] = -packed
    return x


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PhasePoint:
    """Phase-space point: packed independent components of antisymmetric x."""

    M: int
    packed: np.ndarray

    def __post_init__(self):
        if self.M < 1:
            raise DimensionError(f"mode count must be >= 1, got {self.M}")
        packed = np.asarray(self.packed, dtype=float)
        if packed.shape != (pair_count(self.M),):
            raise DimensionError(
                f"packed length {packed.shape} != ({pair_count(self.M)},) for M={self.M}"
            )
        object.__setattr__(self, "packed", _frozen(packed))

    @classmethod
    def zero(cls, M: int) -> "PhasePoint":
        return cls(M, np.zeros(pair_count(M)))

    @classmethod
    def from_matrix(cls, mat: np.ndarray, tol: float = 1e-12) -> "PhasePoint":
        mat = np.asarray(mat, dtype=float)
        n = mat.shape[0]
        if mat.shape != (n, n) or n % 2 != 0 or n == 0:
            raise DimensionError(f"expected even-dimensional square matrix, got {mat.shape}")
        if np.max(np.abs(mat + mat.T)) > tol:
            raise DimensionError(
                f"matrix is not antisymmetric (residual {np.max(np.abs(mat + mat.T)):.2e})"
            )
        return cls(n // 2, _pack(n // 2, mat))

    def matrix(self) -> np.ndarray:
        """Full 2M x 2M antisymmetric matrix."""
        return _unpack(self.M, self.packed)

    def entry(self, a: int, b: int) -> float:
        """x_{ab} with 1-based indices; antisymmetry exact by sign flip."""
        _check_index(self.M, a, b)
        if a == b:
            return 0.0
        if a < b:
            return float(self.packed[_pair_lookup(self.M)[(a - 1, b - 1)]])
        return -float(self.packed[_pair_lookup(self.M)[(b - 1, a - 1)]])

    def replace(self, packed: np.ndarray) -> "PhasePoint":
        return PhasePoint(self.M, packed)


@dataclass(frozen=True)
class CouplingMatrix:
    """Real antisymmetric quadratic coupling t_{ij}, packed like PhasePoint."""

    M: int
    packed: np.ndarray

    def __post_init__(self):
        if self.M < 1:
            raise DimensionError(f"mode count must be >= 1, got {self.M}")
        packed = np.asarray(self.packed, dtype=float)
        if packed.shape != (pair_count(self.M),):
            raise DimensionError(
                f"packed length {packed.shape} != ({pair_count(self.M)},) for M={self.M}"
            )
        object.__setattr__(self, "packed", _frozen(packed))

    @classmethod
    def zero(cls, M: int) -> "CouplingMatrix":
        return cls(M, np.zeros(pair_count(M)))

    @classmethod
    def from_entries(cls, M: int, entries) -> "CouplingMatrix":
        """Build from 1-based canonical entries [(i, j, value), ...] with i < j."""
        packed = np.zeros(pair_count(M))
        lookup = _pair_lookup(M)
        for i, j, v in entries:
            _check_index(M, i, j)
            if i >= j:
                raise IndexRangeError(f"entry ({i},{j}) must be in canonical order i < j")
            packed[lookup[(i - 1, j - 1)]] += v
        return cls(M, packed)

    @classmethod
    def from_matrix(cls, mat: np.ndarray, tol: float = 1e-12) -> "CouplingMatrix":
        pp = PhasePoint.from_matrix(mat, tol)
        return cls(pp.M, pp.packed)

    def matrix(self) -> np.ndarray:
        return _unpack(self.M, self.packed)

    def entry(self, i: int, j: int) -> float:
        return PhasePoint(self.M, self.packed).entry(i, j)


def _sort_sign(idx: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sort a tuple of distinct ints, returning (sorted, permutation sign)."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


# The 24 orderings of a quadruple (itertools order) and their permutation signs.
_PERMUTATIONS4 = np.array(list(permutations(range(4))), dtype=np.intp)
_PERMUTATION_SIGNS4 = np.array([float(_sort_sign(tuple(p))[1]) for p in _PERMUTATIONS4])


@dataclass(frozen=True)
class QuarticCoupling:
    """Fully antisymmetric rank-4 coupling g_{ijkl}; canonical quadruples stored."""

    M: int
    table: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.M < 1:
            raise DimensionError(f"mode count must be >= 1, got {self.M}")
        clean = {}
        for key, v in self.table.items():
            i, j, k, l = key
            _check_index(self.M, i, j, k, l)
            if not (i < j < k < l):
                raise IndexRangeError(f"quadruple {key} must be strictly increasing")
            if v != 0.0:
                clean[(i, j, k, l)] = float(v)
        object.__setattr__(self, "table", MappingProxyType(clean))

    @classmethod
    def zero(cls, M: int) -> "QuarticCoupling":
        return cls(M, {})

    @classmethod
    def from_entries(cls, M: int, entries) -> "QuarticCoupling":
        """Build from 1-based canonical entries [(i, j, k, l, value), ...]."""
        table = {}
        for i, j, k, l, v in entries:
            key = (i, j, k, l)
            table[key] = table.get(key, 0.0) + v
        return cls(M, table)

    def entry(self, i: int, j: int, k: int, l: int) -> float:
        """g_{ijkl} for any index order; 0 on repeats, sign flips on access."""
        _check_index(self.M, i, j, k, l)
        idx = (i, j, k, l)
        if len(set(idx)) < 4:
            return 0.0
        key, sign = _sort_sign(idx)
        return sign * self.table.get(key, 0.0)

    def items(self):
        """Canonical (i, j, k, l) -> value pairs, 1-based, sorted for determinism."""
        return sorted(self.table.items())

    def _canonical_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted canonical quadruples as a 0-based (nq, 4) array, and their values."""
        items = self.items()
        quads = np.array([key for key, _ in items], dtype=np.intp).reshape(-1, 4) - 1
        return quads, np.array([v for _, v in items], dtype=float)

    @cached_property
    def pair_matrix(self) -> np.ndarray:
        """Symmetric pair-space matrix G[P, Q] = g_{PQ}, P = (i<j) and Q = (k<l) packed.

        A canonical quadruple a<b<c<d fills its three pair splits
        (ab|cd), (ac|bd), (ad|bc) with signs +, -, +, each in both orders, so
        (g.x)_{ij} = 2 (G x_packed)_P and G has 6 nonzero entries per stored
        quadruple.  No two quadruples share a slot.  G is a read-only dense
        float64 array of npairs^2 = (M(2M-1))^2 entries.
        """
        quads, values = self._canonical_arrays()
        idx = _pair_index_matrix(self.M)
        a, b, c, d = quads.T
        left = [idx[a, b], idx[a, c], idx[a, d]]
        right = [idx[c, d], idx[b, d], idx[b, c]]
        rows = np.concatenate(left + right)
        cols = np.concatenate(right + left)
        data = np.concatenate([values, -values, values] * 2)
        npairs = pair_count(self.M)
        G = np.zeros((npairs, npairs))
        G[rows, cols] = data
        G.flags.writeable = False
        return G

    @cached_property
    def ordered_tuples(self) -> tuple[np.ndarray, np.ndarray]:
        """All 24 orderings of every stored quadruple, with signed values.

        Returns (tuples (24 nq, 4) 0-based, weights (24 nq,)), quadruples in
        :meth:`items` order and orderings in ``itertools.permutations`` order;
        each weight is the permutation sign times the canonical value.
        """
        quads, values = self._canonical_arrays()
        tuples = quads[:, _PERMUTATIONS4].reshape(-1, 4)
        weights = (values[:, None] * _PERMUTATION_SIGNS4[None, :]).reshape(-1)
        for arr in (tuples, weights):
            arr.flags.writeable = False
        return tuples, weights

    def dense(self) -> np.ndarray:
        """Materialized (2M)^4 tensor; intended for small-M cross-checks."""
        n = 2 * self.M
        out = np.zeros((n, n, n, n))
        for (i, j, k, l), v in self.table.items():
            for perm in permutations((i - 1, j - 1, k - 1, l - 1)):
                _, sign = _sort_sign(perm)
                out[perm] = sign * v
        return out


def antisymmetrize_quartic(dense: np.ndarray, M: int) -> QuarticCoupling:
    """Project a dense rank-4 array onto its fully antisymmetric part.

    The canonical value on i<j<k<l is (1/4!) sum_sigma sign(sigma) *
    dense[sigma(i,j,k,l)]; the accessor then reproduces the full projection.
    """
    from itertools import combinations

    dense = np.asarray(dense, dtype=float)
    n = 2 * M
    if dense.shape != (n, n, n, n):
        raise DimensionError(f"dense shape {dense.shape} != {(n, n, n, n)} for M={M}")
    table = {}
    for quad in combinations(range(n), 4):
        acc = 0.0
        for perm in permutations(range(4)):
            _, sign = _sort_sign(perm)
            acc += sign * dense[tuple(quad[p] for p in perm)]
        v = acc / 24.0
        if v != 0.0:
            table[tuple(q + 1 for q in quad)] = v
    return QuarticCoupling(M, table)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Model definition: H = i sum t_{ij} g_i g_j + (1/2) sum g_{ijkl} g_i g_j g_k g_l."""

    M: int
    t: CouplingMatrix
    g: QuarticCoupling

    def __post_init__(self):
        if self.t.M != self.M or self.g.M != self.M:
            raise DimensionError(
                f"coupling mode counts (t: {self.t.M}, g: {self.g.M}) != M={self.M}"
            )

    @classmethod
    def free(cls, t: CouplingMatrix) -> "HamiltonianSpec":
        return cls(t.M, t, QuarticCoupling.zero(t.M))


def domain_margin(x: PhasePoint) -> float:
    """Minimum eigenvalue of I + x^2: > 0 interior, 0 boundary, < 0 unphysical."""
    xm = x.matrix()
    sym = np.eye(2 * x.M) + xm @ xm
    return float(np.min(np.linalg.eigvalsh(sym)))


def standard_complex_structure(M: int) -> np.ndarray:
    """Block-diagonal J with M blocks [[0, 1], [-1, 0]]; satisfies J^2 = -I."""
    J = np.zeros((2 * M, 2 * M))
    for k in range(M):
        J[2 * k, 2 * k + 1] = 1.0
        J[2 * k + 1, 2 * k] = -1.0
    return J


def random_boundary_point(M: int, seed: int) -> PhasePoint:
    """Seeded point on the pure-state boundary x^2 = -I.

    Orthonormalizes a standard-normal matrix (QR with the usual sign fix for
    determinism) and conjugates the standard complex structure by it.
    """
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(2 * M, 2 * M))
    R, upper = np.linalg.qr(A)
    R = R * np.sign(np.diag(upper))
    x = R @ standard_complex_structure(M) @ R.T
    x = (x - x.T) / 2.0
    return PhasePoint(M, _pack(M, x))


def random_interior_point(
    M: int, seed: int, scale: float = 0.4, margin_floor: float = 0.05
) -> PhasePoint:
    """Seeded interior point with domain margin at least ``margin_floor``."""
    rng = np.random.default_rng(seed)
    packed = rng.normal(size=pair_count(M)) * scale / np.sqrt(M)
    x = PhasePoint(M, packed)
    while domain_margin(x) < margin_floor:
        packed = packed * 0.8
        x = PhasePoint(M, packed)
    return x
