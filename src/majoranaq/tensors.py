"""Antisymmetric tensor data model and phase-space geometry.

The phase point of the Majorana Q-function is a real antisymmetric 2M x 2M
matrix x.  Only the M(2M-1) independent components x_{ab} with a < b are
stored (lexicographic pair order); the accessor supplies x_{ba} = -x_{ab} and
x_{aa} = 0 by sign flips, never by arithmetic.  The physical domain is
I + x^2 >= 0, with pure Gaussian states on the boundary x^2 = -I (the real
antisymmetric orthogonal matrices, i.e. complex structures).

Quadratic couplings t_{ij} use the same packed antisymmetric storage, and
one implementation of it: the shape check, ``zero``, ``from_matrix`` and
``entry`` of :class:`PhasePoint` and :class:`CouplingMatrix` come from
their shared base, and only ``matrix`` is each class's own.  Quartic
couplings g_{ijkl} are stored on sorted quadruples i<j<k<l with the
permutation sign applied on access.  Each quartic coupling is compiled once,
on first use, into the part of its symmetric pair-space matrix
G[P, Q] = g_{PQ} (P = (i<j), Q = (k<l) packed) that is not zero: the block
over the w pairs its quadruples touch, unscaled, with the flat indices of
those pairs in a full matrix (:attr:`QuarticCoupling.pair_block`).  That
block is the only form of g the kernel contracts with; no npairs x npairs
matrix is built.  The stage kernel that evaluates every drift-type
commutator [x, c] from it, :func:`_compile_rate`, is defined here as well,
so :mod:`majoranaq.dynamics` integrates the flow without loading
:mod:`majoranaq.kernel`.

All indices in the public API are 1-based, matching the conventions of the
file formats; internal numpy arrays are 0-based.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import permutations
from types import MappingProxyType
from typing import NamedTuple

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
    "domain_margin",
    "random_points",
    "random_boundary_point",
    "random_interior_point",
    "standard_complex_structure",
]


def pair_count(M: int) -> int:
    """Number of independent components of a 2M x 2M antisymmetric matrix."""
    return M * (2 * M - 1)


class _Frozen:
    """Base of the value types that validate their fields or cache derived data.

    Each subclass annotates its fields and sets them once, in ``__init__``,
    through the instance ``__dict__``, which also holds the
    ``functools.cached_property`` caches; assigning or deleting an attribute
    afterwards raises :class:`AttributeError`.  Nothing is generated at
    import (see :mod:`majoranaq`).
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__annotations__)
        return f"{type(self).__name__}({fields})"


class PairIndex(NamedTuple):
    """One independent component slot: 1 <= alpha < beta <= 2M."""

    alpha: int
    beta: int
    linear: int


def pair_enumerate(M: int) -> list[PairIndex]:
    """All independent pair indices in lexicographic order (1-based)."""
    _check_modes(M)
    rows, cols = _pair_rows_cols(M)
    return [PairIndex(a + 1, b + 1, p)
            for p, (a, b) in enumerate(zip(rows.tolist(), cols.tolist()))]


def _check_modes(M: int) -> None:
    if M < 1:
        raise DimensionError(f"mode count must be >= 1, got {M}")


def _check_index(M: int, *idx: int) -> None:
    for i in idx:
        if not 1 <= i <= 2 * M:
            raise IndexRangeError(f"index {i} outside [1, {2 * M}]")


def _index_fault(M: int, idx: tuple) -> str | None:
    """The first rule the 1-based coupling indices ``idx`` break, or None.

    A canonical entry of t (i, j) or g (i, j, k, l) has its indices in
    [1, 2M], repeats none of them, and lists them in increasing order.
    """
    if not all(1 <= i <= 2 * M for i in idx):
        return f"indices {idx} outside [1, {2 * M}]"
    if len(set(idx)) < len(idx):
        return f"indices {idx} repeat; an antisymmetric coupling vanishes there"
    if list(idx) != sorted(idx):
        return f"indices {idx} not in canonical order {' < '.join('ijkl'[:len(idx)])}"
    return None


@lru_cache(maxsize=None)
def _pair_rows_cols(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of the packed pairs: lexicographic (a, b), 0 <= a < b < 2M."""
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


@lru_cache(maxsize=None)
def _pair_flat(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a (2M, 2M) array of the packed pairs (a, b) and of their mirrors (b, a)."""
    rows, cols = _pair_rows_cols(M)
    upper = rows * (2 * M) + cols
    lower = cols * (2 * M) + rows
    upper.flags.writeable = False
    lower.flags.writeable = False
    return upper, lower


def _pack(M: int, mat: np.ndarray) -> np.ndarray:
    """The packed upper entries of ``mat``, or one row per matrix of a stack (..., 2M, 2M)."""
    mat = np.asarray(mat, dtype=float)
    upper = _pair_flat(M)[0]
    if mat.ndim == 2:  # one matrix: a flat take costs less than the reshape and axis
        return mat.take(upper)
    return mat.reshape(mat.shape[:-2] + (4 * M * M,)).take(upper, axis=-1)


def _unpack(M: int, packed: np.ndarray) -> np.ndarray:
    """The full antisymmetric matrix of ``packed``, or one per row of a stack (..., npairs)."""
    upper, lower = _pair_flat(M)
    packed = np.asarray(packed, dtype=float)
    x = np.zeros(packed.shape[:-1] + (4 * M * M,))
    # one point takes numpy's fast path for a single index array, which
    # the Ellipsis of the stacked form bypasses
    at = () if packed.ndim == 1 else (Ellipsis,)
    x[at + (upper,)] = packed
    x[at + (lower,)] = -packed
    return x.reshape(packed.shape[:-1] + (2 * M, 2 * M))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float).copy()
    arr.flags.writeable = False
    return arr


class _PackedAntisymmetric(_Frozen):
    """Packed independent components of a real antisymmetric 2M x 2M matrix.

    The one implementation of the packed storage that :class:`PhasePoint`
    and :class:`CouplingMatrix` share: the shape check, ``zero``,
    ``from_matrix`` and ``entry``.  A subclass whose ``packed`` may hold a
    stack (B, npairs) sets ``_STACKS``.  Each subclass annotates its own
    fields, which its ``repr`` lists, and defines its own ``matrix``.
    """

    _STACKS = False

    def __init__(self, M: int, packed: np.ndarray):
        _check_modes(M)
        packed = np.asarray(packed, dtype=float)
        n = pair_count(M)
        if packed.shape != (n,) and not (self._STACKS and packed.ndim == 2
                                         and packed.shape[-1] == n):
            shapes = f"({n},) or (B, {n})" if self._STACKS else f"({n},)"
            raise DimensionError(f"packed shape {packed.shape} is not {shapes} for M={M}")
        self.__dict__.update(M=M, packed=_frozen(packed))

    @classmethod
    def zero(cls, M: int):
        return cls(M, np.zeros(pair_count(M)))

    @classmethod
    def from_matrix(cls, mat: np.ndarray, tol: float = 1e-12):
        mat = np.asarray(mat, dtype=float)
        n = mat.shape[0]
        if mat.shape != (n, n) or n % 2 != 0 or n == 0:
            raise DimensionError(f"expected even-dimensional square matrix, got {mat.shape}")
        if np.max(np.abs(mat + mat.T)) > tol:
            raise DimensionError(
                f"matrix is not antisymmetric (residual {np.max(np.abs(mat + mat.T)):.2e})"
            )
        return cls(n // 2, _pack(n // 2, mat))

    def entry(self, a: int, b: int) -> float:
        """The (a, b) entry with 1-based indices; antisymmetry exact by sign flip."""
        if self.packed.ndim != 1:
            raise DimensionError("entry() needs a single point, not a stack")
        _check_index(self.M, a, b)
        if a == b:
            return 0.0
        value = float(self.packed[_pair_index_matrix(self.M)[a - 1, b - 1]])
        return value if a < b else -value


class PhasePoint(_PackedAntisymmetric):
    """Phase-space point: packed independent components of antisymmetric x.

    A ``packed`` of shape (B, npairs) holds a stack of B points, for the
    kernel functions that take one (:func:`majoranaq.kernel.diffusion` and
    :func:`majoranaq.kernel.diffusion_channels`); ``matrix`` then returns
    (B, 2M, 2M).  Everything else takes a single point.
    """

    M: int
    packed: np.ndarray
    _STACKS = True

    def matrix(self) -> np.ndarray:
        """Full 2M x 2M antisymmetric matrix, or one per point of a stack."""
        return _unpack(self.M, self.packed)


class CouplingMatrix(_PackedAntisymmetric):
    """Real antisymmetric quadratic coupling t_{ij}, packed like PhasePoint."""

    M: int
    packed: np.ndarray

    @classmethod
    def from_entries(cls, M: int, entries) -> "CouplingMatrix":
        """Build from 1-based canonical entries [(i, j, value), ...]."""
        packed = np.zeros(pair_count(M))
        for i, j, v in entries:
            if fault := _index_fault(M, (i, j)):
                raise IndexRangeError(fault)
            packed[_pair_index_matrix(M)[i - 1, j - 1]] += v
        return cls(M, packed)

    @cached_property
    def _full(self) -> np.ndarray:
        """The full antisymmetric matrix, unpacked once; read-only."""
        full = _unpack(self.M, self.packed)
        full.flags.writeable = False
        return full

    def matrix(self) -> np.ndarray:
        return self._full.copy()


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


class QuarticCoupling(_Frozen):
    """Fully antisymmetric rank-4 coupling g_{ijkl}; canonical quadruples stored.

    ``table`` is a read-only copy of the given map, without its zero values.
    """

    M: int
    table: MappingProxyType

    def __init__(self, M: int, table=MappingProxyType({})):
        _check_modes(M)
        clean = {}
        for key, v in table.items():
            i, j, k, l = key
            if fault := _index_fault(M, (i, j, k, l)):
                raise IndexRangeError(fault)
            if v != 0.0:
                clean[(i, j, k, l)] = float(v)
        self.__dict__.update(M=M, table=MappingProxyType(clean))

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
    def pair_block(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The coupling compiled once for the kernel: (pairs, read, write, K0).

        The pair-space matrix G[P, Q] = g_{PQ} has six nonzero entries per
        canonical quadruple a<b<c<d: its three pair splits (ab|cd), (ac|bd),
        (ad|bc) with signs +, -, +, each in both orders, and no two
        quadruples share a slot.  So (g.x)_P = 2 (G v)_P at the packed
        entries v of x.  G is symmetric, and only the w rows and columns
        ``pairs`` (sorted packed indices) that a stored quadruple touches are
        nonzero.  K0 is the (2w, w) block G[pairs, pairs] over its negation;
        ``read`` holds the flat indices of the entries (p_a, p_b) of a
        (2M, 2M) matrix, and ``write`` those entries and then their mirrors
        (p_b, p_a).  So K0 X.take(read), put at ``write`` into a zero matrix,
        is G v unpacked antisymmetrically (each half to rounding).  The block
        is unscaled: every formula applies its own coefficients (see
        :func:`_compile_rate`).  Read-only; empty for a zero coupling.
        """
        quads, values = self._canonical_arrays()
        idx = _pair_index_matrix(self.M)
        a, b, c, d = quads.T
        left = [idx[a, b], idx[a, c], idx[a, d]]
        right = [idx[c, d], idx[b, d], idx[b, c]]
        rows, cols = np.concatenate(left + right), np.concatenate(right + left)
        pairs = np.flatnonzero(np.bincount(rows, minlength=pair_count(self.M)))
        w = len(pairs)
        K0 = np.zeros((2 * w, w))
        K0[np.searchsorted(pairs, rows), np.searchsorted(pairs, cols)] = np.concatenate(
            [values, -values, values] * 2)
        K0[w:] = -K0[:w]
        upper, lower = _pair_flat(self.M)
        read = upper[pairs]
        out = pairs, read, np.concatenate([read, lower[pairs]]), K0
        for arr in out:
            arr.flags.writeable = False
        return out

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


def _compile_rate(g: QuarticCoupling, t: CouplingMatrix, a: float, b: float):
    """The stage kernel: the rate X -> [X, C(X)] on full antisymmetric matrices.

    C is the full matrix of c = a G v + b t, where v holds the packed upper
    entries of X.  Every drift-type vector of :mod:`majoranaq.kernel` and
    every stage of :func:`majoranaq.dynamics.flow` runs this one function;
    they differ only in a and b.  Compiling costs one scale of the
    coupling's block K0 (:attr:`QuarticCoupling.pair_block`) into K = a K0
    and one of the full t into C = b t (both parts are cached on the
    couplings), and one ``take`` of the b t entries the block writes.  A
    stage gathers the w entries of X it reads, and rewrites only the
    entries of C the block writes, with one product by K plus those entries
    of b t; both index the flat view of the matrix, which costs about half
    of ``take`` and ``put`` on arrays this small.  The commutator is one
    matmul, P = X C, with [X, C] = P - P^T (C X = (X C)^T for antisymmetric
    X and C); P^T is copied to a contiguous array first, which gives the
    same bits at a lower cost than subtracting the strided view.

    The lower rows of K are the exact negations of its upper rows, but
    their products may round apart, so C is antisymmetric to rounding
    only; the rate P - P^T is antisymmetric bit for bit: below the diagonal
    it is the exact negation of the entries above it and, where P is
    finite, its diagonal is 0.  Both products call the arrays' ``dot``
    method, which skips the array-function dispatch of ``np.dot`` and costs
    less than ``@`` on arrays this small.
    """
    _, read, write, K0 = g.pair_block
    K = a * K0
    C = b * t._full
    base = C.take(write)
    flat = C.reshape(-1)  # a view: writing its entries writes C

    def rate(X: np.ndarray) -> np.ndarray:
        flat[write] = K.dot(X.ravel()[read]) + base
        P = X.dot(C)
        return P - P.T.copy()

    return rate


def _drift_rate(g: QuarticCoupling, t: CouplingMatrix):
    """The stage kernel of the full drift, c = 4((4M - 3)(g.x) - t) = 8(4M - 3) G v - 4 t."""
    return _compile_rate(g, t, 8.0 * (4 * g.M - 3), -4.0)


class HamiltonianSpec(_Frozen):
    """Model definition: H = i sum t_{ij} g_i g_j + (1/2) sum g_{ijkl} g_i g_j g_k g_l."""

    M: int
    t: CouplingMatrix
    g: QuarticCoupling

    def __init__(self, M: int, t: CouplingMatrix, g: QuarticCoupling):
        if t.M != M or g.M != M:
            raise DimensionError(f"coupling mode counts (t: {t.M}, g: {g.M}) != M={M}")
        self.__dict__.update(M=M, t=t, g=g)

    @classmethod
    def free(cls, t: CouplingMatrix) -> "HamiltonianSpec":
        return cls(t.M, t, QuarticCoupling.zero(t.M))


def _margin(xm: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of I + x^2 for the full antisymmetric matrix ``xm``.

    A stack (..., 2M, 2M) gives one margin per matrix from one eigensolve
    call; each equals the margin of that matrix alone, bit for bit.
    """
    return np.linalg.eigvalsh(np.eye(xm.shape[-1]) + xm @ xm).min(axis=-1)


def domain_margin(x: PhasePoint) -> float:
    """Minimum eigenvalue of I + x^2: > 0 interior, 0 boundary, < 0 unphysical."""
    return float(_margin(x.matrix()))


def standard_complex_structure(M: int) -> np.ndarray:
    """Block-diagonal J with M blocks [[0, 1], [-1, 0]]; satisfies J^2 = -I."""
    J = np.zeros((2 * M, 2 * M))
    for k in range(M):
        J[2 * k, 2 * k + 1] = 1.0
        J[2 * k + 1, 2 * k] = -1.0
    return J


# smallest domain margin of a random interior point
_MARGIN_FLOOR = 0.05


def random_points(M: int, seeds, boundary, scale: float = 0.4) -> PhasePoint:
    """Seeded points, one per seed, drawn as one stack of ``len(seeds)``.

    ``boundary`` (one flag, or one per seed) picks the kind of each point.
    A boundary point lies on the pure-state boundary x^2 = -I: a
    standard-normal matrix is orthonormalized (QR with the usual sign fix
    for determinism) and conjugates the standard complex structure.  An
    interior point has its packed entries drawn normal, times
    ``scale / sqrt(M)``, and shrunk by 0.8 until its domain margin is at
    least :data:`_MARGIN_FLOOR`.  Each point has its own ``default_rng(seed)``;
    the QR factorizations, products and margin eigensolves are stacked,
    and each point equals the one drawn alone bit for bit.
    """
    seeds = list(seeds)
    on = np.broadcast_to(np.asarray(boundary, dtype=bool), (len(seeds),))
    n = 2 * M
    draws = [np.random.default_rng(s).normal(size=(n, n) if b else pair_count(M))
             for s, b in zip(seeds, on.tolist())]
    packed = np.empty((len(seeds), pair_count(M)))
    at = np.flatnonzero(on)
    if at.size:
        R, upper = np.linalg.qr(np.array([draws[k] for k in at]))
        R = R * np.sign(np.diagonal(upper, axis1=-2, axis2=-1))[:, None, :]
        x = R @ standard_complex_structure(M) @ R.swapaxes(-1, -2)
        packed[at] = _pack(M, (x - x.swapaxes(-1, -2)) / 2.0)
    at = np.flatnonzero(~on)
    if at.size:
        inner = np.array([draws[k] for k in at]) * scale / np.sqrt(M)
        low = np.arange(len(at))
        while low.size:
            low = low[_margin(_unpack(M, inner[low])) < _MARGIN_FLOOR]
            inner[low] *= 0.8
        packed[at] = inner
    return PhasePoint(M, packed)


def random_boundary_point(M: int, seed: int) -> PhasePoint:
    """Seeded point on the pure-state boundary x^2 = -I; see :func:`random_points`."""
    return PhasePoint(M, random_points(M, [seed], True).packed[0])


def random_interior_point(M: int, seed: int, scale: float = 0.4) -> PhasePoint:
    """Seeded interior point with domain margin at least :data:`_MARGIN_FLOOR`.

    See :func:`random_points`.
    """
    return PhasePoint(M, random_points(M, [seed], False, scale).packed[0])
