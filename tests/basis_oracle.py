"""Independent routes to the Gaussian basis Lambda(x), used only by the tests.

:func:`definition_basis` builds Lambda(x) exactly as it is defined: the quadratic form
C(x) = -(i/2) [J + (J + J x J)^{-1}] with J the block mode-pairing matrix
squaring to -I, the exponent gamma^T C gamma expanded in ladder-operator
monomials, and the normal-ordered exponential summed term by term and
rescaled to unit trace.  Normal ordering moves creations left with the
permutation sign and no contraction terms, so a monomial with a repeated
label vanishes and the series terminates at order M.

The definition cannot be evaluated where J + J x J is singular, which
happens on a measure-zero part of the pure-state boundary.

:func:`product_basis` is the fermionic Gaussian-state product form over the
2x2 blocks of x (Bravyi, quant-ph/0404180): the Hermitian matrix i x has
eigenvalues +-lambda_k; an eigenvector a_k + i b_k of +lambda_k >= 0 gives
x a_k = lambda_k b_k and x b_k = -lambda_k a_k, so the real orthonormal pairs
(sqrt2 b_k, sqrt2 a_k) bring x to blocks of weight lambda_k, and in the
rotated Majoranas gamma'_m = sum_a O_{am} gamma_a

    Lambda(x) = 2^-M prod_k (I + i lambda_k gamma'_{2k-1} gamma'_{2k}).

It is smooth on the whole closed domain, boundary included.

The production route, :func:`majoranaq.fock.gaussian_basis`, sums the Wick
expansion over subset Pfaffians instead; the three routes share nothing but
the Jordan-Wigner operators, so their agreement is an independent check.

:func:`dense_subset_gammas` multiplies out the products gamma_S of the Wick
expansion as dense matrices, level by level.  The production oracle holds
each gamma_S only in monomial form, gamma_S[k ^ f_S, k] = phase_S[k], and
applies two-Majorana words by Clifford signs; the tests assert both against
this dense stack.

:func:`gaussian_covariance_comparison` evolves a pure Gaussian state exactly
under a quadratic Hamiltonian and compares its covariance with the transport
of the drift flow at the generator rate 4, with nothing fitted.
:func:`check_density_matrix` validates the density-matrix contract of the
oracle's random states.
"""

from __future__ import annotations

import math

import numpy as np

from majoranaq.errors import DimensionError
from majoranaq.fock import (
    _covariance,
    _wick_table,
    build_hamiltonian,
    build_majoranas,
    gaussian_basis,
    jordan_wigner_ladders,
)
from majoranaq.tensors import CouplingMatrix, HamiltonianSpec, PhasePoint

_MONOMIAL_CACHE: dict = {}

# evenly spaced times at which gaussian_covariance_comparison compares
_COMPARISON_SAMPLES = 8

# bars of check_density_matrix: Hermiticity, unit trace, smallest eigenvalue
_HERM_TOL, _TRACE_TOL, _PSD_TOL = 1e-12, 1e-12, 1e-10


class SingularDefinitionError(ArithmeticError):
    """J + J x J is too close to singular for the definition to be evaluated."""


# A symbol is (kind, mode): kind 0 = creation, 1 = annihilation.  A canonical
# monomial is a tuple of symbols sorted by (kind, mode): strictly increasing
# creation labels first, then strictly increasing annihilation labels.


def _normal_order_word(word: tuple) -> tuple | None:
    """Canonicalize a product of ladder symbols; None if a label repeats."""
    if len(set(word)) != len(word):
        return None
    order = sorted(range(len(word)), key=lambda i: word[i])
    sign = 1
    seen = [False] * len(word)
    for start in range(len(word)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return tuple(sorted(word)), sign


class NormalOrderedPolynomial:
    """Sparse polynomial in normal-ordered ladder monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def one(cls) -> "NormalOrderedPolynomial":
        return cls({(): 1.0 + 0j})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def add_term(self, word: tuple, coeff: complex) -> None:
        if coeff == 0:
            return
        new = self.terms.get(word, 0j) + coeff
        if new == 0:
            self.terms.pop(word, None)
        else:
            self.terms[word] = new

    def multiply(self, other: "NormalOrderedPolynomial") -> "NormalOrderedPolynomial":
        out = NormalOrderedPolynomial()
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                res = _normal_order_word(w1 + w2)
                if res is None:
                    continue
                word, sign = res
                out.add_term(word, sign * c1 * c2)
        return out

    def scaled(self, factor: complex) -> "NormalOrderedPolynomial":
        return NormalOrderedPolynomial({w: factor * c for w, c in self.terms.items()})

    def iadd(self, other: "NormalOrderedPolynomial") -> None:
        for w, c in other.terms.items():
            self.add_term(w, c)

    def to_matrix(self, M: int) -> np.ndarray:
        dim = 2 ** M
        out = np.zeros((dim, dim), dtype=complex)
        for word, coeff in self.terms.items():
            out += coeff * _monomial_matrix(M, word)
        return out


def _monomial_matrix(M: int, word: tuple) -> np.ndarray:
    key = (M, word)
    if key not in _MONOMIAL_CACHE:
        a = jordan_wigner_ladders(M)
        mat = np.eye(2 ** M, dtype=complex)
        for kind, mode in word:
            mat = mat @ (a[mode].conj().T if kind == 0 else a[mode])
        _MONOMIAL_CACHE[key] = mat
    return _MONOMIAL_CACHE[key]


def _gamma_symbols(M: int, a: int) -> list[tuple[tuple, complex]]:
    if a < M:
        return [((0, a), 1.0 + 0j), ((1, a), 1.0 + 0j)]
    return [((0, a - M), 1j), ((1, a - M), -1j)]


def _quadratic_polynomial(M: int, C: np.ndarray) -> NormalOrderedPolynomial:
    """gamma^T C gamma as a normal-ordered ladder polynomial."""
    K = NormalOrderedPolynomial()
    n = 2 * M
    for a in range(n):
        for b in range(n):
            cab = C[a, b]
            if a == b or cab == 0:
                continue
            for s1, c1 in _gamma_symbols(M, a):
                for s2, c2 in _gamma_symbols(M, b):
                    res = _normal_order_word((s1, s2))
                    if res is None:
                        continue
                    word, sign = res
                    K.add_term(word, sign * cab * c1 * c2)
    return K


def definition_basis(x: PhasePoint) -> np.ndarray:
    """Unit-trace Lambda(x) from the normal-ordered exponential of gamma^T C gamma.

    Raises :class:`SingularDefinitionError` where J + J x J has an
    eigenvalue below 1e-10 in modulus.
    """
    M = x.M
    J = np.zeros((2 * M, 2 * M))
    J[:M, M:] = np.eye(M)
    J[M:, :M] = -np.eye(M)
    A = J + J @ x.matrix() @ J
    eigs = np.linalg.eigvals(A)
    smallest = eigs[np.argmin(np.abs(eigs))]
    if abs(smallest) < 1e-10:
        raise SingularDefinitionError(
            f"J + J x J has eigenvalue {smallest:.3e}, too close to zero to invert"
        )
    C = -0.5j * (J + np.linalg.inv(A))
    K = _quadratic_polynomial(M, C)
    series = NormalOrderedPolynomial.one()
    power = NormalOrderedPolynomial.one()
    for order in range(1, M + 1):
        power = power.multiply(K)
        if not power:
            break
        series.iadd(power.scaled(1.0 / math.factorial(order)))
    mat = series.to_matrix(M)
    trace = np.trace(mat)
    if abs(trace) < 1e-12 * 2 ** M:
        raise ArithmeticError(f"normal-ordered exponential has near-zero trace {trace:.3e}")
    return mat / trace


def dense_subset_gammas(M: int) -> np.ndarray:
    """Dense gamma_S over the even subsets, in the Wick table's order.

    Each level splits gamma_S = (gamma_{s_1} gamma_{s_2}) gamma_{S minus {s_1, s_2}}
    and multiplies the matrices.
    """
    gam = build_majoranas(M)
    rows, cols = np.triu_indices(2 * M, k=1)
    pair_ops = gam[rows] @ gam[cols]
    table = _wick_table(M)
    out = np.empty((len(table.phase), 2 ** M, 2 ** M), dtype=complex)
    out[0] = np.eye(2 ** M)
    for level_rows, pairs, rests, _ in table.levels:
        out[level_rows] = pair_ops[pairs[:, 0]] @ out[rests[:, 0]]
    return out


def product_basis(x: PhasePoint) -> np.ndarray:
    """Unit-trace Lambda(x) as the product over the 2x2 blocks of x."""
    M = x.M
    gam = build_majoranas(M)
    weights, vecs = np.linalg.eigh(1j * x.matrix())
    top = np.sqrt(2.0) * vecs[:, M:]
    O = np.concatenate([top.imag, top.real], axis=1)
    rotated = (O.T @ gam.reshape(2 * M, -1)).reshape(gam.shape)
    dim = 2 ** M
    lam = np.eye(dim, dtype=complex) / dim
    for k in range(M):
        lam = lam + 1j * weights[M + k] * (lam @ rotated[k] @ rotated[M + k])
    return lam


def central_difference(rho, x, h):
    """Central-difference gradient and Hessian of Tr[rho Lambda] by the product form."""
    v0 = np.asarray(x.packed)
    n = len(v0)
    rho = np.asarray(rho)

    def q(*steps):
        v = v0.copy()
        for p, s in steps:
            v[p] += s * h
        return np.trace(rho @ product_basis(PhasePoint(x.M, v))).real

    grad = np.array([(q((p, 1)) - q((p, -1))) / (2 * h) for p in range(n)])
    hess = np.array([
        [(q((p, 1), (r, 1)) - q((p, 1), (r, -1)) - q((p, -1), (r, 1)) + q((p, -1), (r, -1)))
         / (4 * h * h) for r in range(n)]
        for p in range(n)
    ])
    return grad, hess


def gaussian_covariance_comparison(x0: PhasePoint, t: CouplingMatrix, horizon: float) -> float:
    """Quadratic-sector cross-validation against exact quantum evolution.

    Evolves the pure Gaussian state Lambda(x0) exactly under the quadratic
    Hamiltonian and compares its covariance Tr[rho(tau) Xhat] with the
    transported matrix e^{c tau T} Gamma_0 e^{-c tau T} at the generator rate
    c = 4 of dx/dt = 4[t, x].  Returns the max deviation over the
    :data:`_COMPARISON_SAMPLES` times evenly spaced in (0, horizon].
    """
    if t.M != x0.M:
        raise DimensionError(f"coupling M={t.M} != initial point M={x0.M}")
    H = build_hamiltonian(HamiltonianSpec.free(t))
    lam0 = gaussian_basis(x0)
    rho0 = lam0 / np.trace(lam0).real
    gamma0 = _covariance(lam0)
    taus = np.linspace(0.0, horizon, _COMPARISON_SAMPLES + 1)[1:]
    # one eigendecomposition per exponential, outside the time loop: with
    # H = V diag(lam) V^H, e^{-i tau H} = V e^{-i tau lam} V^H; the real
    # antisymmetric T makes iT = W diag(mu) W^H Hermitian, so
    # e^{4 tau T} = W e^{-4 i tau mu} W^H, which is real
    lam, V = np.linalg.eigh(H)
    mu, W = np.linalg.eigh(1j * t.matrix())

    def mismatch(tau: float) -> float:
        U = (V * np.exp(-1j * tau * lam)) @ V.conj().T
        prop = ((W * np.exp(-4j * tau * mu)) @ W.conj().T).real
        exact = _covariance(U @ rho0 @ U.conj().T)
        return float(np.max(np.abs(prop @ gamma0 @ prop.T - exact)))

    return max(mismatch(tau) for tau in taus)


def check_density_matrix(rho: np.ndarray) -> None:
    """Validate the density-matrix contract: Hermitian, unit trace, PSD."""
    rho = np.asarray(rho)
    if np.max(np.abs(rho - rho.conj().T)) > _HERM_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > _TRACE_TOL:
        raise ValueError(f"density matrix trace {np.trace(rho).real} != 1")
    if np.min(np.linalg.eigvalsh(rho)) < -_PSD_TOL:
        raise ValueError("density matrix has a significantly negative eigenvalue")
