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
"""

from __future__ import annotations

import math

import numpy as np

from majoranaq.fock import build_majoranas, jordan_wigner_ladders
from majoranaq.tensors import PhasePoint

_MONOMIAL_CACHE: dict = {}


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


def product_basis(x: PhasePoint) -> np.ndarray:
    """Unit-trace Lambda(x) as the product over the 2x2 blocks of x."""
    M = x.M
    gam = np.asarray(build_majoranas(M).gammas)
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
