"""Exact finite-dimensional oracle on the 2^M Fock space.

Everything the phase-space kernel claims is checked here against dense matrix
quantum mechanics: Jordan-Wigner Majorana operators, the Gaussian basis
Lambda(x) and its exact derivatives, exact Q-function values and Liouville
time derivatives, and verification of the operator differential identities.

Conventions: modes k = 1..M carry ladder operators a_k with Jordan-Wigner
sign strings on the preceding modes; gamma_k = a_k + a_k^dag and
gamma_{M+k} = i (a_k^dag - a_k).  In the basis ordering used here
(|n_1 n_2 ...>, first mode slowest), gamma_1 at M=1 is the Pauli X matrix
and gamma_2 is Pauli Y.  All verification quantities are traces or residuals
and do not depend on these sign/phase choices.

The Gaussian basis is a polynomial of degree <= M in x, by Wick's theorem for
fermionic Gaussian states (Bravyi, quant-ph/0404180; Corney & Drummond,
PRB 73, 125112):

    Lambda(x) = 2^-M sum_{S even} i^{|S|/2} Pf(x_S) gamma_S,

where S runs over the even subsets of {1..2M}, x_S is x restricted to S and
gamma_S is the ascending product of the Majoranas in S.  One table of subset
Pfaffians per point gives Lambda, and the minor rule

    dPf(x_S)/dx_ab = (-1)^{i_a + i_b + 1} Pf(x_{S minus {a, b}}),

with i_a the position of a in S, applied once or twice, gives its exact first
and second derivatives.  The expansion holds on the whole closed domain, the
pure-state boundary included.  The normal-ordered exponential that defines
Lambda and the product form over the 2x2 blocks of x are kept only in the
test suite (``tests/basis_oracle.py``), where both are asserted equal to it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import DimensionError
from .kernel import drift_alternative, fpe_rhs, diffusion, div_diffusion
from .tensors import HamiltonianSpec, PhasePoint, _pair_lookup, _pair_rows_cols, _pairs0, pair_count

__all__ = [
    "MajoranaSet",
    "build_majoranas",
    "jordan_wigner_ladders",
    "build_hamiltonian",
    "gaussian_basis",
    "qfunction",
    "q_derivatives",
    "covariance_of_basis",
    "exact_dqdt",
    "verify_quadratic_identities",
    "verify_four_gamma",
    "verify_fpe",
    "FpeCheck",
    "verify_moment_identity_m1",
    "random_density_matrix",
    "check_density_matrix",
]

# Largest mode count the oracle suites run at: the CLI caps its identities and
# fpe suites here, and build_majoranas warns above it.  The gamma_S stack then
# holds 512 operators of dimension 32 (8 MB).
ORACLE_MAX_M = 5

_LADDER_CACHE: dict = {}
_MAJORANA_CACHE: dict = {}
_WICK_CACHE: dict = {}


def jordan_wigner_ladders(M: int) -> tuple[np.ndarray, ...]:
    """Annihilation operators a_1..a_M as dense 2^M matrices."""
    if M not in _LADDER_CACHE:
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        zpauli = np.diag([1.0, -1.0]).astype(complex)
        eye2 = np.eye(2, dtype=complex)
        ops = []
        for k in range(M):
            factors = [zpauli] * k + [lower] + [eye2] * (M - k - 1)
            mat = factors[0]
            for f in factors[1:]:
                mat = np.kron(mat, f)
            ops.append(mat)
        _LADDER_CACHE[M] = tuple(ops)
    return _LADDER_CACHE[M]


@dataclass(frozen=True)
class MajoranaSet:
    """The 2M Hermitian Majorana operators for an M-mode register."""

    M: int
    gammas: tuple

    def __getitem__(self, i: int) -> np.ndarray:
        return self.gammas[i]

    @property
    def dim(self) -> int:
        return 2 ** self.M

    @cached_property
    def products(self) -> np.ndarray:
        """Read-only stack of the products gamma_S over the even subsets S.

        Built once per set, in the subset order of the Wick table.
        """
        return _subset_products(_wick_table(self.M), np.asarray(self.gammas))


def _jordan_wigner_majoranas(M: int) -> MajoranaSet:
    """The Jordan-Wigner Majorana set, cached per M with read-only operators."""
    if M not in _MAJORANA_CACHE:
        a = jordan_wigner_ladders(M)
        gammas = [a[k] + a[k].conj().T for k in range(M)]
        gammas += [1j * (a[k].conj().T - a[k]) for k in range(M)]
        stack = np.stack(gammas)
        stack.flags.writeable = False
        _MAJORANA_CACHE[M] = MajoranaSet(M, tuple(stack))
    return _MAJORANA_CACHE[M]


def _majoranas_for(M: int, majoranas: MajoranaSet | None) -> MajoranaSet:
    if majoranas is None:
        return _jordan_wigner_majoranas(M)
    if majoranas.M != M:
        raise DimensionError(f"majoranas M={majoranas.M} != phase point M={M}")
    return majoranas


def build_majoranas(M: int) -> MajoranaSet:
    """gamma_k = a_k + a_k^dag, gamma_{M+k} = i (a_k^dag - a_k)."""
    if M > ORACLE_MAX_M:
        warnings.warn(
            f"dense oracle at M={M} needs {2**M}-dimensional matrices; expect slow sweeps",
            stacklevel=2,
        )
    return _jordan_wigner_majoranas(M)


def build_hamiltonian(spec: HamiltonianSpec, majoranas: MajoranaSet) -> np.ndarray:
    """H = i sum_{ij} t_{ij} g_i g_j + (1/2) sum_{ijkl} g_{ijkl} g_i g_j g_k g_l.

    Full-range sums collapse onto canonical entries: 2i t_{ij} g_i g_j for
    i < j and 12 g_{ijkl} g_i g_j g_k g_l for i < j < k < l.
    """
    if spec.M != majoranas.M:
        raise DimensionError(f"spec M={spec.M} != majoranas M={majoranas.M}")
    dim = majoranas.dim
    H = np.zeros((dim, dim), dtype=complex)
    gam = majoranas.gammas
    for p, (i, j) in enumerate(_pairs0(spec.M)):
        tv = spec.t.packed[p]
        if tv != 0.0:
            H += 2j * tv * gam[i] @ gam[j]
    for (i, j, k, l), v in spec.g.items():
        H += 12.0 * v * gam[i - 1] @ gam[j - 1] @ gam[k - 1] @ gam[l - 1]
    return H


# ---------------------------------------------------------------------------
# the Wick expansion of Lambda over subset Pfaffians
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _WickTable:
    """Index tables of the Wick expansion over the even subsets of {0..2M-1}.

    Subsets are ordered by size, then lexicographically: subset 0 is empty
    and every minor of a subset precedes it.

    * ``phase[S]`` = 2^-M i^{|S|/2}.
    * ``levels`` holds, per size 2k, arrays ``(rows, pairs, rests, signs)`` of
      the first-row expansion Pf(x_S) = sum_v signs_v x_{pairs_v} Pf(x_{rests_v}),
      with pairs of shape (rows, 2k-1).  Column 0 is also the split
      gamma_S = (gamma_{s_1} gamma_{s_2}) gamma_{S minus {s_1, s_2}}.
    * ``minors`` = ``(pair, subset, rest, coeff)``: one entry per pair p = (a, b)
      inside S, with rest = S minus p and coeff = phase[S] (-1)^{i_a+i_b+1}.
    * ``second_minors`` = ``(p, q, subset, rest, coeff)``: one entry per ordered
      pair of disjoint pairs p, q inside S, the minor rule applied twice.
    """

    phase: np.ndarray
    levels: tuple
    minors: tuple
    second_minors: tuple


def _wick_table(M: int) -> _WickTable:
    if M not in _WICK_CACHE:
        n = 2 * M
        lookup = _pair_lookup(M)
        subsets = [s for size in range(0, n + 1, 2) for s in combinations(range(n), size)]
        index = {s: k for k, s in enumerate(subsets)}
        # per subset, (pair, rest, sign) for its pairs in lexicographic position order,
        # so the first |S| - 1 entries are the first-row expansion
        minors = [
            [(lookup[s[u], s[v]], index[s[:u] + s[u + 1:v] + s[v + 1:]], (-1) ** (u + v + 1))
             for u, v in combinations(range(len(s)), 2)]
            for s in subsets
        ]
        phase = np.array([2.0 ** -M * 1j ** (len(s) // 2) for s in subsets])
        levels = []
        for size in range(2, n + 1, 2):
            rows = np.array([k for k, s in enumerate(subsets) if len(s) == size])
            first = np.array([minors[k][: size - 1] for k in rows])
            levels.append((rows, first[..., 0], first[..., 1], first[0, :, 2].astype(float)))
        flat = np.array([(p, k, r, sg) for k, terms in enumerate(minors) for p, r, sg in terms])
        second = np.array(
            [(p, q, k, r2, s1 * s2) for k, terms in enumerate(minors)
             for p, r, s1 in terms for q, r2, s2 in minors[r]],
            dtype=np.intp,
        ).reshape(-1, 5)
        _WICK_CACHE[M] = _WickTable(
            phase=phase,
            levels=tuple(levels),
            minors=(flat[:, 0], flat[:, 1], flat[:, 2], phase[flat[:, 1]] * flat[:, 3]),
            second_minors=(*second[:, :4].T, phase[second[:, 2]] * second[:, 4]),
        )
    return _WICK_CACHE[M]


def _subset_products(table: _WickTable, gam: np.ndarray) -> np.ndarray:
    """Read-only stack gamma_S, built level by level from pair products."""
    rows, cols = _pair_rows_cols(len(gam) // 2)
    pair_ops = gam[rows] @ gam[cols]
    dim = gam.shape[-1]
    out = np.empty((len(table.phase), dim, dim), dtype=complex)
    out[0] = np.eye(dim)
    for level_rows, pairs, rests, _ in table.levels:
        out[level_rows] = pair_ops[pairs[:, 0]] @ out[rests[:, 0]]
    out.flags.writeable = False
    return out


def _pfaffians(table: _WickTable, packed: np.ndarray) -> np.ndarray:
    """Pf(x_S) for every even subset S, smallest first; Pf of the empty set is 1."""
    pf = np.ones(len(table.phase))
    for rows, pairs, rests, signs in table.levels:
        pf[rows] = (packed[pairs] * pf[rests]) @ signs
    return pf


def _minor_matrix(table: _WickTable, pf: np.ndarray, npairs: int) -> np.ndarray:
    """(npairs, subsets) coefficients of dLambda/dx_p over the gamma_S."""
    pair, subset, rest, coeff = table.minors
    out = np.zeros((npairs, len(table.phase)), dtype=complex)
    out[pair, subset] = coeff * pf[rest]
    return out


def _second_minor_coefficients(
    table: _WickTable, pf: np.ndarray, u: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Coefficients over the gamma_S of sum_pq u_p w_q d^2 Lambda / dx_p dx_q."""
    p, q, subset, rest, coeff = table.second_minors
    vals = u[p] * w[q] * coeff * pf[rest]
    size = len(table.phase)
    return (np.bincount(subset, vals.real, minlength=size)
            + 1j * np.bincount(subset, vals.imag, minlength=size))


def gaussian_basis(x: PhasePoint, majoranas: MajoranaSet | None = None) -> np.ndarray:
    """Unit-trace Gaussian basis operator Lambda(x) = 2^-M sum_S i^{|S|/2} Pf(x_S) gamma_S.

    Only the empty subset contributes to the trace, so the trace is 1 by
    construction.  ``majoranas`` defaults to the cached Jordan-Wigner set.
    """
    majo = _majoranas_for(x.M, majoranas)
    table = _wick_table(x.M)
    coeff = table.phase * _pfaffians(table, np.asarray(x.packed))
    return np.tensordot(coeff, majo.products, axes=1)


def qfunction(rho: np.ndarray, x: PhasePoint, majoranas: MajoranaSet | None = None) -> float:
    """Q(x) = Tr[rho Lambda(x)] (overall normalization constant omitted)."""
    lam = gaussian_basis(x, majoranas)
    return float(np.trace(np.asarray(rho) @ lam).real)


def covariance_of_basis(x: PhasePoint, majoranas: MajoranaSet) -> np.ndarray:
    """Tr[Lambda(x) Xhat_{mu nu}] with Xhat = (i/2)[gamma_mu, gamma_nu].

    Entries are computed independently so antisymmetry is a genuine check.
    """
    lam = gaussian_basis(x, majoranas)
    n = 2 * x.M
    out = np.zeros((n, n))
    gam = majoranas.gammas
    for mu in range(n):
        for nu in range(n):
            xhat = 0.5j * (gam[mu] @ gam[nu] - gam[nu] @ gam[mu])
            out[mu, nu] = np.trace(lam @ xhat).real
    return out


def exact_dqdt(
    rho: np.ndarray,
    spec: HamiltonianSpec,
    x: PhasePoint,
    majoranas: MajoranaSet,
) -> float:
    """Exact Liouville rate dQ/dt = (1/i) Tr[[H, rho] Lambda(x)]."""
    H = build_hamiltonian(spec, majoranas)
    lam = gaussian_basis(x, majoranas)
    val = np.trace((H @ rho - rho @ H) @ lam) / 1j
    return float(val.real)


def q_derivatives(
    rho: np.ndarray, x: PhasePoint, majoranas: MajoranaSet | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient and Hessian of Q(x) = Tr[rho Lambda(x)] over the packed components.

    A packed component moves x_ab and x_ba = -x_ab together.  With the moments
    m_S = Tr[rho gamma_S], Q = sum_S 2^-M i^{|S|/2} Pf(x_S) m_S, and each
    derivative replaces a Pfaffian by its signed minors, so no operator is
    built at x.
    """
    majo = _majoranas_for(x.M, majoranas)
    table = _wick_table(x.M)
    npairs = pair_count(x.M)
    moments = np.einsum("sij,ji->s", majo.products, np.asarray(rho))
    pf = _pfaffians(table, np.asarray(x.packed))
    grad = (_minor_matrix(table, pf, npairs) @ moments).real
    p, q, subset, rest, coeff = table.second_minors
    hess = np.bincount(p * npairs + q, (coeff * pf[rest] * moments[subset]).real,
                       minlength=npairs * npairs)
    return grad, hess.reshape(npairs, npairs)


def _basis_and_gradient(x: PhasePoint, majoranas: MajoranaSet) -> tuple[np.ndarray, np.ndarray]:
    """Lambda(x) and T[a, b] = dLambda/dx_ab over the full index range."""
    M = x.M
    n, dim, npairs = 2 * M, 2 ** M, pair_count(M)
    table = _wick_table(M)
    pf = _pfaffians(table, np.asarray(x.packed))
    ops = majoranas.products.reshape(len(pf), -1)
    lam = ((table.phase * pf) @ ops).reshape(dim, dim)
    grad = (_minor_matrix(table, pf, npairs) @ ops).reshape(npairs, dim, dim)
    rows, cols = _pair_rows_cols(M)
    T = np.zeros((n, n, dim, dim), dtype=complex)
    T[rows, cols] = grad
    T[cols, rows] = -grad
    return lam, T


def verify_quadratic_identities(x: PhasePoint, majoranas: MajoranaSet) -> dict[str, float]:
    """Residuals of the four quadratic differential identities of Lambda.

    Each identity relates an operator product of two Majoranas with Lambda to
    the matrix-valued derivative of Lambda, taken exactly from the Pfaffian
    minors.  Returns the max elementwise residual per identity.
    """
    M = x.M
    n = 2 * M
    majo = _majoranas_for(M, majoranas)
    gam = np.asarray(majo.gammas)
    lam, T = _basis_and_gradient(x, majo)
    Dm = np.transpose(T, (1, 0, 2, 3))    # matrix derivative (d/dx)_{ab} = d_{ba}
    xm = x.matrix()
    xp = xm + 1j * np.eye(n)
    xmc = xm - 1j * np.eye(n)
    G2 = gam[:, None] @ gam[None, :]      # G2[i, j] = g_i g_j

    def sandwich(left, right):
        return np.einsum("ia,abuv,bj->ijuv", left, Dm, right, optimize=True)

    def with_lam(coef):
        return coef[:, :, None, None] * lam

    lhs = G2 @ lam
    rhs = 1j * (sandwich(xmc, xp) - with_lam(xp))
    res_left = float(np.max(np.abs(lhs - rhs)))

    lhs = lam @ G2
    rhs = 1j * (sandwich(xp, xmc) - with_lam(xp))
    res_right = float(np.max(np.abs(lhs - rhs)))

    lhs = (gam @ lam)[:, None] @ gam[None, :]
    rhs = 1j * (with_lam(xmc) - sandwich(xmc, xmc))
    res_mixed = float(np.max(np.abs(lhs - rhs)))

    comm = G2 - np.transpose(G2, (1, 0, 2, 3))
    lhs = comm @ lam - lam @ comm
    rhs = 4.0 * (
        np.einsum("kj,kiuv->ijuv", xm, T) - np.einsum("ik,jkuv->ijuv", xm, T)
    )
    res_comm = float(np.max(np.abs(lhs - rhs)))

    return {
        "left": res_left,
        "right": res_right,
        "mixed": res_mixed,
        "commutator": res_comm,
    }


def verify_four_gamma(
    x: PhasePoint,
    majoranas: MajoranaSet,
    tuples: list[tuple[int, int, int, int]] | None = None,
) -> dict[tuple, tuple[float, float]]:
    """Residuals of the four-operator identities, per sampled index tuple.

    For each tuple (i, j, k, l) the products g_i g_j g_k g_l Lambda and
    Lambda g_i g_j g_k g_l are compared against their expansions in the
    first and second derivatives of Lambda.  Indices are 1-based.  The
    expansions are contracted over the Pfaffian minors first, so each side
    costs one product with the gamma_S stack.
    """
    M = x.M
    n = 2 * M
    if tuples is None:
        tuples = [(1, 2, 3, 4)] if n >= 4 else []
    majo = _majoranas_for(M, majoranas)
    gam = majo.gammas
    table = _wick_table(M)
    pf = _pfaffians(table, np.asarray(x.packed))
    ops = majo.products.reshape(len(pf), -1)
    dim = 2 ** M
    lam_coef = table.phase * pf
    lam = (lam_coef @ ops).reshape(dim, dim)
    minors = _minor_matrix(table, pf, pair_count(M))
    rows, cols = _pair_rows_cols(M)
    xm = x.matrix()
    xp = xm + 1j * np.eye(n)
    xmc = xm - 1j * np.eye(n)

    def packed(W):
        # sum_ab W_ab dLambda/dx_ab, with dLambda/dx_ba = -dLambda/dx_ab
        return W[rows, cols] - W[cols, rows]

    def expansion(P, r, c, e, f, s2):
        """Minus the derivative expansion of a four-gamma product, over the gamma_S.

        P is the outer product contracted with the second derivative first,
        Q = r c^T the other one, and W = sum_ab P_ab dQ/dx_ab with Q's own
        pair (e, f).
        """
        Q = np.outer(r, c)
        W = np.outer(P[e] - P[:, e], c) + np.outer(r, P[:, f] - P[f])
        s1 = xp[e, f]
        coef = _second_minor_coefficients(table, pf, packed(P), packed(Q))
        coef = coef + packed(W + s1 * P + s2 * Q) @ minors
        coef = coef + (P[e, f] - P[f, e] + s1 * s2) * lam_coef
        return -coef

    report = {}
    for tup in tuples:
        i, j, k, l = (v - 1 for v in tup)
        right = expansion(np.outer(xp[i], xmc[:, j]), xp[k], xmc[:, l], k, l, xp[i, j])
        left = expansion(np.outer(xmc[k], xp[:, l]), xmc[i], xp[:, j], i, j, xp[k, l])
        rhs_left, rhs_right = (np.stack([left, right]) @ ops).reshape(2, dim, dim)
        word = gam[i] @ gam[j] @ gam[k] @ gam[l]
        res_left = float(np.max(np.abs(word @ lam - rhs_left)))
        res_right = float(np.max(np.abs(lam @ word - rhs_right)))
        report[tup] = (res_left, res_right)
    return report


@dataclass(frozen=True)
class FpeCheck:
    """One phase-space-vs-exact comparison of dQ/dt."""

    lhs: float
    rhs: float
    residual: float


def verify_fpe(
    rho: np.ndarray,
    spec: HamiltonianSpec,
    x: PhasePoint,
    majoranas: MajoranaSet | None = None,
    scale: float = 1.0,
    drift_form: str = "eq36",
) -> FpeCheck:
    """Exact Liouville dQ/dt vs the phase-space equation of motion at x.

    The left side is the dense trace of :func:`exact_dqdt`; the right side
    takes the exact gradient and Hessian of Q from :func:`q_derivatives`.
    ``drift_form='eq36'`` evaluates the defining form
    -Abar.grad + (1/2) D : hess.  ``drift_form='eq50'`` substitutes the
    alternative closed-form drift assembly into the conservative expansion
    (recorded for arbitration; it is not expected to agree).  The residual is
    |lhs - rhs| / max(|lhs|, scale); the floor keeps near-stationary
    instances meaningful when couplings are of order one.
    """
    if drift_form not in ("eq36", "eq50"):
        raise ValueError(f"unknown drift form {drift_form!r}")
    majoranas = _majoranas_for(x.M, majoranas)
    lhs = exact_dqdt(rho, spec, x, majoranas)
    grad, hess = q_derivatives(rho, x, majoranas)
    if drift_form == "eq36":
        rhs = fpe_rhs(x, spec.t, spec.g, grad, hess)
    else:
        rhs = -float(drift_alternative(x, spec.t, spec.g) @ grad)
        rhs += float(div_diffusion(x, spec.g) @ grad)
        if spec.g.table:
            rhs += 0.5 * float(np.einsum("pq,pq->", diffusion(x, spec.g), hess))
    residual = abs(lhs - rhs) / max(abs(lhs), scale)
    return FpeCheck(lhs, rhs, residual)


def verify_moment_identity_m1(rho: np.ndarray, n_nodes: int = 64) -> tuple[float, float]:
    """Check <Xhat_12> = 3 * integral of s Q(s) ds at M = 1.

    The normalization is fixed from the resolution of identity: the quadrature
    of Lambda(s) over s in [-1, 1] must be proportional to the identity, and
    the proportionality constant divides the moment integral.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DimensionError(f"M=1 density matrix must be 2x2, got {rho.shape}")
    majo = build_majoranas(1)
    xhat = 0.5j * (majo[0] @ majo[1] - majo[1] @ majo[0])
    lhs = float(np.trace(rho @ xhat).real)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    lam_int = np.zeros((2, 2), dtype=complex)
    moment = 0.0
    for s, w in zip(nodes, weights):
        lam = gaussian_basis(PhasePoint(1, np.array([s])))
        lam_int += w * lam
        moment += w * s * float(np.trace(rho @ lam).real)
    norm = float(np.trace(lam_int).real) / 2.0
    off = np.max(np.abs(lam_int - norm * np.eye(2)))
    if off > 1e-8:
        raise ArithmeticError(
            f"resolution of identity failed: quadrature of Lambda deviates from a "
            f"multiple of I by {off:.2e}"
        )
    rhs = 3.0 * moment / norm
    return lhs, rhs


def random_density_matrix(M: int, seed: int) -> np.ndarray:
    """Seeded full-rank density matrix on the 2^M Fock space."""
    rng = np.random.default_rng(seed)
    dim = 2 ** M
    W = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = W @ W.conj().T
    return rho / np.trace(rho).real


def check_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    psd_tol: float = 1e-10,
) -> None:
    """Validate the density-matrix contract: Hermitian, unit trace, PSD."""
    rho = np.asarray(rho)
    if np.max(np.abs(rho - rho.conj().T)) > herm_tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {np.trace(rho).real} != 1")
    if np.min(np.linalg.eigvalsh(rho)) < -psd_tol:
        raise ValueError("density matrix has a significantly negative eigenvalue")
