"""Exact finite-dimensional oracle on the 2^M Fock space.

Everything the phase-space kernel claims is checked here against exact
quantum mechanics: Jordan-Wigner Majorana operators, the Gaussian basis
Lambda(x) and its exact derivatives, the exact gradient and Hessian of a
Q-function and its Liouville time derivative, and verification of the
operator differential identities.  The density-matrix validator and the
covariance transport against exact evolution are test oracles in
``tests/basis_oracle.py``.

Conventions: modes k = 1..M carry ladder operators a_k with Jordan-Wigner
sign strings on the preceding modes; gamma_k = a_k + a_k^dag and
gamma_{M+k} = i (a_k^dag - a_k).  In the basis ordering used here
(|n_1 n_2 ...>, first mode slowest), gamma_1 at M=1 is the Pauli X matrix
and gamma_2 is Pauli Y.  All verification quantities are traces or residuals
and do not depend on these sign/phase choices.  This is the oracle's one
representation: :func:`build_majoranas` returns its cached read-only
(2M, 2^M, 2^M) stack, and no function takes another set.

The Gaussian basis is a polynomial of degree <= M in x, by Wick's theorem for
fermionic Gaussian states (Bravyi, quant-ph/0404180; Corney & Drummond,
PRB 73, 125112):

    Lambda(x) = 2^-M sum_{S even} i^{|S|/2} Pf(x_S) gamma_S,

where S runs over the even subsets of {1..2M}, x_S is x restricted to S and
gamma_S is the ascending product of the Majoranas in S.  It holds on the whole
closed domain, the pure-state boundary included.  Subsets are 2M-bit integers
and every table is bit arithmetic on them, built once per M.  A Jordan-Wigner
gamma_S is a signed bit flip, gamma_S[k ^ f_S, k] = phase_S[k], so Lambda is
one scatter.  The minor rule dPf(x_S)/dx_ab = (-1)^{i_a + i_b + 1}
Pf(x_{S minus {a, b}}), i_a the position of a in S, gives the exact
derivatives; two-Majorana words map gamma_S to +-gamma_{S xor {i, j}}, so the
identities compare coefficients.  The normal-ordered exponential defining
Lambda, the product form over the 2x2 blocks of x and the dense gamma_S are
test oracles in ``tests/basis_oracle.py``, asserted equal to the tables here.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import DimensionError
from .kernel import _rhs_forms, drift_alternative
from .tensors import HamiltonianSpec, PhasePoint, _pair_index_matrix, _pair_rows_cols

__all__ = [
    "build_majoranas",
    "jordan_wigner_ladders",
    "build_hamiltonian",
    "gaussian_basis",
    "q_derivatives",
    "exact_dqdt",
    "verify_quadratic_identities",
    "verify_four_gamma",
    "verify_fpe",
    "FpeCheck",
    "verify_moment_identity_m1",
    "random_density_matrix",
]

# Largest mode count the oracle suites run at: the CLI caps its identities and
# fpe suites here.  At M = 6 the gamma_S
# phase rows take 2 MB and the identities' Clifford sign tables 9 MB.
ORACLE_MAX_M = 6

# Gauss-Legendre nodes of the M = 1 moment-identity quadratures
_MOMENT_NODES = 64


@lru_cache(maxsize=None)
def jordan_wigner_ladders(M: int) -> tuple[np.ndarray, ...]:
    """Annihilation operators a_1..a_M as dense 2^M matrices."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    zpauli = np.diag([1.0, -1.0]).astype(complex)
    eye2 = np.eye(2, dtype=complex)
    return tuple(reduce(np.kron, [zpauli] * k + [lower] + [eye2] * (M - k - 1)) for k in range(M))


@lru_cache(maxsize=None)
def build_majoranas(M: int) -> np.ndarray:
    """gamma_k = a_k + a_k^dag, gamma_{M+k} = i (a_k^dag - a_k), as one read-only stack.

    The stack has shape (2M, 2^M, 2^M), is cached per M and is the one every
    oracle function uses.
    """
    a = jordan_wigner_ladders(M)
    gammas = [a[k] + a[k].conj().T for k in range(M)]
    gammas += [1j * (a[k].conj().T - a[k]) for k in range(M)]
    stack = np.stack(gammas)
    stack.flags.writeable = False
    return stack


def build_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """H = i sum_{ij} t_{ij} g_i g_j + (1/2) sum_{ijkl} g_{ijkl} g_i g_j g_k g_l.

    Full-range sums collapse onto canonical entries: 2i t_{ij} g_i g_j for
    i < j and 12 g_{ijkl} g_i g_j g_k g_l for i < j < k < l.
    """
    dim = 2 ** spec.M
    H = np.zeros((dim, dim), dtype=complex)
    gam = build_majoranas(spec.M)
    for i, j, tv in zip(*_pair_rows_cols(spec.M), spec.t.packed):
        if tv != 0.0:
            H += 2j * tv * gam[i] @ gam[j]
    for (i, j, k, l), v in spec.g.items():
        H += 12.0 * v * gam[i - 1] @ gam[j - 1] @ gam[k - 1] @ gam[l - 1]
    return H


# ---------------------------------------------------------------------------
# the Wick expansion of Lambda over subset Pfaffians, as bit arithmetic
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _subsets(M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Even subsets of {0..2M-1} as masks by size, the bit count of each 2M-bit int, index[mask]."""
    n = 2 * M
    ints = np.arange(2 ** n)
    bits = sum((ints >> b) & 1 for b in range(n))
    even = ints[bits % 2 == 0]
    masks = even[np.argsort(bits[even], kind="stable")]
    index = np.zeros(2 ** n, dtype=np.intp)
    index[masks] = np.arange(len(masks))
    return masks, bits, index


class _WickTable(NamedTuple):
    """Tables of the Wick expansion over the even subsets, smallest first.

    * ``phase[S]`` = 2^-M i^{|S|/2}.
    * ``levels`` holds, per size 2k, arrays ``(rows, pairs, rests, signs)`` of
      the first-row expansion Pf(x_S) = sum_v signs_v x_{pairs_v} Pf(x_{rests_v}),
      with pairs of shape (rows, 2k-1).  Column 0 is also the split
      gamma_S = (gamma_{s_1} gamma_{s_2}) gamma_{S minus {s_1, s_2}}.
    """

    phase: np.ndarray
    levels: tuple


@lru_cache(maxsize=None)
def _wick_table(M: int) -> _WickTable:
    n = 2 * M
    masks, bits, index = _subsets(M)
    sizes = bits[masks]
    levels = []
    for size in range(2, n + 1, 2):
        rows = np.flatnonzero(sizes == size)
        members = np.nonzero((masks[rows, None] >> np.arange(n)) & 1)[1].reshape(len(rows), size)
        first, others = members[:, :1], members[:, 1:]
        rests = index[masks[rows, None] ^ (1 << first) ^ (1 << others)]
        pairs = _pair_index_matrix(M)[first, others]
        levels.append((rows, pairs, rests, (-1.0) ** np.arange(size - 1)))
    phase = 2.0 ** -M * np.array([1j ** k for k in range(M + 1)])[sizes // 2]
    return _WickTable(phase, tuple(levels))


@lru_cache(maxsize=None)
def _insertion_map(M: int) -> tuple[np.ndarray, np.ndarray]:
    """The minor rule as pair insertion: ``(into, sign)``, each (pairs, subsets).

    For p = (a, b) and a subset R holding neither, ``into[p, R]`` indexes S =
    R + {a, b} and ``sign[p, R]`` = (-1)^{i_a + i_b + 1} = (-1)^{#R between a
    and b}; otherwise ``into`` is the spare index len(R) and ``sign`` is 0.
    """
    masks, bits, index = _subsets(M)
    rows, cols = _pair_rows_cols(M)
    a, b = (1 << rows)[:, None], (1 << cols)[:, None]
    free = (masks & (a | b)) == 0
    sign = np.where(free, 1 - 2 * (bits[masks & (b - 2 * a)] % 2), 0)
    return np.where(free, index[masks | a | b], len(masks)), sign


def _raised(f: np.ndarray, M: int) -> np.ndarray:
    """Rows (Raise_p f)[R + p] = sign[p, R] f[R]: dPf(x_S)/dx_p when f is the Pfaffian table."""
    into, sign = _insertion_map(M)
    out = np.zeros((len(into), len(f) + 1), dtype=np.result_type(f, float))
    out[np.arange(len(into))[:, None], into] = sign * f
    return out[:, :-1]


@lru_cache(maxsize=None)
def _clifford_signs(M: int) -> tuple[np.ndarray, ...]:
    """Two-Majorana words on the gamma_S as signed permutations: ``(source, left, right, mixed)``.

    With S = T xor {i, j} at ``source[i, j, T]``, gamma_i gamma_j gamma_S,
    gamma_S gamma_i gamma_j and gamma_i gamma_S gamma_j are ``left``, ``right``
    and ``mixed`` [i, j, T] gamma_T: gamma_i gamma_S = (-1)^{#S below i}
    gamma_{S xor {i}} and gamma_S gamma_j = (-1)^{#S above j} gamma_{S xor {j}}.
    """
    masks, bits, index = _subsets(M)
    i = np.arange(2 * M)[:, None, None]
    j = i.swapaxes(0, 1)
    S = masks ^ (1 << i) ^ (1 << j)
    below_i, below_j = bits[S & ((1 << i) - 1)], bits[S & ((1 << j) - 1)]
    above_i, above_j = bits[S >> (i + 1)], bits[S >> (j + 1)]
    left = below_j + below_i + (j < i)
    right = above_i + above_j + (i > j)
    mixed = below_i + above_j + (i > j)
    return (index[S], *(1 - 2 * (count % 2) for count in (left, right, mixed)))


@lru_cache(maxsize=None)
def _monomials(M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gamma_S as signed bit flips, built from the Jordan-Wigner stack, level by level.

    ``(flips, order, phases)``: gamma_S[k ^ flips[g], k] = phases[g, s, k]
    for S = order[g, s], grouped by flip, so each entry of sum_S c_S gamma_S
    is fed by one group.
    """
    gam = build_majoranas(M)
    a, k = np.arange(2 * M)[:, None], np.arange(2 ** M)
    flip = np.argmax(gam[:, :, 0] != 0, axis=1)
    phase = gam[a, flip[:, None] ^ k, k]
    # (gamma_a gamma_b)[k ^ f_a ^ f_b, k] = phase_a[k ^ f_b] phase_b[k]
    rows, cols = _pair_rows_cols(M)
    pair_flip = flip[rows] ^ flip[cols]
    pair_phase = phase[rows[:, None], flip[cols, None] ^ k] * phase[cols]
    table = _wick_table(M)
    flips = np.zeros(len(table.phase), dtype=np.intp)
    phases = np.ones((len(table.phase), 2 ** M), dtype=complex)
    for level_rows, pairs, rests, _ in table.levels:
        p, r = pairs[:, 0], rests[:, 0]
        flips[level_rows] = pair_flip[p] ^ flips[r]
        phases[level_rows] = pair_phase[p[:, None], flips[r, None] ^ k] * phases[r]
    # distinct flips counted on the sorted array: np.unique would import numpy.ma
    order = np.argsort(flips, kind="stable")
    order = order.reshape(np.count_nonzero(np.diff(flips[order])) + 1, -1)
    out = flips[order[:, 0]], order, phases[order]
    for arr in out:
        arr.flags.writeable = False
    return out


def _entries(M: int, coeff: np.ndarray) -> np.ndarray:
    """(..., groups, dim) entries of sum_S coeff[..., S] gamma_S at (k ^ flips[g], k)."""
    _, order, phases = _monomials(M)
    return np.einsum("...gs,gsk->...gk", coeff[..., order], phases, optimize=True)


def _pfaffians(table: _WickTable, packed: np.ndarray) -> np.ndarray:
    """Pf(x_S) for every even subset S, smallest first; Pf of the empty set is 1."""
    pf = np.ones(len(table.phase))
    for rows, pairs, rests, signs in table.levels:
        pf[rows] = (packed[pairs] * pf[rests]) @ signs
    return pf


def gaussian_basis(x: PhasePoint) -> np.ndarray:
    """Unit-trace Gaussian basis operator Lambda(x) = 2^-M sum_S i^{|S|/2} Pf(x_S) gamma_S.

    Only the empty subset contributes to the trace, so the trace is 1 by
    construction.
    """
    table = _wick_table(x.M)
    coeff = table.phase * _pfaffians(table, np.asarray(x.packed))
    k = np.arange(2 ** x.M)
    lam = np.zeros((len(k), len(k)), dtype=complex)
    lam[_monomials(x.M)[0][:, None] ^ k, k] = _entries(x.M, coeff)
    return lam


def _covariance(op: np.ndarray) -> np.ndarray:
    """Tr[op Xhat_{mu nu}] for a 2^M x 2^M op.

    Each entry is taken on its own, so antisymmetry is a genuine check.
    """
    gam = build_majoranas(len(op).bit_length() - 1)
    n = len(gam)
    out = np.zeros((n, n))
    for mu in range(n):
        for nu in range(n):
            xhat = 0.5j * (gam[mu] @ gam[nu] - gam[nu] @ gam[mu])
            out[mu, nu] = np.trace(op @ xhat).real
    return out


def exact_dqdt(rho: np.ndarray, spec: HamiltonianSpec, x: PhasePoint) -> float:
    """Exact Liouville rate dQ/dt = (1/i) Tr[[H, rho] Lambda(x)]."""
    if spec.M != x.M:
        raise DimensionError(f"spec M={spec.M} != phase point M={x.M}")
    H = build_hamiltonian(spec)
    lam = gaussian_basis(x)
    val = np.trace((H @ rho - rho @ H) @ lam) / 1j
    return float(val.real)


def q_derivatives(rho: np.ndarray, x: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient and Hessian of Q(x) = Tr[rho Lambda(x)] over the packed components.

    A packed component moves x_ab and x_ba = -x_ab together.  With the moments
    m_S = Tr[rho gamma_S], Q = sum_S w_S Pf(x_S), w_S = 2^-M i^{|S|/2} m_S; the
    minor rule moves w onto the subsets R = S minus p, W_pR = sign w_{R+p}, so
    the gradient is W Pf and the Hessian W (dPf/dx_q): no operator is built at x.
    """
    flips, order, phases = _monomials(x.M)
    table = _wick_table(x.M)
    into, sign = _insertion_map(x.M)
    pf = _pfaffians(table, np.asarray(x.packed))
    k = np.arange(phases.shape[-1])
    moments = np.zeros(len(pf) + 1, dtype=complex)   # one gather, then 0 at the spare index
    moments[order] = np.einsum("gsk,gk->gs", phases, np.asarray(rho)[k, flips[:, None] ^ k])
    lowered = sign * (np.append(table.phase, 0.0) * moments)[into]
    grad = (lowered @ pf).real
    hess = (lowered @ _raised(pf, x.M).T).real
    return grad, hess


def verify_quadratic_identities(x: PhasePoint) -> dict[str, float]:
    """Residuals of the four quadratic differential identities of Lambda.

    Each identity relates an operator product of two Majoranas with Lambda to
    the matrix-valued derivative of Lambda, taken exactly through the minor
    rule.  Both sides are coefficient vectors over the gamma_S; returns the
    max elementwise residual of each identity's operator.
    """
    M = x.M
    table = _wick_table(M)
    pf = _pfaffians(table, np.asarray(x.packed))
    lam = table.phase * pf
    grad = table.phase * _raised(pf, M)   # dLambda/dx_p over the gamma_S
    source, left, right, mixed = _clifford_signs(M)
    rows, cols = _pair_rows_cols(M)
    xm = x.matrix()
    eye = np.eye(2 * M)
    xp = xm + 1j * eye
    xmc = xm - 1j * eye

    def framed(L, R):
        # sum_ab L_ia (d/dx)_ab R_bj, with the matrix derivative (d/dx)_ab = d/dx_ba
        K = L[:, None, cols] * R.T[None, :, rows] - L[:, None, rows] * R.T[None, :, cols]
        return K @ grad

    lam_left = left * lam[source]     # gamma_i gamma_j Lambda
    lam_right = right * lam[source]   # Lambda gamma_i gamma_j
    with_lam = xp[..., None] * lam
    residuals = {
        "left": lam_left - 1j * (framed(xmc, xp) - with_lam),
        "right": lam_right - 1j * (framed(xp, xmc) - with_lam),
        "mixed": mixed * lam[source] - 1j * (xmc[..., None] * lam - framed(xmc, xmc)),
        "commutator": lam_left - lam_left.swapaxes(0, 1) - lam_right + lam_right.swapaxes(0, 1)
        - 4.0 * (framed(eye, xm) - framed(xm, eye)),
    }
    return {name: float(np.max(np.abs(_entries(M, res))))
            for name, res in residuals.items()}


def verify_four_gamma(
    x: PhasePoint, *, tuples: list[tuple[int, int, int, int]] | None = None
) -> dict[tuple, tuple[float, float]]:
    """Residuals of the four-operator identities, per sampled index tuple.

    For each tuple (i, j, k, l) the operators g_i g_j g_k g_l Lambda and
    Lambda g_i g_j g_k g_l are compared against their expansions in the
    first and second derivatives of Lambda.  Indices are 1-based.  Both
    sides are coefficient vectors over the gamma_S.
    """
    M = x.M
    n = 2 * M
    if tuples is None:
        tuples = [(1, 2, 3, 4)] if n >= 4 else []
    table = _wick_table(M)
    pf = _pfaffians(table, np.asarray(x.packed))
    raised = _raised(pf, M)
    lam = table.phase * pf
    grad = table.phase * raised
    source, left, right, _ = _clifford_signs(M)
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
        coef = table.phase * (packed(P) @ _raised(packed(Q) @ raised, M))
        coef = coef + packed(W + s1 * P + s2 * Q) @ grad
        coef = coef + (P[e, f] - P[f, e] + s1 * s2) * lam
        return -coef

    def word(signs, coef, a, b):
        return signs[a, b] * coef[source[a, b]]

    report = {}
    for tup in tuples:
        i, j, k, l = (v - 1 for v in tup)
        right_rhs = expansion(np.outer(xp[i], xmc[:, j]), xp[k], xmc[:, l], k, l, xp[i, j])
        left_rhs = expansion(np.outer(xmc[k], xp[:, l]), xmc[i], xp[:, j], i, j, xp[k, l])
        word_lam = word(left, word(left, lam, k, l), i, j)
        lam_word = word(right, word(right, lam, i, j), k, l)
        res = _entries(M, np.stack([word_lam - left_rhs, lam_word - right_rhs]))
        res_left, res_right = np.max(np.abs(res), axis=(1, 2))
        report[tup] = (float(res_left), float(res_right))
    return report


class FpeCheck(NamedTuple):
    """One phase-space-vs-exact comparison of dQ/dt.

    ``residual`` is the worse of the two forms' residuals; ``conservative``
    is that of the conservative form alone.
    """

    lhs: float
    rhs: float
    residual: float
    conservative: float


def verify_fpe(
    rho: np.ndarray,
    spec: HamiltonianSpec,
    x: PhasePoint,
    *,
    drift_form: str = "eq36",
) -> FpeCheck:
    """Exact Liouville dQ/dt vs the phase-space equation of motion at x.

    The left side is the dense trace of :func:`exact_dqdt`; the right side
    takes the exact gradient and Hessian of Q from :func:`q_derivatives`.
    ``drift_form='eq36'`` evaluates the defining form
    -Abar.grad + (1/2) D : hess as ``rhs``, and also the conservative form
    -A.grad + (div D).grad + (1/2) D : hess, which reads the full drift
    that :func:`majoranaq.dynamics.flow` integrates; both come from one
    :func:`majoranaq.kernel._rhs_forms` evaluation, and both must
    agree with dQ/dt.  ``drift_form='eq50'`` substitutes the alternative
    closed-form drift assembly into the conservative expansion (recorded
    for arbitration; it is not expected to agree).  Each residual is
    |lhs - rhs| / max(|lhs|, 1); the floor keeps near-stationary
    instances meaningful when couplings are of order one.
    """
    if drift_form not in ("eq36", "eq50"):
        raise ValueError(f"unknown drift form {drift_form!r}")
    lhs = exact_dqdt(rho, spec, x)
    grad, hess = q_derivatives(rho, x)
    # div A = 0 and div div D = 0 in closed form (Appendix C checks both),
    # so the terms in Q vanish and Q itself is not needed; the two forms
    # share one (1/2) D : hess term
    if drift_form == "eq36":
        rhs, form = _rhs_forms(x, spec.t, spec.g, grad, hess)
    else:
        _, rhs = _rhs_forms(x, spec.t, spec.g, grad, hess, full_drift=drift_alternative)
        form = rhs
    floor = max(abs(lhs), 1.0)
    conservative = abs(lhs - form) / floor
    residual = float(np.maximum(abs(lhs - rhs) / floor, conservative))  # a NaN is kept
    return FpeCheck(lhs, rhs, residual, conservative)


def verify_moment_identity_m1(rho: np.ndarray) -> tuple[float, float]:
    """Check <Xhat_12> = 3 * integral of s Q(s) ds at M = 1.

    The integrals are Gauss-Legendre quadratures on :data:`_MOMENT_NODES`
    nodes.  The normalization is fixed from the resolution of identity: the
    quadrature of Lambda(s) over s in [-1, 1] must be proportional to the
    identity, and the proportionality constant divides the moment integral.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DimensionError(f"M=1 density matrix must be 2x2, got {rho.shape}")
    lhs = float(_covariance(rho)[0, 1])
    nodes, weights = np.polynomial.legendre.leggauss(_MOMENT_NODES)
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

