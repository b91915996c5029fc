"""Exact finite-dimensional oracle on the 2^M Fock space.

Everything the phase-space kernel claims is checked here against dense matrix
quantum mechanics: Jordan-Wigner Majorana operators, the Gaussian basis
Lambda(x), exact Q-function values and Liouville time derivatives, and
numerical verification of the operator differential identities.

Conventions: modes k = 1..M carry ladder operators a_k with Jordan-Wigner
sign strings on the preceding modes; gamma_k = a_k + a_k^dag and
gamma_{M+k} = i (a_k^dag - a_k).  In the basis ordering used here
(|n_1 n_2 ...>, first mode slowest), gamma_1 at M=1 is the Pauli X matrix
and gamma_2 is Pauli Y.  All verification quantities are traces or residuals
and do not depend on these sign/phase choices.

The Gaussian basis is built in its fermionic Gaussian-state product form
(Bravyi, quant-ph/0404180; Corney & Drummond, PRB 73, 125112).  The
Hermitian matrix i x has eigenvalues +-lambda_k; an eigenvector a_k + i b_k
of +lambda_k >= 0 gives x a_k = lambda_k b_k and x b_k = -lambda_k a_k, so
the real orthonormal pairs (sqrt2 b_k, sqrt2 a_k) bring x to the block form
x = O T O^T with 2x2 blocks of weight lambda_k.  In the rotated
Majoranas gamma'_m = sum_a O_{am} gamma_a,

    Lambda(x) = 2^-M prod_k (I + i lambda_k gamma'_{2k-1} gamma'_{2k}),

which has unit trace by construction.  The normal-ordered exponential of the
quadratic form C(x) = -(i/2) [J + (J + J x J)^{-1}] that defines Lambda is
kept only in the test suite (``tests/basis_oracle.py``), where it is
asserted equal to this construction.  Points where J + J x J is singular,
and the definition is not evaluable, are rejected by
:func:`check_basis_evaluable` on both routes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularBasisError, StencilError
from .kernel import drift_alternative, fpe_rhs, diffusion, div_diffusion
from .tensors import HamiltonianSpec, PhasePoint, _pairs0, pair_count

__all__ = [
    "MajoranaSet",
    "build_majoranas",
    "jordan_wigner_ladders",
    "build_hamiltonian",
    "check_basis_evaluable",
    "gaussian_basis",
    "qfunction",
    "covariance_of_basis",
    "exact_dqdt",
    "fd_gradient",
    "fd_hessian",
    "verify_quadratic_identities",
    "verify_four_gamma",
    "verify_fpe",
    "FpeCheck",
    "verify_moment_identity_m1",
    "random_density_matrix",
    "check_density_matrix",
]

_LADDER_CACHE: dict = {}
_GAMMA_CACHE: dict = {}


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


def _gamma_stack(M: int) -> np.ndarray:
    """Read-only (2M, 2^M, 2^M) stack of the Majorana operators, cached per M."""
    if M not in _GAMMA_CACHE:
        a = jordan_wigner_ladders(M)
        gammas = [a[k] + a[k].conj().T for k in range(M)]
        gammas += [1j * (a[k].conj().T - a[k]) for k in range(M)]
        stack = np.stack(gammas)
        stack.flags.writeable = False
        _GAMMA_CACHE[M] = stack
    return _GAMMA_CACHE[M]


def build_majoranas(M: int) -> MajoranaSet:
    """gamma_k = a_k + a_k^dag, gamma_{M+k} = i (a_k^dag - a_k)."""
    if M > 3:
        warnings.warn(
            f"dense oracle at M={M} needs {2**M}-dimensional matrices; expect slow sweeps",
            stacklevel=2,
        )
    return MajoranaSet(M, tuple(_gamma_stack(M)))


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


def _mode_pairing_matrix(M: int) -> np.ndarray:
    J = np.zeros((2 * M, 2 * M))
    J[:M, M:] = np.eye(M)
    J[M:, :M] = -np.eye(M)
    return J


def check_basis_evaluable(x: PhasePoint) -> None:
    """Raise :class:`SingularBasisError` where Lambda(x) is not evaluable.

    The defining quadratic form inverts J + J x J; points where that matrix
    has an eigenvalue below 1e-10 in modulus are rejected, so callers can
    probe a sample point without building Lambda.
    """
    J = _mode_pairing_matrix(x.M)
    eigs = np.linalg.eigvals(J + J @ x.matrix() @ J)
    smallest = eigs[np.argmin(np.abs(eigs))]
    if abs(smallest) < 1e-10:
        raise SingularBasisError(smallest)


def gaussian_basis(x: PhasePoint, majoranas: MajoranaSet | None = None) -> np.ndarray:
    """Unit-trace Gaussian basis operator Lambda(x).

    Product form over the 2x2 blocks of x, from the top M eigenpairs
    (lambda_k, a_k + i b_k) of the Hermitian i x:
    Lambda = 2^-M prod_k (I + i lambda_k gamma'_{b_k} gamma'_{a_k}) with
    gamma'_v = sqrt2 sum_a v_a gamma_a.  A zero lambda_k contributes I.
    """
    M = x.M
    if majoranas is not None and majoranas.M != M:
        raise DimensionError(f"majoranas M={majoranas.M} != phase point M={M}")
    check_basis_evaluable(x)
    gam = _gamma_stack(M) if majoranas is None else np.asarray(majoranas.gammas)
    weights, vecs = np.linalg.eigh(1j * x.matrix())
    top = np.sqrt(2.0) * vecs[:, M:]
    O = np.concatenate([top.imag, top.real], axis=1)
    rotated = (O.T @ gam.reshape(2 * M, -1)).reshape(gam.shape)
    dim = 2 ** M
    lam = np.eye(dim, dtype=complex) / dim
    for k in range(M):
        lam = lam + 1j * weights[M + k] * (lam @ rotated[k] @ rotated[M + k])
    return lam


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


# ---------------------------------------------------------------------------
# finite differences of Q over the independent components
# ---------------------------------------------------------------------------


def _q_eval(rho: np.ndarray, M: int, packed: np.ndarray) -> float:
    try:
        lam = gaussian_basis(PhasePoint(M, packed))
    except SingularBasisError as exc:
        raise StencilError(
            f"stencil point not evaluable ({exc}); try a smaller step"
        ) from exc
    return float(np.trace(np.asarray(rho) @ lam).real)


def fd_gradient(
    rho: np.ndarray,
    x: PhasePoint,
    majoranas: MajoranaSet | None = None,
    h: float = 1e-4,
) -> np.ndarray:
    """Central-difference gradient of Q over the packed components.

    Perturbing one packed component moves x_{ab} and x_{ba} = -x_{ab}
    together, i.e. the derivative respects the antisymmetry constraint with
    unit normalization on the independent component.
    """
    npairs = pair_count(x.M)
    v0 = np.asarray(x.packed)
    grad = np.zeros(npairs)
    for p in range(npairs):
        vp = v0.copy()
        vp[p] += h
        vm = v0.copy()
        vm[p] -= h
        grad[p] = (_q_eval(rho, x.M, vp) - _q_eval(rho, x.M, vm)) / (2 * h)
    return grad


def fd_hessian(
    rho: np.ndarray,
    x: PhasePoint,
    majoranas: MajoranaSet | None = None,
    h: float = 1e-4,
) -> np.ndarray:
    """Central-difference Hessian of Q over the packed components, symmetrized."""
    npairs = pair_count(x.M)
    v0 = np.asarray(x.packed)
    hess = np.zeros((npairs, npairs))
    q0 = _q_eval(rho, x.M, v0)
    for p in range(npairs):
        vp = v0.copy()
        vp[p] += h
        vm = v0.copy()
        vm[p] -= h
        hess[p, p] = (_q_eval(rho, x.M, vp) - 2 * q0 + _q_eval(rho, x.M, vm)) / h**2
    for p in range(npairs):
        for q in range(p + 1, npairs):
            vals = {}
            for sp, sq in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                v = v0.copy()
                v[p] += sp * h
                v[q] += sq * h
                vals[(sp, sq)] = _q_eval(rho, x.M, v)
            hess[p, q] = hess[q, p] = (
                vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]
            ) / (4 * h**2)
    return hess


# ---------------------------------------------------------------------------
# operator-valued finite differences of Lambda
# ---------------------------------------------------------------------------


def _lambda_at(M: int, packed: np.ndarray) -> np.ndarray:
    try:
        return gaussian_basis(PhasePoint(M, packed))
    except SingularBasisError as exc:
        raise StencilError(
            f"stencil point not evaluable ({exc}); try a smaller step"
        ) from exc


def _lambda_grad_full(x: PhasePoint, h: float) -> np.ndarray:
    """T[a, b] = dLambda/dx_{ab} (constrained derivative), full index range."""
    M = x.M
    n = 2 * M
    dim = 2 ** M
    v0 = np.asarray(x.packed)
    T = np.zeros((n, n, dim, dim), dtype=complex)
    for p, (a, b) in enumerate(_pairs0(M)):
        vp = v0.copy()
        vp[p] += h
        vm = v0.copy()
        vm[p] -= h
        d = (_lambda_at(M, vp) - _lambda_at(M, vm)) / (2 * h)
        T[a, b] = d
        T[b, a] = -d
    return T


def _lambda_hess_full(x: PhasePoint, h: float) -> np.ndarray:
    """dd[a, b, c, d] = d^2 Lambda / dx_{ab} dx_{cd}, full index ranges."""
    M = x.M
    n = 2 * M
    dim = 2 ** M
    pairs = list(_pairs0(M))
    npairs = len(pairs)
    v0 = np.asarray(x.packed)
    lam0 = _lambda_at(M, v0)
    packed_hess = [[None] * npairs for _ in range(npairs)]
    for p in range(npairs):
        vp = v0.copy()
        vp[p] += h
        vm = v0.copy()
        vm[p] -= h
        packed_hess[p][p] = (_lambda_at(M, vp) - 2 * lam0 + _lambda_at(M, vm)) / h**2
    for p in range(npairs):
        for q in range(p + 1, npairs):
            acc = np.zeros((dim, dim), dtype=complex)
            for sp, sq in ((1, 1), (-1, -1)):
                v = v0.copy()
                v[p] += sp * h
                v[q] += sq * h
                acc += _lambda_at(M, v)
            for sp, sq in ((1, -1), (-1, 1)):
                v = v0.copy()
                v[p] += sp * h
                v[q] += sq * h
                acc -= _lambda_at(M, v)
            packed_hess[p][q] = packed_hess[q][p] = acc / (4 * h**2)
    dd = np.zeros((n, n, n, n, dim, dim), dtype=complex)
    for p, (a, b) in enumerate(pairs):
        for q, (c, d) in enumerate(pairs):
            blk = packed_hess[p][q]
            dd[a, b, c, d] = blk
            dd[b, a, c, d] = -blk
            dd[a, b, d, c] = -blk
            dd[b, a, d, c] = blk
    return dd


def verify_quadratic_identities(
    x: PhasePoint, majoranas: MajoranaSet, h: float = 1e-4
) -> dict[str, float]:
    """Residuals of the four quadratic differential identities of Lambda.

    Each identity relates an operator product of two Majoranas with Lambda to
    the matrix-valued derivative of Lambda; the derivative side is built by
    finite differences.  Returns the max elementwise residual per identity.
    """
    M = x.M
    n = 2 * M
    gam = majoranas.gammas
    lam = gaussian_basis(x)
    T = _lambda_grad_full(x, h)           # T[a, b] = d Lambda / dx_ab
    Dm = np.transpose(T, (1, 0, 2, 3))    # matrix derivative (d/dx)_{ab} = d_{ba}
    xm = x.matrix()
    xp = xm + 1j * np.eye(n)
    xmc = xm - 1j * np.eye(n)
    G2 = np.stack([np.stack([gam[i] @ gam[j] for j in range(n)]) for i in range(n)])
    gam_arr = np.stack(gam)

    lhs = np.einsum("ijuv,vw->ijuw", G2, lam)
    rhs = 1j * (
        np.einsum("ia,abuv,bj->ijuv", xmc, Dm, xp) - np.einsum("ij,uv->ijuv", xp, lam)
    )
    res_left = float(np.max(np.abs(lhs - rhs)))

    lhs = np.einsum("uv,ijvw->ijuw", lam, G2)
    rhs = 1j * (
        np.einsum("ia,abuv,bj->ijuv", xp, Dm, xmc) - np.einsum("ij,uv->ijuv", xp, lam)
    )
    res_right = float(np.max(np.abs(lhs - rhs)))

    lhs = np.einsum("iuv,vw,jwz->ijuz", gam_arr, lam, gam_arr)
    rhs = 1j * (
        -np.einsum("ia,abuv,bj->ijuv", xmc, Dm, xmc)
        + np.einsum("ij,uv->ijuv", xmc, lam)
    )
    res_mixed = float(np.max(np.abs(lhs - rhs)))

    comm = G2 - np.transpose(G2, (1, 0, 2, 3))
    lhs = np.einsum("ijuv,vw->ijuw", comm, lam) - np.einsum("uv,ijvw->ijuw", lam, comm)
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


def _dX_plain(n, xp, xmc, k, l):
    """dX[m, n, a, b] = d X_{kl}^{(mn)} / d x_{ab}."""
    out = np.zeros((n, n, n, n), dtype=complex)
    for m in range(n):
        for nn in range(n):
            out[m, nn, k, m] += xmc[nn, l]
            out[m, nn, m, k] -= xmc[nn, l]
            out[m, nn, nn, l] += xp[k, m]
            out[m, nn, l, nn] -= xp[k, m]
    return out


def _dX_conj(n, xp, xmc, i, j):
    """dXs[m, n, a, b] = d X*_{ij}^{(mn)} / d x_{ab}."""
    out = np.zeros((n, n, n, n), dtype=complex)
    for m in range(n):
        for nn in range(n):
            out[m, nn, i, m] += xp[nn, j]
            out[m, nn, m, i] -= xp[nn, j]
            out[m, nn, nn, j] += xmc[i, m]
            out[m, nn, j, nn] -= xmc[i, m]
    return out


def verify_four_gamma(
    x: PhasePoint,
    majoranas: MajoranaSet,
    h: float = 1e-3,
    tuples: list[tuple[int, int, int, int]] | None = None,
) -> dict[tuple, tuple[float, float]]:
    """Residuals of the four-operator identities, per sampled index tuple.

    For each tuple (i, j, k, l) the products g_i g_j g_k g_l Lambda and
    Lambda g_i g_j g_k g_l are compared against their expansions in first and
    second finite-difference derivatives of Lambda.  Indices are 1-based.
    ``h`` controls the second-derivative stencils (the accuracy bottleneck);
    first derivatives always use the tighter 1e-4 step.
    """
    M = x.M
    n = 2 * M
    if tuples is None:
        tuples = [(1, 2, 3, 4)] if n >= 4 else []
    gam = majoranas.gammas
    lam = gaussian_basis(x)
    T = _lambda_grad_full(x, h=1e-4)
    dd = _lambda_hess_full(x, h)
    xm = x.matrix()
    xp = xm + 1j * np.eye(n)
    xmc = xm - 1j * np.eye(n)
    report = {}
    for tup in tuples:
        i, j, k, l = (v - 1 for v in tup)
        Xij = np.outer(xp[i, :], xmc[:, j])
        Xkl = np.outer(xp[k, :], xmc[:, l])
        Xs_ij = np.outer(xmc[i, :], xp[:, j])
        Xs_kl = np.outer(xmc[k, :], xp[:, l])
        # right product: Lambda g g g g
        dXkl = _dX_plain(n, xp, xmc, k, l)
        acc = np.einsum("ab,cd,abcduv->uv", Xij, Xkl, dd)
        acc += np.einsum("ab,mnab,mnuv->uv", Xij, dXkl, T)
        acc += xp[k, l] * np.einsum("ab,abuv->uv", Xij, T)
        acc += xp[i, j] * np.einsum("ab,abuv->uv", Xkl, T)
        acc += (Xij[k, l] - Xij[l, k]) * lam
        acc += xp[k, l] * xp[i, j] * lam
        rhs_right = -acc
        lhs_right = lam @ gam[i] @ gam[j] @ gam[k] @ gam[l]
        res_right = float(np.max(np.abs(lhs_right - rhs_right)))
        # left product: g g g g Lambda
        dXs_ij = _dX_conj(n, xp, xmc, i, j)
        acc = np.einsum("ab,cd,abcduv->uv", Xs_kl, Xs_ij, dd)
        acc += np.einsum("ab,mnab,mnuv->uv", Xs_kl, dXs_ij, T)
        acc += xp[i, j] * np.einsum("ab,abuv->uv", Xs_kl, T)
        acc += xp[k, l] * np.einsum("ab,abuv->uv", Xs_ij, T)
        acc += (Xs_kl[i, j] - Xs_kl[j, i]) * lam
        acc += xp[i, j] * xp[k, l] * lam
        rhs_left = -acc
        lhs_left = gam[i] @ gam[j] @ gam[k] @ gam[l] @ lam
        res_left = float(np.max(np.abs(lhs_left - rhs_left)))
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
    h: float = 1e-4,
    scale: float = 1.0,
    drift_form: str = "eq36",
) -> FpeCheck:
    """Exact Liouville dQ/dt vs the phase-space equation of motion at x.

    ``drift_form='eq36'`` evaluates the defining form
    -Abar.grad + (1/2) D : hess.  ``drift_form='eq50'`` substitutes the
    alternative closed-form drift assembly into the conservative expansion
    (recorded for arbitration; it is not expected to agree).  The residual is
    |lhs - rhs| / max(|lhs|, scale); the floor keeps near-stationary
    instances meaningful when couplings are of order one.
    """
    if majoranas is None:
        majoranas = build_majoranas(x.M)
    lhs = exact_dqdt(rho, spec, x, majoranas)
    grad = fd_gradient(rho, x, majoranas, h=h)
    hess = fd_hessian(rho, x, majoranas, h=h)
    if drift_form == "eq36":
        rhs = fpe_rhs(x, spec.t, spec.g, grad, hess)
    elif drift_form == "eq50":
        rhs = -float(drift_alternative(x, spec.t, spec.g) @ grad)
        rhs += float(div_diffusion(x, spec.g) @ grad)
        if spec.g.table:
            rhs += 0.5 * float(np.einsum("pq,pq->", diffusion(x, spec.g), hess))
    else:
        raise ValueError(f"unknown drift form {drift_form!r}")
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
