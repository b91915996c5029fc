"""Closed-form phase-space coefficients of the generalized Fokker-Planck equation.

Conventions (hbar = 1 throughout; couplings are rates):

* x+- = x +- iI, and the four-index products X_{ij}^{ab} = x+_{ia} x-_{bj}
  with real/imaginary parts

      Re X_{ij}^{ab} = x_{ia} x_{bj} + d_{ia} d_{bj}
      Im X_{ij}^{ab} = -x_{ia} d_{bj} + d_{ia} x_{bj}

* Latin indices i,j,k,l always run over the full range 1..2M; pair indices
  a = (alpha, beta) are restricted to alpha < beta and enumerated in the
  packed order of :mod:`majoranaq.tensors`.

* First-order coefficient (transport):  Abar^a = 4 Im X_{ij}^a (3 (g.x)_{ij} - t_{ij})
  where (g.x)_{ij} = sum_{kl} g_{ijkl} x_{kl}.  Because sum_c Im X_{ij}^a c_{ij}
  over an antisymmetric c equals the matrix commutator [x, c]_{alpha beta}, all
  drift-type vectors are evaluated as commutators, which keeps them exactly
  real and exactly antisymmetric.

* Diffusion:  D^{am} = -8 sum_{ijkl} g_{ijkl} Im(X_{ij}^a X_{kl}^m), assembled
  in its manifestly symmetric form -8 (E + E^T) with
  E^{am} = sum g Re X_{ij}^a Im X_{kl}^m.  E itself is *not* symmetric; only
  the symmetric part enters the equation of motion.  D is symmetric with
  identically vanishing diagonal, hence traceless.

* Compiled coupling:  every contraction with g runs through the pair-space
  matrix G[P, Q] = g_{PQ} (P = (i<j), Q = (k<l) packed), compiled once per
  coupling as :attr:`QuarticCoupling.pair_matrix`, a dense npairs x npairs
  array with npairs = M(2M - 1) (2 MB at M = 16).  Antisymmetry folds each
  sum over ordered (i, j) onto packed pairs, so (g.x) = 2 G x and
  E = REa^T G IMa with REa[P] = Re X_{ij} - Re X_{ji} (likewise IMa).  Only
  the channel decomposition expands the 24 signed orderings of each stored
  quadruple, as array rows cached on the coupling.

* Compound form of the packed rows:  for P = (i<j) and a = (alpha<beta),
  REa = I - C2(x) with the second compound matrix of x (its 2 x 2 minors)
  C2(x)[P, a] = x_{i alpha} x_{j beta} - x_{i beta} x_{j alpha}, and IMa is
  the packed adjoint map of x, IMa^T c = pack([x, c]) -- the commutator
  identity of the drift.  IMa[P, a] is nonzero only where P and a share one
  index, one entry of x per slot.  :func:`diffusion` gathers both straight from x.
  :func:`diffusion_channels` reads its rows off the tables
  RE[i, j, a] = Re X_{ij}^a and IM[i, j, a] = Im X_{ij}^a instead, so the
  channel sum rebuilds D by a second, independent derivation.

* Divergence of the diffusion (closed form):
  (div D)^a = sum_m d_m D^{am} = -8 (3 - 2M) sum g_{ijkl} x_{kl} Im X_{ij}^a,
  and the full drift is A = Abar + div D
  = 4 Im X_{ij}^a [ (4M - 3)(g.x)_{ij} - t_{ij} ].
  (The divergence here sums the derivative pair index over independent
  components m = (mu < nu) only, matching the equation of motion; summing
  both orderings would double it.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, OffBoundaryError
from .tensors import (
    CouplingMatrix,
    PhasePoint,
    QuarticCoupling,
    _check_index,
    _pack,
    _pair_flat,
    _pair_rows_cols,
    _unpack,
    domain_margin,
    pair_count,
)

__all__ = [
    "x_plus_minus",
    "x_component",
    "re_x",
    "im_x",
    "contract_quartic",
    "diffusion",
    "diffusion_expanded",
    "diffusion_channels",
    "ChannelDecomposition",
    "drift_bar",
    "div_diffusion",
    "drift",
    "drift_alternative",
    "drift_matrix",
    "fpe_rhs",
    "conservative_rhs",
    "tangency_residual",
]


def x_plus_minus(x: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    """The complex matrices x+ = x + iI and x- = x - iI."""
    xm = x.matrix()
    eye = np.eye(2 * x.M)
    return xm + 1j * eye, xm - 1j * eye


def x_component(x: PhasePoint, i: int, j: int, alpha: int, beta: int) -> complex:
    """The complex scalar X_{ij}^{(alpha beta)} = x+_{i alpha} x-_{beta j}.

    Satisfies X_{ji}^{(beta alpha)} = X_{ij}^{(alpha beta)} and has conjugate
    x-_{i alpha} x+_{beta j}; :func:`re_x` and :func:`im_x` are its closed-form
    real and imaginary parts.
    """
    _check_index(x.M, i, j, alpha, beta)
    xp, xm = x_plus_minus(x)
    return complex(xp[i - 1, alpha - 1] * xm[beta - 1, j - 1])


def re_x(x: PhasePoint, i: int, j: int, alpha: int, beta: int) -> float:
    """Re X_{ij}^{(alpha beta)} = x_{i alpha} x_{beta j} + d_{i alpha} d_{beta j}."""
    _check_index(x.M, i, j, alpha, beta)
    xm = x.matrix()
    i, j, a, b = i - 1, j - 1, alpha - 1, beta - 1
    return float(xm[i, a] * xm[b, j] + (i == a) * (b == j))


def im_x(x: PhasePoint, i: int, j: int, alpha: int, beta: int) -> float:
    """Im X_{ij}^{(alpha beta)} = -x_{i alpha} d_{beta j} + d_{i alpha} x_{beta j}."""
    _check_index(x.M, i, j, alpha, beta)
    xm = x.matrix()
    i, j, a, b = i - 1, j - 1, alpha - 1, beta - 1
    return float(-xm[i, a] * (b == j) + (i == a) * xm[b, j])


def _re_im_tables(M: int, xm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RE[i, j, p] and IM[i, j, p] over all index pairs and packed pairs p."""
    al, be = _pair_rows_cols(M)
    n = 2 * M
    eye = np.eye(n)
    # x_{i alpha} -> (n, npairs); x_{beta j} -> (npairs, n)
    xia = xm[:, al]
    xbj = xm[be, :]
    d_ia = eye[:, al]
    d_bj = eye[be, :]
    RE = xia[:, None, :] * xbj.T[None, :, :] + d_ia[:, None, :] * d_bj.T[None, :, :]
    IM = -xia[:, None, :] * d_bj.T[None, :, :] + d_ia[:, None, :] * xbj.T[None, :, :]
    return RE, IM


def contract_quartic(g: QuarticCoupling, xm: np.ndarray) -> np.ndarray:
    """(g.x)_{ij} = sum_{kl} g_{ijkl} x_{kl}, as one product with the pair matrix.

    The sum over ordered (k, l) counts each packed pair twice, so
    (g.x)_P = 2 (G x_packed)_P for P = (i<j), unpacked antisymmetrically.
    """
    return _unpack(g.M, 2.0 * (g.pair_matrix @ _pack(g.M, xm)))


def _check_dims(x: PhasePoint, *couplings) -> None:
    for c in couplings:
        if c.M != x.M:
            raise DimensionError(f"coupling M={c.M} does not match phase point M={x.M}")


@lru_cache(maxsize=None)
def _compound_index(M: int) -> tuple[np.ndarray, ...]:
    """Flat indices into x of the compound rows; rows P = (i<j), columns a = (alpha<beta).

    The (npairs, npairs) gathers (i alpha), (j beta), (i beta), (j alpha) of
    the minors C2, then the flat slots of IMa and the entry of x each reads.
    Of the four terms of IMa[P, a] = Im X_{ij}^a - Im X_{ji}^a,
    -x_{i alpha} d_{beta j} + d_{i alpha} x_{beta j} + x_{j alpha} d_{beta i}
    - d_{j alpha} x_{beta i}, one survives where P and a share one index and
    none elsewhere (on P = a the survivors cancel); antisymmetry takes each
    sign into the source, -x_{i alpha} = x_{alpha i}.
    """
    n = 2 * M
    rows, cols = _pair_rows_cols(M)
    i, j = rows[:, None], cols[:, None]
    al, be = rows[None, :], cols[None, :]
    minors = [r * n + c for r, c in ((i, al), (j, be), (i, be), (j, al))]
    shared = [be == j, al == i, be == i, al == j]
    sources = [al * n + i, be * n + j, j * n + al, i * n + be]
    src = np.where((i == al) & (j == be), -1, np.select(shared, sources, -1))
    slots = np.flatnonzero(src >= 0)
    out = (*minors, slots, src.ravel()[slots])
    for a in out:
        a.flags.writeable = False
    return out


def _compound_rows(M: int, xm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """REa = I - C2(x) and IMa, the packed adjoint map of x, as (npairs, npairs) arrays."""
    ia, jb, ib, ja, slots, src = _compound_index(M)
    flat = xm.ravel()
    REa = flat.take(ib) * flat.take(ja) - flat.take(ia) * flat.take(jb)
    REa.ravel()[:: len(REa) + 1] += 1.0
    IMa = np.zeros(REa.shape)
    IMa.ravel()[slots] = flat.take(src)
    return REa, IMa


def diffusion(x: PhasePoint, g: QuarticCoupling) -> np.ndarray:
    """Diffusion matrix D^{am} = -8 sum g Im(X^a X^m) over packed pair indices.

    Symmetric with identically vanishing diagonal (traceless).  The Latin
    sums contract with the compiled pair matrix, D = -8 (E + E^T) with
    E = REa^T (G IMa), where REa = I - C2(x) takes the 2 x 2 minors of x and
    IMa is the packed adjoint map of x, both gathered straight from x (see
    the module notes); the Re/Im tables are not built.
    """
    _check_dims(x, g)
    REa, IMa = _compound_rows(x.M, x.matrix())
    E = REa.T @ (g.pair_matrix @ IMa)
    return -8.0 * (E + E.T)


def diffusion_expanded(x: PhasePoint, g: QuarticCoupling) -> np.ndarray:
    """Independent cross-check: the diffusion via its explicit polynomial form.

    Evaluates, per ordered tuple, -4 g [ (xx - xd + dx + dd)(xx - xd + dx + dd)
    - (xx + xd - dx + dd)(xx + xd - dx + dd) ] in the phase-space variables,
    materializing the dense coupling tensor.  Intended for M <= 4 tests.
    """
    _check_dims(x, g)
    M = x.M
    xm = x.matrix()
    npairs = pair_count(M)
    al, be = _pair_rows_cols(M)
    eye = np.eye(2 * M)
    D = np.zeros((npairs, npairs))
    dense = g.dense()
    for idx in np.argwhere(dense != 0.0):
        i, j, k, l = idx
        gv = dense[i, j, k, l]
        f1 = xm[i, al] * xm[be, j] - xm[i, al] * eye[be, j] + eye[i, al] * xm[be, j] + eye[i, al] * eye[be, j]
        f2 = xm[k, al] * xm[be, l] - xm[k, al] * eye[be, l] + eye[k, al] * xm[be, l] + eye[k, al] * eye[be, l]
        f3 = xm[i, al] * xm[be, j] + xm[i, al] * eye[be, j] - eye[i, al] * xm[be, j] + eye[i, al] * eye[be, j]
        f4 = xm[k, al] * xm[be, l] + xm[k, al] * eye[be, l] - eye[k, al] * xm[be, l] + eye[k, al] * eye[be, l]
        D += -4.0 * gv * (np.outer(f1, f2) - np.outer(f3, f4))
    return D


@dataclass(frozen=True)
class ChannelDecomposition:
    """Diffusion split into rank-1 channels, one row per ordered nonzero tuple.

    Row t holds the 1-based ordered tuple ``indices[t]``, the weight
    ``weights[t]`` = 4 g for that ordering, and the forward/backward channel
    vectors ``b_minus[t]``, ``b_plus[t]`` over packed pairs; the channel
    contributes weights[t] (b_minus b_minus^T - b_plus b_plus^T) to D.
    """

    M: int
    indices: np.ndarray
    weights: np.ndarray
    b_minus: np.ndarray
    b_plus: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Sum of all rank-1 channels: (w B-)^T B- - (w B+)^T B+."""
        w = self.weights[:, None]
        return (w * self.b_minus).T @ self.b_minus - (w * self.b_plus).T @ self.b_plus


def diffusion_channels(x: PhasePoint, g: QuarticCoupling) -> ChannelDecomposition:
    """Forward/backward channel vectors B(+-)^a = Re X_{ij}^a +- Im X_{kl}^a.

    One channel per ordered tuple (24 per stored quadruple), taken row-wise
    from the Re/Im tables by the ordered tuples cached on the coupling: the
    expansion cannot be collapsed onto canonical quadruples because each
    ordering carries a distinct rank-1 geometry.  :func:`diffusion` never
    builds the tables, so the channel sum rebuilds D by an independent
    route: an error in either one fails the reconstruction (see
    :func:`majoranaq.suites.run_traceless_and_channels`).
    """
    _check_dims(x, g)
    M = x.M
    n = 2 * M
    RE, IM = _re_im_tables(M, x.matrix())
    tuples, weights = g.ordered_tuples
    u = RE.reshape(n * n, -1).take(tuples[:, 0] * n + tuples[:, 1], axis=0)  # (nt, npairs)
    v = IM.reshape(n * n, -1).take(tuples[:, 2] * n + tuples[:, 3], axis=0)
    return ChannelDecomposition(M, tuples + 1, 4.0 * weights, u - v, u + v)


def _commutator_drift(xm: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_{ij} c_{ij} Im X_{ij}^{(ab)} = [x, c]_{ab} for the full matrix ``xm``, packed."""
    return _pack(len(xm) // 2, xm @ c - c @ xm)


def _drift_coefficient(M: int, G: np.ndarray, t_packed: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The packed drift coefficient c_P = 4((4M-3) 2 (G v)_P - t_P) at the packed point v."""
    return 4.0 * ((4 * M - 3) * (2.0 * (G @ v)) - t_packed)


def _drift_generator(xm: np.ndarray, t_packed: np.ndarray, g: QuarticCoupling) -> np.ndarray:
    """The full drift matrix [x, c] from the full matrix of x and the packed t."""
    M = g.M
    c = _unpack(M, _drift_coefficient(M, g.pair_matrix, t_packed, _pack(M, xm)))
    P = xm @ c  # c x = (x c)^T for antisymmetric x and c
    return P - P.T


def _compile_rate(M: int, G: np.ndarray, t_packed: np.ndarray):
    """The packed drift rate v -> pack([x, c]) of one flow, compiled once.

    The full matrices of x and c are written into two buffers owned by the
    returned function, through the flat pair indices, so a stage allocates
    only its packed results.  Same arithmetic as :func:`drift`, bit for bit.
    """
    upper, lower = _pair_flat(M)
    X = np.zeros((2 * M, 2 * M))
    C = np.zeros((2 * M, 2 * M))

    def rate(v: np.ndarray) -> np.ndarray:
        c = _drift_coefficient(M, G, t_packed, v)
        X.put(upper, v)
        X.put(lower, -v)
        C.put(upper, c)
        C.put(lower, -c)
        P = X @ C
        return P.take(upper) - P.take(lower)

    return rate


def drift_bar(x: PhasePoint, t: CouplingMatrix, g: QuarticCoupling) -> np.ndarray:
    """First-order coefficient Abar^a = 4 Im X_{ij}^a (3 (g.x)_{ij} - t_{ij}).

    The identity-part of x+ in the cubic term is annihilated by the
    antisymmetry of g, so the evaluation stays in real arithmetic.
    """
    _check_dims(x, t, g)
    xm = x.matrix()
    return _commutator_drift(xm, 12.0 * contract_quartic(g, xm) - 4.0 * t.matrix())


def div_diffusion(x: PhasePoint, g: QuarticCoupling) -> np.ndarray:
    """Closed form of the diffusion divergence sum_m d_m D^{am}.

    Equals -8 (3 - 2M) sum g_{ijkl} x_{kl} Im X_{ij}^a with the derivative
    pair index summed over independent components; checked against the
    polynomial-exact central stencils of :func:`diffusion` (D is cubic in x)
    in :func:`majoranaq.suites.run_appendix_c`.
    """
    _check_dims(x, g)
    xm = x.matrix()
    return _commutator_drift(xm, -8.0 * (3 - 2 * x.M) * contract_quartic(g, xm))


def drift(x: PhasePoint, t: CouplingMatrix, g: QuarticCoupling) -> np.ndarray:
    """Full drift A = Abar + div D = 4 Im X_{ij}^a [(4M-3)(g.x)_{ij} - t_{ij}]."""
    _check_dims(x, t, g)
    return _pack(x.M, _drift_generator(x.matrix(), t.packed, g))


def drift_alternative(x: PhasePoint, t: CouplingMatrix, g: QuarticCoupling) -> np.ndarray:
    """Alternative closed-form assembly of the drift, kept for arbitration.

    Assembles to 4 Im X_{ij}^a [ (30 - 16M)(g.x)_{ij} + t_{ij} ], which
    disagrees with ``drift`` by a factor of two on the coupling term and by
    the sign of t; exact-oracle comparisons are reported for both.
    """
    _check_dims(x, t, g)
    xm = x.matrix()
    return _commutator_drift(xm, (64 * x.M - 120.0) * contract_quartic(g, xm) + 4.0 * t.matrix())


def drift_matrix(x: PhasePoint, t: CouplingMatrix, g: QuarticCoupling) -> np.ndarray:
    """The drift as a full antisymmetric matrix A_{ab} (A_{ba} = -A_{ab})."""
    _check_dims(x, t, g)
    return _drift_generator(x.matrix(), t.packed, g)


def _derivative_arrays(M: int, grad, hess) -> tuple[np.ndarray, np.ndarray]:
    """``grad`` and ``hess`` as float arrays of shapes (npairs,) and (npairs, npairs)."""
    npairs = pair_count(M)
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    if grad.shape != (npairs,) or hess.shape != (npairs, npairs):
        raise DimensionError(
            f"gradient/hessian shapes {grad.shape}, {hess.shape} do not match "
            f"{npairs} independent components"
        )
    return grad, hess


def fpe_rhs(
    x: PhasePoint,
    t: CouplingMatrix,
    g: QuarticCoupling,
    grad: np.ndarray,
    hess: np.ndarray,
) -> float:
    """dQ/dt = -sum_a Abar^a grad_a + (1/2) sum_{am} D^{am} hess_{am}."""
    grad, hess = _derivative_arrays(x.M, grad, hess)
    rhs = -float(drift_bar(x, t, g) @ grad)
    if g.table:
        rhs += 0.5 * float(np.einsum("pq,pq->", diffusion(x, g), hess))
    return rhs


def conservative_rhs(
    x: PhasePoint,
    t: CouplingMatrix,
    g: QuarticCoupling,
    q: float,
    grad: np.ndarray,
    hess: np.ndarray,
    div_a: float,
    double_div_d: float,
) -> float:
    """Probability-conserving form d_a [-A^a + (1/2) d_m D^{am}] Q, expanded.

    The expansion is -(div A) q - A.grad + (1/2)(div div D) q + (div D).grad
    + (1/2) D : hess.  The drift's divergence ``div_a`` and the double
    divergence ``double_div_d`` of D are inputs, measured by the caller; both
    vanish in closed form, and the result then agrees with :func:`fpe_rhs`
    to rounding.
    """
    grad, hess = _derivative_arrays(x.M, grad, hess)
    rhs = -div_a * q - float(drift(x, t, g) @ grad)
    rhs += 0.5 * double_div_d * q + float(div_diffusion(x, g) @ grad)
    if g.table:
        rhs += 0.5 * float(np.einsum("pq,pq->", diffusion(x, g), hess))
    return rhs


def tangency_residual(
    x: PhasePoint,
    t: CouplingMatrix,
    g: QuarticCoupling,
    margin_tol: float = 1e-8,
) -> np.ndarray:
    """Boundary tangency defect x A + A x for the drift matrix A.

    On the pure-state boundary x^2 = -I this is [x^2, c] = [-I, c] = 0 for the
    commutator-form drift A = [x, c], so the residual measures how exactly the
    drift is tangent to the boundary.  Raises if x is not on the boundary.
    """
    margin = domain_margin(x)
    if abs(margin) > margin_tol:
        raise OffBoundaryError(margin, margin_tol)
    A = drift_matrix(x, t, g)
    xm = x.matrix()
    return xm @ A + A @ xm
