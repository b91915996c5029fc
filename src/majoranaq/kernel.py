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
  matrix G[P, Q] = g_{PQ} (P = (i<j), Q = (k<l) packed).  Each coupling
  compiles it once, as :attr:`QuarticCoupling.pair_block`: the unscaled
  block K0 = [G[p, p]; -G[p, p]] over the w pairs p its quadruples touch
  (G is zero elsewhere), with the flat indices of those pairs in a full
  matrix.  Every formula applies its own coefficients to K0, so no
  npairs x npairs matrix is built.  Antisymmetry folds each
  sum over ordered (i, j) onto packed pairs, so (g.x) = 2 G x and
  E = REa^T G IMa with REa[P] = Re X_{ij} - Re X_{ji} (likewise IMa), in
  which only the rows p of REa and IMa meet G.  Only
  the channel decomposition expands the 24 signed orderings of each stored
  quadruple, as index rows cached on the coupling.  It folds their weights
  into a (4M^2, 4M^2) matrix W over the Re/Im table rows, so the channel sum
  is -2 (S + S^T) with S = RE^T W IM and no (24 nq, npairs) array is formed.

* Stage kernel:  every drift-type vector is a commutator [x, c] with
  c = a G v + b t at the packed entries v of x, computed on the full
  antisymmetric matrix x by the stage kernel
  :func:`majoranaq.tensors._compile_rate`, which is defined beside the
  coupling's compiled block and describes one stage.  The drift has
  a = 8(4M - 3) and b = -4 (c = 4((4M - 3)(g.x) - t),
  :func:`majoranaq.tensors._drift_rate`); :func:`drift_bar`,
  :func:`div_diffusion` and :func:`drift_alternative` differ only in a and
  b.  The rate is antisymmetric bit for bit.  Every drift-type function
  here and every RK4 stage of :func:`majoranaq.dynamics.flow` run this one
  kernel, so the flow's states equal a loop through :func:`drift` bit for
  bit; the flow imports it from :mod:`majoranaq.tensors`, so the ``flow``
  command does not load this module.

* Stacks:  :func:`diffusion` and :func:`diffusion_channels` take a
  :class:`PhasePoint` holding a stack of B points, and every result then
  carries a leading axis of B; each point's results equal those of the
  point alone bit for bit.  A single point runs the same code with no
  leading axis.

* Compound form of the packed rows:  for P = (i<j) and a = (alpha<beta),
  REa = I - C2(x) with the second compound matrix of x (its 2 x 2 minors)
  C2(x)[P, a] = x_{i alpha} x_{j beta} - x_{i beta} x_{j alpha}, and IMa is
  the packed adjoint map of x, IMa^T c = pack([x, c]) -- the commutator
  identity of the drift.  IMa[P, a] is nonzero only where P and a share one
  index, one entry of x per slot.  :func:`diffusion` gathers both straight from x.
  :func:`diffusion_channels` reads its rows off the tables
  RE[i, j, a] = Re X_{ij}^a and IM[i, j, a] = Im X_{ij}^a instead, so the
  channel sum rebuilds D by a second, independent derivation.  A third, the
  explicit polynomial form summed over the dense coupling tensor, is a test
  oracle in ``tests/coupling_oracle.py``.

* Divergence of the diffusion (closed form):
  (div D)^a = sum_m d_m D^{am} = -8 (3 - 2M) sum g_{ijkl} x_{kl} Im X_{ij}^a,
  and the full drift is A = Abar + div D
  = 4 Im X_{ij}^a [ (4M - 3)(g.x)_{ij} - t_{ij} ].
  (The divergence here sums the derivative pair index over independent
  components m = (mu < nu) only, matching the equation of motion; summing
  both orderings would double it.)
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionError, OffBoundaryError
from .tensors import (
    CouplingMatrix,
    PhasePoint,
    QuarticCoupling,
    _compile_rate,
    _drift_rate,
    _Frozen,
    _pack,
    _pair_rows_cols,
    domain_margin,
    pair_count,
)

__all__ = [
    "diffusion",
    "diffusion_channels",
    "ChannelDecomposition",
    "drift_bar",
    "div_diffusion",
    "drift",
    "drift_alternative",
    "drift_matrix",
    "tangency_residual",
]

# largest |domain margin| at which tangency_residual takes x to be on the boundary
_BOUNDARY_TOL = 1e-8


def _re_im_tables(M: int, xm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RE[..., i, j, p] and IM[..., i, j, p] over all index pairs and packed pairs p.

    ``xm`` is one full matrix or a stack (..., 2M, 2M).
    """
    al, be = _pair_rows_cols(M)
    p = np.arange(len(al))
    # x_{i alpha} -> (..., n, npairs); x_{beta j} -> (..., npairs, n)
    xia = xm[..., :, al]
    xbj = xm[..., be, :]
    RE = xia[..., :, None, :] * xbj.swapaxes(-1, -2)[..., None, :, :]
    RE[..., al, be, p] += 1.0  # d_{i alpha} d_{beta j}: i = alpha, j = beta
    IM = np.zeros_like(RE)
    IM[..., :, be, p] = -xia  # -x_{i alpha} d_{beta j}: j = beta
    # the split advanced indices put the pair axis first: (npairs, ..., n)
    IM[..., al, :, p] += np.moveaxis(xbj, -2, 0)  # d_{i alpha} x_{beta j}: i = alpha
    return RE, IM


def _check_dims(x: PhasePoint, *couplings, stack: bool = False) -> None:
    """Every coupling matches x's M; x is a single point unless ``stack``."""
    if not stack and x.packed.ndim != 1:
        raise DimensionError("this function takes a single phase point, not a stack")
    for c in couplings:
        if c.M != x.M:
            raise DimensionError(f"coupling M={c.M} does not match phase point M={x.M}")


# constants appended to the flat x that the compound gathers read: 0, 1, -1
_COMPOUND_CONSTANTS = np.array([0.0, 1.0, -1.0])


@lru_cache(maxsize=None)
def _compound_index(M: int) -> tuple[np.ndarray, ...]:
    """Flat indices into x, extended by :data:`_COMPOUND_CONSTANTS`, of the compound rows.

    Rows P = (i<j), columns a = (alpha<beta).  The (npairs, npairs)
    gathers are (i beta), (j alpha), (i alpha), (j beta) of the minors C2,
    then the source of IMa.  On P = a the third and fourth read 1 and -1 in
    place of x_ii x_jj = 0, so that ib ja - ia jb = 1 - C2 there: the
    identity of REa = I - C2(x).  Of the four terms of
    IMa[P, a] = Im X_{ij}^a - Im X_{ji}^a,
    -x_{i alpha} d_{beta j} + d_{i alpha} x_{beta j} + x_{j alpha} d_{beta i}
    - d_{j alpha} x_{beta i}, one survives where P and a share one index and
    none elsewhere (on P = a the survivors cancel); antisymmetry takes each
    sign into the source, -x_{i alpha} = x_{alpha i}, and where none
    survives the source reads the appended 0.
    """
    n = 2 * M
    rows, cols = _pair_rows_cols(M)
    i, j = rows[:, None], cols[:, None]
    al, be = rows[None, :], cols[None, :]
    diagonal = (i == al) & (j == be)
    ib, ja, ia, jb = (r * n + c for r, c in ((i, be), (j, al), (i, al), (j, be)))
    shared = [be == j, al == i, be == i, al == j]
    sources = [al * n + i, be * n + j, j * n + al, i * n + be]
    out = (ib, ja, np.where(diagonal, n * n + 1, ia), np.where(diagonal, n * n + 2, jb),
           np.where(diagonal, n * n, np.select(shared, sources, n * n)))
    for a in out:
        a.flags.writeable = False
    return out


def _compound_rows(M: int, xm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """REa = I - C2(x) and IMa, the packed adjoint map of x, as (..., npairs, npairs) arrays.

    ``xm`` is one full matrix or a stack (..., 2M, 2M).  Both are gathers
    from the flat x extended by :data:`_COMPOUND_CONSTANTS` (see
    :func:`_compound_index`).
    """
    ib, ja, ia, jb, src = _compound_index(M)
    lead = xm.shape[:-2]
    flat = np.empty(lead + (4 * M * M + 3,))
    flat[..., :-3] = xm.reshape(lead + (-1,))
    flat[..., -3:] = _COMPOUND_CONSTANTS
    REa = (flat.take(ib, axis=-1) * flat.take(ja, axis=-1)
           - flat.take(ia, axis=-1) * flat.take(jb, axis=-1))
    return REa, flat.take(src, axis=-1)


def diffusion(x: PhasePoint, g: QuarticCoupling) -> np.ndarray:
    """Diffusion matrix D^{am} = -8 sum g Im(X^a X^m) over packed pair indices.

    Symmetric with identically vanishing diagonal (traceless).  The Latin
    sums contract with the compiled block, D = -8 (E + E^T) with
    E = REa[p]^T (G[p, p] IMa[p]) over the touched pairs p, where
    REa = I - C2(x) takes the 2 x 2 minors of x and IMa is the packed
    adjoint map of x, both gathered straight from x (see the module notes);
    the Re/Im tables are not built.

    A stack of B points gives a (B, npairs, npairs) stack of matrices, each
    equal to the diffusion of its point alone bit for bit; a single point
    gives one matrix.
    """
    _check_dims(x, g, stack=True)
    pairs, _, _, K0 = g.pair_block
    REa, IMa = _compound_rows(x.M, x.matrix())
    E = REa.take(pairs, axis=-2).swapaxes(-1, -2) @ (K0[:len(pairs)] @ IMa.take(pairs, axis=-2))
    return -8.0 * (E + E.swapaxes(-1, -2))


class ChannelDecomposition(_Frozen):
    """Diffusion split into rank-1 channels, one per ordered nonzero tuple.

    Channel t holds the 1-based ordered tuple ``indices[t]`` = (i, j, k, l)
    and the weight ``weights[t]`` = 4 g for that ordering.  It reads row
    r = (i, j) of the flattened table ``re_rows`` (RE[i, j, :], shape
    (4M^2, npairs)) and row s = (k, l) of ``im_rows`` (IM[k, l, :]); with
    u = re_rows[r] and v = im_rows[s] its forward/backward vectors are
    b_minus = u - v and b_plus = u + v, and it contributes
    w (b_minus b_minus^T - b_plus b_plus^T) = -2 w (u v^T + v u^T) to D.
    So the channel sum and the channel traces are products of the two
    tables with (4M^2)-sized weight and Gram matrices; the (24 nq, npairs)
    vectors are gathered only when :attr:`b_minus` or :attr:`b_plus` is read.

    The tables of a stack of B points carry a leading axis, (B, 4M^2,
    npairs), and so does every result; each point's results equal those of
    its own decomposition bit for bit.
    """

    M: int
    indices: np.ndarray
    weights: np.ndarray
    re_rows: np.ndarray
    im_rows: np.ndarray

    def __init__(self, M: int, indices: np.ndarray, weights: np.ndarray,
                 re_rows: np.ndarray, im_rows: np.ndarray):
        self.__dict__.update(M=M, indices=indices, weights=weights, re_rows=re_rows,
                             im_rows=im_rows)

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The table rows r = (i, j) and s = (k, l) that each channel reads."""
        n = 2 * self.M
        t = self.indices - 1
        return t[:, 0] * n + t[:, 1], t[:, 2] * n + t[:, 3]

    @property
    def b_minus(self) -> np.ndarray:
        """The vectors u - v, one row per channel, gathered on access."""
        r, s = self._rows()
        return self.re_rows.take(r, axis=-2) - self.im_rows.take(s, axis=-2)

    @property
    def b_plus(self) -> np.ndarray:
        """The vectors u + v, one row per channel, gathered on access."""
        r, s = self._rows()
        return self.re_rows.take(r, axis=-2) + self.im_rows.take(s, axis=-2)

    @cached_property
    def _weight_matrix(self) -> np.ndarray:
        """W[r, s]: the weight of the channel that reads rows (r, s), 0 where none does.

        One np.bincount over this decomposition's own ``indices`` and
        ``weights``; a tuple fixes both rows, so each entry holds at most one
        channel's weight.
        """
        r, s = self._rows()
        rows = self.re_rows.shape[-2]
        W = np.bincount(r * rows + s, weights=self.weights, minlength=rows * rows)
        return W.reshape(rows, rows)

    def reconstruct(self) -> np.ndarray:
        """Sum of all rank-1 channels, -2 (S + S^T) with S = RE^T W IM."""
        S = (self.re_rows.swapaxes(-1, -2) @ self._weight_matrix) @ self.im_rows
        return -2.0 * (S + S.swapaxes(-1, -2))

    def traces(self) -> tuple:
        """Forward and backward traces sum_t |w_t| |f_t|^2 and sum_t |w_t| |k_t|^2.

        The forward vector f_t is b_minus where w_t > 0 and b_plus otherwise,
        and k_t is the other one, so that the forward minus the backward
        channel sum is D.  With |b_minus/plus|^2 = |u|^2 + |v|^2 -+ 2 u.v the
        traces are a -+ c: a = sum_t |w_t| (|u_t|^2 + |v_t|^2), from the
        table row norms and the row and column sums of |W|, and
        c = 2 sum_t w_t u_t.v_t, from W times one cross Gram of the tables.
        Two floats for a single point; two arrays of B traces for a stack.
        Every sum runs over one point's own axes, so a point's traces do not
        depend on the stack it is in.
        """
        W = self._weight_matrix
        size = np.abs(W)
        a = (((self.re_rows * self.re_rows).sum(axis=-1) * size.sum(axis=1)).sum(axis=-1)
             + ((self.im_rows * self.im_rows).sum(axis=-1) * size.sum(axis=0)).sum(axis=-1))
        cross = self.re_rows @ self.im_rows.swapaxes(-1, -2)
        cross *= W
        c = 2.0 * cross.sum(axis=(-2, -1))
        return a - c, a + c


def diffusion_channels(x: PhasePoint, g: QuarticCoupling) -> ChannelDecomposition:
    """Forward/backward channels B(+-)^a = Re X_{ij}^a +- Im X_{kl}^a, for one point or a stack.

    One channel per ordered tuple (24 per stored quadruple), each reading one
    row of the Re/Im tables by the ordered tuples cached on the coupling: the
    expansion cannot be collapsed onto canonical quadruples because each
    ordering carries a distinct rank-1 geometry.  :func:`diffusion` never
    builds the tables, so the channel sum rebuilds D by an independent
    route: an error in either one fails the reconstruction (see
    :func:`majoranaq.suites.run_traceless_and_channels`).  A stack of B
    points gives tables with a leading axis of B (see
    :class:`ChannelDecomposition`).
    """
    _check_dims(x, g, stack=True)
    M = x.M
    RE, IM = _re_im_tables(M, x.matrix())
    rows = RE.shape[:-3] + (4 * M * M, -1)
    tuples, weights = g.ordered_tuples
    return ChannelDecomposition(M, tuples + 1, 4.0 * weights, RE.reshape(rows), IM.reshape(rows))


def drift_bar(x: PhasePoint, t: CouplingMatrix, g: QuarticCoupling) -> np.ndarray:
    """First-order coefficient Abar^a = 4 Im X_{ij}^a (3 (g.x)_{ij} - t_{ij}).

    The identity-part of x+ in the cubic term is annihilated by the
    antisymmetry of g, so the evaluation stays in real arithmetic:
    c = 12 (g.x) - 4 t = 24 G v - 4 t.
    """
    _check_dims(x, t, g)
    return _pack(x.M, _compile_rate(g, t, 24.0, -4.0)(x.matrix()))


def div_diffusion(x: PhasePoint, g: QuarticCoupling) -> np.ndarray:
    """Closed form of the diffusion divergence sum_m d_m D^{am}.

    Equals -8 (3 - 2M) sum g_{ijkl} x_{kl} Im X_{ij}^a with the derivative
    pair index summed over independent components; checked against the
    polynomial-exact central stencils of :func:`diffusion` (D is cubic in x)
    by the acceptance tests' ``run_appendix_c`` (``tests/acceptance_runners.py``).
    """
    _check_dims(x, g)
    rate = _compile_rate(g, CouplingMatrix.zero(x.M), -16.0 * (3 - 2 * x.M), 0.0)
    return _pack(x.M, rate(x.matrix()))


def drift(x: PhasePoint, t: CouplingMatrix, g: QuarticCoupling) -> np.ndarray:
    """Full drift A = Abar + div D = 4 Im X_{ij}^a [(4M-3)(g.x)_{ij} - t_{ij}]."""
    _check_dims(x, t, g)
    return _pack(x.M, _drift_rate(g, t)(x.matrix()))


def drift_alternative(x: PhasePoint, t: CouplingMatrix, g: QuarticCoupling) -> np.ndarray:
    """Alternative closed-form assembly of the drift, kept for arbitration.

    Builds the commutator [x, c] with c = (64M - 120)(g.x) + 4t, that is
    4 Im X_{ij}^a [(16M - 30)(g.x)_{ij} + t_{ij}], where :func:`drift` has
    4 Im X_{ij}^a [(4M - 3)(g.x)_{ij} - t_{ij}]: the coupling coefficients
    differ and t has the opposite sign.  This is the form that the ``eq50``
    report records (``verify --drift-form eq50``, informational), through
    :func:`majoranaq.fock.verify_fpe`.
    """
    _check_dims(x, t, g)
    return _pack(x.M, _compile_rate(g, t, 2.0 * (64 * x.M - 120.0), 4.0)(x.matrix()))


def drift_matrix(x: PhasePoint, t: CouplingMatrix, g: QuarticCoupling) -> np.ndarray:
    """The drift as a full antisymmetric matrix A_{ab} (A_{ba} = -A_{ab}).

    Evaluated by the same stage kernel as :func:`majoranaq.dynamics.flow`.
    """
    _check_dims(x, t, g)
    return _drift_rate(g, t)(x.matrix())


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


def _rhs_forms(x: PhasePoint, t: CouplingMatrix, g: QuarticCoupling, grad, hess,
               full_drift=drift) -> list:
    """The two right sides of the FPE at x, as [defining, conservative].

    The defining form is dQ/dt = -sum_a Abar^a grad_a
    + (1/2) sum_{am} D^{am} hess_{am}.  The conservative form is the
    probability-conserving d_a [-A^a + (1/2) d_m D^{am}] Q, expanded as
    -(div A) q - A.grad + (1/2)(div div D) q + (div D).grad + (1/2) D : hess.
    Both divergences vanish in closed form, so the q terms are left out and
    the two sides agree to rounding; a caller that measures the divergences
    adds -(div A) q + (1/2)(div div D) q itself.

    ``full_drift`` assembles the drift A of the conservative side:
    :func:`drift`, or :func:`drift_alternative` for the recorded eq50 form.
    Both sides end in the same (1/2) D : hess, which is evaluated once, and
    only for a coupling with quartic entries.
    """
    grad, hess = _derivative_arrays(x.M, grad, hess)
    sides = [-float(drift_bar(x, t, g) @ grad),
             -float(full_drift(x, t, g) @ grad) + float(div_diffusion(x, g) @ grad)]
    if g.table:
        term = 0.5 * float(np.einsum("pq,pq->", diffusion(x, g), hess))
        sides = [side + term for side in sides]
    return sides


def tangency_residual(
    x: PhasePoint,
    t: CouplingMatrix,
    g: QuarticCoupling,
) -> np.ndarray:
    """Boundary tangency defect x A + A x for the drift matrix A.

    On the pure-state boundary x^2 = -I this is [x^2, c] = [-I, c] = 0 for the
    commutator-form drift A = [x, c], so the residual measures how exactly the
    drift is tangent to the boundary.  Raises if x is off the boundary by
    more than :data:`_BOUNDARY_TOL` in domain margin.
    """
    margin = domain_margin(x)
    if abs(margin) > _BOUNDARY_TOL:
        raise OffBoundaryError(margin, _BOUNDARY_TOL)
    A = drift_matrix(x, t, g)
    xm = x.matrix()
    return xm @ A + A @ xm
