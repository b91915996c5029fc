"""Scalar references for the four-index products X_{ij}^{(alpha beta)}, used only by the tests.

With x+- = x +- iI, the products are X_{ij}^{(alpha beta)} = x+_{i alpha} x-_{beta j},
with real and imaginary parts

    Re X_{ij}^{ab} = x_{ia} x_{bj} + d_{ia} d_{bj}
    Im X_{ij}^{ab} = -x_{ia} d_{bj} + d_{ia} x_{bj}.

The library never evaluates them one at a time: it reads them off the Re/Im
tables of :func:`majoranaq.kernel._re_im_tables`, or as commutators and
compound-matrix rows.  The tests pin those forms, and the drift sums, against
these scalars, taken straight from the definitions.  Indices are 1-based.
"""

from __future__ import annotations

import numpy as np

from majoranaq import PhasePoint
from majoranaq.tensors import _check_range


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
    _check_range(x.M, i, j, alpha, beta)
    xp, xm = x_plus_minus(x)
    return complex(xp[i - 1, alpha - 1] * xm[beta - 1, j - 1])


def re_x(x: PhasePoint, i: int, j: int, alpha: int, beta: int) -> float:
    """Re X_{ij}^{(alpha beta)} = x_{i alpha} x_{beta j} + d_{i alpha} d_{beta j}."""
    _check_range(x.M, i, j, alpha, beta)
    xm = x.matrix()
    i, j, a, b = i - 1, j - 1, alpha - 1, beta - 1
    return float(xm[i, a] * xm[b, j] + (i == a) * (b == j))


def im_x(x: PhasePoint, i: int, j: int, alpha: int, beta: int) -> float:
    """Im X_{ij}^{(alpha beta)} = -x_{i alpha} d_{beta j} + d_{i alpha} x_{beta j}."""
    _check_range(x.M, i, j, alpha, beta)
    xm = x.matrix()
    i, j, a, b = i - 1, j - 1, alpha - 1, beta - 1
    return float(-xm[i, a] * (b == j) + (i == a) * xm[b, j])
