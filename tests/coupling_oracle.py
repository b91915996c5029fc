"""Reference forms of couplings, built loop by loop, used only by the tests.

:func:`dense_pair_matrix` builds the full pair-space matrix G[P, Q] = g_{PQ}
(P = (i<j), Q = (k<l) packed) from the canonical quadruples: a quadruple
a<b<c<d fills its three pair splits (ab|cd), (ac|bd), (ad|bc) with signs
+, -, +, each in both orders.  The library never builds G; it keeps only the
block of G over the pairs a coupling touches, and the tests pin that block,
and every kernel formula that reads it, against this matrix.

:func:`dense_by_permutations` and :func:`antisymmetrize_by_permutations`
expand each quadruple over ``itertools.permutations`` with the sign of an
insertion sort (``tensors._sort_sign``), one scalar at a time, as the
library did before it read its 24-ordering tables.

:func:`hubbard_chain_config` writes a Hubbard chain's config out as explicit
entries, site by site, from the mode layout that :mod:`majoranaq.hubbard`
documents, without its builder: the twin of a ``preset`` config.
"""

from __future__ import annotations

import itertools

import numpy as np

from majoranaq import QuarticCoupling, pair_count, pair_enumerate
from majoranaq.tensors import _sort_sign


def dense_pair_matrix(g: QuarticCoupling) -> np.ndarray:
    """G[P, Q] = g_{PQ} over packed pairs, as a dense npairs x npairs array."""
    slot = {(p.alpha, p.beta): p.linear for p in pair_enumerate(g.M)}
    G = np.zeros((pair_count(g.M), pair_count(g.M)))
    for (a, b, c, d), v in g.items():
        for left, right, value in (((a, b), (c, d), v), ((a, c), (b, d), -v),
                                   ((a, d), (b, c), v)):
            G[slot[left], slot[right]] = G[slot[right], slot[left]] = value
    return G


def dense_by_permutations(g: QuarticCoupling) -> np.ndarray:
    """The (2M)^4 tensor g_{ijkl}, one signed ordering at a time."""
    n = 2 * g.M
    out = np.zeros((n, n, n, n))
    for (i, j, k, l), v in g.table.items():
        for perm in itertools.permutations((i - 1, j - 1, k - 1, l - 1)):
            _, sign = _sort_sign(perm)
            out[perm] = sign * v
    return out


def antisymmetrize_by_permutations(dense: np.ndarray, M: int) -> QuarticCoupling:
    """The antisymmetric projection of ``dense``, summed term by term in permutation order."""
    table = {}
    for quad in itertools.combinations(range(2 * M), 4):
        acc = 0.0
        for perm in itertools.permutations(range(4)):
            _, sign = _sort_sign(perm)
            acc += sign * dense[tuple(quad[p] for p in perm)]
        v = acc / 24.0
        if v != 0.0:
            table[tuple(q + 1 for q in quad)] = v
    return QuarticCoupling(M, table)


def hubbard_chain_config(sites: int, hop: float, onsite: float, seed: int = 0) -> dict:
    """The config of a Hubbard chain with its entries written out, sorted, zeros left out.

    Spin-up orbital s is mode s and spin-down orbital s mode S + s, and mode
    k has the Majorana labels k and M + k.  Each orbital adds U/8 at
    (k, M + k), each bond of a spin -J/4 at (k, M + k + 1) and (k + 1, M + k),
    and each site U/48 on its four labels.
    """
    M = 2 * sites
    t, g = [], []
    for s in range(1, sites + 1):
        for k in (s, sites + s):
            t.append([k, M + k, onsite / 8.0])
            if s < sites:
                t += [[k, M + k + 1, -hop / 4.0], [k + 1, M + k, -hop / 4.0]]
        g.append([s, sites + s, M + s, M + sites + s, onsite / 48.0])
    return {"M": M, "t_entries": sorted(e for e in t if e[-1] != 0.0),
            "g_entries": [e for e in g if e[-1] != 0.0], "seed": seed}
