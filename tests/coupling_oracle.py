"""Reference forms of couplings, built loop by loop, used only by the tests.

:func:`dense_pair_matrix` builds the full pair-space matrix G[P, Q] = g_{PQ}
(P = (i<j), Q = (k<l) packed) from the canonical quadruples: a quadruple
a<b<c<d fills its three pair splits (ab|cd), (ac|bd), (ad|bc) with signs
+, -, +, each in both orders.  The library never builds G; it keeps only the
block of G over the pairs a coupling touches, and the tests pin that block,
and every kernel formula that reads it, against this matrix.

:func:`dense_by_permutations` expands each quadruple over
``itertools.permutations`` with the sign of an insertion sort
(``tensors._sort_sign``), one scalar at a time, into the (2M)^4 tensor
g_{ijkl}; the tests pin the coupling's 24-ordering tables against it.
:func:`diffusion_expanded` sums the diffusion's explicit polynomial form
over that tensor, a derivation independent of the kernel's compiled block
and of its channel decomposition.

:func:`hubbard_chain_config` writes a Hubbard chain's config out as explicit
entries, site by site, from the mode layout that :mod:`majoranaq.hubbard`
documents, without its builder: the twin of a ``preset`` config.
:func:`fermi_hubbard_matrix` builds the chain's Hamiltonian from ladder
operators, and :func:`hubbard_comparison` checks the Majorana build of a
preset against it.
"""

from __future__ import annotations

import itertools

import numpy as np

from majoranaq import (
    ModelConfig,
    PhasePoint,
    QuarticCoupling,
    build_hamiltonian,
    chain_entries,
    config_to_spec,
    jordan_wigner_ladders,
    pair_count,
    pair_enumerate,
)
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


def diffusion_expanded(x: PhasePoint, g: QuarticCoupling) -> np.ndarray:
    """The diffusion via its explicit polynomial form, one ordered tuple at a time.

    Evaluates, per ordered tuple, -4 g [ (xx - xd + dx + dd)(xx - xd + dx + dd)
    - (xx + xd - dx + dd)(xx + xd - dx + dd) ] in the phase-space variables,
    over the dense coupling tensor of :func:`dense_by_permutations`.
    """
    M = x.M
    xm = x.matrix()
    npairs = pair_count(M)
    al, be = np.triu_indices(2 * M, k=1)
    eye = np.eye(2 * M)
    D = np.zeros((npairs, npairs))
    dense = dense_by_permutations(g)
    for idx in np.argwhere(dense != 0.0):
        i, j, k, l = idx
        gv = dense[i, j, k, l]
        f1 = xm[i, al] * xm[be, j] - xm[i, al] * eye[be, j] + eye[i, al] * xm[be, j] + eye[i, al] * eye[be, j]
        f2 = xm[k, al] * xm[be, l] - xm[k, al] * eye[be, l] + eye[k, al] * xm[be, l] + eye[k, al] * eye[be, l]
        f3 = xm[i, al] * xm[be, j] + xm[i, al] * eye[be, j] - eye[i, al] * xm[be, j] + eye[i, al] * eye[be, j]
        f4 = xm[k, al] * xm[be, l] + xm[k, al] * eye[be, l] - eye[k, al] * xm[be, l] + eye[k, al] * eye[be, l]
        D += -4.0 * gv * (np.outer(f1, f2) - np.outer(f3, f4))
    return D


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


def fermi_hubbard_matrix(sites: int, hop: float, onsite: float) -> np.ndarray:
    """The Hubbard chain's matrix built directly from ladder operators."""
    M = 2 * sites
    a = jordan_wigner_ladders(M)
    dim = 2 ** M
    H = np.zeros((dim, dim), dtype=complex)
    for s in range(sites - 1):
        for spin_offset in (0, sites):
            m, n = s + spin_offset, s + 1 + spin_offset
            H += -hop * (a[m].conj().T @ a[n] + a[n].conj().T @ a[m])
    for s in range(sites):
        n_up = a[s].conj().T @ a[s]
        n_dn = a[sites + s].conj().T @ a[sites + s]
        H += onsite * n_up @ n_dn
    return H


def hubbard_comparison(sites: int, hop: float, onsite: float) -> float:
    """Max residual between the Majorana build and the ladder-operator build of one chain.

    The Majorana side is the model a preset config gives: the chain's entries
    from :func:`majoranaq.hubbard.chain_entries` through
    :func:`majoranaq.config.config_to_spec`.  The two differ by the reported
    identity shift; the comparison removes it by subtracting the trace part
    of each matrix.
    """
    t, g, _shift = chain_entries(sites, hop, onsite)
    h_majorana = build_hamiltonian(config_to_spec(ModelConfig(2 * sites, t, g)))
    h_direct = fermi_hubbard_matrix(sites, hop, onsite)
    dim = h_direct.shape[0]

    def traceless(mat: np.ndarray) -> np.ndarray:
        return mat - np.trace(mat) / dim * np.eye(dim)

    return float(np.max(np.abs(traceless(h_majorana) - traceless(h_direct))))
