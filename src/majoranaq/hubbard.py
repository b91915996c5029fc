"""Fermi-Hubbard chain preset expressed in Majorana couplings.

Mode layout for S sites: spin-up orbitals are modes 1..S, spin-down orbitals
are modes S+1..2S, so M = 2S.  With n_k = (1 + i gamma_k gamma_{M+k}) / 2 the
Hubbard Hamiltonian

    H = -J sum_{s,sigma} (a^dag_{s,sigma} a_{s+1,sigma} + h.c.)
        + U sum_s n_{s,up} n_{s,down}

maps onto hopping entries t_{m, M+n} = t_{n, M+m} = -J/4 per bond, on-site
quadratic entries t_{k, M+k} = U/8, one quartic entry U/48 on the sorted
quadruple of each site's four Majorana labels, and an additive constant
U S / 4 that has no Majorana representation and is reported, not encoded.

:func:`chain_entries` writes the chain as canonical config entries.  A
``preset`` in a config is expanded into them when the config is parsed
(:func:`majoranaq.config.parse_config`), and :func:`preset_hubbard` builds
its model from them the same way, so a preset and its written-out entries
give the same model bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import DimensionError

if TYPE_CHECKING:
    import numpy as np

    from .tensors import HamiltonianSpec

__all__ = [
    "chain_entries",
    "preset_hubbard",
    "fermi_hubbard_matrix",
    "hubbard_comparison",
]

# the longest chain any command runs: M = 16, the mode-count cap of ``flow``
_MAX_SITES = 8


def chain_entries(sites: int, hop: float, onsite: float) -> tuple[tuple, tuple, float]:
    """The Hubbard chain's canonical config entries, and its identity shift.

    Returns ``(t_entries, g_entries, shift)``: the 1-based entries
    ``(i, j, value)``, i < j, and ``(i, j, k, l, value)``, i < j < k < l,
    sorted and without zero values, as :func:`majoranaq.config.parse_config`
    stores them.  Uses the standard library only, so the ``preset`` command
    loads no numpy.
    """
    if sites < 1:
        raise DimensionError(f"need at least one site, got {sites}")
    M = 2 * sites
    # 1-based canonical slots: i <= M < j for t, p < q <= M for g; none repeats
    t = {}
    for s in range(sites - 1):
        for spin_offset in (0, sites):
            m, n = s + spin_offset + 1, s + spin_offset + 2
            t[m, M + n] = t[n, M + m] = -hop / 4.0
    g = {}
    shift = 0.0
    for s in range(sites):
        p, q = s + 1, sites + s + 1
        t[p, M + p] = t[q, M + q] = onsite / 8.0
        g[p, q, M + p, M + q] = onsite / 48.0
        shift += onsite / 4.0
    return (tuple(sorted((*key, v) for key, v in t.items() if v != 0.0)),
            tuple(sorted((*key, v) for key, v in g.items() if v != 0.0)), shift)


def preset_hubbard(sites: int, hop: float, onsite: float) -> tuple[HamiltonianSpec, float]:
    """The Hubbard chain's model and its dropped identity shift: ``(spec, shift)``.

    The spec is built as a preset config's is, by
    :func:`majoranaq.config.config_to_spec` from :func:`chain_entries`.
    """
    from .config import ModelConfig, config_to_spec

    t, g, shift = chain_entries(sites, hop, onsite)
    return config_to_spec(ModelConfig(2 * sites, t, g)), shift


def fermi_hubbard_matrix(sites: int, hop: float, onsite: float) -> np.ndarray:
    """Reference Hubbard matrix built directly from ladder operators."""
    import numpy as np

    from .fock import jordan_wigner_ladders

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

    The two differ by the reported identity shift; the comparison removes it
    by subtracting the trace part of each matrix.
    """
    import numpy as np

    from .fock import build_hamiltonian

    h_majorana = build_hamiltonian(preset_hubbard(sites, hop, onsite)[0])
    h_direct = fermi_hubbard_matrix(sites, hop, onsite)
    dim = h_direct.shape[0]

    def traceless(mat: np.ndarray) -> np.ndarray:
        return mat - np.trace(mat) / dim * np.eye(dim)

    return float(np.max(np.abs(traceless(h_majorana) - traceless(h_direct))))
