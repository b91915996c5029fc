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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import DimensionError

if TYPE_CHECKING:
    import numpy as np

    from .tensors import CouplingMatrix, QuarticCoupling

__all__ = [
    "HubbardPreset",
    "chain_entries",
    "preset_hubbard",
    "fermi_hubbard_matrix",
    "hubbard_comparison",
]


class HubbardPreset(NamedTuple):
    """Majorana couplings of a Hubbard chain, plus the dropped identity shift.

    A named tuple, like every plain record of the package (see
    :mod:`majoranaq`): it generates no code at import, and its fields
    cannot be assigned.
    """

    sites: int
    t: CouplingMatrix
    g: QuarticCoupling
    identity_shift: float

    @property
    def M(self) -> int:
        return 2 * self.sites


def chain_entries(sites: int, hop: float, onsite: float) -> tuple[dict, dict, float]:
    """1-based canonical Majorana entries of the Hubbard chain, and its identity shift.

    Returns ``(t, g, shift)``: ``t`` maps ``(i, j)``, i < j, to the quadratic
    coupling and ``g`` maps ``(i, j, k, l)``, i < j < k < l, to the quartic
    one.  Zero values are kept; the coupling classes drop them.  Uses
    the standard library only, so the ``preset`` command loads no numpy.
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
    return t, g, shift


def preset_hubbard(sites: int, hop: float, onsite: float) -> HubbardPreset:
    """Couplings (t, g) reproducing the Hubbard chain up to an identity shift."""
    from .tensors import CouplingMatrix, QuarticCoupling

    t, g, shift = chain_entries(sites, hop, onsite)
    M = 2 * sites
    return HubbardPreset(
        sites,
        CouplingMatrix.from_entries(M, [(*key, v) for key, v in t.items()]),
        QuarticCoupling(M, g),
        shift,
    )


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


def hubbard_comparison(preset: HubbardPreset, hop: float, onsite: float) -> float:
    """Max residual between the Majorana build and the ladder-operator build.

    The two differ by the reported identity shift; the comparison removes it
    by subtracting the trace part of each matrix.
    """
    import numpy as np

    from .fock import build_hamiltonian
    from .tensors import HamiltonianSpec

    h_majorana = build_hamiltonian(HamiltonianSpec(preset.M, preset.t, preset.g))
    h_direct = fermi_hubbard_matrix(preset.sites, hop, onsite)
    dim = h_direct.shape[0]

    def traceless(mat: np.ndarray) -> np.ndarray:
        return mat - np.trace(mat) / dim * np.eye(dim)

    return float(np.max(np.abs(traceless(h_majorana) - traceless(h_direct))))
