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
(:func:`majoranaq.config.parse_config`), the one path from a preset to its
model, so a preset and its written-out entries give the same model bit for
bit; the ``preset`` command counts them.  The ladder-operator build of the
same chain, which the Majorana build is checked against, is a test oracle in
``tests/coupling_oracle.py``.
"""

from __future__ import annotations

from . import _MAX_M
from .errors import ConfigError, DimensionError

__all__ = ["chain_entries"]

# the longest chain any command runs: two modes per site
_MAX_SITES = _MAX_M // 2


def _check_sites(sites: int, field: str) -> None:
    """Refuse a chain longer than :data:`_MAX_SITES`, naming the option or config ``field``."""
    if sites > _MAX_SITES:
        raise ConfigError(f"must be <= {_MAX_SITES}, the largest chain any command runs, "
                          f"got {sites}", field=field)


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

