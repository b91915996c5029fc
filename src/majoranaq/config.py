"""Model configuration files (JSON, 1-based indices, canonical entry order).

Schema::

    {
      "M": 2,
      "t_entries": [[i, j, value], ...],
      "g_entries": [[i, j, k, l, value], ...],
      "preset": {"name": "hubbard", "sites": 1, "hop": 0.0,
                 "onsite": 4.0, "geometry": "chain"},  # expanded into entries
      "seed": 42
    }

Either explicit entries or a preset may be given, not both.  Each coupling
entry must be in range (integer indices in [1, 2M]), repeat no index, list
its indices in increasing order, be unique in its list and have a finite
value.  :func:`_parse_entries` enforces these rules, the first three through
:func:`majoranaq.tensors._index_fault`, which the coupling constructors
share.  Anything else is a user error and is rejected rather than silently
antisymmetrized.  The preset's ``hop`` and ``onsite`` must be finite
numbers, its geometry ``"chain"`` and its chain no longer than
:data:`majoranaq.hubbard._MAX_SITES`, and the seed a non-negative integer.
Any other key is rejected: a config describes a model, and the bars that
``verify`` gates are pinned in :data:`majoranaq.suites.TOLERANCES`, which
no config can change.

A preset is expanded when the config is parsed: :func:`parse_config` stores
the chain's canonical entries (:func:`majoranaq.hubbard.chain_entries`) in
``t_entries`` and ``g_entries``, so a :class:`ModelConfig` holds entries
only, and :func:`config_to_spec` has one path from entries to the model.
The chain's identity shift has no Majorana representation and is not kept.
Only a preset loads :mod:`majoranaq.hubbard`.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .errors import ConfigError
from .tensors import CouplingMatrix, HamiltonianSpec, QuarticCoupling, _index_fault

__all__ = ["ModelConfig", "load_config", "parse_config", "config_to_spec"]

_PRESET_KEYS = {"name", "sites", "hop", "onsite", "geometry"}


class ModelConfig(NamedTuple):
    """A validated model: its mode count, canonical coupling entries and seed.

    A preset is already expanded into ``t_entries`` and ``g_entries``.
    """

    M: int
    t_entries: tuple = ()
    g_entries: tuple = ()
    seed: int = 0


def _require_int(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"expected an integer, got {value!r}", field=name)
    return value


def _require_list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"expected a list, got {value!r}", field=name)
    return value


def _require_number(value, name: str) -> float:
    """A finite real number; booleans, strings and NaN/inf are config errors."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"expected a number, got {value!r}", field=name)
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError("expected a finite number, got an integer beyond the float range",
                          field=name) from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value!r}", field=name)
    return value


def _parse_entries(data: dict, field: str, M: int, names: str) -> list:
    """The coupling entries under ``field``: lists of the indices ``names``, then a value."""
    entries, seen = [], set()
    for pos, entry in enumerate(_require_list(data.get(field, []), field)):
        if not isinstance(entry, (list, tuple)) or len(entry) != len(names) + 1:
            raise ConfigError(f"entry {pos} must be [{', '.join(names)}, value]", field=field)
        *idx, v = entry
        idx = tuple(_require_int(q, f"{field}[{pos}].{name}") for q, name in zip(idx, names))
        if fault := _index_fault(M, idx):
            raise ConfigError(fault, field=field)
        if idx in seen:
            raise ConfigError(f"duplicate canonical entry {idx}", field=field)
        seen.add(idx)
        entries.append((*idx, _require_number(v, f"{field}[{pos}].value")))
    return entries


def parse_config(data: dict) -> ModelConfig:
    """Validate a decoded configuration dictionary."""
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")
    unknown = set(data) - {"M", "t_entries", "g_entries", "preset", "seed"}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}")
    if "M" not in data:
        raise ConfigError("required", field="M")
    M = _require_int(data["M"], "M")
    if M < 1:
        raise ConfigError("mode count must be >= 1", field="M")
    t_entries = _parse_entries(data, "t_entries", M, "ij")
    g_entries = _parse_entries(data, "g_entries", M, "ijkl")
    preset = data.get("preset")
    if preset is not None:
        if not isinstance(preset, dict) or "name" not in preset:
            raise ConfigError("must be an object with a 'name'", field="preset")
        if set(preset) - _PRESET_KEYS:
            raise ConfigError(
                f"unknown keys {sorted(set(preset) - _PRESET_KEYS)}", field="preset"
            )
        if preset["name"] != "hubbard":
            raise ConfigError(f"unknown preset {preset['name']!r}", field="preset")
        if t_entries or g_entries:
            raise ConfigError(
                "preset and explicit t/g entries are mutually exclusive", field="preset"
            )
        sites = _require_int(preset.get("sites", 1), "preset.sites")
        if 2 * sites != M:
            raise ConfigError(
                f"hubbard preset with {sites} sites needs M = {2 * sites}, config has M = {M}",
                field="preset",
            )
        hop = _require_number(preset.get("hop", 0.0), "preset.hop")
        onsite = _require_number(preset.get("onsite", 0.0), "preset.onsite")
        if preset.get("geometry", "chain") != "chain":
            raise ConfigError(
                f"unsupported geometry {preset['geometry']!r}; only 'chain' is available",
                field="preset.geometry",
            )
        from .hubbard import _check_sites, chain_entries  # only a preset loads the Hubbard module

        _check_sites(sites, "preset.sites")  # before the expansion: its entries grow with the sites
        t_entries, g_entries, _shift = chain_entries(sites, hop, onsite)
    seed = _require_int(data.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError(f"must be a non-negative integer, got {seed}", field="seed")
    return ModelConfig(M, tuple(t_entries), tuple(g_entries), seed)


def _read_json(path: str, field: str | None = None):
    """Decode the JSON file at ``path``; a file that is not JSON is a config error.

    Bytes that are not UTF-8, a syntax error, an integer literal with more
    digits than the interpreter converts, and nesting deeper than the
    decoder recurses each raise :class:`ConfigError`, naming ``field``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}", field=field
        ) from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigError(f"parse error: {exc}", field=field) from exc


def load_config(path: str) -> ModelConfig:
    """Read and validate a JSON configuration file."""
    return parse_config(_read_json(path))


def config_to_spec(cfg: ModelConfig) -> HamiltonianSpec:
    """The model of the config's couplings."""
    t = CouplingMatrix.from_entries(cfg.M, cfg.t_entries)
    g = QuarticCoupling.from_entries(cfg.M, cfg.g_entries)
    return HamiltonianSpec(cfg.M, t, g)


def _check_cap(name: str, M: int, cap: int) -> None:
    """Reject a config whose mode count ``M`` exceeds the cap of the command or suite ``name``."""
    if M > cap:
        raise ConfigError(f"'{name}' supports M <= {cap}, config has M = {M}")
