"""Model configuration files (JSON, 1-based indices, canonical entry order).

Schema::

    {
      "M": 2,
      "t_entries": [[i, j, value], ...],        # 1 <= i < j <= 2M
      "g_entries": [[i, j, k, l, value], ...],  # 1 <= i < j < k < l <= 2M
      "preset": {"name": "hubbard", "sites": 1, "hop": 0.0,
                 "onsite": 4.0, "geometry": "chain"},
      "seed": 42,
      "tolerances": {"fpe": 1e-5, ...}
    }

Either explicit entries or a preset may be given, not both.  Entries must be
in canonical (strictly increasing) index order and unique; anything else is a
user error and is rejected rather than silently antisymmetrized.  Coupling
values must be finite numbers, and tolerance overrides must name a pinned
tolerance of :data:`majoranaq.suites.TOLERANCES` and be finite and positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .hubbard import preset_hubbard
from .suites import TOLERANCES
from .tensors import CouplingMatrix, HamiltonianSpec, QuarticCoupling

__all__ = ["ModelConfig", "load_config", "parse_config", "emit_config", "config_to_spec"]

_PRESET_KEYS = {"name", "sites", "hop", "onsite", "geometry"}


@dataclass(frozen=True)
class ModelConfig:
    M: int
    t_entries: tuple = ()
    g_entries: tuple = ()
    preset: dict | None = None
    seed: int = 0
    tolerances: dict = field(default_factory=dict)


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
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value!r}", field=name)
    return value


def _parse_tolerances(tolerances) -> dict:
    """Overrides of named pinned tolerances; each must be finite and positive."""
    if not isinstance(tolerances, dict):
        raise ConfigError("must be a map of named tolerances", field="tolerances")
    parsed = {}
    for name, value in tolerances.items():
        if name not in TOLERANCES:
            raise ConfigError(
                f"unknown tolerance {name!r}; known: {', '.join(sorted(TOLERANCES))}",
                field="tolerances",
            )
        value = _require_number(value, f"tolerances.{name}")
        if value <= 0.0:
            raise ConfigError(f"must be positive, got {value!r}", field=f"tolerances.{name}")
        parsed[name] = value
    return parsed


def parse_config(data: dict) -> ModelConfig:
    """Validate a decoded configuration dictionary."""
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")
    unknown = set(data) - {"M", "t_entries", "g_entries", "preset", "seed", "tolerances"}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}")
    if "M" not in data:
        raise ConfigError("required", field="M")
    M = _require_int(data["M"], "M")
    if M < 1:
        raise ConfigError("mode count must be >= 1", field="M")
    n = 2 * M
    t_entries = []
    seen_t = set()
    for pos, entry in enumerate(_require_list(data.get("t_entries", []), "t_entries")):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ConfigError(f"entry {pos} must be [i, j, value]", field="t_entries")
        i, j, v = entry
        i = _require_int(i, f"t_entries[{pos}].i")
        j = _require_int(j, f"t_entries[{pos}].j")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ConfigError(f"indices ({i},{j}) outside [1, {n}]", field="t_entries")
        if i >= j:
            raise ConfigError(
                f"entry ({i},{j}) not in canonical order i < j", field="t_entries"
            )
        if (i, j) in seen_t:
            raise ConfigError(f"duplicate canonical entry ({i},{j})", field="t_entries")
        seen_t.add((i, j))
        t_entries.append((i, j, _require_number(v, f"t_entries[{pos}].value")))
    g_entries = []
    seen_g = set()
    for pos, entry in enumerate(_require_list(data.get("g_entries", []), "g_entries")):
        if not isinstance(entry, (list, tuple)) or len(entry) != 5:
            raise ConfigError(
                f"entry {pos} must be [i, j, k, l, value]", field="g_entries"
            )
        *idx, v = entry
        idx = tuple(_require_int(q, f"g_entries[{pos}]") for q in idx)
        if any(not 1 <= q <= n for q in idx):
            raise ConfigError(f"indices {idx} outside [1, {n}]", field="g_entries")
        if len(set(idx)) < 4:
            raise ConfigError(
                f"indices {idx} repeat; a fully antisymmetric coupling vanishes there",
                field="g_entries",
            )
        if list(idx) != sorted(idx):
            raise ConfigError(
                f"quadruple {idx} not in canonical order i < j < k < l",
                field="g_entries",
            )
        if idx in seen_g:
            raise ConfigError(f"duplicate canonical quadruple {idx}", field="g_entries")
        seen_g.add(idx)
        g_entries.append((*idx, _require_number(v, f"g_entries[{pos}].value")))
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
    seed = _require_int(data.get("seed", 0), "seed")
    tolerances = _parse_tolerances(data.get("tolerances", {}))
    return ModelConfig(M, tuple(t_entries), tuple(g_entries), preset, seed, tolerances)


def load_config(path: str) -> ModelConfig:
    """Read and validate a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(data)


def emit_config(cfg: ModelConfig) -> dict:
    """Inverse of :func:`parse_config`: a JSON-serializable dictionary."""
    out: dict = {"M": cfg.M, "seed": cfg.seed}
    if cfg.t_entries:
        out["t_entries"] = [[i, j, v] for i, j, v in cfg.t_entries]
    if cfg.g_entries:
        out["g_entries"] = [[i, j, k, l, v] for i, j, k, l, v in cfg.g_entries]
    if cfg.preset is not None:
        out["preset"] = dict(cfg.preset)
    if cfg.tolerances:
        out["tolerances"] = dict(cfg.tolerances)
    return out


def config_to_spec(cfg: ModelConfig) -> tuple[HamiltonianSpec, float]:
    """Materialize the Hamiltonian couplings; returns (spec, identity shift)."""
    if cfg.preset is not None:
        preset = preset_hubbard(
            cfg.preset.get("sites", 1),
            float(cfg.preset.get("hop", 0.0)),
            float(cfg.preset.get("onsite", 0.0)),
            cfg.preset.get("geometry", "chain"),
        )
        return HamiltonianSpec(preset.M, preset.t, preset.g), preset.identity_shift
    t = CouplingMatrix.from_entries(cfg.M, cfg.t_entries)
    g = QuarticCoupling.from_entries(cfg.M, cfg.g_entries)
    return HamiltonianSpec(cfg.M, t, g), 0.0
