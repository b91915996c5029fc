"""Configuration parsing, validation, and round-tripping."""

import json

import numpy as np
import pytest

from majoranaq import ModelConfig, chain_entries, config_to_spec, load_config, parse_config
from majoranaq.cli import main
from majoranaq.errors import ConfigError

from coupling_oracle import hubbard_chain_config


def _preset(sites, hop, onsite):
    return {"M": 2 * sites, "preset": {"name": "hubbard", "sites": sites, "hop": hop,
                                       "onsite": onsite, "geometry": "chain"}}


class TestParse:
    def test_minimal_quadratic(self):
        cfg = parse_config({"M": 1, "t_entries": [[1, 2, 0.5]]})
        assert cfg.M == 1 and cfg.t_entries == ((1, 2, 0.5),)

    def test_quartic(self):
        cfg = parse_config({"M": 2, "g_entries": [[1, 2, 3, 4, 1.0]]})
        assert cfg.g_entries == ((1, 2, 3, 4, 1.0),)

    def test_repeated_quartic_indices_rejected(self):
        with pytest.raises(ConfigError, match="repeat"):
            parse_config({"M": 1, "g_entries": [[1, 2, 2, 1, 1.0]]})
        # the diagonal of t, which antisymmetry sets to zero
        with pytest.raises(ConfigError, match="t_entries: .*repeat"):
            parse_config({"M": 1, "t_entries": [[2, 2, 0.5]]})

    def test_non_canonical_order_rejected(self):
        with pytest.raises(ConfigError, match="canonical"):
            parse_config({"M": 1, "t_entries": [[2, 1, 0.5]]})
        with pytest.raises(ConfigError, match="canonical"):
            parse_config({"M": 3, "g_entries": [[1, 2, 4, 3, 1.0]]})

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config({"M": 1, "t_entries": [[1, 2, 0.5], [1, 2, 0.25]]})

    def test_out_of_range(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config({"M": 1, "t_entries": [[1, 3, 0.5]]})

    def test_missing_m(self):
        with pytest.raises(ConfigError, match="M"):
            parse_config({"t_entries": []})

    def test_preset_exclusive_with_entries(self):
        with pytest.raises(ConfigError, match="exclusive"):
            parse_config({
                "M": 2,
                "t_entries": [[1, 2, 0.5]],
                "preset": {"name": "hubbard", "sites": 1},
            })

    def test_preset_m_consistency(self):
        with pytest.raises(ConfigError, match="sites"):
            parse_config({"M": 3, "preset": {"name": "hubbard", "sites": 1}})

    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config({"M": 1, "coupling": []})

    @pytest.mark.parametrize("value", ["a", True, None, [0.5], float("nan"), float("inf")])
    def test_malformed_quadratic_value_rejected(self, value):
        with pytest.raises(ConfigError, match=r"t_entries\[0\]\.value"):
            parse_config({"M": 1, "t_entries": [[1, 2, value]]})

    @pytest.mark.parametrize("value", ["a", False, float("nan"), float("-inf")])
    def test_malformed_quartic_value_rejected(self, value):
        with pytest.raises(ConfigError, match=r"g_entries\[1\]\.value"):
            parse_config({"M": 3, "g_entries": [[1, 2, 3, 4, 0.5], [1, 2, 3, 5, value]]})

    def test_malformed_entry_lists_rejected(self):
        with pytest.raises(ConfigError, match="t_entries"):
            parse_config({"M": 1, "t_entries": 5})
        with pytest.raises(ConfigError, match="g_entries"):
            parse_config({"M": 2, "g_entries": [7]})

    @pytest.mark.parametrize("seed", [-1, -5])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"M": 1, "seed": seed})

    @pytest.mark.parametrize("key,value", [
        ("hop", "abc"), ("onsite", "abc"), ("hop", True), ("onsite", None),
        ("onsite", float("nan")), ("hop", float("-inf")),
    ])
    def test_malformed_preset_number_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"preset\.{key}"):
            parse_config({"M": 2, "preset": {"name": "hubbard", "sites": 1, key: value}})

    @pytest.mark.parametrize("geometry", ["ring", None, 1])
    def test_preset_geometry_must_be_chain(self, geometry):
        with pytest.raises(ConfigError, match=r"preset\.geometry"):
            parse_config({"M": 4, "preset": {"name": "hubbard", "sites": 2,
                                             "geometry": geometry}})

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="tangencyy"):
            parse_config({"M": 1, "tolerances": {"tangencyy": 1e-9}})

    @pytest.mark.parametrize("value", [0.0, -1e-9, float("nan"), float("inf"), "1e-9", True])
    def test_tolerance_must_be_finite_and_positive(self, value):
        with pytest.raises(ConfigError, match=r"tolerances\.tangency"):
            parse_config({"M": 1, "tolerances": {"tangency": value}})

    def test_known_tolerance_accepted(self):
        cfg = parse_config({"M": 1, "tolerances": {"tangency": 1e-9, "fpe": 1}})
        assert cfg.tolerances == {"tangency": 1e-9, "fpe": 1.0}


class TestFiles:
    def test_load_reads_every_field(self, tmp_path):
        data = {
            "M": 2,
            "t_entries": [[1, 2, 0.5], [3, 4, -0.25]],
            "g_entries": [[1, 2, 3, 4, 1.0]],
            "seed": 7,
            "tolerances": {"fpe": 1e-5},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        assert load_config(str(path)) == ModelConfig(
            2, ((1, 2, 0.5), (3, 4, -0.25)), ((1, 2, 3, 4, 1.0),), 7, {"fpe": 1e-5})

    def test_round_trip(self, tmp_path):
        # a loaded config's fields, written back out as a config, load to the same config
        data = {
            "M": 3,
            "t_entries": [[1, 2, 0.5], [2, 5, -0.25]],
            "g_entries": [[1, 2, 3, 4, 1.0], [1, 3, 5, 6, -0.125]],
            "seed": 7,
            "tolerances": {"fpe": 1e-5},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        cfg = load_config(str(path))
        path2 = tmp_path / "model2.json"
        path2.write_text(json.dumps({**cfg._asdict(), "tolerances": dict(cfg.tolerances)}))
        assert load_config(str(path2)) == cfg

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"M": 1,\n  "t_entries": [[1, 2 0.5]]}')
        with pytest.raises(ConfigError, match=r"line 2, column"):
            load_config(str(path))


class TestToSpec:
    def test_explicit_entries(self):
        cfg = parse_config({
            "M": 2,
            "t_entries": [[1, 2, 0.5]],
            "g_entries": [[1, 2, 3, 4, 1.0]],
        })
        spec = config_to_spec(cfg)
        assert spec.t.entry(1, 2) == 0.5
        assert spec.g.entry(1, 2, 3, 4) == 1.0

    def test_preset_materialization(self):
        cfg = parse_config({
            "M": 2,
            "preset": {"name": "hubbard", "sites": 1, "onsite": 4.0},
        })
        # the preset is expanded when the config is parsed
        assert cfg.t_entries == ((1, 3, 0.5), (2, 4, 0.5))
        assert cfg.g_entries == ((1, 2, 3, 4, 4.0 / 48),)
        spec = config_to_spec(cfg)
        assert spec.g.entry(1, 2, 3, 4) == pytest.approx(4.0 / 48)
        assert np.count_nonzero(np.asarray(spec.t.packed)) == 2


class TestPresetExpansion:
    """A preset is its chain's entries, written into the config when it is parsed."""

    @pytest.mark.parametrize("sites", [1, 2, 3, 8])
    @pytest.mark.parametrize("hop,onsite", [(1.0, 4.0), (-1.3, 2.5), (0.0, 4.0), (1.0, 0.0)])
    def test_preset_and_its_written_out_entries_are_one_model(self, sites, hop, onsite):
        cfg = parse_config(_preset(sites, hop, onsite))
        twin = parse_config(hubbard_chain_config(sites, hop, onsite))
        assert cfg == twin
        spec, twin_spec = config_to_spec(cfg), config_to_spec(twin)
        np.testing.assert_array_equal(spec.t.packed, twin_spec.t.packed)
        assert spec.g.items() == twin_spec.g.items()

    @pytest.mark.parametrize("sites", [1, 2, 3, 8])
    def test_emitted_preset_parses_back_equal(self, tmp_path, capsys, sites):
        # the config the preset command writes is the chain's model, its seed kept
        path = tmp_path / "hub.json"
        assert main(["preset", "hubbard", "--sites", str(sites), "--hop", "1",
                     "--onsite", "4", "--seed", "4", "--out", str(path)]) == 0
        capsys.readouterr()
        cfg = load_config(str(path))
        assert cfg == parse_config({**_preset(sites, 1.0, 4.0), "seed": 4})
        assert cfg == ModelConfig(2 * sites, *chain_entries(sites, 1.0, 4.0)[:2], seed=4)
        assert cfg.g_entries

    @pytest.mark.parametrize("sites", [9, 10 ** 9])
    def test_chain_past_the_longest_any_command_runs_rejected(self, sites):
        # refused before its entries are built: they grow with the sites
        with pytest.raises(ConfigError, match=r"preset\.sites: must be <= 8"):
            parse_config(_preset(sites, 1.0, 4.0))
