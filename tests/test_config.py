"""Configuration parsing, validation, and round-tripping."""

import json

import numpy as np
import pytest

from majoranaq import config_to_spec, emit_config, load_config, parse_config
from majoranaq.errors import ConfigError


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
    def test_round_trip(self, tmp_path):
        data = {
            "M": 2,
            "t_entries": [[1, 2, 0.5], [3, 4, -0.25]],
            "g_entries": [[1, 2, 3, 4, 1.0]],
            "seed": 7,
            "tolerances": {"fpe": 1e-5},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        cfg = load_config(str(path))
        path2 = tmp_path / "model2.json"
        path2.write_text(json.dumps(emit_config(cfg)))
        cfg2 = load_config(str(path2))
        assert cfg == cfg2

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
        spec, shift = config_to_spec(cfg)
        assert shift == 0.0
        assert spec.t.entry(1, 2) == 0.5
        assert spec.g.entry(1, 2, 3, 4) == 1.0

    def test_preset_materialization(self):
        cfg = parse_config({
            "M": 2,
            "preset": {"name": "hubbard", "sites": 1, "onsite": 4.0},
        })
        spec, shift = config_to_spec(cfg)
        assert shift == pytest.approx(1.0)
        assert spec.g.entry(1, 2, 3, 4) == pytest.approx(4.0 / 48)
        assert np.count_nonzero(np.asarray(spec.t.packed)) == 2
