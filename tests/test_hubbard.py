"""Hubbard preset fidelity against the ladder-operator reference."""

import numpy as np
import pytest

from majoranaq import (
    HamiltonianSpec,
    build_hamiltonian,
    fermi_hubbard_matrix,
    hubbard_comparison,
    preset_hubbard,
)


class TestPresetStructure:
    def test_single_site_couplings(self):
        U = 4.0
        preset = preset_hubbard(1, 0.0, U)
        assert preset.M == 2
        assert preset.g.table == {(1, 2, 3, 4): pytest.approx(U / 48)}
        assert preset.t.entry(1, 3) == pytest.approx(U / 8)
        assert preset.t.entry(2, 4) == pytest.approx(U / 8)
        assert preset.identity_shift == pytest.approx(U / 4)

    def test_no_interaction_has_no_quartic(self):
        preset = preset_hubbard(2, 1.0, 0.0)
        assert preset.g.table == {}
        assert preset.identity_shift == 0.0
        H = build_hamiltonian(HamiltonianSpec(preset.M, preset.t, preset.g))
        assert np.max(np.abs(H - H.conj().T)) <= 1e-12

    def test_trivial_model(self):
        preset = preset_hubbard(2, 0.0, 0.0)
        assert np.all(np.asarray(preset.t.packed) == 0.0)
        assert preset.g.table == {}

    @pytest.mark.parametrize("field", ["sites", "t", "g", "identity_shift", "M"])
    def test_preset_is_frozen(self, field):
        preset = preset_hubbard(2, 1.0, 4.0)
        with pytest.raises(AttributeError):
            setattr(preset, field, 0)
        assert preset.sites == 2 and preset.M == 4


class TestFidelity:
    @pytest.mark.parametrize(
        "sites,hop,onsite",
        [(1, 0.0, 4.0), (1, 2.5, 1.0), (2, 1.0, 4.0), (2, 1.3, 0.0)],
    )
    def test_matches_reference_up_to_identity(self, sites, hop, onsite):
        preset = preset_hubbard(sites, hop, onsite)
        assert hubbard_comparison(preset, hop, onsite) <= 1e-12

    def test_identity_shift_value(self):
        # the shift is exactly what the comparison removes
        sites, hop, onsite = 2, 0.9, 3.0
        preset = preset_hubbard(sites, hop, onsite)
        h_m = build_hamiltonian(HamiltonianSpec(preset.M, preset.t, preset.g))
        h_d = fermi_hubbard_matrix(sites, hop, onsite)
        diff = h_d - h_m
        np.testing.assert_allclose(
            diff, preset.identity_shift * np.eye(diff.shape[0]), atol=1e-12
        )
