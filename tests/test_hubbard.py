"""Hubbard preset fidelity against the ladder-operator reference."""

import numpy as np
import pytest

from majoranaq import ModelConfig, build_hamiltonian, chain_entries, config_to_spec

from coupling_oracle import fermi_hubbard_matrix, hubbard_comparison


def chain_model(sites, hop, onsite):
    """The chain's model as a preset config gives it, and its identity shift."""
    t, g, shift = chain_entries(sites, hop, onsite)
    return config_to_spec(ModelConfig(2 * sites, t, g)), shift


class TestPresetStructure:
    def test_single_site_couplings(self):
        U = 4.0
        spec, shift = chain_model(1, 0.0, U)
        assert spec.M == 2
        assert spec.g.table == {(1, 2, 3, 4): pytest.approx(U / 48)}
        assert spec.t.entry(1, 3) == pytest.approx(U / 8)
        assert spec.t.entry(2, 4) == pytest.approx(U / 8)
        assert shift == pytest.approx(U / 4)

    def test_no_interaction_has_no_quartic(self):
        spec, shift = chain_model(2, 1.0, 0.0)
        assert spec.g.table == {}
        assert shift == 0.0
        H = build_hamiltonian(spec)
        assert np.max(np.abs(H - H.conj().T)) <= 1e-12

    def test_trivial_model(self):
        spec, _shift = chain_model(2, 0.0, 0.0)
        assert np.all(np.asarray(spec.t.packed) == 0.0)
        assert spec.g.table == {}

    @pytest.mark.parametrize("field", ["t", "g", "M"])
    def test_preset_is_frozen(self, field):
        spec, _shift = chain_model(2, 1.0, 4.0)
        with pytest.raises(AttributeError):
            setattr(spec, field, 0)
        assert spec.M == 4


class TestFidelity:
    @pytest.mark.parametrize(
        "sites,hop,onsite",
        [(1, 0.0, 4.0), (1, 2.5, 1.0), (2, 1.0, 4.0), (2, 1.3, 0.0)],
    )
    def test_matches_reference_up_to_identity(self, sites, hop, onsite):
        assert hubbard_comparison(sites, hop, onsite) <= 1e-12

    def test_identity_shift_value(self):
        # the shift is exactly what the comparison removes
        sites, hop, onsite = 2, 0.9, 3.0
        spec, shift = chain_model(sites, hop, onsite)
        h_m = build_hamiltonian(spec)
        h_d = fermi_hubbard_matrix(sites, hop, onsite)
        diff = h_d - h_m
        np.testing.assert_allclose(diff, shift * np.eye(diff.shape[0]), atol=1e-12)
