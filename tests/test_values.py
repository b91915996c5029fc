"""The value types: fields read by name, no assignment, working caches, no shared mutable default.

Plain records are named tuples; the types that validate their fields or
cache derived arrays are plain classes on ``tensors._Frozen``.  Each type is
built here with keyword arguments, so its constructor keeps its field names.
"""

from types import MappingProxyType

import numpy as np
import pytest

from majoranaq import config, dynamics, fock, kernel, suites, tensors

_X = tensors.PhasePoint(2, np.linspace(-0.2, 0.3, 6))
_T = tensors.CouplingMatrix.from_entries(2, [(1, 2, 0.5), (2, 3, -0.25)])
_G = tensors.QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.3)])
_SPEC = tensors.HamiltonianSpec(2, _T, _G)


def _pair_index():
    return tensors.PairIndex(alpha=1, beta=3, linear=1), {"alpha": 1, "beta": 3, "linear": 1}


def _phase_point():
    packed = np.linspace(-0.2, 0.3, 6)
    return tensors.PhasePoint(M=2, packed=packed), {"M": 2, "packed": packed}


def _coupling_matrix():
    packed = np.arange(6.0)
    return tensors.CouplingMatrix(M=2, packed=packed), {"M": 2, "packed": packed}


def _quartic_coupling():
    table = {(1, 2, 3, 4): 0.3, (1, 2, 3, 5): 0.0}
    return tensors.QuarticCoupling(M=3, table=table), {"M": 3, "table": {(1, 2, 3, 4): 0.3}}


def _hamiltonian_spec():
    return tensors.HamiltonianSpec(M=2, t=_T, g=_G), {"M": 2, "t": _T, "g": _G}


def _channel_decomposition():
    d = kernel.diffusion_channels(_X, _G)
    fields = {name: getattr(d, name) for name in ("M", "indices", "weights", "re_rows", "im_rows")}
    return kernel.ChannelDecomposition(**fields), fields


def _wick_table():
    table = fock._wick_table(2)
    fields = {"phase": table.phase, "levels": table.levels}
    return fock._WickTable(**fields), fields


def _fpe_check():
    fields = {"lhs": 0.5, "rhs": 0.25, "residual": 0.5, "conservative": 0.125}
    return fock.FpeCheck(**fields), fields


def _trajectory():
    traj = dynamics.flow(_X, _SPEC, 1e-3, 3)
    fields = {name: getattr(traj, name) for name in ("M", "times", "packed", "margins")}
    return dynamics.Trajectory(**fields), fields


def _model_config():
    fields = {"M": 2, "t_entries": ((1, 2, 0.5),), "g_entries": (), "seed": 7}
    return config.ModelConfig(**fields), fields


def _check_result():
    fields = {"name": "fpe", "instances": 5, "max_residual": 1e-15, "tolerance": 1e-10,
              "passed": True, "seconds": 0.5, "informational": False, "info": {"worst": None}}
    return suites.CheckResult(**fields), fields


def _verification_report():
    check = suites.CheckResult("fpe", 5, 1e-15, 1e-10, True)
    fields = {"suite": "fpe", "checks": (check,), "seed": 3, "M": 2}
    return suites.VerificationReport(**fields), fields


VALUES = {
    "PairIndex": _pair_index,
    "PhasePoint": _phase_point,
    "CouplingMatrix": _coupling_matrix,
    "QuarticCoupling": _quartic_coupling,
    "HamiltonianSpec": _hamiltonian_spec,
    "ChannelDecomposition": _channel_decomposition,
    "_WickTable": _wick_table,
    "FpeCheck": _fpe_check,
    "Trajectory": _trajectory,
    "ModelConfig": _model_config,
    "CheckResult": _check_result,
    "VerificationReport": _verification_report,
}


@pytest.mark.parametrize("name", VALUES)
def test_fields_are_read_by_name_and_cannot_be_assigned(name):
    value, fields = VALUES[name]()
    assert type(value).__name__ == name
    for field, expected in fields.items():
        actual = getattr(value, field)
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(actual, expected)
        elif isinstance(expected, dict):
            assert dict(actual) == expected
        else:
            assert actual is expected or actual == expected
        with pytest.raises(AttributeError):
            setattr(value, field, actual)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is actual
    with pytest.raises(AttributeError):
        value.unknown = 1


# (a fresh instance, its cached properties): each is computed on first read,
# kept in the instance __dict__ and then returned as the same object
CACHED = {
    "CouplingMatrix": (lambda: tensors.CouplingMatrix.from_entries(2, [(1, 2, 0.5)]), ("_full",)),
    "QuarticCoupling": (lambda: tensors.QuarticCoupling.from_entries(2, [(1, 2, 3, 4, 0.3)]),
                        ("pair_block", "ordered_tuples")),
    "ChannelDecomposition": (lambda: kernel.diffusion_channels(_X, _G), ("_weight_matrix",)),
}


@pytest.mark.parametrize("name", CACHED)
def test_cached_properties_are_computed_once(name):
    make, attrs = CACHED[name]
    value = make()
    for attr in attrs:
        assert attr not in vars(value)
        first = getattr(value, attr)
        assert vars(value)[attr] is first
        assert getattr(value, attr) is first


@pytest.mark.parametrize("make, field", [
    (lambda: suites.CheckResult("fpe", 1, 0.0, 1e-10, True), "info"),
    (lambda: tensors.QuarticCoupling(2), "table"),
], ids=["CheckResult.info", "QuarticCoupling.table"])
def test_no_record_shares_a_mutable_default(make, field):
    first, second = make(), make()
    default = getattr(first, field)
    assert isinstance(default, MappingProxyType) and not default
    with pytest.raises(TypeError):
        default["fpe"] = 1.0
    assert not getattr(second, field)
