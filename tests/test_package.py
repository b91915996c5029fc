"""The package namespace: lazy, complete, and the defining modules' own objects."""

import importlib

import pytest

import majoranaq


@pytest.mark.parametrize("name", majoranaq.__all__)
def test_public_name_is_the_defining_module_object(name):
    value = getattr(majoranaq, name)
    if name in majoranaq._EXPORTS:
        assert value is importlib.import_module(f"majoranaq.{name}")
    else:
        module = importlib.import_module(f"majoranaq.{majoranaq._MODULE_OF[name]}")
        assert value is getattr(module, name)
        assert name in module.__all__
    assert name in dir(majoranaq)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        majoranaq.nonexistent


def test_from_import_of_names_and_modules():
    from majoranaq import PhasePoint, fock, suites

    assert PhasePoint.__module__ == "majoranaq.tensors"
    assert fock.__name__ == "majoranaq.fock" and suites is majoranaq.suites
    assert suites.TOLERANCES is importlib.import_module("majoranaq.config").TOLERANCES
