"""The package namespace: lazy, complete, and the defining modules' own objects."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_readme_quickstart_runs(tmp_path):
    # the "Library quickstart" block of the README, as a user would paste it
    root = Path(majoranaq.__file__).resolve().parents[2]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(majoranaq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code], env=env,
                         capture_output=True, text=True, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.splitlines()) == 3
