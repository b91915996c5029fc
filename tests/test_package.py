"""The package namespace: lazy, complete, and the defining modules' own objects."""

import importlib
import json
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


def test_pinned_bars_live_in_suites_only():
    # TOLERANCES is defined once, in suites, and no runner takes a bar as an argument
    import inspect

    from majoranaq import config, suites

    assert not hasattr(config, "TOLERANCES") and "TOLERANCES" in vars(suites)
    functions = [fn for _name, fn in inspect.getmembers(suites, inspect.isfunction)
                 if fn.__module__ == "majoranaq.suites"]
    assert suites.run_tangency in functions
    assert not [fn.__name__ for fn in functions if "tolerances" in inspect.signature(fn).parameters]


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


def _exported_functions():
    """Each exported function's name, with its code object (wrappers such as a cache unwrapped)."""
    import inspect

    for name in majoranaq.__all__:
        fn = inspect.unwrap(getattr(majoranaq, name))
        if inspect.isfunction(fn):
            yield name, fn.__code__


@pytest.fixture(scope="module")
def command_calls(tmp_path_factory):
    """The code objects that the seven command lines call, run once in-process under a profiler."""
    import contextlib
    import io

    from majoranaq.cli import main

    for name, _code in _exported_functions():
        obj = getattr(majoranaq, name)
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()  # a cached result would skip the body the profiler sees
    tmp_path = tmp_path_factory.mktemp("commands")
    m1, m3, hub, x0 = (str(tmp_path / f) for f in ("m1.json", "m3.json", "hub.json", "x0.json"))
    (tmp_path / "m1.json").write_text(json.dumps({"M": 1, "t_entries": [[1, 2, 0.5]]}))
    (tmp_path / "m3.json").write_text(json.dumps({
        "M": 3, "t_entries": [[1, 2, 0.3], [2, 5, -0.2]], "g_entries": [[1, 2, 3, 4, 0.4]]}))
    (tmp_path / "x0.json").write_text(json.dumps(
        {"M": 4, "packed": majoranaq.random_boundary_point(4, 1).packed.tolist()}))
    csv = str(tmp_path / "t.csv")
    flow = ["flow", "--config", hub, "--steps", "3", "--out", csv]
    commands = [
        ["preset", "hubbard", "--sites", "2", "--hop", "1", "--onsite", "4", "--out", hub],
        [*flow, "--method", "rk4"],
        [*flow, "--method", "euler"],
        [*flow, "--x0-file", x0],
        ["verify", "--config", m1, "--suite", "all"],
        ["verify", "--config", m3, "--suite", "all"],
        ["verify", "--config", m3, "--suite", "fpe", "--drift-form", "eq50"],
    ]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            codes = [main(argv) for argv in commands]
        finally:
            sys.setprofile(None)
    assert codes == [0] * 7
    return called


@pytest.mark.parametrize("name,code", list(_exported_functions()),
                         ids=[name for name, _code in _exported_functions()])
def test_every_exported_function_is_run_by_a_command(command_calls, name, code):
    # every function the package exports is reached by a command line; one
    # that only the tests or the demos call belongs with the oracles in tests/
    assert code in command_calls, f"{name} is exported but no command line calls it"
