"""In-memory span tracer that wraps the public functions of every majoranaq module.

The program itself is not instrumented: :meth:`Tracer.install` rebinds each
public function in every ``majoranaq.*`` namespace that holds it (so
``dynamics.drift`` and ``kernel.drift`` both go through the same wrapper),
plus the two methods the per-layer metrics name.  :meth:`Tracer.uninstall`
restores the originals, so untraced passes run the unmodified code.

A span records its name, start, end, parent span, the id of the CLI
invocation it belongs to, and the exception type it raised, if any.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("tensors", "kernel", "fock", "dynamics", "hubbard", "config", "suites", "cli")
METHODS = (("tensors", "PhasePoint", "matrix"), ("kernel", "ChannelDecomposition", "reconstruct"))

# Layers are the package modules; the Hubbard preset is part of model configuration.
LAYER_OF_MODULE = {"hubbard": "config"}
LAYERS = ("cli", "config", "suites", "fock", "kernel", "dynamics", "tensors")

RUNNERS = (
    "run_quadratic_identities",
    "run_four_gamma",
    "run_fpe_sweep",
    "run_traceless_and_channels",
    "run_tangency",
    "run_flow_margin",
)
# Exceptions the suites catch to draw a new sample point.
RESAMPLE_ERRORS = ("SingularBasisError", "StencilError")

# (span name, statistics) reported for single functions.
FUNCTION_STATS = (
    ("fock.gaussian_basis", ("calls", "self_s", "us_per_call")),
    ("fock.verify_fpe", ("self_s",)),
    ("fock.verify_four_gamma", ("self_s",)),
    ("fock.verify_quadratic_identities", ("self_s",)),
    ("fock.build_hamiltonian", ("calls",)),
    ("kernel.contract_quartic", ("calls", "self_s")),
    ("kernel.drift", ("calls", "self_s", "us_per_call")),
    ("kernel.diffusion", ("calls", "self_s", "us_per_call")),
    ("kernel.diffusion_channels", ("self_s",)),
    ("kernel.ChannelDecomposition.reconstruct", ("self_s",)),
    ("tensors.PhasePoint.matrix", ("calls", "self_s")),
    ("tensors.domain_margin", ("calls", "self_s")),
    ("dynamics.flow", ("self_s",)),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us", "s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for name, stats in FUNCTION_STATS:
        units.update({f"{name}.{stat}": STAT_UNITS[stat] for stat in stats})
    units.update({f"suites.{runner}.s": "s" for runner in RUNNERS})
    units.update({
        "fock.basis_per_fpe_instance": "count",
        "dynamics.rk4_steps": "count",
        "suites.instances": "count",
        "suites.resampled": "count",
        "setup.import_s": "s",
        "config.load_s": "s",
        "trace.wall_s": "s",
        "trace.uncovered_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return units


def _flow_steps(bound: inspect.BoundArguments, result) -> int:
    method = bound.arguments.get("method", "rk4")
    return len(result.times) - 1 if method == "rk4" else 0


def _instances(bound: inspect.BoundArguments, result) -> int:
    checks = result if isinstance(result, list) else [result]
    return sum(c.instances for c in checks)


# Counts read from a call's arguments and result, stored on its span.
_NOTES = {"dynamics.flow": _flow_steps}
_NOTES.update({f"suites.{runner}": _instances for runner in RUNNERS})


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "error", "note")

    def __init__(self, name, start, parent, run_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run_id = run_id
        self.error = None
        self.note = 0

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.run_id, self.error, self.note]


class Tracer:
    """Records spans around every wrapped call while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = _NOTES.get(name)
        signature = inspect.signature(fn) if note else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1, self.run_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                span.error = type(exc).__name__
                raise
            else:
                span.end = clock()
                if note is not None:
                    span.note = note(signature.bind(*args, **kwargs), result)
                return result
            finally:
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Rebind every public majoranaq function, in every namespace holding it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"majoranaq.{short}")
            names = getattr(module, "__all__", None)
            if names is None:
                names = [n for n in vars(module) if not n.startswith("_")]
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "majoranaq" and not mod_name.startswith("majoranaq."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"majoranaq.{short}"), cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        """Write every recorded span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_list()) + "\n")


def layer_metrics(spans: list[Span], first: int, wall: float) -> dict[str, float]:
    """Per-layer metrics of the spans ``spans[first:]``, one traced pass of ``wall`` s.

    The layer self times plus ``trace.uncovered_s`` add up to ``trace.wall_s``.
    """
    own = spans[first:]
    child = [0.0] * len(own)
    for span in own:
        if span.parent >= first:
            child[span.parent - first] += span.end - span.start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    notes = defaultdict(int)
    layers = dict.fromkeys(LAYERS, 0.0)
    in_fpe = [False] * len(own)
    in_suites = [False] * len(own)
    basis_in_fpe = resampled = 0
    for k, span in enumerate(own):
        duration = span.end - span.start
        own_time = duration - child[k]
        calls[span.name] += 1
        self_s[span.name] += own_time
        incl_s[span.name] += duration
        notes[span.name] += span.note
        module = span.name.split(".", 1)[0]
        layers[LAYER_OF_MODULE.get(module, module)] += own_time
        parent = span.parent - first if span.parent >= first else -1
        in_fpe[k] = span.name == "fock.verify_fpe" or (parent >= 0 and in_fpe[parent])
        if span.name == "fock.gaussian_basis" and in_fpe[k]:
            basis_in_fpe += 1
        if parent >= 0 and own[parent].name.startswith("suites."):
            if span.error in RESAMPLE_ERRORS:
                resampled += 1
    covered = sum(layers.values())
    out = {f"{layer}.self_s": layers[layer] for layer in LAYERS}
    for name, stats in FUNCTION_STATS:
        for stat in stats:
            if stat == "calls":
                value = calls[name]
            elif stat == "self_s":
                value = self_s[name]
            else:
                value = 1e6 * incl_s[name] / calls[name] if calls[name] else 0.0
            out[f"{name}.{stat}"] = value
    out.update({f"suites.{runner}.s": incl_s[f"suites.{runner}"] for runner in RUNNERS})
    fpe_calls = calls["fock.verify_fpe"]
    out["fock.basis_per_fpe_instance"] = basis_in_fpe / fpe_calls if fpe_calls else 0.0
    out["dynamics.rk4_steps"] = notes["dynamics.flow"]
    out["suites.instances"] = sum(notes[f"suites.{runner}"] for runner in RUNNERS)
    out["suites.resampled"] = resampled
    out["trace.wall_s"] = wall
    out["trace.uncovered_s"] = wall - covered
    out["trace.spans"] = len(own)
    return out
