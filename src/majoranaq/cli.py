"""Command-line interface: verification suites, drift-flow runs, presets.

Exit codes: 0 all enabled checks passed, 1 a verification check failed,
2 usage or configuration error, 3 runtime/numerical error.  A path named by
``--config``, ``--x0-file`` or ``--out`` that cannot be opened is a usage
error; any other ``OSError`` is a runtime error.

Each command imports the modules it runs when it runs: ``preset`` needs the
standard library only, and ``flow`` loads neither the coefficient kernel
(:mod:`majoranaq.kernel`), the Fock-space oracle nor the verification
suites, which also assemble the checks of each ``verify --suite``.  Only
``flow`` loads its CSV writer, :mod:`majoranaq._csvrows`.

The process entry, of ``python -m majoranaq.cli`` and of the ``majoranaq``
script, is :func:`_process_main`: it runs :func:`main`, then freezes the
garbage collector before the interpreter exits.  :func:`main` itself leaves
the collector as it found it, so in-process callers are unaffected.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from typing import TYPE_CHECKING, NoReturn

from . import _MAX_M
from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    IndexRangeError,
)

if TYPE_CHECKING:
    from .config import ModelConfig
    from .tensors import PhasePoint

SUITES = ("identities", "fpe", "traceless", "tangency", "moment-m1", "all")

# argparse destinations of the options that name a file
_PATH_OPTIONS = ("config", "x0_file", "out")


def cmd_verify(args) -> int:
    from . import suites
    from .config import load_config

    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    checks = suites._verify_checks(cfg, args.suite, seed, args.drift_form)
    report = suites.VerificationReport(args.suite, tuple(checks), seed, cfg.M)
    print(report.text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.out}")
    return 0 if report.overall_pass else 1


def _load_x0(args, cfg: ModelConfig) -> PhasePoint:
    from .config import _read_json, _require_int, _require_list, _require_number
    from .tensors import PhasePoint, random_boundary_point

    if args.x0_file is None:
        seed = args.seed if args.seed is not None else cfg.seed
        return random_boundary_point(cfg.M, seed)
    data = _read_json(args.x0_file, field="--x0-file")
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object", field="--x0-file")
    unknown = set(data) - {"M", "packed"}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", field="--x0-file")
    M = _require_int(data.get("M"), '--x0-file "M"')
    if M != cfg.M:
        raise ConfigError(f"initial point M = {M} does not match config M = {cfg.M}")
    if "packed" not in data:
        raise ConfigError('missing "packed" list', field="--x0-file")
    # each entry is read as a config reads a coupling value: a boolean, a
    # nested list or a non-finite number is refused
    try:
        packed = [_require_number(v, f"packed[{pos}]")
                  for pos, v in enumerate(_require_list(data["packed"], "packed"))]
    except ConfigError as exc:
        raise ConfigError(f'"packed" must be a list of numbers: {exc}', field="--x0-file") from None
    return PhasePoint(cfg.M, packed)


def cmd_flow(args) -> int:
    import numpy as np

    from ._csvrows import format_rows
    from .config import _check_cap, config_to_spec, load_config
    from .dynamics import _BLOCK, flow
    from .tensors import pair_enumerate

    if args.steps < 1:
        raise ConfigError(f"must be >= 1, got {args.steps}", field="--steps")
    if not (math.isfinite(args.dt) and args.dt > 0.0):
        raise ConfigError(f"must be finite and positive, got {args.dt!r}", field="--dt")
    # a count past sys.maxsize is refused below as too many to store
    if args.steps <= sys.maxsize and not math.isfinite(args.dt * args.steps):
        raise ConfigError(f"the horizon --dt x --steps must be finite, got {args.dt!r} x "
                          f"{args.steps}", field="--dt")
    cfg = load_config(args.config)
    _check_cap("flow", cfg.M, _MAX_M)
    spec = config_to_spec(cfg)
    x0 = _load_x0(args, cfg)
    start = time.perf_counter()
    try:
        traj = flow(x0, spec, args.dt, args.steps, method=args.method)
    except MemoryError:  # numpy refuses the trajectory arrays before any step
        raise ConfigError(f"too many to store, got {args.steps}", field="--steps") from None
    elapsed = time.perf_counter() - start
    start = time.perf_counter()
    header = ["time"] + [f"x_{p.alpha}_{p.beta}" for p in pair_enumerate(cfg.M)] + ["margin"]
    with open(args.out, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        # the flow's own row blocks: one block's arrays and text at a time
        for lo in range(0, len(traj.times), _BLOCK):
            hi = lo + _BLOCK
            values = np.column_stack((traj.packed[lo:hi], traj.margins[lo:hi]))
            fh.write(format_rows(traj.times[lo:hi], values))
    written = time.perf_counter() - start
    worst = int(np.argmax(np.abs(traj.margins)))
    evaluations = args.steps * (4 if args.method == "rk4" else 1)
    print(f"trajectory written to {args.out} ({args.steps} steps, dt={args.dt})")
    print(f"final margin: {traj.margins[-1]:.3e}")
    print(f"max |margin|: {abs(traj.margins[worst]):.3e} at step {worst}")
    print(f"drift evaluations: {evaluations}")
    print(f"integration wall time: {elapsed:.3f} s")
    print(f"csv write wall time: {written:.3f} s")
    return 0


def cmd_preset(args) -> int:
    from .hubbard import _check_sites, chain_entries

    _check_sites(args.sites, "--sites")
    t, g, shift = chain_entries(args.sites, args.hop, args.onsite)
    M = 2 * args.sites
    cfg = {
        "M": M,
        "preset": {
            "name": "hubbard",
            "sites": args.sites,
            "hop": args.hop,
            "onsite": args.onsite,
            "geometry": "chain",
        },
        "seed": args.seed if args.seed is not None else 0,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    print(f"config written to {args.out}")
    print(f"M = {M}, {len(t)} quadratic entries, {len(g)} quartic entries")
    print(f"dropped identity shift: {shift:+.6g}")
    return 0


def _seed(text: str) -> int:
    """Argument type of ``--seed``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _finite_float(text: str) -> float:
    """Argument type of the preset couplings: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majoranaq",
        description="Majorana phase-space dynamics: verification and flow runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each option has one spelling: no prefix of it is read as the option,
    # so a retired option such as ``flow --x0`` is an error, not --x0-file

    p_verify = sub.add_parser("verify", help="run a verification suite", allow_abbrev=False)
    p_verify.add_argument("--config", required=True, help="model config JSON")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--seed", type=_seed, default=None,
                          help="override the config seed")
    p_verify.add_argument("--out", default=None, help="write JSON report here")
    p_verify.add_argument(
        "--drift-form", choices=("eq36", "eq50"), default="eq36",
        help="drift assembly for the fpe suite: eq36 (defining decomposition, "
             "asserted) or eq50 (alternative closed form, recorded only)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_flow = sub.add_parser("flow", help="integrate the drift flow, write CSV", allow_abbrev=False)
    p_flow.add_argument("--config", required=True)
    p_flow.add_argument("--x0-file", default=None,
                        help="start from JSON {'M': ..., 'packed': [...]}, not from the "
                             "seeded boundary point")
    p_flow.add_argument("--dt", type=float, default=1e-3)
    p_flow.add_argument("--steps", type=int, default=1000)
    p_flow.add_argument("--method", choices=("euler", "rk4"), default="rk4")
    p_flow.add_argument("--seed", type=_seed, default=None)
    p_flow.add_argument("--out", required=True, help="trajectory CSV path")
    p_flow.set_defaults(func=cmd_flow)

    p_preset = sub.add_parser("preset", help="write a model-preset config", allow_abbrev=False)
    p_preset.add_argument("name", choices=("hubbard",))
    p_preset.add_argument("--sites", type=int, required=True)
    p_preset.add_argument("--hop", type=_finite_float, default=0.0)
    p_preset.add_argument("--onsite", type=_finite_float, default=0.0)
    p_preset.add_argument("--seed", type=_seed, default=None)
    p_preset.add_argument("--out", required=True)
    p_preset.set_defaults(func=cmd_preset)
    return parser


def _path_option(args, exc: OSError) -> str | None:
    """The option that named the path ``exc`` failed on, if one did."""
    for dest in _PATH_OPTIONS:
        if exc.filename is not None and getattr(args, dest, None) == exc.filename:
            return "--" + dest.replace("_", "-")
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DimensionError, IndexRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        option = _path_option(args, exc)
        print(f"error: {option}: {exc}" if option else f"error: {exc}", file=sys.stderr)
        return 2 if option or isinstance(exc, FileNotFoundError) else 3
    except (ArithmeticError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _process_main() -> NoReturn:
    """Run :func:`main` as the whole process and exit with its code.

    Interpreter finalization ends in cyclic collections that would walk
    every object numpy made at import, tens of milliseconds of each numpy
    command; frozen objects are skipped.  The collector stays enabled while
    the command runs, and every file a command writes is closed by then.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    _process_main()
