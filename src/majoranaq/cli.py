"""Command-line interface: verification suites, drift-flow runs, presets.

Exit codes: 0 all enabled checks passed, 1 a verification check failed,
2 usage or configuration error, 3 runtime/numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import suites
from .config import ModelConfig, config_to_spec, load_config
from .dynamics import flow
from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    IndexRangeError,
)
from .fock import ORACLE_MAX_M
from .hubbard import preset_hubbard
from .tensors import PhasePoint, pair_enumerate, random_boundary_point

SUITES = ("identities", "fpe", "traceless", "tangency", "moment-m1", "all")

# mode-count caps per verify suite and for the flow command; at the flow cap
# the dense pair matrix G is 496 x 496 (2 MB)
_M_CAPS = {"identities": ORACLE_MAX_M, "fpe": ORACLE_MAX_M, "traceless": 4, "tangency": 4,
           "flow": 16}


def _check_cap(name: str, M: int) -> None:
    cap = _M_CAPS.get(name)
    if cap is not None and M > cap:
        raise ConfigError(f"'{name}' supports M <= {cap}, config has M = {M}")


def _verify_checks(cfg: ModelConfig, suite: str, seed: int, drift_form: str) -> list:
    spec, _shift = config_to_spec(cfg)
    M = cfg.M
    tol = cfg.tolerances
    checks = []
    if suite in ("identities", "all"):
        _check_cap("identities", M)
        checks.append(
            suites.run_quadratic_identities(
                Ms=(M,), seed=seed, n_points=10,
                tol=tol.get("quadratic-identities"),
            )
        )
        if 2 * M >= 4:
            checks.append(
                suites.run_four_gamma(M=M, seed=seed, n_points=3,
                                      tol=tol.get("four-gamma"))
            )
    if suite in ("fpe", "all"):
        _check_cap("fpe", M)
        n_inst = 20 if M <= 2 else 5
        checks.append(
            suites.run_fpe_sweep(
                spec, seed, n_instances=n_inst, label="fpe",
                drift_form=drift_form, tol=tol.get("fpe"),
            )
        )
    if suite in ("traceless", "all"):
        _check_cap("traceless", M)
        g = spec.g if spec.g.table else None
        checks.extend(
            suites.run_traceless_and_channels(M, seed, cases=100, g=g)
        )
    if suite in ("tangency", "all"):
        _check_cap("tangency", M)
        has_model = bool(spec.g.table) or np.any(np.asarray(spec.t.packed) != 0.0)
        model = spec if has_model else None
        checks.append(
            suites.run_tangency(Ms=(M,), seed=seed, n_points=25,
                                tol=tol.get("tangency"), spec=model)
        )
        checks.append(
            suites.run_flow_margin(Ms=(M,), seed=seed,
                                   tol=tol.get("flow-boundary-margin"), spec=model)
        )
    if suite == "moment-m1" or (suite == "all" and M == 1):
        if M != 1:
            raise ConfigError(f"suite 'moment-m1' requires M = 1, config has M = {M}")
        checks.append(suites.run_moment_m1(seed=seed, tol=tol.get("moment-m1")))
    return checks


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    checks = _verify_checks(cfg, args.suite, seed, args.drift_form)
    report = suites.build_report(args.suite, checks, seed, cfg.M)
    print(report.text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.out}")
    return 0 if report.overall_pass else 1


def _load_x0(args, cfg: ModelConfig) -> PhasePoint:
    if args.x0 == "boundary-seed":
        seed = args.seed if args.seed is not None else cfg.seed
        return random_boundary_point(cfg.M, seed)
    if not args.x0_file:
        raise ConfigError("--x0 file requires --x0-file PATH")
    with open(args.x0_file, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
                field="--x0-file",
            ) from exc
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object", field="--x0-file")
    if data.get("M") != cfg.M:
        raise ConfigError(
            f"initial point M = {data.get('M')} does not match config M = {cfg.M}"
        )
    if "packed" not in data:
        raise ConfigError('missing "packed" list', field="--x0-file")
    try:
        packed = np.asarray(data["packed"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f'"packed" must be a list of numbers: {exc}', field="--x0-file") from exc
    if not np.all(np.isfinite(packed)):
        raise ConfigError('"packed" values must be finite', field="--x0-file")
    return PhasePoint(cfg.M, packed)


def cmd_flow(args) -> int:
    if args.steps < 1:
        raise ConfigError(f"must be >= 1, got {args.steps}", field="--steps")
    if not (math.isfinite(args.dt) and args.dt > 0.0):
        raise ConfigError(f"must be finite and positive, got {args.dt!r}", field="--dt")
    cfg = load_config(args.config)
    _check_cap("flow", cfg.M)
    spec, _shift = config_to_spec(cfg)
    x0 = _load_x0(args, cfg)
    traj = flow(x0, spec, args.dt, args.steps, method=args.method)
    header = ["time"]
    header += [f"x_{p.alpha}_{p.beta}" for p in pair_enumerate(cfg.M)]
    header.append("margin")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for time_val, point, margin in zip(traj.times, traj.points, traj.margins):
            row = [f"{time_val:.10g}"]
            row += [f"{v:.16e}" for v in point.packed]
            row.append(f"{margin:.16e}")
            fh.write(",".join(row) + "\n")
    print(f"trajectory written to {args.out} ({args.steps} steps, dt={args.dt})")
    print(f"final margin: {traj.margins[-1]:.3e}")
    return 0


def cmd_preset(args) -> int:
    preset = preset_hubbard(args.sites, args.hop, args.onsite, args.geometry)
    cfg = {
        "M": preset.M,
        "preset": {
            "name": "hubbard",
            "sites": args.sites,
            "hop": args.hop,
            "onsite": args.onsite,
            "geometry": args.geometry,
        },
        "seed": args.seed if args.seed is not None else 0,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    n_t = int(np.sum(np.asarray(preset.t.packed) != 0.0))
    print(f"config written to {args.out}")
    print(f"M = {preset.M}, {n_t} quadratic entries, {len(preset.g.table)} quartic entries")
    print(f"dropped identity shift: {preset.identity_shift:+.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majoranaq",
        description="Majorana phase-space dynamics: verification and flow runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--config", required=True, help="model config JSON")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="override the config seed")
    p_verify.add_argument("--out", default=None, help="write JSON report here")
    p_verify.add_argument(
        "--drift-form", choices=("eq36", "eq50"), default="eq36",
        help="drift assembly for the fpe suite: eq36 (defining decomposition, "
             "asserted) or eq50 (alternative closed form, recorded only)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_flow = sub.add_parser("flow", help="integrate the drift flow, write CSV")
    p_flow.add_argument("--config", required=True)
    p_flow.add_argument("--x0", choices=("boundary-seed", "file"),
                        default="boundary-seed")
    p_flow.add_argument("--x0-file", default=None,
                        help="JSON {'M': ..., 'packed': [...]} when --x0 file")
    p_flow.add_argument("--dt", type=float, default=1e-3)
    p_flow.add_argument("--steps", type=int, default=1000)
    p_flow.add_argument("--method", choices=("euler", "rk4"), default="rk4")
    p_flow.add_argument("--seed", type=int, default=None)
    p_flow.add_argument("--out", required=True, help="trajectory CSV path")
    p_flow.set_defaults(func=cmd_flow)

    p_preset = sub.add_parser("preset", help="write a model-preset config")
    p_preset.add_argument("name", choices=("hubbard",))
    p_preset.add_argument("--sites", type=int, required=True)
    p_preset.add_argument("--hop", type=float, default=0.0)
    p_preset.add_argument("--onsite", type=float, default=0.0)
    p_preset.add_argument("--geometry", choices=("chain",), default="chain")
    p_preset.add_argument("--seed", type=int, default=None)
    p_preset.add_argument("--out", required=True)
    p_preset.set_defaults(func=cmd_preset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DimensionError, IndexRangeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, DivergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
