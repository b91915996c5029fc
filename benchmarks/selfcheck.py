"""Fast self-check of the benchmark's output schema, on the smallest inputs.

Run from the repository root (about 20 s):

    python3 benchmarks/selfcheck.py

For every workload in BENCHMARK.json it runs ``run.py --tiny`` with tracing
off and on, and checks that the last output line carries exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, that every declared
end-to-end or per-layer metric is present with its declared unit and a
finite value, that the outputs passed their gates, and that the traced
layer self times plus the uncovered remainder equal the traced wall time.
It prints the end-to-end metrics of each tiny run with their units, and
checks that the benchmark refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from tracer import LAYERS  # noqa: E402


def run(args: list, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_result(result: dict, declared: list) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"keys {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"correct={result['correct']}, failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"attempted={result['attempted']!r}")
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(expected):
        errors.append(f"missing {sorted(set(expected) - set(metrics))}, "
                      f"undeclared {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            errors.append(f"{name}: unit {entry.get('unit')!r} != {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
    if "trace.wall_s" in expected and not errors:
        covered = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        wall = metrics["trace.wall_s"]["value"]
        if abs(covered + metrics["trace.uncovered_s"]["value"] - wall) > 1e-9 * max(wall, 1.0):
            errors.append(f"layer self times {covered} + uncovered != wall {wall}")
    return errors


def check_refusal() -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    out = ROOT / ".benchmarks-out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = bench["workloads"][0]["name"]
        proc = run([*bench["command"][1:], "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run([*bench["command"][1:], "--workload", workload, "--seed", "1",
                        "--seconds", "1", "--trace", str(trace), "--tiny"], ROOT)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                errors = check_result(result, declared)
                if proc.returncode != 0:
                    errors.append(f"exit {proc.returncode}")
            except (IndexError, ValueError):
                result = {}
                errors = [f"exit {proc.returncode}, no JSON result: {proc.stderr.strip()[-300:]}"]
            failures += bool(errors)
            status = "FAIL" if errors else "ok"
            print(f"{status:4s} {workload} trace={trace} {'; '.join(errors)}".rstrip())
            if trace == 0 and not errors:
                print("     " + "  ".join(f"{name}={m['value']:.4g} {m['unit']}"
                                        for name, m in result["metrics"].items()))
    errors = check_refusal()
    failures += bool(errors)
    print(f"{'FAIL' if errors else 'ok':4s} refuses a directory without the program "
          f"{'; '.join(errors)}".rstrip())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
