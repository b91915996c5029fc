"""Benchmark of the majoranaq command line: seeded workloads, gated outputs, traced layers.

Run from the repository root:

    python3 benchmarks/run.py --workload verify-m3 --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's CLI commands, each in a fresh interpreter,
one at a time, and reports the end-to-end metrics.  ``--trace 1`` drives the
same commands in-process through ``majoranaq.cli.main``, alternating
untraced passes with passes traced by ``tracer.Tracer``, and reports the
per-layer metrics.  Both modes time the set-up of fresh interpreters.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Inputs and outputs live in a
temporary directory under ``.benchmarks-out/``, which also keeps the run
record and the spans of the latest traced run of each workload.
"""

from __future__ import annotations

import os

# BLAS threads are capped before numpy is imported here or in any child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchmarks-out"

sys.path.insert(0, str(HERE))
from tracer import Tracer, layer_metrics, per_layer_units  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

# Seed kept out of every run made while the benchmark or a change is tuned;
# claims are confirmed on it.
HELD_OUT_SEED = 918273

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "residual_headroom_dec": "dec",
    "pass_share": "share",
}
SETUP_REPS = 5
# A run must end within 180 s: no pass starts after PASS_BUDGET_CAP_S, and
# children still running at HARD_LIMIT_S are killed.
PASS_BUDGET_CAP_S = 150.0
HARD_LIMIT_S = 170.0
# Nominal duration of the host-speed reference task on an idle host of the
# machine the bounds were set on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).
REFERENCE_NOMINAL_S = 0.035


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Tally:
    """Operations attempted and failed: CLI invocations and gated checks."""

    attempted: int = 0
    failed: int = 0
    headroom: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def record(self, label: str, outcome) -> None:
        self.attempted += 1 + outcome.checks
        self.failed += (0 if outcome.ok else 1) + outcome.failed_checks
        self.headroom.extend(outcome.headroom)
        self.problems.extend(f"{label}: {p}" for p in outcome.problems)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list, work: Path, deadline: float) -> Child:
    """Run one child to completion, killed at ``deadline``; rusage from wait4 on it alone."""
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0,
                 out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"))


def reference_task() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy calls.

    The task does not touch majoranaq, so a change to the program cannot
    move it; only the host's speed does.
    """
    import numpy as np

    start = time.perf_counter()
    a = np.arange(64.0).reshape(8, 8) / 64.0
    eye = np.eye(8)
    acc = 0.0
    for _ in range(2400):
        acc += float(np.linalg.eigvalsh(a @ a.T + eye)[0])
        for j in range(50):
            acc += (j * 0.5) % 3
    return time.perf_counter() - start


class HostSpeed:
    """Rescales each child's times to the nominal host speed.

    The host is shared and its speed drifts by tens of percent over seconds
    to minutes.  The reference task is timed (median of three) before the
    first child and after every child; a child's factor is the nominal
    reference time over the mean of the two timings that bracket it.
    """

    def __init__(self):
        self.times = [self._reference()]
        self.factors: list[float] = []

    @staticmethod
    def _reference() -> float:
        return statistics.median(reference_task() for _ in range(3))

    def factor(self) -> float:
        """Call right after a child ends; returns that child's factor."""
        self.times.append(self._reference())
        self.factors.append(REFERENCE_NOMINAL_S / ((self.times[-2] + self.times[-1]) / 2))
        return self.factors[-1]


def setup_probe(config: str, work: Path, deadline: float) -> dict:
    """A fresh interpreter imports majoranaq and compiles ``config``; adds its wall time."""
    child = run_child([sys.executable, str(HERE / "setup_probe.py"), config], work, deadline)
    if child.code != 0:
        raise RuntimeError(f"set-up probe exited {child.code}: {child.stderr.strip()}")
    probe = json.loads(child.stdout.strip().splitlines()[-1])
    if Path(probe["module"]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"majoranaq imported from {probe['module']}, not {SRC}")
    probe["wall_s"] = child.wall
    return probe


def provenance(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "load": "closed loop, one CLI child at a time",
    }


def repeat(one_pass, probe, args) -> list[dict]:
    """Run passes until the time budget is spent; a set-up probe precedes each pass
    until ``SETUP_REPS`` are taken, so the probes sample the host at several moments.

    ``one_pass`` returns True when the run must stop early.
    """
    reps = 1 if args.tiny else SETUP_REPS
    budget = min(args.seconds, PASS_BUDGET_CAP_S)
    started = time.perf_counter()
    setup, iterations = [], []
    while True:
        begin = time.perf_counter()
        if len(setup) < reps:
            setup.append(probe())
        stop = one_pass()
        iterations.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - started
        if stop or args.tiny or elapsed + max(iterations) > budget:
            break
    while len(setup) < reps:
        setup.append(probe())
    return setup


def measure_cli(workload, tolerances: dict, work: Path, args, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics: every command of a pass in a fresh interpreter."""
    speed = HostSpeed()
    walls, cpus, rss, raw_walls, children = [], [], [], [], []

    def one_pass() -> bool:
        wall = cpu = raw_wall = peak = 0.0
        killed = False
        for step in workload.steps:
            step.output.unlink(missing_ok=True)
            child = run_child([sys.executable, "-m", "majoranaq.cli", *step.argv], work,
                              args.deadline)
            factor = speed.factor()
            children.append([step.label, child.wall, child.cpu, factor])
            wall += child.wall * factor
            cpu += child.cpu * factor
            raw_wall += child.wall
            peak = max(peak, child.rss_mb)
            tally.record(step.label, step.gate(child.code, tolerances))
            if child.code < 0:
                killed = True
                tally.problems.append(f"{step.label}: killed by signal {-child.code}")
        walls.append(wall)
        cpus.append(cpu)
        raw_walls.append(raw_wall)
        rss.append(peak)
        return killed

    def probe() -> dict:
        sample = setup_probe(workload.setup_config, work, args.deadline)
        factor = speed.factor()
        children.append(["setup", sample["wall_s"], None, factor])
        sample["scaled_s"] = sample["wall_s"] * factor
        return sample

    setup = repeat(one_pass, probe, args)
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": [s["scaled_s"] for s in setup],
               "peak_rss_mb": rss, "raw_wall_s": raw_walls,
               "raw_setup_s": [s["wall_s"] for s in setup], "host_factor": speed.factors,
               "reference_s": speed.times, "children": children}
    metrics = {name: statistics.median(samples[name])
               for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    metrics["residual_headroom_dec"] = min(tally.headroom) if tally.headroom else 0.0
    metrics["pass_share"] = (tally.attempted - tally.failed) / tally.attempted
    return metrics, samples


def in_process_pass(cli, workload, tolerances: dict, tally: Tally, tracer: Tracer,
                    index: int) -> float:
    """One pass through ``cli.main``; returns the summed wall time of its commands."""
    wall = 0.0
    for step in workload.steps:
        step.output.unlink(missing_ok=True)
        tracer.run_id = f"{workload.name}/{index}/{step.label}"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = cli.main(list(step.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an uncaught error is a failed invocation
                code = 1
                tally.problems.append(f"{step.label}: {type(exc).__name__}: {exc}")
            wall += time.perf_counter() - start
        tally.record(step.label, step.gate(code, tolerances))
    return wall


def measure_traced(workload, tolerances: dict, work: Path, args, tally: Tally,
                   tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics: untraced and traced in-process passes, alternating."""
    import majoranaq.cli as cli

    speed = HostSpeed()
    untraced, traced, overheads = [], [], []

    def one_pass() -> bool:
        index = 2 * len(traced)
        untraced.append(in_process_pass(cli, workload, tolerances, tally, tracer, index))
        plain = untraced[-1] * speed.factor()
        first = len(tracer.spans)
        tracer.install()
        try:
            wall = in_process_pass(cli, workload, tolerances, tally, tracer, index + 1)
        finally:
            tracer.uninstall()
        overheads.append(wall * speed.factor() - plain)
        traced.append((wall, layer_metrics(tracer.spans, first, wall)))
        return False

    setup = repeat(one_pass, lambda: setup_probe(workload.setup_config, work, args.deadline),
                   args)
    # Every layer metric comes from one traced pass, the median one, so that
    # the layer self times and the uncovered remainder add up to its wall time.
    wall, metrics = sorted(traced, key=lambda item: item[0])[(len(traced) - 1) // 2]
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["setup.import_s"] = min(s["import_s"] for s in setup)
    metrics["config.load_s"] = min(s["load_s"] for s in setup)
    samples = {"untraced_wall_s": untraced, "traced_wall_s": [t for t, _ in traced],
               "overhead_s": overheads, "host_factor": speed.factors,
               "setup_import_s": [s["import_s"] for s in setup],
               "config_load_s": [s["load_s"] for s in setup]}
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and a single pass, to check the output schema")
    args = parser.parse_args(argv)
    args.deadline = time.perf_counter() + HARD_LIMIT_S

    if not (SRC / "majoranaq" / "__init__.py").is_file():
        print(f"error: no majoranaq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from majoranaq.suites import TOLERANCES

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tally = Tally()
    tracer = Tracer()
    try:
        info = provenance(args)
        print("provenance: " + json.dumps(info), flush=True)
        workload = build(args.workload, args.seed, work, tiny=args.tiny)
        if args.trace:
            values, samples = measure_traced(workload, TOLERANCES, work, args, tally, tracer)
            units = per_layer_units()
        else:
            values, samples = measure_cli(workload, TOLERANCES, work, args, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # Only the latest traced run of a workload keeps its spans: they run to megabytes.
        tracer.dump(OUT / f"{args.workload}-spans.jsonl")
    for name, values_list in samples.items():
        if values_list and name != "children":
            print(f"{name}: median {statistics.median(values_list):.4f} over n={len(values_list)}"
                  f" (min {min(values_list):.4f}, max {max(values_list):.4f})")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"provenance": info, "samples": samples, "problems": tally.problems,
              "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
