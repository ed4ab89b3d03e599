"""Benchmark of the ``ihse`` CLI, run from the repository root:

    python3 bench/run.py --workload cluster --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

A run sets up (imports the package, generates the workload's inputs from
``--seed``, writes them, warms up each command once), then repeats the
workload's fixed sequence of in-process ``ihse.cli.run`` calls for about
``--seconds`` seconds, checking every output document.  With ``--trace 1``
it alternates untraced and traced passes and reports per-layer metrics
instead of end-to-end ones.

Each invocation, and each set-up, is followed by a fixed reference kernel.
``setup_s``, ``norm_wall_s`` and ``norm_work_per_s`` use times divided by
the reference kernel's time (times REFERENCE_NOMINAL_S), which cancels the
drift of a shared machine's speed; the plain times are in the details line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (environment, work per invocation, failures).
Inputs, outputs, the result and the trace go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cluster", "oracle", "montecarlo")
SETUP_SAMPLES = 5  # this process plus four fresh interpreters; setup_s is their median
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "norm_wall_s": "s", "norm_work_per_s": "1/s", "peak_rss_mb": "MB"}
REFERENCE_NOMINAL_S = 0.015  # reference kernel time that defines "normalized" seconds


class SetupError(RuntimeError):
    pass


@dataclass
class Outcome:
    """One invocation's result within one pass."""

    key: str
    seconds: float
    reference: float = 0.0  # reference kernel seconds, measured right after
    digest: str = ""
    work: int = 0
    doc: dict = field(default=None, repr=False)
    problems: list = field(default_factory=list)

    @property
    def normalized(self) -> float:
        """Seconds rescaled to the speed at which the reference kernel takes
        REFERENCE_NOMINAL_S."""
        return self.seconds * REFERENCE_NOMINAL_S / self.reference


def reference_seconds() -> float:
    """Time of a fixed CPU kernel shaped like the program's work: small
    numpy arrays and float arithmetic in an interpreted loop, then a few
    operations on larger arrays.  On a shared host the CPU's speed drifts by
    up to a quarter over minutes, and the program and this kernel slow
    together; dividing by it cancels the drift and keeps every change in
    the program."""
    import numpy

    start = time.perf_counter()
    total = 0.0
    points = numpy.array([[0.5, 1.0], [2.0, 3.0], [4.0, 0.0]])
    for i in range(3000):
        moved = points + 0.001 * i
        total += float(numpy.linalg.norm(moved[0] - moved[1])) + float(moved[2] @ moved[1]) + math.sqrt(i)
    values = numpy.arange(4096.0)
    for _ in range(100):
        values = numpy.sqrt(values * values + 1.0)
    return time.perf_counter() - start


def call(cli, invocation, out_dir: Path) -> Outcome:
    """Run one invocation in process and check its document."""
    out = out_dir / (invocation.key.replace("/", "_") + ".json")
    out.unlink(missing_ok=True)
    saved = {name: os.environ.get(name) for name in invocation.env}
    os.environ.update(invocation.env)
    error = None
    start = time.perf_counter()
    try:
        code = cli.run([*invocation.argv, "--output", str(out)])
    except (Exception, SystemExit):
        code, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    outcome = Outcome(invocation.key, seconds)
    if error is not None:
        outcome.problems.append(f"raised: {error}")
        return outcome
    if code != 0:
        outcome.problems.append(f"exit code {code}")
        return outcome
    try:
        data = out.read_bytes()
        outcome.digest = hashlib.sha256(data).hexdigest()
        outcome.doc = json.loads(data)
        outcome.problems += invocation.check(outcome.doc)
        outcome.work = invocation.work(outcome.doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        outcome.problems.append(f"unreadable document: {exc!r}")
    return outcome


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate and write the inputs, and warm up each command.
    Returns (plan, cli module, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ihse.cli
    import workloads

    if Path(ihse.__file__).resolve().parent != SRC / "ihse":
        raise SetupError(f"imported ihse from {ihse.__file__}, not from {SRC}")
    if workdir.exists():
        shutil.rmtree(workdir)
    (workdir / "out").mkdir(parents=True)
    plan = workloads.WORKLOADS[workload].build(seed, workdir)
    for invocation in plan.warmups:
        outcome = call(ihse.cli, invocation, workdir / "out")
        if outcome.problems:
            raise SetupError(f"warm-up {invocation.key} failed: {outcome.problems}")
    return plan, ihse.cli, time.perf_counter() - start


def setup_sample(seconds: float) -> dict:
    """One set-up time, plain and normalized like every invocation by the
    reference kernel measured right after it."""
    reference = statistics.median(reference_seconds() for _ in range(3))
    return {"setup_s": seconds, "norm_setup_s": seconds * REFERENCE_NOMINAL_S / reference}


def child_setup_sample(workload: str, seed: int, workdir: Path) -> dict:
    """Set-up time measured in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(workdir)]
    argv += ["--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SetupError(f"set-up in a fresh interpreter failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(plan, cli, out_dir: Path, recorder=None) -> list[Outcome]:
    outcomes = []
    for invocation in plan.invocations:
        if recorder is not None:
            recorder.begin_invocation({"key": invocation.key, "command": invocation.command})
        outcome = call(cli, invocation, out_dir)
        outcome.reference = reference_seconds()
        outcomes.append(outcome)
    problems = plan.cross_check({o.key: o.doc for o in outcomes if o.doc is not None})
    for outcome in outcomes:
        outcome.problems += problems.get(outcome.key, [])
    return outcomes


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def invocation_medians(passes: list[list[Outcome]], normalized: bool = True) -> dict[str, float]:
    """Median (normalized) seconds of each invocation over the passes.
    Their sum is the wall time of the sequence; taking medians per
    invocation keeps a burst of machine noise in one pass from moving the
    whole pass."""
    return {
        o.key: statistics.median(p[k].normalized if normalized else p[k].seconds for p in passes)
        for k, o in enumerate(passes[0])
    }


def parallel_efficiency(seconds: dict[str, float]) -> float:
    """Mean over families of t(1 thread) / (threads x t(threads))."""
    import workloads

    threads = workloads.measure_threads()
    ratios = [
        seconds[f"measure/{family}-t1"] / (threads * seconds[f"measure/{family}-t{threads}"])
        for family in "EP"
        if f"measure/{family}-t1" in seconds
    ]
    return statistics.fmean(ratios) if ratios else 0.0


def layer_summary(per_pass: list[dict]) -> tuple[dict, list[str]]:
    """Counts from the first traced pass (later passes must repeat them
    exactly); timings as medians over traced passes."""
    summary, unsteady = {}, []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if all(isinstance(v, int) for v in values):
            summary[name] = values[0]
            if len(set(values)) > 1:
                unsteady.append(name)
        else:
            summary[name] = statistics.median(values)
    return summary, unsteady


def measure(args) -> int:
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    plan, cli, own_setup = setup(args.workload, args.seed, workdir)
    import tracing
    import workloads

    setups = [setup_sample(own_setup)]
    for k in range(SETUP_SAMPLES - 1):
        setups.append(child_setup_sample(args.workload, args.seed, workdir / f"setup{k}"))
        shutil.rmtree(workdir / f"setup{k}")

    recorder = tracing.Recorder() if args.trace else None
    passes: list[tuple[bool, list[Outcome]]] = []
    per_pass: list[dict] = []  # layer metrics of each traced pass
    first_digest: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            first_id = len(recorder.invocations)
            with tracing.instrument(recorder):
                outcomes = run_pass(plan, cli, workdir / "out", recorder)
            docs = {o.key: o.doc for o in outcomes if o.doc is not None}
            per_pass.append(tracing.layer_metrics(recorder, range(first_id, first_id + len(outcomes)), docs))
            recorder.seal()
        else:
            outcomes = run_pass(plan, cli, workdir / "out")
        for o in outcomes:
            o.doc = None  # checked; keep memory flat over many passes
            if o.digest and first_digest.setdefault(o.key, o.digest) != o.digest:
                o.problems.append("document differs from the same invocation's first document in this run")
        passes.append((traced, outcomes))
        elapsed = time.perf_counter() - start
        last = sum(o.seconds for o in outcomes)
        enough = not args.trace or len(passes) >= 2
        if enough and elapsed + last > args.seconds:
            break

    all_outcomes = [o for _, outcomes in passes for o in outcomes]
    failed = [o for o in all_outcomes if o.problems]
    untraced = [outcomes for traced, outcomes in passes if not traced]
    medians = invocation_medians(untraced)
    wall = sum(medians.values())
    raw_wall = sum(invocation_medians(untraced, normalized=False).values())
    work = sum(o.work for o in untraced[0])
    work_unit = workloads.WORKLOADS[args.workload].work_unit
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "passes": len(passes),
        "setup_samples_s": [sample["setup_s"] for sample in setups],
        "pass_walls_s": [sum(o.seconds for o in outcomes) for _, outcomes in passes],
        "wall_s": raw_wall,
        f"{work_unit}_per_s": work / raw_wall,
        "reference_s": statistics.median(o.reference for o in all_outcomes),
        "fail_frac": len(failed) / len(all_outcomes),
        "work": {o.key: o.work for o in untraced[0]},
        "seconds": {key: [o.seconds for _, outcomes in passes for o in outcomes if o.key == key] for key in medians},
        "argv": {inv.key: list(inv.argv) for inv in plan.invocations},
        "failures": [{"key": o.key, "problems": o.problems[:3]} for o in failed[:10]],
    }
    if args.trace:
        layers, unsteady = layer_summary(per_pass)
        traced_wall = sum(invocation_medians([outcomes for traced, outcomes in passes if traced]).values())
        layers["measure_mc.parallel_efficiency"] = parallel_efficiency(medians)
        layers["trace.overhead_frac"] = traced_wall / wall - 1.0
        metrics = {key: {"value": layers[key], "unit": unit} for key, (unit, _) in tracing.PER_LAYER.items()}
        details["unsteady_counts"] = unsteady
        recorder.write(workdir / "trace.json.gz")
    else:
        values = {
            "setup_s": statistics.median(sample["norm_setup_s"] for sample in setups),
            "norm_wall_s": wall,
            "norm_work_per_s": work / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]} for key, value in values.items()}
    result = {"correct": not failed, "attempted": len(all_outcomes), "failed": len(failed), "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps({"details": details, **result}, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter; prints each
    metric by name with its unit."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        details, result = json.loads(lines[-2])["details"], json.loads(lines[-1])
        named = {k: v for k, v in details.items() if k.endswith("_per_s") or k in ("wall_s", "fail_frac")}
        for key, value in named.items():
            unit = "1/s" if key.endswith("_per_s") else "s" if key == "wall_s" else "ratio"
            print(f"{workload:<11} {key:<40} {value:>16.6g} {unit}")
        for key, metric in result["metrics"].items():
            print(f"{workload:<11} {key:<40} {metric['value']:>16.6g} {metric['unit']}")
            totals["metrics"][f"{workload}.{key}"] = metric
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "ihse" / "__init__.py").is_file():
        print(f"bench: no ihse sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            print(json.dumps(setup_sample(setup(args.workload, args.seed, Path(args.setup_only))[2])))
            return 0
        if args.workload == "all":
            return run_all(args)
        return measure(args)
    except (SetupError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
