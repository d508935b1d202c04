"""eamchain benchmark: three experiment workloads, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload critical-strain --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): ``critical-strain``, ``rate-study`` and
``deformed-assembly``.  Each is a closed loop, one process and one caller.
Every process is a fresh interpreter importing ``eamchain`` from ``src``;
nothing is installed.

``--trace 0`` prints the end-to-end metrics, from untraced processes:

* ``setup_s``: fresh interpreter to ready (import, potential parsing, input
  generation); median over every process of the run.
* ``first_pass_s``: the cold first pass of a process, term-table builds
  included; median over the worker processes.
* ``wall_s``: median warm pass, over all worker processes.
* ``peak_rss_mib``: peak resident memory of a worker process; median.

A run is ROUNDS rounds, each of SETUP_PER_ROUND set-up-only processes and
one worker process that times a cold pass and then warm passes for its share
of ``--seconds``.  Interleaving spreads every metric's samples over the
whole run: on a shared machine the speed drifts in phases of tens of
seconds, and a metric sampled in only part of the run would follow them
more.  Every worker makes at least one warm pass, so a run takes about
``--seconds``, or up to a few passes more where passes are long next to a
round's share (rate-study on a slow machine).

BLAS threads.  Every process runs with one BLAS thread (OPENBLAS, OMP and
MKL thread counts set to 1 in the child environment only), except the one
``--trace 1`` worker that measures ``blas_default.wall_s`` with the
libraries' default threading.  numpy and scipy each ship their own OpenBLAS
with its own thread pool; on a small machine the two pools contend, and with
default threading a critical-strain pass took twice as long and varied about
twice as much from run to run.  Pinning the thread count keeps the gated
numbers steady, and a change that only alters threading cannot show as a
gain in them; the default-threading figure is reported beside them.

``--trace 1`` runs untraced passes and then one warm pass under cProfile
(layers.py) and prints the per-layer metrics: exact counts, self and
cumulative seconds, computed flops and bytes, the tracing overhead, and the
warm pass of the same workload with default BLAS threading.  Read
per-layer times as shares of the traced pass: profiling inflates Python-heavy
layers more than BLAS-heavy ones.

Every pass checks its outputs; each output out of tolerance is a failed
operation.  The last line of stdout is the JSON result; the line before it
records the machine, software versions, seed and all samples.  Compare
numbers only between runs on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("critical-strain", "rate-study", "deformed-assembly")
REQUIRED = ("BENCHMARK.json", "src/eamchain/__init__.py", "src/eamchain/data/default_eam.pot")

ROUNDS = 3
SETUP_PER_ROUND = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A benchmark process failed; no result can be reported."""


class Runner:
    """Starts worker processes one at a time and collects their reports."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.end = self.started + seconds
        self.deadline = self.started + DEADLINE_S
        self.fingerprints = work / "fingerprints.json"

    def start(self, mode: str, budget: float = 0.0, min_warm: int = 1, once_checks: bool = False,
              default_threads: bool = False):
        """Run one worker; returns (set-up seconds, report or None)."""
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
            "--budget", repr(budget), "--min-warm", str(min_warm),
            "--work-dir", tempfile.mkdtemp(dir=self.work), "--fingerprints", str(self.fingerprints),
        ]
        if once_checks:
            cmd.append("--once-checks")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        for name in THREAD_VARS:
            if default_threads:
                env.pop(name, None)
            else:
                env[name] = "1"
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self._remaining())
            line = proc.stdout.readline() if ready else ""
            setup = time.perf_counter() - start
            if line.strip() != "ready":
                raise BenchError(f"{mode} worker did not get ready: {line.strip()!r}")
            out, _ = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        if mode == "setup":
            return setup, None
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} worker printed no report")
        return setup, json.loads(lines[-1])

    def left(self) -> float:
        """Seconds left until the run's ``--seconds`` are up."""
        return self.end - time.monotonic()

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run passed the {DEADLINE_S:.0f} s deadline")
        return left


def git_commit() -> str:
    """Commit of the checkout, or 'unknown' outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def untraced(runner: Runner):
    setups, reports = [], []
    for i in range(ROUNDS):
        share_end = time.monotonic() + runner.left() / (ROUNDS - i)
        setups += [runner.start("setup")[0] for _ in range(SETUP_PER_ROUND)]
        budget = share_end - time.monotonic() - statistics.median(setups)
        setup, report = runner.start("run", budget=budget, once_checks=(i == 0))
        setups.append(setup)
        reports.append(report)
    samples = {
        "setup_s": setups,
        "first_pass_s": [r["passes"][0] for r in reports],
        "wall_s": [s for r in reports for s in r["passes"][1:]],
        "peak_rss_mib": [r["peak_rss_mib"] for r in reports],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, samples, reports


def traced(runner: Runner):
    _, report = runner.start("trace", budget=runner.left() / 2, min_warm=2, once_checks=True)
    _, default = runner.start("run", budget=runner.left(), default_threads=True)
    metrics = dict(report.pop("trace"))
    untraced_pass = statistics.median(report["passes"][1:])
    metrics["untraced_pass_s"] = untraced_pass
    metrics["trace_overhead_ratio"] = metrics["traced_pass_s"] / untraced_pass
    metrics["blas_default.wall_s"] = statistics.median(default["passes"][1:])
    samples = {
        "untraced_passes_s": report["passes"],
        "blas_default_passes_s": default["passes"],
        "blas_default_threads": default["software"]["blas"],
    }
    return metrics, samples, [report, default]


def main() -> int:
    parser = argparse.ArgumentParser(description="eamchain benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"not an eamchain checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        runner = Runner(args.workload, args.seed, args.seconds, work)
        measure = traced if args.trace else untraced
        metrics, samples, reports = measure(runner)
        if set(metrics) != set(units):
            raise BenchError(f"measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for name in units:
        print(f"{name:40s} {metrics[name]:>18.6g} {units[name]}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "machine": machine(),
        "software": reports[0]["software"],
        "samples": samples,
        "pass_counts": [len(r["passes"]) for r in reports],
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
