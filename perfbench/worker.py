"""One benchmark process: set a workload up, run its passes, check them.

``run.py`` starts this file as a fresh interpreter with ``src`` on
``PYTHONPATH``.  It prints ``ready`` once set-up (imports, potential parsing,
input generation) is done, then one JSON line with its pass times, checks
and, in trace mode, the per-layer metrics.  To debug one workload by hand:

    PYTHONPATH=src python3 perfbench/worker.py --workload rate-study \\
        --mode run --budget 10 --work-dir .perfbench_work/debug

Modes: ``setup`` stops after set-up; ``run`` times a cold pass and then warm
passes while the budget lasts; ``trace`` does the same untraced and then one
warm pass under the profiler.  ``--once-checks`` adds the workload's one-off
checks, if it has any, after the first pass and outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# (thread count, configuration) entry points of the OpenBLAS builds that
# numpy and scipy wheels ship, with and without the 64-bit-integer suffix.
OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def blas_info() -> list[dict]:
    """Configuration and current thread count of each OpenBLAS bundled with
    numpy and scipy (each wheel ships its own copy)."""
    import ctypes

    import numpy
    import scipy

    out = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.with_name(package.__name__ + ".libs")
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            entry = {"package": package.__name__, "library": lib.name}
            for threads, config in OPENBLAS_SYMBOLS:
                if hasattr(handle, threads) and hasattr(handle, config):
                    getattr(handle, config).restype = ctypes.c_char_p
                    entry["threads"] = int(getattr(handle, threads)())
                    entry["config"] = getattr(handle, config)().decode()
                    break
            out.append(entry)
    return out


def software() -> dict:
    import platform

    import numpy
    import scipy

    def built_with(package) -> dict:
        blas = package.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_built": {"numpy": built_with(numpy), "scipy": built_with(scipy)},
        "blas": blas_info(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--budget", type=float, default=0.0, help="seconds for cold plus warm passes")
    parser.add_argument("--min-warm", type=int, default=1, help="warm passes to make even past the budget")
    parser.add_argument("--once-checks", action="store_true", help="one-off checks after the cold pass")
    parser.add_argument("--fingerprints", help="file of first-pass fingerprints shared by the run's workers")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()

    import eamchain
    from workloads import WORKLOADS, repeats

    package_dir = Path(eamchain.__file__).parent
    if package_dir.resolve() != (ROOT / "src" / "eamchain").resolve():
        print(f"eamchain imported from {package_dir}, not from this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    out_dir = Path(args.work_dir) / "out"
    report = {"passes": [], "failed": 0, "attempted": 0}
    shared = Path(args.fingerprints) if args.fingerprints else None
    fingerprints = json.loads(shared.read_text()) if shared and shared.exists() else None

    def timed_pass():
        if out_dir.exists():
            shutil.rmtree(out_dir)
        start = time.perf_counter()
        result = workload.run_pass(out_dir)
        return result, time.perf_counter() - start

    def account(result, seconds=None):
        nonlocal fingerprints
        ok = workload.check(result, out_dir)
        if hasattr(workload, "fingerprints"):
            prints = workload.fingerprints(result)
            if fingerprints is None:
                fingerprints = prints
                if shared:
                    shared.write_text(json.dumps(prints))
            ok = [a and b for a, b in zip(ok, repeats(prints, fingerprints))]
        report["attempted"] += len(ok)
        report["failed"] += ok.count(False)
        if seconds is not None:
            report["passes"].append(seconds)

    result, seconds = timed_pass()
    account(result, seconds)
    if args.once_checks and hasattr(workload, "once_checks"):
        once = workload.once_checks(result)
        report["attempted"] += len(once)
        report["failed"] += once.count(False)
    # The budget counts pass time, not the one-off checks.
    start = time.perf_counter() - seconds
    warm = 0
    while warm < args.min_warm or time.perf_counter() - start + seconds <= args.budget:
        result, seconds = timed_pass()
        account(result, seconds)
        warm += 1

    if args.mode == "trace":
        from layers import layer_metrics, run_traced

        (result, traced), stats, calls = run_traced(timed_pass, package_dir)
        account(result)
        p = workload.potential
        codes = [getattr(f, d).__code__ for f in (p.pair, p.density, p.embedding) for d in ("eval", "d1", "d2")]
        metrics = layer_metrics(stats, calls, package_dir, codes)
        metrics["cli.bytes_written"] = (
            sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file()) if out_dir.exists() else 0
        )
        metrics["traced_pass_s"] = traced
        report["trace"] = metrics

    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["software"] = software()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
