"""psdlab benchmark: one command per workload, every metric by name and unit.

    python3 perfbench/run.py --workload train_psd --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): train_psd, ablate_noisy, generate_eval. With
``--trace 0`` the run times the workload's psdlab commands and reports the
end-to-end metrics of BENCHMARK.json:

- wall_ref: median over repeats of the commands' wall time divided by the
  mean time of a fixed reference computation sampled while they ran
  (workloads.HostSpeed), which cancels most of a shared host's drift;
- cpu_ref: the same for the CPU time of this process and its children;
- peak_rss_mb: peak resident set of this process or its largest child;
- setup_s: median over 5 set-ups of a fresh interpreter importing the CLI,
  making the workload's inputs and one small warm-up command; each set-up
  is timed between reference samples and scaled to the seconds it takes
  when the reference takes its nominal 20 ms, for the same reason.

Raw seconds, and the figures particular to one workload (train steps per
second, generate and eval seconds, the t2i R@1 gain of swapped_dynamic over
baseline) are printed before the result. With ``--trace 1`` the run executes
the traced program of tracing.py instead, the same for every workload, and
reports the per-layer metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the environment and every figure in words.
``--size tiny`` shrinks every input for the benchmark's own tests.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the command exits 2 before measuring anything. BLAS is
pinned to one thread per process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads BLAS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train_psd", "ablate_noisy", "generate_eval")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def _blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _fmt(samples: list[float]) -> str:
    return (f"median of {len(samples)}, min {min(samples):.4f}, max {max(samples):.4f}"
            if len(samples) > 1 else "1 sample")


def measure(args, work: Path, checks) -> dict:
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    times, w = workloads.run_workload(cls, ROOT, work, args.seed, args.seconds, args.size, checks)
    metrics = {
        "wall_ref": {"value": statistics.median(times["wall_ref"]), "unit": "x_ref"},
        "cpu_ref": {"value": statistics.median(times["cpu_ref"]), "unit": "x_ref"},
        "peak_rss_mb": {"value": workloads.peak_rss_mb(), "unit": "MB"},
        "setup_s": {"value": statistics.median(times["setup_s"]), "unit": "s"},
    }
    for name in ("wall_ref", "cpu_ref", "wall_s", "cpu_s", "setup_s", "setup_raw_s"):
        unit = "x_ref" if name.endswith("_ref") else "s"
        print(f"{name}: {statistics.median(times[name]):.4f} {unit} ({_fmt(times[name])})")
    print(f"peak_rss_mb: {metrics['peak_rss_mb']['value']:.1f} MB")
    for name, (unit, samples) in w.details.items():
        print(f"{name}: {statistics.median(samples):.4f} {unit} ({_fmt(samples)})")
    return metrics


def trace(args, work: Path, checks) -> dict:
    import tracing
    import workloads

    sizes = workloads.SIZES[args.size]
    program = tracing.TracedProgram(args.seed, sizes, checks)
    # A tiny cycle first, thrown away: first calls run cold.
    warm = tracing.TracedProgram(args.seed, {**workloads.SIZES["tiny"], "epochs": 1},
                                 workloads.Checks())
    warm.cycle(tracing.Tracer(), work)
    tr = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    cycles = 0
    while cycles < 1 or time.perf_counter() < deadline:
        program.cycle(tr, work)
        cycles += 1
    metrics = program.metrics(tr)
    print(f"traced cycles: {cycles}, steps: {metrics['trainer.steps']['value']:.0f}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "psdlab" / "__init__.py").is_file():
        print(f"perfbench: no psdlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import psdlab

    if Path(psdlab.__file__).resolve().parent != (SRC / "psdlab").resolve():
        print(f"perfbench: imported psdlab from {psdlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    print("env:", json.dumps(environment(), sort_keys=True))
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  size: {args.size}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    checks = workloads.Checks()
    try:
        metrics = (trace if args.trace else measure)(args, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    failed = len(checks.failures)
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
