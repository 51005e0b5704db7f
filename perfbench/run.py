"""qolcr benchmark: one workload, one mode, one JSON result line.

    python3 perfbench/run.py --workload {repeat,multilayer,cli} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; qolcr is imported from the checkout's
src/ (nothing needs installing or building). --seed is the master seed of
every run. With --trace 0 the workload is measured untraced and the
end-to-end metrics are reported; with --trace 1 it is measured again with
spans around each qolcr layer and the per-layer metrics are reported.
Correctness checks run in both modes. Human-readable lines come first; the
last line of stdout is {"correct", "attempted", "failed", "metrics"}.

The end-to-end timings are scaled to a nominal machine speed by a reference
kernel timed between the workload's operations (see speed.py); the values
as measured are printed on the lines before. Per-layer values are as
measured.

BLAS and OpenMP are pinned to one thread here and in every child
interpreter. Artifacts go to .bench_build/perfbench/ in the checkout and
are removed at the end; with --trace 1 the spans stay there as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("repeat", "multilayer", "cli"))
    parser.add_argument("--seed", type=int, default=20260814)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def machine():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {k: os.environ[k] for k in THREAD_VARS}}


def _number(value):
    """A metric value for JSON; NaN (no run produced it) becomes null."""
    value = float(value)
    return value if math.isfinite(value) else None


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qolcr" / "__init__.py").is_file():
        print(f"perfbench: no qolcr package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))

    import layers
    import workloads

    mode = "traced" if args.trace else "untraced"
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{mode}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = workloads.Bench(root=ROOT, work=work, seed=args.seed,
                            seconds=float(args.seconds), env=dict(os.environ))
    try:
        values = workloads.WORKLOADS[args.workload][args.trace](bench)
    except workloads.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = layers.PER_LAYER_UNITS if args.trace else layers.END_TO_END_UNITS
    if set(values) != set(units):
        raise RuntimeError(f"metric names differ from the catalog: "
                           f"{sorted(set(values) ^ set(units))}")

    print(f"# {args.workload} {mode}, seed {args.seed}, {args.seconds} s")
    print(f"# machine {json.dumps(machine(), sort_keys=True)}")
    for note in bench.notes:
        print(f"# {note}")
    for name, passed in bench.checks.items():
        print(f"# check {'ok  ' if passed else 'FAIL'} {name}")
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": _number(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
