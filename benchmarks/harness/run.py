"""One harness, four workloads: the benchmark BENCHMARK.json names.

    python3 benchmarks/harness/run.py --workload <name|all> --seed <int>
        [--seconds N] [--trace 0|1] [--preset tiny|default|m] [--out DIR]

Each workload runs in a fresh process with BLAS pinned to one thread,
builds the pinned fixture, measures a fixed number of operations (counts
scale with ``--seconds``, never with the clock), verifies its outputs and
prints every metric by name with its unit.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that BENCHMARK.json lists.  The exit code is non-zero when
an operation failed or an output check did not pass.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PROCESS_START = time.perf_counter()
HARNESS_DIR = Path(__file__).resolve().parent
ROOT = HARNESS_DIR.parents[1]
WORKLOADS = ("estimate_cold", "route_cold", "serve_mixed", "ingest_refresh")
#: Units of per-layer metrics a workload may leave out: a layer that did no
#: work in a workload reports 0 of these.  A time or a rate must be measured.
IDLE_UNITS = ("share", "count", "bytes")
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal measured length; operation counts scale with it "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--preset", "--scale", dest="preset", default="default",
                        choices=("tiny", "default", "m"))
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for result_<workload>.json and trace_<workload>.jsonl")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own fresh process; non-zero if any of them failed."""
    options = ["--seed", str(args.seed), "--trace", str(args.trace), "--preset", args.preset]
    if args.seconds is not None:
        options += ["--seconds", str(args.seconds)]
    if args.out is not None:
        options += ["--out", str(args.out)]
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        child = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        status |= subprocess.run(child + options).returncode
    return status


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no src/repro to benchmark", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import common  # pins nothing itself; BLAS was pinned in main() before numpy loads

    import_s = time.perf_counter() - PROCESS_START
    seconds = float(benchmark["run_seconds"]) if args.seconds is None else args.seconds
    scratch = HARNESS_DIR / ".work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    ctx = common.Context(
        preset_name=args.preset, seed=args.seed, seconds=seconds, trace=bool(args.trace),
        work_dir=work_dir, import_s=import_s,
    )
    environment = common.environment(ctx, ROOT, BLAS_ENV_VARS)
    try:
        result = importlib.import_module(args.workload).run(ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    section = "per_layer" if ctx.trace else "end_to_end"
    reported = result.per_layer if ctx.trace else result.end_to_end
    metrics = {}
    for spec in benchmark[section]:
        name, unit = spec["name"], spec["unit"]
        if name in reported:
            value = reported[name]
        elif ctx.trace and unit in IDLE_UNITS:
            value = 0.0
        else:
            result.fail(f"metric {name} was not measured")
            continue
        if not math.isfinite(value):
            result.fail(f"metric {name} is not finite: {value}")
            continue
        metrics[name] = {"value": float(value), "unit": unit}
    for name in sorted(set(reported) - set(metrics)):
        result.fail(f"metric {name} is not listed in BENCHMARK.json {section}")

    correct = result.failed == 0
    print(f"# {args.workload} seed={ctx.seed} seconds={ctx.seconds:g} trace={int(ctx.trace)} "
          f"preset={ctx.preset_name}")
    print(f"# environment {json.dumps(environment)}")
    for name, entry in metrics.items():
        print(f"{section:<10} {name:<44} {entry['value']:>16.6f} {entry['unit']}")
    for name, (value, unit) in result.detail.items():
        print(f"{'detail':<10} {name:<44} {value:>16.6f} {unit}")
    for reason in result.failures:
        print(f"FAILED     {reason}")
    print(f"# attempted={result.attempted} failed={result.failed} correct={correct}")
    final = {
        "correct": correct, "attempted": int(result.attempted), "failed": int(result.failed),
        "metrics": metrics,
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        document = {
            "workload": args.workload, "environment": environment, **final,
            "detail": {n: {"value": v, "unit": u} for n, (v, u) in result.detail.items()},
            "failures": result.failures,
        }
        name = f"result_{args.workload}_seed{ctx.seed}_trace{int(ctx.trace)}_{os.getpid()}.json"
        (args.out / name).write_text(json.dumps(document, indent=2) + "\n")
        if result.recorder is not None:
            result.recorder.write(args.out / f"trace_{args.workload}.jsonl")
    print(json.dumps(final), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # Before numpy loads: an implicit BLAS pool would add busy threads.
    for variable in BLAS_ENV_VARS:
        os.environ[variable] = "1"
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
