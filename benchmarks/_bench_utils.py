"""Helpers shared by the benchmark files (result persistence, single-run timing).

Besides the rendered text tables, benchmarks can persist structured JSON
results via :func:`write_result_json`; every JSON payload is stamped with
the numpy / BLAS / platform environment (:func:`numpy_environment`) *and*
the code version (:func:`code_version`: git commit, dirty flag, ``repro``
version), so the committed ``benchmarks/results/*.json`` trajectory stays
attributable to the tree that produced each number.

Importing this module pins BLAS pools to one thread per call *before*
numpy loads (the thread-count environment variables, set unless already
set): an implicit multi-threaded BLAS pool underneath would distort the
numbers and thrash the machine.  The effective values and the CPU count
are stamped into every JSON result via :func:`numpy_environment`.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

#: The thread-count variables the common BLAS / OpenMP builds read.
BLAS_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Set before numpy is imported: env-var pinning is only authoritative
# while numpy has not yet loaded its BLAS.
for _var in BLAS_THREAD_ENV_VARS:
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402  (must import after the BLAS pin)

RESULTS_DIR = Path(__file__).parent / "results"
_REPO_ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str | None:
    try:
        completed = subprocess.run(
            ["git", *args],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip()


def code_version() -> dict:
    """The code identity of a benchmark run: git commit, dirty flag, version.

    The dirty flag ignores ``benchmarks/results/``: a benchmark rewrites
    its own result files before this stamp is computed, which must not
    mark an otherwise-pristine checkout dirty.
    """
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", ".", ":(exclude)benchmarks/results")
    try:
        import repro

        repro_version = repro.__version__
    except Exception:  # pragma: no cover - repro not importable standalone
        repro_version = "unknown"
    return {
        "git_commit": commit or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "repro_version": repro_version,
    }


def numpy_environment() -> dict:
    """The numpy/BLAS/platform facts that shape kernel performance."""
    try:
        blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
        blas_info = {
            "name": blas.get("name", "unknown"),
            "found": blas.get("found", False),
            "version": blas.get("version", "unknown"),
        }
    except Exception:  # pragma: no cover - config layout varies by build
        blas_info = {"name": "unknown"}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "cpu_count": os.cpu_count(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_ENV_VARS},
    }


def percentiles(values, points=(50.0, 95.0, 99.0, 99.9)) -> dict[str, float]:
    """Labelled percentiles (``{"p50": ..., "p99": ...}``) of ``values``.

    Delegates to :func:`repro.frontend.stats.percentiles` -- the same
    implementation the serving front-end's latency harness reports with,
    so benchmark tables and front-end reports can never disagree on what
    "p99" means.  Returns ``{}`` for empty input.
    """
    from repro.frontend.stats import percentiles as _percentiles

    return _percentiles(values, points)


def write_result(name: str, text: str) -> None:
    """Persist a rendered result table and echo it to stdout."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


def telemetry_snapshot(telemetry) -> dict | None:
    """A JSON-ready telemetry snapshot, or ``None`` when no hub was attached.

    Histogram summaries are kept; callback-gauge values are materialised at
    call time, so the stamp records what the stack's live metrics said when
    the benchmark finished.
    """
    if telemetry is None:
        return None
    return telemetry.snapshot()


def write_result_json(name: str, payload: dict, telemetry=None) -> None:
    """Persist structured benchmark results with environment + code stamped in.

    Pass a :class:`repro.telemetry.Telemetry` hub as ``telemetry`` to also
    stamp the run's final metric snapshot into the document (under
    ``"telemetry"``), so committed results carry the live counters --
    cache hit rates, batch sizes, latency histograms -- alongside the
    benchmark's own numbers.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    document = {"environment": numpy_environment(), "code": code_version(), **payload}
    snapshot = telemetry_snapshot(telemetry)
    if snapshot is not None:
        document["telemetry"] = snapshot
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    print(f"[json written to {path}]")


def run_once(benchmark, function):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, rounds=1, iterations=1)
