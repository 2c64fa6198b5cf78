"""Benchmark trend checker: fresh results vs the committed baselines.

Every benchmark writes a JSON document to ``benchmarks/results/<stem>.json``
stamped with the environment and code version that produced it.  Those
files are committed, so the git history *is* the performance trajectory of
the repository.  This tool closes the loop: after re-running a benchmark
(which overwrites the working-tree file), it diffs the fresh numbers
against the committed baseline (``git show HEAD:benchmarks/results/...``)
and fails when an opted-in metric regressed beyond the tolerance.

Workflow::

    PYTHONPATH=src python benchmarks/bench_frontend_latency.py
    python benchmarks/check_trends.py frontend_latency

    # or sweep everything that changed in the working tree:
    python benchmarks/check_trends.py

Only metrics registered in :data:`TRACKED` can fail the check -- most
numbers in a result document (sizes, counts, configuration echoes) move
legitimately, and latency-style metrics on shared hardware are noisy, so
gating is strictly opt-in.  Everything else is still *reported* as an
informational delta.  ``--max-regression-pct`` (default 25) sets how far a
tracked metric may move in its bad direction before the exit code is 1;
the generous default absorbs machine-to-machine noise while still
catching step-change regressions.

Baselines come from git rather than a side directory, so there is nothing
extra to maintain: the committed file is the baseline, the working-tree
file is the candidate.  Use ``--baseline-ref`` to diff against an older
point (e.g. a release tag).  Documents whose baseline was produced by a
different preset are compared anyway but flagged, since presets change
workload sizes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"
REPO_ROOT = RESULTS_DIR.parent.parent

#: Subtrees that describe the run rather than measure it.
SKIPPED_SUBTREES = ("environment", "code", "telemetry")

#: The opt-in gate registry: result stem -> ((dotted metric path, direction),
#: ...).  Direction is the *good* direction: "higher" metrics regress by
#: falling, "lower" metrics regress by rising.  Add a metric here only when
#: it is stable enough that a >25% move means the code got slower, not that
#: the machine was busy.
TRACKED: dict[str, tuple[tuple[str, str], ...]] = {
    "frontend_latency": (
        ("closed_loop_warm_qps", "higher"),
    ),
    "telemetry_overhead": (
        ("off_qps", "higher"),
        ("on_qps", "higher"),
    ),
    "admin_overhead": (
        ("off_qps", "higher"),
        ("on_qps", "higher"),
    ),
}


def flatten(document: dict, prefix: str = "") -> dict[str, float]:
    """Numeric scalars of ``document`` keyed by dotted path.

    Environment / code / telemetry subtrees are descriptive, not measured,
    and are skipped at any depth.  Booleans are not numbers here.
    """
    flat: dict[str, float] = {}
    for key, value in document.items():
        if key in SKIPPED_SUBTREES:
            continue
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(flatten(value, path))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[path] = float(value)
    return flat


def baseline_document(stem: str, ref: str) -> dict | None:
    """The committed result document for ``stem`` at ``ref``, or None."""
    try:
        completed = subprocess.run(
            ["git", "show", f"{ref}:benchmarks/results/{stem}.json"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    try:
        return json.loads(completed.stdout)
    except json.JSONDecodeError:
        return None


def delta_pct(fresh: float, base: float) -> float | None:
    """Relative change of ``fresh`` vs ``base`` in percent, None at base 0."""
    if base == 0.0:
        return None
    return (fresh - base) / abs(base) * 100.0


def is_regression(direction: str, change: float | None, tolerance: float) -> bool:
    if change is None:
        return False
    if direction == "higher":
        return change < -tolerance
    return change > tolerance


def compare_stem(
    stem: str, ref: str, tolerance: float, verbose: bool
) -> tuple[list[str], list[str]]:
    """Compare one result stem; returns (report lines, regression lines)."""
    fresh_path = RESULTS_DIR / f"{stem}.json"
    if not fresh_path.exists():
        return [f"{stem}: no fresh result at {fresh_path}, skipped"], []
    fresh_doc = json.loads(fresh_path.read_text())
    base_doc = baseline_document(stem, ref)
    if base_doc is None:
        return [f"{stem}: no committed baseline at {ref}, skipped"], []

    fresh, base = flatten(fresh_doc), flatten(base_doc)
    tracked = dict(TRACKED.get(stem, ()))
    base_code = base_doc.get("code", {})
    header = (
        f"{stem}: fresh vs {ref} "
        f"({base_code.get('git_commit', 'unknown')[:12]}, "
        f"repro {base_code.get('repro_version', '?')})"
    )
    lines = [header]
    if fresh_doc.get("preset") != base_doc.get("preset"):
        lines.append(
            f"  NOTE: preset changed "
            f"({base_doc.get('preset')} -> {fresh_doc.get('preset')}); "
            "deltas compare different workloads"
        )

    regressions: list[str] = []
    shown = 0
    for path in sorted(set(fresh) | set(base)):
        if path not in fresh or path not in base:
            side = "baseline only" if path not in fresh else "fresh only"
            if verbose or path in tracked:
                lines.append(f"  {path:<52s} ({side})")
            continue
        change = delta_pct(fresh[path], base[path])
        gated = path in tracked
        if change is not None and gated and is_regression(tracked[path], change, tolerance):
            marker = "REGRESSION"
            regressions.append(
                f"{stem}:{path} {base[path]:.6g} -> {fresh[path]:.6g} "
                f"({change:+.1f}%, good direction: {tracked[path]}, "
                f"tolerance {tolerance:.0f}%)"
            )
        elif gated:
            marker = "tracked"
        else:
            marker = ""
        if verbose or gated or (change is not None and abs(change) > tolerance):
            changed = "n/a" if change is None else f"{change:+8.1f}%"
            lines.append(
                f"  {path:<52s} {base[path]:>14.6g} -> {fresh[path]:>14.6g}  "
                f"{changed}  {marker}"
            )
            shown += 1
    if shown == 0 and len(lines) == 1:
        lines.append(f"  all {len(fresh)} metrics within {tolerance:.0f}% (untracked)")
    return lines, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff fresh benchmark results against committed baselines."
    )
    parser.add_argument(
        "stems",
        nargs="*",
        help="result stems to check (default: every benchmarks/results/*.json)",
    )
    parser.add_argument(
        "--baseline-ref",
        default="HEAD",
        help="git ref providing the committed baselines (default: HEAD)",
    )
    parser.add_argument(
        "--max-regression-pct",
        type=float,
        default=25.0,
        help="tolerated bad-direction move for tracked metrics (default: 25)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print every metric delta, not just tracked/large ones",
    )
    parser.add_argument(
        "--list-tracked",
        action="store_true",
        help="print the gated-metric registry and exit",
    )
    args = parser.parse_args(argv)

    if args.list_tracked:
        for stem in sorted(TRACKED):
            for path, direction in TRACKED[stem]:
                print(f"{stem:<24s} {path:<44s} good: {direction}")
        return 0

    if args.max_regression_pct <= 0:
        parser.error("--max-regression-pct must be positive")

    stems = args.stems or sorted(p.stem for p in RESULTS_DIR.glob("*.json"))
    if not stems:
        print("no result documents found", file=sys.stderr)
        return 1

    all_regressions: list[str] = []
    for stem in stems:
        lines, regressions = compare_stem(
            stem, args.baseline_ref, args.max_regression_pct, args.verbose
        )
        print("\n".join(lines))
        all_regressions.extend(regressions)

    if all_regressions:
        print("\nREGRESSIONS:")
        for line in all_regressions:
            print(f"  {line}")
        return 1
    print(f"\nno tracked regressions (tolerance {args.max_regression_pct:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
