"""Compare two sets of harness runs metric by metric.

    python3 benchmarks/harness/compare.py A B

``A`` and ``B`` are directories of ``result_*.json`` files written by
``run.py --out`` (or single JSON files holding a list of such results):
``A`` is the baseline, ``B`` the candidate.  For every workload and
end-to-end metric it prints both medians, the relative difference (positive
is worse), the bound from BENCHMARK.json and a verdict:

* ``unresolved`` -- the spread between the repeated runs on one side (the
  distance between their quartiles as a share of their median) exceeds the
  bound, so the comparison cannot tell;
* ``worse`` -- ``B``'s median is worse than ``A``'s by more than the bound;
* ``same`` -- otherwise (this includes better).

The exit code is non-zero when any metric is ``worse``.  It serves the A/A
check of one commit against itself and parent-versus-change tables.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(location: Path) -> dict[str, list[dict[str, float]]]:
    """Untraced results grouped by workload: one ``{metric: value}`` per run."""
    if location.is_dir():
        documents = [json.loads(path.read_text()) for path in sorted(location.glob("result_*.json"))]
    else:
        documents = json.loads(location.read_text())
        if isinstance(documents, dict):
            documents = [documents]
    runs: dict[str, list[dict[str, float]]] = defaultdict(list)
    for document in documents:
        if document["environment"]["trace"]:
            continue
        runs[document["workload"]].append(
            {name: entry["value"] for name, entry in document["metrics"].items()}
        )
    return runs


def spread(values: list[float]) -> float:
    """Quartile distance over the median; the range for fewer than four runs."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def compare(baseline, candidate, specs) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':<15} {'metric':<18} {'A median':>12} {'B median':>12} {'worse by':>9} "
        f"{'spread A':>9} {'spread B':>9} {'bound':>6}  verdict"
    ]
    any_worse = False
    for workload in sorted(set(baseline) & set(candidate)):
        for spec in specs:
            name, bound = spec["name"], spec["bound"]
            a = [run[name] for run in baseline[workload] if name in run]
            b = [run[name] for run in candidate[workload] if name in run]
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse_by = (median_b - median_a) / abs(median_a)
            if spec["better"] == "higher":
                worse_by = -worse_by
            spread_a, spread_b = spread(a), spread(b)
            if max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
                any_worse = True
            else:
                verdict = "same"
            lines.append(
                f"{workload:<15} {name:<18} {median_a:>12.4f} {median_b:>12.4f} {worse_by:>+9.3f} "
                f"{spread_a:>9.3f} {spread_b:>9.3f} {bound:>6.2f}  {verdict}"
                f"  (n={len(a)}/{len(b)})"
            )
    return lines, any_worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    lines, any_worse = compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])), specs)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
