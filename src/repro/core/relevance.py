"""Spatial and temporal relevance of instantiated variables (Section 4.1.3).

Given a query path and a departure time, only some instantiated random
variables can participate in a decomposition:

* a variable is **spatially relevant** when its path is a sub-path of the
  query path;
* a variable is **temporally relevant** when its interval intersects the
  query's *updated departure interval* on the variable's path, obtained by
  progressively applying the shift-and-enlarge (SAE) operation along the
  preceding edges (Equation 3).

Relevant variables are organised into the two-dimensional *candidate
array*: one row per edge of the query path, holding the relevant variables
whose paths start at that edge, ordered by rank.  Every row always contains
at least the unit-path variable for its edge (falling back to the
speed-limit distribution), so a decomposition that covers the query path
always exists.

**One lookup per rank, up to the first dead slice.**  A row is not found by
scanning what starts at its edge: for each rank the hybrid graph holds at
all (and the query's remaining length and ``max_rank`` allow), the graph's
path index is asked for the variables on exactly that slice of the query
path, until a slice that no indexed path starts with
(:meth:`~repro.core.hybrid_graph.HybridGraph.prefix_counts`), which every
longer slice extends: most rows of a sparse query stop at their first rank.
Among a path's intervals the one overlapping the updated departure interval
most (in raw seconds, so not past midnight; on the first edge, the one
containing the time of day) is kept; **on equal overlap the variable
inserted first wins** (a strict ``>``).  Rows come out in rank order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import EstimationError
from ..roadnet.path import Path
from ..timeutil import SECONDS_PER_DAY
from .hybrid_graph import HybridGraph
from .variables import InstantiatedVariable


@dataclass(slots=True, init=False, unsafe_hash=True)
class RelevantVariable:
    """An instantiated variable aligned with a position of the query path.

    ``rank`` and ``end_index`` (one past the last query-path edge the
    variable covers) are fixed at construction: decomposition selection and
    validation read them for every candidate of every query.  Compared and
    hashed by value like a frozen dataclass; read it, do not change it.
    """

    variable: InstantiatedVariable
    start_index: int
    rank: int
    end_index: int

    def __init__(self, variable: InstantiatedVariable, start_index: int) -> None:
        self.variable = variable
        self.start_index = start_index
        self.rank = len(variable.path)
        self.end_index = start_index + self.rank

    @property
    def path(self) -> Path:
        return self.variable.path


class CandidateArray:
    """The two-dimensional array of spatio-temporally relevant variables (Table 1).

    Rows are kept as given: in ascending rank, as :func:`build_candidate_array` emits them.
    """

    def __init__(self, query_path: Path, departure_time_s: float, rows: list[list[RelevantVariable]]):
        if len(rows) != len(query_path):
            raise EstimationError("the candidate array needs one row per query-path edge")
        for index, row in enumerate(rows):
            if not row:
                raise EstimationError(f"candidate array row {index} is empty")
        self.query_path = query_path
        self.departure_time_s = departure_time_s
        self._rows = rows

    def row(self, position: int) -> list[RelevantVariable]:
        """Relevant variables whose path starts at the given query-path position."""
        return list(self._rows[position])

    def highest_rank(self, position: int) -> RelevantVariable:
        """The highest-rank relevant variable starting at the given position."""
        return self._rows[position][-1]

    def random_choice(self, position: int, rng: np.random.Generator) -> RelevantVariable:
        """A uniformly random relevant variable starting at the given position."""
        row = self._rows[position]
        return row[int(rng.integers(0, len(row)))]

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        ranks = [row[-1].rank for row in self._rows]
        return f"CandidateArray(|P|={len(self._rows)}, max ranks per row={ranks})"


def check_departure(departure_time_s: float) -> None:
    """Raise :class:`EstimationError` for a NaN or infinite departure (no interval holds it)."""
    if not math.isfinite(departure_time_s):
        raise EstimationError(f"departure_time_s must be finite, got {departure_time_s}")


def build_candidate_array(
    hybrid_graph: HybridGraph,
    query_path: Path,
    departure_time_s: float,
    max_rank: int | None = None,
) -> CandidateArray:
    """Identify the spatio-temporally relevant variables for a query (Section 4.1.3).

    ``max_rank`` caps the rank of the variables that are considered, which
    yields the paper's OD-2/OD-3/OD-4 variants; ``None`` imposes no cap
    (plain OD).  A departure must be finite.
    """
    check_departure(departure_time_s)
    query_ids = query_path.edge_ids
    n = len(query_ids)
    ranks = hybrid_graph.ranks()
    if max_rank is not None:
        ranks = tuple(rank for rank in ranks if rank <= max_rank)
    prefix_counts = hybrid_graph.prefix_counts()
    variables_on = hybrid_graph.variables_on

    rows: list[list[RelevantVariable]] = []
    interval_start = interval_end = float(departure_time_s)
    for position in range(n):
        # The unit variable at the interval's midpoint: it advances the
        # departure interval across this edge and, when no unit variable is
        # temporally relevant, guarantees the row one so a covering
        # decomposition always exists (speed-limit fallback when necessary).
        unit = hybrid_graph.unit_variable_at(
            query_ids[position], (interval_start + interval_end) / 2.0
        )

        row: list[RelevantVariable] = []
        for rank in ranks:
            if position + rank > n:
                break
            # Spatial relevance: the variables on exactly this slice of the
            # query path; no longer slice matches once no path starts with it.
            edge_ids = query_ids[position : position + rank]
            if edge_ids not in prefix_counts:
                break
            # Temporal relevance: the variable's interval must intersect the
            # updated departure interval at this position; among a path's
            # intervals, keep the first with the largest overlap.
            best: InstantiatedVariable | None = None
            if interval_end == interval_start:
                # Degenerate interval (the first edge): containment decides.
                time_of_day = interval_start % SECONDS_PER_DAY
                for variable in variables_on(edge_ids):
                    if variable.interval.start_s <= time_of_day < variable.interval.end_s:
                        best = variable
                        break
            else:
                best_overlap = 0.0
                for variable in variables_on(edge_ids):
                    interval = variable.interval
                    overlap = min(interval.end_s, interval_end) - max(interval.start_s, interval_start)
                    if overlap > best_overlap:
                        best_overlap = overlap
                        best = variable
            if best is not None:
                row.append(RelevantVariable(best, position))
        if not row or row[0].rank != 1:
            row.insert(0, RelevantVariable(unit, position))
        rows.append(row)

        # Shift-and-enlarge across this edge.
        min_cost, max_cost = unit.cost_range
        interval_start, interval_end = interval_start + min_cost, interval_end + max_cost

    return CandidateArray(query_path, departure_time_s, rows)
