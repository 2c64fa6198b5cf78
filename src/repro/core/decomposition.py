"""Path decompositions and the coarsest-decomposition algorithm (Section 4.1).

A decomposition of a query path is an ordered sequence of sub-paths that
together cover the path, none of which is a sub-path of another (the four
spatial conditions of Section 4.1.1).  Each decomposition corresponds to a
set of (conditional) independence assumptions; Theorem 3 shows the coarsest
decomposition yields the most accurate joint-distribution estimate, and
Algorithm 1 identifies it from the candidate array by greedily taking the
highest-rank variable per starting edge and dropping dominated sub-paths.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import EstimationError
from ..roadnet.path import Path
from .relevance import CandidateArray, RelevantVariable


@dataclass(frozen=True)
class Decomposition:
    """An ordered sequence of relevant variables decomposing a query path.

    ``memo`` is not part of the decomposition's value: it is where
    :func:`repro.core.joint.propagate_joint` may look up and leave the
    states of element chains (a weak reference to the
    :class:`~repro.core.joint.PropagationMemo` of the estimator that
    selected the decomposition; ``None`` propagates from scratch).
    """

    query_path: Path
    elements: tuple[RelevantVariable, ...]
    memo: weakref.ref | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.elements:
            raise EstimationError("a decomposition needs at least one element")
        self.validate()

    def __getstate__(self) -> dict:
        # A weak reference cannot be pickled, and the memo belongs to an
        # estimator of this process: a pickled copy starts without one.
        return {**self.__dict__, "memo": None}

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the four spatial conditions of Section 4.1.1.

        Because paths are simple (no repeated edges) and condition (1) pins
        every element to a contiguous, aligned slice of the query path, the
        sub-path relation between elements reduces to interval containment
        on ``[start_index, end_index)``; with starts strictly increasing
        (condition 4), condition (3) holds exactly when the end indexes
        strictly increase as well, and coverage (condition 2) is a gap scan
        over the running maximum end.  The whole check is O(total rank)
        instead of the quadratic pairwise sub-path scan.
        """
        query_ids = self.query_path.edge_ids
        previous_start = -1
        max_end = 0
        missing: list[int] = []
        for element in self.elements:
            start = element.start_index
            rank = element.rank
            # (1) each element is a sub-path of the query path, aligned at its start index.
            if query_ids[start : start + rank] != element.path.edge_ids:
                raise EstimationError(
                    f"element {element.path!r} does not align with the query path at {start}"
                )
            # (4) elements are ordered by the position of their first edge.
            if start <= previous_start:
                raise EstimationError("decomposition elements must be ordered by start position")
            # (3) no element's path is a sub-path of another element's path.
            if previous_start >= 0 and start + rank <= max_end:
                raise EstimationError(
                    f"element {element.path!r} is a sub-path of an earlier element"
                )
            # (2) gaps before this element can never be covered later.
            if start > max_end:
                missing.extend(query_ids[max_end:start])
            previous_start = start
            max_end = max(max_end, start + rank)
        if max_end < len(query_ids):
            missing.extend(query_ids[max_end:])
        if missing:
            raise EstimationError(f"decomposition does not cover edges {sorted(missing)}")

    # ------------------------------------------------------------------ #
    @property
    def paths(self) -> list[Path]:
        return [element.path for element in self.elements]

    def __len__(self) -> int:
        return len(self.elements)

    def max_rank(self) -> int:
        return max(element.rank for element in self.elements)

    def separators(self) -> list[tuple[int, ...] | None]:
        """The edge ids shared by consecutive elements (``None`` when disjoint).

        Entry ``i`` is ``P_i ∩ P_{i+1}``; these are the denominators of
        Equation 2.  Elements are aligned slices of the query path whose
        starts and ends both increase (see :meth:`validate`), so the shared
        edges are the query path from the later element's start to the
        earlier element's end.
        """
        query_ids = self.query_path.edge_ids
        return [
            query_ids[second.start_index : first.end_index]
            if second.start_index < first.end_index
            else None
            for first, second in zip(self.elements, self.elements[1:])
        ]

    def is_coarser_than(self, other: "Decomposition") -> bool:
        """The paper's "coarser" relation between two decompositions of the same path."""
        if self.query_path != other.query_path:
            raise EstimationError("can only compare decompositions of the same query path")
        if [p.edge_ids for p in self.paths] == [p.edge_ids for p in other.paths]:
            return False
        at_least_one_differs = False
        for other_path in other.paths:
            container = next(
                (own_path for own_path in self.paths if other_path.is_subpath_of(own_path)), None
            )
            if container is None:
                return False
            if container != other_path:
                at_least_one_differs = True
        return at_least_one_differs

    def __repr__(self) -> str:  # pragma: no cover - trivial
        inner = ", ".join(repr(path) for path in self.paths)
        return f"Decomposition({inner})"


def coarsest_decomposition(
    candidate_array: CandidateArray, memo: weakref.ref | None = None
) -> Decomposition:
    """Algorithm 1: identify the coarsest decomposition from the candidate array.

    For each query-path edge (row), the highest-rank relevant variable is
    considered; it is appended unless its path is a sub-path of an already
    selected path.  Theorem 4 shows the result is the unique coarsest
    decomposition given the relevant variables.  ``memo`` is handed to the
    decomposition as it is (see :class:`Decomposition`).
    """
    chosen: list[RelevantVariable] = []
    max_end = 0
    for position in range(len(candidate_array)):
        candidate = candidate_array.highest_rank(position)
        # Candidates are aligned slices of the query path, so "sub-path of
        # an already selected element" is just interval containment: every
        # selected element starts earlier, hence containment happens
        # exactly when this candidate does not extend the covered range.
        if chosen and candidate.end_index <= max_end:
            continue
        chosen.append(candidate)
        max_end = candidate.end_index
    return Decomposition(candidate_array.query_path, tuple(chosen), memo)


def random_decomposition(
    candidate_array: CandidateArray, rng: np.random.Generator, memo: weakref.ref | None = None
) -> Decomposition:
    """A random valid decomposition (the paper's RD comparison method).

    For each row a uniformly random relevant variable is drawn; it is kept
    unless its path is a sub-path of an already selected path, which keeps
    the result a valid decomposition while generally not being the coarsest.
    ``memo`` is handed to the decomposition as it is.
    """
    chosen: list[RelevantVariable] = []
    max_end = 0
    for position in range(len(candidate_array)):
        candidate = candidate_array.random_choice(position, rng)
        # Interval containment (see coarsest_decomposition): the candidate
        # is a sub-path of a selected element iff it does not extend the
        # covered range.
        if chosen and candidate.end_index <= max_end:
            continue
        # Guarantee coverage: if this position is not yet covered, the chosen
        # variable must start here (it does, by construction of the rows).
        chosen.append(candidate)
        max_end = candidate.end_index
    return Decomposition(candidate_array.query_path, tuple(chosen), memo)


def pairwise_decomposition(candidate_array: CandidateArray) -> Decomposition:
    """The adjacent-pairs decomposition used by the HP baseline.

    Uses rank-2 variables for consecutive edge pairs whenever they are
    relevant, falling back to unit variables for uncovered edges.  The
    resulting estimate only models dependencies between adjacent edges.
    """
    chosen: list[RelevantVariable] = []
    position = 0
    n = len(candidate_array)
    while position < n:
        row = candidate_array.row(position)
        pair = next((rv for rv in row if rv.rank == 2), None)
        if pair is not None:
            chosen.append(pair)
            position += 1
            # The next edge is covered by this pair; only take another pair
            # starting there if it extends coverage beyond the current pair.
            continue
        unit = next((rv for rv in row if rv.rank == 1), None)
        if unit is None:
            raise EstimationError(f"candidate array row {position} lacks a unit variable")
        if not chosen or chosen[-1].end_index <= position:
            chosen.append(unit)
        position += 1
    # Drop trailing elements fully covered by their predecessor (sub-path rule).
    filtered: list[RelevantVariable] = []
    max_end = 0
    for element in chosen:
        if filtered and element.end_index <= max_end:
            continue
        filtered.append(element)
        max_end = element.end_index
    return Decomposition(candidate_array.query_path, tuple(filtered))
