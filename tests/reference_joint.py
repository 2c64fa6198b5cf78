"""Retained cell-level reference for the joint propagation of Equation 2.

This is the implementation :mod:`repro.core.joint` replaced, kept as it
was: the state carries per-cell float separator bounds, every step
recomputes the factor's groups and bounds from its ``MultiHistogram``, and
``_consolidate`` rediscovers the separator groups with a lexicographic
``np.unique`` over rounded float rows.  Its entropy is recomputed from the
distributions on every call, bypassing the variables' memo.  (It also
keeps the old lack of a ``max_state_cells`` check.)  It exists so that
``tests/properties/test_joint_equivalence.py`` can pin the group-labelled
rewrite to it -- the answers are bit-identical.  No module under ``src/``
imports it; like ``tests/reference_histograms.py`` and
``tests/reference_matcher.py``, do not "optimise" it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.decomposition import Decomposition
from repro.core.joint import PropagatedJoint
from repro.exceptions import EstimationError
from repro.histograms import kernels
from repro.histograms.divergence import entropy_of_histogram
from repro.histograms.multivariate import MultiHistogram
from repro.histograms.univariate import Histogram1D

#: Minimum width used when an accumulated-cost range is still degenerate.
_MIN_WIDTH = 1e-9

#: Cells with probability below this (after each step) are pruned.
_PRUNE_THRESHOLD = 1e-9


@dataclass
class _State:
    """Vectorised propagation state.

    ``agg_low`` / ``agg_high`` bound the accumulated cost of all edges whose
    cost has already been "released"; ``sep_low`` / ``sep_high`` hold the
    bucket bounds of each current-separator edge (columns aligned with
    ``sep_ids``); ``prob`` is the per-cell probability.
    """

    agg_low: np.ndarray
    agg_high: np.ndarray
    sep_low: np.ndarray
    sep_high: np.ndarray
    prob: np.ndarray
    sep_ids: tuple[int, ...]

    @property
    def n_cells(self) -> int:
        return int(self.prob.shape[0])


def decomposition_entropy_reference(decomposition: Decomposition) -> float:
    """``H_DE`` of Theorem 2, recomputed from the distributions (no memo)."""
    total = 0.0
    for element in decomposition.elements:
        distribution = element.variable.distribution
        if isinstance(distribution, Histogram1D):
            total += entropy_of_histogram(distribution)
        else:
            total += distribution.entropy()
    for later_element, separator in zip(decomposition.elements[1:], decomposition.separators()):
        if separator is None:
            continue
        joint = later_element.variable.joint()
        total -= joint.marginal(list(separator)).entropy()
    return total


def propagate_joint_reference(
    decomposition: Decomposition,
    max_aggregate_buckets: int = 24,
    max_state_cells: int = 4096,
) -> PropagatedJoint:
    """Cell-level propagation of Equation 2 (the pre-rewrite ``propagate_joint``)."""
    if max_aggregate_buckets < 1:
        raise EstimationError("max_aggregate_buckets must be >= 1")
    elements = decomposition.elements
    separators = decomposition.separators()
    n_elements = len(elements)
    n_cells_processed = 0

    state = _initial_state(elements[0].variable.joint(), _separator_ids(separators, 0, n_elements))
    n_cells_processed += state.n_cells
    state = _consolidate(state, max_aggregate_buckets, max_state_cells)

    for index in range(1, n_elements):
        factor = elements[index].variable.joint()
        sep_next_ids = _separator_ids(separators, index, n_elements)
        state = _propagate_step(state, factor, sep_next_ids)
        n_cells_processed += state.n_cells
        state = _consolidate(state, max_aggregate_buckets, max_state_cells)

    highs = np.maximum(state.agg_high, state.agg_low + _MIN_WIDTH)
    keep = state.prob > 0.0
    if not np.any(keep):
        raise EstimationError("joint propagation produced no probability mass")
    return PropagatedJoint(
        decomposition=decomposition,
        cell_lows=state.agg_low[keep],
        cell_highs=highs[keep],
        cell_probs=state.prob[keep],
        entropy=decomposition_entropy_reference(decomposition),
        n_cells_processed=n_cells_processed,
    )


# ---------------------------------------------------------------------- #
# Internals
# ---------------------------------------------------------------------- #
def _separator_ids(separators, index: int, n_elements: int) -> tuple[int, ...]:
    """Edge ids of the separator after element ``index`` (empty for the last element)."""
    if index >= n_elements - 1:
        return ()
    separator = separators[index]
    return separator or ()


def _cell_bounds(joint: MultiHistogram, dims: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell bucket lower/upper bounds of the given dims, shape (n_cells, len(dims))."""
    n_cells = joint.n_hyper_buckets()
    lows = np.zeros((n_cells, len(dims)))
    highs = np.zeros((n_cells, len(dims)))
    indices = joint.cell_indices
    for column, dim in enumerate(dims):
        axis = joint.axis_of(dim)
        edges = np.asarray(joint.boundaries_of(dim))
        lows[:, column] = edges[indices[:, axis]]
        highs[:, column] = edges[indices[:, axis] + 1]
    return lows, highs


def _initial_state(joint: MultiHistogram, sep_ids: tuple[int, ...]) -> _State:
    """Turn the first element's joint histogram into the propagation state."""
    released_dims = [dim for dim in joint.dims if dim not in sep_ids]
    release_low, release_high = _cell_bounds(joint, released_dims)
    sep_low, sep_high = _cell_bounds(joint, list(sep_ids))
    return _State(
        agg_low=release_low.sum(axis=1),
        agg_high=release_high.sum(axis=1),
        sep_low=sep_low,
        sep_high=sep_high,
        prob=np.asarray(joint.cell_probabilities, dtype=float).copy(),
        sep_ids=sep_ids,
    )


def _propagate_step(
    state: _State,
    factor: MultiHistogram,
    sep_next_ids: tuple[int, ...],
) -> _State:
    """Absorb one more decomposition element into the propagation state."""
    sep_prev_ids = state.sep_ids
    sep_prev_set = set(sep_prev_ids)
    sep_next_set = set(sep_next_ids)

    factor_prob = np.asarray(factor.cell_probabilities, dtype=float)
    n_factor_cells = factor_prob.shape[0]

    if not sep_prev_ids and not sep_next_ids:
        # Separator-free step (disjoint consecutive elements, the dominant
        # case on sparse graphs): Equation 2 degenerates to an independent
        # convolution, so skip the grouping/weighting machinery entirely.
        release_low, release_high = _cell_bounds(factor, list(factor.dims))
        factor_low = release_low.sum(axis=1)
        factor_high = release_high.sum(axis=1)
        new_prob = (state.prob[:, None] * factor_prob[None, :]).reshape(-1)
        keep = new_prob > _PRUNE_THRESHOLD
        if not np.any(keep):
            keep = new_prob > 0.0
        if not np.any(keep):
            raise EstimationError("joint propagation lost all probability mass")
        new_prob = new_prob[keep]
        n_kept = new_prob.shape[0]
        return _State(
            agg_low=(state.agg_low[:, None] + factor_low[None, :]).reshape(-1)[keep],
            agg_high=(state.agg_high[:, None] + factor_high[None, :]).reshape(-1)[keep],
            sep_low=np.zeros((n_kept, 0)),
            sep_high=np.zeros((n_kept, 0)),
            prob=new_prob / new_prob.sum(),
            sep_ids=(),
        )

    # Group the factor's cells by their bucket indices on the previous
    # separator's dimensions; the group masses are the denominators of Eq. 2.
    if sep_prev_ids:
        prev_axes = [factor.axis_of(dim) for dim in sep_prev_ids]
        prev_index_matrix = np.asarray(factor.cell_indices)[:, prev_axes]
        group_keys, group_id = np.unique(prev_index_matrix, axis=0, return_inverse=True)
        n_groups = group_keys.shape[0]
        group_mass = np.zeros(n_groups)
        np.add.at(group_mass, group_id, factor_prob)
    else:
        group_keys = np.zeros((1, 0), dtype=int)
        group_id = np.zeros(n_factor_cells, dtype=int)
        group_mass = np.array([1.0])
        n_groups = 1

    conditional = factor_prob / group_mass[group_id]

    # Overlap weights between the state's separator buckets and the factor's
    # separator bucket groups: shape (n_state, n_groups).
    n_state = state.n_cells
    if sep_prev_ids:
        weights = np.ones((n_state, n_groups))
        for column, dim in enumerate(sep_prev_ids):
            edges = np.asarray(factor.boundaries_of(dim))
            group_low = edges[group_keys[:, column]]
            group_high = edges[group_keys[:, column] + 1]
            state_low = state.sep_low[:, column][:, None]
            state_high = state.sep_high[:, column][:, None]
            overlap = np.clip(
                np.minimum(state_high, group_high[None, :]) - np.maximum(state_low, group_low[None, :]),
                0.0,
                None,
            )
            widths = np.maximum(state_high - state_low, _MIN_WIDTH)
            weights *= overlap / widths
        row_totals = weights.sum(axis=1, keepdims=True)
        fallback = (group_mass / group_mass.sum())[None, :]
        weights = np.where(row_totals > 0.0, weights / np.maximum(row_totals, _MIN_WIDTH), fallback)
    else:
        weights = np.ones((n_state, 1))

    # Probability of each (state cell, factor cell) combination.
    combined_prob = (state.prob[:, None] * weights[:, group_id]) * conditional[None, :]

    # Accumulated-cost contributions.
    state_keep_mask = np.array([dim in sep_next_set for dim in sep_prev_ids], dtype=bool)
    if sep_prev_ids:
        state_release_low = state.agg_low + (state.sep_low[:, ~state_keep_mask]).sum(axis=1)
        state_release_high = state.agg_high + (state.sep_high[:, ~state_keep_mask]).sum(axis=1)
    else:
        state_release_low = state.agg_low
        state_release_high = state.agg_high

    factor_new_dims = [dim for dim in factor.dims if dim not in sep_prev_set]
    factor_release_dims = [dim for dim in factor_new_dims if dim not in sep_next_set]
    release_low, release_high = _cell_bounds(factor, factor_release_dims)
    factor_release_low = release_low.sum(axis=1)
    factor_release_high = release_high.sum(axis=1)

    next_sep_low, next_sep_high = _cell_bounds(factor, list(sep_next_ids))

    new_agg_low = (state_release_low[:, None] + factor_release_low[None, :]).reshape(-1)
    new_agg_high = (state_release_high[:, None] + factor_release_high[None, :]).reshape(-1)
    new_prob = combined_prob.reshape(-1)
    new_sep_low = np.tile(next_sep_low, (n_state, 1))
    new_sep_high = np.tile(next_sep_high, (n_state, 1))

    keep = new_prob > _PRUNE_THRESHOLD
    if not np.any(keep):
        keep = new_prob > 0.0
    if not np.any(keep):
        raise EstimationError("joint propagation lost all probability mass")
    new_prob = new_prob[keep]
    new_prob = new_prob / new_prob.sum()
    return _State(
        agg_low=new_agg_low[keep],
        agg_high=new_agg_high[keep],
        sep_low=new_sep_low[keep],
        sep_high=new_sep_high[keep],
        prob=new_prob,
        sep_ids=sep_next_ids,
    )


def _consolidate(state: _State, max_aggregate_buckets: int, max_state_cells: int) -> _State:
    """Bound the state size by re-bucketing the accumulated-cost dimension.

    Cells are grouped by their separator bucket combination; every group's
    accumulated-cost ranges are rearranged into disjoint cells and, where
    the rearranged group exceeds ``max_aggregate_buckets`` cells, merged
    onto an equal-width grid.  All groups are processed by one batched
    kernel pass (:func:`repro.histograms.kernels.grouped_rearrange_coarsen`)
    rather than a per-group Python loop.  If the state is still too large
    afterwards, the lowest-probability cells are pruned (and the remainder
    renormalised).
    """
    if not np.any(state.prob > 0.0):
        raise EstimationError("joint propagation lost all probability mass")
    n_sep = state.sep_low.shape[1] if state.sep_low.ndim == 2 else 0
    if n_sep == 0:
        # One group only: rearrange/coarsen directly, skipping the grouped
        # kernel's windowing machinery (and, matching it, leave states
        # already within the cap untouched).
        if state.n_cells <= max_aggregate_buckets:
            new_state = state
        else:
            highs = np.maximum(state.agg_high, state.agg_low + _MIN_WIDTH)
            cells = kernels.rearrange(state.agg_low, highs, state.prob, normalize=False)
            cells = kernels.truncate_to_max_buckets(*cells, max_aggregate_buckets)
            new_state = _State(
                agg_low=cells[0],
                agg_high=cells[1],
                sep_low=np.zeros((cells[2].shape[0], 0)),
                sep_high=np.zeros((cells[2].shape[0], 0)),
                prob=cells[2],
                sep_ids=state.sep_ids,
            )
        return _bound_and_normalise(new_state, max_state_cells)

    combined = np.concatenate([state.sep_low, state.sep_high], axis=1)
    _, group_labels = np.unique(np.round(combined, 9), axis=0, return_inverse=True)
    group_labels = np.asarray(group_labels).ravel()
    n_groups = int(group_labels.max()) + 1

    # First original row of each group, for re-expanding the separator
    # columns (reversed fancy assignment keeps the earliest index).
    representative = np.zeros(n_groups, dtype=np.int64)
    representative[group_labels[::-1]] = np.arange(state.n_cells - 1, -1, -1)

    highs = np.maximum(state.agg_high, state.agg_low + _MIN_WIDTH)
    out_lows, out_highs, out_probs, out_groups = kernels.grouped_rearrange_coarsen(
        state.agg_low, highs, state.prob, group_labels, max_aggregate_buckets
    )

    rows = representative[out_groups]
    new_state = _State(
        agg_low=out_lows,
        agg_high=out_highs,
        sep_low=state.sep_low[rows],
        sep_high=state.sep_high[rows],
        prob=out_probs,
        sep_ids=state.sep_ids,
    )
    return _bound_and_normalise(new_state, max_state_cells)


def _bound_and_normalise(state: _State, max_state_cells: int) -> _State:
    """Prune the lowest-probability cells past the cap and renormalise."""
    if state.n_cells > max_state_cells:
        order = np.argsort(state.prob)[::-1][:max_state_cells]
        state = _State(
            agg_low=state.agg_low[order],
            agg_high=state.agg_high[order],
            sep_low=state.sep_low[order],
            sep_high=state.sep_high[order],
            prob=state.prob[order],
            sep_ids=state.sep_ids,
        )
    total = state.prob.sum()
    if total <= 0.0:
        raise EstimationError("joint propagation lost all probability mass")
    state = _State(
        agg_low=state.agg_low,
        agg_high=state.agg_high,
        sep_low=state.sep_low,
        sep_high=state.sep_high,
        prob=state.prob / total,
        sep_ids=state.sep_ids,
    )
    return state
