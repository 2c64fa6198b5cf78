"""Estimating a query path's joint distribution from a decomposition (Section 4.1.2).

Given a decomposition ``DE = (P_1, ..., P_k)`` and the instantiated (joint)
distributions of its paths, Equation 2 estimates the query path's joint
distribution as the product of the element distributions divided by the
product of the distributions of the shared (separator) paths between
consecutive elements.

Materialising the full joint over a long query path would require a
hyper-bucket grid that grows exponentially with the path cardinality, so we
exploit the chain structure of decompositions (elements ordered along the
path, every separator shared only with the immediately preceding element):
the distribution of the *accumulated* cost is propagated left to right
together with the joint distribution over the current separator's edges.
This is the exact junction-tree elimination of the decomposable model of
Equation 2 under the uniform-within-bucket histogram semantics, with one
engineering addition: the accumulated-cost dimension is periodically
re-bucketed (the same rearrangement used in Section 4.2) so the cell count
stays bounded.

**State and plans.**  A state cell does not carry its separator bucket
bounds: it carries an integer *group label*, and the state holds one small
table of separator bounds per group.  The labels come from the factor that
produced the state: everything about a factor that does not depend on the
incoming state -- its cells grouped on the previous and on the next
separator, the group masses and conditionals of Equation 2, the released
cost per cell -- is computed once per ``(variable, previous separator,
next separator)`` as a :class:`_FactorPlan` and kept on the
:class:`~repro.core.variables.InstantiatedVariable`.  A plan lives exactly
as long as its variable (a refresh or rebase builds new variables), is not
persisted and is not counted in ``nbytes``.  Equation 2's overlap weights
are then computed per *(state group, factor group)* pair, and re-bucketing
hands the labels straight to the grouped kernel: no step sorts, tiles or
rebuilds anything the previous step already knew.

**The pair join.**  A step pairs a state cell only with the factor cells
whose separator buckets overlap its own (6% of the dense product on a pass
of the benchmark's cold estimates): the non-zero (state group x factor
cell) weights, row by row, expanded to each cell of the group.  That is the
dense product's order without the pairs it multiplied by zero and pruned,
so every float is the same.  Without a separator every pair has mass.

**One-cell steps.**  An edge without enough trajectories in an interval is a
speed-limit unit variable with one bucket, and on sparse graphs most steps
meet one of them with a one-cell state.  When neither has a separator
group, the general step forms one pair: its bounds are the two sums
``agg + release``, its probability ``x = p_state * p_factor`` survives the
prune whenever ``x > 0`` and normalises to ``x / x``, which is exactly
``1.0`` for every finite positive ``x``; consolidating a one-cell state of
probability 1.0 changes nothing.  Such a step is therefore a *shift*:
:func:`propagate_joint` carries the state it leaves as two Python floats,
the accumulated cost's bounds, and adds the factor's one release cell,
which its plan keeps as floats (``_FactorPlan.shift``), to them; a zero,
infinite or NaN product raises as the general step would have.  A
:class:`_State` is built from the two floats only when a general step needs
it or at the chain's end.  The shift reads only cell counts and groups,
never where the variable came from; a one-cell factor on a multi-cell
state keeps the general step.

**Why this is exact.**  A group's label is the lexicographic rank of its
bucket-*index* tuple on the separator axes.  Bucket boundaries are strictly
increasing, so ordering groups by their index tuples is ordering them by
their bound tuples: the labels number the groups exactly as a
lexicographic sort of the per-cell float bounds would (bounds closer than
the 1e-9 rounding of that sort excepted -- histograms never have them).
Cells therefore leave every step in the same order, and every float sum
adds the same numbers in the same order, as in the cell-level
implementation retained as ``tests/reference_joint.py``, to which the
property tests pin this module.

**Sharing prefixes.**  The consolidated state after element *i* is a pure
function of the variables ``0..i``, of the separator ids after each of them
and of the two size limits; nothing about the rest of the query enters it.
Stochastic routing asks for "path + another edge" and a corridor is asked
for prefix by prefix, so most chains have been walked before.  A
:class:`PropagationMemo` keeps the states of recent chains, one link per
step; a shift's link holds its two floats, not a state.  Every step keeps
its link, shifts included, so a walk reaches past a run of shifts to the
general steps after it (a memo that skipped the shifts' links cut the
corridor walks short at their first shift and lost their reuse).
:func:`propagate_joint` follows the decomposition's chain for as long as
its states are known and computes only the rest, with the same operations
on the same numbers in the same order: the result is bit-identical whether
or not anything was reused.  ``n_cells_processed`` therefore stays the
chain's total -- a property of the answer, not of the work done this time
(the memo's own counters say what was reused).  A chain is keyed by the
*identity* of its variables, not their value: comparing distributions
would cost more than a step, and identity is what "the same variable of
the same graph" means -- a refresh builds new variables, whose chains then
simply miss (each entry holds its variable, so a recycled ``id`` cannot
match).  The memo belongs to a :class:`~repro.core.estimator.PathCostEstimator`
and reaches this module on the :class:`~repro.core.decomposition.Decomposition`
as a *weak* reference: estimates and their decompositions outlive the
service that produced them (result caches, clients), and must not keep a
dead estimator's states alive.

The propagation corresponds to the paper's "JC" (joint computation) step in
the Figure 17 run-time breakdown; the final collapse into a one-dimensional
cost histogram lives in :mod:`repro.core.marginal` ("MC").
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import EstimationError
from ..histograms import kernels
from ..histograms.multivariate import MultiHistogram
from ..histograms.univariate import Histogram1D
from .decomposition import Decomposition
from .variables import InstantiatedVariable

#: Minimum width used when an accumulated-cost range is still degenerate.
_MIN_WIDTH = 1e-9

#: Cells with probability below this (after each step) are pruned.
_PRUNE_THRESHOLD = 1e-9

#: The probability column of a state built from a shift's two floats (shared, read-only).
_ONE = np.ones(1)
_ONE.flags.writeable = False

#: States a :class:`PropagationMemo` holds before the least recently used
#: goes.  Measured on the benchmark's city: the 4,096 states left by a pass
#: of cold route searches hold 0.2 MB of arrays, the 2,063 left by a pass of
#: cold estimates 2.5 MB, plus about 1 KB of Python objects per state.  (A
#: state never exceeds ``max_state_cells`` cells of four 8-byte columns.)
_MEMO_CAPACITY = 4096


@dataclass
class _State:
    """Vectorised propagation state.

    ``agg_low`` / ``agg_high`` bound the accumulated cost of all edges whose
    cost has already been "released"; ``prob`` is the per-cell probability.
    ``group`` labels each cell with its combination of separator buckets and
    ``group_sep_low`` / ``group_sep_high`` (shape ``(n_groups, n_sep)``,
    columns aligned with ``sep_ids``) hold each combination's bounds; all
    three are ``None`` while there is no separator.
    """

    agg_low: np.ndarray
    agg_high: np.ndarray
    prob: np.ndarray
    sep_ids: tuple[int, ...] = ()
    group: np.ndarray | None = None
    group_sep_low: np.ndarray | None = None
    group_sep_high: np.ndarray | None = None

    @property
    def n_cells(self) -> int:
        return int(self.prob.shape[0])


@dataclass(frozen=True, eq=False)
class _FactorPlan:
    """The state-independent arrays of one factor in one separator context.

    ``release_low`` / ``release_high`` are the per-cell summed bounds of the
    dimensions in neither separator.  The ``prev_*`` fields group the cells
    on the previous separator (``None`` without one): ``prev_group`` is the
    label per cell, ``prev_low`` / ``prev_high`` the bounds per group,
    ``conditional`` the cell probability divided by its group's mass (the
    quotient of Equation 2), ``fallback`` the group masses as a
    distribution, used for state groups that overlap no factor group, and
    ``prev_released`` marks the previous separator's dimensions that are not
    in the next one (their cost is released by this step).  The
    ``next_*`` fields group the cells on the next separator the same way
    and become the labels and bound tables of the state after the step.
    ``shift`` is ``(probability, release low, release high)`` of a factor
    with one cell and no separator on either side, as floats (see "One-cell
    steps"); ``None`` otherwise.
    """

    prob: np.ndarray
    release_low: np.ndarray
    release_high: np.ndarray
    sep_next_ids: tuple[int, ...]
    prev_group: np.ndarray | None = None
    prev_low: np.ndarray | None = None
    prev_high: np.ndarray | None = None
    prev_released: np.ndarray | None = None
    conditional: np.ndarray | None = None
    fallback: np.ndarray | None = None
    next_group: np.ndarray | None = None
    next_low: np.ndarray | None = None
    next_high: np.ndarray | None = None
    shift: tuple[float, float, float] | None = None


@dataclass(frozen=True, eq=False)
class PropagatedJoint:
    """The result of propagating Equation 2 along a decomposition.

    The accumulated-cost cells are held as contiguous arrays
    (``cell_lows`` / ``cell_highs`` / ``cell_probs``).  Collapsed cost
    histograms are memoised per ``max_buckets``, so a batch of budget
    queries that share one cached decomposition runs the MC kernel exactly
    once.
    """

    decomposition: Decomposition
    cell_lows: np.ndarray
    cell_highs: np.ndarray
    cell_probs: np.ndarray
    entropy: float
    n_cells_processed: int
    _collapse_cache: dict[int | None, Histogram1D] = field(
        default_factory=dict, repr=False, compare=False
    )

    def cost_histogram(self, max_buckets: int | None = 64) -> Histogram1D:
        """Collapse into the path's univariate cost distribution (Section 4.2).

        The result is cached on the instance: re-collapsing a cached
        propagated joint (the estimation service's decomposition-cache hit
        path) is a dictionary lookup, not a kernel invocation.
        """
        cached = self._collapse_cache.get(max_buckets)
        if cached is None:
            from .marginal import collapse_cells_to_cost_histogram

            cached = collapse_cells_to_cost_histogram(
                self.cell_lows, self.cell_highs, self.cell_probs, max_buckets=max_buckets
            )
            self._collapse_cache[max_buckets] = cached
        return cached


class PropagationMemo:
    """Consolidated propagation states of recent element chains (see "Sharing prefixes").

    A chain is addressed link by link: ``get(token, variable, sep_next_ids)``
    answers "the chain that ``token`` stands for, extended by ``variable``
    with this separator after it" with the extended chain's own token, its
    state (a shift's: two floats) and the cells processed along it.  The
    token of the empty chain is the pair of size limits; every stored link
    gets a fresh one from a counter that never repeats, so a link whose
    predecessor was evicted or overwritten is unreachable and ages out.
    Bounded (least recently used first out) and thread-safe; two threads
    computing one chain both store, the later token wins and the other's
    descendants age out.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._links: OrderedDict = OrderedDict()
        self._tokens = itertools.count()
        self._computed = 0
        self._reused = 0

    def get(self, token, variable: InstantiatedVariable, sep_next_ids: tuple[int, ...]):
        """``(token, state, n_cells_processed)`` of the extended chain, or ``None``."""
        key = (token, id(variable), sep_next_ids)
        with self._lock:
            link = self._links.get(key)
            if link is None or link[0] is not variable:
                return None
            self._links.move_to_end(key)
            self._reused += 1
            return link[1:]

    def put(
        self,
        token,
        variable: InstantiatedVariable,
        sep_next_ids: tuple[int, ...],
        state: _State | tuple[float, float],
        n_cells_processed: int,
    ):
        """Store a computed link and return the extended chain's token."""
        if type(state) is _State:
            # Later queries hand these columns to the kernels again: a kernel
            # that one day wrote into its input must fail, not corrupt them.
            for column in (state.agg_low, state.agg_high, state.prob):
                column.setflags(write=False)
        key = (token, id(variable), sep_next_ids)
        with self._lock:
            extended = next(self._tokens)
            self._links[key] = (variable, extended, state, n_cells_processed)
            self._links.move_to_end(key)
            self._computed += 1
            if len(self._links) > _MEMO_CAPACITY:
                self._links.popitem(last=False)
        return extended

    def clear(self) -> None:
        """Forget every state (the counters keep counting)."""
        with self._lock:
            self._links.clear()

    def stats(self) -> dict[str, int]:
        """Steps computed and reused since creation, and states currently held."""
        with self._lock:
            return {"computed": self._computed, "reused": self._reused, "states": len(self._links)}


def decomposition_entropy(
    decomposition: Decomposition, separators: Sequence[tuple[int, ...] | None] | None = None
) -> float:
    """The entropy ``H_DE`` of the estimated joint distribution (Theorem 2).

    ``H_DE = sum_i H(C_{P_i}) - sum_j H(C_{P_j ∩ P_{j+1}})`` where the
    separator entropies are taken from the marginal of the later element's
    joint distribution (consistent with the conditional factorisation used
    by the propagation).  Every term is memoised on its variable.
    ``separators`` spares a caller that already has
    ``decomposition.separators()`` computing them again.
    """
    if separators is None:
        separators = decomposition.separators()
    total = 0.0
    for element in decomposition.elements:
        total += element.variable.entropy()
    for later_element, separator in zip(decomposition.elements[1:], separators):
        if separator is None:
            continue
        total -= later_element.variable.marginal_entropy(separator)
    return total


def propagate_joint(
    decomposition: Decomposition,
    max_aggregate_buckets: int = 24,
    max_state_cells: int = 4096,
) -> PropagatedJoint:
    """Propagate Equation 2 along the decomposition and return the accumulated cost cells."""
    if max_aggregate_buckets < 1:
        raise EstimationError("max_aggregate_buckets must be >= 1")
    if max_state_cells < 1:
        raise EstimationError("max_state_cells must be >= 1")
    separators = decomposition.separators()
    # The chain: each element's variable and the separator ids after it.
    chain = [
        (element.variable, separator or ())
        for element, separator in zip(decomposition.elements, [*separators, None])
    ]
    memo = decomposition.memo() if decomposition.memo is not None else None

    # Follow the chain through the memo for as long as its states are known...
    token = (max_aggregate_buckets, max_state_cells)
    state = None
    n_cells_processed = 0
    known = 0
    if memo is not None:
        for variable, sep_next_ids in chain:
            link = memo.get(token, variable, sep_next_ids)
            if link is None:
                break
            token, state, n_cells_processed = link
            known += 1
    # ... and compute the rest; a shift leaves its state as two floats.
    for variable, sep_next_ids in chain[known:]:
        plan = _factor_plan(variable, state.sep_ids if type(state) is _State else (), sep_next_ids)
        shifted = _shift(state, plan)
        if shifted is not None:
            n_cells_processed += 1
            state = shifted
        else:
            state = _initial_state(plan) if state is None else _propagate_step(_as_state(state), plan)
            n_cells_processed += state.n_cells
            state = _consolidate(state, max_aggregate_buckets, max_state_cells)
        if memo is not None:
            token = memo.put(token, variable, sep_next_ids, state, n_cells_processed)

    state = _as_state(state)
    highs = np.maximum(state.agg_high, state.agg_low + _MIN_WIDTH)
    keep = state.prob > 0.0
    if not np.any(keep):
        raise EstimationError("joint propagation produced no probability mass")
    return PropagatedJoint(
        decomposition=decomposition,
        cell_lows=state.agg_low[keep],
        cell_highs=highs[keep],
        cell_probs=state.prob[keep],
        entropy=decomposition_entropy(decomposition, separators),
        n_cells_processed=n_cells_processed,
    )


# ---------------------------------------------------------------------- #
# Internals
# ---------------------------------------------------------------------- #
def _factor_plan(
    variable: InstantiatedVariable,
    sep_prev_ids: tuple[int, ...],
    sep_next_ids: tuple[int, ...],
) -> _FactorPlan:
    """The variable's plan between the two separators, built on first use.

    Two threads may build the same plan at once; both build the same arrays
    and the later store wins, so no lock is needed.
    """
    key = (sep_prev_ids, sep_next_ids)
    plan = variable._joint_plans.get(key)
    if plan is None:
        plan = variable._joint_plans[key] = _build_plan(variable.joint(), sep_prev_ids, sep_next_ids)
    return plan


def _build_plan(
    factor: MultiHistogram,
    sep_prev_ids: tuple[int, ...],
    sep_next_ids: tuple[int, ...],
) -> _FactorPlan:
    """Everything a step needs of ``factor`` that does not depend on the state."""
    prob = np.asarray(factor.cell_probabilities, dtype=float)
    release_dims = [dim for dim in factor.dims if dim not in sep_prev_ids and dim not in sep_next_ids]
    release_low, release_high = _bucket_bounds(factor, release_dims, _cell_indices(factor, release_dims))
    groups = {}
    if sep_prev_ids:
        group, low, high = _separator_groups(factor, sep_prev_ids)
        # The group masses are the denominators of Eq. 2.
        group_mass = np.bincount(group, weights=prob, minlength=low.shape[0])
        groups.update(
            prev_group=group,
            prev_low=low,
            prev_high=high,
            prev_released=np.array([dim not in sep_next_ids for dim in sep_prev_ids], dtype=bool),
            conditional=prob / group_mass[group],
            fallback=(group_mass / group_mass.sum())[None, :],
        )
    if sep_next_ids:
        group, low, high = _separator_groups(factor, sep_next_ids)
        groups.update(next_group=group, next_low=low, next_high=high)
    release_low, release_high = release_low.sum(axis=1), release_high.sum(axis=1)
    if prob.size == 1 and not groups:
        groups.update(shift=(float(prob[0]), float(release_low[0]), float(release_high[0])))
    plan = _FactorPlan(
        prob=prob,
        release_low=release_low,
        release_high=release_high,
        sep_next_ids=sep_next_ids,
        **groups,
    )
    # Every query that meets the variable reads these arrays, and states alias
    # them: a kernel that one day wrote into its input must fail, not corrupt.
    for value in vars(plan).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return plan


def _bucket_bounds(
    joint: MultiHistogram, dims: Sequence[int], indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper bucket bounds for bucket indices of ``dims`` (one column per dim)."""
    lows = np.zeros(indices.shape)
    highs = np.zeros(indices.shape)
    for column, dim in enumerate(dims):
        edges = joint.boundaries_of(dim)
        lows[:, column] = edges[indices[:, column]]
        highs[:, column] = edges[indices[:, column] + 1]
    return lows, highs


def _cell_indices(joint: MultiHistogram, dims: Sequence[int]) -> np.ndarray:
    """The cells' bucket indices on ``dims``, shape ``(n_cells, len(dims))``."""
    return joint.cell_indices[:, [joint.axis_of(dim) for dim in dims]]


def _separator_groups(
    joint: MultiHistogram, sep_ids: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the joint's cells by their buckets on the separator's dimensions.

    Returns the group label per cell and the groups' bucket bounds, shape
    ``(n_groups, len(sep_ids))``.  Labels are the lexicographic rank of the
    bucket-index tuple (see the module docstring for why that matters).
    """
    keys, group = np.unique(_cell_indices(joint, sep_ids), axis=0, return_inverse=True)
    return group.ravel(), *_bucket_bounds(joint, sep_ids, keys)


def _initial_state(plan: _FactorPlan) -> _State:
    """Turn the first element's plan into the propagation state."""
    return _State(
        agg_low=plan.release_low,
        agg_high=plan.release_high,
        prob=plan.prob,
        sep_ids=plan.sep_next_ids,
        group=plan.next_group,
        group_sep_low=plan.next_low,
        group_sep_high=plan.next_high,
    )


def _shift(state: _State | tuple[float, float] | None, plan: _FactorPlan) -> tuple[float, float] | None:
    """The step as a shift (module docstring): the bounds it leaves, or ``None`` if it is not one.

    ``state`` is ``None`` before the first element; a pair of floats is a
    shift's state, whose probability is 1.0.
    """
    if plan.shift is None:
        return None
    mass, low, high = plan.shift
    if type(state) is tuple:
        low, high = state[0] + low, state[1] + high
    elif state is not None:
        if state.group is not None or state.n_cells != 1:
            return None
        low, high = float(state.agg_low[0]) + low, float(state.agg_high[0]) + high
        mass *= float(state.prob[0])
    if not 0.0 < mass < math.inf:
        raise EstimationError("joint propagation lost all probability mass")
    return low, high


def _as_state(state: _State | tuple[float, float]) -> _State:
    """A shift's two floats as a one-cell state of probability 1.0 (a state as it is)."""
    if type(state) is not tuple:
        return state
    return _State(agg_low=np.array(state[:1]), agg_high=np.array(state[1:]), prob=_ONE)


def _overlap_weights(state: _State, plan: _FactorPlan) -> np.ndarray:
    """Overlap weights between the state's and the factor's separator groups.

    Shape ``(n_state_groups, n_factor_groups)``: the share of each state
    group's separator hyper-bucket that falls into each factor group's,
    rows normalised; a state group overlapping nothing falls back to the
    factor's group masses.
    """
    weights = np.ones((state.group_sep_low.shape[0], plan.prev_low.shape[0]))
    for column in range(len(state.sep_ids)):
        state_low = state.group_sep_low[:, column][:, None]
        state_high = state.group_sep_high[:, column][:, None]
        overlap = np.clip(
            np.minimum(state_high, plan.prev_high[:, column][None, :])
            - np.maximum(state_low, plan.prev_low[:, column][None, :]),
            0.0,
            None,
        )
        widths = np.maximum(state_high - state_low, _MIN_WIDTH)
        weights *= overlap / widths
    row_totals = weights.sum(axis=1, keepdims=True)
    return np.where(row_totals > 0.0, weights / np.maximum(row_totals, _MIN_WIDTH), plan.fallback)


def _propagate_step(state: _State, plan: _FactorPlan) -> _State:
    """Absorb one more decomposition element into the propagation state."""
    if state.group is not None:
        # The pair join (module docstring): each state group's non-zero
        # weights in factor-cell order, expanded to every cell of the group.
        pair_weights = _overlap_weights(state, plan)[:, plan.prev_group]
        pair_group, pair_col = np.nonzero(pair_weights)
        per_group = np.bincount(pair_group, minlength=pair_weights.shape[0])
        per_cell = per_group[state.group]
        rows = np.repeat(np.arange(state.n_cells), per_cell)
        first_pair = (np.cumsum(per_group) - per_group)[state.group] - (np.cumsum(per_cell) - per_cell)
        cols = pair_col[np.arange(rows.size) + np.repeat(first_pair, per_cell)]
        new_prob = (state.prob[rows] * pair_weights[state.group[rows], cols]) * plan.conditional[cols]
        # The state's separator dimensions that leave the separator here.
        released = plan.prev_released
        state_release_low = state.agg_low + state.group_sep_low[:, released].sum(axis=1)[state.group]
        state_release_high = state.agg_high + state.group_sep_high[:, released].sum(axis=1)[state.group]
        agg_low = state_release_low[rows] + plan.release_low[cols]
        agg_high = state_release_high[rows] + plan.release_high[cols]
        group = None if plan.next_group is None else plan.next_group[cols]
    else:
        # No shared edges with the state (disjoint consecutive elements, the
        # dominant case on sparse graphs): an independent convolution, where
        # every pair has mass.
        new_prob = (state.prob[:, None] * plan.prob[None, :]).reshape(-1)
        agg_low = (state.agg_low[:, None] + plan.release_low[None, :]).reshape(-1)
        agg_high = (state.agg_high[:, None] + plan.release_high[None, :]).reshape(-1)
        group = None if plan.next_group is None else np.tile(plan.next_group, state.n_cells)

    keep = new_prob > _PRUNE_THRESHOLD
    if not keep.any():
        keep = new_prob > 0.0
        if not keep.any():
            raise EstimationError("joint propagation lost all probability mass")
    new_prob = new_prob[keep]
    return _State(
        agg_low=agg_low[keep],
        agg_high=agg_high[keep],
        prob=new_prob / new_prob.sum(),
        sep_ids=plan.sep_next_ids,
        group=None if group is None else group[keep],
        group_sep_low=plan.next_low,
        group_sep_high=plan.next_high,
    )


def _consolidate(state: _State, max_aggregate_buckets: int, max_state_cells: int) -> _State:
    """Bound the state size by re-bucketing the accumulated-cost dimension.

    Within every separator group the accumulated-cost ranges are rearranged
    into disjoint cells and, where the rearranged group exceeds
    ``max_aggregate_buckets`` cells, merged onto an equal-width grid.  All
    groups are processed by one batched kernel pass
    (:func:`repro.histograms.kernels.grouped_rearrange_coarsen`) rather
    than a per-group Python loop.  If the state is still too large
    afterwards, the lowest-probability cells are pruned (and the remainder
    renormalised).
    """
    if not (state.prob > 0.0).any():
        raise EstimationError("joint propagation lost all probability mass")
    if state.group is None:
        # One group only: rearrange/coarsen directly, skipping the grouped
        # kernel's windowing machinery (and, matching it, leave states
        # already within the cap untouched).
        if state.n_cells > max_aggregate_buckets:
            highs = np.maximum(state.agg_high, state.agg_low + _MIN_WIDTH)
            cells = kernels.rearrange(state.agg_low, highs, state.prob, normalize=False)
            cells = kernels.truncate_to_max_buckets(*cells, max_aggregate_buckets)
            state = _State(agg_low=cells[0], agg_high=cells[1], prob=cells[2])
        return _bound_and_normalise(state, max_state_cells)

    # Renumber the groups that still hold cells 0..n-1 in label order (the
    # kernel places group g at offset g * window, so the numbering is part
    # of the arithmetic) and drop the others from the bound tables.
    occupied = np.bincount(state.group, minlength=state.group_sep_low.shape[0]) > 0
    labels = (np.cumsum(occupied) - 1)[state.group]
    highs = np.maximum(state.agg_high, state.agg_low + _MIN_WIDTH)
    out_lows, out_highs, out_probs, out_groups = kernels.grouped_rearrange_coarsen(
        state.agg_low, highs, state.prob, labels, max_aggregate_buckets
    )
    new_state = _State(
        agg_low=out_lows,
        agg_high=out_highs,
        prob=out_probs,
        sep_ids=state.sep_ids,
        group=out_groups,
        group_sep_low=state.group_sep_low[occupied],
        group_sep_high=state.group_sep_high[occupied],
    )
    return _bound_and_normalise(new_state, max_state_cells)


def _bound_and_normalise(state: _State, max_state_cells: int) -> _State:
    """Prune the lowest-probability cells past the cap and renormalise.

    In place: ``state`` is the step's own, fresh from :func:`_propagate_step`
    or :func:`_consolidate` and not yet in any memo (its arrays may be shared;
    they are replaced, never written).
    """
    if state.n_cells > max_state_cells:
        kept = np.argsort(state.prob)[::-1][:max_state_cells]
        state.agg_low = state.agg_low[kept]
        state.agg_high = state.agg_high[kept]
        state.prob = state.prob[kept]
        if state.group is not None:
            state.group = state.group[kept]
    total = state.prob.sum()
    if total <= 0.0:
        raise EstimationError("joint propagation lost all probability mass")
    state.prob = state.prob / total
    return state
