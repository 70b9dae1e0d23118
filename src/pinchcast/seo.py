"""Sequential element-wise optimization over a discretized aperture.

One antenna coordinate is re-optimized at a time by a 1-D search over the
candidate grid, holding the others fixed.  Every path term comes from one
table per search, and the state is the table column each antenna holds: a
move gathers the fixed antennas' columns once, and only the moving antenna's
column varies across candidates.

Element-wise search stops at coordinate-wise optima, and with a grid step
many wavelengths long the placement landscape has many of them.  Whenever the
element-wise sweeps have converged, a pair pass therefore moves each pair of
antennas that are neighbours in sorted order jointly over every feasible
pair of grid points (a block coordinate step), accepting only strict
improvements; the element-wise sweeps then resume.  For two antennas the
pair pass is exhaustive enumeration; a single antenna never runs it.

:func:`_sweep` is the search loop, and the fixed array's phase sweep runs it
too; each supplies its moves as generators that yield a
:class:`CandidateSet`, and :func:`_candidate_gains` is the one routine that
turns candidates into bottleneck gains, over any subset of rows and columns.
The loop keeps the gains of the column it selected last, those of the final
state, on the trace, and the solvers build their solutions from them.

Objectives operate on the per-group bottleneck-CNR vector of a candidate
placement.  Scalar objectives map a (G,) gain vector to a float; batch
objectives map the full (G, L) candidate-gain matrix to an (L,) value vector
and enable fully vectorized sweeps for cheap objectives.  A
:class:`SweepObjective` bundles the direction, the exact objective and an
optional screening bound; each scheme module builds its own once,
supplying only arithmetic, and this module decides where each screen runs.

Every selection is one rule (:func:`_select`): the objective scores the
candidate columns (:meth:`SweepObjective.scores`), the best score wins, the
lowest column among equals, and the incumbent stays when its score equals
the best.  ``hoe_sweep`` adds hierarchical objective evaluation: a cheap
per-candidate upper bound scores the candidates first, and the exact
objective runs in descending bound order only while the next bound reaches
the best exact value seen so far.  With a valid bound this selects exactly
the same candidate as the plain sweep, whose scalar objective is the same
scan with every bound +inf, in the element steps and the pair passes alike.
The sweep always knows the exact value of its current state, one of the
candidates, and hands it to the objective as a floor: a candidate its reach
test shows unable to reach it scores a cut just below it without a bound,
and one the bound shows unable may get a loose bound without further work.
A bound runs only on more than ``_BOUND_MIN_COLS`` live candidates; the
exact stage, which always scores the best of them, takes fewer directly.

A tier before any gains are complete screens the block moves' candidates
(:func:`_screened_select`).  The scheme objectives are monotone in every
group's bottleneck gain, and a minimum over some of a group's users is at
least the minimum over all of them, so gains over each group's weakest user
at the incumbent give every candidate an optimistic value.  The objective's
reach test (:attr:`SweepObjective.reaches`) drops the candidates whose
optimistic value cannot reach the floor, and only the others get full
gains; the incumbent always does, so the selection is unchanged.  Batch
objectives compare their own value with the floor (:meth:`SweepObjective.monotone`);
the NOMA rate for three or more groups runs one pass of its power
recursion, and so does the shared-placement TDMA rate, which superposition
coding dominates.  Element moves, about as many candidates as grid points,
are not screened: there the screen's fixed cost outweighs what it saves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Generator

import numpy as np

from .channel import path_terms
from .config import SystemConfig
from .errors import InfeasiblePlacementError
from .topology import Placement, Topology

ScalarObjective = Callable[[np.ndarray], float]
BatchObjective = Callable[[np.ndarray], np.ndarray]
ScreeningBound = Callable[[np.ndarray, float], np.ndarray]
ReachTest = Callable[[np.ndarray, float], np.ndarray]
Moves = Callable[[], Generator[tuple["CandidateSet", int | None], int, None]]

# relative slack under the incumbent's value in every reach test and
# screening cut, well above the rounding-level drift of that value between
# two evaluations
_REACH_RTOL = 1e-9
_BOUND_MIN_COLS = 4  # live columns up to which no screening bound runs


@dataclass(frozen=True)
class CandidateGrid:
    """Uniform candidate positions spanning the full aperture."""

    points: np.ndarray

    @classmethod
    def from_config(cls, config: SystemConfig) -> "CandidateGrid":
        pts = np.linspace(0.0, config.waveguide_length_m, config.grid_points)
        pts.setflags(write=False)
        return cls(points=pts)

    @property
    def num_points(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class SweepObjective:
    """What a sweep optimizes over per-group bottleneck-CNR vectors.

    Give exactly one of ``exact`` (scalar) and ``exact_batch`` (vectorized
    over candidate columns).  ``bound_batch(A, floor)`` screens a scalar
    ``exact`` that is maximized: its value must dominate ``exact`` on every
    candidate.  ``floor`` is the exact value of one of the candidates (-inf
    when none is known); a candidate that provably cannot reach it may get
    any valid bound below it.  :meth:`scores` is the one way a sweep ranks
    candidates, whichever fields are set, and picks the columns to bound.

    ``reaches(A, floor)`` is set only for objectives that are monotone in
    every group's gain.  ``A`` holds optimistic gains, each at least the
    candidate's true gain, and the result masks the columns that may still
    reach ``floor``: a column it clears has an exact value below the cut
    ``floor - _REACH_RTOL * |floor|`` (above ``floor + _REACH_RTOL * |floor|``
    when minimized).  :meth:`monotone` builds one for a batch objective.
    :func:`_screened_select` runs it on partial gains, and :meth:`scores` on
    the full gains of a scalar ``exact``, maximized as with ``bound_batch``.
    """

    maximize: bool = True
    exact: ScalarObjective | None = None
    exact_batch: BatchObjective | None = None
    bound_batch: ScreeningBound | None = None
    reaches: ReachTest | None = None

    @classmethod
    def monotone(cls, exact_batch: BatchObjective, maximize: bool = True) -> "SweepObjective":
        """A batch objective monotone in every group's gain.  Its reach test
        scores the optimistic gains and keeps every column not worse than
        the floor by more than a relative ``_REACH_RTOL``."""

        def reaches(A: np.ndarray, floor: float) -> np.ndarray:
            values = exact_batch(A)
            slack = _REACH_RTOL * abs(floor)
            return ~(values < floor - slack) if maximize else ~(values > floor + slack)

        return cls(maximize=maximize, exact_batch=exact_batch, reaches=reaches)

    def value(self, gains: np.ndarray) -> float:
        """Objective of one (G,) gain vector."""
        if self.exact is not None:
            return float(self.exact(gains))
        return float(self.exact_batch(gains[:, None])[0])

    def scores(self, A: np.ndarray, floor: float = -math.inf) -> tuple[np.ndarray, int]:
        """Scores (L,) of the candidate columns of ``A`` and the number of
        exact evaluations they took.

        A batch objective scores every column exactly.  For a scalar
        ``exact``, given a finite ``floor``, the columns the reach test
        clears score the cut ``floor - _REACH_RTOL * |floor|``, above their
        exact values and below the incumbent's; the others score +inf, or
        their ``bound_batch`` when more than ``_BOUND_MIN_COLS`` are left.
        ``exact`` runs in descending score order until the next score falls
        below the best exact value; the columns it skips keep their scores,
        strictly below the best.  The best score is therefore exact, and so
        is every score that equals it.
        """
        if self.exact_batch is not None:
            return np.asarray(self.exact_batch(A), dtype=float), A.shape[1]
        scores = np.full(A.shape[1], math.inf)
        live = slice(None)
        if self.reaches is not None and math.isfinite(floor):
            live = self.reaches(A, floor)
            scores[~live] = floor - _REACH_RTOL * abs(floor)
        if self.bound_batch is not None and scores[live].size > _BOUND_MIN_COLS:
            scores[live] = self.bound_batch(A[:, live], floor)
        best = -math.inf
        evals = 0
        for j in np.argsort(-scores, kind="stable"):
            if scores[j] < best:
                break
            scores[j] = self.exact(A[:, j])
            evals += 1
            best = max(best, scores[j])
        return scores, evals


@dataclass
class SweepTrace:
    """Bookkeeping for one optimization run.

    ``objective`` holds the value before any sweep followed by the value after
    each completed sweep, including the pair pass that closes a converged
    sweep when it moves antennas.  ``stage2_evals`` counts exact objective
    evaluations (for a batch objective, the candidates scored on full gains)
    and ``total_candidates`` all feasible candidates examined (single
    positions and position pairs), so ``retention`` is the fraction of
    candidates that reached the exact stage.  ``gains`` is the
    bottleneck-CNR vector of the final state, as the last selection computed
    it; the solvers build their solutions from it.
    """

    objective: list[float] = field(default_factory=list)
    stage2_evals: int = 0
    total_candidates: int = 0
    sweeps: int = 0
    converged: bool = False
    gains: np.ndarray | None = None

    @property
    def retention(self) -> float:
        if self.total_candidates == 0:
            return 0.0
        return self.stage2_evals / self.total_candidates


def spacing_mask(points: np.ndarray, others_x: np.ndarray, min_spacing_m: float) -> np.ndarray:
    """Boolean mask of grid points at least ``min_spacing_m`` from every entry of ``others_x``."""
    if others_x.size == 0:
        return np.ones(points.size, dtype=bool)
    gaps = np.abs(points[:, None] - others_x[None, :])
    return np.all(gaps >= min_spacing_m, axis=1)


def feasible_candidates(
    grid: CandidateGrid, placement: Placement, n: int, config: SystemConfig
) -> np.ndarray:
    """Grid positions available to antenna ``n`` (0-based) given the others.

    Raises InfeasiblePlacementError when no grid point keeps the required
    spacing to all other antennas.
    """
    x = placement.x_m
    if not 0 <= n < x.size:
        raise IndexError(f"antenna index {n} out of range for {x.size} antennas")
    return grid.points[_feasible_mask(grid.points, x, n, config.min_spacing_m)]


def _feasible_mask(points: np.ndarray, x: np.ndarray, n: int, min_spacing_m: float) -> np.ndarray:
    """Mask of the ``points`` open to antenna ``n`` of ``x``; raises
    InfeasiblePlacementError when it is empty."""
    others = np.delete(x, n)
    mask = spacing_mask(points, others, min_spacing_m)
    if not mask.any():
        raise InfeasiblePlacementError(
            f"no grid candidate keeps {min_spacing_m:.6g} m spacing for antenna {n} "
            f"(others at {np.array2string(others, precision=4)})"
        )
    return mask


def random_placement(
    config: SystemConfig,
    rng: np.random.Generator,
    n_antennas: int | None = None,
) -> Placement:
    """Draw antenna positions from the grid, rejecting spacing violations.

    Falls back to evenly spaced grid points when rejection sampling fails.
    """
    n = config.num_antennas if n_antennas is None else int(n_antennas)
    grid = CandidateGrid.from_config(config)
    if n > grid.num_points:
        raise InfeasiblePlacementError(f"cannot place {n} antennas on {grid.num_points} grid points")
    for _ in range(200):
        xs = np.sort(grid.points[rng.choice(grid.num_points, size=n, replace=False)])
        if n == 1 or np.all(np.diff(xs) >= config.min_spacing_m):
            return Placement(x_m=xs)
    idx = np.unique(np.round(np.linspace(0, grid.num_points - 1, n)).astype(int))
    xs = grid.points[idx]
    if xs.size == n and (n == 1 or np.all(np.diff(xs) >= config.min_spacing_m)):
        return Placement(x_m=xs)
    raise InfeasiblePlacementError(
        f"could not find a feasible placement for {n} antennas "
        f"(aperture {config.waveguide_length_m} m, spacing {config.min_spacing_m:.6g} m)"
    )


def group_layout(topology: Topology) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """User indices ordered group by group, and each group's row span.

    With rows in this order a group's bottleneck is the minimum over one
    contiguous block of rows (see :func:`_group_min`).
    """
    groups = topology.group_indices()
    ends = np.cumsum([g.size for g in groups]).tolist()
    return np.concatenate(groups), list(zip([0] + ends[:-1], ends))


def _group_min(cnr: np.ndarray, spans: list[tuple[int, int]]) -> np.ndarray:
    """Per-group minimum over the row spans of ``cnr``: (G,) or (G, L)."""
    if len(spans) == cnr.shape[0]:  # one row per group
        return cnr
    return np.stack([cnr[s:e].min(axis=0) for s, e in spans])


@dataclass(frozen=True)
class CandidateSet:
    """The candidate columns of one move.

    Column j's channel at row (user) r is ``b[r, p[j]] + t[r, q[j]]``, kept
    as real and imaginary parts; ``den`` (K, 1) is N times each row's noise
    power.  An element move has one base column (``p`` all zero) and its
    grid or codebook terms in ``t``; a pair move has the fixed antennas'
    channel plus one moving antenna's term at every grid point in ``b`` and
    the other moving antenna's terms in ``t``.  Rows follow
    :func:`group_layout`.
    """

    b_re: np.ndarray
    b_im: np.ndarray
    t_re: np.ndarray
    t_im: np.ndarray
    p: np.ndarray
    q: np.ndarray
    den: np.ndarray

    @property
    def size(self) -> int:
        return self.p.size

    def rows(self, r) -> "CandidateSet":
        """The same columns over the rows ``r`` only."""
        return CandidateSet(self.b_re[r], self.b_im[r], self.t_re[r], self.t_im[r], self.p, self.q, self.den[r])

    def cols(self, c) -> "CandidateSet":
        """The columns ``c`` only."""
        return replace(self, p=self.p[c], q=self.q[c])


def _candidate_gains(c: CandidateSet, spans: list[tuple[int, int]]) -> np.ndarray:
    """Bottleneck-CNR matrix (G, C) of the columns of ``c``, with ``spans``
    the row span of each group among the rows of ``c``.

    The arithmetic is elementwise per column and row, so a column's value
    on a row does not depend on which other rows and columns are computed.
    """
    hr = c.t_re.take(c.q, axis=1)
    hi = c.t_im.take(c.q, axis=1)
    hr += c.b_re.take(c.p, axis=1)
    hi += c.b_im.take(c.p, axis=1)
    hr *= hr
    hi *= hi
    hr += hi
    hr /= c.den
    return _group_min(hr, spans)


_pair_gains = _candidate_gains  # perfbench/tracing.py wraps this name


def _unit_spans(k: int) -> list[tuple[int, int]]:
    """Row spans with every row its own group."""
    return [(r, r + 1) for r in range(k)]


def _gains_of(h: np.ndarray, noise_w: np.ndarray, n_antennas: int, spans) -> np.ndarray:
    """Bottleneck-CNR vector (G,) of one full state from its summed channel
    ``h`` (K,), rows in :func:`group_layout` order."""
    return _group_min((h.real**2 + h.imag**2) / (n_antennas * noise_w), spans)


def _first_true(mask: np.ndarray) -> int | None:
    """Index of the first set entry of ``mask``; None when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _select(
    A: np.ndarray, inc_j: int | None, objective: SweepObjective, floor: float = -math.inf
) -> tuple[int, float, int]:
    """Best candidate column of ``A``, its exact value and the number of
    exact objective evaluations it took.

    The best score wins, the lowest column among equals, except that the
    incumbent ``inc_j`` is kept when its score equals the best.  ``floor`` is
    the incumbent's exact value; it is ignored without an incumbent.
    """
    scores, evals = objective.scores(A, floor if inc_j is not None else -math.inf)
    j = int(np.argmax(scores)) if objective.maximize else int(np.argmin(scores))
    if inc_j is not None and scores[inc_j] == scores[j]:
        j = inc_j
    return j, float(scores[j]), evals


def _screened_select(
    c: CandidateSet,
    inc_j: int | None,
    objective: SweepObjective,
    floor: float,
    spans: list[tuple[int, int]],
    screen: bool = True,
) -> tuple[int, float, np.ndarray, int]:
    """:func:`_select` over the candidate set ``c``: the column, its exact
    value, its gains and the number of columns scored exactly.

    A group's minimum over some of its users is at least its minimum over
    all of them.  With ``screen`` and an objective that has a reach test,
    the gains over each group's weakest user at the incumbent are therefore
    optimistic, and the columns the test shows unable to reach ``floor``
    (the incumbent's exact value) never get full gains.  The incumbent is
    always kept, so are the best column and every column that ties it, and
    the selection is the one :func:`_select` makes on the full matrix.  The
    gains returned are a view into the matrix the selection scored.
    """
    k = c.den.shape[0]
    cols = None
    if screen and objective.reaches is not None and inc_j is not None and len(spans) < k:
        inc = _candidate_gains(c.cols([inc_j]), _unit_spans(k))[:, 0]
        weakest = [s + int(np.argmin(inc[s:e])) for s, e in spans]
        keep = objective.reaches(_candidate_gains(c.rows(weakest), _unit_spans(len(spans))), floor)
        keep[inc_j] = True
        cols = np.flatnonzero(keep)
        inc_j = int(np.count_nonzero(keep[:inc_j]))
        c = c.cols(cols)
    A = _candidate_gains(c, spans)
    j, v, evals = _select(A, inc_j, objective, floor)
    return (j if cols is None else int(cols[j])), v, A[:, j], evals


def _pair_columns(points: np.ndarray, min_spacing_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid index pairs (p, q), p < q, at least ``min_spacing_m`` apart, in
    lexicographic order."""
    p, q = np.triu_indices(points.size, k=1)
    keep = points[q] - points[p] >= min_spacing_m
    return p[keep], q[keep]


def _sweep(
    gains: np.ndarray,
    objective: SweepObjective,
    config: SystemConfig,
    spans: list[tuple[int, int]],
    element_moves: Moves,
    block_moves: Moves | None = None,
) -> SweepTrace:
    """The element-wise search loop, from a state with bottleneck gains ``gains``.

    Each call of ``element_moves`` makes one sweep's moves.  A move yields a
    :class:`CandidateSet`, whose rows have the group spans ``spans``, and the
    incumbent's column (None if the current state is no candidate), is sent
    the column :func:`_screened_select` picked with the current state's
    exact value as floor, and applies it.  Once a sweep changes the
    objective by less than ``config.tol``, ``block_moves`` run, screened;
    if one leaves its incumbent, another sweep starts.  At most
    ``config.max_outer_iters`` sweeps run.
    """
    v = objective.value(gains)  # the exact value of the current state
    trace = SweepTrace(objective=[v], gains=gains)

    def run(moves: Moves, screen: bool) -> bool:
        # one pass of moves; True when some move left its incumbent
        nonlocal v
        moved = False
        steps = moves()
        try:
            c, inc_j = next(steps)
            while True:
                # trace.gains is a view: its matrix stays allocated until the
                # next selection replaces it, so the allocator reuses those
                # pages.  Freeing it sooner let glibc trim the heap and fault
                # it back in on every move: seven times the page faults and
                # a markedly slower tdma-pm solve
                j, v, trace.gains, evals = _screened_select(c, inc_j, objective, v, spans, screen)
                trace.total_candidates += c.size
                trace.stage2_evals += evals
                moved = moved or j != inc_j
                c, inc_j = steps.send(j)
        except StopIteration:
            return moved

    f_prev = v
    for _ in range(config.max_outer_iters):
        run(element_moves, False)
        trace.sweeps += 1
        if abs(v - f_prev) <= config.tol * min(1.0, abs(f_prev)):
            trace.converged = block_moves is None or not run(block_moves, True)
        trace.objective.append(v)
        if trace.converged:
            break
        f_prev = v
    trace.gains = trace.gains.copy()  # release the last gain matrix
    return trace


def _run_sweeps(
    placement: Placement,
    topology: Topology,
    config: SystemConfig,
    objective: SweepObjective,
) -> tuple[Placement, SweepTrace]:
    """Placement search: :func:`_sweep` over grid points, pair passes as block moves.

    ``path_terms`` runs once, over the grid points and then the start
    positions.  The state ``col`` holds each antenna's column of that table,
    its own start column while it is off the grid."""
    placement.validate(config)
    n = placement.num_antennas
    grid = CandidateGrid.from_config(config)
    order, spans = group_layout(topology)
    noise = topology.noise_w[order]
    pos = np.concatenate([grid.points, placement.x_m])
    terms = path_terms(pos, topology.user_xyz_m[order], config)  # (K, L + N)
    col = (pos[:, None] == placement.x_m).argmax(axis=0)  # a grid column where one matches
    spacing = config.min_spacing_m

    def element_moves():
        for i in range(n):
            q = np.flatnonzero(_feasible_mask(grid.points, pos[col], i, spacing))
            h_bar = terms.take(np.delete(col, i), axis=1).sum(axis=1)[:, None]
            c = CandidateSet(h_bar.real, h_bar.imag, t_re, t_im, np.zeros(q.size, dtype=np.intp), q, den)
            j = yield c, _first_true(q == col[i])
            col[i] = q[j]
        col.sort()  # every antenna is on the grid now: index order is position order

    def pair_moves():
        # block move of each pair of neighbours (in sorted order) over every
        # feasible pair of grid points; only strict improvements move them
        for i in range(n - 1):
            others = np.delete(col, [i, i + 1])
            feasible = spacing_mask(grid.points, pos[others], spacing)
            keep = feasible[pair_p] & feasible[pair_q]
            p, q = pair_p[keep], pair_q[keep]
            inc_j = _first_true((p == col[i]) & (q == col[i + 1]))
            h_bar = terms.take(others, axis=1).sum(axis=1)
            c = CandidateSet(h_bar.real[:, None] + t_re, h_bar.imag[:, None] + t_im, t_re, t_im, p, q, den)
            j = yield c, inc_j
            if j != inc_j:
                col[i], col[i + 1] = p[j], q[j]
                col.sort()

    t_re = np.ascontiguousarray(terms.real[:, : grid.num_points])
    t_im = np.ascontiguousarray(terms.imag[:, : grid.num_points])
    den = n * noise[:, None]
    if n > 1:
        pair_p, pair_q = _pair_columns(grid.points, spacing)

    start = _gains_of(terms.take(col, axis=1).sum(axis=1), noise, n, spans)
    trace = _sweep(start, objective, config, spans, element_moves, pair_moves if n > 1 else None)
    return Placement(x_m=pos[col]), trace


def seo_sweep(
    placement: Placement,
    topology: Topology,
    config: SystemConfig,
    objective: ScalarObjective | None = None,
    *,
    mode: str = "maximize",
    objective_batch: BatchObjective | None = None,
) -> tuple[Placement, SweepTrace]:
    """Cyclic 1-D grid search over each antenna coordinate, closed by pair passes.

    ``objective`` maps a per-group bottleneck-CNR vector to a float; pass
    ``objective_batch`` instead to evaluate all candidates of an element (or
    all position pairs of a pair pass) in one vectorized call; both forms
    select the same placement.  Ties keep the current position, else break
    toward the smallest candidate position (smallest pair in lexicographic
    order).  When a sweep changes the objective by less than the configured
    tolerance, a pair pass moves each pair of sorted neighbours jointly over
    all feasible grid pairs; a strict improvement starts another sweep,
    otherwise the search has converged.  At most ``max_outer_iters`` sweeps
    run, pair passes included.
    """
    if mode not in ("maximize", "minimize"):
        raise ValueError(f"mode must be 'maximize' or 'minimize', got {mode!r}")
    if (objective is None) == (objective_batch is None):
        raise ValueError("provide exactly one of objective or objective_batch")
    return _run_sweeps(
        placement, topology, config,
        SweepObjective(maximize=(mode == "maximize"), exact=objective, exact_batch=objective_batch),
    )


def hoe_sweep(
    placement: Placement,
    topology: Topology,
    config: SystemConfig,
    upper_bound: BatchObjective,
    exact: ScalarObjective,
) -> tuple[Placement, SweepTrace]:
    """Element-wise sweep with hierarchical objective evaluation (maximize).

    ``upper_bound`` maps a candidate-gain matrix (G, L) to per-candidate
    bounds that must dominate ``exact`` on every candidate, the position
    pairs of the pair passes included.  The exact objective is only evaluated
    for candidates whose bound reaches the best exact value seen so far (on
    all of them, unbounded, if there are at most ``_BOUND_MIN_COLS``); the
    returned placement and objective equal :func:`seo_sweep`'s with ``exact``.
    """
    return _run_sweeps(
        placement, topology, config,
        SweepObjective(exact=exact, bound_batch=lambda A, floor: upper_bound(A)),
    )
