"""Sequential element-wise placement optimization over a discretized aperture.

One antenna coordinate is re-optimized at a time by a 1-D search over the
candidate grid, holding the others fixed.  Candidate channels are evaluated
incrementally: the contribution of the fixed antennas is computed once per
element and only the moving antenna's path term varies across candidates.

Element-wise search stops at coordinate-wise optima, and with a grid step
many wavelengths long the placement landscape has many of them.  Whenever the
element-wise sweeps have converged, a pair pass therefore moves each pair of
antennas that are neighbours in sorted order jointly over every feasible
pair of grid points (a block coordinate step), accepting only strict
improvements; the element-wise sweeps then resume.  For two antennas the
pair pass is exhaustive enumeration; a single antenna never runs it.

Objectives operate on the per-group bottleneck-CNR vector of a candidate
placement.  Scalar objectives map a (G,) gain vector to a float; batch
objectives map the full (G, L) candidate-gain matrix to an (L,) value vector
and enable fully vectorized sweeps for cheap objectives.  A
:class:`SweepObjective` bundles the direction, the exact objective and an
optional screening bound; each scheme module builds its own once, and the
placement sweep here and the fixed array's phase sweep both run it.

``hoe_sweep`` adds a two-stage screen: a cheap per-candidate upper bound is
computed for all candidates first, and the exact objective is evaluated only
for candidates whose bound reaches the best exact value seen so far.  With a
valid bound this selects exactly the same candidate as the plain sweep, in
the element steps and the pair passes alike.  The sweep always knows the
exact value of its current placement, one of the candidates, and hands it to
the bound as a floor: a candidate shown unable to reach it may get a loose
bound without further work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channel import path_terms
from .config import SystemConfig
from .errors import InfeasiblePlacementError
from .topology import Placement, Topology

ScalarObjective = Callable[[np.ndarray], float]
BatchObjective = Callable[[np.ndarray], np.ndarray]
ScreeningBound = Callable[[np.ndarray, float], np.ndarray]


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
    any valid bound below it.
    """

    maximize: bool = True
    exact: ScalarObjective | None = None
    exact_batch: BatchObjective | None = None
    bound_batch: ScreeningBound | None = None

    def value(self, gains: np.ndarray) -> float:
        """Objective of one (G,) gain vector."""
        if self.exact is not None:
            return float(self.exact(gains))
        return float(self.exact_batch(gains[:, None])[0])


@dataclass
class SweepTrace:
    """Bookkeeping for one optimization run.

    ``objective`` holds the value before any sweep followed by the value after
    each completed sweep, including the pair pass that closes a converged
    sweep when it moves antennas.  ``stage2_evals`` counts exact objective
    evaluations and ``total_candidates`` all feasible candidates examined
    (single positions and position pairs), so ``retention`` is the fraction of
    candidates that reached the exact stage.
    """

    objective: list[float] = field(default_factory=list)
    stage2_evals: int = 0
    total_candidates: int = 0
    sweeps: int = 0
    converged: bool = False

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
    others = np.delete(x, n)
    mask = spacing_mask(grid.points, others, config.min_spacing_m)
    if not mask.any():
        raise InfeasiblePlacementError(
            f"no grid candidate keeps {config.min_spacing_m:.6g} m spacing for antenna {n} "
            f"(others at {np.array2string(others, precision=4)})"
        )
    return grid.points[mask]


def random_placement(
    config: SystemConfig,
    rng: np.random.Generator,
    n_antennas: int | None = None,
    max_tries: int = 200,
) -> Placement:
    """Draw antenna positions from the grid, rejecting spacing violations.

    Falls back to evenly spaced grid points when rejection sampling fails.
    """
    n = config.num_antennas if n_antennas is None else int(n_antennas)
    grid = CandidateGrid.from_config(config)
    if n > grid.num_points:
        raise InfeasiblePlacementError(f"cannot place {n} antennas on {grid.num_points} grid points")
    for _ in range(max_tries):
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
    return np.stack([cnr[s:e].min(axis=0) for s, e in spans])


def _candidate_gains(
    h_bar: np.ndarray,
    cand_terms: np.ndarray,
    noise_w: np.ndarray,
    n_antennas: int,
    spans: list[tuple[int, int]],
) -> np.ndarray:
    """Bottleneck-CNR matrix (G, L) for all candidate positions of one element.

    Rows (users) must be in :func:`group_layout` order with ``spans`` the
    row span of each group.
    """
    h = h_bar[:, None] + cand_terms
    cnr = (h.real**2 + h.imag**2) / (n_antennas * noise_w[:, None])
    return _group_min(cnr, spans)


def _pair_gains(
    u_re: np.ndarray,
    u_im: np.ndarray,
    t_re: np.ndarray,
    t_im: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    den: np.ndarray,
    spans: list[tuple[int, int]],
) -> np.ndarray:
    """Bottleneck-CNR matrix (G, P) of the position pairs (p[j], q[j]).

    ``u`` is the fixed antennas' channel plus one moving antenna's path term
    at every grid point and ``t`` the other moving antenna's path terms, both
    split into real and imaginary parts; ``den`` is N times the noise power
    of each row.  Rows follow :func:`group_layout`.
    """
    hr = u_re.take(p, axis=1)
    hr += t_re.take(q, axis=1)
    hi = u_im.take(p, axis=1)
    hi += t_im.take(q, axis=1)
    hr *= hr
    hi *= hi
    hr += hi
    hr /= den
    return _group_min(hr, spans)


def _gains_of(x: np.ndarray, users: np.ndarray, noise_w: np.ndarray, spans, config) -> np.ndarray:
    terms = path_terms(x, users, config)
    h = terms.sum(axis=1)
    cnr = (h.real**2 + h.imag**2) / (x.size * noise_w)
    return _group_min(cnr, spans)


def _select_plain_scalar(
    A: np.ndarray, exact: ScalarObjective, maximize: bool, inc_j: int | None
) -> tuple[int, float, int]:
    best_j = 0
    best_v = exact(A[:, 0])
    inc_v = best_v if inc_j == 0 else None
    for j in range(1, A.shape[1]):
        v = exact(A[:, j])
        if j == inc_j:
            inc_v = v
        if (v > best_v) if maximize else (v < best_v):
            best_v, best_j = v, j
    if inc_j is not None and inc_v == best_v:
        best_j = inc_j  # no strict improvement over the current position
    return best_j, best_v, A.shape[1]


def _select_batch(
    vals: np.ndarray, maximize: bool, inc_j: int | None
) -> tuple[int, float]:
    j = int(np.argmax(vals)) if maximize else int(np.argmin(vals))
    if inc_j is not None and vals[inc_j] == vals[j]:
        j = inc_j
    return j, float(vals[j])


def _select_screened(
    A: np.ndarray, exact: ScalarObjective, bounds: np.ndarray, inc_j: int | None
) -> tuple[int, float, int]:
    """Maximize ``exact`` over candidate columns, skipping columns whose upper
    bound is strictly below the best exact value seen.  Scanning in descending
    bound order guarantees every potential optimum is evaluated, so the
    selection (tie-breaking included) matches a full scan.  A pruned column
    is strictly worse than the best, so it can neither win nor tie."""
    order = np.argsort(-bounds, kind="stable")
    best_j = -1
    best_v = -np.inf
    inc_v = None
    evals = 0
    for oi in order:
        if bounds[oi] < best_v:
            break
        v = exact(A[:, oi])
        evals += 1
        if oi == inc_j:
            inc_v = v
        if v > best_v or (v == best_v and oi < best_j):
            best_v, best_j = v, int(oi)
    if inc_j is not None and inc_v == best_v:
        best_j = inc_j
    return best_j, best_v, evals


def _select(
    A: np.ndarray, inc_j: int | None, objective: SweepObjective, floor: float = -math.inf
) -> tuple[int, float, int]:
    """Best candidate column of ``A`` (incumbent kept on ties), its exact
    value and the number of exact objective evaluations it took.

    ``floor`` is the exact value of the incumbent column ``inc_j``; it lets
    the screening bound stop early on columns that cannot reach it, and is
    ignored without an incumbent.
    """
    maximize, exact = objective.maximize, objective.exact
    if objective.exact_batch is not None:
        vals = np.asarray(objective.exact_batch(A), dtype=float)
        j, v = _select_batch(vals, maximize, inc_j)
        return j, v, A.shape[1]
    if objective.bound_batch is None:
        return _select_plain_scalar(A, exact, maximize, inc_j)
    if inc_j is None:
        floor = -math.inf
    bounds = np.asarray(objective.bound_batch(A, floor), dtype=float)
    return _select_screened(A, exact, bounds, inc_j)


def _pair_columns(points: np.ndarray, min_spacing_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid index pairs (p, q), p < q, at least ``min_spacing_m`` apart, in
    lexicographic order."""
    p, q = np.triu_indices(points.size, k=1)
    keep = points[q] - points[p] >= min_spacing_m
    return p[keep], q[keep]


def _run_sweeps(
    placement: Placement,
    topology: Topology,
    config: SystemConfig,
    objective: SweepObjective,
) -> tuple[Placement, SweepTrace]:
    placement.validate(config)
    x = placement.x_m.astype(float).copy()
    n = x.size
    grid = CandidateGrid.from_config(config)
    order, spans = group_layout(topology)
    users = topology.user_xyz_m[order]
    noise = topology.noise_w[order]
    grid_terms = path_terms(grid.points, users, config)  # (K, L)
    spacing = config.min_spacing_m

    trace = SweepTrace()
    v_cur = objective.value(_gains_of(x, users, noise, spans, config))

    def fixed_sum(others: np.ndarray) -> np.ndarray:
        if others.size:
            return path_terms(others, users, config).sum(axis=1)
        return np.zeros(users.shape[0], dtype=complex)

    def select(A: np.ndarray, inc_j: int | None) -> tuple[int, float]:
        # v_cur: the exact value of the current placement, the incumbent's
        nonlocal v_cur
        j, v_cur, evals = _select(A, inc_j, objective, v_cur)
        trace.total_candidates += A.shape[1]
        trace.stage2_evals += evals
        return j, v_cur

    if n > 1:
        pair_p, pair_q = _pair_columns(grid.points, spacing)
        t_re = np.ascontiguousarray(grid_terms.real)
        t_im = np.ascontiguousarray(grid_terms.imag)
        den = n * noise[:, None]

    def pair_pass() -> tuple[bool, float]:
        # block move of each pair of neighbours (in sorted order) over every
        # feasible pair of grid points; only strict improvements move them
        moved = False
        v = math.nan
        for i in range(n - 1):
            others = np.delete(x, [i, i + 1])
            feasible = spacing_mask(grid.points, others, spacing)
            keep = feasible[pair_p] & feasible[pair_q]
            p, q = pair_p[keep], pair_q[keep]
            inc_hits = np.flatnonzero((grid.points[p] == x[i]) & (grid.points[q] == x[i + 1]))
            inc_j = int(inc_hits[0]) if inc_hits.size else None
            h_bar = fixed_sum(others)
            A = _pair_gains(
                h_bar.real[:, None] + t_re, h_bar.imag[:, None] + t_im,
                t_re, t_im, p, q, den, spans,
            )
            j, v = select(A, inc_j)
            if j != inc_j:
                x[i], x[i + 1] = grid.points[p[j]], grid.points[q[j]]
                x.sort()
                moved = True
        return moved, v

    f_prev = v_cur
    trace.objective.append(f_prev)

    for _ in range(config.max_outer_iters):
        for i in range(n):
            others = np.delete(x, i)
            mask = spacing_mask(grid.points, others, spacing)
            if not mask.any():
                raise InfeasiblePlacementError(
                    f"no feasible grid candidate for antenna {i} during sweep "
                    f"(others at {np.array2string(others, precision=4)})"
                )
            cand_x = grid.points[mask]
            inc_hits = np.nonzero(cand_x == x[i])[0]
            inc_j = int(inc_hits[0]) if inc_hits.size else None
            A = _candidate_gains(fixed_sum(others), grid_terms[:, mask], noise, n, spans)
            j, v = select(A, inc_j)
            x[i] = cand_x[j]
        x.sort()
        trace.sweeps += 1
        f_new = v  # objective of the placement after the final element update
        if abs(f_new - f_prev) <= config.tol * min(1.0, abs(f_prev)):
            moved, v_pair = pair_pass()
            if not moved:
                trace.objective.append(f_new)
                trace.converged = True
                break
            f_new = v_pair
        trace.objective.append(f_new)
        f_prev = f_new

    return Placement(x_m=x), trace


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
    for candidates whose bound reaches the best exact value seen so far; the
    returned placement and objective are identical to :func:`seo_sweep` with
    ``exact`` alone.
    """
    return _run_sweeps(
        placement, topology, config,
        SweepObjective(exact=exact, bound_batch=lambda A, floor: upper_bound(A)),
    )
