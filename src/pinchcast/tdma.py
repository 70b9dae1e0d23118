"""Orthogonal-slot solvers with joint time and energy allocation.

Each group transmits alone in a slot of length tau_g using energy
E_g = tau_g * P_g, giving the jointly concave slot rate
tau * log2(1 + E * A / tau).  For a target common rate t the cheapest energy
of a group is tau/A * (2^(t/tau) - 1); minimizing the summed energy over the
slot lengths is a strictly convex problem whose stationarity condition ties
every slot length to one multiplier nu.  At the optimum the frame and the
budget are both tight, so the rate, every slot length and every energy follow
from nu; :func:`_frontier` finds it by Newton iteration on the energy
residual, and both the shared-placement sweep objective and the final time
and energy allocation run it.  A bisection of nu until the slot lengths fill
the frame (:func:`min_total_energy`, :func:`tau_from_nu`) remains as the
independent reference the tests compare against.

Two placement protocols are supported: slot-switched placements optimized per
group in isolation (PS) and one shared placement optimized against the
allocator itself (PM).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from . import seo
from .channel import group_gains
from .config import SystemConfig
from .errors import PinchcastError
from .noma import closed_form_rate, mmf_rate_reaches
# unused here since the shared-placement screen runs the NOMA reach test and
# no NOMA bound; perfbench/tracing.py still wraps this name in this module
from .noma import mmf_rate_bound_batch  # noqa: F401
from .records import SchemeSolution
from .seo import ScreeningBound, SweepObjective, SweepTrace, random_placement
from .topology import Placement, Topology

LN2 = math.log(2.0)
_EXP_CAP = 700.0      # exponent cap for 2^(t/tau); larger means infeasible tau
_U_CAP = 1000.0       # keeps _omega(u) and its derivative below float overflow
_SECANT_SHRINK = 1e-13    # relative margin of a secant point against rounding in omega
_FIRST_NEWTON_STEPS = 2   # omega Newton steps of the dual bound's first evaluation
_REFINE_NEWTON_STEPS = 6  # omega Newton steps of each refined evaluation, from warm exponents
_NU_STOP = 1e-4           # the dual bound stops refining a column once |d log nu| <= this


def min_energy(a_g: float, t: float, tau: float) -> float:
    """Least energy for one group to sustain rate ``t`` in a slot of length ``tau``.

    Evaluates tau/a * (2^(t/tau) - 1); slot lengths implying an overflowing
    exponent are reported as infinitely expensive.
    """
    if a_g <= 0 or tau <= 0 or t < 0:
        raise ValueError("requires a_g > 0, tau > 0, t >= 0")
    if t == 0.0:
        return 0.0
    u = t / tau
    if u * LN2 > _EXP_CAP:
        return math.inf
    return tau * math.expm1(u * LN2) / a_g


def _omega_series(v: float) -> float:
    # sum_{k>=2} (k-1) v^k / k!, accurate to rounding for 0 <= v < 0.1
    return v * v * (1 / 2 + v * (1 / 3 + v * (1 / 8 + v * (1 / 30 + v * (
        1 / 144 + v * (1 / 840 + v * (1 / 5760 + v * (1 / 45360 + v * (
            1 / 403200 + v * (1 / 3991680 + v / 43545600))))))))))


def _omega(u: float) -> float:
    # derivative of the per-slot energy w.r.t. slot length, rescaled:
    # omega(u) = 2^u (u ln2 - 1) + 1, strictly increasing from 0 on u >= 0.
    # With v = u ln2 the closed form cancels to ~v^2/2 at small v, where the
    # series is used instead.
    v = LN2 * u
    if v < 0.1:
        return _omega_series(v)
    return math.expm1(v) * (v - 1.0) + v


def _omega_inv(y: float, seed: float | None = None) -> float:
    """Invert ``_omega`` on u > 0 by Newton iteration.

    ``_omega`` is convex and increasing, so Newton descends monotonically onto
    the root from any point to its right, and a step from the left lands to
    its right.  The cold start lies right of the root and caps every iterate,
    so a far-off warm ``seed`` cannot overshoot.  The iteration stops once a
    step is at most 1e-12 relative: convergence is quadratic, so the iterate
    is at rounding level then.
    """
    if y <= 0.0:
        raise ValueError("omega inverse requires a positive target")
    if y < 1.0:
        u_max = max(math.sqrt(2.0 * y) / LN2, 1e-12)
    else:
        u_max = min(math.log2(y + 2.0), _U_CAP)
    u = seed if seed is not None and 0.0 < seed < u_max else u_max
    for _ in range(100):
        v = LN2 * u
        em1 = math.expm1(v)
        w = _omega_series(v) if v < 0.1 else em1 * (v - 1.0) + v  # _omega(u)
        u_new = u - (w - y) / (LN2 * v * (em1 + 1.0))  # d omega / du = ln2^2 u 2^u
        if u_new <= 0.0:
            u_new = 0.5 * u
        elif u_new > u_max:
            u_new = u_max
        if abs(u_new - u) <= 1e-12 * u:
            return u_new
        u = u_new
    return u


def _omega_of_v(v: np.ndarray, em1: np.ndarray) -> np.ndarray:
    # elementwise _omega at v = u ln2 given em1 = expm1(v); the series runs
    # only on the entries that need it
    w = em1 * (v - 1.0) + v
    small = v < 0.1
    if small.any():
        w[small] = _omega_series(v[small])
    return w


def _omega_start_batch(
    y: np.ndarray, seed: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Start and cap of the batch omega inverse.

    The cap is :func:`_omega_inv`'s cold start.  A warm ``seed`` is the
    start where 0 < seed < cap, as in :func:`_omega_inv`.  The cold start
    lies right of the root: for y >= 4 it takes two passes of the fixed
    point u = log2((y - 1)/(u ln2 - 1)) of omega(u) = y from the cap.  The
    map decreases in u, so its second pass from a point right of the root
    ends right of the root again.  Its slope is -1/(u ln2 - 1), so at large
    y the two passes put the start near the root.
    """
    u_max = np.where(
        y < 1.0,
        np.maximum(np.sqrt(2.0 * y) / LN2, 1e-12),
        np.minimum(np.log2(y + 2.0), _U_CAP),
    )
    if seed is not None:
        warm = (seed > 0.0) & (seed < u_max)
        if warm.all():
            return seed, u_max
    u = u_max
    with np.errstate(divide="ignore", invalid="ignore"):  # entries below 4 are discarded
        for _ in range(2):
            u = np.log2((y - 1.0) / (LN2 * u - 1.0))
    u = np.where(y >= 4.0, np.minimum(u, u_max), u_max)
    return (u if seed is None else np.where(warm, seed, u)), u_max


def _omega_inv_bracket(
    y: np.ndarray, steps: int, seed: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points on either side of the root of omega(u) = y without iterating
    to convergence: (u_lo, u, expm1(u ln2)).

    ``u`` is ``steps`` Newton steps from :func:`_omega_start_batch`, each
    capped as in :func:`_omega_inv`.  omega is convex, so a step from
    either side of the root lands on its right, and Newton stays there.
    omega(0) = 0 as well, so the secant point u_lo = u y / omega(u) of any
    u with omega(u) > y has omega(u_lo) <= y, and otherwise u_lo = u
    already lies left of the root.  u_lo is shrunk by ``_SECANT_SHRINK``
    against the rounding of omega.  Every entry steps on its own, so it
    does not depend on its batch.
    """
    u, u_max = _omega_start_batch(y, seed)
    for _ in range(steps):
        v = LN2 * u
        em1 = np.expm1(v)
        u_new = u - (_omega_of_v(v, em1) - y) / (LN2 * v * (em1 + 1.0))  # d omega / du = ln2^2 u 2^u
        u = np.where(u_new <= 0.0, 0.5 * u, np.minimum(u_new, u_max))
    v = LN2 * u
    em1 = np.expm1(v)
    u_lo = u * np.minimum(y / _omega_of_v(v, em1), 1.0) * (1.0 - _SECANT_SHRINK)
    return u_lo, u, em1


def _equal_slot_rate(gain_matrix: np.ndarray, p_t: float) -> np.ndarray:
    """Common rate of each gain column with every slot 1/G long and powers
    inversely proportional to the gains: log2(1 + G p_t / sum(1/a)) / G.
    The sum runs row by row, so a column's rate does not depend on its batch
    (``np.sum`` adds one column of eight or more gains pairwise)."""
    g = gain_matrix.shape[0]
    return np.log2(1.0 + g * p_t / reduce(np.add, 1.0 / gain_matrix)) / g


def _frontier_dual_bound(
    gain_matrix: np.ndarray, p_t: float, steps: int = 3, floor: float = -np.inf
) -> np.ndarray:
    """Weak-duality upper bound on the shared-placement rate of each column.

    Relaxing the unit frame with a multiplier nu > 0 gives, for every
    feasible rate t, p_t >= t * sum_g c_g(nu) - nu with
    c_g(nu) = min_u ((2^u - 1)/a_g + nu)/u, attained at the root u* of
    omega(u) = a_g nu.  There the minimand equals its slope, so
    c_g(nu) = ln2 2^u* / a_g, the slope of the tangent of (2^u - 1)/a_g at
    u*.  Hence t <= (p_t + nu) / sum_g c_g(nu) for every nu, with equality
    at the optimal multiplier.  ``nu`` starts from the equal-slot
    allocation.

    Every evaluation takes Newton steps towards each root u* and then the
    tangent's slope at the secant point u_lo <= u*
    (:func:`_omega_inv_bracket`).  The slope increases with u, so
    ln2 2^u_lo / a_g <= c_g(nu) and each bound is valid however far the
    steps left u from u*.  The first evaluation takes
    ``_FIRST_NEWTON_STEPS`` steps from a cold start; most columns already
    fall below ``floor`` there and take no further steps, keeping that
    bound.  The others take up to ``steps`` Newton steps on
    energy(nu) = p_t, each evaluated after ``_REFINE_NEWTON_STEPS`` steps
    warm-started from the previous exponents, which leave u_lo at the root
    to rounding.  A column stops once a step moves log nu by at most
    ``_NU_STOP``.  The smallest bound met on the way is returned.  Columns
    where a slot exponent hits its cap get ``inf`` (no bound).
    """
    a = np.asarray(gain_matrix, dtype=float)
    g = a.shape[0]
    v = LN2 * g * _equal_slot_rate(a, p_t)
    w = _omega_of_v(v, np.expm1(v))
    nu = np.exp(np.mean(np.log(w / a), axis=0))  # geometric mean of the slot multipliers
    best = np.full(a.shape[1], np.inf)
    live = np.arange(a.shape[1])  # columns still refined
    u = None
    with np.errstate(all="ignore"):
        for k in range(steps + 1):
            u_lo, u, em1 = _omega_inv_bracket(a * nu, _REFINE_NEWTON_STEPS if k else _FIRST_NEWTON_STEPS, u)
            dual = (p_t + nu) / np.sum(LN2 * np.exp(LN2 * u_lo) / a, axis=0)
            dual[np.any(u >= _U_CAP, axis=0)] = np.inf
            best[live] = np.fmin(best[live], dual)
            if k == steps:
                break
            keep = best[live] >= floor
            if not keep.all():
                live, a, nu, u, em1 = live[keep], a[:, keep], nu[keep], u[:, keep], em1[:, keep]
            if not live.size:
                break
            # Newton in log nu on log energy(nu) = log p_t, each step clipped
            # to a factor e^3 (_frontier steps nu itself inside a bracket)
            t = 1.0 / np.sum(1.0 / u, axis=0)
            e_sum = np.sum(em1 / (u * a), axis=0)
            du = a / (LN2 * LN2 * u * (em1 + 1.0))
            d_energy = t * t * np.sum(du / (u * u), axis=0) * e_sum + t * np.sum(nu * du / (u * u), axis=0)
            energy = t * e_sum
            step = np.log(energy / p_t) * energy / (nu * d_energy)
            if k:  # warm steps leave the exponents at their roots, so a short step means nu is near its optimum
                keep = np.abs(step) > _NU_STOP
                if not keep.all():
                    live, a, nu, u, step = live[keep], a[:, keep], nu[keep], u[:, keep], step[keep]
                if not live.size:
                    break
            nu = nu * np.exp(-np.clip(step, -3.0, 3.0))
    return best


# relative slack covering the exact rate's rounding (_frontier) against the
# bound's; every dual evaluation is a valid bound by construction
_DUAL_RTOL = 1e-10
_DUAL_MIN_COLS = 4


def pm_rate_bound_batch(p_t: float) -> ScreeningBound:
    """Screening bound for the shared-placement rate of each gain column:
    :func:`_frontier_dual_bound`, slacked by ``_DUAL_RTOL``.

    ``floor`` is the exact rate of the sweep's incumbent, and the dual
    refines a column only while its bound stays at or above it; a column
    that falls below it cannot be selected anyway.  Every dual evaluation
    is valid by construction: it bounds each slot's cost from below by the
    slope of 2^u's tangent at a secant point left of the root of
    omega(u) = a_g nu, so no slot exponent needs to converge.
    ``_DUAL_RTOL`` covers only the rounding of the exact rate against the
    bound's.  The dual pass costs about as much as a few exact evaluations,
    so no more than ``_DUAL_MIN_COLS`` columns get +inf instead, and the
    exact stage takes them.
    """

    def bound(gain_matrix: np.ndarray, floor: float = -math.inf) -> np.ndarray:
        if gain_matrix.shape[1] <= _DUAL_MIN_COLS:
            return np.full(gain_matrix.shape[1], np.inf)
        # the floor is compared before the slack, so a column that stops
        # early still ends below the floor once slacked
        return _frontier_dual_bound(gain_matrix, p_t, floor=floor / (1.0 + _DUAL_RTOL)) * (1.0 + _DUAL_RTOL)

    return bound


def tau_from_nu(a_g: float, t: float, nu: float) -> float:
    """Slot length at which the marginal energy saving equals ``nu``.

    Unique root of (1/a)(2^(t/tau)(1 - t ln2 / tau) - 1) + nu = 0; no root
    exists for nu <= 0.
    """
    if nu <= 0.0:
        raise ValueError("the stationarity condition has no root for nu <= 0")
    if t <= 0.0 or a_g <= 0.0:
        raise ValueError("requires t > 0 and a_g > 0")
    return t / _omega_inv(a_g * nu)


def _tau_vector(a: list[float], t: float, nu: float, seeds: list[float] | None) -> tuple[list[float], list[float]]:
    us = []
    taus = []
    for gi, ag in enumerate(a):
        u = _omega_inv(ag * nu, seed=None if seeds is None else seeds[gi])
        us.append(u)
        taus.append(t / u)
    return taus, us


def min_total_energy(gains: np.ndarray, t: float) -> tuple[float, np.ndarray]:
    """Least total energy sustaining common rate ``t`` over one frame.

    Bisects the multiplier nu until the slot lengths sum to one.  No solver
    runs this nested bisection; it is the reference that the tests compare
    :func:`pm_resource_allocation` against.
    """
    a = np.asarray(gains, dtype=float)
    if np.any(a <= 0):
        raise ValueError("gains must be positive")
    if a.size == 1:
        return min_energy(float(a[0]), t, 1.0), np.ones(1)
    if t <= 0.0:
        raise ValueError("t must be positive")
    a_list = a.tolist()
    seeds: list[float] | None = None

    def total_tau(nu: float) -> float:
        nonlocal seeds
        taus, seeds = _tau_vector(a_list, t, nu, seeds)
        return sum(taus)

    # frame use decreases in nu; expand geometrically to bracket a unit frame
    nu = 1.0
    s = total_tau(nu)
    lo = hi = nu
    if s > 1.0:
        for _ in range(120):
            lo = nu
            nu *= 10.0
            s = total_tau(nu)
            if s <= 1.0:
                hi = nu
                break
        else:
            raise PinchcastError("failed to bracket the frame constraint from above")
    else:
        for _ in range(120):
            hi = nu
            nu /= 10.0
            s = total_tau(nu)
            if s >= 1.0:
                lo = nu
                break
        else:
            raise PinchcastError("failed to bracket the frame constraint from below")

    best_nu = nu
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        s = total_tau(mid)
        best_nu = mid
        if s >= 1.0:
            lo = mid
        else:
            hi = mid
        if abs(s - 1.0) <= 1e-12 or (hi - lo) <= 1e-12 * hi:
            break
    taus, _ = _tau_vector(a_list, t, best_nu, seeds)
    energy = sum(min_energy(ag, t, tg) for ag, tg in zip(a_list, taus))
    return energy, np.asarray(taus)


def _frontier_state(
    a: list[float], nu: float, seeds: list[float]
) -> tuple[float, float, float, list[float]]:
    # (energy, d energy / d nu, rate, slot exponents) at multiplier nu; each
    # slot exponent's Newton iteration starts from its seed
    ln2 = LN2
    ln2sq = ln2 * ln2
    inv_u_sum = 0.0
    e_sum = 0.0
    dt_acc = 0.0
    de_acc = 0.0
    us = [0.0] * len(a)
    for gi, ag in enumerate(a):
        y = ag * nu
        u = _omega_inv(y, seeds[gi])
        us[gi] = u
        e = math.exp(ln2 * u)
        du = ag / (ln2sq * u * e)
        inv_u_sum += 1.0 / u
        e_sum += math.expm1(ln2 * u) / (u * ag)
        dt_acc += du / (u * u)
        de_acc += y / (u * u * ag) * du  # omega(u) = y at the root
    t = 1.0 / inv_u_sum
    dt = t * t * dt_acc
    energy = t * e_sum
    d_energy = dt * e_sum + t * de_acc
    return energy, d_energy, t, us


def _frontier(a: list[float], p_t: float) -> tuple[float, float, list[float]]:
    """Energy-optimal frame of two or more groups: (rate t, multiplier nu,
    slot exponents u).

    At the optimum the frame and the budget are tight and every slot carries
    rate t, which pins every quantity to nu: omega(u_g) = a_g nu,
    t = 1 / sum_g 1/u_g and slot g lasts t/u_g.  Newton iteration on the
    energy residual in nu, safeguarded by a bracket, runs to machine
    precision.  It starts from the equal-slot allocation, as
    :func:`_frontier_dual_bound` does, and keeps no state between calls, so
    the result depends on ``a`` and ``p_t`` alone.
    """
    g = len(a)
    u_eq = math.log1p(g * p_t / math.fsum(1.0 / ag for ag in a)) / LN2  # G * equal-slot rate
    w = _omega(u_eq)
    nu = math.exp(math.fsum(math.log(w / ag) for ag in a) / g)  # geometric mean of the slot multipliers
    us = [u_eq] * g
    lo = 0.0
    hi = math.inf
    for _ in range(200):
        energy, d_energy, t, us = _frontier_state(a, nu, us)
        f = energy - p_t
        if f > 0.0:
            hi = nu
        else:
            lo = nu
        if lo > 0.0 and math.isfinite(hi) and hi - lo <= 4e-16 * hi:
            break
        nu_new = nu - f / d_energy
        if not lo < nu_new < hi:
            nu_new = 0.5 * (lo + hi) if math.isfinite(hi) else nu * 16.0
        if abs(nu_new - nu) <= 1e-15 * nu:
            nu = nu_new
            break
        nu = nu_new
    else:
        if not math.isfinite(hi):
            raise PinchcastError("energy frontier iteration failed to bracket the budget")
    _, _, t, us = _frontier_state(a, nu, us)
    return t, nu, us


@dataclass(frozen=True)
class TimeEnergyAllocation:
    """Slot lengths and energies for one frame; powers follow as E/tau."""

    tau: np.ndarray
    energy_w: np.ndarray
    nu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=float))
        object.__setattr__(self, "energy_w", np.asarray(self.energy_w, dtype=float))

    @property
    def power_w(self) -> np.ndarray:
        return self.energy_w / self.tau

    def rates(self, gains: np.ndarray) -> np.ndarray:
        a = np.asarray(gains, dtype=float)
        return self.tau * np.log2(1.0 + self.energy_w * a / self.tau)


def pm_resource_allocation(gains: np.ndarray, p_t: float) -> tuple[float, TimeEnergyAllocation]:
    """Largest common rate whose minimum energy fits the budget.

    :func:`_frontier` gives the rate t, the multiplier nu and the slot
    exponents u_g; slot g lasts tau_g = t/u_g and uses energy
    tau_g (2^u_g - 1)/a_g.  The rate is the one :func:`pm_rate` returns, bit
    for bit.  Applies unchanged to slot-switched placements since the
    resource problem only sees per-group gains.
    """
    a = np.asarray(gains, dtype=float)
    if np.any(a <= 0) or p_t <= 0:
        raise ValueError("gains and power budget must be positive")
    if a.size == 1:
        t = float(closed_form_rate(a[:, None], p_t)[0])
        return t, TimeEnergyAllocation(tau=np.ones(1), energy_w=np.array([p_t]), nu=_omega(t) / float(a[0]))
    t, nu, us = _frontier(a.tolist(), p_t)
    u = np.asarray(us)
    tau = t / u
    return t, TimeEnergyAllocation(tau=tau, energy_w=tau * np.expm1(LN2 * u) / a, nu=nu)


class _PmRateSolver:
    """The shared-placement sweep's exact objective: the frame's common rate
    (:func:`_frontier`)."""

    def __init__(self, p_t: float):
        self.p_t = p_t

    def rate(self, gains: np.ndarray) -> float:
        if gains.size == 1:
            return float(closed_form_rate(gains[:, None], self.p_t)[0])
        return _frontier(gains.tolist(), self.p_t)[0]


def pm_rate(gains: np.ndarray, p_t: float) -> float:
    """Optimal common rate for one gain vector."""
    return _PmRateSolver(p_t).rate(np.asarray(gains, dtype=float))


def equal_time_power(gains: np.ndarray, p_t: float) -> tuple[np.ndarray, float]:
    """Closed-form power split under equal slot lengths 1/G.

    Powers are inversely proportional to the gains so every product P_g * a_g
    equals G * p_t / sum(1/a), and all slot rates coincide; the rate is
    :func:`_equal_slot_rate` of the one column.
    """
    a = np.asarray(gains, dtype=float)
    if np.any(a <= 0) or p_t <= 0:
        raise ValueError("gains and power budget must be positive")
    powers = a.size * p_t / float(np.sum(1.0 / a)) / a
    return powers, float(_equal_slot_rate(a[:, None], p_t)[0])


def single_pa_pm(
    x: float, topology: Topology, config: SystemConfig, p_t: float | None = None
) -> tuple[np.ndarray, float]:
    """Equal-time power split and rate for a lone antenna at position ``x``."""
    p_t = config.power_budget_w if p_t is None else p_t
    gains = group_gains(Placement(x_m=np.array([float(x)])), topology, config)
    return equal_time_power(gains.a, p_t)


def pm_objective(num_groups: int, config: SystemConfig, *, equal_time: bool = False) -> SweepObjective:
    """Shared-placement (or phase) sweep objective: the frame's common rate.

    ``equal_time`` pins every slot to 1/G, whose closed-form rate is a
    vectorized objective.  Otherwise more than one group runs
    :class:`_PmRateSolver`, screened as NOMA's objective is: by the NOMA
    reach test (:func:`~pinchcast.noma.mmf_rate_reaches`; superposition
    coding dominates time sharing), on partial and on full gains, and then
    by :func:`pm_rate_bound_batch`.  A lone group (also each slot of the
    slot-switched protocol) holds the whole frame and budget.
    """
    p_t = config.power_budget_w
    g = num_groups
    if equal_time and g > 1:
        return SweepObjective.monotone(partial(_equal_slot_rate, p_t=p_t))
    if g == 1:
        return SweepObjective.monotone(partial(closed_form_rate, p_t=p_t))
    return SweepObjective(
        exact=_PmRateSolver(p_t).rate, bound_batch=pm_rate_bound_batch(p_t), reaches=mmf_rate_reaches(p_t)
    )


def tdma_solution(
    protocol: str,
    placements: list[Placement],
    traces: list[SweepTrace],
    config: SystemConfig,
    *,
    equal_time: bool = False,
) -> SchemeSolution:
    """Time and energy split for the per-group gains the sweeps ended on.

    The gains are those of every trace in turn: a slot-switched (PS) sweep
    per group, each on its own group's users alone, or the one shared
    placement's (PM) sweep.  ``protocol`` names the scheme.  ``equal_time``
    (more than one group) uses the closed-form equal-slot powers; otherwise
    the joint allocator runs.
    """
    gains = np.concatenate([t.gains for t in traces])
    p_t = config.power_budget_w
    g = gains.size
    equal_time = equal_time and g > 1
    if equal_time:
        powers, t_star = equal_time_power(gains, p_t)
        tau = np.full(g, 1.0 / g)
        alloc = TimeEnergyAllocation(tau=tau, energy_w=tau * powers, nu=math.nan)
    else:
        t_star, alloc = pm_resource_allocation(gains, p_t)
    return SchemeSolution.from_sweeps(
        f"tdma-{protocol.lower()}", placements, traces,
        mmf_rate=t_star,
        per_group_rates=alloc.rates(gains),
        power_w=alloc.power_w,
        tau=alloc.tau,
        extras={"nu": alloc.nu, "equal_time": equal_time},
    )


def solve_tdma_ps(
    topology: Topology,
    config: SystemConfig,
    *,
    seed_placement: Placement | None = None,
    rng: np.random.Generator | None = None,
) -> SchemeSolution:
    """Slot-switched protocol: optimize each group's placement in isolation,
    then split time and energy across the resulting gains.

    ``seed_placement`` starts every per-group search from the same point
    (e.g. a shared-placement solution) instead of random initials.
    """
    g = topology.num_groups
    rng = np.random.default_rng() if rng is None else rng
    objective = pm_objective(1, config)
    placements: list[Placement] = []
    traces: list[SweepTrace] = []
    for gi in range(g):
        start = seed_placement if seed_placement is not None else random_placement(config, rng)
        # the other groups' users do not enter this group's objective
        best, trace = seo._run_sweeps(start, topology.subset(gi), config, objective)
        placements.append(best)
        traces.append(trace)
    return tdma_solution("PS", placements, traces, config)


def solve_tdma_pm(
    topology: Topology,
    config: SystemConfig,
    *,
    placement: Placement | None = None,
    rng: np.random.Generator | None = None,
    equal_time: bool = False,
) -> SchemeSolution:
    """Shared-placement protocol: one placement serves every slot, optimized
    against the joint time/energy allocator (see :func:`pm_objective`).

    Candidates are screened by the NOMA reach test, which drops those whose
    max-min NOMA rate cannot reach the incumbent's rate, and then by
    :func:`pm_rate_bound_batch`, a weak-duality bound of the allocator.
    """
    if placement is None:
        rng = np.random.default_rng() if rng is None else rng
        placement = random_placement(config, rng)
    objective = pm_objective(topology.num_groups, config, equal_time=equal_time)
    best, trace = seo._run_sweeps(placement, topology, config, objective)
    return tdma_solution("PM", [best], [trace], config, equal_time=equal_time)
