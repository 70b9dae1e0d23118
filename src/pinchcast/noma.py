"""Power-domain superposition with successive interference cancellation.

Groups are decoded in ascending order of their bottleneck CNR: each receiver
strips the messages of all weaker groups before decoding its own, so the
remaining interference at a group comes only from stronger groups.  For a
target equalized SINR the minimum power of each group follows a backward
recursion from the strongest group, and the largest supportable SINR is found
by bisection on the power budget.  One and two groups have closed forms, used
directly as the placement objective and the final split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import seo
from .channel import group_gains
from .config import SystemConfig
from .records import SchemeSolution
from .seo import _REACH_RTOL, ReachTest, ScreeningBound, SweepObjective, SweepTrace, random_placement
from .topology import Placement, Topology

GAMMA_BISECT_ITERS = 60  # steps of the equalized-SINR bisection


@dataclass(frozen=True)
class DecodingOrder:
    """Stable ascending sort of groups by bottleneck CNR."""

    order: np.ndarray         # group indices, weakest first
    gains_sorted: np.ndarray


def decoding_order(gains: np.ndarray) -> DecodingOrder:
    a = np.asarray(gains, dtype=float)
    if np.any(a <= 0):
        raise ValueError("gains must be positive")
    order = np.argsort(a, kind="stable")
    return DecodingOrder(order=order, gains_sorted=a[order])


def closed_form_sinr(gain_matrix: np.ndarray, p_t: float) -> np.ndarray:
    """Equalized SINR of each column of a (G, L) gain matrix, G = 1 or 2.

    A lone group holds the whole budget, p_t * a.  For two groups the SINR
    solves a quadratic in the strong group's power; the root is evaluated in
    a cancellation-free form.
    """
    if gain_matrix.shape[0] == 1:
        return p_t * gain_matrix[0]
    a_s = gain_matrix.max(axis=0)
    a_w = gain_matrix.min(axis=0)
    b = a_s + a_w
    return 2.0 * p_t * a_s * a_w / (b + np.sqrt(b * b + 4.0 * p_t * a_s * a_w * a_w))


def closed_form_rate(gain_matrix: np.ndarray, p_t: float) -> np.ndarray:
    """Max-min rate of each column of a (G, L) gain matrix, G = 1 or 2, from
    :func:`closed_form_sinr`."""
    return np.log2(1.0 + closed_form_sinr(gain_matrix, p_t))


def two_group_power(a_s: float, a_w: float, p_t: float) -> tuple[float, float, float]:
    """Closed-form split for two groups: (strong power, weak power, SINR),
    the SINR by :func:`closed_form_sinr`."""
    if a_s < a_w:
        raise ValueError(f"strong gain {a_s} must be >= weak gain {a_w}")
    if a_w <= 0 or p_t < 0:
        raise ValueError("gains must be positive and the budget nonnegative")
    gamma = float(closed_form_sinr(np.array([[a_s], [a_w]]), p_t)[0])
    p_s = gamma / a_s
    return p_s, p_t - p_s, gamma


def recursive_power(gains_sorted: np.ndarray, gamma: float) -> tuple[np.ndarray, float]:
    """Minimum per-group powers for target SINR ``gamma``, decoding order in.

    ``gains_sorted`` must be ascending.  Powers are computed from the
    strongest group backward: each group must overcome the noise floor plus
    the power of all stronger (uncancelled) groups.  Returns powers aligned
    with ``gains_sorted`` and their total.
    """
    a = np.asarray(gains_sorted, dtype=float)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    g = a.size
    powers = np.zeros(g)
    stronger = 0.0
    for k in range(g - 1, -1, -1):
        powers[k] = gamma * (1.0 / a[k] + stronger)
        stronger += powers[k]
    return powers, float(stronger)


def _group_powers(dec: DecodingOrder, gamma: float) -> np.ndarray:
    """:func:`recursive_power` for target SINR ``gamma``, in group order."""
    powers = np.empty(dec.order.size)
    powers[dec.order] = recursive_power(dec.gains_sorted, gamma)[0]
    return powers


def single_pa_required_power(gains_sorted: np.ndarray, gamma: float) -> float:
    """Closed-form total power for target SINR ``gamma``: the backward
    recursion telescopes into sum_g gamma*(1+gamma)^(g-1) / a_(g)."""
    a = np.asarray(gains_sorted, dtype=float)
    total = 0.0
    factor = gamma
    for ak in a:
        total += factor / ak
        factor *= 1.0 + gamma
    return total


def noma_upper_bound(gains: np.ndarray, p_t: float) -> float:
    """Rate of the bottleneck group if it received the entire budget alone."""
    return math.log2(1.0 + p_t * float(np.min(gains)))


def upper_bound_batch(p_t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized form of :func:`noma_upper_bound` over candidate gain columns."""

    def bound(gain_matrix: np.ndarray) -> np.ndarray:
        return np.log2(1.0 + p_t * gain_matrix.min(axis=0))

    return bound


def _required_total(inv_sorted: list[float], gamma: float) -> float:
    # backward recursion on plain floats; hot path of the bisection
    s = 0.0
    for inv in reversed(inv_sorted):
        s += gamma * (inv + s)
    return s


def _mmf_gamma(a_sorted: list[float], p_t: float) -> float:
    gamma_max = p_t * a_sorted[0]
    inv_sorted = [1.0 / a for a in a_sorted]
    # a lone group takes the whole budget, even where (p_t a)(1/a) rounds above p_t
    if len(a_sorted) == 1 or _required_total(inv_sorted, gamma_max) <= p_t:
        return gamma_max
    lo, hi = 0.0, gamma_max
    for _ in range(GAMMA_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if _required_total(inv_sorted, mid) <= p_t:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:  # relative to the bracket, not to gamma_max
            break
    return lo


def _mmf_gamma_batch(gain_matrix: np.ndarray, p_t: float) -> np.ndarray:
    """Equalized SINR of every column of a (G, L) gain matrix, approached
    from above.

    The required total power R(gamma) = sum_k gamma (1 + gamma)^k / a_(k)
    (gains ascending) is log-convex in log(gamma), so Newton's method on
    log R = log p_t in log(gamma), started at gamma = p_t / sum(1/a) where
    R >= p_t (every weight (1 + gamma)^k is at least 1), decreases
    monotonically onto the root.  It converges in a handful of steps where
    the bisection of :func:`_mmf_gamma` needs about forty, and it never
    stops below the root, so the result bounds that bisection's answer from
    above up to rounding.  Each column stops on its own step, so its result
    does not depend on the other columns of the batch.
    """
    a = np.sort(np.asarray(gain_matrix, dtype=float), axis=0)
    inv = 1.0 / a
    gamma = p_t / inv.sum(axis=0)
    out = gamma.copy()
    live = np.arange(gamma.size)  # columns still stepping
    for _ in range(60):
        # R and dR/dgamma by the backward recursion of _required_total
        s = np.zeros(gamma.size)
        ds = np.zeros(gamma.size)
        grow = 1.0 + gamma
        for inv_k in inv[::-1]:
            ds = s + grow * ds + inv_k
            s = grow * s + gamma * inv_k
        step = np.log(s / p_t) * s / (gamma * ds)
        new = np.minimum(gamma * np.exp(-step), gamma)
        out[live] = new
        keep = gamma - new > 1e-15 * gamma
        if not keep.all():
            live, new, inv = live[keep], new[keep], inv[:, keep]
        if not live.size:
            break
        gamma = new
    return out


def _reaches(gain_matrix: np.ndarray, p_t: float, gamma: float) -> np.ndarray:
    """Mask of the columns whose equalized SINR reaches ``gamma``.

    R(gamma) increases in gamma, so a column reaches ``gamma`` exactly when
    R(gamma) <= p_t: one backward recursion, no root finding.  Pairing the
    largest weight (1 + gamma)^k with the smallest inverse gain minimizes
    R, and every weight is at least 1, so
    R(gamma) >= gamma (sum 1/a + ((1 + gamma)^(G-1) - 1) / max a), which
    needs no sort; only the columns that pass it are sorted.
    """
    inv = 1.0 / np.asarray(gain_matrix, dtype=float)
    lift = math.expm1((inv.shape[0] - 1) * math.log1p(gamma))
    mask = gamma * (inv.sum(axis=0) + lift * inv.min(axis=0)) <= p_t
    cols = np.flatnonzero(mask)
    s = np.zeros(cols.size)
    for inv_k in np.sort(inv[:, cols], axis=0):  # strongest group first
        s = (1.0 + gamma) * s + gamma * inv_k
    mask[cols] = s <= p_t
    return mask


# relative slack covering rounding differences between the batch bound and
# the scalar objectives it screens, well below _REACH_RTOL
_BOUND_RTOL = 1e-12


def mmf_rate_reaches(p_t: float) -> ReachTest:
    """Reach test of the max-min cancellation rate: the columns whose rate
    may reach ``floor * (1 - _REACH_RTOL)``, by :func:`_reaches`.  The rate
    increases in every gain, so on optimistic gains the test keeps every
    column whose true gains reach that cut.  Superposition coding dominates
    time sharing on a degraded broadcast channel, so a column it clears
    cannot reach the cut with the shared-placement TDMA rate either, and
    both scalar objectives use it."""

    def reaches(gain_matrix: np.ndarray, floor: float) -> np.ndarray:
        if floor <= 0.0:
            return np.ones(gain_matrix.shape[1], dtype=bool)
        return _reaches(gain_matrix, p_t, math.expm1(floor * (1.0 - _REACH_RTOL) * math.log(2.0)))

    return reaches


def mmf_rate_bound_batch(p_t: float) -> ScreeningBound:
    """Screening bound: the max-min cancellation-decoding rate of each column.

    Computed by :func:`_mmf_gamma_batch`, which approaches the equalized
    SINR from above, and widened by a floating-point slack, so it dominates
    the scalar NOMA objective.  It solves every column it is given and
    ignores ``floor``: :meth:`~pinchcast.seo.SweepObjective.scores` gives
    the columns that :func:`mmf_rate_reaches` clears the cut instead.
    """

    def bound(gain_matrix: np.ndarray, floor: float = -math.inf) -> np.ndarray:
        gamma = _mmf_gamma_batch(gain_matrix, p_t)
        # log1p stays accurate for tiny SINRs; log2(1 + x) is what the scalar
        # objective computes, and it may round above log1p there
        rate = np.maximum(np.log2(1.0 + gamma), np.log1p(gamma) / math.log(2.0))
        return rate * (1.0 + _BOUND_RTOL)

    return bound


def noma_mmf_bisection(gains: np.ndarray, p_t: float) -> tuple[float, np.ndarray]:
    """Largest equalized SINR whose recursive power total fits the budget.

    Bisects over [0, p_t * min(gains)]; the total required power is strictly
    increasing in the target SINR.  Returns the SINR and per-group powers in
    the original group order.
    """
    a = np.asarray(gains, dtype=float)
    if np.any(a <= 0) or p_t < 0:
        raise ValueError("gains must be positive and the budget nonnegative")
    dec = decoding_order(a)
    gamma = _mmf_gamma(dec.gains_sorted.tolist(), p_t)
    return gamma, _group_powers(dec, gamma)


def noma_sinrs(gains: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Self-decoding SINR of each group's bottleneck user, group order in/out."""
    a = np.asarray(gains, dtype=float)
    p = np.asarray(powers, dtype=float)
    dec = decoding_order(a)
    g = a.size
    sinr = np.empty(g)
    stronger = 0.0
    for k in range(g - 1, -1, -1):
        gi = dec.order[k]
        sinr[gi] = p[gi] * a[gi] / (1.0 + a[gi] * stronger)
        stronger += p[gi]
    return sinr


def sic_feasibility_margin(gains: np.ndarray, powers: np.ndarray) -> float:
    """Worst slack of the cancellation conditions.

    For every weaker group, each stronger group's bottleneck user must decode
    the weaker message at least as reliably as the weaker group itself; under
    ascending-CNR ordering the slack should never be materially negative.
    """
    a = np.asarray(gains, dtype=float)
    p = np.asarray(powers, dtype=float)
    dec = decoding_order(a)
    g = a.size
    self_sinr = noma_sinrs(a, p)
    margin = math.inf
    suffix = np.concatenate([np.cumsum(p[dec.order][::-1])[::-1][1:], [0.0]])
    for k in range(g):          # decoded group pi(k)
        gk = dec.order[k]
        for t in range(k + 1, g):  # stronger observer pi(t)
            at = a[dec.order[t]]
            cross = p[gk] * at / (1.0 + at * suffix[k])
            margin = min(margin, cross - self_sinr[gk])
    return margin


def single_pa_asymptotic_objective(
    x: float,
    topology: Topology,
    config: SystemConfig,
    regime: str,
    p_t: float | None = None,
) -> float:
    """Placement score for a lone antenna in the limiting power regimes.

    ``low`` reduces to balancing all groups (budget over summed inverse
    gains); ``high`` is limited by the weakest compounded decoding stage,
    min_g (p_t * a_(g))^(1/g) over the ascending order.
    """
    if regime not in ("low", "high"):
        raise ValueError(f"regime must be 'low' or 'high', got {regime!r}")
    p_t = config.power_budget_w if p_t is None else p_t
    gains = group_gains(Placement(x_m=np.array([x])), topology, config)
    if regime == "low":
        return p_t / gains.inv_sum
    a_sorted = np.sort(gains.a)
    return float(np.min([(p_t * a_sorted[g - 1]) ** (1.0 / g) for g in range(1, a_sorted.size + 1)]))


def noma_objective(num_groups: int, config: SystemConfig) -> SweepObjective:
    """Placement (or phase) sweep objective: the max-min cancellation rate.

    One or two groups use :func:`closed_form_rate`, vectorized; larger
    instances run the scalar bisection, screened by the reach test
    :func:`mmf_rate_reaches` and then by :func:`mmf_rate_bound_batch`.
    """
    p_t = config.power_budget_w
    if num_groups <= 2:
        return SweepObjective.monotone(partial(closed_form_rate, p_t=p_t))

    def exact(a: np.ndarray) -> float:
        return math.log2(1.0 + _mmf_gamma(sorted(a.tolist()), p_t))

    return SweepObjective(exact=exact, bound_batch=mmf_rate_bound_batch(p_t), reaches=mmf_rate_reaches(p_t))


def noma_solution(placement: Placement, trace: SweepTrace, config: SystemConfig) -> SchemeSolution:
    """Equalized-SINR power split for the gains a sweep ended on.  Its rate
    is the sweep's last objective value: :func:`noma_objective`'s arithmetic
    (the closed form on one column, or the bisection) gives both."""
    a = trace.gains
    p_t = config.power_budget_w
    if a.size > 2:
        gamma, powers = noma_mmf_bisection(a, p_t)
        rate = math.log2(1.0 + gamma)
    else:
        gamma = float(closed_form_sinr(a[:, None], p_t)[0])
        rate = float(closed_form_rate(a[:, None], p_t)[0])
        powers = _group_powers(decoding_order(a), gamma)
    return SchemeSolution.from_sweeps(
        "noma", [placement], [trace],
        mmf_rate=rate,
        per_group_rates=np.log2(1.0 + noma_sinrs(a, powers)),
        power_w=powers,
        tau=np.ones(a.size),
        extras={
            "equalized_sinr": gamma,
            "decoding_order": decoding_order(a).order.tolist(),
            "sic_feasibility_margin": sic_feasibility_margin(a, powers),
        },
    )


def solve_noma(
    topology: Topology,
    config: SystemConfig,
    *,
    placement: Placement | None = None,
    rng: np.random.Generator | None = None,
) -> SchemeSolution:
    """Joint placement and power optimization under cancellation decoding.

    The decoding order is recomputed for every candidate placement; see
    :func:`noma_objective` for the sweep objective.  Screening with the
    equalized SINR solved over all candidates at once means the scalar
    solver runs only on candidates within floating-point slack of the best.
    """
    if placement is None:
        rng = np.random.default_rng() if rng is None else rng
        placement = random_placement(config, rng)
    objective = noma_objective(topology.num_groups, config)
    best, trace = seo._run_sweeps(placement, topology, config, objective)
    return noma_solution(best, trace, config)
