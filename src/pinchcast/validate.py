"""Quick self-checks runnable from the CLI (`pinchcast validate`).

A trimmed-down version of the test suite's oracles on small instances; each
check prints one pass/fail line.  Useful as a smoke test of an installed
package without pytest.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .config import SystemConfig
from .experiments import generate_topology
from .noma import (
    mmf_rate_bound_batch,
    mmf_rate_reaches,
    noma_mmf_bisection,
    noma_objective,
    recursive_power,
    single_pa_required_power,
    solve_noma,
    two_group_power,
    upper_bound_batch,
)
from .seo import _REACH_RTOL, _run_sweeps, hoe_sweep, random_placement, seo_sweep
from .tdma import (
    equal_time_power,
    min_energy,
    pm_objective,
    pm_rate,
    pm_rate_bound_batch,
    pm_resource_allocation,
    solve_tdma_pm,
)
from .tin import solve_tin, tin_power, tin_sinrs

_LN2 = math.log(2.0)


def _check_tin_equalization(rng: np.random.Generator) -> bool:
    for _ in range(20):
        g = rng.integers(2, 6)
        a = rng.uniform(0.5, 50.0, g)
        p_t = rng.uniform(0.5, 20.0)
        gamma, powers = tin_power(a, p_t)
        sinrs = tin_sinrs(a, powers)
        if abs(powers.sum() - p_t) > 1e-12 * p_t:
            return False
        if np.max(np.abs(sinrs - gamma)) > 1e-9 * gamma:
            return False
    return True


def _check_noma_recursion(rng: np.random.Generator) -> bool:
    for _ in range(50):
        g = rng.integers(1, 6)
        a = np.sort(rng.uniform(0.1, 100.0, g))
        gamma = rng.uniform(0.0, 10.0)
        _, total = recursive_power(a, gamma)
        closed = single_pa_required_power(a, gamma)
        if abs(total - closed) > 1e-12 * max(closed, 1e-300):
            return False
    return True


def _check_noma_two_group(rng: np.random.Generator) -> bool:
    for _ in range(20):
        a_w, a_s = np.sort(rng.uniform(0.2, 20.0, 2))
        p_t = rng.uniform(0.1, 50.0)
        _, _, gamma = two_group_power(a_s, a_w, p_t)
        gamma_b, _ = noma_mmf_bisection(np.array([a_s, a_w]), p_t)
        if abs(gamma - gamma_b) > 1e-6 * gamma:
            return False
    return True


def _check_tdma_kkt(rng: np.random.Generator) -> bool:
    for _ in range(10):
        g = rng.integers(2, 6)
        a = rng.uniform(1.0, 100.0, g)
        p_t = rng.uniform(0.5, 10.0)
        t, alloc = pm_resource_allocation(a, p_t)
        if abs(alloc.tau.sum() - 1.0) > 1e-9:
            return False
        if abs(alloc.energy_w.sum() - p_t) > 1e-6 * p_t:
            return False
        for ag, tau in zip(a, alloc.tau):
            u = t / tau
            resid = (math.exp(_LN2 * u) * (1.0 - u * _LN2) - 1.0) / ag
            if abs(resid + alloc.nu) > 1e-6 * alloc.nu:
                return False
    return True


def _check_equal_time_split(rng: np.random.Generator) -> bool:
    for _ in range(10):
        g = rng.integers(1, 6)
        a = rng.uniform(1.0, 100.0, g)
        p_t = rng.uniform(0.5, 10.0)
        powers, rate = equal_time_power(a, p_t)
        snr = powers * a
        if np.max(np.abs(snr - snr[0])) > 1e-9 * snr[0]:
            return False
        if abs(rate - math.log2(1.0 + snr[0]) / g) > 1e-12:
            return False
        if abs(powers.sum() / g - p_t) > 1e-9 * p_t:
            return False
    return True


def _check_min_energy() -> bool:
    return (
        min_energy(2.0, 0.0, 0.5) == 0.0
        and abs(min_energy(2.0, 1.0, 1.0) - 0.5) < 1e-12
        and math.isinf(min_energy(1.0, 2000.0, 1e-3))
    )


def _check_hoe_equivalence(rng: np.random.Generator) -> bool:
    config = SystemConfig(
        waveguide_length_m=10.0, grid_points=40, num_antennas=2, power_budget_w=1e-4
    )
    for _ in range(3):
        topo = generate_topology(
            "heterogeneous_clusters", config, rng, num_groups=3, num_users=6
        )
        start = random_placement(config, rng)
        p_t = config.power_budget_w

        def exact(a: np.ndarray) -> float:
            gamma, _ = noma_mmf_bisection(a, p_t)
            return math.log2(1.0 + gamma)

        plain_x, plain_tr = seo_sweep(start, topo, config, objective=exact)
        hoe_x, hoe_tr = hoe_sweep(start, topo, config, upper_bound_batch(p_t), exact)
        if not np.array_equal(plain_x.x_m, hoe_x.x_m):
            return False
        if abs(plain_tr.objective[-1] - hoe_tr.objective[-1]) > 1e-12:
            return False
        # the solvers' own objectives, screened by the NOMA reach test and
        # their bounds against the incumbent's value, and the same
        # objectives with neither
        for solve, objective in ((solve_noma, noma_objective), (solve_tdma_pm, pm_objective)):
            hoe = solve(topo, config, placement=start)
            plain = replace(objective(topo.num_groups, config), bound_batch=None, reaches=None)
            plain_x, plain_tr = _run_sweeps(start, topo, config, plain)
            if not np.array_equal(hoe.placements[0], plain_x.x_m) or hoe.traces[0]["objective"] != plain_tr.objective:
                return False
    return True


def _screening_cases(rng: np.random.Generator):
    # (p_t, gain columns, NOMA rates, shared-placement TDMA rates) over
    # G = 2..6, gains 1e-2..1e8 and -40 / -10 / 20 / 50 dBm, beyond the
    # presets' range on both sides
    for g in range(2, 7):
        for dbm in (-40.0, -10.0, 20.0, 50.0):
            p_t = 10.0 ** (dbm / 10.0) / 1000.0
            A = 10.0 ** rng.uniform(-2.0, 8.0, (g, 40))
            noma = np.array([math.log2(1.0 + noma_mmf_bisection(c, p_t)[0]) for c in A.T])
            yield p_t, A, noma, np.array([pm_rate(c, p_t) for c in A.T])


def _check_pm_bound(rng: np.random.Generator) -> bool:
    # every column the dual bounds directly, with no floor to stop it early
    return all(np.all(pm_rate_bound_batch(p_t)(A) >= pm) for p_t, A, _, pm in _screening_cases(rng))


def _check_noma_bound(rng: np.random.Generator) -> bool:
    return all(np.all(mmf_rate_bound_batch(p_t)(A) >= noma) for p_t, A, noma, _ in _screening_cases(rng))


def _check_reach_contract(rng: np.random.Generator) -> bool:
    # a column the reach test clears has a NOMA and a TDMA-PM rate below
    # floor * (1 - _REACH_RTOL); floors at exact rates and half the slack
    # above them, where a slack cut short clears the floor's own column
    cleared = 0
    for p_t, A, noma, pm in _screening_cases(rng):
        reaches = mmf_rate_reaches(p_t)
        for rate in (noma, pm):
            for j in rng.choice(A.shape[1], 3, replace=False):
                for floor in (rate[j], rate[j] * (1.0 + 0.5 * _REACH_RTOL)):
                    keep = reaches(A, floor)
                    cut = floor * (1.0 - _REACH_RTOL)
                    if not (keep[j] and np.all(keep[noma >= cut]) and np.all(keep[pm >= cut])):
                        return False
                    cleared += np.count_nonzero(~keep)
    return cleared > 0


def _check_tin_screen(rng: np.random.Generator) -> bool:
    # solve_tin screens pair columns on each group's weakest incumbent user;
    # a scalar inverse-CNR sweep scores every column on full gains
    config = SystemConfig(waveguide_length_m=10.0, grid_points=40, num_antennas=4)
    for mode in ("uniform_random", "heterogeneous_clusters") * 3:
        topo = generate_topology(mode, config, rng, num_groups=3, num_users=9)
        start = random_placement(config, rng)
        screened = solve_tin(topo, config, placement=start)
        plain_x, plain_tr = seo_sweep(start, topo, config, objective=lambda a: float(np.sum(1.0 / a)), mode="minimize")
        if not np.array_equal(screened.placements[0], plain_x.x_m):
            return False
        if screened.traces[0]["objective"] != plain_tr.objective:
            return False
    return True


CHECKS = [
    ("tin closed-form equalizes SINRs and spends the budget", _check_tin_equalization),
    ("noma recursive power total matches the closed form", _check_noma_recursion),
    ("noma bisection matches the two-group closed form", _check_noma_two_group),
    ("tdma allocator satisfies its optimality conditions", _check_tdma_kkt),
    ("equal-time split equalizes received SNRs", _check_equal_time_split),
    ("slot energy formula handles edge cases", lambda rng: _check_min_energy()),
    ("screened sweep matches the plain sweep", _check_hoe_equivalence),
    ("screened tin sweep matches the plain scalar sweep", _check_tin_screen),
    ("tdma-pm dual bound dominates the exact rate", _check_pm_bound),
    ("noma screening bound dominates the scalar rate", _check_noma_bound),
    ("noma reach test keeps every column that reaches the cut", _check_reach_contract),
]


def run_validation(seed: int = 0) -> bool:
    ok_all = True
    for name, fn in CHECKS:
        rng = np.random.default_rng(seed)
        try:
            ok = fn(rng)
        except Exception as exc:  # surface, don't hide
            print(f"FAIL {name} ({type(exc).__name__}: {exc})")
            ok_all = False
            continue
        print(("PASS " if ok else "FAIL ") + name)
        ok_all = ok_all and ok
    return ok_all
