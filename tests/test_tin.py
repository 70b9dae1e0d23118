import math

import numpy as np
import pytest

from pinchcast import (
    CandidateGrid,
    Placement,
    SystemConfig,
    group_gains,
    solve_tin,
    tin_ceiling,
    tin_placement_objective,
    tin_power,
)
from pinchcast.tin import tin_sinrs

from conftest import make_topology


def simplex_grid_best(gains: np.ndarray, p_t: float, step: float) -> float:
    """Brute-force max-min SINR over the power simplex (no equalization
    assumption); exact on the sampled grid."""
    a = np.asarray(gains, dtype=float)
    g = a.size
    ticks = np.arange(0.0, p_t + step / 2, step)
    best = -math.inf

    def rec(prefix, remaining, depth):
        nonlocal best
        if depth == g - 1:
            p = np.array(prefix + [remaining])
            sinr = p / ((p_t - p) + 1.0 / a)
            best = max(best, sinr.min())
            return
        for v in ticks[ticks <= remaining + step / 2]:
            rec(prefix + [v], remaining - v, depth + 1)

    rec([], p_t, 0)
    return best


class TestTinPower:
    def test_single_group_gets_everything(self):
        gamma, p = tin_power(np.array([7.5]), 2.0)
        assert gamma == pytest.approx(15.0, rel=1e-14)
        assert p[0] == pytest.approx(2.0, rel=1e-14)

    def test_two_equal_groups_split_evenly(self):
        gamma, p = tin_power(np.array([4.0, 4.0]), 3.0)
        assert p[0] == pytest.approx(p[1], rel=1e-14)
        assert p.sum() == pytest.approx(3.0, rel=1e-14)

    def test_equalizes_all_sinrs_and_spends_budget(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.integers(2, 6)
            a = rng.uniform(0.05, 50.0, g)
            p_t = rng.uniform(0.1, 30.0)
            gamma, p = tin_power(a, p_t)
            sinr = tin_sinrs(a, p)
            assert np.max(np.abs(sinr - gamma)) <= 1e-10 * gamma
            assert abs(p.sum() - p_t) <= 1e-12 * p_t

    def test_matches_simplex_grid_search(self):
        rng = np.random.default_rng(1)
        for g, step_frac in [(2, 1e-4), (3, 2e-3)]:
            a = rng.uniform(0.2, 10.0, g)
            p_t = 2.0
            gamma, _ = tin_power(a, p_t)
            grid_best = simplex_grid_best(a, p_t, step_frac * p_t)
            assert grid_best <= gamma * (1 + 1e-12)
            # snapping the closed-form point onto the grid bounds the search gap
            assert gamma - grid_best <= gamma * 5 * g * step_frac

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            tin_power(np.array([1.0, -1.0]), 1.0)
        with pytest.raises(ValueError):
            tin_power(np.array([1.0]), 0.0)


class TestTinCeiling:
    def test_published_values(self):
        # log2(1 + 1/(G-1)): two groups cap at one bit, four at log2(4/3)
        assert tin_ceiling(2) == pytest.approx(1.0, rel=1e-15)
        assert tin_ceiling(3) == pytest.approx(math.log2(1.5), rel=1e-15)
        assert tin_ceiling(4) == pytest.approx(math.log2(4.0 / 3.0), rel=1e-15)
        assert tin_ceiling(4) == pytest.approx(0.41503749927884376, rel=1e-12)

    def test_monotone_decreasing_toward_zero(self):
        vals = [tin_ceiling(g) for g in range(2, 40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.0

    def test_needs_interference(self):
        with pytest.raises(ValueError):
            tin_ceiling(1)

    def test_rate_saturates_below_ceiling(self):
        # raising the budget pushes the equalized SINR toward 1/(G-1)
        a = np.array([3.0, 1.0, 2.0, 5.0])
        gamma, _ = tin_power(a, 1e4 / a.min())
        assert gamma == pytest.approx(1.0 / 3.0, rel=2e-3)
        assert math.log2(1 + gamma) < tin_ceiling(4)


class TestPlacementObjective:
    def test_single_user_is_inverse_cnr(self):
        cfg = SystemConfig()
        topo = make_topology(np.random.default_rng(3), cfg, [1])
        p = Placement(x_m=[4.0])
        f = tin_placement_objective(p, topo, cfg)
        assert f == pytest.approx(1.0 / group_gains(p, topo, cfg).a[0], rel=1e-14)

    def test_equal_gains_sum(self):
        # G identical groups: objective is G over the common gain
        cfg = SystemConfig()
        xyz = np.array([[5.0, 2.0, 0.0]] * 3)
        from pinchcast import Topology

        topo = Topology(groups=((0,), (1,), (2,)), user_xyz_m=xyz, noise_w=np.full(3, cfg.noise_w))
        p = Placement(x_m=[2.0, 8.0])
        gains = group_gains(p, topo, cfg)
        assert tin_placement_objective(p, topo, cfg) == pytest.approx(3.0 / gains.a[0], rel=1e-12)

    def test_matches_group_gains_inv_sum(self):
        cfg = SystemConfig()
        rng = np.random.default_rng(4)
        topo = make_topology(rng, cfg, [3, 2, 4])
        p = Placement(x_m=np.sort(rng.uniform(0, cfg.waveguide_length_m, 5)))
        assert tin_placement_objective(p, topo, cfg) == group_gains(p, topo, cfg).inv_sum


class TestSolveTin:
    def test_single_antenna_matches_grid_scan(self):
        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=60, num_antennas=1)
        rng = np.random.default_rng(7)
        topo = make_topology(rng, cfg, [1, 1, 1])
        sol = solve_tin(topo, cfg, rng=rng)
        grid = CandidateGrid.from_config(cfg)
        objs = [tin_placement_objective(Placement(x_m=[x]), topo, cfg) for x in grid.points]
        assert sol.placements[0][0] == grid.points[int(np.argmin(objs))]
        assert sol.mmf_rate == pytest.approx(math.log2(1 + sol.extras["equalized_sinr"]), rel=1e-14)

    def test_high_power_approaches_saturation(self):
        cfg = SystemConfig(power_budget_w=1e3, num_antennas=4, grid_points=80)
        rng = np.random.default_rng(8)
        topo = make_topology(rng, cfg, [1, 1, 1, 1])
        sol = solve_tin(topo, cfg, rng=rng)
        assert sol.extras["equalized_sinr"] == pytest.approx(1.0 / 3.0, rel=0.01)
        assert sol.mmf_rate == pytest.approx(math.log2(4.0 / 3.0), rel=0.01)
        assert sol.mmf_rate < sol.extras["ceiling_rate"]

    def test_single_group_reports_infinite_ceiling(self):
        cfg = SystemConfig(num_antennas=2, grid_points=50)
        rng = np.random.default_rng(9)
        topo = make_topology(rng, cfg, [3])
        sol = solve_tin(topo, cfg, rng=rng)
        assert math.isinf(sol.extras["ceiling_rate"])
        assert sol.mmf_rate == pytest.approx(
            math.log2(1 + cfg.power_budget_w * group_gains(Placement(x_m=sol.placements[0]), topo, cfg).a[0]),
            rel=1e-12,
        )

    def test_objective_trace_monotone_nonincreasing(self):
        cfg = SystemConfig(grid_points=60, num_antennas=4)
        rng = np.random.default_rng(10)
        topo = make_topology(rng, cfg, [3, 3, 3])
        sol = solve_tin(topo, cfg, rng=rng)
        objs = np.array(sol.traces[0]["objective"])
        assert np.all(np.diff(objs) <= 1e-9 * objs[:-1])

    def test_solution_record_roundtrip(self):
        cfg = SystemConfig(grid_points=40, num_antennas=2)
        rng = np.random.default_rng(11)
        topo = make_topology(rng, cfg, [2, 2])
        rec = solve_tin(topo, cfg, rng=rng)
        assert rec.scheme == "tin"
        assert not rec.baseline
        assert rec.mmf_rate == pytest.approx(rec.per_group_rates.min(), rel=1e-9)
        d = rec.to_dict()
        assert set(d) >= {"scheme", "mmf_rate", "per_group_rates", "power_w", "tau", "placements"}
