import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from pinchcast import (
    PinchcastError,
    Placement,
    SystemConfig,
    Topology,
    UlaConfig,
    solve_tin,
    solve_ula,
    tin_ceiling,
    ula_effective_channel,
)
from pinchcast import generate_topology
from pinchcast.channel import distances
from pinchcast.noma import noma_objective
from pinchcast.seo import SweepObjective
from pinchcast.tdma import pm_objective
from pinchcast import ula as ula_module
from pinchcast.ula import _phase_sweep

from conftest import make_topology


def _bottleneck_cnrs(phases, topo, cfg):
    # worst user CNR of each group, user by user from the array's channel
    cnr = [abs(ula_effective_channel(phases, u, cfg)) ** 2 / s for u, s in zip(topo.user_xyz_m, topo.noise_w)]
    return np.array([min(cnr[k] for k in members) for members in topo.groups])


class TestUlaGeometry:
    def test_centered_half_wavelength_array(self):
        cfg = SystemConfig(waveguide_length_m=20.0)
        ula = UlaConfig.from_system(cfg, 4)
        pos = ula.positions()
        assert np.allclose(np.diff(pos), cfg.wavelength_m / 2.0, rtol=1e-12)
        assert pos.mean() == pytest.approx(10.0, abs=1e-12)

    def test_codebook_spans_circle(self):
        cfg = SystemConfig(grid_points=8)
        ula = UlaConfig.from_system(cfg)
        cb = ula.codebook()
        assert cb[0] == 0.0
        assert cb.size == 8
        assert np.allclose(np.diff(cb), math.pi / 4.0, rtol=1e-12)


class TestUlaEffectiveChannel:
    def test_single_element_phase_does_not_change_magnitude(self):
        cfg = SystemConfig()
        user = np.array([4.0, 2.0, 0.0])
        mags = [abs(ula_effective_channel(np.array([th]), user, cfg)) for th in (0.0, 1.0, 3.0)]
        assert max(mags) - min(mags) <= 1e-15 * max(mags)

    def test_conjugate_phases_reach_coherent_sum(self):
        cfg = SystemConfig()
        n = 6
        ula = UlaConfig.from_system(cfg, n)
        user = np.array([9.0, 1.5, 0.0])
        d = distances(ula.positions(), user.reshape(1, 3), cfg)[0]
        phases = np.mod(cfg.free_space_wavenumber * d, 2.0 * math.pi)
        h = ula_effective_channel(phases, user, cfg)
        coherent = np.sum(np.sqrt(cfg.path_gain_m2 / n) / d)
        assert abs(h) == pytest.approx(coherent, rel=1e-12)

    def test_random_phases_below_coherent_bound(self):
        cfg = SystemConfig()
        n = 5
        ula = UlaConfig.from_system(cfg, n)
        user = np.array([3.0, 4.0, 0.0])
        d = distances(ula.positions(), user.reshape(1, 3), cfg)[0]
        coherent = np.sum(np.sqrt(cfg.path_gain_m2 / n) / d)
        rng = np.random.default_rng(0)
        for _ in range(25):
            h = ula_effective_channel(rng.uniform(0, 2 * math.pi, n), user, cfg)
            assert abs(h) <= coherent * (1 + 1e-12)


class TestSolveUla:
    def test_single_user_reaches_quantized_coherent_rate(self):
        cfg = SystemConfig(waveguide_length_m=20.0, grid_points=64, num_antennas=4)
        topo = Topology(
            groups=((0,),),
            user_xyz_m=np.array([[12.0, 2.0, 0.0]]),
            noise_w=np.array([cfg.noise_w]),
        )
        sol = solve_ula(topo, "tin", cfg)
        ula = UlaConfig.from_system(cfg)
        d = distances(ula.positions(), topo.user_xyz_m, cfg)[0]
        coherent = np.sum(np.sqrt(cfg.path_gain_m2 / 4) / d)
        floor = (math.cos(math.pi / 64) * coherent) ** 2 / cfg.noise_w
        achieved = _bottleneck_cnrs(sol.phases, topo, cfg)[0]
        assert achieved >= floor
        assert achieved <= coherent**2 / cfg.noise_w * (1 + 1e-12)

    def test_sweep_monotone_and_converges(self):
        cfg = SystemConfig(grid_points=40, num_antennas=4)
        topo = make_topology(np.random.default_rng(1), cfg, [2, 2])
        sol = solve_ula(topo, "noma", cfg)
        objs = np.array(sol.traces[0]["objective"])
        assert np.all(np.diff(objs) >= -1e-9 * np.abs(objs[:-1]))
        assert sol.iterations <= cfg.max_outer_iters
        assert sol.baseline

    def test_all_schemes_produce_consistent_records(self):
        cfg = SystemConfig(grid_points=32, num_antennas=3)
        topo = make_topology(np.random.default_rng(2), cfg, [2, 2])
        for scheme in ("tin", "noma", "tdma-pm", "tdma-ps"):
            sol = solve_ula(topo, scheme, cfg)
            assert sol.scheme == scheme
            assert sol.baseline
            assert sol.mmf_rate == pytest.approx(sol.per_group_rates.min(), rel=1e-6)
            assert sol.phases is not None

    def test_unknown_scheme_raises_before_any_sweep(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("a phase sweep ran")

        monkeypatch.setattr(ula_module, "_phase_sweep", no_sweep)
        cfg = SystemConfig(grid_points=32, num_antennas=3)
        topo = make_topology(np.random.default_rng(2), cfg, [2, 2])
        with pytest.raises(PinchcastError, match="fdma"):
            solve_ula(topo, "fdma", cfg)

    def test_equal_time_variant_matches_inverse_gain_split(self):
        from pinchcast.tdma import equal_time_power

        cfg = SystemConfig(grid_points=32, num_antennas=3)
        topo = make_topology(np.random.default_rng(6), cfg, [2, 2])
        sol = solve_ula(topo, "tdma-pm", cfg, equal_time=True)
        gains = _bottleneck_cnrs(sol.phases, topo, cfg)
        _, rate = equal_time_power(gains, cfg.power_budget_w)
        assert sol.mmf_rate == pytest.approx(rate, rel=1e-12)
        assert np.allclose(sol.tau, 0.5)

    def test_tdma_ps_reoptimizes_phases_per_group(self):
        cfg = SystemConfig(grid_points=32, num_antennas=3)
        topo = make_topology(np.random.default_rng(3), cfg, [2, 2, 2])
        sol = solve_ula(topo, "tdma-ps", cfg)
        assert sol.phases.shape == (3, 3)
        # per-group phase sets generically differ
        assert not np.allclose(sol.phases[0], sol.phases[1])

    def test_tdma_ps_phases_equal_full_topology_sweep_of_one_group(self):
        # each slot's phases are swept on its group's users alone; a sweep
        # over all users that scores only that group picks the same phases
        cfg = SystemConfig(grid_points=32, num_antennas=3)
        topo = make_topology(np.random.default_rng(8), cfg, [2, 3, 2])
        sol = solve_ula(topo, "tdma-ps", cfg)
        p_t = cfg.power_budget_w
        for gi in range(3):
            own_rate = SweepObjective(exact_batch=lambda A, _g=gi: np.log2(1.0 + p_t * A[_g]))
            phases, trace = _phase_sweep(topo, cfg, UlaConfig.from_system(cfg), own_rate)
            assert np.array_equal(sol.phases[gi], phases)
            assert sol.traces[gi]["objective"] == trace.objective

    def test_screened_and_plain_phase_sweeps_agree(self):
        # the screening bounds never change the selected phases
        objectives = {"noma": noma_objective, "tdma-pm": pm_objective}
        cases = [("noma", g) for g in (3, 4, 5)] + [("tdma-pm", g) for g in (2, 3, 4)]
        for mode, dbm, (scheme, g), seed in itertools.product(
            ("uniform_random", "heterogeneous_clusters"), (-20.0, 10.0, 30.0), cases, (0, 1)
        ):
            cfg = SystemConfig(grid_points=40, num_antennas=4).with_power_dbm(dbm)
            topo = generate_topology(mode, cfg, np.random.default_rng(seed), num_groups=g, num_users=2 * g)
            hoe = solve_ula(topo, scheme, cfg)
            plain = replace(objectives[scheme](g, cfg), bound_batch=None)
            phases, trace = _phase_sweep(topo, cfg, UlaConfig.from_system(cfg), plain)
            assert np.array_equal(hoe.phases, phases), (mode, dbm, scheme, g, seed)
            assert hoe.mmf_rate == trace.objective[-1]

    def test_tin_ceiling_shared_with_movable_antennas(self):
        # at high power both architectures saturate at the same interference cap
        cfg = SystemConfig(power_budget_w=10.0, grid_points=50, num_antennas=4)
        topo = make_topology(np.random.default_rng(4), cfg, [1, 1, 1, 1])
        fixed = solve_ula(topo, "tin", cfg)
        movable = solve_tin(topo, cfg, rng=np.random.default_rng(0))
        cap = tin_ceiling(4)
        assert fixed.mmf_rate == pytest.approx(cap, rel=1e-3)
        assert movable.mmf_rate == pytest.approx(cap, rel=1e-3)
        assert fixed.mmf_rate < cap
        assert movable.mmf_rate < cap

    def test_single_antenna_movable_beats_fixed_center_when_position_helps(self):
        from pinchcast import tin_placement_objective

        cfg = SystemConfig(waveguide_length_m=20.0, grid_points=100, num_antennas=1)
        rng = np.random.default_rng(5)
        wins = 0
        for seed in range(5):
            topo = make_topology(np.random.default_rng(seed), cfg, [2, 2])
            movable = solve_tin(topo, cfg, rng=rng)
            fixed = solve_ula(topo, "tin", cfg)
            f_best = tin_placement_objective(Placement(x_m=movable.placements[0]), topo, cfg)
            f_center = tin_placement_objective(
                Placement(x_m=UlaConfig.from_system(cfg, 1).positions()), topo, cfg
            )
            if f_best < f_center:
                assert movable.mmf_rate >= fixed.mmf_rate - 1e-12
                wins += 1
        assert wins >= 4  # optimizing the position should usually help
