import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from pinchcast import (
    CandidateGrid,
    InfeasiblePlacementError,
    Placement,
    PlacementError,
    SystemConfig,
    Topology,
    feasible_candidates,
    group_gains,
    hoe_sweep,
    noma_mmf_bisection,
    random_placement,
    seo_sweep,
)
from pinchcast import generate_topology, seo
from pinchcast.channel import path_terms
from pinchcast.experiments import _solve_one
from pinchcast.noma import mmf_rate_bound_batch, noma_objective, upper_bound_batch
from pinchcast.seo import SweepObjective, _select
from pinchcast.tdma import pm_objective
from pinchcast.tin import inv_cnr_sum_batch, solve_tin, tin_objective

from conftest import make_topology


class TestCandidateGrid:
    def test_spans_aperture_uniformly(self):
        cfg = SystemConfig(waveguide_length_m=20.0, grid_points=200)
        grid = CandidateGrid.from_config(cfg)
        assert grid.points[0] == 0.0
        assert grid.points[-1] == 20.0
        assert grid.num_points == 200
        assert np.allclose(np.diff(grid.points), 20.0 / 199.0, rtol=1e-12)


class TestFeasibleCandidates:
    def test_single_antenna_sees_all_points(self):
        cfg = SystemConfig(grid_points=40)
        grid = CandidateGrid.from_config(cfg)
        cands = feasible_candidates(grid, Placement(x_m=[5.0]), 0, cfg)
        assert cands.size == 40

    def test_excludes_window_around_other_antenna(self):
        cfg = SystemConfig(waveguide_length_m=20.0, grid_points=100, min_spacing_m=1.5)
        grid = CandidateGrid.from_config(cfg)
        cands = feasible_candidates(grid, Placement(x_m=[3.0, 10.0]), 0, cfg)
        expected = grid.points[np.abs(grid.points - 10.0) >= 1.5]
        assert np.array_equal(cands, expected)
        assert not np.any((cands > 10.0 - 1.5) & (cands < 10.0 + 1.5))

    def test_overpacked_waveguide_raises(self):
        cfg = SystemConfig(waveguide_length_m=0.002, grid_points=2, min_spacing_m=0.01)
        grid = CandidateGrid.from_config(cfg)
        with pytest.raises(InfeasiblePlacementError):
            feasible_candidates(grid, Placement(x_m=[0.0, 0.002]), 0, cfg)


class TestRandomPlacement:
    def test_positions_on_grid_and_spaced(self):
        cfg = SystemConfig(num_antennas=10)
        grid = CandidateGrid.from_config(cfg)
        for seed in range(5):
            p = random_placement(cfg, np.random.default_rng(seed))
            p.validate(cfg)
            assert np.all(np.isin(p.x_m, grid.points))

    def test_impossible_count_raises(self):
        cfg = SystemConfig(waveguide_length_m=0.004, grid_points=5, min_spacing_m=0.01)
        with pytest.raises(InfeasiblePlacementError):
            random_placement(cfg, np.random.default_rng(0), n_antennas=3)


class TestSeoSweep:
    def test_constant_objective_keeps_placement(self, small_config):
        rng = np.random.default_rng(0)
        topo = make_topology(rng, small_config, [2, 2])
        start = random_placement(small_config, rng)
        best, trace = seo_sweep(
            start, topo, small_config, objective_batch=lambda A: np.zeros(A.shape[1])
        )
        assert np.array_equal(best.x_m, start.x_m)
        assert trace.sweeps == 1
        assert trace.converged

    def test_single_antenna_tracks_lone_user(self):
        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=80, num_antennas=1)
        topo = Topology(
            groups=((0,),), user_xyz_m=np.array([[6.84, cfg.waveguide_y_m, 0.0]]),
            noise_w=np.array([cfg.noise_w]),
        )
        start = Placement(x_m=[0.0])
        best, _ = seo_sweep(start, topo, cfg, mode="minimize", objective_batch=inv_cnr_sum_batch)
        grid = CandidateGrid.from_config(cfg)
        # exhaustive scan oracle over all grid points
        objs = [
            group_gains(Placement(x_m=[x]), topo, cfg).inv_sum for x in grid.points
        ]
        assert best.x_m[0] == grid.points[int(np.argmin(objs))]

    def test_two_antennas_match_exhaustive_pairs(self):
        # with two antennas the pair pass that closes a converged sweep
        # enumerates every feasible pair of grid points, so the search must
        # reach the global grid optimum from any start
        cfg = SystemConfig(waveguide_length_m=8.0, grid_points=25, num_antennas=2)
        rng = np.random.default_rng(6)
        topo = make_topology(rng, cfg, [2, 2])
        start = random_placement(cfg, rng)
        best, _ = seo_sweep(start, topo, cfg, mode="minimize", objective_batch=inv_cnr_sum_batch)

        grid = CandidateGrid.from_config(cfg)
        terms = path_terms(grid.points, topo.user_xyz_m, cfg)
        best_val = math.inf
        for i in range(grid.num_points):
            for j in range(i + 1, grid.num_points):
                if grid.points[j] - grid.points[i] < cfg.min_spacing_m:
                    continue
                h = terms[:, i] + terms[:, j]
                cnr = (np.abs(h) ** 2) / (2.0 * topo.noise_w)
                val = sum(1.0 / min(cnr[list(m)]) for m in topo.groups)
                best_val = min(best_val, val)
        got = group_gains(best, topo, cfg).inv_sum
        # the pair pass is exhaustive for two antennas
        assert got == pytest.approx(best_val, rel=1e-9)

    def test_single_antenna_runs_no_pair_pass(self):
        cfg = SystemConfig(waveguide_length_m=8.0, grid_points=25, num_antennas=1)
        rng = np.random.default_rng(4)
        topo = make_topology(rng, cfg, [2, 2])
        start = random_placement(cfg, rng)
        _, trace = seo_sweep(start, topo, cfg, mode="minimize", objective_batch=inv_cnr_sum_batch)
        assert trace.total_candidates == trace.sweeps * cfg.grid_points

    def test_converged_placement_is_pairwise_optimal(self):
        # no joint move of two sorted neighbours may improve the result
        cfg = SystemConfig(waveguide_length_m=8.0, grid_points=30, num_antennas=3)
        for seed in range(8):
            rng = np.random.default_rng(40 + seed)
            topo = make_topology(rng, cfg, [2, 2])
            start = random_placement(cfg, rng)
            best, trace = seo_sweep(start, topo, cfg, mode="minimize", objective_batch=inv_cnr_sum_batch)
            assert trace.converged
            got = group_gains(best, topo, cfg).inv_sum
            pts = CandidateGrid.from_config(cfg).points
            x = best.x_m
            for i in range(2):
                fixed = np.delete(x, [i, i + 1])
                for p in pts:
                    for q in pts[pts > p]:
                        trial = np.sort(np.concatenate([fixed, [p, q]]))
                        if np.min(np.diff(trial)) < cfg.min_spacing_m:
                            continue
                        val = group_gains(Placement(x_m=trial), topo, cfg).inv_sum
                        assert val >= got * (1.0 - 1e-12)

    def test_placement_stays_valid_every_sweep(self, small_config):
        rng = np.random.default_rng(8)
        topo = make_topology(rng, small_config, [3, 3])
        start = random_placement(small_config, rng, n_antennas=4)
        best, trace = seo_sweep(start, topo, small_config, mode="minimize", objective_batch=inv_cnr_sum_batch)
        best.validate(small_config)
        assert trace.sweeps <= small_config.max_outer_iters

    def test_objective_trace_monotone(self, small_config):
        rng = np.random.default_rng(9)
        topo = make_topology(rng, small_config, [2, 3])
        start = random_placement(small_config, rng, n_antennas=3)
        _, trace = seo_sweep(start, topo, small_config, mode="minimize", objective_batch=inv_cnr_sum_batch)
        objs = np.array(trace.objective)
        assert np.all(np.diff(objs) <= 1e-9 * np.abs(objs[:-1]))

    def test_scalar_and_batch_paths_agree(self, small_config):
        rng = np.random.default_rng(10)
        topo = make_topology(rng, small_config, [2, 2])
        start = random_placement(small_config, rng)
        scalar = lambda a: float(np.sum(1.0 / a))  # noqa: E731
        b1, t1 = seo_sweep(start, topo, small_config, objective=scalar, mode="minimize")
        b2, t2 = seo_sweep(start, topo, small_config, mode="minimize", objective_batch=inv_cnr_sum_batch)
        assert np.array_equal(b1.x_m, b2.x_m)
        assert t1.objective[-1] == pytest.approx(t2.objective[-1], rel=1e-12)

    def test_rejects_bad_arguments(self, small_config):
        rng = np.random.default_rng(1)
        topo = make_topology(rng, small_config, [2])
        start = random_placement(small_config, rng)
        with pytest.raises(ValueError):
            seo_sweep(start, topo, small_config, mode="sideways", objective=lambda a: 0.0)
        with pytest.raises(ValueError):
            seo_sweep(start, topo, small_config)


class TestTermTable:
    """The placement search computes every path term once and keeps its
    state as table columns, off-grid start positions included."""

    OFF_GRID = [0.05, 3.33, 6.71, 9.87]

    @pytest.mark.parametrize("on_grid", [True, False], ids=["on-grid", "off-grid"])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_path_terms_runs_once_per_search(self, small_config, monkeypatch, n, on_grid):
        rng = np.random.default_rng(n)
        topo = make_topology(rng, small_config, [2, 3])
        start = random_placement(small_config, rng, n_antennas=n) if on_grid else Placement(x_m=self.OFF_GRID[:n])
        calls = []

        def counted(*args):
            calls.append(args[0].size)
            return path_terms(*args)

        monkeypatch.setattr(seo, "path_terms", counted)
        best, _ = seo._run_sweeps(start, topo, small_config, tin_objective())
        assert calls == [small_config.grid_points + n]
        assert np.all(np.isin(best.x_m, CandidateGrid.from_config(small_config).points))

    def test_off_grid_start_takes_the_lowest_open_points(self, small_config):
        # a constant objective ties every candidate: with no incumbent on the
        # first pass each antenna takes its lowest open grid point, and the
        # pair pass that follows keeps every incumbent
        rng = np.random.default_rng(3)
        topo = make_topology(rng, small_config, [2, 2])
        start = Placement(x_m=self.OFF_GRID)
        best, trace = seo_sweep(start, topo, small_config, objective_batch=lambda A: np.zeros(A.shape[1]))
        assert np.array_equal(best.x_m, CandidateGrid.from_config(small_config).points[:4])
        assert trace.sweeps == 1 and trace.converged

    def test_objective_trace_matches_group_gains(self, small_config):
        rng = np.random.default_rng(5)
        topo = make_topology(rng, small_config, [2, 3])
        start = Placement(x_m=self.OFF_GRID)
        best, trace = seo._run_sweeps(start, topo, small_config, tin_objective())
        assert trace.objective[0] == pytest.approx(group_gains(start, topo, small_config).inv_sum, rel=1e-12)
        assert trace.objective[-1] == pytest.approx(group_gains(best, topo, small_config).inv_sum, rel=1e-12)

    def test_rejects_a_non_finite_start(self):
        with pytest.raises(PlacementError):
            Placement(x_m=[1.0, math.nan])
        with pytest.raises(PlacementError):
            Placement(x_m=[math.inf])


class TestHoeSweep:
    def _instance(self, seed, n_groups=3, n_users=6):
        cfg = SystemConfig(waveguide_length_m=12.0, grid_points=60, num_antennas=2)
        rng = np.random.default_rng(seed)
        xy = rng.random((n_users, 2))
        width = cfg.waveguide_length_m / n_groups
        xyz = np.zeros((n_users, 3))
        members, idx = [], 0
        per = n_users // n_groups
        for gi in range(n_groups):
            sl = slice(idx, idx + per)
            xyz[sl, 0] = (gi + xy[sl, 0]) * width
            xyz[sl, 1] = xy[sl, 1] * cfg.region_depth_m
            members.append(tuple(range(idx, idx + per)))
            idx += per
        topo = Topology(groups=tuple(members), user_xyz_m=xyz, noise_w=np.full(n_users, cfg.noise_w))
        start = random_placement(cfg, rng)
        return cfg, topo, start

    def _exact(self, p_t):
        def exact(a):
            gamma, _ = noma_mmf_bisection(a, p_t)
            return math.log2(1.0 + gamma)

        return exact

    def test_matches_plain_sweep_exactly(self):
        for seed in range(5):
            cfg, topo, start = self._instance(seed)
            exact = self._exact(cfg.power_budget_w)
            xb, tb = seo_sweep(start, topo, cfg, objective=exact)
            xh, th = hoe_sweep(start, topo, cfg, upper_bound_batch(cfg.power_budget_w), exact)
            assert np.array_equal(xb.x_m, xh.x_m)
            assert abs(tb.objective[-1] - th.objective[-1]) <= 1e-12
            assert th.stage2_evals < tb.stage2_evals

    def test_infinite_bound_degenerates_to_plain(self):
        cfg, topo, start = self._instance(17)
        exact = self._exact(cfg.power_budget_w)
        inf_bound = lambda A: np.full(A.shape[1], np.inf)  # noqa: E731
        xb, tb = seo_sweep(start, topo, cfg, objective=exact)
        xh, th = hoe_sweep(start, topo, cfg, inf_bound, exact)
        assert np.array_equal(xb.x_m, xh.x_m)
        assert th.retention == 1.0

    def test_exact_bound_still_selects_identically(self):
        cfg, topo, start = self._instance(23)
        exact = self._exact(cfg.power_budget_w)

        def tight_bound(A):
            return np.array([exact(A[:, j]) for j in range(A.shape[1])])

        xb, tb = seo_sweep(start, topo, cfg, objective=exact)
        xh, th = hoe_sweep(start, topo, cfg, tight_bound, exact)
        assert np.array_equal(xb.x_m, xh.x_m)
        assert abs(tb.objective[-1] - th.objective[-1]) <= 1e-12

    def test_retention_ratio_bounds(self):
        cfg, topo, start = self._instance(31)
        exact = self._exact(cfg.power_budget_w)
        _, trace = hoe_sweep(start, topo, cfg, upper_bound_batch(cfg.power_budget_w), exact)
        assert 0.0 < trace.retention < 1.0
        assert trace.stage2_evals <= trace.total_candidates

    def test_one_argument_bound_matches_the_floored_sweep(self, monkeypatch):
        # hoe_sweep takes a one-argument bound, which never sees a floor; the
        # NOMA objective, which cuts the columns its reach test clears at the
        # floor, selects the same placements with as many exact evaluations
        # when both bounds run on every live set, as many as the floor leaves
        monkeypatch.setattr(seo, "_BOUND_MIN_COLS", 0)
        for seed in range(3):
            cfg, topo, start = self._instance(seed)
            p_t = cfg.power_budget_w
            exact = self._exact(p_t)
            calls = []

            def one_arg(A):
                calls.append(A.shape[1])
                return mmf_rate_bound_batch(p_t)(A)

            xh, th = hoe_sweep(start, topo, cfg, one_arg, exact)
            xf, tf = seo._run_sweeps(start, topo, cfg, noma_objective(topo.num_groups, cfg))
            assert len(calls) > 0
            assert np.array_equal(xh.x_m, xf.x_m)
            assert th.objective == tf.objective
            assert th.stage2_evals == tf.stage2_evals


class TestScreeningFloor:
    """A scalar objective's scores given the exact value of one candidate as
    a floor: the reach test's cut, and the bound on the other columns."""

    @staticmethod
    def _objectives(g, cfg):
        # the scalar noma (G >= 3) and tdma-pm (G >= 2) objectives
        if g >= 3:
            yield "noma", noma_objective(g, cfg)
        if g >= 2:
            yield "tdma-pm", pm_objective(g, cfg)

    def test_floor_keeps_bounds_and_selections(self, monkeypatch):
        # the floor's cut alone: the bound runs on every live set, however
        # small (test_small_live_sets_go_to_the_exact_stage covers the rule)
        monkeypatch.setattr(seo, "_BOUND_MIN_COLS", 0)
        rng = np.random.default_rng(40)
        dropped = refined = 0
        for g in range(2, 7):
            for dbm in np.arange(-40.0, 51.0, 10.0):
                cfg = SystemConfig().with_power_dbm(float(dbm))
                A = 10.0 ** rng.uniform(1.0, 5.5, (g, 40))
                for name, objective in self._objectives(g, cfg):
                    values = np.array([objective.exact(c) for c in A.T])
                    free, _ = objective.scores(A)
                    for inc_j in (int(rng.integers(A.shape[1])), int(np.argmax(values))):
                        floor = values[inc_j]
                        floored, _ = objective.scores(A, floor)
                        key = (name, g, dbm, inc_j)
                        assert np.all(floored >= values), key
                        # the columns the reach test clears score the cut
                        live = objective.reaches(A, floor)
                        assert np.all(floored[~live] == floor - seo._REACH_RTOL * abs(floor)), key
                        dropped += np.count_nonzero(~live)
                        # columns that reach the floor keep their scores
                        hi = values >= floor
                        assert np.array_equal(floored[hi], free[hi]), key
                        if name == "tdma-pm":
                            # the dual stops refining a column below the floor
                            refined += np.any(floored[live] != free[live])
                        got = _select(A, inc_j, objective, floor)
                        want = _select(A, inc_j, objective)
                        assert got[:2] == want[:2], key
                        if name == "noma":
                            assert got[2] == want[2], key
        assert dropped > 0  # the floor did drop columns
        assert refined > 0  # and tdma-pm's dual refined at a floor

    def test_small_live_sets_go_to_the_exact_stage(self, monkeypatch):
        # scores runs no bound on _BOUND_MIN_COLS or fewer live columns: a
        # counting wrapper never sees such a set, the exact stage scores
        # every live column, and each selection (column, value, gains) is
        # the one made with the bound run on every live set
        def counted(objective, seen):
            def bound(A, floor):
                seen.append(A.shape[1])
                return objective.bound_batch(A, floor)

            return replace(objective, bound_batch=bound)

        def pinned(f, *args):
            with monkeypatch.context() as m:
                m.setattr(seo, "_BOUND_MIN_COLS", 0)
                return f(*args)

        rng = np.random.default_rng(42)
        seen = []
        cases = set()  # (objective, whether the bound was skipped)
        for g in range(2, 7):
            for dbm in np.arange(-40.0, 51.0, 10.0):
                cfg = SystemConfig().with_power_dbm(float(dbm))
                A = 10.0 ** rng.uniform(1.0, 5.5, (g, 40))
                for name, objective in self._objectives(g, cfg):
                    counting = counted(objective, seen)
                    values = np.array([objective.exact(c) for c in A.T])
                    for inc_j in (int(rng.integers(A.shape[1])), int(np.argmax(values))):
                        floor = values[inc_j]
                        key = (name, g, dbm, inc_j)
                        live = objective.reaches(A, floor)
                        calls = len(seen)
                        scores, evals = counting.scores(A, floor)
                        skip = np.count_nonzero(live) <= seo._BOUND_MIN_COLS
                        cases.add((name, skip))
                        assert len(seen) == calls + (not skip), key
                        if skip:
                            assert np.array_equal(scores[live], values[live]), key
                            assert evals == np.count_nonzero(live), key
                        got = _select(A, inc_j, counting, floor)
                        assert got[:2] == pinned(_select, A, inc_j, objective, floor)[:2], key
        # whole sweeps, whose traces keep the gains of the last selection
        for g, dbm in itertools.product((3, 5), (-40.0, -10.0, 30.0, 50.0)):
            cfg = SystemConfig(grid_points=30, num_antennas=3).with_power_dbm(dbm)
            topo = generate_topology("heterogeneous_clusters", cfg, np.random.default_rng(g), num_groups=g, num_users=2 * g)
            start = random_placement(cfg, np.random.default_rng(int(dbm) + 50))
            for name, objective in self._objectives(g, cfg):
                key = (name, g, dbm)
                got_x, got = seo._run_sweeps(start, topo, cfg, counted(objective, seen))
                want_x, want = pinned(seo._run_sweeps, start, topo, cfg, objective)
                assert np.array_equal(got_x.x_m, want_x.x_m), key
                assert got.objective == want.objective, key
                assert np.array_equal(got.gains, want.gains), key
                assert got.stage2_evals >= want.stage2_evals, key
        assert min(seen) > seo._BOUND_MIN_COLS
        assert cases == set(itertools.product(("noma", "tdma-pm"), (False, True)))


class TestSelectionRule:
    """One selection rule over hand-built gain matrices: the best score wins,
    the lowest column among equals, and an incumbent that ties the best stays."""

    # bottleneck (min over rows): 1, 4, 4, 2, 4, 3; the best, 4, ties at 1, 2, 4
    A = np.array([[1.0, 4.0, 6.0, 2.0, 4.0, 3.0],
                  [5.0, 4.0, 4.0, 9.0, 7.0, 3.0]])

    @staticmethod
    def _objectives(sign: float):
        # batch, plain scalar and screened forms of sign * bottleneck; the
        # mid-range bound (min + max) / 2 is valid for the bottleneck
        maximize = sign > 0
        mid = lambda A, floor: (A.min(axis=0) + A.max(axis=0)) / 2.0  # noqa: E731
        forms = {
            "batch": SweepObjective(maximize=maximize, exact_batch=lambda A: sign * A.min(axis=0)),
            "plain": SweepObjective(maximize=maximize, exact=lambda c: sign * float(c.min())),
        }
        if maximize:
            forms["screened"] = SweepObjective(exact=lambda c: float(c.min()), bound_batch=mid)
        return forms

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_forms_agree_and_keep_a_tied_incumbent(self, sign):
        best = sign * 4.0
        values = sign * self.A.min(axis=0)
        for inc_j in (None, 0, 1, 2, 3, 4, 5):
            floor = -math.inf if inc_j is None else values[inc_j]
            want = inc_j if inc_j is not None and values[inc_j] == best else 1
            for name, objective in self._objectives(sign).items():
                j, v, evals = _select(self.A, inc_j, objective, floor)
                assert (j, v) == (want, best), (name, inc_j)
                if name == "screened":
                    # columns 3, 4, 2, 1 by bound; column 0's bound 3 < 4 stops it
                    assert evals == 4 < self.A.shape[1]
                else:
                    assert evals == self.A.shape[1]

    def test_random_ties_pick_the_same_column(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            A = rng.integers(1, 5, size=(3, 12)).astype(float)
            values = A.min(axis=0)
            for inc_j in (None, int(rng.integers(12))):
                got = {name: _select(A, inc_j, objective) for name, objective in self._objectives(1.0).items()}
                best = values.max()
                tied = inc_j is not None and values[inc_j] == best
                want = inc_j if tied else int(np.flatnonzero(values == best)[0])
                assert {r[:2] for r in got.values()} == {(want, best)}
                assert got["screened"][2] <= got["plain"][2] == A.shape[1]


class TestSweepEndState:
    """Solutions are built from the gains of the column the sweep selected last."""

    def test_rate_is_the_last_objective_value(self):
        # the rate is that column's exact value, bit for bit, for the movable
        # solvers and the fixed array alike, at every group count and with
        # equal slots too: the allocation computes it with the objective's
        # own arithmetic.  The final state's gains summed in another order
        # differ from that column's by rounding.  Three topologies per cell
        # catch the rare last-bit differences of one group and of equal slots
        runs = (("noma", False), ("tdma-pm", False), ("tdma-pm", True))
        for seed, mode, g, dbm in itertools.product(
            range(3), ("uniform_random", "heterogeneous_clusters"), range(1, 6), (-20.0, 0.0, 20.0, 30.0)
        ):
            cfg = SystemConfig(grid_points=40, num_antennas=4).with_power_dbm(dbm)
            topo = generate_topology(mode, cfg, np.random.default_rng(seed), num_groups=g, num_users=2 * g)
            for (scheme, equal_time), baseline in itertools.product(runs, (False, True)):
                sol = _solve_one(scheme, baseline, topo, cfg, np.random.default_rng(1), equal_time)
                case = (seed, mode, g, dbm, scheme, equal_time, baseline)
                assert sol.mmf_rate == sol.traces[0]["objective"][-1], case


class TestScreenedSelection:
    """The selection step over a candidate set: gains over each group's
    weakest incumbent user screen the columns, and only the others get full
    gains.  It must choose what :func:`_select` chooses on the full matrix."""

    @staticmethod
    def _candidates(rng, g, pair, one_user):
        # 2 to 4 users per group, or one each; pair-move or element-move columns
        sizes = np.ones(g, dtype=int) if one_user else rng.integers(2, 5, g)
        ends = np.cumsum(sizes).tolist()
        spans = list(zip([0] + ends[:-1], ends))
        k, width = ends[-1], 30
        t = rng.standard_normal((k, width)) + 1j * rng.standard_normal((k, width))
        fixed = rng.standard_normal((k, 1)) + 1j * rng.standard_normal((k, 1))
        if pair:
            b = fixed + t
            p, q = np.triu_indices(width, k=1)
        else:
            b = fixed
            p, q = np.zeros(width, dtype=np.intp), np.arange(width)
        den = 10.0 ** -rng.uniform(1.0, 5.5, (k, 1))
        c = seo.CandidateSet(b.real.copy(), b.imag.copy(), t.real.copy(), t.imag.copy(), p, q, den)
        return c, spans

    @staticmethod
    def _objectives(g):
        # tin minimizes; the lone-group (G = 1), two-group and scalar NOMA
        # (G >= 3) rates maximize, and so does the scalar shared-placement
        # TDMA rate (G >= 2), which the NOMA reach test screens
        yield "tin", tin_objective()
        for dbm in range(-40, 51, 10):
            yield f"noma {dbm} dBm", noma_objective(g, SystemConfig().with_power_dbm(float(dbm)))
        if g >= 2:
            for dbm in (-40, -10, 20, 50):
                yield f"tdma-pm {dbm} dBm", pm_objective(g, SystemConfig().with_power_dbm(float(dbm)))

    def _cases(self, seed):
        rng = np.random.default_rng(seed)
        # one-user groups come last, so the draws before them stay put;
        # there the screen's optimistic gains are the full gains
        for one_user, g, pair in itertools.product((False, True), range(1, 7), (True, False)):
            c, spans = self._candidates(rng, g, pair, one_user)
            A = seo._candidate_gains(c, spans)
            for name, objective in self._objectives(g):
                values = np.array([objective.value(col) for col in A.T])
                yield (name, g, pair, one_user), c, spans, A, objective, values

    @staticmethod
    def _best(objective, values):
        return int(np.argmax(values)) if objective.maximize else int(np.argmin(values))

    @staticmethod
    def _assert_same(c, spans, A, objective, inc_j, floor, key):
        j, v, gains, evals = seo._screened_select(c, inc_j, objective, floor, spans)
        want = _select(A, inc_j, objective, floor)
        assert (j, v) == want[:2], key
        assert np.array_equal(gains, A[:, j]), key
        return evals, want[2]

    def test_same_column_value_and_gains_as_the_full_matrix(self):
        rng = np.random.default_rng(0)
        screened = 0
        for key, c, spans, A, objective, values in self._cases(60):
            for inc_j in (int(rng.integers(c.size)), self._best(objective, values), self._best(objective, -values)):
                evals, want = self._assert_same(c, spans, A, objective, inc_j, values[inc_j], key + (inc_j,))
                if objective.exact is None:
                    screened += evals < c.size  # columns left out of the full gains
                else:
                    assert evals == want, key  # the scalar scan evaluates the same columns
        assert screened > 0

    def test_tie_with_the_incumbent_keeps_it(self):
        for key, c, spans, A, objective, values in self._cases(61):
            # the best column again, at index 0, ties the incumbent exactly
            best = self._best(objective, values)
            order = np.concatenate([[best], np.arange(c.size)])
            j, v, gains, _ = seo._screened_select(c.cols(order), best + 1, objective, values[best], spans)
            assert (j, v) == (best + 1, values[best]), key
            assert np.array_equal(gains, A[:, best]), key

    def test_floor_drift_of_a_few_ulps(self):
        # the floor comes from an earlier evaluation of the incumbent's
        # gains, so it may sit past the recomputed value by a few ulps, or by
        # more (up to 1e-9 relative) where the exact objective is iterative.
        # Column 0 is the incumbent and the last column the same channel
        # scaled by 1 + 1e-9, better on every row: a floor that far past
        # that column's value must not drop it
        rng = np.random.default_rng(64)
        for g in range(1, 7):
            k = 3 * g
            spans = [(3 * i, 3 * i + 3) for i in range(g)]
            t = rng.standard_normal((k, 20)) + 1j * rng.standard_normal((k, 20))
            t[:, 0] *= 10.0  # the incumbent and its twin are the best columns
            t = np.column_stack([t, t[:, 0] * (1.0 + 1e-9)])
            zero = np.zeros((k, 1))
            den = 10.0 ** -rng.uniform(1.0, 5.5, (k, 1))
            p, q = np.zeros(21, dtype=np.intp), np.arange(21)
            c = seo.CandidateSet(zero, zero, t.real.copy(), t.imag.copy(), p, q, den)
            A = seo._candidate_gains(c, spans)
            for name, objective in self._objectives(g):
                values = np.array([objective.value(col) for col in A.T])
                sign = 1.0 if objective.maximize else -1.0
                assert sign * values[20] > sign * values[0], (name, g)
                for v in (values[0], values[20]):
                    floor = v
                    for _ in range(4):
                        floor = np.nextafter(floor, sign * math.inf)
                    for f in (float(floor), v * (1.0 + sign * 1e-10)):
                        self._assert_same(c, spans, A, objective, 0, f, (name, g, f))

    def test_incumbent_is_never_dropped(self):
        # a floor no column can reach, whatever its gains, leaves the
        # incumbent alone
        for key, c, spans, A, objective, values in self._cases(63):
            inc_j = c.size // 3
            floor = 100.0 if objective.maximize else 0.0  # 100 bit/s/Hz
            j, v, gains, evals = seo._screened_select(c, inc_j, objective, floor, spans)
            assert (j, v, evals) == (inc_j, values[inc_j], 1), key
            assert np.array_equal(gains, A[:, inc_j]), key

    def test_solve_tin_matches_the_plain_scalar_sweep(self):
        scalar = lambda a: float(np.sum(1.0 / a))  # noqa: E731
        screened = 0
        for mode, seed in itertools.product(("uniform_random", "heterogeneous_clusters"), range(10)):
            g = 2 + seed % 4
            cfg = SystemConfig(grid_points=40, num_antennas=4)
            topo = generate_topology(mode, cfg, np.random.default_rng(seed), num_groups=g, num_users=3 * g)
            sol = solve_tin(topo, cfg, rng=np.random.default_rng(100 + seed))
            start = random_placement(cfg, np.random.default_rng(100 + seed))
            best, trace = seo_sweep(start, topo, cfg, objective=scalar, mode="minimize")
            assert np.array_equal(sol.placements[0], best.x_m), (mode, seed)
            assert sol.traces[0]["objective"] == trace.objective, (mode, seed)
            assert sol.traces[0]["total_candidates"] == trace.total_candidates, (mode, seed)
            screened += sol.traces[0]["stage2_evals"] < trace.stage2_evals
        assert screened > 0
