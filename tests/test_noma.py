import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from pinchcast import seo
from pinchcast import (
    CandidateGrid,
    Placement,
    SystemConfig,
    decoding_order,
    group_gains,
    noma_mmf_bisection,
    noma_upper_bound,
    random_placement,
    recursive_power,
    sic_feasibility_margin,
    single_pa_asymptotic_objective,
    single_pa_required_power,
    solve_noma,
    tin_power,
    two_group_power,
)
from pinchcast.noma import (
    _mmf_gamma,
    _mmf_gamma_batch,
    mmf_rate_bound_batch,
    mmf_rate_reaches,
    noma_objective,
    noma_sinrs,
    noma_solution,
)
from pinchcast.tdma import _PmRateSolver, pm_rate
from pinchcast.tin import tin_placement_objective

from conftest import make_topology


class TestDecodingOrder:
    def test_sorts_ascending(self):
        d = decoding_order(np.array([3.0, 1.0, 2.0]))
        assert d.order.tolist() == [1, 2, 0]
        assert np.array_equal(d.gains_sorted, np.array([1.0, 2.0, 3.0]))

    def test_stable_on_ties(self):
        d = decoding_order(np.array([2.0, 2.0, 2.0]))
        assert d.order.tolist() == [0, 1, 2]

    def test_matches_reference_sort(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(0.1, 10.0, rng.integers(1, 8))
            d = decoding_order(a)
            assert np.array_equal(d.gains_sorted, np.sort(a))
            assert np.all(np.diff(d.gains_sorted) >= 0)


class TestTwoGroupPower:
    def test_zero_budget(self):
        p_s, p_w, gamma = two_group_power(2.0, 1.0, 0.0)
        assert p_s == 0.0 and p_w == 0.0 and gamma == 0.0

    def test_reference_instance_against_scan(self):
        # crossing point of the strong-group SINR and the weak-group SINR,
        # located independently by a dense scan over the power split
        p_s, p_w, gamma = two_group_power(2.0, 1.0, 4.0)
        assert p_s == pytest.approx(0.8507810593582121, rel=1e-12)
        assert p_s == pytest.approx((-3.0 + math.sqrt(41.0)) / 4.0, rel=1e-12)
        assert gamma == pytest.approx(1.7015621187164243, rel=1e-12)
        # the split equalizes both groups
        assert p_w * 1.0 / (p_s * 1.0 + 1.0) == pytest.approx(gamma, rel=1e-12)
        grid = np.linspace(0.0, 4.0, 400_001)
        mmf = np.minimum(grid * 2.0, (4.0 - grid) / (grid + 1.0))
        assert grid[np.argmax(mmf)] == pytest.approx(p_s, abs=2e-5)

    def test_equal_gain_simplification(self):
        # with equal gains the quadratic collapses to (sqrt(1+p*a)-1)/a
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.uniform(0.1, 10.0)
            p_t = rng.uniform(0.1, 50.0)
            p_s, _, _ = two_group_power(a, a, p_t)
            assert p_s == pytest.approx((math.sqrt(1.0 + p_t * a) - 1.0) / a, rel=1e-12)

    def test_rejects_misordered_gains(self):
        with pytest.raises(ValueError):
            two_group_power(1.0, 2.0, 1.0)


class TestRecursivePower:
    def test_zero_target_means_zero_power(self):
        p, total = recursive_power(np.array([1.0, 2.0, 3.0]), 0.0)
        assert np.all(p == 0.0) and total == 0.0

    def test_single_group(self):
        p, total = recursive_power(np.array([4.0]), 2.0)
        assert p[0] == pytest.approx(0.5, rel=1e-15)
        assert total == pytest.approx(0.5, rel=1e-15)

    def test_two_group_hand_value(self):
        # gains [1, 2], target 1: strongest needs 1/2, weakest 1*(1+1/2)=3/2
        p, total = recursive_power(np.array([1.0, 2.0]), 1.0)
        assert p.tolist() == [1.5, 0.5]
        assert total == 2.0
        assert single_pa_required_power(np.array([1.0, 2.0]), 1.0) == 2.0

    def test_total_matches_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            g = rng.integers(1, 7)
            a = np.sort(rng.uniform(1e-3, 1e3, g))
            gamma = rng.uniform(0.0, 20.0)
            _, total = recursive_power(a, gamma)
            closed = single_pa_required_power(a, gamma)
            assert abs(total - closed) <= 1e-12 * max(closed, 1e-300)

    def test_required_power_increasing_in_target(self):
        a = np.sort(np.array([0.5, 2.0, 7.0]))
        lo = single_pa_required_power(a, 0.7)
        hi = single_pa_required_power(a, 0.7000001)
        assert hi > lo


class TestMmfBisection:
    def test_single_group_is_exact(self):
        gamma, p = noma_mmf_bisection(np.array([3.0]), 2.0)
        assert gamma == 6.0
        assert p[0] == pytest.approx(2.0, rel=1e-12)

    def test_single_group_takes_the_whole_budget(self):
        # (p_t a)(1/a) may round above p_t; the lone group's SINR is still
        # p_t a, not a bisection that stops just below it
        rng = np.random.default_rng(36)
        for a, p_t in zip(10.0 ** rng.uniform(-2.0, 8.0, 2000), 10.0 ** rng.uniform(-5.0, 0.0, 2000)):
            assert noma_mmf_bisection(np.array([a]), p_t)[0] == p_t * a

    def test_matches_two_group_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.uniform(0.05, 20.0, 2)
            p_t = rng.uniform(0.1, 100.0)
            d = decoding_order(a)
            _, _, gamma_cf = two_group_power(d.gains_sorted[1], d.gains_sorted[0], p_t)
            gamma_b, powers = noma_mmf_bisection(a, p_t)
            assert gamma_b == pytest.approx(gamma_cf, rel=1e-6)
            assert powers.sum() == pytest.approx(p_t, rel=1e-6)

    def test_equalizes_self_decoding_sinrs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = rng.integers(2, 6)
            a = rng.uniform(0.1, 50.0, g)
            p_t = rng.uniform(0.5, 20.0)
            gamma, powers = noma_mmf_bisection(a, p_t)
            sinr = noma_sinrs(a, powers)
            assert np.max(np.abs(sinr - gamma)) <= 1e-6 * gamma

    def test_dominates_interference_as_noise(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            g = rng.integers(2, 6)
            a = rng.uniform(0.05, 50.0, g)
            p_t = rng.uniform(0.1, 50.0)
            gamma_noma, _ = noma_mmf_bisection(a, p_t)
            gamma_tin, _ = tin_power(a, p_t)
            assert gamma_noma >= gamma_tin * (1 - 1e-9)

    def test_cancellation_feasibility_margin(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            g = rng.integers(2, 6)
            a = rng.uniform(0.1, 50.0, g)
            gamma, powers = noma_mmf_bisection(a, rng.uniform(0.5, 20.0))
            assert sic_feasibility_margin(a, powers) >= -1e-9 * gamma

    def test_upper_bound_dominates(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = rng.integers(1, 6)
            a = rng.uniform(0.1, 50.0, g)
            p_t = rng.uniform(0.1, 50.0)
            gamma, _ = noma_mmf_bisection(a, p_t)
            assert noma_upper_bound(a, p_t) >= math.log2(1.0 + gamma) - 1e-12
            assert noma_upper_bound(a, p_t) == pytest.approx(
                math.log2(1.0 + p_t * a.min()), rel=1e-14
            )

    def test_two_group_high_power_asymptotics(self):
        # equalized SINR approaches sqrt(p_t * strong gain) as the budget grows
        rng = np.random.default_rng(8)
        for _ in range(20):
            a_w = rng.uniform(0.2, 5.0)
            a_s = a_w * rng.uniform(1.0, 10.0)
            p_t = 1e4 / a_w
            _, _, gamma = two_group_power(a_s, a_w, p_t)
            assert gamma / math.sqrt(p_t * a_s) == pytest.approx(1.0, rel=0.05)

    @staticmethod
    def _worst_shortfall(rng, draws, log_gain, log_p_t):
        # relative shortfall of the scalar bisection behind a 400-step
        # bisection run to adjacent floats, over G = 2..6
        worst = 0.0
        for g in range(2, 7):
            n = draws // 5
            a = np.sort(10.0 ** rng.uniform(*log_gain, (g, n)), axis=0)
            p_t = 10.0 ** rng.uniform(*log_p_t, n)
            lo, hi = np.zeros(n), p_t * a[0]
            for _ in range(400):
                mid = 0.5 * (lo + hi)
                total = np.zeros(n)
                for inv_k in (1.0 / a)[::-1]:
                    total += mid * (inv_k + total)
                lo, hi = np.where(total <= p_t, mid, lo), np.where(total <= p_t, hi, mid)
            got = np.array([_mmf_gamma(a[:, j].tolist(), p_t[j]) for j in range(n)])
            worst = max(worst, float(np.max((lo - got) / lo)))
        return worst

    def test_bisection_stops_relative_to_the_root(self):
        # the bracket stops at 1e-12 of its upper end, not of p_t * min(a):
        # a stop relative to min(a) left the root short by up to 2e-10 in the
        # presets' range and 3e-5 at high SNR, where the root lies far below
        rng = np.random.default_rng(31)
        presets = self._worst_shortfall(rng, 3000, (1.0, 5.5), (-5.0, 0.0))
        assert presets <= 1e-12 * (1.0 + 1e-9)
        # gains 1e6..1e12 /W: 60 halvings end before the relative stop
        high_snr = self._worst_shortfall(rng, 3000, (6.0, 12.0), (-3.0, 0.0))
        assert high_snr <= 1e-10
        # SINRs of 1e-16..1e-8: an absolute 1e-15 floor on the bracket
        # returned 0 whenever p_t * min(a) fell below it
        low_snr = self._worst_shortfall(rng, 3000, (-2.0, 2.0), (-14.0, -10.0))
        assert low_snr <= 1e-12 * (1.0 + 1e-9)


class TestMmfRateBound:
    # candidate-gain matrices spanning the bottleneck CNRs of the presets
    @staticmethod
    def _gains(rng, g, cols=60):
        return 10.0 ** rng.uniform(1.0, 5.5, (g, cols))

    def test_batch_matches_scalar_bisection(self):
        # the batch root comes from above and lies within the scalar
        # bisection's final bracket, max(1e-15, 1e-12 * p_t * min(a)) wide
        rng = np.random.default_rng(21)
        for g in range(1, 7):
            for dbm in (-40.0, -10.0, 30.0):
                p_t = 10.0 ** (dbm / 10.0) / 1000.0
                A = self._gains(rng, g)
                got = _mmf_gamma_batch(A, p_t)
                want = np.array([_mmf_gamma(sorted(c.tolist()), p_t) for c in A.T])
                width = np.maximum(1e-15, 1e-12 * p_t * A.min(axis=0))
                assert np.all(got >= want * (1.0 - 1e-15)), (g, dbm)
                assert np.all(got - want <= width + 1e-15 * got), (g, dbm)

    def test_columns_do_not_depend_on_their_batch(self):
        # each column stops on its own: splitting, permuting or duplicating
        # the columns of a batch leaves every column's root bit for bit
        rng = np.random.default_rng(23)
        for g in range(1, 7):
            for dbm in (-40.0, -10.0, 30.0, 50.0):
                p_t = 10.0 ** (dbm / 10.0) / 1000.0
                A = self._gains(rng, g, cols=90)
                whole = _mmf_gamma_batch(A, p_t)
                cut = rng.integers(1, 89)
                split = np.concatenate([_mmf_gamma_batch(A[:, :cut], p_t), _mmf_gamma_batch(A[:, cut:], p_t)])
                perm = rng.permutation(90)
                dup = np.r_[np.arange(90), np.arange(0, 90, 7)]
                assert np.array_equal(split, whole), (g, dbm)
                assert np.array_equal(_mmf_gamma_batch(A[:, perm], p_t), whole[perm]), (g, dbm)
                assert np.array_equal(_mmf_gamma_batch(A[:, dup], p_t), whole[dup]), (g, dbm)
                for j in rng.choice(90, 3, replace=False):
                    assert _mmf_gamma_batch(A[:, j:j + 1], p_t)[0] == whole[j], (g, dbm)

    def test_dominates_noma_and_shared_placement_tdma(self):
        rng = np.random.default_rng(22)
        for g in range(2, 7):
            for dbm in np.arange(-40.0, 31.0, 10.0):
                p_t = 10.0 ** (dbm / 10.0) / 1000.0
                A = self._gains(rng, g)
                bound = mmf_rate_bound_batch(p_t)(A)
                # the scalar objective of solve_noma
                gamma = [_mmf_gamma(sorted(c.tolist()), p_t) for c in A.T]
                noma = np.array([math.log2(1.0 + gm) for gm in gamma])
                solver = _PmRateSolver(p_t)  # one solver across columns, as in a sweep
                pm = np.array([solver.rate(c) for c in A.T])
                assert np.all(bound >= noma), (g, dbm)
                assert np.all(bound >= pm), (g, dbm)
                # tight enough to screen: the scalar bisection stops at an
                # absolute bracket of 1e-15, which dominates at tiny SINRs
                assert np.all(bound <= noma * (1.0 + 1e-6)), (g, dbm)

    def test_reach_test_keeps_every_column_that_reaches_the_cut(self):
        # the reach contract both scalar objectives rest on: a column the
        # test clears has a NOMA rate, and so a shared-placement TDMA rate,
        # below floor * (1 - _REACH_RTOL).  Floors are the rates of random
        # columns, and also half the slack above them; at -40 dBm the SNRs
        # are 1e-6..3e-2, where the two rates agree to first order
        rng = np.random.default_rng(24)

        def clustered(rng, g, cols):
            # each group strong near its own slice of the aperture, weak elsewhere
            x = rng.uniform(0.0, 1.0, cols)
            centre = (np.arange(g)[:, None] + 0.5) / g
            return 10.0 ** (5.5 - 4.5 * np.abs(x - centre) + rng.uniform(-0.5, 0.0, (g, cols)))

        cleared = 0
        for gains in (self._gains, clustered):
            for g in range(2, 7):
                for dbm in np.arange(-40.0, 51.0, 10.0):
                    p_t = 10.0 ** (dbm / 10.0) / 1000.0
                    A = gains(rng, g, cols=30)
                    noma = np.array([math.log2(1.0 + _mmf_gamma(sorted(c.tolist()), p_t)) for c in A.T])
                    pm = np.array([pm_rate(c, p_t) for c in A.T])
                    reaches = mmf_rate_reaches(p_t)
                    # a floor of 0 lies below every rate
                    assert np.all(reaches(A, 0.0)), (gains.__name__, g, dbm)
                    for rate, j in itertools.product((noma, pm), rng.choice(30, 3, replace=False)):
                        for floor in (rate[j], rate[j] * (1.0 + 0.5 * seo._REACH_RTOL)):
                            keep = reaches(A, floor)
                            cut = floor * (1.0 - seo._REACH_RTOL)
                            key = (gains.__name__, g, dbm, j, floor)
                            assert keep[j], key
                            assert np.all(keep[noma >= cut]), key
                            assert np.all(keep[pm >= cut]), key
                            cleared += np.count_nonzero(~keep)
        assert cleared > 0

    def test_reach_test_keeps_the_cut_at_tiny_sinrs(self):
        # below SINRs of about 1e-7 the scalar rate log2(1 + gamma), which
        # rounds 1 + gamma, lies above the true rate by more than
        # _REACH_RTOL of itself; the floor's column and every column that
        # reaches the cut must still be kept
        rng = np.random.default_rng(26)
        p_t = 1e-7  # -40 dBm
        for g in range(2, 7):
            A = 10.0 ** rng.uniform(-2.0, 0.0, (g, 100))
            noma = np.array([math.log2(1.0 + _mmf_gamma(sorted(c.tolist()), p_t)) for c in A.T])
            for j in range(A.shape[1]):
                keep = mmf_rate_reaches(p_t)(A, noma[j])
                assert np.all(keep[noma >= noma[j] * (1.0 - seo._REACH_RTOL)]), (g, j)


class TestSinglePaAsymptotics:
    def test_single_group_both_regimes_agree(self):
        cfg = SystemConfig()
        topo = make_topology(np.random.default_rng(9), cfg, [2])
        x = 4.0
        lo = single_pa_asymptotic_objective(x, topo, cfg, "low")
        hi = single_pa_asymptotic_objective(x, topo, cfg, "high")
        gains = group_gains(Placement(x_m=[x]), topo, cfg)
        assert lo == pytest.approx(cfg.power_budget_w * gains.a[0], rel=1e-12)
        assert hi == pytest.approx(cfg.power_budget_w * gains.a[0], rel=1e-12)

    def test_low_regime_argmax_matches_harmonic_argmin(self):
        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=40)
        topo = make_topology(np.random.default_rng(10), cfg, [2, 2, 2])
        grid = CandidateGrid.from_config(cfg)
        scores = [single_pa_asymptotic_objective(x, topo, cfg, "low") for x in grid.points]
        f_a = [tin_placement_objective(Placement(x_m=[x]), topo, cfg) for x in grid.points]
        assert int(np.argmax(scores)) == int(np.argmin(f_a))

    def test_rejects_unknown_regime(self):
        cfg = SystemConfig()
        topo = make_topology(np.random.default_rng(11), cfg, [1])
        with pytest.raises(ValueError):
            single_pa_asymptotic_objective(1.0, topo, cfg, "medium")


class TestSolveNoma:
    def test_single_antenna_two_groups_matches_grid_scan(self):
        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=50, num_antennas=1)
        rng = np.random.default_rng(12)
        topo = make_topology(rng, cfg, [2, 2])
        sol = solve_noma(topo, cfg, rng=rng)
        grid = CandidateGrid.from_config(cfg)
        best = -1.0
        for x in grid.points:
            a = group_gains(Placement(x_m=[x]), topo, cfg).a
            d = decoding_order(a)
            _, _, gamma = two_group_power(d.gains_sorted[1], d.gains_sorted[0], cfg.power_budget_w)
            best = max(best, gamma)
        assert sol.extras["equalized_sinr"] == pytest.approx(best, rel=1e-9)

    def test_hoe_and_plain_paths_agree(self):
        cfg = SystemConfig(waveguide_length_m=12.0, grid_points=60, num_antennas=3)
        rng = np.random.default_rng(13)
        topo = make_topology(rng, cfg, [2, 2, 2])
        s1 = solve_noma(topo, cfg, rng=np.random.default_rng(99))
        start = random_placement(cfg, np.random.default_rng(99))
        plain = replace(noma_objective(3, cfg), bound_batch=None, reaches=None)
        s2 = noma_solution(*seo._run_sweeps(start, topo, cfg, plain), cfg)
        assert s1.mmf_rate == pytest.approx(s2.mmf_rate, abs=1e-12)
        assert np.array_equal(s1.placements[0], s2.placements[0])

    def test_single_group_degenerates_to_gain_maximization(self):
        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=50, num_antennas=2)
        rng = np.random.default_rng(14)
        topo = make_topology(rng, cfg, [3])
        sol = solve_noma(topo, cfg, rng=np.random.default_rng(1))
        from pinchcast import solve_tin

        tin = solve_tin(topo, cfg, rng=np.random.default_rng(1))
        assert sol.mmf_rate == pytest.approx(tin.mmf_rate, rel=1e-9)

    def test_solution_record_contents(self):
        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=40, num_antennas=2)
        rng = np.random.default_rng(15)
        topo = make_topology(rng, cfg, [2, 2, 2])
        rec = solve_noma(topo, cfg, rng=rng)
        assert rec.scheme == "noma"
        assert sorted(rec.extras["decoding_order"]) == [0, 1, 2]
        assert rec.power_w.sum() == pytest.approx(cfg.power_budget_w, rel=1e-6)
        assert rec.mmf_rate == pytest.approx(rec.per_group_rates.min(), rel=1e-9)
        assert rec.extras["sic_feasibility_margin"] >= -1e-9 * rec.extras["equalized_sinr"]
