import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from pinchcast import (
    Placement,
    SystemConfig,
    equal_time_power,
    generate_topology,
    group_gains,
    min_energy,
    min_total_energy,
    pm_rate,
    pm_resource_allocation,
    random_placement,
    single_pa_pm,
    solve_tdma_pm,
    solve_tdma_ps,
    solve_ula,
    tau_from_nu,
)
from pinchcast import seo, tdma
from pinchcast.noma import mmf_rate_bound_batch
from pinchcast.seo import seo_sweep
from pinchcast.tdma import (
    _DUAL_MIN_COLS,
    _DUAL_RTOL,
    _frontier_dual_bound,
    _FIRST_NEWTON_STEPS,
    _REFINE_NEWTON_STEPS,
    _omega_inv,
    _omega_inv_bracket,
    _PmRateSolver,
    pm_objective,
    pm_rate_bound_batch,
    tdma_solution,
)
from pinchcast.ula import UlaConfig, _phase_sweep

from conftest import make_topology

LN2 = math.log(2.0)


def stationarity(a_g: float, t: float, tau: float) -> float:
    """Marginal energy of stretching one slot; the allocator equalizes this."""
    u = t / tau
    return (math.exp(LN2 * u) * (1.0 - u * LN2) - 1.0) / a_g


class TestMinEnergy:
    def test_zero_rate_costs_nothing(self):
        assert min_energy(3.0, 0.0, 0.7) == 0.0

    def test_full_slot_inverts_shannon(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(0.1, 10.0)
            t = rng.uniform(0.01, 10.0)
            assert min_energy(a, t, 1.0) == pytest.approx((2.0**t - 1.0) / a, rel=1e-12)

    def test_perspective_homogeneity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, t, tau, alpha = rng.uniform(0.1, 5.0, 4)
            left = min_energy(a, alpha * t, alpha * tau)
            right = alpha * min_energy(a, t, tau)
            assert left == pytest.approx(right, rel=1e-12)

    def test_rate_homogeneity(self):
        # the slot rate tau*log2(1+E*a/tau) scales linearly with (E, tau)
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, e, tau, alpha = rng.uniform(0.1, 5.0, 4)
            r = tau * math.log2(1.0 + e * a / tau)
            r_scaled = (alpha * tau) * math.log2(1.0 + (alpha * e) * a / (alpha * tau))
            assert r_scaled == pytest.approx(alpha * r, rel=1e-12)

    def test_tiny_slot_is_infeasible(self):
        assert math.isinf(min_energy(1.0, 2000.0, 1e-3))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            min_energy(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            min_energy(1.0, 1.0, 0.0)


class TestTauFromNu:
    def test_root_property(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.uniform(0.1, 100.0)
            t = rng.uniform(0.05, 5.0)
            nu = rng.uniform(1e-4, 1e3)
            tau = tau_from_nu(a, t, nu)
            assert tau > 0
            assert abs(stationarity(a, t, tau) + nu) <= 1e-9 * nu

    def test_strictly_decreasing_in_nu(self):
        tau1 = tau_from_nu(2.0, 1.0, 0.5)
        tau2 = tau_from_nu(2.0, 1.0, 5.0)
        assert tau2 < tau1

    def test_equal_gains_equal_slots(self):
        taus = [tau_from_nu(3.0, 0.8, 1.7) for _ in range(4)]
        assert len(set(taus)) == 1

    def test_no_root_for_nonpositive_multiplier(self):
        with pytest.raises(ValueError):
            tau_from_nu(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            tau_from_nu(1.0, 1.0, -2.0)


class TestMinTotalEnergy:
    def test_single_group_uses_whole_frame(self):
        e, tau = min_total_energy(np.array([2.5]), 1.3)
        assert tau.tolist() == [1.0]
        assert e == pytest.approx((2.0**1.3 - 1.0) / 2.5, rel=1e-12)

    def test_equal_gains_split_evenly(self):
        a = np.full(4, 3.0)
        t = 0.4
        e, tau = min_total_energy(a, t)
        assert np.allclose(tau, 0.25, rtol=1e-9)
        assert e == pytest.approx((2.0 ** (4 * t) - 1.0) / 3.0, rel=1e-8)

    def test_matches_dense_slot_scan_two_groups(self):
        # independent oracle: scan the single free slot length directly
        a = np.array([1.0, 3.0])
        t = 1.0
        e, tau = min_total_energy(a, t)
        tau1 = np.linspace(0.02, 0.98, 96_001)
        cost = tau1 / a[0] * (2.0 ** (t / tau1) - 1.0) + (1.0 - tau1) / a[1] * (
            2.0 ** (t / (1.0 - tau1)) - 1.0
        )
        j = np.argmin(cost)
        assert e <= cost[j] + 1e-9
        assert abs(e - cost[j]) <= 1e-4 * e
        assert abs(tau[0] - tau1[j]) <= 1e-4

    def test_frame_exactly_filled(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = rng.integers(2, 6)
            a = rng.uniform(0.5, 80.0, g)
            t = rng.uniform(0.05, 2.0)
            _, tau = min_total_energy(a, t)
            assert abs(tau.sum() - 1.0) <= 1e-9

    def test_energy_increasing_in_rate(self):
        a = np.array([1.0, 4.0, 9.0])
        es = [min_total_energy(a, t)[0] for t in (0.2, 0.4, 0.8, 1.6)]
        assert all(b > x for x, b in zip(es, es[1:]))


def nested_bisection_rate(a, p_t):
    """Max-min TDMA-PM rate by bisecting the rate over min_total_energy."""
    lo, hi = 0.0, math.log2(1.0 + p_t * a.min())
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if min_total_energy(a, mid)[0] <= p_t:
            lo = mid
        else:
            hi = mid
    return lo


def check_against_reference(a, p_t):
    t, alloc = pm_resource_allocation(a, p_t)
    assert abs(t - nested_bisection_rate(a, p_t)) <= 1e-9 * t, (a, p_t)
    assert abs(alloc.tau.sum() - 1.0) <= 1e-12, (a, p_t)
    assert abs(alloc.energy_w.sum() - p_t) <= 1e-12 * p_t, (a, p_t)
    # stationarity, omega(t / tau_g) = a_g nu, with the series form of omega
    # where its closed form cancels
    for ag, tau in zip(a, alloc.tau):
        assert abs(tdma._omega(t / tau) / ag - alloc.nu) <= 1e-9 * alloc.nu, (a, p_t)


class TestPmResourceAllocation:
    def test_single_group_closed_form(self):
        t, alloc = pm_resource_allocation(np.array([4.0]), 2.0)
        assert t == pytest.approx(math.log2(9.0), rel=1e-12)
        assert alloc.tau.tolist() == [1.0]
        assert alloc.energy_w.tolist() == [2.0]

    def test_equal_gains_match_symmetric_closed_form(self):
        a = np.full(3, 5.0)
        p_t = 2.0
        t, alloc = pm_resource_allocation(a, p_t)
        assert t == pytest.approx(math.log2(1.0 + p_t * 5.0) / 3.0, rel=1e-9)
        assert np.allclose(alloc.tau, 1.0 / 3.0, rtol=1e-8)

    def test_kkt_certificate(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = rng.integers(2, 6)
            a = rng.uniform(0.5, 200.0, g)
            p_t = rng.uniform(0.2, 20.0)
            t, alloc = pm_resource_allocation(a, p_t)
            assert abs(alloc.tau.sum() - 1.0) <= 1e-9
            assert abs(alloc.energy_w.sum() - p_t) <= 1e-6 * p_t
            rates = alloc.rates(a)
            assert np.max(np.abs(rates - t)) <= 1e-6 * t
            for ag, tau in zip(a, alloc.tau):
                assert abs(stationarity(ag, t, tau) + alloc.nu) <= 1e-6 * alloc.nu

    def test_matches_nested_bisection_reference(self):
        # the solver path runs one Newton iteration in nu; the reference
        # bisects the rate over the nested bisection of min_total_energy
        rng = np.random.default_rng(10)
        cases = [
            (10.0 ** rng.uniform(1.0, 5.5, g), 10.0 ** (dbm / 10.0) / 1000.0)
            for g in range(1, 7)
            for dbm in np.arange(-40.0, 51.0, 10.0)
        ]
        rng = np.random.default_rng(106)  # the draws of acceptance check c06
        for _ in range(100):
            g = rng.integers(2, 6)
            a = rng.uniform(0.5, 200.0, g)
            cases.append((a, rng.uniform(0.2, 20.0)))
        for a, p_t in cases:
            check_against_reference(a, p_t)

    def test_fast_solver_accurate_at_low_snr(self):
        # the slot-exponent residual must not cancel when every SNR is tiny
        check_against_reference(np.array([0.178, 5.94]), 1.08e-5)
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = 10.0 ** rng.uniform(1.0, 5.0, rng.integers(2, 7))
            check_against_reference(a, 10.0 ** rng.uniform(-16.0, -8.0))

    def test_results_do_not_depend_on_earlier_calls(self):
        # no warm state: a solver reused across columns, in either order,
        # returns bit for bit what a fresh solver and the allocator return
        rng = np.random.default_rng(11)
        for dbm in (-40.0, -10.0, 30.0):
            p_t = 10.0 ** (dbm / 10.0) / 1000.0
            inputs = [10.0 ** rng.uniform(1.0, 5.5, rng.integers(2, 7)) for _ in range(12)]
            fresh = [pm_rate(a, p_t) for a in inputs]
            solver = _PmRateSolver(p_t)
            assert [solver.rate(a) for a in inputs] == fresh, dbm
            assert [solver.rate(a) for a in reversed(inputs)][::-1] == fresh, dbm
            assert [pm_resource_allocation(a, p_t)[0] for a in inputs] == fresh, dbm
        # the columns that once left a 1 W solver with stale warm state
        a = np.array([17023.04, 16063.84, 7236.26, 7966.58])
        solver = _PmRateSolver(1.0)
        for c in 10.0 ** rng.uniform(3.0, 4.5, (20, 4)):
            solver.rate(c)
        assert solver.rate(a) == pm_rate(a, 1.0) == pm_resource_allocation(a, 1.0)[0]

    def test_exclusive_budget_bound_dominates_rate(self):
        # the screening bound used by the placement sweep must never be
        # below the exact optimum
        rng = np.random.default_rng(8)
        for _ in range(50):
            g = rng.integers(2, 6)
            a = rng.uniform(0.2, 300.0, g)
            p_t = rng.uniform(0.1, 30.0)
            t, _ = pm_resource_allocation(a, p_t)
            bound = math.log2(1.0 + p_t * a.min())
            assert bound >= t - 1e-12


class TestPmRateBound:
    # candidate-gain matrices spanning the bottleneck CNRs of the presets
    @staticmethod
    def _gains(rng, g, cols=60):
        return 10.0 ** rng.uniform(1.0, 5.5, (g, cols))

    @staticmethod
    def _clustered_gains(rng, g, cols=60):
        # each group strong near its own slice of the aperture, weak elsewhere
        x = rng.uniform(0.0, 1.0, cols)
        centre = (np.arange(g)[:, None] + 0.5) / g
        return 10.0 ** (5.5 - 4.5 * np.abs(x - centre) + rng.uniform(-0.5, 0.0, (g, cols)))

    @staticmethod
    def _unfloored_bound(A, p_t):
        # pm_rate_bound_batch with every column refined by the dual through
        # all of its steps, whatever the floor
        if A.shape[1] <= _DUAL_MIN_COLS:
            return np.full(A.shape[1], np.inf)
        return _frontier_dual_bound(A, p_t) * (1.0 + _DUAL_RTOL)

    def test_columns_do_not_depend_on_their_batch(self):
        # every entry steps on its own: splitting, permuting or duplicating
        # the columns of a batch leaves the slot exponents, cold or
        # warm-started, and the dual bounds of every column bit for bit
        rng = np.random.default_rng(35)
        for gains in (self._gains, self._clustered_gains):
            for g in range(2, 7):
                for dbm in (-40.0, -10.0, 30.0):
                    p_t = 10.0 ** (dbm / 10.0) / 1000.0
                    A = gains(rng, g, cols=50)
                    y = A * 10.0 ** rng.uniform(-6.0, 2.0, A.shape[1])
                    cut = rng.integers(1, 49)
                    perm = rng.permutation(50)
                    dup = np.r_[np.arange(50), np.arange(0, 50, 7)]
                    floor = rng.choice(pm_rate_bound_batch(p_t)(A))
                    for M, f in (
                        (y, lambda M: np.stack(_omega_inv_bracket(M, _FIRST_NEWTON_STEPS)[:2])),
                        (y, lambda M: np.stack(_omega_inv_bracket(
                            M, _REFINE_NEWTON_STEPS, _omega_inv_bracket(2.0 * M, _FIRST_NEWTON_STEPS)[1])[:2])),
                        (A, lambda M: _frontier_dual_bound(M, p_t)),
                        (A, lambda M: _frontier_dual_bound(M, p_t, floor=floor)),
                    ):
                        whole = f(M)
                        split = np.concatenate([f(M[:, :cut]), f(M[:, cut:])], axis=-1)
                        assert np.array_equal(split, whole), (g, dbm)
                        assert np.array_equal(f(M[:, perm]), whole[..., perm]), (g, dbm)
                        assert np.array_equal(f(M[:, dup]), whole[..., dup]), (g, dbm)

    def test_scalar_omega_inverse_stops_on_a_rounding_cycle(self, monkeypatch):
        # near u = 0.2 the closed form of omega cancels, and from a cold start
        # these targets leave the Newton iterate cycling a few ulps apart
        class CountingMath:
            expm1_calls = 0

            def __getattr__(self, name):
                return getattr(math, name)

            def expm1(self, x):
                CountingMath.expm1_calls += 1
                return math.expm1(x)

        for y in (0.007758120301022304, 0.012659909126884916, 0.014702545802136757):
            CountingMath.expm1_calls = 0
            with monkeypatch.context() as m:
                m.setattr(tdma, "math", CountingMath())
                u = _omega_inv(y)
            assert CountingMath.expm1_calls <= 20, y  # the loop allows 100
            assert abs(tdma._omega(u) - y) <= 1e-13 * y

    def test_dual_bound_dominates_and_is_tight(self):
        rng = np.random.default_rng(31)
        for g in range(2, 7):
            for dbm in np.arange(-40.0, 31.0, 10.0):
                p_t = 10.0 ** (dbm / 10.0) / 1000.0
                A = self._gains(rng, g)
                solver = _PmRateSolver(p_t)  # one solver across columns, as in a sweep
                pm = np.array([solver.rate(c) for c in A.T])
                dual = _frontier_dual_bound(A, p_t)
                assert np.all(dual >= pm * (1.0 - 1e-13)), (g, dbm)
                assert np.all(dual <= pm * (1.0 + 1e-5)), (g, dbm)
                bound = pm_rate_bound_batch(p_t)(A)
                assert np.all(bound >= pm), (g, dbm)

    def test_any_multiplier_gives_a_valid_bound(self):
        # weak duality: the first evaluation alone, at the equal-slot
        # multiplier and with unconverged slot exponents, is loose but still
        # above the optimum, and so is every refined evaluation, with or
        # without a floor; each generator's log-gains are doubled and
        # shifted, onto 1e-1..1e8 (uniform) and 1e-2..1e8 (clustered)
        rng = np.random.default_rng(32)
        for gains in (self._gains, self._clustered_gains):
            for g in range(2, 7):
                for dbm in np.arange(-40.0, 51.0, 10.0):
                    p_t = 10.0 ** (dbm / 10.0) / 1000.0
                    A = 10.0 ** (2.0 * np.log10(gains(rng, g, cols=20)) - 3.0)
                    pm = np.array([pm_rate(c, p_t) for c in A.T])
                    for dual in (
                        _frontier_dual_bound(A, p_t, steps=0),
                        _frontier_dual_bound(A, p_t),
                        _frontier_dual_bound(A, p_t, floor=np.median(pm)),
                    ):
                        assert np.all(dual >= pm * (1.0 - 1e-13)), (g, dbm)

    def test_secant_point_lies_left_of_the_root(self):
        # every evaluation's bound on c_g is valid after any number of
        # omega Newton steps: over the series region (v < 0.1), the capped
        # start below y = 4, the fixed-point start above it and the cap
        # _U_CAP, where the root lies beyond reach; also from warm seeds on
        # either side of the root, beyond the cap and at zero, which falls
        # back to the cold start
        y = np.r_[10.0 ** np.linspace(-12.0, 8.0, 801), np.linspace(3.5, 4.5, 101), 1e305]
        root = np.array([_omega_inv(t) for t in y])
        for seed in (None, 0.5 * root, 2.0 * root, np.full_like(y, 2000.0), np.zeros_like(y)):
            for steps in range(9):
                u_lo, u, _ = _omega_inv_bracket(y, steps, seed)
                assert np.all(u_lo > 0.0), steps
                assert all(tdma._omega(x) <= t for x, t in zip(u_lo, y)), steps

    def test_refines_columns_the_noma_bound_leaves_loose(self):
        # clustered high-power regime: the NOMA rate is far above time sharing
        rng = np.random.default_rng(33)
        A = self._gains(rng, 4, cols=40)
        p_t = 10.0
        pm = np.array([pm_rate(c, p_t) for c in A.T])
        bound = pm_rate_bound_batch(p_t)(A)
        noma = mmf_rate_bound_batch(p_t)(A)
        # the dual, refined without a floor, is tight on every column whose
        # NOMA bound reaches the best equal-slot rate, an attainable rate
        t_eq = np.log2(1.0 + 4 * p_t / np.sum(1.0 / A, axis=0)) / 4
        refined = noma >= t_eq.max()
        assert refined.sum() > 4
        assert np.all(_frontier_dual_bound(A[:, refined], p_t) <= pm[refined] * (1.0 + 1e-6))
        # without a floor the screening bound refines every column, and is
        # tight on those at or above that rate
        assert np.all(bound >= pm)
        kept = bound >= t_eq.max()
        assert np.all(bound[kept] <= pm[kept] * (1.0 + 1e-6))
        # the same columns reach the exact stage as under full refinement
        full = self._unfloored_bound(A, p_t)
        assert np.array_equal(bound >= pm.max(), full >= pm.max())
        # so far fewer columns reach the exact stage of a screened selection
        assert (bound >= pm.max()).sum() < (noma >= pm.max()).sum()

    def test_floor_marks_the_same_columns_for_the_exact_stage(self):
        # a column dropped below an incumbent's exact rate keeps a looser
        # bound, but one still below every rate the selection can reach
        rng = np.random.default_rng(34)
        loosened = 0
        for gains in (self._gains, self._clustered_gains):
            for g in range(2, 7):
                for dbm in np.arange(-40.0, 31.0, 10.0):
                    p_t = 10.0 ** (dbm / 10.0) / 1000.0
                    A = gains(rng, g, cols=40)
                    pm = np.array([pm_rate(c, p_t) for c in A.T])
                    floor = pm[rng.integers(A.shape[1])]
                    bound = pm_rate_bound_batch(p_t)(A, floor)
                    full = self._unfloored_bound(A, p_t)
                    assert np.all(bound >= full), (g, dbm)
                    assert np.array_equal(bound >= pm.max(), full >= pm.max()), (g, dbm)
                    loosened += np.any(bound > full * (1.0 + 1e-12))
        assert loosened > 0  # the floor did stop some columns early

    def test_screened_and_plain_shared_placement_sweeps_agree_at_high_power(self):
        # also at the reference power (-10 dBm) and above the high-power
        # workload's 30 dBm
        modes = ("uniform_random", "heterogeneous_clusters")
        for mode, g, dbm in itertools.product(modes, (4, 5, 6), (-10.0, 30.0, 40.0)):
            cfg = SystemConfig(grid_points=30, num_antennas=3).with_power_dbm(dbm)
            topo = generate_topology(mode, cfg, np.random.default_rng(g), num_groups=g, num_users=2 * g)
            plain = replace(pm_objective(g, cfg), bound_batch=None, reaches=None)
            hoe = solve_tdma_pm(topo, cfg, rng=np.random.default_rng(7))
            start = random_placement(cfg, np.random.default_rng(7))
            best, _ = seo._run_sweeps(start, topo, cfg, plain)
            assert np.array_equal(hoe.placements[0], best.x_m), (mode, g, dbm)
            hoe = solve_ula(topo, "tdma-pm", cfg)
            phases, _ = _phase_sweep(topo, cfg, UlaConfig.from_system(cfg), plain)
            assert np.array_equal(hoe.phases, phases), (mode, g, dbm)


class TestEqualTimeSplit:
    def test_single_group(self):
        p, rate = equal_time_power(np.array([2.0]), 3.0)
        assert p.tolist() == [3.0]
        assert rate == pytest.approx(math.log2(7.0), rel=1e-12)

    def test_equal_gains_full_power_each_slot(self):
        p, rate = equal_time_power(np.full(3, 4.0), 2.0)
        assert np.allclose(p, 2.0, rtol=1e-12)
        assert rate == pytest.approx(math.log2(9.0) / 3.0, rel=1e-12)

    def test_reference_instance(self):
        # gains [1, 3], budget 3: inverse-gain split over the harmonic sum 4/3
        p, rate = equal_time_power(np.array([1.0, 3.0]), 3.0)
        assert np.allclose(p, [4.5, 1.5], rtol=1e-12)
        assert rate == pytest.approx(0.5 * math.log2(5.5), rel=1e-12)
        assert rate == pytest.approx(1.2297158093186489, rel=1e-12)

    def test_matches_dense_power_split_scan(self):
        # oracle: scan the split of average power between two equal slots
        a = np.array([1.0, 3.0])
        p_t = 3.0
        _, rate = equal_time_power(a, p_t)
        p1 = np.linspace(0.0, 2.0 * p_t, 1_200_001)
        r = np.minimum(
            0.5 * np.log2(1.0 + p1 * a[0]), 0.5 * np.log2(1.0 + (2.0 * p_t - p1) * a[1])
        )
        assert rate >= r.max() - 1e-9
        assert rate == pytest.approx(r.max(), abs=1e-5)

    def test_received_snr_constant_across_groups(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = rng.integers(2, 6)
            a = rng.uniform(0.2, 100.0, g)
            p, _ = equal_time_power(a, rng.uniform(0.5, 10.0))
            snr = p * a
            assert np.max(snr) - np.min(snr) <= 1e-14 * np.max(snr)

    def test_rate_is_the_objectives_value_of_the_column(self):
        # the equal-slot sweep objective scores a batch of columns; the
        # split's rate for one of them is that score bit for bit, for eight
        # groups and more too
        rng = np.random.default_rng(12)
        for g in range(2, 13):
            cfg = SystemConfig().with_power_dbm(rng.uniform(-20.0, 30.0))
            A = 10.0 ** rng.uniform(4.0, 12.0, (g, 40))
            scores, _ = pm_objective(g, cfg, equal_time=True).scores(A)
            rates = [equal_time_power(A[:, j], cfg.power_budget_w)[1] for j in range(A.shape[1])]
            assert rates == scores.tolist(), g


class TestSinglePaEqualTime:
    def test_matches_gain_formula(self):
        cfg = SystemConfig()
        topo = make_topology(np.random.default_rng(9), cfg, [2, 2])
        x = 7.3
        powers, rate = single_pa_pm(x, topo, cfg)
        gains = group_gains(Placement(x_m=[x]), topo, cfg)
        f_a = gains.inv_sum
        assert np.allclose(powers, 2.0 * cfg.power_budget_w / (gains.a * f_a), rtol=1e-12)
        assert rate == pytest.approx(0.5 * math.log2(1.0 + 2.0 * cfg.power_budget_w / f_a), rel=1e-12)

    def test_best_position_minimizes_inverse_gain_sum(self):
        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=50)
        topo = make_topology(np.random.default_rng(10), cfg, [2, 2, 2])
        grid = np.linspace(0, 10.0, 50)
        rates = [single_pa_pm(x, topo, cfg)[1] for x in grid]
        f_a = [group_gains(Placement(x_m=[x]), topo, cfg).inv_sum for x in grid]
        assert int(np.argmax(rates)) == int(np.argmin(f_a))


class TestSolveTdma:
    def test_pm_hoe_and_plain_agree(self):
        cfg = SystemConfig(waveguide_length_m=12.0, grid_points=60, num_antennas=3)
        rng = np.random.default_rng(11)
        topo = make_topology(rng, cfg, [2, 2, 2])
        s1 = solve_tdma_pm(topo, cfg, rng=np.random.default_rng(5))
        start = random_placement(cfg, np.random.default_rng(5))
        best, trace = seo._run_sweeps(start, topo, cfg, replace(pm_objective(3, cfg), bound_batch=None, reaches=None))
        s2 = tdma_solution("PM", [best], [trace], cfg)
        assert s1.mmf_rate == pytest.approx(s2.mmf_rate, abs=1e-12)
        assert np.array_equal(s1.placements[0], s2.placements[0])

    def test_pm_equal_time_single_antenna_matches_closed_form(self):
        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=50, num_antennas=1)
        rng = np.random.default_rng(12)
        topo = make_topology(rng, cfg, [2, 2])
        sol = solve_tdma_pm(topo, cfg, rng=np.random.default_rng(2), equal_time=True)
        _, rate = single_pa_pm(sol.placements[0][0], topo, cfg)
        assert sol.mmf_rate == pytest.approx(rate, rel=1e-12)
        assert np.allclose(sol.tau, 0.5)

    def test_pm_trace_monotone(self):
        cfg = SystemConfig(waveguide_length_m=12.0, grid_points=50, num_antennas=3)
        rng = np.random.default_rng(13)
        topo = make_topology(rng, cfg, [2, 2])
        sol = solve_tdma_pm(topo, cfg, rng=rng)
        objs = np.array(sol.traces[0]["objective"])
        assert np.all(np.diff(objs) >= -1e-9 * objs[:-1])

    def test_ps_allocator_on_pm_placement_reproduces_pm_rate(self):
        cfg = SystemConfig(waveguide_length_m=12.0, grid_points=60, num_antennas=2)
        rng = np.random.default_rng(14)
        topo = make_topology(rng, cfg, [2, 2, 2])
        pm = solve_tdma_pm(topo, cfg, rng=np.random.default_rng(3))
        gains = group_gains(Placement(x_m=pm.placements[0]), topo, cfg)
        t_ps, _ = pm_resource_allocation(gains.a, cfg.power_budget_w)
        assert abs(t_ps - pm.mmf_rate) <= 1e-9 * pm.mmf_rate

    def test_ps_seeded_from_pm_dominates(self):
        cfg = SystemConfig(waveguide_length_m=12.0, grid_points=60, num_antennas=2)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            topo = make_topology(rng, cfg, [2, 2])
            pm = solve_tdma_pm(topo, cfg, rng=np.random.default_rng(seed + 50))
            ps = solve_tdma_ps(topo, cfg, seed_placement=Placement(x_m=pm.placements[0]))
            assert ps.mmf_rate >= pm.mmf_rate - 1e-9 * pm.mmf_rate

    def test_ps_gains_are_per_group_optimized(self):
        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=40, num_antennas=2)
        rng = np.random.default_rng(15)
        topo = make_topology(rng, cfg, [2, 2])
        sol = solve_tdma_ps(topo, cfg, rng=rng)
        assert len(sol.placements) == 2
        # slot g's allocator gain is group g's gain at slot g's placement
        a = np.array([group_gains(Placement(x_m=x), topo, cfg).a[gi] for gi, x in enumerate(sol.placements)])
        t, alloc = pm_resource_allocation(a, cfg.power_budget_w)
        assert sol.mmf_rate == pytest.approx(t, rel=1e-12)
        assert sol.per_group_rates == pytest.approx(alloc.rates(a), rel=1e-12)

    def test_ps_group_sweep_ignores_other_groups(self):
        # each slot's sweep runs on its own group's users; the placement and
        # trace equal those of a sweep over all users scoring that group only
        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=40, num_antennas=3)
        rng = np.random.default_rng(17)
        topo = make_topology(rng, cfg, [2, 3, 2])
        p_t = cfg.power_budget_w
        start = Placement(x_m=np.array([1.0, 4.0, 8.0]))
        for gi in range(3):
            full, t_full = seo_sweep(
                start, topo, cfg, objective_batch=lambda A, _g=gi: np.log2(1.0 + p_t * A[_g])
            )
            own, t_own = seo_sweep(
                start, topo.subset(gi), cfg, objective_batch=lambda A: np.log2(1.0 + p_t * A[0])
            )
            assert np.array_equal(full.x_m, own.x_m)
            assert t_full.objective == t_own.objective

    def test_single_group_everything_coincides(self):
        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=50, num_antennas=2)
        rng = np.random.default_rng(16)
        topo = make_topology(rng, cfg, [3])
        pm = solve_tdma_pm(topo, cfg, rng=np.random.default_rng(4))
        ps = solve_tdma_ps(topo, cfg, rng=np.random.default_rng(4))
        assert pm.mmf_rate == pytest.approx(ps.mmf_rate, rel=1e-9)
        assert pm.tau.tolist() == [1.0]

    def test_record_serialization(self):
        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=40, num_antennas=2)
        rng = np.random.default_rng(17)
        topo = make_topology(rng, cfg, [2, 2])
        rec = solve_tdma_ps(topo, cfg, rng=rng)
        assert rec.scheme == "tdma-ps"
        assert len(rec.placements) == 2
        assert rec.tau.sum() == pytest.approx(1.0, abs=1e-9)
        rec_pm = solve_tdma_pm(topo, cfg, rng=rng)
        assert rec_pm.scheme == "tdma-pm"
        assert rec_pm.mmf_rate == pytest.approx(rec_pm.per_group_rates.min(), rel=1e-9)
