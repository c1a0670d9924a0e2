import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

import raccess.channel
from helpers import (
    loop_beta_update,
    loop_interference_prices,
    loop_stop_period,
    loop_subgradient,
    logistic_channel,
    loop_threshold_from_prices,
    loop_write_csv,
    period_duals,
    reference_channel,
    reference_instance,
    scalar_system,
)
import raccess.optimizer
from raccess import (
    CollisionMatrix,
    DivergenceError,
    ProblemInstance,
    MonteCarlo,
    OptimizerSettings,
    StepSchedule,
    StopRule,
    compute_success_requirement,
    dual_periods,
    expected_policy_rate,
    expected_policy_success,
    run_algorithm1,
    threshold_policy,
)
from raccess.optimizer import (
    DEFAULT_BOX,
    IterationTrace,
    beta_update,
    dual_step,
    lagrangian_value,
    primal_policies,
    stepsize,
    subgradient,
)


def priced_thresholds(nu, inst):
    """``primal_policies`` at duals ``nu`` on ``inst``'s powers, collisions and curves."""
    inverses = [ch.curve.inverse for ch in inst.channels]
    return primal_policies(nu, inst.tx_powers, inst.collision.q.T, inverses)


def mc_settings(samples, seed, stop):
    """``OptimizerSettings`` for a Monte Carlo design of ``samples`` fades, seeded ``seed``."""
    return OptimizerSettings(stop=stop, expectation_mode="mc", mc=MonteCarlo(samples, seed))


def subgradients(beta, succ, rate, inst):
    """``subgradient`` on ``inst``'s targets and collisions, unpacked to (s_lambda, s_nu)."""
    m = inst.m
    out = np.empty(m + m * m)
    subgradient(beta, succ, rate, np.log(inst.success_targets), inst.collision.q, out)
    return out[:m], out[m:].reshape(m, m)


class TestStepSchedule:
    def test_values(self):
        sched = StepSchedule(a=1.0, b=10.0)
        assert stepsize(0, sched) == pytest.approx(0.1)
        assert stepsize(10, sched) == pytest.approx(0.05)
        assert stepsize(0) == pytest.approx(30.0 / 20.0)

    def test_rejects_negative_period(self):
        with pytest.raises(ValueError):
            stepsize(-1)

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError):
            StepSchedule(a=0.0, b=10.0)
        with pytest.raises(ValueError):
            StepSchedule(a=1.0, b=0.0)


class TestStopRule:
    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("max_periods", 0, "be >= 1"),
            ("window", -1, "be >= 0"),
            ("dual_change_tol", -1, "be >= 0"),
            ("divergence_bound", 0, "be > 0"),
            ("dual_change_tol", math.nan, "be >= 0"),
            ("slack_tol", math.nan, "not be NaN"),
            ("max_periods", 2.5, "be an integer"),
            ("window", 1.5, "be an integer"),
            ("max_periods", True, "be an integer"),
            ("window", "3", "be an integer"),
        ],
        ids=[
            "max_periods", "window", "dual_change_tol", "divergence_bound",
            "dual_change_tol_nan", "slack_tol_nan", "max_periods_float", "window_float",
            "max_periods_bool", "window_str",
        ],
    )
    def test_rejects_negative_counts(self, field, value, rule):
        with pytest.raises(ValueError, match=f"^{field}: must {rule}, got"):
            StopRule(**{field: value})

    def test_keeps_numpy_integer_counts_as_ints(self):
        stop = StopRule(max_periods=np.int64(3), window=np.int32(1))
        assert type(stop.max_periods) is type(stop.window) is int
        assert run_algorithm1(reference_instance(), OptimizerSettings(stop=stop)).periods == 3


class TestBetaUpdate:
    def test_stationary_points_and_clipping(self):
        lam = np.array([2.0, 0.5])
        nu = np.array([[4.0, 0.0], [1.0, 0.25]])
        beta = beta_update(lam, nu)
        lo, hi = DEFAULT_BOX
        assert beta[0, 0] == pytest.approx(0.5)
        assert beta[1, 1] == hi  # 0.5 / 0.25 = 2, clipped
        assert beta[1, 0] == lo  # nu[0, 1] = 0 prices interference out
        assert beta[0, 1] == pytest.approx(1.0 - 0.5 / 1.0)

    def test_zero_own_dual_takes_the_upper_edge(self):
        beta = beta_update(np.array([1.0]), np.array([[0.0]]))
        assert beta[0, 0] == DEFAULT_BOX[1]

    def test_custom_box(self):
        beta = beta_update(np.array([2.0]), np.array([[1.0]]), box=(0.1, 0.6))
        assert beta[0, 0] == 0.6

    def test_entries_minimize_the_lagrangian(self):
        # Per-entry objectives are convex, so the clipped stationary
        # points must beat any grid value entry by entry.
        inst = reference_instance()
        lam = np.array([1.7, 0.9])
        nu = np.array([[2.5, 0.8], [1.2, 3.0]])
        beta = beta_update(lam, nu)
        rate = np.array([0.6, 0.4])
        succ = np.array([0.4, 0.25])
        best = lagrangian_value(rate, succ, beta, lam, nu, inst)
        lo, hi = DEFAULT_BOX
        grid = np.linspace(lo, hi, 200)
        for i in range(2):
            for j in range(2):
                for g in grid:
                    trial = beta.copy()
                    trial[i, j] = g
                    assert best <= lagrangian_value(rate, succ, trial, lam, nu, inst) + 1e-10


class TestSubgradient:
    def test_hand_computed_example(self):
        inst = ProblemInstance(
            systems=(scalar_system(1.1, 0.5), scalar_system(1.0, 0.4)),
            channels=(reference_channel(), reference_channel()),
            collision=CollisionMatrix(q=np.array([[0.0, 0.5], [0.5, 0.0]])),
            tx_powers=[1.0, 1.0],
            success_targets=[0.43, 0.3],
        )
        beta = np.array([[0.5, 0.2], [0.8, 0.6]])
        succ = np.array([0.45, 0.33])
        rate = np.array([0.7, 0.4])
        s_lam, s_nu = subgradients(beta, succ, rate, inst)
        assert s_lam[0] == pytest.approx(
            math.log(0.43) - math.log(0.5) - math.log(1.0 - 0.8)
        )
        assert s_lam[1] == pytest.approx(
            math.log(0.3) - math.log(0.6) - math.log(1.0 - 0.2)
        )
        assert s_nu[0, 0] == pytest.approx(0.5 - 0.45)
        assert s_nu[1, 1] == pytest.approx(0.6 - 0.33)
        assert s_nu[0, 1] == pytest.approx(0.4 * 0.5 - 0.8)
        assert s_nu[1, 0] == pytest.approx(0.7 * 0.5 - 0.2)

    def test_is_a_supergradient_of_the_dual_function(self):
        # The dual function is concave; for the minimizing beta at the
        # base duals, g(other) <= g(base) + <s, other - base> must hold.
        inst = reference_instance()
        rng = np.random.default_rng(14)
        rate = np.array([0.6, 0.4])
        succ = np.array([0.4, 0.25])
        for _ in range(25):
            lam0 = rng.uniform(0.1, 3.0, size=2)
            nu0 = rng.uniform(0.1, 3.0, size=(2, 2))
            beta0 = beta_update(lam0, nu0)
            g0 = lagrangian_value(rate, succ, beta0, lam0, nu0, inst)
            s_lam, s_nu = subgradients(beta0, succ, rate, inst)
            lam1 = rng.uniform(0.1, 3.0, size=2)
            nu1 = rng.uniform(0.1, 3.0, size=(2, 2))
            g1 = lagrangian_value(rate, succ, beta_update(lam1, nu1), lam1, nu1, inst)
            linear = float(np.dot(s_lam, lam1 - lam0)) + float(
                np.sum(s_nu * (nu1 - nu0))
            )
            assert g1 <= g0 + linear + 1e-9


class TestAgreesWithTheLoopForms:
    """The array forms against the per-entry loops kept in tests/helpers.py.

    beta, s_nu and the prices do the same arithmetic in the same order and
    must match bit for bit; s_lambda sums its logs in another order and
    with NumPy's log, so it may differ in the last digits. Even sensors
    use a logistic_log curve and odd ones the reference channel, so from
    m = 5 on both curves get interior thresholds.
    """

    @staticmethod
    def case(m):
        rng = np.random.default_rng(m)
        lam = rng.uniform(0.0, 3.0, size=m)
        nu = rng.uniform(0.0, 3.0, size=(m, m))
        # lam_i = 0 (with nu_ii = 0 too), nu_ii = 0 and nu_ij = 0.
        lam[0] = 0.0
        nu[0, 0] = nu[1, 1] = nu[1, 2] = nu[2, 0] = 0.0
        inst = ProblemInstance(
            systems=(scalar_system(1.1, 0.5),) * m,
            channels=tuple(
                reference_channel() if i % 2 else logistic_channel() for i in range(m)
            ),
            collision=CollisionMatrix(q=rng.uniform(0.0, 0.5, size=(m, m))),
            tx_powers=rng.uniform(0.5, 2.0, size=m),
            success_targets=rng.uniform(0.1, 0.9, size=m),
        )
        rate = rng.uniform(0.0, 1.0, size=m)
        return inst, lam, nu, rate, rate * rng.uniform(0.0, 1.0, size=m)

    @pytest.mark.parametrize("m", [3, 5, 32])
    @pytest.mark.parametrize("box", [DEFAULT_BOX, (0.1, 0.6)], ids=["default", "custom"])
    def test_beta_update(self, m, box):
        _, lam, nu, _, _ = self.case(m)
        want = loop_beta_update(lam, nu, box)
        np.testing.assert_array_equal(beta_update(lam, nu, box), want)
        assert want[0, 0] == box[1] and want[1, 1] == box[1]  # nu_ii = 0
        assert want[2, 1] == box[0]  # nu_12 = 0
        assert want[1, 0] == box[1]  # lam_0 = 0 with nu_01 > 0

    @pytest.mark.parametrize("m", [3, 5, 32])
    def test_beta_update_gives_pairs_apart_a_zero_share(self, m):
        inst, lam, nu, _, _ = self.case(m)
        q = inst.collision.q.copy()
        q[0, 2] = q[2, 1] = q[1, 0] = 0.0
        want = loop_beta_update(lam, nu, DEFAULT_BOX, q)
        apart = (q == 0.0) & ~np.eye(m, dtype=bool)
        np.testing.assert_array_equal(beta_update(lam, nu, DEFAULT_BOX, apart), want)
        assert want[0, 2] == want[2, 1] == want[1, 0] == 0.0
        assert (want[q != 0.0] > 0.0).all()

    @pytest.mark.parametrize("m", [3, 5, 32])
    @pytest.mark.parametrize("box", [DEFAULT_BOX, (0.1, 0.6)], ids=["default", "custom"])
    def test_subgradient(self, m, box):
        inst, lam, nu, rate, succ = self.case(m)
        beta = beta_update(lam, nu, box)
        s_lam, s_nu = subgradients(beta, succ, rate, inst)
        want_lam, want_nu = loop_subgradient(
            beta, succ, rate, inst.success_targets, inst.collision.q
        )
        np.testing.assert_array_equal(s_nu, want_nu)
        np.testing.assert_allclose(s_lam, want_lam, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [3, 5, 32])
    def test_prices(self, m):
        inst, lam, nu, _, _ = self.case(m)
        # The rewards nu_ii do not enter the prices. Set them so that sensor
        # 2's charge is twice its reward and sensors 3, ..., m - 1 have
        # ratios across (0, 1); the drawn rewards put every ratio above 1.
        prices = loop_interference_prices(nu, inst.collision.q)
        charge = inst.tx_powers + prices
        nu[2, 2] = 0.5 * charge[2]
        for i, ratio in enumerate(np.linspace(0.05, 0.95, m - 3).tolist(), start=3):
            nu[i, i] = charge[i] / ratio
        want = [
            loop_threshold_from_prices(nu[i, i], prices[i], inst.tx_powers[i], ch)
            for i, ch in enumerate(inst.channels)
        ]
        assert priced_thresholds(nu, inst) == want
        assert want[0] == want[1] == math.inf  # nu_ii = 0
        assert want[2] == math.inf
        assert all(0.0 < thr < math.inf for thr in want[3:])


class TestDualStep:
    # One loop's packed duals: (lambda_0, nu_0_0).
    def test_projects_to_the_nonnegative_orthant(self):
        duals = np.array([0.2, 0.1])
        dual_step(duals, np.array([-5.0, -5.0]), 0.1)
        assert duals.tolist() == [0.0, 0.0]

    def test_moves_along_the_subgradient(self):
        duals, step = np.array([1.0, 2.0]), np.array([0.5, -0.25])
        dual_step(duals, step, 0.2)
        np.testing.assert_allclose(duals, [1.1, 1.95])
        np.testing.assert_allclose(step, [0.1, -0.05])  # scaled by eps


class TestLagrangianValue:
    def test_matches_an_independent_composition(self):
        inst = reference_instance()
        rng = np.random.default_rng(6)
        q = inst.collision.q
        c = inst.success_targets
        p = inst.tx_powers
        for _ in range(50):
            rate = rng.uniform(0.05, 0.95, size=2)
            succ = rate * rng.uniform(0.1, 0.9, size=2)
            beta = rng.uniform(0.05, 0.95, size=(2, 2))
            lam = rng.uniform(0.0, 3.0, size=2)
            nu = rng.uniform(0.0, 3.0, size=(2, 2))
            want = float(p @ rate)
            for i in range(2):
                gap = math.log(c[i]) - math.log(beta[i, i])
                gap -= sum(
                    math.log(1.0 - beta[j, i]) for j in range(2) if j != i
                )
                want += lam[i] * gap + nu[i, i] * (beta[i, i] - succ[i])
                want += sum(
                    nu[i, j] * (rate[j] * q[j, i] - beta[j, i])
                    for j in range(2)
                    if j != i
                )
            got = lagrangian_value(rate, succ, beta, lam, nu, inst)
            assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_shares_on_the_boundary(self):
        inst = reference_instance()
        ok = np.full((2, 2), 0.5)
        # q_01 = 0.5, and beta_ii = 0 is never a share, even though q_ii = 0.
        for (i, j), bad_val in [((0, 1), 0.0), ((0, 1), 1.0), ((0, 0), 0.0)]:
            bad = ok.copy()
            bad[i, j] = bad_val
            with pytest.raises(ValueError):
                lagrangian_value(
                    np.full(2, 0.5), np.full(2, 0.3), bad, np.ones(2), np.ones((2, 2)), inst
                )


class TestDualValue:
    """A record's ``objective + duals @ subgradient`` is the Lagrangian at its period."""

    OPTIMUM = 1.1135328493591572  # the worked example's least power, pinned as a literal

    @staticmethod
    def dual_value(period, inst, rel):
        value = period.objective + period.duals @ period.subgradient
        want = lagrangian_value(period.rates, period.succ, period.beta, period.lam, period.nu, inst)
        assert value == pytest.approx(want, rel=rel, abs=0.0)
        return value

    def test_bounds_the_worked_examples_optimum_at_every_period(self, reference_run):
        # Weak duality: each period's shares and thresholds minimize the
        # Lagrangian at its duals, so its value lies below the least power.
        inst, converged = reference_instance(), StopRule().checker()
        values = []
        for period in dual_periods(inst):
            values.append(self.dual_value(period, inst, 1e-12))
            if converged(period):
                break
        assert len(values) == reference_run["result"].periods == 730
        assert max(values) <= self.OPTIMUM + 1e-12
        # The result's last record takes no step, so its subgradient is its own.
        state = reference_run["result"].state
        assert state.objective + state.duals @ state.subgradient == values[-1]

    @pytest.mark.parametrize("m", [3, 5, 32])
    @pytest.mark.parametrize("mode", ["quadrature", "mc"])
    @pytest.mark.parametrize("isolated", [False, True], ids=["colliding", "isolated"])
    def test_is_the_lagrangian_at_every_period(self, m, mode, isolated):
        inst = TestAgreesWithTheLoopForms.case(m)[0]
        if isolated:  # loops 0 and 1 collide with no one
            q = inst.collision.q.copy()
            q[:2], q[:, :2] = 0.0, 0.0
            inst = dataclasses.replace(inst, collision=CollisionMatrix(q=q))
        stop = StopRule(max_periods=20)
        settings = mc_settings(2000, 1, stop) if mode == "mc" else OptimizerSettings(stop=stop)
        for period in dual_periods(inst, settings):
            self.dual_value(period, inst, 1e-11)
            if isolated:
                assert not period.beta[:2, 2:].any() and not period.beta[2:, :2].any()


class TestPrimalPolicies:
    """Crafted duals on the worked example: tx powers 1, q = 0.5 off the diagonal."""

    @staticmethod
    def priced(nu, channel=None):
        inst = reference_instance()
        if channel is not None:
            inst = dataclasses.replace(inst, channels=(channel, channel))
        return priced_thresholds(np.array(nu), inst)

    def test_priced_out_when_reward_is_zero(self):
        thr = self.priced([[0.0, 0.0], [0.4, 5.0]])
        assert thr[0] == math.inf
        assert thr[1] < math.inf

    @pytest.mark.parametrize("curve", ["exp_saturating", "logistic_log"])
    def test_priced_out_when_the_charge_reaches_the_reward(self, curve):
        # Sensor 0's charge 1 + 0.5 * 0.5 equals its reward; sensor 1's
        # charge 1 exceeds its reward 0.8. logistic_log's inverse(1)
        # would divide by zero.
        channel = logistic_channel() if curve == "logistic_log" else None
        thr = self.priced([[1.25, 0.0], [0.5, 0.8]], channel)
        assert thr[0] == thr[1] == math.inf

    def test_interior_threshold_inverts_the_curve(self):
        # Sensor 0's charge 1 + 0.2 * 0.5 against its reward 2: ratio 0.55.
        thr = self.priced([[2.0, 0.0], [0.2, 5.0]])[0]
        assert thr == pytest.approx(0.5323384641451812, abs=1e-15)
        assert thr == reference_channel().curve.inverse(0.55)

    def test_threshold_rises_with_interference_price(self):
        # Sensor 0 pays nu[1, 0] * 0.5 = 0, 0.5 and 1 for loop 1's erasures.
        thr = [self.priced([[4.0, 0.0], [nu10, 5.0]])[0] for nu10 in (0.0, 1.0, 2.0)]
        assert thr[0] < thr[1] < thr[2]

    def test_prices_follow_the_duals(self):
        inst = reference_instance()
        thr = priced_thresholds(np.array([[4.0, 0.5], [2.0, 5.0]]), inst)
        ch = inst.channels[0]
        # Sensor 0 pays its tx power plus nu[1, 0] q[0, 1] for loop 1's
        # erasures, and earns nu[0, 0] per delivery.
        ratio0 = (1.0 + 2.0 * 0.5) / 4.0
        ratio1 = (1.0 + 0.5 * 0.5) / 5.0
        assert thr[0] == pytest.approx(ch.curve.inverse(ratio0), rel=1e-12)
        assert thr[1] == pytest.approx(ch.curve.inverse(ratio1), rel=1e-12)

    def test_low_reward_prices_a_sensor_out(self):
        inst = reference_instance()
        thr = priced_thresholds(np.array([[0.5, 0.0], [0.0, 5.0]]), inst)
        assert thr[0] == math.inf
        assert thr[1] < math.inf


class TestProblemInstanceValidation:
    def test_rejects_mismatched_channel_count(self):
        with pytest.raises(ValueError):
            ProblemInstance(
                systems=(scalar_system(1.1, 0.5),),
                channels=(reference_channel(), reference_channel()),
                collision=CollisionMatrix.none(1),
                tx_powers=[1.0],
                success_targets=[0.4],
            )

    def test_rejects_wrong_collision_size(self):
        with pytest.raises(ValueError):
            ProblemInstance(
                systems=(scalar_system(1.1, 0.5),),
                channels=(reference_channel(),),
                collision=CollisionMatrix.none(2),
                tx_powers=[1.0],
                success_targets=[0.4],
            )

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            ProblemInstance(
                systems=(scalar_system(1.1, 0.5),),
                channels=(reference_channel(),),
                collision=CollisionMatrix.none(1),
                tx_powers=[0.0],
                success_targets=[0.4],
            )

    @pytest.mark.parametrize(
        "powers, targets, message",
        [
            ([math.nan], [0.4], "tx_powers: all entries must be finite"),
            ([math.inf], [0.4], "tx_powers: all entries must be finite"),
            ([-math.inf], [0.4], "tx_powers: all entries must be finite"),
            ([1.0], [math.nan], "success_targets: all entries must be finite"),
            ([1.0], [math.inf], "success_targets: all entries must be finite"),
            ([0.0], [0.4], "tx_powers: all entries must be positive"),
            ([1.0], [1.0], r"success_targets: all entries must lie strictly inside \(0, 1\)"),
            ([1.0, 1.0], [0.4], "tx_powers: expected 1 entries, got 2"),
            ([1.0], [0.4, 0.4], "success_targets: expected 1 entries, got 2"),
        ],
    )
    def test_rejects_bad_entries_naming_the_field(self, powers, targets, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProblemInstance(
                systems=(scalar_system(1.1, 0.5),),
                channels=(reference_channel(),),
                collision=CollisionMatrix.none(1),
                tx_powers=powers,
                success_targets=targets,
            )

    def test_fields_are_read_only_copies(self):
        powers, targets = np.array([2.0]), np.array([0.4])
        inst = ProblemInstance(
            systems=(scalar_system(1.1, 0.5),),
            channels=(reference_channel(),),
            collision=CollisionMatrix.none(1),
            tx_powers=powers,
            success_targets=targets,
        )
        powers[0], targets[0] = 3.0, 0.5
        assert inst.tx_powers.tolist() == [2.0] and inst.success_targets.tolist() == [0.4]
        with pytest.raises(ValueError):
            inst.tx_powers[0] = 1.0

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_targets_outside_open_interval(self, target):
        with pytest.raises(ValueError):
            ProblemInstance(
                systems=(scalar_system(1.1, 0.5),),
                channels=(reference_channel(),),
                collision=CollisionMatrix.none(1),
                tx_powers=[1.0],
                success_targets=[target],
            )


def csv_columns(m):
    """The trace.csv header, the trace's columns."""
    names = ["period", "stepsize", "objective"] + [f"lambda_{i}" for i in range(m)]
    for kind in ("rate", "success", "link_prob", "slack"):
        names += [f"{kind}_{i}" for i in range(m)]
    return names


def random_trace(m, periods, seed=4):
    """A trace of random rows with edge values mixed in."""
    rng = np.random.default_rng(seed)
    trace = IterationTrace(m)
    edges = np.array([0.0, -0.0, math.inf, 5e-324, 1e-05, 1.5e16, 0.1])
    for t in range(periods):
        v = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8)
        v[t % m] = edges[t % edges.size]
        link = rng.random(m)
        link[(t + 1) % m] = edges[(t + 3) % edges.size]
        trace.append(t, 1.0 / (t + 1), float(v.sum()), v, rng.random(m), rng.random(m), link, -v)
    return trace


class TestIterationTrace:
    def test_columns_and_round_trip(self, tmp_path):
        trace = IterationTrace(2)
        assert trace.columns == csv_columns(2)  # O(m) columns only: no nu or beta
        trace.append(
            0,
            0.1,
            1.0,
            np.array([1.0, 2.0]),
            np.array([0.6, 0.4]),
            np.array([0.4, 0.2]),
            np.array([0.35, 0.18]),
            np.array([0.07, 0.05]),
        )
        assert len(trace) == 1
        assert trace.column("lambda_1")[0] == 2.0
        assert trace.column("link_prob_0")[0] == 0.35
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header, row = path.read_text().splitlines()
        assert header.split(",") == csv_columns(2)
        assert row == "0,0.1,1.0,1.0,2.0,0.6,0.4,0.4,0.2,0.35,0.18,0.07,0.05"

    def test_grows_past_one_block(self, tmp_path):
        m, periods = 2, 2 * IterationTrace.BLOCK + 3
        trace = IterationTrace(m)
        for t in range(periods):
            v = t + 0.5
            trace.append(
                t, 1.0 / (t + 1), v, np.full(m, v), np.full(m, 0.6), np.full(m, 0.4),
                np.full(m, 0.3), np.full(m, -v),
            )
        assert len(trace) == periods
        assert trace.rows.shape == (periods, 3 + 5 * m)
        np.testing.assert_array_equal(trace.column("lambda_1"), np.arange(periods) + 0.5)
        np.testing.assert_array_equal(trace.column("slack_1"), -(np.arange(periods) + 0.5))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == [str(t) for t in range(periods)]
        assert lines[-1].split(",")[3] == repr(periods - 0.5)

    def test_to_csv_matches_the_row_list_oracle(self, tmp_path):
        # The bytes of the writer that formatted ``rows.tolist()`` with the
        # period cast to int, on random rows with edge values mixed in.
        m, periods = 3, IterationTrace.BLOCK + 5
        trace = random_trace(m, periods)
        trace.to_csv(tmp_path / "new.csv")
        rows = trace.rows.tolist()
        for row in rows:
            row[0] = int(row[0])
        loop_write_csv(tmp_path / "old.csv", csv_columns(m), rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_column_is_a_copy(self):
        trace = IterationTrace(1)
        one = np.ones(1)
        trace.append(0, 0.1, 1.0, one, one, one, one, one)
        col = trace.column("lambda_0")
        col[0] = -7.0
        assert trace.column("lambda_0")[0] == 1.0


def one_loop_instance(target=0.3):
    return ProblemInstance(
        systems=(scalar_system(1.1, 0.5),),
        channels=(reference_channel(),),
        collision=CollisionMatrix.none(1),
        tx_powers=[1.0],
        success_targets=[target],
    )


class TestRunAlgorithm1:
    def test_single_link_converges_to_the_binding_threshold(self):
        # Without interference the cheapest feasible policy transmits on
        # exactly enough fades to meet the target, so the threshold must
        # solve E[alpha q](h) = c.
        inst = one_loop_instance(0.3)
        result = run_algorithm1(inst)
        assert result.converged
        h_star = brentq(
            lambda h: math.exp(-h) - 0.4 * math.exp(-2.5 * h) - 0.3, 0.0, 10.0, xtol=1e-13
        )
        assert result.policies[0].threshold == pytest.approx(h_star, abs=1e-6)

    def test_converged_policies_meet_the_target_analytically(self):
        inst = one_loop_instance(0.3)
        result = run_algorithm1(inst)
        succ = expected_policy_success(result.policies[0], inst.channels[0])
        assert succ >= 0.3 - 1e-12

    def test_trace_matches_the_stopping_state(self, reference_run):
        inst = reference_run["instance"]
        result = reference_run["result"]
        trace = result.trace
        assert result.converged
        assert len(trace) == result.periods
        last = result.periods - 1
        for i in range(2):
            assert trace.column(f"lambda_{i}")[last] == result.state.lam[i]
            assert trace.column(f"slack_{i}")[last] <= 0.0
            link = trace.column(f"link_prob_{i}")[last]
            assert inst.success_targets[i] - link == pytest.approx(
                trace.column(f"slack_{i}")[last], abs=1e-15
            )

    def test_settled_duals_at_the_stop(self, reference_run):
        result = reference_run["result"]
        duals = period_duals(reference_run["instance"], periods=result.periods)
        stop_window = 100
        last = result.periods - 1
        first = last - stop_window
        np.testing.assert_array_equal(duals[:, :2], result.trace.rows[:, 3:5])  # lambda_i
        np.testing.assert_array_equal(duals[last, 2:], result.state.nu.reshape(-1))
        assert np.abs(duals[last] - duals[first]).max() <= 1e-3

    def test_non_convergence_is_reported_not_raised(self):
        inst = one_loop_instance(0.3)
        result = run_algorithm1(inst, OptimizerSettings(stop=StopRule(max_periods=10)))
        assert not result.converged
        assert result.periods == 10
        assert len(result.trace) == 10

    @pytest.mark.parametrize("mode", ["quadrature", "mc"], ids=["exact", "mc"])
    def test_first_period_prices_the_cold_start(self, mode):
        inst = reference_instance()
        settings = mc_settings(100, 0, StopRule(max_periods=1))
        result = run_algorithm1(inst, dataclasses.replace(settings, expectation_mode=mode))
        assert (result.converged, result.periods, len(result.trace)) == (False, 1, 1)
        lam = np.ones(2)
        nu = np.array([[2.0, 0.1], [0.1, 2.0]])  # nu_ii = p_i + 1, nu_ij = 0.1
        beta = beta_update(lam, nu)
        assert result.state.t == 0
        np.testing.assert_array_equal(result.state.lam, lam)
        np.testing.assert_array_equal(result.state.nu, nu)
        np.testing.assert_array_equal(result.state.beta, beta)
        cold = priced_thresholds(nu, inst)
        assert result.state.thresholds == cold
        assert result.policies == tuple(map(threshold_policy, cold))
        assert 0.0 < cold[0] < math.inf

    def test_mc_design_follows_the_mode_seed(self):
        inst = one_loop_instance(0.3)
        stop = StopRule(max_periods=25)
        r1 = run_algorithm1(inst, mc_settings(2000, 3, stop))
        r2 = run_algorithm1(inst, mc_settings(2000, 3, stop))
        r3 = run_algorithm1(inst, mc_settings(2000, 4, stop))
        np.testing.assert_array_equal(r1.trace.rows, r2.trace.rows)
        assert not np.array_equal(r1.trace.rows, r3.trace.rows)

    @staticmethod
    def mc_instance(m):
        systems = (scalar_system(1.1, 0.5), scalar_system(1.0, 0.4), scalar_system(1.05, 0.3))[:m]
        return ProblemInstance(
            systems=systems,
            channels=(reference_channel(),) * m,
            collision=CollisionMatrix(q=np.full((m, m), 0.2)),
            tx_powers=[1.0] * m,
            success_targets=[compute_success_requirement(s) for s in systems],
        )

    def test_mc_seeds_m_apart_draw_uncorrelated_rates(self):
        # Each period's Monte Carlo rate error, rate - P(h >= threshold),
        # is fresh sampling noise. Seeds s and s + m must not share it, not
        # even one period apart (as streams seeded s + t*m + i would).
        m = 2
        inst = self.mc_instance(m)
        stop = StopRule(max_periods=300, dual_change_tol=0.0)

        def rate_errors(seed):
            return np.array([
                period.rates
                - [
                    expected_policy_rate(threshold_policy(t), ch)
                    for t, ch in zip(period.thresholds, inst.channels)
                ]
                for period in dual_periods(inst, mc_settings(1000, seed, stop))
            ])

        a, b = rate_errors(5), rate_errors(5 + m)
        for lag_a, lag_b in [(a, b), (a[1:], b[:-1]), (a[:-1], b[1:])]:
            for i in range(m):
                assert abs(np.corrcoef(lag_a[:, i], lag_b[:, i])[0, 1]) < 0.3

    def test_mc_draws_pass_through_sample_channel(self, monkeypatch):
        # perfbench counts channel.mc_samples at raccess.channel.sample_channel.
        drawn = []
        real = raccess.channel.sample_channel

        def counting(ch, rng, size=None, lower=0.0):
            drawn.append(size)
            return real(ch, rng, size=size, lower=lower)

        monkeypatch.setattr(raccess.channel, "sample_channel", counting)
        m, samples = 3, 2000
        stop = StopRule(max_periods=40)
        result = run_algorithm1(self.mc_instance(m), mc_settings(samples, 1, stop))
        assert len(drawn) == result.periods * m
        rates = np.stack([result.trace.column(f"rate_{i}") for i in range(m)], axis=1)
        assert sum(drawn) == int(np.rint(rates * samples).sum())
        assert 0 < sum(drawn) < result.periods * m * samples

    @pytest.mark.parametrize("mc", [False, True], ids=["exact", "mc"])
    def test_periods_call_the_public_step_functions(self, monkeypatch, mc):
        # perfbench's optimizer.pricing and optimizer.update spans wrap these
        # module globals, so the loop must look them up there each period.
        calls = dict.fromkeys(("beta_update", "primal_policies", "subgradient", "dual_step"), 0)

        def counting(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(
                raccess.optimizer, name, counting(name, getattr(raccess.optimizer, name))
            )
        if mc:
            stop = StopRule(max_periods=40)
            result = run_algorithm1(self.mc_instance(3), mc_settings(2000, 1, stop))
            assert not result.converged
        else:
            result = run_algorithm1(reference_instance())
            assert result.converged
        # Every period takes its subgradient; only one that another follows
        # takes a step, so the last one takes none.
        assert calls == {
            "beta_update": result.periods,
            "primal_policies": result.periods,
            "subgradient": result.periods,
            "dual_step": result.periods - 1,
        }

    # The parent's stopping periods, from a stop test that read the full
    # trace, under dual_change_tol = 5e-3.
    STOP_PERIODS = {
        (0.0, 0): 206, (0.0, 1): 206, (0.0, 3): 206, (0.0, 100): 302,
        (0.1, 0): 1, (0.1, 1): 64, (0.1, 3): 88, (0.1, 100): 302,
    }

    @pytest.mark.parametrize("slack_tol, window", list(STOP_PERIODS))
    def test_stop_period_matches_the_full_history_oracle(self, slack_tol, window):
        inst, tol = reference_instance(), 5e-3
        settings = OptimizerSettings(stop=StopRule(max_periods=400, dual_change_tol=0.0))
        full = run_algorithm1(inst, settings)
        assert not full.converged
        slack = full.trace.rows[:, -inst.m :].tolist()
        want = loop_stop_period(period_duals(inst, settings), slack, window, slack_tol, tol)
        stop = StopRule(slack_tol=slack_tol, dual_change_tol=tol, window=window)
        result = run_algorithm1(inst, OptimizerSettings(stop=stop))
        assert result.converged
        assert result.periods == want == self.STOP_PERIODS[slack_tol, window]
        np.testing.assert_array_equal(result.trace.rows, full.trace.rows[: result.periods])

    def test_window_beyond_max_periods_runs_them_all(self):
        # The stop test cannot fire, so the ring keeps one row, not 10**12 + 1.
        stop = StopRule(max_periods=50, window=10**12)
        result = run_algorithm1(reference_instance(), OptimizerSettings(stop=stop))
        assert (result.converged, result.periods, len(result.trace)) == (False, 50, 50)

    def test_design_memory_is_linear_in_m_per_period(self):
        # Traced peak of a 400-period m = 32 run: the stop rule's ring of
        # window + 1 dual vectors, plus the O(m) trace while it doubles to
        # its capacity, not periods x m^2 floats.
        m, periods, window = 32, 400, 100
        systems = tuple(scalar_system(*(1.1, 0.5) if i % 2 else (1.0, 0.4)) for i in range(m))
        q = np.full((m, m), 0.3 / m)
        np.fill_diagonal(q, 0.0)
        inst = ProblemInstance(
            systems=systems,
            channels=(reference_channel(),) * m,
            collision=CollisionMatrix(q=q),
            tx_powers=np.ones(m),
            success_targets=[compute_success_requirement(s) for s in systems],
        )
        stop = StopRule(max_periods=periods, dual_change_tol=0.0, window=window)
        # first-call set-up, untraced
        run_algorithm1(inst, OptimizerSettings(stop=StopRule(max_periods=2)))
        tracemalloc.start()
        try:
            result = run_algorithm1(inst, OptimizerSettings(stop=stop))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.periods == periods and not result.converged
        capacity = IterationTrace.BLOCK
        while capacity < periods:
            capacity *= 2
        floats = (window + 1) * (m + m * m) + 2 * capacity * (3 + 5 * m)
        assert peak < 8 * floats + 2**18

    def test_runs_inside_the_settings_box(self):
        settings = OptimizerSettings(stop=StopRule(max_periods=3), box=(0.1, 0.6))
        betas = [period.beta for period in dual_periods(reference_instance(), settings)]
        assert len(betas) == 3
        assert all(((0.1 <= beta) & (beta <= 0.6)).all() for beta in betas)
        # The cold start's off-diagonal 1 - lambda_i / nu_ij = 1 - 1 / 0.1 clips to the bottom.
        assert betas[0][0, 1] == betas[0][1, 0] == 0.1

    @pytest.mark.parametrize("mc", [False, True], ids=["exact", "mc"])
    def test_periods_reproduce_the_trace_rows(self, mc):
        if mc:
            inst, settings = self.mc_instance(3), mc_settings(2000, 1, StopRule(max_periods=40))
        else:
            inst, settings = reference_instance(), OptimizerSettings()
        result = run_algorithm1(inst, settings)
        rows = [
            np.concatenate(((p.t, p.eps, p.objective), p.lam, p.rates, p.succ, p.link, p.slack))
            for p in itertools.islice(dual_periods(inst, settings), result.periods)
        ]
        np.testing.assert_array_equal(np.array(rows), result.trace.rows)

    @pytest.mark.parametrize("extra", [1, 4])
    def test_isolated_loops_leave_the_design_alone(self, reference_run, extra):
        # Copies of loop 0 that collide with no one: each such pair takes the
        # share 0, so loops 0 and 1 keep their prices, and their design, bit for bit.
        base, alone = reference_run["instance"], reference_run["result"]
        m = 2 + extra
        q = np.zeros((m, m))
        q[:2, :2] = base.collision.q
        inst = ProblemInstance(
            systems=base.systems + base.systems[:1] * extra,
            channels=base.channels + base.channels[:1] * extra,
            collision=CollisionMatrix(q=q),
            tx_powers=[*base.tx_powers, *base.tx_powers[:1].tolist() * extra],
            success_targets=[*base.success_targets, *base.success_targets[:1].tolist() * extra],
        )
        result = run_algorithm1(inst)
        assert (result.converged, result.periods) == (True, alone.periods) == (True, 730)
        assert result.policies[:2] == alone.policies
        assert [p.threshold for p in alone.policies] == [0.3493400618071479, 0.8881000419772446]
        np.testing.assert_array_equal(result.state.lam[:2], alone.state.lam)
        np.testing.assert_array_equal(result.state.nu[:2, :2], alone.state.nu)
        state = result.state
        assert (state.beta[q == 0.0] == 0.0).sum() == m * m - m - 2  # off the diagonal
        rates = [expected_policy_rate(p, ch) for p, ch in zip(result.policies, inst.channels)]
        succ = [expected_policy_success(p, ch) for p, ch in zip(result.policies, inst.channels)]
        assert math.isfinite(lagrangian_value(rates, succ, state.beta, state.lam, state.nu, inst))

    @pytest.mark.parametrize("mc", [False, True], ids=["exact", "mc"])
    @pytest.mark.parametrize("periods", [None, 10], ids=["converged", "10-periods"])
    def test_every_result_prices_its_own_policies(self, mc, periods):
        # policies.json writes these duals however the run ends.
        inst = reference_instance()
        stop = StopRule() if periods is None else StopRule(max_periods=periods)
        settings = mc_settings(2000, 1, stop) if mc else OptimizerSettings(stop=stop)
        result = run_algorithm1(inst, settings)
        assert result.converged is (periods is None)
        assert result.state.t == result.periods - 1
        priced = priced_thresholds(result.state.nu, inst)
        assert [p.threshold for p in result.policies] == priced == result.state.thresholds
        np.testing.assert_array_equal(result.state.lam, result.trace.rows[-1, 3 : 3 + inst.m])

    def test_unreachable_targets_diverge(self):
        inst = ProblemInstance(
            systems=(scalar_system(1.1, 0.5), scalar_system(1.0, 0.4)),
            channels=(reference_channel(), reference_channel()),
            collision=CollisionMatrix(q=np.array([[0.0, 0.9], [0.9, 0.0]])),
            tx_powers=[1.0, 1.0],
            success_targets=[0.9, 0.9],
        )

        def run(periods):
            stop = StopRule(max_periods=periods, divergence_bound=5.0)
            return run_algorithm1(inst, OptimizerSettings(stop=stop))

        with pytest.raises(DivergenceError) as first:
            run(300)
        # Period t's step crosses the bound, but only a run with room for a
        # period t + 1 takes it.
        t = int(re.search(r" at period (\d+);", str(first.value)).group(1))
        last = run(t + 1)
        assert not last.converged and last.state.t == t
        assert float(np.max(last.state.duals)) <= 5.0
        with pytest.raises(DivergenceError) as later:
            run(t + 2)
        assert str(later.value) == str(first.value)


class TestOptimizerSettings:
    @pytest.mark.parametrize("box", [(0.0, 0.9), (0.5, 0.4)])
    def test_rejects_bad_box(self, box):
        with pytest.raises(ValueError, match=r"^box must satisfy 0 < lo < hi < 1, got \["):
            OptimizerSettings(box=box)

    def test_rejects_unknown_mode(self):
        with pytest.raises(
            ValueError, match=r"^expectation_mode: must be 'quadrature' or 'mc', got 'exact'$"
        ):
            OptimizerSettings(expectation_mode="exact")

    @pytest.mark.parametrize("box", [(0.5,), ("a", "b"), None])
    def test_rejects_a_box_that_is_not_a_pair_of_numbers(self, box):
        with pytest.raises(ValueError, match=r"^box: must be a \(lo, hi\) pair of numbers, got "):
            OptimizerSettings(box=box)

    def test_keeps_the_box_as_a_float_pair(self):
        box = OptimizerSettings(box=[np.float64(0.25), 0.75]).box
        assert box == (0.25, 0.75) and list(map(type, box)) == [float, float]
