import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import raccess._kernels
import raccess.simulate
from helpers import (
    loop_simulation,
    loop_state_recursion,
    random_admissible_system,
    random_shared_channel_setup,
    reference_channel,
    reference_instance,
    scalar_system,
    three_operand_lyapunov_values,
)
from raccess import (
    CollisionMatrix,
    ExponentialFading,
    FadingChannel,
    LogisticLogCurve,
    ProblemInstance,
    SimulationSettings,
    SwitchedSystem,
    UnstableSimulationError,
    constant_policy,
    empirical_gamma_rate_check,
    link_success_probability,
    lyapunov_drift_check,
    run_simulation,
    threshold_policy,
)
from raccess.simulate import _draw_gamma, _mean_cost

# Stopping thresholds of the converged reference design; their link
# deliveries clear both requirements, which the drift check verifies
# before trusting the bound.
REF_THRESHOLDS = (0.34934006025424225, 0.8881000386856908)


def one_loop_instance():
    return ProblemInstance(
        systems=(scalar_system(1.1, 0.5),),
        channels=(reference_channel(),),
        collision=CollisionMatrix.none(1),
        tx_powers=[1.0],
        success_targets=[0.3],
    )


def reference_policies():
    return tuple(threshold_policy(t) for t in REF_THRESHOLDS)


class TestSimulationSettings:
    def test_policy_count_must_match(self):
        policies = (threshold_policy(0.5), threshold_policy(0.5))
        with pytest.raises(ValueError, match=r"^2 policies for 1 loops$"):
            run_simulation(one_loop_instance(), policies, SimulationSettings(horizon=100))
        with pytest.raises(ValueError, match=r"^2 policies for 1 loops$"):
            empirical_gamma_rate_check(one_loop_instance(), policies, 100, seed=0)
        with pytest.raises(ValueError, match=r"^2 policies for 1 loops$"):
            lyapunov_drift_check(one_loop_instance(), policies, [np.zeros(1)], 100, seed=0)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^horizon must be >= 1, got 0$"):
            SimulationSettings(horizon=0, seed=0)

    def test_burn_in_must_fit_inside_the_horizon(self):
        with pytest.raises(
            ValueError, match=r"^burn_in must lie in \[0, horizon\), got 100 for horizon 100$"
        ):
            SimulationSettings(horizon=100, seed=0, burn_in=100)

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=r"seed: must be >= 0, got -1"):
            SimulationSettings(horizon=100, seed=-1)

    def test_thin_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=r"^thin must be >= 0, got -1$"):
            SimulationSettings(horizon=100, seed=0, thin=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("horizon", 2.5), ("seed", 1.5), ("burn_in", 10.5), ("thin", 1.5),
            ("horizon", True), ("thin", np.float64(2.0)),
        ],
        ids=["horizon", "seed", "burn_in", "thin", "horizon_bool", "thin_numpy_float"],
    )
    def test_rejects_counts_that_are_not_integers(self, field, value):
        message = rf"^{field}: must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            SimulationSettings(**{"horizon": 100, field: value})

    def test_keeps_numpy_integer_counts_as_ints(self):
        settings = SimulationSettings(horizon=np.int64(100), seed=np.uint8(3), burn_in=np.int32(10))
        assert {type(v) for v in dataclasses.astuple(settings)} == {int}
        met = run_simulation(one_loop_instance(), (threshold_policy(0.5),), settings)
        assert (met.horizon, met.burn_in) == (100, 10)

    def test_default_burn_in_is_a_tenth(self):
        settings = SimulationSettings(horizon=250, seed=0)
        assert settings.burn_in is None and settings.burn == 25
        met = run_simulation(one_loop_instance(), (threshold_policy(0.5),), settings)
        assert met.burn_in == 25
        # burn_in stays None, so a replaced horizon drops its own tenth.
        assert dataclasses.replace(settings, horizon=2000).burn == 200

    def test_horizon_past_the_index_limit_is_checked_against_the_loops(self):
        # One scalar loop: horizon x 1 float64s must have a byte count NumPy can index.
        settings = SimulationSettings(horizon=2**62)
        message = rf"^horizon must be at most 1152921504606846975 for these loops, got {2**62}$"
        with pytest.raises(ValueError, match=message):
            settings.check_horizon(one_loop_instance().systems)
        with pytest.raises(ValueError, match=message):
            run_simulation(one_loop_instance(), (threshold_policy(0.5),), settings)


class TestRunSimulationDeterminism:
    def test_same_seed_reproduces_exactly(self):
        inst = reference_instance()
        sim = (inst, reference_policies(), SimulationSettings(horizon=5000, seed=42, thin=7))
        m1 = run_simulation(*sim)
        m2 = run_simulation(*sim)
        np.testing.assert_array_equal(m1.empirical_cost, m2.empirical_cost)
        np.testing.assert_array_equal(m1.empirical_tx_rate, m2.empirical_tx_rate)
        np.testing.assert_array_equal(m1.empirical_success_rate, m2.empirical_success_rate)
        for a, b in zip(m1.trajectory, m2.trajectory, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        inst = reference_instance()
        m1 = run_simulation(inst, reference_policies(), SimulationSettings(horizon=5000, seed=1))
        m2 = run_simulation(inst, reference_policies(), SimulationSettings(horizon=5000, seed=2))
        assert not np.array_equal(m1.empirical_cost, m2.empirical_cost)


def mixed_instance(dims, seed=17):
    """Random admissible loops of the given state dimensions on one channel."""
    rng = np.random.default_rng(seed)
    m = len(dims)
    systems = tuple(random_admissible_system(rng, dims=(n,)) for n in dims)
    channels, _, _ = random_shared_channel_setup(rng, m)
    q = np.full((m, m), 0.1)
    np.fill_diagonal(q, 0.0)
    return ProblemInstance(
        systems=systems,
        channels=channels,
        collision=CollisionMatrix(q=q),
        tx_powers=[1.0] * m,
        success_targets=[0.5] * m,
    )


def assert_same_run(got, want):
    np.testing.assert_array_equal(got.empirical_cost, want.empirical_cost)
    np.testing.assert_array_equal(got.empirical_tx_rate, want.empirical_tx_rate)
    np.testing.assert_array_equal(got.empirical_success_rate, want.empirical_success_rate)
    assert len(got.trajectory) == len(want.trajectory) == 5
    for a, b in zip(got.trajectory, want.trajectory):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


class TestTrajectoryRecord:
    def test_rows_reproduce_the_metrics(self):
        settings = SimulationSettings(horizon=500, seed=11, thin=1)
        met = run_simulation(one_loop_instance(), (threshold_policy(0.8),), settings)
        slot, system, v, tx, gamma = met.trajectory
        assert slot.size == 500
        kept = slot > met.burn_in
        assert np.mean(v[kept]) == pytest.approx(met.empirical_cost[0], rel=1e-12)
        assert np.mean(tx[kept]) == pytest.approx(met.empirical_tx_rate[0], rel=1e-12)
        assert np.mean(gamma[kept]) == pytest.approx(
            met.empirical_success_rate[0], rel=1e-12
        )

    def test_delivery_requires_a_transmission(self):
        settings = SimulationSettings(horizon=2000, seed=5, thin=1)
        _, _, _, tx, gamma = run_simulation(
            reference_instance(), reference_policies(), settings
        ).trajectory
        assert np.any(gamma)
        assert not np.any(gamma & ~tx)

    def test_thinning_keeps_every_kth_slot(self):
        settings = SimulationSettings(horizon=100, seed=0, thin=10)
        met = run_simulation(one_loop_instance(), (threshold_policy(0.8),), settings)
        assert met.trajectory[0].tolist() == list(range(10, 101, 10))

    def test_disabled_by_default(self):
        settings = SimulationSettings(horizon=100, seed=0)
        met = run_simulation(one_loop_instance(), (threshold_policy(0.8),), settings)
        assert met.trajectory is None

    @pytest.mark.parametrize("thin", [1, 7, 200, 205])
    def test_rows_match_the_per_slot_oracle(self, thin):
        # Three loops of state dimension 1, 4 and 2; 7 does not divide the
        # horizon, and thin = 205 keeps no slot at all.
        inst = mixed_instance((1, 4, 2))
        policies = (constant_policy(0.9), threshold_policy(0.0), constant_policy(0.8))
        sim = (inst, policies, SimulationSettings(horizon=200, seed=3, thin=thin))
        met = run_simulation(*sim)
        assert met.trajectory[0].size == 3 * (200 // thin)
        assert [col.dtype for col in met.trajectory] == [
            np.int64, np.int64, np.float64, np.bool_, np.bool_
        ]
        assert_same_run(met, loop_simulation(*sim))


class TestLoopRuns:
    # Loop dimensions (1, 2, 1, 1) at horizon 300: a budget of one loop's
    # cells runs every loop alone, two loops' cells pair the last two
    # scalar loops, and the default budget does the same.
    @pytest.mark.parametrize("cells", [300, 600, None])
    def test_mixed_dimensions_match_the_per_loop_oracle(self, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(raccess.simulate, "_RUN_CELLS", cells)
        inst = mixed_instance((1, 2, 1, 1), seed=23)
        policies = (
            threshold_policy(0.2), constant_policy(0.9), threshold_policy(0.0),
            constant_policy(0.7),
        )
        sim = (inst, policies, SimulationSettings(horizon=300, seed=4, thin=3))
        calls = []
        kernel = raccess._kernels.state_recursion

        def counted(*args):
            calls.append(len(args[2]))
            return kernel(*args)

        monkeypatch.setattr(raccess._kernels, "state_recursion", counted)
        met = run_simulation(*sim)
        assert calls == ([1, 1, 1, 1] if cells == 300 else [1, 1, 2])
        monkeypatch.setattr(raccess._kernels, "state_recursion", kernel)
        assert_same_run(met, loop_simulation(*sim))


class TestReduction:
    def test_two_operand_form_matches_the_three_operand_form(self, monkeypatch):
        # v = x'Px as einsum("kl,kl->k", x @ P, x) moves last bits against
        # the three-operand einsum at n > 1, and none at n = 1, where the
        # simulation keeps the three-operand form. Blocks of 700 slots cut
        # the 2,000 into two full blocks and a partial one, which must give
        # the bits of one product over all slots (the oracle's).
        monkeypatch.setattr(raccess.simulate, "_REDUCE_ROWS", 700)
        dims = (1, 2, 3, 4)
        inst = mixed_instance(dims, seed=31)
        policies = tuple(threshold_policy(0.0) for _ in dims)
        sim = (inst, policies, SimulationSettings(horizon=2000, seed=2, thin=1))
        met = run_simulation(*sim)
        assert_same_run(met, loop_simulation(*sim))
        got = met.trajectory
        want = loop_simulation(*sim, quadratic=three_operand_lyapunov_values).trajectory
        np.testing.assert_array_equal(got[1], want[1])
        for i, n in enumerate(dims):
            v, w = got[2][got[1] == i], want[2][want[1] == i]
            if n == 1:
                np.testing.assert_array_equal(v, w)
            else:
                np.testing.assert_allclose(v, w, rtol=1e-14, atol=0.0)


def transmission_outcomes_3d(policies, channels, qmat, rng, count):
    """The block draw with every collision uniform in one (m, m, count) array."""
    m = len(policies)
    h = np.empty((m, count))
    for i in range(m):
        h[i] = channels[i].dist.sample(rng, size=count)
    u_tx = rng.random((m, count))
    u_coll = rng.random((m, m, count))
    u_dec = rng.random((m, count))
    tx = np.empty((m, count), dtype=bool)
    for i, pol in enumerate(policies):
        tx[i] = (h[i] >= pol.threshold) & (u_tx[i] < pol.rate)
    gamma = np.empty((m, count), dtype=bool)
    for i in range(m):
        alive = tx[i].copy()
        for j in range(m):
            if j != i:
                alive &= ~(tx[j] & (u_coll[j, i] < qmat.q[j, i]))
        gamma[i] = alive & (u_dec[i] < channels[i].curve.value(h[i]))
    return h, tx, gamma


class TestTransmissionOutcomes:
    def test_pairwise_collision_draws_reproduce_the_3d_draw(self):
        channels, policies, qmat = random_shared_channel_setup(
            np.random.default_rng(11), 3
        )
        rng = np.random.default_rng(5)
        oracle_rng = np.random.default_rng(5)
        got = _draw_gamma(policies, channels, qmat, rng, 1000)
        _, *want = transmission_outcomes_3d(policies, channels, qmat, oracle_rng, 1000)
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)
        assert np.any(want[0] & ~want[1])
        # The generator is left where the 3-D draw leaves it.
        np.testing.assert_array_equal(rng.random(8), oracle_rng.random(8))

    def test_chunks_reproduce_the_3d_draw_chunk_by_chunk(self, monkeypatch):
        # 2,500 slots in chunks of 1,000: two full chunks reuse the fade and
        # uniform buffers, and the short last chunk uses their leading part.
        monkeypatch.setattr(raccess.simulate, "_CHUNK", 1000)
        channels, policies, qmat = random_shared_channel_setup(
            np.random.default_rng(12), 3
        )
        rng = np.random.default_rng(6)
        oracle_rng = np.random.default_rng(6)
        tx, gamma = _draw_gamma(policies, channels, qmat, rng, 2500)
        for start, size in ((0, 1000), (1000, 1000), (2000, 500)):
            _, want_tx, want_gamma = transmission_outcomes_3d(
                policies, channels, qmat, oracle_rng, size
            )
            np.testing.assert_array_equal(tx[:, start : start + size], want_tx)
            np.testing.assert_array_equal(gamma[:, start : start + size], want_gamma)
        assert np.any(tx & ~gamma)
        np.testing.assert_array_equal(rng.random(8), oracle_rng.random(8))

    def test_draw_holds_one_chunk_of_fades_beside_its_outputs(self, monkeypatch):
        # Over several chunks at m = 8 the draw may hold, beside its two
        # outputs, one chunk of fades and a few chunk-length float rows (the
        # uniform row, a drawn fade row and the success curve's
        # temporaries): no per-chunk copy of the fades, transmit flags or
        # deliveries.
        monkeypatch.setattr(raccess.simulate, "_CHUNK", 1000)
        m, count = 8, 3500
        channels, policies, qmat = random_shared_channel_setup(
            np.random.default_rng(13), m
        )
        rng = np.random.default_rng(7)
        tracemalloc.start()
        try:
            tx, gamma = _draw_gamma(policies, channels, qmat, rng, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        fades, row = 8 * m * 1000, 8 * 1000
        assert peak - tx.nbytes - gamma.nbytes <= fades + 6 * row

    def test_row_draws_into_one_buffer_reproduce_the_block_draw(self):
        # The transmit and decode uniforms are drawn one link row at a
        # time into a reused buffer; that consumes the generator exactly
        # as one (m, count) draw does.
        rng = np.random.default_rng(9)
        block = np.random.default_rng(9).random((3, 1000))
        buf = np.empty(1000)
        for row in block:
            rng.random(out=buf)
            np.testing.assert_array_equal(buf, row)


def test_a_steep_curve_delivers_where_its_power_overflows():
    # Above h = 17.1 the logistic_log power (h/1)^250 overflows. q is 1
    # there, so with no interferer every transmission at tau = 20 delivers.
    ch = FadingChannel(
        dist=ExponentialFading(mean=10.0), curve=LogisticLogCurve(midpoint=1.0, steepness=250.0)
    )
    inst = ProblemInstance(
        systems=(scalar_system(0.9, 0.5),),
        channels=(ch,),
        collision=CollisionMatrix.none(1),
        tx_powers=[1.0],
        success_targets=[0.1],
    )
    settings = SimulationSettings(horizon=20_000, seed=3)
    metrics = run_simulation(inst, (threshold_policy(20.0),), settings)
    assert metrics.empirical_tx_rate[0] > 0.1
    assert metrics.empirical_success_rate[0] == metrics.empirical_tx_rate[0]


class TestInstability:
    def test_unhelped_unstable_loop_is_reported_with_its_slot(self):
        settings = SimulationSettings(horizon=1000, seed=3)
        with pytest.raises(UnstableSimulationError, match=r"loop 0 .* at slot \d+ of 1000"):
            run_simulation(one_loop_instance(), (threshold_policy(math.inf),), settings)

    @pytest.mark.parametrize("threshold", [math.inf, 3.0])
    def test_reported_slot_matches_the_loop_oracle(self, threshold, monkeypatch):
        # The state passes the norm limit a few blocks into the horizon;
        # the blocked kernel must name the slot the per-slot loop names.
        sim = (
            one_loop_instance(),
            (threshold_policy(threshold),),
            SimulationSettings(horizon=5000, seed=3),
        )
        with pytest.raises(UnstableSimulationError) as kernel_err:
            run_simulation(*sim)
        monkeypatch.setattr(raccess._kernels, "state_recursion", loop_state_recursion)
        with pytest.raises(UnstableSimulationError) as oracle_err:
            run_simulation(*sim)
        assert str(kernel_err.value) == str(oracle_err.value)
        slot = int(re.search(r"at slot (\d+)", str(kernel_err.value)).group(1))
        assert math.isqrt(5000) < slot < 5000

    def test_first_loop_in_loop_order_is_named(self, monkeypatch):
        # Loops 0 and 2 share one kernel call and never transmit; loop 2
        # grows faster and passes the limit first, but loop 0 comes first
        # in loop order, so the error names loop 0 at its own slot.
        systems = (scalar_system(1.1, 0.5), scalar_system(1.0, 0.4), scalar_system(1.5, 0.5))
        inst = ProblemInstance(
            systems=systems,
            channels=(reference_channel(),) * 3,
            collision=CollisionMatrix.none(3),
            tx_powers=[1.0] * 3,
            success_targets=[0.3] * 3,
        )
        policies = (threshold_policy(math.inf), threshold_policy(0.5), threshold_policy(math.inf))
        states = []
        kernel = raccess._kernels.state_recursion

        def kept(*args):
            states.append(kernel(*args))
            return states[-1]

        monkeypatch.setattr(raccess._kernels, "state_recursion", kept)
        with pytest.raises(UnstableSimulationError) as err:
            run_simulation(inst, policies, SimulationSettings(horizon=3000, seed=3))
        (out,) = states
        with np.errstate(over="ignore", invalid="ignore"):
            escaped = ~(np.abs(out[:, :, 0]) <= 1e12)
        first = [int(np.argmax(row)) + 1 if row.any() else None for row in escaped]
        assert first[1] is None
        assert first[2] < first[0]
        assert str(err.value).startswith(
            f"loop 0 state norm passed 1e+12 at slot {first[0]} of 3000;"
        )

    def test_stabilized_loop_survives_the_same_horizon(self):
        settings = SimulationSettings(horizon=1000, seed=3)
        met = run_simulation(one_loop_instance(), (threshold_policy(0.5),), settings)
        assert np.isfinite(met.empirical_cost[0])

    @pytest.mark.parametrize(
        "noise_cov, limit",
        [(0.25, "1e+12"), (1.0, "1e+12"), (1e24, "1e+24"), (np.diag([4e4, 1.0]), "2e+14")],
    )
    def test_limit_scales_with_the_loops_noise(self, noise_cov, limit):
        # 1e12 * max(1, sqrt(lambda_max(W))): a noise at most 1 keeps the absolute limit.
        n = np.ndim(noise_cov) or 1
        system = SwitchedSystem(
            a_closed=0.5 * np.eye(n), a_open=1.1 * np.eye(n), noise_cov=noise_cov,
            lyap_matrix=np.eye(n), decay_rate=0.8,
        )
        inst = ProblemInstance(
            systems=(system,), channels=(reference_channel(),), collision=CollisionMatrix.none(1),
            tx_powers=[1.0], success_targets=[0.3],
        )
        stable, unstable = (threshold_policy(0.5),), (threshold_policy(math.inf),)
        settings = SimulationSettings(horizon=1000, seed=3)
        assert np.isfinite(run_simulation(inst, stable, settings).empirical_cost[0])
        with pytest.raises(UnstableSimulationError, match=f"^loop 0 state norm passed {re.escape(limit)} at"):
            run_simulation(inst, unstable, settings)


class TestMeanCost:
    @pytest.mark.parametrize("seed", range(3))
    def test_a_finite_sum_is_the_plain_mean(self, seed):
        v = np.random.default_rng(seed).exponential(5.0, size=1001)
        assert _mean_cost(v) == float(np.mean(v))

    def test_a_sum_that_overflows_is_taken_at_a_smaller_scale(self):
        # The sum of three 1e308 overflows, though their mean is 1e308.
        assert _mean_cost(np.array([1e308, 1e308, 1e308])) == 1e308
        assert _mean_cost(np.array([1.5e308, 1.7e308])) == 1.6e308

    def test_an_infinite_value_gives_inf(self):
        assert _mean_cost(np.array([1.0, math.inf])) == math.inf


class TestEmpiricalGammaRateCheck:
    def test_reference_policies_match_the_product_form(self):
        inst = reference_instance()
        records = empirical_gamma_rate_check(inst, reference_policies(), n_slots=30_000, seed=17)
        assert len(records) == 2
        for rec in records:
            assert abs(rec.z_score) <= 4.0
            assert rec.analytic == pytest.approx(
                link_success_probability(
                    reference_policies(), inst.channels, inst.collision
                )[rec.link],
                rel=1e-12,
            )

    def test_constant_policies_match_their_product_form(self):
        rng = np.random.default_rng(31)
        m = 3
        channels, _, qmat = random_shared_channel_setup(rng, m)
        policies = tuple(constant_policy(r) for r in (0.6, 0.35, 0.8))
        systems = tuple(scalar_system(1.05, 0.4) for _ in range(m))
        inst = ProblemInstance(
            systems=systems,
            channels=channels,
            collision=qmat,
            tx_powers=[1.0] * m,
            success_targets=[0.05] * m,
        )
        records = empirical_gamma_rate_check(inst, policies, n_slots=30_000, seed=23)
        for rec in records:
            assert abs(rec.z_score) <= 4.0


# (value, message template, id) of each count the self-checks refuse.
BAD_COUNTS = [
    pytest.param(0, "must be >= {low}, got 0", id="zero"),
    pytest.param(-3, "must be >= {low}, got -3", id="negative"),
    pytest.param(2.5, "must be an integer, got {value!r}", id="float"),
    pytest.param(True, "must be an integer, got {value!r}", id="bool"),
    pytest.param(np.float64(4.0), "must be an integer, got {value!r}", id="numpy-float"),
]


def check_calls(n, seed):
    """The two self-checks on the reference design, with count ``n`` and ``seed``."""
    inst, policies = reference_instance(), reference_policies()
    return {
        "n_slots": lambda: empirical_gamma_rate_check(inst, policies, n, seed),
        "n_replications": lambda: lyapunov_drift_check(inst, policies, [np.ones(1)] * 2, n, seed),
    }


class TestSelfCheckCounts:
    @pytest.mark.parametrize("count, low", [("n_slots", 1), ("n_replications", 2)])
    @pytest.mark.parametrize("value, message", BAD_COUNTS)
    def test_rejects_a_count_it_cannot_use(self, count, low, value, message):
        text = f"{count}: {message.format(low=low, value=value)}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            check_calls(value, 0)[count]()

    @pytest.mark.parametrize("count", ["n_slots", "n_replications"])
    @pytest.mark.parametrize("value, message", BAD_COUNTS[1:])
    def test_rejects_a_seed_it_cannot_use(self, count, value, message):
        text = f"seed: {message.format(low=0, value=value)}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            check_calls(100, value)[count]()

    def test_one_replication_is_too_few_for_a_standard_error(self):
        with pytest.raises(ValueError, match=r"^n_replications: must be >= 2, got 1$"):
            check_calls(1, 0)["n_replications"]()

    @pytest.mark.parametrize("count", ["n_slots", "n_replications"])
    def test_numpy_integers_give_the_int_records(self, count):
        assert check_calls(np.int64(50), np.uint8(3))[count]() == check_calls(50, 3)[count]()


class TestLyapunovDriftCheck:
    def test_contract_holds_at_random_probes(self):
        inst = reference_instance()
        rng = np.random.default_rng(2)
        for trial in range(3):
            probes = [rng.uniform(-4.0, 4.0, size=1) for _ in range(2)]
            records = lyapunov_drift_check(
                inst, reference_policies(), probes, n_replications=20_000, seed=trial
            )
            for rec in records:
                assert rec.ok
                assert rec.sample_mean <= rec.bound + 4.0 * rec.std_error

    def test_infeasible_policies_are_rejected_up_front(self):
        inst = reference_instance()
        weak = (threshold_policy(2.0), threshold_policy(2.0))
        with pytest.raises(ValueError, match="below its"):
            lyapunov_drift_check(inst, weak, [np.zeros(1), np.zeros(1)], n_replications=100, seed=0)

    def test_probe_shape_validation(self):
        sim = (reference_instance(), reference_policies())
        with pytest.raises(ValueError):
            lyapunov_drift_check(*sim, [np.zeros(1)], n_replications=100, seed=0)
        with pytest.raises(ValueError):
            lyapunov_drift_check(*sim, [np.zeros(2), np.zeros(1)], n_replications=100, seed=0)


class TestAgainstAnalyticBound:
    def test_long_run_cost_respects_the_steady_state_bound(self):
        # rho-contractive dynamics keep the long-run average quadratic
        # cost under tr(P W) / (1 - rho) once the policies meet their
        # delivery requirements.
        inst = reference_instance()
        settings = SimulationSettings(horizon=60_000, seed=7)
        met = run_simulation(inst, reference_policies(), settings)
        for i in range(2):
            assert met.empirical_cost[i] <= 5.0 * 1.1
            assert met.empirical_tx_rate[i] > inst.success_targets[i]
