"""Release gate: end-to-end checks of every headline claim.

Each test verifies one externally checkable property of the design
stack at its stated tolerance and runtime budget, on the two-loop
worked example (via the session-scoped ``reference_run`` fixture) or on
seeded random families. All tests are deterministic.
"""

import os
import time

import numpy as np

from helpers import (
    period_duals,
    random_admissible_system,
    random_shared_channel_setup,
    reference_instance,
    scalar_system,
)
from raccess import (
    ProblemInstance,
    SimulationSettings,
    compute_success_requirement,
    constant_policy,
    empirical_gamma_rate_check,
    expected_policy_rate,
    expected_policy_success,
    link_success_probability,
    lmi_slack,
    lyapunov_drift_check,
    run_algorithm1,
    run_simulation,
    threshold_policy,
)
from raccess.cli import EXIT_OK, main as cli_main
from raccess.optimizer import DEFAULT_BOX, lagrangian_value

REFERENCE_CONFIG = os.path.join(
    os.path.dirname(__file__), "..", "configs", "twoloop.json"
)

# Frozen outputs of the 200k-slot reference simulation (seed 7), taken
# from a per-slot loop; the blocked kernel matches them to round-off.
GOLDEN_COST = (4.927954522849766, 5.0079172896449045)
GOLDEN_TX_RATE = (0.7062611111111111, 0.40928333333333333)
GOLDEN_SUCCESS_RATE = (0.4288444444444444, 0.23805)


def test_requirement_matches_scalar_closed_form():
    # For scalar loops the feasibility pencil solves in closed form:
    # c = (a_open^2 - rho) / (a_open^2 - a_closed^2).
    t0 = time.perf_counter()
    for a_open, a_closed in ((1.1, 0.5), (1.0, 0.4)):
        system = scalar_system(a_open, a_closed, rho=0.8)
        oracle = (a_open**2 - 0.8) / (a_open**2 - a_closed**2)
        got = compute_success_requirement(system)
        assert abs(got - oracle) <= 1e-6
    assert time.perf_counter() - t0 < 1.0


def test_requirement_certifies_random_matrix_systems():
    # The requirement must sit on the feasible edge: feasible at c,
    # infeasible one millionth below it.
    t0 = time.perf_counter()
    rng = np.random.default_rng(202406)
    for _ in range(100):
        system = random_admissible_system(rng)
        c = compute_success_requirement(system)
        assert 1e-6 < c < 1.0
        assert lmi_slack(c, system) <= 1e-8
        assert lmi_slack(c - 1e-6, system) > 0.0
    assert time.perf_counter() - t0 < 10.0


def test_designed_minimizers_beat_search(reference_run):
    # At the stopping duals, the closed-form shares and the priced
    # threshold policies must each minimize the Lagrangian: the shares
    # against a dense per-entry grid, the policies against random
    # alternative policies.
    t0 = time.perf_counter()
    inst = reference_run["instance"]
    result = reference_run["result"]
    state = result.state
    m = inst.m
    rate, succ = state.rates, state.succ
    base = lagrangian_value(rate, succ, state.beta, state.lam, state.nu, inst)
    # The last record's own dual value is this Lagrangian.
    assert abs(state.objective + state.duals @ state.subgradient - base) <= 1e-12 * abs(base)

    lo, hi = DEFAULT_BOX
    grid = np.linspace(lo, hi, 1000)
    for i in range(m):
        for j in range(m):
            best = np.inf
            for g in grid:
                beta = state.beta.copy()
                beta[i, j] = g
                best = min(
                    best,
                    lagrangian_value(rate, succ, beta, state.lam, state.nu, inst),
                )
            assert best >= base - 1e-8

    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(200):
        i = int(rng.integers(m))
        if rng.random() < 0.5:
            alt = threshold_policy(float(rng.uniform(0.0, 4.0)))
        else:
            alt = constant_policy(float(rng.uniform(0.01, 0.99)))
        alt_rate = rate.copy()
        alt_succ = succ.copy()
        alt_rate[i] = expected_policy_rate(alt, inst.channels[i])
        alt_succ[i] = expected_policy_success(alt, inst.channels[i])
        value = lagrangian_value(
            alt_rate, alt_succ, state.beta, state.lam, state.nu, inst
        )
        if value < base - 1e-9:
            violations += 1
    assert violations == 0
    assert time.perf_counter() - t0 < 60.0


def test_link_success_matches_slot_frequency():
    # The analytic product form must agree with slot-level frequencies
    # within 4-sigma binomial bands across random policy/collision mixes.
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240815)
    links_checked = 0
    for k in range(20):
        m = int(rng.integers(2, 4))
        channels, policies, collision = random_shared_channel_setup(rng, m)
        inst = ProblemInstance(
            systems=tuple(scalar_system(1.1, 0.5) for _ in range(m)),
            channels=channels,
            collision=collision,
            tx_powers=np.ones(m),
            success_targets=np.full(m, 0.5),
        )
        for rec in empirical_gamma_rate_check(inst, policies, 100_000, seed=1000 + k):
            assert abs(rec.z_score) <= 4.0
            links_checked += 1
    assert links_checked >= 40
    assert time.perf_counter() - t0 < 60.0


def test_dual_loop_converges_on_reference_instance(reference_run):
    inst = reference_run["instance"]
    result = reference_run["result"]
    assert result.converged
    assert result.periods <= 5000

    # Worst analytic constraint slack of the returned policies.
    link = link_success_probability(result.policies, inst.channels, inst.collision)
    worst = max(float(inst.success_targets[i] - link[i]) for i in range(inst.m))
    assert worst <= 0.01

    # The loop with the laxer requirement transmits more selectively.
    thresholds = [p.threshold for p in result.policies]
    assert thresholds[0] < thresholds[1]

    # The exact design is deterministic end to end.
    again = run_algorithm1(reference_instance())
    assert again.periods == result.periods
    np.testing.assert_array_equal(again.trace.rows, result.trace.rows)

    # Dual iterates settled: sup-norm change over the last 100 periods.
    duals = period_duals(reference_instance(), periods=result.periods)
    assert duals.shape == (result.periods, inst.m + inst.m**2)
    change = max(abs(a - b) for a, b in zip(duals[-1].tolist(), duals[-101].tolist()))
    assert change <= 1e-3

    assert reference_run["elapsed"] < 120.0


def test_closed_loop_cost_meets_bound(reference_run):
    t0 = time.perf_counter()
    inst = reference_run["instance"]
    policies = reference_run["result"].policies
    metrics = run_simulation(inst, policies, SimulationSettings(horizon=200_000, seed=7))

    # Both long-run costs sit within 10% of the guaranteed value 5.0 and
    # within 10% of each other.
    costs = metrics.empirical_cost
    assert all(abs(c - 5.0) <= 0.5 for c in costs)
    assert abs(costs[0] - costs[1]) <= 0.1 * min(costs)

    # Realized transmit rates clear each delivery requirement.
    for i in range(inst.m):
        assert metrics.empirical_tx_rate[i] > inst.success_targets[i]

    # Pinned regression values for this seed and horizon.
    np.testing.assert_allclose(costs, GOLDEN_COST, rtol=1e-12)
    np.testing.assert_allclose(metrics.empirical_tx_rate, GOLDEN_TX_RATE, rtol=1e-12)
    np.testing.assert_allclose(
        metrics.empirical_success_rate, GOLDEN_SUCCESS_RATE, rtol=1e-12
    )
    assert time.perf_counter() - t0 < 120.0


def test_one_step_drift_bound_at_random_probes(reference_run):
    # Conditional mean of the next quadratic value stays under
    # rho V(x) + tr(P W) (within 4 standard errors) at every probe.
    t0 = time.perf_counter()
    inst = reference_run["instance"]
    policies = reference_run["result"].policies
    rng = np.random.default_rng(42)
    for k in range(10):
        probes = [
            rng.normal(scale=0.5 + k, size=system.dim) for system in inst.systems
        ]
        for rec in lyapunov_drift_check(inst, policies, probes, 100_000, seed=500 + k):
            assert rec.ok
    assert time.perf_counter() - t0 < 120.0


def test_pipeline_outputs_are_reproducible(tmp_path):
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    assert cli_main(["pipeline", REFERENCE_CONFIG, "--out", str(out1)]) == EXIT_OK
    assert cli_main(["pipeline", REFERENCE_CONFIG, "--out", str(out2)]) == EXIT_OK
    for name in ("rates.csv", "trace.csv", "metrics.csv", "policies.json", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
