import math

import numpy as np
import pytest

from helpers import (
    LOOP_BREAKS,
    break_loop,
    example_pair,
    loop_check_system,
    loop_fields,
    load_perfbench,
    loop_success_requirement,
    random_admissible_system,
    scalar_system,
)
from raccess import (
    InfeasibleContractError,
    PlantControllerPair,
    SwitchedSystem,
    assemble_example_loop,
    check_loops,
    compute_success_requirement,
    expected_lyapunov_next,
    lmi_slack,
    steady_state_cost_bound,
    success_requirements,
)
from raccess.config import parse_config


class TestSwitchedSystemValidation:
    def test_scalar_inputs_promote_to_matrices(self):
        s = scalar_system(1.1, 0.5)
        assert s.a_closed.shape == (1, 1)
        assert s.dim == 1

    def test_arrays_are_read_only(self):
        s = scalar_system(1.1, 0.5)
        with pytest.raises(ValueError):
            s.a_closed[0, 0] = 2.0

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            SwitchedSystem(
                a_closed=np.eye(2) * 0.5,
                a_open=np.eye(3),
                noise_cov=np.eye(2),
                lyap_matrix=np.eye(2),
                decay_rate=0.8,
            )

    def test_rejects_asymmetric_lyapunov_matrix(self):
        with pytest.raises(ValueError):
            SwitchedSystem(
                a_closed=0.5,
                a_open=1.1,
                noise_cov=np.eye(2),
                lyap_matrix=np.array([[1.0, 0.5], [0.0, 1.0]]),
                decay_rate=0.8,
            )

    def test_rejects_indefinite_lyapunov_matrix(self):
        with pytest.raises(ValueError):
            SwitchedSystem(
                a_closed=np.eye(2) * 0.5,
                a_open=np.eye(2),
                noise_cov=np.eye(2),
                lyap_matrix=np.diag([1.0, 0.0]),
                decay_rate=0.8,
            )

    def test_rejects_negative_noise_covariance(self):
        with pytest.raises(ValueError):
            SwitchedSystem(
                a_closed=0.5,
                a_open=1.1,
                noise_cov=-1.0,
                lyap_matrix=1.0,
                decay_rate=0.8,
            )

    def test_zero_noise_covariance_is_allowed(self):
        s = scalar_system(1.1, 0.5, w=0.0)
        assert s.noise_cov[0, 0] == 0.0

    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_decay_rate_outside_unit_interval(self, rho):
        with pytest.raises(ValueError):
            scalar_system(1.1, 0.5, rho=rho)

    @staticmethod
    def _matrices(n=2):
        return {
            "a_closed": 0.5 * np.eye(n),
            "a_open": 1.1 * np.eye(n),
            "noise_cov": np.eye(n),
            "lyap_matrix": np.eye(n),
        }

    @pytest.mark.parametrize("name", ["a_closed", "a_open", "noise_cov", "lyap_matrix"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_entry_naming_its_matrix(self, name, value):
        mats = self._matrices()
        mats[name] = mats[name].copy()
        mats[name][1, 0] = value
        with pytest.raises(ValueError, match=f"^{name} entries must be finite$"):
            SwitchedSystem(decay_rate=0.8, **mats)

    @pytest.mark.parametrize(
        "name, matrix, message",
        [
            ("noise_cov", [[1.0, 0.5], [0.0, 1.0]], "noise_cov must be symmetric"),
            ("lyap_matrix", [[1.0, 0.5], [0.0, 1.0]], "lyap_matrix must be symmetric"),
            ("lyap_matrix", [[1.0, 0.0], [0.0, -1.0]], "lyap_matrix must be positive definite, min eig -1"),
            ("lyap_matrix", [[1.0, 0.0], [0.0, 0.0]], "lyap_matrix must be positive definite, min eig 0"),
            ("noise_cov", [[1.0, 0.0], [0.0, -1.0]], "noise_cov must be PSD, min eig -1"),
            ("noise_cov", [[1.0, 2.0], [2.0, 1.0]], "noise_cov must be PSD, min eig -1"),
        ],
        ids=["asym-noise", "asym-lyap", "indefinite-lyap", "singular-lyap", "neg-noise", "indefinite-noise"],
    )
    def test_stacked_covariance_checks_name_their_matrix(self, name, matrix, message):
        mats = self._matrices()
        mats[name] = np.array(matrix)
        with pytest.raises(ValueError) as err:
            SwitchedSystem(decay_rate=0.8, **mats)
        assert str(err.value) == message

    def test_both_covariances_bad_reports_noise_symmetry_then_lyap_definiteness(self):
        # Symmetry is checked on both before definiteness, noise_cov first;
        # then lyap_matrix's definiteness before noise_cov's.
        asym = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="^noise_cov must be symmetric$"):
            SwitchedSystem(
                0.5 * np.eye(2), np.eye(2), noise_cov=asym, lyap_matrix=asym, decay_rate=0.8
            )
        neg = -np.eye(2)
        with pytest.raises(ValueError, match="^lyap_matrix must be positive definite"):
            SwitchedSystem(
                0.5 * np.eye(2), np.eye(2), noise_cov=neg, lyap_matrix=neg, decay_rate=0.8
            )

    def test_admissibility_not_required_at_construction(self):
        # An inadmissible closed loop is representable; the requirement
        # computation is where it gets rejected.
        s = scalar_system(1.1, 1.05, rho=0.8)
        with pytest.raises(InfeasibleContractError):
            compute_success_requirement(s)


def oracle_outcome(loop):
    """The loop oracle's (matrices, rate) for a raw-form loop, or the error it raises."""
    try:
        return loop_check_system(**loop)
    except (TypeError, ValueError) as exc:
        return exc


def broken_mix(rng, m, bad_count):
    """``m`` raw-form loops, n in {1, 2, 3, 4}, ``bad_count`` of them broken in one or two ways."""
    loops = [
        loop_fields(random_admissible_system(rng, dims=(1, 2, 3, 4)), rng) for _ in range(m)
    ]
    for k in rng.choice(m, size=bad_count, replace=False):
        kinds = rng.choice(LOOP_BREAKS, size=int(rng.integers(1, 3)), replace=False)
        loops[k] = break_loop(loops[k], rng, kinds)
    return loops


class TestCheckLoops:
    """``check_loops`` against the matrix-by-matrix oracle in ``tests/helpers.py``."""

    @staticmethod
    def assert_matches_oracle(loops):
        systems, failures = check_loops([tuple(loop.values()) for loop in loops])
        for k, loop in enumerate(loops):
            want = oracle_outcome(loop)
            if isinstance(want, Exception):
                assert systems[k] is None
                assert (type(failures[k]), str(failures[k])) == (type(want), str(want)), k
                continue
            assert k not in failures
            mats, rho = want
            for name, arr in zip(("a_closed", "a_open", "noise_cov", "lyap_matrix"), mats):
                got = getattr(systems[k], name)
                np.testing.assert_array_equal(got, arr, strict=True)
                assert not got.flags.writeable
            assert type(systems[k].decay_rate) is float and systems[k].decay_rate == rho
        return failures

    @pytest.mark.parametrize("seed", range(30))
    def test_shuffled_mixes_with_bad_loops(self, seed):
        rng = np.random.default_rng(seed)
        failures = self.assert_matches_oracle(broken_mix(rng, int(rng.integers(2, 13)), 1 + seed % 2))
        assert failures

    def test_valid_loops_pass_with_their_values(self):
        rng = np.random.default_rng(7)
        loops = broken_mix(rng, 24, 0)
        assert self.assert_matches_oracle(loops) == {}

    @pytest.mark.parametrize("kind", LOOP_BREAKS)
    @pytest.mark.parametrize("n", [1, 3])
    def test_switched_system_raises_as_the_oracle(self, kind, n):
        rng = np.random.default_rng(n)
        loop = break_loop(loop_fields(random_admissible_system(rng, dims=(n,))), rng, [kind])
        want = oracle_outcome(loop)
        with pytest.raises(type(want)) as err:
            SwitchedSystem(**loop)
        assert str(err.value) == str(want)

    def test_non_finite_matrix_before_a_shape_error_is_named_first(self):
        # The matrices are checked one by one, so a_closed's nan comes before
        # a_open's shape, and lyap_matrix's inf before the shapes are compared.
        with pytest.raises(ValueError, match="^a_closed entries must be finite$"):
            SwitchedSystem([[math.nan, 0.0], [0.0, 0.5]], [[1.0, 2.0]], np.eye(2), np.eye(2), 0.8)
        with pytest.raises(ValueError, match="^lyap_matrix entries must be finite$"):
            SwitchedSystem(np.eye(2), 1.1, np.eye(2), [[math.inf, 0.0], [0.0, 1.0]], 0.8)

    def test_empty_matrices_are_named(self):
        empty = np.empty((0, 0))
        with pytest.raises(ValueError, match="^a_closed must not be empty$"):
            SwitchedSystem(empty, empty, empty, empty, 0.8)
        with pytest.raises(ValueError, match="^noise_cov must not be empty$"):
            SwitchedSystem(0.5, 1.1, empty, 1.0, 0.8)

    def test_rate_that_is_not_a_number_keeps_its_error(self):
        with pytest.raises(TypeError, match="not 'list'"):
            scalar_system(1.1, 0.5, rho=[0.5])
        with pytest.raises(ValueError, match="^decay_rate must lie in \\(0, 1\\), got nan$"):
            scalar_system(1.1, 0.5, rho="nan")


class TestLmiSlack:
    def test_scalar_closed_form(self):
        # For scalar modes with P = 1 the pencil eigenvalue is just
        # theta a_c^2 + (1 - theta) a_o^2 - rho.
        s = scalar_system(1.1, 0.5)
        for theta in (0.0, 0.3, 0.7, 1.0):
            want = theta * 0.25 + (1.0 - theta) * 1.21 - 0.8
            assert lmi_slack(theta, s) == pytest.approx(want, rel=1e-12)

    def test_rejects_theta_outside_unit_interval(self):
        s = scalar_system(1.1, 0.5)
        with pytest.raises(ValueError):
            lmi_slack(-0.1, s)
        with pytest.raises(ValueError):
            lmi_slack(1.1, s)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_admissible_system(rng)
            t0, t1 = sorted(rng.uniform(0.0, 1.0, size=2))
            mid = 0.5 * (t0 + t1)
            lhs = lmi_slack(mid, s)
            rhs = 0.5 * (lmi_slack(t0, s) + lmi_slack(t1, s))
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


class TestSuccessRequirement:
    def test_scalar_closed_form(self):
        # Requirement = (a_o^2 - rho) / (a_o^2 - a_c^2) for scalar modes.
        s1 = scalar_system(1.1, 0.5)
        s2 = scalar_system(1.0, 0.4)
        assert compute_success_requirement(s1) == pytest.approx(41.0 / 96.0, abs=1e-8)
        assert compute_success_requirement(s2) == pytest.approx(5.0 / 21.0, abs=1e-8)

    def test_zero_when_open_loop_already_contracts(self):
        s = scalar_system(0.5, 0.3, rho=0.8)
        assert compute_success_requirement(s) == 0.0

    def test_infeasible_when_closed_loop_violates(self):
        s = scalar_system(1.1, 1.0, rho=0.8)
        with pytest.raises(InfeasibleContractError):
            compute_success_requirement(s)

    def test_requirement_sits_on_the_feasible_edge(self):
        rng = np.random.default_rng(202406)
        for _ in range(30):
            s = random_admissible_system(rng)
            c = compute_success_requirement(s)
            assert 0.0 < c < 1.0
            assert lmi_slack(c, s) <= 1e-8
            assert lmi_slack(c - 1e-6, s) > 0.0

    def test_scalar_requirement_is_exact(self):
        # The generalized-eigenvalue form leaves only rounding error.
        s1 = scalar_system(1.1, 0.5)
        s2 = scalar_system(1.0, 0.4)
        assert abs(compute_success_requirement(s1) - 41.0 / 96.0) <= 1e-12
        assert abs(compute_success_requirement(s2) - 5.0 / 21.0) <= 1e-12


def zero_requirement_system(rng, n):
    """A loop whose open mode already meets the contract (requirement 0)."""
    s = random_admissible_system(rng, dims=(n,))
    return SwitchedSystem(
        a_closed=s.a_closed,
        a_open=0.9 * s.a_closed,
        noise_cov=s.noise_cov,
        lyap_matrix=s.lyap_matrix,
        decay_rate=s.decay_rate,
    )


def random_pair_system(rng):
    """A plant/controller pair assembled into a 2-state loop with requirement in (0, 1)."""
    pair = PlantControllerPair(
        plant_a=[[rng.uniform(1.0, 1.1)]],
        plant_b=[[1.0]],
        plant_c=[[1.0]],
        ctrl_f=[[rng.uniform(0.1, 0.3)]],
        ctrl_fc=[[0.0]],
        ctrl_g=[[rng.uniform(0.05, 0.15)]],
        ctrl_k=[[0.0]],
        ctrl_kc=[[0.0]],
        ctrl_l=[[rng.uniform(-0.7, -0.5)]],
        process_noise_cov=[[0.5]],
        meas_noise_cov=[[0.2]],
    )
    system, _, _ = assemble_example_loop(pair, lyap_matrix=np.eye(2), decay_rate=0.9)
    return system


def mixed_loops(rng, count):
    """A shuffled list of random loops: n in {1, 2, 3, 4}, requirement-0 and pair-form ones too."""
    loops = [random_admissible_system(rng, dims=(1, 2, 3, 4)) for _ in range(count)]
    loops += [zero_requirement_system(rng, n) for n in (1, 2, 3, 4)]
    loops += [random_pair_system(rng) for _ in range(4)]
    return [loops[k] for k in rng.permutation(len(loops))]


def boundary_system(n):
    """Admissible only with equality: A_c' P A_c - rho P is singular (requirement 1)."""
    a_closed = np.diag([0.5] + [0.3] * (n - 1))
    return SwitchedSystem(
        a_closed=a_closed, a_open=1.1 * np.eye(n), noise_cov=np.eye(n),
        lyap_matrix=np.eye(n), decay_rate=0.25,
    )


class TestStackedRequirements:
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_equal_to_the_per_loop_form(self, seed):
        loops = mixed_loops(np.random.default_rng(seed), 40)
        want = [loop_success_requirement(s) for s in loops]
        assert {s.dim for s in loops} == {1, 2, 3, 4}
        assert 0.0 in want
        got = success_requirements(loops)
        np.testing.assert_array_equal(got, want)
        assert [compute_success_requirement(s) for s in loops] == want

    def test_no_loops(self):
        assert success_requirements(()).shape == (0,)

    def test_permuting_the_loops_permutes_the_requirements(self, tmp_path):
        # certify's seed-1 config: 64 loops with n = 2, 3, 4. Each loop's value
        # comes from its own slice of its dimension's stack, wherever it sits.
        workloads = load_perfbench("workloads")
        path = tmp_path / "certify.json"
        path.write_bytes(workloads.config_bytes(workloads.make_config("certify", 1)))
        systems = parse_config(str(path)).systems
        assert len(systems) == 64 and {s.dim for s in systems} == {2, 3, 4}
        want = success_requirements(systems)
        for perm in (np.arange(64)[::-1], np.random.default_rng(0).permutation(64)):
            got = success_requirements([systems[k] for k in perm])
            assert got.tobytes() == want[perm].tobytes()

    def test_one_dimension_with_every_loop_at_zero(self):
        rng = np.random.default_rng(3)
        loops = [zero_requirement_system(rng, 3) for _ in range(3)]
        np.testing.assert_array_equal(success_requirements(loops), 0.0)

    @pytest.mark.parametrize(
        "order, first",
        [
            (("ok", "inadmissible", "boundary"), "inadmissible"),
            (("ok", "boundary", "inadmissible"), "boundary"),
            (("inadmissible", "ok", "boundary"), "inadmissible"),
            (("boundary", "inadmissible", "boundary"), "boundary"),
        ],
    )
    def test_first_failing_loop_in_order_is_named(self, order, first):
        # The inadmissible loop is scalar and the boundary loop is 2 x 2,
        # so the two failures sit in different dimension groups.
        rng = np.random.default_rng(11)
        make = {
            "ok": lambda: random_admissible_system(rng, dims=(2,)),
            "inadmissible": lambda: scalar_system(1.1, 1.05, rho=0.8),
            "boundary": lambda: boundary_system(2),
        }
        loops = [make[kind]() for kind in order]
        index = order.index(first)
        with pytest.raises(InfeasibleContractError) as err:
            success_requirements(loops)
        assert err.value.loop == index
        with pytest.raises(InfeasibleContractError) as want:
            loop_success_requirement(loops[index])
        assert str(err.value) == str(want.value)

    def test_boundary_loop_found_inside_its_group(self):
        # Only the factor of the boundary loop fails; the loops around it in
        # the same stack keep their per-loop values up to the error.
        rng = np.random.default_rng(12)
        loops = [random_admissible_system(rng, dims=(3,)) for _ in range(4)]
        loops.insert(2, boundary_system(3))
        with pytest.raises(InfeasibleContractError, match="boundary") as err:
            success_requirements(loops)
        assert err.value.loop == 2

    def test_single_loop_message_has_no_loop_prefix(self):
        with pytest.raises(InfeasibleContractError) as err:
            compute_success_requirement(boundary_system(2))
        assert str(err.value).startswith("closed-loop admissibility holds only on its boundary")
        assert err.value.loop == 0


class TestExpectedLyapunovNext:
    def test_matches_mode_mixture(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = random_admissible_system(rng)
            x = rng.standard_normal(s.dim)
            p = float(rng.uniform(0.0, 1.0))
            xc = s.a_closed @ x
            xo = s.a_open @ x
            want = (
                p * float(xc @ s.lyap_matrix @ xc)
                + (1.0 - p) * float(xo @ s.lyap_matrix @ xo)
                + float(np.trace(s.lyap_matrix @ s.noise_cov))
            )
            assert expected_lyapunov_next(s, x, p) == pytest.approx(want, rel=1e-12)

    def test_contract_holds_at_the_requirement_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = random_admissible_system(rng)
            c = compute_success_requirement(s)
            trpw = float(np.trace(s.lyap_matrix @ s.noise_cov))
            for _ in range(5):
                x = rng.standard_normal(s.dim) * rng.uniform(0.5, 5.0)
                v = float(x @ s.lyap_matrix @ x)
                bound = s.decay_rate * v + trpw
                assert expected_lyapunov_next(s, x, c) <= bound + 1e-9 * max(1.0, v)

    def test_contract_breaks_just_below_the_requirement(self):
        # The top eigenvector of the whitened pencil at p < c is a state
        # where the one-step mean must overshoot the bound.
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = random_admissible_system(rng)
            c = compute_success_requirement(s)
            p_drop = max(c - 1e-3, 0.5 * c)
            pencil = (
                p_drop * s.gram_closed()
                + (1.0 - p_drop) * s.gram_open()
                - s.decay_rate * s.lyap_matrix
            )
            ell = np.linalg.cholesky(s.lyap_matrix)
            wh = np.linalg.solve(ell, np.linalg.solve(ell, pencil.T).T)
            _, vecs = np.linalg.eigh(0.5 * (wh + wh.T))
            x = 1e3 * np.linalg.solve(ell.T, vecs[:, -1])
            v = float(x @ s.lyap_matrix @ x)
            trpw = float(np.trace(s.lyap_matrix @ s.noise_cov))
            assert expected_lyapunov_next(s, x, p_drop) > s.decay_rate * v + trpw


class TestSteadyStateCostBound:
    def test_scalar_reference_value(self):
        assert steady_state_cost_bound(scalar_system(1.1, 0.5)) == pytest.approx(5.0)

    def test_closed_form(self):
        rng = np.random.default_rng(5)
        s = random_admissible_system(rng)
        want = float(np.trace(s.lyap_matrix @ s.noise_cov)) / (1.0 - s.decay_rate)
        assert steady_state_cost_bound(s) == pytest.approx(want, rel=1e-12)


class TestAssembleExampleLoop:
    def test_block_structure(self):
        system, m_closed, m_open = assemble_example_loop(
            example_pair(), lyap_matrix=np.eye(2), decay_rate=0.9
        )
        np.testing.assert_allclose(system.a_closed, [[0.45, 0.0], [0.1, 0.2]])
        np.testing.assert_allclose(system.a_open, [[1.05, 0.0], [0.0, 0.2]])
        np.testing.assert_allclose(m_closed, [[1.0, -0.6], [0.0, 0.1]])
        np.testing.assert_allclose(m_open, [[1.0, 0.0], [0.0, 0.0]])

    def test_closed_mode_noise_covariance(self):
        system, m_closed, _ = assemble_example_loop(
            example_pair(), lyap_matrix=np.eye(2), decay_rate=0.9
        )
        joint = np.diag([0.5, 0.2])
        np.testing.assert_allclose(
            system.noise_cov, m_closed @ joint @ m_closed.T, atol=1e-15
        )

    def test_worst_mode_picks_the_larger_trace(self):
        # The closed path re-injects measurement noise, so its trace
        # dominates; "worst" must agree with "closed" here.
        closed, _, _ = assemble_example_loop(
            example_pair(), lyap_matrix=np.eye(2), decay_rate=0.9, noise_mode="closed"
        )
        worst, _, _ = assemble_example_loop(
            example_pair(), lyap_matrix=np.eye(2), decay_rate=0.9, noise_mode="worst"
        )
        np.testing.assert_allclose(worst.noise_cov, closed.noise_cov)

    def test_rejects_unknown_noise_mode(self):
        with pytest.raises(ValueError):
            assemble_example_loop(
                example_pair(), lyap_matrix=np.eye(2), decay_rate=0.9, noise_mode="open"
            )

    def test_rejects_wrong_lyapunov_shape(self):
        with pytest.raises(ValueError):
            assemble_example_loop(example_pair(), lyap_matrix=np.eye(3), decay_rate=0.9)

    def test_aggregate_feeds_the_requirement_computation(self):
        system, _, _ = assemble_example_loop(
            example_pair(), lyap_matrix=np.eye(2), decay_rate=0.9
        )
        c = compute_success_requirement(system)
        assert 0.0 < c < 1.0
        assert lmi_slack(c, system) <= 1e-8

    def test_pair_rejects_inconsistent_blocks(self):
        with pytest.raises(ValueError):
            PlantControllerPair(
                plant_a=[[1.05]],
                plant_b=[[1.0]],
                plant_c=[[1.0]],
                ctrl_f=[[0.2]],
                ctrl_fc=[[0.0]],
                ctrl_g=np.zeros((2, 1)),
                ctrl_k=[[0.0]],
                ctrl_kc=[[0.0]],
                ctrl_l=[[-0.6]],
                process_noise_cov=[[0.5]],
                meas_noise_cov=[[0.2]],
            )
