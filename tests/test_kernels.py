import math

import numpy as np
import pytest

from helpers import block_scalar_recursion, loop_state_recursion
from raccess._kernels import backend_name, state_recursion


def stable_pair(rng, n):
    """Two random mode matrices scaled well inside the unit circle."""
    scale = rng.uniform(0.3, 0.45) / np.sqrt(n)
    a_c = rng.standard_normal((n, n)) * scale
    a_o = rng.standard_normal((n, n)) * scale
    return a_c, a_o


def random_inputs(seed, n, slots, loops=1):
    """Kernel inputs for ``loops`` loops: (a_closed, a_open, gamma, noise, x0)."""
    rng = np.random.default_rng(seed)
    pairs = [stable_pair(rng, n) for _ in range(loops)]
    a_c = np.stack([p[0] for p in pairs])
    a_o = np.stack([p[1] for p in pairs])
    gamma = (rng.random((loops, slots)) < 0.45).astype(np.uint8)
    noise = rng.standard_normal((loops, slots, n))
    x0 = rng.standard_normal((loops, n))
    return a_c, a_o, gamma, noise, x0


def run_kernel(a_c, a_o, gamma, noise, x0):
    """The kernel on a copy of the noise, which it writes the states over."""
    return state_recursion(a_c, a_o, gamma, noise.copy(), x0)


class TestBackendSelection:
    def test_backend_is_reported(self):
        assert backend_name() == "python"


class TestKernelAgainstLoopOracle:
    # Slot counts: blocks of one slot (1, 2); no tail (99 = 11 blocks of
    # 9); the longest tail, B - 1 = 9 slots after 10 blocks of 10 (109);
    # a tail of 8 after 32 blocks of 31 (1000); a long run (200k).
    @pytest.mark.parametrize("slots", [1, 2, 99, 109, 1000, 200_000])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_agrees_on_stable_dynamics(self, n, slots):
        args = random_inputs(100 + n, n, slots)
        out = run_kernel(*args)
        assert out.shape == (1, slots, n)
        np.testing.assert_allclose(
            out, loop_state_recursion(*args), rtol=0.0, atol=1e-12
        )

    def test_first_scalar_block_is_the_loops_own_arithmetic(self):
        # The first block starts from x0 itself, and a scalar step is one
        # product and one sum, so its states are bit-identical; later
        # blocks start from chained states and agree to round-off.
        rng = np.random.default_rng(1)
        a_c = np.array([[[0.5]]])
        a_o = np.array([[[1.1]]])
        slots = 2000
        gamma = (rng.random((1, slots)) < 0.5).astype(np.uint8)
        noise = rng.standard_normal((1, slots, 1))
        x0 = np.array([[0.0]])
        out = run_kernel(a_c, a_o, gamma, noise, x0)
        oracle = loop_state_recursion(a_c, a_o, gamma, noise, x0)
        block = math.isqrt(slots)
        np.testing.assert_array_equal(out[:, :block], oracle[:, :block])
        np.testing.assert_allclose(out, oracle, rtol=1e-12, atol=1e-12)

    def test_non_contiguous_noise(self):
        a_c, a_o, gamma, _, x0 = random_inputs(5, 3, 1000)
        wide = np.random.default_rng(6).standard_normal((1, 1000, 6))
        noise = wide[:, :, ::2]
        assert not noise.flags.c_contiguous
        out = state_recursion(a_c, a_o, gamma, noise, x0)
        np.testing.assert_array_equal(
            out, state_recursion(a_c, a_o, gamma, np.ascontiguousarray(noise), x0)
        )
        np.testing.assert_allclose(
            out, loop_state_recursion(a_c, a_o, gamma, noise, x0), rtol=0.0, atol=1e-12
        )


class TestScalarGather:
    # 29,999 = 173 blocks of 173 with a tail of 70; 30,000 has a tail of 71.
    @pytest.mark.parametrize("slots", [1, 17, 29_999, 30_000])
    @pytest.mark.parametrize("loops", [1, 2, 5])
    def test_is_the_two_product_block_arithmetic(self, loops, slots):
        # Gathering each slot's coefficient once keeps every bit of the
        # block arithmetic that computed both products per slot.
        args = random_inputs(31 * loops + slots, 1, slots, loops)
        np.testing.assert_array_equal(run_kernel(*args), block_scalar_recursion(*args))

    def test_keeps_the_bits_of_diverging_loops(self):
        # Overflow to inf, and inf * 0 = nan, land on the same slots.
        a_c, a_o, gamma, noise, x0 = random_inputs(3, 1, 5000, 2)
        a_o = np.array([[[40.0]], [[-35.0]]])
        a_c[1] = 0.0
        gamma[1] = 0
        gamma[1, 4000] = 1  # one delivery after loop 1 has reached -inf or inf
        out = run_kernel(a_c, a_o, gamma, noise, x0)
        assert np.isinf(out).any() and np.isnan(out).any()
        np.testing.assert_array_equal(out, block_scalar_recursion(a_c, a_o, gamma, noise, x0))


class TestBatchedCall:
    @pytest.mark.parametrize("slots", [1, 2, 109, 1000])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("loops", [1, 3])
    def test_equals_one_call_per_loop(self, loops, n, slots):
        # Every loop's states carry the same bits in a batch as alone.
        a_c, a_o, gamma, noise, x0 = random_inputs(7 * n + slots, n, slots, loops)
        out = run_kernel(a_c, a_o, gamma, noise, x0)
        assert out.shape == (loops, slots, n)
        for ell in range(loops):
            one = slice(ell, ell + 1)
            alone = run_kernel(a_c[one], a_o[one], gamma[one], noise[one], x0[one])
            np.testing.assert_array_equal(out[one], alone)

    def test_writes_the_states_over_writable_noise(self):
        args = random_inputs(9, 2, 300, loops=2)
        noise = args[3].copy()
        out = state_recursion(*args[:3], noise, args[4])
        assert out is noise
        np.testing.assert_array_equal(out, run_kernel(*args))

    @pytest.mark.parametrize("layout", ["read_only", "strided", "float32"])
    def test_leaves_other_noise_unmodified(self, layout):
        a_c, a_o, gamma, noise, x0 = random_inputs(10, 2, 300, loops=2)
        if layout == "read_only":
            given = noise.copy()
            given.setflags(write=False)
        elif layout == "strided":
            given = np.repeat(noise, 2, axis=2)[:, :, ::2]
        else:
            given = noise.astype(np.float32)
            noise = given.astype(float)
        before = given.copy()
        out = state_recursion(a_c, a_o, gamma, given, x0)
        np.testing.assert_array_equal(given, before)
        assert not np.shares_memory(out, given)
        np.testing.assert_array_equal(out, run_kernel(a_c, a_o, gamma, noise, x0))


class TestRecursionContract:
    def test_matches_a_hand_rolled_loop(self):
        rng = np.random.default_rng(8)
        n, slots = 3, 50
        a_c, a_o = stable_pair(rng, n)
        gamma = (rng.random(slots) < 0.5).astype(np.uint8)
        noise = rng.standard_normal((slots, n))
        x0 = rng.standard_normal(n)
        out = state_recursion(
            a_c[None], a_o[None], gamma[None], noise[None].copy(), x0[None]
        )[0]
        x = x0.copy()
        for k in range(slots):
            a = a_c if gamma[k] else a_o
            x = a @ x + noise[k]
            np.testing.assert_allclose(out[k], x, rtol=0.0, atol=1e-12)

    def test_accepts_read_only_inputs(self):
        args = random_inputs(12, 2, 20)
        for arr in args:
            arr.setflags(write=False)
        out = state_recursion(*args)
        assert out.shape == (1, 20, 2)
        np.testing.assert_allclose(
            out, loop_state_recursion(*args), rtol=0.0, atol=1e-12
        )
