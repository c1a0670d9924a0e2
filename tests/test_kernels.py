import math

import numpy as np
import pytest

from helpers import loop_state_recursion
from raccess._kernels import backend_name, state_recursion


def stable_pair(rng, n):
    """Two random mode matrices scaled well inside the unit circle."""
    scale = rng.uniform(0.3, 0.45) / np.sqrt(n)
    a_c = rng.standard_normal((n, n)) * scale
    a_o = rng.standard_normal((n, n)) * scale
    return a_c, a_o


def random_inputs(seed, n, slots):
    rng = np.random.default_rng(seed)
    a_c, a_o = stable_pair(rng, n)
    gamma = (rng.random(slots) < 0.45).astype(np.uint8)
    noise = rng.standard_normal((slots, n))
    x0 = rng.standard_normal(n)
    return a_c, a_o, gamma, noise, x0


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
        out = state_recursion(*args)
        assert out.shape == (slots, n)
        np.testing.assert_allclose(
            out, loop_state_recursion(*args), rtol=0.0, atol=1e-12
        )

    def test_first_scalar_block_is_the_loops_own_arithmetic(self):
        # The first block starts from x0 itself, and a scalar step is one
        # product and one sum, so its states are bit-identical; later
        # blocks start from chained states and agree to round-off.
        rng = np.random.default_rng(1)
        a_c = np.array([[0.5]])
        a_o = np.array([[1.1]])
        slots = 2000
        gamma = (rng.random(slots) < 0.5).astype(np.uint8)
        noise = rng.standard_normal((slots, 1))
        x0 = np.array([0.0])
        out = state_recursion(a_c, a_o, gamma, noise, x0)
        oracle = loop_state_recursion(a_c, a_o, gamma, noise, x0)
        block = math.isqrt(slots)
        np.testing.assert_array_equal(out[:block], oracle[:block])
        np.testing.assert_allclose(out, oracle, rtol=1e-12, atol=1e-12)

    def test_non_contiguous_noise(self):
        a_c, a_o, gamma, _, x0 = random_inputs(5, 3, 1000)
        wide = np.random.default_rng(6).standard_normal((1000, 6))
        noise = wide[:, ::2]
        assert not noise.flags.c_contiguous
        out = state_recursion(a_c, a_o, gamma, noise, x0)
        np.testing.assert_array_equal(
            out, state_recursion(a_c, a_o, gamma, np.ascontiguousarray(noise), x0)
        )
        np.testing.assert_allclose(
            out, loop_state_recursion(a_c, a_o, gamma, noise, x0), rtol=0.0, atol=1e-12
        )


class TestRecursionContract:
    def test_matches_a_hand_rolled_loop(self):
        rng = np.random.default_rng(8)
        n, slots = 3, 50
        a_c, a_o = stable_pair(rng, n)
        gamma = (rng.random(slots) < 0.5).astype(np.uint8)
        noise = rng.standard_normal((slots, n))
        x0 = rng.standard_normal(n)
        out = state_recursion(a_c, a_o, gamma, noise, x0)
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
        assert out.shape == (20, 2)
        np.testing.assert_allclose(
            out, loop_state_recursion(*args), rtol=0.0, atol=1e-12
        )
