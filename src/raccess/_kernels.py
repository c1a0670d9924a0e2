"""Switched-state recursion of the simulation, time-blocked in NumPy.

``state_recursion`` computes, for each of L loops of one state
dimension n,

    x_{k+1} = A_closed x_k + w_k   if gamma_k
            = A_open   x_k + w_k   otherwise

for a precomputed delivery sequence gamma and noise block w. The
recursion is sequential in time, so a per-slot loop pays one Python step
per slot and loop. Instead the first ``k * B`` slots are cut into ``k``
blocks of ``B = isqrt(N)`` slots, and each NumPy call advances every
block of every loop by one slot:

1. from a zero state, each block's affine map ``x -> Phi_c x + y_c``;
2. a loop over the blocks chains those maps into each block's start
   state;
3. from those start states, the per-slot update again, writing the
   states.

The last ``N - k * B < B`` slots run one by one. Every state is the
per-slot update applied to a start state that is exact up to rounding,
so the result matches a plain per-slot loop to round-off, not bit for
bit. Each loop's states are the same bits whether it runs alone or in a
batch: the products are per-loop, per-block matrix products either way.
The cost is O(sqrt(N)) NumPy calls per batch of loops and O(L N n^3)
arithmetic (the block maps are n x n products). The states are written
over the noise, so the kernel allocates no N-sized array of its own.
"""

import math

import numpy as np

__all__ = ["backend_name", "state_recursion"]


def backend_name():
    """Name of the recursion implementation, recorded with benchmark results."""
    return "python"


def state_recursion(a_closed, a_open, gamma, noise, x0):
    """Run L two-mode linear recursions, returning every post-update state.

    Parameters
    ----------
    a_closed, a_open : ndarray, shape (L, n, n)
    gamma : ndarray, shape (L, N), 0/1 or bool per slot
    noise : ndarray, shape (L, N, n)
        Overwritten with the states when it is a writable, C-contiguous
        float64 array; otherwise a copy is, and ``noise`` is left as it
        was. Use the returned array either way.
    x0 : ndarray, shape (L, n)

    Returns
    -------
    ndarray, shape (L, N, n)
        States x_1 .. x_N of each loop.
    """
    a_closed = np.asarray(a_closed, dtype=float)
    a_open = np.asarray(a_open, dtype=float)
    # 0/1 per slot: a mask for np.where and an index into ``modes``.
    gamma = np.asarray(gamma, dtype=bool).view(np.uint8)
    out = np.require(noise, dtype=float, requirements=["C", "A", "W"])
    n_loops, n_slots, n = out.shape
    # Loop l's open and closed modes are rows 2l and 2l + 1; ``take`` of
    # ``pick + gamma`` gathers each block's mode.
    modes = np.stack([a_open, a_closed], axis=1).reshape(2 * n_loops, n, n)
    pick = 2 * np.arange(n_loops)[:, None]
    # A 1 x 1 product is one rounded multiplication either way; the
    # elementwise one skips matmul's per-matrix dispatch.
    matmul = np.multiply if n == 1 else np.matmul

    block = max(math.isqrt(n_slots), 1)
    k = n_slots // block
    head = k * block
    # Views, not copies. Each slot's noise is read before its state is
    # written over it, in pass 3 and in the tail alike.
    g_blocks = gamma[:, :head].reshape(n_loops, k, block)
    w_blocks = out[:, :head].reshape(n_loops, k, block, n)
    closed_t, open_t = a_closed.transpose(0, 2, 1), a_open.transpose(0, 2, 1)

    with np.errstate(over="ignore", invalid="ignore"):
        y = np.zeros((n_loops, k, n))
        phi = np.broadcast_to(np.eye(n), (n_loops, k, n, n))
        for t in range(block):
            g = g_blocks[:, :, t]
            y = np.where(g[..., None], matmul(y, closed_t), matmul(y, open_t))
            y += w_blocks[:, :, t]
            # Gathering each block's mode beats computing both products.
            phi = matmul(modes.take(pick + g, axis=0), phi)

        starts = np.empty((n_loops, k, n))
        x = np.array(x0, dtype=float)[..., None]
        for c in range(k):
            starts[:, c] = x[..., 0]
            x = matmul(phi[:, c], x) + y[:, c, :, None]

        x = starts
        for t in range(block):
            g = g_blocks[:, :, t, None]
            x = np.where(g, matmul(x, closed_t), matmul(x, open_t))
            x += w_blocks[:, :, t]
            w_blocks[:, :, t] = x

        for t in range(head, n_slots):  # runs only when head >= 1
            mode = modes.take(pick[:, 0] + gamma[:, t], axis=0)
            out[:, t] = matmul(mode, out[:, t - 1, :, None])[..., 0] + out[:, t]
    return out
