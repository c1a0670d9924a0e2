"""Switched-state recursion of the simulation, time-blocked in NumPy.

``state_recursion`` computes

    x_{k+1} = A_closed x_k + w_k   if gamma_k
            = A_open   x_k + w_k   otherwise

for a precomputed delivery sequence gamma and noise block w. The
recursion is sequential in time, so a per-slot loop pays one Python step
per slot. Instead the first ``k * B`` slots are cut into ``k`` blocks of
``B = isqrt(N)`` slots, and each NumPy call advances every block by one
slot:

1. from a zero state, each block's affine map ``x -> Phi_c x + y_c``;
2. a loop over the blocks chains those maps into each block's start
   state;
3. from those start states, the per-slot update again, writing the
   states.

The last ``N - k * B < B`` slots run one by one. Every state is the
per-slot update applied to a start state that is exact up to rounding,
so the result matches a plain per-slot loop to round-off, not bit for
bit. The cost is O(sqrt(N)) NumPy calls and O(N n^3) arithmetic (the
block maps are n x n products), with no copy of the noise.
"""

import math

import numpy as np

__all__ = ["backend_name", "state_recursion"]


def backend_name():
    """Name of the recursion implementation, recorded with benchmark results."""
    return "python"


def state_recursion(a_closed, a_open, gamma, noise, x0):
    """Run the two-mode linear recursion, returning every post-update state.

    Parameters
    ----------
    a_closed, a_open : ndarray, shape (n, n)
    gamma : ndarray, shape (N,), 0/1 or bool per slot
    noise : ndarray, shape (N, n)
    x0 : ndarray, shape (n,)

    Returns
    -------
    ndarray, shape (N, n)
        States x_1 .. x_N.
    """
    a_closed = np.asarray(a_closed, dtype=float)
    a_open = np.asarray(a_open, dtype=float)
    # 0/1 per slot: a mask for np.where and an index into ``modes``.
    gamma = np.asarray(gamma, dtype=bool).view(np.uint8)
    modes = np.stack([a_open, a_closed])
    n_slots, n = gamma.shape[0], x0.shape[0]
    out = np.empty((n_slots, n))

    block = max(math.isqrt(n_slots), 1)
    k = n_slots // block
    head = k * block
    # Views, not copies: a copy of the noise would raise peak memory.
    g_blocks = gamma[:head].reshape(k, block)
    w_blocks = noise[:head].reshape(k, block, n)
    out_blocks = out[:head].reshape(k, block, n)
    closed_t, open_t = a_closed.T, a_open.T

    with np.errstate(over="ignore", invalid="ignore"):
        y = np.zeros((k, n))
        phi = np.broadcast_to(np.eye(n), (k, n, n))
        for t in range(block):
            g = g_blocks[:, t, None]
            y = np.where(g, y @ closed_t, y @ open_t) + w_blocks[:, t]
            # Gathering each block's mode beats computing both products.
            phi = modes[g_blocks[:, t]] @ phi

        starts = np.empty((k, n))
        x = np.array(x0, dtype=float)
        for c in range(k):
            starts[c] = x
            x = phi[c] @ x + y[c]

        x = starts
        for t in range(block):
            g = g_blocks[:, t, None]
            x = np.where(g, x @ closed_t, x @ open_t) + w_blocks[:, t]
            out_blocks[:, t] = x

        for t in range(head, n_slots):  # runs only when head >= 1
            out[t] = modes[gamma[t]] @ out[t - 1] + noise[t]
    return out
