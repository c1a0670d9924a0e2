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
over the noise; the one N-sized array the kernel allocates is the n = 1
coefficients below.

The two state dimensions share that structure and differ in how a slot's
mode acts. At n = 1 each slot's scalar coefficient is gathered once per
call, ``a = where(gamma, a_closed, a_open)``, so a block step is
``y *= a; y += w`` and ``phi *= a``: one rounded product per state, the
same bits as selecting between both products. At n > 1 a row state takes
both matrix products and keeps the delivered one, and a block map or a
tail state gathers its mode matrix and takes one product.
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
    gamma = np.asarray(gamma, dtype=bool)
    out = np.require(noise, dtype=float, requirements=["C", "A", "W"])
    n_loops, n_slots, n = out.shape
    if n == 1:
        slot_modes, step_states, step_maps, step_tail = _scalar_modes(a_closed, a_open, gamma)
        matmul = np.multiply  # a 1 x 1 product is one rounded multiplication
    else:
        slot_modes, step_states, step_maps, step_tail = _matrix_modes(a_closed, a_open, gamma)
        matmul = np.matmul

    block = max(math.isqrt(n_slots), 1)
    k = n_slots // block
    head = k * block
    # Views, not copies. Each slot's noise is read before its state is
    # written over it, in pass 3 and in the tail alike.
    mode_blocks = slot_modes[:, :head].reshape(n_loops, k, block)
    w_blocks = out[:, :head].reshape(n_loops, k, block, n)

    with np.errstate(over="ignore", invalid="ignore"):
        y = np.zeros((n_loops, k, n))
        phi = np.empty((n_loops, k, n, n))
        phi[...] = np.eye(n)
        for t in range(block):
            mode = mode_blocks[:, :, t]
            y = step_states(mode, y)
            y += w_blocks[:, :, t]
            phi = step_maps(mode, phi)

        starts = np.empty((n_loops, k, n))
        x = np.array(x0, dtype=float)[..., None]
        for c in range(k):
            starts[:, c] = x[..., 0]
            x = matmul(phi[:, c], x) + y[:, c, :, None]

        x = starts
        for t in range(block):
            x = step_states(mode_blocks[:, :, t], x)
            x += w_blocks[:, :, t]
            w_blocks[:, :, t] = x

        for t in range(head, n_slots):  # runs only when head >= 1
            out[:, t] = step_tail(slot_modes[:, t], out[:, t - 1]) + out[:, t]
    return out


def _scalar_modes(a_closed, a_open, gamma):
    """n = 1: each slot's mode is its coefficient, gathered once per call.

    Returns the (L, N) coefficients and the one-slot updates they drive:
    of (L, k, 1) row states and of (L, k, 1, 1) block maps, both in
    place, and of the tail's (L, 1) states.
    """
    coef = np.where(gamma, a_closed.reshape(-1, 1), a_open.reshape(-1, 1))

    def step_states(a, x):
        x *= a[..., None]
        return x

    def step_maps(a, phi):
        phi *= a[..., None, None]
        return phi

    def step_tail(a, x):
        return x * a[:, None]

    return coef, step_states, step_maps, step_tail


def _matrix_modes(a_closed, a_open, gamma):
    """n > 1: each slot's mode is its 0/1 delivery, selecting a matrix per step.

    Row states take both products and keep the delivered one; block maps
    and the tail's column states gather their mode (loop l's open and
    closed modes are rows 2l and 2l + 1 of a stack) and take one product.
    """
    n_loops, n = a_closed.shape[:2]
    modes = np.stack([a_open, a_closed], axis=1).reshape(2 * n_loops, n, n)
    pick = 2 * np.arange(n_loops)
    closed_t, open_t = a_closed.transpose(0, 2, 1), a_open.transpose(0, 2, 1)
    gamma = gamma.view(np.uint8)  # an index into ``modes`` as well as a mask

    def step_states(g, x):
        return np.where(g[..., None], np.matmul(x, closed_t), np.matmul(x, open_t))

    def step_maps(g, phi):
        # Gathering each block's mode beats computing both products.
        return np.matmul(modes.take(pick[:, None] + g, axis=0), phi)

    def step_tail(g, x):
        return np.matmul(modes.take(pick + g, axis=0), x[..., None])[..., 0]

    return gamma, step_states, step_maps, step_tail
