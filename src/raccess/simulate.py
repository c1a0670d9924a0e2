"""Slot-level Monte Carlo of the shared collision channel and the loops.

Per slot, every sensor draws its fade, applies its policy, and the
transmitted packets survive pairwise Bernoulli collision events and a
fade-dependent decode draw. The resulting delivery sequence switches
each loop between its closed and open dynamics.

Fades, transmit decisions, collision events, and decode events do not
depend on the plant states, so ``run_simulation`` precomputes them in
fixed-size vectorized chunks, with memory O(m * chunk), and hands the
only sequential part, the switched-state recursion, to the time-blocked
NumPy kernel in ``_kernels``, one call per run of loops of equal state
dimension.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from ._frozen import Frozen, frozen
from .channel import _check_counts, _count, link_success_probability

__all__ = [
    "UnstableSimulationError",
    "SimulationSettings",
    "SimMetrics",
    "GammaRateRecord",
    "DriftRecord",
    "run_simulation",
    "empirical_gamma_rate_check",
    "lyapunov_drift_check",
]

_CHUNK = 65536
# Noise floats (loops x slots x n) the kernel advances in one call.
_RUN_CELLS = 1 << 20
_NORM_LIMIT = 1e12
# Slots per block of the n > 1 reduction (see _quadratic_form).
_REDUCE_ROWS = 4096


class UnstableSimulationError(RuntimeError):
    """Raised when a simulated state trajectory leaves the stable range."""


def _psd_factor(w):
    """Factor F with F F' = W, valid for singular PSD covariances."""
    eigvals, eigvecs = np.linalg.eigh(w)
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


@frozen
class SimulationSettings(Frozen):
    """The settings of one reproducible simulation run, checked when built.

    Parameters
    ----------
    horizon : int
        Number of slots.
    seed : int
        Base seed; identical runs reproduce bit-identical metrics.
    burn_in : int or None
        Slots dropped from every metric. None, the default, drops
        horizon // 10: it stays None, so ``replace(settings, horizon=h)`` drops h // 10.
    thin : int
        Keep every thin-th slot in the trajectory record (0 disables).

    Each count is an integer, not a bool, kept as a Python int. A bad setting
    raises ValueError whose message starts with its name, as
    ``horizon must be >= 1, got 0``; ``check_horizon`` checks the horizon
    against the loops.
    """

    horizon: int = 200_000
    seed: int = 0
    burn_in: int = None
    thin: int = 0

    def __post_init__(self):
        _check_counts(self, "horizon", "seed", "thin")
        if self.burn_in is not None:
            _check_counts(self, "burn_in")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")
        if not 0 <= self.burn < self.horizon:
            raise ValueError(
                f"burn_in must lie in [0, horizon), got {self.burn} for horizon {self.horizon}"
            )
        if self.thin < 0:
            raise ValueError(f"thin must be >= 0, got {self.thin}")

    @property
    def burn(self):
        """The slots a run drops: ``burn_in``, or horizon // 10 if that is None."""
        return self.horizon // 10 if self.burn_in is None else self.burn_in

    def check_horizon(self, systems):
        """Raise ValueError unless a run over the loops ``systems`` fits NumPy's indices."""
        # The float arrays of horizon x m values and of a loop's horizon x n
        # states must have a byte count NumPy can index.
        width = max(len(systems), *(s.dim for s in systems))
        limit = np.iinfo(np.intp).max // (8 * width)
        if self.horizon > limit:
            raise ValueError(f"horizon must be at most {limit} for these loops, got {self.horizon}")


def _checked_policies(instance, policies):
    """``policies`` as a tuple, which must hold one policy per loop of ``instance``."""
    policies = tuple(policies)
    if len(policies) != instance.m:
        raise ValueError(f"{len(policies)} policies for {instance.m} loops")
    return policies


@frozen
class SimMetrics(Frozen):
    """Post-burn-in averages of one run, plus the optional thinned trace.

    ``trajectory`` holds the five columns ``(slot, system, v, tx, gamma)``
    as 1-D arrays (int64, int64, float64, bool, bool), one entry per kept
    slot and loop, slot-major, then by system.
    """

    empirical_cost: np.ndarray
    empirical_tx_rate: np.ndarray
    empirical_success_rate: np.ndarray
    horizon: int
    burn_in: int
    trajectory: tuple = None


@frozen
class GammaRateRecord(Frozen):
    """One link's empirical and analytic delivery rates and the z-score of their difference."""

    link: int
    empirical: float
    analytic: float
    z_score: float


@frozen
class DriftRecord(Frozen):
    """One loop's sampled E[V(x+)] at its probe state against the contract bound."""

    system: int
    sample_mean: float
    bound: float
    std_error: float
    z_score: float
    ok: bool


def _draw_gamma(policies, channels, qmat, rng, count):
    """Transmit and delivery indicators for ``count`` slots, drawn chunk by chunk.

    Each chunk's draw order is fixed (fades per link, transmit uniforms,
    collision uniforms per ordered pair, decode uniforms) so a seed pins
    the draw. Every uniform row is drawn into one reused buffer: the
    transmit and decode uniforms one link at a time, which consumes the
    generator exactly as one ``(m, chunk)`` draw would, and the collision
    uniforms one ordered pair ``(j, i)`` at a time, diagonal included and
    discarded, as one C-order ``(m, m, chunk)`` draw would. A chunk writes
    its transmit flags and deliveries straight into the outputs, so beside
    them the draw holds one reused chunk of fades and O(chunk) more.
    """
    m, q = len(policies), qmat.q
    tx = np.empty((m, count), dtype=bool)
    gamma = np.zeros((m, count), dtype=bool)
    fades = np.empty((m, min(count, _CHUNK)))
    row = np.empty(fades.shape[1])
    # A fade mean or curve rate near the float maximum overflows to inf, whose q is exact.
    with np.errstate(over="ignore"):
        for start in range(0, count, _CHUNK):
            stop = min(start + _CHUNK, count)
            h, u = fades[:, : stop - start], row[: stop - start]
            sent, got = tx[:, start:stop], gamma[:, start:stop]
            for i in range(m):
                h[i] = channels[i].dist.sample(rng, size=stop - start)
            for i, pol in enumerate(policies):
                rng.random(out=u)
                sent[i] = (h[i] >= pol.threshold) & (u < pol.rate)
            # ``got`` holds which packets collided until the decode draw.
            for j in range(m):
                for i in range(m):
                    rng.random(out=u)
                    if i != j:
                        got[i] |= sent[j] & (u < q[j, i])
            for i in range(m):
                rng.random(out=u)
                got[i] = sent[i] & ~got[i] & (u < channels[i].curve.value(h[i]))
    return tx, gamma


def _loop_runs(systems, horizon):
    """(start, stop) of each run of consecutive loops of equal state dimension.

    A run holds at most ``_RUN_CELLS // (horizon * n)`` loops, and at
    least one, so its noise buffer stays within ``_RUN_CELLS`` floats
    unless a single loop is larger.
    """
    start = 0
    while start < len(systems):
        n = systems[start].dim
        cap = max(_RUN_CELLS // (horizon * n), 1)
        stop = start + 1
        while stop < len(systems) and stop - start < cap and systems[stop].dim == n:
            stop += 1
        yield start, stop
        start = stop


def _quadratic_form(x, p):
    """v_k = x_k' P x_k for the states x of shape (slots, n).

    At n > 1 the product x P comes first, one block of ``_REDUCE_ROWS``
    slots at a time so that its temporary stays small: about 7x faster
    than the three-operand ``einsum`` on 30k slots at n = 4, and different
    from it in the last bits. Each slot's value does not depend on the
    blocks. At n = 1 the three-operand form is faster and gives the same
    bits.
    """
    if x.shape[1] == 1:
        return np.einsum("kn,nl,kl->k", x, p, x)
    v = np.empty(len(x))
    for start in range(0, len(x), _REDUCE_ROWS):
        block = x[start : start + _REDUCE_ROWS]
        np.einsum("kl,kl->k", block @ p, block, out=v[start : start + _REDUCE_ROWS])
    return v


def _mean_cost(v):
    """mean(v) as a float, inf only where some v is.

    A sum of finite v that overflows is taken again on v * 2**-64, which
    scales exactly, and scaled back.
    """
    with np.errstate(over="ignore"):
        cost = np.mean(v)
        if np.isinf(cost) and np.isfinite(v).all():
            cost = np.ldexp(np.mean(np.ldexp(v, -64)), 64)
    return float(cost)


def run_simulation(instance, policies, settings=SimulationSettings()):
    """Simulate the full horizon from x_0 = 0 and average the quadratic cost.

    ``instance`` gives the loops and the channel (``m``, ``systems``,
    ``channels``, ``collision``: a ProblemInstance or an ExperimentConfig).

    Each run of consecutive loops of one state dimension goes through the
    kernel in one call. The noise is still drawn loop by loop, in loop
    order, so the streams do not depend on how the loops are grouped.

    Returns
    -------
    SimMetrics

    Raises
    ------
    UnstableSimulationError
        If a loop's state norm passes 1e12 * max(1, sqrt(lambda_max(W))),
        W its ``noise_cov`` (reported with the first such loop, in loop
        order, its limit and its slot).
    """
    policies = _checked_policies(instance, policies)
    settings.check_horizon(instance.systems)
    m = instance.m
    horizon, burn, thin = settings.horizon, settings.burn, settings.thin
    rng = np.random.default_rng(settings.seed)
    tx, gamma = _draw_gamma(policies, instance.channels, instance.collision, rng, horizon)

    tx_rates = tx[:, burn:].mean(axis=1)
    success_rates = gamma[:, burn:].mean(axis=1)

    costs = np.empty(m)
    kept = np.arange(thin - 1, horizon, thin) if thin else np.arange(0)
    v_kept = np.empty((kept.size, m))

    for start, stop in _loop_runs(instance.systems, horizon):
        systems = instance.systems[start:stop]
        n = systems[0].dim
        noise = np.empty((stop - start, horizon, n))
        z = np.empty((horizon, n))
        for j, sys in enumerate(systems):
            rng.standard_normal(out=z)
            np.matmul(z, _psd_factor(sys.noise_cov).T, out=noise[j])
        del z
        states = _kernels.state_recursion(
            np.stack([s.a_closed for s in systems]),
            np.stack([s.a_open for s in systems]),
            gamma[start:stop],
            noise,
            np.zeros((stop - start, n)),
        )
        for i, sys, x in zip(range(start, stop), systems, states):
            limit = _NORM_LIMIT * math.sqrt(max(1.0, np.linalg.eigvalsh(sys.noise_cov)[-1]))
            with np.errstate(over="ignore", invalid="ignore"):
                norm_sq, bound = np.einsum("kn,kn->k", x, x), limit * limit
                over = np.isinf(norm_sq)
                if over.any() and np.isfinite(x[over]).all(axis=1).any():
                    # A finite state whose square overflows: compare on x * 2**-512.
                    small = np.ldexp(x, -512)
                    norm_sq, bound = np.einsum("kn,kn->k", small, small), np.ldexp(limit, -512) ** 2
                escaped = ~np.isfinite(norm_sq) | (norm_sq > bound)
                if np.any(escaped):
                    k = int(np.argmax(escaped))
                    raise UnstableSimulationError(
                        f"loop {i} state norm passed {limit:g} at slot "
                        f"{k + 1} of {horizon}; its access policy does not "
                        "stabilize it"
                    )
                v = _quadratic_form(x, sys.lyap_matrix)
            costs[i] = _mean_cost(v[burn:])
            v_kept[:, i] = v[kept]

    trajectory = None
    if thin:
        trajectory = (
            np.repeat(kept + 1, m),
            np.tile(np.arange(m), kept.size),
            v_kept.ravel(),
            tx.T[kept].ravel(),
            gamma.T[kept].ravel(),
        )
    return SimMetrics(
        empirical_cost=costs,
        empirical_tx_rate=tx_rates,
        empirical_success_rate=success_rates,
        horizon=horizon,
        burn_in=burn,
        trajectory=trajectory,
    )


def empirical_gamma_rate_check(instance, policies, n_slots, seed):
    """Compare slot-frequency deliveries against the analytic product form.

    Returns one record per link with the empirical frequency over
    ``n_slots``, the quadrature value, and the binomial z-score of their
    difference. ``instance`` and ``policies`` are read as in
    ``run_simulation``; ``seed`` seeds the draws. ``n_slots`` >= 1 and
    ``seed`` >= 0 are integers, not bools.
    """
    policies = _checked_policies(instance, policies)
    n_slots, seed = _count("n_slots", n_slots, 1), _count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    _, gamma = _draw_gamma(policies, instance.channels, instance.collision, rng, n_slots)
    analytic = link_success_probability(policies, instance.channels, instance.collision)
    records = []
    for i, ana in enumerate(analytic.tolist()):
        emp = float(np.mean(gamma[i]))
        se = math.sqrt(max(ana * (1.0 - ana), 0.0) / n_slots)
        if se == 0.0:
            z = 0.0 if emp == ana else math.inf
        else:
            z = (emp - ana) / se
        records.append(
            GammaRateRecord(link=i, empirical=emp, analytic=ana, z_score=z)
        )
    return records


def lyapunov_drift_check(instance, policies, x_probe, n_replications, seed):
    """Monte Carlo check of the expected one-step contract at probe states.

    Requires the policies to meet every link's delivery requirement
    (verified analytically first); the contract then bounds the
    conditional mean of the next quadratic value by
    rho V(x) + tr(P W) at every state.

    Parameters
    ----------
    instance : ProblemInstance
    policies : sequence of AccessPolicy
        One per loop.
    x_probe : sequence of ndarray
        One probe state per loop.
    n_replications : int
        At least 2, which a standard error needs.
    seed : int
        At least 0. Both counts are integers, not bools.

    Returns
    -------
    list of DriftRecord
        Sample mean, bound, standard error, z-score, and the 4-sigma
        verdict per loop.
    """
    policies = _checked_policies(instance, policies)
    n_replications = _count("n_replications", n_replications, 2)
    seed = _count("seed", seed, 0)
    if len(x_probe) != instance.m:
        raise ValueError(f"{len(x_probe)} probe states for {instance.m} loops")
    link = link_success_probability(policies, instance.channels, instance.collision)
    for i, prob in enumerate(link.tolist()):
        if prob < instance.success_targets[i] - 1e-9:
            raise ValueError(
                f"policies deliver {prob:.6f} on link {i}, below its "
                f"requirement {instance.success_targets[i]:.6f}; the drift bound "
                "does not apply"
            )
    rng = np.random.default_rng(seed)
    _, gamma = _draw_gamma(policies, instance.channels, instance.collision, rng, n_replications)
    records = []
    for i, sys in enumerate(instance.systems):
        x = np.asarray(x_probe[i], dtype=float).reshape(-1)
        if x.shape[0] != sys.dim:
            raise ValueError(
                f"probe state for loop {i} has length {x.shape[0]}, expected {sys.dim}"
            )
        z = rng.standard_normal((n_replications, sys.dim))
        noise = z @ _psd_factor(sys.noise_cov).T
        base_closed = sys.a_closed @ x
        base_open = sys.a_open @ x
        nxt = np.where(gamma[i][:, None], base_closed, base_open) + noise
        v_next = np.einsum("rn,nl,rl->r", nxt, sys.lyap_matrix, nxt)
        mean = float(np.mean(v_next))
        se = float(np.std(v_next, ddof=1) / math.sqrt(n_replications))
        v_now = float(x @ sys.lyap_matrix @ x)
        bound = sys.decay_rate * v_now + float(
            np.trace(sys.lyap_matrix @ sys.noise_cov)
        )
        if se == 0.0:
            z_score = 0.0 if mean <= bound else math.inf
        else:
            z_score = (mean - bound) / se
        records.append(
            DriftRecord(
                system=i,
                sample_mean=mean,
                bound=bound,
                std_error=se,
                z_score=z_score,
                ok=mean <= bound + 4.0 * se,
            )
        )
    return records
