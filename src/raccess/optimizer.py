"""Dual subgradient design of channel-aware access policies.

The design problem minimizes total expected transmit power subject to
each link's delivery probability meeting its contract requirement c_i.
The product form of the delivery probability separates after taking
logs and introducing auxiliary shares beta:

    log c_i <= log beta_ii + sum_{j != i} log(1 - beta_ji),
    beta_ii <= E[alpha_i q],    beta_ji >= E[alpha_j] q_ji,

with beta boxed inside (0, 1), or 0 for a pair that cannot collide
(q_ji = 0). Dualizing all three families with multipliers lambda_i >= 0
(contracts) and nu_ij >= 0 (shares) makes the Lagrangian separable: each
sensor's best alpha is a fade threshold set by its prices, each beta
entry has a closed-form boxed minimizer, and the duals ascend along
subgradients with diminishing steps a/(b+t).
"""

from __future__ import annotations

import math
from collections import deque, namedtuple

import numpy as np

from ._frozen import Frozen, frozen
from .channel import (
    MonteCarlo, _check_counts, delivery_product, draw_transmit_sample, threshold_success,
)

# Not called here; perfbench's tracer looks both names up in this module.
from .channel import expected_policy_rate, expected_policy_success  # noqa: F401
from .policy import threshold_policy
from .serialize import write_csv

__all__ = [
    "DivergenceError",
    "ProblemInstance",
    "StepSchedule",
    "StopRule",
    "OptimizerSettings",
    "IterationTrace",
    "OptimizationResult",
    "DualPeriod",
    "beta_update",
    "primal_policies",
    "subgradient",
    "dual_step",
    "stepsize",
    "lagrangian_value",
    "dual_periods",
    "run_algorithm1",
]

DEFAULT_BOX = (1e-3, 1.0 - 1e-3)


class DivergenceError(RuntimeError):
    """Raised when the dual iterates blow up (requirements likely infeasible)."""


@frozen
class ProblemInstance(Frozen):
    """One shared-channel design problem.

    Parameters
    ----------
    systems : list of SwitchedSystem
    channels : list of FadingChannel
    collision : CollisionMatrix
    tx_powers : array_like
        Finite positive per-transmission energy prices p_i.
    success_targets : array_like
        Delivery requirements c_i, strictly inside (0, 1).
    """

    systems: tuple
    channels: tuple
    collision: object
    tx_powers: np.ndarray
    success_targets: np.ndarray

    def __post_init__(self):
        systems = tuple(self.systems)
        channels = tuple(self.channels)
        m = len(systems)
        if m < 1:
            raise ValueError("need at least one loop")
        if len(channels) != m:
            raise ValueError(f"{len(channels)} channels for {m} systems")
        if self.collision.m != m:
            raise ValueError(
                f"collision matrix is {self.collision.m}x{self.collision.m} for m={m}"
            )
        object.__setattr__(self, "systems", systems)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "tx_powers", _check_entries(self.tx_powers, m, "tx_powers"))
        object.__setattr__(
            self, "success_targets", _check_entries(self.success_targets, m, "success_targets", 1.0)
        )

    @property
    def m(self):
        return len(self.systems)


@frozen
class StepSchedule(Frozen):
    """Diminishing stepsize eps(t) = a / (b + t).

    Any positive constants keep the schedule square-summable with a
    divergent sum; the defaults are sized so the dual variables can cover
    the distance from the cold start to a typical fixed point within a
    few hundred periods.
    """

    a: float = 30.0
    b: float = 20.0

    def __post_init__(self):
        for name in ("a", "b"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name}: must be > 0, got {getattr(self, name)}")


@frozen
class StopRule(Frozen):
    """Combined stopping and divergence guards for the dual loop.

    Convergence requires both the worst constraint slack
    max_i (c_i - P(gamma_i = 1)) <= ``slack_tol`` and the sup-norm change
    of the duals over the last ``window`` periods <= ``dual_change_tol``.
    ``checker`` builds the test for one run, whose ring keeps copies of the
    last window + 1 dual vectors, or one when window >= max_periods. A run
    has at least one period, and neither tolerance may be NaN, under which
    its test could never pass (``dual_change_tol``) or never fail (``slack_tol``).
    The two counts must be integers, not bools, and are kept as Python ints.
    """

    max_periods: int = 5000
    slack_tol: float = 0.0
    dual_change_tol: float = 1e-3
    window: int = 100
    divergence_bound: float = 1e6

    def __post_init__(self):
        _check_counts(self, "max_periods", "window")
        for name, low in (("max_periods", 1), ("window", 0), ("dual_change_tol", 0)):
            if not getattr(self, name) >= low:  # a NaN tolerance fails too
                raise ValueError(f"{name}: must be >= {low}, got {getattr(self, name)}")
        if math.isnan(self.slack_tol):
            raise ValueError(f"slack_tol: must not be NaN, got {self.slack_tol}")
        if not self.divergence_bound > 0.0:
            raise ValueError(f"divergence_bound: must be > 0, got {self.divergence_bound}")

    def checker(self):
        """A new stop test for one run: shown each ``DualPeriod`` in turn, True once converged."""
        ring = deque(maxlen=self.window + 1 if self.window < self.max_periods else 1)

        def converged(period):
            ring.append(period.duals.copy())
            if len(ring) <= self.window or float(np.maximum.reduce(period.slack)) > self.slack_tol:
                return False
            change = float(np.maximum.reduce(np.abs(ring[-1] - ring[0])))
            return change <= self.dual_change_tol

        return converged


@frozen
class OptimizerSettings(Frozen):
    """The design loop's settings, checked when built.

    ``box`` bounds every share beta, kept as a ``(lo, hi)`` float pair with
    0 < lo < hi < 1; ``expectation_mode`` is ``"quadrature"`` (exact) or
    ``"mc"``, which samples as ``mc`` sets. The other fields check themselves.
    A bad box or mode raises ValueError whose message starts with its name.
    """

    schedule: StepSchedule = StepSchedule()
    stop: StopRule = StopRule()
    box: tuple = DEFAULT_BOX
    expectation_mode: str = "quadrature"
    mc: MonteCarlo = MonteCarlo()

    def __post_init__(self):
        try:
            lo, hi = map(float, self.box)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"box: must be a (lo, hi) pair of numbers, got {self.box!r}") from exc
        if not 0.0 < lo < hi < 1.0:
            raise ValueError(f"box must satisfy 0 < lo < hi < 1, got [{lo:g}, {hi:g}]")
        object.__setattr__(self, "box", (lo, hi))
        if (mode := self.expectation_mode) not in ("quadrature", "mc"):
            raise ValueError(f"expectation_mode: must be 'quadrature' or 'mc', got {mode!r}")


class IterationTrace:
    """Append-only per-period log of the dual loop, one float64 row per period.

    A row holds the period's O(m) columns: ``period``, ``stepsize``,
    ``objective``, then ``lambda_i``, ``rate_i``, ``success_i``,
    ``link_prob_i`` and ``slack_i`` for each sensor. The rows fill an array
    that starts with ``BLOCK`` rows and doubles when full; ``rows`` views
    the filled part, ``column`` copies one column out by name, and
    ``to_csv`` writes them all, with ``period`` as an integer. The nu and
    beta matrices are not kept: the result's ``state`` holds the last ones.
    """

    BLOCK = 64

    def __init__(self, m):
        self.columns = ["period", "stepsize", "objective"]
        for kind in ("lambda", "rate", "success", "link_prob", "slack"):
            self.columns += [f"{kind}_{i}" for i in range(m)]
        self._data = np.empty((self.BLOCK, len(self.columns)))
        self._len = 0

    def append(self, period, eps, objective, lam, rates, success, link, slack):
        n = self._len
        if n == self._data.shape[0]:
            grown = np.empty((2 * n, self._data.shape[1]))
            grown[:n] = self._data
            self._data = grown
        np.concatenate(
            ((period, eps, objective), lam, rates, success, link, slack), out=self._data[n]
        )
        self._len = n + 1

    @property
    def rows(self):
        return self._data[: self._len]

    def column(self, name):
        return self.rows[:, self.columns.index(name)].copy()

    def __len__(self):
        return self._len

    def to_csv(self, path):
        """Write every column, one row per period."""
        rows = self.rows
        write_csv(path, self.columns, [rows[:, 0].astype(np.int64), *rows[:, 1:].T])


@frozen
class OptimizationResult(Frozen):
    """The designed policies, the trace, whether the loop converged, and its last period.

    ``state`` is that last ``DualPeriod``, as yielded: its duals priced the policies.
    """

    policies: tuple
    state: DualPeriod
    trace: IterationTrace
    converged: bool
    periods: int


def stepsize(t, schedule=StepSchedule()):
    """eps(t) = a / (b + t); summable squares, divergent sum."""
    if t < 0:
        raise ValueError(f"period must be >= 0, got {t}")
    return schedule.a / (schedule.b + t)


def _check_entries(values, m, name, top=math.inf):
    """``values`` as a new read-only vector of ``m`` finite floats inside (0, ``top``).

    The ValueError's message starts with ``name``, as config errors do.
    """
    try:
        v = np.array(values, dtype=float).reshape(-1)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{name}: {exc}") from exc
    if v.shape[0] != m:
        raise ValueError(f"{name}: expected {m} entries, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name}: all entries must be finite")
    if not ((v > 0.0) & (v < top)).all():
        inside = "be positive" if top == math.inf else f"lie strictly inside (0, {top:g})"
        raise ValueError(f"{name}: all entries must {inside}")
    v.setflags(write=False)
    return v


def beta_update(lam, nu, box=DEFAULT_BOX, apart=None):
    """Boxed closed-form minimizers of the Lagrangian over the shares.

    Entry conventions follow the delivery product: beta[i, i] is link i's
    own-delivery share, beta[j, i] the share of link i surviving sensor
    j. The per-entry objectives are convex, so clipping the stationary
    point to the box is exact:

        beta[i, i] = clip(lam[i] / nu[i, i]),
        beta[j, i] = clip(1 - lam[i] / nu[i, j]),   j != i,

    with a zero dual in the denominator clipping to the upper and lower
    edge respectively. ``lam`` and ``nu`` are float arrays and ``box`` a
    ``(lo, hi)`` already checked to satisfy 0 < lo < hi < 1. The pairs j != i
    that cannot collide (q_ji = 0; the bool mask ``apart``) take beta[j, i] = 0.
    """
    lo, hi = box
    ratio = np.divide(lam[:, None], nu, out=np.full(nu.shape, np.inf), where=nu != 0.0)
    beta = np.subtract(1.0, ratio.T)
    beta.flat[:: lam.shape[0] + 1] = ratio.diagonal()  # the diagonal, via .flat
    # np.clip's float loop is max-then-min; the ufuncs skip its Python wrapper.
    np.minimum(np.maximum(beta, lo, out=beta), hi, out=beta)
    if apart is not None:
        beta[apart] = 0.0
    return beta


def primal_policies(nu, tx_powers, q_t, inverses):
    """Per-sensor fade thresholds minimizing the priced Lagrangian, as a list of floats.

    Sensor i is rewarded nu[i, i] per unit of own delivery and charged
    its transmit power p_i plus sum_{j != i} nu[j, i] q[i, j] for the
    expected erasures it inflicts, so it transmits exactly on the fades
    where nu[i, i] q(h) covers the charge: from q^{-1}(charge / nu[i, i])
    up. Every success curve rises from q(0) = 0 toward sup q = 1 and the
    charge is positive, so a ratio below 1 has an interior threshold, and
    a ratio of 1 or more, or a zero reward, prices the sensor out
    (threshold +inf). ``q_t`` is the collision matrix transposed and
    ``inverses[i]`` sensor i's ``curve.inverse``.
    """
    # q has a zero diagonal, so the j = i term adds nothing.
    charge = tx_powers + np.add.reduce(nu * q_t)
    thresholds = []
    for c, own, inverse in zip(charge.tolist(), nu.diagonal().tolist(), inverses):
        ratio = c / own if own > 0.0 else math.inf
        # Test the ratio itself: LogisticLogCurve.inverse(1.0) divides by zero.
        thresholds.append(inverse(ratio) if ratio < 1.0 else math.inf)
    return thresholds


def subgradient(beta, succ, rates, log_c, q, out):
    """Dual subgradients at the current primal measurements, written into ``out``.

    ``log_c`` holds log c_i. ``out`` is packed like the dual vector:
    s_lambda, with s_lambda[i] = log c_i - log beta_ii
    - sum_{j != i} log(1 - beta_ji), then s_nu row by row, with
    s_nu[i, i] = beta_ii - E[alpha_i q] and
    s_nu[i, j] = E[alpha_j] q_ji - beta_ji for j != i.
    """
    m = beta.shape[0]
    own = beta.diagonal()
    log_miss = np.log1p(-beta)
    log_miss.flat[:: m + 1] = 0.0  # the diagonal, via .flat
    s_lam = np.subtract(log_c, np.log(own), out=out[:m])
    s_lam -= np.add.reduce(log_miss)
    np.subtract(rates[:, None] * q, beta, out=out[m:].reshape(m, m).T)
    np.subtract(own, succ, out=out[m :: m + 1])  # the diagonal of s_nu


def dual_step(duals, step, eps):
    """Projected ascent in place: duals = max(duals + eps * step, 0); scales ``step`` too."""
    step *= eps
    duals += step
    np.maximum(duals, 0.0, out=duals)


def lagrangian_value(measured_rate, measured_success, beta, lam, nu, inst):
    """Evaluate the full Lagrangian at given primal measurements and duals."""
    m = inst.m
    q = inst.collision.q
    beta = np.asarray(beta, dtype=float)
    if np.any((beta < 0.0) | (beta >= 1.0) | (beta == 0.0) & (q != 0.0)) or 0.0 in beta.diagonal():
        raise ValueError("beta entries must lie strictly inside (0, 1), or be 0 where q_ji = 0")
    rate = np.asarray(measured_rate, dtype=float)
    succ = np.asarray(measured_success, dtype=float)
    value = float(np.dot(inst.tx_powers, rate))
    for i in range(m):
        gap = math.log(inst.success_targets[i]) - math.log(beta[i, i])
        for j in range(m):
            if j != i:
                gap -= math.log1p(-beta[j, i])
        value += lam[i] * gap
        value += nu[i, i] * (beta[i, i] - succ[i])
        for j in range(m):
            if j != i:
                value += nu[i, j] * (rate[j] * q[j, i] - beta[j, i])
    return value


def _measure(thresholds, channels, mc, rngs):
    """Per-sensor E[alpha] and E[alpha q] of the rules 1[h >= tau] for one period.

    Exact when ``mc`` is None; under a ``MonteCarlo`` ``mc``, sensor i
    estimates both from ``mc.samples`` fades of its own generator ``rngs[i]``.
    """
    if mc is None:
        rates = [ch.dist.survival(tau) for tau, ch in zip(thresholds, channels)]
        succ = [threshold_success(tau, ch) for tau, ch in zip(thresholds, channels)]
        return np.array(rates), np.array(succ)
    # A fade mean or curve rate near the float maximum overflows to inf, whose q is exact.
    with np.errstate(over="ignore"):
        pairs = [
            draw_transmit_sample(tau, ch, mc.samples, rng)
            for tau, ch, rng in zip(thresholds, channels, rngs)
        ]
    return np.array(pairs).T.copy()  # contiguous rows, as the exact branch gives


# A trace row's fields, in ``IterationTrace.append``'s order, then the period's arrays.
DualPeriod = namedtuple(
    "DualPeriod", "t eps objective lam rates succ link slack duals nu beta thresholds subgradient"
)


def dual_periods(inst, settings=OptimizerSettings()):
    """The dual loop as a generator of ``DualPeriod``s, at most ``settings.stop.max_periods``.

    From the cold start lambda = 1, nu_ii = p_i + 1, nu_ij = 0.1, each period
    prices the sensors into fade ``thresholds`` and shares ``beta`` (within
    ``settings.box``), measures ``rates`` E[alpha_i] and ``succ`` E[alpha_i q]
    (exactly, or under ``expectation_mode`` ``"mc"`` from ``mc.samples`` fades
    a period, only the transmitting ones drawn, on the i-th of m streams spawned
    by ``np.random.SeedSequence(mc.seed)``), takes its ``subgradient``, packed
    like ``duals``, and yields them with ``eps``, ``link``, the ``slack``
    c_i - link_i and the power ``objective``: ``objective + duals @ subgradient``
    is the Lagrangian there. Its step follows only when the next period is asked
    for, so the last record holds the duals that priced it. ``lam`` and ``nu``
    view ``duals`` (lambda_i, then nu_i_j row by row); that step overwrites
    ``duals`` and ``subgradient`` in place, so copy what you keep, and raises
    DivergenceError, naming its period, if a dual passes ``stop.divergence_bound``.
    The step functions and ``_measure`` are looked up by module name.
    """
    m = inst.m
    schedule, box, bound = settings.schedule, settings.box, settings.stop.divergence_bound
    mc = settings.mc if settings.expectation_mode == "mc" else None
    p, q, q_t = inst.tx_powers, inst.collision.q, inst.collision.q.T
    targets, log_c = inst.success_targets, np.log(inst.success_targets)
    inverses = [ch.curve.inverse for ch in inst.channels]
    apart = (q == 0.0) & ~np.eye(m, dtype=bool)  # the pairs that cannot collide
    apart = apart if apart.any() else None
    seeds = np.random.SeedSequence(mc.seed).spawn(m) if mc is not None else ()
    rngs = [np.random.default_rng(s) for s in seeds]
    duals = np.full(m + m * m, 0.1)
    lam, nu = duals[:m], duals[m:].reshape(m, m)
    lam[:] = 1.0
    np.add(p, 1.0, out=duals[m :: m + 1])
    step = np.empty_like(duals)
    for t in range(settings.stop.max_periods):
        eps = stepsize(t, schedule)
        beta = beta_update(lam, nu, box, apart)
        thresholds = primal_policies(nu, p, q_t, inverses)
        rates, succ = _measure(thresholds, inst.channels, mc, rngs)
        link = delivery_product(succ, rates, q)
        subgradient(beta, succ, rates, log_c, q, step)
        yield DualPeriod(
            t, eps, float(np.dot(p, rates)), lam, rates, succ, link, targets - link, duals, nu,
            beta, thresholds, step,
        )
        if t + 1 < settings.stop.max_periods:
            dual_step(duals, step, eps)
            top = float(np.maximum.reduce(duals))
            if top > bound:
                raise DivergenceError(
                    f"dual variables reached {top:g} at period {t}; the delivery requirements "
                    "are likely infeasible for this channel and collision configuration"
                )


def run_algorithm1(inst, settings=OptimizerSettings()):
    """Run ``dual_periods`` until ``settings.stop.checker`` fires, one trace row a period.

    However the run ends, converged or at ``max_periods``, its last period is
    the result's ``state``, and no step follows it.
    """
    trace, converged = IterationTrace(inst.m), settings.stop.checker()
    for period in dual_periods(inst, settings):
        trace.append(*period[:8])
        if done := converged(period):
            break
    policies = tuple(map(threshold_policy, period.thresholds))
    return OptimizationResult(policies, period, trace, done, len(trace))
