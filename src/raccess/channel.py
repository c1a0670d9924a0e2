"""Block-fading channel model and policy expectations.

Each sensor sees an i.i.d. per-slot fade h drawn from its own
distribution and, if it transmits, delivers with probability q(h) given
by a saturating success curve. Concurrent transmissions interact through
a pairwise collision matrix: sensor j's transmission erases sensor i's
packet with probability q_ji, independently across pairs and slots, so

    P(gamma_i = 1) = E[alpha_i(h_i) q(h_i)] * prod_{j != i} (1 - E[alpha_j] q_ji).

This module owns the fade distributions, the success-curve families, the
collision matrix, and the expectation operators used everywhere else.
Under alpha(h) = r 1[h >= tau] they are exact: r P(h >= tau), and
r E[q(h); h >= tau] from the curve's ``tail_mean`` (``threshold_success``
at r = 1), a closed form except on the logistic_log curve, which a fixed
composite Gauss-Legendre rule in log-fade integrates; ``measure`` gives
both at r = 1 for every sensor. Under ``MonteCarlo`` the design loop
estimates both for each sensor's threshold from one
``draw_transmit_sample`` call. Link success probabilities are exact.
"""

from __future__ import annotations

import math

import numpy as np

from ._frozen import Frozen, frozen

__all__ = [
    "ExponentialFading",
    "UniformFading",
    "SaturatingExpCurve",
    "LogisticLogCurve",
    "FadingChannel",
    "CollisionMatrix",
    "MonteCarlo",
    "sample_channel",
    "draw_transmit_sample",
    "expected_policy_rate",
    "expected_policy_success",
    "threshold_success",
    "measure",
    "link_success_probability",
    "delivery_product",
]

# Where LogisticLogCurve.tail_mean's panels end and break.
_TAIL_MASS = 1e-13
_KNEE_STEPS = (0, 1, -1, 2, -2, 4, -4, 8, -8, 16, -16, 32, -32)
_FADE_MASSES = (0.99, 0.9, 0.5, 0.1, 1e-2, 1e-4, 1e-8)
# 16-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial.legendre.leggauss(16)
# gives it: the positive nodes and their weights, mirrored below.
_GL_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL_WEIGHTS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
_GL_NODES = np.concatenate((-_GL_NODES[::-1], _GL_NODES))
_GL_WEIGHTS = np.concatenate((_GL_WEIGHTS[::-1], _GL_WEIGHTS))
# The largest sample size Generator.binomial takes (its n is a C long).
_MAX_SAMPLES = 2**63 - 1


@frozen
class ExponentialFading(Frozen):
    """Exponential fade magnitude with the given mean."""

    mean: float = 1.0

    def __post_init__(self):
        if not self.mean > 0.0:
            raise ValueError(f"mean must be positive, got {self.mean:g}")

    def sample(self, rng, size=None, lower=0.0):
        """I.i.d. fades given h >= lower: lower + Exp(mean), as the law is memoryless.

        Fills ``standard_exponential(size)`` and scales and shifts it in
        place. NumPy defines ``exponential(mean)`` as ``mean *
        standard_exponential()``, so the values and the generator's
        position are those of ``rng.exponential(self.mean, size)`` (plus
        lower when lower > 0), and the draw allocates only its ``size``
        floats.
        """
        h = rng.standard_exponential(size)
        h *= self.mean
        if lower > 0.0:
            h += lower
        return h

    def pdf(self, h):
        """Density at the float or ndarray fade levels h, elementwise; 0 below 0."""
        inv = 1.0 / self.mean
        return np.where(h >= 0.0, inv * np.exp(-h * inv), 0.0)

    def survival(self, h):
        """P(fade >= h) at the float fade level h."""
        return math.exp(-h / self.mean) if h >= 0.0 else 1.0

    def laplace_tail(self, lo, k):
        """E[exp(-k h); h >= lo] for k >= 0."""
        lo = max(lo, 0.0)
        return math.exp(-lo * (1.0 / self.mean + k)) / (1.0 + k * self.mean)

    def upper_cutoff(self, eps):
        """Point beyond which the tail mass is below eps."""
        return -self.mean * math.log(eps)

    @property
    def lower(self):
        return 0.0


@frozen
class UniformFading(Frozen):
    """Bounded fade magnitude, uniform on [low, high]."""

    low: float
    high: float

    def __post_init__(self):
        # A finite high also keeps sample's (high - lo) * u from giving inf or nan.
        if not 0.0 <= self.low < self.high < math.inf:
            raise ValueError(
                f"need 0 <= low < high < inf, got low={self.low:g} high={self.high:g}"
            )

    def sample(self, rng, size=None, lower=0.0):
        """I.i.d. fades given h >= lower: uniform on [max(lower, low), high].

        Fills ``random(size)`` and scales and shifts it in place. NumPy
        defines ``uniform(lo, high)`` as ``lo + (high - lo) * random()``,
        so the values and the generator's position are those of
        ``rng.uniform(lo, high, size)``, and the draw allocates only its
        ``size`` floats. At lower >= high every fade is ``high``.
        """
        lo = min(max(lower, self.low), self.high)
        h = rng.random(size)
        h *= self.high - lo
        h += lo
        return h

    def pdf(self, h):
        """Density at the float or ndarray fade levels h, elementwise; 0 off [low, high]."""
        return np.where((self.low <= h) & (h <= self.high), 1.0 / (self.high - self.low), 0.0)

    def survival(self, h):
        """P(fade >= h) at the float fade level h."""
        if h < self.low:
            return 1.0
        return (self.high - min(h, self.high)) / (self.high - self.low)

    def laplace_tail(self, lo, k):
        """E[exp(-k h); h >= lo] for k > 0."""
        lo = min(max(lo, self.low), self.high)
        width = -math.expm1(-k * (self.high - lo)) / (k * (self.high - self.low))
        return math.exp(-k * lo) * width

    def upper_cutoff(self, eps):
        return self.high

    @property
    def lower(self):
        return self.low


@frozen
class SaturatingExpCurve(Frozen):
    """Decode probability q(h) = 1 - exp(-kappa * gain * h).

    Strictly increasing from q(0) = 0 toward 1; ``gain`` scales the fade
    (e.g. a fixed transmit power multiplier). The rate ``kappa * gain`` must
    itself be a positive finite float: one that underflows to 0 or overflows
    to inf would leave ``inverse`` and ``tail_mean`` without a value.
    """

    kappa: float = 1.5
    gain: float = 1.0

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa:g}")
        if not self.gain > 0.0:
            raise ValueError(f"gain must be positive, got {self.gain:g}")
        if not 0.0 < self.kappa * self.gain < math.inf:
            raise ValueError(
                f"kappa * gain must lie inside (0, inf), got {self.kappa:g} * {self.gain:g}"
                f" = {self.kappa * self.gain:g}"
            )

    def value(self, h):
        """q(h) elementwise, in a new array."""
        h = np.asarray(h, dtype=float)
        return -np.expm1(-self.kappa * self.gain * h)

    def sum_values(self, h):
        """Sum of q(h) over the float array h, computed in h's buffer, which it overwrites.

        The same bits as ``np.sum(self.value(h))``: the sum of -expm1 is
        0.0 minus the sum of expm1, as negation is exact, and ``0.0 - s``
        gives +0.0, not -0.0, on an empty h.
        """
        h *= -self.kappa * self.gain
        np.expm1(h, out=h)
        return 0.0 - float(h.sum())

    def inverse(self, t):
        """Fade level at which the curve reaches t in (0, 1)."""
        return -math.log1p(-t) / (self.kappa * self.gain)

    def tail_mean(self, dist, lo):
        """E[q(h); h >= lo] in closed form: P(h >= lo) - E[exp(-k h); h >= lo]."""
        return dist.survival(lo) - dist.laplace_tail(lo, self.kappa * self.gain)


@frozen
class LogisticLogCurve(Frozen):
    """Decode probability logistic in log-fade: q(h) = h^s / (h^s + m^s)."""

    midpoint: float
    steepness: float

    def __post_init__(self):
        if not self.midpoint > 0.0:
            raise ValueError(f"midpoint must be positive, got {self.midpoint:g}")
        if not self.steepness > 0.0:
            raise ValueError(f"steepness must be positive, got {self.steepness:g}")

    def value(self, h):
        """q(h) elementwise, in a new array.

        q is r / (1 + r) with r = (h/m)^s, and 1 where r overflows to inf,
        which r / (1 + r) would turn into inf / inf = nan; ``fmin`` keeps
        every other value, all at most 1.
        """
        # Fades are >= 0 and 0**s = 0 for s > 0, so h = 0 needs no guard.
        h = np.asarray(h, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.power(h / self.midpoint, self.steepness)
            return np.fmin(r / (1.0 + r), 1.0)

    def sum_values(self, h):
        """Sum of q(h) over the float array h, computed in h's buffer, which it overwrites.

        The same bits as ``np.sum(self.value(h))``; the denominator
        1 + r is the one temporary array. Only a nan sum, where some r
        overflowed, takes a second pass to set those q to 1.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            h /= self.midpoint
            np.power(h, self.steepness, out=h)
            np.divide(h, h + 1.0, out=h)
        total = float(h.sum())
        if math.isnan(total):
            total = float(np.fmin(h, 1.0, out=h).sum())
        return total

    def inverse(self, t):
        """Fade level at which the curve reaches t in (0, 1); inf where no float holds it."""
        try:
            return self.midpoint * (t / (1.0 - t)) ** (1.0 / self.steepness)
        except OverflowError:  # float ** raises where * and / give inf
            return math.inf

    def tail_mean(self, dist, lo):
        """E[q(h); h >= lo] by a composite 16-point Gauss-Legendre rule in u = log h.

        The integrand is pdf(e^u) q e^u, with q written as
        (1 + tanh(s (u - log m) / 2)) / 2. The panels run from u_lo =
        max(log max(lower, lo), log m - 40/s, u_hi - 60), below which q
        or the fade mass is negligible, up to u_hi = log
        upper_cutoff(``_TAIL_MASS``), and break at the curve's knee and
        at the fade law's cutoffs (``_KNEE_STEPS``, ``_FADE_MASSES``), so
        that no panel steps over a steep part of the integrand.
        """
        s, log_m = self.steepness, math.log(self.midpoint)
        u_hi = math.log(dist.upper_cutoff(_TAIL_MASS))
        start = max(dist.lower, lo)
        u_lo = max(math.log(start) if start > 0.0 else -math.inf, log_m - 40.0 / s, u_hi - 60.0)
        if not u_lo < u_hi:
            return 0.0
        cuts = [log_m + k / s for k in _KNEE_STEPS]
        cuts += [math.log(dist.upper_cutoff(eps)) for eps in _FADE_MASSES]
        edges = np.array(sorted({u_lo, u_hi, *(min(max(u, u_lo), u_hi) for u in cuts)}))
        half = 0.5 * np.diff(edges)
        u = (edges[:-1] + half)[:, None] + half[:, None] * _GL_NODES
        h = np.exp(u)
        # tanh is 1.0 to the last bit from s z / 2 = 20 on; the cap keeps s z finite for any s.
        z = np.minimum(u - log_m, 40.0 / s)
        q = 0.5 + 0.5 * np.tanh(0.5 * s * z)
        return float(half @ ((dist.pdf(h) * q * h) @ _GL_WEIGHTS))


@frozen
class FadingChannel(Frozen):
    """One link's fade distribution paired with its success curve."""

    dist: object
    curve: object


@frozen
class CollisionMatrix(Frozen):
    """Pairwise erasure probabilities q[j, i] = P(j's transmission kills link i).

    Entries lie in [0, 1]; the diagonal is unused by every formula here
    and is stored as 0.
    """

    q: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.q, dtype=float)).copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"collision matrix must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("collision matrix entries must be finite")
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise ValueError("collision matrix entries must lie in [0, 1]")
        np.fill_diagonal(arr, 0.0)
        arr.setflags(write=False)
        object.__setattr__(self, "q", arr)

    @property
    def m(self):
        return self.q.shape[0]

    @classmethod
    def none(cls, m):
        """No interference between any pair."""
        return cls(q=np.zeros((m, m)))


def _count(name, value, low=None):
    """``value`` as a Python int; it must be a Python or NumPy integer, not a bool, and >= ``low``.

    Anything else raises ValueError whose message starts with ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}: must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name}: must be >= {low}, got {value}")
    return int(value)


def _check_counts(settings, *names):
    """Keep each named field of ``settings`` as a Python int, by ``_count``'s rule."""
    for name in names:
        object.__setattr__(settings, name, _count(name, getattr(settings, name)))


@frozen
class MonteCarlo(Frozen):
    """Expectation from a finite seeded sample of fades.

    The design loop estimates each sensor's rate and delivery from
    ``samples`` fades per period (``draw_transmit_sample``), each sensor
    from its own stream spawned from ``seed``: stream i follows position i,
    so permuting the loops changes the draws, and a Monte Carlo design is
    not permuted with them as an exact one is. Both are integers, not
    bools, kept as Python ints.
    """

    samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        _check_counts(self, "samples", "seed")
        if self.samples < 1:
            raise ValueError(f"samples: must be >= 1, got {self.samples}")
        if self.samples > _MAX_SAMPLES:
            raise ValueError(f"samples: must be at most {_MAX_SAMPLES}, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")


def sample_channel(ch, rng, size=None, lower=0.0):
    """Draw i.i.d. fades from the channel's distribution, given h >= lower."""
    return ch.dist.sample(rng, size=size, lower=lower)


def draw_transmit_sample(threshold, ch, samples, rng):
    """Monte Carlo estimate (K / samples, sum q(h_k) / samples) of (E[alpha], E[alpha q]).

    alpha(h) = 1[h >= tau] is the threshold rule at tau = ``threshold``,
    so these are P(h >= tau) and E[q(h); h >= tau]. Of ``samples`` i.i.d.
    fades, the number K at or above tau is Binomial(samples, P(h >= tau)),
    and given K those fades are i.i.d. from h | h >= tau. Drawing K and
    then only those K fades gives the pair (K, sum q(h_k)) the exact joint
    law it has under the full sample, at a cost that grows with K instead
    of ``samples``. The K fades come from ``sample_channel``, and the
    curve's ``sum_values`` turns them into sum q(h_k) in their own buffer,
    so a call allocates those K floats (and, on the logistic_log curve,
    one K-float temporary) and nothing that grows with ``samples``.
    """
    k = int(rng.binomial(samples, ch.dist.survival(threshold)))
    fades = sample_channel(ch, rng, size=k, lower=threshold)
    return k / samples, ch.curve.sum_values(fades) / samples


def expected_policy_rate(policy, ch):
    """E[alpha(h)] = rate * P(h >= threshold), in [0, 1]."""
    return policy.rate * ch.dist.survival(policy.threshold)


def threshold_success(threshold, ch):
    """E[q(h); h >= threshold], the collision-free delivery rate of a threshold rule.

    The curve computes the tail mean itself (``tail_mean``); the result
    is clipped to [0, 1] against rounding.
    """
    return min(max(ch.curve.tail_mean(ch.dist, threshold), 0.0), 1.0)


def expected_policy_success(policy, ch):
    """E[alpha(h) q(h)] = rate * E[q(h); h >= threshold] (``threshold_success``)."""
    return policy.rate * threshold_success(policy.threshold, ch)


def measure(thresholds, channels):
    """Exact (P(h_i >= tau_i), E[q(h_i); h_i >= tau_i]) of every sensor i, as two float arrays.

    Entry i is ``channels[i].dist.survival(thresholds[i])``, then
    ``threshold_success(thresholds[i], channels[i])``.
    """
    pairs = tuple(zip(thresholds, channels))
    survival = np.array([ch.dist.survival(tau) for tau, ch in pairs])
    return survival, np.array([threshold_success(tau, ch) for tau, ch in pairs])


def delivery_product(own, rates, q):
    """own_i * prod_{j != i} (1 - rates_j q[j, i]) for every column i of q.

    ``rates`` is an ndarray of the m sensors' transmit rates, ``q`` holds
    one row per sensor and one column per link evaluated, and ``own`` is
    those links' collision-free delivery rates. The factor of a link's
    own sensor is exactly 1.0 because the collision diagonal is 0, and
    the factors multiply in the order j = 0, 1, ..., as a loop over the
    interferers would.
    """
    f = 1.0 - rates[:, None] * q
    f[0] *= own
    return np.multiply.reduce(f)  # over axis 0, row after row


def link_success_probability(policies, channels, qmat):
    """P(gamma_i = 1) of every link i under independent fades and pairwise collisions.

    Combines each sensor's own delivery rate with the probability that no
    transmitting interferer erases it, all expectations exact:

        E[alpha_i q] * prod_{j != i} (1 - E[alpha_j] q[j, i]).

    Returns
    -------
    ndarray of length m
    """
    m = len(policies)
    if len(channels) != m:
        raise ValueError(f"{len(channels)} channels for {m} policies")
    if qmat.m != m:
        raise ValueError(f"collision matrix is {qmat.m}x{qmat.m} for {m} policies")
    survival, success = measure([pol.threshold for pol in policies], channels)
    rate = np.array([pol.rate for pol in policies])
    return delivery_product(rate * success, rate * survival, qmat.q)
