"""Random-access policies and their pricing structure.

A policy maps the local fade h to a transmit probability alpha(h). Two
kinds are supported: fade-threshold policies (transmit exactly when
h >= threshold), which are the minimizers of the per-sensor priced
objective, and constant-probability policies used as baselines.

Given a transmit power price p, a reward nu_own per unit of own delivery
and interference charges nu_ji per unit of damage to other links, the
priced objective is minimized pointwise by transmitting whenever

    nu_own * q(h) >= p + sum_{j != i} nu_ji * q_ij,

i.e. above the fade level where the curve crosses the price ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import invert_success_curve

__all__ = [
    "AccessPolicy",
    "threshold_policy",
    "constant_policy",
    "PricingVector",
    "threshold_from_prices",
]


@dataclass(frozen=True)
class AccessPolicy:
    """Transmit rule alpha(h); ``kind`` is "threshold" or "constant"."""

    kind: str
    threshold: float = math.nan
    rate: float = math.nan

    def __post_init__(self):
        if self.kind == "threshold":
            if math.isnan(self.threshold) or self.threshold < 0.0:
                raise ValueError(
                    f"threshold must be >= 0 (or +inf), got {self.threshold!r}"
                )
        elif self.kind == "constant":
            if math.isnan(self.rate) or not 0.0 <= self.rate <= 1.0:
                raise ValueError(f"rate must lie in [0, 1], got {self.rate!r}")
        else:
            raise ValueError(f"unknown policy kind {self.kind!r}")

    def to_dict(self):
        if self.kind == "threshold":
            return {"kind": "threshold", "threshold": self.threshold}
        return {"kind": "constant", "rate": self.rate}

    @classmethod
    def from_dict(cls, d):
        kind = d.get("kind")
        if kind == "threshold":
            return threshold_policy(float(d["threshold"]))
        if kind == "constant":
            return constant_policy(float(d["rate"]))
        raise ValueError(f"unknown policy kind {kind!r}")


def threshold_policy(threshold):
    """Transmit exactly when the fade reaches ``threshold`` (inf = never)."""
    return AccessPolicy(kind="threshold", threshold=float(threshold))


def constant_policy(rate):
    """Transmit with fixed probability ``rate`` regardless of the fade."""
    return AccessPolicy(kind="constant", rate=float(rate))


@dataclass(frozen=True)
class PricingVector:
    """Prices shaping one sensor's transmit region.

    ``own_price`` rewards the sensor's delivered packets, ``interference_price``
    aggregates the charges for erasures it inflicts on the other links, and
    ``tx_power`` is the per-transmission energy cost.
    """

    own_price: float
    interference_price: float
    tx_power: float

    def __post_init__(self):
        if self.own_price < 0.0:
            raise ValueError(f"own_price must be >= 0, got {self.own_price:g}")
        if self.interference_price < 0.0:
            raise ValueError(
                f"interference_price must be >= 0, got {self.interference_price:g}"
            )
        if not self.tx_power > 0.0:
            raise ValueError(f"tx_power must be positive, got {self.tx_power:g}")


def threshold_from_prices(pr, ch):
    """Optimal fade threshold for the priced per-sensor objective.

    Transmitting at fade h trades reward ``own_price * q(h)`` against cost
    ``tx_power + interference_price``, so the transmit region is where the
    curve exceeds their ratio. A zero own-price (or a ratio at or above
    the curve's supremum) prices the sensor out entirely; a ratio at or
    below q(0) makes transmitting always worthwhile.

    Returns
    -------
    AccessPolicy
        Threshold policy, with threshold +inf for never-transmit and 0.0
        for always-transmit.
    """
    cost = pr.tx_power + pr.interference_price
    if pr.own_price == 0.0 or not math.isfinite(cost):
        return threshold_policy(math.inf)
    ratio = cost / pr.own_price
    if ratio >= ch.curve.sup:
        return threshold_policy(math.inf)
    if ratio <= ch.curve.at_zero:
        return threshold_policy(0.0)
    return threshold_policy(invert_success_curve(ch, ratio))

