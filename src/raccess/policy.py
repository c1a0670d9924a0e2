"""Random-access policies.

A policy maps the local fade h to a transmit probability
alpha(h) = rate * 1[h >= threshold]. The design loop prices each sensor
into a float threshold (``optimizer.primal_policies``) and makes
``threshold_policy`` objects only for its result; the constant-probability
baseline is the same rule with threshold 0.
"""

from __future__ import annotations

from ._frozen import Frozen, frozen

__all__ = ["AccessPolicy", "threshold_policy", "constant_policy"]


@frozen
class AccessPolicy(Frozen):
    """Transmit rule alpha(h) = rate * 1[h >= threshold]."""

    threshold: float = 0.0
    rate: float = 1.0

    def __post_init__(self):
        if not self.threshold >= 0.0:
            raise ValueError(f"threshold must be >= 0 (or +inf), got {self.threshold!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {self.rate!r}")
        if self.threshold > 0.0 and self.rate < 1.0:  # the policies file has no such form
            raise ValueError(f"a positive threshold needs rate 1, got {self.rate!r}")

    def to_dict(self):
        if self.rate == 1.0:
            return {"kind": "threshold", "threshold": self.threshold}
        return {"kind": "constant", "rate": self.rate}


def threshold_policy(threshold):
    """Transmit exactly when the fade reaches ``threshold`` (inf = never)."""
    return AccessPolicy(threshold=float(threshold))


def constant_policy(rate):
    """Transmit with fixed probability ``rate`` regardless of the fade."""
    return AccessPolicy(rate=float(rate))
