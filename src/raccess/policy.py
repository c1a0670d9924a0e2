"""Random-access policies.

A policy maps the local fade h to a transmit probability alpha(h). Two
kinds are supported: fade-threshold policies (transmit exactly when
h >= threshold), which the design loop sets from its duals
(``optimizer.primal_policies``), and constant-probability policies used
as baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["AccessPolicy", "threshold_policy", "constant_policy"]


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
