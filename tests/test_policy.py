import math

import pytest

from raccess import AccessPolicy, constant_policy, threshold_policy
from raccess.cli import _read_policy
from raccess.config import ConfigError


class TestAccessPolicyValidation:
    @pytest.mark.parametrize("bad", [-0.5, math.nan])
    def test_threshold_requires_nonnegative_value(self, bad):
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            threshold_policy(bad)
        assert threshold_policy(0.0).threshold == 0.0
        assert threshold_policy(math.inf).threshold == math.inf

    @pytest.mark.parametrize("bad", [1.2, -0.1, math.nan])
    def test_constant_requires_probability(self, bad):
        with pytest.raises(ValueError, match=r"rate must lie in \[0, 1\]"):
            constant_policy(bad)
        assert constant_policy(0.0).rate == 0.0
        assert constant_policy(1.0).rate == 1.0

    @pytest.mark.parametrize("threshold", [0.4, math.inf])
    def test_positive_threshold_with_rate_below_one_rejected(self, threshold):
        # The policies file has no form for rate * 1[h >= tau] with both parts.
        with pytest.raises(ValueError, match="rate 1"):
            AccessPolicy(threshold=threshold, rate=0.5)


class TestPolicyEvaluation:
    def test_round_trip_through_dict(self):
        for pol in (threshold_policy(0.8), threshold_policy(math.inf), constant_policy(0.25)):
            assert _read_policy(pol.to_dict(), "policies[0]") == pol

    def test_constant_one_is_threshold_zero(self):
        pol = constant_policy(1.0)
        assert pol == threshold_policy(0.0) == AccessPolicy()
        assert pol.to_dict() == {"kind": "threshold", "threshold": 0.0}
        assert _read_policy(pol.to_dict(), "policies[0]") == pol

    def test_reader_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match=r"^policies\[2\]\.kind: must be 'threshold' or"):
            _read_policy({"kind": "adaptive"}, "policies[2]")
