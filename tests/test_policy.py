import math

import pytest

from raccess import AccessPolicy, constant_policy, threshold_policy


class TestAccessPolicyValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AccessPolicy(kind="random")

    def test_threshold_requires_nonnegative_value(self):
        with pytest.raises(ValueError):
            AccessPolicy(kind="threshold")
        with pytest.raises(ValueError):
            threshold_policy(-0.5)
        assert threshold_policy(0.0).threshold == 0.0
        assert threshold_policy(math.inf).threshold == math.inf

    def test_constant_requires_probability(self):
        with pytest.raises(ValueError):
            AccessPolicy(kind="constant")
        with pytest.raises(ValueError):
            constant_policy(1.2)
        with pytest.raises(ValueError):
            constant_policy(-0.1)
        assert constant_policy(0.0).rate == 0.0
        assert constant_policy(1.0).rate == 1.0


class TestPolicyEvaluation:
    def test_round_trip_through_dict(self):
        for pol in (threshold_policy(0.8), threshold_policy(math.inf), constant_policy(0.25)):
            assert AccessPolicy.from_dict(pol.to_dict()) == pol

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            AccessPolicy.from_dict({"kind": "adaptive"})
