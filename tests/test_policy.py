import math

import pytest

from helpers import reference_channel
from raccess import (
    AccessPolicy,
    PricingVector,
    constant_policy,
    invert_success_curve,
    threshold_from_prices,
    threshold_policy,
)


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


class TestPricingVector:
    def test_rejects_negative_prices(self):
        with pytest.raises(ValueError):
            PricingVector(own_price=-0.1, interference_price=0.0, tx_power=1.0)
        with pytest.raises(ValueError):
            PricingVector(own_price=1.0, interference_price=-0.1, tx_power=1.0)

    def test_rejects_nonpositive_tx_power(self):
        with pytest.raises(ValueError):
            PricingVector(own_price=1.0, interference_price=0.0, tx_power=0.0)


class TestThresholdFromPrices:
    def test_priced_out_when_reward_is_zero(self):
        ch = reference_channel()
        pr = PricingVector(own_price=0.0, interference_price=0.2, tx_power=1.0)
        assert threshold_from_prices(pr, ch).threshold == math.inf

    def test_priced_out_when_cost_exceeds_curve_supremum(self):
        ch = reference_channel()
        pr = PricingVector(own_price=1.0, interference_price=0.5, tx_power=1.0)
        assert threshold_from_prices(pr, ch).threshold == math.inf

    def test_interior_threshold_inverts_the_curve(self):
        ch = reference_channel()
        pr = PricingVector(own_price=2.0, interference_price=0.1, tx_power=1.0)
        pol = threshold_from_prices(pr, ch)
        assert pol.kind == "threshold"
        assert pol.threshold == pytest.approx(0.5323384641451812, abs=1e-15)
        assert pol.threshold == pytest.approx(invert_success_curve(ch, 0.55), abs=1e-16)

    def test_always_transmit_when_cost_is_below_the_curve_floor(self):
        class FloorCurve:
            sup = 1.0
            at_zero = 0.3

        ch_like = type("Ch", (), {"curve": FloorCurve()})()
        pr = PricingVector(own_price=10.0, interference_price=0.0, tx_power=1.0)
        assert threshold_from_prices(pr, ch_like).threshold == 0.0

    def test_threshold_rises_with_interference_price(self):
        ch = reference_channel()
        thr = [
            threshold_from_prices(
                PricingVector(own_price=4.0, interference_price=ip, tx_power=1.0), ch
            ).threshold
            for ip in (0.0, 0.5, 1.0)
        ]
        assert thr[0] < thr[1] < thr[2]

