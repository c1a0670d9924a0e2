import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

import raccess.channel
from helpers import (
    allocating_sample,
    allocating_transmit_sample,
    allocating_value,
    loop_delivery_product,
    random_shared_channel_setup,
    reference_channel,
)
from raccess import (
    CollisionMatrix,
    ExponentialFading,
    FadingChannel,
    LogisticLogCurve,
    MonteCarlo,
    SaturatingExpCurve,
    UniformFading,
    constant_policy,
    draw_transmit_sample,
    expected_policy_rate,
    expected_policy_success,
    link_success_probability,
    sample_channel,
    threshold_policy,
)
from raccess.channel import _GL_NODES, _GL_WEIGHTS, delivery_product


def exp_saturating_channel(mean, kappa, gain=1.0):
    return FadingChannel(
        dist=ExponentialFading(mean=mean),
        curve=SaturatingExpCurve(kappa=kappa, gain=gain),
    )


def exact_threshold_rate_exp(thr, mean):
    return math.exp(-thr / mean)


def exact_threshold_success_exp(thr, mean, kappa, gain=1.0):
    kg = kappa * gain
    return math.exp(-thr / mean) - math.exp(-thr * (kg + 1.0 / mean)) / (1.0 + kg * mean)


class TestThresholdExpectationsExponential:
    @pytest.mark.parametrize("thr", [0.0, 0.3, 1.0, 1.7])
    @pytest.mark.parametrize("mean", [0.6, 1.0, 2.3])
    def test_transmit_rate_closed_form(self, thr, mean):
        ch = exp_saturating_channel(mean, 1.5)
        got = expected_policy_rate(threshold_policy(thr), ch)
        assert got == pytest.approx(exact_threshold_rate_exp(thr, mean), abs=1e-9)

    @pytest.mark.parametrize("thr", [0.0, 0.3, 1.0, 1.7])
    @pytest.mark.parametrize("mean,kappa,gain", [(1.0, 1.5, 1.0), (0.7, 2.0, 0.8), (2.0, 0.9, 1.3)])
    def test_delivery_closed_form(self, thr, mean, kappa, gain):
        ch = exp_saturating_channel(mean, kappa, gain)
        got = expected_policy_success(threshold_policy(thr), ch)
        assert got == pytest.approx(
            exact_threshold_success_exp(thr, mean, kappa, gain), abs=1e-9
        )

    def test_always_transmit_delivery_reference_value(self):
        ch = reference_channel()
        got = expected_policy_success(threshold_policy(0.0), ch)
        assert got == pytest.approx(0.6, abs=1e-10)

    def test_never_transmit(self):
        ch = reference_channel()
        assert expected_policy_rate(threshold_policy(math.inf), ch) == 0.0
        assert expected_policy_success(threshold_policy(math.inf), ch) == 0.0


class TestThresholdExpectationsUniform:
    @pytest.mark.parametrize("thr", [0.0, 0.2, 0.9, 1.4, 2.5])
    def test_closed_forms(self, thr):
        lo, hi, kappa = 0.2, 1.8, 1.5
        ch = FadingChannel(
            dist=UniformFading(low=lo, high=hi),
            curve=SaturatingExpCurve(kappa=kappa, gain=1.0),
        )
        mm = min(max(thr, lo), hi)
        want_rate = (hi - mm) / (hi - lo)
        want_succ = (
            (hi - mm) - (math.exp(-kappa * mm) - math.exp(-kappa * hi)) / kappa
        ) / (hi - lo)
        got_rate = expected_policy_rate(threshold_policy(thr), ch)
        got_succ = expected_policy_success(threshold_policy(thr), ch)
        assert got_rate == pytest.approx(want_rate, abs=1e-9)
        assert got_succ == pytest.approx(want_succ, abs=1e-9)


def quad_expectations(policy, ch):
    """E[alpha] and E[alpha q] by SciPy ``quad`` on the fade density."""
    pdf = ch.dist.pdf
    k = ch.curve.kappa * ch.curve.gain
    lo = max(ch.dist.lower, policy.threshold)
    hi = ch.dist.upper_cutoff(1e-13)
    if not hi > lo:
        return 0.0, 0.0
    rate = quad(pdf, lo, hi, epsabs=1e-13, epsrel=1e-13)[0]
    success = quad(lambda h: pdf(h) * -math.expm1(-k * h), lo, hi, epsabs=1e-13, epsrel=1e-13)[0]
    return policy.rate * rate, policy.rate * success


# Thresholds below, inside and beyond each support (45 lies past the
# exponential's quadrature cutoff), plus a constant policy.
CLOSED_FORM_CASES = [
    pytest.param(
        dist, policy, id="-".join(map(str, [type(dist).__name__, *policy.to_dict().values()]))
    )
    for dist, thresholds in (
        (ExponentialFading(mean=1.3), (0.0, 0.7, 45.0)),
        (UniformFading(low=0.4, high=1.6), (0.1, 0.9, 2.0)),
    )
    for policy in [threshold_policy(t) for t in thresholds] + [constant_policy(0.35)]
]


@pytest.mark.parametrize("dist,policy", CLOSED_FORM_CASES)
def test_closed_forms_match_quad(dist, policy):
    ch = FadingChannel(dist=dist, curve=SaturatingExpCurve(kappa=1.5, gain=0.8))
    want_rate, want_succ = quad_expectations(policy, ch)
    assert abs(expected_policy_rate(policy, ch) - want_rate) <= 1e-10
    assert abs(expected_policy_success(policy, ch) - want_succ) <= 1e-10


class TestConstantPolicyExpectations:
    def test_rate_is_exact(self):
        ch = reference_channel()
        assert expected_policy_rate(constant_policy(0.37), ch) == 0.37

    @pytest.mark.parametrize("mean,kappa", [(1.0, 1.5), (0.5, 2.0)])
    def test_delivery_scales_mean_decode_probability(self, mean, kappa):
        # E[alpha q] = r E[q] with E[q] = kappa mu / (1 + kappa mu) for
        # exponential fades and the saturating curve.
        ch = exp_saturating_channel(mean, kappa)
        r = 0.42
        want = r * kappa * mean / (1.0 + kappa * mean)
        got = expected_policy_success(constant_policy(r), ch)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize(
        "dist",
        [ExponentialFading(mean=1.3), UniformFading(low=0.4, high=1.6), UniformFading(0.0, 2.0)],
    )
    @pytest.mark.parametrize(
        "curve", [SaturatingExpCurve(kappa=1.5, gain=0.8), LogisticLogCurve(0.7, 3.0)]
    )
    @pytest.mark.parametrize("r", [0.0, 0.35, 1.0])
    def test_rate_scales_the_always_transmit_values(self, dist, curve, r):
        # alpha(h) = r 1[h >= 0]: exactly r times the threshold-0 expectations.
        ch = FadingChannel(dist=dist, curve=curve)
        always = threshold_policy(0.0)
        assert expected_policy_rate(constant_policy(r), ch) == r * expected_policy_rate(always, ch)
        assert expected_policy_success(constant_policy(r), ch) == r * expected_policy_success(
            always, ch
        )


def mc_draws(threshold, ch, samples, count, seed):
    """``count`` Monte Carlo (rate, success) pairs, each from ``samples`` fades."""
    rng = np.random.default_rng(seed)
    return np.array([draw_transmit_sample(threshold, ch, samples, rng) for _ in range(count)])


class TestMonteCarloExpectations:
    def test_agrees_with_quadrature(self):
        ch = reference_channel()
        pol = threshold_policy(0.8)
        rate, succ = draw_transmit_sample(0.8, ch, 200_000, np.random.default_rng(5))
        assert rate == pytest.approx(expected_policy_rate(pol, ch), abs=0.01)
        assert succ == pytest.approx(expected_policy_success(pol, ch), abs=0.01)

    def test_seeded_and_reproducible(self):
        ch = reference_channel()
        a, b, c = (
            draw_transmit_sample(0.8, ch, 5000, np.random.default_rng(seed))
            for seed in (9, 9, 10)
        )
        assert a == b
        assert a[1] != c[1]

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_an_empty_sample(self, samples):
        with pytest.raises(ValueError, match="samples"):
            MonteCarlo(samples=samples, seed=0)

    @pytest.mark.parametrize(
        "field, value",
        [("samples", 2.5), ("seed", 1.5), ("samples", True), ("seed", np.float64(2.0))],
        ids=["samples_float", "seed_float", "samples_bool", "seed_numpy_float"],
    )
    def test_rejects_counts_that_are_not_integers(self, field, value):
        # Generator.binomial would truncate 2.5 samples to 2 trials.
        message = rf"^{field}: must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            MonteCarlo(**{field: value})

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match=r"seed: must be >= 0, got -3"):
            MonteCarlo(samples=100, seed=-3)

    def test_takes_every_sample_size_binomial_takes(self):
        largest = MonteCarlo(samples=2**63 - 1)
        k, _ = draw_transmit_sample(50.0, reference_channel(), largest.samples, np.random.default_rng(0))
        assert k >= 0.0
        for samples in (2**63, 10**300):
            with pytest.raises(ValueError, match=r"samples: must be at most 9223372036854775807"):
                MonteCarlo(samples=samples)

    def test_rate_and_success_share_one_draw(self, monkeypatch):
        draws = []
        real = raccess.channel.sample_channel

        def counting(ch, rng, size=None, lower=0.0):
            fades = real(ch, rng, size=size, lower=lower)
            draws.append(fades.copy())
            return fades

        monkeypatch.setattr(raccess.channel, "sample_channel", counting)
        ch = reference_channel()
        rate, succ = draw_transmit_sample(0.8, ch, 3000, np.random.default_rng(7))
        assert len(draws) == 1
        assert rate == draws[0].size / 3000
        assert succ == float(np.sum(ch.curve.value(draws[0]))) / 3000

    @pytest.mark.parametrize(
        "dist", [ExponentialFading(mean=0.9), UniformFading(low=0.4, high=1.6)]
    )
    @pytest.mark.parametrize("thr", [0.1, 0.9, 1.1])
    def test_joint_law_matches_the_closed_forms(self, dist, thr):
        # (rate, success) from n fades has mean (S, E[alpha q]) and
        # covariance [[S(1-S), mu(1-S)], [mu(1-S), E[alpha q^2] - mu^2]] / n,
        # with S = P(h >= thr), mu = E[alpha q]; for q = 1 - exp(-k h),
        # E[alpha q^2] = S - 2 L(k) + L(2k), L(k) = E[exp(-k h); h >= thr].
        k, n, count = 1.5, 400, 4000
        ch = FadingChannel(dist=dist, curve=SaturatingExpCurve(kappa=k))
        pol = threshold_policy(thr)
        surv = dist.survival(thr)
        mu = expected_policy_success(pol, ch)
        second = surv - 2.0 * dist.laplace_tail(thr, k) + dist.laplace_tail(thr, 2.0 * k)
        want_mean = np.array([surv, mu])
        want_cov = np.array(
            [[surv * (1.0 - surv), mu * (1.0 - surv)], [mu * (1.0 - surv), second - mu * mu]]
        ) / n

        def assert_within_5_se(got, want, se):
            exact = se == 0.0  # a rate of exactly 1 below the support
            assert np.array_equal(got[exact], want[exact])
            assert np.all(np.abs(got - want)[~exact] <= 5.0 * se[~exact]), (got, want, se)

        x = mc_draws(thr, ch, n, count, seed=int(10 * thr))
        assert_within_5_se(x.mean(axis=0), want_mean, np.sqrt(np.diag(want_cov) / count))
        dev = x - want_mean
        products = dev[:, :, None] * dev[:, None, :]
        assert_within_5_se(
            products.mean(axis=0), want_cov, products.std(axis=0) / math.sqrt(count)
        )

    @pytest.mark.parametrize(
        "dist", [ExponentialFading(mean=0.9), UniformFading(low=0.4, high=1.6)]
    )
    def test_exact_edges(self, dist):
        ch = FadingChannel(dist=dist, curve=SaturatingExpCurve(kappa=1.5))
        rng = np.random.default_rng(2)
        rate, succ = draw_transmit_sample(0.0, ch, 1000, rng)
        assert rate == 1.0
        assert 0.0 < succ < 1.0
        edges = [math.inf] + ([dist.high, dist.high + 1.0] if isinstance(dist, UniformFading) else [])
        for thr in edges:
            assert draw_transmit_sample(thr, ch, 1000, rng) == (0.0, 0.0)

    def test_fades_lie_in_the_transmit_region(self):
        for dist in (ExponentialFading(mean=0.9), UniformFading(low=0.4, high=1.6)):
            ch = FadingChannel(dist=dist, curve=SaturatingExpCurve(kappa=1.5))
            for thr in (0.1, 0.9, 1.5):
                fades = sample_channel(ch, np.random.default_rng(1), 2000, lower=thr)
                assert fades.shape == (2000,)
                assert np.all(fades >= thr)
                assert np.all(fades >= dist.lower)
                if isinstance(dist, UniformFading):
                    assert np.all(fades <= dist.high)


class TestDeliveryProduct:
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 39, 64])
    def test_matches_the_loop_oracle(self, m):
        rng = np.random.default_rng(m)
        for _ in range(20):
            q = CollisionMatrix(q=rng.uniform(0.0, 1.0, size=(m, m))).q
            rates = rng.uniform(0.0, 1.0, size=m)
            own = rng.uniform(0.0, 1.0, size=m)
            want = loop_delivery_product(own, rates, q)
            assert np.array_equal(delivery_product(own, rates, q), want)

    @pytest.mark.parametrize("m", [3, 5])
    def test_link_success_is_the_all_links_product(self, m):
        # The one call site: every link at once, over the full q.
        rng = np.random.default_rng(40 + m)
        for _ in range(5):
            channels, policies, qmat = random_shared_channel_setup(rng, m)
            pairs = tuple(zip(policies, channels))
            own = np.array([expected_policy_success(p, ch) for p, ch in pairs])
            rates = np.array([expected_policy_rate(p, ch) for p, ch in pairs])
            want = loop_delivery_product(own, rates, qmat.q)
            got = link_success_probability(policies, channels, qmat)
            np.testing.assert_array_equal(got, want)


class TestSuccessCurves:
    def test_saturating_inverse_reference_value(self):
        ch = reference_channel()
        assert ch.curve.inverse(0.55) == pytest.approx(
            0.5323384641451812, abs=1e-15
        )

    def test_saturating_round_trip(self):
        curve = SaturatingExpCurve(kappa=2.0, gain=0.7)
        for t in (0.05, 0.3, 0.62, 0.95):
            assert curve.value(curve.inverse(t)) == pytest.approx(t, rel=1e-12)

    def test_logistic_round_trip_and_midpoint(self):
        curve = LogisticLogCurve(midpoint=0.8, steepness=2.5)
        assert curve.value(0.8) == pytest.approx(0.5, rel=1e-12)
        for t in (0.1, 0.5, 0.9):
            assert curve.value(curve.inverse(t)) == pytest.approx(t, rel=1e-12)

    def test_logistic_value_is_the_guarded_power_bit_for_bit(self):
        def guarded(curve, h):
            # The form that skipped h = 0 through np.power's where/out.
            h = np.asarray(h, dtype=float)
            with np.errstate(divide="ignore"):
                r = np.power(h / curve.midpoint, curve.steepness,
                             where=h > 0.0, out=np.zeros_like(h, dtype=float))
            return r / (1.0 + r)

        h = np.concatenate([[0.0, 5e-324, 1e-300, 1e-12], np.linspace(0.0, 40.0, 4001)])
        for curve in (
            LogisticLogCurve(midpoint=0.8, steepness=2.5),
            LogisticLogCurve(midpoint=1.3, steepness=0.4),
            LogisticLogCurve(midpoint=0.05, steepness=9.0),
        ):
            got = curve.value(h)
            assert got[0] == 0.0
            assert np.array_equal(got, guarded(curve, h))
            assert curve.value(0.0) == 0.0

    def test_curve_parameter_validation(self):
        with pytest.raises(ValueError):
            SaturatingExpCurve(kappa=0.0)
        with pytest.raises(ValueError):
            LogisticLogCurve(midpoint=0.0, steepness=2.0)
        with pytest.raises(ValueError):
            LogisticLogCurve(midpoint=1.0, steepness=-1.0)


# (h/m)^s overflows to inf above h = 17.1 here; r / (1 + r) would be nan there.
STEEP = LogisticLogCurve(midpoint=1.0, steepness=250.0)


class TestSteepLogisticCurve:
    """q is 1 where the power overflows, and every finite power keeps its bits."""

    def test_value_saturates_where_the_power_overflows(self):
        h = np.array([0.0, 0.5, 1.0, 2.0, 17.0, 17.5, 20.0, 1e300])
        with np.errstate(over="ignore", invalid="ignore"):
            old = allocating_value(STEEP, h)
        got = STEEP.value(h)
        finite = ~np.isnan(old)
        assert list(finite) == [True] * 5 + [False] * 3
        assert np.array_equal(got[finite], old[finite])
        assert np.array_equal(got[~finite], [1.0, 1.0, 1.0])
        assert STEEP.value(20.0) == 1.0

    @pytest.mark.parametrize("size", [1, 7, 5000])
    def test_sum_values_saturates_as_value_does(self, size):
        h = np.random.default_rng(size).exponential(10.0, size=size)
        h[0] = 20.0
        want = float(np.sum(STEEP.value(h)))
        got = STEEP.sum_values(h.copy())
        assert math.isfinite(got) and got == want

    def test_monte_carlo_estimate_above_the_overflow(self):
        # Every fade drawn at or above tau = 20 has q = 1, so sum q = K.
        ch = FadingChannel(dist=ExponentialFading(mean=10.0), curve=STEEP)
        rate, success = draw_transmit_sample(20.0, ch, 4000, np.random.default_rng(3))
        assert rate > 0.0 and success == rate

    def test_sum_values_keeps_a_tiny_midpoint_finite(self):
        # h / m overflows before the power does at m = 1e-300.
        curve = LogisticLogCurve(midpoint=1e-300, steepness=2.0)
        h = np.array([0.0, 1e-301, 1e10])
        assert curve.sum_values(h.copy()) == float(np.sum(curve.value(h))) == 1.0 + 0.01 / 1.01

    def test_inverse_beyond_the_float_range_is_inf(self):
        # 9999 ** 100 overflows Python's float **; the fade level is beyond any float.
        assert LogisticLogCurve(midpoint=1.0, steepness=0.01).inverse(0.9999) == math.inf
        assert LogisticLogCurve(midpoint=1e300, steepness=0.5).inverse(0.99999) == math.inf

    @pytest.mark.parametrize(
        "midpoint, steepness, t", [(1.0, 0.01, 0.6), (0.8, 2.5, 0.5), (2.0, 0.02, 0.001)]
    )
    def test_inverse_that_fits_keeps_its_bits(self, midpoint, steepness, t):
        curve = LogisticLogCurve(midpoint=midpoint, steepness=steepness)
        assert curve.inverse(t) == midpoint * (t / (1.0 - t)) ** (1.0 / steepness)

    @pytest.mark.parametrize(
        "curve", [STEEP, LogisticLogCurve(midpoint=1e-300, steepness=1e300)], ids=["s250", "s1e300"]
    )
    def test_exact_tail_mean_above_the_overflow_is_the_tail_mass(self, curve):
        dist = ExponentialFading(mean=10.0)
        assert curve.tail_mean(dist, 20.0) == pytest.approx(dist.survival(20.0), abs=1e-9)
        ch = FadingChannel(dist=dist, curve=curve)
        assert 0.0 < expected_policy_success(threshold_policy(20.0), ch) <= 1.0


def logistic_oracle(dist, curve, lo):
    """E[q(h); h >= lo] by SciPy ``quad`` in u = log h, split at 81 points across the knee.

    Independent of the code under test: its own density and curve, and
    it integrates exponential fades up to the tail mass 1e-17 rather
    than the rule's 1e-13.
    """
    log_m, s = math.log(curve.midpoint), curve.steepness
    if isinstance(dist, ExponentialFading):
        mean = dist.mean
        start, top = max(lo, 0.0), -mean * math.log(1e-17)

        def pdf(h):
            return math.exp(-h / mean) / mean

        scale = [-mean * math.log(p) for p in (0.999, 0.99, 0.9, 0.5, 0.1, 1e-3, 1e-6, 1e-10)]
    else:
        start, top = max(lo, dist.low), dist.high

        def pdf(h):
            return 1.0 / (dist.high - dist.low)

        scale = []
    if not start < top:
        return 0.0
    u_top = math.log(top)
    u_start = max(math.log(start) if start > 0.0 else -math.inf, log_m - 60.0 / s, u_top - 80.0)

    def integrand(u):
        h = math.exp(u)
        return pdf(h) * 0.5 * (1.0 + math.tanh(0.5 * s * (u - log_m))) * h

    cuts = [log_m + k / (2.0 * s) for k in range(-80, 81, 2)] + [math.log(h) for h in scale]
    edges = [u_start, *sorted(u for u in set(cuts) if u_start < u < u_top), u_top]
    return sum(
        quad(integrand, a, b, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


ORACLE_DISTS = [
    ExponentialFading(mean=0.05),
    ExponentialFading(mean=1.0),
    ExponentialFading(mean=3.0),
    UniformFading(low=0.0, high=2.0),
    UniformFading(low=1.0, high=40.0),
]


class TestLogisticTailMean:
    """The fixed Gauss-Legendre rule against an independent quadrature."""

    @pytest.mark.parametrize("steepness", [0.2, 1.0, 3.0, 40.0, 250.0, 1e4])
    @pytest.mark.parametrize("dist", ORACLE_DISTS, ids=repr)
    def test_matches_the_oracle(self, dist, steepness):
        worst = 0.0
        for midpoint in (0.05, 0.2, 0.8, 5.0, 30.0):
            curve = LogisticLogCurve(midpoint=midpoint, steepness=steepness)
            # At 0, at the knee, at the fade law's median and beyond its support.
            for lo in (0.0, midpoint, dist.upper_cutoff(0.5), 2.0 * dist.upper_cutoff(1e-14)):
                worst = max(worst, abs(curve.tail_mean(dist, lo) - logistic_oracle(dist, curve, lo)))
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "dist, curve, lo, want",
        [
            (ExponentialFading(mean=0.3), LogisticLogCurve(midpoint=5.0, steepness=250.0), 0.5,
             5.817588246198e-8),
            (ExponentialFading(mean=0.05), LogisticLogCurve(midpoint=0.8, steepness=1e4), 0.1,
             1.125355189916e-7),
        ],
    )
    def test_a_narrow_knee_far_in_the_tail(self, dist, curve, lo, want):
        # An adaptive rule whose first samples miss the knee returns about 1e-9 here.
        got = curve.tail_mean(dist, lo)
        assert got == pytest.approx(want, rel=1e-9)
        assert abs(got - logistic_oracle(dist, curve, lo)) <= 1e-12

    def test_nodes_and_weights_are_leggauss(self):
        nodes, weights = leggauss(16)
        assert np.max(np.abs(_GL_NODES - nodes)) <= 1e-15
        assert np.max(np.abs(_GL_WEIGHTS - weights)) <= 1e-15

    def test_imports_neither_scipy_nor_numpy_polynomial(self):
        # Either would raise the CLI's start-up time and peak RSS.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (
            "import sys, raccess\n"
            "from raccess.config import parse_config\n"
            f"parse_config({os.path.join(root, 'configs', 'twoloop.json')!r})\n"
            "raccess.LogisticLogCurve(0.8, 3.0).tail_mean(raccess.ExponentialFading(1.0), 0.2)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))\n"
        )
        path = os.pathsep.join(filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout == "[]\n"


class TestFadingDistributions:
    def test_exponential_survival_and_cutoff(self):
        d = ExponentialFading(mean=2.0)
        assert d.survival(1.0) == pytest.approx(math.exp(-0.5), rel=1e-12)
        cut = d.upper_cutoff(1e-13)
        assert d.survival(cut) <= 1e-13 * 1.0000001
        assert d.lower == 0.0

    def test_uniform_survival_and_cutoff(self):
        d = UniformFading(low=0.5, high=1.5)
        assert d.survival(1.0) == pytest.approx(0.5, rel=1e-12)
        assert d.upper_cutoff(1e-13) == 1.5
        assert d.lower == 0.5

    def test_pdf_normalization(self):
        for d in (ExponentialFading(mean=0.7), UniformFading(low=0.2, high=1.9)):
            hs = np.linspace(d.lower, d.upper_cutoff(1e-15), 200_001)
            mass = np.trapezoid(d.pdf(hs), hs)
            assert mass == pytest.approx(1.0, abs=1e-5)

    def test_sampling_matches_mean(self):
        rng = np.random.default_rng(0)
        d = ExponentialFading(mean=1.3)
        xs = d.sample(rng, size=200_000)
        assert float(np.mean(xs)) == pytest.approx(1.3, abs=0.02)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExponentialFading(mean=0.0)
        with pytest.raises(ValueError):
            UniformFading(low=1.0, high=1.0)
        with pytest.raises(ValueError):
            UniformFading(low=-0.1, high=1.0)
        with pytest.raises(ValueError, match="high < inf"):
            UniformFading(low=0.0, high=math.inf)


class TestLinkSuccessProbability:
    def test_two_link_product_form(self):
        chs = (reference_channel(), exp_saturating_channel(0.8, 2.0))
        pols = (threshold_policy(0.35), threshold_policy(0.9))
        q = CollisionMatrix(q=np.array([[0.0, 0.5], [0.4, 0.0]]))
        own = expected_policy_success(pols[0], chs[0])
        other_rate = expected_policy_rate(pols[1], chs[1])
        want = own * (1.0 - other_rate * 0.4)
        got = link_success_probability(pols, chs, q)
        assert got.shape == (2,)
        assert got[0] == pytest.approx(want, rel=1e-12)

    def test_three_link_product_form(self):
        rng = np.random.default_rng(21)
        chs, pols, q = random_shared_channel_setup(rng, 3)
        got = link_success_probability(pols, chs, q)
        for i in range(3):
            want = expected_policy_success(pols[i], chs[i])
            for j in range(3):
                if j != i:
                    want *= 1.0 - expected_policy_rate(pols[j], chs[j]) * q.q[j, i]
            assert got[i] == pytest.approx(want, rel=1e-12)

    def test_no_interference_reduces_to_own_delivery(self):
        ch = reference_channel()
        pol = threshold_policy(0.5)
        got = link_success_probability((pol,), (ch,), CollisionMatrix.none(1))
        want = expected_policy_success(pol, ch)
        assert got[0] == pytest.approx(want, rel=1e-12)


class TestCollisionMatrix:
    def test_none_is_all_zero(self):
        q = CollisionMatrix.none(3)
        assert q.m == 3
        assert np.all(q.q == 0.0)

    def test_diagonal_is_zeroed(self):
        q = CollisionMatrix(q=np.array([[0.3, 0.5], [0.5, 0.9]]))
        assert q.q[0, 0] == 0.0
        assert q.q[1, 1] == 0.0

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            CollisionMatrix(q=np.array([[0.0, 1.5], [0.5, 0.0]]))
        with pytest.raises(ValueError):
            CollisionMatrix(q=np.array([[0.0, -0.1], [0.5, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            CollisionMatrix(q=np.zeros((2, 3)))

    def test_read_only(self):
        q = CollisionMatrix.none(2)
        with pytest.raises(ValueError):
            q.q[0, 1] = 0.5


class TestSampleChannel:
    def test_sample_channel_draws_from_the_distribution(self):
        ch = reference_channel()
        xs = sample_channel(ch, np.random.default_rng(0), size=100_000)
        assert float(np.mean(xs)) == pytest.approx(1.0, abs=0.02)


FADE_LAWS = (ExponentialFading(mean=0.9), UniformFading(low=0.4, high=1.6))
CURVES = (
    SaturatingExpCurve(kappa=1.5),
    SaturatingExpCurve(kappa=0.7, gain=2.3),
    LogisticLogCurve(midpoint=0.8, steepness=2.5),
)
# 0, an interior level, the uniform law's top and beyond it, and +inf.
THRESHOLDS = (0.0, 0.7, 1.6, 2.5, math.inf)


class TestDrawsKeepTheirBits:
    """The fill-based draws against the allocating forms they replaced.

    Each pair draws from two generators of one seed and must agree bit
    for bit and leave both generators at the same position. This also
    catches a NumPy build whose ``uniform`` or ``exponential`` rounds
    differently from its fill-then-scale definition (a fused multiply-add).
    """

    @pytest.mark.parametrize("dist", FADE_LAWS)
    @pytest.mark.parametrize("lower", THRESHOLDS)
    @pytest.mark.parametrize("size", [0, 1, 7, 5000])
    def test_sample_matches_the_allocating_draw(self, dist, lower, size):
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = dist.sample(got_rng, size=size, lower=lower)
        want = allocating_sample(dist, want_rng, size=size, lower=lower)
        assert got.dtype == np.float64 and got.shape == (size,)
        np.testing.assert_array_equal(got, want)
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("dist", FADE_LAWS)
    @pytest.mark.parametrize("lower", [0.0, 0.7])
    def test_sample_without_a_size_is_a_float(self, dist, lower):
        got_rng, want_rng = np.random.default_rng(6), np.random.default_rng(6)
        got = dist.sample(got_rng, lower=lower)
        assert isinstance(got, float)
        assert got == allocating_sample(dist, want_rng, lower=lower)
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("curve", CURVES)
    @pytest.mark.parametrize("size", [0, 1, 7, 5000])
    def test_sum_values_is_the_allocating_sum(self, curve, size):
        h = np.random.default_rng(size).exponential(1.3, size=size)
        h[: size // 3] = 0.0
        h[size // 3 : size // 2] *= 40.0
        want = float(np.sum(allocating_value(curve, h)))
        np.testing.assert_array_equal(curve.value(h), allocating_value(curve, h))
        got = curve.sum_values(h.copy())
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("curve", CURVES)
    def test_sum_values_of_zero_fades_is_positive_zero(self, curve):
        got = curve.sum_values(np.zeros(3))
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
        assert math.copysign(1.0, float(np.sum(allocating_value(curve, np.zeros(3))))) == 1.0

    @pytest.mark.parametrize("dist", FADE_LAWS)
    @pytest.mark.parametrize("curve", CURVES)
    @pytest.mark.parametrize("thr", THRESHOLDS)
    def test_transmit_sample_matches_the_allocating_draw(self, dist, curve, thr):
        ch = FadingChannel(dist=dist, curve=curve)
        got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = draw_transmit_sample(thr, ch, 3000, got_rng)
        assert got == allocating_transmit_sample(thr, ch, 3000, want_rng)
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("dist", FADE_LAWS)
    @pytest.mark.parametrize("curve", CURVES)
    def test_no_fade_at_the_threshold_gives_positive_zeros(self, dist, curve):
        rate, succ = draw_transmit_sample(
            math.inf, FadingChannel(dist=dist, curve=curve), 100, np.random.default_rng(0)
        )
        assert (rate, succ) == (0.0, 0.0)
        assert math.copysign(1.0, rate) == math.copysign(1.0, succ) == 1.0
