import math

import mpmath as mp
import numpy as np
import pytest

from asymsplit.privacy import (
    PrivacyParams,
    ResidualCache,
    amplify,
    build_cache,
    calibrate,
    noise_stream,
    perturb,
    quantize,
)


def oracle_amplify(eps_prime, delta_prime, p):
    """50-digit evaluation of the amplification formulas."""
    with mp.workdps(50):
        e, d, pp = mp.mpf(eps_prime), mp.mpf(delta_prime), mp.mpf(p)
        return mp.log(1 + pp * mp.expm1(e)), pp * d


def oracle_calibrate(epsilon, delta, p, C):
    """50-digit evaluation of the inverse map and the noise scale."""
    with mp.workdps(50):
        e, d, pp, c = mp.mpf(epsilon), mp.mpf(delta), mp.mpf(p), mp.mpf(C)
        dp = d / pp
        ep = mp.log(1 + mp.expm1(e) / pp)
        sigma = c * mp.sqrt(2 * mp.log(2 / dp) / ep)
        return ep, dp, sigma


def rel_err(got, want):
    return abs(got - float(want)) / abs(float(want))


class TestAmplify:
    def test_no_subsampling_is_identity(self):
        eps, delta = amplify(1.7, 1e-5, 1.0)
        assert math.isclose(eps, 1.7, rel_tol=1e-14)
        assert delta == 1e-5

    def test_half_sampling(self):
        eps, delta = amplify(1.0, 1e-6, 0.5)
        # ln(1 + 0.5 (e - 1)) to 50 digits
        assert rel_err(eps, 0.62011450695827752463) <= 1e-12
        assert delta == 0.5e-6

    def test_first_order_regime(self):
        # small eps': ln(1 + p (e^x - 1)) is p*x to leading order
        eps, _ = amplify(0.01, 1e-6, 0.1)
        assert abs(eps - 1.005e-3) / 1.005e-3 <= 0.01
        assert rel_err(eps, 0.0010045120172451087879) <= 1e-12

    @pytest.mark.parametrize(
        "args",
        [(0.0, 1e-6, 0.5), (-1, 1e-6, 0.5), (1, 0.0, 0.5), (1, 1.0, 0.5),
         (1, 1e-6, 0.0), (1, 1e-6, 1.5)],
    )
    def test_rejects_out_of_range(self, args):
        with pytest.raises(ValueError):
            amplify(*args)


class TestCalibrate:
    def test_reference_point(self):
        # p = 1, C = 1, delta = 1e-6, epsilon = 1: sigma = sqrt(2 ln(2e6))
        params = calibrate(1.0, 1e-6, 1.0, 1.0)
        assert rel_err(params.sigma, 5.3867722689054192945) <= 1e-12
        assert math.isclose(params.eps_prime, 1.0, rel_tol=1e-14)
        assert params.delta_prime == 1e-6

    def test_subsampled_point(self):
        params = calibrate(1.4, 1e-6, 0.1, 1.0)
        assert rel_err(params.eps_prime, 3.4516369679120713505) <= 1e-12
        assert rel_err(params.delta_prime, 1e-5) <= 1e-12
        assert rel_err(params.sigma, 2.6594413505925766474) <= 1e-12

    def test_homogeneous_in_C(self):
        lo = calibrate(0.8, 1e-6, 0.25, 1.3)
        hi = calibrate(0.8, 1e-6, 0.25, 2.6)
        assert hi.sigma == 2 * lo.sigma

    def test_matches_oracle_on_grid(self):
        for eps in (0.1, 1.0, 9.0):
            for p in (0.01, 0.5, 1.0):
                for c in (0.5, 2.0):
                    params = calibrate(eps, 1e-6, p, c)
                    ep, dp, sigma = oracle_calibrate(eps, 1e-6, p, c)
                    assert rel_err(params.eps_prime, ep) <= 1e-12
                    assert rel_err(params.delta_prime, dp) <= 1e-12
                    assert rel_err(params.sigma, sigma) <= 1e-12

    def test_round_trip(self):
        for eps in (0.3, 1.0, 4.0):
            for p in (0.05, 0.4, 1.0):
                params = calibrate(eps, 1e-6, p, 1.0)
                eps_back, delta_back = amplify(params.eps_prime, params.delta_prime, p)
                assert rel_err(eps_back, eps) <= 1e-12
                assert rel_err(delta_back, 1e-6) <= 1e-12

    def test_sigma_monotonicity(self):
        base = calibrate(1.0, 1e-6, 0.5, 1.0).sigma
        assert calibrate(2.0, 1e-6, 0.5, 1.0).sigma < base     # easier target
        assert calibrate(1.0, 1e-4, 0.5, 1.0).sigma < base     # looser delta
        assert calibrate(1.0, 1e-6, 0.5, 2.0).sigma > base     # more sensitive
        assert calibrate(1.0, 1e-6, 0.9, 1.0).sigma > base     # less amplification

    def test_rejects_delta_over_p(self):
        with pytest.raises(ValueError, match="delta"):
            calibrate(1.0, 0.5, 0.4, 1.0)

    @pytest.mark.parametrize(
        "args",
        [(0.0, 1e-6, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0), (1.0, 1e-6, 0.0, 1.0),
         (1.0, 1e-6, 2.0, 1.0), (1.0, 1e-6, 1.0, 0.0), (math.inf, 1e-6, 1.0, 1.0)],
    )
    def test_rejects_out_of_range(self, args):
        with pytest.raises(ValueError):
            calibrate(*args)

    def test_params_validate(self):
        with pytest.raises(ValueError, match="sigma"):
            PrivacyParams(1, 1e-6, 1, 1, 1, 1e-6, 0.0)


class TestPerturb:
    def test_sigma_zero_exact(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 3))
        np.testing.assert_array_equal(perturb(x, 0.0, seed=1), x)

    def test_deterministic(self):
        x = np.zeros((2, 4, 4))
        a = perturb(x, 1.3, seed=42, stream=7)
        b = perturb(x, 1.3, seed=42, stream=7)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        x = np.zeros((2, 4, 4))
        a = perturb(x, 1.0, seed=42, stream=0)
        b = perturb(x, 1.0, seed=42, stream=1)
        c = perturb(x, 1.0, seed=43, stream=0)
        assert np.max(np.abs(a - b)) > 1e-6
        assert np.max(np.abs(a - c)) > 1e-6

    def test_moments(self):
        draws = perturb(np.zeros((1, 1000, 1000)), 1.0, seed=7)
        assert abs(draws.mean()) <= 0.005
        assert 0.995 <= draws.std() <= 1.005

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            perturb(np.zeros((1, 2, 2)), -1.0, seed=0)

    def test_stream_helper_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            noise_stream(-1, 0)
        with pytest.raises(ValueError):
            noise_stream(0, 2**64)


class TestQuantize:
    def test_sign_cases(self):
        bits = quantize(np.array([[[-0.3, 0.7]]]))
        np.testing.assert_array_equal(bits, [[[0, 1]]])
        assert bits.dtype == np.uint8

    def test_exact_zero_maps_to_one(self):
        assert quantize(np.array([[[0.0]]]))[0, 0, 0] == 1
        assert quantize(np.array([[[-0.0]]]))[0, 0, 0] == 1

    def test_all_negative(self):
        assert np.all(quantize(-np.ones((2, 3, 3))) == 0)

    def test_requantization_saturates(self):
        # 0 itself sits on the ">= 0" branch, so re-quantizing a bit tensor
        # (read back as floats) turns every entry into 1.
        rng = np.random.default_rng(1)
        bits = quantize(rng.normal(size=(3, 4, 4)))
        np.testing.assert_array_equal(
            quantize(bits.astype(np.float64)), np.ones_like(bits)
        )


class TestResidualCache:
    def make_residuals(self, n=6, seed=3, c=1.0):
        rng = np.random.default_rng(seed)
        out = {}
        for i in range(n):
            r = rng.normal(size=(2, 4, 4))
            out[i] = r * (0.9 * c / np.linalg.norm(r))
        return out

    def test_reads_are_stable(self):
        params = calibrate(1.0, 1e-6, 0.5, 1.0)
        cache = build_cache(self.make_residuals(), params, seed=11)
        first = cache.bits(3).copy()
        np.testing.assert_array_equal(cache.bits(3), first)
        np.testing.assert_array_equal(cache.bits(3), first)

    def test_bits_read_only(self):
        params = calibrate(1.0, 1e-6, 0.5, 1.0)
        cache = build_cache(self.make_residuals(), params, seed=11)
        with pytest.raises(ValueError):
            cache.bits(0)[0, 0, 0] = 1

    def test_sigma_zero_gives_sign_pattern(self):
        residuals = self.make_residuals()
        cache = build_cache(residuals, None, seed=5, sigma=0.0)
        for i, r in residuals.items():
            np.testing.assert_array_equal(cache.bits(i), quantize(r))

    def test_order_independent(self):
        params = calibrate(1.0, 1e-6, 0.5, 1.0)
        residuals = self.make_residuals()
        forward = build_cache(residuals, params, seed=9)
        backward = build_cache(dict(reversed(list(residuals.items()))), params, seed=9)
        for i in residuals:
            np.testing.assert_array_equal(forward.bits(i), backward.bits(i))

    def test_rejects_sensitivity_violation(self):
        params = calibrate(1.0, 1e-6, 0.5, 1.0)
        bad = {0: np.full((2, 4, 4), 1.0)}  # norm far above C = 1
        with pytest.raises(ValueError, match="sensitivity"):
            build_cache(bad, params, seed=0)

    def test_missing_sample(self):
        cache = build_cache(self.make_residuals(2), None, seed=1, sigma=0.0)
        assert len(cache) == 2 and 1 in cache and 5 not in cache
        with pytest.raises(KeyError):
            cache.bits(5)

    def test_accountant_consistency(self):
        # p = b/N subsampling: calibrate then amplify returns the target
        n, b = 500, 50
        params = calibrate(2.0, 1e-6, b / n, 1.0)
        eps, delta = amplify(params.eps_prime, params.delta_prime, b / n)
        assert rel_err(eps, 2.0) <= 1e-12 and rel_err(delta, 1e-6) <= 1e-12
