import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymsplit import privacy
from asymsplit.privacy import (
    RELEASE_CHUNK,
    PrivacyParams,
    ResidualCache,
    amplify,
    build_cache,
    calibrate,
    noise_stream,
    pack_bits,
    perturb,
    quantize,
    unpack_bits,
)
from asymsplit.protocol import Frame, FrameKind, encode_frame


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

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            perturb(np.zeros((1, 2, 2)), sigma, seed=0)

    def test_stream_helper_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            noise_stream(-1, 0)
        with pytest.raises(ValueError):
            noise_stream(0, 2**64)

    @pytest.mark.parametrize("field, kwargs", [
        ("stream", {"seed": 0, "stream": 3.5}),
        ("stream", {"seed": 0, "stream": np.float64(3.0)}),
        ("stream", {"seed": 0, "stream": "3"}),
        ("seed", {"seed": 0.9, "stream": 0}),
        ("seed", {"seed": np.float32(1.0), "stream": 0}),
    ])
    def test_keys_must_be_integers(self, field, kwargs):
        # int() truncated 3.5 onto stream 3 and 0.9 onto seed 0
        x = np.zeros((1, 2, 2))
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            perturb(x, 1.0, **kwargs)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            noise_stream(kwargs["seed"], kwargs["stream"])

    def test_numpy_integer_keys_are_their_value(self):
        x = np.zeros((2, 3, 3))
        want = perturb(x, 1.0, seed=5, stream=9)
        for seed, stream in ((np.int64(5), np.uint64(9)), (np.uint8(5), np.int32(9))):
            assert perturb(x, 1.0, seed=seed, stream=stream).tobytes() == want.tobytes()


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


# the benchmark's calibration: eps 0.5, delta 1e-6, batch 128 of 1600, C = 1
BENCH_PARAMS = calibrate(0.5, 1e-6, 128 / 1600, 1.0)


def unit_residuals(ids, shape=(2, 3, 4), seed=0):
    rng = np.random.default_rng(seed)
    out = {}
    for sample_id in ids:
        r = rng.normal(size=shape)
        out[sample_id] = r * (rng.uniform(0.1, 1.0) / np.linalg.norm(r))
    return out


class TestBlockRelease:
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, RELEASE_CHUNK - 1, RELEASE_CHUNK, RELEASE_CHUNK + 1, 300]),
        sigma=st.sampled_from([0.0, 0.7, BENCH_PARAMS.sigma]),
        seed=st.sampled_from([0, 7, 2**64 - 1]),
        data=st.data(),
    )
    def test_bits_equal_one_fresh_stream_per_sample(self, n, sigma, seed, data):
        special = [0, 2**32 + 5, 2**64 - 1]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        drawn = rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
        ids = list(dict.fromkeys(special + [int(i) for i in drawn]))[:n]
        order = data.draw(st.permutations(ids))
        residuals = unit_residuals(order, seed=n)
        if sigma == BENCH_PARAMS.sigma:
            cache = build_cache(residuals, BENCH_PARAMS, seed)
        else:
            cache = build_cache(residuals, None, seed, sigma=sigma)
        assert cache.ids() == sorted(ids)
        for sample_id, r in residuals.items():
            noisy = r + noise_stream(seed, sample_id).normal(0.0, sigma, r.shape)
            want = (noisy >= 0).astype(np.uint8)
            assert cache.bits(sample_id).tobytes() == want.tobytes(), sample_id

    @pytest.mark.parametrize("n", [1, RELEASE_CHUNK + 1, 300])
    def test_one_generator_per_release(self, monkeypatch, n):
        calls = []
        real = privacy.noise_stream

        def spy(seed, stream):
            calls.append(stream)
            return real(seed, stream)

        monkeypatch.setattr(privacy, "noise_stream", spy)
        build_cache(unit_residuals(range(n)), None, seed=3, sigma=0.7)
        assert len(calls) == 1

    def test_empty_release_gives_empty_cache(self):
        assert len(build_cache({}, BENCH_PARAMS, seed=0)) == 0
        assert len(build_cache({}, None, seed=0, sigma=0.7)) == 0

    @pytest.mark.parametrize("count", [0, 1])
    @pytest.mark.parametrize("with_gen", [False, True])
    def test_seed_checked_on_every_path(self, count, with_gen):
        # an empty release given a generator draws nothing and once let any
        # seed through; every path refuses it before anything else
        gen = noise_stream(0, 0) if with_gen else None
        with pytest.raises(ValueError, match="seed must be an integer, got 0.5"):
            build_cache(unit_residuals(range(count)), None, seed=0.5, sigma=1.0, gen=gen)
        with pytest.raises(ValueError, match="seed must fit in uint64"):
            build_cache(unit_residuals(range(count)), None, seed=-1, sigma=1.0, gen=gen)

    @pytest.mark.parametrize("bad, params, match", [
        (math.nan, None, "non-finite"),
        (math.inf, None, "non-finite"),
        (-math.inf, None, "non-finite"),
        # nan > C is False: the norm check alone would let a NaN through
        (math.nan, BENCH_PARAMS, "non-finite"),
        (math.inf, BENCH_PARAMS, "sensitivity"),
        (-math.inf, BENCH_PARAMS, "sensitivity"),
    ])
    def test_rejects_non_finite_residual(self, bad, params, match):
        residuals = unit_residuals(range(RELEASE_CHUNK + 3))
        residuals[RELEASE_CHUNK + 1][0, 1, 2] = bad
        with pytest.raises(ValueError, match=match):
            build_cache(residuals, params, seed=0, sigma=None if params else 0.7)

    def test_noise_routine_rejects_non_finite_block(self):
        block = np.zeros((2, 2, 3, 4))
        block[1, 0, 0, 0] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            privacy.add_noise(np.empty_like(block), block, 0.0, 0, [0, 1])

    @pytest.mark.parametrize("sigma", [-0.5, math.nan, math.inf])
    def test_rejects_bad_explicit_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            build_cache(unit_residuals(range(4)), BENCH_PARAMS, seed=0, sigma=sigma)

    @pytest.mark.parametrize("sample_id", [-1, 2**64])
    def test_rejects_id_outside_uint64(self, sample_id):
        residuals = unit_residuals([*range(RELEASE_CHUNK + 1), sample_id])
        with pytest.raises(ValueError, match="uint64"):
            build_cache(residuals, None, seed=0, sigma=0.7)

    def test_rejects_mixed_shapes(self):
        residuals = {**unit_residuals(range(RELEASE_CHUNK + 1)),
                     **unit_residuals([500], shape=(2, 4, 3))}
        with pytest.raises(ValueError, match="shape"):
            build_cache(residuals, None, seed=0, sigma=0.7)

    def test_rejects_residual_without_three_axes(self):
        with pytest.raises(ValueError, match=r"\(c, h, w\)"):
            build_cache({0: np.zeros((4, 4))}, None, seed=0, sigma=0.7)


class TestBitLayout:
    @pytest.mark.parametrize("shape", [(3, 1, 3, 3), (5, 2, 3, 5), (4, 1, 1, 1), (2, 8, 16, 16)])
    @pytest.mark.parametrize("fill", ["random", "ones"])
    def test_block_rows_pack_one_sample_each(self, shape, fill):
        # c*h*w is not a multiple of 8 except at (8, 16, 16): each row is
        # padded to whole bytes on its own, with zeros
        rng = np.random.default_rng(sum(shape))
        block = (rng.integers(0, 2, size=shape) if fill == "random"
                 else np.ones(shape)).astype(np.uint8)
        count = math.prod(shape[1:])
        packed = pack_bits(block)
        assert packed.dtype == np.uint8 and packed.shape == (shape[0], -(-count // 8))
        assert not np.unpackbits(packed, axis=-1)[:, count:].any()
        assert unpack_bits(packed, shape[1:]).tobytes() == block.tobytes()
        for j, bits in enumerate(block):
            # the row is the sample's own packing and the payload its frame carries
            assert packed[j].tobytes() == pack_bits(bits).tobytes()
            raw = encode_frame(Frame(FrameKind.RESIDUAL_BITS, j, bits))
            assert raw[-packed.shape[1]:] == packed[j].tobytes()
            assert unpack_bits(packed[j], shape[1:]).tobytes() == bits.tobytes()

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (1, 2, 2, 2, 2)])
    def test_pack_needs_one_sample_or_a_block(self, shape):
        with pytest.raises(ValueError, match=r"\(c, h, w\)"):
            pack_bits(np.zeros(shape, np.uint8))


class TestPackedCache:
    def test_holds_about_one_bit_per_value(self):
        # 2048 released bits per (8, 16, 16) sample: their 256-byte packed
        # row and 16 B of id columns, not one uint8 per bit (2231 B before)
        residuals = unit_residuals(range(1024), shape=(8, 16, 16))
        build_cache(residuals, BENCH_PARAMS, seed=3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = build_cache(residuals, BENCH_PARAMS, seed=3)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cache) == 1024
        assert held / len(cache) <= 300, held / len(cache)

    def test_bits_fresh_read_only_and_exact_across_blocks(self):
        # ids arrive out of order across three blocks: every sample reads
        # back its own bits, as a new read-only array per call
        ids = [5 * i for i in range(2 * RELEASE_CHUNK + 7)][::-1]
        residuals = unit_residuals(ids, shape=(3, 5, 7))
        cache = build_cache(residuals, None, seed=4, sigma=0.7)
        assert cache.ids() == sorted(ids) and len(cache) == len(ids)
        for sample_id, r in residuals.items():
            got = cache.bits(sample_id)
            want = quantize(perturb(r, 0.7, 4, sample_id))
            assert got.shape == (3, 5, 7) and got.dtype == np.uint8
            assert got.tobytes() == want.tobytes() and not got.flags.writeable
            assert cache.bits(sample_id) is not got
        for absent in (1, -5, 5 * len(ids), 2**64):
            assert absent not in cache
            with pytest.raises(KeyError):
                cache.bits(absent)

    def test_packed_row_is_the_held_payload(self):
        # one sample's packed row, as its residual-bits frame carries it
        ids = list(range(RELEASE_CHUNK + 3))
        cache = build_cache(unit_residuals(ids, shape=(3, 5, 7)), None, seed=4, sigma=0.7)
        for sample_id in ids:
            row = cache.packed(sample_id)
            assert row.shape == (14,) and not row.flags.writeable
            assert row.tobytes() == pack_bits(cache.bits(sample_id)).tobytes()
        with pytest.raises(KeyError):
            cache.packed(len(ids))

    def test_blocks_are_the_packed_rows_by_first_id(self):
        # consecutive ids from 40: blocks of RELEASE_CHUNK rows, then the rest
        ids = list(range(40, 40 + 2 * RELEASE_CHUNK + 3))
        cache = build_cache(unit_residuals(ids[::-1], shape=(3, 5, 7)), None, seed=4, sigma=0.7)
        blocks = cache.blocks()
        assert [(first, rows.shape) for first, rows in blocks] == [
            (40, (RELEASE_CHUNK, 14)), (40 + RELEASE_CHUNK, (RELEASE_CHUNK, 14)),
            (40 + 2 * RELEASE_CHUNK, (3, 14))]
        for first, rows in blocks:
            assert not rows.flags.writeable
            for j, row in enumerate(rows):
                assert row.tobytes() == cache.packed(first + j).tobytes()
        assert build_cache({}, None, seed=4, sigma=0.7).blocks() == []

    def test_block_with_gaps_in_its_ids_refused(self):
        # one first id cannot name the rows of ids 0, 2, 4, ...
        cache = build_cache(unit_residuals([0, 2, 4], shape=(1, 2, 2)), None, seed=4, sigma=0.7)
        with pytest.raises(ValueError, match="block from sample id 0 has gaps"):
            cache.blocks()

    def test_repeated_sample_ids_refused(self):
        # two distinct keys with one integer value share one noise stream:
        # releasing both would add the same noise to two residuals
        class Three:
            def __index__(self):
                return 3

        residuals = unit_residuals([3, 4], shape=(2, 2, 2))
        residuals[Three()] = residuals[4]
        with pytest.raises(ValueError, match="repeat"):
            build_cache(residuals, None, seed=4, sigma=0.7)

    @pytest.mark.parametrize("sample_id", [3.5, 3.0, np.float64(7.0)])
    def test_non_integer_sample_id_refused(self, sample_id):
        # 3.5 was released as sample 3, under stream 3's noise
        residuals = unit_residuals([0, 1], shape=(2, 2, 2))
        residuals[sample_id] = residuals.pop(1)
        with pytest.raises(ValueError, match="sample id must be an integer"):
            build_cache(residuals, None, seed=4, sigma=0.7)
