import dataclasses
import math

import numpy as np
import pytest
from reference_driver import train_in_process

from asymsplit.datasets import synthetic_dataset
from asymsplit.decompose import DecompositionConfig
from asymsplit.model import Model, default_spec, softmax
from asymsplit.privacy import calibrate
from asymsplit.protocol import run_split_training
from asymsplit.training import (
    SgdState,
    TrainConfig,
    TrainingDiverged,
    batch_schedule,
    cosine_lr,
    cross_entropy,
    evaluate,
    evaluate_main,
    one_hot,
    private_backprop,
    resolve_sigma,
    sgd_step,
    stage1_batch,
)

DCFG = DecompositionConfig(r=4, t=8, t_prime=2, C=1.0)


def tiny_run(n=64, ep1=1, ep2=1, seed=0, **cfg_kwargs):
    """A split training run; returns the endpoints' parameters merged."""
    data = synthetic_dataset(n=n, seed=seed)
    model = Model(default_spec(r=4))
    params, buffers = model.init(seed=seed)
    cfg = TrainConfig(ep1=ep1, ep2=ep2, batch_size=16, seed=seed, **cfg_kwargs)
    report, _, private, public = run_split_training(model, params, buffers, data, DCFG, cfg)
    params = {**private.params, **public.params}
    buffers = {**private.buffers, **public.buffers}
    return model, params, buffers, report


class TestLosses:
    def test_one_hot(self):
        np.testing.assert_array_equal(
            one_hot([2, 0], 3), [[0, 0, 1], [1, 0, 0]]
        )

    def test_one_hot_range(self):
        with pytest.raises(ValueError, match="outside"):
            one_hot([3], 3)

    def test_cross_entropy_uniform(self):
        # all-zero logits: loss is ln(L) regardless of the label
        z = np.zeros((5, 4))
        y = one_hot([0, 1, 2, 3, 0], 4)
        assert cross_entropy(z, y) == pytest.approx(math.log(4), rel=1e-12)

    def test_cross_entropy_shift_invariant(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(6, 4))
        y = one_hot(rng.integers(0, 4, size=6), 4)
        assert cross_entropy(z + 100.0, y) == pytest.approx(cross_entropy(z, y), rel=1e-12)

    def test_cross_entropy_overflow_safe(self):
        z = np.array([[1000.0, 0.0]])
        assert math.isfinite(cross_entropy(z, np.array([[1.0, 0.0]])))


class TestPrivateBackprop:
    def test_uniform_hand_value(self):
        y = one_hot([1], 4)
        g_main, g_res = private_backprop(np.zeros((1, 4)), np.zeros((1, 4)), y, alpha=1.0)
        np.testing.assert_allclose(g_res, [[0.25, -0.75, 0.25, 0.25]], atol=1e-12)
        np.testing.assert_allclose(g_main, g_res, atol=1e-12)

    def test_matches_finite_differences(self):
        """g_main is the gradient of the merged cross-entropy in z_main."""
        rng = np.random.default_rng(1)
        z_main = rng.normal(size=(1, 5))
        z_res = rng.normal(size=(1, 5))
        y = one_hot([3], 5)
        alpha = 0.7
        g_main, _ = private_backprop(z_main, z_res, y, alpha)
        eps = 1e-6
        for j in range(5):
            zp, zm = z_main.copy(), z_main.copy()
            zp[0, j] += eps
            zm[0, j] -= eps
            fd = (cross_entropy(zp + alpha * z_res, y) - cross_entropy(zm + alpha * z_res, y)) / (2 * eps)
            assert g_main[0, j] == pytest.approx(fd, abs=1e-8)

    def test_g_res_gradient_of_own_loss(self):
        rng = np.random.default_rng(2)
        z_res = rng.normal(size=(1, 4))
        y = one_hot([0], 4)
        _, g_res = private_backprop(np.zeros((1, 4)), z_res, y, alpha=1.0)
        eps = 1e-6
        for j in range(4):
            zp, zm = z_res.copy(), z_res.copy()
            zp[0, j] += eps
            zm[0, j] -= eps
            fd = (cross_entropy(zp, y) - cross_entropy(zm, y)) / (2 * eps)
            assert g_res[0, j] == pytest.approx(fd, abs=1e-8)

    def test_g_res_bitwise_independent_of_z_main(self):
        rng = np.random.default_rng(3)
        z_res = rng.normal(size=(4, 6))
        y = one_hot(rng.integers(0, 6, size=4), 6)
        baseline = None
        for _ in range(5):
            _, g_res = private_backprop(rng.normal(size=(4, 6)) * 1e3, z_res, y, alpha=2.0)
            blob = g_res.tobytes()
            if baseline is None:
                baseline = blob
            assert blob == baseline


class TestOptimizer:
    def test_momentum_recurrence(self):
        cfg = TrainConfig(lr=1.0, weight_decay=0.0, momentum=0.9)
        params = {"w": np.array([1.0])}
        state = SgdState()
        sgd_step(params, {"w": np.array([0.1])}, cfg, state, lr=1.0)
        np.testing.assert_allclose(params["w"], [0.9], atol=1e-15)
        sgd_step(params, {"w": np.array([0.1])}, cfg, state, lr=1.0)
        # v = 0.9*0.1 + 0.1 = 0.19, w = 0.9 - 0.19
        np.testing.assert_allclose(params["w"], [0.71], atol=1e-15)

    def test_weight_decay(self):
        cfg = TrainConfig(lr=1.0, weight_decay=0.1, momentum=0.0)
        params = {"w": np.array([1.0])}
        sgd_step(params, {"w": np.array([0.2])}, cfg, SgdState(), lr=0.5)
        np.testing.assert_allclose(params["w"], [0.85], atol=1e-15)

    def test_non_finite_gradient_raises(self):
        cfg = TrainConfig()
        with pytest.raises(TrainingDiverged, match="w"):
            sgd_step({"w": np.array([1.0])}, {"w": np.array([math.nan])}, cfg, SgdState(), 0.1)

    @pytest.mark.parametrize("lr", [math.inf, 1e300])
    def test_update_that_overflows_the_weight_raises(self, lr):
        # a finite gradient; 1e300 leaves a finite weight whose square overflows
        cfg = TrainConfig()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDiverged, match="w with a non-finite squared norm"):
            sgd_step({"w": np.array([1.0, 2.0])}, {"w": np.array([0.5, 0.5])}, cfg, SgdState(), lr)

    def test_overflowing_backbone_features_raise(self):
        # weights below the squared-norm limit whose features' Gram overflows
        model = Model(default_spec(r=4))
        params, buffers = model.init(seed=0)
        params["bb/conv/w"] = np.full_like(params["bb/conv/w"], 1e152)
        x = np.ones((2, 3, 16, 16))
        assert math.isfinite(np.vdot(params["bb/conv/w"], params["bb/conv/w"]))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDiverged, match="features overflow"):
            stage1_batch(model, params, buffers, x, one_hot([0, 1], 4), DCFG,
                         TrainConfig(), SgdState(), 0.1)

    def test_cosine_schedule(self):
        assert cosine_lr(0.1, 0, 10) == pytest.approx(0.1)
        assert cosine_lr(0.1, 5, 10) == pytest.approx(0.05)
        assert cosine_lr(0.1, 9, 10) < 0.005
        assert cosine_lr(0.1, 0, 1) == 0.1

    def test_config_guards(self):
        with pytest.raises(ValueError):
            TrainConfig(ep1=-1)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            TrainConfig(sigma=-1.0)


class TestBatchSchedule:
    def test_partitions_all_samples(self):
        batches = batch_schedule(100, 32, seed=4, stage=1, epoch=2)
        assert [len(b) for b in batches] == [32, 32, 32, 4]
        np.testing.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(100))

    def test_reproducible(self):
        a = batch_schedule(50, 16, seed=9, stage=2, epoch=7)
        b = batch_schedule(50, 16, seed=9, stage=2, epoch=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_varies_with_stage_and_epoch(self):
        base = np.concatenate(batch_schedule(64, 64, seed=0, stage=1, epoch=0))
        other_epoch = np.concatenate(batch_schedule(64, 64, seed=0, stage=1, epoch=1))
        other_stage = np.concatenate(batch_schedule(64, 64, seed=0, stage=2, epoch=0))
        assert not np.array_equal(base, other_epoch)
        assert not np.array_equal(base, other_stage)


class TestResolveSigma:
    def test_override_wins(self):
        sigma, privacy = resolve_sigma(TrainConfig(sigma=1.5, epsilon=0.5), p=0.1, C=1.0)
        assert sigma == 1.5 and privacy is None

    def test_no_noise_at_inf(self):
        sigma, privacy = resolve_sigma(TrainConfig(), p=0.1, C=1.0)
        assert sigma == 0.0 and privacy is None

    def test_calibrated_otherwise(self):
        cfg = TrainConfig(epsilon=0.5, delta=1e-6)
        sigma, privacy = resolve_sigma(cfg, p=0.08, C=1.0)
        ref = calibrate(0.5, 1e-6, 0.08, 1.0)
        assert sigma == ref.sigma
        assert privacy == ref


class TestTwoStage:
    def test_losses_decrease_and_report_filled(self):
        model, _, _, report = tiny_run(n=96, ep1=3, ep2=3)
        assert report.stage1_loss[-1] < report.stage1_loss[0]
        assert report.stage2_res_loss[-1] < report.stage2_res_loss[0]
        assert len(report.stage1_loss) == 3 and len(report.stage2_main_loss) == 3
        assert report.sigma == 0.0 and report.accountant is None
        # bytes that crossed the wire: 22-byte headers, one bit per residual
        # entry, two float rows per stage-2 batch
        n_train = len(synthetic_dataset(n=96, seed=0).train_x)
        batches = -(-n_train // 16)
        stage2 = 3 * (2 * 22 * batches + 2 * 8 * model.spec.num_classes * n_train)
        assert report.bytes_by_phase == {
            "stage1": 0,
            "cache-build": n_train * (22 + model.spec.bb_channels * 16 * 16 // 8),
            "stage2": stage2,
            "inference": 0,
        }

    def test_deterministic_end_to_end(self):
        _, p1, b1, r1 = tiny_run(n=64, ep1=2, ep2=2, seed=3)
        _, p2, b2, r2 = tiny_run(n=64, ep1=2, ep2=2, seed=3)
        assert r1.stage1_loss == r2.stage1_loss
        assert r1.stage2_main_loss == r2.stage2_main_loss
        assert r1.stage2_res_loss == r2.stage2_res_loss
        for key in p1:
            assert p1[key].tobytes() == p2[key].tobytes(), key
        for key in b1:
            assert b1[key].tobytes() == b2[key].tobytes(), key

    def test_backbone_frozen_in_stage2(self):
        """Stage 2 must leave every backbone tensor bitwise untouched."""
        _, p_ref, b_ref, _ = tiny_run(n=64, ep1=2, ep2=0, seed=5)
        _, p_two, b_two, _ = tiny_run(n=64, ep1=2, ep2=3, seed=5)
        for key in p_ref:
            if key.startswith("bb/"):
                assert p_two[key].tobytes() == p_ref[key].tobytes(), key
        for key in b_ref:
            if key.startswith("bb/"):
                assert b_two[key].tobytes() == b_ref[key].tobytes(), key

    def test_main_branch_does_train_in_stage2(self):
        _, p_ref, _, _ = tiny_run(n=64, ep1=2, ep2=0, seed=5)
        _, p_two, _, _ = tiny_run(n=64, ep1=2, ep2=3, seed=5)
        moved = [
            key for key in p_ref
            if key.startswith("main/") and p_two[key].tobytes() != p_ref[key].tobytes()
        ]
        assert moved

    def test_stage1_learns_separable_set(self):
        # easy smooth classes: the main head alone should be near-perfect
        data = synthetic_dataset(n=320, seed=1, gamma=0.8, texture_amp=0.0, noise=0.05)
        model = Model(default_spec(r=4))
        params, buffers = model.init(seed=1)
        cfg = TrainConfig(ep1=8, ep2=0, batch_size=32, seed=1)
        _, _, private, _ = run_split_training(model, params, buffers, data, DCFG, cfg)
        acc = evaluate_main(model, private.params, private.buffers,
                            data.val_x, data.val_y, DCFG, cfg)
        assert acc >= 0.95

    def test_divergence_detected(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged):
            tiny_run(n=64, ep1=3, ep2=0, lr=1e4)

    def test_accountant_present_with_finite_epsilon(self):
        _, _, _, report = tiny_run(n=64, ep1=1, ep2=1, epsilon=0.5)
        assert report.sigma > 0
        assert report.accountant["epsilon"] == 0.5
        assert report.accountant["p"] == pytest.approx(16 / 51)  # 20% val split
        expected = calibrate(0.5, 1e-6, report.p, 1.0)
        assert report.accountant == dataclasses.asdict(expected)

    def test_unquantized_ablation_runs(self):
        # the split driver refuses this configuration; the reference loop runs it
        data = synthetic_dataset(n=64, seed=0)
        model = Model(default_spec(r=4))
        params, buffers = model.init(seed=0)
        cfg = TrainConfig(ep1=1, ep2=2, batch_size=16, seed=0, quantize=False)
        report = train_in_process(model, params, buffers, data, DCFG, cfg)
        assert len(report.stage2_res_loss) == 2


class TestEvaluate:
    def make(self, seed=0):
        data = synthetic_dataset(n=80, seed=seed)
        model = Model(default_spec(r=4))
        params, buffers = model.init(seed=seed)
        return data, model, params, buffers

    def test_repeatable(self):
        data, model, params, buffers = self.make()
        cfg = TrainConfig(batch_size=32, epsilon=0.5)
        a = evaluate(model, params, buffers, data.val_x, data.val_y, DCFG, cfg, sigma=2.0)
        b = evaluate(model, params, buffers, data.val_x, data.val_y, DCFG, cfg, sigma=2.0)
        assert a == b

    def test_batching_invariant(self):
        """Accuracies must not depend on the evaluation batch size."""
        data, model, params, buffers = self.make(seed=2)
        big = evaluate(model, params, buffers, data.val_x, data.val_y, DCFG,
                       TrainConfig(batch_size=64), sigma=0.0)
        small = evaluate(model, params, buffers, data.val_x, data.val_y, DCFG,
                         TrainConfig(batch_size=7), sigma=0.0)
        assert big == small

    def test_perturb_inference_flag(self):
        data, model, params, buffers = self.make(seed=3)
        cfg_off = TrainConfig(batch_size=32, perturb_inference=False)
        noisy_off = evaluate(model, params, buffers, data.val_x, data.val_y, DCFG, cfg_off, sigma=50.0)
        clean = evaluate(model, params, buffers, data.val_x, data.val_y, DCFG,
                         TrainConfig(batch_size=32), sigma=0.0)
        assert noisy_off == clean

    def test_main_only_matches_evaluate(self):
        # the main head scored alone must read exactly what the full
        # evaluation reports for that head
        model, params, buffers, _ = tiny_run(n=64, ep1=2, ep2=0)
        data = synthetic_dataset(n=64, seed=0)
        for batch_size in (16, 7):
            cfg = TrainConfig(batch_size=batch_size)
            main = evaluate_main(model, params, buffers, data.val_x, data.val_y, DCFG, cfg)
            full = evaluate(model, params, buffers, data.val_x, data.val_y, DCFG, cfg, sigma=2.0)
            assert main == full[0]

    def test_noise_changes_with_sigma(self):
        data = synthetic_dataset(n=200, seed=2)
        model = Model(default_spec(r=4))
        params, buffers = model.init(seed=2)
        cfg = TrainConfig(batch_size=32)
        clean = evaluate(model, params, buffers, data.val_x, data.val_y, DCFG, cfg, sigma=0.0)
        noisy = evaluate(model, params, buffers, data.val_x, data.val_y, DCFG, cfg, sigma=50.0)
        assert clean[0] == noisy[0]  # the main head never sees the noise
        assert clean[1] != noisy[1]
