"""Two-stage training with private backpropagation: the pieces of one run.

Stage 1 trains the backbone and the main branch on ir_main alone; nothing
leaves the private side.  Between stages every training residual is
perturbed and quantized exactly once into the one-shot cache.  Stage 2
continues training the main branch (on merged logits) while the residual
branch trains on cached bits, exchanging only its logits and the batch's
labels: the public side forms its own softmax gradient
g_res = softmax(z_res) - y, which never reads z_main.  So the public side
learns every stage-2 label, and the labels frame shows exactly that.

This module holds the steps; ``protocol.run_split_training`` is the one
driver that runs them, with every frame crossing the wire.  The batch
schedule is a pure function of (seed, stage, epoch), so both sides derive
it independently and no sample ids need to travel during stage 2.
epsilon = inf is the no-noise setting: sigma is 0 and no accountant
output is produced.  ``evaluate``/``evaluate_main`` score trained
parameters once a run is over, through ``model.private_forward``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decompose import decompose_batch, decompose_main_adjoint, decompose_main_batch
from .model import Model, orth_reg, private_forward, softmax
from .privacy import add_noise, calibrate, noise_stream, quantize

# validation-time noise streams live in their own key range so they can
# never collide with (seed, train sample id) cache streams
VAL_STREAM_BASE = 2**32


class TrainingDiverged(RuntimeError):
    """Raised when a loss, a weight or the backbone's output stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    ep1: int = 15
    ep2: int = 15
    batch_size: int = 64
    lr: float = 0.05
    weight_decay: float = 2e-4
    momentum: float = 0.9
    orth_coeff: float = 8e-4
    epsilon: float = math.inf
    delta: float = 1e-6
    sigma: float | None = None  # direct override of the calibrated scale
    quantize: bool = True
    perturb_inference: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ep1 < 0 or self.ep2 < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not self.lr > 0:
            raise ValueError("learning rate must be positive")
        if self.weight_decay < 0 or self.orth_coeff < 0:
            raise ValueError("penalty coefficients must be >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive (inf = no noise)")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.sigma is not None and self.sigma < 0:
            raise ValueError("sigma override must be >= 0")


@dataclass
class TrainReport:
    stage1_loss: list = field(default_factory=list)
    stage2_main_loss: list = field(default_factory=list)
    stage2_res_loss: list = field(default_factory=list)
    sigma: float = 0.0
    p: float = 1.0
    accountant: dict | None = None
    bytes_by_phase: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Losses and gradients
# ---------------------------------------------------------------------------

def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels outside [0, {num_classes})")
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def cross_entropy(z, y_onehot) -> float:
    """Mean cross-entropy of logit rows against one-hot rows."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return float(-np.mean(np.sum(y_onehot * log_probs, axis=-1)))


def main_gradient(z_main, z_res, y_onehot, alpha: float) -> np.ndarray:
    """The main head's gradient, of the merged softmax: the private side's."""
    z_merged = np.asarray(z_main, dtype=np.float64) + alpha * np.asarray(z_res, dtype=np.float64)
    return softmax(z_merged) - np.asarray(y_onehot, dtype=np.float64)


def residual_gradient(z_res, y_onehot) -> np.ndarray:
    """The residual head's gradient, of its own softmax: the public side
    forms it from the z_res it computed and the labels it was sent."""
    return softmax(z_res) - np.asarray(y_onehot, dtype=np.float64)


def private_backprop(z_main, z_res, y_onehot, alpha: float):
    """The gradient split: merged softmax for the main head, own softmax
    for the residual head.  g_res never touches z_main.  In stage 2 each
    side forms only its own half (``Stage2Private``, ``Stage2Public``)."""
    return main_gradient(z_main, z_res, y_onehot, alpha), residual_gradient(z_res, y_onehot)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def cosine_lr(base: float, epoch: int, total: int) -> float:
    """Cosine-annealed rate over one stage; epoch 0 gets the full rate."""
    if total <= 1:
        return base
    return base * 0.5 * (1.0 + math.cos(math.pi * epoch / total))


@dataclass
class SgdState:
    velocities: dict = field(default_factory=dict)


def sgd_step(params, grads, cfg: TrainConfig, state: SgdState, lr: float) -> None:
    """Momentum SGD with weight decay on every key present in ``grads``."""
    for key in sorted(grads):
        g = grads[key] + cfg.weight_decay * params[key]
        v = state.velocities.get(key)
        v = g if v is None else cfg.momentum * v + g
        state.velocities[key] = v
        w = params[key] = params[key] - lr * v
        # a non-finite gradient or rate shows here too; the weight decay
        # term needs the squared norm, so a finite weight can overflow it
        if not math.isfinite(np.vdot(w, w)):
            raise TrainingDiverged(f"update left {key} with a non-finite squared norm")


def batch_schedule(n: int, batch_size: int, seed: int, stage: int, epoch: int):
    """Deterministic without-replacement batches for (seed, stage, epoch)."""
    rng = np.random.default_rng([seed, stage, epoch])
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


def _orth_penalty(params, grads, coeff: float) -> float:
    """Kernel-orthogonality penalty on the first sublayer of every
    factorized conv in the main branch."""
    if coeff == 0:
        return 0.0
    total = 0.0
    for key in params:
        if key.startswith("main/") and key.endswith("/w1"):
            loss, grad = orth_reg(params[key])
            total += loss
            grads[key] = grads.get(key, 0) + coeff * grad
    return coeff * total


# ---------------------------------------------------------------------------
# Stage 1
# ---------------------------------------------------------------------------

def _check_features(feats, phase: str) -> None:
    # finite squares bound every Gram entry the decomposition forms; einsum
    # reads the NHWC-strided view in place, where vdot would copy it
    if not math.isfinite(np.einsum("bchw,bchw->", feats, feats)):
        raise TrainingDiverged(f"{phase} backbone features overflow")


def stage1_batch(model: Model, params, buffers, xb, yb1h, dcfg, cfg, state, lr) -> float:
    feats, bb_cache = model.forward_backbone(params, buffers, xb, train=True)
    _check_features(feats, "stage-1")
    ir_main, basis = decompose_main_batch(feats, dcfg)
    z, main_cache = model.forward_main(params, buffers, ir_main, train=True)
    loss = cross_entropy(z, yb1h)
    if not math.isfinite(loss):
        raise TrainingDiverged(f"stage-1 loss is {loss}")
    grads = {}
    g_z = (softmax(z) - yb1h) / len(xb)
    g_ir = model.backward_main(params, main_cache, g_z, grads)
    g_feat = decompose_main_adjoint(g_ir, basis, dcfg)
    model.backward_backbone(params, bb_cache, g_feat, grads)
    loss += _orth_penalty(params, grads, cfg.orth_coeff)
    sgd_step(params, grads, cfg, state, lr)
    return loss


def run_stage1(model, params, buffers, data, dcfg, cfg, state, report):
    xs, ys = data.train_x, data.train_y
    y1h = one_hot(ys, model.spec.num_classes)
    for epoch in range(cfg.ep1):
        lr = cosine_lr(cfg.lr, epoch, cfg.ep1)
        losses = []
        for idx in batch_schedule(len(xs), cfg.batch_size, cfg.seed, 1, epoch):
            losses.append(
                stage1_batch(model, params, buffers, xs[idx], y1h[idx], dcfg, cfg, state, lr)
            )
        report.stage1_loss.append(float(np.mean(losses)))


# ---------------------------------------------------------------------------
# Residuals (cache-build)
# ---------------------------------------------------------------------------

def compute_residuals(model: Model, params, buffers, xs, dcfg, batch_size: int,
                      main_rows=None):
    """Normalized residual per sample of ``xs``, keyed by its index in
    ``xs``, backbone in eval mode.

    Every float residual of ``xs`` is held at once (c*h*w float64 each),
    so the split driver calls this one ``batch_size`` slice at a time and
    re-keys the slice to global sample ids.  The same pass forms every
    sample's ir_main; given a list, ``main_rows`` receives one array of
    them per batch, in sample order, so stage 2 can read the frozen
    backbone's output instead of running it again.
    """
    out = {}
    for start in range(0, len(xs), batch_size):
        xb = xs[start : start + batch_size]
        feats, _ = model.forward_backbone(params, buffers, xb, train=False)
        _check_features(feats, "cache-build")
        ir_main, ir_res = decompose_batch(feats, dcfg)
        if main_rows is not None:
            main_rows.append(ir_main)
        for j in range(len(xb)):
            out[start + j] = ir_res[j]
    return out


# ---------------------------------------------------------------------------
# Stage 2 steps, one per side of the split
# ---------------------------------------------------------------------------

class Stage2Private:
    """Private-side batch step: train the main head on merged logits from
    the batch's ir_main rows and the public side's z_res.  It forms no
    g_res: the public side forms that from the batch's labels.  The
    backbone is frozen after stage 1, so the caller hands in rows it
    formed once."""

    def __init__(self, model, params, buffers, cfg, state, report):
        self.model, self.params, self.buffers = model, params, buffers
        self.cfg, self.state, self.report = cfg, state, report
        self.lr = cfg.lr
        self._pending = None
        self._losses_main, self._losses_res = [], []

    def begin_epoch(self, epoch: int) -> None:
        self.lr = cosine_lr(self.cfg.lr, epoch, self.cfg.ep2)
        self._losses_main, self._losses_res = [], []

    def prepare(self, ir_main, yb1h) -> None:
        z_main, cache = self.model.forward_main(self.params, self.buffers, ir_main, train=True)
        self._pending = (z_main, cache, yb1h)

    def finish(self, z_res) -> None:
        z_main, cache, yb1h = self._pending
        self._pending = None
        alpha = self.model.spec.alpha
        merged_loss = cross_entropy(z_main + alpha * np.asarray(z_res), yb1h)
        res_loss = cross_entropy(z_res, yb1h)
        if not math.isfinite(merged_loss) or not math.isfinite(res_loss):
            raise TrainingDiverged("stage-2 loss is not finite")
        g_main = main_gradient(z_main, z_res, yb1h, alpha)
        grads = {}
        self.model.backward_main(
            self.params, cache, g_main / len(yb1h), grads, input_grad=False
        )
        merged_loss += _orth_penalty(self.params, grads, self.cfg.orth_coeff)
        sgd_step(self.params, grads, self.cfg, self.state, self.lr)
        self._losses_main.append(merged_loss)
        self._losses_res.append(res_loss)

    def end_epoch(self) -> None:
        self.report.stage2_main_loss.append(float(np.mean(self._losses_main)))
        self.report.stage2_res_loss.append(float(np.mean(self._losses_res)))


class Stage2Public:
    """Public-side batch step: residual logits from the batch's released
    bits, then g_res = softmax(z_res) - y from those logits and the
    batch's received labels, applied to the residual branch.  The private
    side reads the same z_res as the float64 the logits frame carries, so
    both sides' gradients come from the same values."""

    def __init__(self, model, params, buffers, cfg, state):
        self.model, self.params, self.buffers = model, params, buffers
        self.cfg, self.state = cfg, state
        self.lr = cfg.lr
        self._cache = self._z_res = None

    def begin_epoch(self, epoch: int) -> None:
        self.lr = cosine_lr(self.cfg.lr, epoch, self.cfg.ep2)

    def logits(self, bits) -> np.ndarray:
        """z_res of a (b, c, h, w) batch of the residual branch's inputs."""
        z_res, cache = self.model.forward_res(self.params, self.buffers, bits, train=True)
        self._cache, self._z_res = cache, z_res
        return z_res

    def apply_gradient(self, labels) -> None:
        """One step on the batch's class indices, in the order of its bits."""
        y1h = one_hot(labels, self.model.spec.num_classes)
        g_res = residual_gradient(self._z_res, y1h) / len(y1h)
        grads = {}
        self.model.backward_res(self.params, self._cache, g_res, grads)
        self._cache = self._z_res = None
        sgd_step(self.params, grads, self.cfg, self.state, self.lr)


# ---------------------------------------------------------------------------
# Evaluation (monolithic, batched)
# ---------------------------------------------------------------------------

def _correct(z, y) -> int:
    """How many rows of logits z have the label's index as their argmax."""
    return int(np.sum(np.argmax(z, axis=1) == y))


def evaluate_main(model, params, buffers, xs, ys, dcfg, cfg) -> float:
    """Accuracy of the main head alone on (xs, ys); no residual is released."""
    correct = 0
    for start in range(0, len(xs), cfg.batch_size):
        stop = start + cfg.batch_size
        z_main, _ = private_forward(model, params, buffers, xs[start:stop], dcfg)
        correct += _correct(z_main, ys[start:stop])
    return correct / len(xs)


def evaluate(model, params, buffers, xs, ys, dcfg, cfg, sigma: float):
    """Accuracy of the main head and of the merged head on (xs, ys)."""
    alpha = model.spec.alpha
    eval_sigma = sigma if cfg.perturb_inference else 0.0
    correct_main = correct_merged = 0
    # one generator for every batch; add_noise re-keys it per row
    gen = noise_stream(cfg.seed, 0)
    for start in range(0, len(xs), cfg.batch_size):
        stop = start + cfg.batch_size
        z_main, ir_res = private_forward(model, params, buffers, xs[start:stop], dcfg)
        streams = range(VAL_STREAM_BASE + start, VAL_STREAM_BASE + start + len(ir_res))
        rows = add_noise(np.empty(ir_res.shape), ir_res, eval_sigma, cfg.seed, streams, gen)
        if cfg.quantize:
            rows = quantize(rows)
        z_res, _ = model.forward_res(params, buffers, rows, train=False)
        correct_main += _correct(z_main, ys[start:stop])
        correct_merged += _correct(z_main + alpha * z_res, ys[start:stop])
    return correct_main / len(xs), correct_merged / len(xs)


# ---------------------------------------------------------------------------
# Noise scale
# ---------------------------------------------------------------------------

def resolve_sigma(cfg: TrainConfig, p: float, C: float):
    """Noise scale for a run: override > no-noise > calibrated."""
    if cfg.sigma is not None:
        return cfg.sigma, None
    if math.isinf(cfg.epsilon):
        return 0.0, None
    privacy = calibrate(cfg.epsilon, cfg.delta, p, C)
    return privacy.sigma, privacy
