"""In-process reference loop for the two-stage protocol.

Both sides share one params/buffers dict pair and nothing crosses a wire:
stage 1, then every residual perturbed (and quantized) once into a store,
then the stage-2 batch loop.  ``protocol.run_split_training`` must match it
bitwise.  Its store keeps each sample's bits unpacked (and the unquantized
ablation its perturbed floats, which the split driver refuses to send), and
it stacks each batch from that store itself, so the split run's packed
store and its unpacking are checked against plain tensors.
"""

import numpy as np

from asymsplit.decompose import decompose_main_batch
from asymsplit.privacy import perturb, quantize
from asymsplit.training import (
    SgdState,
    Stage2Private,
    Stage2Public,
    TrainReport,
    batch_schedule,
    compute_residuals,
    one_hot,
    resolve_sigma,
    run_stage1,
)


def train_in_process(model, params, buffers, data, dcfg, cfg) -> TrainReport:
    """Run both stages, updating ``params`` and ``buffers`` in place."""
    report = TrainReport()
    n = len(data.train_x)
    report.p = min(1.0, cfg.batch_size / n)
    report.sigma, _ = resolve_sigma(cfg, report.p, dcfg.C)
    state_private = SgdState()
    run_stage1(model, params, buffers, data, dcfg, cfg, state_private, report)
    if cfg.ep2 == 0:
        return report

    store = {}
    residuals = compute_residuals(model, params, buffers, data.train_x, dcfg, cfg.batch_size)
    for sample_id, res in residuals.items():
        noisy = perturb(res, report.sigma, cfg.seed, stream=sample_id)
        store[sample_id] = quantize(noisy) if cfg.quantize else noisy

    private = Stage2Private(model, params, buffers, cfg, state_private, report)
    public = Stage2Public(model, params, buffers, cfg, SgdState())
    y1h = one_hot(data.train_y, model.spec.num_classes)
    for epoch in range(cfg.ep2):
        private.begin_epoch(epoch)
        public.begin_epoch(epoch)
        for idx in batch_schedule(n, cfg.batch_size, cfg.seed, 2, epoch):
            # ir_main recomputed per batch, independent of the driver's rows
            feats, _ = model.forward_backbone(params, buffers, data.train_x[idx], train=False)
            ir_main, _ = decompose_main_batch(feats, dcfg)
            private.prepare(ir_main, y1h[idx])
            bits = np.stack([store[int(i)] for i in idx])
            private.finish(public.logits(bits))
            public.apply_gradient(data.train_y[idx])
        private.end_epoch()
    return report
