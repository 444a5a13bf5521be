"""The whole pipeline, small: two endpoints, three phases, one audit.

Runs split training end to end on a reduced synthetic problem -- stage 1
private-only, then the one-shot residual cache release, then stage 2
with the public side's logits and the private side's labels crossing the
wire, from which the public side forms its own gradient -- and finishes
with split inference and the transcript audit.  Takes a few seconds.
"""

import numpy as np

from asymsplit.datasets import synthetic_dataset
from asymsplit.decompose import DecompositionConfig
from asymsplit.model import Model, default_spec
from asymsplit.protocol import audit, run_split_inference, run_split_training
from asymsplit.training import TrainConfig

dcfg = DecompositionConfig(r=4, t=8, t_prime=2, C=1.0)
data = synthetic_dataset(n=600, seed=3)
model = Model(default_spec(r=4))
params, buffers = model.init(seed=3)
cfg = TrainConfig(ep1=6, ep2=6, batch_size=64, epsilon=1.4, delta=1e-6, seed=3)

print(f"train {len(data.train_x)} / val {len(data.val_x)}, eps={cfg.epsilon}")
report, wire, private, public = run_split_training(model, params, buffers, data, dcfg, cfg)

print(f"\ncalibrated sigma = {report.sigma:.3f} at p = {report.p:.3f}")
print("stage-1 loss: " + " ".join(f"{v:.3f}" for v in report.stage1_loss))
print("stage-2 merged loss: " + " ".join(f"{v:.3f}" for v in report.stage2_main_loss))
print(f"residual cache: {len(public.store)} packed bit rows on the public side")

# --- what actually crossed the wire --------------------------------------
print("\nbytes by phase:")
for phase, total in report.bytes_by_phase.items():
    count = sum(1 for e in wire.transcript.entries if e.phase == phase)
    print(f"  {phase:>11}: {total:>9,} bytes in {count} frames")

result = audit(wire.transcript)
print(f"audit: passed={result.passed}, residual compression x{result.ratio:.0f}")

# --- split inference over the same wire ----------------------------------
preds = run_split_inference(private, public, data.val_x, sigma=report.sigma)
acc = float(np.mean(preds == data.val_y))
moved = wire.transcript.bytes_by_phase()["inference"]
print(f"\nsplit inference accuracy on {len(preds)} held-out samples: {acc:.3f}")
print(f"inference itself moved {moved:,} bytes (bits out, logits back)")
print(f"first ten predictions: {preds[:10].tolist()}")
print(f"first ten labels:      {data.val_y[:10].tolist()}")
