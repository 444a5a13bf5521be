"""Asymmetric private/public split learning with DP-perturbed binary residuals.

A channel/frequency decomposition splits an early activation tensor into
a small information-dense part that stays private and a large residual
that is noised, binarized, and released for public-side training.  The
package provides the decomposition, the Gaussian-mechanism accountant
with subsampling amplification, the two-branch model and its two-stage
trainer, and a byte-exact two-endpoint wire protocol with transcript
auditing.
"""

from .datasets import Dataset, load_idx_dataset, synthetic_dataset
from .decompose import DecompositionConfig, decompose_batch, spectrum
from .model import Model, ModelSpec, count_macs, default_spec, forward_full
from .privacy import (
    PrivacyParams,
    ResidualCache,
    amplify,
    build_cache,
    calibrate,
    perturb,
    quantize,
)
from .protocol import (
    Frame,
    FrameKind,
    ProtocolViolation,
    Transcript,
    audit,
    decode_frame,
    encode_frame,
    run_split_inference,
    run_split_training,
)
from .training import (
    TrainConfig,
    TrainReport,
    TrainingDiverged,
    evaluate,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DecompositionConfig",
    "Frame",
    "FrameKind",
    "Model",
    "ModelSpec",
    "PrivacyParams",
    "ProtocolViolation",
    "ResidualCache",
    "TrainConfig",
    "TrainReport",
    "TrainingDiverged",
    "Transcript",
    "amplify",
    "audit",
    "build_cache",
    "calibrate",
    "count_macs",
    "decode_frame",
    "decompose_batch",
    "default_spec",
    "encode_frame",
    "evaluate",
    "forward_full",
    "load_idx_dataset",
    "perturb",
    "quantize",
    "run_split_inference",
    "run_split_training",
    "spectrum",
    "synthetic_dataset",
    "__version__",
]
