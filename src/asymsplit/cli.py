"""Command-line surface: spectrum, account, train, infer, report.

Configuration is a flat ``key = value`` namespace.  Every key can live in
a config file (``--config``) and every key has a mirroring flag; flags
win.  Unknown keys are rejected, and any path named in the resolved
configuration must exist before a command runs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 protocol
violation, 4 divergence.  All outputs are byte-reproducible for a fixed
config and seed; the only timestamp lives in the first line of
``config.txt``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .datasets import Dataset, load_idx_dataset, load_idx_images, synthetic_dataset
from .decompose import DecompositionConfig, format_spectrum_csv, spectrum
from .model import (
    BlockSpec,
    Model,
    ModelSpec,
    default_spec,
    load_checkpoint,
    save_checkpoint,
)
from .privacy import calibrate
from .protocol import (
    PrivateEndpoint,
    ProtocolViolation,
    PublicEndpoint,
    SocketChannel,
    Wire,
    audit,
    run_split_inference,
    run_split_training,
    split_params,
)
from .training import TrainConfig, TrainingDiverged, evaluate_main


class UsageError(Exception):
    """Bad flags, bad config keys, or missing referenced paths."""


# ---------------------------------------------------------------------------
# RunConfig: the flat key = value namespace
# ---------------------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _parse_optional_float(text: str):
    if text.strip().lower() in ("none", ""):
        return None
    return float(text)


# key -> (parser, default)
CONFIG_KEYS = {
    "data.kind": (str, "synthetic"),            # synthetic | idx
    "data.images": (str, ""),                   # idx image file
    "data.labels": (str, ""),                   # idx label file
    "data.n": (int, 2000),
    "data.classes": (int, 4),
    "data.side": (int, 16),
    "data.noise": (float, 0.4),
    "data.seed": (int, 0),
    "decompose.r": (int, 4),
    "decompose.t": (int, 8),
    "decompose.t_prime": (int, 2),
    "decompose.C": (float, 1.0),
    "model.alpha": (float, 1.0),
    "train.ep1": (int, 15),
    "train.ep2": (int, 15),
    "train.batch_size": (int, 64),
    "train.lr": (float, 0.05),
    "train.weight_decay": (float, 2e-4),
    "train.momentum": (float, 0.9),
    "train.orth_coeff": (float, 8e-4),
    "train.epsilon": (float, math.inf),
    "train.delta": (float, 1e-6),
    "train.sigma": (_parse_optional_float, None),
    "train.quantize": (_parse_bool, True),
    "train.perturb_inference": (_parse_bool, True),
    "train.seed": (int, 0),
    "protocol.mode": (str, "memory"),           # memory | socket
    "spectrum.samples": (int, 32),
    "out": (str, "run"),
}

_PATH_KEYS = ("data.images", "data.labels")


def parse_config_file(path: str) -> dict:
    raw = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        raw[key] = value
    return raw


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < flags, then typed parsing and path checks."""
    text_values = {}
    if getattr(args, "config", None):
        config_path = Path(args.config)
        if not config_path.is_file():
            raise UsageError(f"config file not found: {config_path}")
        text_values.update(parse_config_file(args.config))
    for key in CONFIG_KEYS:
        flag_value = vars(args).get(key)
        if flag_value is not None:
            text_values[key] = flag_value

    cfg = {}
    for key, (parse, default) in CONFIG_KEYS.items():
        if key in text_values:
            try:
                cfg[key] = parse(text_values[key])
            except ValueError as exc:
                raise UsageError(f"config key {key}: {exc}") from None
        else:
            cfg[key] = default

    if cfg["data.kind"] not in ("synthetic", "idx"):
        raise UsageError(f"data.kind must be synthetic or idx, got {cfg['data.kind']!r}")
    if cfg["protocol.mode"] not in ("memory", "socket"):
        raise UsageError(f"protocol.mode must be memory or socket, got {cfg['protocol.mode']!r}")
    if cfg["data.kind"] == "idx":
        for key in _PATH_KEYS:
            if not cfg[key]:
                raise UsageError(f"data.kind = idx requires {key}")
            if not Path(cfg[key]).is_file():
                raise UsageError(f"{key} path does not exist: {cfg[key]}")
    return cfg


def format_config(cfg: dict) -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    lines = [f"# asymsplit run config, written {stamp}"]
    for key in sorted(cfg):
        value = cfg[key]
        if value is None:
            value = "none"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def build_dataset(cfg: dict) -> Dataset:
    if cfg["data.kind"] == "idx":
        return load_idx_dataset(cfg["data.images"], cfg["data.labels"])
    return synthetic_dataset(
        n=cfg["data.n"],
        num_classes=cfg["data.classes"],
        side=cfg["data.side"],
        noise=cfg["data.noise"],
        seed=cfg["data.seed"],
    )


def decomposition_config(cfg: dict) -> DecompositionConfig:
    return DecompositionConfig(
        r=cfg["decompose.r"], t=cfg["decompose.t"],
        t_prime=cfg["decompose.t_prime"], C=cfg["decompose.C"],
    )


def train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        ep1=cfg["train.ep1"], ep2=cfg["train.ep2"],
        batch_size=cfg["train.batch_size"], lr=cfg["train.lr"],
        weight_decay=cfg["train.weight_decay"], momentum=cfg["train.momentum"],
        orth_coeff=cfg["train.orth_coeff"], epsilon=cfg["train.epsilon"],
        delta=cfg["train.delta"], sigma=cfg["train.sigma"],
        quantize=cfg["train.quantize"],
        perturb_inference=cfg["train.perturb_inference"], seed=cfg["train.seed"],
    )


def model_spec(cfg: dict, in_channels: int) -> ModelSpec:
    spec = default_spec(r=cfg["decompose.r"])
    return dataclasses.replace(spec, in_channels=in_channels, alpha=cfg["model.alpha"])


# ---------------------------------------------------------------------------
# Checkpoint metadata: enough to rebuild the model away from the run dir
# ---------------------------------------------------------------------------


def _spec_to_meta(spec: ModelSpec) -> dict:
    as_dict = dataclasses.asdict(spec)
    as_dict["main_blocks"] = [dataclasses.asdict(b) for b in spec.main_blocks]
    as_dict["res_blocks"] = [dataclasses.asdict(b) for b in spec.res_blocks]
    return as_dict


def _spec_from_meta(meta: dict) -> ModelSpec:
    fields = dict(meta)
    fields["main_blocks"] = tuple(BlockSpec(**b) for b in meta["main_blocks"])
    fields["res_blocks"] = tuple(BlockSpec(**b) for b in meta["res_blocks"])
    spec = ModelSpec(**fields)
    sizes = [spec.in_channels, spec.bb_channels, spec.bb_k, spec.num_classes]
    for blk in spec.main_blocks + spec.res_blocks:
        sizes += [blk.n, blk.k, blk.stride] + ([] if blk.q is None else [blk.q])
    if not all(type(v) is int and v >= 1 for v in sizes):
        raise ValueError("sizes, kernels and strides must be positive integers")
    if type(spec.alpha) not in (int, float) or type(spec.normalize) is not bool:
        raise ValueError("alpha must be a number and normalize a boolean")
    return spec


# every field cmd_infer reads, with the JSON type it must have
_META_FIELDS = {"spec": dict, "decompose": dict, "seed": int, "quantize": bool,
                "perturb_inference": bool, "sigma": (int, float)}


def _model_from_meta(meta):
    """(model, dcfg, tcfg, sigma) from checkpoint metadata, which is
    untrusted: a missing or mistyped field raises ValueError naming it."""
    if not isinstance(meta, dict):
        raise ValueError(f"checkpoint metadata is a {type(meta).__name__}, not an object")
    for name, kind in _META_FIELDS.items():
        if name not in meta:
            raise ValueError(f"checkpoint metadata has no {name!r} field")
        value = meta[name]
        # bool is an int subclass: true is no seed and no sigma
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ValueError(
                f"checkpoint metadata field {name!r} is a {type(value).__name__}"
            )
    try:
        model = Model(_spec_from_meta(meta["spec"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint metadata field 'spec' is invalid: {exc!r}") from None
    try:
        dcfg = DecompositionConfig(**meta["decompose"])
        if not all(type(v) is int for v in (dcfg.r, dcfg.t, dcfg.t_prime)):
            raise ValueError("r, t and t_prime must be integers")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint metadata field 'decompose' is invalid: {exc!r}") from None
    sigma = meta["sigma"]
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"checkpoint metadata field 'sigma' is {sigma}, not finite and >= 0")
    tcfg = TrainConfig(
        seed=meta["seed"], quantize=meta["quantize"],
        perturb_inference=meta["perturb_inference"],
    )
    return model, dcfg, tcfg, sigma


def _check_tensors(label: str, tensors: dict, expected: dict) -> None:
    """Refuse checkpoint tensors whose keys or shapes differ from the model's."""
    want = {key: tuple(shape) for key, shape in expected.items()}
    for key in sorted(want.keys() | tensors.keys()):
        got = tensors[key].shape if key in tensors else None
        if got != want.get(key):
            raise ValueError(
                f"checkpoint {label} {key!r} has shape {got}, "
                f"the model its spec builds has {want.get(key)}"
            )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    cfg = resolve_config(args)
    data = build_dataset(cfg)
    t = cfg["decompose.t"]
    samples = data.train_x[: cfg["spectrum.samples"]]
    channels = samples.shape[1]
    r_values = range(1, channels + 1)
    tprime_values = range(1, t + 1)

    sums = {}
    for x in samples:
        for kind, param, err in spectrum(x, t, r_values, tprime_values):
            sums[(kind, param)] = sums.get((kind, param), 0.0) + err
    rows = [(kind, param, total / len(samples)) for (kind, param), total in sums.items()]
    rows.sort(key=lambda row: (row[0], row[1]))

    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "spectrum.csv"
    csv_path.write_text(format_spectrum_csv(rows))
    print(f"spectrum over {len(samples)} samples -> {csv_path}")
    return 0


def cmd_account(args) -> int:
    params = calibrate(args.epsilon, args.delta, args.p, args.C)
    print(json.dumps(dataclasses.asdict(params), sort_keys=True))
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    data = build_dataset(cfg)
    dcfg = decomposition_config(cfg)
    tcfg = train_config(cfg)

    model = Model(model_spec(cfg, in_channels=data.train_x.shape[1]))
    params, buffers = model.init(tcfg.seed)
    channel = SocketChannel() if cfg["protocol.mode"] == "socket" else None
    report, wire, private, public = run_split_training(
        model, params, buffers, data, dcfg, tcfg, channel=channel
    )

    # validation pass: merged over the wire, main-only stays private; with
    # no stage 2 there is no trained residual branch and the wire stays silent
    val_main = evaluate_main(
        model, private.params, private.buffers, data.val_x, data.val_y, dcfg, tcfg
    )
    if tcfg.ep2 > 0:
        merged_preds = run_split_inference(private, public, data.val_x, sigma=report.sigma)
        val_merged = float(np.mean(merged_preds == data.val_y))
    else:
        val_merged = None

    audit_report = audit(wire.transcript)
    if not audit_report.passed:
        raise ProtocolViolation(f"transcript audit failed: {audit_report.violations[0][1]}")

    out_dir = Path(cfg["out"])
    ckpt_dir = out_dir / "ckpt"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    out_dir.joinpath("config.txt").write_text(format_config(cfg))
    out_dir.joinpath("transcript.csv").write_text(wire.transcript.to_csv())

    meta = {
        "spec": _spec_to_meta(model.spec),
        "decompose": dataclasses.asdict(dcfg),
        "sigma": report.sigma,
        "seed": tcfg.seed,
        "quantize": tcfg.quantize,
        "perturb_inference": tcfg.perturb_inference,
    }
    save_checkpoint(ckpt_dir / "private.dltp", private.params, private.buffers, meta)
    save_checkpoint(ckpt_dir / "public.dltp", public.params, public.buffers, meta)

    payload = {
        "epsilon": "inf" if math.isinf(tcfg.epsilon) else tcfg.epsilon,
        "sigma": report.sigma,
        "p": report.p,
        "accountant": report.accountant,
        "stage1_loss": report.stage1_loss,
        "stage2_main_loss": report.stage2_main_loss,
        "stage2_res_loss": report.stage2_res_loss,
        "bytes_by_phase": audit_report.bytes_by_phase,
        "audit_passed": audit_report.passed,
        "compression_ratio": audit_report.ratio,
        "val_main_accuracy": val_main,
        "val_merged_accuracy": val_merged,
    }
    out_dir.joinpath("report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    merged_text = "-" if val_merged is None else f"{val_merged:.4f}"
    print(f"train: val main {val_main:.4f} merged {merged_text} -> {out_dir}")
    return 0


def _load_infer_images(path: str) -> np.ndarray:
    if path.endswith(".npy"):
        xs = np.load(path)
        if xs.ndim == 3:
            xs = xs[None]
        if xs.ndim != 4:
            raise ValueError(f"expected (n, c, h, w) or (c, h, w) tensor, got {xs.shape}")
        return np.asarray(xs, dtype=np.float64)
    return load_idx_images(path)


def cmd_infer(args) -> int:
    ckpt_dir = Path(args.ckpt)
    for name in ("private.dltp", "public.dltp"):
        if not (ckpt_dir / name).is_file():
            raise UsageError(f"checkpoint not found: {ckpt_dir / name}")
    if not Path(args.images).is_file():
        raise UsageError(f"input tensor file not found: {args.images}")

    private_params, private_buffers, meta = load_checkpoint(ckpt_dir / "private.dltp")
    public_params, public_buffers, _ = load_checkpoint(ckpt_dir / "public.dltp")
    model, dcfg, tcfg, sigma = _model_from_meta(meta)
    (private_shapes, private_buffer_shapes), (public_shapes, public_buffer_shapes) = (
        split_params(model.param_keys(), model.buffer_keys())
    )
    _check_tensors("private parameter", private_params, private_shapes)
    _check_tensors("private buffer", private_buffers, private_buffer_shapes)
    _check_tensors("public parameter", public_params, public_shapes)
    _check_tensors("public buffer", public_buffers, public_buffer_shapes)

    xs = _load_infer_images(args.images)
    if xs.shape[1] != model.spec.in_channels:
        raise ValueError(
            f"input has {xs.shape[1]} channels, model expects {model.spec.in_channels}"
        )

    wire = Wire()
    private = PrivateEndpoint(model, private_params, private_buffers, dcfg, tcfg, wire)
    public = PublicEndpoint(model, public_params, public_buffers, tcfg, wire)
    preds = run_split_inference(private, public, xs, sigma=sigma)
    for pred in preds:
        print(int(pred))
    return 0


def cmd_report(args) -> int:
    rows = []
    for run_dir in args.runs:
        report_path = Path(run_dir) / "report.json"
        if not report_path.is_file():
            raise UsageError(f"no report.json under {run_dir}")
        payload = json.loads(report_path.read_text())
        epsilon = payload["epsilon"]
        rows.append((
            math.inf if epsilon == "inf" else float(epsilon),
            payload["val_main_accuracy"],
            payload["val_merged_accuracy"],
            str(run_dir),
        ))
    rows.sort(key=lambda row: row[0])
    print(f"{'epsilon':>10}  {'main':>7}  {'merged':>7}  run")
    for epsilon, main, merged, run_dir in rows:
        shown = "inf" if math.isinf(epsilon) else f"{epsilon:g}"
        merged_text = "      -" if merged is None else f"{merged:7.4f}"
        print(f"{shown:>10}  {main:7.4f}  {merged_text}  {run_dir}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here says 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    for key in CONFIG_KEYS:
        parser.add_argument(f"--{key}", dest=key, metavar="V", help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="asymsplit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_spectrum = sub.add_parser("spectrum", help="decomposition error curves to CSV")
    _add_config_flags(p_spectrum)
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_account = sub.add_parser("account", help="calibrate the privacy accountant")
    p_account.add_argument("--epsilon", type=float, required=True)
    p_account.add_argument("--delta", type=float, required=True)
    p_account.add_argument("--p", type=float, default=1.0)
    p_account.add_argument("--C", type=float, default=1.0)
    p_account.set_defaults(func=cmd_account)

    p_train = sub.add_parser("train", help="two-stage split training")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_infer = sub.add_parser("infer", help="split inference from a checkpoint")
    p_infer.add_argument("--ckpt", required=True, help="directory with *.dltp files")
    p_infer.add_argument("--images", required=True, help="idx or .npy tensor file")
    p_infer.set_defaults(func=cmd_infer)

    p_report = sub.add_parser("report", help="tabulate runs by epsilon")
    p_report.add_argument("runs", nargs="+", help="run directories with report.json")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProtocolViolation as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return 3
    except TrainingDiverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
