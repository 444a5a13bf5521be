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


# parser for each annotation a TrainConfig field has
_FIELD_PARSERS = {"int": int, "float": float, "bool": _parse_bool,
                  "float | None": _parse_optional_float}

# key -> (parser, default); the train.* keys are TrainConfig's fields
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
    **{f"train.{f.name}": (_FIELD_PARSERS[f.type], f.default)
       for f in dataclasses.fields(TrainConfig)},
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


def config_from_keys(cls, cfg: dict, prefix: str):
    """The dataclass ``cls`` built from the ``prefix.<field>`` keys, one per field."""
    return cls(**{f.name: cfg[f"{prefix}.{f.name}"] for f in dataclasses.fields(cls)})


def model_spec(cfg: dict, data: Dataset) -> ModelSpec:
    """The shipped architecture, sized to the data's channels and classes."""
    return default_spec(r=cfg["decompose.r"], num_classes=data.num_classes,
                        alpha=cfg["model.alpha"], in_channels=data.train_x.shape[1])


# ---------------------------------------------------------------------------
# Checkpoint metadata: enough to rebuild the model away from the run dir
# ---------------------------------------------------------------------------

# Metadata is untrusted.  The table holds every field infer reads as
# name -> (JSON types, least value): a dict is an object with exactly
# those fields, and a one-item list a list of such objects.  Types match
# exactly, so true is no int, and a float must be finite.
_SIZE, _NUMBER, _BOOL = ((int,), 1), ((int, float), None), ((bool,), None)
_BLOCKS = ([{"n": _SIZE, "k": _SIZE, "stride": _SIZE, "q": ((int, type(None)), 1)}], None)
_META = ({
    "spec": ({"in_channels": _SIZE, "bb_channels": _SIZE, "bb_k": _SIZE,
              "main_blocks": _BLOCKS, "res_blocks": _BLOCKS, "num_classes": _SIZE,
              "alpha": _NUMBER, "normalize": _BOOL}, None),
    "decompose": ({"r": _SIZE, "t": _SIZE, "t_prime": _SIZE, "C": _NUMBER}, None),
    "seed": ((int,), 0),
    "quantize": _BOOL,
    "perturb_inference": _BOOL,
    "sigma": ((int, float), 0),
}, None)


def _check_meta(value, rule, path="") -> None:
    """Raise a ValueError naming the field unless ``value`` obeys ``rule``."""
    kind, low = rule
    what = f"checkpoint metadata field {path}" if path else "checkpoint metadata"
    if isinstance(kind, dict):
        if type(value) is not dict:
            raise ValueError(f"{what} is a {type(value).__name__}, not an object")
        unknown = sorted(value.keys() - kind.keys())
        if unknown:
            raise ValueError(f"{what} has an unknown key {unknown[0]!r}")
        for key, sub in kind.items():
            if key not in value:
                raise ValueError(f"{what} has no {key!r} field")
            _check_meta(value[key], sub, f"{path}[{key!r}]" if path else repr(key))
    elif isinstance(kind, list):
        if type(value) is not list:
            raise ValueError(f"{what} is a {type(value).__name__}, not a list")
        for i, item in enumerate(value):
            _check_meta(item, (kind[0], None), f"{path}[{i}]")
    elif type(value) not in kind:
        raise ValueError(f"{what} is a {type(value).__name__}")
    elif type(value) is float and not math.isfinite(value):
        raise ValueError(f"{what} is {value}, not a finite number")
    elif low is not None and value is not None and value < low:
        raise ValueError(f"{what} is {value}, below {low}")


def _model_from_meta(meta):
    """(model, dcfg, tcfg, sigma) from checkpoint metadata that obeys the
    table; what the dataclasses refuse on top is named by its field."""
    _check_meta(meta, _META)
    spec = dict(meta["spec"])
    for key in ("main_blocks", "res_blocks"):
        spec[key] = tuple(BlockSpec(**block) for block in spec[key])
    try:
        model = Model(ModelSpec(**spec))
    except ValueError as exc:
        raise ValueError(f"checkpoint metadata field 'spec' is invalid: {exc}") from None
    try:
        dcfg = DecompositionConfig(**meta["decompose"])
    except ValueError as exc:
        raise ValueError(f"checkpoint metadata field 'decompose' is invalid: {exc}") from None
    tcfg = TrainConfig(
        seed=meta["seed"], quantize=meta["quantize"], perturb_inference=meta["perturb_inference"]
    )
    return model, dcfg, tcfg, meta["sigma"]


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
    dcfg = config_from_keys(DecompositionConfig, cfg, "decompose")
    tcfg = config_from_keys(TrainConfig, cfg, "train")

    model = Model(model_spec(cfg, data))
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
        "spec": dataclasses.asdict(model.spec),
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
