"""Two-endpoint wire protocol for the private/public split.

Frames are the only thing that crosses the boundary.  A frame is a
22-byte header (magic ``DLTR``, version, kind, id, then c, h, w as
little-endian u32) followed by a payload: residual tensors travel as
bit-packed sign bits (channel-major, most significant bit first), logits
and gradients as little-endian 64-bit floats.  Because the bit payload
is ceil(c*h*w/8) bytes against the 4*c*h*w bytes of a hypothetical
32-bit-float transmission, the wire realizes the 32x compression exactly
whenever c*h*w is a multiple of eight.

Both endpoints derive the stage-2 batch schedule from the shared seed,
so no sample ids ever travel during training; the transcript records
every frame with its phase, and the audit enforces the phase whitelists:
stage 1 is silent, cache-build carries only residual bits, stage 2 only
logits and gradients, inference only residual bits and logits.
"""

from __future__ import annotations

import dataclasses
import socket
import struct
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

# decompose_batch is unused here, but the benchmark's tracer test reads
# protocol.decompose_batch (perfbench/tests/test_perfbench.py::TestInstall)
from .decompose import DecompositionConfig, decompose_batch  # noqa: F401
from .model import Model, private_forward
from .privacy import build_cache, perturb, quantize
from .training import (
    SgdState,
    Stage2Private,
    Stage2Public,
    TrainConfig,
    TrainReport,
    VAL_STREAM_BASE,
    batch_schedule,
    compute_residuals,
    one_hot,
    resolve_sigma,
    run_stage1,
)

FRAME_MAGIC = b"DLTR"
FRAME_VERSION = 1
_HEADER = struct.Struct("<4sBBIIII")
_RECV_CHUNK = 1 << 16  # largest single socket read

PHASES = ("stage1", "cache-build", "stage2", "inference")

# frame kinds allowed on the wire in each phase
PHASE_WHITELIST = {
    "stage1": frozenset(),
    "cache-build": frozenset({"residual-bits"}),
    "stage2": frozenset({"logits", "gradient"}),
    "inference": frozenset({"residual-bits", "logits"}),
}


class ProtocolViolation(RuntimeError):
    """An endpoint received a frame the protocol does not allow here."""


class FrameKind(IntEnum):
    RESIDUAL_BITS = 1
    LOGITS = 2
    GRADIENT = 3

    @property
    def wire_name(self) -> str:
        return _KIND_NAMES[self]


_KIND_NAMES = {
    FrameKind.RESIDUAL_BITS: "residual-bits",
    FrameKind.LOGITS: "logits",
    FrameKind.GRADIENT: "gradient",
}


@dataclass(frozen=True)
class Frame:
    kind: FrameKind
    frame_id: int
    data: np.ndarray  # (c, h, w); uint8 bits for RESIDUAL_BITS, f64 otherwise

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError(f"frame data must be (c, h, w), got {self.data.shape}")


def frame_from_rows(kind: FrameKind, frame_id: int, rows: np.ndarray) -> Frame:
    """Wrap a (b, L) float matrix (logits or gradients) as a frame."""
    rows = np.asarray(rows, dtype=np.float64)
    return Frame(kind, frame_id, rows.reshape(rows.shape[0], rows.shape[1], 1))


def rows_from_frame(frame: Frame) -> np.ndarray:
    return frame.data.reshape(frame.data.shape[0], frame.data.shape[1])


def encode_frame(frame: Frame) -> bytes:
    c, h, w = frame.data.shape
    header = _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, int(frame.kind), frame.frame_id, c, h, w)
    if frame.kind == FrameKind.RESIDUAL_BITS:
        bits = np.asarray(frame.data, dtype=np.uint8).reshape(-1)
        if bits.size and bits.max() > 1:
            raise ValueError("residual payload must be 0/1 bits")
        payload = np.packbits(bits, bitorder="big").tobytes()
    else:
        payload = np.asarray(frame.data, dtype="<f8").tobytes()
    return header + payload


def _payload_length(kind: FrameKind, count: int) -> int:
    if kind == FrameKind.RESIDUAL_BITS:
        return (count + 7) // 8
    return 8 * count


def _parse_header(raw: bytes):
    """Check a frame header's magic, version and kind before anything is
    sized from it.  Returns (kind, frame_id, c, h, w)."""
    if len(raw) < _HEADER.size:
        raise ValueError(f"frame truncated at offset {len(raw)}: header incomplete")
    magic, version, kind_code, frame_id, c, h, w = _HEADER.unpack_from(raw, 0)
    if magic != FRAME_MAGIC:
        raise ValueError(f"bad frame magic {magic!r} at offset 0")
    if version != FRAME_VERSION:
        raise ValueError(f"unsupported frame version {version} at offset 4")
    try:
        kind = FrameKind(kind_code)
    except ValueError:
        raise ValueError(f"unknown frame kind {kind_code} at offset 5") from None
    return kind, frame_id, c, h, w


def decode_frame(raw: bytes) -> Frame:
    kind, frame_id, c, h, w = _parse_header(raw)
    expected = _payload_length(kind, c * h * w)
    if len(raw) != _HEADER.size + expected:
        raise ValueError(
            f"frame payload length {len(raw) - _HEADER.size} != expected {expected} "
            f"at offset {_HEADER.size}"
        )
    if kind == FrameKind.RESIDUAL_BITS:
        bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8, offset=_HEADER.size),
            count=c * h * w, bitorder="big",
        )
        data = bits.reshape(c, h, w)
    else:
        data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(c, h, w)
    return Frame(kind, frame_id, data)


# ---------------------------------------------------------------------------
# Channels: ordered, reliable, exactly-once delivery of whole frames
# ---------------------------------------------------------------------------

class MemoryChannel:
    """In-process FIFO byte channel between the two endpoints."""

    def __init__(self):
        self._to_public = deque()
        self._to_private = deque()

    def send(self, sender: str, raw: bytes) -> None:
        (self._to_public if sender == "private" else self._to_private).append(raw)

    def recv(self, receiver: str) -> bytes:
        queue = self._to_private if receiver == "private" else self._to_public
        if not queue:
            raise ProtocolViolation(f"{receiver} endpoint expected a frame, channel empty")
        return queue.popleft()

    def close(self) -> None:
        pass


class SocketChannel:
    """The same frames over a pair of local stream sockets.

    Lockstep scheduling keeps at most one small frame in flight per
    direction, so a single-threaded driver never deadlocks on buffers.
    """

    def __init__(self):
        self._private_sock, self._public_sock = socket.socketpair()

    def _sock(self, role: str) -> socket.socket:
        return self._private_sock if role == "private" else self._public_sock

    def send(self, sender: str, raw: bytes) -> None:
        self._sock(sender).sendall(raw)

    def recv(self, receiver: str) -> bytes:
        sock = self._sock(receiver)
        header = self._recv_exact(sock, _HEADER.size)
        kind, _, c, h, w = _parse_header(header)
        return header + self._recv_exact(sock, _payload_length(kind, c * h * w))

    @staticmethod
    def _recv_exact(sock: socket.socket, count: int) -> bytes:
        # bounded reads: a forged header's size allocates nothing up front,
        # only what the peer actually sends
        chunks = []
        got = 0
        while got < count:
            chunk = sock.recv(min(count - got, _RECV_CHUNK))
            if not chunk:
                raise ProtocolViolation("channel closed mid-frame")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        self._private_sock.close()
        self._public_sock.close()


# ---------------------------------------------------------------------------
# Transcript and audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranscriptEntry:
    index: int
    direction: str  # "private->public" or "public->private"
    kind: str
    nbytes: int
    phase: str


@dataclass
class Transcript:
    entries: list = field(default_factory=list)

    def record(self, direction: str, kind: str, nbytes: int, phase: str) -> None:
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        self.entries.append(TranscriptEntry(len(self.entries), direction, kind, nbytes, phase))

    def bytes_by_phase(self) -> dict:
        totals = {phase: 0 for phase in PHASES}
        for entry in self.entries:
            totals[entry.phase] += entry.nbytes
        return totals

    def to_csv(self) -> str:
        lines = ["index,direction,kind,bytes,phase"]
        for e in self.entries:
            lines.append(f"{e.index},{e.direction},{e.kind},{e.nbytes},{e.phase}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    violations: tuple
    bytes_by_phase: dict
    ratio: float


def audit(transcript: Transcript) -> AuditReport:
    """Check every recorded frame against its phase whitelist.

    The ratio field reports payload compression of the residual frames
    against a 32-bit-float transmission of the same tensors.
    """
    violations = []
    residual_payload = 0
    for entry in transcript.entries:
        allowed = PHASE_WHITELIST.get(entry.phase)
        if allowed is None:
            violations.append((entry.index, f"unknown phase {entry.phase!r}"))
            continue
        if entry.kind not in allowed:
            violations.append(
                (entry.index,
                 f"frame kind {entry.kind!r} not allowed in phase {entry.phase!r}")
            )
        if entry.kind == "residual-bits":
            residual_payload += entry.nbytes - _HEADER.size
    ratio = 32.0 if residual_payload else 0.0
    return AuditReport(
        passed=not violations,
        violations=tuple(violations),
        bytes_by_phase=transcript.bytes_by_phase(),
        ratio=ratio,
    )


class Wire:
    """A channel end-pair with transcript bookkeeping and a phase tag."""

    def __init__(self, channel=None):
        self.channel = channel if channel is not None else MemoryChannel()
        self.transcript = Transcript()
        self.phase = "stage1"

    def send(self, sender: str, frame: Frame) -> None:
        raw = encode_frame(frame)
        direction = "private->public" if sender == "private" else "public->private"
        self.transcript.record(direction, frame.kind.wire_name, len(raw), self.phase)
        self.channel.send(sender, raw)

    def recv(self, receiver: str, expect: FrameKind, shape=None) -> Frame:
        """The next frame for ``receiver``, which must be of kind ``expect``
        and, given a (c, h, w) tuple ``shape``, carry data of that shape."""
        frame = decode_frame(self.channel.recv(receiver))
        if frame.kind != expect:
            raise ProtocolViolation(
                f"{receiver} endpoint got {frame.kind.wire_name!r}, "
                f"expected {expect.wire_name!r} in phase {self.phase!r}"
            )
        if shape is not None and frame.data.shape != shape:
            raise ProtocolViolation(
                f"{receiver} endpoint got a {expect.wire_name!r} frame of shape "
                f"{frame.data.shape}, expected {shape} in phase {self.phase!r}"
            )
        return frame


# ---------------------------------------------------------------------------
# Endpoints
# ---------------------------------------------------------------------------

def split_params(params: dict, buffers: dict):
    """Partition a monolithic init into private (bb+main) and public (res)."""
    private_p = {k: v for k, v in params.items() if not k.startswith("res/")}
    public_p = {k: v for k, v in params.items() if k.startswith("res/")}
    private_b = {k: v for k, v in buffers.items() if not k.startswith("res/")}
    public_b = {k: v for k, v in buffers.items() if k.startswith("res/")}
    return (private_p, private_b), (public_p, public_b)


class PrivateEndpoint:
    """Owns M_bb and M_main; raw features and labels never leave it."""

    role = "private"

    def __init__(self, model: Model, params, buffers, dcfg: DecompositionConfig,
                 cfg: TrainConfig, wire: Wire):
        self.model, self.params, self.buffers = model, params, buffers
        self.dcfg, self.cfg, self.wire = dcfg, cfg, wire

    def inference_parts(self, x, stream: int, sigma: float):
        """One private pass: the residual bits to ship and z_main to keep."""
        z_main, ir_res = private_forward(self.model, self.params, self.buffers, x[None], self.dcfg)
        bits = quantize(perturb(ir_res[0], sigma, self.cfg.seed, stream))
        return bits, z_main[0]


class PublicEndpoint:
    """Owns M_res and, after cache-build, the released residual bits."""

    role = "public"

    def __init__(self, model: Model, params, buffers, cfg: TrainConfig, wire: Wire):
        self.model, self.params, self.buffers = model, params, buffers
        self.cfg, self.wire = cfg, wire
        self.store = {}

    def res_logits(self, bits: np.ndarray) -> np.ndarray:
        z, _ = self.model.forward_res(
            self.params, self.buffers, bits[None].astype(np.float64), train=False
        )
        return z


# ---------------------------------------------------------------------------
# Split drivers
# ---------------------------------------------------------------------------

def run_split_inference(private: PrivateEndpoint, public: PublicEndpoint, xs,
                        sigma: float = 0.0) -> np.ndarray:
    """Per-sample inference over the wire; predictions stay private."""
    wire = private.wire
    wire.phase = "inference"
    spec = private.model.spec
    eval_sigma = sigma if private.cfg.perturb_inference else 0.0
    xs = np.asarray(xs, dtype=np.float64)
    bits_shape = (spec.bb_channels, *xs.shape[2:])
    preds = np.empty(len(xs), dtype=np.int64)
    for i, x in enumerate(xs):
        bits, z_main = private.inference_parts(x, VAL_STREAM_BASE + i, eval_sigma)
        wire.send("private", Frame(FrameKind.RESIDUAL_BITS, i, bits))

        request = wire.recv("public", FrameKind.RESIDUAL_BITS, bits_shape)
        z_res = public.res_logits(request.data)
        wire.send("public", frame_from_rows(FrameKind.LOGITS, i, z_res))

        z_frame = wire.recv("private", FrameKind.LOGITS, (1, spec.num_classes, 1))
        z_res = rows_from_frame(z_frame)[0]
        preds[i] = int(np.argmax(z_main + spec.alpha * z_res))
    return preds


def run_split_training(model: Model, params, buffers, data,
                       dcfg: DecompositionConfig, cfg: TrainConfig,
                       channel=None) -> tuple:
    """The full two-stage protocol over a channel: the one training driver.

    Returns (report, wire, private, public).  There is no per-epoch
    evaluation: the wire carries exactly the frames the protocol defines,
    nothing else.  Score the trained endpoints with ``training.evaluate``.
    """
    if cfg.ep2 > 0 and not cfg.quantize:
        raise ProtocolViolation(
            "raw residual floats never travel: the unquantized ablation "
            "is an in-process-only configuration"
        )
    wire = Wire(channel)
    (priv_p, priv_b), (pub_p, pub_b) = split_params(params, buffers)
    private = PrivateEndpoint(model, priv_p, priv_b, dcfg, cfg, wire)
    public = PublicEndpoint(model, pub_p, pub_b, cfg, wire)

    report = TrainReport()
    n = len(data.train_x)
    report.p = min(1.0, cfg.batch_size / n)
    sigma, privacy = resolve_sigma(cfg, report.p, dcfg.C)
    report.sigma = sigma
    if privacy is not None:
        report.accountant = dataclasses.asdict(privacy)

    # stage 1: entirely private, the channel stays silent
    wire.phase = "stage1"
    state_private = SgdState()
    run_stage1(model, private.params, private.buffers, data, dcfg, cfg, state_private, report)

    if cfg.ep2 > 0:
        # cache-build: the whole release is formed (and every residual
        # checked against C) before its first frame is sent; then one
        # residual-bits frame per training sample
        wire.phase = "cache-build"
        # the same pass keeps every sample's ir_main on the private side:
        # the backbone is frozen, so stage 2 reads these rows
        main_parts = []
        residuals = compute_residuals(
            model, private.params, private.buffers, data.train_x, dcfg, cfg.batch_size,
            main_rows=main_parts,
        )
        main_rows = np.concatenate(main_parts)
        try:
            cache = build_cache(residuals, privacy, cfg.seed, sigma=sigma)
        except ValueError as exc:
            raise ProtocolViolation(str(exc)) from None
        # only the released bits and the ir_main rows are needed from here on
        del residuals, main_parts
        bits_shape = (model.spec.bb_channels, *data.train_x.shape[2:])
        for sample_id in cache.ids():
            wire.send("private", Frame(FrameKind.RESIDUAL_BITS, sample_id, cache.bits(sample_id)))
            frame = wire.recv("public", FrameKind.RESIDUAL_BITS, bits_shape)
            public.store[frame.frame_id] = frame.data

        # stage 2: both sides derive the schedule; two frames per batch
        wire.phase = "stage2"
        stepper_private = Stage2Private(
            model, private.params, private.buffers, cfg, state_private, report
        )
        stepper_public = Stage2Public(
            model, public.params, public.buffers, public.store, cfg, SgdState()
        )
        k = model.spec.num_classes
        y1h = one_hot(data.train_y, k)
        for epoch in range(cfg.ep2):
            stepper_private.begin_epoch(epoch)
            stepper_public.begin_epoch(epoch)
            schedule_private = batch_schedule(n, cfg.batch_size, cfg.seed, 2, epoch)
            schedule_public = batch_schedule(n, cfg.batch_size, cfg.seed, 2, epoch)
            for batch_no, (idx_priv, idx_pub) in enumerate(
                zip(schedule_private, schedule_public)
            ):
                stepper_private.prepare(main_rows[idx_priv], y1h[idx_priv])
                z_res = stepper_public.logits(idx_pub)
                wire.send("public", frame_from_rows(FrameKind.LOGITS, batch_no, z_res))

                z_frame = wire.recv("private", FrameKind.LOGITS, (len(idx_priv), k, 1))
                g_res = stepper_private.finish(rows_from_frame(z_frame))
                wire.send("private", frame_from_rows(FrameKind.GRADIENT, batch_no, g_res))

                g_frame = wire.recv("public", FrameKind.GRADIENT, (len(idx_pub), k, 1))
                stepper_public.apply_gradient(rows_from_frame(g_frame))
            stepper_private.end_epoch()

    report.bytes_by_phase = wire.transcript.bytes_by_phase()
    return report, wire, private, public
