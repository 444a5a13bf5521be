"""Two-endpoint wire protocol for the private/public split.

Frames are the only thing that crosses the boundary.  A frame is a
22-byte header (magic ``DLTR``, version, kind, id, then three
little-endian u32 dims) followed by a payload.  There are four kinds:

- ``residual-bits`` (1): one sample's (c, h, w) sign bits, bit-packed
  (channel-major, most significant bit first) into ceil(c*h*w/8) bytes;
- ``residual-block`` (5): b samples of consecutive ids, the id field
  naming the first, with dims (b, c*h*w, 1) and b*ceil(c*h*w/8) bytes,
  each row padded on its own (``pack_bits``' layout);
- ``logits`` (2): a (b, k, 1) matrix of little-endian 64-bit floats;
- ``labels`` (4): a stage-2 batch's (b, 1, 1) little-endian 16-bit
  class indices.

The last three share the (rows, row length, 1) dims convention.  Code 3
was a float gradient frame: a peer that still sends it is refused as an
unknown kind, as a peer that predates code 5 refuses a block.  A row of
bits is ceil(c*h*w/8) bytes against the 4*c*h*w bytes of a hypothetical
32-bit-float transmission, so the wire realizes the 32x compression
exactly whenever c*h*w is a multiple of eight.

Both endpoints derive the stage-2 batch schedule from the shared seed,
so no sample ids ever travel during training; the transcript records
every frame with its phase, and the audit enforces the phase whitelists:
stage 1 is silent, cache-build carries only residual bits (the split
driver sends one residual-block frame per released block), stage 2 only
logits and labels, inference only residual bits (one residual-bits frame
per request) and logits.  In stage 2 the public side sends each batch's
residual logits, the private side answers with the batch's labels, and
the public side forms its own gradient softmax(z_res) - y from the two:
the labels frame is, on the wire, exactly what the public side learns.
"""

from __future__ import annotations

import dataclasses
import math
import select
import socket
import struct
from array import array
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

# decompose_batch is unused here, but the benchmark's tracer test reads
# protocol.decompose_batch (perfbench/tests/test_perfbench.py::TestInstall)
from .decompose import DecompositionConfig, decompose_batch  # noqa: F401
from .model import Model, private_forward
from .privacy import build_cache, noise_stream, pack_bits, perturb, quantize, unpack_bits
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
# seconds a socket read may wait on a silent peer before the frame is refused
SOCKET_TIMEOUT_S = 60.0
# bytes a socket channel holds unread in one direction before it decides
# the peer stopped reading
_UNREAD_LIMIT = 1 << 23
# a labels frame carries uint16 class indices, so a model has at most this
# many classes
MAX_CLASSES = 1 << 16

PHASES = ("stage1", "cache-build", "stage2", "inference")

# frame kinds allowed on the wire in each phase
PHASE_WHITELIST = {
    "stage1": frozenset(),
    "cache-build": frozenset({"residual-bits", "residual-block"}),
    "stage2": frozenset({"logits", "labels"}),
    "inference": frozenset({"residual-bits", "logits"}),
}


class ProtocolViolation(RuntimeError):
    """An endpoint received a frame the protocol does not allow here."""


class FrameKind(IntEnum):
    RESIDUAL_BITS = 1
    LOGITS = 2
    # code 3 was a float gradient frame; a peer that still sends it is
    # refused as an unknown kind
    LABELS = 4
    RESIDUAL_BLOCK = 5

    @property
    def wire_name(self) -> str:
        return _KIND_NAMES[self]


_KIND_NAMES = {
    FrameKind.RESIDUAL_BITS: "residual-bits",
    FrameKind.LOGITS: "logits",
    FrameKind.LABELS: "labels",
    FrameKind.RESIDUAL_BLOCK: "residual-block",
}
# element type of each kind's payload; residual bits and blocks are packed instead
_PAYLOAD_DTYPES = {FrameKind.LOGITS: np.dtype("<f8"), FrameKind.LABELS: np.dtype("<u2")}


@dataclass(frozen=True)
class Frame:
    kind: FrameKind
    frame_id: int
    # (c, h, w) uint8 bits, (b, c*h*w, 1) uint8 block bits, (b, k, 1) f64
    # logits or (b, 1, 1) integer labels
    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError(f"frame data must be (c, h, w), got {self.data.shape}")


def frame_from_rows(kind: FrameKind, frame_id: int, rows: np.ndarray) -> Frame:
    """Wrap a (b, L) float matrix of logits as a frame."""
    rows = np.asarray(rows, dtype=np.float64)
    return Frame(kind, frame_id, rows.reshape(rows.shape[0], rows.shape[1], 1))


def rows_from_frame(frame: Frame) -> np.ndarray:
    return frame.data.reshape(frame.data.shape[0], frame.data.shape[1])


def _residual_bits(data) -> np.ndarray:
    """``data`` as uint8 bits, refused unless every value is exactly 0 or 1
    (a cast first would turn 0.7, 1.9 and -0.5 into bits 0, 1 and 0); a
    uint8 payload costs one reduction."""
    data = np.asarray(data)
    if data.dtype == np.bool_:
        return data.view(np.uint8)
    if data.dtype == np.uint8 and (data.size == 0 or data.max() <= 1):
        return data
    if data.dtype.kind in "iufc" and ((data == 0) | (data == 1)).all():
        return data.astype(np.uint8)
    raise ValueError("residual payload must be 0/1 bits")


def _labels(data) -> np.ndarray:
    """``data`` as little-endian uint16 class indices, refused unless it is
    an integer array with every value in [0, 65535]: a float array, even
    one holding whole numbers, is refused rather than cast."""
    data = np.asarray(data)
    if data.dtype.kind in "iu" and (
        data.size == 0 or (data.min() >= 0 and data.max() < MAX_CLASSES)
    ):
        return data.astype("<u2")
    raise ValueError(f"labels payload must be integers in [0, {MAX_CLASSES - 1}]")


def _header(kind: FrameKind, frame_id: int, shape) -> bytes:
    return _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, int(kind), frame_id, *shape)


def encode_frame(frame: Frame) -> bytes:
    header = _header(frame.kind, frame.frame_id, frame.data.shape)
    if frame.kind == FrameKind.RESIDUAL_BITS:
        payload = pack_bits(_residual_bits(frame.data)).tobytes()
    elif frame.kind == FrameKind.LABELS:
        payload = _labels(frame.data).tobytes()
    elif frame.kind == FrameKind.LOGITS:
        payload = np.asarray(frame.data, dtype="<f8").tobytes()
    elif frame.data.shape[2] == 1:
        # a block's (b, L, 1) as b samples of (L, 1, 1) bits: each row padded
        # on its own
        payload = pack_bits(_residual_bits(frame.data)[..., None]).tobytes()
    else:
        raise ValueError(f"residual-block data must be (b, c*h*w, 1), got {frame.data.shape}")
    return header + payload


def _payload_length(kind: FrameKind, c: int, h: int, w: int) -> int:
    """Payload bytes of a frame, from its header's dims alone."""
    dtype = _PAYLOAD_DTYPES.get(kind)
    if dtype is not None:
        return dtype.itemsize * c * h * w
    if kind == FrameKind.RESIDUAL_BITS:
        return (c * h * w + 7) // 8
    return c * ((h * w + 7) // 8)


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
    if w != 1 and kind == FrameKind.RESIDUAL_BLOCK:
        raise ValueError(f"residual-block frame with w = {w}, not 1, at offset 18")
    return kind, frame_id, c, h, w


def _parse_frame(raw: bytes):
    """Check a whole frame's header and payload length.  Returns (kind,
    frame_id, (c, h, w))."""
    kind, frame_id, c, h, w = _parse_header(raw)
    expected = _payload_length(kind, c, h, w)
    if len(raw) != _HEADER.size + expected:
        raise ValueError(
            f"frame payload length {len(raw) - _HEADER.size} != expected {expected} "
            f"at offset {_HEADER.size}"
        )
    return kind, frame_id, (c, h, w)


def _frame_data(raw: bytes, kind: FrameKind, shape) -> np.ndarray:
    dtype = _PAYLOAD_DTYPES.get(kind)
    if dtype is not None:
        return np.frombuffer(raw, dtype=dtype, offset=_HEADER.size).reshape(shape)
    if kind == FrameKind.RESIDUAL_BITS:
        return unpack_bits(np.frombuffer(raw, dtype=np.uint8, offset=_HEADER.size), shape)
    return unpack_bits(_block_rows(raw, shape), shape[1:])


def _block_rows(raw: bytes, shape) -> np.ndarray:
    """A residual-block frame's payload as its (b, ceil(L/8)) packed rows."""
    b, bits, _ = shape
    return np.frombuffer(raw, dtype=np.uint8, offset=_HEADER.size).reshape(b, (bits + 7) // 8)


def decode_frame(raw: bytes) -> Frame:
    kind, frame_id, shape = _parse_frame(raw)
    return Frame(kind, frame_id, _frame_data(raw, kind, shape))


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

    The channel owns both ends and the driver is single-threaded, so a
    receiver reads only after the sender's call has returned.  A send
    therefore never waits: it writes what the socket takes at once and
    keeps the rest, and every read first pushes the peer's kept bytes, so
    a frame larger than the socket buffers still arrives whole.  More
    than ``_UNREAD_LIMIT`` bytes kept in one direction means the peer
    stopped reading, and a read that finds nothing to push and nothing to
    read gives up after ``SOCKET_TIMEOUT_S``: either is a protocol
    violation, not a hang.
    """

    def __init__(self):
        self._private_sock, self._public_sock = socket.socketpair()
        for sock in (self._private_sock, self._public_sock):
            sock.setblocking(False)
        self._unsent = {"private": bytearray(), "public": bytearray()}

    def _sock(self, role: str) -> socket.socket:
        return self._private_sock if role == "private" else self._public_sock

    def send(self, sender: str, raw: bytes) -> None:
        unsent = self._unsent[sender]
        unsent += raw
        self._push(sender)
        if len(unsent) > _UNREAD_LIMIT:
            raise ProtocolViolation(
                f"peer stopped reading: {len(unsent)} bytes unread, more than "
                f"the {_UNREAD_LIMIT} a channel holds"
            )

    def _push(self, sender: str) -> None:
        """Write as much of ``sender``'s kept bytes as its socket takes now."""
        unsent = self._unsent[sender]
        if unsent:
            try:
                sent = self._sock(sender).send(unsent)
            except BlockingIOError:
                return
            del unsent[:sent]

    def recv(self, receiver: str) -> bytes:
        header = self._recv_exact(receiver, _HEADER.size)
        kind, _, c, h, w = _parse_header(header)
        return header + self._recv_exact(receiver, _payload_length(kind, c, h, w))

    def _recv_exact(self, receiver: str, count: int) -> bytes:
        # bounded reads: a forged header's size allocates nothing up front,
        # only what the peer actually sends
        sock = self._sock(receiver)
        peer = "public" if receiver == "private" else "private"
        chunks = []
        got = 0
        while got < count:
            self._push(peer)
            try:
                chunk = sock.recv(min(count - got, _RECV_CHUNK))
            except BlockingIOError:
                # nothing to read means nothing of the peer's is kept either
                if not select.select([sock], [], [], SOCKET_TIMEOUT_S)[0]:
                    raise ProtocolViolation(
                        f"peer silent for {SOCKET_TIMEOUT_S}s with {count - got} bytes "
                        "of the frame unread"
                    ) from None
                continue
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

@dataclass(frozen=True, slots=True)
class TranscriptEntry:
    index: int
    direction: str  # "private->public" or "public->private"
    kind: str
    nbytes: int
    phase: str
    values: int  # c * h * w of the frame's tensor; not written to the CSV


class Transcript:
    """Every frame that crossed the wire, in columns.

    A record is a small code for its (direction, kind, phase) label plus
    its byte and value counts, each appended to an ``array`` column, so a
    long-lived wire keeps tens of bytes per frame rather than an object.
    ``entries`` reads the rows back as ``TranscriptEntry`` values.
    """

    def __init__(self):
        self._code_of = {}  # (direction, kind, phase) -> label code
        self._labels = []   # label code -> (direction, kind, phase)
        self._codes = array("I")
        self._nbytes = array("q")
        self._values = array("q")

    def record(self, direction: str, kind: str, nbytes: int, phase: str, values: int) -> None:
        label = (direction, kind, phase)
        code = self._code_of.get(label)
        if code is None:
            if phase not in PHASES:
                raise ValueError(f"unknown phase {phase!r}")
            code = self._code_of[label] = len(self._labels)
            self._labels.append(label)
        self._codes.append(code)
        self._nbytes.append(nbytes)
        self._values.append(values)

    @property
    def entries(self) -> TranscriptEntries:
        return TranscriptEntries(self)

    def bytes_by_phase(self) -> dict:
        totals = {phase: 0 for phase in PHASES}
        for code, nbytes in zip(self._codes, self._nbytes):
            totals[self._labels[code][2]] += nbytes
        return totals

    def to_csv(self) -> str:
        lines = ["index,direction,kind,bytes,phase"]
        for e in self.entries:
            lines.append(f"{e.index},{e.direction},{e.kind},{e.nbytes},{e.phase}")
        return "\n".join(lines) + "\n"


class TranscriptEntries(Sequence):
    """Read-only view of a transcript's rows, each built when it is read.

    Supports ``len``, int and slice indexing (a slice builds only its own
    rows, as a list) and iteration, and compares equal to a list of rows.
    """

    __slots__ = ("_transcript",)

    def __init__(self, transcript: Transcript):
        self._transcript = transcript

    def __len__(self) -> int:
        return len(self._transcript._codes)

    def _row(self, i: int) -> TranscriptEntry:
        t = self._transcript
        direction, kind, phase = t._labels[t._codes[i]]
        return TranscriptEntry(i, direction, kind, t._nbytes[i], phase, t._values[i])

    def __getitem__(self, index):
        # a range resolves negative indices, bounds and slices as a list does
        rows = range(len(self))[index]
        if isinstance(index, slice):
            return [self._row(i) for i in rows]
        return self._row(rows)

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (list, TranscriptEntries)):
            return list(self) == list(other)
        return NotImplemented


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    violations: tuple
    bytes_by_phase: dict
    ratio: float


def audit(transcript: Transcript) -> AuditReport:
    """Check every recorded frame against its phase whitelist.

    The ratio field reports payload compression of the residual frames,
    single samples and blocks alike, against a 32-bit-float transmission
    of the same tensors: 4 bytes per recorded value over the payload bytes
    recorded, 0.0 without any.
    """
    violations = []
    residual_payload = residual_values = 0
    for entry in transcript.entries:
        if entry.kind not in PHASE_WHITELIST[entry.phase]:
            violations.append(
                (entry.index,
                 f"frame kind {entry.kind!r} not allowed in phase {entry.phase!r}")
            )
        if entry.kind in ("residual-bits", "residual-block"):
            residual_payload += entry.nbytes - _HEADER.size
            residual_values += entry.values
    ratio = 4 * residual_values / residual_payload if residual_payload else 0.0
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
        self._send_raw(sender, frame.kind, encode_frame(frame), frame.data.size)

    def send_block(self, sender: str, first_id: int, rows, row_bits: int) -> None:
        """Send b samples' bits, already packed, as one residual-block frame
        whose rows carry ids first_id, first_id + 1, ...: the mirror of
        ``recv_block``.  ``rows`` is a (b, ceil(row_bits/8)) uint8 array in
        ``pack_bits``' layout, as ``ResidualCache`` holds a block; any other
        shape or dtype is refused."""
        rows = np.asarray(rows)
        width = _payload_length(FrameKind.RESIDUAL_BLOCK, 1, row_bits, 1)
        if rows.dtype != np.uint8 or rows.shape[1:] != (width,):
            raise ValueError(
                f"packed rows of shape {rows.shape} and dtype {rows.dtype} for "
                f"{row_bits}-bit rows, expected (b, {width}) uint8"
            )
        shape = (len(rows), row_bits, 1)
        raw = b"".join((_header(FrameKind.RESIDUAL_BLOCK, first_id, shape),
                        np.ascontiguousarray(rows)))
        self._send_raw(sender, FrameKind.RESIDUAL_BLOCK, raw, rows.shape[0] * row_bits)

    def _send_raw(self, sender: str, kind: FrameKind, raw: bytes, values: int) -> None:
        direction = "private->public" if sender == "private" else "public->private"
        self.transcript.record(direction, kind.wire_name, len(raw), self.phase, values)
        self.channel.send(sender, raw)

    def recv(self, receiver: str, expect: FrameKind, shape=None) -> Frame:
        """The next frame for ``receiver``, which must be of kind ``expect``
        and, given a (c, h, w) tuple ``shape``, carry data of that shape."""
        raw, kind, frame_id, got = self._recv_raw(receiver, expect, shape)
        return Frame(kind, frame_id, _frame_data(raw, kind, got))

    def recv_block(self, receiver: str, row_bits: int) -> tuple:
        """The next residual-block frame for ``receiver``, which must carry
        rows of ``row_bits`` bits, as (first id, (b, ceil(row_bits/8)) packed
        rows): the bits as they crossed the wire, a read-only view of the
        frame, never unpacked."""
        raw, _, first_id, shape = self._recv_raw(receiver, FrameKind.RESIDUAL_BLOCK, None)
        if shape[1] != row_bits:
            raise ProtocolViolation(
                f"{receiver} endpoint got a 'residual-block' frame of shape {shape}, "
                f"expected rows of {row_bits} bits in phase {self.phase!r}"
            )
        return first_id, _block_rows(raw, shape)

    def _recv_raw(self, receiver: str, expect: FrameKind, shape):
        raw = self.channel.recv(receiver)
        kind, frame_id, got = _parse_frame(raw)
        if kind != expect:
            raise ProtocolViolation(
                f"{receiver} endpoint got {kind.wire_name!r}, "
                f"expected {expect.wire_name!r} in phase {self.phase!r}"
            )
        if shape is not None and got != shape:
            raise ProtocolViolation(
                f"{receiver} endpoint got a {expect.wire_name!r} frame of shape "
                f"{got}, expected {shape} in phase {self.phase!r}"
            )
        return raw, kind, frame_id, got


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

    def __init__(self, model: Model, params, buffers, dcfg: DecompositionConfig,
                 cfg: TrainConfig, wire: Wire):
        self.model, self.params, self.buffers = model, params, buffers
        self.dcfg, self.cfg, self.wire = dcfg, cfg, wire
        # one generator for every request: perturb re-keys it, so any key will do
        self.noise = noise_stream(0, 0)

    def inference_parts(self, x, stream: int, sigma: float):
        """One private pass: the residual bits to ship and z_main to keep."""
        z_main, ir_res = private_forward(self.model, self.params, self.buffers, x[None], self.dcfg)
        bits = quantize(perturb(ir_res[0], sigma, self.cfg.seed, stream, gen=self.noise))
        return bits, z_main[0]


class ReleasedBits(Mapping):
    """The public side's copy of a release: one packed (n, ceil(c*h*w/8))
    uint8 array, filled a block of consecutive ids at a time.

    A block reaching outside ids [0, n) or onto rows already filled, and a
    release that ends with a row unfilled, are protocol violations.  Read
    as a mapping, it takes each id 0..n-1, in order, to a read-only view of
    that sample's packed row; ``take`` gathers a batch's rows.
    """

    def __init__(self, n: int = 0, row_bytes: int = 0):
        self._rows = np.empty((n, row_bytes), dtype=np.uint8)
        self._filled = np.zeros(n, dtype=bool)

    def fill(self, first_id: int, rows: np.ndarray) -> None:
        stop = first_id + len(rows)
        if stop > len(self._filled):
            raise ProtocolViolation(
                f"public endpoint got residual rows for ids [{first_id}, {stop}), "
                f"outside the release's [0, {len(self._filled)})"
            )
        if self._filled[first_id:stop].any():
            raise ProtocolViolation(
                f"public endpoint got residual rows for ids [{first_id}, {stop}), "
                "some of them already filled"
            )
        self._rows[first_id:stop] = rows
        self._filled[first_id:stop] = True

    def seal(self) -> None:
        """End the fill: every row must be filled, and all turn read-only."""
        missing = np.flatnonzero(~self._filled)
        if missing.size:
            raise ProtocolViolation(
                f"cache-build ended with {missing.size} of {len(self)} released rows "
                f"unfilled, the first id {missing[0]}"
            )
        self._rows.flags.writeable = False

    def take(self, ids) -> np.ndarray:
        return np.take(self._rows, ids, axis=0)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(range(len(self._rows)))

    def __getitem__(self, sample_id) -> np.ndarray:
        if isinstance(sample_id, (int, np.integer)) and 0 <= sample_id < len(self._rows):
            return self._rows[sample_id]
        raise KeyError(sample_id)


class PublicEndpoint:
    """Owns M_res and, after cache-build, the released residual bits:
    ``store``, a ``ReleasedBits`` holding every sample's packed row as the
    residual-block frames carried it."""

    def __init__(self, model: Model, params, buffers):
        self.model, self.params, self.buffers = model, params, buffers
        self.store = ReleasedBits()

    def res_logits(self, bits: np.ndarray) -> np.ndarray:
        z, _ = self.model.forward_res(self.params, self.buffers, bits[None], train=False)
        return z


# ---------------------------------------------------------------------------
# Split drivers
# ---------------------------------------------------------------------------

def run_split_inference(private: PrivateEndpoint, public: PublicEndpoint, xs,
                        sigma: float = 0.0) -> np.ndarray:
    """Per-sample inference over the wire; predictions stay private.  A
    logits frame with a non-finite value is a protocol violation: argmax
    would pick a NaN's position, or an infinity's, as the class."""
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
        if not np.isfinite(z_res).all():
            raise ProtocolViolation(f"private endpoint got non-finite logits for request {i}")
        preds[i] = int(np.argmax(z_main + spec.alpha * z_res))
    return preds


def run_split_training(model: Model, params, buffers, data,
                       dcfg: DecompositionConfig, cfg: TrainConfig,
                       channel=None) -> tuple:
    """The full two-stage protocol over a channel: the one training driver.

    Returns (report, wire, private, public).  There is no per-epoch
    evaluation: the wire carries exactly the frames the protocol defines,
    nothing else.  ``asymsplit train`` scores the trained endpoints with
    ``training.evaluate_main`` and ``run_split_inference``.
    """
    k = model.spec.num_classes
    if cfg.ep2 > 0 and not cfg.quantize:
        raise ProtocolViolation(
            "raw residual floats never travel: the unquantized ablation "
            "is an in-process-only configuration"
        )
    if cfg.ep2 > 0 and k > MAX_CLASSES:
        raise ProtocolViolation(
            f"a labels frame carries uint16 class indices: {k} classes are "
            f"more than {MAX_CLASSES}"
        )
    wire = Wire(channel)
    (priv_p, priv_b), (pub_p, pub_b) = split_params(params, buffers)
    private = PrivateEndpoint(model, priv_p, priv_b, dcfg, cfg, wire)
    public = PublicEndpoint(model, pub_p, pub_b)

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
        # cache-build: the release is formed batch by batch, so the private
        # side holds one batch of float residuals at a time; every batch is
        # checked against C before the first frame is sent, and then each
        # of the caches' packed blocks (at most RELEASE_CHUNK consecutive
        # ids) goes out as one residual-block frame.  The same pass keeps
        # every sample's ir_main on the private side: the backbone is
        # frozen, so stage 2 reads these rows
        wire.phase = "cache-build"
        main_parts, released = [], deque()
        for lo in range(0, n, cfg.batch_size):
            residuals = compute_residuals(
                model, private.params, private.buffers, data.train_x[lo : lo + cfg.batch_size],
                dcfg, cfg.batch_size, main_rows=main_parts,
            )
            try:
                released.append(build_cache(
                    {lo + j: r for j, r in residuals.items()}, privacy, cfg.seed,
                    sigma=sigma, gen=private.noise,
                ))
            except ValueError as exc:
                raise ProtocolViolation(str(exc)) from None
            del residuals
        main_rows = np.concatenate(main_parts)
        del main_parts
        bits_shape = (model.spec.bb_channels, *data.train_x.shape[2:])
        row_bits = math.prod(bits_shape)
        # the public copy is allocated only now, after the release's float
        # temporaries are freed
        public.store = ReleasedBits(n, (row_bits + 7) // 8)
        while released:
            # a batch's bits are dropped once the public side holds its copies
            for first_id, rows in released.popleft().blocks():
                wire.send_block("private", first_id, rows, row_bits)
                public.store.fill(*wire.recv_block("public", row_bits))
        public.store.seal()

        # stage 2: both sides derive the schedule; two frames per batch, the
        # public side's logits and the private side's labels
        wire.phase = "stage2"
        stepper_private = Stage2Private(
            model, private.params, private.buffers, cfg, state_private, report
        )
        stepper_public = Stage2Public(model, public.params, public.buffers, cfg, SgdState())
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
                # the public side unpacks each batch's released bits once
                bits = unpack_bits(public.store.take(idx_pub), bits_shape)
                z_res = stepper_public.logits(bits)
                wire.send("public", frame_from_rows(FrameKind.LOGITS, batch_no, z_res))

                z_frame = wire.recv("private", FrameKind.LOGITS, (len(idx_priv), k, 1))
                stepper_private.finish(rows_from_frame(z_frame))
                wire.send("private", Frame(FrameKind.LABELS, batch_no,
                                           data.train_y[idx_priv, None, None]))

                labels = wire.recv("public", FrameKind.LABELS, (len(idx_pub), 1, 1)).data
                if labels.max() >= k:
                    raise ProtocolViolation(
                        f"public endpoint got label {labels.max()} for a model of "
                        f"{k} classes in batch {batch_no}"
                    )
                stepper_public.apply_gradient(labels[:, 0, 0])
            stepper_private.end_epoch()

    report.bytes_by_phase = wire.transcript.bytes_by_phase()
    return report, wire, private, public
