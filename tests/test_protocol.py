"""Wire format, transcript audit, and split-driver equivalence."""

import dataclasses
import hashlib
import math
import socket
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_driver import train_in_process

from asymsplit import numerics, protocol
from asymsplit.datasets import synthetic_dataset
from asymsplit.decompose import DecompositionConfig, decompose_main_batch
from asymsplit.model import (
    Model,
    ResBlock,
    default_spec,
    forward_full,
    load_checkpoint,
    private_forward,
    save_checkpoint,
)
from asymsplit.privacy import pack_bits, perturb, quantize, unpack_bits
from asymsplit.protocol import (
    Frame,
    FrameKind,
    MemoryChannel,
    PrivateEndpoint,
    ProtocolViolation,
    PublicEndpoint,
    SocketChannel,
    Transcript,
    Wire,
    audit,
    decode_frame,
    encode_frame,
    frame_from_rows,
    rows_from_frame,
    run_split_inference,
    run_split_training,
    split_params,
)
from asymsplit.training import (
    VAL_STREAM_BASE,
    TrainConfig,
    TrainingDiverged,
    batch_schedule,
    evaluate,
    evaluate_main,
)

DCFG = DecompositionConfig(r=4, t=8, t_prime=2, C=1.0)

HEADER_BYTES = 22


def random_bits_frame(rng, frame_id=0):
    c, h, w = int(rng.integers(1, 5)), int(rng.integers(1, 9)), int(rng.integers(1, 9))
    bits = rng.integers(0, 2, size=(c, h, w)).astype(np.uint8)
    return Frame(FrameKind.RESIDUAL_BITS, frame_id, bits)


class TestFrameCodec:
    def test_residual_bits_example(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8).reshape(1, 2, 2)
        raw = encode_frame(Frame(FrameKind.RESIDUAL_BITS, 0, bits))
        assert raw[:4] == b"DLTR"
        assert len(raw) == HEADER_BYTES + 1
        assert raw[HEADER_BYTES] == 0xB0

    def test_header_fields_little_endian(self):
        bits = np.zeros((2, 3, 5), dtype=np.uint8)
        raw = encode_frame(Frame(FrameKind.RESIDUAL_BITS, 0x01020304, bits))
        assert raw[4] == 1  # version
        assert raw[6:10] == bytes([0x04, 0x03, 0x02, 0x01])
        assert raw[10:14] == bytes([2, 0, 0, 0])
        assert raw[14:18] == bytes([3, 0, 0, 0])
        assert raw[18:22] == bytes([5, 0, 0, 0])

    def test_roundtrip_bits(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            frame = random_bits_frame(rng, frame_id=trial)
            back = decode_frame(encode_frame(frame))
            assert back.kind == FrameKind.RESIDUAL_BITS
            assert back.frame_id == trial
            assert np.array_equal(back.data, frame.data)

    @pytest.mark.parametrize("kind", [FrameKind.LOGITS])
    def test_roundtrip_floats(self, kind):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(16, 4))
        back = decode_frame(encode_frame(frame_from_rows(kind, 9, rows)))
        assert back.kind == kind and back.frame_id == 9
        assert rows_from_frame(back).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("b", [1, 128])
    def test_roundtrip_labels(self, b):
        # (b, 1, 1) little-endian uint16 class indices: 2 bytes per sample
        labels = np.random.default_rng(b).integers(0, 1 << 16, size=b)
        labels[-1] = 65535
        raw = encode_frame(Frame(FrameKind.LABELS, 7, labels[:, None, None]))
        assert len(raw) == HEADER_BYTES + 2 * b
        assert raw[5] == 4
        assert raw[HEADER_BYTES:] == labels.astype("<u2").tobytes()
        assert raw[-2:] == b"\xff\xff"
        back = decode_frame(raw)
        assert back.kind == FrameKind.LABELS and back.frame_id == 7
        assert back.data.shape == (b, 1, 1) and back.data.dtype == np.dtype("<u2")
        np.testing.assert_array_equal(back.data[:, 0, 0], labels)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64, np.uint64])
    def test_labels_of_any_integer_dtype_encode_alike(self, dtype):
        labels = np.array([3, 0, 255, 1], dtype=dtype)[:, None, None]
        assert encode_frame(Frame(FrameKind.LABELS, 1, labels)) == (
            encode_frame(Frame(FrameKind.LABELS, 1, labels.astype(np.uint16)))
        )

    @pytest.mark.parametrize("value, dtype", [
        (3.5, np.float64), (np.nan, np.float64), (2.0, np.float64), (1.0, np.float32),
        (-1, np.int64), (-1, np.int8), (65536, np.int64), (2**64 - 1, np.uint64),
        (True, np.bool_),
    ])
    def test_rejects_labels_outside_uint16(self, value, dtype):
        # a cast to uint16 ahead of the check would send -1 as 65535 and
        # 65536 as 0; a float is refused even when it holds a whole number
        bad = np.zeros((4, 1, 1), dtype=dtype)
        bad[2, 0, 0] = value
        with pytest.raises(ValueError, match=r"labels payload must be integers in \[0, 65535\]"):
            encode_frame(Frame(FrameKind.LABELS, 0, bad))

    def test_retired_and_unused_kinds_rejected_by_decode(self):
        # 3 was the float gradient frame's code; 6 was never used
        for code in (3, 6):
            raw = bytearray(encode_frame(Frame(FrameKind.LOGITS, 5, np.zeros((0, 0, 0)))))
            raw[5] = code
            with pytest.raises(ValueError, match=f"unknown frame kind {code} at offset 5"):
                decode_frame(bytes(raw))

    @pytest.mark.parametrize("b, row_bits", [(1, 2048), (3, 9), (128, 2048), (0, 16)])
    def test_roundtrip_block(self, b, row_bits):
        # (b, L, 1): b rows of L bits, each padded to ceil(L/8) bytes on its own
        bits = np.random.default_rng(b + row_bits).integers(0, 2, size=(b, row_bits, 1))
        raw = encode_frame(Frame(FrameKind.RESIDUAL_BLOCK, 640, bits))
        width = -(-row_bits // 8)
        assert raw[5] == 5
        assert struct.unpack_from("<IIII", raw, 6) == (640, b, row_bits, 1)
        assert raw[HEADER_BYTES:] == pack_bits(bits[..., None]).tobytes()
        assert len(raw) == HEADER_BYTES + b * width
        back = decode_frame(raw)
        assert back.kind == FrameKind.RESIDUAL_BLOCK and back.frame_id == 640
        assert back.data.shape == (b, row_bits, 1) and back.data.dtype == np.uint8
        assert back.data.tobytes() == bits.astype(np.uint8).tobytes()

    def test_block_rows_are_the_single_frames_payloads(self):
        # the block's payload is its samples' residual-bits payloads, in order
        bits = np.random.default_rng(4).integers(0, 2, size=(5, 3, 3, 3)).astype(np.uint8)
        raw = encode_frame(Frame(FrameKind.RESIDUAL_BLOCK, 0, bits.reshape(5, 27, 1)))
        singles = [encode_frame(Frame(FrameKind.RESIDUAL_BITS, j, x))[HEADER_BYTES:]
                   for j, x in enumerate(bits)]
        assert raw[HEADER_BYTES:] == b"".join(singles)

    def test_block_data_must_be_rows(self):
        with pytest.raises(ValueError, match=r"\(b, c\*h\*w, 1\), got \(2, 8, 2\)"):
            encode_frame(Frame(FrameKind.RESIDUAL_BLOCK, 0, np.zeros((2, 8, 2), np.uint8)))

    def test_encode_injective_on_payload(self):
        a = np.array([[[1, 0], [0, 0]]], dtype=np.uint8)
        b = np.array([[[0, 1], [0, 0]]], dtype=np.uint8)
        assert encode_frame(Frame(FrameKind.RESIDUAL_BITS, 0, a)) != encode_frame(
            Frame(FrameKind.RESIDUAL_BITS, 0, b)
        )

    def test_payload_ratio_exact_one_thirtysecond(self):
        bits = np.ones((8, 16, 16), dtype=np.uint8)
        raw = encode_frame(Frame(FrameKind.RESIDUAL_BITS, 0, bits))
        payload = len(raw) - HEADER_BYTES
        assert payload * 32 == bits.size * 4

    def test_payload_rounds_up_to_whole_bytes(self):
        bits = np.ones((1, 3, 3), dtype=np.uint8)
        raw = encode_frame(Frame(FrameKind.RESIDUAL_BITS, 0, bits))
        assert len(raw) - HEADER_BYTES == 2

    def test_rejects_non_binary_payload(self):
        bad = np.full((1, 2, 2), 2, dtype=np.uint8)
        with pytest.raises(ValueError, match="0/1"):
            encode_frame(Frame(FrameKind.RESIDUAL_BITS, 0, bad))

    @pytest.mark.parametrize("value, dtype", [
        (0.7, np.float64), (1.9, np.float64), (-0.5, np.float64), (np.nan, np.float64),
        (np.nan, np.float32), (-1, np.int8), (2, np.int64), (2, np.uint16), (1 + 1j, np.complex128),
    ])
    def test_rejects_values_that_are_not_exact_bits(self, value, dtype):
        # a cast to uint8 ahead of the check once sent 0.7, 1.9 and -0.5 as
        # bits 0, 1 and 0
        bad = np.zeros((1, 2, 2), dtype=dtype)
        bad[0, 1, 0] = value
        with pytest.raises(ValueError, match="residual payload must be 0/1 bits"):
            encode_frame(Frame(FrameKind.RESIDUAL_BITS, 0, bad))

    @pytest.mark.parametrize("dtype", [np.bool_, np.int64, np.float32, np.float64])
    def test_exact_bits_of_any_dtype_encode_as_uint8(self, dtype):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8).reshape(1, 2, 2)
        assert encode_frame(Frame(FrameKind.RESIDUAL_BITS, 3, bits.astype(dtype))) == (
            encode_frame(Frame(FrameKind.RESIDUAL_BITS, 3, bits))
        )

    def test_retired_and_unused_kinds_rejected_by_socket(self):
        for code in (3, 6):
            raw = bytearray(encode_frame(Frame(FrameKind.LOGITS, 0, np.zeros((0, 0, 0)))))
            raw[5] = code
            with pytest.raises(ValueError, match=f"unknown frame kind {code} at offset 5"):
                socket_recv_forged(bytes(raw))

    def test_every_kind_has_a_phase_and_every_phase_name_a_kind(self):
        # a kind that no phase allows is one nothing may send, and a
        # whitelisted name without a kind is one nothing can send
        kinds = {kind.wire_name for kind in FrameKind}
        allowed = set().union(*protocol.PHASE_WHITELIST.values())
        assert kinds == allowed
        assert set(protocol.PHASE_WHITELIST) == set(protocol.PHASES)

    def test_frame_requires_three_dims(self):
        with pytest.raises(ValueError, match="c, h, w"):
            Frame(FrameKind.LOGITS, 0, np.zeros((2, 2)))


class TestDecodeErrors:
    def good(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8).reshape(1, 2, 2)
        return encode_frame(Frame(FrameKind.RESIDUAL_BITS, 0, bits))

    def test_truncated_header(self):
        with pytest.raises(ValueError, match="offset 7"):
            decode_frame(self.good()[:7])

    def test_bad_magic(self):
        raw = b"NOPE" + self.good()[4:]
        with pytest.raises(ValueError, match="offset 0"):
            decode_frame(raw)

    def test_bad_version(self):
        raw = bytearray(self.good())
        raw[4] = 99
        with pytest.raises(ValueError, match="version 99 at offset 4"):
            decode_frame(bytes(raw))

    def test_unknown_kind(self):
        raw = bytearray(self.good())
        raw[5] = 42
        with pytest.raises(ValueError, match="kind 42 at offset 5"):
            decode_frame(bytes(raw))

    def test_payload_length_mismatch(self):
        with pytest.raises(ValueError, match="offset 22"):
            decode_frame(self.good() + b"\x00")

    def test_float_frame_truncated_payload(self):
        raw = encode_frame(frame_from_rows(FrameKind.LOGITS, 0, np.zeros((2, 3))))
        with pytest.raises(ValueError, match="offset 22"):
            decode_frame(raw[:-4])

    def block(self, b=4, row_bits=2048):
        return encode_frame(Frame(FrameKind.RESIDUAL_BLOCK, 9, np.ones((b, row_bits, 1))))

    @pytest.mark.parametrize("cut", [1, 256, 4 * 256])
    def test_block_truncated_payload(self, cut):
        with pytest.raises(ValueError, match=f"length {4 * 256 - cut} != expected 1024 at offset 22"):
            decode_frame(self.block()[:-cut])

    @pytest.mark.parametrize("b, row_bits, extra", [(4, 2048, 1), (4, 2048, -256), (3, 9, -2)])
    def test_block_payload_not_rows_of_whole_bytes(self, b, row_bits, extra):
        # b * ceil(L/8) bytes exactly: a byte more, a row fewer, or three
        # 9-bit rows packed without per-row padding (4 bytes, not 6) is refused
        raw = self.block(b, row_bits)
        raw = raw + bytes(extra) if extra > 0 else raw[:extra]
        expected = b * -(-row_bits // 8)
        with pytest.raises(ValueError, match=f"!= expected {expected} at offset 22"):
            decode_frame(raw)

    def test_block_with_w_other_than_one(self):
        raw = bytearray(self.block(2, 16))
        struct.pack_into("<II", raw, 14, 8, 2)
        with pytest.raises(ValueError, match="w = 2, not 1, at offset 18"):
            decode_frame(bytes(raw))


def socket_recv_forged(raw: bytes) -> bytes:
    """Send raw bytes to the public end of a SocketChannel, close the
    private end's write side, and receive one frame."""
    ch = SocketChannel()
    try:
        ch.send("private", raw)
        ch._sock("private").shutdown(socket.SHUT_WR)
        return ch.recv("public")
    finally:
        ch.close()


class TestPackedSend:
    @pytest.mark.parametrize("shape", [(8, 16, 16), (3, 5, 7), (1, 1, 1)])
    def test_packed_send_is_the_unpacked_send(self, shape):
        # a block of packed rows goes out as the same frame bytes and
        # transcript row as its unpacked bits, with or without padding, and
        # comes back as those rows
        rng = np.random.default_rng(sum(shape))
        bits = rng.integers(0, 2, size=(5, *shape)).astype(np.uint8)
        row_bits = math.prod(shape)
        unpacked, packed = Wire(), Wire()
        for wire in (unpacked, packed):
            wire.phase = "cache-build"
        unpacked.send("private", Frame(FrameKind.RESIDUAL_BLOCK, 11, bits.reshape(5, -1, 1)))
        packed.send_block("private", 11, pack_bits(bits), row_bits)
        raw = unpacked.channel.recv("public")
        assert packed.channel.recv("public") == raw
        assert packed.transcript.entries == unpacked.transcript.entries
        assert packed.transcript.entries[0].values == bits.size
        assert decode_frame(raw).data.tobytes() == bits.tobytes()
        # the same bytes read back as their packed rows
        packed.channel.send("private", raw)
        first_id, rows = packed.recv_block("public", row_bits)
        assert first_id == 11 and rows.shape == (5, -(-row_bits // 8))
        assert rows.tobytes() == pack_bits(bits).tobytes() and not rows.flags.writeable

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_payload_of_another_length_refused(self, extra):
        wire = Wire()
        rows = np.zeros((4, 256 + extra), np.uint8)
        with pytest.raises(ValueError, match=rf"shape \(4, {256 + extra}\) .* for 2048-bit rows"):
            wire.send_block("private", 0, rows, 2048)
        assert len(wire.transcript.entries) == 0
        with pytest.raises(ProtocolViolation, match="channel empty"):
            wire.channel.recv("public")

    @pytest.mark.parametrize("rows", [np.zeros((4, 256), np.int64), np.zeros(256, np.uint8)])
    def test_rows_of_another_dtype_or_rank_refused(self, rows):
        with pytest.raises(ValueError, match="expected \\(b, 256\\) uint8"):
            Wire().send_block("private", 0, rows, 2048)


class TestChannels:
    def test_memory_fifo_order(self):
        ch = MemoryChannel()
        ch.send("private", b"one")
        ch.send("private", b"two")
        assert ch.recv("public") == b"one"
        assert ch.recv("public") == b"two"

    def test_memory_directions_are_separate(self):
        ch = MemoryChannel()
        ch.send("private", b"down")
        ch.send("public", b"up")
        assert ch.recv("private") == b"up"
        assert ch.recv("public") == b"down"

    def test_empty_channel_is_a_violation(self):
        with pytest.raises(ProtocolViolation, match="channel empty"):
            MemoryChannel().recv("private")

    def test_socket_carries_identical_bytes(self):
        rng = np.random.default_rng(1)
        ch = SocketChannel()
        frames = [encode_frame(random_bits_frame(rng, i)) for i in range(4)]
        frames.append(encode_frame(frame_from_rows(FrameKind.LOGITS, 9,
                                                   rng.normal(size=(128, 4)))))
        try:
            for raw in frames:
                ch.send("private", raw)
                assert ch.recv("public") == raw
        finally:
            ch.close()

    def test_socket_rejects_bad_magic(self):
        raw = b"NOPE" + encode_frame(frame_from_rows(FrameKind.LOGITS, 0, np.zeros((1, 2))))[4:]
        with pytest.raises(ValueError, match="bad frame magic b'NOPE' at offset 0"):
            socket_recv_forged(raw)

    def test_socket_huge_dims_then_close_is_a_violation(self):
        # a forged header claiming ~2**99 payload bytes must not size any
        # allocation from its dims; the peer closing ends the read
        header = struct.pack("<4sBBIIII", b"DLTR", 1, int(FrameKind.LOGITS), 0,
                             2**32 - 1, 2**32 - 1, 2**32 - 1)
        with pytest.raises(ProtocolViolation, match="channel closed mid-frame"):
            socket_recv_forged(header + bytes(100))

    def test_socket_huge_block_allocates_only_what_arrives(self):
        # a forged residual-block header claiming 2**32 - 1 rows of 2**32 - 1
        # bits sizes nothing: the read holds only the 64 KiB the peer sent
        header = struct.pack("<4sBBIIII", b"DLTR", 1, int(FrameKind.RESIDUAL_BLOCK), 0,
                             2**32 - 1, 2**32 - 1, 1)

        def recv():
            with pytest.raises(ProtocolViolation, match="channel closed mid-frame"):
                socket_recv_forged(header + bytes(1 << 16))

        assert traced_peak(recv) < 1 << 18

    def test_silent_peer_times_out_as_a_violation(self, monkeypatch):
        # a live peer sends a header claiming a large payload, then nothing:
        # the read gives up after SOCKET_TIMEOUT_S instead of blocking
        monkeypatch.setattr(protocol, "SOCKET_TIMEOUT_S", 0.2)
        header = struct.pack("<4sBBIIII", b"DLTR", 1, int(FrameKind.LOGITS), 0,
                             1000, 1000, 1)
        ch = SocketChannel()
        try:
            ch.send("private", header + bytes(100))
            with pytest.raises(ProtocolViolation, match="peer silent"):
                ch.recv("public")
        finally:
            ch.close()

    def test_peer_that_stops_reading_times_out(self, monkeypatch):
        # the socket buffers fill and the peer never drains them
        monkeypatch.setattr(protocol, "SOCKET_TIMEOUT_S", 0.2)
        ch = SocketChannel()
        try:
            with pytest.raises(ProtocolViolation, match="stopped reading"):
                ch.send("private", bytes(1 << 24))
        finally:
            ch.close()

    @pytest.mark.parametrize("sender, receiver", [("private", "public"), ("public", "private")])
    def test_frame_larger_than_the_socket_buffer(self, monkeypatch, sender, receiver):
        # one thread sends a 1 MiB frame, then reads it: the channel keeps
        # what the socket cannot take and pushes it while the frame is read
        monkeypatch.setattr(protocol, "SOCKET_TIMEOUT_S", 2.0)
        rows = np.random.default_rng(5).normal(size=(1024, 128))
        wire = Wire(SocketChannel())
        try:
            assert rows.nbytes > wire.channel._sock(sender).getsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF)
            wire.send(sender, frame_from_rows(FrameKind.LOGITS, 3, rows))
            back = wire.recv(receiver, FrameKind.LOGITS, (1024, 128, 1))
            # the channel is left empty and in step for the next frame
            wire.send(receiver, frame_from_rows(FrameKind.LOGITS, 4, rows[:2]))
            assert rows_from_frame(wire.recv(sender, FrameKind.LOGITS)).tobytes() == (
                rows[:2].tobytes())
        finally:
            wire.channel.close()
        assert back.frame_id == 3 and rows_from_frame(back).tobytes() == rows.tobytes()
        assert wire.transcript.entries[0].nbytes == HEADER_BYTES + rows.nbytes

    def test_wire_rejects_unexpected_kind(self):
        wire = Wire()
        wire.phase = "inference"
        bits = np.ones((1, 1, 1), dtype=np.uint8)
        wire.send("private", Frame(FrameKind.RESIDUAL_BITS, 0, bits))
        with pytest.raises(ProtocolViolation, match="expected 'logits'"):
            wire.recv("public", expect=FrameKind.LOGITS)

    def test_wire_rejects_misshaped_frame(self):
        wire = Wire()
        wire.phase = "stage2"
        wire.send("public", frame_from_rows(FrameKind.LOGITS, 0, np.zeros((1, 4))))
        with pytest.raises(ProtocolViolation, match=r"shape \(1, 4, 1\), expected \(16, 4, 1\)"):
            wire.recv("private", FrameKind.LOGITS, (16, 4, 1))


# forged headers: mostly the right magic and version, kinds around the
# valid codes, dims from tiny to the u32 limit
U32 = st.integers(0, 3) | st.integers(0, 2**32 - 1)
HEADERS = st.builds(
    lambda *fields: struct.pack("<4sBBIIII", *fields),
    st.just(b"DLTR") | st.sampled_from([b"DLTX", bytes(4)]),
    st.just(1) | st.sampled_from([0, 255]),
    st.integers(1, 5) | st.sampled_from([0, 6, 255]),
    U32, U32, U32, U32,
)
PAYLOADS = st.binary(max_size=64)
GOOD_HEADER = struct.pack("<4sBBIIII", b"DLTR", 1, 1, 0, 1, 1, 1)
HUGE_HEADER = struct.pack("<4sBBIIII", b"DLTR", 1, 2, 0, 2**32 - 1, 2**32 - 1, 7)
HUGE_BLOCK = struct.pack("<4sBBIIII", b"DLTR", 1, 5, 0, 2**32 - 1, 2**32 - 1, 1)
FUZZ = settings(derandomize=True, database=None, max_examples=100, deadline=None)


class TestDecoderProperties:
    @FUZZ
    @given(st.binary(max_size=96) | st.builds(bytes.__add__, HEADERS, PAYLOADS))
    @example(HUGE_HEADER + bytes(8))
    @example(HUGE_BLOCK + bytes(8))
    @example(GOOD_HEADER + b"\x80")
    def test_decode_frame_returns_frame_or_raises_value_error(self, raw):
        try:
            frame = decode_frame(raw)
        except ValueError:
            return
        assert isinstance(frame, Frame)

    @FUZZ
    @given(HEADERS, PAYLOADS)
    @example(HUGE_HEADER, bytes(8))
    @example(HUGE_BLOCK, bytes(8))
    @example(GOOD_HEADER, b"\x80")
    def test_socket_recv_of_forged_header(self, header, payload):
        try:
            out = socket_recv_forged(header + payload)
        except (ValueError, ProtocolViolation):
            return
        assert out == (header + payload)[: len(out)]


class TestTranscriptAudit:
    def test_empty_transcript_passes_with_zero_totals(self):
        report = audit(Transcript())
        assert report.passed
        assert report.violations == ()
        assert set(report.bytes_by_phase.values()) == {0}

    def test_legal_run_passes_with_ratio_32(self):
        t = Transcript()
        t.record("private->public", "residual-bits", 278, "cache-build", 2048)
        t.record("public->private", "logits", 534, "stage2", 64)
        t.record("private->public", "labels", 54, "stage2", 16)
        t.record("private->public", "residual-bits", 278, "inference", 2048)
        t.record("public->private", "logits", 54, "inference", 4)
        report = audit(t)
        assert report.passed
        assert report.ratio == 32.0
        assert report.bytes_by_phase["stage1"] == 0
        assert report.bytes_by_phase["stage2"] == 588

    def test_block_frames_count_in_the_ratio(self):
        # a block of 128 rows of 2048 bits: 22 + 128 * 256 bytes, 32x exactly
        t = Transcript()
        t.record("private->public", "residual-block", 22 + 128 * 256, "cache-build", 128 * 2048)
        t.record("private->public", "residual-bits", 278, "cache-build", 2048)
        report = audit(t)
        assert report.passed and report.ratio == 32.0

    def test_ratio_counts_real_values_and_bytes(self):
        # a (1, 3, 3) frame: 9 values as float32 are 36 bytes, as bits 2
        wire = Wire()
        wire.phase = "inference"
        wire.send("private", Frame(FrameKind.RESIDUAL_BITS, 0, np.ones((1, 3, 3), np.uint8)))
        assert wire.transcript.entries[0].values == 9
        assert audit(wire.transcript).ratio == 36 / 2 == 18.0
        # three (1, 3, 3) samples in one block: 27 values in 3 * 2 bytes
        wire.phase = "cache-build"
        wire.send("private", Frame(FrameKind.RESIDUAL_BLOCK, 0, np.ones((3, 9, 1), np.uint8)))
        assert wire.transcript.entries[1].values == 27
        assert audit(wire.transcript).ratio == 4 * 36 / 8 == 18.0

    def test_injected_float_frame_fails_at_its_index(self):
        t = Transcript()
        t.record("private->public", "residual-bits", 278, "cache-build", 2048)
        t.record("private->public", "logits", 2070, "cache-build", 256)
        t.record("private->public", "residual-bits", 278, "cache-build", 2048)
        report = audit(t)
        assert not report.passed
        assert len(report.violations) == 1
        index, reason = report.violations[0]
        assert index == 1
        assert "logits" in reason and "cache-build" in reason

    def test_block_in_inference_fails_at_its_index(self):
        # a request is one sample's residual-bits frame, never a block
        t = Transcript()
        t.record("private->public", "residual-bits", 278, "inference", 2048)
        t.record("public->private", "logits", 54, "inference", 4)
        t.record("private->public", "residual-block", 22 + 2 * 256, "inference", 2 * 2048)
        t.record("public->private", "logits", 54, "inference", 4)
        report = audit(t)
        assert report.violations == (
            (2, "frame kind 'residual-block' not allowed in phase 'inference'"),
        )

    def test_blocks_refused_outside_cache_build(self):
        for phase in ("stage1", "stage2"):
            t = Transcript()
            t.record("private->public", "residual-block", 22 + 256, phase, 2048)
            assert not audit(t).passed
        t = Transcript()
        t.record("private->public", "residual-block", 22 + 256, "cache-build", 2048)
        assert audit(t).passed

    def test_stage1_allows_nothing(self):
        t = Transcript()
        t.record("private->public", "residual-bits", 278, "stage1", 2048)
        assert not audit(t).passed

    def test_residual_bits_refused_in_stage2(self):
        t = Transcript()
        t.record("private->public", "residual-bits", 278, "stage2", 2048)
        assert not audit(t).passed

    def test_control_frames_allowed_nowhere(self):
        for phase in ("stage1", "cache-build", "stage2", "inference"):
            t = Transcript()
            t.record("private->public", "control", 22, phase, 0)
            assert not audit(t).passed

    def test_unknown_phase_rejected_at_record(self):
        with pytest.raises(ValueError, match="unknown phase"):
            Transcript().record("private->public", "logits", 10, "stage3", 0)

    def test_csv_layout(self):
        t = Transcript()
        t.record("private->public", "residual-bits", 278, "cache-build", 2048)
        t.record("public->private", "logits", 534, "stage2", 64)
        assert t.to_csv() == (
            "index,direction,kind,bytes,phase\n"
            "0,private->public,residual-bits,278,cache-build\n"
            "1,public->private,logits,534,stage2\n"
        )

    def test_csv_of_a_mixed_transcript(self):
        # labels recur and interleave, and a kind the audit refuses is
        # still recorded and written
        t = Transcript()
        t.record("private->public", "residual-bits", 278, "cache-build", 2048)
        t.record("private->public", "control", 22, "stage2", 0)
        t.record("public->private", "logits", 534, "stage2", 64)
        t.record("private->public", "residual-bits", 278, "cache-build", 2048)
        t.record("public->private", "logits", 54, "inference", 4)
        assert t.to_csv().encode() == (
            b"index,direction,kind,bytes,phase\n"
            b"0,private->public,residual-bits,278,cache-build\n"
            b"1,private->public,control,22,stage2\n"
            b"2,public->private,logits,534,stage2\n"
            b"3,private->public,residual-bits,278,cache-build\n"
            b"4,public->private,logits,54,inference\n"
        )
        assert t.bytes_by_phase() == {
            "stage1": 0, "cache-build": 556, "stage2": 556, "inference": 54,
        }
        assert audit(t).violations == ((1, "frame kind 'control' not allowed in phase 'stage2'"),)


class TestTranscriptEntries:
    def make(self):
        t = Transcript()
        t.record("private->public", "residual-bits", 278, "inference", 2048)
        t.record("public->private", "logits", 54, "inference", 4)
        t.record("private->public", "residual-bits", 278, "inference", 2048)
        return t

    def test_empty_view_equals_empty_list(self):
        entries = Transcript().entries
        assert entries == []
        assert len(entries) == 0
        assert list(entries) == []
        assert entries[0:] == []
        with pytest.raises(IndexError):
            entries[0]

    def test_rows_built_on_access(self):
        entries = self.make().entries
        assert entries[1] == protocol.TranscriptEntry(
            1, "public->private", "logits", 54, "inference", 4
        )
        assert [e.index for e in entries] == [0, 1, 2]
        assert entries == [entries[0], entries[1], entries[2]]
        assert entries != [entries[0], entries[1]]

    def test_negative_and_slice_indices(self):
        entries = self.make().entries
        assert entries[-1] == entries[2]
        assert entries[-3] == entries[0]
        for bad in (3, -4):
            with pytest.raises(IndexError):
                entries[bad]
        assert entries[1:] == [entries[1], entries[2]]
        assert entries[::2] == [entries[0], entries[2]]
        assert entries[5:] == []
        assert entries[-2:-1] == [entries[1]]

    def test_view_is_read_only_and_live(self):
        t = self.make()
        entries = t.entries
        with pytest.raises(TypeError):
            entries[0] = entries[1]
        t.record("public->private", "logits", 54, "inference", 4)
        assert len(entries) == 4
        assert entries[-1].index == 3


def tiny_setup(seed=0, n=64, ep1=1, ep2=2, epsilon=float("inf"), **cfg_kwargs):
    data = synthetic_dataset(n=n, seed=seed)
    model = Model(default_spec(r=DCFG.r))
    params, buffers = model.init(seed)
    cfg = TrainConfig(ep1=ep1, ep2=ep2, batch_size=16, epsilon=epsilon,
                      seed=seed, **cfg_kwargs)
    return data, model, params, buffers, cfg


def record_wires(monkeypatch):
    """The list every Wire the split driver builds is appended to."""
    wires = []

    class RecordedWire(Wire):
        def __init__(self, channel=None):
            super().__init__(channel)
            wires.append(self)

    monkeypatch.setattr(protocol, "Wire", RecordedWire)
    return wires


class TestSplitTraining:
    @pytest.mark.parametrize("epsilon", [float("inf"), 0.5])
    def test_split_matches_in_process_bitwise(self, epsilon):
        data, model, params, buffers, cfg = tiny_setup(epsilon=epsilon)
        mono = train_in_process(model, params, buffers, data, DCFG, cfg)

        data2, model2, params2, buffers2, cfg2 = tiny_setup(epsilon=epsilon)
        report, wire, private, public = run_split_training(
            model2, params2, buffers2, data2, DCFG, cfg2
        )

        assert (report.sigma > 0) == (epsilon == 0.5)
        assert report.sigma == mono.sigma
        assert report.stage1_loss == mono.stage1_loss
        assert report.stage2_main_loss == mono.stage2_main_loss
        assert report.stage2_res_loss == mono.stage2_res_loss
        for mine, theirs in ((params, {**private.params, **public.params}),
                             (buffers, {**private.buffers, **public.buffers})):
            assert theirs.keys() == mine.keys()
            for key in mine:
                assert theirs[key].tobytes() == mine[key].tobytes(), key

    def test_residual_over_bound_refused_before_any_frame(self, monkeypatch):
        # the driver forms the release one batch at a time, so the last
        # sample of the first batch breaks the bound C: nothing may have
        # been sent by the time the driver refuses
        real = protocol.compute_residuals

        def one_too_large(*args, **kwargs):
            residuals = real(*args, **kwargs)
            residuals[max(residuals)] = 2.0 * residuals[max(residuals)]
            return residuals

        monkeypatch.setattr(protocol, "compute_residuals", one_too_large)
        wires = record_wires(monkeypatch)
        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=1, epsilon=0.5)
        with pytest.raises(ProtocolViolation, match="sensitivity"):
            run_split_training(model, params, buffers, data, DCFG, cfg)
        (wire,) = wires
        assert wire.phase == "cache-build"
        assert wire.transcript.entries == []

    def test_last_batch_over_bound_refuses_the_whole_release(self, monkeypatch):
        # every earlier batch passes the norm check and is perturbed; the
        # last one breaks C, and still no residual bits have left
        data, model, params, buffers, cfg = tiny_setup(n=80, ep1=0, ep2=1, epsilon=0.5)
        n_batches = -(-len(data.train_x) // cfg.batch_size)
        assert n_batches > 2
        real = protocol.compute_residuals
        calls = []

        def last_too_large(*args, **kwargs):
            residuals = real(*args, **kwargs)
            calls.append(len(residuals))
            if len(calls) == n_batches:
                residuals = {j: 2.0 * r for j, r in residuals.items()}
            return residuals

        monkeypatch.setattr(protocol, "compute_residuals", last_too_large)
        wires = record_wires(monkeypatch)
        with pytest.raises(ProtocolViolation, match="sensitivity") as refused:
            run_split_training(model, params, buffers, data, DCFG, cfg)
        assert len(calls) == n_batches
        # the refused sample is named by its global id, in the last batch
        sample_id = int(str(refused.value).rsplit(" ", 1)[1])
        assert (n_batches - 1) * cfg.batch_size <= sample_id < len(data.train_x)
        (wire,) = wires
        assert wire.phase == "cache-build"
        assert wire.transcript.entries == []

    def test_release_formed_one_batch_at_a_time(self, monkeypatch):
        # each batch's float residuals are formed and perturbed on their
        # own, keyed by global sample id, in sample order
        residual_sizes, released = [], []
        real_residuals, real_cache = protocol.compute_residuals, protocol.build_cache

        def residuals_spy(model, params, buffers, xs, dcfg, batch_size, **kwargs):
            residual_sizes.append(len(xs))
            return real_residuals(model, params, buffers, xs, dcfg, batch_size, **kwargs)

        def cache_spy(residuals, *args, **kwargs):
            released.append(list(residuals))
            return real_cache(residuals, *args, **kwargs)

        monkeypatch.setattr(protocol, "compute_residuals", residuals_spy)
        monkeypatch.setattr(protocol, "build_cache", cache_spy)
        data, model, params, buffers, cfg = tiny_setup(n=80, ep1=0, ep2=1, epsilon=0.5)
        _, _, _, public = run_split_training(model, params, buffers, data, DCFG, cfg)
        n = len(data.train_x)
        n_batches = -(-n // cfg.batch_size)
        assert len(residual_sizes) == len(released) == n_batches
        assert all(size <= cfg.batch_size for size in residual_sizes)
        assert [len(ids) for ids in released] == residual_sizes
        assert [i for ids in released for i in ids] == list(range(n))
        assert sorted(public.store) == list(range(n))

    def test_release_constructs_no_generator(self, monkeypatch):
        # the driver hands the private endpoint's generator to every
        # batch's build_cache: no Philox is seeded during cache-build
        wires = record_wires(monkeypatch)
        phases = []
        real = np.random.Philox

        def spy(*args, **kwargs):
            phases.append(wires[0].phase if wires else None)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", spy)
        data, model, params, buffers, cfg = tiny_setup(n=80, ep1=0, ep2=1, epsilon=0.5)
        run_split_training(model, params, buffers, data, DCFG, cfg)
        assert phases.count("stage1") == 1  # the endpoint's own generator
        assert phases.count("cache-build") == 0

    def test_overflowing_features_stop_training_before_the_release(self, monkeypatch):
        # finite weights whose backbone features square to inf would end in
        # a failed eigh; the cache-build pass refuses them as a divergence
        wires = record_wires(monkeypatch)
        data, model, params, buffers, cfg = tiny_setup(n=32, ep1=0, ep2=1, epsilon=0.5)
        params["bb/conv/w"] = params["bb/conv/w"] * 1e160
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDiverged, match="cache-build backbone features overflow"):
            run_split_training(model, params, buffers, data, DCFG, cfg)
        (wire,) = wires
        assert wire.phase == "cache-build"
        assert wire.transcript.entries == []

    def test_stage2_reads_ir_main_rows_of_the_frozen_backbone(self, monkeypatch):
        # the rows each stage-2 step receives are the ones a per-batch
        # recompute through the (frozen) backbone would give, bit for bit
        received = []
        real = protocol.Stage2Private.prepare

        def spy(self, ir_main, yb1h):
            received.append(ir_main.copy())
            return real(self, ir_main, yb1h)

        monkeypatch.setattr(protocol.Stage2Private, "prepare", spy)
        data, model, params, buffers, cfg = tiny_setup(ep2=2)
        _, _, private, _ = run_split_training(model, params, buffers, data, DCFG, cfg)
        n = len(data.train_x)
        schedules = [batch_schedule(n, cfg.batch_size, cfg.seed, 2, e) for e in range(2)]
        batches = [idx for schedule in schedules for idx in schedule]
        assert len(received) == len(batches) and n % cfg.batch_size
        for rows, idx in zip(received, batches):
            feats, _ = model.forward_backbone(
                private.params, private.buffers, data.train_x[idx], train=False
            )
            assert np.array_equal(rows, decompose_main_batch(feats, DCFG)[0])

    def test_backbone_runs_in_stage1_and_cache_build_only(self, monkeypatch):
        calls = []
        real = Model.forward_backbone

        def spy(self, *args, **kwargs):
            calls.append(len(args[2]))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Model, "forward_backbone", spy)
        data, model, params, buffers, cfg = tiny_setup(ep1=2, ep2=3)
        run_split_training(model, params, buffers, data, DCFG, cfg)
        batches = -(-len(data.train_x) // cfg.batch_size)
        assert len(calls) == cfg.ep1 * batches + batches

    def test_released_bits_digest_pinned(self):
        # the private side computes in float64 throughout: the released
        # bits of this run are fixed, whatever precision the public side uses
        data, model, params, buffers, cfg = tiny_setup(n=200, ep1=2, ep2=1, epsilon=0.5)
        _, _, _, public = run_split_training(model, params, buffers, data, DCFG, cfg)
        # the store keeps each sample's packed payload; the digest is of the
        # unpacked 0/1 bytes, one per released bit
        digest = hashlib.sha256()
        for sample_id in sorted(public.store):
            packed = np.frombuffer(public.store[sample_id], dtype=np.uint8)
            digest.update(np.unpackbits(packed, bitorder="big").tobytes())
        assert len(public.store) == len(data.train_x)
        assert digest.hexdigest() == (
            "c57b71e0957cb3ebdf3850fceb66bf2467ee913ad7c207e862703035f6b38f3c"
        )

    def test_public_state_stays_float64(self, monkeypatch, tmp_path):
        # the residual branch computes in float32, but its weights, momentum
        # velocities and running statistics are float64 masters, saved as f8
        states = []
        real = protocol.Stage2Public.apply_gradient

        def spy(self, g_res):
            states.append(self.state)
            return real(self, g_res)

        monkeypatch.setattr(protocol.Stage2Public, "apply_gradient", spy)
        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=2)
        _, _, private, public = run_split_training(model, params, buffers, data, DCFG, cfg)
        assert states
        velocities = states[-1].velocities
        assert set(velocities) == set(public.params)
        for arrays in (public.params, public.buffers, velocities,
                       private.params, private.buffers):
            for key, value in arrays.items():
                assert value.dtype == np.float64, key
        path = tmp_path / "public.dltp"
        save_checkpoint(path, public.params, public.buffers, {})
        loaded_params, loaded_buffers, _ = load_checkpoint(path)
        for saved, loaded in ((public.params, loaded_params), (public.buffers, loaded_buffers)):
            assert loaded.keys() == saved.keys()
            for key in saved:
                assert loaded[key].tobytes() == saved[key].tobytes(), key

    def test_socket_mode_matches_memory_mode(self):
        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=1)
        _, _, private_a, public_a = run_split_training(
            model, params, buffers, data, DCFG, cfg
        )
        data2, model2, params2, buffers2, cfg2 = tiny_setup(n=32, ep2=1)
        channel = SocketChannel()
        try:
            _, _, private_b, public_b = run_split_training(
                model2, params2, buffers2, data2, DCFG, cfg2, channel=channel
            )
        finally:
            channel.close()
        for key in private_a.params:
            assert private_a.params[key].tobytes() == private_b.params[key].tobytes()
        for key in public_a.params:
            assert public_a.params[key].tobytes() == public_b.params[key].tobytes()

    def test_transcript_shape(self):
        data, model, params, buffers, cfg = tiny_setup()
        report, wire, private, public = run_split_training(
            model, params, buffers, data, DCFG, cfg
        )
        entries = wire.transcript.entries
        n_train = len(data.train_x)

        assert report.bytes_by_phase["stage1"] == 0
        # one residual-block frame per training batch, in sample order
        cache = [e for e in entries if e.phase == "cache-build"]
        sizes = [len(range(n_train)[lo : lo + cfg.batch_size])
                 for lo in range(0, n_train, cfg.batch_size)]
        assert len(cache) == len(sizes) > 1 and n_train % cfg.batch_size
        chw = model.spec.bb_channels * 16 * 16
        assert all(e.kind == "residual-block" for e in cache)
        assert all(e.direction == "private->public" for e in cache)
        assert [e.nbytes for e in cache] == [HEADER_BYTES + b * chw // 8 for b in sizes]
        assert [e.values for e in cache] == [b * chw for b in sizes]

        stage2 = [e for e in entries if e.phase == "stage2"]
        batches_per_epoch = -(-n_train // cfg.batch_size)
        assert len(stage2) == 2 * batches_per_epoch * cfg.ep2
        # per batch, L*b doubles of logits, then b uint16 labels, in lockstep order
        L = model.spec.num_classes
        batch_sizes = [
            len(idx)
            for epoch in range(cfg.ep2)
            for idx in batch_schedule(n_train, cfg.batch_size, cfg.seed, 2, epoch)
        ]
        for b, logits_e, labels_e in zip(batch_sizes, stage2[::2], stage2[1::2]):
            assert logits_e.kind == "logits"
            assert logits_e.direction == "public->private"
            assert logits_e.nbytes == HEADER_BYTES + 8 * L * b
            assert labels_e.kind == "labels"
            assert labels_e.direction == "private->public"
            assert labels_e.nbytes == HEADER_BYTES + 2 * b

        assert report.bytes_by_phase == wire.transcript.bytes_by_phase()
        assert audit(wire.transcript).passed

    def test_public_store_holds_wire_bits(self, monkeypatch):
        # each store row is, byte for byte, its slice of the payload of the
        # block frame that carried it, and unpacks to the 0/1 bits the
        # private side sent (its cache's packed rows, sent without unpacking)
        sent, payloads = {}, {}
        real_send = protocol.Wire.send_block

        def send_spy(self, sender, first_id, rows, row_bits):
            for j, row in enumerate(rows):
                sent[first_id + j] = unpack_bits(row, (row_bits,))
            return real_send(self, sender, first_id, rows, row_bits)

        class PayloadChannel(MemoryChannel):
            def send(self, sender, raw):
                frame = decode_frame(raw)
                if frame.kind == FrameKind.RESIDUAL_BLOCK:
                    b, row_bits, _ = frame.data.shape
                    width = -(-row_bits // 8)
                    for j in range(b):
                        payloads[frame.frame_id + j] = raw[HEADER_BYTES:][j * width:][:width]
                super().send(sender, raw)

        monkeypatch.setattr(protocol.Wire, "send_block", send_spy)
        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=1)
        _, _, _, public = run_split_training(
            model, params, buffers, data, DCFG, cfg, channel=PayloadChannel()
        )
        assert set(public.store) == set(sent) == set(payloads) == set(range(len(data.train_x)))
        for sample_id, entry in public.store.items():
            assert len(entry) == 256 and bytes(entry) == payloads[sample_id]
            bits = np.unpackbits(np.frombuffer(entry, dtype=np.uint8), bitorder="big")
            assert bits.tobytes() == sent[sample_id].tobytes()

    def test_public_store_reads_as_a_mapping(self):
        data, model, params, buffers, cfg = tiny_setup(n=48, ep1=0, ep2=1)
        _, _, _, public = run_split_training(model, params, buffers, data, DCFG, cfg)
        store, n = public.store, len(data.train_x)
        ids = list(store)
        assert ids == list(range(n)) and all(type(i) is int for i in ids)
        assert len(store) == n and 0 in store and np.int64(n - 1) in store
        for bad in (n, -1, "0", 1.0):
            assert bad not in store
            with pytest.raises(KeyError):
                store[bad]
        row = store[3]
        assert row.dtype == np.uint8 and row.shape == (256,) and not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1
        assert store.take([3, 0]).tobytes() == bytes(store[3]) + bytes(store[0])

    def test_wire_budget_in_closed_form(self):
        # cache-build: one header per training batch and ceil(chw/8) bytes
        # per sample; stage 2: per batch of b, 22 + 8kb bytes of logits and
        # 22 + 2b of labels
        data, model, params, buffers, cfg = tiny_setup(n=90, ep1=0, ep2=2)
        report, _, _, _ = run_split_training(model, params, buffers, data, DCFG, cfg)
        n, k = len(data.train_x), model.spec.num_classes
        chw = model.spec.bb_channels * 16 * 16
        sizes = [len(idx) for epoch in range(cfg.ep2)
                 for idx in batch_schedule(n, cfg.batch_size, cfg.seed, 2, epoch)]
        assert n % cfg.batch_size and sum(sizes) == cfg.ep2 * n
        assert report.bytes_by_phase == {
            "stage1": 0,
            "cache-build": -(-n // cfg.batch_size) * HEADER_BYTES + n * -(-chw // 8),
            "stage2": sum((HEADER_BYTES + 8 * k * b) + (HEADER_BYTES + 2 * b) for b in sizes),
            "inference": 0,
        }

    @pytest.mark.parametrize("classes, ep2, refused", [
        (65537, 1, True), (65536, 1, False), (65537, 0, False),
    ])
    def test_more_classes_than_labels_frames_carry_refused_first(
            self, monkeypatch, classes, ep2, refused):
        # refused before stage 1 runs; a stage-1-only run sends no labels
        class Reached(Exception):
            pass

        def stage1(*args):
            raise Reached

        monkeypatch.setattr(protocol, "run_stage1", stage1)
        data = synthetic_dataset(n=20, seed=0)
        model = Model(dataclasses.replace(default_spec(r=DCFG.r), num_classes=classes))
        cfg = TrainConfig(ep1=1, ep2=ep2, batch_size=16)
        with pytest.raises(ProtocolViolation if refused else Reached,
                           match="65537 classes are more than 65536" if refused else None):
            run_split_training(model, {}, {}, data, DCFG, cfg)

    def test_unquantized_config_refused(self):
        data, model, params, buffers, cfg = tiny_setup(n=32, quantize=False)
        with pytest.raises(ProtocolViolation, match="raw residual floats"):
            run_split_training(model, params, buffers, data, DCFG, cfg)

    def test_stage1_only_run_is_silent(self):
        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=0)
        report, wire, _, _ = run_split_training(model, params, buffers, data, DCFG, cfg)
        assert wire.transcript.entries == []
        assert set(report.bytes_by_phase.values()) == {0}


class RecordingChannel(MemoryChannel):
    """A memory channel that keeps every frame, so a test can play either side."""

    def __init__(self):
        super().__init__()
        self.sent = []  # (sender, frame)

    def send(self, sender, raw):
        self.sent.append((sender, decode_frame(raw)))
        super().send(sender, raw)


class TamperingChannel(MemoryChannel):
    """A peer that cuts every frame of ``kind`` it sends with ``cut`` and
    gives it the id ``renumber`` makes of its own."""

    def __init__(self, cut, kind=FrameKind.LOGITS, renumber=lambda frame_id: frame_id):
        super().__init__()
        self.cut, self.kind, self.renumber = cut, kind, renumber

    def send(self, sender, raw):
        frame = decode_frame(raw)
        if frame.kind == self.kind:
            raw = encode_frame(Frame(frame.kind, self.renumber(frame.frame_id),
                                     self.cut(frame.data)))
        super().send(sender, raw)


class TestStage2MainGradient:
    """Stage 2 reads ir_main rows the frozen backbone formed once, so the
    main branch's backward forms no gradient of ir_main there."""

    def test_no_col2im_under_main_b0_in_stage2(self, monkeypatch):
        # main/b0's factorized conv1 and its proj are stride 2: their input
        # gradients are one col2im each, in stage 1 only
        wires, blocks, seen = record_wires(monkeypatch), [], []
        real_backward, real_col2im = ResBlock.backward, numerics.col2im

        def block_spy(self, *args):
            blocks.append(self.prefix)
            try:
                return real_backward(self, *args)
            finally:
                blocks.pop()

        def col2im_spy(*args):
            seen.append((wires[0].phase, blocks[-1] if blocks else None))
            return real_col2im(*args)

        monkeypatch.setattr(ResBlock, "backward", block_spy)
        monkeypatch.setattr(numerics, "col2im", col2im_spy)
        data, model, params, buffers, cfg = tiny_setup(ep1=1, ep2=2, epsilon=0.5)
        run_split_training(model, params, buffers, data, DCFG, cfg)
        batches = -(-len(data.train_x) // cfg.batch_size)
        assert seen.count(("stage1", "main/b0")) == 2 * cfg.ep1 * batches
        assert ("stage2", "main/b0") not in seen
        assert ("stage2", "main/b1") in seen

    def test_stage2_weight_gradients_bitwise_unchanged(self, monkeypatch):
        # each stage-2 step's main-branch gradients equal, bit for bit, those
        # the same backward forms together with ir_main's gradient
        pairs, real = [], Model.backward_main

        def both(self, params, cache, gz, grads, input_grad=True):
            if input_grad:
                return real(self, params, cache, gz, grads)
            full = {}
            assert real(self, params, cache, gz, full) is not None
            out = real(self, params, cache, gz, grads, input_grad=False)
            pairs.append((full, dict(grads)))
            return out

        monkeypatch.setattr(Model, "backward_main", both)
        data, model, params, buffers, cfg = tiny_setup(ep1=1, ep2=2, epsilon=0.5)
        run_split_training(model, params, buffers, data, DCFG, cfg)
        assert len(pairs) == cfg.ep2 * -(-len(data.train_x) // cfg.batch_size)
        for full, skipped in pairs:
            assert full.keys() == skipped.keys()
            assert {k for k in full if k.startswith("main/b0/")} >= {
                "main/b0/conv1/w1", "main/b0/conv1/w2", "main/b0/proj/w"}
            for key in full:
                assert full[key].tobytes() == skipped[key].tobytes(), key


class TestMisshapedFrames:
    def test_one_logit_per_request_is_a_violation(self):
        # a (1, 1, 1) logits frame would broadcast into the merge unseen
        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=0)
        wire = Wire(TamperingChannel(lambda d: d[:, :1]))
        (pp, pb), (qp, qb) = split_params(params, buffers)
        private = PrivateEndpoint(model, pp, pb, DCFG, cfg, wire)
        public = PublicEndpoint(model, qp, qb)
        with pytest.raises(ProtocolViolation, match=r"shape \(1, 1, 1\), expected \(1, 4, 1\)"):
            run_split_inference(private, public, data.val_x[:2])

    @pytest.mark.parametrize("value,at", [(np.nan, 1), (np.inf, 2), (-np.inf, 0)])
    def test_non_finite_logits_are_a_violation(self, value, at):
        # numpy's argmax returns a NaN's position, and +inf's, as the class
        def poison(d):
            d = d.copy()
            d[0, at, 0] = value
            return d

        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=0)
        wire = Wire(TamperingChannel(poison))
        (pp, pb), (qp, qb) = split_params(params, buffers)
        private = PrivateEndpoint(model, pp, pb, DCFG, cfg, wire)
        public = PublicEndpoint(model, qp, qb)
        with pytest.raises(ProtocolViolation, match="non-finite logits for request 0"):
            run_split_inference(private, public, data.val_x[:5])

    def test_one_logits_row_per_stage2_batch_is_a_violation(self):
        # one row would broadcast over the batch and training would finish
        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=1)
        with pytest.raises(ProtocolViolation, match=r"expected \(16, 4, 1\) in phase 'stage2'"):
            run_split_training(model, params, buffers, data, DCFG, cfg,
                               channel=TamperingChannel(lambda d: d[:1]))

    def test_labels_frame_missing_a_row_is_a_violation(self):
        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=1)
        with pytest.raises(ProtocolViolation,
                           match=r"'labels' frame of shape \(15, 1, 1\), expected \(16, 1, 1\)"):
            run_split_training(model, params, buffers, data, DCFG, cfg,
                               channel=TamperingChannel(lambda d: d[1:], FrameKind.LABELS))

    def test_label_outside_the_classes_is_a_violation(self):
        # label k would index past the public side's one-hot rows
        def relabel(d):
            d = d.copy()
            d[3] = 4
            return d

        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=1)
        assert model.spec.num_classes == 4
        with pytest.raises(ProtocolViolation, match="label 4 for a model of 4 classes in batch 0"):
            run_split_training(model, params, buffers, data, DCFG, cfg,
                               channel=TamperingChannel(relabel, FrameKind.LABELS))


class TestReleasedBlocks:
    """The public side takes a release only as n rows, each filled once."""

    def run(self, **tamper):
        data, model, params, buffers, cfg = tiny_setup(n=48, ep1=0, ep2=1)
        assert len(data.train_x) == 38 and cfg.batch_size == 16
        kwargs = {"cut": lambda d: d, "kind": FrameKind.RESIDUAL_BLOCK, **tamper}
        return run_split_training(model, params, buffers, data, DCFG, cfg,
                                  channel=TamperingChannel(**kwargs))

    def test_block_past_the_last_id_is_a_violation(self):
        # the last block, ids [32, 38), shifted by one row
        with pytest.raises(ProtocolViolation,
                           match=r"ids \[33, 39\), outside the release's \[0, 38\)"):
            self.run(renumber=lambda i: i + 1 if i == 32 else i)

    def test_block_at_a_huge_id_is_a_violation(self):
        with pytest.raises(ProtocolViolation, match=r"ids \[4294967295, 4294967311\)"):
            self.run(renumber=lambda i: 2**32 - 1)

    def test_overlapping_blocks_are_a_violation(self):
        with pytest.raises(ProtocolViolation,
                           match=r"ids \[8, 24\), some of them already filled"):
            self.run(renumber=lambda i: 8 if i == 16 else i)

    def test_block_of_another_row_length_is_a_violation(self):
        with pytest.raises(ProtocolViolation, match=r"shape \(16, 2040, 1\), "
                           r"expected rows of 2048 bits in phase 'cache-build'"):
            self.run(cut=lambda d: d[:, 8:])

    def test_release_with_an_unfilled_row_is_a_violation(self):
        # the two full blocks arrive one row short: ids 15 and 31 are never filled
        with pytest.raises(ProtocolViolation,
                           match="cache-build ended with 2 of 38 released rows unfilled, "
                                 "the first id 15"):
            self.run(cut=lambda d: d[:15] if len(d) == 16 else d)


def test_public_side_recovers_every_stage2_label():
    # the public side forms g_res = softmax(z_res) - y itself, so it is sent
    # the labels: from those frames and the shared schedule it reads them all
    data, model, params, buffers, cfg = tiny_setup(n=120, ep2=1, epsilon=0.5)
    channel = RecordingChannel()
    run_split_training(model, params, buffers, data, DCFG, cfg, channel=channel)
    logits = [f for who, f in channel.sent if who == "public" and f.kind == FrameKind.LOGITS]
    labels = [f.data[:, 0, 0] for who, f in channel.sent
              if who == "private" and f.kind == FrameKind.LABELS]
    n = len(data.train_x)
    schedule = batch_schedule(n, cfg.batch_size, cfg.seed, 2, 0)
    assert len(logits) == len(labels) == len(schedule)
    assert len(channel.sent) == -(-n // cfg.batch_size) + 2 * len(schedule)
    recovered = np.full(n, -1)
    for idx, y in zip(schedule, labels):
        recovered[idx] = y
    assert n == 96
    np.testing.assert_array_equal(recovered, data.train_y)


@pytest.fixture(scope="module")
def trained():
    data, model, params, buffers, cfg = tiny_setup(n=96, ep2=2)
    report, wire, private, public = run_split_training(
        model, params, buffers, data, DCFG, cfg
    )
    return data, model, private, public, report


class TestSplitInference:
    def test_two_frames_per_sample(self, trained):
        data, model, private, public, _ = trained
        before = len(private.wire.transcript.entries)
        run_split_inference(private, public, data.val_x[:3])
        new = private.wire.transcript.entries[before:]
        assert len(new) == 6
        assert [e.kind for e in new] == ["residual-bits", "logits"] * 3
        assert [e.direction for e in new[:2]] == ["private->public", "public->private"]
        assert all(e.phase == "inference" for e in new)

    def test_matches_monolithic_forward(self, trained):
        data, model, private, public, report = trained
        xs = data.val_x[:16]
        preds = run_split_inference(private, public, xs, sigma=report.sigma)

        merged_params = dict(private.params)
        merged_params.update(public.params)
        merged_buffers = dict(private.buffers)
        merged_buffers.update(public.buffers)
        for i, x in enumerate(xs):
            bits, _ = private.inference_parts(x, VAL_STREAM_BASE + i, report.sigma)
            _, _, pred = forward_full(
                model, merged_params, merged_buffers, x, DCFG, residual_bits=bits
            )
            assert preds[i] == pred

    @pytest.mark.parametrize("sigma", [0.0, 3.294])  # none, and the acceptance bench's
    def test_logits_equal_monolithic_forward_bitwise(self, trained, monkeypatch, sigma):
        # z_main as the private side keeps it and z_res as it arrives over
        # the wire equal forward_full's on the same image, stream and sigma
        data, model, private, public, _ = trained
        xs = data.val_x[:8]
        seen_main, seen_res = [], []
        parts = private.inference_parts

        def record_parts(x, stream, s):
            bits, z_main = parts(x, stream, s)
            seen_main.append(z_main)
            return bits, z_main

        def record_rows(frame):
            seen_res.append(rows_from_frame(frame)[0])
            return seen_res[-1][None]

        monkeypatch.setattr(private, "inference_parts", record_parts)
        monkeypatch.setattr(protocol, "rows_from_frame", record_rows)
        run_split_inference(private, public, xs, sigma=sigma)
        assert len(seen_main) == len(seen_res) == len(xs)

        merged_params = {**private.params, **public.params}
        merged_buffers = {**private.buffers, **public.buffers}
        for i, x in enumerate(xs):
            z_main, z_res, _ = forward_full(
                model, merged_params, merged_buffers, x, DCFG, sigma=sigma,
                seed=private.cfg.seed, stream=VAL_STREAM_BASE + i,
            )
            assert z_main.tobytes() == seen_main[i].tobytes(), i
            assert z_res.tobytes() == seen_res[i].tobytes(), i

    def test_endpoint_noise_matches_fresh_generator(self, trained):
        # the endpoint's one generator, re-keyed per request, draws what a
        # fresh one would, in any order and with a batched evaluate between
        data, model, private, public, _ = trained
        x = data.val_x[0]
        _, ir_res = private_forward(model, private.params, private.buffers, x[None], DCFG)
        cases = [(stream, sigma) for sigma in (0.0, 3.294)
                 for stream in (0, VAL_STREAM_BASE + 7, 2**64 - 1)]
        for n, (stream, sigma) in enumerate(cases[::2] + cases[1::2] + cases[::-1]):
            bits, _ = private.inference_parts(x, stream, sigma)
            want = quantize(perturb(ir_res[0], sigma, private.cfg.seed, stream))
            assert bits.tobytes() == want.tobytes(), (stream, sigma)
            if n == 4:
                merged = ({**private.params, **public.params},
                          {**private.buffers, **public.buffers})
                evaluate(model, *merged, data.val_x[:4], data.val_y[:4], DCFG, private.cfg, 3.294)

    def test_requests_build_no_generator(self, trained, monkeypatch):
        data, model, private, public, _ = trained
        built = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(1) or philox(*a, **k))
        run_split_inference(private, public, data.val_x[:4], sigma=3.294)
        assert built == []
        PrivateEndpoint(model, private.params, private.buffers, DCFG, private.cfg, private.wire)
        assert built == [1]

    def test_only_the_private_endpoint_holds_a_generator(self, trained):
        _, _, private, public, _ = trained
        assert any(isinstance(v, np.random.Generator) for v in vars(private).values())
        assert not any(isinstance(v, np.random.Generator) for v in vars(public).values())

    def test_batched_main_accuracy_matches_per_sample(self, trained):
        # the batched main-head score equals scoring each request's z_main
        data, model, private, _, _ = trained
        per_sample = np.mean([
            np.argmax(private.inference_parts(x, VAL_STREAM_BASE + i, 0.0)[1]) == y
            for i, (x, y) in enumerate(zip(data.val_x, data.val_y))
        ])
        batched = evaluate_main(model, private.params, private.buffers,
                                data.val_x, data.val_y, DCFG, private.cfg)
        assert batched == per_sample

    def test_alpha_zero_prediction_is_main_only(self):
        spec = dataclasses.replace(default_spec(r=DCFG.r), alpha=0.0)
        model = Model(spec)
        params, buffers = model.init(0)
        cfg = TrainConfig(ep1=0, ep2=0, epsilon=float("inf"), seed=0)
        wire = Wire()
        (pp, pb), (qp, qb) = split_params(params, buffers)
        private = PrivateEndpoint(model, pp, pb, DCFG, cfg, wire)
        public = PublicEndpoint(model, qp, qb)

        data = synthetic_dataset(n=16, seed=3)
        preds = run_split_inference(private, public, data.val_x)
        for i, x in enumerate(data.val_x):
            _, z_main = private.inference_parts(x, VAL_STREAM_BASE + i, 0.0)
            assert preds[i] == int(np.argmax(z_main))
        kinds = [e.kind for e in wire.transcript.entries]
        assert kinds.count("logits") == len(data.val_x)


def traced_peak(fn):
    """Peak bytes tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_split_training_peak_grows_by_bits_not_floats(self):
        # a sample's float residual is 2048 doubles (16 KB); only its bits,
        # its ir_main row and its transcript rows may stay for the run
        def peak(n):
            data, model, params, buffers, cfg = tiny_setup(n=n, ep1=0, ep2=1, epsilon=0.5)
            run_split_training(model, params, buffers, data, DCFG, cfg)  # fills shape caches
            return len(data.train_x), traced_peak(
                lambda: run_split_training(model, params, buffers, data, DCFG, cfg)
            )

        (n_small, small), (n_large, large) = peak(80), peak(400)
        assert (n_small, n_large) == (64, 320)
        per_sample = (large - small) / (n_large - n_small)
        assert per_sample < 8 * 1024, per_sample

    def test_public_store_keeps_bits_packed(self):
        # a sample's 2048 released bits rest as their 256-byte packed row:
        # the store, dropped once the run is over, frees at most 300 B per
        # sample
        data, model, params, buffers, cfg = tiny_setup(n=400, ep1=0, ep2=1, epsilon=0.5)
        tracemalloc.start()
        try:
            _, _, _, public = run_split_training(model, params, buffers, data, DCFG, cfg)
            n = len(public.store)
            held = tracemalloc.get_traced_memory()[0]
            public.store = None
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert n == len(data.train_x) == 320
        assert 256 <= freed / n <= 300, freed / n

    def test_transcript_costs_tens_of_bytes_per_request(self):
        t = Transcript()
        requests = 20_000

        def record():
            for _ in range(requests):
                t.record("private->public", "residual-bits", 278, "inference", 2048)
                t.record("public->private", "logits", 54, "inference", 4)

        assert traced_peak(record) <= 48 * requests
        assert len(t.entries) == 2 * requests
