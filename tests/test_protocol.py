"""Wire format, transcript audit, and split-driver equivalence."""

import dataclasses
import socket
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_driver import train_in_process

from asymsplit import protocol
from asymsplit.datasets import synthetic_dataset
from asymsplit.decompose import DecompositionConfig, decompose_main_batch
from asymsplit.model import Model, default_spec, forward_full, softmax
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
from asymsplit.training import VAL_STREAM_BASE, TrainConfig, batch_schedule, evaluate_main

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

    @pytest.mark.parametrize("kind", [FrameKind.LOGITS, FrameKind.GRADIENT])
    def test_roundtrip_floats(self, kind):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(16, 4))
        back = decode_frame(encode_frame(frame_from_rows(kind, 9, rows)))
        assert back.kind == kind and back.frame_id == 9
        assert rows_from_frame(back).tobytes() == rows.tobytes()

    def test_kind_four_rejected_by_decode(self):
        raw = bytearray(encode_frame(Frame(FrameKind.LOGITS, 5, np.zeros((0, 0, 0)))))
        raw[5] = 4
        with pytest.raises(ValueError, match="unknown frame kind 4 at offset 5"):
            decode_frame(bytes(raw))

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

    def test_kind_four_rejected_by_socket(self):
        raw = bytearray(encode_frame(Frame(FrameKind.LOGITS, 0, np.zeros((0, 0, 0)))))
        raw[5] = 4
        with pytest.raises(ValueError, match="unknown frame kind 4 at offset 5"):
            socket_recv_forged(bytes(raw))

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
        header = struct.pack("<4sBBIIII", b"DLTR", 1, int(FrameKind.GRADIENT), 0,
                             2**32 - 1, 2**32 - 1, 2**32 - 1)
        with pytest.raises(ProtocolViolation, match="channel closed mid-frame"):
            socket_recv_forged(header + bytes(100))

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
    st.integers(1, 3) | st.sampled_from([0, 4, 255]),
    U32, U32, U32, U32,
)
PAYLOADS = st.binary(max_size=64)
GOOD_HEADER = struct.pack("<4sBBIIII", b"DLTR", 1, 1, 0, 1, 1, 1)
HUGE_HEADER = struct.pack("<4sBBIIII", b"DLTR", 1, 2, 0, 2**32 - 1, 2**32 - 1, 7)
FUZZ = settings(derandomize=True, database=None, max_examples=100, deadline=None)


class TestDecoderProperties:
    @FUZZ
    @given(st.binary(max_size=96) | st.builds(bytes.__add__, HEADERS, PAYLOADS))
    @example(HUGE_HEADER + bytes(8))
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
        t.record("private->public", "residual-bits", 278, "cache-build")
        t.record("public->private", "logits", 534, "stage2")
        t.record("private->public", "gradient", 534, "stage2")
        t.record("private->public", "residual-bits", 278, "inference")
        t.record("public->private", "logits", 54, "inference")
        report = audit(t)
        assert report.passed
        assert report.ratio == 32.0
        assert report.bytes_by_phase["stage1"] == 0
        assert report.bytes_by_phase["stage2"] == 1068

    def test_injected_float_frame_fails_at_its_index(self):
        t = Transcript()
        t.record("private->public", "residual-bits", 278, "cache-build")
        t.record("private->public", "gradient", 2070, "cache-build")
        t.record("private->public", "residual-bits", 278, "cache-build")
        report = audit(t)
        assert not report.passed
        assert len(report.violations) == 1
        index, reason = report.violations[0]
        assert index == 1
        assert "gradient" in reason and "cache-build" in reason

    def test_stage1_allows_nothing(self):
        t = Transcript()
        t.record("private->public", "residual-bits", 278, "stage1")
        assert not audit(t).passed

    def test_residual_bits_refused_in_stage2(self):
        t = Transcript()
        t.record("private->public", "residual-bits", 278, "stage2")
        assert not audit(t).passed

    def test_control_frames_allowed_nowhere(self):
        for phase in ("stage1", "cache-build", "stage2", "inference"):
            t = Transcript()
            t.record("private->public", "control", 22, phase)
            assert not audit(t).passed

    def test_unknown_phase_rejected_at_record(self):
        with pytest.raises(ValueError, match="unknown phase"):
            Transcript().record("private->public", "logits", 10, "stage3")

    def test_csv_layout(self):
        t = Transcript()
        t.record("private->public", "residual-bits", 278, "cache-build")
        t.record("public->private", "logits", 534, "stage2")
        assert t.to_csv() == (
            "index,direction,kind,bytes,phase\n"
            "0,private->public,residual-bits,278,cache-build\n"
            "1,public->private,logits,534,stage2\n"
        )


def tiny_setup(seed=0, n=64, ep1=1, ep2=2, epsilon=float("inf"), **cfg_kwargs):
    data = synthetic_dataset(n=n, seed=seed)
    model = Model(default_spec(r=DCFG.r))
    params, buffers = model.init(seed)
    cfg = TrainConfig(ep1=ep1, ep2=ep2, batch_size=16, epsilon=epsilon,
                      seed=seed, **cfg_kwargs)
    return data, model, params, buffers, cfg


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
        # the last sample breaks the bound C: nothing may have been sent
        # for the earlier ones by the time the driver refuses
        real = protocol.compute_residuals

        def one_too_large(*args, **kwargs):
            residuals = real(*args, **kwargs)
            residuals[max(residuals)] = 2.0 * residuals[max(residuals)]
            return residuals

        wires = []

        class RecordedWire(Wire):
            def __init__(self, channel=None):
                super().__init__(channel)
                wires.append(self)

        monkeypatch.setattr(protocol, "compute_residuals", one_too_large)
        monkeypatch.setattr(protocol, "Wire", RecordedWire)
        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=1, epsilon=0.5)
        with pytest.raises(ProtocolViolation, match="sensitivity"):
            run_split_training(model, params, buffers, data, DCFG, cfg)
        (wire,) = wires
        assert wire.phase == "cache-build"
        assert not [e for e in wire.transcript.entries if e.kind == "residual-bits"]

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

    def test_socket_mode_matches_memory_mode(self):
        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=1)
        _, _, private_a, public_a = run_split_training(
            model, params, buffers, data, DCFG, cfg
        )
        data2, model2, params2, buffers2, cfg2 = tiny_setup(n=32, ep2=1)
        _, _, private_b, public_b = run_split_training(
            model2, params2, buffers2, data2, DCFG, cfg2, channel=SocketChannel()
        )
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
        cache = [e for e in entries if e.phase == "cache-build"]
        assert len(cache) == n_train
        chw = model.spec.bb_channels * 16 * 16
        assert all(e.kind == "residual-bits" for e in cache)
        assert all(e.nbytes == HEADER_BYTES + chw // 8 for e in cache)

        stage2 = [e for e in entries if e.phase == "stage2"]
        batches_per_epoch = -(-n_train // cfg.batch_size)
        assert len(stage2) == 2 * batches_per_epoch * cfg.ep2
        # both per-batch payloads are L*b doubles, in lockstep order
        L = model.spec.num_classes
        batch_sizes = [
            len(idx)
            for epoch in range(cfg.ep2)
            for idx in batch_schedule(n_train, cfg.batch_size, cfg.seed, 2, epoch)
        ]
        for b, logits_e, grad_e in zip(batch_sizes, stage2[::2], stage2[1::2]):
            assert logits_e.kind == "logits"
            assert logits_e.direction == "public->private"
            assert logits_e.nbytes == HEADER_BYTES + 8 * L * b
            assert grad_e.kind == "gradient"
            assert grad_e.direction == "private->public"
            assert grad_e.nbytes == HEADER_BYTES + 8 * L * b

        assert report.bytes_by_phase == wire.transcript.bytes_by_phase()
        assert audit(wire.transcript).passed

    def test_public_store_holds_wire_bits(self):
        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=1)
        _, _, private, public = run_split_training(
            model, params, buffers, data, DCFG, cfg
        )
        assert set(public.store) == set(range(len(data.train_x)))
        sample = public.store[0]
        assert sample.dtype == np.uint8
        assert set(np.unique(sample)) <= {0, 1}

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
    """A public side that cuts every logits frame it sends with ``cut``."""

    def __init__(self, cut):
        super().__init__()
        self.cut = cut

    def send(self, sender, raw):
        frame = decode_frame(raw)
        if frame.kind == FrameKind.LOGITS:
            raw = encode_frame(Frame(frame.kind, frame.frame_id, self.cut(frame.data)))
        super().send(sender, raw)


class TestMisshapedFrames:
    def test_one_logit_per_request_is_a_violation(self):
        # a (1, 1, 1) logits frame would broadcast into the merge unseen
        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=0)
        wire = Wire(TamperingChannel(lambda d: d[:, :1]))
        (pp, pb), (qp, qb) = split_params(params, buffers)
        private = PrivateEndpoint(model, pp, pb, DCFG, cfg, wire)
        public = PublicEndpoint(model, qp, qb, cfg, wire)
        with pytest.raises(ProtocolViolation, match=r"shape \(1, 1, 1\), expected \(1, 4, 1\)"):
            run_split_inference(private, public, data.val_x[:2])

    def test_one_logits_row_per_stage2_batch_is_a_violation(self):
        # one row would broadcast over the batch and training would finish
        data, model, params, buffers, cfg = tiny_setup(n=32, ep2=1)
        with pytest.raises(ProtocolViolation, match=r"expected \(16, 4, 1\) in phase 'stage2'"):
            run_split_training(model, params, buffers, data, DCFG, cfg,
                               channel=TamperingChannel(lambda d: d[:1]))


def test_public_side_recovers_every_stage2_label():
    # g_res = softmax(z_res) - y, and the public side formed z_res itself:
    # from its own frames and the shared schedule it reads every label
    data, model, params, buffers, cfg = tiny_setup(n=120, ep2=1, epsilon=0.5)
    channel = RecordingChannel()
    run_split_training(model, params, buffers, data, DCFG, cfg, channel=channel)
    logits = [f.data[..., 0] for who, f in channel.sent
              if who == "public" and f.kind == FrameKind.LOGITS]
    grads = [f.data[..., 0] for who, f in channel.sent
             if who == "private" and f.kind == FrameKind.GRADIENT]
    n = len(data.train_x)
    schedule = batch_schedule(n, cfg.batch_size, cfg.seed, 2, 0)
    assert len(logits) == len(grads) == len(schedule)
    recovered = np.full(n, -1)
    for idx, z_res, g_res in zip(schedule, logits, grads):
        y = softmax(z_res) - g_res
        np.testing.assert_allclose(y, np.eye(model.spec.num_classes)[np.argmax(y, axis=1)],
                                   atol=1e-12)
        recovered[idx] = np.argmax(y, axis=1)
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
        public = PublicEndpoint(model, qp, qb, cfg, wire)

        data = synthetic_dataset(n=16, seed=3)
        preds = run_split_inference(private, public, data.val_x)
        for i, x in enumerate(data.val_x):
            _, z_main = private.inference_parts(x, VAL_STREAM_BASE + i, 0.0)
            assert preds[i] == int(np.argmax(z_main))
        kinds = [e.kind for e in wire.transcript.entries]
        assert kinds.count("logits") == len(data.val_x)
