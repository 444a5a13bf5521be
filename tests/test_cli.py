"""Config resolution, checkpoint container, and the command surface."""

import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymsplit import cli
from asymsplit.cli import (
    UsageError,
    build_parser,
    format_config,
    load_checkpoint,
    main,
    parse_config_file,
    resolve_config,
    save_checkpoint,
)
from asymsplit.datasets import class_means, synthetic_dataset
from asymsplit.decompose import spectrum
from asymsplit.privacy import calibrate
from asymsplit.protocol import PublicEndpoint, SocketChannel


def resolve(argv):
    return resolve_config(build_parser().parse_args(argv))


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve(["train"])
        assert cfg["data.kind"] == "synthetic"
        assert cfg["train.ep1"] == 15
        assert cfg["train.sigma"] is None
        assert cfg["train.epsilon"] == float("inf")
        assert cfg["out"] == "run"

    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.ep1 = 3\n\n# comment\ndata.noise = 0.1\n")
        cfg = resolve(["train", "--config", str(path)])
        assert cfg["train.ep1"] == 3
        assert cfg["data.noise"] == 0.1

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.ep1 = 3\n")
        cfg = resolve(["train", "--config", str(path), "--train.ep1", "7"])
        assert cfg["train.ep1"] == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.booster = 9\n")
        with pytest.raises(UsageError, match="unknown config key"):
            parse_config_file(str(path))

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.ep1\n")
        with pytest.raises(UsageError, match="key = value"):
            parse_config_file(str(path))

    def test_bad_value_type(self):
        with pytest.raises(UsageError, match="train.ep1"):
            resolve(["train", "--train.ep1", "three"])

    def test_bad_boolean(self):
        with pytest.raises(UsageError, match="boolean"):
            resolve(["train", "--train.quantize", "maybe"])

    def test_sigma_none_spelled_out(self):
        assert resolve(["train", "--train.sigma", "none"])["train.sigma"] is None
        assert resolve(["train", "--train.sigma", "2.5"])["train.sigma"] == 2.5

    def test_data_kind_validated(self):
        with pytest.raises(UsageError, match="data.kind"):
            resolve(["train", "--data.kind", "cifar"])

    def test_protocol_mode_validated(self):
        with pytest.raises(UsageError, match="protocol.mode"):
            resolve(["train", "--protocol.mode", "carrier-pigeon"])

    def test_idx_requires_existing_paths(self, tmp_path):
        with pytest.raises(UsageError, match="requires data.images"):
            resolve(["train", "--data.kind", "idx"])
        missing = tmp_path / "nope.idx"
        with pytest.raises(UsageError, match="does not exist"):
            resolve(["train", "--data.kind", "idx",
                     "--data.images", str(missing), "--data.labels", str(missing)])

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(UsageError, match="config file not found"):
            resolve(["train", "--config", str(tmp_path / "ghost.cfg")])

    def test_format_round_trips(self, tmp_path):
        cfg = resolve(["train", "--train.epsilon", "0.5", "--train.quantize", "false"])
        text = format_config(cfg)
        assert text.splitlines()[0].startswith("#")
        path = tmp_path / "echo.cfg"
        path.write_text(text)
        again = resolve(["train", "--config", str(path)])
        assert again == cfg


def checkpoint_bytes(tensors, meta_blob: bytes) -> bytes:
    """A container built by hand: (section, key, array) entries, then metadata."""
    raw = bytearray(b"DLTP\x01" + struct.pack("<I", len(tensors) + 1))
    for section, key, arr in tensors:
        raw += bytes([section]) + struct.pack("<H", len(key)) + key
        raw += bytes([arr.ndim]) + struct.pack(f"<{arr.ndim}I", *arr.shape)
        raw += arr.astype("<f8").tobytes()
    raw += bytes([2]) + struct.pack("<H", 4) + b"meta"
    raw += struct.pack("<BI", 1, len(meta_blob)) + meta_blob
    return bytes(raw)


# one parameter a/w and one buffer a/m; the first entry's section byte is at offset 9
SMALL_CHECKPOINT = checkpoint_bytes(
    ((0, b"a/w", np.arange(6.0).reshape(2, 3)), (1, b"a/m", np.ones(2))), b'{"seed": 1}'
)
BAD_SECTION = SMALL_CHECKPOINT[:9] + bytes([7]) + SMALL_CHECKPOINT[10:]
DEEP_META = checkpoint_bytes((), b"[" * 100_000)


class TestCheckpointFile:
    def sample_state(self):
        rng = np.random.default_rng(0)
        params = {"main/w": rng.normal(size=(4, 3, 3)), "main/b": rng.normal(size=4)}
        buffers = {"main/norm/mean": rng.normal(size=4)}
        meta = {"seed": 3, "sigma": 1.25, "nested": {"list": [1, 2]}}
        return params, buffers, meta

    def test_roundtrip_bitwise(self, tmp_path):
        params, buffers, meta = self.sample_state()
        path = tmp_path / "m.dltp"
        save_checkpoint(path, params, buffers, meta)
        p2, b2, m2 = load_checkpoint(path)
        assert m2 == meta
        assert p2.keys() == params.keys() and b2.keys() == buffers.keys()
        for key in params:
            assert p2[key].tobytes() == params[key].tobytes()
        for key in buffers:
            assert b2[key].tobytes() == buffers[key].tobytes()

    def test_save_is_deterministic(self, tmp_path):
        params, buffers, meta = self.sample_state()
        save_checkpoint(tmp_path / "a.dltp", params, buffers, meta)
        save_checkpoint(tmp_path / "b.dltp", params, buffers, meta)
        assert (tmp_path / "a.dltp").read_bytes() == (tmp_path / "b.dltp").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.dltp"
        path.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic.*offset 0"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        params, buffers, meta = self.sample_state()
        path = tmp_path / "m.dltp"
        save_checkpoint(path, params, buffers, meta)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version 9 at offset 4"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        params, buffers, meta = self.sample_state()
        path = tmp_path / "m.dltp"
        save_checkpoint(path, params, buffers, meta)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(ValueError, match="offset"):
            load_checkpoint(path)

    @pytest.mark.parametrize("size", [4, 5, 8])
    def test_truncated_header_detected(self, tmp_path, size):
        params, buffers, meta = self.sample_state()
        path = tmp_path / "m.dltp"
        save_checkpoint(path, params, buffers, meta)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match=f"header truncated at offset {size}"):
            load_checkpoint(path)

    def test_trailing_bytes_detected(self, tmp_path):
        params, buffers, meta = self.sample_state()
        path = tmp_path / "m.dltp"
        save_checkpoint(path, params, buffers, meta)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "m.dltp"
        path.write_bytes(SMALL_CHECKPOINT)
        assert "a/w" in load_checkpoint(path)[0]
        path.write_bytes(BAD_SECTION)
        with pytest.raises(ValueError, match="unknown checkpoint section 7 at offset 9"):
            load_checkpoint(path)

    def test_deeply_nested_metadata_rejected(self, tmp_path):
        path = tmp_path / "m.dltp"
        path.write_bytes(DEEP_META)
        with pytest.raises(ValueError, match="nested too deeply"):
            load_checkpoint(path)


def _flip(raw: bytes, edits) -> bytes:
    out = bytearray(raw)
    for position, value in edits:
        out[position % len(out)] = value
    return bytes(out)


# arbitrary bytes, and a valid container with bytes overwritten or cut off
CHECKPOINT_BYTES = (
    st.binary(max_size=128)
    | st.builds(bytes.__add__, st.just(b"DLTP\x01"), st.binary(max_size=128))
    | st.builds(_flip, st.just(SMALL_CHECKPOINT),
                st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=4))
    | st.builds(lambda raw, cut: raw[:cut], st.just(SMALL_CHECKPOINT), st.integers(0, 200))
)


class TestCheckpointProperties:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(CHECKPOINT_BYTES)
    @example(BAD_SECTION)
    @example(DEEP_META)
    def test_bytes_load_or_raise_value_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("ckpt") / "m.dltp"
        path.write_bytes(raw)
        try:
            params, buffers, meta = load_checkpoint(path)
        except ValueError:
            return
        assert all(isinstance(v, np.ndarray) for v in (*params.values(), *buffers.values()))


class TestAccountCmd:
    def test_prints_accountant_json(self, capsys):
        rc = main(["account", "--epsilon", "1", "--delta", "1e-6", "--p", "1", "--C", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        oracle = calibrate(1.0, 1e-6, 1.0, 1.0)
        assert payload["sigma"] == oracle.sigma
        assert payload["eps_prime"] == oracle.eps_prime
        assert payload["delta_prime"] == oracle.delta_prime

    def test_subsampled(self, capsys):
        rc = main(["account", "--epsilon", "0.5", "--delta", "1e-6", "--p", "0.08"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma"] == calibrate(0.5, 1e-6, 0.08, 1.0).sigma


class TestSpectrumCmd:
    def test_writes_monotone_csv(self, tmp_path, capsys):
        out = tmp_path / "runS"
        rc = main(["spectrum", "--data.n", "48", "--spectrum.samples", "8",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "kind,param,rel_error"
        curves = {"svd": [], "dct": []}
        for line in lines[1:]:
            kind, param, err = line.split(",")
            curves[kind].append((int(param), float(err)))
        for kind, rows in curves.items():
            assert rows == sorted(rows), kind
            errs = [err for _, err in rows]
            assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:])), kind

    @pytest.mark.parametrize("samples", ["-3", "0"])
    def test_nonpositive_samples_refused(self, tmp_path, capsys, samples):
        # a negative count once sliced samples off the end, and 0 wrote a
        # header-only CSV; both exited 0
        out = tmp_path / "runS"
        rc = main(["spectrum", "--data.n", "40", "--spectrum.samples", samples,
                   "--out", str(out)])
        assert rc == 1
        assert "spectrum.samples must be >= 1" in capsys.readouterr().err
        assert not (out / "spectrum.csv").exists()

    def test_one_sample(self, tmp_path, capsys):
        out = tmp_path / "runS"
        rc = main(["spectrum", "--data.n", "40", "--spectrum.samples", "1",
                   "--out", str(out)])
        assert rc == 0
        assert "spectrum over 1 samples" in capsys.readouterr().out
        lines = (out / "spectrum.csv").read_text().splitlines()
        # three channels and t = 8 by default
        assert len(lines) == 1 + 3 + 8

    @pytest.mark.parametrize("side, n", [(16, None), (64, 300)])
    def test_draws_only_the_samples_it_reads(self, tmp_path, monkeypatch, side, n):
        # the CSV is byte for byte the one from the whole data set's first
        # samples, and no image past them is generated
        flags = ["--data.side", str(side)] + (["--data.n", str(n)] if n else [])
        whole = tmp_path / "whole"
        with monkeypatch.context() as m:
            m.setattr(cli, "first_train_images",
                      lambda cfg, k: cli.build_dataset(cfg).train_x[:k])
            assert main(["spectrum", *flags, "--out", str(whole)]) == 0
        counts = []
        real = cli.synthetic_images

        def spy(**kwargs):
            counts.append(kwargs["count"])
            return real(**kwargs)

        def refuse(**kwargs):
            raise AssertionError("spectrum built the whole data set")

        monkeypatch.setattr(cli, "synthetic_images", spy)
        monkeypatch.setattr(cli, "synthetic_dataset", refuse)
        head = tmp_path / "head"
        assert main(["spectrum", *flags, "--out", str(head)]) == 0
        assert counts == [32]
        assert (head / "spectrum.csv").read_bytes() == (whole / "spectrum.csv").read_bytes()

    def test_samples_capped_at_the_training_split(self, tmp_path, capsys):
        out = tmp_path / "runS"
        rc = main(["spectrum", "--data.n", "40", "--spectrum.samples", "100",
                   "--out", str(out)])
        assert rc == 0
        assert "spectrum over 32 samples" in capsys.readouterr().out

    def test_class_means_are_low_rank_by_construction(self):
        data = synthetic_dataset(n=400, rank=3, seed=5)
        for mean in class_means(data):
            rows = spectrum(mean, 8, r_values=[3], tprime_values=[1])
            kind, r, err = rows[0]
            assert kind == "svd" and r == 3
            assert err < 1e-12


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run0"
    argv = ["train", "--data.n", "64", "--train.ep1", "1", "--train.ep2", "1",
            "--train.batch_size", "16", "--out", str(out)]
    assert main(argv) == 0
    return out, argv


class TestTrainCmd:
    def test_artifacts_exist(self, tiny_run):
        out, _ = tiny_run
        for name in ("config.txt", "report.json", "transcript.csv"):
            assert (out / name).is_file()
        assert (out / "ckpt" / "private.dltp").is_file()
        assert (out / "ckpt" / "public.dltp").is_file()

    def test_report_consistent_with_transcript(self, tiny_run):
        out, _ = tiny_run
        payload = json.loads((out / "report.json").read_text())
        assert payload["audit_passed"] is True
        assert payload["compression_ratio"] == 32.0
        assert payload["epsilon"] == "inf"

        totals = {"stage1": 0, "cache-build": 0, "stage2": 0, "inference": 0}
        lines = (out / "transcript.csv").read_text().splitlines()
        assert lines[0] == "index,direction,kind,bytes,phase"
        for line in lines[1:]:
            _, _, _, nbytes, phase = line.split(",")
            totals[phase] += int(nbytes)
        assert payload["bytes_by_phase"] == totals
        assert totals["stage1"] == 0
        assert totals["cache-build"] > 0 and totals["inference"] > 0

    def test_repeat_run_is_byte_identical(self, tiny_run, tmp_path):
        out, argv = tiny_run
        out2 = tmp_path / "run1"
        argv2 = argv[:-1] + [str(out2)]
        assert main(argv2) == 0
        for name in ("report.json", "transcript.csv"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("private.dltp", "public.dltp"):
            assert (out / "ckpt" / name).read_bytes() == (out2 / "ckpt" / name).read_bytes()
        # config.txt may differ only in the dated header and the out path
        a, b = (
            [line for line in p.joinpath("config.txt").read_text().splitlines()
             if not line.startswith(("#", "out ="))]
            for p in (out, out2)
        )
        assert a == b

    def test_socket_mode_matches_memory(self, tiny_run, tmp_path):
        out, argv = tiny_run
        out2 = tmp_path / "runS"
        argv2 = argv[:-1] + [str(out2), "--protocol.mode", "socket"]
        assert main(argv2) == 0
        assert (out / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out / "transcript.csv").read_bytes() == (out2 / "transcript.csv").read_bytes()

    def test_socket_channel_closed_once(self, tmp_path, monkeypatch, capsys):
        closed = []
        close = SocketChannel.close
        monkeypatch.setattr(SocketChannel, "close", lambda ch: closed.append(ch) or close(ch))
        argv = ["train", "--data.n", "48", "--train.ep1", "1", "--train.ep2", "1",
                "--train.batch_size", "16", "--protocol.mode", "socket"]
        assert main(argv + ["--out", str(tmp_path / "ok")]) == 0
        assert len(closed) == 1
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv + ["--train.lr", "inf", "--out", str(tmp_path / "bad")]) == 4
        assert len(closed) == 2 and closed[0] is not closed[1]

    def test_stage1_only_run_has_silent_wire(self, tmp_path, capsys):
        out = tmp_path / "runZ"
        rc = main(["train", "--data.n", "48", "--train.ep1", "1", "--train.ep2", "0",
                   "--train.batch_size", "16", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        assert set(payload["bytes_by_phase"].values()) == {0}
        assert payload["val_merged_accuracy"] is None
        assert (out / "transcript.csv").read_text() == "index,direction,kind,bytes,phase\n"

    def test_divergence_exit_code(self, tmp_path, capsys):
        # inf and 1e300 once failed in the next decomposition's eigh (exit 2)
        for lr in ("10000", "inf", "1e300"):
            with np.errstate(over="ignore", invalid="ignore"):
                rc = main(["train", "--data.n", "48", "--train.ep1", "1", "--train.ep2", "1",
                           "--train.batch_size", "16", "--train.lr", lr,
                           "--out", str(tmp_path / "runD")])
            assert rc == 4, lr

    @pytest.mark.parametrize("classes", [2, 6])
    def test_head_has_the_data_class_count(self, tmp_path, capsys, classes):
        out = tmp_path / "runK"
        assert main(["train", "--data.n", "96", "--data.classes", str(classes),
                     "--train.ep1", "1", "--train.ep2", "1", "--train.batch_size", "16",
                     "--out", str(out)]) == 0
        _, _, meta = load_checkpoint(out / "ckpt" / "private.dltp")
        assert meta["spec"]["num_classes"] == classes
        data = synthetic_dataset(n=96, num_classes=classes, seed=0)
        images = tmp_path / "val.npy"
        np.save(images, data.val_x)
        capsys.readouterr()
        assert main(["infer", "--ckpt", str(out / "ckpt"), "--images", str(images)]) == 0
        preds = np.array([int(line) for line in capsys.readouterr().out.split()])
        payload = json.loads((out / "report.json").read_text())
        assert float(np.mean(preds == data.val_y)) == payload["val_merged_accuracy"]

    def test_unquantized_exit_code(self, tmp_path):
        rc = main(["train", "--data.n", "48", "--train.quantize", "false",
                   "--out", str(tmp_path / "runQ")])
        assert rc == 3

    def test_unknown_flag_exit_code(self, capsys):
        assert main(["train", "--no-such-flag", "1"]) == 1

    def test_usage_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("galaxy.brain = on\n")
        assert main(["train", "--config", str(bad)]) == 1


class TestInferCmd:
    def test_roundtrip_accuracy_matches_report(self, tiny_run, tmp_path, capsys):
        out, _ = tiny_run
        data = synthetic_dataset(n=64, seed=0)
        images = tmp_path / "val.npy"
        np.save(images, data.val_x)
        rc = main(["infer", "--ckpt", str(out / "ckpt"), "--images", str(images)])
        assert rc == 0
        preds = np.array([int(line) for line in capsys.readouterr().out.split()])
        assert len(preds) == len(data.val_x)
        payload = json.loads((out / "report.json").read_text())
        assert float(np.mean(preds == data.val_y)) == payload["val_merged_accuracy"]

    def test_repeat_inference_is_identical(self, tiny_run, tmp_path, capsys):
        out, _ = tiny_run
        data = synthetic_dataset(n=64, seed=0)
        images = tmp_path / "some.npy"
        np.save(images, data.val_x[:4])
        assert main(["infer", "--ckpt", str(out / "ckpt"), "--images", str(images)]) == 0
        first = capsys.readouterr().out
        assert main(["infer", "--ckpt", str(out / "ckpt"), "--images", str(images)]) == 0
        assert capsys.readouterr().out == first

    def test_channel_mismatch_is_data_error(self, tiny_run, tmp_path, capsys):
        out, _ = tiny_run
        images = tmp_path / "gray.npy"
        np.save(images, np.zeros((2, 1, 16, 16)))
        assert main(["infer", "--ckpt", str(out / "ckpt"), "--images", str(images)]) == 2

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_public_logits_exit_3(self, tiny_run, tmp_path, capsys, monkeypatch,
                                             value):
        out, _ = tiny_run
        images = tmp_path / "some.npy"
        np.save(images, synthetic_dataset(n=64, seed=0).val_x[:5])
        real = PublicEndpoint.res_logits

        def poisoned(self, bits):
            z = real(self, bits)
            z[0, 1] = value
            return z

        monkeypatch.setattr(PublicEndpoint, "res_logits", poisoned)
        assert main(["infer", "--ckpt", str(out / "ckpt"), "--images", str(images)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite logits" in captured.err

    @pytest.mark.parametrize("size", [4, 5, 8])
    def test_truncated_checkpoint_header_is_data_error(self, tmp_path, capsys, size):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        for name in ("private.dltp", "public.dltp"):
            (ckpt / name).write_bytes(b"DLTP\x01\x00\x00\x00"[:size])
        images = tmp_path / "x.npy"
        np.save(images, np.zeros((1, 3, 16, 16)))
        assert main(["infer", "--ckpt", str(ckpt), "--images", str(images)]) == 2
        assert "header truncated" in capsys.readouterr().err

    def test_unknown_checkpoint_section_is_data_error(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        for name in ("private.dltp", "public.dltp"):
            (ckpt / name).write_bytes(BAD_SECTION)
        images = tmp_path / "x.npy"
        np.save(images, np.zeros((1, 3, 16, 16)))
        assert main(["infer", "--ckpt", str(ckpt), "--images", str(images)]) == 2
        assert "unknown checkpoint section 7" in capsys.readouterr().err

    def infer_with_meta(self, tiny_run, tmp_path, edit, tensors=None):
        """Exit code of ``infer`` on the trained checkpoints with their
        metadata (and optionally the private parameters) rewritten."""
        out, _ = tiny_run
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        for name in ("private.dltp", "public.dltp"):
            params, buffers, meta = load_checkpoint(out / "ckpt" / name)
            if tensors is not None and name == "private.dltp":
                tensors(params)
            save_checkpoint(ckpt / name, params, buffers, edit(meta))
        images = tmp_path / "x.npy"
        np.save(images, np.zeros((1, 3, 16, 16)))
        return main(["infer", "--ckpt", str(ckpt), "--images", str(images)])

    def test_seed_only_metadata_is_data_error(self, tiny_run, tmp_path, capsys):
        assert self.infer_with_meta(tiny_run, tmp_path, lambda meta: {"seed": 1}) == 2
        assert "no 'spec' field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field", ["spec", "decompose", "seed", "quantize", "perturb_inference", "sigma"]
    )
    def test_missing_metadata_field_is_data_error(self, tiny_run, tmp_path, capsys, field):
        def drop(meta):
            del meta[field]
            return meta

        assert self.infer_with_meta(tiny_run, tmp_path, drop) == 2
        assert f"no {field!r} field" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("spec", [1, 2]), ("decompose", "r=4"), ("seed", 1.5), ("seed", True),
        ("quantize", 1), ("perturb_inference", "yes"), ("sigma", "0.5"), ("sigma", -1.0),
        ("spec", {"in_channels": 3}), ("decompose", {"r": 4}),
        ("decompose", {"r": 4, "t": 8.0, "t_prime": 2}),
        ("sigma", float("nan")), ("sigma", float("inf")), ("unknown", 1),
    ])
    def test_bad_metadata_field_is_data_error(self, tiny_run, tmp_path, capsys, field, value):
        assert self.infer_with_meta(tiny_run, tmp_path, lambda meta: {**meta, field: value}) == 2
        assert repr(field) in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("num_classes", "4"), ("alpha", "one"), ("normalize", 1), ("bb_k", 0),
        ("res_blocks", [{"n": 24, "k": 3, "stride": 0}, {"n": 48, "k": 3, "stride": 2}]),
        ("bb_channels", True), ("depth", 3), ("alpha", float("inf")),
        ("main_blocks", [{"n": 12, "k": 3, "stride": 2, "q": True},
                         {"n": 24, "k": 3, "stride": 2, "q": 16}]),
        ("res_blocks", [{"n": 24, "k": 3, "stride": 2}, {"n": 48, "k": 3, "stride": 2}]),
        ("res_blocks", {"n": 24}), ("num_classes", 1),
    ])
    def test_bad_spec_value_is_data_error(self, tiny_run, tmp_path, capsys, key, value):
        def edit(meta):
            meta["spec"][key] = value
            return meta

        assert self.infer_with_meta(tiny_run, tmp_path, edit) == 2
        assert "'spec'" in capsys.readouterr().err

    def test_spec_refusal_names_the_nested_field(self, tiny_run, tmp_path, capsys):
        def edit(meta):
            meta["spec"]["res_blocks"][1]["stride"] = False
            return meta

        assert self.infer_with_meta(tiny_run, tmp_path, edit) == 2
        assert "field 'spec'['res_blocks'][1]['stride'] is a bool" in capsys.readouterr().err

    def test_metadata_not_an_object_is_data_error(self, tiny_run, tmp_path, capsys):
        assert self.infer_with_meta(tiny_run, tmp_path, lambda meta: [meta]) == 2
        assert "not an object" in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["drop", "extra", "reshape"])
    def test_parameters_unlike_spec_are_data_error(self, tiny_run, tmp_path, capsys, change):
        def tensors(params):
            if change == "drop":
                del params["main/fc/b"]
            elif change == "extra":
                params["main/fc/extra"] = np.zeros(2)
            else:
                params["main/fc/b"] = np.zeros(5)

        assert self.infer_with_meta(tiny_run, tmp_path, lambda m: m, tensors) == 2
        assert "private parameter 'main/fc/" in capsys.readouterr().err

    def test_wider_spec_than_parameters_is_data_error(self, tiny_run, tmp_path, capsys):
        # the second width is one no allocation could satisfy: the shape
        # check reads the declared shapes and allocates nothing
        def widen_backbone(meta):
            meta["spec"]["bb_channels"] = 16
            return meta

        def forge_res_width(meta):
            meta["spec"]["res_blocks"][1]["n"] = 2**31
            return meta

        for edit in (widen_backbone, forge_res_width):
            case = tmp_path / edit.__name__
            case.mkdir()
            assert self.infer_with_meta(tiny_run, case, edit) == 2, edit.__name__
            assert "the model its spec builds" in capsys.readouterr().err, edit.__name__

    def infer_with_tensors(self, tiny_run, tmp_path, name, edit):
        """Exit code of ``infer`` on the trained checkpoints with the
        (params, buffers) of checkpoint ``name`` rewritten by ``edit``."""
        out, _ = tiny_run
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        for file in ("private.dltp", "public.dltp"):
            params, buffers, meta = load_checkpoint(out / "ckpt" / file)
            if file == name:
                edit(params, buffers)
            save_checkpoint(ckpt / file, params, buffers, meta)
        images = tmp_path / "x.npy"
        np.save(images, np.zeros((1, 3, 16, 16)))
        return main(["infer", "--ckpt", str(ckpt), "--images", str(images)])

    @pytest.mark.parametrize("name,section,key,value", [
        ("public.dltp", "params", "res/b0/conv1/w", np.nan),
        ("public.dltp", "params", "res/fc/b", -np.inf),
        ("private.dltp", "params", "main/b1/conv2/w2", np.inf),
        ("private.dltp", "buffers", "main/b0/norm1/running_mean", np.nan),
        ("public.dltp", "buffers", "res/b1/proj_norm/running_var", np.inf),
    ])
    def test_non_finite_tensor_is_data_error(self, tiny_run, tmp_path, capsys,
                                             name, section, key, value):
        def edit(params, buffers):
            tensors = params if section == "params" else buffers
            tensors[key] = np.full_like(tensors[key], value)

        assert self.infer_with_tensors(tiny_run, tmp_path, name, edit) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err and f"{key!r} has a non-finite entry" in captured.err

    @pytest.mark.parametrize("name", ["private.dltp", "public.dltp"])
    def test_negative_running_variance_is_data_error(self, tiny_run, tmp_path, capsys, name):
        def edit(params, buffers):
            for key in buffers:
                if key.endswith("/running_var"):
                    buffers[key] = -np.ones_like(buffers[key])

        assert self.infer_with_tensors(tiny_run, tmp_path, name, edit) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err and "/running_var' has a negative entry" in captured.err

    def test_zero_running_variance_is_accepted(self, tiny_run, tmp_path, capsys):
        def edit(params, buffers):
            buffers["main/b0/norm2/running_var"] = np.zeros(12)

        assert self.infer_with_tensors(tiny_run, tmp_path, "private.dltp", edit) == 0
        assert len(capsys.readouterr().out.split()) == 1

    @pytest.mark.parametrize("images", [
        np.zeros((1, 3, 16, 16), dtype=np.complex128),
        np.zeros((1, 3, 16, 16), dtype=[("x", "f8")]),
        np.full((1, 3, 16, 16), "0"),
        np.full((2, 3, 16, 16), np.nan),
        np.where(np.arange(768).reshape(1, 3, 16, 16) == 100, np.inf, 0.5),
        np.full((3, 16, 16), -np.inf, dtype=np.float16),
        pytest.param(np.full((1, 3, 16, 16), np.finfo(np.longdouble).max),
                     marks=pytest.mark.skipif(np.finfo(np.longdouble).max == np.finfo(float).max,
                                              reason="long double is double here")),
    ], ids=["complex", "structured", "str", "nan", "one-inf", "f16-inf", "longdouble-max"])
    def test_images_not_finite_reals_are_data_error(self, tiny_run, tmp_path, capsys, images):
        out, _ = tiny_run
        path = tmp_path / "x.npy"
        np.save(path, images)
        assert main(["infer", "--ckpt", str(out / "ckpt"), "--images", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int32, np.float32, np.float64])
    def test_real_image_dtypes_are_accepted(self, tiny_run, tmp_path, capsys, dtype):
        out, _ = tiny_run
        path = tmp_path / "x.npy"
        np.save(path, np.ones((2, 3, 16, 16), dtype=dtype))
        assert main(["infer", "--ckpt", str(out / "ckpt"), "--images", str(path)]) == 0
        assert len(capsys.readouterr().out.split()) == 2

    def test_missing_checkpoint_is_usage_error(self, tmp_path, capsys):
        images = tmp_path / "x.npy"
        np.save(images, np.zeros((1, 3, 16, 16)))
        assert main(["infer", "--ckpt", str(tmp_path / "ghost"),
                     "--images", str(images)]) == 1


class TestReportCmd:
    def test_rows_sorted_by_epsilon(self, tiny_run, tmp_path, capsys):
        out, argv = tiny_run
        out2 = tmp_path / "runEps"
        argv2 = argv[:-1] + [str(out2), "--train.epsilon", "0.5",
                             "--data.seed", "1", "--train.seed", "1"]
        assert main(argv2) == 0
        capsys.readouterr()
        assert main(["report", str(out), str(out2)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["epsilon", "main", "merged", "run"]
        assert lines[1].split()[0] == "0.5"
        assert lines[2].split()[0] == "inf"

    def test_missing_report_is_usage_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "void")]) == 1

    GOOD = {"epsilon": 0.5, "val_main_accuracy": 0.75, "val_merged_accuracy": None}

    def write_report(self, path, payload):
        path.mkdir()
        path.joinpath("report.json").write_text(json.dumps(payload))
        return str(path)

    def test_well_formed_reports_tabulate(self, tmp_path, capsys):
        runs = [self.write_report(tmp_path / "a", {**self.GOOD, "epsilon": "inf"}),
                self.write_report(tmp_path / "b", {**self.GOOD, "val_merged_accuracy": 1})]
        assert main(["report", *runs]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:3] for line in lines[1:]] == [
            ["0.5", "0.7500", "1.0000"], ["inf", "0.7500", "-"],
        ]

    @pytest.mark.parametrize("payload, field", [
        ([GOOD], "JSON object"),
        ({k: v for k, v in GOOD.items() if k != "val_main_accuracy"}, "val_main_accuracy"),
        ({k: v for k, v in GOOD.items() if k != "val_merged_accuracy"}, "val_merged_accuracy"),
        ({**GOOD, "val_main_accuracy": "0.75"}, "val_main_accuracy"),
        ({**GOOD, "val_main_accuracy": None}, "val_main_accuracy"),
        ({**GOOD, "val_main_accuracy": True}, "val_main_accuracy"),
        ({**GOOD, "val_merged_accuracy": "high"}, "val_merged_accuracy"),
        ({**GOOD, "epsilon": "0.5"}, "epsilon"),
        ({**GOOD, "epsilon": None}, "epsilon"),
    ], ids=["list", "no-main", "no-merged", "main-str", "main-null", "main-bool",
            "merged-str", "epsilon-str", "epsilon-null"])
    def test_malformed_report_is_data_error(self, tmp_path, capsys, payload, field):
        good = self.write_report(tmp_path / "good", self.GOOD)
        bad = self.write_report(tmp_path / "bad", payload)
        # the bad file comes last, so a row printed before the check shows
        assert main(["report", good, bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(tmp_path / "bad" / "report.json") in captured.err
        assert field in captured.err

    def test_report_not_json_is_data_error(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        run.joinpath("report.json").write_text("{")
        assert main(["report", str(run)]) == 2
        assert str(run / "report.json") in capsys.readouterr().err


class TestIdxIngestion:
    def make_idx(self, tmp_path, n=8, side=16):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
        labels = (np.arange(n) % 2).astype(np.uint8)
        images = tmp_path / "imgs.idx"
        labels_path = tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, n, side, side) + pixels.tobytes())
        labels_path.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
        return images, labels_path

    def test_train_on_idx_files(self, tmp_path, capsys):
        images, labels = self.make_idx(tmp_path)
        out = tmp_path / "runI"
        rc = main(["train", "--data.kind", "idx",
                   "--data.images", str(images), "--data.labels", str(labels),
                   "--train.ep1", "1", "--train.ep2", "0",
                   "--train.batch_size", "4", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        assert 0.0 <= payload["val_main_accuracy"] <= 1.0

    def test_garbled_idx_is_data_error(self, tmp_path, capsys):
        images, labels = self.make_idx(tmp_path)
        images.write_bytes(b"\x00\x00\x0b\x01" + images.read_bytes()[4:])
        rc = main(["train", "--data.kind", "idx",
                   "--data.images", str(images), "--data.labels", str(labels),
                   "--out", str(tmp_path / "runX")])
        assert rc == 2
