import struct
import tracemalloc

import numpy as np
import pytest
from oracle import dct_block_forward, synthetic_images_reference

from asymsplit.datasets import (
    CHUNK,
    Dataset,
    class_means,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    synthetic_dataset,
    synthetic_images,
)


def idx_image_bytes(pixels: np.ndarray) -> bytes:
    n, rows, cols = pixels.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + pixels.astype(np.uint8).tobytes()


def idx_label_bytes(labels) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes()


class TestIdxFiles:
    def test_images_scaled_to_unit(self, tmp_path):
        pixels = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3) * 15
        path = tmp_path / "imgs.idx"
        path.write_bytes(idx_image_bytes(pixels))
        xs = load_idx_images(path)
        assert xs.shape == (2, 1, 3, 3)
        np.testing.assert_allclose(xs, pixels[:, None] / 255.0, atol=1e-15)

    def test_labels_roundtrip(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(idx_label_bytes([3, 0, 2, 1]))
        np.testing.assert_array_equal(load_idx_labels(path), [3, 0, 2, 1])

    def test_bad_image_magic(self, tmp_path):
        path = tmp_path / "imgs.idx"
        raw = idx_image_bytes(np.zeros((1, 2, 2), dtype=np.uint8))
        path.write_bytes(b"\x00\x00\x08\x04" + raw[4:])
        with pytest.raises(ValueError, match="magic 0x00000804 at offset 0"):
            load_idx_images(path)

    def test_truncated_image_header(self, tmp_path):
        path = tmp_path / "imgs.idx"
        path.write_bytes(b"\x00\x00\x08")
        with pytest.raises(ValueError, match="offset 3"):
            load_idx_images(path)

    def test_image_payload_length_checked(self, tmp_path):
        path = tmp_path / "imgs.idx"
        path.write_bytes(idx_image_bytes(np.zeros((2, 4, 4), dtype=np.uint8))[:-5])
        with pytest.raises(ValueError, match="length"):
            load_idx_images(path)

    def test_label_payload_length_checked(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(idx_label_bytes([0, 1, 2]) + b"\x07")
        with pytest.raises(ValueError, match="length"):
            load_idx_labels(path)

    def test_dataset_pairing(self, tmp_path):
        """Images and labels of different counts must not silently pair."""
        imgs = tmp_path / "i.idx"
        labels = tmp_path / "l.idx"
        imgs.write_bytes(idx_image_bytes(np.zeros((4, 2, 2), dtype=np.uint8)))
        labels.write_bytes(idx_label_bytes([0, 1, 0]))
        with pytest.raises(ValueError, match="4 images but 3 labels"):
            load_idx_dataset(imgs, labels)

    def test_dataset_split(self, tmp_path):
        imgs = tmp_path / "i.idx"
        labels = tmp_path / "l.idx"
        imgs.write_bytes(idx_image_bytes(np.zeros((10, 2, 2), dtype=np.uint8)))
        labels.write_bytes(idx_label_bytes([0, 1] * 5))
        data = load_idx_dataset(imgs, labels, val_fraction=0.2)
        assert len(data.train_x) == 8 and len(data.val_x) == 2
        assert data.num_classes == 2

    def test_split_of_a_class_sorted_file_covers_every_class(self, tmp_path):
        # labels 0..3 in sorted runs of 10; image i holds pixel value i, so
        # the loaded images show which sample landed where
        imgs = tmp_path / "i.idx"
        labels = tmp_path / "l.idx"
        n = 40
        imgs.write_bytes(idx_image_bytes(np.arange(n).repeat(4).reshape(n, 2, 2)))
        labels.write_bytes(idx_label_bytes(np.arange(n) // 10))
        data = load_idx_dataset(imgs, labels, val_fraction=0.2)
        assert set(data.train_y) == set(data.val_y) == {0, 1, 2, 3}
        ids = np.concatenate([data.train_x, data.val_x])[:, 0, 0, 0] * 255
        assert sorted(ids.round().astype(int)) == list(range(n))
        labels_of = np.concatenate([data.train_y, data.val_y])
        np.testing.assert_array_equal(labels_of, ids.round().astype(int) // 10)
        again = load_idx_dataset(imgs, labels, val_fraction=0.2)
        for name in ("train_x", "train_y", "val_x", "val_y"):
            np.testing.assert_array_equal(getattr(again, name), getattr(data, name))

    def test_splits_equal_the_whole_file_formula(self, tmp_path):
        # each split is gathered as uint8 and scaled on its own: the same
        # bytes as the float copy of the whole file, gathered afterwards
        imgs, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        n = 53
        pixels = np.random.default_rng(8).integers(0, 256, size=(n, 5, 7), dtype=np.uint8)
        raw = idx_image_bytes(pixels)
        imgs.write_bytes(raw)
        labels.write_bytes(idx_label_bytes(np.arange(n) % 3))
        whole = np.frombuffer(raw, np.uint8, offset=16).astype(np.float64) / 255.0
        whole = whole.reshape(n, 1, 5, 7)
        assert load_idx_images(imgs).tobytes() == whole.tobytes()
        data = load_idx_dataset(imgs, labels, val_fraction=0.3)
        order = np.random.default_rng(0).permutation(n)
        n_train = n - round(n * 0.3)
        assert data.train_x.tobytes() == whole[order[:n_train]].tobytes()
        assert data.val_x.tobytes() == whole[order[n_train:]].tobytes()
        assert data.train_x.dtype == data.val_x.dtype == np.float64

    def test_split_load_holds_no_float_copy_of_the_file(self, tmp_path):
        # the peak above the two returned float splits is the file's bytes
        # and one uint8 gather; a whole-file float copy would add 8 B a pixel
        imgs, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        n = 2000
        pixels = np.random.default_rng(9).integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        imgs.write_bytes(idx_image_bytes(pixels))
        labels.write_bytes(idx_label_bytes(np.arange(n) % 10))
        load_idx_dataset(imgs, labels)
        tracemalloc.start()
        try:
            data = load_idx_dataset(imgs, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        above = peak - data.train_x.nbytes - data.val_x.nbytes
        assert above <= 2 * pixels.nbytes + (1 << 16), above / pixels.nbytes

    @pytest.mark.parametrize("val_fraction", [1.5, 1.0, -0.5, float("nan")])
    def test_val_fraction_outside_unit_interval_refused(self, tmp_path, val_fraction):
        imgs, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        imgs.write_bytes(idx_image_bytes(np.zeros((10, 2, 2), dtype=np.uint8)))
        labels.write_bytes(idx_label_bytes([0, 1] * 5))
        with pytest.raises(ValueError, match=r"val_fraction must be in \[0, 1\)"):
            load_idx_dataset(imgs, labels, val_fraction=val_fraction)


class TestDatasetGuards:
    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="labels outside"):
            Dataset(
                train_x=np.zeros((2, 1, 2, 2)), train_y=np.array([0, 5]),
                val_x=np.zeros((0, 1, 2, 2)), val_y=np.array([]),
                num_classes=4,
            )

    def test_class_coverage_checked(self):
        with pytest.raises(ValueError, match="covers 1 of 3"):
            Dataset(
                train_x=np.zeros((2, 1, 2, 2)), train_y=np.array([1, 1]),
                val_x=np.zeros((0, 1, 2, 2)), val_y=np.array([]),
                num_classes=3,
            )


class TestSynthetic:
    def test_shapes_and_balance(self):
        data = synthetic_dataset(n=80, num_classes=4, seed=3)
        assert data.train_x.shape == (64, 3, 16, 16)
        assert data.val_x.shape == (16, 3, 16, 16)
        counts = np.bincount(np.concatenate([data.train_y, data.val_y]), minlength=4)
        np.testing.assert_array_equal(counts, [20, 20, 20, 20])

    @pytest.mark.parametrize("side", [16, 64])
    def test_first_images_are_a_prefix_of_the_whole_draw(self, side):
        # labels are drawn first, then each image in order from one
        # generator: a prefix of the draw needs none of the images after it
        whole = synthetic_dataset(n=120, seed=4, side=side)
        xs = np.concatenate([whole.train_x, whole.val_x])
        ys = np.concatenate([whole.train_y, whole.val_y])
        for count in (0, 1, 33, 96, 120, 500):
            head, labels = synthetic_images(n=120, seed=4, side=side, count=count)
            assert head.tobytes() == xs[:count].tobytes()
            assert labels.tobytes() == ys[:count].tobytes()

    def test_deterministic(self):
        a = synthetic_dataset(n=40, seed=11)
        b = synthetic_dataset(n=40, seed=11)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.train_y, b.train_y)

    def test_seed_changes_content(self):
        a = synthetic_dataset(n=40, seed=1)
        b = synthetic_dataset(n=40, seed=2)
        assert np.abs(a.train_x - b.train_x).max() > 1e-6

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="num_classes"):
            synthetic_dataset(n=40, num_classes=1)
        with pytest.raises(ValueError, match="at least one sample"):
            synthetic_dataset(n=2, num_classes=4)
        with pytest.raises(ValueError, match="multiple of 8"):
            synthetic_dataset(n=40, side=12)

    def test_within_pair_difference_is_texture(self):
        """The mean difference between a pair's two classes is dominated by
        the sign-flipped checkerboard plus the small smooth offset."""
        data = synthetic_dataset(n=1200, seed=5, noise=0.1, spread=0.1)
        means = class_means(data)
        diff = means[0] - means[1]
        side = diff.shape[-1]
        signs = 1.0 - 2.0 * (np.arange(side) % 2)
        checker = np.outer(signs, signs)
        u_tex = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        carrier = np.multiply.outer(u_tex, checker)
        amp = np.sum(diff * carrier) / np.sum(carrier * carrier)
        assert amp == pytest.approx(2 * 0.5, abs=0.05)

    def test_pair_templates_differ_smoothly(self):
        """Across pairs the mean difference is low-frequency: most energy in
        the global DCT corner, none at the Nyquist checkerboard."""
        data = synthetic_dataset(n=1200, seed=7, noise=0.1, spread=0.1)
        means = class_means(data)
        cross = (means[0] + means[1]) / 2 - (means[2] + means[3]) / 2
        co = dct_block_forward(cross, 16).reshape(3, 16, 16)
        total = np.sum(co**2)
        assert np.sum(co[:, :4, :4] ** 2) / total >= 0.95

    def test_checkerboard_survives_any_convolution(self):
        """A conv layer can only rescale the Nyquist carrier, never move it:
        away from the border, conv(checkerboard) is a multiple of itself."""
        rng = np.random.default_rng(0)
        side = 16
        signs = 1.0 - 2.0 * (np.arange(side) % 2)
        checker = np.outer(signs, signs)
        for _ in range(5):
            kernel = rng.normal(size=(3, 3))
            out = np.zeros((side - 2, side - 2))
            for dy in range(3):
                for dx in range(3):
                    out += kernel[dy, dx] * checker[dy:dy + side - 2, dx:dx + side - 2]
            rho = np.sum(kernel * np.outer(signs[:3], signs[:3]))
            np.testing.assert_allclose(out, rho * checker[1:-1, 1:-1], atol=1e-12)

    def test_texture_outside_kept_corner(self):
        # blockwise DCT energy of the carrier in the kept 2x2 corner is ~0.1%
        side, t, tp = 16, 8, 2
        signs = 1.0 - 2.0 * (np.arange(side) % 2)
        checker = np.outer(signs, signs)
        co = dct_block_forward(checker[None], t)[0]
        frac = np.sum(co[..., :tp, :tp] ** 2) / np.sum(co**2)
        assert frac <= 0.002

    def test_val_fraction_zero(self):
        data = synthetic_dataset(n=40, seed=0, val_fraction=0.0)
        assert len(data.val_x) == 0 and len(data.train_x) == 40

    @pytest.mark.parametrize("val_fraction", [1.5, 1.0, -0.5, float("nan")])
    def test_val_fraction_outside_unit_interval_refused(self, val_fraction):
        # 1.5 gave a 20/20 split of 40 and -0.5 an empty validation split
        with pytest.raises(ValueError, match=r"val_fraction must be in \[0, 1\)"):
            synthetic_dataset(n=40, seed=0, val_fraction=val_fraction)


class TestSyntheticMatchesReference:
    """The chunked draw against the per-image loop, byte for byte."""

    @pytest.mark.parametrize("n", [37, 2000])
    @pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, None])
    def test_first_images(self, n, count):
        got, labels = synthetic_images(n=n, seed=12, count=count)
        want, want_labels = synthetic_images_reference(n=n, seed=12, count=count)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert labels.tobytes() == want_labels.tobytes()

    @pytest.mark.parametrize("num_classes, channels, side, rank", [
        (2, 1, 8, 0), (5, 3, 24, 3), (8, 1, 64, 3), (8, 3, 64, 0), (5, 1, 8, 3), (2, 3, 24, 0),
    ])
    def test_generator_shapes(self, num_classes, channels, side, rank):
        kwargs = dict(num_classes=num_classes, channels=channels, side=side, rank=rank, seed=6)
        want, want_labels = synthetic_images_reference(n=CHUNK + 9, **kwargs)
        got, labels = synthetic_images(n=CHUNK + 9, **kwargs)
        assert got.tobytes() == want.tobytes() and labels.tobytes() == want_labels.tobytes()
        data = synthetic_dataset(n=CHUNK + 9, **kwargs)
        n_train = len(data.train_x)
        assert data.train_x.tobytes() == want[:n_train].tobytes()
        assert data.val_x.tobytes() == want[n_train:].tobytes()

    @pytest.mark.parametrize("n, val_fraction", [
        (37, 0.2),      # train 30: both splits inside one chunk
        (2000, 0.15),   # train 1700: the boundary falls inside a chunk
        (2000, 0.2),    # train 1600: the boundary falls on a chunk boundary
        (37, 0.0),      # an empty validation split
    ])
    def test_splits(self, n, val_fraction):
        data = synthetic_dataset(n=n, seed=13, val_fraction=val_fraction)
        want, labels = synthetic_images_reference(n=n, seed=13)
        n_train = n - round(n * val_fraction)
        assert len(data.train_x) == n_train and len(data.val_x) == n - n_train
        assert data.train_x.tobytes() == want[:n_train].tobytes()
        assert data.val_x.tobytes() == want[n_train:].tobytes()
        assert data.train_y.tobytes() == labels[:n_train].tobytes()
        assert data.val_y.tobytes() == labels[n_train:].tobytes()

    def test_splits_own_their_memory(self):
        # keeping one split must not keep the other's pixels alive
        data = synthetic_dataset(n=200, seed=1)
        assert not np.shares_memory(data.train_x, data.val_x)
        assert data.train_x.base is None and data.val_x.base is None

    def test_generation_peak_is_a_chunk_not_a_set(self):
        synthetic_dataset(n=40)
        tracemalloc.start()
        try:
            data = synthetic_dataset(n=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        above = peak - data.train_x.nbytes - data.val_x.nbytes
        assert above <= 1.5 * 2**20, above / 2**20
