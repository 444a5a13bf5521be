import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
from oracle import (
    dct_block_forward,
    decompose,
    idct_block,
    normalize_residual,
    spectrum_reference,
)

import asymsplit
from asymsplit.datasets import class_means, synthetic_dataset
from asymsplit.decompose import (
    DecompositionConfig,
    decompose_batch,
    decompose_main_adjoint,
    decompose_main_batch,
    format_spectrum_csv,
    lowpass_operator,
    spectrum,
)
from asymsplit.numerics import dct_matrix


def padded_reassembly(out, cfg, shape):
    """Oracle: rebuild the main part at full resolution from the factors.

    Zero-pads the kept low-frequency corner of each coefficient block back
    to t x t, inverts at the source block size, and recombines with the
    singular values and left vectors.  Independent of ir_main's own
    reduced-resolution assembly path.
    """
    c, h, w = shape
    t, tp = cfg.t, cfg.t_prime
    mask = np.zeros((h, w), dtype=bool)
    mask[
        np.flatnonzero((np.arange(h) % t) < tp)[:, None],
        np.flatnonzero((np.arange(w) % t) < tp)[None, :],
    ] = True
    kept = out.dct_coeffs * mask
    v_padded = idct_block(kept, t, t)
    r = out.dct_coeffs.shape[0]
    u = out.factors.left_vectors[:, :r]
    s = out.factors.singular_values[:r]
    return np.einsum("ci,ihw->chw", u * s, v_padded)


class TestConfig:
    def test_valid(self):
        cfg = DecompositionConfig(r=3, t=8, t_prime=4, C=1.0)
        cfg.check_shape((8, 16, 16))
        assert cfg.main_shape((8, 16, 16)) == (8, 8, 8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r=0, t=8, t_prime=4),
            dict(r=1, t=0, t_prime=1),
            dict(r=1, t=4, t_prime=5),
            dict(r=1, t=4, t_prime=0),
            dict(r=1, t=4, t_prime=2, C=0.0),
            dict(r=1, t=4, t_prime=2, C=-1.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DecompositionConfig(**kwargs)

    def test_shape_mismatches(self):
        with pytest.raises(ValueError, match="exceeds channel count"):
            DecompositionConfig(r=9, t=4, t_prime=2).check_shape((8, 16, 16))
        with pytest.raises(ValueError, match="divide"):
            DecompositionConfig(r=2, t=5, t_prime=2).check_shape((8, 16, 16))


class TestNormalizeResidual:
    def test_inside_ball_unchanged(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 4, 4))
        x *= 0.5 / np.linalg.norm(x)  # norm = C/2
        np.testing.assert_array_equal(normalize_residual(x, 1.0), x)

    def test_scaling_case(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 4))
        c = 0.7
        x *= 4 * c / np.linalg.norm(x)  # norm = 4C
        out = normalize_residual(x, c)
        np.testing.assert_allclose(out, x / 4, atol=1e-15)
        assert abs(np.linalg.norm(out) - c) <= 1e-12

    def test_zero_tensor(self):
        z = np.zeros((3, 2, 2))
        np.testing.assert_array_equal(normalize_residual(z, 2.0), z)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            normalize_residual(np.ones((1, 1, 1)), 0.0)


class TestDecompose:
    def test_nothing_discarded(self):
        # r = c and t' = t: the residual vanishes and the main part (already
        # at full resolution) equals the input.
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 8, 8))
        out = decompose(x, DecompositionConfig(r=4, t=4, t_prime=4))
        assert np.max(np.abs(out.ir_res_raw)) <= 1e-9
        assert np.linalg.norm(out.ir_main - x) / np.linalg.norm(x) <= 1e-9

    def test_rank_one_input(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(8, 8))
        x = np.stack([1.5 * base, -0.25 * base, 0.75 * base])
        out = decompose(x, DecompositionConfig(r=1, t=4, t_prime=4))
        # with t' = t the residual is purely the trailing singular content,
        # and a rank-1 input has none
        assert np.max(np.abs(out.ir_res_raw)) <= 1e-9
        assert np.all(out.factors.singular_values[1:] <= 1e-9)

    def test_additivity_reference_case(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 16, 16))
        cfg = DecompositionConfig(r=3, t=8, t_prime=4)
        out = decompose(x, cfg)
        rebuilt = padded_reassembly(out, cfg, x.shape) + out.ir_res_raw
        assert np.linalg.norm(rebuilt - x) / np.linalg.norm(x) <= 1e-9

    def test_additivity_random_instances(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            c = int(rng.integers(2, 9))
            t = int(rng.choice([2, 4, 8]))
            blocks = int(rng.integers(1, 4))
            h = w = t * blocks
            cfg = DecompositionConfig(
                r=int(rng.integers(1, c + 1)),
                t=t,
                t_prime=int(rng.integers(1, t + 1)),
            )
            x = rng.normal(size=(c, h, w))
            out = decompose(x, cfg)
            rebuilt = padded_reassembly(out, cfg, x.shape) + out.ir_res_raw
            assert np.linalg.norm(rebuilt - x) / np.linalg.norm(x) <= 1e-9

    def test_normalized_residual_within_ball(self):
        rng = np.random.default_rng(6)
        for c_val in [0.1, 1.0, 3.0]:
            x = 10 * rng.normal(size=(4, 8, 8))
            out = decompose(x, DecompositionConfig(r=1, t=4, t_prime=1, C=c_val))
            assert np.linalg.norm(out.ir_res) <= c_val + 1e-12

    def test_split_orthogonality(self):
        # The rank-r reconstruction lives in the span of the leading left
        # singular vectors; the SVD residual in the trailing span.
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 8, 8))
        cfg = DecompositionConfig(r=2, t=4, t_prime=2)
        out = decompose(x, cfg)
        f = out.factors
        x_lr = f.reconstruct(2)
        svd_res = (f.left_vectors[:, 2:] * f.singular_values[2:]) @ f.right_vectors[2:]
        assert abs(np.sum(x_lr * svd_res)) <= 1e-9

    def test_main_shape(self):
        x = np.random.default_rng(8).normal(size=(8, 16, 16))
        cfg = DecompositionConfig(r=3, t=8, t_prime=4)
        out = decompose(x, cfg)
        assert out.ir_main.shape == cfg.main_shape(x.shape) == (8, 8, 8)
        assert out.ir_res.shape == x.shape
        assert out.dct_coeffs.shape == (3, 16, 16)


class TestBatched:
    def test_matches_single(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(5, 6, 8, 8))
        cfg = DecompositionConfig(r=2, t=4, t_prime=2, C=0.8)
        main_b, res_b = decompose_batch(xs, cfg)
        for i in range(5):
            out = decompose(xs[i], cfg)
            np.testing.assert_allclose(main_b[i], out.ir_main, atol=1e-9)
            np.testing.assert_allclose(res_b[i], out.ir_res, atol=1e-9)

    def test_main_only_matches(self):
        rng = np.random.default_rng(10)
        xs = rng.normal(size=(3, 4, 8, 8))
        cfg = DecompositionConfig(r=3, t=2, t_prime=1)
        main_full, _ = decompose_batch(xs, cfg)
        main_only, basis = decompose_main_batch(xs, cfg)
        np.testing.assert_allclose(main_only, main_full, atol=1e-12)
        assert basis.shape == (3, 4, 3)

    def test_rejects_non_batch(self):
        with pytest.raises(ValueError, match="batch"):
            decompose_batch(np.zeros((4, 8, 8)), DecompositionConfig(r=1, t=4, t_prime=2))


def einsum_dct(x, t):
    """Blockwise forward DCT through one einsum over a block view."""
    mat = dct_matrix(t)
    *lead, h, w = x.shape
    blocks = np.moveaxis(x.reshape(*lead, h // t, t, w // t, t), -3, -2)
    out = np.einsum("ab,...bc,dc->...ad", mat, blocks, mat, optimize=True)
    return np.moveaxis(out, -2, -3).reshape(x.shape)


def einsum_idct(coeffs, t, tk):
    """Blockwise inverse DCT of the top-left tk x tk corner of each t-block."""
    mat = dct_matrix(tk)
    *lead, h, w = coeffs.shape
    blocks = np.moveaxis(coeffs.reshape(*lead, h // t, t, w // t, t), -3, -2)
    out = np.einsum("ba,...bc,cd->...ad", mat, blocks[..., :tk, :tk], mat, optimize=True)
    return np.moveaxis(out, -2, -3).reshape(*lead, h // t * tk, w // t * tk)


def einsum_main(xs, cfg):
    """Reference ir_main, basis and DCT coefficients, in einsum form."""
    b, c, h, w = xs.shape
    flat = xs.reshape(b, c, h * w)
    _, vecs = np.linalg.eigh(flat @ np.swapaxes(flat, 1, 2))
    basis = vecs[:, :, ::-1][:, :, : cfg.r]
    proj = np.swapaxes(basis, 1, 2) @ flat
    coeffs = einsum_dct(proj.reshape(b, -1, h, w), cfg.t)
    ir_main = np.einsum(
        "bci,bi...->bc...", basis, einsum_idct(coeffs, cfg.t, cfg.t_prime), optimize=True
    )
    return ir_main, basis, proj, coeffs


def einsum_decompose_batch(xs, cfg):
    b, c, h, w = xs.shape
    ir_main, basis, proj, coeffs = einsum_main(xs, cfg)
    svd_res = (xs.reshape(b, c, h * w) - basis @ proj).reshape(b, c, h, w)
    mask = ((np.arange(h) % cfg.t) < cfg.t_prime)[:, None] & (
        (np.arange(w) % cfg.t) < cfg.t_prime
    )[None, :]
    raw = svd_res + np.einsum(
        "bci,bi...->bc...", basis, einsum_idct(coeffs * ~mask, cfg.t, cfg.t), optimize=True
    )
    scale = np.maximum(1.0, np.linalg.norm(raw.reshape(b, -1), axis=1) / cfg.C)
    return ir_main, raw / scale[:, None, None, None]


def einsum_main_adjoint(g, basis, cfg):
    b, c, hr, wr = g.shape
    t, tp = cfg.t, cfg.t_prime
    h, w = hr // tp * t, wr // tp * t
    proj = np.einsum("bci,bc...->bi...", basis, g, optimize=True)
    padded = np.zeros((b, basis.shape[2], h, w))
    rows = np.flatnonzero((np.arange(h) % t) < tp)
    cols = np.flatnonzero((np.arange(w) % t) < tp)
    padded[..., rows[:, None], cols[None, :]] = einsum_dct(proj, tp)
    return np.einsum("bci,bi...->bc...", basis, einsum_idct(padded, t, t), optimize=True)


class TestBatchIndependence:
    """A sample's rows do not depend on the batch it comes in: stage 2 reads
    ir_main rows from the cache-build batches while the in-process
    reference recomputes them on gathered batches."""

    CFG = DecompositionConfig(r=4, t=8, t_prime=2, C=1.0)

    def batches(self, x):
        rng = np.random.default_rng(80)
        for b in (1, 16, 128):
            xs = rng.normal(size=(b,) + x.shape)
            pos = int(rng.integers(b))
            xs[pos] = x
            yield xs, pos
        xs = rng.normal(size=(16,) + x.shape)
        xs[3] = x
        perm = rng.permutation(16)
        yield xs[perm], int(np.flatnonzero(perm == 3)[0])

    def test_rows_bitwise_equal(self):
        rng = np.random.default_rng(81)
        x = rng.normal(size=(8, 16, 16))
        g = rng.normal(size=(8, 4, 4))
        ref_main, ref_res = decompose_batch(x[None], self.CFG)
        ref_main_only, ref_basis = decompose_main_batch(x[None], self.CFG)
        ref_adj = decompose_main_adjoint(g[None], ref_basis, self.CFG)
        for xs, pos in self.batches(x):
            main, res = decompose_batch(xs, self.CFG)
            main_only, basis = decompose_main_batch(xs, self.CFG)
            gs = np.repeat(g[None], len(xs), axis=0)
            adj = decompose_main_adjoint(gs, basis, self.CFG)
            assert np.array_equal(main[pos], ref_main[0]), len(xs)
            assert np.array_equal(res[pos], ref_res[0]), len(xs)
            assert np.array_equal(main_only[pos], ref_main_only[0]), len(xs)
            assert np.array_equal(basis[pos], ref_basis[0]), len(xs)
            assert np.array_equal(adj[pos], ref_adj[0]), len(xs)


class TestLowpassOperator:
    @pytest.mark.parametrize("h, w, t, tp", [
        (16, 16, 8, 2), (28, 28, 4, 2), (8, 24, 4, 3), (12, 6, 2, 1), (8, 16, 4, 4),
    ])
    def test_matches_definition(self, h, w, t, tp):
        k = lowpass_operator(h, w, t, tp)
        assert k.shape == ((h // t) * tp * (w // t) * tp, h * w)
        x = np.random.default_rng(h * w + t + tp).normal(size=(3, h, w))
        coeffs = dct_block_forward(x, t)
        low = x.reshape(3, -1) @ k.T
        np.testing.assert_allclose(
            low, idct_block(coeffs, t, tp).reshape(3, -1), rtol=0, atol=1e-12
        )
        mask = ((np.arange(h) % t) < tp)[:, None] & ((np.arange(w) % t) < tp)[None, :]
        np.testing.assert_allclose(
            low @ k, idct_block(coeffs * mask, t, t).reshape(3, -1), rtol=0, atol=1e-12
        )

    def test_cached_read_only(self):
        k = lowpass_operator(16, 16, 8, 2)
        assert lowpass_operator(16, 16, 8, 2) is k
        assert not k.flags.writeable
        with pytest.raises(ValueError):
            k[0, 0] = 1.0


class TestEinsumPins:
    """The batched decomposition against its einsum formulation, at the
    benchmark's configuration."""

    CFG = DecompositionConfig(r=4, t=8, t_prime=2, C=1.0)

    @pytest.mark.parametrize("b", [1, 4])
    def test_decompose_batch(self, b):
        xs = np.random.default_rng(50 + b).normal(size=(b, 8, 16, 16))
        main, res = decompose_batch(xs, self.CFG)
        ref_main, ref_res = einsum_decompose_batch(xs, self.CFG)
        np.testing.assert_allclose(main, ref_main, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res, ref_res, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("b", [1, 4])
    def test_decompose_main_batch(self, b):
        xs = np.random.default_rng(60 + b).normal(size=(b, 8, 16, 16))
        main, basis = decompose_main_batch(xs, self.CFG)
        ref_main, ref_basis, _, _ = einsum_main(xs, self.CFG)
        np.testing.assert_allclose(main, ref_main, rtol=0, atol=1e-12)
        np.testing.assert_allclose(basis, ref_basis, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("b", [1, 4])
    def test_decompose_main_adjoint(self, b):
        rng = np.random.default_rng(70 + b)
        _, basis = decompose_main_batch(rng.normal(size=(b, 8, 16, 16)), self.CFG)
        g = rng.normal(size=(b, 8, 4, 4))
        np.testing.assert_allclose(
            decompose_main_adjoint(g, basis, self.CFG),
            einsum_main_adjoint(g, basis, self.CFG),
            rtol=0, atol=1e-12,
        )


class TestAdjoint:
    def frozen_forward(self, xs, basis, cfg):
        """The linear map whose adjoint decompose_main_adjoint claims to be."""
        proj = np.einsum("bci,bchw->bihw", basis, xs)
        return np.einsum(
            "bci,bihw->bchw",
            basis,
            idct_block(dct_block_forward(proj, cfg.t), cfg.t, cfg.t_prime),
        )

    def test_adjoint_identity(self):
        # <D x, g> == <x, D* g> for the frozen-factor map D
        rng = np.random.default_rng(11)
        cfg = DecompositionConfig(r=3, t=4, t_prime=2)
        xs = rng.normal(size=(2, 6, 8, 8))
        _, basis = decompose_main_batch(xs, cfg)
        probe = rng.normal(size=(2, 6, 8, 8))
        g = rng.normal(size=(2, 6, 4, 4))
        lhs = np.sum(self.frozen_forward(probe, basis, cfg) * g)
        rhs = np.sum(probe * decompose_main_adjoint(g, basis, cfg))
        assert abs(lhs - rhs) / max(abs(lhs), 1e-12) <= 1e-10

    def test_consistent_with_forward(self):
        # the frozen map applied to the original sample reproduces ir_main
        rng = np.random.default_rng(12)
        xs = rng.normal(size=(3, 5, 8, 8))
        cfg = DecompositionConfig(r=2, t=4, t_prime=2)
        ir_main, basis = decompose_main_batch(xs, cfg)
        np.testing.assert_allclose(self.frozen_forward(xs, basis, cfg), ir_main, atol=1e-9)

    def test_gradient_shape_guard(self):
        cfg = DecompositionConfig(r=1, t=4, t_prime=3)
        with pytest.raises(ValueError, match="divisible"):
            decompose_main_adjoint(np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 1)), cfg)

    @pytest.mark.parametrize("basis_shape", [(1, 8, 4), (3, 6, 4), (3, 8, 9), (3, 8, 0), (3, 8)])
    def test_mismatched_basis_refused(self, basis_shape):
        # a (1, c, r) basis would otherwise broadcast sample 0's basis over
        # the whole batch
        g = np.zeros((3, 8, 4, 4))
        cfg = DecompositionConfig(r=4, t=8, t_prime=2)
        with pytest.raises(ValueError) as err:
            decompose_main_adjoint(g, np.zeros(basis_shape), cfg)
        assert str(basis_shape) in str(err.value) and str(g.shape) in str(err.value)


class TestSpectrum:
    def test_exhaustive_params_zero_error(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 8, 8))
        rows = dict()
        for kind, p, e in spectrum(x, 4, [4], [4]):
            rows[(kind, p)] = e
        assert rows[("svd", 4)] <= 1e-9
        assert rows[("dct", 4)] <= 1e-9

    def test_monotone(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(6, 16, 16))
        rows = spectrum(x, 8, range(1, 7), range(1, 9))
        svd_err = [e for k, _, e in rows if k == "svd"]
        dct_err = [e for k, _, e in rows if k == "dct"]
        assert all(b <= a + 1e-12 for a, b in zip(svd_err, svd_err[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(dct_err, dct_err[1:]))

    def test_planted_rank(self):
        # X = exact rank-3 + tiny noise: the channel error drops until r=3,
        # then sits at the noise floor.
        rng = np.random.default_rng(15)
        mix = rng.normal(size=(6, 3))
        maps = rng.normal(size=(3, 16 * 16))
        x = (mix @ maps).reshape(6, 16, 16) + 1e-7 * rng.normal(size=(6, 16, 16))
        err = {p: e for k, p, e in spectrum(x, 8, range(1, 7), []) if k == "svd"}
        assert err[1] > err[2] > err[3]
        assert err[2] > 10 * err[3]
        for r in (3, 4, 5):
            assert err[r] <= 1e-5

    def test_rejects_bad_grid(self):
        x = np.zeros((2, 4, 4))
        with pytest.raises(ValueError, match="outside"):
            spectrum(x, 4, [3], [])
        with pytest.raises(ValueError, match="outside"):
            spectrum(x, 4, [], [5])

    @staticmethod
    def assert_matches_reference(x, t, r_values, tprime_values):
        got = spectrum(x, t, r_values, tprime_values)
        want = spectrum_reference(x, t, r_values, tprime_values)
        assert [row[:2] for row in got] == [row[:2] for row in want]
        np.testing.assert_allclose(
            [row[2] for row in got], [row[2] for row in want], rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("shape", [(6, 16, 16), (3, 16, 32)])
    @pytest.mark.parametrize("t", [4, 8])
    def test_matches_reference(self, shape, t):
        x = np.random.default_rng(16 + t + shape[2]).normal(size=shape)
        c = shape[0]
        self.assert_matches_reference(x, t, range(1, c + 1), range(1, t + 1))
        # rows follow the order of the grids
        self.assert_matches_reference(x, t, [c, 1, 2], [t, 1, 3])

    def test_planted_rank_matches_reference(self):
        # the input of test_planted_rank, whose noise floor a Gram-matrix
        # basis misses by about 1e-9
        rng = np.random.default_rng(15)
        mix = rng.normal(size=(6, 3))
        maps = rng.normal(size=(3, 16 * 16))
        x = (mix @ maps).reshape(6, 16, 16) + 1e-7 * rng.normal(size=(6, 16, 16))
        self.assert_matches_reference(x, 8, range(1, 7), range(1, 9))

    def test_class_means_match_reference(self):
        for mean in class_means(synthetic_dataset(n=400, rank=3, seed=5)):
            self.assert_matches_reference(mean, 8, range(1, 4), range(1, 9))

    def test_csv_format(self):
        text = format_spectrum_csv([("svd", 2, 0.25), ("dct", 4, 0.0625)])
        assert text == "kind,param,rel_error\nsvd,2,0.25\ndct,4,0.0625\n"


def test_one_decomposition_in_the_package():
    """``asymsplit.decompose`` is the submodule, every exported name
    resolves, and the shipped code never reaches for the test oracle."""
    assert asymsplit.decompose is importlib.import_module("asymsplit.decompose")
    for name in asymsplit.__all__:
        assert getattr(asymsplit, name) is not None, name
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "demos").glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert all(m.split(".")[0] != "oracle" for m in modules), path
