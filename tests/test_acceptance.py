"""Acceptance run: the package's headline guarantees, one test per claim.

Every test finishes by emitting a single ``[PASS]``/``[FAIL]`` line with
the measured quantity, so the captured log doubles as a checklist.  The
expensive end-to-end trainings (five seeds, three configurations) run
once in a session fixture and are shared by the ordering, quantization,
and equivalence tests.
"""

import time

import mpmath
import numpy as np
import pytest

from asymsplit.datasets import synthetic_dataset
from asymsplit.decompose import DecompositionConfig, decompose, spectrum
from asymsplit.model import (
    LowRankConv2d,
    Model,
    count_macs,
    default_spec,
    factorize_reference,
    forward_full,
    lowrank_forward,
    orth_reg,
)
from asymsplit.numerics import conv2d_backward, conv2d_forward, idct_block
from asymsplit.privacy import amplify, calibrate
from asymsplit.protocol import (
    MemoryChannel,
    PrivateEndpoint,
    PublicEndpoint,
    Transcript,
    Wire,
    audit,
    run_split_inference,
    run_split_training,
    split_params,
)
from asymsplit.training import (
    VAL_STREAM_BASE,
    TrainConfig,
    cross_entropy,
    one_hot,
    private_backprop,
    train_two_stage,
)

BENCH_DCFG = DecompositionConfig(r=4, t=8, t_prime=2, C=1.0)
BENCH_SEEDS = range(5)
INF = float("inf")


@pytest.fixture()
def verdict(capsys):
    def emit(name, ok, detail):
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return emit


def central_diff(f, x, step=1e-5):
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * step)
    return g


def rel_gap(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


def test_factorization_exact_on_lowrank_inputs(verdict):
    """Dense conv == factorized conv whenever the lowered input has rank q."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(120):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        q = int(rng.integers(1, 4))
        k = 3
        patches = int(rng.integers(2, 5))
        basis = np.linalg.qr(rng.normal(size=(c * k * k, q)))[0]
        coeffs = rng.normal(size=(patches**2, q))
        rows = coeffs @ basis.T
        side = patches * k
        x = np.zeros((c, side, side))
        idx = 0
        for i in range(0, side, k):
            for j in range(0, side, k):
                x[:, i : i + k, j : j + k] = rows[idx].reshape(c, k, k)
                idx += 1
        w = rng.normal(size=(n, c, k, k))
        w1, w2 = factorize_reference(w, basis)
        y = conv2d_forward(x, w, stride=k, padding=0)
        y2 = lowrank_forward(w1, w2, x, stride=k, padding=0)
        worst = max(worst, rel_gap(y2, y))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    verdict(
        "factorization exactness",
        ok,
        f"worst relative gap {worst:.3e} over 120 instances (<= 1e-6), {elapsed:.1f}s",
    )


def test_decomposition_additivity_and_monotone_curves(verdict):
    """main + residual rebuilds the input; error curves fall with r and t'."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(110):
        t = int(rng.choice([4, 8]))
        c = int(rng.integers(2, 9))
        side = t * int(rng.integers(1, 4))
        cfg = DecompositionConfig(
            r=int(rng.integers(1, c + 1)),
            t=t,
            t_prime=int(rng.integers(1, t + 1)),
            C=1.0,
        )
        x = rng.normal(size=(c, side, side))
        out = decompose(x, cfg)

        # Independent reassembly: zero-pad the kept coefficient corner back
        # to t x t blocks and recombine through the factors.
        mask = np.zeros((side, side), dtype=bool)
        keep = np.flatnonzero((np.arange(side) % t) < cfg.t_prime)
        mask[keep[:, None], keep[None, :]] = True
        v_padded = idct_block(out.dct_coeffs * mask, t, t)
        u = out.factors.left_vectors[:, : cfg.r]
        s = out.factors.singular_values[: cfg.r]
        rebuilt = np.einsum("ci,ihw->chw", u * s, v_padded) + out.ir_res_raw
        worst = max(worst, np.linalg.norm(x - rebuilt) / np.linalg.norm(x))

    monotone = True
    for _ in range(5):
        x = rng.normal(size=(6, 16, 16))
        rows = spectrum(x, 8, r_values=range(1, 7), tprime_values=range(1, 9))
        for kind in ("svd", "dct"):
            errs = [err for k, _, err in rows if k == kind]
            monotone &= all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and monotone and elapsed < 10.0
    verdict(
        "decomposition additivity",
        ok,
        f"worst reassembly error {worst:.3e} over 110 tensors (<= 1e-9), "
        f"curves monotone={monotone}, {elapsed:.1f}s",
    )


def test_accountant_matches_high_precision_oracle(verdict):
    """calibrate/amplify vs a 50-digit evaluation of the same formulas."""
    mpmath.mp.dps = 50
    t0 = time.perf_counter()
    worst = 0.0
    delta = 1e-6
    for eps in (0.1, 1.0, 1.4, 9.0, 17.0):
        for p in (0.01, 0.1, 1.0):
            for C in (0.5, 1.0, 2.0):
                got = calibrate(eps, delta, p, C)
                e, pp = mpmath.mpf(eps), mpmath.mpf(p)
                eps_prime = mpmath.log1p(mpmath.expm1(e) / pp)
                delta_prime = mpmath.mpf(delta) / pp
                sigma = mpmath.mpf(C) * mpmath.sqrt(
                    2 * mpmath.log(2 / delta_prime) / eps_prime
                )
                for have, want in (
                    (got.eps_prime, eps_prime),
                    (got.delta_prime, delta_prime),
                    (got.sigma, sigma),
                ):
                    worst = max(worst, float(abs(have - want) / abs(want)))
                back_e, back_d = amplify(got.eps_prime, got.delta_prime, p)
                want_e = mpmath.log1p(pp * mpmath.expm1(mpmath.mpf(got.eps_prime)))
                want_d = pp * mpmath.mpf(got.delta_prime)
                worst = max(worst, float(abs(back_e - want_e) / want_e))
                worst = max(worst, float(abs(back_d - want_d) / want_d))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    verdict(
        "privacy accountant",
        ok,
        f"worst relative error {worst:.3e} over 45 grid points (<= 1e-12), {elapsed:.2f}s",
    )


def test_gradient_suite(verdict):
    """Analytic gradients vs central differences; g_res blind to z_main."""
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    worst = 0.0

    x = rng.normal(size=(2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    y = conv2d_forward(x, w, stride=2, padding=1)
    proj = rng.normal(size=y.shape)
    gx, gw = conv2d_backward(proj, x, w, stride=2, padding=1)

    def conv_loss():
        return float(np.sum(proj * conv2d_forward(x, w, stride=2, padding=1)))

    worst = max(worst, rel_gap(gw, central_diff(conv_loss, w)))
    worst = max(worst, rel_gap(gx, central_diff(conv_loss, x)))

    layer = LowRankConv2d("l", 3, 4, 3, q=2, stride=1, padding=1)
    params = {}
    layer.init(rng, params)
    xb = rng.normal(size=(2, 3, 5, 5))
    yb, cache = layer.forward(params, {}, xb, True)
    projb = rng.normal(size=yb.shape)
    grads = {}
    gxb = layer.backward(params, cache, projb, grads)

    def layer_loss():
        out, _ = layer.forward(params, {}, xb, True)
        return float(np.sum(projb * out))

    for key in ("l/w1", "l/w2"):
        worst = max(worst, rel_gap(grads[key], central_diff(layer_loss, params[key])))
    worst = max(worst, rel_gap(gxb, central_diff(layer_loss, xb)))

    z_main = rng.normal(size=(4, 5))
    z_res = rng.normal(size=(4, 5))
    y1h = one_hot(rng.integers(0, 5, size=4), 5)
    alpha = 0.7
    g_main, g_res = private_backprop(z_main, z_res, y1h, alpha)

    def merged_loss():
        return cross_entropy(z_main + alpha * z_res, y1h)

    worst = max(worst, rel_gap(g_main / len(y1h), central_diff(merged_loss, z_main)))

    w1 = rng.normal(size=(3, 2, 3, 3))
    _, g_orth = orth_reg(w1)
    worst = max(worst, rel_gap(g_orth, central_diff(lambda: orth_reg(w1)[0], w1)))

    g_res_other = private_backprop(z_main + 123.456, z_res, y1h, alpha)[1]
    independent = g_res.tobytes() == g_res_other.tobytes()
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and independent and elapsed < 30.0
    verdict(
        "gradient suite",
        ok,
        f"worst FD relative error {worst:.3e} (<= 1e-5), "
        f"g_res independent of z_main={independent}, {elapsed:.1f}s",
    )


def test_communication_budget(verdict):
    """Residual payloads at exactly 1/32 of float32, silent stage 1, audit."""
    t0 = time.perf_counter()
    data = synthetic_dataset(n=48, seed=0)
    model = Model(default_spec(r=BENCH_DCFG.r))
    params, buffers = model.init(0)
    cfg = TrainConfig(ep1=1, ep2=1, batch_size=16, epsilon=INF, seed=0)
    _, wire, _, _ = run_split_training(model, params, buffers, data, BENCH_DCFG, cfg)

    report = audit(wire.transcript)
    stage1_silent = report.bytes_by_phase["stage1"] == 0

    floats = model.spec.bb_channels * 16 * 16
    payload = floats // 8
    residual_frames = [
        e for e in wire.transcript.entries if e.kind == "residual-bits"
    ]
    sizes_ok = (
        len(residual_frames) == len(data.train_x)
        and all(e.nbytes == 22 + payload for e in residual_frames)
        and payload * 32 == floats * 4
    )

    injected = Transcript()
    for e in wire.transcript.entries:
        injected.record(e.direction, e.kind, e.nbytes, e.phase)
    injected.record("private->public", "gradient", 22 + floats * 8, "cache-build")
    bad = audit(injected)

    elapsed = time.perf_counter() - t0
    ok = (
        stage1_silent
        and sizes_ok
        and report.passed
        and report.ratio == 32.0
        and not bad.passed
        and elapsed < 5.0
    )
    verdict(
        "communication budget",
        ok,
        f"stage-1 bytes {report.bytes_by_phase['stage1']}, payload {payload}B for "
        f"{floats} floats (x32 exact), audit pass={report.passed}, "
        f"injected raw-float frame rejected={not bad.passed}, {elapsed:.1f}s",
    )


def test_mac_budget(verdict):
    """Private side at most 15% of the public side; counter vs hand count."""
    macs = count_macs(default_spec(r=4), (16, 16), BENCH_DCFG)
    spec = default_spec(r=4)
    hand_backbone = spec.bb_channels * spec.in_channels * spec.bb_k**2 * 16 * 16
    ok = macs["ratio"] <= 0.15 and macs["backbone"] == hand_backbone
    verdict(
        "mac budget",
        ok,
        f"private/public ratio {macs['ratio']:.4f} (<= 0.15), "
        f"backbone counter {macs['backbone']} == hand count {hand_backbone}",
    )


def _bench_run(seed, epsilon, quantize, keep=False):
    data = synthetic_dataset(n=2000, seed=seed)
    model = Model(default_spec(r=4))
    params, buffers = model.init(seed=seed)
    cfg = TrainConfig(
        ep1=15, ep2=15, batch_size=128, epsilon=epsilon, quantize=quantize, seed=seed
    )
    report = train_two_stage(model, params, buffers, data, BENCH_DCFG, cfg)
    main, merged = report.final_accuracy()
    entry = {"main": main, "merged": merged}
    if keep:
        entry.update(model=model, params=params, buffers=buffers, data=data, cfg=cfg)
    return entry


@pytest.fixture(scope="session")
def bench():
    """Fifteen trainings: 5 seeds x (eps=inf, eps=0.5, unquantized at inf)."""
    runs = {}
    t0 = time.perf_counter()
    for eps in (INF, 0.5):
        for seed in BENCH_SEEDS:
            runs[(eps, seed)] = _bench_run(
                seed, eps, True, keep=(eps == INF and seed == 0)
            )
    ordering_elapsed = time.perf_counter() - t0
    for seed in BENCH_SEEDS:
        runs[("unquantized", seed)] = _bench_run(seed, INF, False)
    return {"runs": runs, "ordering_elapsed": ordering_elapsed}


@pytest.mark.slow
def test_benchmark_accuracy_ordering(bench, verdict):
    """main-only <= merged, and noise at eps=0.5 costs at most 0.5%."""
    runs = bench["runs"]
    main_med = float(np.median([runs[(INF, s)]["main"] for s in BENCH_SEEDS]))
    inf_med = float(np.median([runs[(INF, s)]["merged"] for s in BENCH_SEEDS]))
    dp_med = float(np.median([runs[(0.5, s)]["merged"] for s in BENCH_SEEDS]))
    elapsed = bench["ordering_elapsed"]
    ok = (
        main_med <= inf_med
        and dp_med <= inf_med + 0.005
        and inf_med >= dp_med
        and inf_med - main_med >= 0.01
        and elapsed < 900.0
    )
    verdict(
        "accuracy ordering",
        ok,
        f"median main-only {main_med:.4f} <= merged@inf {inf_med:.4f} "
        f">= merged@0.5 {dp_med:.4f}, residual lift "
        f"{100 * (inf_med - main_med):.2f}pp (>= 1pp), {elapsed:.0f}s (< 900s)",
    )


@pytest.mark.slow
def test_quantization_ablation(bench, verdict):
    """Shipping bits instead of floats moves the median accuracy <= 1.5pp."""
    runs = bench["runs"]
    gaps = [
        abs(runs[(INF, s)]["merged"] - runs[("unquantized", s)]["merged"])
        for s in BENCH_SEEDS
    ]
    gap_med = float(np.median(gaps))
    ok = gap_med <= 0.015
    verdict(
        "quantization ablation",
        ok,
        f"median |quantized - unquantized| gap {100 * gap_med:.2f}pp (<= 1.5pp)",
    )


@pytest.mark.slow
def test_split_inference_matches_monolithic(bench, verdict):
    """Split endpoints and the in-process forward agree on every sample."""
    entry = bench["runs"][(INF, 0)]
    model, params, buffers = entry["model"], entry["params"], entry["buffers"]
    data, cfg = entry["data"], entry["cfg"]
    t0 = time.perf_counter()

    (priv_p, priv_b), (pub_p, pub_b) = split_params(params, buffers)
    wire = Wire(MemoryChannel())
    private = PrivateEndpoint(model, priv_p, priv_b, BENCH_DCFG, cfg, wire)
    public = PublicEndpoint(model, pub_p, pub_b, cfg, wire)
    preds = run_split_inference(private, public, data.val_x, sigma=0.0)

    mono = np.empty_like(preds)
    for i, x in enumerate(np.asarray(data.val_x, dtype=np.float64)):
        bits, _ = private.inference_parts(x, VAL_STREAM_BASE + i, 0.0)
        mono[i] = forward_full(model, params, buffers, x, BENCH_DCFG, residual_bits=bits)[2]
    elapsed = time.perf_counter() - t0
    agree = int(np.sum(preds == mono))
    ok = agree == len(mono) and elapsed < 60.0
    verdict(
        "split equivalence",
        ok,
        f"{agree}/{len(mono)} validation predictions identical, {elapsed:.1f}s (< 60s)",
    )
