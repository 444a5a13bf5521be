"""The three workloads, the measurement loop and the metrics they report.

Each workload is closed-loop with one caller, in one process, and runs
against asymsplit's public API.  A workload has a set-up (data, model and,
for ``infer``, the endpoints), a *rep* -- a fixed unit of work that is
timed -- and checks that run after the rep, outside the timing:

``train``    one ``protocol.run_split_training`` at the acceptance shape
             (1600 training samples, batch 128, epsilon 0.5) with the same
             number of epochs in each stage, over the default MemoryChannel.
             It is the path ``asymsplit train`` runs; convolutions at batch
             128, forward and backward, dominate it.
``infer``    a block of requests, each one ``protocol.run_split_inference``
             call on one validation image through a SocketChannel.  Forward
             only at batch 1: a batch-128 convolution change that slows
             batch 1 shows here, and so does the per-sample decomposition.
``release``  the one-shot release of 8064 training samples, batch by batch:
             residuals from ``training.compute_residuals``, perturbed and
             quantized once by ``privacy.build_cache``, every sample's bits
             through ``protocol.Wire`` in phase cache-build.  The only
             workload where ``privacy`` does most of the work.

An *operation* is what one latency sample times: a split training step
(a stage-2 batch through both endpoints and over the wire) for ``train``,
a request for ``infer``, a release batch of 128 samples for ``release``.
Stage-1 steps are private-only and about half as long, so mixing them in
would put the median on the edge between two modes; their cost shows in
``samples_per_s``.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import platform
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import tracing

datasets = importlib.import_module("asymsplit.datasets")
decompose = importlib.import_module("asymsplit.decompose")
model_mod = importlib.import_module("asymsplit.model")
privacy = importlib.import_module("asymsplit.privacy")
protocol = importlib.import_module("asymsplit.protocol")
training = importlib.import_module("asymsplit.training")

EPSILON = 0.5
DELTA = 1e-6
DCFG = decompose.DecompositionConfig(r=4, t=8, t_prime=2, C=1.0)

TAIL = 90
MIN_BEYOND = 10
# nearest-rank p90 has MIN_BEYOND samples beyond it from this many on
MIN_LATENCIES = 100
# failures a rep can raise that the benchmark counts instead of dying on
OP_ERRORS = (training.TrainingDiverged, protocol.ProtocolViolation, ValueError)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, tests shrink them."""

    n: int = 2000              # train and infer data: 1600 train, 400 val
    batch: int = 128
    epochs: int = 1            # per stage, in each train rep
    infer_train: int = 384     # training samples behind the infer endpoints
    infer_block: int = 256     # requests per infer rep
    release_n: int = 10080     # release data: 8064 train samples released
    setups: int = 3            # set-ups per run; setup_s is their median
    check_every: int = 16      # infer requests / release batches per check


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, p: int, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank p-th percentile; refuses one with too few samples beyond.

    The rank is ceil(p * n / 100) in integer arithmetic, so p90 of 100
    samples is rank 90, with exactly ten samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, -(-p * n // 100))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{p} of {n} samples has {n - rank} beyond it, need {min_beyond}"
        )
    return xs[rank - 1]


def samples_beyond(n: int, p: int) -> int:
    return n - max(1, -(-p * n // 100))


# ---------------------------------------------------------------------------
# Measurement bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    """What one timed rep leaves for its checks."""

    seconds: float = 0.0
    samples: int = 0
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)


@dataclass
class Measurement:
    latencies: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    rep_seconds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wire_bytes: int = 0
    wire_samples: int = 0
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def ops(self, rep: Rep, count: int) -> None:
        """Count a rep's operations and the ones that raised."""
        self.attempted += count
        self.failed += len(rep.errors)
        self.failures.extend(repr(e) for e in rep.errors)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _merged(private, public):
    params = dict(private.params)
    params.update(public.params)
    buffers = dict(private.buffers)
    buffers.update(public.buffers)
    return params, buffers


def _model(seed: int):
    model = model_mod.Model(model_mod.default_spec(r=DCFG.r))
    params, buffers = model.init(seed)
    return model, params, buffers


def _train_config(sizes: Sizes, epochs: int, seed: int):
    return training.TrainConfig(
        ep1=epochs, ep2=epochs, batch_size=sizes.batch,
        epsilon=EPSILON, delta=DELTA, seed=seed,
    )


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class _CountingChannel(protocol.MemoryChannel):
    """The default in-memory channel, counting the bytes handed to it."""

    def __init__(self):
        super().__init__()
        self.nbytes = 0

    def send(self, sender, raw):
        self.nbytes += len(raw)
        super().send(sender, raw)


class _StepClock:
    """Timestamps the end of every private-side optimizer step.

    Every training batch makes exactly one private ``sgd_step`` (stage-1
    batch, or stage-2 merged-loss step after the public logits arrived),
    so consecutive ends delimit steps.  The hook sits at the binding the
    trainer looks up and costs one clock read per step of about 0.1 s.
    """

    def __init__(self):
        self.ends = []
        self._inner = None

    def __enter__(self):
        self._inner = inner = training.sgd_step
        ends = self.ends

        def clocked(params, grads, *rest):
            inner(params, grads, *rest)
            if not next(iter(grads), "").startswith("res/"):
                ends.append(perf_counter())

        training.sgd_step = clocked
        return self

    def __exit__(self, *exc):
        training.sgd_step = self._inner
        return False


class Train:
    name = "train"

    def setup(self, seed: int, sizes: Sizes):
        data = datasets.synthetic_dataset(n=sizes.n, seed=seed)
        model, params, buffers = _model(seed)
        cfg = _train_config(sizes, sizes.epochs, seed)
        return {"data": data, "model": model, "params": params,
                "buffers": buffers, "cfg": cfg, "sizes": sizes}

    def work(self, st) -> Rep:
        data, cfg = st["data"], st["cfg"]
        rep = Rep()
        channel = _CountingChannel()
        with _StepClock() as clock:
            start = perf_counter()
            try:
                # run_split_training copies params into the endpoints, so
                # every rep trains from the same initialisation
                result = protocol.run_split_training(
                    st["model"], st["params"], st["buffers"], data, DCFG, cfg,
                    channel=channel,
                )
            except OP_ERRORS as exc:
                rep.errors.append(exc)
                result = None
            rep.seconds = perf_counter() - start
        n = len(data.train_x)
        rep.samples = n * (cfg.ep1 + cfg.ep2)
        # split steps only: the interval ending at the first stage-2 step
        # also spans the release, so stage 2 is timed from that step on
        stage2 = clock.ends[cfg.ep1 * math.ceil(n / cfg.batch_size):]
        rep.latencies = [b - a for a, b in zip(stage2, stage2[1:])]
        rep.detail = {"result": result, "channel": channel}
        return rep

    def check(self, st, rep: Rep, m: Measurement) -> None:
        m.ops(rep, 1)
        result = rep.detail["result"]
        if result is None:
            return
        report, wire, private, public = result
        transcript = sum(e.nbytes for e in wire.transcript.entries)
        m.check(protocol.audit(wire.transcript).passed, "train: transcript audit failed")
        m.check(
            transcript == rep.detail["channel"].nbytes == sum(report.bytes_by_phase.values()),
            "train: transcript bytes differ from the bytes sent",
        )
        m.wire_bytes += transcript
        m.wire_samples += rep.samples
        st["last"] = (report, private, public)

    def finish(self, st, m: Measurement) -> None:
        if "last" not in st:
            return
        report, private, public = st["last"]
        params, buffers = _merged(private, public)
        data = st["data"]
        acc_main, acc_merged = training.evaluate(
            st["model"], params, buffers, data.val_x, data.val_y, DCFG, st["cfg"], report.sigma
        )
        m.info.update({
            "stage1_loss": report.stage1_loss[-1],
            "stage2_main_loss": report.stage2_main_loss[-1],
            "stage2_res_loss": report.stage2_res_loss[-1],
            "val_main_acc": acc_main,
            "val_merged_acc": acc_merged,
            "released_bits_sha256": _digest(public.store[i] for i in sorted(public.store)),
        })

    def close(self, st) -> None:
        pass


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

class Infer:
    name = "infer"

    def setup(self, seed: int, sizes: Sizes):
        data = datasets.synthetic_dataset(n=sizes.n, seed=seed)
        # endpoints from a short training on a slice of the training split
        part = datasets.Dataset(
            train_x=data.train_x[: sizes.infer_train], train_y=data.train_y[: sizes.infer_train],
            val_x=data.val_x, val_y=data.val_y, num_classes=data.num_classes,
        )
        model, params, buffers = _model(seed)
        cfg = _train_config(sizes, 1, seed)
        report, _, private, public = protocol.run_split_training(
            model, params, buffers, part, DCFG, cfg
        )
        wire = protocol.Wire(protocol.SocketChannel())
        private.wire = public.wire = wire
        return {"data": data, "model": model, "cfg": cfg, "sigma": report.sigma,
                "private": private, "public": public, "wire": wire, "sizes": sizes,
                "next": 0, "seen": 0, "correct": 0, "first_preds": None}

    def work(self, st) -> Rep:
        xs = st["data"].val_x
        private, public, sigma = st["private"], st["public"], st["sigma"]
        rep = Rep()
        asked = []
        start = perf_counter()
        for _ in range(st["sizes"].infer_block):
            i = st["next"] % len(xs)
            st["next"] += 1
            t = perf_counter()
            try:
                pred = protocol.run_split_inference(private, public, xs[i : i + 1], sigma=sigma)
            except OP_ERRORS as exc:
                rep.errors.append(exc)
                continue
            rep.latencies.append(perf_counter() - t)
            asked.append((i, int(pred[0])))
        rep.seconds = perf_counter() - start
        rep.samples = len(asked)
        rep.detail = {"asked": asked}
        return rep

    def check(self, st, rep: Rep, m: Measurement) -> None:
        asked = rep.detail["asked"]
        m.ops(rep, len(asked) + len(rep.errors))
        private, public, model = st["private"], st["public"], st["model"]
        xs = st["data"].val_x
        params, buffers = _merged(private, public)
        eval_sigma = st["sigma"] if st["cfg"].perturb_inference else 0.0
        for i, pred in asked[:: st["sizes"].check_every]:
            # every call restarts its noise streams, so each request
            # draws stream VAL_STREAM_BASE + 0
            bits, _ = private.inference_parts(xs[i], training.VAL_STREAM_BASE, eval_sigma)
            mono = model_mod.forward_full(model, params, buffers, xs[i], DCFG, residual_bits=bits)[2]
            m.check(mono == pred, f"infer: split prediction {pred} != forward_full {mono}")
        entries = st["wire"].transcript.entries
        m.wire_bytes += sum(e.nbytes for e in entries[st["seen"]:])
        m.wire_samples += len(asked)
        st["seen"] = len(entries)
        ys = st["data"].val_y
        st["correct"] += sum(int(ys[i] == pred) for i, pred in asked)
        if st["first_preds"] is None:
            st["first_preds"] = [pred for _, pred in asked]

    def finish(self, st, m: Measurement) -> None:
        m.check(protocol.audit(st["wire"].transcript).passed, "infer: transcript audit failed")
        if m.wire_samples:
            m.info["split_val_acc"] = st["correct"] / m.wire_samples
        if st["first_preds"] is not None:
            m.info["first_block_preds_sha256"] = _digest([np.array(st["first_preds"])])

    def close(self, st) -> None:
        st["wire"].channel.close()


# ---------------------------------------------------------------------------
# release
# ---------------------------------------------------------------------------

class Release:
    name = "release"

    def setup(self, seed: int, sizes: Sizes):
        data = datasets.synthetic_dataset(n=sizes.release_n, seed=seed)
        model, params, buffers = _model(seed)
        n = len(data.train_x)
        # calibrated as training.resolve_sigma does for a run of this size
        params_dp = privacy.calibrate(EPSILON, DELTA, min(1.0, sizes.batch / n), DCFG.C)
        return {"xs": data.train_x, "model": model, "params": params, "buffers": buffers,
                "privacy": params_dp, "seed": seed, "sizes": sizes}

    def work(self, st) -> Rep:
        xs, batch, seed = st["xs"], st["sizes"].batch, st["seed"]
        rep = Rep()
        wire = protocol.Wire()
        wire.phase = "cache-build"
        caches, received = [], {}
        start = perf_counter()
        for lo in range(0, len(xs), batch):
            t = perf_counter()
            try:
                res = training.compute_residuals(
                    st["model"], st["params"], st["buffers"], xs[lo : lo + batch], DCFG, batch
                )
                cache = privacy.build_cache(
                    {lo + j: r for j, r in res.items()}, st["privacy"], seed
                )
                for sid in cache.ids():
                    wire.send("private", protocol.Frame(
                        protocol.FrameKind.RESIDUAL_BITS, sid, cache.bits(sid)))
                    frame = wire.recv("public", expect=protocol.FrameKind.RESIDUAL_BITS)
                    received[frame.frame_id] = frame.data
            except OP_ERRORS as exc:
                rep.errors.append(exc)
                continue
            rep.latencies.append(perf_counter() - t)
            caches.append((lo, cache))
        rep.seconds = perf_counter() - start
        rep.samples = sum(len(c) for _, c in caches)
        rep.detail = {"wire": wire, "caches": caches, "received": received}
        return rep

    def check(self, st, rep: Rep, m: Measurement) -> None:
        caches, received = rep.detail["caches"], rep.detail["received"]
        wire = rep.detail["wire"]
        m.ops(rep, len(caches) + len(rep.errors))
        same = all(
            sid in received and received[sid].tobytes() == cache.bits(sid).tobytes()
            for _, cache in caches for sid in cache.ids()
        )
        m.check(same, "release: bits over the wire differ from build_cache bits")
        batch, C = st["sizes"].batch, DCFG.C
        for lo, _ in caches[:: st["sizes"].check_every]:
            res = training.compute_residuals(
                st["model"], st["params"], st["buffers"], st["xs"][lo : lo + batch], DCFG, batch
            )
            worst = max(float(np.linalg.norm(r)) for r in res.values())
            m.check(worst <= C + 1e-9, f"release: residual norm {worst} exceeds C={C}")
        m.check(protocol.audit(wire.transcript).passed, "release: transcript audit failed")
        m.wire_bytes += sum(e.nbytes for e in wire.transcript.entries)
        m.wire_samples += rep.samples
        m.info["released_bits_sha256"] = _digest(
            received[sid] for sid in sorted(received)
        )

    def finish(self, st, m: Measurement) -> None:
        pass

    def close(self, st) -> None:
        pass


WORKLOADS = {w.name: w for w in (Train(), Infer(), Release())}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def measure(wl, st, seconds: float, tracer=None, min_latencies: int = 0,
            m: Measurement | None = None) -> Measurement:
    """Run reps for ``seconds``, and on until ``min_latencies`` are in.

    The first rep warms up (allocator, caches) and is checked but not
    recorded; the measured time includes it.  The extension for
    ``min_latencies`` is capped at four times ``seconds``, so a workload
    whose operations keep failing still ends.
    """
    m = m if m is not None else Measurement()
    latencies = []
    start = perf_counter()
    warm = False
    while True:
        elapsed = perf_counter() - start
        if warm and elapsed >= seconds and (
            len(latencies) >= min_latencies or elapsed >= 4 * seconds
        ):
            break
        with tracer.span(tracing.ROOT) if tracer is not None and warm else nullcontext():
            rep = wl.work(st)
        wl.check(st, rep, m)
        if not warm:
            warm = True
            continue
        latencies.extend(rep.latencies)
        m.rep_seconds.append(rep.seconds)
        if rep.samples:
            m.rates.append(rep.samples / rep.seconds)
    m.latencies.extend(latencies)
    return m


def machine() -> dict:
    """The machine a result was measured on."""
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        info["blas"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        info["blas"] = None
    info["blas_threads"] = _blas_threads()
    info["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count OpenBLAS will use, asked of the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict           # name -> (value, unit)
    info: dict
    failures: list


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes(),
        spans_path=None) -> Result:
    """One benchmark run: set up ``sizes.setups`` times, then measure.

    Untraced, the run reports the end-to-end metrics.  Traced, it first
    measures half the time untraced and then half traced, and reports the
    per-layer metrics per traced rep plus the tracing overhead.
    """
    wl = WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    setup_times, st = [], None
    if tracer is not None:
        tracer.install()
    try:
        for _ in range(sizes.setups):
            if st is not None:
                wl.close(st)
            t = perf_counter()
            st = wl.setup(seed, sizes)
            setup_times.append(perf_counter() - t)
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        if tracer is None:
            m = measure(wl, st, seconds, min_latencies=MIN_LATENCIES)
        else:
            m = measure(wl, st, seconds / 2)
            untraced_reps = list(m.rep_seconds)
            m.rep_seconds.clear()
            tracer.install()
            try:
                measure(wl, st, seconds / 2, tracer, m=m)
            finally:
                tracer.uninstall()
        wl.finish(st, m)
    finally:
        wl.close(st)

    info = {"machine": machine(), "reps": len(m.rep_seconds), "ops": len(m.latencies)}
    info.update(m.info)
    if tracer is None:
        metrics = _end_to_end(m, setup_times, info)
    else:
        metrics = _per_layer(m, tracer, untraced_reps, sizes.setups, info)
        if spans_path is not None:
            tracing.write_spans(tracer, spans_path)
    info["error_rate"] = m.failed / max(1, m.attempted)
    return Result(m.failed == 0, max(1, m.attempted), m.failed, metrics, info, m.failures)


def _end_to_end(m: Measurement, setup_times, info) -> dict:
    lat = m.latencies
    enough = m.check(
        samples_beyond(len(lat), TAIL) >= MIN_BEYOND,
        f"only {len(lat)} latency samples: p{TAIL} needs {MIN_BEYOND} beyond it",
    )
    tail = percentile(lat, TAIL, MIN_BEYOND if enough else 0)
    if samples_beyond(len(lat), 99) >= MIN_BEYOND:
        info["latency_p99_ms"] = percentile(lat, 99) * 1e3
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "samples_per_s": (statistics.median(m.rates), "1/s"),
        "latency_p50_ms": (percentile(lat, 50, 0) * 1e3, "ms"),
        f"latency_p{TAIL}_ms": (tail * 1e3, "ms"),
        "wire_bytes_per_sample": (m.wire_bytes / max(1, m.wire_samples), "B"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _per_layer(m: Measurement, tracer, untraced_reps, setups: int, info) -> dict:
    values = tracing.layer_metrics(tracer, setups)
    traced = statistics.median(m.rep_seconds)
    values["trace.overhead_pct"] = 100.0 * (traced / statistics.median(untraced_reps) - 1.0)
    parts = sum(values[f"{mod}.self_s"] for mod in tracing.REP_MODULES) + values["trace.other_s"]
    m.check(
        math.isclose(parts, values["trace.rep_s"], rel_tol=1e-6),
        f"trace: module self times + other = {parts}, rep = {values['trace.rep_s']}",
    )
    info["traced_reps"] = len(m.rep_seconds)
    info["untraced_reps"] = len(untraced_reps)
    return {k: (v, _unit(k)) for k, v in values.items()}


def _unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.startswith("protocol.bytes"):
        return "B"
    if name.endswith("_s"):
        return "s"
    return "count"
