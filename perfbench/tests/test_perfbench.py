"""Tests of the benchmark's own arithmetic and of its reporting contract.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
from pathlib import Path

import pytest

import bench
import tracing

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
TINY = bench.Sizes(n=80, batch=8, epochs=1, infer_train=32, infer_block=8,
                   release_n=80, setups=1, check_every=2)


class TestPercentile:
    def test_nearest_rank_with_ten_beyond(self):
        values = list(range(1, 101))
        assert bench.percentile(values, 50) == 50
        assert bench.percentile(values, 90) == 90  # exactly ten beyond
        assert bench.samples_beyond(100, 90) == 10

    def test_refuses_fewer_than_ten_beyond(self):
        with pytest.raises(ValueError, match="9 beyond"):
            bench.percentile(range(99), 90)
        with pytest.raises(ValueError):
            bench.percentile(range(999), 99)
        assert bench.percentile(range(1000), 99) == 989

    def test_rank_is_exact_integer_arithmetic(self):
        # 0.95 * 200 is not exactly 190 in floating point
        assert bench.samples_beyond(200, 95) == 10
        assert bench.percentile(range(200), 95) == 189

    def test_order_does_not_matter(self):
        assert bench.percentile([5, 1, 4, 2, 3], 50, min_beyond=0) == 3


def _spans(rows):
    tracer = tracing.Tracer()
    tracer.spans = [[name, parent, start, end, None] for name, parent, start, end in rows]
    return tracer


class TestSelfTime:
    ROWS = [
        (tracing.ROOT, -1, 0.0, 10.0),
        ("training.loop", 0, 1.0, 6.0),
        ("numerics.conv_fwd", 1, 2.0, 3.0),
        ("numerics.im2col", 2, 2.2, 2.7),
        ("privacy.perturb", 0, 7.0, 9.0),
        ("datasets.synthetic", -1, 11.0, 12.0),
    ]

    def test_duration_minus_direct_children(self):
        own = tracing.self_times(_spans(self.ROWS).spans)
        assert own == pytest.approx([3.0, 4.0, 0.5, 0.5, 2.0, 1.0])

    def test_self_times_of_a_tree_sum_to_its_root(self):
        tracer = _spans(self.ROWS)
        inside = tracing.under_root(tracer.spans)
        assert inside == [True, True, True, True, True, False]
        own = tracing.self_times(tracer.spans)
        assert sum(o for o, i in zip(own, inside) if i) == pytest.approx(10.0)

    def test_layer_metrics_account_for_the_rep(self):
        tracer = _spans(self.ROWS)
        tracer.phase_events = [(1.0, "stage1", 0), (4.0, "stage2", 0)]
        out = tracing.layer_metrics(tracer, setups=1)
        assert out["numerics.self_s"] == pytest.approx(1.0)
        assert out["training.self_s"] == pytest.approx(4.0)
        assert out["trace.other_s"] == pytest.approx(3.0)
        modules = sum(out[f"{m}.self_s"] for m in tracing.REP_MODULES)
        assert modules + out["trace.other_s"] == pytest.approx(out["trace.rep_s"])
        assert out["numerics.conv_calls"] == 1
        assert out["datasets.synthetic_s"] == pytest.approx(1.0)
        # a phase runs to the next assignment or to the end of its span
        assert out["training.stage1_s"] == pytest.approx(3.0)
        assert out["training.stage2_s"] == pytest.approx(6.0)

    def test_tracer_spans_nest(self):
        tracer = tracing.Tracer()
        with tracer.span(tracing.ROOT):
            with tracer.span("protocol.driver"):
                pass
        assert [s[1] for s in tracer.spans] == [-1, 0]
        assert tracer.top == -1


class TestInstall:
    def test_wraps_the_bindings_callers_look_up(self):
        model = importlib.import_module("asymsplit.model")
        numerics = importlib.import_module("asymsplit.numerics")
        training = importlib.import_module("asymsplit.training")
        protocol = importlib.import_module("asymsplit.protocol")
        package = importlib.import_module("asymsplit")
        originals = (model.conv2d_forward_batch, training.decompose_batch,
                     protocol.perturb, package.decompose)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert model.conv2d_forward_batch is not originals[0]
            assert numerics.conv2d_forward_batch is model.conv2d_forward_batch
            assert training.decompose_batch is protocol.decompose_batch
            assert training.decompose_batch is not originals[1]
            assert protocol.perturb is not originals[2]
            layer = model.Conv2d("bb/conv", 1, 1, 1)
            params = {layer.key: bench.np.ones((1, 1, 1, 1))}
            with tracer.span(tracing.ROOT):
                layer.forward(params, {}, bench.np.ones((1, 1, 2, 2)), train=False)
            assert [s[0] for s in tracer.spans] == [
                tracing.ROOT, "model.bb.fwd", "numerics.conv_fwd", "numerics.im2col"]
        finally:
            tracer.uninstall()
        assert (model.conv2d_forward_batch, training.decompose_batch,
                protocol.perturb, package.decompose) == originals
        assert "phase" not in vars(protocol.Wire)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(workload, trace):
    result = bench.run(workload, seed=1, seconds=2.0, trace=trace, sizes=TINY)
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: unit for k, (_, unit) in result.metrics.items()} == expected
    assert result.correct, result.failures
    assert result.attempted >= 1 and result.failed == 0
    if not trace:
        assert all(value > 0 for value, _ in result.metrics.values())
