"""Span tracing of asymsplit's public entry points, from outside the package.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces each
traced function at every binding a caller looks it up through -- modules
import functions by name, so ``training.decompose_batch`` and
``protocol.decompose_batch`` are separate bindings of one function, and
patching only the defining module would record nothing.  Methods are
patched on their classes.  :func:`uninstall` puts every original back.

A span is ``[name, parent, start, end, counted]``, where ``counted`` is
None or a ``(counter, amount)`` pair taken from the call's arguments.
Spans stay in memory while the benchmark runs; :func:`layer_metrics`
reduces them at the end, and :func:`write_spans` writes them out.  A span's self time is its duration
minus the durations of its direct children (calls are synchronous, so
children never overlap).
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT = "trace.rep"

# (module, function, span name, counter) -- counter maps the call's
# arguments to (count name, amount), or is None.
_FUNCTIONS = (
    ("numerics", "conv2d_forward_batch", "numerics.conv_fwd", None),
    ("numerics", "conv2d_backward_batch", "numerics.conv_bwd", None),
    ("numerics", "im2col", "numerics.im2col", None),
    ("numerics", "col2im", "numerics.col2im", None),
    ("decompose", "decompose_batch", "decompose.batch",
     lambda a, k: ("decompose.samples", len(a[0]))),
    ("decompose", "decompose_main_batch", "decompose.main_batch",
     lambda a, k: ("decompose.samples", len(a[0]))),
    ("decompose", "decompose_main_adjoint", "decompose.main_adjoint", None),
    ("privacy", "perturb", "privacy.perturb", None),
    ("privacy", "quantize", "privacy.quantize", None),
    ("privacy", "build_cache", "privacy.build_cache", None),
    ("protocol", "encode_frame", "protocol.encode", None),
    ("protocol", "decode_frame", "protocol.decode", None),
    ("protocol", "run_split_training", "protocol.driver", None),
    ("protocol", "run_split_inference", "protocol.driver", None),
    ("training", "run_stage1", "training.loop", None),
    ("training", "compute_residuals", "training.loop", None),
    ("training", "sgd_step", "training.sgd_step", None),
    ("datasets", "synthetic_dataset", "datasets.synthetic", None),
)


def _bytes_sent(args, kwargs):
    _, sender, raw = args
    return ("protocol.bytes_to_public" if sender == "private"
            else "protocol.bytes_to_private", len(raw))


# (module, class, method, span name or a function of the instance)
_METHODS = (
    ("model", "Model", "forward_backbone", "model.branch"),
    ("model", "Model", "backward_backbone", "model.branch"),
    ("model", "Model", "forward_main", "model.branch"),
    ("model", "Model", "backward_main", "model.branch"),
    ("model", "Model", "forward_res", "model.branch"),
    ("model", "Model", "backward_res", "model.branch"),
    ("model", "ResBlock", "forward", lambda s: f"model.{_dotted(s.prefix)}.fwd"),
    ("model", "ResBlock", "backward", lambda s: f"model.{_dotted(s.prefix)}.bwd"),
    ("model", "Linear", "forward", lambda s: f"model.{_dotted(s.prefix)}.fwd"),
    ("model", "Linear", "backward", lambda s: f"model.{_dotted(s.prefix)}.bwd"),
    # the backbone is one Conv2d; convs inside blocks belong to their block
    ("model", "Conv2d", "forward", lambda s: "model.bb.fwd" if s.prefix == "bb/conv" else None),
    ("model", "Conv2d", "backward", lambda s: "model.bb.bwd" if s.prefix == "bb/conv" else None),
    ("model", "ChannelNorm", "forward", "model.norm.fwd"),
    ("model", "ChannelNorm", "backward", "model.norm.bwd"),
    ("training", "Stage2Private", "prepare", "training.loop"),
    ("training", "Stage2Private", "finish", "training.loop"),
    ("training", "Stage2Public", "logits", "training.loop"),
    ("training", "Stage2Public", "apply_gradient", "training.loop"),
    ("protocol", "PrivateEndpoint", "inference_parts", "protocol.endpoint"),
    ("protocol", "PublicEndpoint", "res_logits", "protocol.endpoint"),
    ("protocol", "MemoryChannel", "send", "protocol.send"),
    ("protocol", "MemoryChannel", "recv", "protocol.recv"),
    ("protocol", "SocketChannel", "send", "protocol.send"),
    ("protocol", "SocketChannel", "recv", "protocol.recv"),
)

MODULES = ("numerics", "model", "decompose", "privacy", "protocol", "training", "datasets")
# the modules whose spans run inside a rep; datasets only runs in set-up
REP_MODULES = MODULES[:-1]


def _dotted(prefix: str) -> str:
    return prefix.replace("/", ".")


def _module(name: str):
    # importlib, not ``import asymsplit.decompose as m``: the package
    # re-exports the function ``decompose`` under the submodule's name
    return importlib.import_module(f"asymsplit.{name}")


class Tracer:
    """In-memory spans, the open-span stack top, and wire-phase events."""

    def __init__(self):
        self.spans = []
        self.top = -1
        self.phase_events = []  # (time, phase, enclosing span index)
        self._restore = []

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        parent = self.top
        record = [name, parent, perf_counter(), 0.0, None]
        self.top = len(self.spans)
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self.top = parent

    def _wrap(self, fn, name, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args[0]) if callable(name) else name
            if span_name is None:
                return fn(*args, **kwargs)
            counted = None if counter is None else counter(args, kwargs)
            spans = tracer.spans
            parent = tracer.top
            record = [span_name, parent, perf_counter(), 0.0, counted]
            tracer.top = len(spans)
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                tracer.top = parent

        return traced

    def install(self) -> None:
        """Patch every traced entry point until :meth:`uninstall`."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {name: _module(name) for name in MODULES}
        bindings = [importlib.import_module("asymsplit")] + list(mods.values())
        for mod_name, fn_name, span_name, counter in _FUNCTIONS:
            original = getattr(mods[mod_name], fn_name)
            traced = self._wrap(original, span_name, counter)
            for mod in bindings:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, traced)
        for mod_name, cls_name, method, span_name in _METHODS:
            cls = getattr(mods[mod_name], cls_name)
            original = cls.__dict__[method]
            # only the channel classes have a traced "send"
            counter = _bytes_sent if method == "send" else None
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(original, span_name, counter))
        self._install_phase_property(mods["protocol"].Wire)

    def _install_phase_property(self, wire_cls) -> None:
        # Wire.phase is a plain instance attribute; a class property sees
        # every assignment, so phase boundaries are recorded without
        # touching the driver.  The value stays in the instance dict, where
        # it is found again once the property is removed.
        tracer = self

        def get(wire):
            return wire.__dict__["phase"]

        def set_(wire, value):
            wire.__dict__["phase"] = value
            tracer.phase_events.append((perf_counter(), value, tracer.top))

        wire_cls.phase = property(get, set_)
        self._restore.append((wire_cls, "phase", None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore = []


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def under_root(spans, root: str = ROOT):
    """Which spans are a ``root`` span or descend from one."""
    inside = []
    for name, parent, *_ in spans:
        # parents are appended before their children
        inside.append(name == root or (parent >= 0 and inside[parent]))
    return inside


# every per-layer metric, in report order; values are per traced rep
LAYER_TIMES = (
    "numerics.conv_fwd", "numerics.conv_bwd", "numerics.im2col", "numerics.col2im",
    "model.bb.fwd", "model.bb.bwd",
    "model.main.b0.fwd", "model.main.b0.bwd", "model.main.b1.fwd", "model.main.b1.bwd",
    "model.main.fc.fwd", "model.main.fc.bwd",
    "model.res.b0.fwd", "model.res.b0.bwd", "model.res.b1.fwd", "model.res.b1.bwd",
    "model.res.fc.fwd", "model.res.fc.bwd",
    "model.norm.fwd", "model.norm.bwd", "model.branch",
    "decompose.batch", "decompose.main_batch", "decompose.main_adjoint",
    "privacy.perturb", "privacy.quantize", "privacy.build_cache",
    "protocol.encode", "protocol.decode", "protocol.send", "protocol.recv",
    "protocol.endpoint", "protocol.driver",
    "training.sgd_step", "training.loop",
)
COUNTS = (
    "numerics.conv_calls", "decompose.samples", "privacy.perturb_calls",
    "protocol.frames", "protocol.bytes_to_public", "protocol.bytes_to_private",
    "training.steps",
)
PHASES = {"stage1": "training.stage1_s", "cache-build": "training.release_s",
          "stage2": "training.stage2_s"}
_SPAN_COUNTS = {"numerics.conv_calls": ("numerics.conv_fwd", "numerics.conv_bwd"),
                "privacy.perturb_calls": ("privacy.perturb",),
                "protocol.frames": ("protocol.send",),
                "training.steps": ("training.sgd_step",)}


def layer_metrics(tracer: Tracer, setups: int):
    """Reduce the traced reps to per-rep self times, counts and phase times.

    Only spans inside a ``trace.rep`` root count, except the dataset
    generator, which runs in set-up and is reported per set-up.  The root's
    self time is the part of a rep no traced layer covers, so the module
    self times plus ``trace.other_s`` add up to ``trace.rep_s``.
    """
    spans = tracer.spans
    own = self_times(spans)
    inside = under_root(spans)
    reps = sum(1 for s in spans if s[0] == ROOT)
    if reps == 0:
        raise ValueError("no traced rep recorded")
    totals = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    synthetic = 0.0
    for i, (name, _, start, end, counted) in enumerate(spans):
        if name == "datasets.synthetic":
            synthetic += end - start
        if not inside[i]:
            continue
        totals[name] += own[i]
        calls[name] += 1
        if counted is not None:
            counts[counted[0]] += counted[1]
        if name == ROOT:
            totals["trace.rep_total"] += end - start

    out = {f"{name}_s": totals[name] / reps for name in LAYER_TIMES}
    for key, names in _SPAN_COUNTS.items():
        counts[key] = sum(calls[n] for n in names)
    for key in COUNTS:
        out[key] = counts[key] / reps
    for module in REP_MODULES:
        out[f"{module}.self_s"] = sum(
            v for k, v in totals.items() if k.startswith(module + ".")
        ) / reps
    out["datasets.synthetic_s"] = synthetic / setups
    out["trace.other_s"] = totals[ROOT] / reps
    out["trace.rep_s"] = totals["trace.rep_total"] / reps
    out.update(_phase_times(tracer, inside, reps))
    return out


def _phase_times(tracer: Tracer, inside, reps: int):
    """Wall time between wire-phase assignments, per rep.

    A phase runs from its assignment to the next assignment made from the
    same span, or to that span's end.
    """
    spans = tracer.spans
    by_span = defaultdict(list)
    for when, phase, top in tracer.phase_events:
        if top >= 0 and inside[top]:
            by_span[top].append((when, phase))
    out = {metric: 0.0 for metric in PHASES.values()}
    for top, events in by_span.items():
        ends = [when for when, _ in events[1:]] + [spans[top][3]]
        for (when, phase), end in zip(events, ends):
            if phase in PHASES:
                out[PHASES[phase]] += end - when
    return {k: v / reps for k, v in out.items()}


def write_spans(tracer: Tracer, path) -> None:
    """Write every span as CSV: index, name, parent, start and end in ns."""
    with open(path, "w") as fh:
        fh.write("index,name,parent,start_ns,end_ns\n")
        for i, (name, parent, start, end, _) in enumerate(tracer.spans):
            fh.write(f"{i},{name},{parent},{int(start * 1e9)},{int(end * 1e9)}\n")
