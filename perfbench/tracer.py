"""Spans around the public functions and methods of the hypnopipe modules.

``Tracer.install`` wraps every public function and method that a layer module
defines, and rebinds each name in every loaded hypnopipe module that holds the
original (``cli.encode_recording`` as well as ``encoding.encode_recording``).
The trace therefore follows whatever composition of the layers the entry
points use, with no edit here.  Spans are kept in memory; ``restore`` puts
every original back.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("signal_io", "preprocess", "encoding", "neuralnet", "hypnodensity",
          "features", "diagnosis", "plot", "cli")


@dataclass
class Span:
    name: str            # "<layer>.<function>" or "<layer>.<Class>.<method>"
    parent: int          # index of the enclosing span in the same process, -1 at the top
    start: float
    end: float = 0.0
    rss_gain_mb: float = 0.0
    counts: dict = field(default_factory=dict)

    def to_list(self) -> list:
        return [self.name, self.parent, self.start, self.end, self.rss_gain_mb, self.counts]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ counters
# Counts and sizes come from a call's arguments and return value only, so they
# repeat exactly from run to run.

def _count_load_recording(args, psg):
    n = sum(ch.samples.size for ch in psg.channels.values())
    return {"signal_io.read_mb": n * 4 / 1e6}      # blobs are float32 on disk


def _count_encode_recording(args, enc):
    out = {"encoding.tensor_mb": sum(t.nbytes for t in enc.tensors.values()) / 1e6}
    if enc.mode == "cc":
        out["encoding.cc_rows"] = sum(t.shape[0] for t in enc.tensors.values())
    return out


def _count_forward(args, result):
    batch = args["batch"]
    return {"neuralnet.windows_scored": result[0].shape[0],
            "neuralnet.input_mb": sum(np.asarray(v).nbytes for v in batch.values()) / 1e6}


def _count_rfe(args, result):
    # columns removed per fold (non-constant inputs down to the target) x folds
    X = np.asarray(args["X"], dtype=float)
    live = int((X.std(axis=0) > 1e-12).sum())
    return {"diagnosis.rfe.eliminations": args["folds"] * max(live - result.target_count, 0)}


COUNTERS = {
    "signal_io.load_recording": _count_load_recording,
    "encoding.encode_recording": _count_encode_recording,
    "neuralnet.forward": _count_forward,
    "diagnosis.rfe": _count_rfe,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span recorded around every call."""
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, 0.0)
            spans.append(span)
            stack.append(len(spans) - 1)
            rss0 = _maxrss_mb()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss_gain_mb = _maxrss_mb() - rss0
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "hypnopipe") -> None:
        """Wrap the public surface of each layer module of ``package``."""
        wrapped = {}                       # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self.wrap(name, raw))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ------------------------------------------------------------------ analysis

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - _covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


# Named per-layer metrics, besides "<layer>.self_s" for every layer.  A "*.s"
# metric sums the self time of the spans it maps to, a "*.calls" metric counts
# them; the rest are the counters above and the layers' RSS gains.
SELF_S = {
    "signal_io.load_recording.s": ("signal_io.load_recording",),
    "signal_io.save_recording.s": ("signal_io.save_recording",),
    "preprocess.preprocess_recording.s": ("preprocess.preprocess_recording",),
    "preprocess.bandlimit.s": ("preprocess.bandlimit",),
    "preprocess.resample.s": ("preprocess.resample",),
    "preprocess.select_eeg_channel.s": ("preprocess.select_eeg_channel",),
    "encoding.encode_recording.s": ("encoding.encode_recording",),
    "encoding.cc_segment.s": ("encoding.cc_segment",),
    "encoding.cc_scale.s": ("encoding.cc_scale",),
    "encoding.octave_encode.s": ("encoding.octave_encode",),
    "encoding.robust_p95.s": ("encoding.robust_p95",),
    "encoding.EncodedRecording.save.s": ("encoding.EncodedRecording.save",),
    "encoding.EncodedRecording.load.s": ("encoding.EncodedRecording.load",),
    "neuralnet.load_params.s": ("neuralnet.load_params",),
    "neuralnet.windows_from_encoded.s": ("neuralnet.windows_from_encoded",),
    "neuralnet.forward.s": ("neuralnet.forward",),
    "hypnodensity.ensemble_hypnodensity.s": ("hypnodensity.ensemble_hypnodensity",),
    "hypnodensity.aggregate_resolution.s": ("hypnodensity.aggregate_resolution",),
    "hypnodensity.to_hypnogram.s": ("hypnodensity.to_hypnogram",),
    "hypnodensity.csv.s": ("hypnodensity.Hypnodensity.to_csv",
                           "hypnodensity.Hypnodensity.from_csv",
                           "hypnodensity.EnsembleHypnodensity.to_csv"),
    "features.assemble.s": ("features.assemble",),
    "features.combo_descriptors.s": ("features.combo_descriptors",),
    "features.hypnodensity_peaks.s": ("features.hypnodensity_peaks",),
    "features.sorem_analysis.s": ("features.sorem_analysis",),
    "diagnosis.rfe.s": ("diagnosis.rfe",),
    "diagnosis.gp_fit.s": ("diagnosis.gp_fit",),
    "diagnosis.gp_predict.s": ("diagnosis.gp_predict",),
    "diagnosis.GPModel.load.s": ("diagnosis.GPModel.load",),
    "diagnosis.evaluate.s": ("diagnosis.evaluate",),
    "plot.hypnodensity_svg.s": ("plot.hypnodensity_svg",),
}
CALLS = {
    "neuralnet.windows_from_encoded.calls": "neuralnet.windows_from_encoded",
    "neuralnet.forward.calls": "neuralnet.forward",
    "features.assemble.calls": "features.assemble",
    "cli.calls": "cli.main",
}
COUNTS_MB = ("signal_io.read_mb", "encoding.tensor_mb", "neuralnet.input_mb")
COUNTS = ("encoding.cc_rows", "neuralnet.windows_scored", "diagnosis.rfe.eliminations")
RSS_GAIN = ("preprocess", "encoding", "neuralnet")


def per_layer_units() -> dict[str, str]:
    """Every metric ``layer_metrics`` returns, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({name: "s" for name in SELF_S})
    units.update({name: "count" for name in CALLS})
    units.update({name: "MB" for name in COUNTS_MB})
    units.update({name: "count" for name in COUNTS})
    units.update({f"{layer}.rss_gain_mb": "MB" for layer in RSS_GAIN})
    units["trace.spans"] = "count"
    return units


def layer_metrics(processes: list[list[Span]]) -> dict[str, float]:
    """Per-layer metrics over the spans of one traced run (one list per process).

    ``<layer>.rss_gain_mb`` sums the peak-RSS rise over the layer's outermost
    spans; ru_maxrss only grows, so nested spans would count twice.
    """
    out = {name: 0.0 for name in per_layer_units()}
    by_name = defaultdict(float)
    calls = defaultdict(int)
    for spans in processes:
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            layer = _layer(span.name)
            by_name[span.name] += own
            calls[span.name] += 1
            out[f"{layer}.self_s"] += own
            for key, value in span.counts.items():
                out[key] += value
            if layer in RSS_GAIN:
                p = span.parent
                while p >= 0 and _layer(spans[p].name) != layer:
                    p = spans[p].parent
                if p < 0:
                    out[f"{layer}.rss_gain_mb"] += span.rss_gain_mb
        out["trace.spans"] += len(spans)
    for metric, sources in SELF_S.items():
        out[metric] = sum(by_name[s] for s in sources)
    for metric, source in CALLS.items():
        out[metric] = calls[source]
    return out
