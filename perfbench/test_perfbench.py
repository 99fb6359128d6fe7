"""Tests for the benchmark's own pieces: the seeded generator, the self-time
arithmetic, the wrappers, and traced versus untraced outputs."""

import json
import os
import sys

import numpy as np
import pytest

import checks
import gen
import run
import tracer
from hypnopipe import cli, encoding, hypnodensity

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _files(directory):
    return {rel: checks.sha256(path) for rel, path in run.tree_files(directory).items()}


def test_generator_is_a_pure_function_of_the_seed(tmp_path):
    a, b, c = gen.night(3, 300.0), gen.night(3, 300.0), gen.night(4, 300.0)
    for role, ch in a.channels.items():
        assert np.array_equal(ch.samples, b.channels[role].samples)
        assert not np.array_equal(ch.samples, c.channels[role].samples)
    pa, ya = gen.cohort_arrays(3, 6, 0.5)
    pb, yb = gen.cohort_arrays(3, 6, 0.5)
    assert np.array_equal(pa, pb) and np.array_equal(ya, yb)

    gen.setup_night(3, str(tmp_path / "a"), 0.1, "cc", "FF")
    gen.setup_night(3, str(tmp_path / "b"), 0.1, "cc", "FF")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert len(first) > 16 * 10          # recording, ref, 16 members and the GP


def test_self_times_on_a_hand_built_span_tree():
    S = tracer.Span
    spans = [
        S("cli.main", -1, 0.0, 10.0),
        S("encoding.encode_recording", 0, 1.0, 4.0),
        S("encoding.cc_segment", 1, 2.0, 3.0),
        S("neuralnet.forward", 0, 5.0, 9.0),
        S("neuralnet.windows_from_encoded", 3, 6.0, 7.0),
        S("features.assemble", 3, 6.5, 8.0),        # overlaps its sibling
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])

    m = tracer.layer_metrics([spans])
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["encoding.self_s"] == pytest.approx(3.0)
    assert m["encoding.cc_segment.s"] == pytest.approx(1.0)
    assert m["neuralnet.forward.calls"] == 1
    assert m["trace.spans"] == 6
    # without overlap the self times of a tree add up to its root's duration
    tree = spans[:5]
    assert sum(tracer.self_times(tree)) == pytest.approx(10.0)


def test_wrappers_record_spans_and_restore_the_originals():
    layers = [sys.modules[f"hypnopipe.{name}"] for name in tracer.LAYERS]
    before = {(id(mod), k): v for mod in layers for k, v in vars(mod).items()}
    load = vars(encoding.EncodedRecording)["load"]
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.encode_recording is encoding.encode_recording
        assert cli.encode_recording is not before[(id(cli), "encode_recording")]
        assert vars(encoding.EncodedRecording)["load"] is not load
        hd = hypnodensity.Hypnodensity(probs=np.full((12, 5), 0.2), resolution_s=5)
        hypnodensity.to_hypnogram(hd, epoch_s=30)
        assert [s.name for s in t.spans] == ["hypnodensity.to_hypnogram"]
    finally:
        t.restore()
    after = {(id(mod), k): v for mod in layers for k, v in vars(mod).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert vars(encoding.EncodedRecording)["load"] is load


def test_traced_and_untraced_runs_write_identical_bundles(tmp_path):
    wl = run.NightCC()
    p = wl.setup(7, str(tmp_path / "inputs"), canary=True)
    env = run.child_env(ROOT)
    hashes = []
    for name, spans in (("plain", None), ("traced", str(tmp_path / "spans.json"))):
        out = str(tmp_path / name)
        (step,) = wl.steps(p, out)
        proc = run.launch(run.command(step, spans), str(tmp_path / f"{name}.log"), env)
        assert run.step_problems(step, proc) == []
        hashes.append(_files(out))
    assert len(hashes[0]) == 4 and hashes[0] == hashes[1]
    with open(tmp_path / "spans.json") as f:
        spans = [tracer.Span.from_list(s) for s in json.load(f)["spans"]]
    assert spans[0].name == "cli.main" and spans[0].parent == -1
    m = tracer.layer_metrics([spans])
    assert m["neuralnet.forward.calls"] == 16 and m["cli.calls"] == 1


def test_benchmark_json_lists_every_metric_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
