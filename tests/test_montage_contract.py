"""The montage contract: one rate (``preprocess.TARGET_FS``) and one sample
count, both settled in ``encode_recording`` and nowhere else; past
resampling no function takes a rate."""

import ast
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypnopipe import encoding, neuralnet, signal_io
from hypnopipe.errors import HypnopipeError
from hypnopipe.preprocess import TARGET_FS, preprocess_recording

from conftest import synth_recording

# 314.159 Hz is 100000/314159 of the target rate, beyond the resampler's
# limit_denominator(10000): its output length is padded or cut to the target
RAW_RATES = (200.0, 256.0, 500.0, 512.0, 314.159)
CC_ROLES = ("EEG_C", "EOG_L", "EOG_R", "EMG_CHIN")


def cc_windows_held(n):
    """5 s CC windows in n samples: window w ends with the 4 s EOG segment
    of grid row 20w + 19, which starts at sample 25 * (20w + 19)."""
    return (n - 875) // 500 + 1 if n >= 875 else 0


@settings(max_examples=40, deadline=None)
@given(fs=st.sampled_from(RAW_RATES), duration_s=st.integers(1_000, 400_000),
       trims=st.lists(st.integers(0, 1), min_size=7, max_size=7),
       segment_s=st.sampled_from((5, 10)))
# 31 raw samples pass band-limiting and leave 12 at 100 Hz, too few to filter
@example(fs=256.0, duration_s=1_200, trims=[0] * 7, segment_s=5)
def test_windows_are_what_the_shortest_channel_holds(fs, duration_s, trims, segment_s):
    # 0.1 to 40 s to 0.1 ms, so one raw sample less can cost a 100 Hz sample
    duration_s /= 10_000
    spec = {role: {"fs": fs, "sinusoids": [(7.0, 20.0)], "noise_sigma": 5.0}
            for role in signal_io.ROLES}
    psg = synth_recording(spec, seed=1, duration_s=duration_s)
    for trim, ch in zip(trims, psg.channels.values()):
        ch.samples = ch.samples[:len(ch.samples) - trim]
    try:
        montage, _ = preprocess_recording(psg, None, encoding.MONTAGE["octave"])
    except HypnopipeError:               # typed, and only when nothing fits
        assert duration_s < segment_s
        return
    lengths = {role: len(ch.samples) for role, ch in montage.channels.items()}
    per_window = segment_s // encoding.CC_WINDOW_S
    expected = {"octave": min(lengths.values()) // round(segment_s * TARGET_FS),
                "cc": cc_windows_held(min(lengths[r] for r in CC_ROLES)) // per_window}
    for mode in encoding.MODES:
        try:
            batch = neuralnet.windows_from_encoded(
                encoding.encode_recording(montage, mode), segment_s)
        except HypnopipeError:           # typed, and only when nothing fits
            assert expected[mode] == 0, mode
            continue
        assert {len(x) for x in batch.values()} == {expected[mode]}, mode


def test_encoding_and_neuralnet_name_no_rate_of_their_own():
    """100 Hz is stated once, as ``preprocess.TARGET_FS``."""
    src = Path(encoding.__file__).parent
    offenders = [(name, node.lineno) for name in ("encoding.py", "neuralnet.py")
                 for node in ast.walk(ast.parse((src / name).read_text()))
                 if isinstance(node, ast.Constant) and type(node.value) in (int, float)
                 and node.value == 100]
    assert offenders == []


def test_encoding_and_neuralnet_take_no_rate():
    """Every channel past resampling is at ``preprocess.TARGET_FS``."""
    src = Path(encoding.__file__).parent
    offenders = []
    for name in ("encoding.py", "neuralnet.py"):
        for node in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                offenders += [(name, node.lineno) for arg in
                              a.posonlyargs + a.args + a.kwonlyargs if arg.arg == "fs"]
            elif isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "fs":
                offenders.append((name, node.lineno))
    assert offenders == []


def test_the_cc_input_shapes_are_the_encoder_lags():
    enc = encoding.encode_recording(
        signal_io.PolySignalSet(
            channels={r: signal_io.Channel(np.ones(1200), TARGET_FS) for r in CC_ROLES},
            duration_s=12.0, recording_id="r"), "cc")
    shapes = neuralnet.modality_shapes_for("cc", 5)
    assert shapes == neuralnet.NetworkConfig().modality_shapes
    assert shapes == {"EEG": (1, enc.tensors["EEG"].shape[1]),
                      "EOG": (3, enc.tensors["EOG_L"].shape[1]),
                      "EMG": (1, enc.tensors["EMG"].shape[1])}
