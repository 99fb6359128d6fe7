"""Recording and hypnogram file formats, plus synthetic recordings for tests.

A recording on disk is a ``store`` bundle: ``<id>.psgmeta.json`` (recording
id, duration, per-role sample rates) next to one little-endian float32 blob
per channel named ``<id>.<ROLE>.f32le``.  Hypnograms are plain text, one stage
token per line, preceded by an ``epoch_s=<int>`` header line.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptHeader,
    EmptyFile,
    InvalidSpec,
    InvalidValues,
    LengthMismatch,
    MissingBlob,
    MissingChannel,
)
from .store import read_bundle, read_text, write_bundle

ROLES = (
    "EEG_C_LEFT",
    "EEG_C_RIGHT",
    "EEG_O_LEFT",
    "EEG_O_RIGHT",
    "EOG_L",
    "EOG_R",
    "EMG_CHIN",
)

CENTRAL_EEG = ("EEG_C_LEFT", "EEG_C_RIGHT")
OCCIPITAL_EEG = ("EEG_O_LEFT", "EEG_O_RIGHT")

# Site roles used after channel selection collapses left/right candidates.
MONTAGE_ROLES = ("EEG_C", "EEG_O")

# Channels that must be present to run the full pipeline.
REQUIRED_FOR_PIPELINE = ("EOG_L", "EOG_R", "EMG_CHIN")

STAGES = ("W", "N1", "N2", "N3", "REM")
UNSCORED = "UNSCORED"
VALID_EPOCH_S = (5, 10, 15, 30)


@dataclass
class Channel:
    samples: np.ndarray  # microvolts, float64 in memory
    fs: float


@dataclass
class PolySignalSet:
    """Multi-channel raw recording with per-channel sample rates."""

    channels: dict[str, Channel]
    duration_s: float
    recording_id: str

    def validate(self, for_pipeline: bool = False) -> None:
        for role, ch in self.channels.items():
            if role not in ROLES and role not in MONTAGE_ROLES:
                raise CorruptHeader(f"unknown channel role {role!r}")
            if ch.fs <= 0:
                raise CorruptHeader(f"{role}: fs must be > 0, got {ch.fs}")
            expect = round(ch.fs * self.duration_s)
            if abs(len(ch.samples) - expect) > 1:
                raise LengthMismatch(
                    f"{role}: {len(ch.samples)} samples, expected {expect}±1"
                )
            finite = np.isfinite(ch.samples)
            if not finite.all():
                raise InvalidValues(f"{role}: non-finite sample at index "
                                    f"{int(np.argmin(finite))}")
        if for_pipeline:
            if not any(r in self.channels for r in CENTRAL_EEG):
                raise MissingChannel("EEG_C_LEFT|EEG_C_RIGHT")
            for role in REQUIRED_FOR_PIPELINE:
                if role not in self.channels:
                    raise MissingChannel(role)


@dataclass
class HypnogramLabels:
    stages: list[str]
    epoch_s: int = 30

    def __post_init__(self):
        if self.epoch_s not in VALID_EPOCH_S:
            raise InvalidSpec(f"epoch_s must be one of {VALID_EPOCH_S}")
        if len(self.stages) < 1:
            raise EmptyFile("hypnogram has no epochs")


def save_recording(psg: PolySignalSet, directory: str) -> str:
    """Write the recording as a bundle (see ``store``); returns the meta path."""
    psg.validate()
    return write_bundle(
        os.path.join(directory, f"{psg.recording_id}.psgmeta.json"),
        {role: ch.samples for role, ch in psg.channels.items()},
        {"recording_id": psg.recording_id, "duration_s": psg.duration_s,
         "channels": {role: {"fs": ch.fs} for role, ch in psg.channels.items()}})


def load_recording(path: str) -> PolySignalSet:
    """Load a recording from its ``.psgmeta.json`` path."""
    try:
        arrays, meta = read_bundle(path)
    except MissingBlob as e:
        raise MissingChannel(e.key) from e
    try:
        channels = {role: Channel(samples=arrays[role], fs=float(info["fs"]))
                    for role, info in meta["channels"].items()}
        psg = PolySignalSet(channels=channels, duration_s=float(meta["duration_s"]),
                            recording_id=meta["recording_id"])
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise CorruptHeader(f"{path}: {e!r}") from e
    psg.validate()
    return psg


def synth_recording(spec: dict, seed: int, duration_s: float,
                    recording_id: str = "synthetic") -> PolySignalSet:
    """Deterministic synthetic recording.

    ``spec`` maps role -> {"fs": Hz, "sinusoids": [(freq_hz, amp_uv), ...],
    "noise_sigma": uv}.  Pure function of (spec, seed, duration_s).
    """
    if duration_s <= 0:
        raise InvalidSpec("duration_s must be > 0")
    channels = {}
    for i, (role, chspec) in enumerate(sorted(spec.items())):
        fs = float(chspec["fs"])
        if fs <= 0:
            raise InvalidSpec(f"{role}: fs must be > 0")
        n = round(fs * duration_s)
        t = np.arange(n) / fs
        x = np.zeros(n)
        for freq, amp in chspec.get("sinusoids", []):
            if amp < 0:
                raise InvalidSpec(f"{role}: negative amplitude")
            x += amp * np.sin(2.0 * np.pi * freq * t)
        sigma = chspec.get("noise_sigma", 0.0)
        if sigma < 0:
            raise InvalidSpec(f"{role}: negative noise sigma")
        if sigma > 0:
            # per-channel stream so adding channels does not shift others
            rng = np.random.default_rng([seed, i])
            x += sigma * rng.standard_normal(n)
        channels[role] = Channel(samples=x, fs=fs)
    return PolySignalSet(channels=channels, duration_s=duration_s,
                         recording_id=recording_id)


def save_hypnogram(hyp: HypnogramLabels, path: str) -> None:
    with open(path, "w") as f:
        f.write(f"epoch_s={hyp.epoch_s}\n")
        for s in hyp.stages:
            f.write(s + "\n")


def load_hypnogram(path: str) -> HypnogramLabels:
    lines = [ln.strip() for ln in read_text(path).split("\n") if ln.strip()]
    if not lines:
        raise EmptyFile(path)
    epoch_s = 30
    if lines and lines[0].startswith("epoch_s="):
        try:
            epoch_s = int(lines[0].split("=", 1)[1])
        except ValueError as e:
            raise CorruptHeader(lines[0]) from e
        lines = lines[1:]
    if not lines:
        raise EmptyFile(path)
    stages = [tok if tok in STAGES else UNSCORED for tok in lines]
    return HypnogramLabels(stages=stages, epoch_s=epoch_s)
