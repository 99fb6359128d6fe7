"""Recording and hypnogram file formats.

A recording on disk is a ``store`` bundle: ``<id>.psgmeta.json`` (recording
id, duration, per-role sample rates) next to one little-endian float32 blob
per channel named ``<id>.<ROLE>.f32le``.  Hypnograms are plain text, one stage
token per line, preceded by an ``epoch_s=<int>`` header line.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CorruptHeader,
    EmptyFile,
    InvalidSpec,
    LengthMismatch,
    MissingBlob,
    MissingChannel,
)
from .store import (bundle, check_finite, is_file_name, is_number, read_bundle, read_text,
                    write_files)

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

# Montage sites, each made from one of its left/right candidates by selection.
SITES = {"EEG_C": CENTRAL_EEG, "EEG_O": OCCIPITAL_EEG}

STAGES = ("W", "N1", "N2", "N3", "REM")
UNSCORED = "UNSCORED"
VALID_EPOCH_S = (5, 10, 15, 30)


@dataclass
class Channel:
    samples: np.ndarray  # microvolts; float32 as stored, float64 as preprocess makes it
    fs: float


@dataclass
class PolySignalSet:
    """Multi-channel raw recording with per-channel sample rates."""

    channels: dict[str, Channel]
    duration_s: float
    recording_id: str
    # role -> the read-only samples known finite (``keep_finite``)
    _finite: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def validate(self) -> None:
        """``CorruptHeader`` for a ``recording_id`` that is not a bare file
        name (outputs are named after it) or a ``duration_s`` not in (0, inf);
        ``CorruptHeader`` (among them an ``fs`` whose sample count overflows),
        ``LengthMismatch`` or ``InvalidValues`` (a
        non-finite sample) for a channel that breaks the recording's contract.
        Samples ``load_recording`` read are not scanned again: ``read_bundle``
        checked every value, and they are read-only."""
        if not is_file_name(self.recording_id):
            raise CorruptHeader(f"recording_id {self.recording_id!r} is not a bare file name")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise CorruptHeader(f"duration_s must be finite and > 0, got {self.duration_s}")
        for role, ch in self.channels.items():
            if role not in ROLES and role not in SITES:
                raise CorruptHeader(f"unknown channel role {role!r}")
            if not (math.isfinite(ch.fs) and ch.fs > 0):
                raise CorruptHeader(f"{role}: fs must be finite and > 0, got {ch.fs}")
            if not math.isfinite(ch.fs * self.duration_s):
                raise CorruptHeader(f"{role}: fs * duration_s overflows "
                                    f"({ch.fs} * {self.duration_s})")
            expect = round(ch.fs * self.duration_s)
            if abs(len(ch.samples) - expect) > 1:
                raise LengthMismatch(
                    f"{role}: {len(ch.samples)} samples, expected {expect}±1"
                )
            if not self.known_finite(role):
                check_finite(ch.samples, role)

    def keep_finite(self, role: str, samples: np.ndarray) -> None:
        """Hold ``samples``, already checked finite, as ``role``'s, read-only,
        so that ``validate`` and ``encode_recording`` do not scan them again."""
        samples.flags.writeable = False
        self.channels[role].samples = self._finite[role] = samples

    def known_finite(self, role: str) -> bool:
        """Whether ``role``'s samples are the ones ``keep_finite`` holds, so need
        no scan for non-finite values; any others (replaced since) do."""
        return self.channels[role].samples is self._finite.get(role)


@dataclass
class HypnogramLabels:
    stages: list[str]
    epoch_s: int = 30

    def __post_init__(self):
        if self.epoch_s not in VALID_EPOCH_S:
            raise InvalidSpec(f"epoch_s must be one of {VALID_EPOCH_S}")
        if len(self.stages) < 1:
            raise EmptyFile("hypnogram has no epochs")


def recording_files(psg: PolySignalSet, directory: str) -> dict:
    """The files of the recording's bundle, for ``write_files``: the manifest last."""
    psg.validate()
    return bundle(
        os.path.join(directory, f"{psg.recording_id}.psgmeta.json"),
        {role: ch.samples for role, ch in psg.channels.items()},
        {"recording_id": psg.recording_id, "duration_s": psg.duration_s,
         "channels": {role: {"fs": ch.fs} for role, ch in psg.channels.items()}})


def save_recording(psg: PolySignalSet, directory: str) -> str:
    """Write the recording's files; returns the meta path."""
    return write_files(recording_files(psg, directory))


def load_recording(path: str) -> PolySignalSet:
    """Load a recording from its ``.psgmeta.json`` path."""
    try:
        arrays, meta = read_bundle(path)
    except MissingBlob as e:
        raise MissingChannel(e.key) from e
    try:
        fs = {role: info["fs"] for role, info in meta["channels"].items()}
        if not all(map(is_number, [meta["duration_s"], *fs.values()])):
            raise TypeError("duration_s and every fs must be JSON numbers")
        channels = {role: Channel(samples=arrays[role], fs=float(f)) for role, f in fs.items()}
        psg = PolySignalSet(channels=channels, duration_s=float(meta["duration_s"]),
                            recording_id=meta["recording_id"])
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise CorruptHeader(f"{path}: {e!r}") from e
    for role, ch in channels.items():
        psg.keep_finite(role, ch.samples)
    psg.validate()
    return psg


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
