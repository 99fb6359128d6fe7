"""Hypnodensity matrices, hypnogram collapse, and consensus/agreement metrics.

A hypnodensity is a T x 5 row-stochastic matrix over (W, N1, N2, N3, REM) at
a fixed segment resolution.  Tie-breaking everywhere is the fixed stage order
with the earliest stage winning.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptHeader,
    IncompatibleResolution,
    InvalidValues,
    ShapeMismatch,
    ZeroTotalWeight,
)
from .signal_io import STAGES, VALID_EPOCH_S, HypnogramLabels

STAGE_INDEX = {s: i for i, s in enumerate(STAGES)}


@dataclass
class Hypnodensity:
    probs: np.ndarray          # (T, 5), rows sum to 1
    resolution_s: int
    variance: np.ndarray | None = None   # (T, 5) across-member variance, ensembles only

    def validate(self) -> None:
        p = self.probs
        if p.ndim != 2 or p.shape[1] != 5:
            raise ShapeMismatch(f"expected (T,5), got {p.shape}")
        # written so that NaN fails each comparison
        if not np.all((p >= -1e-9) & (p <= 1 + 1e-9)):
            raise InvalidValues("probabilities must be finite and in [0, 1]")
        if not np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-6):
            raise InvalidValues("rows must sum to 1")

    def to_csv(self) -> str:
        """``t_start_s`` and the five stages, then ``varW``..``varREM`` when
        there is a variance."""
        names, rows = list(STAGES), self.probs
        if self.variance is not None:
            names, rows = names + [f"var{s}" for s in STAGES], np.hstack([rows, self.variance])
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t_start_s"] + names)
        for i, row in enumerate(rows):
            w.writerow([i * self.resolution_s] + [f"{v:.9g}" for v in row])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Hypnodensity":
        """Parse and ``validate`` ``to_csv`` output (columns after REM are
        ignored): a bad header, an unparseable cell or a ``t_start_s`` that
        is not finite or does not increase in equal steps is
        ``CorruptHeader``, a step not in ``VALID_EPOCH_S`` (what ``score``
        and ``run-all`` write) ``IncompatibleResolution``, a row of the wrong
        length ``ShapeMismatch``, a probability that ``validate`` refuses
        ``InvalidValues``."""
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0][:6] != ["t_start_s"] + list(STAGES):
            raise CorruptHeader("bad hypnodensity CSV header")
        header, body = rows[0], rows[1:]
        if any(len(r) != len(header) for r in body):
            raise ShapeMismatch(f"hypnodensity CSV rows must have {len(header)} cells")
        try:
            t = [float(r[0]) for r in body]
            probs = np.array([[float(v) for v in r[1:6]] for r in body])
        except ValueError as e:
            raise CorruptHeader(f"hypnodensity CSV: {e}") from e
        steps = np.diff(t)
        res = steps[0] if len(steps) else 30
        if not np.all(np.isfinite(t)) or res <= 0 or np.any(steps != res):
            raise CorruptHeader("hypnodensity CSV: t_start_s must be finite and increase "
                                "in equal steps")
        if res not in VALID_EPOCH_S:
            raise IncompatibleResolution(f"hypnodensity CSV: the {res:g} s resolution is "
                                         f"not one of {VALID_EPOCH_S}")
        hd = cls(probs=probs, resolution_s=int(res))
        hd.validate()
        return hd


def stage_codes(stages) -> np.ndarray:
    """Stage labels as indices into STAGES; UNSCORED (any other label) is -1."""
    return np.array([STAGE_INDEX.get(s, -1) for s in stages], dtype=int)


def _stage_labels(codes: np.ndarray) -> list[str]:
    return [STAGES[c] for c in codes.tolist()]


def _blocks(hd: Hypnodensity, block_s: int) -> np.ndarray:
    """The rows of whole ``block_s`` blocks as (n_blocks, rows per block, 5)."""
    if block_s % hd.resolution_s != 0:
        raise IncompatibleResolution(f"{block_s} s is not a multiple of the "
                                     f"{hd.resolution_s} s resolution")
    block = block_s // hd.resolution_s
    n_blocks = len(hd.probs) // block
    if n_blocks == 0:
        raise IncompatibleResolution(f"hypnodensity shorter than one {block_s} s block")
    return hd.probs[:n_blocks * block].reshape(n_blocks, block, 5)


def to_hypnogram(hd: Hypnodensity, epoch_s: int = 30) -> HypnogramLabels:
    """Argmax of summed segment probabilities per epoch (np.argmax returns the
    first maximum: the earliest stage wins ties)."""
    sums = _blocks(hd, epoch_s).sum(axis=1)
    return HypnogramLabels(stages=_stage_labels(np.argmax(sums, axis=1)),
                           epoch_s=epoch_s)


def aggregate_resolution(hd: Hypnodensity, target_s: int) -> Hypnodensity:
    """Block-mean rows down to a coarser resolution, then renormalize."""
    means = _blocks(hd, target_s).mean(axis=1)
    means = means / means.sum(axis=1, keepdims=True)
    return Hypnodensity(probs=means, resolution_s=target_s)


def _agreement(a: list[str], b: list[str]) -> np.ndarray:
    """5x5 counts of the epochs both sequences score (a rows, b columns)."""
    if len(a) != len(b) or len(a) < 1:
        raise ShapeMismatch("label sequences must be equal length >= 1")
    ca, cb = stage_codes(a), stage_codes(b)
    scored = (ca >= 0) & (cb >= 0)
    counts = np.bincount(ca[scored] * 5 + cb[scored], minlength=25)
    return counts.reshape(5, 5).astype(float)


def _kappa(counts: np.ndarray) -> float:
    """Cohen's kappa of an agreement count matrix."""
    n = counts.sum()
    if n == 0:
        raise ShapeMismatch("no jointly scored epochs")
    p_o = np.trace(counts) / n
    p_e = sum((r / n) * (c / n) for r, c in zip(counts.sum(axis=1), counts.sum(axis=0)))
    if p_e >= 1.0 - 1e-12:
        return 1.0 if p_o >= 1.0 - 1e-12 else 0.0
    return float(1.0 - (1.0 - p_o) / (1.0 - p_e))


def cohen_kappa(a: list[str], b: list[str]) -> float:
    """Chance-corrected agreement; UNSCORED epochs are excluded."""
    return _kappa(_agreement(a, b))


def _votes(stacks: list[list[str]], weights=None) -> np.ndarray:
    """(T, 5) per-epoch sum of scorer weights (default 1) by stage; an
    UNSCORED epoch adds nothing.  Scorers are added one at a time, in order,
    so a weighted sum rounds exactly as a per-epoch loop over scorers."""
    if weights is None:
        weights = np.ones(len(stacks))
    votes = np.zeros((len(stacks[0]), 5))
    for stages, w in zip(stacks, weights):
        votes += w * (stage_codes(stages)[:, None] == np.arange(5))
    return votes


def _majority_vote(stacks: list[list[str]]) -> list[str]:
    """Unweighted per-epoch majority over scorers; stage-order tie-break."""
    return _stage_labels(np.argmax(_votes(stacks), axis=1))


def consensus_hypnogram(scorers: list[HypnogramLabels]) -> tuple[HypnogramLabels, list[float]]:
    """Kappa-weighted majority vote; returns (hypnogram, per-scorer kappas).

    Each scorer's kappa is computed leave-one-out against the unweighted
    majority of the remaining scorers.  Negative kappas are clamped to zero;
    if every kappa is zero the unweighted majority is used.
    """
    if len(scorers) < 2:
        raise ShapeMismatch("need at least 2 scorers")
    epoch_s = scorers[0].epoch_s
    n = len(scorers[0].stages)
    for sc in scorers:
        if sc.epoch_s != epoch_s or len(sc.stages) != n:
            raise ShapeMismatch("scorers must align in epoch_s and length")
    stacks = [sc.stages for sc in scorers]
    kappas = []
    for i in range(len(stacks)):
        others = [s for j, s in enumerate(stacks) if j != i]
        ref = _majority_vote(others)
        kappas.append(max(cohen_kappa(stacks[i], ref), 0.0))
    if sum(kappas) == 0.0:
        return HypnogramLabels(_majority_vote(stacks), epoch_s), kappas
    weighted = _votes(stacks, kappas) / sum(kappas)
    return HypnogramLabels(_stage_labels(np.argmax(weighted, axis=1)), epoch_s), kappas


def epoch_weight(vote_fractions: np.ndarray) -> float:
    """Consensus weight: top vote fraction minus the runner-up fraction."""
    v = np.sort(np.asarray(vote_fractions, dtype=float))[::-1]
    return float(v[0] - v[1])


def scorer_vote_fractions(scorers: list[HypnogramLabels]) -> np.ndarray:
    """(T, 5) matrix of per-epoch scorer vote fractions (UNSCORED excluded)."""
    votes = _votes([sc.stages for sc in scorers])
    total = votes.sum(axis=1, keepdims=True)
    return np.divide(votes, total, out=np.zeros_like(votes), where=total > 0)


def weighted_accuracy(model: HypnogramLabels, scorers: list[HypnogramLabels]) -> float:
    """Accuracy against scorer consensus, weighted by per-epoch consensus."""
    fractions = scorer_vote_fractions(scorers)
    if len(model.stages) != len(fractions):
        raise ShapeMismatch("model and scorers must align")
    weights = np.array([epoch_weight(row) for row in fractions])
    total_w = weights.sum()
    if total_w == 0.0:
        raise ZeroTotalWeight("all epochs are perfectly split")
    agree = stage_codes(model.stages) == np.argmax(fractions, axis=1)
    return float(weights[agree].sum() / total_w)


def confusion(model: HypnogramLabels, reference: HypnogramLabels) -> dict:
    """5x5 confusion fractions (model rows, reference columns), accuracy, kappa."""
    counts = _agreement(model.stages, reference.stages)
    kappa = _kappa(counts)
    total = counts.sum()
    return {"matrix": counts / total,
            "accuracy": float(np.trace(counts) / total),
            "kappa": kappa}


def ensemble_hypnodensity(models: list[Hypnodensity]) -> Hypnodensity:
    """Elementwise mean and population variance across per-model matrices."""
    shapes = {m.probs.shape for m in models}
    res = {m.resolution_s for m in models}
    if len(shapes) != 1 or len(res) != 1:
        raise ShapeMismatch("all models must share shape and resolution")
    stack = np.stack([m.probs for m in models])
    return Hypnodensity(probs=stack.mean(axis=0), resolution_s=models[0].resolution_s,
                        variance=stack.var(axis=0))  # population variance
