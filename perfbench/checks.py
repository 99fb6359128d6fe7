"""Output checks.  Each returns a list of problems; an empty list means the file passes.

The checks parse the files with the standard library and numpy only, so a
fault in the program's own readers cannot hide a fault in its writers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

N_FEATURES = 481
ROW_SUM_TOL = 1e-6
# Largest |difference| from the stored reference outputs that still counts as
# the same result: well above float64 reordering and the 9-digit CSV
# rounding, well below any change a reader of the hypnodensity would notice.
MAX_ABS_DEV_TOL = 1e-4


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_hypnodensity(path: str) -> np.ndarray:
    """Stage probabilities (rows, 5) from a hypnodensity CSV."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return np.array([[float(v) for v in r[1:6]] for r in rows[1:]])


def hypnodensity_csv(path: str) -> list[str]:
    try:
        p = read_hypnodensity(path)
    except (ValueError, IndexError) as e:
        return [f"{path}: unreadable hypnodensity: {e}"]
    if p.ndim != 2 or p.shape[1] != 5 or len(p) == 0:
        return [f"{path}: expected (T, 5) probabilities, got {p.shape}"]
    problems = []
    if not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0:
        problems.append(f"{path}: probabilities outside [0, 1]")
    if np.abs(p.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        problems.append(f"{path}: rows do not sum to 1")
    return problems


def _feature_values(values, path: str) -> list[str]:
    v = np.asarray(values, dtype=float)
    if v.shape != (N_FEATURES,) or not np.all(np.isfinite(v)):
        return [f"{path}: feature vector is not {N_FEATURES} finite values"]
    return []


def features_csv(path: str) -> list[str]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    try:
        return _feature_values([float(v) for v in rows[1]], path)
    except (ValueError, IndexError) as e:
        return [f"{path}: unreadable features: {e}"]


def features_json(path: str) -> list[str]:
    try:
        with open(path) as f:
            return _feature_values(list(json.load(f)["features"].values()), path)
    except (ValueError, KeyError) as e:
        return [f"{path}: unreadable features: {e}"]


def feature_matrix(path: str) -> list[str]:
    X = np.load(path)
    problems = []
    for i, row in enumerate(X if X.ndim == 2 else [X]):
        problems += _feature_values(row, f"{path}[{i}]")
    return problems


def _score(s, path: str) -> list[str]:
    if not (isinstance(s, float) and -1.0 <= s <= 1.0):
        return [f"{path}: score {s!r} outside [-1, 1]"]
    return []


def diagnosis_json(path: str) -> list[str]:
    try:
        with open(path) as f:
            return _score(json.load(f)["score"], path)
    except (ValueError, KeyError) as e:
        return [f"{path}: unreadable diagnosis: {e}"]


def read_scores(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 0]


def scores_csv(path: str) -> list[str]:
    problems = []
    for s in read_scores(path):
        problems += _score(float(s), path)
    return problems


def svg(path: str) -> list[str]:
    with open(path) as f:
        text = f.read()
    if not (text.startswith("<?xml") and text.rstrip().endswith("</svg>")):
        return [f"{path}: not a complete SVG document"]
    return []


BY_SUFFIX = (
    (".hypnodensity.csv", hypnodensity_csv),
    (".features.csv", features_csv),
    (".features.json", features_json),
    ("features.npy", feature_matrix),
    (".diagnosis.json", diagnosis_json),
    ("scores.csv", scores_csv),
    (".svg", svg),
)


def check_output(path: str) -> list[str]:
    """Existence plus the content check that the file's name calls for."""
    if not os.path.isfile(path):
        return [f"{path}: missing"]
    for suffix, check in BY_SUFFIX:
        if path.endswith(suffix):
            return check(path)
    return []
