"""The on-disk array format shared by recordings, encodings, models and GPs.

A bundle is a JSON manifest ``<stem>.<kind>.json`` next to one blob per array,
``<stem>.<key>.f32le`` ('/' in a key becomes '_'), holding the array as
little-endian float32 in C order.  Besides the caller's metadata the manifest
carries ``format`` (the version below) and ``arrays``, which maps each key to
``{"shape": [...], "blob": name}``.  The blobs are written first and the
manifest last, through a temporary file and ``os.replace``, so a manifest
never names a blob that was not completely written.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import CorruptHeader, LengthMismatch, MissingBlob

FORMAT = 1
_DTYPE = np.dtype("<f4")


def write_bundle(manifest_path: str, arrays: dict, meta: dict) -> str:
    """Write ``arrays`` as blobs, then the manifest; returns ``manifest_path``."""
    directory = os.path.dirname(manifest_path)
    os.makedirs(directory or ".", exist_ok=True)
    stem = os.path.basename(manifest_path).rsplit(".", 2)[0]
    table = {}
    for key, arr in arrays.items():
        blob = f"{stem}.{key.replace('/', '_')}.f32le"
        data = np.asarray(arr, dtype=_DTYPE)
        data.tofile(os.path.join(directory, blob))
        table[key] = {"shape": list(data.shape), "blob": blob}
    tmp = manifest_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({**meta, "format": FORMAT, "arrays": table}, f,
                  indent=1, sort_keys=True)
    os.replace(tmp, manifest_path)
    return manifest_path


def read_bundle(manifest_path: str) -> tuple[dict, dict]:
    """``(arrays, meta)`` of a bundle; arrays come back as float64.

    Raises ``CorruptHeader`` for an unreadable manifest or an unknown
    ``format``, ``MissingBlob`` for an absent blob and ``LengthMismatch`` for
    a blob whose size does not match its declared shape.
    """
    with open(manifest_path) as f:
        try:
            meta = json.load(f)
        except json.JSONDecodeError as e:
            raise CorruptHeader(f"{manifest_path}: {e}") from e
    if not isinstance(meta, dict) or meta.get("format") != FORMAT:
        raise CorruptHeader(f"{manifest_path}: not a format {FORMAT} bundle manifest")
    try:
        table = {key: (str(info["blob"]), tuple(int(n) for n in info["shape"]))
                 for key, info in meta.pop("arrays").items()}
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise CorruptHeader(f"{manifest_path}: bad arrays table: {e!r}") from e
    del meta["format"]
    base = os.path.dirname(manifest_path)
    arrays = {}
    for key, (blob, shape) in table.items():
        count = math.prod(shape)
        try:
            f = open(os.path.join(base, blob), "rb")
        except FileNotFoundError as e:
            raise MissingBlob(key, blob) from e
        with f:
            size = os.fstat(f.fileno()).st_size
            if size != count * _DTYPE.itemsize:
                raise LengthMismatch(f"{key}: blob {blob} has {size} bytes, shape "
                                     f"{list(shape)} needs {count * _DTYPE.itemsize}")
            data = np.fromfile(f, dtype=_DTYPE, count=count)
        arrays[key] = data.astype(np.float64).reshape(shape)
    return arrays, meta
