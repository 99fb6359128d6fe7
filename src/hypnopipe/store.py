"""The on-disk array format shared by recordings, encodings, models and GPs,
and the one rule by which hypnopipe writes a file.

A bundle is a JSON manifest ``<stem>.<kind>.json`` next to one blob per array,
``<stem>.<key>.f32le`` ('/' in a key becomes '_'), holding the array as
little-endian float32 in C order.  Besides the caller's metadata the manifest
carries ``format`` (the version below) and ``arrays``, which maps each key to
``{"shape": [...], "blob": name}``.  The blobs are renamed into place first
and the manifest last, so a manifest never names a blob that was not
completely written.  An array is read back as stored, float32 (``as_stored``
states it); the code that computes with it converts it to float64 there.

Every file is written by one rule, ``write_files``'s, and ``cli.main`` makes
the one call for each command, with all of its files: each file is written
to a temporary file next to its path, and only once all of them are written
are they renamed over their paths (``os.replace``), in order.  A reader, or
a map, of a previous file keeps the previous bytes, and a write that fails
before the first rename leaves every previous file as it was and no
temporary file or directory it made.  A target that exists and is not a
regular file, or is a symlink (``/dev/stdout``, a FIFO, a link to follow),
is written in place instead, at its turn among the renames, so a write that
fails while staging has not written through it; a directory target fails
while staging.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import CorruptHeader, InvalidValues, LengthMismatch, MissingBlob

FORMAT = 1
_DTYPE = np.dtype("<f4")


def write_files(files: dict) -> str | None:
    """Write each ``path -> data`` of ``files`` by the rule above, making
    missing parent directories; returns the last path, a bundle's manifest."""
    staged = {}         # path -> its temporary file, or the data to write in place
    made = []           # the directories this call makes, each after its parent
    try:
        for path, data in files.items():
            made += [d for d in reversed(Path(path).parents) if not d.exists()]
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            _stage(path, data, staged)
        for path, tmp in staged.items():
            if isinstance(tmp, str):
                os.replace(tmp, path)
            else:
                with open(path, "wb") as f:
                    f.write(tmp)
    except BaseException:
        for tmp in staged.values():
            if isinstance(tmp, str) and os.path.exists(tmp):
                os.unlink(tmp)
        for directory in reversed(made):      # deepest first; one holding a file stays
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise
    return next(reversed(files), None)


def as_stored(arr, name: str = "array") -> np.ndarray:
    """``arr`` as a blob holds it, little-endian float32 in C order, and finite
    (``check_finite``).  A stage hands the next one what its file would hold."""
    with np.errstate(over="ignore"):
        return check_finite(np.asarray(arr, dtype=_DTYPE, order="C"), f"{name} as float32")


def _stage(path: str, data, staged: dict) -> None:
    """Encode ``data``, text as UTF-8 or an array ``as_stored``, and write it
    to a temporary file next to ``path``, which ``staged[path]`` names once
    made; for a target the rule above writes in place, ``staged[path]`` is
    the encoded data, and a directory is ``IsADirectoryError``."""
    data = data.encode("utf-8") if isinstance(data, str) else as_stored(data, path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path):
        staged[path] = data
        return
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    with open(tmp, "xb") as f:
        staged[path] = tmp
        f.write(data)


def bundle(manifest_path: str, arrays: dict, meta: dict) -> dict:
    """The files of a bundle, for ``write_files``: each array's blob, then the
    manifest, whose text is made here, so meta that does not encode as JSON
    fails before any file is written."""
    stem = os.path.basename(manifest_path).rsplit(".", 2)[0]
    blobs = {key: f"{stem}.{key.replace('/', '_')}.f32le" for key in arrays}
    table = {key: {"shape": list(np.shape(arr)), "blob": blobs[key]}
             for key, arr in arrays.items()}
    return {**{os.path.join(os.path.dirname(manifest_path), blobs[key]): arr
               for key, arr in arrays.items()},
            manifest_path: json.dumps({**meta, "format": FORMAT, "arrays": table},
                                      indent=1, sort_keys=True)}


def bundle_files(manifest_path: str) -> list[str]:
    """The manifest, then each blob its arrays table names; the errors of
    ``read_bundle`` for a manifest it refuses."""
    _, table = _manifest(manifest_path)
    base = os.path.dirname(manifest_path)
    return [manifest_path] + [os.path.join(base, blob) for blob, _ in table.values()]


def read_text(path: str) -> str:
    """The text of a UTF-8 file; ``CorruptHeader`` if it does not decode."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise CorruptHeader(f"{path}: not UTF-8 text: {e}") from e


def is_file_name(name) -> bool:
    """Whether ``name`` is a string naming a file in the directory it is read
    in or written to: no path separator or NUL, and not '', '.' or '..'."""
    return (isinstance(name, str) and name == os.path.basename(name)
            and "\0" not in name and name not in ("", ".", ".."))


def is_number(value) -> bool:
    """Whether ``value`` is a number as ``json`` reads one that a float holds:
    a float, or an int (unbounded in JSON) no larger than the largest float;
    not a bool or a string."""
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


def _entry(info) -> tuple[str, tuple[int, ...]]:
    """``(blob, shape)`` of an arrays-table entry; ``ValueError`` unless the
    blob is a bare file name and the shape a list of non-negative integers."""
    blob, shape = info["blob"], info["shape"]
    if not is_file_name(blob):
        raise ValueError(f"blob {blob!r} is not a file name in the manifest's directory")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"shape {shape!r} is not a list of non-negative integers")
    return blob, tuple(shape)


def _manifest(manifest_path: str) -> tuple[dict, dict]:
    """``(meta, {key: (blob, shape)})`` of a manifest; ``CorruptHeader`` as
    ``read_bundle`` says."""
    try:
        meta = json.loads(read_text(manifest_path))
    except json.JSONDecodeError as e:
        raise CorruptHeader(f"{manifest_path}: {e}") from e
    if not isinstance(meta, dict) or type(meta.get("format")) is not int \
            or meta["format"] != FORMAT:
        raise CorruptHeader(f"{manifest_path}: not a format {FORMAT} bundle manifest")
    try:
        table = {key: _entry(info) for key, info in meta.pop("arrays").items()}
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise CorruptHeader(f"{manifest_path}: bad arrays table: {e!r}") from e
    del meta["format"]
    return meta, table


def read_bundle(manifest_path: str) -> tuple[dict, dict]:
    """``(arrays, meta)`` of a bundle; arrays come back as stored, float32.

    Raises ``CorruptHeader`` for an unreadable manifest, an unknown
    ``format`` or a bad arrays table (a shape that is not a list of
    non-negative integers, a blob that is not a bare file name or that is a
    directory),
    ``MissingBlob`` for an absent blob, ``LengthMismatch`` for a blob whose
    size does not match its declared shape and ``InvalidValues``, naming the
    array and the first flat index, for a non-finite value.
    """
    meta, table = _manifest(manifest_path)
    base = os.path.dirname(manifest_path)
    arrays = {}
    for key, (blob, shape) in table.items():
        count = math.prod(shape)
        try:
            f = open(os.path.join(base, blob), "rb")
        except FileNotFoundError as e:
            raise MissingBlob(key, blob) from e
        except IsADirectoryError as e:
            raise CorruptHeader(f"{manifest_path}: blob {blob!r} of {key!r} is a "
                                f"directory") from e
        with f:
            size = os.fstat(f.fileno()).st_size
            if size != count * _DTYPE.itemsize:
                raise LengthMismatch(f"{key}: blob {blob} has {size} bytes, shape "
                                     f"{list(shape)} needs {count * _DTYPE.itemsize}")
            data = np.fromfile(f, dtype=_DTYPE, count=count)
        arrays[key] = check_finite(data, f"{manifest_path}: array {key!r}").reshape(shape)
    return arrays, meta


def check_finite(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr``; ``InvalidValues`` naming ``name`` and its first non-finite flat index."""
    finite = np.isfinite(arr)
    if not finite.all():
        raise InvalidValues(f"{name} has a non-finite value at flat index "
                            f"{int(np.argmin(finite))}")
    return arr


def check_shapes(path: str, arrays: dict, shapes: dict, others: bool = False) -> dict:
    """The size of each named dimension of ``shapes`` (key -> shape of sizes
    and names; a name takes one size in every array).  ``CorruptHeader``
    naming the first array, in key order, that is missing, of another shape
    or, unless ``others``, not in ``shapes``."""
    sizes: dict[str, int] = {}
    for key in sorted(set(shapes) | (set() if others else set(arrays))):
        want, got = shapes.get(key), arrays[key].shape if key in arrays else None
        if want is None or got is None or len(got) != len(want) or any(
                (sizes.setdefault(w, g) if isinstance(w, str) else w) != g
                for w, g in zip(want, got)):
            got = "missing" if got is None else got
            want = ("no such array" if want is None
                    else f"{want} with {sizes}" if sizes else want)
            raise CorruptHeader(f"{path}: array {key!r} is {got}, needs {want}")
    return sizes
