"""Helpers for the fit and counts JSON files.

Each kind of file holds its format as its first key, ``"format":
"epp-fit/3"`` or ``"epp-counts/2"``, and :func:`load_object` refuses any
other value, naming how to make the file again. Every other key has one
JSON form, read by the one reader its file kind declares for it; a value
that is not known is ``null``.

A float64 array is stored as one value by :func:`encode_array`: its
little-endian bytes in C order, base64-encoded, beside its dtype and shape,
e.g. ``{"dtype": "<f8", "shape": [m, m], "base64": "..."}``. Writing and
reading it then costs no per-float text conversion, and the decoded array
is bit-identical to the encoded one (NaN, infinities and ``-0.0``
included). Malformed files raise ``FileFormatError`` naming the key at
fault, a counts file whose ledger breaks its identities included
(``from_json_text`` checks).
"""

from __future__ import annotations

import base64
import json
import math
from collections import Counter

import numpy as np

from .errors import FileFormatError

FIT_FORMAT = "epp-fit/3"
COUNTS_FORMAT = "epp-counts/2"
# How to make a file of each format again from the scores it names.
_REMEDY = {
    FIT_FORMAT: "fit its scores again with epp fit",
    COUNTS_FORMAT: "count its scores again with epp fit --dump-counts",
}

_DTYPE = "<f8"


def encode_array(a: np.ndarray) -> dict:
    """`a` as a JSON-ready dict of dtype, shape and base64 float64 bytes."""
    a = np.ascontiguousarray(a, dtype=_DTYPE)
    return {
        "dtype": _DTYPE,
        "shape": list(a.shape),
        "base64": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def decode_array(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The float64 array of `shape` that :func:`encode_array` wrote as `value`.

    `what` names the value in the error raised when it does not decode to
    exactly `shape`.
    """
    if not isinstance(value, dict):
        raise FileFormatError(f"{what}: not an object of dtype, shape and base64")
    if value.get("dtype") != _DTYPE:
        raise FileFormatError(f"{what}: dtype {value.get('dtype')!r} is not {_DTYPE!r}")
    try:
        raw = base64.b64decode(value.get("base64"), validate=True)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{what}: base64 does not decode ({exc})") from None
    if value.get("shape") != list(shape):
        raise FileFormatError(
            f"{what}: shape {value.get('shape')} is not the expected {list(shape)}"
        )
    if len(raw) != 8 * math.prod(shape):
        raise FileFormatError(f"{what}: {len(raw)} bytes do not hold shape {list(shape)}")
    # astype copies: the frombuffer view over `raw` is read-only
    return np.frombuffer(raw, dtype=_DTYPE).astype(float).reshape(shape)


def reader(test, word: str, convert=None):
    """A reader of one key: given the key's value, the file's model count m
    and the key, it returns the value, or `convert` of it, if ``test(value,
    m)`` holds, and raises ``FileFormatError("<key>: not <word>")`` if not."""
    def read(value, m: int, key: str):
        if not test(value, m):
            raise FileFormatError(f"{key}: not {word}")
        return value if convert is None else convert(value)
    return read


def nullable(read):
    """`read`, but ``null`` reads as None: a value that is not known."""
    return lambda value, m, key: None if value is None else read(value, m, key)


def numbers(length, word: str):
    """A reader of a list of ``length(m)`` JSON numbers, read as a float64
    array; `word` says how many, as in ``"one per model"``."""
    return reader(
        lambda v, m: type(v) is list and len(v) == length(m) and set(map(type, v)) <= {int, float},
        f"a list of JSON numbers, {word}", lambda v: np.array(v, dtype=float))


# The JSON forms of fit and counts files. Types match exactly: `true` is an
# int to isinstance, but no number to JSON.
BOOLEAN = reader(lambda v, m: type(v) is bool, "a JSON boolean")
INTEGER = reader(lambda v, m: type(v) is int, "a JSON integer")
NUMBER = reader(lambda v, m: type(v) in (int, float), "a JSON number", float)
INTEGERS = reader(lambda v, m: type(v) is list and set(map(type, v)) <= {int},
                  "a list of JSON integers", tuple)
NUMBERS = numbers(lambda m: m, "one per model")
STRING_MAP = reader(lambda v, m: type(v) is dict and all(type(x) is str for x in v.values()),
                    "a JSON object of strings")
# The entries of `source` that a report reads, each of its type or null (as
# when absent); the rest are carried as written.
_SOURCE_TYPES = {"sha256": str, "lower_is_better": bool}
# `source` and `mean_score`, which end both kinds of file
PROVENANCE = {
    "source": nullable(reader(
        lambda v, m: type(v) is dict and all(
            type(v.get(k)) in (t, type(None)) for k, t in _SOURCE_TYPES.items()),
        "a JSON object or null, whose sha256 is a string or null "
        "and lower_is_better a boolean or null")),
    "mean_score": nullable(lambda value, m, key: decode_array(value, (m,), key)),
}


def load_object(text: str, fmt: str, readers: dict) -> dict:
    """The values of a fit or counts file's `text`, which must hold `fmt`
    as its ``format``: its ids, a string ``dataset`` and a tuple of distinct
    string ``models``, and the value of each key in `readers`, read by its
    reader."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise FileFormatError(f"not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise FileFormatError("not a JSON object")
    if obj.get("format") != fmt:
        found = repr(obj["format"]) if "format" in obj else "none"
        raise FileFormatError(f"format: {fmt!r} expected, the file has {found}; {_REMEDY[fmt]}")
    for key in ("dataset", "models", *readers):
        if key not in obj:
            raise FileFormatError(f"missing key {key!r}")
    if not isinstance(obj["dataset"], str):
        raise FileFormatError("dataset: not a string")
    models = obj["models"]
    if not isinstance(models, list) or not all(isinstance(m, str) for m in models):
        raise FileFormatError("models: not a list of strings")
    if len(set(models)) < len(models):
        twice = next(m for m, k in Counter(models).items() if k > 1)
        raise FileFormatError(f"models: {twice!r} is listed more than once")
    m = len(models)
    return {"dataset": obj["dataset"], "models": tuple(models),
            **{key: read(obj[key], m, key) for key, read in readers.items()}}
