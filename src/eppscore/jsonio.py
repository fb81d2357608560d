"""Helpers for the fit and counts JSON files.

Each kind of file holds its format as its first key, ``"format":
"epp-fit/2"`` or ``"epp-counts/2"``, and :func:`load_object` refuses any
other value, naming how to make the file again. Every other key has one
JSON form, read by the one reader its file kind declares for it; a value
that is not known is ``null``.

A float64 array is stored as one value: its little-endian bytes in C
order, base64-encoded, beside its dtype and shape, e.g.
``{"dtype": "<f8", "shape": [m, m], "base64": "..."}``. Writing and reading
it then costs no per-float text conversion, and the decoded array is
bit-identical to the encoded one (NaN, infinities and ``-0.0`` included).
A fit's covariance, which equals its transpose bit for bit, stores only its
upper triangle, row by row, marked ``"triangle": "upper"``
(:func:`encode_symmetric`). :func:`load_symmetric` checks an encoded
covariance in full when its file is loaded but leaves the decode to its
first read, so reports that never read it never pay for it. Malformed
files raise ``FileFormatError`` naming the key at fault, a counts file
whose ledger breaks its identities included (``from_json_text`` checks).
"""

from __future__ import annotations

import base64
import json
import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from .errors import FileFormatError

FIT_FORMAT = "epp-fit/2"
COUNTS_FORMAT = "epp-counts/2"
# How to make a file of each format again from the scores it names.
_REMEDY = {
    FIT_FORMAT: "fit its scores again with epp fit",
    COUNTS_FORMAT: "count its scores again with epp fit --dump-counts",
}

_DTYPE = "<f8"
_BASE64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def encode_array(a: np.ndarray) -> dict:
    """`a` as a JSON-ready dict of dtype, shape and base64 float64 bytes."""
    a = np.ascontiguousarray(a, dtype=_DTYPE)
    return {
        "dtype": _DTYPE,
        "shape": list(a.shape),
        "base64": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def encode_symmetric(a: np.ndarray) -> dict:
    """A square `a` as :func:`encode_array` stores it, but holding only the
    m(m+1)/2 entries of its upper triangle, row by row. `a` must equal its
    transpose bit for bit (``-0.0`` and NaN payloads included); any other
    matrix raises `ValueError`, as its triangle would not hold it."""
    a = np.ascontiguousarray(a, dtype=_DTYPE)
    bits = a.view(np.int64)
    if not np.array_equal(bits, bits.T):
        raise ValueError("matrix is not its own transpose bit for bit")
    return {
        "dtype": _DTYPE,
        "shape": list(a.shape),
        "triangle": "upper",
        "base64": base64.b64encode(a[_upper(len(a))].tobytes()).decode("ascii"),
    }


def decode_symmetric(value, m: int, what: str) -> np.ndarray:
    """The m×m float64 matrix held by `value`, an upper triangle written by
    :func:`encode_symmetric`, mirrored."""
    if isinstance(value, dict) and value.get("triangle") != "upper":
        raise FileFormatError(f"{what}: triangle {value.get('triangle')!r} is not 'upper'")
    raw = _checked_bytes(value, (m, m), m * (m + 1) // 2, what, "the upper triangle of ")
    # Scattered straight from the read-only view of `raw` into a fresh
    # array: the entries of row i go to row i and, through the transpose,
    # to column i, in the same order.
    tri = np.frombuffer(raw, dtype=_DTYPE)
    upper = _upper(m)
    out = np.empty((m, m))
    out[upper] = tri
    out.T[upper] = tri
    return out


class EncodedMatrix(NamedTuple):
    """An encoded m×m matrix that :func:`decode_symmetric` is sure to decode
    without error, decoded only when asked."""

    value: dict
    m: int
    what: str

    def decode(self) -> np.ndarray:
        return decode_symmetric(self.value, self.m, self.what)


def load_symmetric(value, m: int, what: str) -> np.ndarray | EncodedMatrix:
    """What :func:`decode_symmetric` makes of `value`, or, when `value` is
    base64 that it is sure to decode without error, an :class:`EncodedMatrix`
    that decodes it when asked. Every error is raised here, with the same
    text: a value that fails the check goes through :func:`decode_symmetric`
    at once."""
    if _decodes(value, m):
        return EncodedMatrix(value, m, what)
    return decode_symmetric(value, m, what)


def _upper(m: int) -> np.ndarray:
    """The boolean mask of an m×m matrix's upper triangle, diagonal included;
    a mask, not index arrays, which take about twice the time and memory."""
    return np.triu(np.ones((m, m), dtype=bool))


def _checked_bytes(value, shape: tuple[int, ...], count: int, what: str,
                   part: str = "") -> bytes:
    """The base64 bytes of an encoded `value` of `shape`, checked to be
    `count` float64 values (of `part` of the shape)."""
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
    if len(raw) != 8 * count:
        raise FileFormatError(f"{what}: {len(raw)} bytes do not hold {part}shape {list(shape)}")
    return raw


def _decodes(value, m: int) -> bool:
    """Whether :func:`decode_symmetric` reads `value` without error; decided
    without decoding it. Only canonical base64 passes: the alphabet, then
    0-2 ``=`` that pad the string to a multiple of 4 characters and give
    exactly the triangle's byte count. Other values that decode, over-padded
    base64 for one, fail here and are decoded at once."""
    if not isinstance(value, dict) or value.get("dtype") != _DTYPE:
        return False
    if value.get("shape") != [m, m] or value.get("triangle") != "upper":
        return False
    text = value.get("base64")
    if not isinstance(text, str) or not text.isascii():
        return False
    data = text.encode("ascii")
    pad = data.translate(None, _BASE64_ALPHABET)
    return (pad in (b"", b"=", b"==") and data.endswith(pad) and len(data) % 4 == 0
            and len(data) // 4 * 3 - len(pad) == 4 * m * (m + 1))


def decode_array(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The float64 array of `shape` that :func:`encode_array` wrote as `value`.

    `what` names the value in the error raised when it does not decode to
    exactly `shape`.
    """
    raw = _checked_bytes(value, shape, math.prod(shape), what)
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


# The JSON forms of fit and counts files. Types match exactly: `true` is an
# int to isinstance, but no number to JSON.
BOOLEAN = reader(lambda v, m: type(v) is bool, "a JSON boolean")
INTEGER = reader(lambda v, m: type(v) is int, "a JSON integer")
NUMBER = reader(lambda v, m: type(v) in (int, float), "a JSON number", float)
INTEGERS = reader(lambda v, m: type(v) is list and set(map(type, v)) <= {int},
                  "a list of JSON integers", tuple)
NUMBERS = reader(lambda v, m: type(v) is list and len(v) == m and set(map(type, v)) <= {int, float},
                 "a list of JSON numbers, one per model", lambda v: np.array(v, dtype=float))
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
