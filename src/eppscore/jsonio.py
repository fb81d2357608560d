"""Helpers for the fit and counts JSON files.

A float64 array is stored as one value: its little-endian bytes in C
order, base64-encoded, beside its dtype and shape, e.g.
``{"dtype": "<f8", "shape": [m, m], "base64": "..."}``. Writing and reading
it then costs no per-float text conversion, and the decoded array is
bit-identical to the encoded one (NaN, infinities and ``-0.0`` included).
A fit's covariance, which equals its transpose bit for bit, stores only its
upper triangle, row by row, marked ``"triangle": "upper"``
(:func:`encode_symmetric`); a matrix that is not exactly symmetric keeps the
full form. :func:`load_symmetric` checks an encoded covariance in full when
its file is loaded but leaves the decode to its first read, so reports that
never read it never pay for it. Files written before these encodings hold
full matrices or nested lists instead, and older counts files the matches
``n = w + w.T`` beside the wins ``w``; they still load. Malformed files raise
``FileFormatError`` naming the problem, a counts file whose ledger breaks its
identities included (``from_json_text`` checks).
Both kinds of file end with the `source` and `mean_score` of their data
when these are known (:func:`add_provenance`).
"""

from __future__ import annotations

import base64
import json
import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from .errors import FileFormatError

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
    m(m+1)/2 entries of its upper triangle, row by row, when `a` equals its
    transpose bit for bit (``-0.0`` and NaN payloads included); otherwise
    the full form, so that no matrix is changed by writing it."""
    a = np.ascontiguousarray(a, dtype=_DTYPE)
    bits = a.view(np.int64)
    if not np.array_equal(bits, bits.T):
        return encode_array(a)
    return {
        "dtype": _DTYPE,
        "shape": list(a.shape),
        "triangle": "upper",
        "base64": base64.b64encode(a[_upper(len(a))].tobytes()).decode("ascii"),
    }


def decode_symmetric(value, m: int, what: str) -> np.ndarray:
    """The m×m float64 matrix held by `value`: an upper triangle written by
    :func:`encode_symmetric`, mirrored, or any form :func:`decode_array`
    reads."""
    if not isinstance(value, dict) or "triangle" not in value:
        return decode_array(value, (m, m), what)
    if value["triangle"] != "upper":
        raise FileFormatError(f"{what}: triangle {value['triangle']!r} is not 'upper'")
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


def _checked_bytes(value: dict, shape: tuple[int, ...], count: int, what: str,
                   part: str = "") -> bytes:
    """The base64 bytes of an encoded `value` of `shape`, checked to be
    `count` float64 values (of `part` of the shape)."""
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
    """Whether :func:`decode_symmetric` reads `value`, a triangle or a full
    m×m matrix in base64, without error; decided without decoding it. Only
    canonical base64 passes: the alphabet, then 0-2 ``=`` that pad the
    string to a multiple of 4 characters and give exactly the matrix's byte
    count. Other values that decode, over-padded base64 for one, fail here
    and are decoded at once."""
    if not isinstance(value, dict) or value.get("dtype") != _DTYPE:
        return False
    if value.get("shape") != [m, m]:
        return False
    if "triangle" in value:
        if value["triangle"] != "upper":
            return False
        count = m * (m + 1) // 2
    else:
        count = m * m
    text = value.get("base64")
    if not isinstance(text, str) or not text.isascii():
        return False
    data = text.encode("ascii")
    pad = data.translate(None, _BASE64_ALPHABET)
    return (pad in (b"", b"=", b"==") and data.endswith(pad) and len(data) % 4 == 0
            and len(data) // 4 * 3 - len(pad) == 8 * count)


def decode_array(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The float64 array of `shape` held by `value`, in either form.

    `what` names the value in the error raised when it does not decode to
    exactly `shape`.
    """
    if isinstance(value, dict):
        raw = _checked_bytes(value, shape, math.prod(shape), what)
        # astype copies: the frombuffer view over `raw` is read-only
        return np.frombuffer(raw, dtype=_DTYPE).astype(float).reshape(shape)
    try:
        out = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{what}: not an array of numbers ({exc})") from None
    if out.shape != shape:
        raise FileFormatError(f"{what}: shape {list(out.shape)} is not the expected {list(shape)}")
    return out


def load_object(text: str, keys: tuple[str, ...]) -> dict:
    """The JSON object of a fit or counts file's `text`: its ids, a string
    `dataset` and a list of distinct string `models`, are checked, and it
    must hold every key in `keys` too."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise FileFormatError(f"not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise FileFormatError("not a JSON object")
    for key in ("dataset", "models", *keys):
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
    return obj


def add_provenance(obj: dict, source: dict | None, mean_score: np.ndarray | None) -> None:
    """Add a ledger's or fit's `source` and `mean_score` to its file's JSON
    object, each only when known."""
    if source is not None:
        obj["source"] = source
    if mean_score is not None:
        obj["mean_score"] = encode_array(mean_score)


def read_provenance(obj: dict, m: int) -> dict:
    """The `source` and `mean_score` (of `m` models) held by a file's JSON
    object, as keyword arguments; None where absent, as in older files."""
    source = obj.get("source")
    if source is not None and not isinstance(source, dict):
        raise FileFormatError("source: not a JSON object")
    mean_score = obj.get("mean_score")
    if mean_score is not None:
        mean_score = decode_array(mean_score, (m,), "mean_score")
    return {"source": source, "mean_score": mean_score}
