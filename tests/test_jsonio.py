"""The fit and counts files: their `format` key, the one JSON form of each
key, the float64 array codec, and the covariance's upper-triangle form and
its deferred decode."""

import base64
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eppscore import (EppScores, FileFormatError, FitConfig, FitWarning, PairwiseCounts,
                      build_matches, fit_epp, parse_scores_csv)
from eppscore.jsonio import (COUNTS_FORMAT, FIT_FORMAT, EncodedMatrix, decode_array,
                             decode_symmetric, encode_array, encode_symmetric, load_symmetric)
from test_solver import _graph_counts

SPECIAL = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-310, 1e308, -1e308, np.finfo(float).max, 1.0 / 3.0,
]


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@st.composite
def matrices(draw):
    m = draw(st.sampled_from([0, 1, draw(st.integers(2, 12))]))
    values = draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True)),
        min_size=m * m, max_size=m * m,
    ))
    return np.array(values, dtype=float).reshape(m, m)


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_round_trip_is_bit_exact(self, a):
        text = json.dumps({"a": encode_array(a)})
        again = decode_array(json.loads(text)["a"], a.shape, "a")
        assert again.shape == a.shape and again.dtype == np.float64
        assert np.array_equal(bits(again), bits(a))
        again[...] = 0.0  # writable, not a view of the decoded bytes

    def test_nan_payloads_and_signed_zero_survive(self):
        # quiet NaN with a payload, negative quiet NaN, signalling NaN,
        # smallest subnormal, -0.0
        a = np.array([0x7FF8000000000001, -0x0008000000000000, 0x7FF0000000000001,
                      0x0000000000000001, -0x8000000000000000], dtype=np.int64).view(float)
        again = decode_array(encode_array(a), (5,), "a")
        assert np.array_equal(bits(again), bits(a))

    def test_fortran_order_and_views_encode_in_c_order(self):
        a = np.arange(12.0).reshape(3, 4)
        for view in (np.asfortranarray(a), a.T.T, a[:, ::-1][:, ::-1]):
            assert encode_array(view) == encode_array(a)

    @pytest.mark.parametrize("value, message", [
        ({"dtype": "<f8", "shape": [2, 2], "base64": "@@@@"}, "w: base64 does not decode"),
        ({"dtype": "<f8", "shape": [2, 2]}, "w: base64 does not decode"),
        ({"dtype": ">f8", "shape": [2, 2], "base64": ""}, "w: dtype '>f8' is not '<f8'"),
        ({"dtype": "<f8", "shape": [1, 4], "base64": ""}, "w: shape [1, 4] is not the expected [2, 2]"),
        ({"dtype": "<f8", "shape": [2, 2], "base64": "AAAAAAAAAAA="},
         "w: 8 bytes do not hold shape [2, 2]"),
        ([[0.0, 1.0], [2.0, 0.0]], "w: not an object of dtype, shape and base64"),
    ])
    def test_malformed_values_name_the_problem(self, value, message):
        with pytest.raises(FileFormatError, match="^" + message.replace("[", r"\[")):
            decode_array(value, (2, 2), "w")


@st.composite
def symmetric_matrices(draw):
    a = draw(matrices())
    # a copy of the upper triangle's bits below the diagonal, -0.0 and NaN
    # payloads included (arithmetic would change them)
    return np.where(np.tri(len(a), k=-1, dtype=bool), a.T, a)


class TestSymmetricCodec:
    @settings(max_examples=200, deadline=None)
    @given(symmetric_matrices())
    def test_triangle_round_trip_is_bit_exact(self, a):
        value = json.loads(json.dumps(encode_symmetric(a)))
        m = len(a)
        assert list(value) == ["dtype", "shape", "triangle", "base64"]
        assert value["triangle"] == "upper" and value["shape"] == [m, m]
        assert len(base64.b64decode(value["base64"])) == 8 * m * (m + 1) // 2
        again = decode_symmetric(value, m, "c")
        assert again.dtype == np.float64 and again.flags.c_contiguous
        assert np.array_equal(bits(again), bits(a))
        again[...] = 0.0  # writable, not a view of the decoded bytes

    @pytest.mark.parametrize("index, entry", [
        ((0, 1), np.nextafter(0.25, 1.0)),
        ((0, 2), -0.0),
        ((1, 2), np.int64(0x7FF8000000000001).view(float)),
    ], ids=["next-float", "negative-zero", "nan-payload"])
    def test_matrix_not_equal_to_its_transpose_is_refused(self, index, entry):
        # Its triangle would not hold it; no fit makes one (see
        # TestFitFile::test_fitted_covariance_round_trips_as_its_triangle).
        a = np.array([[1.0, 0.25, 0.0], [0.25, 2.0, np.nan], [0.0, np.nan, 3.0]])
        encode_symmetric(a)
        a[index] = entry
        with pytest.raises(ValueError, match="^matrix is not its own transpose bit for bit$"):
            encode_symmetric(a)

    @pytest.mark.parametrize("change, message", [
        ({"triangle": "lower"}, "c: triangle 'lower' is not 'upper'"),
        ({"triangle": None}, "c: triangle None is not 'upper'"),
        ({"dtype": "<f4"}, "c: dtype '<f4' is not '<f8'"),
        ({"base64": "AAAA@@@@"}, "c: base64 does not decode"),
        ({"shape": [3, 2]}, "c: shape [3, 2] is not the expected [3, 3]"),
        ({"shape": [6]}, "c: shape [6] is not the expected [3, 3]"),
        ({"base64": base64.b64encode(bytes(40)).decode()},
         "c: 40 bytes do not hold the upper triangle of shape [3, 3]"),
        ({"base64": base64.b64encode(bytes(72)).decode()},
         "c: 72 bytes do not hold the upper triangle of shape [3, 3]"),
    ])
    def test_malformed_triangle_names_the_problem(self, change, message):
        value = {**encode_symmetric(np.ones((3, 3))), **change}
        with pytest.raises(FileFormatError, match="^" + message.replace("[", r"\[")):
            decode_symmetric(value, 3, "c")


def _outcome(decode):
    """The bits `decode()` returns, or the text of the `FileFormatError` it raises."""
    try:
        return bits(decode()).tolist()
    except FileFormatError as exc:
        return str(exc)


@st.composite
def encoded_values(draw):
    """A covariance value as a fit file holds it, or as no reader takes it:
    a triangle, or a full matrix without the triangle key, of 0-40 floats in
    canonical base64, often of the right count for its shape, then perhaps
    cut short, padded wrong, or given a byte outside the alphabet or
    whitespace."""
    m = draw(st.integers(0, 8))
    triangle = draw(st.booleans())
    count = m * (m + 1) // 2 if triangle else m * m
    n = draw(st.one_of(st.just(count), st.integers(0, 40)))
    floats = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                           min_size=n, max_size=n))
    text = base64.b64encode(np.array(floats, dtype="<f8").tobytes()).decode("ascii")
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["none", "truncate", "strip_padding", "add_padding",
                                 "insert_padding", "misplace_padding", "foreign_byte",
                                 "whitespace"]))
    if edit == "truncate":
        text = text[:at]
    elif edit == "strip_padding":
        text = text.rstrip("=")
    elif edit == "add_padding":
        text += "=" * draw(st.integers(1, 3))
    elif edit == "insert_padding":
        text = text[:at] + "=" + text[at:]
    elif edit == "misplace_padding":  # the same length and count of "="
        body = text.rstrip("=")
        text = body[:at] + text[len(body):] + body[at:]
    elif edit in ("foreign_byte", "whitespace"):
        chars = "=@-_.*\x00\x7fé€" if edit == "foreign_byte" else " \n\t\r"
        text = text[:at] + draw(st.sampled_from(chars)) + text[at + 1:]
    value = {"dtype": "<f8", "shape": [m, m], "base64": text}
    if triangle:
        value["triangle"] = "upper"
    return value, m, edit


class TestDeferredDecode:
    @settings(max_examples=400, deadline=None)
    @given(encoded_values())
    def test_load_time_check_accepts_what_the_decode_accepts(self, drawn):
        value, m, edit = drawn
        expected = _outcome(lambda: decode_symmetric(value, m, "c"))
        try:
            loaded = load_symmetric(value, m, "c")
        except FileFormatError as exc:
            assert str(exc) == expected  # raised at load, in the same words
            return
        if isinstance(loaded, EncodedMatrix):
            # deferred only what decodes without error, to the same bits
            assert not isinstance(expected, str)
            assert bits(loaded.decode()).tolist() == expected
        else:
            assert bits(loaded).tolist() == expected
        if edit == "none" and not isinstance(expected, str):
            assert isinstance(loaded, EncodedMatrix)

    @settings(max_examples=100, deadline=None)
    @given(symmetric_matrices())
    def test_written_values_are_deferred(self, a):
        assert isinstance(load_symmetric(encode_symmetric(a), len(a), "c"), EncodedMatrix)
        # the whole matrix, which no fit file holds, is refused at once
        with pytest.raises(FileFormatError, match="^c: triangle None is not 'upper'$"):
            load_symmetric(encode_array(a), len(a), "c")

    def test_first_read_decodes_to_the_eager_bits(self):
        # bits that arithmetic would not keep: -0.0, a subnormal, NaN, inf
        cov = np.array([[-0.0, 0.25, np.nan], [0.25, 5e-324, 1.0 / 3.0],
                        [np.nan, 1.0 / 3.0, np.inf]])
        value = encode_symmetric(cov)
        obj = json.loads(_fit_text())
        obj["covariance"] = value
        eager = decode_symmetric(json.loads(json.dumps(value)), 3, "covariance")
        scores = EppScores.from_json_text(json.dumps(obj))
        assert isinstance(scores._covariance, EncodedMatrix)
        first = scores.covariance
        assert isinstance(first, np.ndarray) and scores.covariance is first
        assert not isinstance(scores._covariance, EncodedMatrix)  # base64 text dropped
        assert np.array_equal(bits(first), bits(eager))
        assert np.array_equal(bits(first), bits(cov))


def _counts() -> PairwiseCounts:
    """A 3-model ledger with its source and mean scores, as `epp fit` counts it."""
    rows = "".join(f"toy,m{k},alg,s{s},{0.1 * k + 0.05 * ((3 * s + k) % 4)!r}\n"
                   for k in range(3) for s in range(4))
    return build_matches(parse_scores_csv("dataset,model,algorithm,split,score\n" + rows), "toy")


def _fit_text() -> str:
    fit = fit_epp(_counts())
    fit.algorithms = {"m0": "alg", "m1": "alg", "m2": "alg"}
    return fit.to_json_text()


KINDS = {"fit": (EppScores, _fit_text),
         "counts": (PairwiseCounts, lambda: _counts().to_json_text())}


class TestFitFile:
    def test_covariance_written_as_base64_bytes(self):
        obj = json.loads(fit_epp(_counts()).to_json_text())
        assert obj["covariance"]["dtype"] == "<f8"
        assert obj["covariance"]["shape"] == [3, 3]
        assert obj["covariance"]["triangle"] == "upper"
        assert list(obj)[-5:] == ["covariance", "n_components", "algorithms", "source",
                                  "mean_score"]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 9),
        shape=st.sampled_from(["random", "islands", "path"]),
        separated=st.lists(st.integers(0, 8), max_size=2),
        algorithm=st.sampled_from(["mm", "newton"]),
    )
    def test_fitted_covariance_round_trips_as_its_triangle(self, seed, m, shape, separated,
                                                           algorithm):
        counts = _graph_counts(seed, m, shape, separated)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FitWarning)
            fit = fit_epp(counts, FitConfig(algorithm=algorithm))
        text = fit.to_json_text()
        assert json.loads(text)["covariance"]["triangle"] == "upper"
        again = EppScores.from_json_text(text)
        assert np.array_equal(bits(again.covariance), bits(fit.covariance))
        assert again.to_json_text() == text

    @pytest.mark.parametrize("text, message", [
        ('{"dataset": "d", "models": [', "not valid JSON"),
        ("[1, 2]", "not a JSON object"),
        ('{"dataset": "d"}', "missing key 'models'"),
    ])
    def test_malformed_text(self, text, message):
        for cls, fmt in ((EppScores, FIT_FORMAT), (PairwiseCounts, COUNTS_FORMAT)):
            # an object holds the right format, so the reader gets past it
            with pytest.raises(FileFormatError, match="^" + message):
                cls.from_json_text(text.replace("{", '{"format": "%s", ' % fmt, 1))

    @pytest.mark.parametrize("ids, message", [
        ({"dataset": 5}, "dataset: not a string"),
        ({"models": "abc"}, "models: not a list of strings"),
        ({"models": ["a", 1, "c"]}, "models: not a list of strings"),
        ({"models": ["a", "b", "a"]}, "models: 'a' is listed more than once"),
    ])
    def test_malformed_ids(self, ids, message):
        for cls, write in KINDS.values():
            text = json.dumps({**json.loads(write()), **ids})
            with pytest.raises(FileFormatError, match="^" + message):
                cls.from_json_text(text)

    def test_separation_flags_must_match_models(self):
        message = "^separation: not a list of one of none, all_wins, all_losses per model$"
        obj = json.loads(_fit_text())
        for flags in (["none"], ["none", "none", "maybe"]):
            obj["separation"] = flags
            with pytest.raises(FileFormatError, match=message):
                EppScores.from_json_text(json.dumps(obj))


class TestFormat:
    """Each file holds its format first; a file without it, or with
    another, is refused before any other key is read."""

    def test_every_file_starts_with_its_format(self):
        for kind, fmt in (("fit", "epp-fit/2"), ("counts", "epp-counts/2")):
            assert next(iter(json.loads(KINDS[kind][1]()).items())) == ("format", fmt)

    @pytest.mark.parametrize("kind, fmt, message", [
        ("fit", None, "'epp-fit/2' expected, the file has none; "
                      "fit its scores again with epp fit"),
        ("fit", "epp-fit/1", "'epp-fit/2' expected, the file has 'epp-fit/1'; "
                             "fit its scores again with epp fit"),
        ("fit", "epp-counts/2", "'epp-fit/2' expected, the file has 'epp-counts/2'; "
                                "fit its scores again with epp fit"),
        ("counts", None, "'epp-counts/2' expected, the file has none; "
                         "count its scores again with epp fit --dump-counts"),
        ("counts", "epp-fit/2", "'epp-counts/2' expected, the file has 'epp-fit/2'; "
                                "count its scores again with epp fit --dump-counts"),
        ("counts", 2, "'epp-counts/2' expected, the file has 2; "
                      "count its scores again with epp fit --dump-counts"),
    ])
    def test_missing_or_other_format_is_refused(self, kind, fmt, message):
        cls, write = KINDS[kind]
        obj = json.loads(write())
        if fmt is None:
            del obj["format"]
            # as in files written before the key: the covariance or wins as lists
            key = "covariance" if kind == "fit" else "w"
            obj[key] = np.eye(3).tolist()
        else:
            obj["format"] = fmt
        with pytest.raises(FileFormatError) as caught:
            cls.from_json_text(json.dumps(obj))
        assert str(caught.value) == "format: " + message


# Each key with a value of another JSON type, or of its type but another form.
WRONG_VALUES = [
    ("fit", "beta", [True, 0.0, 0.0]),
    ("fit", "beta", [0.5, -0.5]),
    ("fit", "beta", encode_array(np.zeros(3))),
    ("fit", "separation", "none"),
    ("fit", "converged", "false"),
    ("fit", "converged", 0),
    ("fit", "iterations", 3.7),
    ("fit", "iterations", True),
    ("fit", "iterations_per_component", "ab"),
    ("fit", "iterations_per_component", [1.0]),
    ("fit", "grad_norm", [1]),
    ("fit", "grad_norm", "1e-9"),
    ("fit", "grad_norm", False),
    ("fit", "rescue_steps", "x"),
    ("fit", "rescue_steps", 0.0),
    ("fit", "blas_threads", "x"),
    ("fit", "blas_threads", True),
    ("fit", "log_likelihood", True),
    ("fit", "log_likelihood", "1.5"),
    ("fit", "log_likelihood", None),
    ("fit", "covariance", np.eye(3).tolist()),
    ("fit", "covariance", encode_array(np.eye(3))),
    ("fit", "n_components", True),
    ("fit", "n_components", None),
    ("fit", "algorithms", [["m0", "alg"]]),
    ("fit", "algorithms", {"m0": 3, "m1": "alg", "m2": "alg"}),
    ("fit", "source", 1),
    ("fit", "source", {"sha256": 5}),
    ("fit", "source", {"sha256": "ab", "lower_is_better": 0}),
    ("fit", "mean_score", [0.1, 0.2, 0.3]),
    ("counts", "w", np.ones((3, 3)).tolist()),
    ("counts", "w", None),
    ("counts", "source", "sha256"),
    ("counts", "source", {"sha256": ["ab"], "lower_is_better": False}),
    ("counts", "source", {"lower_is_better": "false"}),
    ("counts", "mean_score", [0.1, 0.2, 0.3]),
    ("counts", "mean_score", encode_array(np.zeros(2))),
]


@pytest.mark.parametrize("kind, key, value", WRONG_VALUES,
                         ids=[f"{k}-{key}={json.dumps(v)[:30]}" for k, key, v in WRONG_VALUES])
def test_each_key_is_read_in_one_form(kind, key, value):
    cls, write = KINDS[kind]
    obj = json.loads(write())
    assert key in obj
    obj[key] = value
    with pytest.raises(FileFormatError, match=f"^{key}: "):
        cls.from_json_text(json.dumps(obj))


@pytest.mark.parametrize("source", [{}, {"ties": "half"}, {"sha256": None, "lower_is_better": None},
                                    {"sha256": "ab", "lower_is_better": True, "pairing": 1}])
@pytest.mark.parametrize("kind", ["fit", "counts"])
def test_source_reads_only_its_digest_and_orientation(kind, source):
    # An absent entry is not known, as null is; entries no report reads
    # are carried as written.
    cls, write = KINDS[kind]
    obj = json.loads(write())
    obj["source"] = source
    assert cls.from_json_text(json.dumps(obj)).source == source
