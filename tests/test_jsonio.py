"""The float64 array codec of the fit and counts files, the covariance's
upper-triangle form and its deferred decode, and older full-matrix and
list-form files."""

import base64
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eppscore import EppScores, FileFormatError, FitConfig, FitWarning, PairwiseCounts, fit_epp
from eppscore.cli import main
from eppscore.jsonio import (EncodedMatrix, decode_array, decode_symmetric, encode_array,
                             encode_symmetric, load_symmetric)
from oracles import neg_hessian, subspace_covariance
from test_solver import _graph_counts

DATA = Path(__file__).parent / "data"

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

    def test_list_form_decodes(self):
        again = decode_array([[0.0, -1.5], [2.5, 0.0]], (2, 2), "w")
        assert np.array_equal(again, np.array([[0.0, -1.5], [2.5, 0.0]]))

    @pytest.mark.parametrize("value, message", [
        ({"dtype": "<f8", "shape": [2, 2], "base64": "@@@@"}, "w: base64 does not decode"),
        ({"dtype": "<f8", "shape": [2, 2]}, "w: base64 does not decode"),
        ({"dtype": ">f8", "shape": [2, 2], "base64": ""}, "w: dtype '>f8' is not '<f8'"),
        ({"dtype": "<f8", "shape": [1, 4], "base64": ""}, "w: shape [1, 4] is not the expected [2, 2]"),
        ({"dtype": "<f8", "shape": [2, 2], "base64": "AAAAAAAAAAA="},
         "w: 8 bytes do not hold shape [2, 2]"),
        ([[0.0, 1.0]], "w: shape [1, 2] is not the expected [2, 2]"),
        ([[0.0, 1.0], [2.0]], "w: not an array of numbers"),
        ([["x", 1.0], [2.0, 0.0]], "w: not an array of numbers"),
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
    def test_matrix_not_equal_to_its_transpose_keeps_the_full_form(self, index, entry):
        a = np.array([[1.0, 0.25, 0.0], [0.25, 2.0, np.nan], [0.0, np.nan, 3.0]])
        a[index] = entry
        value = encode_symmetric(a)
        assert value == encode_array(a)
        assert np.array_equal(bits(decode_symmetric(value, 3, "c")), bits(a))

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
    """A covariance value as a fit file holds it: a triangle or a full
    matrix of 0-40 floats in canonical base64, often of the right count for
    its shape, then perhaps cut short, padded wrong, or given a byte outside
    the alphabet or whitespace."""
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
    @given(matrices(), st.booleans())
    def test_written_values_are_deferred(self, a, symmetric):
        if symmetric:
            a = np.where(np.tri(len(a), k=-1, dtype=bool), a.T, a)
        for value in (encode_symmetric(a), encode_array(a)):
            assert isinstance(load_symmetric(value, len(a), "c"), EncodedMatrix)

    @pytest.mark.parametrize("form", ["triangle", "full", "list"])
    def test_first_read_decodes_to_the_eager_bits(self, form):
        # bits that arithmetic would not keep: -0.0, a subnormal, NaN, inf
        cov = np.array([[-0.0, 0.25, np.nan], [0.25, 5e-324, 1.0 / 3.0],
                        [np.nan, 1.0 / 3.0, np.inf]])
        value = {"triangle": encode_symmetric(cov), "full": encode_array(cov),
                 "list": cov.tolist()}[form]
        obj = json.loads((DATA / "epp_list_form.json").read_text())
        obj["covariance"] = value
        eager = decode_symmetric(json.loads(json.dumps(value)), 3, "covariance")
        scores = EppScores.from_json_text(json.dumps(obj))
        assert isinstance(scores._covariance, EncodedMatrix) == (form != "list")
        first = scores.covariance
        assert isinstance(first, np.ndarray) and scores.covariance is first
        assert not isinstance(scores._covariance, EncodedMatrix)  # base64 text dropped
        assert np.array_equal(bits(first), bits(eager))
        assert np.array_equal(bits(first), bits(cov))


class TestFitFile:
    def test_covariance_written_as_base64_bytes(self):
        counts = PairwiseCounts.from_json_text((DATA / "counts_list_form.json").read_text())
        obj = json.loads(fit_epp(counts).to_json_text())
        assert obj["covariance"]["dtype"] == "<f8"
        assert obj["covariance"]["shape"] == [3, 3]
        assert obj["covariance"]["triangle"] == "upper"
        assert list(obj)[-3:] == ["covariance", "n_components", "algorithms"]

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

    def test_full_form_fit_file_loads_and_reports_as_its_rewrite(self, tmp_path):
        # Written before covariances were stored as their upper triangle.
        fixture = DATA / "epp_full_form.json"
        obj = json.loads(fixture.read_text())
        assert "triangle" not in obj["covariance"]
        full = np.frombuffer(base64.b64decode(obj["covariance"]["base64"]), "<f8")
        loaded = EppScores.from_json_text(fixture.read_text())
        assert np.array_equal(bits(loaded.covariance), bits(full.reshape(5, 5)))
        assert loaded.standard_errors().tolist() == obj["se"]
        rewritten = tmp_path / "rewritten" / "epp_full.json"
        rewritten.parent.mkdir()
        rewritten.write_text(loaded.to_json_text())
        assert json.loads(rewritten.read_text())["covariance"]["triangle"] == "upper"
        assert main(["simulate", "--models", "5", "--splits", "8", "--seed", "3",
                     "--dataset", "full", "--out-dir", str(tmp_path)]) == 0
        for fmt in ("csv", "json"):
            outputs = []
            for fit in (fixture, rewritten):
                out = tmp_path / f"{fmt}_{fit.parent.name}"
                common = ["--fit", str(fit), "--format", fmt, "--out-dir", str(out)]
                assert main(["leaderboard", *common, "--scores", str(tmp_path / "scores.csv")]) == 0
                assert main(["compare", *common]) == 0
                assert main(["embed", *common]) == 0
                outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert len(outputs[0]) == 4 and outputs[0] == outputs[1]

    def test_list_form_fit_file_loads_to_the_same_arrays(self):
        text = (DATA / "epp_list_form.json").read_text()
        obj = json.loads(text)
        loaded = EppScores.from_json_text(text)
        assert loaded.models == ("m0", "m1", "m2")
        assert np.array_equal(bits(loaded.beta), bits(np.array(obj["beta"])))
        assert np.array_equal(bits(loaded.covariance), bits(np.array(obj["covariance"])))
        assert loaded.standard_errors().tolist() == obj["se"]
        again = EppScores.from_json_text(loaded.to_json_text())
        assert np.array_equal(bits(again.covariance), bits(loaded.covariance))

    def test_list_form_counts_file_loads_and_refits(self, tmp_path):
        counts_path = DATA / "counts_list_form.json"
        obj = json.loads(counts_path.read_text())
        counts = PairwiseCounts.from_json_text(counts_path.read_text())
        assert np.array_equal(counts.w, np.array(obj["w"]))
        assert np.array_equal(counts.n, np.array(obj["n"]))
        again = PairwiseCounts.from_json_text(counts.to_json_text())
        assert np.array_equal(bits(again.w), bits(counts.w))
        assert np.array_equal(bits(again.n), bits(counts.n))
        rc = main(["fit", "--counts", str(counts_path), "--out-dir", str(tmp_path)])
        assert rc == 0
        refit = EppScores.from_json_text((tmp_path / "epp_toy.json").read_text())
        fixture = EppScores.from_json_text((DATA / "epp_list_form.json").read_text())
        assert np.allclose(refit.beta, fixture.beta, rtol=1e-9, atol=1e-12)
        # The fixture's covariance came from the pseudo-inverse form, about
        # 2e-10 (relative) off the exact inverse; the refit is held to that.
        exact = subspace_covariance(neg_hessian(counts.n, refit.beta, 1e-6))
        assert np.allclose(refit.covariance, exact, rtol=1e-9, atol=1e-12)

    def test_reports_read_list_form_fit_files(self, tmp_path):
        rc = main(["compare", "--fit", str(DATA / "epp_list_form.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "compare.csv").read_text().splitlines()[0] == (
            "model,toy_epp,toy_p_vs_avg"
        )

    @pytest.mark.parametrize("text, message", [
        ('{"dataset": "d", "models": [', "not valid JSON"),
        ("[1, 2]", "not a JSON object"),
        ('{"dataset": "d"}', "missing key 'models'"),
    ])
    def test_malformed_text(self, text, message):
        with pytest.raises(FileFormatError, match="^" + message):
            EppScores.from_json_text(text)
        with pytest.raises(FileFormatError, match="^" + message):
            PairwiseCounts.from_json_text(text)

    @pytest.mark.parametrize("ids, message", [
        ({"dataset": 5}, "dataset: not a string"),
        ({"models": "abc"}, "models: not a list of strings"),
        ({"models": ["a", 1, "c"]}, "models: not a list of strings"),
        ({"models": ["a", "b", "a"]}, "models: 'a' is listed more than once"),
    ])
    def test_malformed_ids(self, ids, message):
        for name, cls in (("epp_list_form.json", EppScores),
                          ("counts_list_form.json", PairwiseCounts)):
            text = json.dumps({**json.loads((DATA / name).read_text()), **ids})
            with pytest.raises(FileFormatError, match="^" + message):
                cls.from_json_text(text)

    def test_separation_flags_must_match_models(self):
        obj = json.loads((DATA / "epp_list_form.json").read_text())
        obj["separation"] = ["none"]
        with pytest.raises(FileFormatError, match="separation: 1 flags for 3 models"):
            EppScores.from_json_text(json.dumps(obj))
        obj["separation"] = ["none", "none", "maybe"]
        with pytest.raises(FileFormatError, match="malformed fit file"):
            EppScores.from_json_text(json.dumps(obj))
