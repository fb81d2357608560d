"""The fit and counts files: their `format` key, the one JSON form of each
key, the float64 array codec, and the fit file's standard errors, which
give the same leaderboard as the fit they were written from."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eppscore import (EppError, EppScores, FileFormatError, FitConfig, FitWarning,
                      PairwiseCounts, build_matches, fit_epp, leaderboard, parse_scores_csv)
from eppscore.jsonio import COUNTS_FORMAT, FIT_FORMAT, decode_array, encode_array
from eppscore.solver import _fit_with_covariance
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


@st.composite
def ledgers(draw):
    """A ledger of 1-8 models of one of three kinds: wins in halves, as tie
    credit gives them (or every pair split evenly, so that scores tie); a
    model that wins every match it plays; or two components and an
    isolated model."""
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["ties", "wins_all", "components"]))
    if kind == "ties":
        if draw(st.booleans()):
            return _graph_counts(seed, m, "random", [], half_ties=True)
        w = np.full((m, m), draw(st.sampled_from([0.5, 3.0])))
        np.fill_diagonal(w, 0.0)
        return PairwiseCounts("d", tuple(f"m{k}" for k in range(m)), w)
    if kind == "wins_all":
        return _graph_counts(seed, m, draw(st.sampled_from(["random", "path"])),
                             [draw(st.integers(0, m - 1))])
    rng = np.random.default_rng(seed)
    group = np.arange(m) % 2  # models 0, 2, 4, ... and 1, 3, 5, ...
    linked = (group[:, None] == group[None, :]) & (np.arange(m) < m - 1)[:, None]
    linked &= linked.T
    np.fill_diagonal(linked, False)
    n = np.triu(np.where(linked, rng.integers(1, 12, (m, m)), 0), 1)
    w_up = rng.integers(0, n + 1)
    w = (w_up + (n - w_up).T).astype(float)
    return PairwiseCounts("d", tuple(f"m{k}" for k in range(m)), w)


def _fit(counts: PairwiseCounts, algorithm: str = "mm") -> EppScores:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FitWarning)
        fit = fit_epp(counts, FitConfig(algorithm=algorithm))
    fit.mean_score = np.linspace(1.0, 0.0, len(fit.models))  # a note or two on each board
    return fit


def _board(fit: EppScores):
    """Each leaderboard row's fields, its test's z and p as bits, or the
    text of the error the leaderboard raises."""
    try:
        rows = leaderboard(fit, None)
    except EppError as exc:
        return repr(exc)
    return [(r.rank, r.model_id, bits(r.beta).tolist(), bits(r.prob_vs_average).tolist(),
             r.mean_score, r.note, None if (t := r.significance_vs_next) is None else
             (bits(t.statistic).tolist(), bits(t.p_value).tolist(), t.stars, t.method))
            for r in rows]


class TestFitFile:
    def test_fit_file_stores_standard_errors_not_the_covariance(self):
        fit, covariance = _fit_with_covariance(_counts(), FitConfig())
        obj = json.loads(fit.to_json_text())
        assert "covariance" not in obj
        assert list(obj)[:7] == ["format", "dataset", "models", "beta", "se", "se_vs_next",
                                 "separation"]
        assert obj["se"] == np.sqrt(np.diag(covariance)).tolist()
        assert len(obj["se_vs_next"]) == 2
        assert list(obj)[-4:] == ["n_components", "algorithms", "source", "mean_score"]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 9),
        shape=st.sampled_from(["random", "islands", "path"]),
        separated=st.lists(st.integers(0, 8), max_size=2),
        algorithm=st.sampled_from(["mm", "newton"]),
    )
    def test_fit_round_trips_through_its_file(self, seed, m, shape, separated, algorithm):
        fit = _fit(_graph_counts(seed, m, shape, separated), algorithm)
        text = fit.to_json_text()
        again = EppScores.from_json_text(text)
        assert np.array_equal(bits(again.se), bits(fit.se))
        assert np.array_equal(bits(again.se_vs_next), bits(fit.se_vs_next))
        assert again.to_json_text() == text
        assert again.to_csv_text() == fit.to_csv_text()

    @settings(max_examples=150, deadline=None)
    @given(counts=ledgers(), algorithm=st.sampled_from(["mm", "newton"]),
           provenance=st.booleans())
    def test_loaded_fit_is_the_fit_field_for_field(self, counts, algorithm, provenance):
        # A fit has one form: each field is one key of its file and reads
        # back with the same type and bits.
        if provenance:
            counts.source = {"sha256": "ab", "lower_is_better": False, "ties": "half"}
            counts.mean_score = np.linspace(-0.0, 1.0 / 3.0, len(counts.models))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FitWarning)
            fit = fit_epp(counts, FitConfig(algorithm=algorithm))
        again = EppScores.from_json_text(fit.to_json_text())
        for f in dataclasses.fields(EppScores):
            a, b = getattr(fit, f.name), getattr(again, f.name)
            assert type(a) is type(b), f.name
            if isinstance(a, np.ndarray):
                assert a.shape == b.shape and np.array_equal(bits(a), bits(b)), f.name
            elif isinstance(a, float):
                assert bits(a) == bits(b), f.name
            else:
                assert a == b, f.name
                if isinstance(a, tuple):
                    assert list(map(type, a)) == list(map(type, b)), f.name

    @settings(max_examples=150, deadline=None)
    @given(counts=ledgers(), algorithm=st.sampled_from(["mm", "newton"]))
    def test_loaded_fit_gives_the_same_leaderboard(self, counts, algorithm):
        fit = _fit(counts, algorithm)
        again = EppScores.from_json_text(fit.to_json_text())
        assert _board(again) == _board(fit)

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
        for kind, fmt in (("fit", "epp-fit/3"), ("counts", "epp-counts/2")):
            assert next(iter(json.loads(KINDS[kind][1]()).items())) == ("format", fmt)

    @pytest.mark.parametrize("kind, fmt, message", [
        ("fit", None, "'epp-fit/3' expected, the file has none; "
                      "fit its scores again with epp fit"),
        ("fit", "epp-fit/1", "'epp-fit/3' expected, the file has 'epp-fit/1'; "
                             "fit its scores again with epp fit"),
        ("fit", "epp-fit/2", "'epp-fit/3' expected, the file has 'epp-fit/2'; "
                             "fit its scores again with epp fit"),
        ("fit", "epp-counts/2", "'epp-fit/3' expected, the file has 'epp-counts/2'; "
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
    ("fit", "se", [0.1, 0.2]),
    ("fit", "se", [0.1, None, 0.2]),
    ("fit", "se", encode_array(np.zeros(3))),
    ("fit", "se_vs_next", [0.1, 0.2, 0.3]),
    ("fit", "se_vs_next", [0.1]),
    ("fit", "se_vs_next", [0.1, "0.2"]),
    ("fit", "se_vs_next", [0.1, False]),
    ("fit", "se_vs_next", None),
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
