import csv
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    naive_pairwise_counts,
    rowwise_parse_scores_csv,
    rowwise_validate,
    two_sort_tie_pairs,
)

from eppscore import (
    PairedSplitsMismatchError,
    TableParseError,
    parse_hyperparams_csv,
    parse_scores_csv,
    simulate_scores,
    validate,
)
from eppscore import perf_table
from eppscore.baselines import SyntheticSpec
from eppscore.match_engine import PairingMode, TiePolicy, build_matches
from eppscore.perf_table import (
    DatasetValidation,
    PerformanceTable,
    _as_text,
    _csv_columns,
    _factorize,
    _scores_columns,
)


def make_csv(rows):
    return "dataset,model,algorithm,split,score\n" + "\n".join(rows) + "\n"


class TestParseScoresCsv:
    def test_single_row_round_trip(self):
        table = parse_scores_csv(make_csv(["d1,m1,gbm,s1,0.89"]))
        assert len(table) == 1
        assert table.to_csv_text() == make_csv(["d1,m1,gbm,s1,0.89"])
        block = table.block("d1")
        assert (block.models, block.split_ids, block.score.tolist()) == (("m1",), ("s1",), [0.89])

    def test_row_order_does_not_matter(self):
        rows = ["d1,m1,gbm,s1,0.5", "d1,m1,gbm,s2,0.6", "d1,m2,rf,s1,0.7"]
        shuffled = [rows[2], rows[0], rows[1]]
        lines = [
            sorted(parse_scores_csv(make_csv(r)).to_csv_text().splitlines())
            for r in (rows, shuffled)
        ]
        assert lines[0] == lines[1] == sorted(make_csv(rows).splitlines())

    def test_unparsable_score_reports_line_number(self):
        with pytest.raises(TableParseError, match="line 2"):
            parse_scores_csv(make_csv(["d1,m1,gbm,s1,abc"]))

    def test_bad_line_number_counts_header(self):
        text = make_csv(["d1,m1,gbm,s1,0.5", "d1,m1,gbm,s2,oops"])
        with pytest.raises(TableParseError, match="line 3"):
            parse_scores_csv(text)

    def test_wrong_column_count(self):
        with pytest.raises(TableParseError, match="5 columns"):
            parse_scores_csv(make_csv(["d1,m1,gbm,0.5"]))

    def test_duplicate_triple_named(self):
        text = make_csv(["d1,m1,gbm,s1,0.5", "d1,m1,gbm,s1,0.6"])
        with pytest.raises(TableParseError) as err:
            parse_scores_csv(text)
        message = str(err.value)
        assert "d1" in message and "m1" in message and "s1" in message

    def test_rejects_nonfinite_scores(self):
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(TableParseError):
                parse_scores_csv(make_csv([f"d1,m1,gbm,s1,{bad}"]))

    def test_wrong_header(self):
        with pytest.raises(TableParseError, match="header"):
            parse_scores_csv("a,b,c,d,e\nd1,m1,gbm,s1,0.5\n")

    def test_crlf_and_lf_agree(self):
        text = make_csv(["d1,m1,gbm,s1,0.5", "d1,m2,rf,s1,0.6"])
        crlf = text.replace("\n", "\r\n")
        assert parse_scores_csv(crlf).to_csv_text() == parse_scores_csv(text).to_csv_text() == text

    @pytest.mark.parametrize("data", [
        b"h\rd1,m1,gbm,s1,0.5\rd1,m2,rf,s1,0.6\r",
        b"h\nd1,m1,gbm,s1,0.5\rd1,m2,rf,s1,0.6\n",
        b"h\r\nd1,m1,gbm,s1,0.5\nd1,m2,rf,s1,0.6\r",
        b"\xef\xbb\xbfh\nd1,m1,gbm,s1,0.5\nd1,m2,rf,s1,0.6",
    ], ids=["cr", "lf-cr-lf", "crlf-lf-cr", "bom"])
    def test_bytes_with_any_line_ends(self, data):
        data = data.replace(b"h", b"dataset,model,algorithm,split,score", 1)
        quoted = data.replace(b"d1,m1", b'"d1",m1')  # read with csv.reader
        text = make_csv(["d1,m1,gbm,s1,0.5", "d1,m2,rf,s1,0.6"])
        assert parse_scores_csv(data).to_csv_text() == parse_scores_csv(quoted).to_csv_text() == text

    def test_accepts_bytes(self):
        table = parse_scores_csv(make_csv(["d1,m1,gbm,s1,0.5"]).encode("utf-8"))
        assert len(table) == 1

    def test_quoted_fields(self):
        table = parse_scores_csv('dataset,model,algorithm,split,score\n"d,1",m1,gbm,s1,0.5\n')
        assert table.datasets() == ["d,1"]

    def test_conflicting_algorithm_label(self):
        text = make_csv(["d1,m1,gbm,s1,0.5", "d2,m1,rf,s1,0.6"])
        with pytest.raises(TableParseError, match="two algorithms"):
            parse_scores_csv(text)

    def test_csv_round_trip_preserves_records(self):
        table = parse_scores_csv(
            make_csv(["d1,m1,gbm,s1,0.512345678901", "d1,m2,rf,s1,0.625"])
        )
        again = parse_scores_csv(table.to_csv_text())
        assert again.to_csv_text() == table.to_csv_text()

    def test_negated(self):
        table = parse_scores_csv(make_csv(["d1,m1,gbm,s1,0.5"]))
        assert table.negated().block("d1").score.tolist() == [-0.5]

    @pytest.mark.parametrize("model", ["m\ud800", '"m\ud800"'], ids=["unquoted", "quoted"])
    def test_lone_surrogate_is_a_parse_error(self, model):
        with pytest.raises(TableParseError) as err:
            parse_scores_csv(make_csv(["d1,m0,gbm,s1,0.5", f"d1,{model},gbm,s1,0.5"]))
        assert str(err.value) == "line 3: cannot encode '\\ud800' as UTF-8"


class TestCsvTextAndReadRows:
    def test_csv_text_formats_floats_and_quotes_only_what_needs_it(self):
        text = perf_table.csv_text(
            ("id", "x", "n", "note"),
            [("a,b", 1 / 3, 7, None), ('say "hi"', np.float64(2e-300), 10**7, "a b"),
             ("two\nlines", 123456789.0, -1, "")],
        )
        assert text == (
            'id,x,n,note\n"a,b",0.333333,7,\n"say ""hi""",2e-300,10000000,a b\n'
            '"two\nlines",1.23457e+08,-1,\n'
        )
        assert list(csv.reader(text.splitlines(keepends=True)))[1:] == [
            ["a,b", "0.333333", "7", ""], ['say "hi"', "2e-300", "10000000", "a b"],
            ["two\nlines", "1.23457e+08", "-1", ""],
        ]

    def test_read_rows_skips_blank_rows_and_strips_fields(self):
        rows = perf_table.read_rows(b' a , b \n\n"x,1", y \r\n\n z ,"w"\n', ("a", "b"))
        assert rows == [(3, ["x,1", "y"]), (5, ["z", "w"])]

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty input: missing header"),
        ("a,c\n", "line 1: expected header 'a,b', got 'a,c'"),
        ("a,b\nx\n", "line 2: expected 2 columns, got 1"),
        ("a,b\nx,y\n\nx,y,z\n", "line 4: expected 2 columns, got 3"),
    ], ids=["empty", "header", "short_row", "long_row"])
    def test_read_rows_errors(self, text, message):
        with pytest.raises(TableParseError) as err:
            perf_table.read_rows(text, ("a", "b"))
        assert str(err.value) == message


class TestRecordsConstructor:
    """Tables built from columns, not parsed, report faults without line
    numbers."""

    def test_non_finite(self):
        spec = SyntheticSpec(skills=(0.0, float("nan")), n_splits=2, seed=1)
        with pytest.raises(TableParseError) as err:
            simulate_scores(spec)
        assert str(err.value) == "non-finite score nan for (synthetic, m001, s000)"
        assert err.value.line is None

    def test_two_algorithms(self):
        ids = (["d1", "d2"], ["m1", "m1"], ["gbm", "rf"], ["s1", "s1"])
        with pytest.raises(TableParseError) as err:
            PerformanceTable(*map(_factorize, ids), np.array([0.5, 0.6]))
        assert str(err.value) == "model 'm1' labeled with two algorithms: 'gbm' and 'rf'"


def _csv_field(text):
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# Raw ids: quoted commas, an embedded newline, padding. Each pool's ids stay
# distinct after stripping, so faults arise only where they are injected.
_DATASETS = ["d1", "d,1", " d2 ", "d 3"]
_MODELS = ["m1", " m2", "m,3", "m\n4", "mod 5 ", "m6"]
_ALGORITHMS = ["gbm", "rf, fast", " glm "]
_SPLITS = ["s1", " s2", "s,3", "s4 ", "s5", "s6", "s7", "s8", "s9", "s10"]
# float() parses "\x1c1.5" only after str.strip(), as the parser has always done.
_VALUES = [
    "0.5", " 0.25 ", "\x1c1.5", "-0.0", "0.0", "+0.0", "1e-3", "0.1", "0.7", "-2.2", "1_0", "3",
    "0.5000",
]
_FAULTS = [None, "columns", "unparsable", "non-finite", "duplicate", "algorithm"]


# Quote-free pools, written without quoting: ids that merge once stripped
# (" m2", "m2"), an empty id, non-ASCII ids and scores, a score with a
# comma. Faults arise anywhere here; the two tokenizers must agree on them.
_PLAIN_POOLS = (
    ["d1", " d2 ", "d 3", "dé"],
    ["m1", " m2", "m2", "mod 5 ", "", "μ6"],
    ["gbm", "rf fast", " glm "],
    ["s1", " s2", "s4 ", "s5", "s6", "s7", "s8", "s9", "s10", "\ts11"],
    _VALUES + ["\xa01", "١", "1e-320", "0,5"],
)


@st.composite
def _scores_csv(draw, plain=False):
    """(text, fault): a scores CSV with at most one injected fault. `plain`
    draws from `_PLAIN_POOLS`, writes no quotes, and also draws
    whitespace-only lines, CR line ends, mixed line ends, a double BOM and
    a missing final line end."""
    datasets, models, algorithms, split_ids, values = _PLAIN_POOLS if plain else (
        _DATASETS, _MODELS, _ALGORITHMS, _SPLITS, _VALUES
    )
    field = str if plain else _csv_field
    rows = []
    for dataset in draw(st.lists(st.sampled_from(datasets), min_size=1, max_size=3, unique=True)):
        equal = draw(st.booleans())
        split_pool = draw(st.lists(st.sampled_from(split_ids), min_size=1, max_size=10, unique=True))
        for model in draw(st.lists(st.sampled_from(models), min_size=1, max_size=4, unique=True)):
            algorithm = algorithms[models.index(model) % len(algorithms)]
            splits = split_pool if equal else draw(
                st.lists(st.sampled_from(split_pool), min_size=1, unique=True)
            )
            for split in splits:
                rows.append([dataset, model, algorithm, split, draw(st.sampled_from(values))])
    rows = draw(st.permutations(rows))
    fault = draw(st.sampled_from(_FAULTS))
    k = draw(st.integers(0, len(rows) - 1))
    if fault == "columns":
        rows[k] = rows[k][:4] if draw(st.booleans()) else rows[k] + ["x"]
    elif fault == "unparsable":
        rows[k][4] = draw(st.sampled_from(["abc", "", "1.2.3", "0,5"]))
    elif fault == "non-finite":
        rows[k][4] = draw(st.sampled_from(["nan", " inf", "-Infinity", "NaN "]))
    elif fault == "duplicate":
        j = draw(st.integers(k, len(rows)))
        twin = list(rows[k])
        twin[1] = f" {twin[1]} "  # the same id once stripped
        rows.insert(j + 1, twin[:4] + ["0.125"])
    elif fault == "algorithm":
        dataset, model, algorithm = rows[k][:3]
        other = next(a for a in algorithms if a.strip() != algorithm.strip())
        rows.insert(draw(st.integers(0, len(rows))), [dataset, model, other, "s99", "0.5"])
    lines = ["dataset,model,algorithm,split,score"]
    for row in rows:
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "", " "])) if plain else "")
        lines.append(",".join(map(field, row)))
    # None: each line's end drawn on its own.
    eol = draw(st.sampled_from(["\n", "\r\n", "\r", None] if plain else ["\n", "\r\n"]))
    eols = [eol or draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if plain and draw(st.booleans()):
        eols[-1] = ""
    bom = draw(st.sampled_from(["", "\ufeff", "\ufeff\ufeff"] if plain else ["", "\ufeff"]))
    return bom + "".join(map(str.__add__, lines, eols)), fault


def _bits(values):
    return np.array(list(values), dtype=float).view(np.int64)


class TestColumnarMatchesRowwiseOracle:
    @settings(deadline=None, max_examples=300)
    @given(case=_scores_csv(), as_bytes=st.booleans())
    def test_property(self, case, as_bytes):
        text, fault = case
        data = text.encode("utf-8") if as_bytes else text
        try:
            ref = rowwise_parse_scores_csv(text)
        except TableParseError as exc:
            with pytest.raises(TableParseError) as err:
                parse_scores_csv(data)
            assert (str(err.value), err.value.line) == (str(exc), exc.line)
            return
        assert fault is None
        table = parse_scores_csv(data)
        assert len(table) == len(ref.rows)
        assert table.algorithm_of == ref.algorithm_of
        written = rowwise_parse_scores_csv(table.to_csv_text())
        assert [row[:4] for row in written.rows] == [row[:4] for row in ref.rows]
        assert np.array_equal(_bits(r[4] for r in written.rows), _bits(r[4] for r in ref.rows))
        assert table.datasets() == sorted(ref.index)
        for ds in table.datasets():
            assert list(table.block(ds).models) == sorted(ref.index[ds])
            assert list(table.mean_scores(ds)) == sorted(ref.index[ds])
            for model, splits, scores in self._per_model(table, ds):
                expected = ref.index[ds][model]
                assert splits == list(expected)
                assert np.array_equal(_bits(scores), _bits(expected.values()))
                assert _bits([table.mean_scores(ds)[model]]) == _bits(
                    [sum(expected.values()) / len(expected)]
                )
        negated = table.negated()  # after the means above were computed
        for ds in table.datasets():
            for model, _, scores in self._per_model(negated, ds):
                flipped = [-v for v in ref.index[ds][model].values()]
                assert np.array_equal(_bits(scores), _bits(flipped))
                assert _bits([negated.mean_scores(ds)[model]]) == _bits(
                    [sum(flipped) / len(flipped)]
                )
        for got, expected in zip(validate(table), rowwise_validate(ref), strict=True):
            assert got == DatasetValidation(*expected)
        self._check_matches(table, ref)

    @staticmethod
    def _per_model(table, ds):
        """(model, its split ids, its scores) per model of `table.block(ds)`."""
        block = table.block(ds)
        ends = np.cumsum(block.sizes)
        for model, lo, hi in zip(block.models, (ends - block.sizes).tolist(), ends.tolist()):
            splits = [block.split_ids[c] for c in block.split[lo:hi].tolist()]
            yield model, splits, block.score[lo:hi]

    @staticmethod
    def _check_matches(table, ref):
        for ds in table.datasets():
            models = sorted(ref.index[ds])
            by_model = [ref.index[ds][m] for m in models]
            for half in (True, False):
                ties = TiePolicy.HALF if half else TiePolicy.DROP
                counts = build_matches(table, ds, PairingMode.CROSS, ties)
                w, n = naive_pairwise_counts([list(s.values()) for s in by_model], False, half)
                assert np.array_equal(counts.w.view(np.int64), w.view(np.int64))
                assert np.array_equal(counts.n.view(np.int64), n.view(np.int64))
                every = set().union(*by_model)
                offending = [m for m, s in zip(models, by_model) if set(s) != every]
                if offending:
                    with pytest.raises(PairedSplitsMismatchError) as err:
                        build_matches(table, ds, PairingMode.PAIRED, ties)
                    assert err.value.models == offending
                    continue
                counts = build_matches(table, ds, PairingMode.PAIRED, ties)
                aligned = [[s[k] for k in sorted(every)] for s in by_model]
                w, n = naive_pairwise_counts(aligned, True, half)
                assert np.array_equal(counts.w.view(np.int64), w.view(np.int64))
                assert np.array_equal(counts.n.view(np.int64), n.view(np.int64))


def _tokenized(tokenize, text):
    """The rows `tokenize` reads from `text` (ids decoded from their codes,
    scores as bit patterns) with the labels of each id column, or its error."""
    try:
        *ids, score = tokenize(text)
    except TableParseError as exc:
        return str(exc), exc.line
    decoded = [[labels[c] for c in codes.tolist()] for labels, codes in ids]
    return [labels for labels, _ in ids], list(zip(*decoded, _bits(score).tolist()))


def _read_with_csv(text):
    return _csv_columns(_as_text(text))


def _read_bytes(text):
    """The columns `parse_scores_csv` reads from the UTF-8 bytes of `text`:
    from those bytes, or from those of the normalised text, with numpy when
    `text` holds no quote and no NUL."""
    return _scores_columns(text.encode("utf-8"))


class TestByteTokenizerMatchesCsvReader:
    """`_byte_columns`, the tokenizer of quote-free input, against the
    `csv.reader` one: the same coded columns, or the same error and line."""

    @settings(deadline=None, max_examples=300)
    @given(case=_scores_csv(plain=True))
    def test_property(self, case):
        text, _ = case
        assert _tokenized(_read_bytes, text) == _tokenized(_read_with_csv, text)

    LONG = "m" * (csv.field_size_limit() + 1)

    @pytest.mark.parametrize("text, expected", [
        ("h\nd1,m1,gbm,s1,0.5", [("d1", "m1", "gbm", "s1", 0.5)]),
        ("h\n", []),
        ("h", []),
        ("h\n\nd1,m1,gbm,s1,0.5\n\n", [("d1", "m1", "gbm", "s1", 0.5)]),
        ("h\nd1,m1,gbm,s1,0.5\n  \n", ("line 3: expected 5 columns, got 1", 3)),
        ("h\rd1,m1,gbm,s1,0.5\r\rd1,m1,gbm,s2,0.5", [("d1", "m1", "gbm", "s1", 0.5),
                                                     ("d1", "m1", "gbm", "s2", 0.5)]),
        ("h\rd1,m1,gbm,s1,0.5\r", [("d1", "m1", "gbm", "s1", 0.5)]),
        ("h\nd1,m1,gbm,s1,0.5\rd1,m1,gbm,s2,1\r\nd1,m1,gbm,s3,2\n",
         [("d1", "m1", "gbm", "s1", 0.5), ("d1", "m1", "gbm", "s2", 1.0),
          ("d1", "m1", "gbm", "s3", 2.0)]),
        ("h\nd1,m1,gbm,s1,0.5\rd1,m1,gbm,s2,x\n", ("line 3: cannot parse score 'x'", 3)),
        ("\ufeff\ufeffh\nd1,m1,gbm,s1,0.5\n", [("d1", "m1", "gbm", "s1", 0.5)]),
        ("h\nd1,m1,gbm,s1,-0.0\nd1,m1,gbm,s2,0.0\n", [("d1", "m1", "gbm", "s1", -0.0),
                                                      ("d1", "m1", "gbm", "s2", 0.0)]),
        ("h\nd1, m2,gbm,s1,1\nd1,m2 ,gbm,s2,2\n", [("d1", "m2", "gbm", "s1", 1.0),
                                                  ("d1", "m2", "gbm", "s2", 2.0)]),
        ("h\ndé,μ1,gbm,s1,1\n", [("dé", "μ1", "gbm", "s1", 1.0)]),
        ("h\nd1,,gbm,s1,1\n", [("d1", "", "gbm", "s1", 1.0)]),
        ("h\nd1,m1,,,1\n", [("d1", "m1", "", "", 1.0)]),
        ("h\nd1,m1,gbm,s1,1_0\n", [("d1", "m1", "gbm", "s1", 10.0)]),
        ("h\nd1,m1,gbm,s1,\x1c1.5\n", [("d1", "m1", "gbm", "s1", 1.5)]),
        ("h\nd1,m1,gbm,s1,\x1c1.5\nd1,m1,gbm,s2,1.5x\n", ("line 3: cannot parse score '1.5x'", 3)),
        (f"h\nd1,{'é' * csv.field_size_limit()},gbm,s1,1\n",
         [("d1", "é" * csv.field_size_limit(), "gbm", "s1", 1.0)]),
        (f"{LONG},h\nd1\n", (f"line 1: field larger than field limit "
                              f"({csv.field_size_limit()})", 1)),
    ], ids=["no-final-newline", "header-only", "header-only-no-newline", "blank-lines",
            "whitespace-line", "cr-line-ends", "cr-only", "mixed-line-ends",
            "mixed-line-ends-then-bad", "double-bom", "signed-zeros",
            "ids-merge-once-stripped", "non-ascii-ids", "empty-id", "empty-ids", "underscore",
            "unicode-space", "unicode-space-then-bad", "long-in-bytes-not-in-chars",
            "long-header-field"])
    def test_named_case(self, text, expected):
        text = text.replace("h", "dataset,model,algorithm,split,score", 1)
        got = _tokenized(_read_bytes, text)
        assert got == _tokenized(_read_with_csv, text)
        if isinstance(expected, list):
            expected = [(*ids, *_bits([score]).tolist()) for *ids, score in expected]
            got = got[1]
        assert got == expected

    def test_one_long_id_among_many_rows_is_read_with_csv(self, monkeypatch):
        # Fixed-width copies of the model column would take 2,000 x 20,000 bytes.
        rows = [f"d1,m{k},gbm,s1,0.5" for k in range(1999)] + [f"d1,{'m' * 20_000},gbm,s1,1"]
        text = make_csv(rows)
        calls = []
        monkeypatch.setattr(perf_table, "_csv_columns", lambda t: calls.append(t) or _csv_columns(t))
        tracemalloc.start()
        try:
            got = _tokenized(_read_bytes, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == _tokenized(_read_with_csv, text)
        assert calls == [text]
        # The switch to csv.reader comes before any of those copies is made.
        assert peak < 2_000 * 20_000 // 4, peak

    def test_only_quoted_or_nul_input_is_read_with_csv(self, monkeypatch):
        def refuse(text):
            raise AssertionError("csv.reader path taken")

        monkeypatch.setattr(perf_table, "_csv_columns", refuse)
        assert len(parse_scores_csv(make_csv(["d1,m1,gbm,s1,0.5", "d1,m1,gbm,s2,1"]))) == 2
        monkeypatch.undo()
        monkeypatch.setattr(perf_table, "_byte_columns", refuse)
        assert parse_scores_csv(make_csv(['d1,"m1",gbm,s1,0.5'])).block("d1").models == ("m1",)
        # A NUL stays in its field: 3.10's csv refuses the line, later ones read it.
        text = make_csv(["d1,m\x001,gbm,s1,0.5", "d1,m1,gbm,s1,1.5\x00"])
        with pytest.raises(TableParseError) as err:
            parse_scores_csv(text)
        if sys.version_info < (3, 11):
            assert str(err.value) == "line 2: line contains NUL"
        else:
            assert str(err.value) == "line 3: cannot parse score '1.5\\x00'"
            assert parse_scores_csv(make_csv(["d1,m\x001,gbm,s1,0.5"])).block("d1").models == (
                "m\x001",
            )

    @pytest.mark.parametrize("quote", ['"', ""], ids=["quoted", "unquoted"])
    def test_field_over_csv_limit_is_a_parse_error(self, quote):
        model = quote + "m" * 140_000 + quote
        text = make_csv(["d1,m1,gbm,s1,0.5", f"d1,{model},gbm,s2,0.5"])
        with pytest.raises(TableParseError) as err:
            parse_scores_csv(text)
        assert str(err.value) == "line 3: field larger than field limit (131072)"
        assert err.value.line == 3


class TestChunkedTokenizer:
    """`_byte_columns` with chunks of a few lines: a chunk's checks report
    the file's line numbers, and the first error in the file wins, as on
    the `csv.reader` path."""

    @pytest.mark.parametrize("lines", [1, 2, 3])
    @settings(deadline=None, max_examples=200)
    @given(case=_scores_csv(plain=True))
    def test_property(self, lines, case):
        text, _ = case
        with mock.patch.object(perf_table, "_CHUNK_LINES", lines):
            got = _tokenized(_read_bytes, text)
        assert got == _tokenized(_read_with_csv, text)

    ROWS = [f"d1,m{k},gbm,s1,{k}" for k in range(5)]
    LONG = "m" * (csv.field_size_limit() + 1)

    # Chunks of two lines: file lines 2-3, 4-5, 6-7, 8-9.
    @pytest.mark.parametrize("body, expected", [
        ([*ROWS[:4], "", ROWS[4]], 5),
        ([*ROWS[:4], ROWS[4], ""], 5),
        ([*ROWS[:4], " ", ROWS[4]], ("line 6: expected 5 columns, got 1", 6)),
        ([*ROWS, "d1,m9,gbm,s1"], ("line 7: expected 5 columns, got 4", 7)),
        ([*ROWS, "d1,m9,gbm,s1,1,2"], ("line 7: expected 5 columns, got 6", 7)),
        ([*ROWS, "d1,m9,gbm,s1,x"], ("line 7: cannot parse score 'x'", 7)),
        ([*ROWS[:4], "", "d1,m9,gbm,s1,x"], ("line 7: cannot parse score 'x'", 7)),
        (["d1,m9,gbm,s1,x", *ROWS, "d1,m9,gbm"], ("line 8: expected 5 columns, got 3", 8)),
        (["d1,m8,gbm,s1,\x1c1.5", *ROWS[:4], "d1,m9,gbm,s1,1.5x"],
         ("line 7: cannot parse score '1.5x'", 7)),
        ([*ROWS, f"d1,{LONG},gbm,s1,1"],
         (f"line 7: field larger than field limit ({csv.field_size_limit()})", 7)),
        (["d1,m9,gbm", *ROWS, f"d1,{LONG},gbm,s1,1"], ("line 2: expected 5 columns, got 3", 2)),
    ], ids=["blank-line", "blank-last-line", "whitespace-line", "short-row", "long-row",
            "unparsable-score", "unparsable-score-after-blank-line",
            "short-row-after-unparsable-score",
            "unparsable-score-after-stripped-score", "long-field", "long-field-after-short-row"])
    def test_fault_in_a_later_chunk(self, body, expected):
        text = make_csv(body)
        with mock.patch.object(perf_table, "_CHUNK_LINES", 2):
            got = _tokenized(_read_bytes, text)
        assert got == _tokenized(_read_with_csv, text)
        assert (len(got[1]) if isinstance(expected, int) else got) == expected

    @pytest.mark.parametrize("row, message", [
        ("d1,m1,gbm,s2,inf", "line 8: non-finite score 'inf'"),
        ("d1,m1,gbm,s1,7", "line 8: duplicate record for (dataset, model, split) = "
                           "('d1', 'm1', 's1')"),
    ], ids=["non-finite", "duplicate"])
    def test_table_fault_in_a_later_chunk(self, row, message):
        text = make_csv([*self.ROWS, "", row])
        quoted = text.replace("d1,m1,", '"d1",m1,')  # read with csv.reader
        for data in (text, quoted):
            with mock.patch.object(perf_table, "_CHUNK_LINES", 2), \
                    pytest.raises(TableParseError) as err:
                parse_scores_csv(data)
            assert str(err.value) == message


class TestParseMemory:
    def test_traced_peak_at_most_four_times_the_input(self):
        # About 2 MB of quote-free rows: 4 datasets x 100 models x 120 splits.
        rng = np.random.default_rng(3)
        rows = [
            f"ds{d:02d},mod{k:04d},{('gbm', 'knn', 'rf', 'svm')[k % 4]},split{s:03d},{v!r}"
            for d in range(4) for k in range(100)
            for s, v in enumerate(rng.normal(size=120).tolist())
        ]
        data = make_csv(rows).encode("utf-8")
        assert 1.8e6 < len(data) < 2.4e6
        tracemalloc.start()
        try:
            table = parse_scores_csv(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == len(rows)
        assert peak <= 4 * len(data), peak / len(data)


class TestValidate:
    def test_benchmark_shape_no_warnings(self):
        rows = []
        for mi, alg in enumerate(["gbm", "glmnet", "kknn", "ranger"]):
            for s in range(20):
                rows.append(f"d1,{alg}{mi},{alg},s{s:02d},0.{50 + mi}{s:02d}")
        (ds,) = validate(parse_scores_csv(make_csv(rows)))
        assert ds.n_models == 4
        assert len(ds.split_ids) == 20
        assert ds.warnings == ()

    def test_missing_split_warns_with_names(self):
        rows = [f"d1,m1,gbm,s{k:02d},0.5{k:02d}" for k in range(20)]
        rows += [f"d1,m2,rf,s{k:02d},0.6{k:02d}" for k in range(19)]
        (ds,) = validate(parse_scores_csv(make_csv(rows)))
        assert ds.warnings == ("dataset 'd1': 1 model missing splits (1 missing run): m2",)
        assert ds.missing_splits == {"m2": ("s19",)}

    def test_folded_warnings_keep_other_warnings(self):
        rows = [f"d1,m1,gbm,s{k},0.5" for k in range(3)]  # constant
        rows += ["d1,m2,rf,s0,0.1", "d1,m3,rf,s2,0.3"]  # two missing splits each
        (ds,) = validate(parse_scores_csv(make_csv(rows)))
        assert ds.missing_splits == {"m2": ("s1", "s2"), "m3": ("s0", "s1")}
        assert ds.warnings == (
            "dataset 'd1': 2 models missing splits (4 missing runs): m2, m3",
            "dataset 'd1': model 'm1' has a constant score across 3 splits",
        )

    def test_constant_model_flagged(self):
        rows = [f"d1,m1,gbm,s{k},0.5" for k in range(3)]
        rows += [f"d1,m2,rf,s{k},0.{k + 1}" for k in range(3)]
        (ds,) = validate(parse_scores_csv(make_csv(rows)))
        assert ds.constant_models == ("m1",)

    def test_exact_ties_counted(self):
        rows = ["d1,m1,gbm,s1,0.5", "d1,m2,rf,s1,0.5"]
        (ds,) = validate(parse_scores_csv(make_csv(rows)))
        assert ds.exact_tie_pairs == 1
        assert ds.warnings == ("dataset 'd1': 1 pair of exactly equal scores (potential ties)",)

    def test_same_model_duplicates_are_not_tie_matches(self):
        # a model never plays itself, so its own repeated value is no tie
        rows = ["d1,m1,gbm,s1,0.5", "d1,m1,gbm,s2,0.5", "d1,m2,rf,s1,0.7"]
        (ds,) = validate(parse_scores_csv(make_csv(rows)))
        assert ds.exact_tie_pairs == 0

    def test_empty_table_empty_report(self):
        assert validate(PerformanceTable(*[_factorize([])] * 4, np.empty(0))) == ()


class TestSharedScoreOrder:
    @settings(deadline=None, max_examples=200)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["d1", "d2"]),
                st.integers(0, 4),
                st.integers(0, 6),
                st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0]),
            ),
            min_size=1,
            max_size=40,
            unique_by=lambda row: row[:3],
        )
    )
    def test_tie_count_matches_two_sort_oracle(self, rows):
        datasets, models, splits, scores = zip(*rows)
        table = PerformanceTable(
            _factorize(list(datasets)),
            _factorize([f"m{k}" for k in models]),
            _factorize(["alg"] * len(rows)),
            _factorize([f"s{k}" for k in splits]),
            np.array(scores),
        )
        for version in (table, table.negated()):
            for summary in validate(version):
                block = version.block(summary.dataset_id)
                model = np.repeat(np.arange(len(block.models)), block.sizes)
                assert np.array_equal(block.order, np.lexsort((model, block.score)))
                assert summary.exact_tie_pairs == two_sort_tie_pairs(block.score, model)


class TestParseHyperparamsCsv:
    def test_numeric_parameter(self):
        hyper = parse_hyperparams_csv("model,parameter,value\nm1,n.trees,512\n")
        assert hyper.kind("n.trees") == "numeric"
        assert hyper.values("n.trees") == {"m1": 512.0}

    def test_binary_parameter_two_levels(self):
        text = "model,parameter,value\nm1,replace,TRUE\nm2,replace,FALSE\n"
        hyper = parse_hyperparams_csv(text)
        assert hyper.kind("replace") == "categorical"
        assert hyper.levels("replace") == ["FALSE", "TRUE"]

    def test_mixed_types_rejected(self):
        text = "model,parameter,value\nm1,k,3\nm2,k,high\n"
        with pytest.raises(TableParseError, match="^line 3: parameter 'k' mixes"):
            parse_hyperparams_csv(text)

    def test_three_levels_rejected(self):
        text = "model,parameter,value\nm1,p,a\nm2,p,b\nm3,p,c\n"
        with pytest.raises(TableParseError, match="levels"):
            parse_hyperparams_csv(text)

    def test_field_over_csv_limit_is_a_parse_error(self):
        text = 'model,parameter,value\nm1,k,3\nm2,"' + "k" * 140_000 + '",4\n'
        with pytest.raises(TableParseError) as err:
            parse_hyperparams_csv(text)
        assert str(err.value) == "line 3: field larger than field limit (131072)"

    def test_duplicate_entry_rejected(self):
        text = "model,parameter,value\nm1,k,3\n\nm1,k,4\n"
        with pytest.raises(TableParseError) as err:
            parse_hyperparams_csv(text)
        assert str(err.value) == "line 4: duplicate entry for (model, parameter) = (m1, k)"
