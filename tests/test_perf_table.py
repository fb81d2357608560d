import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_pairwise_counts, rowwise_parse_scores_csv, rowwise_validate

from eppscore import (
    PairedSplitsMismatchError,
    TableParseError,
    parse_hyperparams_csv,
    parse_scores_csv,
    simulate_scores,
    validate,
)
from eppscore.baselines import SyntheticSpec
from eppscore.match_engine import PairingMode, TiePolicy, build_matches
from eppscore.perf_table import DatasetValidation, PerformanceTable


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
        columns = (["d1", "d2"], ["m1", "m1"], ["gbm", "rf"], ["s1", "s1"], np.array([0.5, 0.6]))
        with pytest.raises(TableParseError) as err:
            PerformanceTable(*columns)
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


@st.composite
def _scores_csv(draw):
    """(text, fault): a scores CSV with at most one injected fault."""
    rows = []
    for dataset in draw(st.lists(st.sampled_from(_DATASETS), min_size=1, max_size=3, unique=True)):
        equal = draw(st.booleans())
        split_pool = draw(st.lists(st.sampled_from(_SPLITS), min_size=1, max_size=10, unique=True))
        for model in draw(st.lists(st.sampled_from(_MODELS), min_size=1, max_size=4, unique=True)):
            algorithm = _ALGORITHMS[_MODELS.index(model) % len(_ALGORITHMS)]
            splits = split_pool if equal else draw(
                st.lists(st.sampled_from(split_pool), min_size=1, unique=True)
            )
            for split in splits:
                rows.append([dataset, model, algorithm, split, draw(st.sampled_from(_VALUES))])
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
        other = next(a for a in _ALGORITHMS if a.strip() != algorithm.strip())
        rows.insert(draw(st.integers(0, len(rows))), [dataset, model, other, "s99", "0.5"])
    lines = ["dataset,model,algorithm,split,score"]
    for row in rows:
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append("")
        lines.append(",".join(map(_csv_field, row)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + eol.join(lines) + eol, fault


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
            for model, splits, scores in self._per_model(table, ds):
                expected = ref.index[ds][model]
                assert splits == list(expected)
                assert np.array_equal(_bits(scores), _bits(expected.values()))
                assert _bits([table.mean_score(ds, model)]) == _bits(
                    [sum(expected.values()) / len(expected)]
                )
        negated = table.negated()  # after the means above were computed
        for ds in table.datasets():
            for model, _, scores in self._per_model(negated, ds):
                flipped = [-v for v in ref.index[ds][model].values()]
                assert np.array_equal(_bits(scores), _bits(flipped))
                assert _bits([negated.mean_score(ds, model)]) == _bits(
                    [sum(flipped) / len(flipped)]
                )
        for got, expected in zip(validate(table).datasets, rowwise_validate(ref), strict=True):
            expected = DatasetValidation(*expected)
            assert got == expected
            assert got.folded_warnings() == expected.folded_warnings()
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


class TestValidate:
    def test_benchmark_shape_no_warnings(self):
        rows = []
        for mi, alg in enumerate(["gbm", "glmnet", "kknn", "ranger"]):
            for s in range(20):
                rows.append(f"d1,{alg}{mi},{alg},s{s:02d},0.{50 + mi}{s:02d}")
        report = validate(parse_scores_csv(make_csv(rows)))
        assert len(report.datasets) == 1
        ds = report.datasets[0]
        assert ds.n_models == 4
        assert len(ds.split_ids) == 20
        assert report.ok

    def test_missing_split_warns_with_names(self):
        rows = [f"d1,m1,gbm,s{k:02d},0.5{k:02d}" for k in range(20)]
        rows += [f"d1,m2,rf,s{k:02d},0.6{k:02d}" for k in range(19)]
        report = validate(parse_scores_csv(make_csv(rows)))
        assert any("m2" in w and "s19" in w for w in report.warnings)
        assert report.datasets[0].missing_splits == {"m2": ("s19",)}

    def test_folded_warnings_keep_other_warnings(self):
        rows = [f"d1,m1,gbm,s{k},0.5" for k in range(3)]  # constant
        rows += ["d1,m2,rf,s0,0.1", "d1,m3,rf,s2,0.3"]  # two missing splits each
        ds = validate(parse_scores_csv(make_csv(rows))).datasets[0]
        assert len(ds.warnings) == 3
        assert ds.folded_warnings() == [
            "dataset 'd1': 2 models missing splits (4 missing runs): m2, m3",
            "dataset 'd1': model 'm1' has a constant score across 3 splits",
        ]

    def test_constant_model_flagged(self):
        rows = [f"d1,m1,gbm,s{k},0.5" for k in range(3)]
        rows += [f"d1,m2,rf,s{k},0.{k + 1}" for k in range(3)]
        report = validate(parse_scores_csv(make_csv(rows)))
        assert report.datasets[0].constant_models == ("m1",)

    def test_exact_ties_counted(self):
        rows = ["d1,m1,gbm,s1,0.5", "d1,m2,rf,s1,0.5"]
        report = validate(parse_scores_csv(make_csv(rows)))
        assert report.datasets[0].exact_tie_pairs == 1

    def test_same_model_duplicates_are_not_tie_matches(self):
        # a model never plays itself, so its own repeated value is no tie
        rows = ["d1,m1,gbm,s1,0.5", "d1,m1,gbm,s2,0.5", "d1,m2,rf,s1,0.7"]
        report = validate(parse_scores_csv(make_csv(rows)))
        assert report.datasets[0].exact_tie_pairs == 0

    def test_empty_table_empty_report(self):
        report = validate(PerformanceTable([], [], [], [], np.empty(0)))
        assert report.datasets == ()
        assert report.ok


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
        with pytest.raises(TableParseError, match="mixes"):
            parse_hyperparams_csv(text)

    def test_three_levels_rejected(self):
        text = "model,parameter,value\nm1,p,a\nm2,p,b\nm3,p,c\n"
        with pytest.raises(TableParseError, match="levels"):
            parse_hyperparams_csv(text)

    def test_duplicate_entry_rejected(self):
        text = "model,parameter,value\nm1,k,3\nm1,k,4\n"
        with pytest.raises(TableParseError, match="duplicate"):
            parse_hyperparams_csv(text)
