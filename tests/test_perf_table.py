import pytest

from eppscore import (
    TableParseError,
    parse_hyperparams_csv,
    parse_scores_csv,
    parse_scores_json,
    validate,
)
from eppscore.perf_table import PerformanceTable, ScoreRecord


def make_csv(rows):
    return "dataset,model,algorithm,split,score\n" + "\n".join(rows) + "\n"


class TestParseScoresCsv:
    def test_single_row_round_trip(self):
        table = parse_scores_csv(make_csv(["d1,m1,gbm,s1,0.89"]))
        assert len(table) == 1
        rec = table.records[0]
        assert rec == ScoreRecord("d1", "m1", "gbm", "s1", 0.89)
        assert table.score("d1", "m1", "s1") == pytest.approx(0.890)

    def test_row_order_does_not_matter(self):
        rows = ["d1,m1,gbm,s1,0.5", "d1,m1,gbm,s2,0.6", "d1,m2,rf,s1,0.7"]
        shuffled = [rows[2], rows[0], rows[1]]
        assert parse_scores_csv(make_csv(rows)) == parse_scores_csv(make_csv(shuffled))

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
        assert parse_scores_csv(text) == parse_scores_csv(text.replace("\n", "\r\n"))

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
        assert sorted(again.records) == sorted(table.records)

    def test_json_mirror_round_trip(self):
        table = parse_scores_csv(make_csv(["d1,m1,gbm,s1,0.5", "d2,m2,rf,s2,0.75"]))
        again = parse_scores_json(table.to_json_text())
        assert sorted(again.records) == sorted(table.records)

    def test_negated(self):
        table = parse_scores_csv(make_csv(["d1,m1,gbm,s1,0.5"]))
        assert table.negated().score("d1", "m1", "s1") == -0.5


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
        report = validate(PerformanceTable([]))
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

    def test_unknown_models_helper(self):
        table = parse_scores_csv(make_csv(["d1,m1,gbm,s1,0.5"]))
        hyper = parse_hyperparams_csv("model,parameter,value\nm1,k,3\nmX,k,4\n")
        assert hyper.unknown_models(table) == {"mX"}

    def test_json_mirror_round_trip(self):
        from eppscore.perf_table import parse_hyperparams_json

        text = (
            "model,parameter,value\nm1,k,3\nm2,k,7\n"
            "m1,replace,TRUE\nm2,replace,FALSE\n"
        )
        hyper = parse_hyperparams_csv(text)
        again = parse_hyperparams_json(hyper.to_json_text())
        assert again.parameters == hyper.parameters
        assert again.values("k") == hyper.values("k")
        assert again.values("replace") == hyper.values("replace")

    def test_csv_round_trip(self):
        text = "model,parameter,value\nm1,k,3\nm2,k,7\n"
        hyper = parse_hyperparams_csv(text)
        again = parse_hyperparams_csv(hyper.to_csv_text())
        assert again.values("k") == hyper.values("k")
