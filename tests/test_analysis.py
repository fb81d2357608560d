import numpy as np
import pytest

from eppscore import (
    AnalysisWarning,
    EppScores,
    FitConfig,
    SeparationFlag,
    SpreadKind,
    TunabilityTarget,
    aggregate_across_datasets,
    build_matches,
    cross_dataset_compare,
    embed,
    fit_epp,
    leaderboard,
    parse_hyperparams_csv,
    parse_scores_csv,
    tunability_report,
    win_matrix,
)
from eppscore.analysis import (
    embed_csv_text,
    leaderboard_csv_text,
    tunability_csv_text,
)


def scores_from_betas(betas, dataset="d1", cov_scale=0.01, center=True):
    models = tuple(sorted(betas))
    beta = np.array([betas[m] for m in models], dtype=float)
    if center:
        beta = beta - beta.mean()
    m = len(models)
    cov = cov_scale * (np.identity(m) - np.full((m, m), 1.0 / m))
    return EppScores(
        dataset_id=dataset,
        models=models,
        beta=beta,
        converged=True,
        iterations=1,
        log_likelihood=0.0,
        covariance=cov,
        separation_flags=tuple([SeparationFlag.NONE] * m),
    )


def table_for(models_scores, dataset="d1"):
    lines = ["dataset,model,algorithm,split,score"]
    for model, (alg, scores) in models_scores.items():
        for k, s in enumerate(scores):
            lines.append(f"{dataset},{model},{alg},s{k:02d},{float(s)!r}")
    return parse_scores_csv("\n".join(lines) + "\n")


class TestLeaderboard:
    def build_four_model_study(self):
        # EPP order differs from the mean-score order: the two weak models
        # swap places (the unstable one wins more matches despite a lower mean).
        betas = {"gbm1305": 1.27, "ranger1088": 1.08, "glm1242": -5.91, "kknn1396": -7.52}
        means = {"gbm1305": 0.890, "ranger1088": 0.888, "kknn1396": 0.816, "glm1242": 0.812}
        table = table_for(
            {m: ("alg", [means[m]] * 3) for m in betas}
        )
        return scores_from_betas(betas), table

    def test_order_follows_beta_not_mean_score(self):
        scores, table = self.build_four_model_study()
        rows = leaderboard(scores, table)
        assert [r.model_id for r in rows] == [
            "gbm1305",
            "ranger1088",
            "glm1242",
            "kknn1396",
        ]
        assert [r.rank for r in rows] == [1, 2, 3, 4]
        # mean-score order puts kknn1396 above glm1242: both get notes
        assert rows[2].note is not None and "rank" in rows[2].note
        assert rows[3].note is not None
        assert rows[0].note is None

    def test_all_equal_betas_lexicographic(self):
        betas = {"b": 0.0, "a": 0.0, "c": 0.0}
        table = table_for({m: ("alg", [0.5, 0.6]) for m in betas})
        rows = leaderboard(scores_from_betas(betas), table)
        assert [r.model_id for r in rows] == ["a", "b", "c"]
        assert [r.rank for r in rows] == [1, 2, 3]

    def test_top_k(self):
        scores, table = self.build_four_model_study()
        rows = leaderboard(scores, table, top_k=1)
        assert len(rows) == 1
        assert rows[0].model_id == "gbm1305"
        assert rows[0].significance_vs_next is not None  # vs full-order next

    def test_last_row_has_no_next(self):
        scores, table = self.build_four_model_study()
        rows = leaderboard(scores, table)
        assert rows[-1].significance_vs_next is None
        assert all(r.significance_vs_next is not None for r in rows[:-1])

    def test_prob_vs_average_column(self):
        scores, table = self.build_four_model_study()
        rows = leaderboard(scores, table)
        for r in rows:
            assert r.prob_vs_average == pytest.approx(
                1.0 / (1.0 + np.exp(-r.beta)), abs=1e-12
            )

    def test_csv_header_fixed(self):
        scores, table = self.build_four_model_study()
        text = leaderboard_csv_text(leaderboard(scores, table))
        assert text.splitlines()[0] == (
            "rank,model,epp,p_vs_avg,mean_score,p_value_vs_next,stars"
        )
        assert text.splitlines()[-1].endswith(",,")  # last row: empty test cells


class TestWinMatrix:
    def test_probability_entry_value(self):
        scores = scores_from_betas({"gbm1184": 7.49, "ranger1106": 6.25})
        matrix = win_matrix(scores)
        i = scores.model_index("gbm1184")
        j = scores.model_index("ranger1106")
        assert matrix[i, j] == pytest.approx(0.776, abs=5e-4)

    def test_antisymmetry_and_diagonal(self):
        rng = np.random.default_rng(0)
        scores = scores_from_betas(
            {f"m{k}": float(b) for k, b in enumerate(rng.uniform(-8, 8, 12))}
        )
        matrix = win_matrix(scores)
        assert np.allclose(matrix + matrix.T, 1.0, atol=1e-12)
        assert np.all(np.diag(matrix) == 0.5)

    def test_order_agrees_with_beta(self):
        scores = scores_from_betas({"a": 1.0, "b": 0.0, "c": -1.0})
        matrix = win_matrix(scores)
        for i in range(3):
            for j in range(3):
                if scores.beta[i] > scores.beta[j]:
                    assert matrix[i, j] > 0.5

    def test_single_model(self):
        scores = scores_from_betas({"only": 0.0})
        assert win_matrix(scores).tolist() == [[0.5]]

class TestCrossDatasetCompare:
    def test_cell_values(self):
        # score values taken as-is (not re-centered)
        mozilla = scores_from_betas(
            {"gbm1184": 7.49, "kknn1016": -6.78}, dataset="mozilla4", center=False
        )
        credit = scores_from_betas(
            {"RF1155": 1.29, "kknn1016": -0.54}, dataset="credit-g", center=False
        )
        table = cross_dataset_compare([mozilla, credit])
        c1 = table.cell("gbm1184", "mozilla4")
        assert c1.prob_vs_average == pytest.approx(0.99944, abs=5e-4)
        c2 = table.cell("RF1155", "credit-g")
        assert c2.prob_vs_average == pytest.approx(0.784, abs=5e-3)
        # missing combination is absent, not an error
        assert table.cell("gbm1184", "credit-g") is None

    def test_zero_beta_everywhere(self):
        results = [
            scores_from_betas({"m": 0.0, "other": 0.0}, dataset=f"d{k}")
            for k in range(3)
        ]
        table = cross_dataset_compare(results, ["m"])
        for ds in table.datasets:
            assert table.cell("m", ds).prob_vs_average == 0.5

    def test_single_dataset_reduces_to_prob_column(self):
        scores = scores_from_betas({"a": 1.0, "b": -1.0})
        table = cross_dataset_compare([scores])
        assert table.datasets == ("d1",)
        assert table.cell("a", "d1").beta == pytest.approx(scores.beta_of("a"))

    def test_csv_layout(self):
        scores = scores_from_betas({"a": 1.0, "b": -1.0})
        text = cross_dataset_compare([scores]).to_csv_text()
        assert text.splitlines()[0] == "model,d1_epp,d1_p_vs_avg"


class TestEmbed:
    def test_constant_betas(self):
        scores = scores_from_betas({"x1": 1.0, "x2": 1.0, "x3": 1.0})
        # bypass centering: feed raw betas through a handmade EppScores
        scores.beta = np.array([1.0, 1.0, 1.0])
        points = embed([scores], {"x1": "alg", "x2": "alg", "x3": "alg"})
        assert len(points) == 1
        assert points[0].avg_epp == pytest.approx(1.0)
        assert points[0].spread == 0.0

    def test_median_spread_hand_value(self):
        scores = scores_from_betas({"x1": 0.0, "x2": 0.0, "x3": 3.0})
        scores.beta = np.array([0.0, 0.0, 3.0])
        points = embed([scores], dict.fromkeys(["x1", "x2", "x3"], "alg"))
        assert points[0].avg_epp == pytest.approx(1.0)
        assert points[0].spread == 0.0  # median of |0, 0, 3|

    def test_mean_spread_hand_value(self):
        scores = scores_from_betas({"x1": 0.0, "x2": 0.0, "x3": 3.0})
        scores.beta = np.array([0.0, 0.0, 3.0])
        points = embed(
            [scores], dict.fromkeys(["x1", "x2", "x3"], "alg"), SpreadKind.MEAN
        )
        assert points[0].spread == pytest.approx(4.0 / 3.0)

    def test_single_model_algorithm_warns(self):
        scores = scores_from_betas({"x1": 1.0, "y1": -1.0})
        with pytest.warns(AnalysisWarning, match="spread set to 0"):
            points = embed([scores], {"x1": "ax", "y1": "ay"})
        assert all(p.spread == 0.0 for p in points)

    def test_count_weighted_average_is_zero(self):
        rng = np.random.default_rng(1)
        betas = {f"a{k}": float(v) for k, v in enumerate(rng.normal(size=3))}
        betas.update({f"b{k}": float(v) for k, v in enumerate(rng.normal(size=5))})
        scores = scores_from_betas(betas)
        mapping = {m: m[0] for m in betas}
        points = embed([scores], mapping)
        weighted = sum(p.avg_epp * p.n_models for p in points)
        assert weighted == pytest.approx(0.0, abs=1e-9)

    def test_missing_algorithm_label_raises(self):
        scores = scores_from_betas({"x1": 1.0, "x2": -1.0})
        with pytest.raises(KeyError, match="x2"):
            embed([scores], {"x1": "alg"})

    def test_csv_emitter_names_spread_kind(self):
        scores = scores_from_betas({"x1": 1.0, "x2": -1.0})
        points = embed([scores], dict.fromkeys(["x1", "x2"], "alg"), SpreadKind.MEAN)
        text = embed_csv_text(points)
        assert "spread_kind" in text.splitlines()[0]
        assert ",mean," in text.splitlines()[1]


class TestAggregateAcrossDatasets:
    def test_mean_and_spread(self):
        results = [
            scores_from_betas({"m": b, "other": -b}, dataset=f"d{k}")
            for k, b in enumerate([1.0, 2.0, 3.0])
        ]
        for r, b in zip(results, [1.0, 2.0, 3.0]):
            r.beta = np.array([r.beta_of("m") * 0 + b, -b])  # exact values
        aggregates = aggregate_across_datasets(results)
        avg, spread = aggregates["m"]
        assert avg == pytest.approx(2.0)
        assert spread == pytest.approx(1.0)  # median |1-2|, |2-2|, |3-2| = 1, 0, 1


def fit_synthetic_tunability(monotone, seed):
    """30 models, k in 1..30; avg EPP strictly increasing in k when monotone,
    shuffled otherwise. Returns (results, hyper, algorithm_of)."""
    rng = np.random.default_rng(seed)
    ks = np.arange(1, 31, dtype=float)
    effect = ks / 10.0
    if not monotone:
        effect = rng.permutation(effect)
    results = []
    for d in range(4):
        betas = {
            f"m{k:02d}": float(effect[k - 1] + rng.normal(0, 0.05))
            for k in range(1, 31)
        }
        results.append(scores_from_betas(betas, dataset=f"d{d}"))
    hyper_lines = ["model,parameter,value"] + [
        f"m{k:02d},k,{k}" for k in range(1, 31)
    ]
    hyper = parse_hyperparams_csv("\n".join(hyper_lines) + "\n")
    algorithm_of = {f"m{k:02d}": "kknn" for k in range(1, 31)}
    return results, hyper, algorithm_of


class TestTunability:
    def test_monotone_relation_gets_three_stars(self):
        results, hyper, algorithm_of = fit_synthetic_tunability(True, seed=0)
        rows = tunability_report(results, hyper, algorithm_of)
        avg_rows = [r for r in rows if r.target == TunabilityTarget.AVG_EPP]
        assert len(avg_rows) == 1
        row = avg_rows[0]
        assert row.estimate_label == "Corr"
        assert row.result.statistic > 0.9
        assert row.result.stars == "***"

    def test_permuted_relation_rarely_significant(self):
        insignificant = 0
        trials = 20
        for seed in range(trials):
            results, hyper, algorithm_of = fit_synthetic_tunability(False, seed=seed)
            rows = tunability_report(results, hyper, algorithm_of)
            row = [r for r in rows if r.target == TunabilityTarget.AVG_EPP][0]
            if row.result.p_value > 0.05:
                insignificant += 1
        assert insignificant >= trials * 0.9

    def test_binary_parameter_identical_groups(self):
        betas = {f"m{k}": 0.1 * (k % 5) for k in range(10)}
        scores = scores_from_betas(betas)
        scores.beta = np.array([0.1 * (int(m[1:]) % 5) for m in scores.models])
        hyper_lines = ["model,parameter,value"]
        for k in range(10):
            # levels split so both groups see the same multiset of betas
            hyper_lines.append(f"m{k},replace,{'TRUE' if k < 5 else 'FALSE'}")
        hyper = parse_hyperparams_csv("\n".join(hyper_lines) + "\n")
        rows = tunability_report([scores], hyper, dict.fromkeys(betas, "RF"))
        row = [r for r in rows if r.target == TunabilityTarget.AVG_EPP][0]
        assert row.estimate_label == "W"
        assert row.result.p_value == pytest.approx(1.0, abs=1e-6)
        assert row.result.stars == ""

    def test_single_value_parameter_skipped(self):
        betas = {"m0": 0.5, "m1": -0.5}
        scores = scores_from_betas(betas)
        hyper = parse_hyperparams_csv(
            "model,parameter,value\nm0,fixed,1\nm1,fixed,1\n"
        )
        with pytest.warns(AnalysisWarning, match="single distinct"):
            rows = tunability_report([scores], hyper, dict.fromkeys(betas, "a"))
        assert rows == []

    def test_unknown_model_raises(self):
        betas = {"m0": 0.5, "m1": -0.5}
        scores = scores_from_betas(betas)
        hyper = parse_hyperparams_csv(
            "model,parameter,value\nm0,k,1\nm1,k,2\nmX,k,3\n"
        )
        with pytest.raises(ValueError, match="mX"):
            tunability_report([scores], hyper, dict.fromkeys(betas, "a"))

    def test_csv_emitter(self):
        results, hyper, algorithm_of = fit_synthetic_tunability(True, seed=1)
        rows = tunability_report(results, hyper, algorithm_of)
        text = tunability_csv_text(rows)
        header = text.splitlines()[0]
        assert header == "algorithm,parameter,target,estimate_label,estimate,p_value,stars"
        assert any(line.startswith("kknn,k,avg_epp,Corr,") for line in text.splitlines())


class TestEndToEndOrderInvariance:
    def test_leaderboard_invariant_under_score_transform(self):
        rng = np.random.default_rng(5)
        raw = {f"m{k}": ("alg", list(rng.normal(k * 0.3, 1.0, 10))) for k in range(4)}
        table = table_for(raw)
        transformed = table_for(
            {m: (alg, [np.tanh(s) for s in scores]) for m, (alg, scores) in raw.items()}
        )
        cfg = FitConfig()
        rows1 = leaderboard(fit_epp(build_matches(table, "d1"), cfg), table)
        rows2 = leaderboard(
            fit_epp(build_matches(transformed, "d1"), cfg), transformed
        )
        assert [r.model_id for r in rows1] == [r.model_id for r in rows2]
        assert np.allclose(
            [r.beta for r in rows1], [r.beta for r in rows2], atol=1e-12
        )
