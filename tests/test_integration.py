"""End-to-end checks on a benchmark-shaped fixture.

The fixture mirrors a four-model study: two strong, stable models with
nearly equal means, and a weak pair where the model with the lower mean
score nevertheless wins most head-to-head matches because its scores are
unstable. Mean-score ranking and fitted-score ranking must disagree on
the weak pair, and the fitted ranking must follow the match record.
"""

import numpy as np
import pytest

from eppscore import (
    PairingMode,
    build_matches,
    empirical_win_rate,
    fit_epp,
    leaderboard,
    parse_scores_csv,
    win_matrix,
    win_probability,
)


@pytest.fixture(scope="module")
def benchmark_table():
    rng = np.random.default_rng(1234)
    rows = ["dataset,model,algorithm,split,score"]

    def add(model, algorithm, scores):
        for k, s in enumerate(scores):
            rows.append(f"ada,{model},{algorithm},s{k:02d},{float(s)!r}")

    def jitter(sigma, size=20):
        e = rng.normal(0, sigma, size)
        return e - e.mean()  # sample means pinned exactly

    # strong pair: means 2e-3 apart, spread wide enough that the win rate
    # stays moderate (roughly the probit of 0.002 / (0.01 * sqrt(2)))
    add("gbm1305", "gbm", 0.890 + jitter(0.01))
    add("ranger1088", "ranger", 0.888 + jitter(0.01))
    # kknn: higher mean than glmnet but loses most matches
    add("kknn1396", "kknn", 0.8165 + jitter(0.001))
    # glmnet: unstable; 14 splits clearly above kknn, 6 clearly below
    glm = np.concatenate([np.full(14, 0.840), np.full(6, 0.740)])
    add("glm1242", "glmnet", glm + rng.normal(0, 0.001, 20))
    return parse_scores_csv("\n".join(rows) + "\n")


def test_mean_order_and_match_record_disagree(benchmark_table):
    mean_glm = benchmark_table.mean_scores("ada")["glm1242"]
    mean_kknn = benchmark_table.mean_scores("ada")["kknn1396"]
    assert mean_glm < mean_kknn  # averaged scores favor kknn

    paired = build_matches(benchmark_table, "ada", PairingMode.PAIRED)
    assert paired.n[0, 1] == 20.0
    assert empirical_win_rate(paired, "glm1242", "kknn1396") == pytest.approx(
        14 / 20
    )


def test_fitted_ranking_follows_matches_not_means(benchmark_table):
    counts = build_matches(benchmark_table, "ada", PairingMode.CROSS)
    scores = fit_epp(counts)
    assert scores.converged
    rows = leaderboard(scores, benchmark_table)
    assert [r.model_id for r in rows] == [
        "gbm1305",
        "ranger1088",
        "glm1242",
        "kknn1396",
    ]
    # the weak pair swaps relative to mean score, and carries notes saying so
    glm_row = rows[2]
    kknn_row = rows[3]
    assert glm_row.mean_score < kknn_row.mean_score
    assert glm_row.note is not None and kknn_row.note is not None
    # strong pair: close fitted scores, moderate win probability
    p = win_probability(rows[0].beta, rows[1].beta)
    assert 0.5 < p < 0.7


def test_win_matrix_consistent_with_empirical_rates(benchmark_table):
    counts = build_matches(benchmark_table, "ada", PairingMode.CROSS)
    scores = fit_epp(counts)
    matrix = win_matrix(scores)
    i = counts.model_index("glm1242")
    j = counts.model_index("kknn1396")
    modeled = matrix[i, j]
    empirical = empirical_win_rate(counts, i, j)
    # with only two tightly-clustered groups the fit cannot match every
    # pairwise rate exactly, but it must preserve direction and magnitude
    assert modeled > 0.5
    assert modeled == pytest.approx(empirical, abs=0.15)
