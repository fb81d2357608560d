"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py`; a PASS/FAIL line per criterion
is printed in the terminal summary (see conftest).
"""

import math
import time

import numpy as np
import pytest

from eppscore import (
    FitConfig,
    PairingMode,
    PairwiseCounts,
    SyntheticSpec,
    build_matches,
    fit_epp,
    gradient,
    mann_whitney,
    parse_scores_csv,
    recovery_error,
    sequential_elo,
    simulate_scores,
    spearman,
    stars_for,
    two_model_closed_form,
    win_matrix,
    win_probability,
)
from eppscore.special import norm_cdf
from oracles import (
    finite_diff_gradient,
    grid_search_2model,
    projected_gradient_fit,
)


def two_model_counts(w, n):
    return PairwiseCounts(
        "d", ("a", "b"),
        np.array([[0.0, w], [n - w, 0.0]]),
    )


def random_interior_counts(rng, m, n_max=50):
    iu = np.triu_indices(m, 1)
    w = np.zeros((m, m))
    n_up = rng.integers(5, n_max + 1, size=len(iu[0]))
    w_up = rng.integers(1, n_up)
    w[iu] = w_up
    w.T[iu] = n_up - w_up
    return PairwiseCounts("d", tuple(f"m{i}" for i in range(m)), w)


@pytest.mark.acceptance(1, "win_probability spot values 0.547 and 0.833")
def test_criterion_1_probabilities_first_pair():
    assert win_probability(1.27, 1.08) == pytest.approx(0.547, abs=0.005)
    assert win_probability(-5.91, -7.52) == pytest.approx(0.833, abs=0.005)


@pytest.mark.acceptance(2, "win_probability spot values 0.776 and 0.532")
def test_criterion_2_probabilities_second_pair():
    assert win_probability(7.49, 6.25) == pytest.approx(0.776, abs=0.005)
    assert win_probability(1.29, 1.16) == pytest.approx(0.532, abs=0.005)


@pytest.mark.acceptance(3, "20 splits: 400 matches cross, 20 paired")
def test_criterion_3_match_count_semantics():
    rng = np.random.default_rng(0)
    lines = ["dataset,model,algorithm,split,score"]
    for model in ("a", "b"):
        for s in range(20):
            lines.append(f"d1,{model},alg,s{s:02d},{rng.normal()!r}")
    table = parse_scores_csv("\n".join(lines) + "\n")
    cross = build_matches(table, "d1", PairingMode.CROSS)
    paired = build_matches(table, "d1", PairingMode.PAIRED)
    assert cross.n[0, 1] == 400.0
    assert paired.n[0, 1] == 20.0


@pytest.mark.acceptance(4, "two-model fit equals logit(264/400) closed form")
def test_criterion_4_two_model_exactness():
    counts = two_model_counts(264.0, 400.0)
    scores = fit_epp(counts, FitConfig(ridge_lambda=0.0))
    diff = float(scores.beta[0] - scores.beta[1])
    target = math.log(264.0 / 136.0)
    assert abs(diff - target) <= 1e-6
    closed = two_model_closed_form(264.0, 400.0)
    assert abs(diff - (closed[0] - closed[1])) <= 1e-6
    # independent 1-D grid-search oracle (grid resolution 5e-5)
    oracle = grid_search_2model(264.0, 400.0)
    assert abs(diff - oracle) <= 1e-4


@pytest.mark.acceptance(5, "MM, Newton, gradient-ascent oracle agree (50 runs)")
def test_criterion_5_three_way_solver_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        counts = random_interior_counts(rng, 4)
        lam = 1e-6
        mm = fit_epp(counts, FitConfig(algorithm="mm", ridge_lambda=lam))
        newton = fit_epp(counts, FitConfig(algorithm="newton", ridge_lambda=lam))
        oracle = projected_gradient_fit(counts.w, counts.n, lam, seed=trial)
        assert mm.converged and newton.converged
        worst = max(
            worst,
            float(np.max(np.abs(mm.beta - newton.beta))),
            float(np.max(np.abs(mm.beta - oracle))),
            float(np.max(np.abs(newton.beta - oracle))),
        )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4, f"worst pairwise disagreement {worst}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@pytest.mark.acceptance(6, "analytic gradient matches finite differences")
def test_criterion_6_gradient_check():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        counts = random_interior_counts(rng, m)
        beta = rng.uniform(-1.5, 1.5, m)
        analytic = gradient(counts, beta)
        numeric = finite_diff_gradient(counts.w, counts.n, beta, h=1e-5)
        scale = np.maximum(1.0, np.abs(analytic))
        rel = np.max(np.abs(analytic - numeric) / scale)
        assert rel <= 1e-5, f"relative gradient error {rel}"


@pytest.mark.acceptance(7, "property suite (centering, antisymmetry, invariance)")
def test_criterion_7_property_suite():
    rng = np.random.default_rng(11)

    # mean(beta) <= 1e-10 after centering
    counts = random_interior_counts(rng, 6)
    scores = fit_epp(counts)
    assert abs(float(scores.beta.mean())) <= 1e-10

    # win matrix antisymmetry within 1e-12
    matrix = win_matrix(scores)
    assert np.max(np.abs(matrix + matrix.T - 1.0)) <= 1e-12

    # monotone-transform invariance is exact (bit-identical counts)
    lines = ["dataset,model,algorithm,split,score"]
    raw = rng.normal(size=(4, 12))
    for i in range(4):
        for s in range(12):
            lines.append(f"d1,m{i},alg,s{s:02d},{float(raw[i, s])!r}")
    table = parse_scores_csv("\n".join(lines) + "\n")
    lines2 = ["dataset,model,algorithm,split,score"]
    for i in range(4):
        for s in range(12):
            transformed = float(math.exp(raw[i, s]) * 2.0 + 5.0)
            lines2.append(f"d1,m{i},alg,s{s:02d},{transformed!r}")
    table2 = parse_scores_csv("\n".join(lines2) + "\n")
    c1, c2 = build_matches(table, "d1"), build_matches(table2, "d1")
    assert np.array_equal(c1.w, c2.w) and np.array_equal(c1.n, c2.n)
    assert np.array_equal(fit_epp(c1).beta, fit_epp(c2).beta)

    # permutation invariance of model order
    counts = random_interior_counts(rng, 5)
    perm = rng.permutation(5)
    permuted = PairwiseCounts(
        "d",
        tuple(counts.models[k] for k in perm),
        counts.w[np.ix_(perm, perm)],
    )
    base, other = fit_epp(counts), fit_epp(permuted)
    for k, model in enumerate(permuted.models):
        assert abs(other.beta[k] - base.beta_of(model)) <= 1e-8

    # sequential Elo depends on match order on a 3-model cycle; the fitted
    # scores from the same matches do not
    cycle = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b")]
    fwd = sequential_elo(cycle)
    rev = sequential_elo(list(reversed(cycle)))
    assert any(abs(fwd[p] - rev[p]) > 1e-9 for p in "abc")

    def ledger(matches):
        players = sorted({p for match in matches for p in match})
        idx = {p: k for k, p in enumerate(players)}
        w = np.zeros((3, 3))
        for winner, loser in matches:
            w[idx[winner], idx[loser]] += 1
        return PairwiseCounts("d", tuple(players), w)

    assert np.array_equal(
        fit_epp(ledger(cycle)).beta, fit_epp(ledger(list(reversed(cycle)))).beta
    )


@pytest.mark.acceptance(8, "synthetic skills recovered (rank corr >= 0.95)")
def test_criterion_8_synthetic_recovery():
    start = time.perf_counter()
    successes = 0
    for seed in range(20):
        spec = SyntheticSpec.with_linear_skills(
            20, n_splits=200, seed=seed
        )
        table = simulate_scores(spec)
        counts = build_matches(table, "synthetic", PairingMode.CROSS)
        fitted = fit_epp(counts)
        _, rho = recovery_error(fitted, spec)
        if rho >= 0.95:
            successes += 1
    elapsed = time.perf_counter() - start
    assert successes >= 18, f"only {successes}/20 seeds recovered ranks"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@pytest.mark.acceptance(9, "statistics oracles (spearman, U, normal CDF, stars)")
def test_criterion_9_statistics_oracles():
    assert spearman([1, 2, 3], [3, 1, 2]).statistic == -0.5
    assert mann_whitney([5, 6, 7], [1, 2, 3]).statistic == 3 * 3
    assert abs(norm_cdf(1.959964) - 0.975) <= 1e-4
    assert stars_for(0.05) == "*"
    assert stars_for(0.01) == "**"
    assert stars_for(0.001) == "***"
    assert stars_for(0.051) == ""


@pytest.mark.acceptance(10, "desk-scale performance (m=500 fit, 500x20 counts)")
def test_criterion_10_desk_scale_performance():
    rng = np.random.default_rng(0)

    # building counts: 500 models x 20 splits, cross pairing
    lines = ["dataset,model,algorithm,split,score"]
    raw = rng.normal(size=(500, 20))
    for i in range(500):
        for s in range(20):
            lines.append(f"d1,m{i:03d},alg,s{s:02d},{float(raw[i, s])!r}")
    table = parse_scores_csv("\n".join(lines) + "\n")
    start = time.perf_counter()
    counts = build_matches(table, "d1", PairingMode.CROSS)
    build_elapsed = time.perf_counter() - start
    assert counts.n[0, 1] == 400.0
    assert build_elapsed < 10.0, f"counts build took {build_elapsed:.1f}s"

    # dense fit: all pairs, 400 matches each, default configuration
    m = 500
    beta_true = rng.uniform(-2.0, 2.0, m)
    iu = np.triu_indices(m, 1)
    p = 1.0 / (1.0 + np.exp(-(beta_true[:, None] - beta_true[None, :])))
    w = np.zeros((m, m))
    wins_up = rng.binomial(400, p[iu]).astype(float)
    w[iu] = wins_up
    w.T[iu] = 400.0 - wins_up
    dense = PairwiseCounts("big", tuple(f"m{i:03d}" for i in range(m)), w)
    start = time.perf_counter()
    scores = fit_epp(dense)
    fit_elapsed = time.perf_counter() - start
    assert scores.converged
    assert fit_elapsed < 60.0, f"dense fit took {fit_elapsed:.1f}s"
    # sanity: recovered ordering correlates with the generating strengths
    assert spearman(scores.beta, beta_true).statistic > 0.99
