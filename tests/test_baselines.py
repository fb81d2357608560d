import math

import numpy as np
import pytest
from oracles import rowwise_simulated_scores_csv

from eppscore import (
    ConfigError,
    EloConfig,
    EppError,
    NoiseKind,
    SyntheticSpec,
    build_matches,
    empirical_win_rate,
    fit_epp,
    recovery_error,
    recovery_from_truth,
    sequential_elo,
    simulate_scores,
)
from eppscore.baselines import SelfMatchError, _noise_matrix, synthetic_model_id


class TestSequentialElo:
    def test_equal_ratings_single_match(self):
        ratings = sequential_elo([("a", "b")])
        assert ratings == {"a": 1016.0, "b": 984.0}

    def test_favorite_beats_underdog(self):
        # expected score of the 1200 player vs 1000 is 1/(1+10^(-0.5)),
        # so the winner gains 32 * (1 - 0.7597) ~ 7.69 points
        ratings = sequential_elo([("a", "b")], initial={"a": 1200.0, "b": 1000.0})
        assert ratings["a"] == pytest.approx(1207.69, abs=5e-3)
        assert ratings["a"] + ratings["b"] == pytest.approx(2200.0, abs=1e-9)

    def test_total_rating_conserved(self):
        rng = np.random.default_rng(0)
        players = [f"p{k}" for k in range(6)]
        matches = [
            tuple(rng.choice(players, size=2, replace=False)) for _ in range(50)
        ]
        cfg = EloConfig(initial_rating=1000.0, k_factor=24.0)
        ratings = sequential_elo(matches, cfg)
        assert sum(ratings.values()) == pytest.approx(1000.0 * len(ratings), abs=1e-9)

    def test_order_dependence_on_cycle(self):
        cycle = [("a", "b"), ("b", "c"), ("c", "a")]
        forward = sequential_elo(cycle)
        backward = sequential_elo(list(reversed(cycle)))
        assert any(
            forward[p] != pytest.approx(backward[p], abs=1e-12) for p in "abc"
        )

    def test_k_and_scale_respected(self):
        cfg = EloConfig(k_factor=10.0, scale=200.0)
        ratings = sequential_elo([("a", "b")], cfg)
        assert ratings["a"] == 1005.0

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            EloConfig(k_factor=0.0)

    def test_self_match_refused(self):
        # a, a would set a's rating twice, to r + delta and then r - delta:
        # a 1000-point table would end with 1984 points in all.
        with pytest.raises(SelfMatchError) as caught:
            sequential_elo([("a", "b"), (" a", "a"), ("a", "a")])
        assert caught.value.index == 2
        assert str(caught.value) == "match 2: 'a' is both the winner and the loser"
        assert isinstance(caught.value, EppError) and isinstance(caught.value, ValueError)
        with pytest.raises(ConfigError):
            EloConfig(scale=-1.0)


class TestSimulateScores:
    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(skills=(0.5, -0.5), n_splits=10, seed=99)
        t1 = simulate_scores(spec)
        t2 = simulate_scores(spec)
        assert t1.to_csv_text() == t2.to_csv_text()

    def test_different_seeds_differ(self):
        a = simulate_scores(SyntheticSpec(skills=(0.0, 1.0), n_splits=5, seed=1))
        b = simulate_scores(SyntheticSpec(skills=(0.0, 1.0), n_splits=5, seed=2))
        assert a.to_csv_text() != b.to_csv_text()

    def test_shape_and_ids(self):
        spec = SyntheticSpec.with_linear_skills(12, n_splits=7, seed=0)
        table = simulate_scores(spec)
        assert len(table) == 12 * 7
        assert table.datasets() == ["synthetic"]
        assert table.block("synthetic").models[0] == synthetic_model_id(0, 12)
        assert synthetic_model_id(11, 12) == "m011"

    def test_equal_skills_win_rate_near_half(self):
        spec = SyntheticSpec(skills=(0.0, 0.0), n_splits=200, seed=3)
        counts = build_matches(simulate_scores(spec), "synthetic")
        rate = empirical_win_rate(counts, 0, 1)
        # 3 binomial standard errors at n = 200 independent draws per side
        se = math.sqrt(0.25 / 200)
        assert abs(rate - 0.5) <= 3 * se

    def test_gumbel_win_rate_matches_logistic(self):
        spec = SyntheticSpec(skills=(1.0, 0.0), n_splits=500, seed=4)
        counts = build_matches(simulate_scores(spec), "synthetic")
        rate = empirical_win_rate(counts, synthetic_model_id(0, 2), synthetic_model_id(1, 2))
        expected = 1.0 / (1.0 + math.exp(-1.0))
        se = math.sqrt(expected * (1 - expected) / 500)
        assert abs(rate - expected) <= 3 * se

    def test_gaussian_win_rate_is_probit_not_logit(self):
        sigma = 1.0
        spec = SyntheticSpec(
            skills=(1.0, 0.0),
            n_splits=2000,
            noise=NoiseKind.GAUSSIAN,
            sigma=sigma,
            seed=5,
        )
        counts = build_matches(simulate_scores(spec), "synthetic")
        rate = empirical_win_rate(counts, synthetic_model_id(0, 2), synthetic_model_id(1, 2))
        probit = 0.5 * (1.0 + math.erf(1.0 / (sigma * math.sqrt(2.0)) / math.sqrt(2.0)))
        se = math.sqrt(probit * (1 - probit) / 2000)
        assert abs(rate - probit) <= 4 * se
        # and the fitted score difference estimates logit(probit), not the skill gap
        scores = fit_epp(counts)
        dhat = scores.beta_of(synthetic_model_id(0, 2)) - scores.beta_of(synthetic_model_id(1, 2))
        assert dhat == pytest.approx(math.log(probit / (1 - probit)), abs=0.15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(skills=(0.0,), n_splits=0)
        with pytest.raises(ConfigError):
            SyntheticSpec(skills=(0.0,), n_splits=1, sigma=0.0)
        with pytest.raises(ConfigError):
            SyntheticSpec(skills=(0.0,), n_splits=1, seed=-1)

    @pytest.mark.parametrize(
        "m, n_splits, noise",
        [(3, 7, "gumbel"), (5, 4, "gaussian"), (1001, 2, "gumbel"), (2, 1001, "gaussian")],
        ids=["gumbel", "gaussian", "wide-model-ids", "wide-split-ids"],
    )
    def test_matches_rowwise_oracle(self, m, n_splits, noise):
        spec = SyntheticSpec(
            skills=tuple(np.linspace(-1.5, 2.5, m)), n_splits=n_splits, noise=noise,
            sigma=0.5, seed=11, dataset_id="sim data",
        )
        expected = rowwise_simulated_scores_csv(spec, _noise_matrix(spec))
        assert simulate_scores(spec).to_csv_text() == expected


class TestRecovery:
    def test_perfect_fit(self):
        spec = SyntheticSpec.with_linear_skills(5, n_splits=2, seed=0)
        table = simulate_scores(spec)
        counts = build_matches(table, "synthetic")
        fitted = fit_epp(counts)
        fitted.beta = np.array(spec.skills) - np.mean(spec.skills)
        max_abs, rho = recovery_error(fitted, spec)
        assert max_abs == 0.0
        assert rho == 1.0

    def test_negated_fit(self):
        spec = SyntheticSpec.with_linear_skills(5, n_splits=2, seed=0)
        fitted = fit_epp(build_matches(simulate_scores(spec), "synthetic"))
        fitted.beta = -(np.array(spec.skills) - np.mean(spec.skills))
        _, rho = recovery_error(fitted, spec)
        assert rho == -1.0

    def test_from_truth_map(self):
        spec = SyntheticSpec(skills=(1.0, 0.0, -1.0), n_splits=100, seed=8)
        fitted = fit_epp(build_matches(simulate_scores(spec), "synthetic"))
        truth = {synthetic_model_id(i, 3): spec.skills[i] for i in range(3)}
        max_abs, rho = recovery_from_truth(fitted, truth)
        assert rho == 1.0
        assert max_abs < 0.5

    def test_epp_order_invariance_vs_elo(self):
        # the same matches, two orders: EPP identical, sequential Elo not
        cycle = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b")]
        elo_fwd = sequential_elo(cycle)
        elo_rev = sequential_elo(list(reversed(cycle)))
        assert any(abs(elo_fwd[p] - elo_rev[p]) > 1e-9 for p in "abc")

        def counts_from(matches):
            import numpy as np

            from eppscore import PairwiseCounts

            players = sorted({p for match in matches for p in match})
            idx = {p: k for k, p in enumerate(players)}
            w = np.zeros((3, 3))
            for winner, loser in matches:
                w[idx[winner], idx[loser]] += 1
            return PairwiseCounts("d", tuple(players), w)

        f1 = fit_epp(counts_from(cycle))
        f2 = fit_epp(counts_from(list(reversed(cycle))))
        assert np.array_equal(f1.beta, f2.beta)
