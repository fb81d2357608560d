import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from eppscore import (
    ConstantInputError,
    DegenerateVarianceError,
    EppScores,
    FitConfig,
    PairingMode,
    PairwiseCounts,
    SeparationFlag,
    SyntheticSpec,
    TestMethod,
    build_matches,
    empirical_win_rate,
    fit_epp,
    leaderboard,
    lr_test_difference,
    mann_whitney,
    prob_vs_average,
    simulate_scores,
    spearman,
    stars_for,
    wald_test_difference,
    wald_test_vs_average,
    win_probability,
)
from eppscore.inference import _merge_counts, _midranks, wald_tests
from eppscore.special import (
    betainc_reg,
    chi2_sf_1df,
    norm_cdf,
    sigmoid,
    t_sf_two_sided,
)
from oracles import (
    exact_binomial_two_sided,
    loop_merge_counts,
    mann_whitney_u_bruteforce,
    position_midranks,
    scalar_wald,
    spearman_rank_formula,
)


def counts_2model(w=264.0, n=400.0):
    return PairwiseCounts(
        "d", ("a", "b"),
        np.array([[0.0, w], [n - w, 0.0]]),
    )


class TestSpecialFunctions:
    def test_sigmoid_array_path_is_the_scalar_path_bitwise(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([
            rng.normal(scale=40.0, size=2000),
            [0.0, -0.0, np.inf, -np.inf, 36.7, -36.7, 709.0, -709.0, 745.2, -745.2,
             5e-324, -5e-324, 1e-300, -1e-300],
        ])
        expected = np.array([sigmoid(float(v)) for v in x])
        assert np.array_equal(sigmoid(x).view(np.int64), expected.view(np.int64))
        assert np.array_equal(sigmoid(x.reshape(-1, 2)), expected.reshape(-1, 2))
        assert sigmoid(np.array(-2.0)).shape == ()

    def test_norm_cdf_against_scipy(self):
        # Relative error, so the far lower tail must keep its digits too;
        # below -37.5 the CDF underflows double precision.
        for x in np.linspace(-37.5, 8, 456):
            assert norm_cdf(float(x)) == pytest.approx(
                scipy.stats.norm.cdf(x), rel=1e-11, abs=0.0
            )

    def test_norm_cdf_tabulated_quantile(self):
        assert norm_cdf(1.959964) == pytest.approx(0.975, abs=1e-4)

    def test_chi2_sf_against_scipy(self):
        # erfc(sqrt(x / 2)) is exact to double precision up to x = 1400
        # (tail 1.6e-306), so relative error holds there too.
        for x in [0.0, 0.01, 0.5, 1.0, 3.84, 10.0, 30.0, 69.0, 204.19, 700.0, 1400.0]:
            assert chi2_sf_1df(x) == pytest.approx(
                scipy.stats.chi2.sf(x, df=1), rel=1e-11, abs=0.0
            )

    def test_betainc_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = float(rng.uniform(0.5, 20.0))
            b = float(rng.uniform(0.5, 20.0))
            x = float(rng.uniform(0.0, 1.0))
            assert betainc_reg(a, b, x) == pytest.approx(
                scipy.special.betainc(a, b, x), abs=1e-12
            )

    def test_t_tail_against_scipy(self):
        for df in (1, 2, 5, 18, 100):
            for t in (0.0, 0.5, 1.5, 3.0, 8.0):
                assert t_sf_two_sided(t, df) == pytest.approx(
                    2 * scipy.stats.t.sf(t, df), rel=1e-9, abs=1e-14
                )


class TestWinProbability:
    @pytest.mark.parametrize(
        "bi,bj,expected",
        [
            (1.27, 1.08, 0.547),
            (-5.91, -7.52, 0.833),
            (7.49, 6.25, 0.776),
            (1.29, 1.16, 0.532),
        ],
    )
    def test_probability_values(self, bi, bj, expected):
        assert win_probability(bi, bj) == pytest.approx(expected, abs=5e-4)

    def test_equal_scores_half(self):
        assert win_probability(3.3, 3.3) == 0.5

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            bi, bj = rng.uniform(-30, 30, 2)
            assert win_probability(bi, bj) + win_probability(bj, bi) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_monotonicity(self):
        assert win_probability(1.0, 0.0) > win_probability(0.5, 0.0)
        assert win_probability(0.5, 0.4) > win_probability(0.5, 0.6)

    def test_overflow_safe(self):
        assert win_probability(1000.0, -1000.0) == 1.0
        assert win_probability(-1000.0, 1000.0) == 0.0

    def test_prob_vs_average_values(self):
        assert prob_vs_average(0.0) == 0.5
        assert prob_vs_average(1.29) == pytest.approx(0.784, abs=5e-4)
        assert prob_vs_average(-11.24) == pytest.approx(1.31e-5, rel=5e-3)

    def test_prob_vs_average_is_win_probability_vs_zero(self):
        rng = np.random.default_rng(2)
        for b in rng.uniform(-20, 20, 100):
            assert prob_vs_average(float(b)) == win_probability(float(b), 0.0)


class TestStars:
    def test_thresholds_exact_at_boundaries(self):
        assert stars_for(0.05) == "*"
        assert stars_for(0.01) == "**"
        assert stars_for(0.001) == "***"

    def test_between_thresholds(self):
        assert stars_for(0.2) == ""
        assert stars_for(0.050000001) == ""
        assert stars_for(0.03) == "*"
        assert stars_for(0.005) == "**"
        assert stars_for(0.0005) == "***"


class TestWald:
    def test_equal_betas_p_one(self):
        counts = counts_2model(200.0, 400.0)
        scores = fit_epp(counts)
        result = wald_test_difference(scores, 0, 1)
        assert result.statistic == pytest.approx(0.0, abs=1e-6)
        assert result.p_value == pytest.approx(1.0, abs=1e-5)
        assert result.method == TestMethod.WALD

    def test_quantile_p(self):
        # engineered instance: z exactly at the 97.5% quantile
        from eppscore import EppScores, SeparationFlag

        cov = np.array([[1.0, 0.0], [0.0, 0.0]])
        scores = EppScores(
            dataset_id="d",
            models=("a", "b"),
            beta=np.array([1.959964, 0.0]),
            converged=True,
            iterations=1,
            log_likelihood=0.0,
            covariance=cov,
            separation_flags=(SeparationFlag.NONE, SeparationFlag.NONE),
        )
        result = wald_test_difference(scores, 0, 1)
        assert result.p_value == pytest.approx(0.05, abs=1e-4)
        assert result.stars == "*"

    def test_against_exact_binomial_oracle(self):
        # Wald p and the exact binomial p differ by the depth of the normal
        # approximation in the far tail; assert same scale, not equality.
        counts = counts_2model()
        scores = fit_epp(counts, FitConfig(ridge_lambda=0.0))
        wald_p = wald_test_difference(scores, 0, 1).p_value
        exact_p = exact_binomial_two_sided(264, 400)
        assert exact_p == pytest.approx(1.5134235631486044e-10, rel=1e-9)
        ratio = wald_p / exact_p
        assert 1.0 / 3.0 < ratio < 3.0

    def test_degenerate_variance_raises(self):
        from eppscore import EppScores, SeparationFlag

        scores = EppScores(
            dataset_id="d",
            models=("a", "b"),
            beta=np.array([1.0, 0.0]),
            converged=True,
            iterations=1,
            log_likelihood=0.0,
            covariance=np.zeros((2, 2)),
            separation_flags=(SeparationFlag.NONE, SeparationFlag.NONE),
        )
        with pytest.raises(DegenerateVarianceError):
            wald_test_difference(scores, 0, 1)

    def test_vs_average_uses_diagonal_only(self):
        counts = counts_2model()
        scores = fit_epp(counts)
        result = wald_test_vs_average(scores, 0)
        expected_z = scores.beta[0] / math.sqrt(scores.covariance[0, 0])
        assert result.statistic == pytest.approx(expected_z)

    def test_model_ids_accepted(self):
        counts = counts_2model()
        scores = fit_epp(counts)
        assert wald_test_difference(scores, "a", "b") == wald_test_difference(
            scores, 0, 1
        )


def _scores(beta, cov):
    m = len(beta)
    return EppScores(
        dataset_id="d",
        models=tuple(f"m{k}" for k in range(m)),
        beta=np.array(beta, dtype=float),
        converged=True,
        iterations=1,
        log_likelihood=0.0,
        covariance=np.array(cov, dtype=float),
        separation_flags=(SeparationFlag.NONE,) * m,
    )


def _float_bits(x):
    return np.float64(x).view(np.int64)


class TestWaldPairs:
    """`wald_tests`, the many-pair path under `wald_test_difference` and the
    leaderboard, against the one-pair oracle `scalar_wald`."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_array_path_is_the_scalar_oracle_bitwise(self, data):
        m = data.draw(st.integers(1, 7))
        # few distinct values, so that ties in beta are common
        beta = data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.5, -2.0, 5e-324]),
                      st.floats(-5.0, 5.0)),
            min_size=m, max_size=m))
        # L Lᵀ with rows of zeros often (zero variances), or any symmetric
        # matrix (negative variances too)
        entries = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=m * m, max_size=m * m))
        square = np.array(entries).reshape(m, m)
        if data.draw(st.booleans()):
            cov = square @ square.T
        else:
            cov = np.triu(square) + np.triu(square, 1).T
        pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                                   max_size=10))
        i, j = [p[0] for p in pairs], [p[1] for p in pairs]
        expected = [scalar_wald(beta, cov, a, b) for a, b in pairs]
        scores = _scores(beta, cov)
        # the pairs before the first of zero variance and nonzero difference
        k = expected.index(None) if None in expected else len(pairs)
        if k < len(pairs):
            diff = float(beta[i[k]]) - float(beta[j[k]])
            with pytest.raises(DegenerateVarianceError) as exc:
                wald_tests(scores, i, j)
            assert str(exc.value) == f"zero variance for a nonzero difference {diff!r}"
        results = wald_tests(scores, i[:k], j[:k])
        assert len(results) == k
        for r, (z, p), (a, b) in zip(results, expected, pairs):
            assert _float_bits(r.statistic) == _float_bits(z)
            assert _float_bits(r.p_value) == _float_bits(p)
            assert r.stars == stars_for(p) and r.method == TestMethod.WALD
            assert r == wald_test_difference(scores, a, b)

    def test_zero_variance(self):
        scores = _scores([1.0, 1.0, 0.0], np.zeros((3, 3)))
        (tied,) = wald_tests(scores, [0], [1])
        assert (tied.statistic, tied.p_value, tied.stars) == (0.0, 1.0, "")
        # the first pair of nonzero difference in the given order is named
        with pytest.raises(DegenerateVarianceError,
                           match=r"^zero variance for a nonzero difference -1\.0$"):
            wald_tests(scores, [0, 2, 0], [1, 1, 2])

    def test_leaderboard_tests_adjacent_ranks(self):
        spec = SyntheticSpec.with_linear_skills(6, n_splits=10, seed=2)
        scores = fit_epp(build_matches(simulate_scores(spec), "synthetic", PairingMode.CROSS))
        rows = leaderboard(scores, None)
        for upper, lower in zip(rows, rows[1:]):
            assert upper.significance_vs_next == wald_test_difference(
                scores, upper.model_id, lower.model_id)
        assert rows[-1].significance_vs_next is None


class TestLikelihoodRatio:
    # 2 * (264 ln .66 + 136 ln .34 + 400 ln 2), via the plain-formula oracle
    TWO_MODEL_STAT = 41.68936214303176

    def test_two_model_statistic(self):
        counts = counts_2model()
        result = lr_test_difference(counts, 0, 1, FitConfig(ridge_lambda=0.0))
        assert result.statistic == pytest.approx(self.TWO_MODEL_STAT, abs=1e-6)
        assert result.p_value == pytest.approx(
            scipy.stats.chi2.sf(result.statistic, df=1), rel=1e-11, abs=0.0
        )
        assert result.method == TestMethod.LRT
        assert result.stars == "***"

    def test_identical_match_records_statistic_zero(self):
        # models a and b both beat c 7/10 and split evenly against each other
        w = np.array([[0, 5, 7], [5, 0, 7], [3, 3, 0]], float)
        counts = PairwiseCounts("d", ("a", "b", "c"), w)
        result = lr_test_difference(counts, 0, 1, FitConfig(ridge_lambda=0.0))
        assert result.statistic == pytest.approx(0.0, abs=1e-6)
        assert result.p_value == pytest.approx(1.0, abs=1e-3)

    def test_agrees_with_wald_squared_on_balanced_design(self):
        rng = np.random.default_rng(3)
        beta_true = np.array([0.25, 0.05, -0.1, -0.2])
        m = 4
        for trial in range(3):
            w = np.zeros((m, m))
            for i in range(m):
                for j in range(i + 1, m):
                    p = 1 / (1 + math.exp(-(beta_true[i] - beta_true[j])))
                    w[i, j] = rng.binomial(400, p)
                    w[j, i] = 400 - w[i, j]
            counts = PairwiseCounts("d", tuple("abcd"), w)
            scores = fit_epp(counts)
            for i, j in [(0, 1), (1, 2), (2, 3)]:
                z2 = wald_test_difference(scores, i, j).statistic ** 2
                lrt = lr_test_difference(counts, i, j).statistic
                assert lrt == pytest.approx(z2, rel=0.15, abs=1e-3)


class TestModelArguments:
    """Every model argument is an id or an index in range(m), numpy integers
    included; a negative index is refused, not wrapped."""

    COUNTS = PairwiseCounts(
        "d", ("a", "b", "c"),
        np.array([[0, 6, 7], [4, 0, 5], [3, 5, 0]], float),
    )

    @classmethod
    def calls(cls):
        """One call per model argument of each function, the others valid."""
        counts, scores = cls.COUNTS, fit_epp(cls.COUNTS)
        return [
            lambda k: wald_test_difference(scores, k, 0),
            lambda k: wald_test_difference(scores, 0, k),
            lambda k: wald_test_vs_average(scores, k),
            lambda k: lr_test_difference(counts, k, 1),
            lambda k: lr_test_difference(counts, 1, k),
            lambda k: empirical_win_rate(counts, k, 1),
            lambda k: empirical_win_rate(counts, 1, k),
            scores.beta_of,
        ]

    @pytest.mark.parametrize("index", [-1, 3, np.int64(-1), np.int64(3), -4])
    def test_index_outside_range_raises(self, index):
        for call in self.calls():
            with pytest.raises(IndexError, match=rf"^model index {index} is not in range\(3\)$"):
                call(index)

    def test_unknown_id_raises(self):
        for call in self.calls():
            with pytest.raises(KeyError, match="unknown model 'z'"):
                call("z")

    def test_index_that_is_not_an_integer_raises(self):
        for call in self.calls():
            with pytest.raises(TypeError):
                call(1.0)

    def test_ids_ints_and_numpy_integers_agree(self):
        counts, scores = self.COUNTS, fit_epp(self.COUNTS)
        for i, j in [(np.int64(0), np.int32(2)), ("a", "c"), (0, "c")]:
            assert wald_test_difference(scores, i, j) == wald_test_difference(scores, 0, 2)
            assert wald_test_vs_average(scores, j) == wald_test_vs_average(scores, 2)
            assert empirical_win_rate(counts, i, j) == empirical_win_rate(counts, 0, 2)
            assert scores.beta_of(j) == scores.beta[2]
        assert lr_test_difference(counts, np.int64(0), "c") == lr_test_difference(counts, 0, 2)

    @pytest.mark.parametrize("i, j", [("c", "c"), (2, 2), ("c", np.int64(2))])
    def test_lr_refuses_one_model_twice(self, i, j):
        # (-1, 2) once wrapped to (c, c) and merged c with itself: statistic 0, p = 1
        with pytest.raises(ValueError, match="i and j must differ"):
            lr_test_difference(self.COUNTS, i, j)


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman([1, 2, 3], [10, 20, 30]).statistic == 1.0

    def test_reversed_is_minus_one(self):
        assert spearman([1, 2, 3], [3, 2, 1]).statistic == -1.0

    def test_rank_formula_value(self):
        result = spearman([1, 2, 3], [3, 1, 2])
        assert result.statistic == -0.5
        assert result.statistic == spearman_rank_formula([1, 2, 3], [3, 1, 2])

    def test_matches_scipy_without_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            ours = spearman(x, y)
            ref = scipy.stats.spearmanr(x, y)
            assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.integers(0, 4, size=15).astype(float)
            y = rng.integers(0, 4, size=15).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            ours = spearman(x, y)
            ref = scipy.stats.spearmanr(x, y)
            assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6, abs=1e-12)

    def test_increasing_transform_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        base = spearman(x, y)
        transformed = spearman(x, np.exp(y) * 5.0)
        assert transformed.statistic == base.statistic
        assert transformed.p_value == base.p_value

    def test_constant_vector_raises(self):
        with pytest.raises(ConstantInputError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_short_input_raises(self):
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [2.0, 1.0])


class TestMannWhitney:
    def test_complete_separation(self):
        result = mann_whitney([5, 6, 7], [1, 2, 3])
        assert result.statistic == 9.0
        assert result.method == TestMethod.MANN_WHITNEY

    def test_identical_multisets(self):
        result = mann_whitney([1, 2, 3], [1, 2, 3])
        assert result.statistic == 4.5  # |a| * |b| / 2
        assert result.p_value == pytest.approx(1.0, abs=1e-9)

    def test_interleaved_bruteforce_value(self):
        result = mann_whitney([1, 3], [2, 4])
        assert result.statistic == 1.0
        assert result.statistic == mann_whitney_u_bruteforce([1, 3], [2, 4])

    def test_u_is_bruteforce_pair_count(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.integers(0, 6, size=rng.integers(2, 9)).astype(float)
            b = rng.integers(0, 6, size=rng.integers(2, 9)).astype(float)
            assert mann_whitney(a, b).statistic == mann_whitney_u_bruteforce(a, b)

    def test_matches_scipy_asymptotic(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.normal(size=rng.integers(4, 20))
            b = rng.normal(loc=0.3, size=rng.integers(4, 20))
            ours = mann_whitney(a, b)
            ref = scipy.stats.mannwhitneyu(
                a, b, alternative="two-sided", method="asymptotic"
            )
            assert ours.statistic == pytest.approx(ref.statistic)
            # scipy uses the exact normal CDF; ours carries < 7.5e-8 error
            assert ours.p_value == pytest.approx(ref.pvalue, abs=2e-7)

    def test_common_transform_invariance(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=8)
        b = rng.normal(size=6)
        base = mann_whitney(a, b)
        transformed = mann_whitney(np.exp(a), np.exp(b))
        assert transformed.statistic == base.statistic
        assert transformed.p_value == base.p_value

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mann_whitney([], [1.0])


class TestLeaderboardPValues:
    def test_far_tail_p_values_are_exact(self):
        # |z| = 26.4 and 28.5: the tails are 1e-153 and 1e-178, which a
        # CDF taken as 1 - (upper tail) would print as 0.
        spec = SyntheticSpec.with_linear_skills(3, n_splits=40, seed=1)
        counts = build_matches(simulate_scores(spec), "synthetic", PairingMode.CROSS)
        rows = leaderboard(fit_epp(counts), None)
        tests = [r.significance_vs_next for r in rows[:-1]]
        assert len(tests) == 2
        for t in tests:
            assert 0.0 < t.p_value < 1e-100
            assert t.p_value == pytest.approx(
                scipy.stats.norm.sf(abs(t.statistic)) * 2, rel=1e-11, abs=0.0
            )


def _ledger(rng, m):
    """A random ledger with integer matches per pair and half-win ties."""
    n = np.triu(rng.integers(0, 6, size=(m, m)), 1).astype(float)
    n += n.T
    w = rng.integers(0, 2 * n + 1) / 2.0
    w = np.triu(w, 1) + np.tril(n - w.T, -1)
    return w, n


class TestRankAndMergeOracles:
    @settings(deadline=None, max_examples=300)
    @given(
        values=st.lists(
            st.one_of(
                st.integers(-3, 3).map(float),
                st.sampled_from([0.0, -0.0]),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_midranks_are_mean_positions(self, values):
        ranks, ties = _midranks(np.array(values))
        expected = position_midranks(values)
        assert np.array_equal(ranks.view(np.int64), expected.view(np.int64))
        runs = {}
        for v in values:
            runs[v] = runs.get(v, 0) + 1  # -0.0 and 0.0 share a key
        assert ties.tolist() == [runs[v] for v in sorted(runs)]

    @settings(deadline=None, max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 9), data=st.data())
    def test_merge_counts_is_the_loop(self, seed, m, data):
        w, n = _ledger(np.random.default_rng(seed), m)
        ii = data.draw(st.integers(0, m - 1))
        jj = data.draw(st.integers(0, m - 1).filter(lambda k: k != ii))
        models = tuple(f"m{k}" for k in range(m))
        merged, dropped = _merge_counts(PairwiseCounts("d", models, w), ii, jj)
        ow, on, omodels, odropped = loop_merge_counts(w, n, models, ii, jj)
        assert np.array_equal(merged.w.view(np.int64), ow.view(np.int64))
        assert np.array_equal(merged.n.view(np.int64), on.view(np.int64))
        assert merged.models == omodels
        assert dropped == odropped
        merged.check_invariants()


class TestResultSerialization:
    def test_json_dict(self):
        result = spearman([1, 2, 3], [3, 1, 2])
        obj = result.to_json_dict()
        assert set(obj) == {"statistic", "p_value", "method", "stars"}
        assert obj["method"] == "spearman"
