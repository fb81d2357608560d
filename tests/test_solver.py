import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eppscore import (
    FitConfig,
    FitWarning,
    PairwiseCounts,
    SeparationError,
    SeparationFlag,
    build_matches,
    detect_separation,
    fit_epp,
    gradient,
    log_likelihood,
    parse_scores_csv,
    two_model_closed_form,
)
from eppscore.solver import (
    _connected_components,
    _fit_mm,
    _fit_newton,
    _gradient_noise_floor,
    _mm_grad,
    _mm_sums,
    _newman_sums,
)
from oracles import (
    bfs_components,
    component_covariance,
    finite_diff_gradient,
    finite_maximum,
    golden_section_max,
    loglik_plain,
    loop_separation,
    neg_hessian,
    newton_fit,
    pinv_covariance,
    projected_gradient_fit,
    sigmoid_gradient,
    subspace_covariance,
    triu_loglik,
)


def counts_2model(w=264.0, n=400.0):
    return PairwiseCounts(
        "d", ("a", "b"),
        np.array([[0.0, w], [n - w, 0.0]]),
        np.array([[0.0, n], [n, 0.0]]),
    )


def random_counts(rng, m, n_max=50):
    iu = np.triu_indices(m, 1)
    n = np.zeros((m, m))
    w = np.zeros((m, m))
    n_up = rng.integers(5, n_max + 1, size=len(iu[0]))
    w_up = rng.integers(1, n_up)  # interior wins: never separated
    n[iu] = n_up
    n.T[iu] = n_up
    w[iu] = w_up
    w.T[iu] = n_up - w_up
    return PairwiseCounts("d", tuple(f"m{i}" for i in range(m)), w, n)


# Value computed by the golden-section oracle over the 1-D two-model
# likelihood (264 wins of 400); equals 264 ln .66 + 136 ln .34.
TWO_MODEL_MAX_LOGLIK = -256.41419115246225


class TestLogLikelihood:
    def test_all_zero_beta_gives_n_log_half(self):
        counts = counts_2model()
        expected = -math.log(2.0) * 400.0
        assert log_likelihood(counts, [0.0, 0.0]) == pytest.approx(expected)

    def test_matches_golden_section_oracle_at_maximum(self):
        counts = counts_2model()
        d_star = golden_section_max(
            lambda d: loglik_plain([[0, 264], [136, 0]], [[0, 400], [400, 0]], [d, 0.0]),
            -5.0,
            5.0,
        )
        value = log_likelihood(counts, [d_star / 2, -d_star / 2])
        assert value == pytest.approx(TWO_MODEL_MAX_LOGLIK, abs=1e-8)

    def test_translation_invariance_without_penalty(self):
        rng = np.random.default_rng(0)
        counts = random_counts(rng, 4)
        beta = rng.normal(size=4)
        base = log_likelihood(counts, beta)
        for c in (-3.0, 0.7, 42.0):
            assert log_likelihood(counts, beta + c) == pytest.approx(base, abs=1e-8)

    def test_penalty_subtracted(self):
        counts = counts_2model()
        beta = np.array([0.5, -0.5])
        lam = 0.1
        assert log_likelihood(counts, beta, lam) == pytest.approx(
            log_likelihood(counts, beta) - 0.5 * lam * float(beta @ beta)
        )

    def test_finite_for_extreme_beta(self):
        counts = counts_2model()
        assert math.isfinite(log_likelihood(counts, [1000.0, -1000.0]))


class TestGradient:
    def test_symmetric_counts_zero_gradient_at_zero(self):
        m = 3
        n = np.full((m, m), 10.0)
        np.fill_diagonal(n, 0.0)
        counts = PairwiseCounts("d", ("a", "b", "c"), n / 2.0, n)
        assert np.allclose(gradient(counts, np.zeros(m)), 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            m = int(rng.integers(2, 6))
            counts = random_counts(rng, m)
            beta = rng.uniform(-1.5, 1.5, m)
            analytic = gradient(counts, beta)
            numeric = finite_diff_gradient(counts.w, counts.n, beta)
            scale = np.maximum(1.0, np.abs(analytic))
            assert np.all(np.abs(analytic - numeric) / scale <= 1e-5)

    def test_gradient_sums_to_zero_without_penalty(self):
        rng = np.random.default_rng(6)
        counts = random_counts(rng, 5)
        beta = rng.normal(size=5)
        assert gradient(counts, beta).sum() == pytest.approx(0.0, abs=1e-9)

    def test_penalized_gradient(self):
        rng = np.random.default_rng(7)
        counts = random_counts(rng, 3)
        beta = rng.normal(size=3)
        lam = 0.25
        assert np.allclose(
            gradient(counts, beta, lam), gradient(counts, beta) - lam * beta
        )


class TestTwoModelClosedForm:
    def test_uneven_split_value(self):
        b1, b2 = two_model_closed_form(264.0, 400.0)
        assert b1 == pytest.approx(0.5 * math.log(264.0 / 136.0), abs=1e-12)
        assert b2 == -b1
        assert b1 == pytest.approx(0.3316, abs=5e-5)

    def test_even_split_is_zero(self):
        assert two_model_closed_form(200.0, 400.0) == (0.0, 0.0)

    @pytest.mark.parametrize("w", [0.0, 400.0])
    def test_separation_raises(self, w):
        with pytest.raises(SeparationError):
            two_model_closed_form(w, 400.0)


class TestDetectSeparation:
    def test_all_wins_all_losses_none(self):
        w = np.array([[0, 5, 5], [0, 0, 3], [0, 2, 0]], float)
        n = np.array([[0, 5, 5], [5, 0, 5], [5, 5, 0]], float)
        counts = PairwiseCounts("d", ("win", "mid", "lose"), w, n)
        flags = detect_separation(counts)
        assert flags[0] == SeparationFlag.ALL_WINS
        assert flags[1] == SeparationFlag.NONE
        assert flags[2] == SeparationFlag.NONE
        # model that loses everything
        w2 = np.array([[0, 0.0], [4.0, 0]])
        n2 = np.array([[0, 4.0], [4.0, 0]])
        flags2 = detect_separation(PairwiseCounts("d", ("a", "b"), w2, n2))
        assert flags2 == (SeparationFlag.ALL_LOSSES, SeparationFlag.ALL_WINS)

    def test_one_win_one_loss_is_none(self):
        w = np.array([[0, 1.0], [1.0, 0]])
        n = np.array([[0, 2.0], [2.0, 0]])
        assert detect_separation(PairwiseCounts("d", ("a", "b"), w, n)) == (
            SeparationFlag.NONE,
            SeparationFlag.NONE,
        )


class TestFitEpp:
    def test_two_model_matches_closed_form(self):
        counts = counts_2model()
        scores = fit_epp(counts, FitConfig(ridge_lambda=0.0))
        expected = two_model_closed_form(264.0, 400.0)
        assert scores.converged
        assert scores.beta[0] == pytest.approx(expected[0], abs=1e-8)
        assert scores.beta[1] == pytest.approx(expected[1], abs=1e-8)

    def test_symmetric_counts_all_zero(self):
        m = 4
        n = np.full((m, m), 20.0)
        np.fill_diagonal(n, 0.0)
        counts = PairwiseCounts("d", tuple("abcd"), n / 2, n)
        scores = fit_epp(counts, FitConfig(ridge_lambda=0.0))
        assert np.allclose(scores.beta, 0.0, atol=1e-12)

    @pytest.mark.parametrize("algorithm", ["mm", "newton"])
    def test_matches_projected_gradient_oracle(self, algorithm):
        rng = np.random.default_rng(11)
        for trial in range(5):
            counts = random_counts(rng, 4)
            cfg = FitConfig(algorithm=algorithm)
            scores = fit_epp(counts, cfg)
            oracle = projected_gradient_fit(
                counts.w, counts.n, cfg.ridge_lambda, seed=trial
            )
            assert scores.converged
            assert np.max(np.abs(scores.beta - oracle)) < 1e-4

    def test_mm_and_newton_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            counts = random_counts(rng, int(rng.integers(2, 7)))
            mm = fit_epp(counts, FitConfig(algorithm="mm"))
            newton = fit_epp(counts, FitConfig(algorithm="newton"))
            assert mm.converged and newton.converged
            assert np.max(np.abs(mm.beta - newton.beta)) < 1e-6

    def test_fractional_tie_counts_fit_cleanly(self):
        # half-win ties make w fractional; the quasi-likelihood fit must
        # behave exactly like the integer case
        rng = np.random.default_rng(20)
        for _ in range(5):
            counts = random_counts(rng, 4)
            w = counts.w.copy()
            iu = np.triu_indices(4, 1)
            w[iu] += 0.5
            w.T[iu] -= 0.5
            frac = PairwiseCounts("d", counts.models, w, counts.n)
            mm = fit_epp(frac, FitConfig(algorithm="mm"))
            newton = fit_epp(frac, FitConfig(algorithm="newton"))
            assert mm.converged and newton.converged
            assert np.max(np.abs(mm.beta - newton.beta)) < 1e-6
            g = gradient(frac, mm.beta, 1e-6)
            assert np.max(np.abs(g)) <= 1e-8

    def test_mm_newton_agree_on_separated_instance(self):
        # Curvature along a separated coordinate is ~ridge_lambda, so the
        # solvers only agree to (gradient tolerance / lambda); a tight tol
        # pins them together.
        w = np.array([[0, 10, 10], [0, 0, 5], [0, 5, 0]], float)
        n = np.array([[0, 10, 10], [10, 0, 10], [10, 10, 0]], float)
        counts = PairwiseCounts("d", ("top", "x", "y"), w, n)
        cfg = dict(tol=1e-13, max_iter=50_000)
        mm = fit_epp(counts, FitConfig(algorithm="mm", **cfg))
        newton = fit_epp(counts, FitConfig(algorithm="newton", **cfg))
        assert mm.converged and newton.converged
        assert np.max(np.abs(mm.beta - newton.beta)) < 1e-6
        assert mm.separation_flags[0] == SeparationFlag.ALL_WINS

    def test_mean_centering(self):
        rng = np.random.default_rng(13)
        counts = random_counts(rng, 6)
        scores = fit_epp(counts)
        assert abs(scores.beta.mean()) <= 1e-10

    def test_gradient_small_at_optimum(self):
        rng = np.random.default_rng(14)
        cfg = FitConfig()
        counts = random_counts(rng, 5)
        scores = fit_epp(counts, cfg)
        g = gradient(counts, scores.beta, cfg.ridge_lambda)
        assert np.max(np.abs(g)) <= 10.0 * cfg.tol

    def test_permutation_invariance(self):
        rng = np.random.default_rng(15)
        counts = random_counts(rng, 5)
        perm = rng.permutation(5)
        permuted = PairwiseCounts(
            "d",
            tuple(counts.models[k] for k in perm),
            counts.w[np.ix_(perm, perm)],
            counts.n[np.ix_(perm, perm)],
        )
        base = fit_epp(counts)
        other = fit_epp(permuted)
        for k, model in enumerate(permuted.models):
            assert other.beta[k] == pytest.approx(base.beta_of(model), abs=1e-8)

    def test_mm_likelihood_nondecreasing(self):
        rng = np.random.default_rng(16)
        counts = random_counts(rng, 5)
        trace = []
        _fit_mm(counts.w, counts.n, FitConfig(), trace=trace)
        diffs = np.diff(np.array(trace))
        assert np.all(diffs >= -1e-9)

    def test_mm_likelihood_nondecreasing_under_separation(self):
        w = np.array([[0, 10, 10], [0, 0, 5], [0, 5, 0]], float)
        n = np.array([[0, 10, 10], [10, 0, 10], [10, 10, 0]], float)
        trace = []
        _fit_mm(w, n, FitConfig(), trace=trace)
        assert np.all(np.diff(np.array(trace)) >= -1e-9)

    def test_nonconvergence_is_reported_not_raised(self):
        counts = counts_2model()
        scores = fit_epp(counts, FitConfig(max_iter=1, tol=1e-15))
        assert not scores.converged
        assert scores.iterations == 1

    def test_disconnected_components_fit_separately_with_warning(self):
        # two 2-model islands
        w = np.zeros((4, 4))
        n = np.zeros((4, 4))
        w[0, 1], w[1, 0], n[0, 1], n[1, 0] = 6.0, 4.0, 10.0, 10.0
        w[2, 3], w[3, 2], n[2, 3], n[3, 2] = 9.0, 1.0, 10.0, 10.0
        counts = PairwiseCounts("d", ("a", "b", "c", "e"), w, n)
        with pytest.warns(FitWarning, match="2 connected components"):
            scores = fit_epp(counts, FitConfig(ridge_lambda=0.0))
        assert scores.n_components == 2
        assert scores.beta[0] + scores.beta[1] == pytest.approx(0.0, abs=1e-12)
        assert scores.beta[2] + scores.beta[3] == pytest.approx(0.0, abs=1e-12)
        assert scores.beta[0] == pytest.approx(0.5 * math.log(6.0 / 4.0), abs=1e-8)
        assert scores.beta[2] == pytest.approx(0.5 * math.log(9.0 / 1.0), abs=1e-8)
        # cross-component covariance stays zero
        assert np.all(scores.covariance[:2, 2:] == 0.0)

    def test_covariance_properties(self):
        rng = np.random.default_rng(17)
        counts = random_counts(rng, 5)
        scores = fit_epp(counts)
        cov = scores.covariance
        assert np.allclose(cov, cov.T)
        eigvals = np.linalg.eigvalsh(cov)
        assert eigvals.min() >= -1e-10
        assert np.allclose(cov.sum(axis=1), 0.0, atol=1e-10)

    def test_monotone_transform_invariance_end_to_end(self):
        # identical counts in, identical scores out (fit is deterministic)
        rng = np.random.default_rng(18)
        counts = random_counts(rng, 4)
        s1 = fit_epp(counts)
        s2 = fit_epp(counts)
        assert np.array_equal(s1.beta, s2.beta)

    def test_csv_and_json_round_trip(self):
        rng = np.random.default_rng(19)
        counts = random_counts(rng, 3)
        scores = fit_epp(counts)
        scores.algorithms = {m: "alg" for m in scores.models}
        text = scores.to_csv_text()
        assert text.splitlines()[0] == "model,beta,se,separation,converged"
        assert len(text.splitlines()) == 4
        from eppscore import EppScores

        again = EppScores.from_json_text(scores.to_json_text())
        assert again.models == scores.models
        assert np.allclose(again.beta, scores.beta)
        assert np.allclose(again.covariance, scores.covariance)
        assert again.separation_flags == scores.separation_flags
        assert again.algorithms == scores.algorithms
        assert scores.grad_norm <= 10.0 * FitConfig().tol
        assert scores.rescue_steps == 0
        assert scores.iterations_per_component == (scores.iterations,)
        assert again.grad_norm == scores.grad_norm
        assert again.rescue_steps == scores.rescue_steps
        assert again.iterations_per_component == scores.iterations_per_component

    def test_json_without_diagnostics_still_loads(self):
        from eppscore import EppScores

        obj = json.loads(fit_epp(random_counts(np.random.default_rng(19), 3)).to_json_text())
        for key in ("grad_norm", "rescue_steps", "iterations_per_component"):
            del obj[key]
        again = EppScores.from_json_text(json.dumps(obj))
        assert again.grad_norm is None
        assert again.rescue_steps is None
        assert again.iterations_per_component is None
        assert again.iterations == obj["iterations"]

    def test_diagnostics_per_component(self):
        # a separated 3-model island (a wins every match, so MM needs Newton
        # rescues there), a 2-model island and an isolated model
        w = np.zeros((6, 6))
        n = np.zeros((6, 6))
        n[:3, :3] = 10.0 - 10.0 * np.identity(3)
        w[:3, :3] = [[0, 10, 10], [0, 0, 5], [0, 5, 0]]
        w[3, 4], w[4, 3], n[3, 4], n[4, 3] = 6.0, 4.0, 10.0, 10.0
        counts = PairwiseCounts("d", ("a", "b", "c", "e", "f", "z"), w, n)
        with pytest.warns(FitWarning):
            mm = fit_epp(counts)
        with pytest.warns(FitWarning):
            newton = fit_epp(counts, FitConfig(algorithm="newton"))
        for scores in (mm, newton):
            assert len(scores.iterations_per_component) == scores.n_components == 3
            assert scores.iterations_per_component[2] == 0  # isolated model
            assert scores.iterations == max(scores.iterations_per_component)
            # components share no matches, so the whole gradient's max-norm
            # is the largest over components
            oracle = np.max(np.abs(gradient(counts, scores.beta, 1e-6)))
            assert scores.grad_norm == pytest.approx(oracle, abs=1e-12 * n.sum())
        assert mm.rescue_steps > 0
        assert newton.rescue_steps == 0

    def test_single_model_dataset(self):
        counts = PairwiseCounts("d", ("only",), np.zeros((1, 1)), np.zeros((1, 1)))
        scores = fit_epp(counts)
        assert scores.beta[0] == 0.0
        assert scores.converged


def separated_counts():
    """Model a wins all 20 of its matches; b and c split theirs 5-5."""
    w = np.array([[0, 10, 10], [0, 0, 5], [0, 5, 0]], float)
    n = np.array([[0, 10, 10], [10, 0, 10], [10, 10, 0]], float)
    return PairwiseCounts("d", ("a", "b", "c"), w, n)


def _counts_from(rng, m, half_ties):
    iu = np.triu_indices(m, 1)
    n = np.zeros((m, m))
    w = np.zeros((m, m))
    n_up = rng.integers(0, 31, size=len(iu[0])).astype(float)
    w_up = rng.integers(0, n_up + 1).astype(float)
    if half_ties:
        w_up = np.minimum(w_up + 0.5 * (w_up < n_up), n_up)
    n[iu] = n_up
    n.T[iu] = n_up
    w[iu] = w_up
    w.T[iu] = n_up - w_up
    return PairwiseCounts("d", tuple(f"m{i}" for i in range(m)), w, n)


class TestMMStopTest:
    """The MM path's stop test takes its gradient from the rate sums
    ``pi_i * sum_j n_ij / (pi_i + pi_j)``, of a plain MM sweep's pass or of
    Newman's pass over ``w_ij / (pi_i + pi_j)``; the public sigmoid-form
    :func:`gradient` is the oracle."""

    @settings(deadline=None, max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 7),
        half_ties=st.booleans(),
        lam=st.sampled_from([0.0, 1e-6]),
        beta=st.lists(
            st.floats(-350.0, 350.0, allow_nan=False), min_size=7, max_size=7
        ),
    )
    def test_sums_gradient_matches_sigmoid_form(self, seed, m, half_ties, lam, beta):
        counts = _counts_from(np.random.default_rng(seed), m, half_ties)
        beta = np.array(beta[:m])
        pi, rate = _mm_sums(counts.n, beta)
        wins = counts.w.sum(axis=1)
        fast = _mm_grad(wins, pi, rate, beta, lam)
        oracle = gradient(counts, beta, lam)
        bound = 1e-12 * max(1.0, float(counts.n.sum()))
        assert np.max(np.abs(fast - oracle)) <= bound
        sums = _newman_sums(counts.w, wins, beta, lam, *np.empty((2, m, m)))
        fast = _mm_grad(wins, sums.pi, sums.rate, beta, lam)
        assert np.max(np.abs(fast - oracle)) <= bound

    @pytest.mark.parametrize("instance", ["random", "separated", "fractional_ties"])
    @pytest.mark.parametrize("lam", [0.0, 1e-6])
    def test_returned_optimum_passes_stop_test_by_oracle(self, instance, lam):
        if instance == "random":
            counts = random_counts(np.random.default_rng(31), 6)
        elif instance == "separated":
            counts = separated_counts()
        else:
            counts = _counts_from(np.random.default_rng(32), 6, half_ties=True)
        cfg = FitConfig(ridge_lambda=lam)
        fit = _fit_mm(counts.w, counts.n, cfg)
        assert fit.converged
        if instance == "separated":
            assert fit.rescue_steps > 0
        oracle = float(np.max(np.abs(gradient(counts, fit.beta, lam))))
        assert oracle <= max(10.0 * cfg.tol, _gradient_noise_floor(counts.n))
        assert fit.grad_norm == pytest.approx(
            oracle, abs=1e-12 * max(1.0, float(counts.n.sum()))
        )

    def test_newton_reports_its_stop_test_gradient(self):
        counts = random_counts(np.random.default_rng(33), 5)
        cfg = FitConfig(algorithm="newton")
        fit = _fit_newton(counts.w, counts.n, cfg)
        assert fit.converged and fit.rescue_steps == 0
        assert fit.grad_norm == float(
            np.max(np.abs(gradient(counts, fit.beta, cfg.ridge_lambda)))
        )


def _graph_counts(seed, m, shape, separated):
    """A ledger on a random comparison graph.

    `shape` is "random" (each pair compared with probability 0.3, so lone
    models and islands occur), "islands" (pairs compared only within one of
    three groups) or "path" (a single path through the models in shuffled
    order, the graph of largest diameter). `separated` models win every
    match they play.
    """
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(m, 1)
    if shape == "path":
        order = rng.permutation(m)
        edge = np.zeros((m, m), bool)
        edge[order[:-1], order[1:]] = True
        edge = (edge | edge.T)[iu]
    elif shape == "islands":
        group = rng.integers(0, 3, m)
        edge = (group[:, None] == group[None, :])[iu]
    else:
        edge = rng.random(len(iu[0])) < 0.3
    n_up = np.where(edge, rng.integers(1, 12, len(iu[0])), 0).astype(float)
    w_up = rng.integers(0, n_up + 1).astype(float)
    n = np.zeros((m, m))
    w = np.zeros((m, m))
    n[iu] = n_up
    n.T[iu] = n_up
    w[iu] = w_up
    w.T[iu] = n_up - w_up
    for k in separated:
        if k < m:
            w[k, :] = n[k, :]
            w[:, k] = 0.0
    return PairwiseCounts("d", tuple(f"m{i}" for i in range(m)), w, n)


class TestGraphHelpers:
    """Components and separation flags against the former node-by-node
    search and per-model loop."""

    @settings(deadline=None, max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        shape=st.sampled_from(["random", "islands", "path"]),
        separated=st.lists(st.integers(0, 39), max_size=3),
    )
    def test_components_and_flags_match_oracles(self, seed, m, shape, separated):
        counts = _graph_counts(seed, m, shape, separated)
        found = _connected_components(counts.n)
        expected = bfs_components(counts.n)
        assert [c.tolist() for c in found] == [c.tolist() for c in expected]
        flags = detect_separation(counts)
        assert tuple(f.value for f in flags) == loop_separation(counts.w, counts.n)

    def test_isolated_models_and_long_shuffled_path(self):
        m = 300
        order = np.random.default_rng(3).permutation(m)
        n = np.zeros((m, m))
        n[order[:-1], order[1:]] = 1.0
        n += n.T
        assert [c.tolist() for c in _connected_components(n)] == [list(range(m))]
        lone = np.zeros((4, 4))
        assert [c.tolist() for c in _connected_components(lone)] == [[0], [1], [2], [3]]
        n[order[150], :] = 0.0  # cut the path in two, leaving a lone model
        n[:, order[150]] = 0.0
        found = _connected_components(n)
        assert [c.tolist() for c in found] == [c.tolist() for c in bfs_components(n)]
        assert sorted(len(c) for c in found) == [1, 149, 150]


class TestEvaluation:
    """The one-pass log-likelihood and gradient against the former
    upper-triangle and sigmoid-form passes."""

    @settings(deadline=None, max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 12),
        half_ties=st.booleans(),
        lam=st.sampled_from([0.0, 1e-6, 0.3]),
        # |beta_i - beta_j| <= 8 keeps the oracle's own `1 - p` rounding,
        # about 1e-16 / (1 - p) relative, below the bound
        beta=st.lists(st.floats(-4.0, 4.0), min_size=12, max_size=12),
    )
    def test_loglik_and_gradient_match_oracles(self, seed, m, half_ties, lam, beta):
        counts = _counts_from(np.random.default_rng(seed), m, half_ties)
        beta = np.array(beta[:m])
        bound = 1e-12 * max(1.0, float(counts.n.sum()))
        value = log_likelihood(counts, beta, lam)
        assert abs(value - triu_loglik(counts.w, counts.n, beta, lam)) <= bound
        g = gradient(counts, beta, lam)
        assert np.max(np.abs(g - sigmoid_gradient(counts.w, counts.n, beta, lam))) <= bound

    def test_loglik_exact_where_one_minus_p_rounds(self):
        # At a score gap of 30, 1 - sigmoid(30) keeps only ~3 significant
        # digits; the loss side is taken as sigmoid(-30) instead.
        counts = counts_2model(w=3.0, n=10.0)
        beta = np.array([15.0, -15.0])
        exact = -3.0 * math.log1p(math.exp(-30.0)) - 7.0 * (30.0 + math.log1p(math.exp(-30.0)))
        assert log_likelihood(counts, beta) == pytest.approx(exact, rel=1e-15)
        assert abs(triu_loglik(counts.w, counts.n, beta) - exact) > 1e-6

    @pytest.mark.parametrize("instance", ["random", "fractional_ties", "separated", "ragged"])
    @pytest.mark.parametrize("lam", [0.0, 1e-6])
    def test_newton_matches_oracle_newton(self, instance, lam):
        if instance == "random":
            counts = random_counts(np.random.default_rng(41), 8)
        elif instance == "fractional_ties":
            counts = _counts_from(np.random.default_rng(42), 8, half_ties=True)
        elif instance == "separated":
            counts = separated_counts()
        else:
            counts = _graph_counts(43, 8, "path", [])
        cfg = FitConfig(algorithm="newton", ridge_lambda=lam)
        fit = _fit_newton(counts.w, counts.n, cfg)
        beta, iterations = newton_fit(counts.w, counts.n, lam, cfg.tol, cfg.max_iter)
        assert fit.iterations == iterations
        assert np.max(np.abs(fit.beta - beta)) <= 1e-12


def _subspace_covariance(n, beta, lam):
    return subspace_covariance(neg_hessian(n, beta, lam))


class TestCovariance:
    """The covariance is the exact inverse of the negative Hessian on the
    mean-zero subspace of each component."""

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 9),
        instance=st.sampled_from(["random", "ragged", "disconnected", "separated"]),
        algorithm=st.sampled_from(["mm", "newton"]),
        heavy=st.booleans(),
    )
    def test_matches_subspace_inverse(self, seed, m, instance, algorithm, heavy):
        rng = np.random.default_rng(seed)
        if instance == "random":
            # with 500x the matches the SEs shrink against the 1/ridge-sized
            # error a pseudo-inverse form would carry
            counts = random_counts(rng, m, n_max=25000 if heavy else 50)
        elif instance == "ragged":
            counts = _counts_from(rng, m, half_ties=True)
        elif instance == "disconnected":
            counts = _graph_counts(seed, m, "islands", [])
        else:
            counts = _graph_counts(seed, m, "random", [0])
        cfg = FitConfig(algorithm=algorithm)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FitWarning)
            scores = fit_epp(counts, cfg)
        expected = component_covariance(
            counts.n, scores.beta, cfg.ridge_lambda, _subspace_covariance
        )
        scale = float(np.max(np.abs(expected), initial=0.0))
        assert np.allclose(scores.covariance, expected, rtol=1e-9, atol=1e-9 * scale)
        assert np.array_equal(scores.covariance, scores.covariance.T)

    def test_csv_se_is_the_exact_value_where_pinv_rounds_it(self):
        # Many matches per pair make the SEs small against the pseudo-inverse
        # form's error, which scales with 1/ridge: here it moves every SE by
        # about 2e-5 relative and 10-12 of the 12 six-digit SEs. (At 1e-7
        # relative, with 100x fewer matches, which digits move depended on
        # the fitted scores' last bits.)
        counts = random_counts(np.random.default_rng(0), 12, n_max=2_000_000)
        scores = fit_epp(counts)
        exact = np.sqrt(np.diag(_subspace_covariance(counts.n, scores.beta, 1e-6)))
        pinv = np.sqrt(np.diag(pinv_covariance(counts.n, scores.beta, 1e-6)))
        assert np.max(np.abs(scores.standard_errors() / exact - 1.0)) <= 1e-12
        csv_se = [line.split(",")[2] for line in scores.to_csv_text().splitlines()[1:]]
        assert csv_se == [f"{s:.6g}" for s in exact]
        assert csv_se != [f"{s:.6g}" for s in pinv]


def chain_counts():
    """The two ledgers of a 12-model table whose scores rise with the model
    index in every split: each model beats every lower one in every match,
    so the scores separate along a chain. 11 models miss split s0 (and in
    d2 also m05 misses s1)."""
    lines = ["dataset,model,algorithm,split,score"]
    for ds in ("d1", "d2"):
        for k in range(12):
            for s in range(3):
                if s == 0 and k > 0 or ds == "d2" and s == 1 and k == 5:
                    continue
                lines.append(f"{ds},m{k:02d},alg,s{s},{0.1 * k + 0.01 * s!r}")
    table = parse_scores_csv(("\n".join(lines) + "\n").encode())
    return [build_matches(table, ds) for ds in ("d1", "d2")]


class TestNewmanPath:
    """The MM path's Newman proposals under the likelihood guard: the fit
    against the oracle Newton fit, and the penalized log-likelihood trace."""

    @settings(deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 8),
        half_ties=st.booleans(),
        lam=st.sampled_from([0.0, 1e-6]),
        instance=st.sampled_from(["ledger", "separated", "disconnected"]),
    )
    def test_matches_oracle_newton_and_ascends(self, seed, m, half_ties, lam, instance):
        if instance == "ledger":  # pairs unplayed, won or lost outright occur too
            counts = _counts_from(np.random.default_rng(seed), m, half_ties)
        elif instance == "separated":
            counts = _graph_counts(seed, m, "random", [0])
        else:
            counts = _graph_counts(seed, m, "islands", [])
        # At the default tol the stop test certifies a gradient of 1e-8,
        # which leaves scores up to ~2e-8 from the optimum where the
        # curvature is ~0.3; a tighter tol pins them to it.
        cfg = FitConfig(ridge_lambda=lam, tol=1e-11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FitWarning)
            scores = fit_epp(counts, cfg)
        for comp in bfs_components(counts.n):
            if len(comp) < 2:
                continue
            block = np.ix_(comp, comp)
            w, n = counts.w[block], counts.n[block]
            finite = finite_maximum(w)
            if lam == 0.0 and not finite:
                continue  # no maximum: the scores run off to the clamp
            trace = []
            fit = _fit_mm(w, n, cfg, trace=trace)
            assert fit.converged
            assert np.all(np.diff(np.array(trace)) >= -1e-9)
            assert np.array_equal(scores.beta[comp], fit.beta - fit.beta.mean())
            beta, _ = newton_fit(w, n, lam, cfg.tol, cfg.max_iter)
            if finite:
                assert np.max(np.abs(fit.beta - beta)) <= 1e-8
            else:
                # Only the ridge bounds the separated direction, whose
                # curvature is ~lam: the scores agree to about
                # tol / lam there, the penalized maxima far closer.
                assert triu_loglik(w, n, fit.beta, lam) == pytest.approx(
                    triu_loglik(w, n, beta, lam), abs=1e-9
                )

    def test_guard_stops_the_two_cycle(self):
        # Newman's update alone 2-cycles here, and some of its steps lower
        # the likelihood; the guard turns those proposals into MM sweeps.
        counts = random_counts(np.random.default_rng(27), 3)
        trace = []
        fit = _fit_mm(counts.w, counts.n, FitConfig(), trace=trace)
        assert fit.converged
        assert np.all(np.diff(np.array(trace)) >= -1e-9)
        beta, _ = newton_fit(counts.w, counts.n, 1e-6)
        assert np.max(np.abs(fit.beta - beta)) <= 1e-8

    def test_separated_chain_converges_within_mm_iterations(self):
        # MM sweeps alone needed 522 iterations on each ledger; Newman's
        # proposals, kept past the first rescue, ran to max_iter.
        for counts in chain_counts():
            scores = fit_epp(counts)
            assert scores.converged
            assert scores.iterations <= 522
            assert scores.rescue_steps > 0
