import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eppscore import (
    FileFormatError,
    PairedSplitsMismatchError,
    PairingMode,
    PairwiseCounts,
    TiePolicy,
    UndefinedWinRateError,
    build_matches,
    empirical_win_rate,
    match_engine,
    parse_scores_csv,
)
from oracles import naive_pairwise_counts, whole_matrix_invariant_error


def table_from_matrix(scores_by_model, dataset="d1", splits=None):
    """scores_by_model: {model: [scores]}; splits default s00, s01, ..."""
    lines = ["dataset,model,algorithm,split,score"]
    for model, scores in scores_by_model.items():
        ids = splits or [f"s{k:02d}" for k in range(len(scores))]
        for split, score in zip(ids, scores):
            lines.append(f"{dataset},{model},alg,{split},{float(score)!r}")
    return parse_scores_csv("\n".join(lines) + "\n")


class TestBuildMatches:
    def test_cross_match_count_twenty_splits(self):
        rng = np.random.default_rng(0)
        table = table_from_matrix(
            {"a": list(rng.normal(size=20)), "b": list(rng.normal(size=20))}
        )
        counts = build_matches(table, "d1", PairingMode.CROSS)
        assert counts.n[0, 1] == 400.0
        assert counts.w[0, 1] + counts.w[1, 0] == 400.0

    def test_paired_match_count_and_wins(self):
        # one model wins 14 of 20 paired comparisons
        a = [float(k) for k in range(20)]
        b = [a[k] + (-1.0 if k < 14 else 1.0) for k in range(20)]
        table = table_from_matrix({"glm": a, "kknn": b})
        counts = build_matches(table, "d1", PairingMode.PAIRED)
        i = counts.model_index("glm")
        j = counts.model_index("kknn")
        assert counts.n[i, j] == 20.0
        assert counts.w[i, j] == 14.0

    def test_total_tie_half_policy(self):
        table = table_from_matrix({"a": [1.0, 1.0, 1.0], "b": [1.0, 1.0, 1.0]})
        counts = build_matches(table, "d1", PairingMode.PAIRED, TiePolicy.HALF)
        assert counts.w[0, 1] == counts.w[1, 0] == 1.5
        assert counts.n[0, 1] == 3.0

    def test_total_tie_drop_policy(self):
        table = table_from_matrix({"a": [1.0, 1.0, 1.0], "b": [1.0, 1.0, 1.0]})
        counts = build_matches(table, "d1", PairingMode.PAIRED, TiePolicy.DROP)
        assert counts.w[0, 1] == 0.0
        assert counts.n[0, 1] == 0.0

    def test_drop_reduces_n_half_keeps_it(self):
        table = table_from_matrix({"a": [1.0, 2.0], "b": [2.0, 3.0]})
        half = build_matches(table, "d1", PairingMode.CROSS, TiePolicy.HALF)
        drop = build_matches(table, "d1", PairingMode.CROSS, TiePolicy.DROP)
        assert half.n[0, 1] == 4.0
        assert drop.n[0, 1] == 3.0  # one exact tie dropped
        assert half.w[0, 1] == drop.w[0, 1] + 0.5

    def test_paired_mismatch_lists_models(self):
        table = table_from_matrix(
            {"a": [1.0, 2.0], "b": [1.0, 2.0], "c": [1.0]},
            splits=None,
        )
        with pytest.raises(PairedSplitsMismatchError) as err:
            build_matches(table, "d1", PairingMode.PAIRED)
        assert err.value.models == ["c"]

    def test_paired_mismatch_names_ten_models_at_most(self):
        # 13 models lack the second split: the message names the first 10,
        # `models` every one of them.
        scores = {f"m{k:02d}": [1.0] for k in range(13)}
        table = table_from_matrix({"a": [1.0, 2.0], **scores})
        with pytest.raises(PairedSplitsMismatchError) as err:
            build_matches(table, "d1", PairingMode.PAIRED)
        assert err.value.models == list(scores)
        assert str(err.value).endswith(
            "mismatched models: m00, m01, m02, m03, m04, m05, m06, m07, m08, m09, ..."
        )

    def test_unknown_dataset(self):
        table = table_from_matrix({"a": [1.0]})
        with pytest.raises(KeyError):
            build_matches(table, "nope")

    def test_cross_with_unequal_split_counts(self):
        table = table_from_matrix({"a": [1.0, 2.0, 3.0], "b": [1.5, 2.5]})
        counts = build_matches(table, "d1", PairingMode.CROSS)
        assert counts.n[0, 1] == 6.0
        assert counts.w[0, 1] == 3.0  # 2>1.5, 3>1.5, 3>2.5

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("half", [False, True])
    def test_matches_naive_double_loop(self, paired, half):
        rng = np.random.default_rng(42)
        for _ in range(5):
            m, s = rng.integers(2, 5), rng.integers(2, 6)
            raw = rng.integers(0, 4, size=(m, s)).astype(float)  # many ties
            table = table_from_matrix({f"m{i}": list(raw[i]) for i in range(m)})
            counts = build_matches(
                table,
                "d1",
                PairingMode.PAIRED if paired else PairingMode.CROSS,
                TiePolicy.HALF if half else TiePolicy.DROP,
            )
            order = [counts.model_index(f"m{i}") for i in range(m)]
            w_ref, n_ref = naive_pairwise_counts(
                [list(raw[i]) for i in range(m)], paired, half
            )
            assert np.array_equal(counts.w[np.ix_(order, order)], w_ref)
            assert np.array_equal(counts.n[np.ix_(order, order)], n_ref)

    @pytest.mark.parametrize("block, group", [(1, 1), (2, 1), (3, 40)])
    @settings(deadline=None)
    @given(data=st.data())
    def test_property_matches_naive_oracle(self, block, group, data):
        # Tiny blocks and groups run many blocks, one or a few per GEMM.
        paired = data.draw(st.booleans(), label="paired")
        half = data.draw(st.booleans(), label="half")
        m = data.draw(st.integers(1, 6), label="m")
        pool = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])
        if paired:
            s = data.draw(st.integers(1, 6), label="s")
            raw = [data.draw(st.lists(pool, min_size=s, max_size=s)) for _ in range(m)]
        else:
            raw = [data.draw(st.lists(pool, min_size=1, max_size=6)) for _ in range(m)]
        table = table_from_matrix({f"m{i}": raw[i] for i in range(m)})
        with mock.patch.object(match_engine, "_block_size", lambda m: block), \
                mock.patch.object(match_engine, "_GROUP_ELEMS", group):
            counts = build_matches(
                table,
                "d1",
                PairingMode.PAIRED if paired else PairingMode.CROSS,
                TiePolicy.HALF if half else TiePolicy.DROP,
            )
        order = [counts.model_index(f"m{i}") for i in range(m)]
        w_ref, n_ref = naive_pairwise_counts(raw, paired, half)
        assert np.array_equal(counts.w[np.ix_(order, order)], w_ref)
        assert np.array_equal(counts.n[np.ix_(order, order)], n_ref)

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("half", [False, True])
    def test_mid_size_matches_naive_oracle_at_default_cap(self, paired, half):
        # m=30 with scores on a 0.1 grid, so ties are common; CROSS draws
        # ragged 1-20 splits per model, PAIRED 12 shared splits.
        rng = np.random.default_rng(20201)
        m = 30
        sizes = np.full(m, 12) if paired else rng.integers(1, 21, size=m)
        raw = [list(np.round(rng.normal(size=k), 1)) for k in sizes]
        table = table_from_matrix({f"m{i:02d}": raw[i] for i in range(m)})
        counts = build_matches(
            table,
            "d1",
            PairingMode.PAIRED if paired else PairingMode.CROSS,
            TiePolicy.HALF if half else TiePolicy.DROP,
        )
        assert counts.models == tuple(f"m{i:02d}" for i in range(m))
        w_ref, n_ref = naive_pairwise_counts(raw, paired, half)
        assert np.array_equal(counts.w, w_ref)
        assert np.array_equal(counts.n, n_ref)

    def test_monotone_transform_invariance_bit_exact(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(4, 10))
        table = table_from_matrix({f"m{i}": list(raw[i]) for i in range(4)})
        transformed = table_from_matrix(
            {f"m{i}": list(np.exp(raw[i]) * 3.0 + 1.0) for i in range(4)}
        )
        c1 = build_matches(table, "d1")
        c2 = build_matches(transformed, "d1")
        assert np.array_equal(c1.w, c2.w)
        assert np.array_equal(c1.n, c2.n)

    def test_antisymmetry_random_ledgers(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m, s = rng.integers(2, 6), rng.integers(1, 8)
            raw = rng.integers(0, 3, size=(m, s)).astype(float)
            table = table_from_matrix({f"m{i}": list(raw[i]) for i in range(m)})
            counts = build_matches(table, "d1")
            # every CROSS pair plays s * s matches, ties half a win each side
            assert np.array_equal(counts.n, s * s * (1.0 - np.eye(m)))
            assert np.all(np.diag(counts.w) == 0)


def _kernel_and_oracle(score_lists):
    """(`_cross_counts`'s gt, an all-pairs comparison's) for per-model scores."""
    m = len(score_lists)
    sizes = np.array([len(scores) for scores in score_lists])
    scores = np.concatenate([np.asarray(s, dtype=float) for s in score_lists])
    model = np.repeat(np.arange(m), sizes)
    gt = match_engine._cross_counts(scores, sizes, np.argsort(scores, kind="stable"))
    wins = (model[:, None] * m + model[None, :])[scores[:, None] > scores[None, :]]
    return gt, np.bincount(wins, minlength=m * m).reshape(m, m).astype(float)


class TestCrossKernel:
    """`_cross_counts` against an all-pairs comparison, at block sizes that
    put runs of equal scores across the K-windows."""

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 7])
    def test_tie_runs_longer_than_a_block(self, block):
        # sorted runs of 9, 1, 5 and 2 equal scores, spread over three models
        values = np.repeat([0.5, 1.0, 2.0, 3.0], [9, 1, 5, 2])
        lists = [list(values[k::3]) + [4.0] * k for k in range(3)]
        with mock.patch.object(match_engine, "_block_size", lambda m: block):
            gt, ref = _kernel_and_oracle(lists)
        assert np.array_equal(gt, ref)

    @pytest.mark.parametrize("block", [2, 3, 4, 5])
    def test_runs_straddling_block_boundaries(self, block):
        # runs of 3, 4, 1, 5 and 2 start inside a K-window and end past it
        values = np.repeat([1.0, 2.0, 3.0, 4.0, 5.0], [3, 4, 1, 5, 2])
        lists = [list(values[k::3]) for k in range(3)]
        with mock.patch.object(match_engine, "_block_size", lambda m: block), \
                mock.patch.object(match_engine, "_GROUP_ELEMS", 1):
            gt, ref = _kernel_and_oracle(lists)
        assert np.array_equal(gt, ref)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_negative_and_positive_zero_at_a_block_boundary(self, block):
        # sorted: -1, -0.0, 0.0, 0.0, 1; with K=2 the zeros' run starts in
        # the first window and ends in the second
        lists = [[-1.0, -0.0], [0.0, 1.0], [0.0]]
        with mock.patch.object(match_engine, "_block_size", lambda m: block):
            gt, ref = _kernel_and_oracle(lists)
        assert np.array_equal(gt, ref)
        assert gt[1, 0] == 3.0 and gt[0, 1] == 0.0  # 0.0 does not beat -0.0
        assert gt[2, 0] == 1.0 and gt[0, 2] == 0.0

    @pytest.mark.parametrize("m", [1, 2, 15, 16, 17, 31, 64, 130, 300])
    def test_block_size_rule_at_every_m(self, m):
        # The unpatched rule, ragged 1-8 splits on a 0.1 grid and as drawn.
        assert all(match_engine._block_size(k) >= 1 for k in range(1, 5001))
        rng = np.random.default_rng(m)
        lists = [list(rng.normal(size=rng.integers(1, 9))) for _ in range(m)]
        for scores in (lists, [list(np.round(s, 1)) for s in lists]):
            gt, ref = _kernel_and_oracle(scores)
            assert np.array_equal(gt, ref)

    def test_many_groups_at_the_default_block_size(self):
        # More within-block pair codes and blocks than one group holds.
        rng = np.random.default_rng(5)
        lists = [list(np.round(rng.normal(size=40), 2)) for _ in range(50)]
        with mock.patch.object(match_engine, "_GROUP_ELEMS", 64):
            gt, ref = _kernel_and_oracle(lists)
        assert np.array_equal(gt, ref)


class TestPairedKernel:
    def test_more_splits_than_uint16_counts(self):
        # 70,000 wins of one pair pass 65,535: the uint16 counts must flush
        s = 70_000
        scores = np.array([np.ones(s), np.zeros(s), np.r_[np.full(5, 2.0), np.zeros(s - 5)]])
        assert match_engine._paired_counts(scores).tolist() == [
            [0, s, s - 5], [0, 0, 0], [5, 5, 0],
        ]


class TestEmpiricalWinRate:
    def test_values(self):
        counts = PairwiseCounts("d", ("a", "b"), np.array([[0, 264.0], [136.0, 0]]))
        assert empirical_win_rate(counts, "a", "b") == pytest.approx(0.66)
        assert empirical_win_rate(counts, 1, 0) == pytest.approx(0.34)

    def test_near_even_win_rate(self):
        counts = PairwiseCounts("d", ("gbm", "ranger"), np.array([[0, 201.0], [199.0, 0]]))
        assert empirical_win_rate(counts, 0, 1) == pytest.approx(0.5025)

    def test_zero_wins(self):
        counts = PairwiseCounts("d", ("a", "b"), np.array([[0, 0.0], [5.0, 0]]))
        assert empirical_win_rate(counts, 0, 1) == 0.0

    def test_no_matches_error(self):
        counts = PairwiseCounts("d", ("a", "b"), np.zeros((2, 2)))
        with pytest.raises(UndefinedWinRateError):
            empirical_win_rate(counts, 0, 1)


class TestLedger:
    def test_n_is_w_plus_its_transpose(self):
        w = np.array([[0, 2.5, 1.0], [1.5, 0, 0.0], [3.0, 0.0, 0]])
        counts = PairwiseCounts("d", ("a", "b", "c"), w)
        assert counts.n.tolist() == [[0, 4.0, 4.0], [4.0, 0, 0.0], [4.0, 0.0, 0]]

    def test_source_and_mean_score_are_keyword_only(self):
        # A stale positional n would otherwise bind to `source`.
        w = np.array([[0, 2.0], [2.0, 0]])
        with pytest.raises(TypeError):
            PairwiseCounts("d", ("a", "b"), w, w + w.T)
        counts = PairwiseCounts("d", ("a", "b"), w, source={"ties": "half"})
        assert counts.source == {"ties": "half"}

    def test_w_must_be_square_over_the_models(self):
        with pytest.raises(ValueError, match="w must be m x m"):
            PairwiseCounts("d", ("a", "b"), np.zeros((2, 3)))


class TestSerialization:
    def test_json_round_trip(self):
        counts = PairwiseCounts("d1", ("a", "b"), np.array([[0, 2.5], [1.5, 0]]))
        text = counts.to_json_text()
        assert "n" not in json.loads(text)
        again = PairwiseCounts.from_json_text(text)
        assert again.dataset_id == "d1"
        assert again.models == ("a", "b")
        assert np.array_equal(again.w, counts.w)
        assert np.array_equal(again.n, counts.n)

    @pytest.mark.parametrize("w", [
        [[0, 12], [-2, 0]],
        [[1, 7], [3, 0]],
    ], ids=["w-above-n", "diagonal"])
    def test_reader_checks_the_ledger(self, w):
        w = np.array(w, float)
        text = PairwiseCounts("d", ("a", "b"), w).to_json_text()
        with pytest.raises(FileFormatError) as caught:
            PairwiseCounts.from_json_text(text)
        assert str(caught.value) == whole_matrix_invariant_error(w)

    def test_invariant_checker_rejects_bad_ledger(self):
        bad = PairwiseCounts("d", ("a", "b"), np.array([[0, 3.0], [-2.0, 0]]))
        with pytest.raises(ValueError):
            bad.check_invariants()


def _wins(draw):
    """A valid `w` of up to 9 models, half-win ties and unplayed pairs
    included, then up to three entries replaced or nudged, the diagonal
    included."""
    m = draw(st.integers(0, 9), label="m")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = np.triu(rng.integers(0, 6, (m, m)).astype(float), 1)
    w = rng.integers(0, 2 * n + 1) / 2.0  # wins and half-win ties
    w += np.tril(n.T - w.T, -1)
    values = st.sampled_from([
        0.0, -0.0, 0.5, 3.0, -1.0, -1e-10, -2e-9, 1e-10, 1e-300, 1e308,
        np.nan, np.inf, -np.inf,
    ])
    for _ in range(draw(st.integers(0, 3), label="faults") if m else 0):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        if draw(st.booleans()):
            w[i, j] = draw(values)
        else:
            w[i, j] *= draw(st.sampled_from([-1.0, 1.0 + 2e-5]))
    return w


class TestCheckInvariants:
    """`check_invariants` by whole-array reductions against whole-matrix
    expressions: the same message, or none, on valid and perturbed ledgers."""

    # `scale` multiplies the whole ledger, faults included: the same wins
    # over that many times the matches, up to 2**16 splits' worth, where
    # small negatives leave atol and 1e308 overflows to inf.
    @pytest.mark.parametrize("scale", [1, 7, 30, 1 << 16])
    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_property_matches_whole_matrix_oracle(self, scale, data):
        with np.errstate(over="ignore"):
            w = scale * _wins(data.draw)
        atol = data.draw(st.sampled_from([1e-9, 0.0, 0.5]), label="atol")
        counts = PairwiseCounts("d", tuple(f"m{k}" for k in range(len(w))), w)
        try:
            counts.check_invariants(atol)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == whole_matrix_invariant_error(w, atol)

    @pytest.mark.parametrize("value, message", [
        (np.nan, "w entries must be finite and >= 0"),
        (np.inf, "w entries must be finite and >= 0"),
        (-np.inf, "w entries must be finite and >= 0"),
        (-1e-3, "w entries must be finite and >= 0"),
        (-1e-10, None),  # within atol
    ])
    def test_one_bad_entry(self, value, message):
        w = np.full((3, 3), 2.0) - 2.0 * np.eye(3)
        w[2, 0] = value
        got = None
        try:
            PairwiseCounts("d", ("a", "b", "c"), w).check_invariants()
        except ValueError as exc:
            got = str(exc)
        assert got == message == whole_matrix_invariant_error(w)

    @pytest.mark.parametrize("value", [1.0, np.nan, np.inf])
    def test_nonzero_diagonal(self, value):
        w = np.zeros((2, 2))
        w[1, 1] = value
        with pytest.raises(ValueError, match="^diagonal of w must be zero$"):
            PairwiseCounts("d", ("a", "b"), w).check_invariants()

    def test_all_inf_ledger_is_refused(self):
        w = np.full((2, 2), np.inf)
        np.fill_diagonal(w, 0.0)
        text = PairwiseCounts("d", ("a", "b"), w).to_json_text()
        with pytest.raises(FileFormatError, match="w entries must be finite"):
            PairwiseCounts.from_json_text(text)

    def test_no_m_by_m_temporary(self):
        m = 600
        w = 0.5 * (np.ones((m, m)) - np.eye(m))
        counts = PairwiseCounts("d", tuple(f"m{k}" for k in range(m)), w)
        tracemalloc.start()
        try:
            counts.check_invariants()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * m * 8  # a few vectors of m entries at most
