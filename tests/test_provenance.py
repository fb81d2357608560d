"""Fit and counts files record their source and each model's mean score;
`epp leaderboard` reuses the recorded means when its --scores file is the
one the fit was made from. The oracle is `PerformanceTable.mean_scores`."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eppscore import cli
from eppscore.analysis import leaderboard
from eppscore.baselines import SyntheticSpec, simulate_scores
from eppscore.cli import main
from eppscore.errors import FileFormatError, FitWarning
from eppscore.jsonio import encode_array
from eppscore.match_engine import PairingMode, PairwiseCounts, TiePolicy, build_matches
from eppscore.perf_table import parse_scores_csv, sha256_of
from eppscore.solver import EppScores, FitConfig, fit_epp

DEFAULT_FIT_SOURCE = {"algorithm": "mm", "ridge_lambda": 1e-6, "tol": 1e-9, "max_iter": 10_000}

# Repeated values make ties; 0.1, 0.2 and 0.3 make sums that depend on row order.
_SCORES = st.one_of(
    st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.1, 0.2, 0.3, 1.0]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def write_scores(path, seed=0, datasets=("d1", "d2"), n_models=4, n_splits=8):
    rng = np.random.default_rng(seed)
    lines = ["dataset,model,algorithm,split,score"]
    for ds in datasets:
        for k in range(n_models):
            for s in range(n_splits):
                score = 0.7 + 0.05 * k + rng.normal(0, 0.03)
                lines.append(f"{ds},m{k},{'gbm' if k % 2 else 'rf'},s{s},{score!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def fit_files(tmp_path, scores, *flags, out="fits"):
    assert main(["fit", str(scores), "--out-dir", str(tmp_path / out), *flags]) == 0
    return sorted((tmp_path / out).glob("epp_*.json"))


def strip_source(paths, out_dir):
    """Copies of the fit files whose `source` is not known: null."""
    out_dir.mkdir()
    stripped = []
    for path in paths:
        obj = json.loads(path.read_text())
        obj["source"] = None
        stripped.append(out_dir / path.name)
        stripped[-1].write_text(json.dumps(obj, indent=2) + "\n")
    return stripped


def run_leaderboard(capsys, fits, scores, out_dir, *flags):
    capsys.readouterr()
    argv = ["leaderboard", "--fit", *map(str, fits), "--scores", str(scores),
            "--out-dir", str(out_dir), *flags]
    assert main(argv) == 0
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return files, captured.out, captured.err


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_recorded_means_equal_the_table_means_bit_for_bit(data):
    negate = data.draw(st.booleans(), label="negate")
    ties = data.draw(st.sampled_from(list(TiePolicy)), label="ties")
    lines = []
    for d in range(data.draw(st.integers(1, 3), label="datasets")):
        for k in range(data.draw(st.integers(1, 5), label="models")):
            # Up to 12 splits: from 8 values on, numpy's sums add in another order.
            splits = data.draw(st.lists(st.integers(0, 11), min_size=1, max_size=12, unique=True))
            lines += [f"d{d},m{k},alg,s{s},{data.draw(_SCORES)!r}" for s in splits]
    lines = data.draw(st.permutations(lines), label="row order")
    text = "dataset,model,algorithm,split,score\n" + "\n".join(lines) + "\n"
    table = parse_scores_csv(text)
    if negate:
        table = table.negated()
    for ds in table.datasets():
        counts = build_matches(table, ds, PairingMode.CROSS, ties)
        oracle = [table.mean_scores(ds)[model] for model in counts.models]
        assert bits(counts.mean_score) == bits(oracle)
        assert counts.source == {
            "sha256": sha256_of(text.encode("utf-8")),
            "lower_is_better": negate,
            "pairing": "cross",
            "ties": ties.value,
        }
        reread = PairwiseCounts.from_json_text(counts.to_json_text())
        assert bits(reread.mean_score) == bits(oracle)
        assert reread.source == counts.source
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FitWarning)  # all-tie ledgers under DROP
            fit = EppScores.from_json_text(fit_epp(counts).to_json_text())
        assert bits(fit.mean_score) == bits(oracle)
        assert fit.source == {**counts.source, **DEFAULT_FIT_SOURCE}


def test_only_parsed_tables_carry_a_digest():
    text = "dataset,model,algorithm,split,score\nd1,a,alg,s1,0.5\nd1,b,alg,s1,0.25\n"
    parsed = parse_scores_csv(text.encode("utf-8"))
    assert parsed.sha256 == parse_scores_csv(text).sha256 == sha256_of(text)
    assert not parsed.lower_is_better
    assert parsed.negated().lower_is_better and not parsed.negated().negated().lower_is_better
    built = simulate_scores(SyntheticSpec(skills=(0.0, 1.0), n_splits=2, seed=1))
    assert built.sha256 is None
    assert build_matches(built, "synthetic").source["sha256"] is None


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("lower", [False, True], ids=["higher", "lower"])
def test_library_pipeline_writes_the_cli_fit_bytes(tmp_path, jobs, lower):
    # The pipeline a caller of the library runs: parse, negate, build, fit.
    scores = write_scores(tmp_path / "scores.csv")
    flags = ["--lower-is-better"] if lower else []
    paths = fit_files(tmp_path, scores, "--jobs", jobs, *flags)
    table = parse_scores_csv(scores.read_bytes())
    if lower:
        table = table.negated()
    for ds, path in zip(table.datasets(), paths):
        fit = fit_epp(build_matches(table, ds, PairingMode.CROSS, TiePolicy.HALF), FitConfig())
        fit.algorithms = {m: table.algorithm_of[m] for m in fit.models}
        assert fit.to_json_text().encode("utf-8") == path.read_bytes()
        assert sorted(json.loads(path.read_text())["source"]) == sorted(
            ["sha256", "lower_is_better", "pairing", "ties", *DEFAULT_FIT_SOURCE]
        )


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("lower", [False, True], ids=["higher", "lower"])
def test_matching_leaderboard_does_not_parse_the_scores(tmp_path, capsys, monkeypatch, fmt, lower):
    scores = write_scores(tmp_path / "scores.csv")
    flags = ["--format", fmt] + (["--lower-is-better"] if lower else [])
    fits = fit_files(tmp_path, scores, *flags[2:])
    parsed = run_leaderboard(capsys, strip_source(fits, tmp_path / "old"), scores,
                             tmp_path / "parsed", *flags)

    def refuse(data):
        raise AssertionError("leaderboard parsed the scores file")

    monkeypatch.setattr(cli, "parse_scores_csv", refuse)
    recorded = run_leaderboard(capsys, fits, scores, tmp_path / "recorded", *flags)
    assert recorded == parsed
    assert recorded[2] == ""  # no warning for either
    assert set(recorded[0]) == {f"leaderboard_d1.{fmt}", f"leaderboard_d2.{fmt}"}


def test_other_scores_file_parses_and_warns(tmp_path, capsys):
    fits = fit_files(tmp_path, write_scores(tmp_path / "a.csv", seed=0))
    other = write_scores(tmp_path / "b.csv", seed=1)
    expected = run_leaderboard(capsys, strip_source(fits, tmp_path / "old"), other,
                               tmp_path / "expected")
    files, out, err = run_leaderboard(capsys, fits, other, tmp_path / "got")
    assert (files, out) == expected[:2]  # mean scores come from b.csv
    made = sha256_of((tmp_path / "a.csv").read_bytes())[:12]
    other_digest = sha256_of(other.read_bytes())[:12]
    assert err.splitlines() == [
        f"warning: dataset '{ds}': fit was made from scores sha256 {made}, "
        f"--scores is {other_digest}; mean scores come from --scores"
        for ds in ("d1", "d2")
    ]


@pytest.mark.parametrize("ds, missing", [("d1", "m3"), ("d2", "m0, m1, m2, m3")])
def test_other_scores_file_without_the_fits_models_is_one_error(tmp_path, capsys, ds, missing):
    # b.csv holds three of d1's four models and no row of d2.
    fit_files(tmp_path, write_scores(tmp_path / "a.csv", seed=0))
    other = write_scores(tmp_path / "b.csv", seed=1, datasets=("d1",), n_models=3)
    capsys.readouterr()
    argv = ["leaderboard", "--fit", str(tmp_path / "fits" / f"epp_{ds}.json"),
            "--scores", str(other), "--out-dir", str(tmp_path / "got")]
    assert main(argv) == 2
    made = sha256_of((tmp_path / "a.csv").read_bytes())[:12]
    other_digest = sha256_of(other.read_bytes())[:12]
    assert capsys.readouterr().err.splitlines() == [
        f"warning: dataset '{ds}': fit was made from scores sha256 {made}, "
        f"--scores is {other_digest}; mean scores come from --scores",
        f"error: dataset '{ds}': the scores table has no rows of models {missing}",
    ]
    assert not (tmp_path / "got").exists()


def test_flipped_lower_is_better_parses_and_warns(tmp_path, capsys):
    scores = write_scores(tmp_path / "scores.csv")
    fits = fit_files(tmp_path, scores)
    expected = run_leaderboard(capsys, strip_source(fits, tmp_path / "old"), scores,
                               tmp_path / "expected", "--lower-is-better")
    files, out, err = run_leaderboard(capsys, fits, scores, tmp_path / "got",
                                      "--lower-is-better")
    assert (files, out) == expected[:2]  # mean scores negated, as the flag asks
    assert err.splitlines() == [
        f"warning: dataset '{ds}': fit was made without --lower-is-better, the "
        "leaderboard is run with it; mean scores come from --scores"
        for ds in ("d1", "d2")
    ]


def test_counts_file_carries_the_source_to_its_fit(tmp_path):
    scores = write_scores(tmp_path / "scores.csv", datasets=("d1",))
    flags = ["--pairing", "paired", "--ties", "drop", "--lower-is-better"]
    (direct,) = fit_files(tmp_path, scores, "--dump-counts", *flags, out="a")
    assert main(["fit", "--counts", str(tmp_path / "a" / "counts_d1.json"),
                 "--out-dir", str(tmp_path / "b")]) == 0
    a, b = json.loads(direct.read_text()), json.loads((tmp_path / "b" / "epp_d1.json").read_text())
    assert a["source"] == b["source"] == {
        "sha256": sha256_of(scores.read_bytes()),
        "lower_is_better": True,
        "pairing": "paired",
        "ties": "drop",
        **DEFAULT_FIT_SOURCE,
    }
    assert a["mean_score"] == b["mean_score"]


def test_files_without_provenance_still_load(tmp_path):
    # A ledger built other than by build_matches, and its fit, record no
    # provenance: their files hold null, and the keys are never left out.
    table = parse_scores_csv(write_scores(tmp_path / "scores.csv").read_bytes())
    counts = build_matches(table, "d1")
    fit = fit_epp(counts)
    bare = PairwiseCounts(counts.dataset_id, counts.models, counts.w)
    for made, cls in ((bare, PairwiseCounts), (fit_epp(bare), EppScores)):
        text = made.to_json_text()
        obj = json.loads(text)
        assert obj["source"] is None and obj["mean_score"] is None
        old = cls.from_json_text(text)
        assert old.source is None and old.mean_score is None
        assert old.to_json_text() == text
        del obj["source"]
        with pytest.raises(FileFormatError, match="^missing key 'source'$"):
            cls.from_json_text(json.dumps(obj))
    with pytest.raises(ValueError, match="records no mean scores"):
        leaderboard(old, None)
    assert leaderboard(old, table) == leaderboard(fit, None)


@pytest.mark.parametrize("key, value, message", [
    ("source", [1], "source: not a JSON object"),
    ("mean_score", encode_array([1.0]), r"mean_score: shape \[1\] is not the expected \[4\]"),
])
def test_malformed_provenance_is_refused(tmp_path, key, value, message):
    table = parse_scores_csv(write_scores(tmp_path / "scores.csv").read_bytes())
    counts = build_matches(table, "d1")
    for text, cls in ((counts.to_json_text(), PairwiseCounts),
                      (fit_epp(counts).to_json_text(), EppScores)):
        obj = json.loads(text)
        obj[key] = value
        with pytest.raises(FileFormatError, match=message):
            cls.from_json_text(json.dumps(obj))
