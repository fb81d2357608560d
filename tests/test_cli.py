import base64
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import eppscore
from eppscore import EppScores, PairwiseCounts
from eppscore.cli import RunConfig, build_run_config, main, parse_config_text

SUBCOMMANDS = [
    "fit",
    "leaderboard",
    "compare",
    "embed",
    "tunability",
    "simulate",
    "elo",
    "recovery",
]


def write_scores(path, n_models=4, n_splits=20, seed=0, dataset="d1"):
    rng = np.random.default_rng(seed)
    lines = ["dataset,model,algorithm,split,score"]
    algs = ["gbm", "rf"]
    for k in range(n_models):
        base = 0.7 + 0.05 * k
        for s in range(n_splits):
            lines.append(
                f"{dataset},m{k},{algs[k % 2]},s{s:02d},"
                f"{base + rng.normal(0, 0.03)!r}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestHelp:
    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_help_exits_zero(self, subcommand, capsys):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--help"])
        assert exc.value.code == 0
        assert subcommand in capsys.readouterr().out or True


class TestFit:
    def test_writes_csv_and_json_per_dataset(self, tmp_path):
        scores = write_scores(tmp_path / "scores.csv")
        rc = main(["fit", str(scores), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        csv_path = tmp_path / "out" / "epp_d1.csv"
        json_path = tmp_path / "out" / "epp_d1.json"
        assert csv_path.exists() and json_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "model,beta,se,separation,converged"
        assert len(lines) == 5  # four models
        payload = json.loads(json_path.read_text())
        assert payload["dataset"] == "d1"
        assert payload["algorithms"]["m0"] == "gbm"
        enc = payload["covariance"]
        assert enc["dtype"] == "<f8" and enc["shape"] == [4, 4]
        cov = np.frombuffer(base64.b64decode(enc["base64"]), "<f8").reshape(enc["shape"])
        loaded = EppScores.from_json_text(json_path.read_text())
        assert cov.shape == (4, 4)
        assert np.array_equal(cov.view(np.int64), loaded.covariance.view(np.int64))

    def test_paired_mismatch_exits_2_and_names_models(self, tmp_path, capsys):
        text = (
            "dataset,model,algorithm,split,score\n"
            "d1,a,alg,s1,0.5\nd1,a,alg,s2,0.6\nd1,b,alg,s1,0.7\n"
        )
        scores = tmp_path / "scores.csv"
        scores.write_text(text)
        rc = main(["fit", str(scores), "--pairing", "paired",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "b" in err

    def test_lower_is_better_double_negation(self, tmp_path):
        scores = write_scores(tmp_path / "scores.csv")
        negated = tmp_path / "negated.csv"
        lines = scores.read_text().splitlines()
        out = [lines[0]]
        for line in lines[1:]:
            head, score = line.rsplit(",", 1)
            out.append(f"{head},{-float(score)!r}")
        negated.write_text("\n".join(out) + "\n")
        main(["fit", str(scores), "--out-dir", str(tmp_path / "a")])
        main(["fit", str(negated), "--lower-is-better",
              "--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "epp_d1.json").read_bytes() == (
            tmp_path / "b" / "epp_d1.json"
        ).read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        scores = write_scores(tmp_path / "scores.csv", n_models=3)
        main(["fit", str(scores), "--out-dir", str(tmp_path / "r1")])
        main(["fit", str(scores), "--out-dir", str(tmp_path / "r2")])
        for name in ("epp_d1.csv", "epp_d1.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes()

    def test_counts_cache_round_trip(self, tmp_path):
        scores = write_scores(tmp_path / "scores.csv", n_models=3)
        main(["fit", str(scores), "--dump-counts", "--out-dir", str(tmp_path / "a")])
        counts = tmp_path / "a" / "counts_d1.json"
        assert counts.exists()
        main(["fit", "--counts", str(counts), "--out-dir", str(tmp_path / "b")])
        a = json.loads((tmp_path / "a" / "epp_d1.json").read_text())
        b = json.loads((tmp_path / "b" / "epp_d1.json").read_text())
        assert a["beta"] == b["beta"]

    @pytest.mark.parametrize("variant", ["equal", "lower_is_better", "ragged"])
    def test_multiple_datasets_and_jobs(self, tmp_path, variant):
        lines = ["dataset,model,algorithm,split,score"]
        rng = np.random.default_rng(1)
        for ds in ("d1", "d2", "d3"):
            for k in range(3):
                for s in range(6):
                    if variant == "ragged" and s < k + (ds == "d2"):
                        continue  # model k misses its first k splits (k + 1 in d2)
                    lines.append(
                        f"{ds},m{k},alg,s{s},{0.5 + 0.1 * k + rng.normal(0, 0.05)!r}"
                    )
        scores = tmp_path / "scores.csv"
        scores.write_text("\n".join(lines) + "\n")
        flags = ["--lower-is-better"] if variant == "lower_is_better" else []
        rc = main(["fit", str(scores), "--jobs", "3", "--out-dir", str(tmp_path), *flags])
        assert rc == 0
        for ds in ("d1", "d2", "d3"):
            assert (tmp_path / f"epp_{ds}.csv").exists()
        # concurrency must not change any output byte
        main(["fit", str(scores), "--jobs", "1", "--out-dir", str(tmp_path / "seq"), *flags])
        for ds in ("d1", "d2", "d3"):
            for ext in ("csv", "json"):
                assert (tmp_path / f"epp_{ds}.{ext}").read_bytes() == (
                    tmp_path / "seq" / f"epp_{ds}.{ext}"
                ).read_bytes()

    def test_missing_split_warns_but_fit_proceeds(self, tmp_path, capsys):
        text = (
            "dataset,model,algorithm,split,score\n"
            "d1,a,alg,s1,0.5\nd1,a,alg,s2,0.6\nd1,b,alg,s1,0.7\n"
        )
        scores = tmp_path / "scores.csv"
        scores.write_text(text)
        rc = main(["fit", str(scores), "--out-dir", str(tmp_path)])
        assert rc == 0  # cross pairing tolerates ragged splits
        assert "missing splits" in capsys.readouterr().err
        assert (tmp_path / "epp_d1.csv").exists()

    def test_missing_splits_one_line_per_dataset(self, tmp_path, capsys):
        lines = ["dataset,model,algorithm,split,score"]
        for ds in ("d1", "d2"):
            for k in range(12):
                for s in range(3):
                    if s == 0 and k > 0 or ds == "d2" and s == 1 and k == 5:
                        continue  # d1: 11 models miss s0; d2 also m5 misses s1
                    lines.append(f"{ds},m{k:02d},alg,s{s},{0.1 * k + 0.01 * s!r}")
        scores = tmp_path / "scores.csv"
        scores.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(scores), "--out-dir", str(tmp_path)]) == 0
        missing = [l for l in capsys.readouterr().err.splitlines() if "missing splits" in l]
        assert missing == [
            "warning: dataset 'd1': 11 models missing splits (11 missing runs): "
            "m01, m02, m03, m04, m05, m06, m07, m08, m09, m10, ...",
            "warning: dataset 'd2': 11 models missing splits (12 missing runs): "
            "m01, m02, m03, m04, m05, m06, m07, m08, m09, m10, ...",
        ]

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["fit", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err


    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_colliding_output_names_exit_2(self, tmp_path, capsys, jobs):
        # 'a b' and 'a_b' both map to epp_a_b.*; neither may overwrite the other
        write_scores(tmp_path / "one.csv", dataset="a b")
        write_scores(tmp_path / "two.csv", dataset="a_b", seed=1)
        scores = tmp_path / "scores.csv"
        scores.write_text(
            (tmp_path / "one.csv").read_text()
            + "".join((tmp_path / "two.csv").read_text().splitlines(True)[1:])
        )
        out = tmp_path / "out"
        rc = main(["fit", str(scores), "--jobs", jobs, "--dump-counts", "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "'a b'" in err[0] and "'a_b'" in err[0]
        assert not out.exists()

    def test_colliding_counts_files_exit_2(self, tmp_path, capsys):
        counts = []
        for ds in ("a b", "a_b"):
            write_scores(tmp_path / "scores.csv", n_models=3, dataset=ds)
            main(["fit", str(tmp_path / "scores.csv"), "--dump-counts",
                  "--out-dir", str(tmp_path / ds)])
            counts += (tmp_path / ds).glob("counts_*.json")
        capsys.readouterr()
        rc = main(["fit", "--counts", *map(str, counts), "--jobs", "2",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "'a b'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    def test_ridge_zero_warns_once_per_separated_dataset(self, tmp_path, capsys):
        # a wins all 20 of its matches; b and c split theirs
        w = [[0, 10, 10], [0, 0, 5], [0, 5, 0]]
        n = [[0, 10, 10], [10, 0, 10], [10, 10, 0]]
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({"dataset": "d", "models": ["a", "b", "c"], "w": w, "n": n}))
        for algorithm in ("mm", "newton"):
            capsys.readouterr()
            rc = main(["fit", "--counts", str(counts), "--ridge-lambda", "0",
                       "--algorithm", algorithm, "--out-dir", str(tmp_path / algorithm)])
            assert rc == 0
            assert capsys.readouterr().err == (
                "warning: dataset 'd': 1 model won or lost every match; with "
                "--ridge-lambda 0 their scores are unbounded and depend on --algorithm\n"
            )
        main(["fit", "--counts", str(counts), "--out-dir", str(tmp_path / "ridge")])
        assert capsys.readouterr().err == ""

    def test_mm_beta_bit_identical_across_blas_threads(self, tmp_path):
        # The MM path calls no BLAS routine, so its scores keep their bits
        # whatever the BLAS thread count (the covariance may not).
        m = 400
        rng = np.random.default_rng(4)
        skill = rng.normal(0.0, 1.0, m)
        iu = np.triu_indices(m, 1)
        n_up = rng.integers(5, 40, len(iu[0])).astype(float)
        w_up = rng.binomial(n_up.astype(int), 1.0 / (1.0 + np.exp(skill[iu[1]] - skill[iu[0]])))
        w = np.zeros((m, m))
        n = np.zeros((m, m))
        n[iu] = n_up
        n.T[iu] = n_up
        w[iu] = w_up
        w.T[iu] = n_up - w_up
        counts = tmp_path / "counts.json"
        models = tuple(f"m{k:03d}" for k in range(m))
        counts.write_text(PairwiseCounts("big", models, w, n).to_json_text())
        src = str(Path(eppscore.__file__).resolve().parents[1])
        fits = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            out = tmp_path / threads
            subprocess.run(
                [sys.executable, "-m", "eppscore.cli", "fit", "--counts", str(counts),
                 "--out-dir", str(out)],
                env=env, check=True,
            )
            fits.append(json.loads((out / "epp_big.json").read_text()))
        for fit in fits:
            assert fit["converged"] and fit["rescue_steps"] == 0
        assert fits[0]["beta"] == fits[1]["beta"]


class TestMalformedFiles:
    """A bad fit or counts file exits 2 with one line naming the file."""

    @pytest.fixture()
    def fitted(self, tmp_path):
        scores = write_scores(tmp_path / "scores.csv")
        main(["fit", str(scores), "--dump-counts", "--out-dir", str(tmp_path)])
        return scores, tmp_path / "epp_d1.json", tmp_path / "counts_d1.json"

    @staticmethod
    def _one_row_covariance(obj):
        obj["covariance"] = [[0.1, 0.0, 0.0, -0.1]]

    @staticmethod
    def _short_bytes(obj):
        obj["covariance"]["base64"] = obj["covariance"]["base64"][:-32]

    @staticmethod
    def _bad_base64(obj):
        obj["covariance"]["base64"] = "@@@@"

    @staticmethod
    def _no_beta(obj):
        del obj["beta"]

    @pytest.mark.parametrize("corrupt, message", [
        ("_one_row_covariance", "covariance: shape [1, 4]"),
        ("_short_bytes", "covariance: 105 bytes do not hold shape [4, 4]"),
        ("_bad_base64", "covariance: base64 does not decode"),
        ("_no_beta", "missing key 'beta'"),
    ])
    @pytest.mark.parametrize("command", ["leaderboard", "compare", "embed", "recovery"])
    def test_corrupt_fit_file(self, fitted, tmp_path, capsys, corrupt, message, command):
        scores, fit_json, _ = fitted
        obj = json.loads(fit_json.read_text())
        getattr(self, corrupt)(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        argv = {
            "leaderboard": ["leaderboard", "--fit", str(bad), "--scores", str(scores)],
            "compare": ["compare", "--fit", str(fit_json), str(bad)],
            "embed": ["embed", "--fit", str(bad)],
            "recovery": ["recovery", "--fit", str(bad), "--truth", str(scores)],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bad}: {message}")

    def test_truncated_fit_json(self, fitted, tmp_path, capsys):
        _, fit_json, _ = fitted
        bad = tmp_path / "bad.json"
        bad.write_text(fit_json.read_text()[:200])
        capsys.readouterr()
        assert main(["compare", "--fit", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not valid JSON")

    def test_not_utf8_fit_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert main(["compare", "--fit", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("corrupt, message", [
        (lambda obj: obj["n"].update(shape=[4, 3]), "n: shape [4, 3]"),
        (lambda obj: obj.pop("w"), "missing key 'w'"),
        (lambda obj: obj["w"].update(dtype="<f4"), "w: dtype '<f4' is not '<f8'"),
    ])
    def test_corrupt_counts_file(self, fitted, tmp_path, capsys, corrupt, message):
        _, _, counts = fitted
        obj = json.loads(counts.read_text())
        corrupt(obj)
        bad = tmp_path / "bad_counts.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["fit", "--counts", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")


    def test_counts_file_breaking_ledger_identities(self, tmp_path, capsys):
        # fitted as is, this ledger ran all 10,000 iterations and exited 0
        bad = tmp_path / "bad_counts.json"
        bad.write_text(json.dumps({
            "dataset": "d", "models": ["a", "b"],
            "w": [[3, 12], [1, 0]], "n": [[5, 10], [10, 0]],
        }))
        assert main(["fit", "--counts", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: diagonal of w and n must be zero\n"
        assert not (tmp_path / "o").exists()


class TestMalformedCsvInputs:
    """A bad scores or hyperparameters CSV exits 2 with one line naming the
    file, whichever command reads it."""

    @pytest.fixture()
    def fitted(self, tmp_path):
        scores = write_scores(tmp_path / "scores.csv")
        main(["fit", str(scores), "--out-dir", str(tmp_path)])
        hp = tmp_path / "hp.csv"
        hp.write_text("model,parameter,value\n" + "".join(
            f"m{k},depth,{k + 1}\n" for k in range(4)
        ))
        return scores, tmp_path / "epp_d1.json", hp

    @staticmethod
    def _argv(command, fitted, scores=None, hp=None):
        good_scores, fit_json, good_hp = fitted
        scores, hp = scores or good_scores, hp or good_hp
        return {
            "fit": ["fit", str(scores)],
            "leaderboard": ["leaderboard", "--fit", str(fit_json), "--scores", str(scores)],
            "embed": ["embed", "--fit", str(fit_json), "--scores", str(scores)],
            "tunability": ["tunability", "--fit", str(fit_json), "--hyperparams", str(hp),
                           "--scores", str(scores)],
        }[command]

    def _run(self, argv, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize("command", ["fit", "leaderboard", "embed", "tunability"])
    @pytest.mark.parametrize("data, message", [
        (b"dataset,model,algorithm,split,score\nd1,m\xff,gbm,s1,0.5\n",
         "'utf-8' codec can't decode byte 0xff in position 40"),
        (b"dataset,model,algorithm,split,score\nd1,m0,gbm,s1,0.5\nd1,m1,gbm,s1,x\n",
         "line 3: cannot parse score 'x'"),
        (b"dataset,model,split,score\n", "line 1: expected header"),
    ], ids=["not_utf8", "bad_score", "bad_header"])
    def test_bad_scores_csv(self, fitted, tmp_path, capsys, command, data, message):
        bad = tmp_path / "bad_scores.csv"
        bad.write_bytes(data)
        err = self._run(self._argv(command, fitted, scores=bad), tmp_path, capsys)
        assert err.startswith(f"error: {bad}: {message}")

    @pytest.mark.parametrize("data, message", [
        (b"model,parameter,value\nm0,depth,1\nm\xff,depth,2\n",
         "'utf-8' codec can't decode byte 0xff in position 34"),
        (b"model,parameter,value\nm0,depth,1\nm1,depth\n", "line 3: expected 3 columns, got 2"),
    ], ids=["not_utf8", "short_row"])
    def test_bad_hyperparams_csv(self, fitted, tmp_path, capsys, data, message):
        bad = tmp_path / "bad_hp.csv"
        bad.write_bytes(data)
        err = self._run(self._argv("tunability", fitted, hp=bad), tmp_path, capsys)
        assert err.startswith(f"error: {bad}: {message}")

    @pytest.mark.parametrize("command", ["elo", "recovery"])
    def test_not_utf8_two_column_csv(self, fitted, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"winner,loser\na\xff,b\n" if command == "elo"
                        else b"model,skill\nm\xff,1.0\n")
        argv = (["elo", "--input", str(bad)] if command == "elo"
                else ["recovery", "--fit", str(fitted[1]), "--truth", str(bad)])
        err = self._run(argv, tmp_path, capsys)
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")


class TestReports:
    @pytest.fixture()
    def fitted(self, tmp_path):
        scores = write_scores(tmp_path / "scores.csv")
        main(["fit", str(scores), "--out-dir", str(tmp_path)])
        return scores, tmp_path / "epp_d1.json"

    def test_leaderboard(self, fitted, tmp_path):
        scores, fit_json = fitted
        rc = main(["leaderboard", "--fit", str(fit_json), "--scores", str(scores),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "leaderboard_d1.csv").read_text().splitlines()
        assert lines[0] == "rank,model,epp,p_vs_avg,mean_score,p_value_vs_next,stars"
        assert len(lines) == 5

    def test_leaderboard_json_format(self, fitted, tmp_path):
        scores, fit_json = fitted
        main(["leaderboard", "--fit", str(fit_json), "--scores", str(scores),
              "--format", "json", "--out-dir", str(tmp_path)])
        payload = json.loads((tmp_path / "leaderboard_d1.json").read_text())
        assert len(payload["rows"]) == 4

    def test_compare(self, fitted, tmp_path):
        _, fit_json = fitted
        rc = main(["compare", "--fit", str(fit_json), "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == "model,d1_epp,d1_p_vs_avg"

    def test_embed_emits_csv_and_svg(self, fitted, tmp_path):
        _, fit_json = fitted
        rc = main(["embed", "--fit", str(fit_json), "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "embed.csv").exists()
        svg_text = (tmp_path / "embed.svg").read_text()
        ET.fromstring(svg_text)

    def test_embed_per_model_export(self, fitted, tmp_path):
        _, fit_json = fitted
        main(["embed", "--fit", str(fit_json), "--per-model",
              "--out-dir", str(tmp_path)])
        lines = (tmp_path / "embed_models.csv").read_text().splitlines()
        assert lines[0] == "algorithm,dataset,model,epp"
        assert len(lines) == 5  # four models

    def test_tunability_requires_hyperparams_flag(self, fitted, capsys):
        _, fit_json = fitted
        with pytest.raises(SystemExit) as exc:
            main(["tunability", "--fit", str(fit_json)])
        assert exc.value.code == 2
        assert "--hyperparams" in capsys.readouterr().err

    def test_tunability_report(self, fitted, tmp_path):
        _, fit_json = fitted
        hp = tmp_path / "hp.csv"
        hp.write_text(
            "model,parameter,value\n"
            + "".join(f"m{k},depth,{k + 1}\n" for k in range(4))
        )
        rc = main(["tunability", "--fit", str(fit_json), "--hyperparams", str(hp),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "tunability.csv").read_text()
        assert text.splitlines()[0].startswith("algorithm,parameter,target")


class TestSimulateAndPipeline:
    def test_simulate_row_count(self, tmp_path):
        rc = main(["simulate", "--models", "20", "--splits", "200", "--seed", "7",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "scores.csv").read_text().splitlines()
        assert len(lines) == 1 + 20 * 200
        truth = (tmp_path / "truth.csv").read_text().splitlines()
        assert truth[0] == "model,skill"
        assert len(truth) == 21

    def test_simulate_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--models", "5", "--splits", "10"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_simulate_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            main(["simulate", "--models", "4", "--splits", "5", "--seed", "3",
                  "--out-dir", str(tmp_path / sub)])
        assert (tmp_path / "a" / "scores.csv").read_bytes() == (
            tmp_path / "b" / "scores.csv"
        ).read_bytes()

    def test_simulate_fit_recovery_pipeline(self, tmp_path):
        main(["simulate", "--models", "8", "--splits", "60", "--seed", "11",
              "--out-dir", str(tmp_path)])
        main(["fit", str(tmp_path / "scores.csv"), "--out-dir", str(tmp_path)])
        rc = main(["recovery", "--fit", str(tmp_path / "epp_synthetic.json"),
                   "--truth", str(tmp_path / "truth.csv"),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "recovery.csv").read_text().splitlines()
        assert lines[0] == "max_abs_error,rank_correlation,n_models"
        _, rho, n = lines[1].split(",")
        assert float(rho) > 0.9
        assert n == "8"


class TestElo:
    def write_matches(self, path):
        path.write_text(
            "winner,loser\na,b\nb,c\nc,a\na,b\n", encoding="utf-8"
        )
        return path

    def test_order_changes_ratings(self, tmp_path):
        matches = self.write_matches(tmp_path / "matches.csv")
        main(["elo", "--input", str(matches), "--order", "file",
              "--out-dir", str(tmp_path / "fwd")])
        main(["elo", "--input", str(matches), "--order", "reversed",
              "--out-dir", str(tmp_path / "rev")])
        fwd = (tmp_path / "fwd" / "elo_ratings.csv").read_text()
        rev = (tmp_path / "rev" / "elo_ratings.csv").read_text()
        assert fwd != rev

    def test_output_format(self, tmp_path):
        matches = self.write_matches(tmp_path / "matches.csv")
        main(["elo", "--input", str(matches), "--out-dir", str(tmp_path)])
        lines = (tmp_path / "elo_ratings.csv").read_text().splitlines()
        assert lines[0] == "player,rating"
        assert len(lines) == 4

    def test_bad_header(self, tmp_path, capsys):
        bad = tmp_path / "matches.csv"
        bad.write_text("a,b\nx,y\n")
        rc = main(["elo", "--input", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "winner,loser" in capsys.readouterr().err

    def test_short_row(self, tmp_path, capsys):
        bad = tmp_path / "matches.csv"
        bad.write_text("winner,loser\na,b\n\na\n")
        rc = main(["elo", "--input", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: line 4: expected 2 columns, got 1\n"
        assert not (tmp_path / "elo_ratings.csv").exists()


class TestRecoveryInput:
    @pytest.fixture()
    def fit_file(self, tmp_path):
        main(["simulate", "--models", "3", "--splits", "10", "--seed", "1",
              "--out-dir", str(tmp_path)])
        main(["fit", str(tmp_path / "scores.csv"), "--out-dir", str(tmp_path)])
        return tmp_path / "epp_synthetic.json"

    @pytest.mark.parametrize(
        "truth, message",
        [
            ("model,skill\nsim1,0.5\nsim2,high\n", "line 3: cannot parse skill 'high'"),
            ("model,skill\nsim1, \n", "line 2: cannot parse skill ''"),
            ("model,skill\nsim1,0.5\r\nsim2\r\n", "line 3: expected 2 columns, got 1"),
        ],
        ids=["non-numeric", "blank", "short-row"],
    )
    def test_malformed_truth_exits_2(self, fit_file, tmp_path, capsys, truth, message):
        path = tmp_path / "truth_bad.csv"
        path.write_bytes(truth.encode())
        capsys.readouterr()
        rc = main(["recovery", "--fit", str(fit_file), "--truth", str(path),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()


class TestConfigFile:
    def test_round_trip(self):
        cfg = RunConfig()
        values = parse_config_text(cfg.to_text())
        assert values["pairing"] == "cross"
        assert values["ties"] == "half"
        assert values["max_iter"] == "10000"

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown key"):
            parse_config_text("nonsense = 1\n")

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# a comment\n\npairing = paired # inline\n")
        assert values == {"pairing": "paired"}

    def test_config_file_applies_and_flags_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("pairing = paired\nties = drop\njobs = 4\n")

        class Args:
            config = str(cfg_file)
            pairing = "cross"  # flag overrides file
            ties = None
            algorithm = None
            ridge_lambda = None
            tol = None
            max_iter = None
            spread = None
            format = None
            out_dir = None
            jobs = None
            lower_is_better = None

        cfg = build_run_config(Args())
        assert cfg.pairing.value == "cross"
        assert cfg.ties.value == "drop"
        assert cfg.jobs == 4

    def test_fit_with_config_file(self, tmp_path):
        scores = write_scores(tmp_path / "scores.csv", n_models=2, n_splits=4)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"out_dir = {tmp_path / 'cfgout'}\nridge_lambda = 0.001\n")
        rc = main(["fit", str(scores), "--config", str(cfg_file)])
        assert rc == 0
        assert (tmp_path / "cfgout" / "epp_d1.csv").exists()

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "scores.csv", n_models=2, n_splits=4)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(b"\xff = 1\n")
        rc = main(["fit", str(scores), "--config", str(cfg_file), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_file}: 'utf-8' codec can't decode byte 0xff")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()
