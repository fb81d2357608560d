import argparse
import base64
import csv
import inspect
import json
import os
import re
import subprocess
import sys
import threading
import time
import weakref
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import eppscore
from eppscore import (
    EloConfig,
    EppScores,
    FitAlgorithm,
    FitConfig,
    PairedSplitsMismatchError,
    PairingMode,
    PairwiseCounts,
    SpreadKind,
    SyntheticSpec,
    TiePolicy,
)
from eppscore import cli
from eppscore.cli import (
    OutputFormat,
    RunConfig,
    build_parser,
    build_run_config,
    main,
    parse_config_text,
)
from eppscore.jsonio import encode_array
from eppscore.perf_table import SCORES_HEADER, csv_text, sha256_of

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
        assert capsys.readouterr().out.startswith(f"usage: epp {subcommand} ")

    @staticmethod
    def assert_help_states(capsys, subcommand, defaults):
        with pytest.raises(SystemExit):
            main([subcommand, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for flag, default in defaults:
            assert re.search(rf"{flag} [^-]*\(default {re.escape(default)}\)", out), flag

    def test_fit_help_states_the_dataclass_defaults(self, capsys):
        fit, run = FitConfig(), RunConfig()
        self.assert_help_states(capsys, "fit", [
            ("--algorithm", fit.algorithm.value),
            ("--ridge-lambda", repr(fit.ridge_lambda)),
            ("--tol", repr(fit.tol)),
            ("--max-iter", str(fit.max_iter)),
            ("--out-dir", run.out_dir),
            ("--jobs", str(run.jobs)),
        ])

    def test_simulate_and_elo_help_state_the_dataclass_defaults(self, capsys):
        spec = SyntheticSpec(skills=(0.0, 1.0), n_splits=1)
        linear = SyntheticSpec.with_linear_skills(2, n_splits=1).skills
        self.assert_help_states(capsys, "simulate", [
            ("--noise", spec.noise.value),
            ("--sigma", repr(spec.sigma)),
            ("--skill-low", repr(linear[0])),
            ("--skill-high", repr(linear[-1])),
            ("--dataset", spec.dataset_id),
        ])
        elo = EloConfig()
        self.assert_help_states(capsys, "elo", [
            ("--initial", repr(elo.initial_rating)),
            ("--k-factor", repr(elo.k_factor)),
            ("--scale", repr(elo.scale)),
        ])

    def test_each_subcommand_takes_exactly_its_options(self):
        common = ["--out-dir", "--config"]
        reports = ["--fit", "--format", *common]
        expected = {
            "fit": ["scores", "--counts", "--dump-counts", "--pairing", "--ties",
                    "--algorithm", "--ridge-lambda", "--tol", "--max-iter",
                    "--lower-is-better", "--jobs", *common],
            "leaderboard": ["--scores", "--top", "--lower-is-better", *reports],
            "compare": ["--models", *reports],
            "embed": ["--scores", "--spread", "--per-model", *reports],
            "tunability": ["--hyperparams", "--scores", "--spread", *reports],
            "simulate": ["--models", "--splits", "--seed", "--noise", "--sigma", "--skills",
                         "--skill-low", "--skill-high", "--dataset", *common],
            "elo": ["--input", "--order", "--initial", "--k-factor", "--scale", *common],
            "recovery": ["--truth", *reports],
        }
        found = {
            name: sorted((a.option_strings or [a.dest])[0] for a in sub._actions
                         if not isinstance(a, argparse._HelpAction))
            for name, sub in _subparsers(build_parser()).choices.items()
        }
        assert found == {name: sorted(options) for name, options in expected.items()}
        assert sum(map(len, found.values())) == 62

    @pytest.mark.parametrize("argv", [
        ["compare", "--fit", "x.json", "--jobs", "2"],
        ["simulate", "--models", "3", "--splits", "2", "--seed", "1", "--format", "json"],
    ], ids=["compare-jobs", "simulate-format"])
    def test_flag_a_subcommand_does_not_read_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers


def _exit_of(capsys, parse, argv) -> tuple:
    """(exit code, stdout, stderr) of ``parse(argv)``, which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestOneCommandParser:
    """`main` builds only the named command's parser; it must read and print
    exactly as that command in the full parser does."""

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_command_alone_has_the_full_parsers_actions(self, command):
        def actions(sub):
            return [(a.option_strings, a.dest, a.default, a.choices, a.nargs, a.required,
                     a.help, a.type, a.const, a.metavar, type(a)) for a in sub._actions]

        alone = _subparsers(build_parser(command))
        full = _subparsers(build_parser()).choices[command]
        assert list(alone.choices) == [command]
        assert actions(alone.choices[command]) == actions(full)
        assert alone.choices[command].get_default("func") is full.get_default("func")

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_command_help_is_the_full_parsers(self, capsys, command):
        full = _subparsers(build_parser()).choices[command].format_help()
        assert _exit_of(capsys, main, [command, "-h"]) == (0, full, "")

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["bogus"], ["fi"], ["--out-dir", "x", "fit"], ["fit", "--bogus"],
        ["compare", "--fit", "a.json", "--nope"], ["compare", "--fit"], ["elo", "--input"],
        ["fit", "s.csv", "--pairing", "bad"],
        ["leaderboard", "--fit", "a.json", "--scores", "s.csv", "--top", "x"],
    ], ids=["none", "help", "bogus", "misspelt", "flag-first", "fit-bogus", "compare-nope",
            "compare-no-fit", "elo-no-input", "bad-pairing", "bad-top"])
    def test_argv_errors_are_the_full_parsers(self, capsys, argv):
        full = _exit_of(capsys, build_parser().parse_args, argv)
        assert _exit_of(capsys, main, argv) == full
        assert full[0] in (0, 2)

    def test_usage_lists_every_command(self, capsys):
        code, _, err = _exit_of(capsys, main, ["fit", "--bogus"])
        assert code == 2
        usage, _, message = err.partition("epp: error: ")  # the usage wraps at 80 columns
        assert " ".join(usage.split()) == "usage: epp [-h] {" + ",".join(SUBCOMMANDS) + "} ..."
        assert message == "unrecognized arguments: --bogus\n"

    def test_full_parser_errors_name_the_command_argument(self, capsys):
        err = _exit_of(capsys, main, ["bogus"])[2]
        assert "epp: error: argument command: invalid choice: 'bogus'" in err

    @pytest.mark.parametrize("argv, built", [
        (["compare", "-h"], ["compare"]),
        (["-h"], [None]),
        (["--out-dir", "x", "compare", "-h"], [None]),
    ], ids=["command-first", "help", "flag-first"])
    def test_main_builds_the_named_commands_parser_alone(self, monkeypatch, capsys, argv, built):
        calls = []

        def spy(command=None):
            calls.append(command)
            return build_parser(command)

        monkeypatch.setattr(cli, "build_parser", spy)
        with pytest.raises(SystemExit):
            main(argv)
        assert calls == built


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
        assert enc["dtype"] == "<f8" and enc["shape"] == [4, 4] and enc["triangle"] == "upper"
        values = iter(np.frombuffer(base64.b64decode(enc["base64"]), "<f8"))
        cov = np.zeros((4, 4))
        for i in range(4):  # the upper triangle, row by row
            for j in range(i, 4):
                cov[i, j] = cov[j, i] = next(values)
        assert next(values, None) is None
        loaded = EppScores.from_json_text(json_path.read_text())
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
        fit_a, fit_b = (json.loads((tmp_path / d / "epp_d1.json").read_bytes()) for d in "ab")
        # Only the provenance names another file and orientation; every
        # other value, the recorded mean scores included, is the same bits.
        source_a, source_b = fit_a.pop("source"), fit_b.pop("source")
        assert json.dumps(fit_a) == json.dumps(fit_b)
        assert source_b == {**source_a, "sha256": sha256_of(negated.read_bytes()),
                            "lower_is_better": True}
        assert source_a["sha256"] == sha256_of(scores.read_bytes())
        assert not source_a["lower_is_better"]

    def test_byte_identical_reruns(self, tmp_path):
        scores = write_scores(tmp_path / "scores.csv", n_models=3)
        main(["fit", str(scores), "--out-dir", str(tmp_path / "r1")])
        main(["fit", str(scores), "--out-dir", str(tmp_path / "r2")])
        for name in ("epp_d1.csv", "epp_d1.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes()

    @pytest.mark.parametrize("with_counts_file", [True, False], ids=["file", "no-files"])
    def test_scores_csv_and_counts_together_exit_2(self, tmp_path, capsys, with_counts_file):
        scores = write_scores(tmp_path / "scores.csv", n_models=3)
        main(["fit", str(scores), "--dump-counts", "--out-dir", str(tmp_path / "a")])
        capsys.readouterr()
        if with_counts_file:  # the CSV is never read: it is not even a table
            csv_path = tmp_path / "other.csv"
            csv_path.write_text("not,a\ntable\n")
            counts = [str(tmp_path / "a" / "counts_d1.json")]
        else:
            csv_path, counts = scores, []
        rc = main(["fit", str(csv_path), "--counts", *counts, "--out-dir", str(tmp_path / "b")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: give a scores CSV or --counts files, not both\n"
        )
        assert not (tmp_path / "b").exists()

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_output_write_exits_2_without_temp_files(self, tmp_path, capsys, jobs):
        write_scores(tmp_path / "one.csv", n_models=3, dataset="a")
        write_scores(tmp_path / "two.csv", n_models=3, dataset="b", seed=1)
        scores = tmp_path / "scores.csv"
        scores.write_text(
            (tmp_path / "one.csv").read_text()
            + "".join((tmp_path / "two.csv").read_text().splitlines(True)[1:])
        )
        out = tmp_path / "out"
        (out / "epp_a.json").mkdir(parents=True)  # no file can replace it
        rc = main(["fit", str(scores), "--jobs", jobs, "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        # The line names the output that could not be written, not the
        # temp file, which is already deleted.
        assert str(out / "epp_a.json") in err[0] and ".tmp" not in err[0]
        assert not list(out.glob("*.tmp*"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_writes_leave_the_same_files_for_any_jobs(self, tmp_path, capsys, jobs):
        # a's and c's fit files cannot be written, and bb's paired ledger
        # cannot be built, as its model m2 lacks a split; b's files still
        # are, and the errors come after every fit, in dataset order.
        rows = []
        for seed, ds in enumerate(["a", "b", "bb", "c"]):
            write_scores(tmp_path / "one.csv", n_models=3, dataset=ds, seed=seed)
            lines = (tmp_path / "one.csv").read_text().splitlines(True)[1:]
            rows += lines[:-1] if ds == "bb" else lines  # bb's last row: m2 on s19
        scores = tmp_path / "scores.csv"
        scores.write_text("dataset,model,algorithm,split,score\n" + "".join(rows))
        out = tmp_path / "out"
        for ds in "ac":
            (out / f"epp_{ds}.json").mkdir(parents=True)
        rc = main(["fit", str(scores), "--pairing", "paired", "--jobs", jobs, "--dump-counts",
                   "--out-dir", str(out)])
        assert rc == 2
        warning, *err = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: dataset 'bb': 1 model missing splits (1 missing run)")
        assert len(err) == 3 and all(line.startswith("error: ") for line in err)
        assert str(out / "epp_a.json") in err[0] and str(out / "epp_c.json") in err[2]
        assert err[1] == f"error: {PairedSplitsMismatchError('bb', ['m2'])}"
        assert sorted(p.name for p in out.iterdir()) == [
            "counts_b.json", "epp_a.csv", "epp_a.json", "epp_b.csv", "epp_b.json",
            "epp_c.csv", "epp_c.json",
        ]

    def test_ledgers_are_built_as_fits_free_them(self, tmp_path, capsys, monkeypatch):
        # Five datasets; c's paired ledger cannot be built (m2 lacks s19).
        # Each ledger is built just before its fit: while one is built, at
        # most --jobs - 1 others are alive, and the files and stderr are the
        # same for any --jobs.
        rows = []
        for seed, ds in enumerate("abcde"):
            write_scores(tmp_path / "one.csv", n_models=3, dataset=ds, seed=seed)
            lines = (tmp_path / "one.csv").read_text().splitlines(True)[1:]
            rows += lines[:-1] if ds == "c" else lines
        scores = tmp_path / "scores.csv"
        scores.write_text("dataset,model,algorithm,split,score\n" + "".join(rows))
        built, alive_at_build = [], []
        build_matches = cli.build_matches

        def spy(*args):
            assert threading.current_thread() is threading.main_thread()
            alive_at_build.append(sum(ref() is not None for ref in built))
            counts = build_matches(*args)
            built.append(weakref.ref(counts))
            return counts

        monkeypatch.setattr(cli, "build_matches", spy)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, so a late release would show
        try:
            for jobs in (1, 2, 4):
                built.clear()
                alive_at_build.clear()
                out = tmp_path / str(jobs)
                rc = main(["fit", str(scores), "--pairing", "paired", "--jobs", str(jobs),
                           "--dump-counts", "--out-dir", str(out)])
                assert rc == 2
                assert len(alive_at_build) == 5 and max(alive_at_build) < jobs, alive_at_build
                runs.append((capsys.readouterr().err,
                             {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1] == runs[2]
        err, files = runs[0]
        assert err.splitlines()[1:] == [f"error: {PairedSplitsMismatchError('c', ['m2'])}"]
        assert sorted(files) == sorted(
            f"{kind}_{ds}.{ext}" for ds in "abde"
            for kind, ext in (("counts", "json"), ("epp", "csv"), ("epp", "json"))
        )

    def test_unexpected_error_is_raised_after_every_fit(self, tmp_path, monkeypatch):
        # b's fit raises an error fit_one does not catch: a's and c's files
        # are still written, on at most --jobs worker threads, and the error
        # leaves main, as it does from a serial run.
        rows = []
        for seed, ds in enumerate("abc"):
            write_scores(tmp_path / "one.csv", n_models=3, dataset=ds, seed=seed)
            rows += (tmp_path / "one.csv").read_text().splitlines(True)[1:]
        scores = tmp_path / "scores.csv"
        scores.write_text("dataset,model,algorithm,split,score\n" + "".join(rows))
        fit_epp = cli.fit_epp
        threads = []

        def broken_b(counts, cfg):
            threads.append(threading.active_count())
            if counts.dataset_id == "b":
                raise RuntimeError("b failed")
            return fit_epp(counts, cfg)

        monkeypatch.setattr(cli, "fit_epp", broken_b)
        out = tmp_path / "out"
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^b failed$"):
            main(["fit", str(scores), "--jobs", "2", "--out-dir", str(out)])
        assert len(threads) == 3 and max(threads) <= before + 2
        assert threading.active_count() == before
        assert sorted(p.name for p in out.iterdir()) == [
            "epp_a.csv", "epp_a.json", "epp_c.csv", "epp_c.json"]

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
        w = np.array([[0, 10, 10], [0, 0, 5], [0, 5, 0]])
        counts = tmp_path / "counts.json"
        counts.write_text(PairwiseCounts("d", ("a", "b", "c"), w).to_json_text())
        for algorithm in ("mm", "newton"):
            capsys.readouterr()
            rc = main(["fit", "--counts", str(counts), "--ridge-lambda", "0",
                       "--algorithm", algorithm, "--out-dir", str(tmp_path / algorithm)])
            assert rc == 0
            assert capsys.readouterr().err == (
                "warning: dataset 'd': 1 model won or lost every match; with "
                "--ridge-lambda 0 their scores are unbounded\n"
            )
        main(["fit", "--counts", str(counts), "--out-dir", str(tmp_path / "ridge")])
        assert capsys.readouterr().err == ""

    def test_warnings_print_in_dataset_order_for_any_jobs(self, tmp_path, capsys, monkeypatch):
        # a's fit finishes last under --jobs 2, yet its warning still comes first.
        rows = []
        for seed, ds in enumerate("ab"):
            write_scores(tmp_path / "one.csv", n_models=4, dataset=ds, seed=seed)
            rows += (tmp_path / "one.csv").read_text().splitlines(True)[1:]
        scores = tmp_path / "scores.csv"
        scores.write_text("dataset,model,algorithm,split,score\n" + "".join(rows))
        fit_epp = cli.fit_epp

        def slow_a(counts, cfg):
            if counts.dataset_id == "a":
                time.sleep(0.2)
            return fit_epp(counts, cfg)

        monkeypatch.setattr(cli, "fit_epp", slow_a)
        for jobs in ("1", "2"):
            assert main(["fit", str(scores), "--max-iter", "1", "--jobs", jobs,
                         "--out-dir", str(tmp_path / jobs)]) == 0
            assert capsys.readouterr().err == "".join(
                f"warning: dataset '{ds}' did not converge within 1 iteration\n"
                for ds in "ab"
            ), jobs

    def test_newton_stops_at_max_iter(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "scores.csv")
        assert main(["fit", str(scores), "--algorithm", "newton", "--max-iter", "1",
                     "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == (
            "warning: dataset 'd1' did not converge within 1 iteration\n"
        )
        fit = json.loads((tmp_path / "epp_d1.json").read_text())
        assert (fit["converged"], fit["iterations"], fit["rescue_steps"]) == (False, 1, 0)

    def test_disconnected_graph_warnings_in_dataset_order_for_any_jobs(
        self, tmp_path, capsys, monkeypatch
    ):
        # Each ledger is two pairs that never met; a's fit finishes last
        # under --jobs 2 and 4, yet its warning still comes first.
        n = np.kron(np.eye(2), 10 * (1 - np.eye(2)))
        files = [tmp_path / f"counts_{ds}.json" for ds in "ab"]
        for ds, path in zip("ab", files):
            path.write_text(PairwiseCounts(ds, ("m0", "m1", "m2", "m3"), n / 2).to_json_text())
        fit_epp = cli.fit_epp

        def slow_a(counts, cfg):
            if counts.dataset_id == "a":
                time.sleep(0.2)
            return fit_epp(counts, cfg)

        monkeypatch.setattr(cli, "fit_epp", slow_a)
        for jobs in ("1", "2", "4"):
            assert main(["fit", "--counts", *map(str, files), "--jobs", jobs,
                         "--out-dir", str(tmp_path / jobs)]) == 0
            assert capsys.readouterr().err == "".join(
                f"warning: dataset '{ds}': comparison graph has 2 connected components; "
                "fitted separately\n" for ds in "ab"
            ), jobs

    @pytest.mark.parametrize("flag, value, message", [
        ("--ridge-lambda", "nan", "ridge_lambda must be finite and >= 0, got nan"),
        ("--ridge-lambda", "inf", "ridge_lambda must be finite and >= 0, got inf"),
        ("--tol", "inf", "tol must be finite and > 0, got inf"),
        ("--tol", "nan", "tol must be finite and > 0, got nan"),
    ], ids=["ridge-nan", "ridge-inf", "tol-inf", "tol-nan"])
    def test_non_finite_fit_setting_exits_2(self, tmp_path, capsys, flag, value, message):
        scores = write_scores(tmp_path / "scores.csv", n_models=3)
        out = tmp_path / "out"
        assert main(["fit", str(scores), flag, value, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_fit_files_bit_identical_across_blas_threads(self, tmp_path):
        # OpenBLAS splits a solve differently on 2 threads, which moves the
        # last bits of Newton's scores and of every covariance unless the
        # fit pins one thread.
        m = 400
        rng = np.random.default_rng(4)
        skill = rng.normal(0.0, 1.0, m)
        iu = np.triu_indices(m, 1)
        n_up = rng.integers(5, 40, len(iu[0])).astype(float)
        w_up = rng.binomial(n_up.astype(int), 1.0 / (1.0 + np.exp(skill[iu[1]] - skill[iu[0]])))
        w = np.zeros((m, m))
        w[iu] = w_up
        w.T[iu] = n_up - w_up
        counts = tmp_path / "counts.json"
        models = tuple(f"m{k:03d}" for k in range(m))
        counts.write_text(PairwiseCounts("big", models, w).to_json_text())
        src = str(Path(eppscore.__file__).resolve().parents[1])
        for algorithm in ("newton", "mm"):
            files = []
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
                env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
                out = tmp_path / f"{algorithm}{threads}"
                subprocess.run(
                    [sys.executable, "-m", "eppscore.cli", "fit", "--counts", str(counts),
                     "--algorithm", algorithm, "--out-dir", str(out)],
                    env=env, check=True,
                )
                files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert sorted(files[0]) == ["epp_big.csv", "epp_big.json"]
            fit = json.loads(files[0]["epp_big.json"])
            assert fit["converged"] and fit["rescue_steps"] == 0
            for name in files[0]:
                assert files[0][name] == files[1][name], (algorithm, name)


class TestMalformedFiles:
    """A bad fit or counts file exits 2 with one line naming the file."""

    @pytest.fixture()
    def fitted(self, tmp_path):
        scores = write_scores(tmp_path / "scores.csv")
        main(["fit", str(scores), "--dump-counts", "--out-dir", str(tmp_path)])
        return scores, tmp_path / "epp_d1.json", tmp_path / "counts_d1.json"

    @staticmethod
    def _one_row_covariance(obj):
        obj["covariance"] = {**encode_array(np.array([[0.1, 0.0, 0.0, -0.1]])), "triangle": "upper"}

    @staticmethod
    def _short_bytes(obj):
        obj["covariance"]["base64"] = obj["covariance"]["base64"][:-32]

    @staticmethod
    def _triangle_shape(obj):
        obj["covariance"]["shape"] = [4, 3]

    @staticmethod
    def _unknown_triangle(obj):
        obj["covariance"]["triangle"] = "lower"

    @staticmethod
    def _bad_base64(obj):
        obj["covariance"]["base64"] = "@@@@"

    @staticmethod
    def _no_beta(obj):
        del obj["beta"]

    @staticmethod
    def _dataset_not_a_string(obj):
        obj["dataset"] = 5

    @staticmethod
    def _model_listed_twice(obj):
        obj["models"][1] = "m0"

    @staticmethod
    def _converged_as_text(obj):
        obj["converged"] = "false"

    @staticmethod
    def _fractional_iterations(obj):
        obj["iterations"] = 3.7

    @staticmethod
    def _boolean_components(obj):
        obj["n_components"] = True

    @staticmethod
    def _algorithm_not_a_string(obj):
        # `embed` sorted these labels and crashed on the int among the strings
        obj["algorithms"]["m0"] = 3

    @staticmethod
    def _no_format(obj):
        del obj["format"]

    @staticmethod
    def _digest_not_a_string(obj):
        # leaderboard printed "fit was made from scores sha256 5"
        obj["source"]["sha256"] = 5

    @staticmethod
    def _orientation_not_a_boolean(obj):
        obj["source"]["lower_is_better"] = "no"

    @pytest.mark.parametrize("corrupt, message", [
        ("_one_row_covariance", "covariance: shape [1, 4]"),
        ("_short_bytes", "covariance: 57 bytes do not hold the upper triangle of shape [4, 4]"),
        ("_triangle_shape", "covariance: shape [4, 3] is not the expected [4, 4]"),
        ("_unknown_triangle", "covariance: triangle 'lower' is not 'upper'"),
        ("_bad_base64", "covariance: base64 does not decode"),
        ("_no_beta", "missing key 'beta'"),
        ("_dataset_not_a_string", "dataset: not a string"),
        ("_model_listed_twice", "models: 'm0' is listed more than once"),
        ("_converged_as_text", "converged: not a JSON boolean"),
        ("_fractional_iterations", "iterations: not a JSON integer"),
        ("_boolean_components", "n_components: not a JSON integer"),
        ("_algorithm_not_a_string", "algorithms: not a JSON object of strings"),
        ("_no_format", "format: 'epp-fit/2' expected, the file has none; "
                       "fit its scores again with epp fit"),
        ("_digest_not_a_string", "source: not a JSON object or null, whose sha256 is a "
                                 "string or null and lower_is_better a boolean or null"),
        ("_orientation_not_a_boolean", "source: not a JSON object or null, whose sha256"),
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

    # The second holds an encoded surrogate, which strict UTF-8 refuses and
    # `json.loads` of bytes would let through.
    NOT_UTF8 = [b"\xff\xfe{", b'{"dataset": "d1", "models": ["m\xed\xa0\x80"]}']

    def test_not_utf8_fit_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for data in self.NOT_UTF8:
            bad.write_bytes(data)
            assert main(["compare", "--fit", str(bad), "--out-dir", str(tmp_path / "r")]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte ")

    def test_not_utf8_counts_file(self, tmp_path, capsys):
        bad = tmp_path / "bad_counts.json"
        for data in self.NOT_UTF8:
            bad.write_bytes(data)
            assert main(["fit", "--counts", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte ")

    def test_bom_prefixed_json_and_config_files(self, fitted, tmp_path):
        # A leading UTF-8 BOM is dropped from every input file, as from a CSV.
        _, fit_json, counts = fitted
        for path in (fit_json, counts):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfformat = json\r\n")
        assert main(["compare", "--fit", str(fit_json), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "compare.json").exists()
        assert main(["fit", "--counts", str(counts), "--out-dir", str(tmp_path / "f")]) == 0
        assert (tmp_path / "f" / "epp_d1.json").exists()

    @pytest.mark.parametrize("command", ["leaderboard", "compare", "embed", "tunability"])
    def test_two_fits_of_one_dataset(self, fitted, tmp_path, capsys, command):
        # Both would fill one dataset's column, file or count with the second.
        scores, fit_json, _ = fitted
        other = tmp_path / "other"
        main(["fit", str(write_scores(tmp_path / "other.csv", seed=1)), "--out-dir", str(other)])
        hp = tmp_path / "hp.csv"
        hp.write_text("model,parameter,value\n" + "".join(f"m{k},depth,{k}\n" for k in range(4)))
        fits = ["--fit", str(fit_json), str(other / fit_json.name)]
        argv = {
            "leaderboard": ["leaderboard", *fits, "--scores", str(scores)],
            "compare": ["compare", *fits],
            "embed": ["embed", *fits],
            "tunability": ["tunability", *fits, "--hyperparams", str(hp)],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            f"error: {fit_json} and {other / fit_json.name} both hold a fit of dataset 'd1'\n"
        )
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda obj: obj.pop("format"), "format: 'epp-counts/2' expected, the file has none; "
                                        "count its scores again with epp fit --dump-counts"),
        (lambda obj: obj.pop("w"), "missing key 'w'"),
        (lambda obj: obj["w"].update(dtype="<f4"), "w: dtype '<f4' is not '<f8'"),
        (lambda obj: obj.update(dataset=5), "dataset: not a string"),
        (lambda obj: obj["models"].__setitem__(1, "m0"), "models: 'm0' is listed more than once"),
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
        bad.write_text(PairwiseCounts("d", ("a", "b"), np.array([[3, 12], [1, 0]])).to_json_text())
        assert main(["fit", "--counts", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: diagonal of w must be zero\n"
        assert not (tmp_path / "o").exists()

    def test_counts_file_with_wins_above_matches(self, tmp_path, capsys):
        bad = tmp_path / "bad_counts.json"
        bad.write_text(PairwiseCounts("d", ("a", "b"), np.array([[0, 12], [-2, 0]])).to_json_text())
        assert main(["fit", "--counts", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: w entries must be finite and >= 0\n"
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
        (b'dataset,model,algorithm,split,score\nd1,"' + b"m" * 140_000 + b'",gbm,s1,0.5\n',
         "line 2: field larger than field limit (131072)"),
        (b"dataset,model,algorithm,split,score\nd1," + b"m" * 140_000 + b",gbm,s1,0.5\n",
         "line 2: field larger than field limit (131072)"),
    ], ids=["not_utf8", "bad_score", "bad_header", "quoted_long_id", "long_id"])
    def test_bad_scores_csv(self, fitted, tmp_path, capsys, command, data, message):
        bad = tmp_path / "bad_scores.csv"
        bad.write_bytes(data)
        err = self._run(self._argv(command, fitted, scores=bad), tmp_path, capsys)
        assert err.startswith(f"error: {bad}: {message}")

    @pytest.mark.parametrize("data, message", [
        (b"model,parameter,value\nm0,depth,1\nm\xff,depth,2\n",
         "'utf-8' codec can't decode byte 0xff in position 34"),
        (b"model,parameter,value\nm0,depth,1\nm1,depth\n", "line 3: expected 3 columns, got 2"),
        (b'model,parameter,value\nm0,depth,1\nm1,"' + b"d" * 140_000 + b'",2\n',
         "line 3: field larger than field limit (131072)"),
        (b"model,parameter,value\nm0,depth,1\nm1,depth,2\nm0,depth,3\n",
         "line 4: duplicate entry for (model, parameter) = (m0, depth)\n"),
    ], ids=["not_utf8", "short_row", "long_field", "duplicate"])
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

    @pytest.mark.parametrize("command", ["elo", "recovery"])
    def test_long_field_in_two_column_csv(self, fitted, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        long = '"' + "x" * 140_000 + '"'
        bad.write_text(f"winner,loser\na,b\n{long},b\n" if command == "elo"
                       else f"model,skill\nm0,1.0\n{long},1.0\n")
        argv = (["elo", "--input", str(bad)] if command == "elo"
                else ["recovery", "--fit", str(fitted[1]), "--truth", str(bad)])
        err = self._run(argv, tmp_path, capsys)
        assert err == f"error: {bad}: line 3: field larger than field limit (131072)\n"


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

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_leaderboard_top_below_one_exits_2(self, fitted, tmp_path, capsys, top):
        scores, fit_json = fitted
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main(["leaderboard", "--fit", str(fit_json), "--scores", str(scores),
                   "--top", top, "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: top must be >= 1, got {top}\n"
        assert not out.exists()

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

    def test_embed_single_model_algorithm_warns_on_one_line(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "scores.csv", n_models=3)  # rf has m1 alone
        main(["fit", str(scores), "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["embed", "--fit", str(tmp_path / "epp_d1.json"),
                     "--out-dir", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert err == "warning: algorithm 'rf' has 1 model on dataset 'd1'; spread set to 0\n"
        assert "Warning" not in err and ".py" not in err

    def test_tunability_warns_on_one_line_each_run(self, tmp_path, capsys):
        main(["simulate", "--models", "4", "--splits", "10", "--seed", "1",
              "--out-dir", str(tmp_path)])
        main(["fit", str(tmp_path / "scores.csv"), "--out-dir", str(tmp_path)])
        hp = tmp_path / "hp.csv"
        hp.write_text("model,parameter,value\n" + "".join(f"m00{k},k,3\n" for k in range(4)))
        capsys.readouterr()
        for run in range(2):  # a warning printed once per process would miss the second
            assert main(["tunability", "--fit", str(tmp_path / "epp_synthetic.json"),
                         "--hyperparams", str(hp), "--out-dir", str(tmp_path)]) == 0
            err = capsys.readouterr().err
            assert err == "warning: parameter 'k' of 'sim' has a single distinct value; skipped\n"
            assert "Warning" not in err and ".py" not in err

    @pytest.mark.parametrize("command", ["embed", "tunability"])
    def test_fit_from_counts_needs_scores_for_labels(self, fitted, tmp_path, capsys, command):
        scores, _ = fitted
        main(["fit", str(scores), "--dump-counts", "--out-dir", str(tmp_path / "c")])
        main(["fit", "--counts", str(tmp_path / "c" / "counts_d1.json"),
              "--out-dir", str(tmp_path / "f")])
        fit = tmp_path / "f" / "epp_d1.json"
        assert json.loads(fit.read_text())["algorithms"] == {}
        hp = tmp_path / "hp.csv"
        hp.write_text("model,parameter,value\n" + "".join(f"m{k},k,{k}\n" for k in range(4)))
        argv = [command, "--fit", str(fit), "--out-dir", str(tmp_path / "r")]
        if command == "tunability":
            argv += ["--hyperparams", str(hp)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: no algorithm label for models: m0, m1, m2, m3; fits made from counts "
            "files hold no algorithm labels; --scores supplies them\n"
        )
        assert not (tmp_path / "r").exists()
        assert main([*argv, "--scores", str(scores)]) == 0

    def test_scores_without_the_models_names_itself(self, fitted, tmp_path, capsys):
        _, fit = fitted
        other = write_scores(tmp_path / "other.csv", n_models=2)
        capsys.readouterr()
        assert main(["embed", "--fit", str(fit), "--scores", str(other),
                     "--out-dir", str(tmp_path / "r")]) == 0
        obj = json.loads(fit.read_text())
        obj["algorithms"] = {}
        fit.write_text(json.dumps(obj))
        assert main(["embed", "--fit", str(fit), "--scores", str(other),
                     "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            f"error: no algorithm label for models: m2, m3; {other} has no rows of them\n"
        )

    def test_unlabelled_models_are_listed_ten_at_most(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "scores.csv", n_models=12, n_splits=3)
        main(["fit", str(scores), "--dump-counts", "--out-dir", str(tmp_path / "c")])
        main(["fit", "--counts", str(tmp_path / "c" / "counts_d1.json"),
              "--out-dir", str(tmp_path / "f")])
        capsys.readouterr()
        assert main(["embed", "--fit", str(tmp_path / "f" / "epp_d1.json"),
                     "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            "error: no algorithm label for models: m0, m1, m10, m11, m2, m3, m4, m5, m6, "
            "m7, ...; fits made from counts files hold no algorithm labels; --scores "
            "supplies them\n"
        )

    def test_leaderboard_refuses_ids_folding_to_one_file(self, tmp_path, capsys):
        # 'a b' and 'a_b' would both write leaderboard_a_b.csv
        fits = []
        for seed, ds in enumerate(("a b", "a_b")):
            scores = write_scores(tmp_path / f"{seed}.csv", dataset=ds, seed=seed)
            main(["fit", str(scores), "--out-dir", str(tmp_path / str(seed))])
            fits.append(str(tmp_path / str(seed) / "epp_a_b.json"))
        both = tmp_path / "both.csv"
        both.write_text((tmp_path / "0.csv").read_text()
                        + "".join((tmp_path / "1.csv").read_text().splitlines(True)[1:]))
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["leaderboard", "--fit", *fits, "--scores", str(both),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: datasets 'a b' and 'a_b' would both write leaderboard_a_b.csv; rename one\n"
        )
        assert not out.exists()

    def test_tunability_naming_models_no_fit_holds_exits_2(self, tmp_path, capsys):
        # The simulated fit's models are m000..m003, not sim1..sim4.
        main(["simulate", "--models", "4", "--splits", "10", "--seed", "1",
              "--out-dir", str(tmp_path)])
        main(["fit", str(tmp_path / "scores.csv"), "--out-dir", str(tmp_path)])
        hp = tmp_path / "hp.csv"
        hp.write_text("model,parameter,value\n"
                      + "".join(f"sim{k},depth,{k}\n" for k in range(1, 5)))
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main(["tunability", "--fit", str(tmp_path / "epp_synthetic.json"),
                   "--hyperparams", str(hp), "--out-dir", str(out)])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: hyperparameter table references models without fitted scores: "
            "sim1, sim2, sim3, sim4\n"
        )


class TestCovarianceDecode:
    """A fit file's covariance is checked when loaded but decoded only by
    the one report that reads it, `leaderboard`."""

    @pytest.mark.parametrize("command", ["compare", "embed", "tunability", "recovery",
                                         "leaderboard"])
    def test_only_leaderboard_decodes_the_covariance(self, tmp_path, monkeypatch, command):
        main(["simulate", "--models", "5", "--splits", "10", "--seed", "1",
              "--out-dir", str(tmp_path)])
        main(["fit", str(tmp_path / "scores.csv"), "--out-dir", str(tmp_path)])
        fit_json = tmp_path / "epp_synthetic.json"
        covariance = json.loads(fit_json.read_text())["covariance"]["base64"]
        hp = tmp_path / "hp.csv"
        hp.write_text("model,parameter,value\n" + "".join(f"m00{k},depth,{k}\n" for k in range(5)))
        decoded = []
        b64decode = base64.b64decode

        def spy(s, *args, **kwargs):
            decoded.append(s)
            return b64decode(s, *args, **kwargs)

        monkeypatch.setattr(base64, "b64decode", spy)
        extra = {
            "compare": [],
            "embed": [],
            "tunability": ["--hyperparams", str(hp)],
            "recovery": ["--truth", str(tmp_path / "truth.csv")],
            "leaderboard": ["--scores", str(tmp_path / "scores.csv")],
        }[command]
        assert main([command, "--fit", str(fit_json), *extra,
                     "--out-dir", str(tmp_path / "r")]) == 0
        assert decoded  # the spy sees the fit's other base64 values
        assert (covariance in decoded) == (command == "leaderboard")


class TestQuotedIdsRoundTrip:
    """Ids holding a comma, a quote and a space come back field for field
    from every report CSV, next to the 6-digit values of its JSON twin."""

    DATASETS = ('ds "a", one', 'ds "b", two')
    ALGORITHMS = ('gbm, "fast"', "rf x")
    MODELS = tuple(f'm{k}, "v{k}" x' for k in range(6))
    PARAMETER = 'depth, "max"'

    @staticmethod
    def write_csv(path, header, rows):
        with open(path, "w", newline="", encoding="utf-8") as f:
            csv.writer(f, lineterminator="\n").writerows([header, *rows])
        return path

    @staticmethod
    def read_csv(path):
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert all(None not in row and None not in row.values() for row in rows)
        return rows

    @pytest.fixture()
    def run(self, tmp_path):
        rng = np.random.default_rng(5)
        scores = self.write_csv(tmp_path / "scores.csv", SCORES_HEADER, [
            (ds, model, self.ALGORITHMS[k % 2], f"s {j}",
             repr(0.5 + 0.04 * k + rng.normal(0, 0.05)))
            for ds in self.DATASETS for k, model in enumerate(self.MODELS) for j in range(12)
        ])
        hp = self.write_csv(tmp_path / "hp.csv", ("model", "parameter", "value"), [
            (model, self.PARAMETER, str(k * k % 7)) for k, model in enumerate(self.MODELS)
        ])
        fits = tmp_path / "fits"
        assert main(["fit", str(scores), "--out-dir", str(fits)]) == 0
        fit_files = sorted(str(f) for f in fits.glob("*.json"))
        assert len(fit_files) == 2
        for fmt in ("csv", "json"):
            out = str(tmp_path / fmt)
            for argv in (
                ["leaderboard", "--fit", *fit_files, "--scores", str(scores)],
                ["compare", "--fit", *fit_files],
                ["embed", "--fit", *fit_files, "--per-model"],
                ["tunability", "--fit", *fit_files, "--hyperparams", str(hp)],
            ):
                assert main([*argv, "--format", fmt, "--out-dir", out]) == 0
        return tmp_path, [EppScores.from_json_text(Path(f).read_text()) for f in fit_files]

    @staticmethod
    def g(x) -> str:
        return "" if x is None else format(x, ".6g")

    def test_every_csv_reads_back_its_ids_and_values(self, run):
        tmp_path, results = run
        g = self.g
        assert sorted(r.dataset_id for r in results) == sorted(self.DATASETS)
        embed_models = []
        for r in results:
            stem = cli._safe_name(r.dataset_id)
            se = r.standard_errors()
            assert [(row["model"], row["beta"], row["se"]) for row in
                    self.read_csv(tmp_path / "fits" / f"epp_{stem}.csv")] == [
                (m, g(b), g(e)) for m, b, e in zip(r.models, r.beta, se)]
            assert set(r.models) == set(self.MODELS)
            lb = json.loads((tmp_path / "json" / f"leaderboard_{stem}.json").read_text())
            assert [tuple(row.values()) for row in
                    self.read_csv(tmp_path / "csv" / f"leaderboard_{stem}.csv")] == [
                (str(j["rank"]), j["model"], g(j["epp"]), g(j["p_vs_avg"]), g(j["mean_score"]),
                 g(j["vs_next"] and j["vs_next"]["p_value"]),
                 j["vs_next"]["stars"] if j["vs_next"] else "")
                for j in lb["rows"]]
            embed_models += [(r.algorithms[m], r.dataset_id, m, g(b))
                             for m, b in zip(r.models, r.beta)]

        cmp = json.loads((tmp_path / "json" / "compare.json").read_text())
        rows = self.read_csv(tmp_path / "csv" / "compare.csv")
        assert [row["model"] for row in rows] == cmp["models"] == sorted(self.MODELS)
        assert {(row["model"], ds, row[f"{ds}_epp"], row[f"{ds}_p_vs_avg"])
                for row in rows for ds in self.DATASETS} == {
            (c["model"], c["dataset"], g(c["epp"]), g(c["p_vs_avg"])) for c in cmp["cells"]}

        points = json.loads((tmp_path / "json" / "embed.json").read_text())["points"]
        assert [tuple(row.values()) for row in self.read_csv(tmp_path / "csv" / "embed.csv")] == [
            (p["algorithm"], p["dataset"], g(p["avg_epp"]), g(p["spread"]), p["spread_kind"],
             str(p["n_models"])) for p in points]
        assert {p["algorithm"] for p in points} == set(self.ALGORITHMS)
        assert [tuple(row.values()) for row in
                self.read_csv(tmp_path / "csv" / "embed_models.csv")] == sorted(embed_models)

        tun = json.loads((tmp_path / "json" / "tunability.json").read_text())["rows"]
        assert tun and {t["parameter"] for t in tun} == {self.PARAMETER}
        assert [tuple(row.values()) for row in
                self.read_csv(tmp_path / "csv" / "tunability.csv")] == [
            (t["algorithm"], t["parameter"], t["target"], t["estimate_label"],
             g(t["result"]["statistic"]), g(t["result"]["p_value"]), t["result"]["stars"])
            for t in tun]


    def test_compare_models_is_one_csv_record(self, run, capsys):
        tmp_path, _ = run
        fit_files = sorted(str(f) for f in (tmp_path / "fits").glob("*.json"))
        picked = [self.MODELS[3], self.MODELS[0]]
        record = csv_text(["x"], [picked]).splitlines()[1]  # '"m3, ""v3"" x",...'
        out = tmp_path / "picked"
        assert main(["compare", "--fit", *fit_files, "--models", record,
                     "--out-dir", str(out)]) == 0
        assert [row["model"] for row in self.read_csv(out / "compare.csv")] == picked
        # split on every comma, the same ids name no fitted model
        capsys.readouterr()
        assert main(["compare", "--fit", *fit_files, "--models", ",".join(picked),
                     "--out-dir", str(tmp_path / "split")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no fit holds the models 'm3'") and err.count("\n") == 1
        assert not (tmp_path / "split").exists()


class TestCarriageReturnIds:
    def test_ids_holding_cr_round_trip(self, tmp_path):
        # A fit file can carry any id, "\r" included; every CSV quotes it.
        scores = write_scores(tmp_path / "scores.csv")
        main(["fit", str(scores), "--out-dir", str(tmp_path)])
        fit = json.loads((tmp_path / "epp_d1.json").read_text())
        rename = {"m1": "m\r1", "m2": "m2\r"}
        fit["dataset"] = "d\r1"
        fit["models"] = [rename.get(m, m) for m in fit["models"]]
        fit["algorithms"] = {rename.get(m, m): a for m, a in fit["algorithms"].items()}
        fit_json = tmp_path / "cr.json"
        fit_json.write_text(json.dumps(fit))
        out = tmp_path / "out"
        for argv in (
            ["compare", "--fit", str(fit_json)],
            ["leaderboard", "--fit", str(fit_json), "--scores", str(scores)],
            ["embed", "--fit", str(fit_json), "--per-model"],
        ):
            assert main([*argv, "--out-dir", str(out)]) == 0

        def read(name):
            with open(out / name, newline="", encoding="utf-8") as f:
                return list(csv.reader(f))

        models = sorted(["m0", "m\r1", "m2\r", "m3"])
        compare = read("compare.csv")
        assert compare[0] == ["model", "d\r1_epp", "d\r1_p_vs_avg"]
        assert [row[0] for row in compare[1:]] == models
        board = read("leaderboard_" + cli._safe_name("d\r1") + ".csv")
        assert {len(row) for row in board} == {7}
        assert sorted(row[1] for row in board[1:]) == models
        per_model = read("embed_models.csv")
        assert {len(row) for row in per_model} == {4}
        assert sorted((row[1], row[2]) for row in per_model[1:]) == [("d\r1", m) for m in models]


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--models", "3", "--splits", "0", "--seed", "1"],
         "n_splits must be >= 1, got 0"),
        (["simulate", "--models", "3", "--splits", "5", "--seed", "1", "--sigma", "0"],
         "sigma must be > 0, got 0.0"),
        (["simulate", "--models", "3", "--splits", "5", "--seed", "-1"],
         "seed must be >= 0, got -1"),
        (["simulate", "--skills", "a,b", "--splits", "3", "--seed", "1"],
         "skills must be numbers: could not convert string to float: 'a'"),
        (["simulate", "--models", "1", "--splits", "3", "--seed", "1"],
         "need at least 2 models, got 1"),
        (["simulate", "--splits", "3", "--seed", "1"],
         "need --models or an explicit --skills list"),
        (["elo", "--k-factor", "-1"], "k_factor must be > 0, got -1.0"),
        (["elo", "--scale", "0"], "scale must be > 0, got 0.0"),
        (["fit"], "provide a scores CSV or --counts files"),
    ],
    ids=["splits", "sigma", "seed", "skills", "models", "no-models", "k-factor", "scale",
         "fit-no-input"],
)
def test_bad_generator_or_elo_setting_exits_2(tmp_path, capsys, argv, message):
    if argv[0] == "elo":
        (tmp_path / "matches.csv").write_text("winner,loser\na,b\n")
        argv = [*argv, "--input", str(tmp_path / "matches.csv")]
    rc = main([*argv, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


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

    def test_bom_prefixed_input(self, tmp_path):
        plain = self.write_matches(tmp_path / "matches.csv")
        bom = tmp_path / "matches_bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
        for path, out in ((plain, "plain"), (bom, "bom")):
            assert main(["elo", "--input", str(path), "--out-dir", str(tmp_path / out)]) == 0
        assert (tmp_path / "bom" / "elo_ratings.csv").read_bytes() == (
            tmp_path / "plain" / "elo_ratings.csv"
        ).read_bytes()

    def test_short_row(self, tmp_path, capsys):
        bad = tmp_path / "matches.csv"
        bad.write_text("winner,loser\na,b\n\na\n")
        rc = main(["elo", "--input", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: line 4: expected 2 columns, got 1\n"
        assert not (tmp_path / "elo_ratings.csv").exists()

    def test_long_row(self, tmp_path, capsys):
        bad = tmp_path / "matches.csv"
        bad.write_text("winner,loser\na,b\n\na,b,c\n")
        rc = main(["elo", "--input", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: line 4: expected 2 columns, got 3\n"
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
            ("model,skill\nm000,0.5,1\n", "line 2: expected 2 columns, got 3"),
            ("model,skill\nm000,0\nm001,1\nm003,2\n",
             "line 4: model 'm003' is not in the fit of dataset 'synthetic'"),
            ("model,skill\nm000,0\nm001,1\n", "need at least 3 models, got 2"),
            ("model,skill\nm000,0\nm001,1\nm002,2\nm000,3\n", "line 5: duplicate model 'm000'"),
        ],
        ids=["non-numeric", "blank", "short-row", "long-row", "unknown-model", "two-models",
             "duplicate"],
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

    def test_bom_prefixed_truth(self, fit_file, tmp_path):
        truth = tmp_path / "truth.csv"
        bom = tmp_path / "truth_bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + truth.read_bytes())
        for path, out in ((truth, "plain"), (bom, "bom")):
            rc = main(["recovery", "--fit", str(fit_file), "--truth", str(path),
                       "--out-dir", str(tmp_path / out)])
            assert rc == 0
        assert (tmp_path / "bom" / "recovery.csv").read_bytes() == (
            tmp_path / "plain" / "recovery.csv"
        ).read_bytes()


class TestConfigFile:
    def test_round_trip(self):
        cfg = RunConfig()
        values = parse_config_text(cfg.to_text())
        assert values["pairing"] == "cross"
        assert values["ties"] == "half"
        assert values["max_iter"] == "10000"

    def test_every_setting_round_trips_and_each_flag_beats_the_file(self, tmp_path):
        away = RunConfig(
            pairing=PairingMode.PAIRED,
            ties=TiePolicy.DROP,
            fit=FitConfig(algorithm=FitAlgorithm.NEWTON, ridge_lambda=0.25, tol=3e-7, max_iter=77),
            spread=SpreadKind.MEAN,
            format=OutputFormat.JSON,
            out_dir="elsewhere",
            jobs=3,
            lower_is_better=True,
        )
        default_text = parse_config_text(RunConfig().to_text())
        away_text = parse_config_text(away.to_text())
        assert all(away_text[key] != text for key, text in default_text.items())
        away_file = tmp_path / "away.cfg"
        away_file.write_text(away.to_text())
        default_file = tmp_path / "default.cfg"
        default_file.write_text(RunConfig().to_text())
        parser = build_parser()
        # Each command reads the file's keys it declares and leaves the others.
        reports = {"spread": away.spread, "format": away.format}
        assert build_run_config(parser.parse_args(["fit", "--config", str(away_file)])) == (
            replace(away, spread=RunConfig().spread, format=RunConfig().format)
        )
        embed = parser.parse_args(["embed", "--fit", "x.json", "--config", str(away_file)])
        assert build_run_config(embed) == RunConfig(out_dir=away.out_dir, **reports)
        for key, text in away_text.items():
            flag = ["--" + key.replace("_", "-")] + ([] if key == "lower_is_better" else [text])
            command = ["embed", "--fit", "x.json"] if key in ("spread", "format") else ["fit"]
            args = parser.parse_args([*command, "--config", str(default_file), *flag])
            assert parse_config_text(build_run_config(args).to_text()) == {
                **default_text, key: text
            }

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

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs, source):
        scores = write_scores(tmp_path / "scores.csv", n_models=2, n_splits=4)
        out = tmp_path / "o"
        argv = ["fit", str(scores), "--out-dir", str(out)]
        if source == "flag":
            argv += ["--jobs", jobs]
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"jobs = {jobs}\n")
            argv += ["--config", str(cfg_file)]
        assert main(argv) == 2
        where = "" if source == "flag" else f"{tmp_path / 'run.cfg'}: jobs: "
        assert capsys.readouterr().err == f"error: {where}jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("tol = -1", "tol: tol must be finite and > 0, got -1.0"),
        ("ridge_lambda = nan", "ridge_lambda: ridge_lambda must be finite and >= 0, got nan"),
        ("max_iter = 0", "max_iter: max_iter must be >= 1, got 0"),
    ], ids=["tol", "ridge_lambda", "max_iter"])
    def test_file_value_out_of_range_names_the_file_and_key(self, tmp_path, capsys,
                                                             line, message):
        scores = write_scores(tmp_path / "scores.csv", n_models=2, n_splits=4)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{line}\n")
        out = tmp_path / "o"
        assert main(["fit", str(scores), "--config", str(cfg_file), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg_file}: {message}\n"
        assert not out.exists()

    def test_file_key_a_command_does_not_read_is_not_checked(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "scores.csv", n_models=2, n_splits=4)
        assert main(["fit", str(scores), "--out-dir", str(tmp_path)]) == 0
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("jobs = 0\n")
        argv = ["--config", str(cfg_file), "--out-dir", str(tmp_path / "o")]
        assert main(["compare", "--fit", str(tmp_path / "epp_d1.json"), *argv]) == 0
        assert (tmp_path / "o" / "compare.csv").exists()
        capsys.readouterr()
        assert main(["fit", str(scores), *argv]) == 2
        assert capsys.readouterr().err == f"error: {cfg_file}: jobs: jobs must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_unknown_file_key_exits_2_for_every_command(self, tmp_path, capsys, command):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("nonsense = 1\n")
        missing = str(tmp_path / "missing")
        required = {
            "fit": [missing],
            "leaderboard": ["--fit", missing, "--scores", missing],
            "tunability": ["--fit", missing, "--hyperparams", missing],
            "simulate": ["--models", "3", "--splits", "2", "--seed", "1"],
            "elo": ["--input", missing],
            "recovery": ["--fit", missing, "--truth", missing],
        }.get(command, ["--fit", missing])
        out = tmp_path / "out"
        assert main([command, *required, "--config", str(cfg_file), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_file}: config line 1: unknown key 'nonsense'\n"
        )
        assert not out.exists()

    def test_each_command_declares_every_setting_it_reads(self):
        """A setting a command does not declare keeps its default whatever
        the config file says, so a command may read only declared ones."""
        fit_keys = {f.name for f in fields(FitConfig)}
        for name, sub in _subparsers(build_parser()).choices.items():
            source = inspect.getsource(sub.get_default("func"))
            read = set(re.findall(r"\bcfg\.(?:fit\.)?(\w+)", source))
            if "fit" in read:  # the whole FitConfig is handed on
                read = read - {"fit"} | fit_keys
            if "_write_report(cfg" in source:
                read |= {"format", "out_dir"}
            declared = {a.dest for a in sub._actions}
            assert read and read <= declared, (name, read - declared)

    @pytest.mark.parametrize("line, message", [
        ("jobs = two", "jobs: invalid literal for int() with base 10: 'two'"),
        ("lower_is_better = maybe", "lower_is_better: expected a boolean, got 'maybe'"),
        ("pairing = both", "pairing: 'both' is not a valid PairingMode"),
        ("# settings\njobs 2", "config line 2: expected 'key = value'"),
    ], ids=["int", "bool", "enum", "no-equals"])
    def test_bad_config_line_names_file_and_key(self, tmp_path, capsys, line, message):
        scores = write_scores(tmp_path / "scores.csv", n_models=2, n_splits=4)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n")
        out = tmp_path / "o"
        assert main(["fit", str(scores), "--config", str(cfg_file), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg_file}: {message}\n"
        assert not out.exists()

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
