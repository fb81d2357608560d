"""The package's public names, and what importing the package and the CLI starts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eppscore

PUBLIC_NAMES = [
    "AnalysisWarning", "ComparisonTable", "ConfigError", "ConstantInputError",
    "DegenerateVarianceError", "EloConfig", "EmbeddingPoint", "EppError",
    "EppScores", "FileFormatError", "FitAlgorithm", "FitConfig", "FitWarning",
    "HyperparamTable", "LeaderboardRow", "NoiseKind", "PairedSplitsMismatchError",
    "PairingMode", "PairwiseCounts", "PerformanceTable", "SeparationError",
    "SeparationFlag", "SpreadKind", "SyntheticSpec", "TableParseError",
    "TestMethod", "TestResult", "TiePolicy", "TunabilityRow",
    "TunabilityTarget", "UndefinedWinRateError", "UnknownModelError",
    "aggregate_across_datasets",
    "build_matches", "cross_dataset_compare", "detect_separation", "embed",
    "empirical_win_rate", "fit_epp", "gradient", "leaderboard", "log_likelihood",
    "lr_test_difference", "mann_whitney", "parse_hyperparams_csv",
    "parse_scores_csv", "prob_vs_average", "recovery_error",
    "recovery_from_truth", "sequential_elo", "simulate_scores", "spearman",
    "stars_for", "tunability_report", "two_model_closed_form", "validate",
    "wald_test_difference", "wald_test_vs_average", "win_matrix", "win_probability",
]


class TestPublicNames:
    def test_all_is_unchanged(self):
        assert len(PUBLIC_NAMES) == 60
        assert eppscore.__all__ == PUBLIC_NAMES

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_is_its_submodules_object(self, name):
        value = getattr(eppscore, name)
        assert value.__module__.startswith("eppscore.")
        assert getattr(sys.modules[value.__module__], name) is value

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from eppscore import *", namespace)
        bound = {k: v for k, v in namespace.items() if k != "__builtins__"}
        assert sorted(bound) == PUBLIC_NAMES
        assert all(bound[name] is getattr(eppscore, name) for name in PUBLIC_NAMES)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'fit'"):
            eppscore.fit
        assert not hasattr(eppscore, "nope")

    def test_submodules_still_import(self):
        from eppscore import solver

        assert solver.fit_epp is eppscore.fit_epp
        assert set(PUBLIC_NAMES) <= set(dir(eppscore))


def _probe(code: str, **env_set) -> dict:
    """Run `code` in a fresh interpreter with this checkout's package and
    OPENBLAS_NUM_THREADS unset unless given; it prints one JSON object."""
    src = str(Path(eppscore.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    env.update(env_set)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


_POOL_PROBE = (
    "import json, os, sys, {module}\n"
    "from eppscore import blas\n"
    "controls = blas._find_controls()\n"
    "print(json.dumps({{'pool': controls and controls[0](),"
    " 'env': os.environ.get('OPENBLAS_NUM_THREADS')}}))\n"
)


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


class TestStartUp:
    def test_package_import_loads_no_numpy(self):
        probe = (
            "import json, sys, eppscore\n"
            "print(json.dumps(sorted(m for m in ('numpy', 'eppscore.solver') if m in sys.modules)))"
        )
        assert _probe(probe) == []

    def test_cli_starts_openblas_with_one_thread(self):
        got = _probe(_POOL_PROBE.format(module="eppscore.cli"))
        assert got["env"] is None  # restored: nothing leaks to the caller or its children
        if got["pool"] is None:
            pytest.skip("numpy's BLAS offers no OpenBLAS thread control")
        assert got["pool"] == 1
        if _cpus() >= 2:  # control: without the CLI, OpenBLAS starts its pool
            assert _probe(_POOL_PROBE.format(module="numpy"))["pool"] >= 2

    def test_cli_keeps_an_explicit_thread_count(self):
        got = _probe(_POOL_PROBE.format(module="eppscore.cli"), OPENBLAS_NUM_THREADS="2")
        assert got["env"] == "2"
        if got["pool"] is None:
            pytest.skip("numpy's BLAS offers no OpenBLAS thread control")
        if _cpus() < 2:
            pytest.skip("OpenBLAS caps the count at the CPUs available")
        assert got["pool"] == 2

    def test_embed_and_tunability_import_no_numpy_ma(self, tmp_path):
        # np.median imports numpy.ma on its first call, 9-14 ms of a report.
        probe = (
            "import json, os, sys\n"
            "from eppscore import cli\n"
            f"os.chdir({str(tmp_path)!r})\n"
            "cli.main(['simulate', '--models', '4', '--splits', '10', '--seed', '1'])\n"
            "cli.main(['fit', 'scores.csv'])\n"
            "with open('hp.csv', 'w') as f:\n"
            "    f.write('model,parameter,value\\n' + ''.join("
            "f'm00{k},depth,{k}\\n' for k in range(4)))\n"
            "for args in (['embed'], ['embed', '--per-model'],"
            " ['tunability', '--hyperparams', 'hp.csv']):\n"
            "    assert cli.main([*args, '--fit', 'epp_synthetic.json']) == 0\n"
            "print(json.dumps('numpy.ma' in sys.modules))"
        )
        assert _probe(probe) is False
        assert (tmp_path / "tunability.csv").exists()

    def test_fit_with_jobs_imports_no_concurrent_futures(self, tmp_path):
        # `fit --jobs` runs its datasets on plain threads: concurrent.futures
        # would load logging, traceback, string and queue, 6-12 ms.
        rows = "".join(f"{ds},m{k},alg,s{s},{0.1 * k + 0.01 * (s % 3)!r}\n"
                       for ds in "ab" for k in range(4) for s in range(5))
        (tmp_path / "two.csv").write_text("dataset,model,algorithm,split,score\n" + rows)
        probe = (
            "import json, os, sys\n"
            "from eppscore import cli\n"
            f"os.chdir({str(tmp_path)!r})\n"
            "assert cli.main(['fit', 'two.csv', '--jobs', '2']) == 0\n"
            "print(json.dumps(sorted(m for m in ('concurrent.futures', 'logging')"
            " if m in sys.modules)))"
        )
        assert _probe(probe) == []
        assert (tmp_path / "epp_a.json").exists() and (tmp_path / "epp_b.json").exists()

    def test_only_simulate_elo_and_recovery_import_baselines(self, tmp_path):
        rows = "".join(f"d,m{k},alg,s{s},{0.1 * k + 0.01 * (s % 3)!r}\n"
                       for k in range(4) for s in range(5))
        (tmp_path / "one.csv").write_text("dataset,model,algorithm,split,score\n" + rows)
        probe = (
            "import json, os, sys\n"
            "from eppscore import cli\n"
            f"os.chdir({str(tmp_path)!r})\n"
            "loaded = ['eppscore.baselines' in sys.modules]\n"
            "assert cli.main(['fit', 'one.csv']) == 0\n"
            "assert cli.main(['compare', '--fit', 'epp_d.json']) == 0\n"
            "loaded.append('eppscore.baselines' in sys.modules)\n"
            "assert cli.main(['simulate', '--models', '3', '--splits', '2', '--seed', '1']) == 0\n"
            "loaded.append('eppscore.baselines' in sys.modules)\n"  # control
            "print(json.dumps(loaded))"
        )
        assert _probe(probe) == [False, False, True]
        assert (tmp_path / "compare.csv").exists()
