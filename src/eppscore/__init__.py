"""Elo-based predictive power (EPP) scores for machine-learning models.

Scores are fitted by maximum likelihood on pairwise match outcomes built
from per-split performance tables; differences of scores are log-odds of
one model outscoring another, and sigmoid(score) is the probability of
beating an average model, which is comparable across datasets.

The public names below are exported lazily (PEP 562): `import eppscore`
loads no submodule and not numpy, and the first use of a name imports its
submodule and caches the name here. So `eppscore.cli` can choose how numpy
starts before anything imports it (see `eppscore.blas`).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "ComparisonTable", "EmbeddingPoint", "LeaderboardRow", "SpreadKind",
        "TunabilityRow", "TunabilityTarget", "aggregate_across_datasets",
        "cross_dataset_compare", "embed", "leaderboard", "tunability_report",
        "win_matrix",
    ),
    "baselines": (
        "EloConfig", "NoiseKind", "SyntheticSpec", "recovery_error",
        "recovery_from_truth", "sequential_elo", "simulate_scores",
    ),
    "errors": (
        "AnalysisWarning", "ConfigError", "ConstantInputError",
        "DegenerateVarianceError", "EppError", "FileFormatError", "FitWarning",
        "PairedSplitsMismatchError", "SeparationError", "TableParseError",
        "UndefinedWinRateError", "UnknownModelError",
    ),
    "inference": (
        "TestMethod", "TestResult", "lr_test_difference", "mann_whitney",
        "prob_vs_average", "spearman", "stars_for", "wald_test_difference",
        "wald_test_vs_average", "win_probability",
    ),
    "match_engine": (
        "PairingMode", "PairwiseCounts", "TiePolicy", "build_matches",
        "empirical_win_rate",
    ),
    "perf_table": (
        "HyperparamTable", "PerformanceTable", "parse_hyperparams_csv",
        "parse_scores_csv", "validate",
    ),
    "solver": (
        "EppScores", "FitAlgorithm", "FitConfig", "SeparationFlag",
        "detect_separation", "fit_epp", "gradient", "log_likelihood",
        "two_model_closed_form",
    ),
}
_SUBMODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    try:
        submodule = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
