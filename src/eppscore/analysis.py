"""Consumer-facing reports: leaderboards, win matrices, cross-dataset
comparisons, embedding points, and hyperparameter tunability tables."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AnalysisWarning, ConstantInputError, EppError, UnknownModelError, first_ids
from .inference import (
    TestResult,
    mann_whitney,
    prob_vs_average,
    spearman,
    wald_tests,
)
from .perf_table import HyperparamTable, PerformanceTable, csv_text
from .solver import EppScores
from .special import sigmoid


class SpreadKind(str, Enum):
    """Absolute-deviation statistic: deviations from the MEDIAN or the MEAN."""

    MEDIAN = "median"
    MEAN = "mean"


def _median(values: np.ndarray) -> float:
    # np.median bit for bit, without its first call's `import numpy.ma`. Like
    # np.median's sum, each middle starts from 0.0, so -0.0 comes out as 0.0.
    s = np.sort(values)
    mid = len(s) // 2
    if len(s) % 2:
        return float(0.0 + s[mid])
    return float((0.0 + s[mid - 1] + s[mid]) / 2.0)


def _spread(values: np.ndarray, kind: SpreadKind) -> float:
    if kind == SpreadKind.MEDIAN:
        return _median(np.abs(values - _median(values)))
    return float(np.mean(np.abs(values - np.mean(values))))


# ---------------------------------------------------------------------------
# Leaderboards


@dataclass
class LeaderboardRow:
    rank: int
    model_id: str
    beta: float
    prob_vs_average: float
    mean_score: float
    significance_vs_next: TestResult | None
    note: str | None = None


def leaderboard(
    scores: EppScores, table: PerformanceTable | None, top_k: int | None = None
) -> list[LeaderboardRow]:
    """Rows sorted by beta descending (ties broken by model id), annotated
    with the Wald test against the next row and with a note whenever the
    mean-raw-score ordering disagrees with the fitted ordering.

    Mean scores come from `table`, or, when it is None, from the means the
    fit recorded (``scores.mean_score``). A table without rows of one of the
    fit's models raises an :class:`EppError` that names them.
    """
    if table is not None:
        ds = scores.dataset_id
        mean_of = table.mean_scores(ds) if ds in table.datasets() else {}
        missing = [model for model in scores.models if model not in mean_of]
        if missing:
            raise EppError(
                f"dataset {ds!r}: the scores table has no rows of models {first_ids(missing)}"
            )
        means = [mean_of[model] for model in scores.models]
    elif scores.mean_score is not None:
        means = scores.mean_score.tolist()
    else:
        raise ValueError(
            f"fit of dataset {scores.dataset_id!r} records no mean scores; pass a table"
        )
    order = sorted(
        range(len(scores.models)), key=lambda k: (-scores.beta[k], scores.models[k])
    )
    score_order = sorted(order, key=lambda k: (-means[k], scores.models[k]))
    mean_rank = {k: r + 1 for r, k in enumerate(score_order)}
    vs_next = [*wald_tests(scores, order[:-1], order[1:]), None]
    rows = []
    for pos, k in enumerate(order):
        note = None
        if mean_rank[k] != pos + 1:
            note = f"mean-score rank {mean_rank[k]} differs from EPP rank {pos + 1}"
        rows.append(
            LeaderboardRow(
                rank=pos + 1,
                model_id=scores.models[k],
                beta=float(scores.beta[k]),
                prob_vs_average=prob_vs_average(float(scores.beta[k])),
                mean_score=means[k],
                significance_vs_next=vs_next[pos],
                note=note,
            )
        )
    return rows[:top_k] if top_k is not None else rows


def leaderboard_csv_text(rows: list[LeaderboardRow]) -> str:
    return csv_text(
        ("rank", "model", "epp", "p_vs_avg", "mean_score", "p_value_vs_next", "stars"),
        (
            (r.rank, r.model_id, r.beta, r.prob_vs_average, r.mean_score,
             *((None, None) if (t := r.significance_vs_next) is None else (t.p_value, t.stars)))
            for r in rows
        ),
    )


def leaderboard_json_text(rows: list[LeaderboardRow]) -> str:
    out = []
    for r in rows:
        out.append(
            {
                "rank": r.rank,
                "model": r.model_id,
                "epp": r.beta,
                "p_vs_avg": r.prob_vs_average,
                "mean_score": r.mean_score,
                "vs_next": (
                    r.significance_vs_next.to_json_dict()
                    if r.significance_vs_next
                    else None
                ),
                "note": r.note,
            }
        )
    return json.dumps({"rows": out}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Win-probability matrix


def win_matrix(scores: EppScores) -> np.ndarray:
    """Matrix of modeled win probabilities; entry (i, j) = P(i beats j)."""
    beta = scores.beta
    out = sigmoid(beta[:, None] - beta[None, :])
    np.fill_diagonal(out, 0.5)
    return out


# ---------------------------------------------------------------------------
# Cross-dataset comparison


@dataclass
class ComparisonCell:
    beta: float
    prob_vs_average: float


@dataclass
class ComparisonTable:
    """Models x datasets grid of (beta, probability vs average) cells.

    Missing (model, dataset) fits are None, never an error: the probability
    column is what stays comparable across datasets.
    """

    models: tuple[str, ...]
    datasets: tuple[str, ...]
    cells: dict[tuple[str, str], ComparisonCell]

    def cell(self, model_id: str, dataset_id: str) -> ComparisonCell | None:
        return self.cells.get((model_id, dataset_id))

    def to_csv_text(self) -> str:
        header = ["model"]
        for ds in self.datasets:
            header += [f"{ds}_epp", f"{ds}_p_vs_avg"]
        rows = []
        for model in self.models:
            row = [model]
            for ds in self.datasets:
                c = self.cell(model, ds)
                row += [None, None] if c is None else [c.beta, c.prob_vs_average]
            rows.append(row)
        return csv_text(header, rows)

    def to_json_text(self) -> str:
        obj = {
            "models": list(self.models),
            "datasets": list(self.datasets),
            "cells": [
                {
                    "model": model,
                    "dataset": ds,
                    "epp": c.beta,
                    "p_vs_avg": c.prob_vs_average,
                }
                for (model, ds), c in sorted(self.cells.items())
            ],
        }
        return json.dumps(obj, indent=2) + "\n"


def cross_dataset_compare(
    results: list[EppScores], model_ids=None
) -> ComparisonTable:
    """Line up fitted scores for the same models across datasets; a model
    id that no fit holds raises `UnknownModelError`."""
    datasets = tuple(sorted(r.dataset_id for r in results))
    seen: set[str] = set()
    for r in results:
        seen.update(r.models)
    if model_ids is None:
        models = tuple(sorted(seen))
    else:
        models = tuple(model_ids)
        unknown = [m for m in models if m not in seen]
        if unknown:
            raise UnknownModelError(
                "no fit holds the models " + ", ".join(map(repr, unknown))
            )
    cells: dict[tuple[str, str], ComparisonCell] = {}
    for r in results:
        index = {model: k for k, model in enumerate(r.models)}
        beta = r.beta.tolist()
        for model in models:
            k = index.get(model)
            if k is not None:
                cells[(model, r.dataset_id)] = ComparisonCell(beta[k], prob_vs_average(beta[k]))
    return ComparisonTable(models=models, datasets=datasets, cells=cells)


# ---------------------------------------------------------------------------
# Embedding points (average strength vs spread)


@dataclass(frozen=True)
class EmbeddingPoint:
    algorithm: str
    dataset_id: str
    avg_epp: float
    spread: float
    spread_kind: SpreadKind
    n_models: int


def embed(
    results: list[EppScores],
    algorithm_of: dict[str, str],
    spread_kind: SpreadKind = SpreadKind.MEDIAN,
) -> list[EmbeddingPoint]:
    """One point per (algorithm, dataset): mean fitted score and its spread.

    An algorithm with fewer than two models on a dataset gets spread 0 and
    an :class:`AnalysisWarning`.
    """
    points = []
    for r in sorted(results, key=lambda s: s.dataset_id):
        groups: dict[str, list[float]] = {}
        for model, b in zip(r.models, r.beta):
            try:
                alg = algorithm_of[model]
            except KeyError:
                raise KeyError(f"model {model!r} has no algorithm label") from None
            groups.setdefault(alg, []).append(float(b))
        for alg in sorted(groups):
            betas = np.array(groups[alg])
            if len(betas) < 2:
                warnings.warn(
                    f"algorithm {alg!r} has 1 model on dataset {r.dataset_id!r}; "
                    "spread set to 0",
                    AnalysisWarning,
                    stacklevel=2,
                )
                spread = 0.0
            else:
                spread = _spread(betas, spread_kind)
            points.append(
                EmbeddingPoint(
                    algorithm=alg,
                    dataset_id=r.dataset_id,
                    avg_epp=float(betas.mean()),
                    spread=spread,
                    spread_kind=spread_kind,
                    n_models=len(betas),
                )
            )
    return points


def embed_csv_text(points: list[EmbeddingPoint]) -> str:
    return csv_text(
        ("algorithm", "dataset", "avg_epp", "spread", "spread_kind", "n_models"),
        ((p.algorithm, p.dataset_id, p.avg_epp, p.spread, p.spread_kind.value, p.n_models)
         for p in points),
    )


def beta_distribution_rows(
    results: list[EppScores], algorithm_of: dict[str, str]
) -> list[tuple[str, str, str, float]]:
    """Raw (algorithm, dataset, model, score) rows behind the embedding,
    for box-plot style views of per-algorithm score distributions."""
    rows = []
    for r in sorted(results, key=lambda s: s.dataset_id):
        for model, b in zip(r.models, r.beta):
            rows.append((algorithm_of.get(model, "unknown"), r.dataset_id, model, float(b)))
    rows.sort(key=lambda t: (t[0], t[1], t[2]))
    return rows


def beta_distribution_csv_text(
    results: list[EppScores], algorithm_of: dict[str, str]
) -> str:
    return csv_text(("algorithm", "dataset", "model", "epp"),
                    beta_distribution_rows(results, algorithm_of))


def embed_json_text(points: list[EmbeddingPoint]) -> str:
    out = [
        {
            "algorithm": p.algorithm,
            "dataset": p.dataset_id,
            "avg_epp": p.avg_epp,
            "spread": p.spread,
            "spread_kind": p.spread_kind.value,
            "n_models": p.n_models,
        }
        for p in points
    ]
    return json.dumps({"points": out}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Tunability: hyperparameters vs per-model aggregates


class TunabilityTarget(str, Enum):
    AVG_EPP = "avg_epp"
    SPREAD = "spread"


@dataclass(frozen=True)
class TunabilityRow:
    algorithm: str
    parameter: str
    target: TunabilityTarget
    result: TestResult
    estimate_label: str  # "Corr" for numeric parameters, "W" for binary


def aggregate_across_datasets(
    results: list[EppScores], spread_kind: SpreadKind = SpreadKind.MEDIAN
) -> dict[str, tuple[float, float]]:
    """Per model: (mean fitted score across datasets, spread across datasets).

    A model fitted on a single dataset gets spread 0.
    """
    values: dict[str, list[float]] = {}
    for r in results:
        for model, b in zip(r.models, r.beta):
            values.setdefault(model, []).append(float(b))
    out = {}
    for model in sorted(values):
        betas = np.array(values[model])
        spread = _spread(betas, spread_kind) if len(betas) > 1 else 0.0
        out[model] = (float(betas.mean()), spread)
    return out


def tunability_report(
    results: list[EppScores],
    hyper: HyperparamTable,
    algorithm_of: dict[str, str],
    spread_kind: SpreadKind = SpreadKind.MEDIAN,
) -> list[TunabilityRow]:
    """Associate each hyperparameter with per-model average score and spread.

    Numeric parameters use Spearman correlation; two-level parameters use
    the Mann-Whitney test (U of the lexicographically first level).
    Parameters with a single distinct value are skipped with a warning;
    models no fit holds raise `UnknownModelError`.
    """
    aggregates = aggregate_across_datasets(results, spread_kind)
    unknown = sorted(m for m in hyper.models if m not in aggregates)
    if unknown:
        raise UnknownModelError(
            "hyperparameter table references models without fitted scores: "
            + ", ".join(unknown)
        )
    rows: list[TunabilityRow] = []
    for parameter in hyper.parameters:
        per_model = hyper.values(parameter)
        by_alg: dict[str, list[str]] = {}
        for model in per_model:
            by_alg.setdefault(algorithm_of.get(model, "unknown"), []).append(model)
        for alg in sorted(by_alg):
            models = sorted(by_alg[alg])
            raw = [per_model[m] for m in models]
            if len(set(map(str, raw))) < 2:
                warnings.warn(
                    f"parameter {parameter!r} of {alg!r} has a single distinct "
                    "value; skipped",
                    AnalysisWarning,
                    stacklevel=2,
                )
                continue
            for target in (TunabilityTarget.AVG_EPP, TunabilityTarget.SPREAD):
                idx = 0 if target == TunabilityTarget.AVG_EPP else 1
                response = np.array([aggregates[m][idx] for m in models])
                try:
                    if hyper.kind(parameter) == "numeric":
                        values = np.array([float(per_model[m]) for m in models])
                        result = spearman(values, response)
                        label = "Corr"
                    else:
                        levels = hyper.levels(parameter)
                        group_a = response[
                            [str(per_model[m]) == levels[0] for m in models]
                        ]
                        group_b = response[
                            [str(per_model[m]) == levels[1] for m in models]
                        ]
                        result = mann_whitney(group_a, group_b)
                        label = "W"
                except (ConstantInputError, ValueError) as exc:
                    warnings.warn(
                        f"parameter {parameter!r} of {alg!r} vs {target.value}: "
                        f"skipped ({exc})",
                        AnalysisWarning,
                        stacklevel=2,
                    )
                    continue
                rows.append(
                    TunabilityRow(
                        algorithm=alg,
                        parameter=parameter,
                        target=target,
                        result=result,
                        estimate_label=label,
                    )
                )
    rows.sort(key=lambda r: (r.algorithm, r.parameter, r.target.value))
    return rows


def tunability_csv_text(rows: list[TunabilityRow]) -> str:
    return csv_text(
        ("algorithm", "parameter", "target", "estimate_label", "estimate", "p_value", "stars"),
        ((r.algorithm, r.parameter, r.target.value, r.estimate_label, r.result.statistic,
          r.result.p_value, r.result.stars) for r in rows),
    )


def tunability_json_text(rows: list[TunabilityRow]) -> str:
    out = [
        {
            "algorithm": r.algorithm,
            "parameter": r.parameter,
            "target": r.target.value,
            "estimate_label": r.estimate_label,
            "result": r.result.to_json_dict(),
        }
        for r in rows
    ]
    return json.dumps({"rows": out}, indent=2) + "\n"

