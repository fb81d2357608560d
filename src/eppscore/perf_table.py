"""Long-format performance tables: parsing, validation, and indexing.

The canonical input is a tidy CSV with header ``dataset,model,algorithm,
split,score`` holding one performance value per (dataset, model, split).
A JSON mirror with the same field names is supported for both directions.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import TableParseError

SCORES_HEADER = ("dataset", "model", "algorithm", "split", "score")
HYPERPARAMS_HEADER = ("model", "parameter", "value")


@dataclass(frozen=True, order=True)
class ScoreRecord:
    """One performance observation: a model's score on one train/test split."""

    dataset_id: str
    model_id: str
    algorithm: str
    split_id: str
    score: float


class PerformanceTable:
    """Immutable collection of :class:`ScoreRecord`, indexed for lookups.

    The index maps dataset -> model -> split -> score. Record order does not
    affect semantics; duplicated (dataset, model, split) triples are rejected.
    """

    def __init__(self, records):
        recs = tuple(records)
        index: dict[str, dict[str, dict[str, float]]] = {}
        algorithm_of: dict[str, str] = {}
        for rec in recs:
            if not math.isfinite(rec.score):
                raise TableParseError(
                    f"non-finite score {rec.score!r} for "
                    f"({rec.dataset_id}, {rec.model_id}, {rec.split_id})"
                )
            prev_alg = algorithm_of.setdefault(rec.model_id, rec.algorithm)
            if prev_alg != rec.algorithm:
                raise TableParseError(
                    f"model {rec.model_id!r} labeled with two algorithms: "
                    f"{prev_alg!r} and {rec.algorithm!r}"
                )
            by_model = index.setdefault(rec.dataset_id, {})
            by_split = by_model.setdefault(rec.model_id, {})
            if rec.split_id in by_split:
                raise TableParseError(
                    "duplicate record for (dataset, model, split) = "
                    f"({rec.dataset_id}, {rec.model_id}, {rec.split_id})"
                )
            by_split[rec.split_id] = rec.score
        self._records = recs
        self._index = index
        self._algorithm_of = algorithm_of

    @property
    def records(self) -> tuple[ScoreRecord, ...]:
        return self._records

    @property
    def index(self):
        return self._index

    @property
    def algorithm_of(self) -> dict[str, str]:
        """Mapping model id -> algorithm label."""
        return dict(self._algorithm_of)

    def datasets(self) -> list[str]:
        return sorted(self._index)

    def models(self, dataset_id: str) -> list[str]:
        return sorted(self._index[dataset_id])

    def splits(self, dataset_id: str, model_id: str) -> dict[str, float]:
        return dict(self._index[dataset_id][model_id])

    def score(self, dataset_id: str, model_id: str, split_id: str) -> float:
        return self._index[dataset_id][model_id][split_id]

    def mean_score(self, dataset_id: str, model_id: str) -> float:
        vals = self._index[dataset_id][model_id]
        return sum(vals.values()) / len(vals)

    def negated(self) -> "PerformanceTable":
        """Table with every score negated (lower-is-better measures)."""
        return PerformanceTable(
            ScoreRecord(r.dataset_id, r.model_id, r.algorithm, r.split_id, -r.score)
            for r in self._records
        )

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PerformanceTable):
            return NotImplemented
        return self._index == other._index

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SCORES_HEADER)
        for r in self._records:
            writer.writerow(
                [r.dataset_id, r.model_id, r.algorithm, r.split_id, repr(r.score)]
            )
        return buf.getvalue()

    def to_json_text(self) -> str:
        rows = [
            {
                "dataset": r.dataset_id,
                "model": r.model_id,
                "algorithm": r.algorithm,
                "split": r.split_id,
                "score": r.score,
            }
            for r in self._records
        ]
        return json.dumps({"records": rows}, indent=2) + "\n"


def _as_text(data) -> str:
    if isinstance(data, bytes):
        text = data.decode("utf-8")
    else:
        text = data
    # Normalize platform line endings; csv handles the rest.
    return text.replace("\r\n", "\n").replace("\r", "\n").lstrip("﻿")


def _parse_score_field(raw: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise TableParseError(f"cannot parse score {raw!r}", line) from None
    if not math.isfinite(value):
        raise TableParseError(f"non-finite score {raw!r}", line)
    return value


def parse_scores_csv(data) -> PerformanceTable:
    """Parse a scores CSV (str or UTF-8 bytes) into a :class:`PerformanceTable`.

    Raises :class:`TableParseError` with a 1-based line number for malformed
    rows, unparsable scores, and duplicated (dataset, model, split) triples.
    """
    text = _as_text(data)
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise TableParseError("empty input: missing header", 1) from None
    if tuple(h.strip() for h in header) != SCORES_HEADER:
        raise TableParseError(
            f"expected header {','.join(SCORES_HEADER)!r}, got {','.join(header)!r}", 1
        )
    records = []
    seen: set[tuple[str, str, str]] = set()
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != 5:
            raise TableParseError(f"expected 5 columns, got {len(row)}", line)
        dataset_id, model_id, algorithm, split_id = (f.strip() for f in row[:4])
        score = _parse_score_field(row[4].strip(), line)
        key = (dataset_id, model_id, split_id)
        if key in seen:
            raise TableParseError(
                f"duplicate record for (dataset, model, split) = {key}", line
            )
        seen.add(key)
        records.append(ScoreRecord(dataset_id, model_id, algorithm, split_id, score))
    return PerformanceTable(records)


def parse_scores_json(data) -> PerformanceTable:
    """Parse the JSON mirror of the scores CSV."""
    obj = json.loads(_as_text(data))
    records = []
    for i, row in enumerate(obj["records"]):
        try:
            records.append(
                ScoreRecord(
                    str(row["dataset"]),
                    str(row["model"]),
                    str(row["algorithm"]),
                    str(row["split"]),
                    float(row["score"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TableParseError(f"bad record #{i}: {exc}") from None
    return PerformanceTable(records)


def _missing_splits_warning(ds: str, model: str, absent: tuple[str, ...]) -> str:
    return f"dataset {ds!r}: model {model!r} missing splits {', '.join(absent)}"


@dataclass
class DatasetValidation:
    """Per-dataset summary produced by :func:`validate`."""

    dataset_id: str
    n_models: int
    split_ids: tuple[str, ...]
    missing_splits: dict[str, tuple[str, ...]] = field(default_factory=dict)
    constant_models: tuple[str, ...] = ()
    exact_tie_pairs: int = 0
    warnings: tuple[str, ...] = ()

    def folded_warnings(self) -> list[str]:
        """`warnings` with the per-model missing-split lines folded into one
        line: the number of models, of missing runs, and the first 10 ids."""
        if not self.missing_splits:
            return list(self.warnings)
        per_model = {
            _missing_splits_warning(self.dataset_id, model, absent)
            for model, absent in self.missing_splits.items()
        }
        models = list(self.missing_splits)
        runs = sum(len(absent) for absent in self.missing_splits.values())
        shown = ", ".join(models[:10]) + (", ..." if len(models) > 10 else "")
        folded = (
            f"dataset {self.dataset_id!r}: {len(models)} models missing splits "
            f"({runs} missing runs): {shown}"
        )
        return [folded] + [w for w in self.warnings if w not in per_model]


@dataclass
class ValidationReport:
    datasets: tuple[DatasetValidation, ...]

    @property
    def warnings(self) -> list[str]:
        out = []
        for ds in self.datasets:
            out.extend(ds.warnings)
        return out

    @property
    def ok(self) -> bool:
        return not self.warnings


def validate(table: PerformanceTable) -> ValidationReport:
    """Report-only validation: split coverage, constant models, exact ties."""
    summaries = []
    for ds in table.datasets():
        by_model = table.index[ds]
        all_splits: set[str] = set()
        for splits in by_model.values():
            all_splits.update(splits)
        split_ids = tuple(sorted(all_splits))
        warnings: list[str] = []
        missing: dict[str, tuple[str, ...]] = {}
        constant: list[str] = []
        score_counter: Counter[float] = Counter()
        within_model_pairs = 0
        for model in sorted(by_model):
            splits = by_model[model]
            absent = tuple(sorted(all_splits - set(splits)))
            if absent:
                missing[model] = absent
                warnings.append(_missing_splits_warning(ds, model, absent))
            if len(set(splits.values())) == 1 and len(splits) > 1:
                constant.append(model)
                warnings.append(
                    f"dataset {ds!r}: model {model!r} has a constant score "
                    f"across {len(splits)} splits"
                )
            score_counter.update(splits.values())
            per_model = Counter(splits.values())
            within_model_pairs += sum(
                c * (c - 1) // 2 for c in per_model.values() if c > 1
            )
        # Bit-identical scores on different models are potential tie matches;
        # reported but never modified here (same-model duplicates are not,
        # since a model never plays itself).
        all_pairs = sum(c * (c - 1) // 2 for c in score_counter.values() if c > 1)
        tie_pairs = all_pairs - within_model_pairs
        if tie_pairs:
            warnings.append(
                f"dataset {ds!r}: {tie_pairs} pairs of exactly equal scores "
                "(potential ties)"
            )
        summaries.append(
            DatasetValidation(
                dataset_id=ds,
                n_models=len(by_model),
                split_ids=split_ids,
                missing_splits=missing,
                constant_models=tuple(constant),
                exact_tie_pairs=tie_pairs,
                warnings=tuple(warnings),
            )
        )
    return ValidationReport(datasets=tuple(summaries))


class HyperparamTable:
    """Hyperparameter values per model: numeric or two-level categorical.

    A parameter must be consistently numeric or consistently categorical
    across models; categorical parameters may have at most two levels.
    """

    def __init__(self, entries):
        values: dict[str, dict[str, float | str]] = {}
        kinds: dict[str, str] = {}
        for model_id, parameter, value in entries:
            per_param = values.setdefault(parameter, {})
            if model_id in per_param:
                raise TableParseError(
                    f"duplicate entry for (model, parameter) = "
                    f"({model_id}, {parameter})"
                )
            kind = "numeric" if isinstance(value, float) else "categorical"
            prev = kinds.setdefault(parameter, kind)
            if prev != kind:
                raise TableParseError(
                    f"parameter {parameter!r} mixes numeric and categorical values"
                )
            per_param[model_id] = value
        for parameter, per_param in values.items():
            if kinds[parameter] == "categorical":
                levels = sorted({str(v) for v in per_param.values()})
                if len(levels) > 2:
                    raise TableParseError(
                        f"categorical parameter {parameter!r} has "
                        f"{len(levels)} levels; at most two are supported"
                    )
        self._values = values
        self._kinds = kinds

    @property
    def parameters(self) -> list[str]:
        return sorted(self._values)

    @property
    def models(self) -> set[str]:
        out: set[str] = set()
        for per_param in self._values.values():
            out.update(per_param)
        return out

    def kind(self, parameter: str) -> str:
        """'numeric' or 'categorical'."""
        return self._kinds[parameter]

    def values(self, parameter: str) -> dict[str, float | str]:
        return dict(self._values[parameter])

    def levels(self, parameter: str) -> list[str]:
        """Sorted categorical levels of a parameter."""
        if self._kinds[parameter] != "categorical":
            raise ValueError(f"parameter {parameter!r} is numeric")
        return sorted({str(v) for v in self._values[parameter].values()})

    def unknown_models(self, table: PerformanceTable) -> set[str]:
        """Models referenced here that never appear in `table`."""
        known = set(table.algorithm_of)
        return {m for m in self.models if m not in known}

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(HYPERPARAMS_HEADER)
        for parameter in self.parameters:
            per_param = self._values[parameter]
            for model in sorted(per_param):
                value = per_param[model]
                writer.writerow(
                    [model, parameter, repr(value) if isinstance(value, float) else value]
                )
        return buf.getvalue()

    def to_json_text(self) -> str:
        rows = []
        for parameter in self.parameters:
            per_param = self._values[parameter]
            for model in sorted(per_param):
                rows.append(
                    {"model": model, "parameter": parameter, "value": per_param[model]}
                )
        return json.dumps({"entries": rows}, indent=2) + "\n"


def _parse_hyperparam_value(raw: str) -> float | str:
    try:
        value = float(raw)
    except ValueError:
        return raw
    return value if math.isfinite(value) else raw


def parse_hyperparams_json(data) -> HyperparamTable:
    """Parse the JSON mirror of the hyperparameter CSV."""
    obj = json.loads(_as_text(data))
    entries = []
    for i, row in enumerate(obj["entries"]):
        try:
            value = row["value"]
            if isinstance(value, bool):
                value = str(value)
            elif isinstance(value, (int, float)):
                value = float(value)
            else:
                value = _parse_hyperparam_value(str(value))
            entries.append((str(row["model"]), str(row["parameter"]), value))
        except (KeyError, TypeError) as exc:
            raise TableParseError(f"bad entry #{i}: {exc}") from None
    return HyperparamTable(entries)


def parse_hyperparams_csv(data) -> HyperparamTable:
    """Parse a hyperparameter CSV with header ``model,parameter,value``."""
    text = _as_text(data)
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise TableParseError("empty input: missing header", 1) from None
    if tuple(h.strip() for h in header) != HYPERPARAMS_HEADER:
        raise TableParseError(
            f"expected header {','.join(HYPERPARAMS_HEADER)!r}, "
            f"got {','.join(header)!r}",
            1,
        )
    entries = []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != 3:
            raise TableParseError(f"expected 3 columns, got {len(row)}", line)
        model_id, parameter, raw = (f.strip() for f in row)
        entries.append((model_id, parameter, _parse_hyperparam_value(raw)))
    return HyperparamTable(entries)
