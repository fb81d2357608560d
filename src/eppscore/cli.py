"""Command-line interface: fit scores and emit every report from files.

Subcommands: fit, leaderboard, compare, embed, tunability, simulate, elo,
recovery. Outputs are written atomically (temp file + rename) and are
byte-identical for identical inputs and configuration.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import os
import re
import sys
import threading
import warnings
from collections import deque
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it. Fits pin one
# thread anyway (eppscore.blas), so unless the caller chose a count, load it
# with one: its worker pool, about 0.06 s of CPU per start-up on 2 CPUs, is
# then never started. The environment is restored right after, so in-process
# callers of main() and their child processes see no change.
if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import analysis, svg
from .errors import (
    AnalysisWarning,
    ConfigError,
    EppError,
    FileFormatError,
    FitWarning,
    PairedSplitsMismatchError,
    TableParseError,
    first_ids,
)
from .match_engine import PairingMode, PairwiseCounts, TiePolicy, build_matches
from .perf_table import (
    _as_text,
    csv_text,
    parse_hyperparams_csv,
    parse_scores_csv,
    read_rows,
    sha256_of,
    validate,
)
from .solver import (EppScores, FitAlgorithm, FitConfig, SeparationFlag,
                     disconnected_warning, fit_epp)


class OutputFormat(str, Enum):
    CSV = "csv"
    JSON = "json"


@dataclass
class RunConfig:
    """Full run configuration; every field round-trips through a config file.
    These defaults and `FitConfig`'s are the only statement of the run's
    defaults: config keys, flag conversion and help text are read from them."""

    pairing: PairingMode = PairingMode.CROSS
    ties: TiePolicy = TiePolicy.HALF
    fit: FitConfig = field(default_factory=FitConfig)
    spread: analysis.SpreadKind = analysis.SpreadKind.MEDIAN
    format: OutputFormat = OutputFormat.CSV
    out_dir: str = "."
    jobs: int = 1
    lower_is_better: bool = False

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def to_text(self) -> str:
        return "".join(f"{key} = {_setting_text(value)}\n" for key, value in _settings(self))


def _settings(cfg: RunConfig):
    """(key, value) for each setting of `cfg` in config-file order, with
    `FitConfig`'s fields in place of `fit`."""
    for f in fields(cfg):
        if f.name == "fit":
            yield from ((g.name, getattr(cfg.fit, g.name)) for g in fields(cfg.fit))
        else:
            yield f.name, getattr(cfg, f.name)


def _setting_text(value) -> str:
    """A setting as the config file spells it."""
    if isinstance(value, Enum):
        return value.value
    return str(value).lower() if isinstance(value, bool) else str(value)


_DEFAULTS = dict(_settings(RunConfig()))
_DEFAULT_TEXT = {key: _setting_text(value) for key, value in _DEFAULTS.items()}
_FIT_KEYS = {f.name for f in fields(FitConfig)}


def parse_config_text(text: str) -> dict:
    """Parse the `key = value` config format ('#' starts a comment)."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _DEFAULTS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config-file values, and explicit flags (flags win).

    A string value is converted by the type of the setting's default and
    each value is range-checked alone, by the dataclass that holds it; a
    file value's error names the file and the key. A setting given neither
    way, or that the subcommand does not declare (a file key it never
    reads), keeps its dataclass default.
    """
    file_values: dict = {}
    if getattr(args, "config", None):
        try:
            file_values = parse_config_text(_as_text(Path(args.config).read_bytes()))
        except (ConfigError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{args.config}: {exc}") from None

    fit_part: dict = {}
    rest: dict = {}
    for key, default in _DEFAULTS.items():
        if not hasattr(args, key):
            continue
        value, where = getattr(args, key), ""
        if value is None:
            value, where = file_values.get(key), f"{args.config}: {key}: "
        if value is None:
            continue
        try:
            if isinstance(value, str):
                value = (_parse_bool if isinstance(default, bool) else type(default))(value)
            if key in _FIT_KEYS:
                FitConfig(**{key: value})
            else:
                RunConfig(**{key: value})
        except ValueError as exc:
            raise ConfigError(f"{where}{exc}") from None
        (fit_part if key in _FIT_KEYS else rest)[key] = value
    return RunConfig(fit=FitConfig(**fit_part), **rest)


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            # The error would name the temp file, which is gone: name the output.
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _write_report(cfg: RunConfig, stem: str, to_csv, to_json, *args) -> None:
    """`<out_dir>/<stem>.csv` from `to_csv(*args)`, or `.json` from
    `to_json(*args)`, as `cfg.format` asks."""
    emit = to_csv if cfg.format == OutputFormat.CSV else to_json
    _write_atomic(Path(cfg.out_dir) / f"{stem}.{cfg.format.value}", emit(*args))


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def _parse_file(path: str, parse, data: bytes | None = None):
    """`parse` of the bytes of the file at `path`, read unless given as
    `data`; its errors, a file that is not UTF-8 included, name the file."""
    try:
        return parse(Path(path).read_bytes() if data is None else data)
    except (TableParseError, FileFormatError, UnicodeDecodeError) as exc:
        raise EppError(f"{path}: {exc}") from None


def _load_fit_files(paths) -> list[EppScores]:
    """The fits in `paths`, refused if two hold one dataset: its reports
    would be written or counted twice."""
    results = [_parse_file(p, lambda b: EppScores.from_json_text(_as_text(b))) for p in paths]
    first: dict[str, int] = {}
    for i, result in enumerate(results):
        k = first.setdefault(result.dataset_id, i)
        if k != i:
            ds = result.dataset_id
            raise EppError(f"{paths[k]} and {paths[i]} both hold a fit of dataset {ds!r}")
    return results


def _check_output_names(dataset_ids, files: str) -> None:
    """Refuse datasets whose ids map to the same output files, which the
    error names as ``files.format(name)``.

    `_safe_name` folds characters, so ids such as 'a b' and 'a_b' would both
    write epp_a_b.* and counts_a_b.json, or leaderboard_a_b.csv, the later
    one silently replacing the earlier, and with --jobs both would write the
    same temp file.
    """
    owner: dict[str, str] = {}
    for ds in dataset_ids:
        name = _safe_name(ds)
        if name in owner:
            raise EppError(
                f"datasets {owner[name]!r} and {ds!r} would both write "
                f"{files.format(name)}; rename one"
            )
        owner[name] = ds


def _algorithm_map(results: list[EppScores], scores_path: str | None) -> dict[str, str]:
    mapping = dict(_parse_file(scores_path, parse_scores_csv).algorithm_of) if scores_path else {}
    for r in results:
        for model, alg in r.algorithms.items():
            mapping.setdefault(model, alg)
    missing = sorted({m for r in results for m in r.models if m not in mapping})
    if missing:
        hint = (f"{scores_path} has no rows of them" if scores_path else
                "fits made from counts files hold no algorithm labels; --scores supplies them")
        raise EppError(f"no algorithm label for models: {first_ids(missing)}; {hint}")
    return mapping


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_fit(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    out_dir = Path(cfg.out_dir)
    if args.scores is not None and args.counts is not None:
        raise ConfigError("give a scores CSV or --counts files, not both")
    if args.counts:
        # Loaded up front: every dataset id is needed to check the file names.
        loaded = [_parse_file(p, lambda b: PairwiseCounts.from_json_text(_as_text(b)))
                  for p in args.counts]
        _check_output_names((c.dataset_id for c in loaded), "epp_{}.csv/.json")
        table = None
        datasets, ledger = range(len(loaded)), loaded.__getitem__
    else:
        if not args.scores:
            raise ConfigError("provide a scores CSV or --counts files")
        table = _parse_file(args.scores, parse_scores_csv)
        _check_output_names(table.datasets(), "epp_{}.csv/.json")
        if cfg.lower_is_better:
            table = table.negated()
        for summary in validate(table):
            for warning in summary.warnings:
                print(f"warning: {warning}", file=sys.stderr)
        datasets = table.datasets()

        def ledger(ds: str) -> PairwiseCounts | EppError:
            """The dataset's ledger, or the error that stopped its build: a
            ledger that cannot be built fails its dataset only, as a fit does."""
            try:
                return build_matches(table, ds, cfg.pairing, cfg.ties)
            except PairedSplitsMismatchError as exc:
                return exc

    def fit_one(counts: PairwiseCounts | EppError) -> list[str]:
        """Fit and write one dataset; its stderr lines: warnings, or the one
        error that stopped it. `counts` is the error instead when the
        dataset's ledger could not be built."""
        if isinstance(counts, EppError):
            return [f"error: {counts}"]
        try:
            scores = fit_epp(counts, cfg.fit)
            if table is not None:
                algorithm_of = table.algorithm_of
                scores.algorithms = {m: algorithm_of[m] for m in scores.models}
            stem = f"epp_{_safe_name(counts.dataset_id)}"
            _write_atomic(out_dir / f"{stem}.csv", scores.to_csv_text())
            _write_atomic(out_dir / f"{stem}.json", scores.to_json_text())
            if args.dump_counts:
                _write_atomic(
                    out_dir / f"counts_{_safe_name(counts.dataset_id)}.json",
                    counts.to_json_text(),
                )
        except (OSError, EppError) as exc:
            return [f"error: {exc}"]
        lines = []
        if scores.n_components > 1:  # fit_epp's FitWarning, printed here in dataset order
            lines.append(f"warning: {disconnected_warning(counts.dataset_id, scores.n_components)}")
        flagged = sum(f != SeparationFlag.NONE for f in scores.separation_flags)
        if flagged and cfg.fit.ridge_lambda == 0.0:
            lines.append(
                f"warning: dataset {counts.dataset_id!r}: {flagged} "
                f"model{'s' if flagged > 1 else ''} won or lost every match; with "
                "--ridge-lambda 0 their scores are unbounded"
            )
        if not scores.converged:
            lines.append(
                f"warning: dataset {counts.dataset_id!r} did not converge within "
                f"{cfg.fit.max_iter} iteration{'s' * (cfg.fit.max_iter != 1)}"
            )
        return lines

    # Each ledger is built here, just before its fit, and not in a worker: on
    # glibc each worker thread's malloc arena keeps the counting kernel's
    # freed temporaries, which raised the peak RSS of a 4-dataset, 47k-row
    # fit with --jobs 2 by 4.7 MB. Only fit_one holds a built ledger, so at
    # most --jobs are alive.
    if cfg.jobs > 1 and len(datasets) > 1:
        per_dataset = _fit_in_threads(fit_one, ledger, datasets, cfg.jobs)
    else:
        per_dataset = [fit_one(ledger(ds)) for ds in datasets]
    # Every dataset is fitted whatever the others do, and its lines are
    # printed here in dataset order, so neither the files written nor stderr
    # depend on --jobs; in one write, not one per line as print would make.
    lines = [line for dataset_lines in per_dataset for line in dataset_lines]
    if lines:
        sys.stderr.write("".join(f"{line}\n" for line in lines))
    return 2 if any(line.startswith("error: ") for line in lines) else 0


def _fit_in_threads(fit_one, ledger, datasets, jobs: int) -> list:
    """``[fit_one(ledger(ds)) for ds in datasets]`` on at most `jobs` worker
    threads. Each ledger is built here, on the calling thread, in dataset
    order, while at most ``jobs - 1`` others are alive. Every dataset is
    fitted whatever the others do; an exception of one is raised here once
    all have run, the first in dataset order. Plain threads: the stdlib's
    executors import `logging`, 6-12 ms of a run."""
    slots = threading.Semaphore(jobs)  # ledgers alive, the one being built included
    queued = threading.Semaphore(0)  # entries in `pending`
    pending = deque()  # (dataset index, [ledger]); then one None per worker
    results: list = [None] * len(datasets)

    def work() -> None:
        while True:
            queued.acquire()
            entry = pending.popleft()
            if entry is None:
                return
            i, box = entry
            try:
                results[i] = fit_one(box.pop())  # popped: only fit_one holds it
            except BaseException as exc:
                results[i] = exc
            finally:
                slots.release()

    workers = [threading.Thread(target=work) for _ in range(min(jobs, len(datasets)))]
    for worker in workers:
        worker.start()
    try:
        for i, ds in enumerate(datasets):
            slots.acquire()
            pending.append((i, [ledger(ds)]))
            queued.release()
    finally:
        pending.extend([None] * len(workers))
        queued.release(len(workers))
        for worker in workers:
            worker.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def _cmd_leaderboard(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    if args.top is not None and args.top < 1:
        raise ConfigError(f"top must be >= 1, got {args.top}")
    data = Path(args.scores).read_bytes()
    given = (sha256_of(data), cfg.lower_is_better)
    results = _load_fit_files(args.fit)
    _check_output_names((r.dataset_id for r in results), f"leaderboard_{{}}.{cfg.format.value}")
    table = None  # parsed on first need
    for result in results:
        source = result.source or {}
        made_from = (source.get("sha256"), source.get("lower_is_better"))
        if made_from == given and result.mean_score is not None:
            means_from = None  # the fit's recorded means are those of --scores
        else:
            if table is None:
                table = _parse_file(args.scores, parse_scores_csv, data)
                if cfg.lower_is_better:
                    table = table.negated()
            means_from = table
            if made_from[0] is not None and made_from != given:
                print(f"warning: dataset {result.dataset_id!r}: "
                      f"{_source_mismatch(made_from, given)}; "
                      "mean scores come from --scores", file=sys.stderr)
        rows = analysis.leaderboard(result, means_from, top_k=args.top)
        _write_report(cfg, f"leaderboard_{_safe_name(result.dataset_id)}",
                      analysis.leaderboard_csv_text, analysis.leaderboard_json_text, rows)
        # One write per dataset: with unbuffered stdout each print would be
        # a write of its own, and a report can note hundreds of models.
        notes = "".join(f"note: {result.dataset_id}: {row.model_id}: {row.note}\n"
                        for row in rows if row.note)
        if notes:
            sys.stdout.write(notes)
    return 0


def _source_mismatch(made_from: tuple, given: tuple[str, bool]) -> str:
    """How a fit's recorded (sha256, lower_is_better) differs from the
    leaderboard's."""
    (made_digest, made_lower), (digest, lower) = made_from, given
    if made_digest != digest:
        return (f"fit was made from scores sha256 {made_digest[:12]}, "
                f"--scores is {digest[:12]}")
    return (f"fit was made {'with' if made_lower else 'without'} --lower-is-better, "
            f"the leaderboard is run {'with' if lower else 'without'} it")


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    results = _load_fit_files(args.fit)
    model_ids = None
    if args.models:
        try:  # one CSV record, so a quoted id may hold a comma
            model_ids = next(csv.reader([args.models]))
        except csv.Error as exc:
            raise ConfigError(f"--models: {exc}") from None
    comparison = analysis.cross_dataset_compare(results, model_ids)
    _write_report(cfg, "compare", comparison.to_csv_text, comparison.to_json_text)
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    results = _load_fit_files(args.fit)
    mapping = _algorithm_map(results, args.scores)
    points = analysis.embed(results, mapping, cfg.spread)
    _write_report(cfg, "embed", analysis.embed_csv_text, analysis.embed_json_text, points)
    out = Path(cfg.out_dir)
    _write_atomic(out / "embed.svg", svg.scatter_svg(points))
    if args.per_model:
        _write_atomic(
            out / "embed_models.csv",
            analysis.beta_distribution_csv_text(results, mapping),
        )
    return 0


def _cmd_tunability(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    results = _load_fit_files(args.fit)
    mapping = _algorithm_map(results, args.scores)
    hyper = _parse_file(args.hyperparams, parse_hyperparams_csv)
    rows = analysis.tunability_report(results, hyper, mapping, cfg.spread)
    _write_report(cfg, "tunability", analysis.tunability_csv_text,
                  analysis.tunability_json_text, rows)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import baselines  # only simulate, elo and recovery import it

    cfg = build_run_config(args)
    settings = dict(n_splits=args.splits, noise=args.noise, sigma=args.sigma,
                    seed=args.seed, dataset_id=args.dataset)
    if args.skills:
        spec = baselines.SyntheticSpec(skills=args.skills.split(","), **settings)
    elif args.models is not None:
        spec = baselines.SyntheticSpec.with_linear_skills(
            args.models, args.skill_low, args.skill_high, **settings)
    else:
        raise ConfigError("need --models or an explicit --skills list")
    table = baselines.simulate_scores(spec)
    out = Path(cfg.out_dir)
    _write_atomic(out / "scores.csv", table.to_csv_text())
    _write_atomic(out / "truth.csv", csv_text(("model", "skill"), (
        (baselines.synthetic_model_id(i, spec.m), repr(skill))
        for i, skill in enumerate(spec.skills)
    )))
    return 0


def _cmd_elo(args: argparse.Namespace) -> int:
    from . import baselines

    cfg = build_run_config(args)
    rows = _parse_file(args.input, lambda data: read_rows(data, ("winner", "loser")))
    if args.order == "reversed":
        rows.reverse()
    elo_cfg = baselines.EloConfig(
        initial_rating=args.initial, k_factor=args.k_factor, scale=args.scale
    )
    try:
        ratings = baselines.sequential_elo([fields for _, fields in rows], elo_cfg)
    except baselines.SelfMatchError as exc:
        raise EppError(f"{args.input}: line {rows[exc.index][0]}: {exc.reason}") from None
    ranked = sorted(ratings, key=lambda p: (-ratings[p], p))
    _write_atomic(Path(cfg.out_dir) / "elo_ratings.csv",
                  csv_text(("player", "rating"), ((p, ratings[p]) for p in ranked)))
    return 0


def _parse_truth(data, fitted: EppScores) -> dict[str, float]:
    """model -> skill of a truth CSV: every skill a number, then each model
    one the fit holds, given once, and at least 3 of them."""
    rows = []
    for line, (model, raw) in read_rows(data, ("model", "skill")):
        try:
            rows.append((line, model, float(raw)))
        except ValueError:
            raise TableParseError(f"cannot parse skill {raw!r}", line) from None
    fitted_models = set(fitted.models)
    truth: dict[str, float] = {}
    for line, model, skill in rows:
        if model in truth:
            raise TableParseError(f"duplicate model {model!r}", line)
        if model not in fitted_models:
            raise TableParseError(
                f"model {model!r} is not in the fit of dataset {fitted.dataset_id!r}", line
            )
        truth[model] = skill
    if len(truth) < 3:
        raise TableParseError(f"need at least 3 models, got {len(truth)}")
    return truth


def _cmd_recovery(args: argparse.Namespace) -> int:
    from . import baselines

    cfg = build_run_config(args)
    (fitted,) = _load_fit_files([args.fit])
    truth = _parse_file(args.truth, lambda data: _parse_truth(data, fitted))
    max_abs, rho = baselines.recovery_from_truth(fitted, truth)
    summary = {"max_abs_error": max_abs, "rank_correlation": rho, "n_models": len(truth)}
    _write_report(cfg, "recovery", lambda: csv_text(summary.keys(), [summary.values()]),
                  lambda: json.dumps(summary, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser


# Flags that several subcommands share, each declared once.


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", dest="out_dir", default=None,
                   help=f"output directory (default {_DEFAULT_TEXT['out_dir']})")
    p.add_argument("--config", default=None,
                   help="key = value config file; flags override it")


def _report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=[f.value for f in OutputFormat], default=None,
                   help=f"report output format (default {_DEFAULT_TEXT['format']})")


def _fits_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fit", nargs="+", required=True, help="fit JSON file(s)")


def _lower_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lower-is-better", dest="lower_is_better",
                   action="store_const", const=True, default=None,
                   help="negate scores at ingest (for losses/MSE-style measures)")


def _labels_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scores", default=None,
                   help="scores CSV (fallback source of algorithm labels)")
    p.add_argument("--spread", choices=[s.value for s in analysis.SpreadKind],
                   default=None, help="median or mean absolute deviation "
                   f"(default {_DEFAULT_TEXT['spread']})")


# Each subcommand's own flags.


def _fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("scores", nargs="?", help="scores CSV (dataset,model,algorithm,split,score)")
    p.add_argument("--counts", nargs="*", default=None,
                   help="fit from cached pairwise-count JSON files instead")
    p.add_argument("--dump-counts", action="store_true",
                   help="also write counts_<dataset>.json for caching")
    p.add_argument("--pairing", choices=[m.value for m in PairingMode],
                   default=None, help="cross: all split pairs; paired: same split only")
    p.add_argument("--ties", choices=[t.value for t in TiePolicy], default=None,
                   help="half: ties count half a win each; drop: discard ties")
    p.add_argument("--algorithm", choices=[a.value for a in FitAlgorithm], default=None,
                   help=f"optimizer (default {_DEFAULT_TEXT['algorithm']})")
    p.add_argument("--ridge-lambda", dest="ridge_lambda", type=float, default=None,
                   help=f"ridge penalty (default {_DEFAULT_TEXT['ridge_lambda']})")
    p.add_argument("--tol", type=float, default=None,
                   help="convergence threshold on max score change "
                   f"(default {_DEFAULT_TEXT['tol']})")
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None,
                   help=f"iteration cap (default {_DEFAULT_TEXT['max_iter']})")
    p.add_argument("--jobs", type=int, default=None,
                   help=f"max concurrent datasets (default {_DEFAULT_TEXT['jobs']})")


def _leaderboard_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scores", required=True, help="scores CSV (for mean scores)")
    p.add_argument("--top", type=int, default=None, help="keep only the best K rows")


def _compare_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--models", default=None,
                   help='comma-separated model ids, one CSV record ("a,1",b)')


def _embed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--per-model", dest="per_model", action="store_true",
                   help="also write raw per-model scores (embed_models.csv)")


def _tunability_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hyperparams", required=True,
                   help="hyperparameter CSV (model,parameter,value)")


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    # The generator's defaults are those of SyntheticSpec and with_linear_skills.
    from . import baselines

    spec = baselines.SyntheticSpec
    linear = inspect.signature(spec.with_linear_skills).parameters
    p.add_argument("--models", type=int, default=None, help="number of models")
    p.add_argument("--splits", type=int, required=True, help="splits per model")
    p.add_argument("--seed", type=int, required=True, help="PCG64 seed")
    p.add_argument("--noise", choices=[n.value for n in baselines.NoiseKind],
                   default=spec.noise.value, help="noise kind (default %(default)s)")
    p.add_argument("--sigma", type=float, default=spec.sigma,
                   help="gaussian noise scale, unused by gumbel (default %(default)s)")
    p.add_argument("--skills", default=None, help="explicit comma-separated skills")
    p.add_argument("--skill-low", dest="skill_low", type=float,
                   default=linear["low"].default,
                   help="lowest of the equally spaced skills (default %(default)s)")
    p.add_argument("--skill-high", dest="skill_high", type=float,
                   default=linear["high"].default,
                   help="highest of the equally spaced skills (default %(default)s)")
    p.add_argument("--dataset", default=spec.dataset_id,
                   help="dataset id to emit (default %(default)s)")


def _elo_flags(p: argparse.ArgumentParser) -> None:
    # Elo's defaults are those of EloConfig.
    from . import baselines

    elo = baselines.EloConfig
    p.add_argument("--input", required=True, help="matches CSV (winner,loser)")
    p.add_argument("--order", choices=["file", "reversed"], default="file",
                   help="process matches in file order or reversed")
    p.add_argument("--initial", type=float, default=elo.initial_rating,
                   help="every player's first rating (default %(default)s)")
    p.add_argument("--k-factor", dest="k_factor", type=float, default=elo.k_factor,
                   help="largest rating change per match (default %(default)s)")
    p.add_argument("--scale", type=float, default=elo.scale,
                   help="rating gap that gives 10:1 odds (default %(default)s)")


def _recovery_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fit", required=True, help="fit JSON file")
    p.add_argument("--truth", required=True, help="truth CSV (model,skill)")


# name -> (help line, implementation, the functions adding its flags, in help order).
_COMMANDS = {
    "fit": ("fit per-dataset scores from a scores CSV", _cmd_fit,
            (_lower_flags, _common_flags, _fit_flags)),
    "leaderboard": ("ranked table per fitted dataset", _cmd_leaderboard,
                    (_fits_flags, _lower_flags, _report_flags, _common_flags,
                     _leaderboard_flags)),
    "compare": ("cross-dataset comparison table", _cmd_compare,
                (_fits_flags, _report_flags, _common_flags, _compare_flags)),
    "embed": ("per-(algorithm, dataset) map + SVG scatter", _cmd_embed,
              (_fits_flags, _labels_flags, _report_flags, _common_flags, _embed_flags)),
    "tunability": ("hyperparameter association report", _cmd_tunability,
                   (_fits_flags, _labels_flags, _report_flags, _common_flags,
                    _tunability_flags)),
    "simulate": ("synthetic scores with known skills", _cmd_simulate,
                 (_common_flags, _simulate_flags)),
    "elo": ("classical sequential Elo over a match list", _cmd_elo,
            (_common_flags, _elo_flags)),
    "recovery": ("compare a fit against known skills", _cmd_recovery,
                 (_report_flags, _common_flags, _recovery_flags)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `epp` parser with every subcommand, or with `command`'s alone:
    each help and error text of that command is the same either way."""
    parser = argparse.ArgumentParser(
        prog="epp",
        description="Elo-based predictive power: fit, rank, and compare "
        "models from per-split performance tables.",
    )
    # Built alone, a command still lists every choice in the usage line, as
    # `epp fit --bogus` prints it; the full parser leaves the metavar unset,
    # so that its errors name the argument `command`.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_line, func, flag_adders = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for add_flags in flag_adders:
            add_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Only the named command's parser is built, a fraction of the full tree's
    # cost; anything else (help, a misspelt command, a flag first) gets the
    # full tree, whose help and errors name every command.
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    with warnings.catch_warnings():
        # `fit` words fit_epp's FitWarning itself, in dataset order; every
        # other library warning prints, each time it is raised, as one line
        # that names no source file and no warning class.
        warnings.simplefilter("always", AnalysisWarning)
        warnings.simplefilter("ignore", FitWarning)
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (OSError, EppError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
