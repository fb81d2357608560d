"""Command-line interface: fit scores and emit every report from files.

Subcommands: fit, leaderboard, compare, embed, tunability, simulate, elo,
recovery. Outputs are written atomically (temp file + rename) and are
byte-identical for identical inputs and configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import analysis, baselines, svg
from .errors import ConfigError, EppError, FileFormatError, TableParseError
from .match_engine import PairingMode, PairwiseCounts, TiePolicy, build_matches
from .perf_table import parse_hyperparams_csv, parse_scores_csv, validate
from .solver import EppScores, FitAlgorithm, FitConfig, SeparationFlag, fit_epp


class OutputFormat(str, Enum):
    CSV = "csv"
    JSON = "json"


@dataclass
class RunConfig:
    """Full run configuration; every field round-trips through a config file."""

    pairing: PairingMode = PairingMode.CROSS
    ties: TiePolicy = TiePolicy.HALF
    fit: FitConfig = field(default_factory=FitConfig)
    spread: analysis.SpreadKind = analysis.SpreadKind.MEDIAN
    format: OutputFormat = OutputFormat.CSV
    out_dir: str = "."
    jobs: int = 1
    lower_is_better: bool = False

    def to_text(self) -> str:
        lines = [
            f"pairing = {self.pairing.value}",
            f"ties = {self.ties.value}",
            f"algorithm = {self.fit.algorithm.value}",
            f"ridge_lambda = {self.fit.ridge_lambda!r}",
            f"tol = {self.fit.tol!r}",
            f"max_iter = {self.fit.max_iter}",
            f"spread = {self.spread.value}",
            f"format = {self.format.value}",
            f"out_dir = {self.out_dir}",
            f"jobs = {self.jobs}",
            f"lower_is_better = {str(self.lower_is_better).lower()}",
        ]
        return "\n".join(lines) + "\n"


_CONFIG_KEYS = {
    "pairing",
    "ties",
    "algorithm",
    "ridge_lambda",
    "tol",
    "max_iter",
    "spread",
    "format",
    "out_dir",
    "jobs",
    "lower_is_better",
}


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
        if key not in _CONFIG_KEYS:
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
    """Merge defaults, config-file values, and explicit flags (flags win)."""
    file_values: dict = {}
    if getattr(args, "config", None):
        try:
            file_values = parse_config_text(Path(args.config).read_text(encoding="utf-8"))
        except (ConfigError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{args.config}: {exc}") from None

    def pick(flag_name: str, key: str, convert, default):
        flag = getattr(args, flag_name, None)
        if flag is not None:
            return flag if not isinstance(flag, str) else convert(flag)
        if key in file_values:
            return convert(file_values[key])
        return default

    try:
        fit_cfg = FitConfig(
            algorithm=pick("algorithm", "algorithm", FitAlgorithm, FitAlgorithm.MM),
            ridge_lambda=pick("ridge_lambda", "ridge_lambda", float, 1e-6),
            tol=pick("tol", "tol", float, 1e-9),
            max_iter=pick("max_iter", "max_iter", int, 10_000),
        )
        cfg = RunConfig(
            pairing=pick("pairing", "pairing", PairingMode, PairingMode.CROSS),
            ties=pick("ties", "ties", TiePolicy, TiePolicy.HALF),
            fit=fit_cfg,
            spread=pick("spread", "spread", analysis.SpreadKind, analysis.SpreadKind.MEDIAN),
            format=pick("format", "format", OutputFormat, OutputFormat.CSV),
            out_dir=pick("out_dir", "out_dir", str, "."),
            jobs=pick("jobs", "jobs", int, 1),
            lower_is_better=bool(
                pick("lower_is_better", "lower_is_better", _parse_bool, False)
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def _load_json_file(path: str, parse):
    """`parse` applied to a fit or counts file's text; errors name the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (FileFormatError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _load_csv_file(path: str, parse):
    """`parse` applied to a scores or hyperparameters CSV's bytes; errors,
    a file that is not UTF-8 included, name the file."""
    try:
        return parse(Path(path).read_bytes())
    except (TableParseError, UnicodeDecodeError) as exc:
        raise TableParseError(f"{path}: {exc}") from None


def _parse_counts(text: str) -> PairwiseCounts:
    """A counts file's ledger, its accounting identities checked."""
    counts = PairwiseCounts.from_json_text(text)
    try:
        counts.check_invariants()
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None
    return counts


def _load_fit_files(paths) -> list[EppScores]:
    return [_load_json_file(p, EppScores.from_json_text) for p in paths]


def _check_output_names(dataset_ids) -> None:
    """Refuse datasets whose ids map to the same output files.

    `_safe_name` folds characters, so ids such as 'a b' and 'a_b' would both
    write epp_a_b.* (and counts_a_b.json), the later one silently replacing
    the earlier, and with --jobs both would write the same temp file.
    """
    owner: dict[str, str] = {}
    for ds in dataset_ids:
        name = _safe_name(ds)
        if name in owner:
            raise EppError(
                f"datasets {owner[name]!r} and {ds!r} would both write "
                f"epp_{name}.csv/.json; rename one"
            )
        owner[name] = ds


def _algorithm_map(results: list[EppScores], scores_path: str | None) -> dict[str, str]:
    mapping: dict[str, str] = {}
    if scores_path:
        table = _load_csv_file(scores_path, parse_scores_csv)
        mapping.update(table.algorithm_of)
    for r in results:
        for model, alg in r.algorithms.items():
            mapping.setdefault(model, alg)
    missing = sorted(
        {m for r in results for m in r.models if m not in mapping}
    )
    if missing:
        raise EppError(
            "no algorithm label for models: "
            + ", ".join(missing[:10])
            + ("..." if len(missing) > 10 else "")
            + "; pass --scores or refit with the current version"
        )
    return mapping


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_fit(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    out_dir = Path(cfg.out_dir)
    if args.counts:
        ledgers = [_load_json_file(p, _parse_counts) for p in args.counts]
        _check_output_names(c.dataset_id for c in ledgers)
        table = None
    else:
        if not args.scores:
            print("fit: provide a scores CSV or --counts files", file=sys.stderr)
            return 2
        table = _load_csv_file(args.scores, parse_scores_csv)
        _check_output_names(table.datasets())
        if cfg.lower_is_better:
            table = table.negated()
        for summary in validate(table).datasets:
            for warning in summary.folded_warnings():
                print(f"warning: {warning}", file=sys.stderr)
        ledgers = None

    def fit_one(counts: PairwiseCounts) -> None:
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
        flagged = sum(f != SeparationFlag.NONE for f in scores.separation_flags)
        if flagged and cfg.fit.ridge_lambda == 0.0:
            print(
                f"warning: dataset {counts.dataset_id!r}: {flagged} "
                f"model{'s' if flagged > 1 else ''} won or lost every match; with "
                "--ridge-lambda 0 their scores are unbounded and depend on --algorithm",
                file=sys.stderr,
            )
        if not scores.converged:
            print(
                f"warning: dataset {counts.dataset_id!r} did not converge within "
                f"{cfg.fit.max_iter} iterations",
                file=sys.stderr,
            )

    if ledgers is None:
        # Built here, not in the pool: on glibc each worker thread's malloc
        # arena keeps the counting kernel's freed temporaries, which raised
        # the peak RSS of a 4-dataset, 47k-row fit with --jobs 2 by 4.7 MB.
        ledgers = [
            build_matches(table, ds, cfg.pairing, cfg.ties)
            for ds in table.datasets()
        ]
    if cfg.jobs > 1 and len(ledgers) > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            list(pool.map(fit_one, ledgers))
    else:
        for counts in ledgers:
            fit_one(counts)
    return 0


def _cmd_leaderboard(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    out_dir = Path(cfg.out_dir)
    table = _load_csv_file(args.scores, parse_scores_csv)
    if cfg.lower_is_better:
        table = table.negated()
    for result in _load_fit_files(args.fit):
        rows = analysis.leaderboard(result, table, top_k=args.top)
        stem = f"leaderboard_{_safe_name(result.dataset_id)}"
        if cfg.format == OutputFormat.CSV:
            _write_atomic(out_dir / f"{stem}.csv", analysis.leaderboard_csv_text(rows))
        else:
            _write_atomic(out_dir / f"{stem}.json", analysis.leaderboard_json_text(rows))
        for row in rows:
            if row.note:
                print(f"note: {result.dataset_id}: {row.model_id}: {row.note}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    results = _load_fit_files(args.fit)
    model_ids = args.models.split(",") if args.models else None
    comparison = analysis.cross_dataset_compare(results, model_ids)
    out = Path(cfg.out_dir)
    if cfg.format == OutputFormat.CSV:
        _write_atomic(out / "compare.csv", comparison.to_csv_text())
    else:
        _write_atomic(out / "compare.json", comparison.to_json_text())
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    results = _load_fit_files(args.fit)
    mapping = _algorithm_map(results, args.scores)
    points = analysis.embed(results, mapping, cfg.spread)
    out = Path(cfg.out_dir)
    if cfg.format == OutputFormat.CSV:
        _write_atomic(out / "embed.csv", analysis.embed_csv_text(points))
    else:
        _write_atomic(out / "embed.json", analysis.embed_json_text(points))
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
    hyper = _load_csv_file(args.hyperparams, parse_hyperparams_csv)
    rows = analysis.tunability_report(results, hyper, mapping, cfg.spread)
    out = Path(cfg.out_dir)
    if cfg.format == OutputFormat.CSV:
        _write_atomic(out / "tunability.csv", analysis.tunability_csv_text(rows))
    else:
        _write_atomic(out / "tunability.json", analysis.tunability_json_text(rows))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    if args.skills:
        skills = tuple(float(s) for s in args.skills.split(","))
    else:
        if not args.models or args.models < 2:
            print("simulate: need --models >= 2 or an explicit --skills list",
                  file=sys.stderr)
            return 2
        skills = tuple(np.linspace(args.skill_low, args.skill_high, args.models))
    spec = baselines.SyntheticSpec(
        skills=skills,
        n_splits=args.splits,
        noise=baselines.NoiseKind(args.noise),
        sigma=args.sigma,
        seed=args.seed,
        dataset_id=args.dataset,
    )
    table = baselines.simulate_scores(spec)
    out = Path(cfg.out_dir)
    _write_atomic(out / "scores.csv", table.to_csv_text())
    truth_lines = ["model,skill"]
    for i, skill in enumerate(spec.skills):
        truth_lines.append(
            f"{baselines.synthetic_model_id(i, spec.m)},{skill!r}"
        )
    _write_atomic(out / "truth.csv", "\n".join(truth_lines) + "\n")
    return 0


def _read_two_column_csv(path: str, header: tuple[str, str]):
    """(line, row) for each non-blank row of a CSV with a two-field header.

    A wrong header, or a row with fewer than two fields, raises an error
    naming the file (and the line).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise EppError(f"{path}: {exc}") from None
    reader = csv.reader(io.StringIO(text.replace("\r\n", "\n")))
    found = next(reader, None)
    if found is None or [h.strip() for h in found] != list(header):
        raise EppError(f"{path}: expected header {','.join(header)!r}")
    for row in reader:
        if not row:
            continue
        if len(row) < 2:
            raise EppError(
                f"{path}: line {reader.line_num}: expected 2 columns, got {len(row)}"
            )
        yield reader.line_num, row


def _read_matches_csv(path: str) -> list[tuple[str, str]]:
    return [
        (row[0].strip(), row[1].strip())
        for _, row in _read_two_column_csv(path, ("winner", "loser"))
    ]


def _cmd_elo(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    matches = _read_matches_csv(args.input)
    if args.order == "reversed":
        matches = list(reversed(matches))
    elo_cfg = baselines.EloConfig(
        initial_rating=args.initial, k_factor=args.k_factor, scale=args.scale
    )
    ratings = baselines.sequential_elo(matches, elo_cfg)
    lines = ["player,rating"]
    for player in sorted(ratings, key=lambda p: (-ratings[p], p)):
        lines.append(f"{player},{ratings[player]:.6g}")
    _write_atomic(Path(cfg.out_dir) / "elo_ratings.csv", "\n".join(lines) + "\n")
    return 0


def _cmd_recovery(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    (fitted,) = _load_fit_files([args.fit])
    truth: dict[str, float] = {}
    for line, row in _read_two_column_csv(args.truth, ("model", "skill")):
        try:
            truth[row[0].strip()] = float(row[1])
        except ValueError:
            raise EppError(
                f"{args.truth}: line {line}: cannot parse skill {row[1].strip()!r}"
            ) from None
    max_abs, rho = baselines.recovery_from_truth(fitted, truth)
    out = Path(cfg.out_dir)
    if cfg.format == OutputFormat.CSV:
        _write_atomic(
            out / "recovery.csv",
            "max_abs_error,rank_correlation,n_models\n"
            f"{max_abs:.6g},{rho:.6g},{len(truth)}\n",
        )
    else:
        _write_atomic(
            out / "recovery.json",
            json.dumps(
                {
                    "max_abs_error": max_abs,
                    "rank_correlation": rho,
                    "n_models": len(truth),
                },
                indent=2,
            )
            + "\n",
        )
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=[f.value for f in OutputFormat],
                        default=None, help="report output format (default csv)")
    parser.add_argument("--out-dir", dest="out_dir", default=None,
                        help="output directory (default .)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="max concurrent datasets (default 1)")
    parser.add_argument("--config", default=None,
                        help="key = value config file; flags override it")


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pairing", choices=[m.value for m in PairingMode],
                        default=None, help="cross: all split pairs; paired: same split only")
    parser.add_argument("--ties", choices=[t.value for t in TiePolicy], default=None,
                        help="half: ties count half a win each; drop: discard ties")
    parser.add_argument("--algorithm", choices=[a.value for a in FitAlgorithm],
                        default=None, help="optimizer (default mm)")
    parser.add_argument("--ridge-lambda", dest="ridge_lambda", type=float,
                        default=None, help="ridge penalty (default 1e-6)")
    parser.add_argument("--tol", type=float, default=None,
                        help="convergence threshold on max score change (default 1e-9)")
    parser.add_argument("--max-iter", dest="max_iter", type=int, default=None,
                        help="iteration cap (default 10000)")
    parser.add_argument("--lower-is-better", dest="lower_is_better",
                        action="store_const", const=True, default=None,
                        help="negate scores at ingest (for losses/MSE-style measures)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epp",
        description="Elo-based predictive power: fit, rank, and compare "
        "models from per-split performance tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit per-dataset scores from a scores CSV")
    p_fit.add_argument("scores", nargs="?", help="scores CSV (dataset,model,algorithm,split,score)")
    p_fit.add_argument("--counts", nargs="*", default=None,
                       help="fit from cached pairwise-count JSON files instead")
    p_fit.add_argument("--dump-counts", action="store_true",
                       help="also write counts_<dataset>.json for caching")
    _add_fit_flags(p_fit)
    _add_common(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_lb = sub.add_parser("leaderboard", help="ranked table per fitted dataset")
    p_lb.add_argument("--fit", nargs="+", required=True, help="fit JSON file(s)")
    p_lb.add_argument("--scores", required=True, help="scores CSV (for mean scores)")
    p_lb.add_argument("--top", type=int, default=None, help="keep only the best K rows")
    p_lb.add_argument("--lower-is-better", dest="lower_is_better",
                      action="store_const", const=True, default=None)
    _add_common(p_lb)
    p_lb.set_defaults(func=_cmd_leaderboard)

    p_cmp = sub.add_parser("compare", help="cross-dataset comparison table")
    p_cmp.add_argument("--fit", nargs="+", required=True, help="fit JSON files")
    p_cmp.add_argument("--models", default=None, help="comma-separated model ids")
    _add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_emb = sub.add_parser("embed", help="per-(algorithm, dataset) map + SVG scatter")
    p_emb.add_argument("--fit", nargs="+", required=True, help="fit JSON files")
    p_emb.add_argument("--scores", default=None,
                       help="scores CSV (fallback source of algorithm labels)")
    p_emb.add_argument("--spread", choices=[s.value for s in analysis.SpreadKind],
                       default=None, help="median or mean absolute deviation")
    p_emb.add_argument("--per-model", dest="per_model", action="store_true",
                       help="also write raw per-model scores (embed_models.csv)")
    _add_common(p_emb)
    p_emb.set_defaults(func=_cmd_embed)

    p_tun = sub.add_parser("tunability", help="hyperparameter association report")
    p_tun.add_argument("--fit", nargs="+", required=True, help="fit JSON files")
    p_tun.add_argument("--hyperparams", required=True,
                       help="hyperparameter CSV (model,parameter,value)")
    p_tun.add_argument("--scores", default=None,
                       help="scores CSV (fallback source of algorithm labels)")
    p_tun.add_argument("--spread", choices=[s.value for s in analysis.SpreadKind],
                       default=None)
    _add_common(p_tun)
    p_tun.set_defaults(func=_cmd_tunability)

    p_sim = sub.add_parser("simulate", help="synthetic scores with known skills")
    p_sim.add_argument("--models", type=int, default=None, help="number of models")
    p_sim.add_argument("--splits", type=int, required=True, help="splits per model")
    p_sim.add_argument("--seed", type=int, required=True, help="PCG64 seed")
    p_sim.add_argument("--noise", choices=[n.value for n in baselines.NoiseKind],
                       default="gumbel")
    p_sim.add_argument("--sigma", type=float, default=1.0,
                       help="gaussian noise scale (ignored for gumbel)")
    p_sim.add_argument("--skills", default=None, help="explicit comma-separated skills")
    p_sim.add_argument("--skill-low", dest="skill_low", type=float, default=-2.0)
    p_sim.add_argument("--skill-high", dest="skill_high", type=float, default=2.0)
    p_sim.add_argument("--dataset", default="synthetic", help="dataset id to emit")
    _add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_elo = sub.add_parser("elo", help="classical sequential Elo over a match list")
    p_elo.add_argument("--input", required=True, help="matches CSV (winner,loser)")
    p_elo.add_argument("--order", choices=["file", "reversed"], default="file",
                       help="process matches in file order or reversed")
    p_elo.add_argument("--initial", type=float, default=1000.0)
    p_elo.add_argument("--k-factor", dest="k_factor", type=float, default=32.0)
    p_elo.add_argument("--scale", type=float, default=400.0)
    _add_common(p_elo)
    p_elo.set_defaults(func=_cmd_elo)

    p_rec = sub.add_parser("recovery", help="compare a fit against known skills")
    p_rec.add_argument("--fit", required=True, help="fit JSON file")
    p_rec.add_argument("--truth", required=True, help="truth CSV (model,skill)")
    _add_common(p_rec)
    p_rec.set_defaults(func=_cmd_recovery)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EppError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
