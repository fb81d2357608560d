"""One benchmark session, run in a fresh child process by ``run.py``.

Usage: ``python3 bench/session.py REQUEST_JSON``. The request names the mode,
the checkout root, the generated inputs and an output directory; the session
writes ``result.json`` there. Modes:

- ``import``: import ``eppscore.cli`` and exit (warms the bytecode cache).
- ``cli``: ``epp fit`` then the report commands, each through
  ``eppscore.cli.main(argv)`` as a user would run them, timed untraced,
  with a calibration loop timed before and after the import and after
  every command.
- ``traced``: the same pipeline through each module's public functions,
  with a span recorded around every call into a layer.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """In-memory spans (name, start, end, parent) and counters, one session."""

    def __init__(self, session: str):
        self.session = session
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "session": self.session,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = perf_counter() - self._t0
            self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


# Fixed input of the calibration loop: rows of two floats and a model name.
_CALIBRATION_JSON = json.dumps([[i * 0.37, i * 1.1, f"m{i:05d}"] for i in range(8000)])


def calibrate() -> float:
    """Wall seconds of a fixed piece of interpreter work (about 10 ms).

    Like the report commands it parses JSON, loops over rows in Python,
    fills a dict and formats floats. Sessions run it before and after each
    command, and ``run.py`` scales each command's time by it. The garbage
    collector is off meanwhile: a collection would traverse the objects the
    program left alive, and the loop would time the program's heap instead
    of the machine.
    """
    gc.disable()
    try:
        start = perf_counter()
        rows = json.loads(_CALIBRATION_JSON)
        index = {}
        total = 0.0
        for a, b, name in rows:
            total += a * b
            index[name] = a
        ",".join(f"{a:.6g}" for a, _, _ in rows)
        return perf_counter() - start
    finally:
        gc.enable()


def _call_cli(cli, name: str, argv: list[str], commands: list[dict]) -> None:
    start = perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 1
    commands.append({"name": name, "rc": rc, "seconds": perf_counter() - start})


def run_cli(req: dict, cli, calibration: list[float]) -> dict:
    """Run ``fit`` and the report commands, timing the calibration loop after
    each; ``calibration`` already holds the loop times before and after the
    import, so command i is bracketed by ``calibration[i + 1]`` and
    ``calibration[i + 2]``."""
    out = Path(req["out"])
    fits, reports = str(out / "fits"), str(out / "reports")
    fit_jsons = [str(out / "fits" / f"epp_{ds}.json") for ds in req["datasets"]]
    lower = ["--lower-is-better"] if req["lower_is_better"] else []
    argvs = {
        "fit": ["fit", req["scores"], "--out-dir", fits, *req["fit_flags"]],
        "leaderboard": ["leaderboard", "--fit", *fit_jsons, "--scores", req["scores"],
                        "--out-dir", reports, *lower],
        "compare": ["compare", "--fit", *fit_jsons, "--out-dir", reports],
        "embed": ["embed", "--fit", *fit_jsons, "--out-dir", reports],
        "tunability": ["tunability", "--fit", *fit_jsons, "--hyperparams",
                       req["hyperparams"], "--out-dir", reports],
    }
    commands: list[dict] = []
    for name, argv in argvs.items():
        _call_cli(cli, name, argv, commands)
        calibration.append(calibrate())
    return {
        "commands": commands,
        "fit_s": commands[0]["seconds"],
        "reports_s": sum(c["seconds"] for c in commands[1:]),
    }


def run_traced(req: dict) -> dict:
    from eppscore import analysis, svg
    from eppscore.match_engine import PairingMode, TiePolicy, build_matches
    from eppscore.perf_table import parse_hyperparams_csv, parse_scores_csv, validate
    from eppscore.solver import EppScores, FitAlgorithm, FitConfig, fit_epp

    out = Path(req["out"])
    (out / "fits").mkdir(parents=True, exist_ok=True)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    tr = Tracer(out.name)
    cfg = FitConfig(algorithm=FitAlgorithm(req["algorithm"]))
    pairing = PairingMode(req["pairing"])
    steps: dict[str, bool] = {}
    invariants: dict[str, str] = {}
    sum_n: dict[str, float] = {}
    fit_paths = [out / "fits" / f"epp_{ds}.json" for ds in req["datasets"]]

    def parse_table():
        with tr.span("perf_table.parse"):
            table = parse_scores_csv(Path(req["scores"]).read_bytes())
            if req["lower_is_better"]:
                with tr.span("perf_table.negate"):
                    table = table.negated()
        return table

    def load_fits():
        with tr.span("cli.load_fits"):
            return [EppScores.from_json_text(p.read_text(encoding="utf-8")) for p in fit_paths]

    def step(name, fn):
        try:
            fn()
            steps[name] = True
        except Exception:
            traceback.print_exc()
            steps[name] = False

    def fit():
        table = parse_table()
        tr.count("perf_table.rows", len(table))
        with tr.span("perf_table.validate"):
            validate(table)
        ledgers = []
        for ds in table.datasets():
            with tr.span("match_engine.build"):
                counts = build_matches(table, ds, pairing, TiePolicy.HALF)
            try:
                counts.check_invariants()
                invariants[ds] = "ok"
            except ValueError as exc:
                invariants[ds] = str(exc)
            sum_n[ds] = float(counts.n.sum())
            tr.count("match_engine.matches", sum_n[ds] / 2.0)
            ledgers.append(counts)
        algorithm_of = table.algorithm_of
        for counts in ledgers:
            with tr.span("solver.fit"):
                scores = fit_epp(counts, cfg)
            scores.algorithms = {m: algorithm_of[m] for m in scores.models}
            tr.count("solver.iterations", scores.iterations)
            tr.count("solver.components", scores.n_components)
            tr.counts["solver.iterations_max"] = max(
                tr.counts.get("solver.iterations_max", 0), scores.iterations
            )
            with tr.span("cli.serialize"):
                csv_text = scores.to_csv_text()
                json_text = scores.to_json_text()
            tr.count("cli.bytes_out", len(csv_text.encode()) + len(json_text.encode()))
            stem = out / "fits" / f"epp_{counts.dataset_id}"
            stem.with_suffix(".csv").write_text(csv_text, encoding="utf-8")
            stem.with_suffix(".json").write_text(json_text, encoding="utf-8")

    def leaderboard():
        table = parse_table()
        for result in load_fits():
            with tr.span("analysis.leaderboard"):
                rows = analysis.leaderboard(result, table)
                text = analysis.leaderboard_csv_text(rows)
            tr.count("inference.tests", sum(r.significance_vs_next is not None for r in rows))
            (out / "reports" / f"leaderboard_{result.dataset_id}.csv").write_text(text)

    def compare():
        results = load_fits()
        with tr.span("analysis.compare"):
            text = analysis.cross_dataset_compare(results).to_csv_text()
        (out / "reports" / "compare.csv").write_text(text)

    def algorithm_map(results):
        return {m: a for r in results for m, a in r.algorithms.items()}

    def embed():
        results = load_fits()
        with tr.span("analysis.embed"):
            points = analysis.embed(results, algorithm_map(results))
            text = analysis.embed_csv_text(points)
        with tr.span("svg.scatter"):
            svg_text = svg.scatter_svg(points)
        (out / "reports" / "embed.csv").write_text(text)
        (out / "reports" / "embed.svg").write_text(svg_text)

    def tunability():
        results = load_fits()
        with tr.span("perf_table.parse_hyperparams"):
            hyper = parse_hyperparams_csv(Path(req["hyperparams"]).read_bytes())
        with tr.span("analysis.tunability"):
            rows = analysis.tunability_report(results, hyper, algorithm_map(results))
            text = analysis.tunability_csv_text(rows)
        tr.count("inference.tests", len(rows))
        (out / "reports" / "tunability.csv").write_text(text)

    with tr.span("session"):
        with tr.span("fit"):
            step("fit", fit)
        with tr.span("reports"):
            for name, fn in (("leaderboard", leaderboard), ("compare", compare),
                             ("embed", embed), ("tunability", tunability)):
                step(name, fn)
    return {
        "steps": steps,
        "invariants": invariants,
        "sum_n": sum_n,
        "spans": tr.spans,
        "counts": tr.counts,
    }


def main() -> int:
    req = json.loads(sys.argv[1])
    src = Path(req["root"]) / "src"
    sys.path.insert(0, str(src))
    calibration = [calibrate()]
    start = perf_counter()
    cli = importlib.import_module("eppscore.cli")
    setup_s = perf_counter() - start
    calibration.append(calibrate())
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"eppscore imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    result: dict = {"setup_s": setup_s, "calibration_s": calibration}
    if req["mode"] == "cli":
        result.update(run_cli(req, cli, calibration))
    elif req["mode"] == "traced":
        result.update(run_traced(req))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
    out = Path(req["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
