"""End-to-end benchmark of the `epp` pipeline.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It generates the workload's inputs from the seed, then runs `epp` sessions
back to back (a closed loop with one client), each in a fresh Python process
that imports ``eppscore.cli`` from ``src/`` and calls ``main(argv)`` for
``fit`` and every report command. Sessions repeat until S seconds have
passed (at least MIN_SESSIONS). Each session's times are scaled to a
nominal machine speed by a calibration loop timed between its commands, and
each time metric is the median session's; ``peak_rss_mb`` is the largest
session's. Every output is checked; a command fails on a nonzero exit or a
failed check.

With ``--trace 1`` it instead runs one session with the workload's flags, one
serial (``--jobs 1``) session, and then traced sessions that call each
module's public functions and time them in spans, and prints the per-layer
metrics. The last line of standard output is the JSON result; the line
before it holds the details: environment, per-session samples and facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import numpy

import checks
import gen
from workloads import WORKLOADS, Workload, tiny

BENCH_DIR = Path(__file__).resolve().parent
MIN_SESSIONS = 3
RUN_LIMIT_S = 140  # start no session after this
DEADLINE_S = 175  # a session still running then is killed, so a run ends within 180 s
COMMANDS = ("fit", "leaderboard", "compare", "embed", "tunability")

# Traced span name -> per-layer metric holding the spans' total seconds.
LAYER_SPANS = {
    "perf_table.parse": "perf_table.parse_s",
    "perf_table.validate": "perf_table.validate_s",
    "match_engine.build": "match_engine.build_s",
    "solver.fit": "solver.fit_s",
    "cli.serialize": "cli.serialize_s",
    "cli.load_fits": "cli.load_fits_s",
    "analysis.leaderboard": "analysis.leaderboard_s",
    "analysis.compare": "analysis.compare_s",
    "analysis.embed": "analysis.embed_s",
    "analysis.tunability": "analysis.tunability_s",
    "svg.scatter": "svg.scatter_s",
}
LAYER_COUNTS = (
    "perf_table.rows",
    "match_engine.matches",
    "solver.iterations",
    "solver.iterations_max",
    "solver.components",
    "cli.bytes_out",
    "inference.tests",
)


def environment(root: Path) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, ValueError):
        blas_name = blas_version = "unknown"
    return {
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One benchmark run: its inputs, sessions, operation counts and facts."""

    def __init__(self, root: Path, workload: Workload, seed: int, trace: int, started: float):
        self.root = root
        self.started = started
        self.w = workload
        self.work = root / ".bench_work" / f"{workload.name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs = gen.generate(workload, seed, self.work / "inputs")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: Path | None = None  # fit dir every later fit must match
        self.fit_csv_sha256: dict[str, str] = {}
        self.json_identical = True
        self.json_max_abs_diff = 0.0

    def child(self, mode: str, name: str, jobs: int | None = None) -> dict | None:
        """Run session.py in a fresh process; its result, or None if it failed."""
        out = self.work / name
        req = {
            "mode": mode,
            "root": str(self.root),
            "out": str(out),
            "scores": str(self.inputs.scores),
            "hyperparams": str(self.inputs.hyperparams),
            "datasets": sorted(self.inputs.datasets),
            "fit_flags": self.w.fit_flags(jobs),
            "pairing": self.w.pairing,
            "algorithm": self.w.algorithm,
            "lower_is_better": self.w.lower_is_better,
        }
        out.mkdir(parents=True)
        with (out / "session.log").open("w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "session.py"), json.dumps(req)],
                    stdout=log, stderr=subprocess.STDOUT, cwd=self.root,
                    timeout=max(1.0, DEADLINE_S - (monotonic() - self.started)),
                )
            except subprocess.TimeoutExpired:
                self.errors.append(f"{name}: timed out")
                return None
        if proc.returncode != 0:
            self.errors.append(f"{name}: exit code {proc.returncode}, see {out}/session.log")
            return None
        return json.loads((out / "result.json").read_text(encoding="utf-8"))

    def check_session(self, name: str, ok_by_command: dict[str, bool]) -> None:
        """Check a finished session's outputs and count its operations."""
        out = self.work / name
        fits = out / "fits"
        fit_errors = checks.check_fits(fits, self.inputs.skills, self.w.spearman_floor)
        datasets = sorted(self.inputs.datasets)
        digests = {ds: checks.sha256(fits / f"epp_{ds}.csv")
                   for ds in datasets if (fits / f"epp_{ds}.csv").is_file()}
        if self.reference is None and not fit_errors:
            self.reference = fits
            self.fit_csv_sha256 = digests
        elif self.reference is not None:
            if digests != self.fit_csv_sha256:
                fit_errors.append("fit CSVs differ from the first session's")
            identical, worst, errors = checks.compare_fit_json(fits, self.reference, datasets)
            self.json_identical = self.json_identical and identical
            self.json_max_abs_diff = max(self.json_max_abs_diff, worst)
            fit_errors += errors
        report_errors = checks.check_reports(out / "reports", self.inputs.datasets)
        shutil.rmtree(out / "reports", ignore_errors=True)
        if fits != self.reference:
            shutil.rmtree(fits, ignore_errors=True)
        for command in COMMANDS:
            errors = fit_errors if command == "fit" else report_errors[command]
            self.attempted += 1
            if not ok_by_command.get(command, False) or errors:
                self.failed += 1
                self.errors += [f"{name}: {command}: {e}" for e in errors] or [
                    f"{name}: {command}: failed to run"
                ]

    def cli_session(self, name: str, jobs: int | None = None) -> dict | None:
        result = self.child("cli", name, jobs)
        ok = {c["name"]: c["rc"] == 0 for c in result["commands"]} if result else {}
        self.check_session(name, ok)
        return result

    def traced_session(self, name: str) -> dict | None:
        result = self.child("traced", name)
        if result is None:
            self.check_session(name, {})
            return None
        ok = dict(result["steps"])
        for ds, verdict in result["invariants"].items():
            if verdict != "ok":
                ok["fit"] = False
                self.errors.append(f"{name}: {ds}: PairwiseCounts invariants: {verdict}")
        for ds, sum_n in result["sum_n"].items():
            want = checks.expected_sum_n(self.inputs.datasets[ds], self.w.pairing)
            if sum_n != want:
                ok["fit"] = False
                self.errors.append(f"{name}: {ds}: sum of n is {sum_n}, expected {want}")
        self.check_session(name, ok)
        return result

    def cleanup(self) -> None:
        """Remove inputs and fits; keep each session's log and result."""
        shutil.rmtree(self.work / "inputs", ignore_errors=True)
        if self.reference is not None:
            shutil.rmtree(self.reference, ignore_errors=True)


def _median(values) -> float:
    return float(statistics.median(values))


# A shared machine's speed changes by up to 2x within seconds, and CPU time
# rises with wall time, so no statistic of raw times over one run's sessions
# is steady from run to run. Each session therefore times a fixed
# calibration loop before and after the import and after every command
# (session.calibrate). Each timed interval is scaled by CALIBRATION_NOMINAL_S
# over the mean of the two loop times that bracket it: the seconds it would
# have taken on a machine where the loop takes CALIBRATION_NOMINAL_S. The
# process's CPU time, which has no interval of its own, is scaled by the
# session's scaled wall time over its unscaled wall time. The unscaled
# medians are kept in the details line as "wall".
CALIBRATION_NOMINAL_S = 0.010
TIME_METRICS = ("setup_s", "fit_s", "reports_s", "cpu_s")


def scaled_times(result: dict) -> dict:
    """A session's time metrics, scaled to the nominal machine speed."""
    loop = result["calibration_s"]
    intervals = [result["setup_s"], *(c["seconds"] for c in result["commands"])]
    scaled = [t * 2 * CALIBRATION_NOMINAL_S / (loop[i] + loop[i + 1])
              for i, t in enumerate(intervals)]
    return {
        "setup_s": scaled[0],
        "fit_s": scaled[1],
        "reports_s": sum(scaled[2:]),
        "cpu_s": result["cpu_s"] * sum(scaled) / sum(intervals),
    }


def untraced(run: Run, seconds: float) -> tuple[dict, list]:
    run.child("import", "warmup")  # compiles bytecode outside the timed sessions
    samples = []
    loop_start = monotonic()
    k = 0
    while len(samples) < MIN_SESSIONS or monotonic() - loop_start < seconds:
        if monotonic() - run.started > RUN_LIMIT_S:
            break
        result = run.cli_session(f"session{k:03d}")
        k += 1
        if result is not None and all(c["rc"] == 0 for c in result["commands"]):
            sample = {key: result[key] for key in (*TIME_METRICS, "peak_rss_mb")}
            sample["calibration_s"] = result["calibration_s"]
            sample["commands"] = {c["name"]: c["seconds"] for c in result["commands"]}
            sample["scaled"] = scaled_times(result)
            samples.append(sample)
    if not samples:
        return {}, []
    metrics = {key: _median(s["scaled"][key] for s in samples) for key in TIME_METRICS}
    # With --jobs 2 a session's peak depends on whether its dataset fits
    # overlap in time, so the median session's flips between two levels; the
    # largest peak of the run is steady.
    metrics["peak_rss_mb"] = max(s["peak_rss_mb"] for s in samples)
    metrics["wall"] = {key: _median(s[key] for s in samples) for key in TIME_METRICS}
    return metrics, samples


def layer_metrics(result: dict) -> dict:
    totals = dict.fromkeys(LAYER_SPANS.values(), 0.0)
    for span in result["spans"]:
        if span["name"] in LAYER_SPANS:
            totals[LAYER_SPANS[span["name"]]] += span["end"] - span["start"]
    for name in LAYER_COUNTS:
        totals[name] = float(result["counts"].get(name, 0))
    totals["match_engine.matches_per_s"] = (
        totals["match_engine.matches"] / totals["match_engine.build_s"]
    )
    totals["trace.session_s"] = next(
        s["end"] - s["start"] for s in result["spans"] if s["name"] == "session"
    )
    return totals


def traced(run: Run, seconds: float) -> tuple[dict, list]:
    run.child("import", "warmup")
    run.cli_session("workload_flags")
    serial = run.cli_session("serial", jobs=1)
    samples = []
    loop_start = monotonic()
    k = 0
    while not samples or monotonic() - loop_start < seconds:
        if monotonic() - run.started > RUN_LIMIT_S:
            break
        result = run.traced_session(f"traced{k:03d}")
        k += 1
        if result is not None and all(result["steps"].values()):
            samples.append(layer_metrics(result))
            if len(samples) == 1:
                (run.work / "trace.json").write_text(json.dumps(
                    {"spans": result["spans"], "counts": result["counts"]}, indent=1))
    if not samples or serial is None:
        return {}, []
    metrics = {key: _median(s[key] for s in samples) for key in samples[0]}
    metrics["trace.overhead_s"] = metrics["trace.session_s"] - (
        serial["fit_s"] + serial["reports_s"]
    )
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the epp pipeline.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (not for measurement)")
    args = parser.parse_args(argv)

    started = monotonic()
    root = Path.cwd()
    if not (root / "src" / "eppscore" / "cli.py").is_file():
        print(f"error: no src/eppscore/cli.py under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    run = Run(root, tiny(workload) if args.tiny else workload, args.seed, args.trace, started)
    measure = traced if args.trace else untraced
    metrics, samples = measure(run, args.seconds)
    if not samples:
        print("error: no session succeeded:\n  " + "\n  ".join(run.errors[:20]), file=sys.stderr)
        run.cleanup()
        return 1
    metrics["error_rate"] = run.failed / run.attempted

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fit_flags": run.w.fit_flags(),
        "environment": environment(root),
        "facts": {
            "fit_csv_sha256": run.fit_csv_sha256,
            "fit_json_bytes_identical": run.json_identical,
            "fit_json_max_abs_diff": run.json_max_abs_diff,
            "json_tolerance": {"rtol": checks.JSON_RTOL, "atol": checks.JSON_ATOL},
            "errors": run.errors[:20],
        },
        "sessions": samples,
        "all_metrics": metrics,
        "elapsed_s": monotonic() - started,
    }
    (run.work / "detail.json").write_text(json.dumps(detail, indent=1))
    run.cleanup()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
