"""Output checks for one session. They read the files the program wrote and
share no code with the program, so a wrong result cannot pass by agreement.

Each check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

# Fit JSON floats may differ this much between runs: the covariance, its SEs
# and the log-likelihood move by 1e-12..1e-10 with the BLAS thread count.
JSON_RTOL = 1e-8
JSON_ATOL = 1e-8


def spearman(x, y) -> float:
    """Spearman rank correlation, mid-ranks for ties."""

    def ranks(v):
        _, inverse, counts = np.unique(np.asarray(v, dtype=float),
                                       return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]

    rx, ry = ranks(x), ranks(y)
    rx, ry = rx - rx.mean(), ry - ry.mean()
    denom = float(np.sqrt((rx @ rx) * (ry @ ry)))
    return float(rx @ ry / denom) if denom > 0 else 0.0


def expected_sum_n(split_counts: dict[str, int], pairing: str) -> float:
    """Sum of the match-count matrix, from the generated split counts alone."""
    k = np.array(list(split_counts.values()), dtype=float)
    if pairing == "paired":
        return float(len(k) * (len(k) - 1) * k[0])
    return float(k.sum() ** 2 - (k * k).sum())


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_fits(fit_dir: Path, skills: dict[str, dict[str, float]], floor: float) -> list[str]:
    """Every dataset has both fit files, converged, and ranks its models
    like the generating skills (Spearman at least `floor`)."""
    errors = []
    for ds, truth in skills.items():
        csv_path, json_path = fit_dir / f"epp_{ds}.csv", fit_dir / f"epp_{ds}.json"
        if not csv_path.is_file() or not json_path.is_file():
            errors.append(f"{ds}: fit files missing")
            continue
        rows = _csv_rows(csv_path)
        fit = json.loads(json_path.read_text(encoding="utf-8"))
        if sorted(r["model"] for r in rows) != sorted(truth) or fit["models"] != [r["model"] for r in rows]:
            errors.append(f"{ds}: fitted models differ from the generated ones")
            continue
        if fit["converged"] is not True or any(r["converged"] != "true" for r in rows):
            errors.append(f"{ds}: not converged")
        rho = spearman(fit["beta"], [truth[m] for m in fit["models"]])
        if not rho >= floor:
            errors.append(f"{ds}: Spearman(beta, skill) {rho:.4f} below {floor}")
    return errors


def compare_fit_json(a_dir: Path, b_dir: Path, datasets) -> tuple[bool, float, list[str]]:
    """(all bytes equal, largest float difference, errors) of two fits' JSON.

    Floats must agree within JSON_RTOL/JSON_ATOL; everything else exactly.
    """
    errors: list[str] = []
    worst = 0.0
    identical = True

    def walk(x, y, where):
        nonlocal worst
        if isinstance(x, float) or isinstance(y, float):
            diff = abs(float(x) - float(y))
            worst = max(worst, diff)
            if diff > JSON_ATOL + JSON_RTOL * abs(float(y)):
                errors.append(f"{where}: {x!r} != {y!r}")
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for k, (xi, yi) in enumerate(zip(x, y)):
                walk(xi, yi, f"{where}[{k}]")
        elif isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
            for k in x:
                walk(x[k], y[k], f"{where}.{k}")
        elif x != y:
            errors.append(f"{where}: {x!r} != {y!r}")

    for ds in datasets:
        pa, pb = a_dir / f"epp_{ds}.json", b_dir / f"epp_{ds}.json"
        if not pa.is_file() or not pb.is_file():
            errors.append(f"{ds}: fit JSON missing")
            continue
        ta, tb = pa.read_bytes(), pb.read_bytes()
        identical = identical and ta == tb
        if ta != tb:
            walk(json.loads(ta), json.loads(tb), ds)
    return identical, worst, errors[:5]


def check_reports(report_dir: Path, datasets: dict[str, dict[str, int]]) -> dict[str, list[str]]:
    """Errors per report command, from the files it should have written."""
    errors: dict[str, list[str]] = {"leaderboard": [], "compare": [], "embed": [], "tunability": []}

    def rows(name):
        path = report_dir / name
        return _csv_rows(path) if path.is_file() else None

    for ds, models in datasets.items():
        got = rows(f"leaderboard_{ds}.csv")
        if got is None or sorted(r["model"] for r in got) != sorted(models):
            errors["leaderboard"].append(f"{ds}: leaderboard rows differ from the models")
    all_models = {m for models in datasets.values() for m in models}
    got = rows("compare.csv")
    if got is None or sorted(r["model"] for r in got) != sorted(all_models):
        errors["compare"].append("compare.csv rows differ from the models")
    got = rows("embed.csv")
    if not got or {r["dataset"] for r in got} != set(datasets):
        errors["embed"].append("embed.csv does not cover every dataset")
    svg = report_dir / "embed.svg"
    if not svg.is_file() or "<svg" not in svg.read_text(encoding="utf-8")[:200]:
        errors["embed"].append("embed.svg missing or not SVG")
    if not rows("tunability.csv"):
        errors["tunability"].append("tunability.csv has no rows")
    return errors
