"""Seeded input generator: scores, true skills, split counts, hyperparameters.

Scores are ``skill + Gumbel noise`` drawn from a PCG64 stream, so the
probability that a score of model i beats a score of model j is exactly
sigmoid(skill_i - skill_j) and the fitted betas estimate the written
skills. Error-rate
workloads map the score through a strictly decreasing function before
rounding, which keeps every comparison's direction and adds exact ties.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from workloads import Workload

ALGORITHMS = ("gbm", "knn", "rf", "svm")
_ALG_OFFSET = {"gbm": 0.6, "knn": -0.6, "rf": 0.3, "svm": -0.3}
SKILL_SD = 0.8


@dataclass
class Inputs:
    """Paths of one generated workload plus the facts the checks need."""

    scores: Path
    truth: Path
    split_counts: Path
    hyperparams: Path
    datasets: dict[str, dict[str, int]]  # dataset -> model -> split count
    skills: dict[str, dict[str, float]]  # dataset -> model -> true skill


def _uniform_open(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniforms in the open interval (0, 1), so both logs stay finite."""
    return (rng.integers(0, 2**53 - 1, size=shape) + 0.5) / 2.0**53


def _gumbel(rng: np.random.Generator, m: int, s: int) -> np.ndarray:
    """(m, s) standard Gumbel draws, stratified within each row.

    Row i's uniforms take one value in each of the s strata [k/s, (k+1)/s),
    in random order. Every draw is still exactly uniform, and rows are
    independent, so each comparison keeps its Bradley-Terry probability; a
    model's noise just no longer clumps, which keeps the fitted extremes,
    and with them the solver's iteration count, steady from seed to seed.
    """
    strata = rng.permuted(np.tile(np.arange(s), (m, 1)), axis=1)
    u = (strata + _uniform_open(rng, (m, s))) / s
    return -np.log(-np.log(u))


def _skill_grid(m: int) -> np.ndarray:
    """m ascending skills at the normal quantiles (k + 1/2) / m, sd SKILL_SD."""
    normal = NormalDist(0.0, SKILL_SD)
    return np.array([normal.inv_cdf((k + 0.5) / m) for k in range(m)])


def _model_id(i: int) -> str:
    return f"mod{i:04d}"


def dataset_sizes(w: Workload) -> list[tuple[int, int]]:
    """(models, splits) per dataset. Fixed for every seed, so each seed costs
    the same work: models rise over the range while splits fall."""
    ms = np.linspace(*w.models, w.n_datasets).round().astype(int)
    if w.ragged:
        return [(int(m), w.splits[1]) for m in ms]
    ss = np.linspace(*w.splits, w.n_datasets).round().astype(int)[::-1]
    return [(int(m), int(s)) for m, s in zip(ms, ss)]


def generate(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's input files for `seed` into `out_dir`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(
        np.random.PCG64([seed, zlib.crc32(workload.name.encode())])
    )
    w = workload

    # Hyperparameters decide each model's base skill, so tunability has
    # real associations to find. The largest dataset draws from the whole pool.
    n_pool = w.models[1]
    pool = [_model_id(i) for i in range(n_pool)]
    algorithm = {m: ALGORITHMS[i % len(ALGORITHMS)] for i, m in enumerate(pool)}
    log_lr = rng.uniform(-3.0, 0.0, n_pool)
    depth = rng.integers(1, 17, n_pool)
    gini = rng.random(n_pool) < 0.5
    bootstrap = rng.random(n_pool) < 0.5
    base = (
        np.array([_ALG_OFFSET[algorithm[m]] for m in pool])
        - 0.4 * (log_lr + 1.5) ** 2
        + 0.05 * (depth - 8)
        + 0.3 * gini
        + rng.normal(0.0, 0.4, n_pool)
    )

    datasets: dict[str, dict[str, int]] = {}
    skills: dict[str, dict[str, float]] = {}
    rows: list[str] = ["dataset,model,algorithm,split,score"]
    for d, (m, n_splits) in enumerate(dataset_sizes(w)):
        ds = f"ds{d:02d}"
        members = np.sort(rng.choice(n_pool, size=m, replace=False))
        # The same skill values for every seed, handed out in the order of
        # the hyperparameter-driven latent, so the solver's work hardly
        # depends on the seed.
        latent = base[members] + rng.normal(0.0, 0.5, m)
        skill = _skill_grid(m)[np.argsort(np.argsort(latent))]
        split_ids = [f"split{k:03d}" for k in range(n_splits)]
        noise = _gumbel(rng, m, n_splits)
        values = skill[:, None] + noise
        if w.decimals is not None:
            values = np.round(1.0 / (1.0 + np.exp(values)), w.decimals)
        if w.ragged:
            kept = rng.integers(w.splits[0], w.splits[1] + 1, m)
            # pin both ends so split counts always differ within a dataset
            kept[0], kept[-1] = w.splits[1], w.splits[0]
            masks = [np.sort(rng.permutation(n_splits)[:k]) for k in kept]
        else:
            masks = [np.arange(n_splits)] * m
        datasets[ds] = {}
        skills[ds] = {}
        for row, idx in enumerate(members):
            model = pool[idx]
            datasets[ds][model] = len(masks[row])
            skills[ds][model] = float(skill[row])
            prefix = f"{ds},{model},{algorithm[model]},"
            if w.decimals is not None:
                fmt = f"{{:.{w.decimals}f}}"
                rows.extend(
                    prefix + split_ids[k] + "," + fmt.format(values[row, k])
                    for k in masks[row]
                )
            else:
                rows.extend(
                    prefix + split_ids[k] + "," + repr(float(values[row, k]))
                    for k in masks[row]
                )

    used = sorted({m for per_ds in datasets.values() for m in per_ds})
    hp_rows = ["model,parameter,value"]
    for m in used:
        i = int(m[3:])
        hp_rows.append(f"{m},bootstrap,{'true' if bootstrap[i] else 'false'}")
        hp_rows.append(f"{m},criterion,{'gini' if gini[i] else 'entropy'}")
        hp_rows.append(f"{m},depth,{int(depth[i])}")
        hp_rows.append(f"{m},learning_rate,{float(10.0 ** log_lr[i])!r}")

    inputs = Inputs(
        scores=out_dir / "scores.csv",
        truth=out_dir / "truth.csv",
        split_counts=out_dir / "split_counts.csv",
        hyperparams=out_dir / "hyperparams.csv",
        datasets=datasets,
        skills=skills,
    )
    inputs.scores.write_text("\n".join(rows) + "\n", encoding="utf-8")
    inputs.truth.write_text(
        "dataset,model,skill\n"
        + "".join(f"{ds},{m},{s!r}\n" for ds, per in skills.items() for m, s in per.items()),
        encoding="utf-8",
    )
    inputs.split_counts.write_text(
        "dataset,model,n_splits\n"
        + "".join(f"{ds},{m},{k}\n" for ds, per in datasets.items() for m, k in per.items()),
        encoding="utf-8",
    )
    inputs.hyperparams.write_text("\n".join(hp_rows) + "\n", encoding="utf-8")
    return inputs

