"""The benchmark's workloads: input sizes, `epp fit` flags and output floors.

Each workload is generated from a seed by ``gen.py``; the program only ever
sees the generated files. The reason for each workload is repeated, one line
each, in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_datasets: int
    models: tuple[int, int]  # models per dataset, rising from first to last dataset
    splits: tuple[int, int]  # splits per dataset, falling from the second value to the first
    # ragged: every dataset has splits[1] splits, and each model keeps a
    # random splits[0]..splits[1] of them (missing runs)
    ragged: bool
    decimals: int | None  # round scores to this many decimals (ties)
    pairing: str
    algorithm: str
    jobs: int
    lower_is_better: bool
    spearman_floor: float  # min Spearman(beta, true skill) per dataset

    def fit_flags(self, jobs: int | None = None) -> list[str]:
        flags = [
            "--pairing", self.pairing,
            "--algorithm", self.algorithm,
            "--jobs", str(self.jobs if jobs is None else jobs),
        ]
        if self.lower_is_better:
            flags.append("--lower-is-better")
        return flags


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cross_multi",
            why="several datasets, CROSS pairing, equal splits, --jobs 2: the dense "
            "O(m^2 s^2) counting kernel and CSV parsing dominate, as in real suites",
            n_datasets=4,
            models=(27, 135),
            splits=(90, 270),
            ragged=False,
            decimals=None,
            pairing="cross",
            algorithm="mm",
            jobs=2,
            lower_is_better=False,
            spearman_floor=0.98,
        ),
        Workload(
            name="ragged_ties",
            why="missing runs, 2-decimal error rates, --lower-is-better, Newton, "
            "--jobs 1: the per-pair ragged CROSS loop and tie counting dominate",
            n_datasets=4,
            models=(190, 190),
            splits=(15, 30),
            ragged=True,
            decimals=2,
            pairing="cross",
            algorithm="newton",
            jobs=1,
            lower_is_better=True,
            spearman_floor=0.9,
        ),
        Workload(
            name="sweep_paired",
            why="hyperparameter sweep, PAIRED folds, --jobs 2: match building is "
            "trivial; MM sweeps, the m x m covariance JSON and reports dominate",
            n_datasets=3,
            models=(240, 240),
            splits=(10, 10),
            ragged=False,
            decimals=None,
            pairing="paired",
            algorithm="mm",
            jobs=2,
            lower_is_better=False,
            spearman_floor=0.98,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at a size that runs in well under a second."""
    return replace(
        w,
        n_datasets=2,
        models=(8, 12),
        splits=(6, 8) if w.ragged else (8, 8),
        spearman_floor=0.5,  # a dozen models and eight splits rank loosely
    )
