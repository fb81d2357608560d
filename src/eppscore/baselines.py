"""Validation baselines: classical sequential Elo and a synthetic generator.

The generator draws scores as ``skill + noise`` with a fully pinned-down
random stream: PCG64 uniforms (numpy) transformed by explicit formulas
(inverse CDF for Gumbel, Box-Muller for Gaussian), so a seed reproduces the
same table bit for bit anywhere. With standard Gumbel noise the probability
that model i outscores model j on independent splits is exactly
``sigmoid(skill_i - skill_j)``, making true score differences recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError
from .inference import spearman
from .perf_table import PerformanceTable, _factorize
from .solver import EppScores


@dataclass(frozen=True)
class EloConfig:
    initial_rating: float = 1000.0
    k_factor: float = 32.0
    scale: float = 400.0  # base-10 logistic scale

    def __post_init__(self):
        if not self.k_factor > 0:
            raise ConfigError(f"k_factor must be > 0, got {self.k_factor}")
        if not self.scale > 0:
            raise ConfigError(f"scale must be > 0, got {self.scale}")


def sequential_elo(
    matches, cfg: EloConfig | None = None, initial: dict[str, float] | None = None
) -> dict[str, float]:
    """Classical online Elo over an ordered list of (winner, loser) pairs.

    Ratings update after every match, so the same match multiset played in a
    different order generally yields different final ratings. Total rating
    points are conserved exactly (winner gain equals loser loss). `initial`
    seeds specific players; everyone else starts at ``cfg.initial_rating``.
    """
    cfg = cfg or EloConfig()
    ratings: dict[str, float] = dict(initial or {})
    for winner, loser in matches:
        r_w = ratings.setdefault(winner, cfg.initial_rating)
        r_l = ratings.setdefault(loser, cfg.initial_rating)
        expected_w = 1.0 / (1.0 + 10.0 ** ((r_l - r_w) / cfg.scale))
        delta = cfg.k_factor * (1.0 - expected_w)
        ratings[winner] = r_w + delta
        ratings[loser] = r_l - delta
    return ratings


class NoiseKind(str, Enum):
    GUMBEL = "gumbel"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground-truth generator spec; output is deterministic per seed."""

    skills: tuple[float, ...]
    n_splits: int
    noise: NoiseKind = NoiseKind.GUMBEL
    sigma: float = 1.0
    seed: int = 0
    dataset_id: str = "synthetic"

    def __post_init__(self):
        try:
            skills = tuple(map(float, self.skills))
        except ValueError as exc:
            raise ConfigError(f"skills must be numbers: {exc}") from None
        object.__setattr__(self, "skills", skills)
        object.__setattr__(self, "noise", NoiseKind(self.noise))
        if self.n_splits < 1:
            raise ConfigError(f"n_splits must be >= 1, got {self.n_splits}")
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def m(self) -> int:
        return len(self.skills)

    @classmethod
    def with_linear_skills(cls, m: int, low: float = -2.0, high: float = 2.0, **kw):
        """Spec with `m` skills equally spaced over [low, high]."""
        if m < 2:
            raise ConfigError(f"need at least 2 models, got {m}")
        skills = tuple(np.linspace(low, high, m))
        return cls(skills=skills, **kw)


def synthetic_model_id(i: int, m: int) -> str:
    width = max(3, len(str(m - 1)))
    return f"m{i:0{width}d}"


def _split_id(k: int, n_splits: int) -> str:
    width = max(3, len(str(n_splits - 1)))
    return f"s{k:0{width}d}"


def _noise_matrix(spec: SyntheticSpec) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    shape = (spec.m, spec.n_splits)
    if spec.noise == NoiseKind.GUMBEL:
        u = np.clip(rng.random(shape), 1e-300, None)
        return -np.log(-np.log(u))
    # Box-Muller from two uniform matrices drawn in a fixed order.
    u1 = np.clip(1.0 - rng.random(shape), 1e-300, None)
    u2 = rng.random(shape)
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return spec.sigma * z


def simulate_scores(spec: SyntheticSpec) -> PerformanceTable:
    """Performance table with score(model i, split k) = skills[i] + noise[i, k],
    its rows model by model, each model's in split order."""
    m, s = spec.m, spec.n_splits
    score = np.asarray(spec.skills)[:, None] + _noise_matrix(spec)
    return PerformanceTable(
        _factorize([spec.dataset_id] * (m * s)),
        _factorize([synthetic_model_id(i, m) for i in range(m) for _ in range(s)]),
        _factorize(["sim"] * (m * s)),
        _factorize([_split_id(k, s) for k in range(s)] * m),
        score.ravel(),
    )


def recovery_from_truth(
    fitted: EppScores, truth: dict[str, float]
) -> tuple[float, float]:
    """(max absolute error, Spearman rank correlation) of fitted scores vs a
    model -> true-skill map; both vectors are centered before comparison."""
    models = sorted(truth)
    truth_vec = np.array([truth[m] for m in models], dtype=float)
    fitted_vec = np.array([fitted.beta_of(m) for m in models])
    truth_c = truth_vec - truth_vec.mean()
    fitted_c = fitted_vec - fitted_vec.mean()
    max_abs = float(np.max(np.abs(fitted_c - truth_c)))
    rho = spearman(fitted_c, truth_c).statistic
    return max_abs, rho


def recovery_error(fitted: EppScores, spec: SyntheticSpec) -> tuple[float, float]:
    """Recovery of a :class:`SyntheticSpec`'s skills by a fit on its scores."""
    truth = {
        synthetic_model_id(i, spec.m): spec.skills[i] for i in range(spec.m)
    }
    return recovery_from_truth(fitted, truth)
