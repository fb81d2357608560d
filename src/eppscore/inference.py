"""Probabilities and significance tests on fitted scores.

A caveat applies to every Wald p-value here: the fit's covariance treats
each match as an independent trial, and matches built from shared splits
are not. Under CROSS pairing the standard errors are several times too
small (on simulated tables the empirical SD of a score difference was
4-13x the mean reported SE, and 95% Wald coverage 0.14-0.37), so the stars
overstate significance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConstantInputError, DegenerateVarianceError
from .match_engine import PairwiseCounts
from .solver import EppScores, FitConfig, fit_epp, log_likelihood
from .special import chi2_sf_1df, sigmoid, t_sf_two_sided


class TestMethod(str, Enum):
    __test__ = False  # not a pytest class, despite the name

    WALD = "wald"
    LRT = "lrt"
    SPEARMAN = "spearman"
    MANN_WHITNEY = "mann_whitney"


def stars_for(p_value: float) -> str:
    """Significance stars: `*` iff p <= 0.05, `**` iff <= 0.01, `***` iff <= 0.001."""
    if p_value <= 0.001:
        return "***"
    if p_value <= 0.01:
        return "**"
    if p_value <= 0.05:
        return "*"
    return ""


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest class, despite the name

    statistic: float
    p_value: float
    method: TestMethod
    stars: str

    @classmethod
    def build(cls, statistic: float, p_value: float, method: TestMethod):
        return cls(
            statistic=float(statistic),
            p_value=float(p_value),
            method=method,
            stars=stars_for(p_value),
        )

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "method": self.method.value,
            "stars": self.stars,
        }


def win_probability(beta_i: float, beta_j: float) -> float:
    """Modeled probability that model i outscores model j: sigmoid(beta_i - beta_j)."""
    return float(sigmoid(float(beta_i) - float(beta_j)))


def prob_vs_average(beta_i: float) -> float:
    """Probability of beating a hypothetical average model (beta = 0).

    This is the quantity that stays comparable across datasets.
    """
    return win_probability(beta_i, 0.0)


def wald_test_difference(scores: EppScores, i, j) -> TestResult:
    """Two-sided Wald test of equal strengths for models i and j (ids or indices)."""
    (result,) = wald_tests(scores, [scores.model_index(i)], [scores.model_index(j)])
    return result


def wald_tests(scores: EppScores, i, j) -> list[TestResult]:
    """:func:`wald_test_difference` for each pair of model indices
    ``(i[k], j[k])``, in order; a pair of zero variance and nonzero
    difference raises `DegenerateVarianceError`, the first such pair."""
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    cov = scores.covariance
    diffs = (scores.beta[i] - scores.beta[j]).tolist()
    variances = (cov[i, i] + cov[j, j] - 2.0 * cov[i, j]).tolist()
    return [_wald_from_diff(d, v) for d, v in zip(diffs, variances)]


def wald_test_vs_average(scores: EppScores, i) -> TestResult:
    """Wald test of beta_i = 0, i.e. against the average model (i an id or index).

    The virtual average model contributes no variance (its covariance row
    is zero), so the standard error is just sqrt(cov[i, i]).
    """
    ii = scores.model_index(i)
    return _wald_from_diff(float(scores.beta[ii]), float(scores.covariance[ii, ii]))


def _wald_from_diff(diff: float, var: float) -> TestResult:
    if var <= 0.0:
        if diff == 0.0:
            return TestResult.build(0.0, 1.0, TestMethod.WALD)
        raise DegenerateVarianceError(
            f"zero variance for a nonzero difference {diff!r}"
        )
    z = diff / math.sqrt(var)
    return TestResult.build(z, _two_sided_normal_p(z), TestMethod.WALD)


def _two_sided_normal_p(z: float) -> float:
    # P(|Z| > |z|) in one erfc: 2 * norm_cdf(-|z|) would halve, then double,
    # a subnormal tail and lose its low bits.
    return math.erfc(abs(z) / math.sqrt(2.0))


def _merge_counts(counts: PairwiseCounts, ii: int, jj: int):
    """Collapse models ii and jj into one; self-matches between them drop out
    of the merged ledger but are accounted for separately at p = 1/2."""
    w = counts.w.copy()
    w[ii] += w[jj]
    w[:, ii] += w[:, jj]
    w[ii, ii] = 0.0
    keep = np.arange(counts.n_models) != jj
    merged = PairwiseCounts(
        dataset_id=counts.dataset_id,
        models=(*counts.models[:jj], *counts.models[jj + 1 :]),
        w=w[np.ix_(keep, keep)],
    )
    dropped = float(counts.w[ii, jj] + counts.w[jj, ii])
    return merged, dropped


def lr_test_difference(
    counts: PairwiseCounts, i, j, cfg: FitConfig | None = None
) -> TestResult:
    """Likelihood-ratio test of equal strengths for two models i and j (ids or indices).

    The restricted model merges the two models into one; the matches they
    played against each other then have probability 1/2 exactly and
    contribute -n_ij * log 2 to the restricted likelihood.
    """
    cfg = cfg or FitConfig()
    ii, jj = counts.model_index(i), counts.model_index(j)
    if ii == jj:
        raise ValueError("i and j must differ")
    full = fit_epp(counts, cfg)
    ll_full = log_likelihood(counts, full.beta)
    merged, dropped = _merge_counts(counts, ii, jj)
    restricted = fit_epp(merged, cfg)
    ll_restricted = log_likelihood(merged, restricted.beta) - dropped * math.log(2.0)
    statistic = max(2.0 * (ll_full - ll_restricted), 0.0)
    return TestResult.build(statistic, chi2_sf_1df(statistic), TestMethod.LRT)


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks starting at 1, tied values sharing the mean of their ranks, and
    the size of each run of equal values, in sorted order."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # A run of c values ending at 1-based position e holds ranks e-c+1..e.
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse], counts


def spearman(x, y) -> TestResult:
    """Spearman rank correlation with a two-sided t-approximation p-value.

    Ties receive mid-ranks; rho is the Pearson correlation of the ranks.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D vectors of equal length")
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ConstantInputError("correlation undefined for a constant vector")
    rx, _ = _midranks(x)
    ry, _ = _midranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    rho = float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = t_sf_two_sided(t, n - 2)
    return TestResult.build(rho, p, TestMethod.SPEARMAN)


def mann_whitney(a, b) -> TestResult:
    """Mann-Whitney U test (U of the first sample), two-sided.

    Uses mid-ranks for ties and the normal approximation with tie and
    continuity corrections. With every value tied the p-value is 1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or len(a) == 0 or len(b) == 0:
        raise ValueError("a and b must be nonempty 1-D vectors")
    na, nb = len(a), len(b)
    combined = np.concatenate([a, b])
    ranks, tie_counts = _midranks(combined)
    u_a = float(ranks[:na].sum() - na * (na + 1) / 2.0)
    total = na + nb
    tie_term = float(((tie_counts**3 - tie_counts).sum()) / (total * (total - 1)))
    var = na * nb / 12.0 * ((total + 1) - tie_term)
    mean = na * nb / 2.0
    if var <= 0.0:
        return TestResult.build(u_a, 1.0, TestMethod.MANN_WHITNEY)
    shift = u_a - mean
    z = (shift - 0.5 * np.sign(shift)) / math.sqrt(var)
    return TestResult.build(u_a, _two_sided_normal_p(z), TestMethod.MANN_WHITNEY)
