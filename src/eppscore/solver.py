"""Maximum-likelihood fit of per-model strength scores on pairwise counts.

The model is the classical Bradley-Terry / zero-intercept logistic model:
P(i beats j) = sigmoid(beta_i - beta_j). The fit maximizes the binomial
log-likelihood of the win counts, optionally ridge-penalized, and reports
mean-centered scores with covariance and separation diagnostics.
Fractional win counts (half-win tie credit) enter the same formulas
unchanged, making the objective a quasi-likelihood in that case.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .blas import single_thread
from .errors import FitWarning, SeparationError
from .jsonio import (BOOLEAN, FIT_FORMAT, INTEGER, INTEGERS, NUMBER, NUMBERS, PROVENANCE,
                     STRING_MAP, EncodedMatrix, encode_array, encode_symmetric, load_object,
                     load_symmetric, nullable, reader)
from .match_engine import ModelLookup, PairwiseCounts
from .perf_table import csv_text
from .special import sigmoid

_MM_STALL_CHECK = 20  # iterations between stall checks; see _fit_mm


class FitAlgorithm(str, Enum):
    MM = "mm"
    NEWTON = "newton"


class SeparationFlag(str, Enum):
    NONE = "none"
    ALL_WINS = "all_wins"
    ALL_LOSSES = "all_losses"


@dataclass
class FitConfig:
    """Optimizer settings.

    `tol` bounds the max absolute score change per iteration at convergence;
    the fit additionally requires the penalized gradient max-norm to fall
    below ``10 * tol`` so that reported optima are true stationary points.
    """

    algorithm: FitAlgorithm = FitAlgorithm.MM
    ridge_lambda: float = 1e-6
    tol: float = 1e-9
    max_iter: int = 10_000

    def __post_init__(self):
        self.algorithm = FitAlgorithm(self.algorithm)
        # Written so that NaN fails too: every comparison with NaN is false.
        if not 0 <= self.ridge_lambda < math.inf:
            raise ValueError(f"ridge_lambda must be finite and >= 0, got {self.ridge_lambda!r}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")


@dataclass
class EppScores(ModelLookup):
    """Fitted scores for one dataset with diagnostics.

    `beta` is mean-centered. `covariance` is, per connected component, the
    inverse of the gauge-augmented negative Hessian ``H + c 11^T`` at the
    optimum, double-centered: H's inverse on the mean-zero subspace, rows
    summing to ~0. A fit file's covariance is checked when the file is
    loaded and decoded on its first read. `log_likelihood` is the
    unpenalized value at `beta`.
    Models that won or lost every match are flagged: their magnitudes depend
    on the ridge penalty, not the data alone.

    Solver diagnostics: `grad_norm` is the penalized-gradient max-norm of
    the last stop test (the largest over components), `rescue_steps` counts
    the Newton steps the MM path took: every step of a component with a
    model that won or lost every match, which it hands to Newton's method
    from the start, and the steps after a refused or stalled Newman
    proposal (0 for Newton), and
    `iterations_per_component` lists each connected component's iterations
    (0 for an isolated model). `blas_threads` is the OpenBLAS thread count
    the fit's linear algebra ran on: 1, or None where the BLAS library
    offers no thread control (see :mod:`eppscore.blas`). They are None, and
    ``null`` in its file, for scores built other than by :func:`fit_epp`.

    Provenance, copied from the ledger by :func:`fit_epp` (None when the
    ledger does not record it): `source` is the ledger's ``source`` plus the
    fit's ``algorithm``, ``ridge_lambda``, ``tol`` and ``max_iter``, and
    `mean_score` the models' mean scores (see :class:`PairwiseCounts`).
    """

    dataset_id: str
    models: tuple[str, ...]
    beta: np.ndarray
    converged: bool
    iterations: int
    log_likelihood: float
    covariance: np.ndarray
    separation_flags: tuple[SeparationFlag, ...]
    n_components: int = 1
    algorithms: dict[str, str] = field(default_factory=dict)
    grad_norm: float | None = None
    rescue_steps: int | None = None
    iterations_per_component: tuple[int, ...] | None = None
    blas_threads: int | None = None
    source: dict | None = None
    mean_score: np.ndarray | None = None

    def beta_of(self, model) -> float:
        return float(self.beta[self.model_index(model)])

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def to_csv_text(self) -> str:
        se = self.standard_errors().tolist()
        converged = str(self.converged).lower()
        return csv_text(
            ("model", "beta", "se", "separation", "converged"),
            ((model, b, s, flag.value, converged)
             for model, b, s, flag in zip(self.models, self.beta.tolist(), se,
                                          self.separation_flags)),
        )

    def to_json_text(self) -> str:
        obj = {
            "format": FIT_FORMAT,
            "dataset": self.dataset_id,
            "models": list(self.models),
            "beta": self.beta.tolist(),
            "se": self.standard_errors().tolist(),
            "separation": [f.value for f in self.separation_flags],
            "converged": self.converged,
            "iterations": self.iterations,
            "iterations_per_component": self.iterations_per_component,  # a tuple or None
            "grad_norm": self.grad_norm,
            "rescue_steps": self.rescue_steps,
            "blas_threads": self.blas_threads,
            "log_likelihood": self.log_likelihood,
            "covariance": encode_symmetric(self.covariance),
            "n_components": self.n_components,
            "algorithms": self.algorithms,
            "source": self.source,
            "mean_score": None if self.mean_score is None else encode_array(self.mean_score),
        }
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json_text(cls, text: str) -> "EppScores":
        """Parse a fit file; `FileFormatError` names what is malformed."""
        obj = load_object(text, FIT_FORMAT, _FIT_READERS)
        return cls(dataset_id=obj.pop("dataset"), separation_flags=obj.pop("separation"), **obj)


# The one JSON form of each key a fit file is read from, in the order it is
# written; `se`, the square roots of the covariance's diagonal, is not read.
_FLAGS = {f.value: f for f in SeparationFlag}
_FIT_READERS = {
    "beta": NUMBERS,
    "separation": reader(
        lambda v, m: type(v) is list and len(v) == m and set(map(type, v)) <= {str}
        and set(v) <= _FLAGS.keys(),
        f"a list of one of {', '.join(_FLAGS)} per model", lambda v: tuple(map(_FLAGS.get, v)),
    ),
    "converged": BOOLEAN,
    "iterations": INTEGER,
    "iterations_per_component": nullable(INTEGERS),
    "grad_norm": nullable(NUMBER),
    "rescue_steps": nullable(INTEGER),
    "blas_threads": nullable(INTEGER),
    "log_likelihood": NUMBER,
    "covariance": load_symmetric,
    "n_components": INTEGER,
    "algorithms": STRING_MAP,
    **PROVENANCE,
}


def _read_covariance(self: EppScores) -> np.ndarray:
    if isinstance(self._covariance, EncodedMatrix):
        self._covariance = self._covariance.decode()  # drops the base64 text
    return self._covariance


def _write_covariance(self: EppScores, value: np.ndarray | EncodedMatrix) -> None:
    self._covariance = value


# Set after the class body, where a property would be taken for the
# dataclass field's default value.
EppScores.covariance = property(_read_covariance, _write_covariance)


def _evaluate(w: np.ndarray, beta: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    """``p[i, j] = sigmoid(beta_i - beta_j)`` (zero diagonal) and the penalized
    log-likelihood ``sum_ij w_ij log p_ij``: all the solvers need at one iterate."""
    p = sigmoid(beta[:, None] - beta[None, :])
    np.fill_diagonal(p, 0.0)
    terms = np.maximum(p, 1e-300)
    np.log(terms, out=terms)
    terms *= w
    value = float(terms.sum())
    if lam > 0.0:
        value -= 0.5 * lam * float(beta @ beta)
    return p, value


def _gradient(w, n, p, beta, lam) -> np.ndarray:
    """Penalized gradient at `beta`, whose probabilities are `p`."""
    g = (w - n * p).sum(axis=1)
    if lam > 0.0:
        g = g - lam * beta
    return g


def log_likelihood(counts: PairwiseCounts, beta, ridge_lambda: float = 0.0) -> float:
    """Binomial log-likelihood of the counts at `beta` (each unordered pair
    once), minus ``ridge_lambda/2 * ||beta||^2`` when the penalty is positive."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (counts.n_models,):
        raise ValueError(f"beta must have length {counts.n_models}")
    return _evaluate(counts.w, beta, ridge_lambda)[1]


def gradient(counts: PairwiseCounts, beta, ridge_lambda: float = 0.0) -> np.ndarray:
    """Gradient of :func:`log_likelihood` with respect to `beta`."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (counts.n_models,):
        raise ValueError(f"beta must have length {counts.n_models}")
    p, _ = _evaluate(counts.w, beta, ridge_lambda)
    return _gradient(counts.w, counts.n, p, beta, ridge_lambda)


def two_model_closed_form(w: float, n: float) -> tuple[float, float]:
    """Exact centered two-model solution: (logit(w/n)/2, -logit(w/n)/2).

    Raises :class:`SeparationError` when w is 0 or n (infinite estimate).
    """
    if not 0 < w < n:
        raise SeparationError(
            f"two-model estimate is infinite for w={w}, n={n} "
            "(one model wins every match)"
        )
    half = 0.5 * float(np.log(w / (n - w)))
    return half, -half


def detect_separation(counts: PairwiseCounts) -> tuple[SeparationFlag, ...]:
    """Flag models that won some match (half a win too) and lost none, or the reverse."""
    won = counts.w > 0
    beat_any, lost_any = won.any(axis=1), won.any(axis=0)
    wins, losses = beat_any & ~lost_any, lost_any & ~beat_any
    flag_of = (SeparationFlag.NONE, SeparationFlag.ALL_WINS, SeparationFlag.ALL_LOSSES)
    return tuple(flag_of[k] for k in (wins + 2 * losses).tolist())


def _connected_components(n: np.ndarray) -> list[np.ndarray]:
    """Components of the graph ``n > 0`` as sorted index arrays, ordered by
    smallest member, which labels each. The label spreads a whole frontier
    per step and reads each member's row once: O(m^2) for any graph shape."""
    adj = n > 0
    label = np.arange(len(n))
    unseen = adj.any(axis=1)
    for start in np.flatnonzero(unseen).tolist():
        if not unseen[start]:
            continue
        unseen[start] = False
        frontier = [start]
        while len(frontier):
            frontier = np.flatnonzero(adj[frontier].any(axis=0) & unseen)
            unseen[frontier] = False
            label[frontier] = start
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _gauged_neg_hessian(n, p, lam):
    """Negative Hessian (curvature Laplacian plus ridge) at probabilities `p`,
    plus ``(trace of the Laplacian / m^2) * 11^T``. That gauge term keeps it
    nonsingular when lam == 0 and moves only the all-ones eigenvalue."""
    m = len(p)
    h = n * p
    h *= 1.0 - p
    degree = h.sum(axis=1)
    gauge = max(float(degree.sum()), 1.0) / m / m
    np.negative(h, out=h)
    h += gauge
    np.fill_diagonal(h, degree + lam + gauge)
    return h


def _solve(h, rhs):
    try:
        return np.linalg.solve(h, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(h, rhs, rcond=None)[0]


def _newton_step(w, n, beta, lam, p, f0, g):
    """One ascent-guaranteed Newton step from `beta`, whose probabilities,
    penalized log-likelihood and gradient are `p`, `f0`, `g`: Armijo
    backtracking over centered trials. Returns (beta, p, f) after
    it, or the inputs unchanged when no trial ascends."""
    direction = _solve(_gauged_neg_hessian(n, p, lam), g)
    slope = float(g @ direction)
    # Below float-noise level the Armijo test is meaningless: accept a trial
    # unless it lowers the likelihood by more than rounding. A long step
    # along a nearly flat direction can have such a slope and still fall.
    flat = abs(slope) <= 1e-10 * (1.0 + abs(f0))
    t = 1.0
    while t > 1e-13:
        trial = beta + t * direction
        trial -= trial.mean()
        p_trial, f_trial = _evaluate(w, trial, lam)
        if f_trial >= (f0 - 1e-12 * (1.0 + abs(f0)) if flat else f0 + 1e-4 * t * slope):
            return trial, p_trial, f_trial
        t *= 0.5
    return beta, p, f0


def _gradient_noise_floor(n: np.ndarray) -> float:
    # A gradient entry accumulates ~sum_j n_ij; below a few ulps of that
    # scale no float64 iterate can certify further progress.
    return max(1.0, float(n.sum(axis=1).max())) * 2.0**-46


class _Fit(NamedTuple):
    """One component's optimizer result; `grad_norm` is the penalized
    gradient max-norm that the last stop test saw."""

    beta: np.ndarray
    iterations: int
    converged: bool
    grad_norm: float
    rescue_steps: int


def _fit_newton(w, n, cfg: FitConfig, trace=None, beta=None, spent=0) -> _Fit:
    """Newton's method from `beta` (zero by default), with the `spent`
    iterations already made counted against ``cfg.max_iter``.

    A step that leaves the scores unchanged (no trial of its line search
    ascends) ends an unconverged fit at once: every later step would start
    from the same inputs and repeat it."""
    beta = np.zeros(n.shape[0]) if beta is None else beta
    lam = cfg.ridge_lambda
    noise = _gradient_noise_floor(n)
    p, f = _evaluate(w, beta, lam)
    if trace is not None:
        trace.append(f)
    g = _gradient(w, n, p, beta, lam)
    gnorm = float(np.max(np.abs(g)))
    for it in range(spent + 1, cfg.max_iter + 1):
        new_beta, p, f = _newton_step(w, n, beta, lam, p, f, g)
        delta = float(np.max(np.abs(new_beta - beta)))
        beta = new_beta
        if trace is not None:
            trace.append(f)
        g = _gradient(w, n, p, beta, lam)  # also the next step's gradient
        gnorm = float(np.max(np.abs(g)))
        if (delta <= cfg.tol and gnorm <= 10.0 * cfg.tol) or gnorm <= noise:
            return _Fit(beta, it, True, gnorm, 0)
        if delta == 0.0:
            return _Fit(beta, it, False, gnorm, 0)
    return _Fit(beta, cfg.max_iter, False, gnorm, 0)


def _mm_grad(wins, pi, rate, beta, lam):
    """:func:`_gradient` from the sums in O(m): since
    ``sigmoid(beta_i - beta_j) = pi_i / (pi_i + pi_j)``, the expected wins
    ``sum_j n_ij * sigmoid(beta_i - beta_j)`` equal ``pi_i * rate_i``."""
    g = wins - pi * rate
    if lam > 0.0:
        g = g - lam * beta
    return g


class _Sums(NamedTuple):
    """What one pass over ``s_ij = w_ij / (pi_i + pi_j)`` gives at an iterate
    ``beta`` (``pi = exp(beta)``; see :func:`_newman_sums`)."""

    pi: np.ndarray
    a: np.ndarray  # Newman's numerators, sum_j s_ij pi_j
    b: np.ndarray  # Newman's denominators, sum_j s_ji
    rate: np.ndarray  # MM's rates, sum_j n_ij / (pi_i + pi_j)
    value: float  # penalized log-likelihood


def _newman_sums(w, wins, beta, lam, pair, scratch) -> _Sums:
    """The sums at `beta` from one m x m pass, in the buffers `pair` and
    `scratch`. The matches are ``n = w + w^T``, so the rate is the row sums
    of ``s`` plus ``b``, and the log-likelihood is ``sum_i wins_i beta_i -
    sum_ij w_ij log(pi_i + pi_j)``. No BLAS call (`einsum` without
    `optimize` has its own loops), so the bits do not depend on the BLAS
    thread count."""
    pi = np.exp(beta)
    np.add(pi[:, None], pi[None, :], out=pair)
    np.fill_diagonal(pair, 1.0)  # w's zero diagonal zeroes both terms there
    np.log(pair, out=scratch)
    scratch *= w
    value = float((wins * beta).sum()) - float(scratch.sum())
    if lam > 0.0:
        value -= 0.5 * lam * float((beta * beta).sum())
    np.divide(w, pair, out=pair)
    b = pair.sum(axis=0)
    rate = pair.sum(axis=1)
    rate += b
    return _Sums(pi, np.einsum("ij,j->i", pair, pi), b, rate, value)


def _ridge_update(c, d, lam):
    """Per model, the centered solution u of ``c e^u + lam u = d`` for
    positive `c` and `d` (exactly ``log(d / c)`` when lam == 0); convex
    scalar Newton."""
    u = np.log(d) - np.log(c)
    if lam > 0.0:
        for _ in range(100):
            eu = np.exp(u)
            resid = c * eu + lam * u - d
            u_next = u - resid / (c * eu + lam)
            # far below the sweep tolerance; avoids last-ulp oscillation
            if float(np.max(np.abs(u_next - u))) < 1e-12:
                u = u_next
                break
            u = u_next
    return u - u.mean()


def _fit_mm(w, n, cfg: FitConfig, trace=None) -> _Fit:
    """Newman's iteration under a likelihood guard, on aggregated counts,
    handing a separated, refused or stalled component to Newton's method.

    Newman's update (JMLR 24, 2023) sets ``pi_i = a_i / b_i``; with the ridge
    it solves ``b_i e^u + lam u = a_i``, the stationarity condition with the
    sums frozen. An iterate makes one m x m pass: the sums at the proposal
    give its log-likelihood, its stop-test gradient and the next proposal.

    The ratio is undefined for a model without wins (``a_i = 0``) or without
    losses (``b_i = 0``), so a component that holds one goes to
    :func:`_fit_newton` from zero before any proposal. Newman's update alone
    2-cycles with growing amplitude on some ledgers, and near separation it
    crawls. So at the first proposal that lowers the penalized
    log-likelihood by more than rounding, or the first time the gradient
    norm fails to halve over `_MM_STALL_CHECK` iterations, the fit goes on
    as :func:`_fit_newton` from the last accepted iterate. The iterations
    made count against `max_iter`, and the Newton steps are the result's
    `rescue_steps`.

    The benchmark's ledgers take 16-19 iterations and never hand off.
    """
    m = n.shape[0]
    lam = cfg.ridge_lambda
    beta = np.zeros(m)
    wins = w.sum(axis=1)
    it = 0
    if wins.all() and w.sum(axis=0).all():
        noise = _gradient_noise_floor(n)
        slack = 1e-13 * max(1.0, float(n.sum()))  # rounding of the summed value
        pair = np.empty((m, m))
        scratch = np.empty((m, m))
        if trace is not None:
            trace.append(_evaluate(w, beta, lam)[1])
        sums = _newman_sums(w, wins, beta, lam, pair, scratch)
        stall_reference = np.inf
        for it in range(1, cfg.max_iter + 1):
            new_beta = _ridge_update(sums.b, sums.a, lam)
            proposed = _newman_sums(w, wins, new_beta, lam, pair, scratch)
            if proposed.value < sums.value - slack:
                break  # refused
            sums = proposed
            delta = float(np.max(np.abs(new_beta - beta)))
            beta = new_beta
            if trace is not None:
                trace.append(_evaluate(w, beta, lam)[1])
            gnorm = float(np.max(np.abs(_mm_grad(wins, sums.pi, sums.rate, beta, lam))))
            if (delta <= cfg.tol and gnorm <= 10.0 * cfg.tol) or gnorm <= noise:
                return _Fit(beta, it, True, gnorm, 0)
            if it % _MM_STALL_CHECK == 0:
                if gnorm > 0.5 * stall_reference:
                    break  # stalled
                stall_reference = gnorm
        else:
            return _Fit(beta, cfg.max_iter, False, gnorm, 0)
    fit = _fit_newton(w, n, cfg, trace, beta, spent=it)
    return fit._replace(rescue_steps=fit.iterations - it)


def _covariance(n, p, lam):
    """Inverse of the negative Hessian on the mean-zero subspace: the gauged
    matrix's inverse, double-centered in O(m^2). No eigenvalue is inverted
    only to be cancelled, as the ridge's would be by a pseudo-inverse."""
    inv = _solve(_gauged_neg_hessian(n, p, lam), np.identity(len(p)))
    cov = inv + inv.T
    cov *= 0.5
    mean = cov.mean(axis=1)
    cov -= mean[:, None] + mean[None, :]
    cov += mean.mean()
    return cov


def disconnected_warning(dataset_id: str, n_components: int) -> str:
    """The text of :func:`fit_epp`'s `FitWarning`, which `epp fit` prints itself."""
    return (f"dataset {dataset_id!r}: comparison graph has {n_components} connected "
            "components; fitted separately")


def fit_epp(counts: PairwiseCounts, cfg: FitConfig | None = None) -> EppScores:
    """Fit mean-centered strength scores to a pairwise-count ledger.

    Disconnected comparison graphs are fitted per connected component (each
    centered to zero mean) with a :class:`FitWarning`. Non-convergence
    within ``cfg.max_iter`` returns a result with ``converged=False``.
    """
    cfg = cfg or FitConfig()
    m = counts.n_models
    w, n = counts.w, counts.n  # n = w + w.T, derived once per fit
    beta = np.zeros(m)
    components = _connected_components(n)
    if len(components) > 1:
        warnings.warn(
            disconnected_warning(counts.dataset_id, len(components)), FitWarning, stacklevel=2
        )
    # A component of all m models is fitted on the ledger itself; only the
    # blocks of a split ledger are copied out and their covariances back.
    whole = len(components) == 1 and m > 1
    fitter = _fit_mm if cfg.algorithm == FitAlgorithm.MM else _fit_newton
    converged = True
    grad_norm = 0.0
    rescue_steps = 0
    per_component = []
    with single_thread() as blas_threads:
        for comp in components:
            if len(comp) == 1:
                per_component.append(0)
                continue  # isolated model keeps beta 0 and zero variance
            block = ... if whole else np.ix_(comp, comp)
            fit = fitter(w[block], n[block], cfg)
            beta[comp] = fit.beta - fit.beta.mean()
            converged = converged and fit.converged
            grad_norm = max(grad_norm, fit.grad_norm)
            rescue_steps += fit.rescue_steps
            per_component.append(fit.iterations)
        # Each component's block of p is its own probabilities at its scores.
        p, loglik = _evaluate(w, beta, 0.0)
        if whole:
            covariance = _covariance(n, p, cfg.ridge_lambda)
        else:
            covariance = np.zeros((m, m))
            for comp in components:
                if len(comp) > 1:
                    block = np.ix_(comp, comp)
                    covariance[block] = _covariance(n[block], p[block], cfg.ridge_lambda)
    return EppScores(
        dataset_id=counts.dataset_id,
        models=counts.models,
        beta=beta,
        converged=converged,
        iterations=max(per_component, default=0),
        log_likelihood=loglik,
        covariance=covariance,
        separation_flags=detect_separation(counts),
        n_components=len(components),
        grad_norm=grad_norm,
        rescue_steps=rescue_steps,
        iterations_per_component=tuple(per_component),
        blas_threads=blas_threads,
        source=None if counts.source is None else {
            **counts.source,
            "algorithm": cfg.algorithm.value,
            "ridge_lambda": cfg.ridge_lambda,
            "tol": cfg.tol,
            "max_iter": cfg.max_iter,
        },
        mean_score=counts.mean_score,
    )
