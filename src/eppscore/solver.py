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
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import FileFormatError, FitWarning, SeparationError
from .jsonio import decode_array, encode_array, load_object
from .match_engine import PairwiseCounts
from .special import sigmoid

_BETA_CLAMP = 350.0  # keeps exp(beta) finite when an unpenalized fit separates
_MM_STALL_CHECK = 20  # sweeps between stall checks; see _fit_mm
_FIT_KEYS = (
    "dataset", "models", "beta", "separation", "converged", "iterations",
    "log_likelihood", "covariance",
)


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
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be >= 0")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class EppScores:
    """Fitted scores for one dataset with diagnostics.

    `beta` is mean-centered. `covariance` is, per connected component, the
    inverse of the gauge-augmented negative Hessian ``H + c 11^T`` at the
    optimum, double-centered: H's inverse on the mean-zero subspace, rows
    summing to ~0 (older files held a pseudo-inverse form, off by up to a unit
    in the 6th `se` digit). `log_likelihood` is the unpenalized value at `beta`.
    Models that won or lost every match are flagged: their magnitudes depend
    on the ridge penalty, not the data alone.

    Solver diagnostics: `grad_norm` is the penalized-gradient max-norm of
    the last stop test (the largest over components), `rescue_steps` counts
    the Newton steps the MM path interleaved on stalls (0 for Newton), and
    `iterations_per_component` lists each connected component's iterations
    (0 for an isolated model). They are None when read from a file written
    before they existed.
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

    def model_index(self, model_id: str) -> int:
        try:
            return self.models.index(model_id)
        except ValueError:
            raise KeyError(f"unknown model {model_id!r}") from None

    def beta_of(self, model_id: str) -> float:
        return float(self.beta[self.model_index(model_id)])

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def to_csv_text(self) -> str:
        se = self.standard_errors()
        lines = ["model,beta,se,separation,converged"]
        for k, model in enumerate(self.models):
            lines.append(
                f"{model},{self.beta[k]:.6g},{se[k]:.6g},"
                f"{self.separation_flags[k].value},{str(self.converged).lower()}"
            )
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        obj = {
            "dataset": self.dataset_id,
            "models": list(self.models),
            "beta": self.beta.tolist(),
            "se": self.standard_errors().tolist(),
            "separation": [f.value for f in self.separation_flags],
            "converged": self.converged,
            "iterations": self.iterations,
            "iterations_per_component": (
                None
                if self.iterations_per_component is None
                else list(self.iterations_per_component)
            ),
            "grad_norm": self.grad_norm,
            "rescue_steps": self.rescue_steps,
            "log_likelihood": self.log_likelihood,
            "covariance": encode_array(self.covariance),
            "n_components": self.n_components,
            "algorithms": self.algorithms,
        }
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json_text(cls, text: str) -> "EppScores":
        """Parse a fit file; `FileFormatError` names what is malformed."""
        obj = load_object(text, _FIT_KEYS)
        try:
            models = tuple(obj["models"])
            m = len(models)
            flags = tuple(SeparationFlag(s) for s in obj["separation"])
            if len(flags) != m:
                raise FileFormatError(f"separation: {len(flags)} flags for {m} models")
            per_component = obj.get("iterations_per_component")
            return cls(
                dataset_id=obj["dataset"],
                models=models,
                beta=decode_array(obj["beta"], (m,), "beta"),
                converged=bool(obj["converged"]),
                iterations=int(obj["iterations"]),
                log_likelihood=float(obj["log_likelihood"]),
                covariance=decode_array(obj["covariance"], (m, m), "covariance"),
                separation_flags=flags,
                n_components=int(obj.get("n_components", 1)),
                algorithms=dict(obj.get("algorithms", {})),
                grad_norm=obj.get("grad_norm"),
                rescue_steps=obj.get("rescue_steps"),
                iterations_per_component=(
                    None if per_component is None else tuple(per_component)
                ),
            )
        except FileFormatError:
            raise
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"malformed fit file ({exc})") from None


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
    """Flag models that won or lost every match they played."""
    w, n = counts.w, counts.n
    unplayed = ~(n > 0)
    played_any = ~unplayed.all(axis=1)
    wins = played_any & ((w == n) | unplayed).all(axis=1)
    losses = played_any & ((w == 0.0) | unplayed).all(axis=1)
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
    backtracking over clipped, centered trials. Returns (beta, p, f) after it."""
    direction = _solve(_gauged_neg_hessian(n, p, lam), g)
    slope = float(g @ direction)
    # Below float-noise level the Armijo test is meaningless; take the step.
    take_any = abs(slope) <= 1e-10 * (1.0 + abs(f0))
    t = 1.0
    while t > 1e-13:
        trial = np.clip(beta + t * direction, -_BETA_CLAMP, _BETA_CLAMP)
        trial -= trial.mean()
        p_trial, f_trial = _evaluate(w, trial, lam)
        if take_any or f_trial >= f0 + 1e-4 * t * slope:
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


def _fit_newton(w, n, cfg: FitConfig, trace=None) -> _Fit:
    beta = np.zeros(n.shape[0])
    lam = cfg.ridge_lambda
    noise = _gradient_noise_floor(n)
    p, f = _evaluate(w, beta, lam)
    if trace is not None:
        trace.append(f)
    g = _gradient(w, n, p, beta, lam)
    for it in range(1, cfg.max_iter + 1):
        new_beta, p, f = _newton_step(w, n, beta, lam, p, f, g)
        delta = float(np.max(np.abs(new_beta - beta)))
        beta = new_beta
        if trace is not None:
            trace.append(f)
        g = _gradient(w, n, p, beta, lam)  # also the next step's gradient
        gnorm = float(np.max(np.abs(g)))
        if (delta <= cfg.tol and gnorm <= 10.0 * cfg.tol) or gnorm <= noise:
            return _Fit(beta, it, True, gnorm, 0)
    return _Fit(beta, cfg.max_iter, False, gnorm, 0)


def _mm_sums(n, beta):
    """``pi = exp(beta)`` and the MM rate ``rate_i = sum_j n_ij / (pi_i + pi_j)``."""
    pi = np.exp(beta)
    pair_sum = pi[:, None] + pi[None, :]
    np.fill_diagonal(pair_sum, 1.0)
    return pi, (n / pair_sum).sum(axis=1)


def _mm_grad(wins, pi, rate, beta, lam):
    """:func:`_gradient` from the MM sums in O(m): since
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
    rate: np.ndarray  # MM's rates, as from _mm_sums
    value: float  # penalized log-likelihood


def _newman_sums(w, wins, beta, lam, pair, scratch) -> _Sums:
    """The sums at `beta` from one m x m pass, in the buffers `pair` and
    `scratch`. Since ``n = w + w^T``, the rate is the row sums of ``s`` plus
    ``b``, and the log-likelihood is ``sum_i wins_i beta_i -
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
    """Per model, the centered, clipped solution u of ``c e^u + lam u = d``
    (exactly ``log(d / c)`` when lam == 0); convex scalar Newton."""
    u = np.log(np.maximum(d, 1e-300)) - np.log(c)
    if lam > 0.0:
        for _ in range(100):
            eu = np.exp(np.clip(u, -_BETA_CLAMP, _BETA_CLAMP))
            resid = c * eu + lam * u - d
            u_next = u - resid / (c * eu + lam)
            # far below the sweep tolerance; avoids last-ulp oscillation
            if float(np.max(np.abs(u_next - u))) < 1e-12:
                u = u_next
                break
            u = u_next
    u = np.clip(u, -_BETA_CLAMP, _BETA_CLAMP)
    return u - u.mean()


def _fit_mm(w, n, cfg: FitConfig, trace=None) -> _Fit:
    """Newman's iteration under a likelihood guard, with MM sweeps as its
    fallback, on aggregated counts.

    Newman's update (JMLR 24, 2023) sets ``pi_i = a_i / b_i``; with the ridge
    it solves ``b_i e^u + lam u = a_i``, the stationarity condition with the
    sums frozen. A model without wins or without losses (``a_i`` or ``b_i``
    zero) takes the MM coordinate instead. The proposal is kept unless it
    lowers the penalized log-likelihood by more than rounding; otherwise
    the iterate takes the MM sweep (Hunter, Ann. Stat. 2004) from the same
    sums, which maximizes a separable minorizer and so never lowers it.
    Newman's update alone 2-cycles with growing amplitude on some ledgers.

    An iterate makes one m x m pass (two when the proposal is refused):
    the sums at the new iterate give its stop-test gradient, its
    log-likelihood and the next proposal. When the gradient norm stalls, a
    safeguarded Newton step is interleaved, and from that first rescue on
    the component takes plain MM sweeps, whose pass needs only the rates:
    near separation Newman's proposals crawl, and kept on they ran a
    separated 12-model chain to `max_iter`.

    The benchmark's ledgers take 16-19 iterations where MM sweeps alone
    took 158-234. Dense near-separated ledgers (400 matches per pair,
    skills spread over +-5 or +-6) take 134-198, against MM's 161-181 plus
    3-4 rescues, and a pass here costs about two sweeps': those fits run
    1.2-1.5x slower than MM sweeps did, and ``--algorithm newton`` (8
    steps) is 2-4x faster than either.
    """
    m = n.shape[0]
    lam = cfg.ridge_lambda
    beta = np.zeros(m)
    wins = w.sum(axis=1)
    noise = _gradient_noise_floor(n)
    slack = 1e-13 * max(1.0, float(n.sum()))  # rounding of the summed value
    pair = np.empty((m, m))
    scratch = np.empty((m, m))
    if trace is not None:
        trace.append(_evaluate(w, beta, lam)[1])
    sums = _newman_sums(w, wins, beta, lam, pair, scratch)
    pi, rate = sums.pi, sums.rate
    stall_reference = np.inf
    rescues = 0
    for it in range(1, cfg.max_iter + 1):
        if sums is None:  # plain MM sweeps since the first rescue
            new_beta = _ridge_update(rate, wins, lam)
            pi, rate = _mm_sums(n, new_beta)
        else:
            mm_coordinate = (sums.a <= 0.0) | (sums.b <= 0.0)
            new_beta = _ridge_update(
                np.where(mm_coordinate, rate, sums.b),
                np.where(mm_coordinate, wins, sums.a),
                lam,
            )
            proposed = _newman_sums(w, wins, new_beta, lam, pair, scratch)
            if proposed.value < sums.value - slack:  # refused: MM sweep instead
                new_beta = _ridge_update(rate, wins, lam)
                proposed = _newman_sums(w, wins, new_beta, lam, pair, scratch)
            sums = proposed
            pi, rate = sums.pi, sums.rate
        delta = float(np.max(np.abs(new_beta - beta)))
        beta = new_beta
        if trace is not None:
            trace.append(_evaluate(w, beta, lam)[1])
        gnorm = float(np.max(np.abs(_mm_grad(wins, pi, rate, beta, lam))))
        if (delta <= cfg.tol and gnorm <= 10.0 * cfg.tol) or gnorm <= noise:
            return _Fit(beta, it, True, gnorm, rescues)
        if it % _MM_STALL_CHECK == 0:
            if gnorm > 0.5 * stall_reference:
                # The rescue takes the sigmoid-form gradient, so a rescued
                # iterate does not depend on the sums' last-ulp rounding.
                p, f = _evaluate(w, beta, lam)
                beta, _, f = _newton_step(w, n, beta, lam, p, f, _gradient(w, n, p, beta, lam))
                rescues += 1
                if trace is not None:
                    trace.append(f)
                sums = None
                pi, rate = _mm_sums(n, beta)
            stall_reference = gnorm
    return _Fit(beta, cfg.max_iter, False, gnorm, rescues)


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


def fit_epp(counts: PairwiseCounts, cfg: FitConfig | None = None) -> EppScores:
    """Fit mean-centered strength scores to a pairwise-count ledger.

    Disconnected comparison graphs are fitted per connected component (each
    centered to zero mean) with a :class:`FitWarning`. Non-convergence
    within ``cfg.max_iter`` returns a result with ``converged=False``.
    """
    cfg = cfg or FitConfig()
    m = counts.n_models
    w, n = counts.w, counts.n
    beta = np.zeros(m)
    covariance = np.zeros((m, m))
    components = _connected_components(n)
    if len(components) > 1:
        warnings.warn(
            f"dataset {counts.dataset_id!r}: comparison graph has "
            f"{len(components)} connected components; fitted separately",
            FitWarning,
            stacklevel=2,
        )
    fitter = _fit_mm if cfg.algorithm == FitAlgorithm.MM else _fit_newton
    converged = True
    grad_norm = 0.0
    rescue_steps = 0
    per_component = []
    for comp in components:
        if len(comp) == 1:
            per_component.append(0)
            continue  # isolated model keeps beta 0 and zero variance
        block = np.ix_(comp, comp)
        fit = fitter(w[block], n[block], cfg)
        beta[comp] = fit.beta - fit.beta.mean()
        converged = converged and fit.converged
        grad_norm = max(grad_norm, fit.grad_norm)
        rescue_steps += fit.rescue_steps
        per_component.append(fit.iterations)
    # Each component's block of p is its own probabilities at its scores.
    p, loglik = _evaluate(w, beta, 0.0)
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
    )
