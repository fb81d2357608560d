"""Pairwise match construction from per-split scores.

A match compares two models' scores; the higher score wins. Matches are
aggregated immediately into per-dataset win/count matrices, never stored
row by row: the downstream fit depends only on these sufficient statistics.

Both pairings count only ``gt[i, j]``, the matches i wins outright; ties
are ``n - gt - gt.T``, exactly: scores are finite (the table rejects the
rest), so each pair is one of >, < and ==, and counts stay below 2**53.

CROSS pairing (each split of model i against each split of model j) sorts
the dataset's N scores once with ``np.unique``; equal scores, ``-0.0`` and
``0.0`` included, share one run. A model-major (models x runs) count
matrix, cumulated along its contiguous runs axis, says how many of model
j's scores lie below each run; summing that per score's model gives
``gt`` in O(N log N + N * m), for equal or ragged split counts alike.
PAIRED pairing compares identical splits only, one (m x m) comparison per
split: O(m^2 s).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FileFormatError, PairedSplitsMismatchError, UndefinedWinRateError
from .jsonio import add_provenance, decode_array, encode_array, load_object, read_provenance
from .perf_table import PerformanceTable

# Cap on the elements of one CROSS chunk's temporaries. On a 2-vCPU x86
# machine, caps of 62.5k-1M counted m=100-2000, s=5-250 within 10% of each
# other (1M with up to 8 MB more memory); 4M was up to 1.6x slower, +20-40 MB.
_CHUNK_ELEMS = 250_000


class PairingMode(str, Enum):
    """CROSS compares every split pair (s^2 matches); PAIRED identical splits only (s)."""

    CROSS = "cross"
    PAIRED = "paired"


class TiePolicy(str, Enum):
    """HALF credits each side half a win on equal scores; DROP discards the match."""

    HALF = "half"
    DROP = "drop"


@dataclass
class PairwiseCounts:
    """Aggregated match ledger for one dataset.

    ``w[i, j]`` holds (possibly fractional) wins of model i over model j out
    of ``n[i, j]`` matches; both matrices have zero diagonals and satisfy
    ``w + w.T == n`` elementwise.

    Set by :func:`build_matches` (None when not known, as in files written
    before they existed): `source` records how the ledger was made, as
    ``{"sha256", "lower_is_better", "pairing", "ties"}`` (the table's digest
    and orientation, see :class:`PerformanceTable`), and ``mean_score[k]`` is
    ``table.mean_score(dataset_id, models[k])``, bit for bit.
    """

    dataset_id: str
    models: tuple[str, ...]
    w: np.ndarray
    n: np.ndarray
    source: dict | None = None
    mean_score: np.ndarray | None = None

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.n = np.asarray(self.n, dtype=float)
        m = len(self.models)
        if self.w.shape != (m, m) or self.n.shape != (m, m):
            raise ValueError("w and n must be m x m for m models")

    @property
    def n_models(self) -> int:
        return len(self.models)

    def model_index(self, model_id: str) -> int:
        try:
            return self.models.index(model_id)
        except ValueError:
            raise KeyError(f"unknown model {model_id!r}") from None

    def check_invariants(self, atol: float = 1e-9) -> None:
        """Raise if the ledger's accounting identities are violated."""
        if np.any(np.diag(self.w) != 0.0) or np.any(np.diag(self.n) != 0.0):
            raise ValueError("diagonal of w and n must be zero")
        if not np.allclose(self.w + self.w.T, self.n, atol=atol):
            raise ValueError("w[i,j] + w[j,i] must equal n[i,j]")
        if np.any(self.w < -atol) or np.any(self.w > self.n + atol):
            raise ValueError("w entries must lie in [0, n]")

    def to_json_text(self) -> str:
        obj = {
            "dataset": self.dataset_id,
            "models": list(self.models),
            "w": encode_array(self.w),
            "n": encode_array(self.n),
        }
        add_provenance(obj, self.source, self.mean_score)
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json_text(cls, text: str) -> "PairwiseCounts":
        """Parse a counts file; `FileFormatError` names what is malformed."""
        obj = load_object(text, ("dataset", "models", "w", "n"))
        try:
            models = tuple(obj["models"])
        except TypeError as exc:
            raise FileFormatError(f"malformed counts file ({exc})") from None
        shape = (len(models), len(models))
        return cls(
            dataset_id=obj["dataset"],
            models=models,
            w=decode_array(obj["w"], shape, "w"),
            n=decode_array(obj["n"], shape, "n"),
            **read_provenance(obj, len(models)),
        )


def _cross_counts(scores: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """CROSS greater-than counts from one sort of the dataset's scores.

    `scores` holds the models' scores one model after another, `sizes[k]`
    of them for model k.
    """
    k = len(sizes)
    # run[e]: rank of score e's distinct value; model[e]: the model it belongs to
    values, run = np.unique(scores, return_inverse=True)
    model = np.repeat(np.arange(k), sizes)
    starts = np.cumsum(sizes) - sizes
    gt = np.empty((k, k))
    cols = max(1, _CHUNK_ELEMS // len(run))
    for lo in range(0, k, cols):
        hi = min(lo + cols, k)
        part = slice(starts[lo], starts[hi - 1] + sizes[hi - 1])
        # c[j, r]: scores of model lo + j in run r; less[j, r]: those below it
        c = np.bincount(
            (model[part] - lo) * len(values) + run[part],
            minlength=(hi - lo) * len(values),
        ).reshape(hi - lo, len(values))
        less = np.cumsum(c, axis=1)
        less -= c
        # Sum each model's columns: its scores' wins against models lo:hi.
        gt[:, lo:hi] = np.add.reduceat(np.take(less, run, axis=1), starts, axis=1).T
    return gt


def _paired_counts(scores: np.ndarray) -> np.ndarray:
    """PAIRED greater-than counts for an (m, s) score matrix, split by split."""
    m = len(scores)
    gt = np.zeros((m, m))
    for col in scores.T:
        gt += col[:, None] > col[None, :]
    return gt


def build_matches(
    table: PerformanceTable,
    dataset_id: str,
    mode: PairingMode = PairingMode.CROSS,
    ties: TiePolicy = TiePolicy.HALF,
) -> PairwiseCounts:
    """Aggregate all pairwise score comparisons for one dataset.

    Only score orderings matter: any strictly increasing transform of the
    scores yields identical counts. Models are indexed in sorted-id order.
    The ledger records its `source` and the models' `mean_score`.
    """
    block = table.block(dataset_id)
    models = block.models
    m = len(models)

    if mode == PairingMode.PAIRED:
        split_codes, column = block.split_columns()
        # No model repeats a split, so a model has every split iff it has as many.
        offending = [models[k] for k in np.flatnonzero(block.sizes != len(split_codes))]
        if offending:
            raise PairedSplitsMismatchError(dataset_id, offending)
        scores = np.empty((m, len(split_codes)))
        scores[np.repeat(np.arange(m), block.sizes), column] = block.score
        gt = _paired_counts(scores)
        nmat = np.full((m, m), float(len(split_codes)))
    else:
        gt = _cross_counts(block.score, block.sizes)
        nmat = np.outer(block.sizes, block.sizes.astype(float))

    if ties == TiePolicy.HALF:
        # The ties, nmat - gt - gt.T, are exact: see the module docstring.
        w = gt + 0.5 * (nmat - gt - gt.T)
        n = nmat
    else:
        w, n = gt, gt + gt.T
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(n, 0.0)
    source = {
        "sha256": table.sha256,
        "lower_is_better": table.lower_is_better,
        "pairing": PairingMode(mode).value,
        "ties": TiePolicy(ties).value,
    }
    counts = PairwiseCounts(
        dataset_id=dataset_id, models=models, w=w, n=n,
        source=source, mean_score=table.mean_scores(dataset_id),
    )
    counts.check_invariants()
    return counts


def empirical_win_rate(counts: PairwiseCounts, i, j) -> float:
    """Observed win fraction w[i, j] / n[i, j]; models given by id or index."""
    ii = counts.model_index(i) if isinstance(i, str) else int(i)
    jj = counts.model_index(j) if isinstance(j, str) else int(j)
    n = counts.n[ii, jj]
    if n <= 0:
        raise UndefinedWinRateError(
            f"no matches recorded between {counts.models[ii]!r} and "
            f"{counts.models[jj]!r}"
        )
    return float(counts.w[ii, jj] / n)
