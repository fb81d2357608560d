"""Pairwise match construction from per-split scores.

A match compares two models' scores; the higher score wins. Matches are
aggregated immediately into a per-dataset win matrix, never stored row by
row: the downstream fit depends only on this sufficient statistic.

Both pairings count only ``gt[i, j]``, the matches i wins outright; ties
are ``n - gt - gt.T``, exactly: scores are finite (the table rejects the
rest), so each pair is one of >, < and ==, and counts stay below 2**53.

CROSS pairing (each split of model i against each split of model j) reads
the dataset's N scores in their stable sorted order, which the table sorts
once and validation shares, and cuts it into blocks of about K scores
(K grows with m) that never split a run of equal scores, ``-0.0`` and
``0.0`` included. A score beats every score of an earlier block: with
``S[b, j]`` counting model j's scores in block b and ``P`` the exclusive
cumulative sum of ``S`` over blocks, those wins are ``gt += S.T @ P``, one
float64 GEMM per group of blocks. Within its block a score beats only the
scores below its run, at most K of them, counted with ``bincount``. That is
O(m^2 N / K) in the GEMMs and O(N K) in the pairs, for equal or ragged
split counts alike; every partial sum is an integer below 2**53, so ``gt``
is exact in any summation order, at any BLAS thread count.
PAIRED pairing compares identical splits only, one (m x m) comparison per
split, O(m^2 s), accumulated in ``uint16`` between float64 flushes.
"""

from __future__ import annotations

import json
import operator
from dataclasses import KW_ONLY, dataclass
from enum import Enum

import numpy as np

from .errors import FileFormatError, PairedSplitsMismatchError, UndefinedWinRateError
from .jsonio import COUNTS_FORMAT, PROVENANCE, decode_array, encode_array, load_object
from .perf_table import PerformanceTable

# Cap on the elements of one CROSS group's temporaries: S and P of a group
# of blocks, and the within-block pair codes of one bincount. Counting
# m=2000, s=500 normal scores on a 2-vCPU x86 machine with one BLAS thread,
# 2**18 took 4.8 s at a 121 MB traced peak, 2**20 3.7 s at 137 MB and
# 2**22 4.0 s at 183 MB.
_GROUP_ELEMS = 1 << 20

# uint16 holds the PAIRED comparisons of this many splits without overflow.
_PAIRED_FLUSH = np.iinfo(np.uint16).max


class ModelLookup:
    """The one model lookup of ledgers and fits, which hold their ids in `models`."""

    def model_index(self, model) -> int:
        """The position of `model`: its id, or an integer index in
        ``range(len(models))``, numpy integers included. An unknown id raises
        `KeyError`, any other index `IndexError`, negative ones included."""
        if isinstance(model, str):
            try:
                return self.models.index(model)
            except ValueError:
                raise KeyError(f"unknown model {model!r}") from None
        k = operator.index(model)
        if not 0 <= k < len(self.models):
            raise IndexError(f"model index {k} is not in range({len(self.models)})")
        return k


class PairingMode(str, Enum):
    """CROSS compares every split pair (s^2 matches); PAIRED identical splits only (s)."""

    CROSS = "cross"
    PAIRED = "paired"


class TiePolicy(str, Enum):
    """HALF credits each side half a win on equal scores; DROP discards the match."""

    HALF = "half"
    DROP = "drop"


@dataclass
class PairwiseCounts(ModelLookup):
    """Aggregated match ledger for one dataset.

    ``w[i, j]`` holds the (possibly fractional) wins of model i over model
    j, a tie half a win for each side; the diagonal is zero. The matches
    each pair played are ``n = w + w.T``, derived on each read of `n`.

    Set by :func:`build_matches` (None, and ``null`` in its file, when not
    known): `source` records how the ledger was made, as ``{"sha256",
    "lower_is_better", "pairing", "ties"}`` (the table's digest and
    orientation, see :class:`PerformanceTable`), and ``mean_score[k]`` is
    ``table.mean_scores(dataset_id)[models[k]]``, bit for bit.
    """

    dataset_id: str
    models: tuple[str, ...]
    w: np.ndarray
    _: KW_ONLY
    source: dict | None = None
    mean_score: np.ndarray | None = None

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        m = len(self.models)
        if self.w.shape != (m, m):
            raise ValueError("w must be m x m for m models")

    @property
    def n(self) -> np.ndarray:
        """Matches played by each pair, ``w + w.T``: a new m x m array."""
        return self.w + self.w.T

    @property
    def n_models(self) -> int:
        return len(self.models)

    def check_invariants(self, atol: float = 1e-9) -> None:
        """Raise unless `w`'s diagonal is zero and every entry finite and
        ``>= -atol`` (NaN fails both); whole-array reductions, no m x m temporary."""
        w = self.w
        if np.any(np.diag(w) != 0.0):
            raise ValueError("diagonal of w must be zero")
        if w.size and not (w.min() >= -atol and w.max() < np.inf):
            raise ValueError("w entries must be finite and >= 0")

    def to_json_text(self) -> str:
        obj = {
            "format": COUNTS_FORMAT,
            "dataset": self.dataset_id,
            "models": list(self.models),
            "w": encode_array(self.w),
            "source": self.source,
            "mean_score": None if self.mean_score is None else encode_array(self.mean_score),
        }
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json_text(cls, text: str) -> "PairwiseCounts":
        """Parse a counts file and check its ledger; `FileFormatError` names
        what is malformed or which identity breaks."""
        obj = load_object(text, COUNTS_FORMAT, _COUNTS_READERS)
        counts = cls(dataset_id=obj.pop("dataset"), **obj)
        try:
            counts.check_invariants()
        except ValueError as exc:
            raise FileFormatError(str(exc)) from None
        return counts


# The one JSON form of each key a counts file is read from.
_COUNTS_READERS = {"w": lambda value, m, key: decode_array(value, (m, m), key), **PROVENANCE}


def _block_size(m: int) -> int:
    """Scores per CROSS block for a dataset of m models.

    A block costs O(m^2) in the GEMM and each of its scores O(K) pairs, so
    the best K grows with m. On a 2-vCPU x86 machine with one BLAS thread
    the fastest K was about 8 at m=27, 16 at m=135, 32-64 at m=500 and
    64-141 at m=2000.
    """
    return 8 + m // 16


def _cross_counts(scores: np.ndarray, sizes: np.ndarray, order: np.ndarray) -> np.ndarray:
    """CROSS greater-than counts in sorted blocks (see the module docstring).

    `scores` holds the models' scores one model after another, `sizes[k]`
    of them for model k, and `order` is their stable argsort.
    """
    m, n = len(sizes), len(scores)
    k = _block_size(m)
    model = np.repeat(np.arange(m), sizes)[order]
    value = scores[order]
    # run_start[p]: where the run of equal scores holding sorted score p begins
    run_start = np.arange(n)
    run_start[1:][value[1:] == value[:-1]] = 0
    np.maximum.accumulate(run_start, out=run_start)
    # A run joins the block of the K-window its start lies in, so no block
    # splits a run and at most K scores of a block lie below a run.
    window = run_start // k
    new_block = np.ones(n, dtype=bool)
    new_block[1:] = window[1:] != window[:-1]
    del value, window
    bounds = np.append(np.flatnonzero(new_block), n)
    block = np.cumsum(new_block) - 1
    gt = np.zeros((m, m))

    # Within blocks: sorted score p beats the scores run_start[p] - d, for
    # d = 1 .. depth[p], the scores of its block below its run.
    depth = run_start - bounds[block]
    beats = np.flatnonzero(depth)
    parts, size, d = [], 0, 1
    while len(beats):
        parts.append(model[beats] * m + model[run_start[beats] - d])
        size += len(beats)
        d += 1
        beats = beats[depth[beats] >= d]
        if size >= _GROUP_ELEMS or not len(beats):
            gt += np.bincount(np.concatenate(parts), minlength=m * m).reshape(m, m)
            parts, size = [], 0
    del depth, run_start

    # Across blocks: S[b, j] counts model j's scores in block b, and P[b, j]
    # those in blocks before b, `below` carrying them from group to group.
    group = max(1, _GROUP_ELEMS // m)
    below = np.zeros(m)
    for b0 in range(0, len(bounds) - 1, group):
        b1 = min(b0 + group, len(bounds) - 1)
        lo, hi = bounds[b0], bounds[b1]
        s = np.bincount(
            (block[lo:hi] - b0) * m + model[lo:hi], minlength=(b1 - b0) * m
        ).reshape(b1 - b0, m).astype(float)
        p = np.cumsum(s, axis=0)
        p -= s
        p += below
        below = p[-1] + s[-1]
        gt += s.T @ p
    return gt


def _paired_counts(scores: np.ndarray) -> np.ndarray:
    """PAIRED greater-than counts for an (m, s) score matrix, split by split."""
    m = len(scores)
    gt = np.zeros((m, m))
    for lo in range(0, scores.shape[1], _PAIRED_FLUSH):
        wins = np.zeros((m, m), dtype=np.uint16)
        for col in scores.T[lo:lo + _PAIRED_FLUSH]:
            wins += col[:, None] > col[None, :]
        gt += wins
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
        gt = _cross_counts(block.score, block.sizes, block.order)
        nmat = np.outer(block.sizes, block.sizes.astype(float))

    if ties == TiePolicy.HALF:
        # The ties, nmat - gt - gt.T, are exact: see the module docstring.
        w = gt + 0.5 * (nmat - gt - gt.T)
    else:
        w = gt
    np.fill_diagonal(w, 0.0)
    source = {
        "sha256": table.sha256,
        "lower_is_better": table.lower_is_better,
        "pairing": PairingMode(mode).value,
        "ties": TiePolicy(ties).value,
    }
    counts = PairwiseCounts(
        dataset_id=dataset_id, models=models, w=w,
        source=source, mean_score=np.fromiter(table.mean_scores(dataset_id).values(), float, m),
    )
    counts.check_invariants()
    return counts


def empirical_win_rate(counts: PairwiseCounts, i, j) -> float:
    """Observed win fraction w[i, j] / n[i, j]; models given by id or index."""
    ii, jj = counts.model_index(i), counts.model_index(j)
    n = counts.w[ii, jj] + counts.w[jj, ii]
    if n <= 0:
        raise UndefinedWinRateError(
            f"no matches recorded between {counts.models[ii]!r} and "
            f"{counts.models[jj]!r}"
        )
    return float(counts.w[ii, jj] / n)
