"""Long-format performance tables: parsing, validation, and indexing.

The canonical input is a tidy CSV with header ``dataset,model,algorithm,
split,score`` holding one performance value per (dataset, model, split).
Every CSV is read row by row through :class:`_Rows`, the one `csv.reader`
loop, except a scores CSV without ``"`` and NUL, which numpy tokenizes from
its bytes (:func:`_byte_columns`) into the same table.
"""

from __future__ import annotations

import codecs
import copy
import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import TableParseError, first_ids

SCORES_HEADER = ("dataset", "model", "algorithm", "split", "score")
HYPERPARAMS_HEADER = ("model", "parameter", "value")


class DatasetBlock(NamedTuple):
    """One dataset's rows, grouped by model.

    ``models`` are the dataset's model ids, sorted; ``sizes[k]`` is the
    number of rows of ``models[k]``. ``score`` and ``split`` hold the rows
    model by model, each model's rows in table order; ``split`` holds codes
    into ``split_ids``, the table's sorted split ids. ``order`` is the
    stable argsort of ``score``: the rows by score, equal scores by model
    and then in table order, the permutation ``np.lexsort((model, score))``
    gives.
    """

    models: tuple[str, ...]
    sizes: np.ndarray
    score: np.ndarray
    split: np.ndarray
    split_ids: tuple[str, ...]
    order: np.ndarray

    def split_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(the codes of the splits present, ascending; each row's position
        among them)."""
        present = np.bincount(self.split, minlength=len(self.split_ids)) > 0
        return np.flatnonzero(present), (np.cumsum(present) - 1)[self.split]


class PerformanceTable:
    """Immutable long-format scores, held as columns.

    Dataset, model, algorithm and split ids are integer codes into sorted
    tuples of labels, and the scores a float64 array, all in row order. One
    stable permutation groups the rows by (dataset, model), so a dataset's
    rows, and a model's within it, are contiguous slices of it. Row order
    does not affect semantics; non-finite scores, duplicated (dataset, model,
    split) triples and models labeled with two algorithms are rejected.

    `sha256` is the hex digest of the input a table was parsed from (set by
    :func:`parse_scores_csv`; None for tables built any other way), and
    `lower_is_better` is True once :meth:`negated` has flipped the scores.
    """

    sha256: str | None = None
    lower_is_better: bool = False

    def __init__(self, datasets, models, algorithms, splits, score, source=None):
        """Run each check once over the whole table.

        Each id column is a pair (sorted distinct labels, integer code of
        each row into them), as :func:`_factorize` gives, and `score` a
        float64 array, one entry per row. `source`, given by the CSV parser,
        supplies error line numbers and raw score fields.
        """
        self._datasets, dataset = datasets
        self._models, model = models
        self._algorithms, algorithm = algorithms
        self._splits, split = splits
        n_rows = len(score)

        bad = np.flatnonzero(~np.isfinite(score))
        if len(bad):
            i = int(bad[0])
            if source is not None:
                raise TableParseError(
                    f"non-finite score {source.raw_score(i)!r}", source.line(i)
                )
            raise TableParseError(
                f"non-finite score {float(score[i])!r} for ({self._datasets[dataset[i]]}, "
                f"{self._models[model[i]]}, {self._splits[split[i]]})"
            )

        # Group rows by (dataset, model); `group[r]` numbers row r's group.
        pair = dataset * len(self._models) + model
        order = np.argsort(pair, kind="stable")
        new_group = np.ones(n_rows, dtype=bool)
        new_group[1:] = pair[order[1:]] != pair[order[:-1]]
        starts = np.flatnonzero(new_group)
        group = np.empty(n_rows, dtype=np.intp)
        group[order] = np.cumsum(new_group) - 1

        # A triple seen before: the later rows of each run of equal keys.
        key = group * len(self._splits) + split
        by_key = np.argsort(key, kind="stable")
        repeats = by_key[1:][key[by_key[1:]] == key[by_key[:-1]]]
        if len(repeats):
            i = int(repeats.min())
            ids = (self._datasets[dataset[i]], self._models[model[i]], self._splits[split[i]])
            raise TableParseError(
                f"duplicate record for (dataset, model, split) = {ids}",
                None if source is None else source.line(i),
            )

        # Each model's algorithm is the one on its first row.
        _, first_row = np.unique(model, return_index=True)
        first_algorithm = algorithm[first_row]
        conflicts = np.flatnonzero(algorithm != first_algorithm[model])
        if len(conflicts):
            i = int(conflicts[0])
            raise TableParseError(
                f"model {self._models[model[i]]!r} labeled with two algorithms: "
                f"{self._algorithms[first_algorithm[model[i]]]!r} and "
                f"{self._algorithms[algorithm[i]]!r}"
            )

        self._dataset, self._model, self._algorithm, self._split = dataset, model, algorithm, split
        self._score = score
        self._order = order
        self._bounds = np.append(starts, n_rows)  # group g: order[bounds[g]:bounds[g + 1]]
        self._group_dataset = dataset[order[starts]]
        self._group_model = model[order[starts]]
        self._dataset_code = {d: k for k, d in enumerate(self._datasets)}
        self._model_algorithm = dict(
            zip(self._models, self._labels(self._algorithms, first_algorithm))
        )
        self._means = None  # per group, built on first use
        self._orders = {}  # dataset -> its block's score order, built on first use

    @property
    def algorithm_of(self) -> dict[str, str]:
        """Mapping model id -> algorithm label."""
        return dict(self._model_algorithm)

    def datasets(self) -> list[str]:
        return list(self._datasets)

    def block(self, dataset_id: str) -> DatasetBlock:
        """The dataset's rows grouped by model (see :class:`DatasetBlock`).
        Its score order is sorted once per dataset and kept."""
        g_lo, g_hi = self._dataset_groups(dataset_id)
        rows = self._order[self._bounds[g_lo]:self._bounds[g_hi]]
        score = self._score[rows]
        order = self._orders.get(dataset_id)
        if order is None:
            order = self._orders[dataset_id] = np.argsort(score, kind="stable")
        return DatasetBlock(
            models=tuple(self._labels(self._models, self._group_model[g_lo:g_hi])),
            sizes=np.diff(self._bounds[g_lo:g_hi + 1]),
            score=score,
            split=self._split[rows],
            split_ids=self._splits,
            order=order,
        )

    def mean_scores(self, dataset_id: str) -> dict[str, float]:
        """Model id -> mean score for each of the dataset's models, in the
        order of ``block(dataset_id).models``: the model's scores summed in
        table order by `sum`, over their count."""
        g_lo, g_hi = self._dataset_groups(dataset_id)
        models = self._labels(self._models, self._group_model[g_lo:g_hi])
        return dict(zip(models, self._group_means()[g_lo:g_hi]))

    def _dataset_groups(self, dataset_id: str) -> tuple[int, int]:
        """The range of the dataset's (dataset, model) groups."""
        try:
            d = self._dataset_code[dataset_id]
        except KeyError:
            raise KeyError(f"unknown dataset {dataset_id!r}") from None
        g_lo, g_hi = np.searchsorted(self._group_dataset, [d, d + 1]).tolist()
        return g_lo, g_hi

    def _group_means(self) -> list[float]:
        if self._means is None:
            values = self._score[self._order].tolist()
            bounds = self._bounds.tolist()
            self._means = [
                sum(values[lo:hi]) / (hi - lo) for lo, hi in zip(bounds, bounds[1:])
            ]
        return self._means

    def negated(self) -> "PerformanceTable":
        """Table with every score negated (lower-is-better measures)."""
        twin = copy.copy(self)
        twin._score = -self._score
        twin._means = None
        twin._orders = {}
        twin.lower_is_better = not self.lower_is_better
        return twin

    @staticmethod
    def _labels(labels: tuple[str, ...], codes: np.ndarray) -> list[str]:
        return list(map(labels.__getitem__, codes.tolist()))

    def __len__(self) -> int:
        return len(self._score)

    def _rows(self):
        """(dataset, model, algorithm, split, score) per row, in table order."""
        return zip(
            self._labels(self._datasets, self._dataset),
            self._labels(self._models, self._model),
            self._labels(self._algorithms, self._algorithm),
            self._labels(self._splits, self._split),
            self._score.tolist(),
        )

    def to_csv_text(self) -> str:
        return csv_text(
            SCORES_HEADER, ((d, m, a, s, repr(score)) for d, m, a, s, score in self._rows())
        )


def _factorize(values: list, clean=None) -> tuple[tuple[str, ...], np.ndarray]:
    """(sorted distinct labels, code of each value into them)."""
    first = dict.fromkeys(values)
    index = {v: k for k, v in enumerate(first)}
    codes = np.fromiter(map(index.__getitem__, values), np.intp, len(values))
    return _relabel(list(first), codes, clean)


def _relabel(raw: list, codes: np.ndarray, clean=None) -> tuple[tuple[str, ...], np.ndarray]:
    """:func:`_factorize` of the column ``raw[codes]``, `raw` holding each
    distinct raw value once: `clean` runs once per raw value, and raw values
    that clean to the same label share its code."""
    label = list(map(clean, raw)) if clean else raw
    labels = tuple(sorted(set(label)))
    rank = {lab: k for k, lab in enumerate(labels)}
    return labels, np.array([rank[lab] for lab in label], dtype=np.intp)[codes]


def sha256_of(data) -> str:
    """Hex sha256 of `data`: bytes as given, a str as its UTF-8 encoding."""
    import hashlib  # imported on first use: about 4 ms that start-up need not pay

    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _as_text(data) -> str:
    """The text of an input file (str or bytes) as a text-mode read gives
    it, decoded and line ends translated in one pass: strict UTF-8, which
    `json.loads` of bytes is not (it lets encoded surrogates through), every
    line end ``\\n``, and a leading BOM dropped."""
    if isinstance(data, str):
        stream = io.StringIO(data, newline=None)
    else:
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    return stream.read().lstrip("\ufeff")


class _Rows:
    """The non-blank rows of a CSV's text, as :func:`_as_text` gives it,
    whose header is `header`: each row a list of its fields as `csv.reader`
    reads them, unstripped. `line` is the 1-based line on which the row read
    last ends.

    Iterating checks the header, its fields stripped. A wrong header, a row
    without ``len(header)`` fields or a `csv.Error` (a field over
    `csv.field_size_limit()`, or on Python 3.10 a NUL byte) raises a
    :class:`TableParseError` at its line.
    """

    def __init__(self, text: str, header: tuple[str, ...]):
        self._reader = csv.reader(io.StringIO(text))
        self._header = header

    @property
    def line(self) -> int:
        return self._reader.line_num

    def __iter__(self):
        # Each row is yielded alone, its line read through `line` only by
        # the callers that need it: yielding (line, row) pairs made parsing
        # a quoted 100,000-row scores CSV about 6% slower.
        reader, header = self._reader, self._header
        try:
            first = next(reader, None)
            if first is None:
                raise TableParseError("empty input: missing header", 1)
            if tuple(h.strip() for h in first) != header:
                raise TableParseError(
                    f"expected header {','.join(header)!r}, got {','.join(first)!r}", 1
                )
            n = len(header)
            for row in reader:
                if len(row) != n:
                    if row:
                        raise TableParseError(
                            f"expected {n} columns, got {len(row)}", reader.line_num
                        )
                    continue
                yield row
        except csv.Error as exc:
            raise TableParseError(str(exc), reader.line_num) from None


def read_rows(data, header: tuple[str, ...]) -> list[tuple[int, list[str]]]:
    """(line, fields) for each non-blank row of a CSV (str or UTF-8 bytes),
    each field stripped; the header and rows are checked as :class:`_Rows`
    checks them."""
    rows = _Rows(_as_text(data), header)
    return [(rows.line, [f.strip() for f in row]) for row in rows]


class _Lines(list):
    """A file for `csv.writer` that keeps each row it writes, one per call."""

    write = list.append


def csv_text(header, rows) -> str:
    """CSV text of a header and rows, each row ending in ``\\n``: a float cell
    prints to 6 significant digits, None as an empty field, any other cell
    as given, and a field holding ``,``, ``"``, ``\\n`` or ``\\r`` is quoted."""
    # Before Python 3.12 csv quotes a line end only if the terminator holds
    # it, so rows are written ending in "\r\n" and cut to "\n".
    lines = _Lines()
    writer = csv.writer(lines, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(
        [format(v, ".6g") if isinstance(v, float) else v for v in row] for row in rows
    )
    return "".join([line[:-2] + "\n" for line in lines])


class _CsvSource:
    """Error details for the data rows of a scores CSV (str or UTF-8 bytes),
    found by decoding and reading it again: only a table that fails a check
    asks for them."""

    def __init__(self, data):
        self._data = data

    def _row(self, i: int) -> tuple[int, list[str]]:
        """(1-based line on which data row i ends, its fields); blank lines
        are not data rows."""
        rows = _Rows(_as_text(self._data), SCORES_HEADER)
        for row in itertools.islice(rows, i, None):
            return rows.line, row
        raise IndexError(i)

    def raw_score(self, i: int) -> str:
        return self._row(i)[1][4].strip()

    def line(self, i: int) -> int:
        return self._row(i)[0]


def _parse_scores(raw_scores: list[str], line) -> np.ndarray:
    """`float` of each stripped raw score; the first that fails, say that of
    row i, raises a :class:`TableParseError` at ``line(i)``."""
    try:
        return np.fromiter(
            map(float, map(str.strip, raw_scores)), dtype=float, count=len(raw_scores)
        )
    except ValueError:
        for i, raw in enumerate(map(str.strip, raw_scores)):
            try:
                float(raw)
            except ValueError:
                raise TableParseError(f"cannot parse score {raw!r}", line(i)) from None
        raise


def _csv_columns(text: str):
    """(dataset, model, algorithm, split, score) of a scores CSV read row by
    row with :class:`_Rows`: four (labels, codes) id columns, the ids
    stripped, and the float64 scores."""
    # Five flat lists of str: no per-row object outlives its loop iteration.
    datasets, models, algorithms, splits, raw_scores = [], [], [], [], []
    for dataset_id, model_id, algorithm, split_id, raw in _Rows(text, SCORES_HEADER):
        datasets.append(dataset_id)
        models.append(model_id)
        algorithms.append(algorithm)
        splits.append(split_id)
        raw_scores.append(raw)
    ids = [_factorize(column, str.strip) for column in (datasets, models, algorithms, splits)]
    return (*ids, _parse_scores(raw_scores, _CsvSource(text).line))


_COMMA, _NEWLINE = ord(","), ord("\n")

# Lines that _byte_columns tokenizes at once: its delimiter positions and
# windows grow with a chunk of this many lines, not with the file.
_CHUNK_LINES = 1 << 14


def _byte_columns(text: str, data: bytes):
    """:func:`_csv_columns` of a scores CSV that holds no ``"`` and no NUL,
    read with numpy from `data`, the UTF-8 encoding of `text`.

    Without quotes a row is one line and its fields lie between its commas,
    so these are the fields, and the line numbers, that `csv.reader` gives.
    NUL is excluded because fixed-width bytes drop trailing NULs.

    The lines are tokenized in chunks of `_CHUNK_LINES`: a chunk's
    delimiter positions, column-count and blank-line checks and zero-padded
    fixed-width cells come from its own bytes, and its scores are converted
    at once. Besides the columns it returns, a parse holds the line ends (8
    bytes a line), each id column's cells and one chunk's temporaries; the
    id columns are joined and coded one at a time. A field over
    `csv.field_size_limit()`, or fields so uneven that the fixed-width
    cells would outgrow the text fourfold, hand the text to
    :func:`_csv_columns`; the second is checked on the rows and widest
    fields so far before a chunk's cells are made, so such cells are never
    allocated.
    """
    next(iter(_Rows(text[:text.find("\n") + 1 or len(text)], SCORES_HEADER)), None)  # header check
    body = np.frombuffer(data, np.uint8)[data.find(b"\n") + 1 or len(data):]
    # Where each line ends: its line end, or the end of the bytes.
    ends = np.flatnonzero(body == _NEWLINE)
    if len(body) and body[-1] != _NEWLINE:
        ends = np.append(ends, len(body))
    # Each column's pieces, one a chunk; the empty first pieces let a table
    # without rows join too.
    ids = [[np.empty(0, "S1")] for _ in range(4)]
    scores = [np.empty(0)]
    deferred = []  # (piece, _parse_scores' arguments) of the chunks float64 refused
    widest = np.zeros(5, dtype=np.intp)
    n_rows = 0
    for a in range(0, len(ends), _CHUNK_LINES):
        lo = int(ends[a - 1]) + 1 if a else 0
        line_end = ends[a:a + _CHUNK_LINES] - lo
        chunk = body[lo:lo + int(line_end[-1])]
        fields = _chunk_fields(chunk, line_end, a + 2)
        if fields is None:
            return _csv_columns(text)
        width = fields[1]
        np.maximum(widest, width.max(axis=0, initial=0), out=widest)
        n_rows += len(width)
        if n_rows * int(widest.sum()) > 4 * len(body):  # say one long id among many rows
            return _csv_columns(text)
        *cells, score, raw = _chunk_cells(chunk, *fields, a + 2)
        # Nothing of this chunk but its pieces in `ids` is left for the next
        # chunk or the joins below: a join frees its column's pieces.
        del fields, width
        for column in ids:
            column.append(cells.pop(0))
        if raw is not None:
            deferred.append((len(scores), *raw))
        scores.append(score)

    # Parsed only now, so that a column-count error in a later chunk wins,
    # as on the csv.reader path.
    for k, raw, line in deferred:
        scores[k] = _parse_scores(raw, line)
    # Each id column joined (to its widest field), coded and dropped before the next.
    return (*[_code_fields(np.concatenate(ids.pop(0))) for _ in range(4)], np.concatenate(scores))


def _chunk_fields(chunk: np.ndarray, line_end: np.ndarray, first_line: int):
    """Where the fields of `chunk`, whole quote-free lines of a scores CSV,
    start in it and how wide they are, each a (rows, 5) array, and which of
    its lines are blank. `line_end` holds the offset at which each line
    ends, the last ``len(chunk)``, and `first_line` is the first line's
    number in the file. A line neither blank nor of 5 fields raises a
    :class:`TableParseError`; a field over `csv.field_size_limit()` returns
    None.
    """
    width = _field_ends(chunk, line_end)  # made each field's width below
    last = np.searchsorted(width, line_end)  # the last field of each line
    start = np.empty_like(width)
    start[0] = 0
    np.add(width[:-1], 1, out=start[1:])
    width -= start
    commas = np.diff(last, prepend=-1) - 1
    blank = (commas == 0) & (width[last] == 0)

    if width.max() > csv.field_size_limit():  # bytes: csv counts characters
        return None
    bad = np.flatnonzero((commas != 4) & ~blank).tolist()
    if bad:
        raise TableParseError(
            f"expected 5 columns, got {int(commas[bad[0]]) + 1}", first_line + bad[0]
        )

    if blank.any():
        keep = np.ones(len(width), dtype=bool)
        keep[last[blank]] = False
        start, width = start[keep], width[keep]
    return start.reshape(-1, 5), width.reshape(-1, 5), blank


def _chunk_cells(chunk, start, width, blank, first_line: int):
    """The four id columns' zero-padded fixed-width cells of `chunk`, its
    scores as float64 and None, or, if float64 refuses a score, None and
    the arguments of :func:`_parse_scores`. `start`, `width` and `blank`
    are what :func:`_chunk_fields` returns, and `first_line` is the first
    line's number in the file."""
    padded = np.concatenate((chunk, np.zeros(int(width.max(initial=0)) + 1, np.uint8)))
    ids = [_fixed_width(padded, start[:, c], width[:, c]) for c in range(4)]
    cells = _fixed_width(padded, start[:, 4], width[:, 4])
    try:
        return (*ids, cells.astype(np.float64), None)
    except ValueError:  # a score float() reads only once str.strip()ped, or none
        lines = (first_line + np.flatnonzero(~blank)).tolist()
        return (*ids, None, ([f.decode("utf-8") for f in cells.tolist()], lines.__getitem__))


def _field_ends(chunk: np.ndarray, line_end: np.ndarray) -> np.ndarray:
    """The offset of every comma and line end in `chunk`, each ending one
    field; the line ends are `line_end`, whose last is ``len(chunk)``."""
    ends = np.empty(len(chunk) + 1, dtype=bool)
    np.equal(chunk, _COMMA, out=ends[:-1])
    ends[line_end] = True
    return np.flatnonzero(ends)


def _fixed_width(padded: np.ndarray, start: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The fields ``padded[start:start + width]`` as a zero-padded bytes
    array; `padded` must hold ``max(width.max(), 1)`` bytes from each start."""
    w = max(int(width.max(initial=0)), 1)  # a column of empty fields has width 0
    cells = np.lib.stride_tricks.sliding_window_view(padded, w)[start]
    cells *= np.arange(w) < width[:, None]
    return cells.view(f"S{w}").ravel()


def _code_fields(cells: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """:func:`_factorize` of a bytes column, the ids stripped. Only run heads,
    the rows whose field differs from the row before, are sorted: a table
    grouped by an id has few."""
    heads = np.ones(len(cells), dtype=bool)
    heads[1:] = cells[1:] != cells[:-1]
    distinct, inverse = np.unique(cells[heads], return_inverse=True)
    raw = [f.decode("utf-8") for f in distinct.tolist()]
    return _relabel(raw, inverse[np.cumsum(heads) - 1], str.strip)


def _scores_columns(data: bytes):
    """The coded id columns and the scores of a scores CSV's UTF-8 bytes:
    :func:`_csv_columns` if it holds a ``"`` (quoting) or a NUL byte, else
    :func:`_byte_columns`, which reads `data` in place unless
    :func:`_as_text` changed it (a CR or a leading BOM)."""
    text = _as_text(data)
    if '"' in text or "\0" in text:
        return _csv_columns(text)
    if b"\r" in data or data.startswith(codecs.BOM_UTF8):
        data = text.encode("utf-8")
    return _byte_columns(text, data)


def parse_scores_csv(data) -> PerformanceTable:
    """Parse a scores CSV (str or UTF-8 bytes) into a :class:`PerformanceTable`
    whose `sha256` is :func:`sha256_of` the input.

    Raises :class:`TableParseError` with a 1-based line number for malformed
    rows, a str that UTF-8 cannot encode (a lone surrogate), unparsable or
    non-finite scores, and duplicated (dataset, model, split) triples.
    Input that holds a ``"`` (quoting) or a NUL byte is read with
    `csv.reader`, any other with numpy from its bytes (see
    :func:`_byte_columns` for the two cases it passes on); both give the
    same table and the same errors.
    """
    if isinstance(data, str):
        try:
            data = data.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise TableParseError(
                f"cannot encode {data[exc.start]!r} as UTF-8",
                _as_text(data[:exc.start]).count("\n") + 1,
            ) from None
    # The table's checks run without a decoded copy; its errors decode `data`.
    table = PerformanceTable(*_scores_columns(data), source=_CsvSource(data))
    table.sha256 = sha256_of(data)
    return table


@dataclass
class DatasetValidation:
    """Per-dataset summary produced by :func:`validate`. Its `warnings` are
    one line for all the models that miss splits (their number, the number
    of missing runs and the first 10 ids), one per constant model, and one
    for the exact ties."""

    dataset_id: str
    n_models: int
    split_ids: tuple[str, ...]
    missing_splits: dict[str, tuple[str, ...]] = field(default_factory=dict)
    constant_models: tuple[str, ...] = ()
    exact_tie_pairs: int = 0
    warnings: tuple[str, ...] = ()


def _pairs_in_runs(same: np.ndarray) -> int:
    """Number of row pairs within runs of sorted rows, ``same[i]`` telling
    whether row i + 1 continues the run of row i."""
    runs = np.diff(np.flatnonzero(np.concatenate(([True], ~same, [True]))))
    return int((runs * (runs - 1) // 2).sum())


def validate(table: PerformanceTable) -> tuple[DatasetValidation, ...]:
    """Report-only validation, one :class:`DatasetValidation` per dataset:
    split coverage, constant models, exact ties.

    The tie count reads each dataset's score order from
    :meth:`PerformanceTable.block`, the same order the CROSS counting
    kernel reads, so neither sorts the scores again.
    """
    summaries = []
    for ds in table.datasets():
        block = table.block(ds)
        models, sizes, score = block.models, block.sizes, block.score
        split_codes, column = block.split_columns()
        split_ids = tuple(block.split_ids[c] for c in split_codes.tolist())
        model_of_row = np.repeat(np.arange(len(models)), sizes)
        present = np.zeros((len(models), len(split_codes)), dtype=bool)
        present[model_of_row, column] = True
        starts = np.cumsum(sizes) - sizes
        constant = (sizes > 1) & (
            np.minimum.reduceat(score, starts) == np.maximum.reduceat(score, starts)
        )
        missing = {
            models[k]: tuple(split_ids[j] for j in np.flatnonzero(~present[k]).tolist())
            for k in np.flatnonzero(~present.all(axis=1)).tolist()
        }
        warnings: list[str] = []
        if missing:
            runs = sum(map(len, missing.values()))
            warnings.append(
                f"dataset {ds!r}: {len(missing)} model{'s' * (len(missing) != 1)} missing "
                f"splits ({runs} missing run{'s' * (runs != 1)}): {first_ids(missing)}"
            )
        constant_models = []
        for k in np.flatnonzero(constant).tolist():
            constant_models.append(models[k])
            warnings.append(
                f"dataset {ds!r}: model {models[k]!r} has a constant score "
                f"across {int(sizes[k])} splits"
            )
        # Bit-identical scores on different models are potential tie matches;
        # reported but never modified here (same-model duplicates are not,
        # since a model never plays itself). Equality is float equality, so
        # -0.0 and 0.0 are equal. In score order a model's equal scores are
        # adjacent within their run (see DatasetBlock.order).
        ranked = score[block.order]
        same_score = ranked[1:] == ranked[:-1]
        ranked_model = model_of_row[block.order]
        same_model = same_score & (ranked_model[1:] == ranked_model[:-1])
        tie_pairs = _pairs_in_runs(same_score) - _pairs_in_runs(same_model)
        if tie_pairs:
            warnings.append(
                f"dataset {ds!r}: {tie_pairs} pair{'s' * (tie_pairs != 1)} of exactly equal scores "
                "(potential ties)"
            )
        summaries.append(
            DatasetValidation(
                dataset_id=ds,
                n_models=len(models),
                split_ids=split_ids,
                missing_splits=missing,
                constant_models=tuple(constant_models),
                exact_tie_pairs=tie_pairs,
                warnings=tuple(warnings),
            )
        )
    return tuple(summaries)


class HyperparamTable:
    """Hyperparameter values per model: numeric or two-level categorical.

    A parameter must be consistently numeric or consistently categorical
    across models; categorical parameters may have at most two levels.
    `entries` are ``(line, model, parameter, value)`` tuples; a repeated
    (model, parameter) or a parameter that mixes kinds is reported at its
    `line` (None when not known).
    """

    def __init__(self, entries):
        values: dict[str, dict[str, float | str]] = {}
        kinds: dict[str, str] = {}
        for line, model_id, parameter, value in entries:
            per_param = values.setdefault(parameter, {})
            if model_id in per_param:
                raise TableParseError(
                    f"duplicate entry for (model, parameter) = "
                    f"({model_id}, {parameter})",
                    line,
                )
            kind = "numeric" if isinstance(value, float) else "categorical"
            prev = kinds.setdefault(parameter, kind)
            if prev != kind:
                raise TableParseError(
                    f"parameter {parameter!r} mixes numeric and categorical values", line
                )
            per_param[model_id] = value
        for parameter, per_param in values.items():
            if kinds[parameter] == "categorical":
                levels = sorted({str(v) for v in per_param.values()})
                if len(levels) > 2:
                    raise TableParseError(
                        f"categorical parameter {parameter!r} has "
                        f"{len(levels)} levels; at most two are supported"
                    )
        self._values = values
        self._kinds = kinds

    @property
    def parameters(self) -> list[str]:
        return sorted(self._values)

    @property
    def models(self) -> set[str]:
        out: set[str] = set()
        for per_param in self._values.values():
            out.update(per_param)
        return out

    def kind(self, parameter: str) -> str:
        """'numeric' or 'categorical'."""
        return self._kinds[parameter]

    def values(self, parameter: str) -> dict[str, float | str]:
        return dict(self._values[parameter])

    def levels(self, parameter: str) -> list[str]:
        """Sorted categorical levels of a parameter."""
        if self._kinds[parameter] != "categorical":
            raise ValueError(f"parameter {parameter!r} is numeric")
        return sorted({str(v) for v in self._values[parameter].values()})


def _parse_hyperparam_value(raw: str) -> float | str:
    try:
        value = float(raw)
    except ValueError:
        return raw
    return value if math.isfinite(value) else raw


def parse_hyperparams_csv(data) -> HyperparamTable:
    """Parse a hyperparameter CSV with header ``model,parameter,value``."""
    return HyperparamTable(
        (line, model_id, parameter, _parse_hyperparam_value(raw))
        for line, (model_id, parameter, raw) in read_rows(data, HYPERPARAMS_HEADER)
    )
