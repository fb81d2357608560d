"""Independent reference implementations used only to check the package.

Everything here is deliberately naive (double loops, grid searches, plain
formulas) and shares no code with the library paths under test.
"""

import math
from fractions import Fraction

import numpy as np

from eppscore.errors import TableParseError


def naive_pairwise_counts(score_lists, paired, half_ties):
    """Match counting by explicit double loop over split pairs.

    `score_lists` is a list of per-model score lists. Returns (w, n) arrays.
    """
    m = len(score_lists)
    w = np.zeros((m, m))
    n = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            if paired:
                pairs = list(zip(score_lists[i], score_lists[j]))
            else:
                pairs = [(a, b) for a in score_lists[i] for b in score_lists[j]]
            for a, b in pairs:
                if a > b:
                    w[i, j] += 1.0
                    n[i, j] += 1.0
                elif a < b:
                    n[i, j] += 1.0
                elif half_ties:
                    w[i, j] += 0.5
                    n[i, j] += 1.0
    return w, n


def loglik_plain(w, n, beta, lam=0.0):
    """Pairwise binomial log-likelihood written with scalar loops."""
    m = len(beta)
    total = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            if n[i][j] <= 0:
                continue
            d = beta[i] - beta[j]
            p = 1.0 / (1.0 + math.exp(-d)) if d >= 0 else math.exp(d) / (1 + math.exp(d))
            p = min(max(p, 1e-300), 1 - 1e-16)
            total += w[i][j] * math.log(p) + w[j][i] * math.log(1.0 - p)
    if lam > 0:
        total -= 0.5 * lam * sum(b * b for b in beta)
    return total


def finite_diff_gradient(w, n, beta, lam=0.0, h=1e-5):
    """Central finite differences of :func:`loglik_plain`."""
    beta = list(map(float, beta))
    grad = []
    for k in range(len(beta)):
        hi = list(beta)
        lo = list(beta)
        hi[k] += h
        lo[k] -= h
        grad.append((loglik_plain(w, n, hi, lam) - loglik_plain(w, n, lo, lam)) / (2 * h))
    return np.array(grad)


def golden_section_max(f, lo, hi, iters=200):
    """1-D maximizer of a unimodal function by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    for _ in range(iters):
        if f(c) > f(d):
            b = d
        else:
            a = c
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
    return 0.5 * (a + b)


def grid_search_2model(w, n, lo=-5.0, hi=5.0, steps=200001):
    """Argmax over a dense grid of the two-model likelihood in the difference."""

    def f(d):
        p = 1.0 / (1.0 + math.exp(-d))
        return w * math.log(p) + (n - w) * math.log(1.0 - p)

    grid = np.linspace(lo, hi, steps)
    values = [f(d) for d in grid]
    return float(grid[int(np.argmax(values))])


def projected_gradient_fit(w, n, lam, seed=0, starts=3, max_iter=60000, gtol=1e-9):
    """Multi-start projected gradient ascent with a safe fixed step."""
    m = len(w)
    rng = np.random.default_rng(seed)
    step = 1.0 / (2.0 * (np.asarray(n).sum(axis=1) / 4.0).max() + lam + 1.0)

    def grad(beta):
        d = beta[:, None] - beta[None, :]
        p = 1.0 / (1.0 + np.exp(-np.clip(d, -700, 700)))
        np.fill_diagonal(p, 0.0)
        return (w - n * p).sum(axis=1) - lam * beta

    best, best_value = None, -np.inf
    for s in range(starts):
        beta = np.zeros(m) if s == 0 else rng.uniform(-2.0, 2.0, m)
        for _ in range(max_iter):
            g = grad(beta)
            if np.max(np.abs(g)) <= gtol:
                break
            beta = beta + step * g
            beta -= beta.mean()
        value = loglik_plain(w, n, beta, lam)
        if value > best_value:
            best_value, best = value, beta
    return best - best.mean()


def exact_binomial_two_sided(k, n):
    """Exact two-sided binomial test p-value for p0 = 1/2 (2 * smaller tail)."""
    denom = Fraction(2) ** n
    upper = sum(Fraction(math.comb(n, x)) for x in range(k, n + 1)) / denom
    lower = sum(Fraction(math.comb(n, x)) for x in range(0, k + 1)) / denom
    return float(min(1, 2 * min(upper, lower)))


def spearman_rank_formula(x, y):
    """1 - 6 sum d^2 / (n(n^2-1)); valid only without ties."""
    n = len(x)
    rx = {v: r + 1 for r, v in enumerate(sorted(x))}
    ry = {v: r + 1 for r, v in enumerate(sorted(y))}
    d2 = sum((rx[a] - ry[b]) ** 2 for a, b in zip(x, y))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def mann_whitney_u_bruteforce(a, b):
    """U of sample a by explicit pair counting (ties count half)."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


class RowwiseTable:
    """Reference scores table: parsed row by row into nested dicts.

    This is the parser the columnar table replaced. The CSV parser's `seen`
    set catches duplicate triples row by row; this constructor then walks
    the rows again, checking scores, each model's algorithm and (for rows
    given directly) duplicates. `index` maps dataset -> model -> split ->
    score, each dict in file order; `rows` holds (dataset, model, algorithm,
    split, score) tuples in file order.
    """

    def __init__(self, rows):
        self.rows = list(rows)
        self.index = {}
        self.algorithm_of = {}
        for dataset, model, algorithm, split, score in self.rows:
            if not math.isfinite(score):
                raise TableParseError(
                    f"non-finite score {score!r} for ({dataset}, {model}, {split})"
                )
            first = self.algorithm_of.setdefault(model, algorithm)
            if first != algorithm:
                raise TableParseError(
                    f"model {model!r} labeled with two algorithms: {first!r} and {algorithm!r}"
                )
            by_split = self.index.setdefault(dataset, {}).setdefault(model, {})
            if split in by_split:
                raise TableParseError(
                    f"duplicate record for (dataset, model, split) = ({dataset}, {model}, {split})"
                )
            by_split[split] = score

    def mean_score(self, dataset, model):
        values = self.index[dataset][model]
        return sum(values.values()) / len(values)


def rowwise_parse_scores_csv(text):
    """Parse a scores CSV one row at a time (see :class:`RowwiseTable`)."""
    import csv
    import io

    text = text.replace("\r\n", "\n").replace("\r", "\n").lstrip("﻿")
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    expected = ["dataset", "model", "algorithm", "split", "score"]
    if [h.strip() for h in header] != expected:
        raise TableParseError(
            f"expected header {','.join(expected)!r}, got {','.join(header)!r}", 1
        )
    rows = []
    seen = set()
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != 5:
            raise TableParseError(f"expected 5 columns, got {len(row)}", line)
        dataset, model, algorithm, split, raw = (f.strip() for f in row)
        try:
            score = float(raw)
        except ValueError:
            raise TableParseError(f"cannot parse score {raw!r}", line) from None
        if not math.isfinite(score):
            raise TableParseError(f"non-finite score {raw!r}", line)
        key = (dataset, model, split)
        if key in seen:
            raise TableParseError(f"duplicate record for (dataset, model, split) = {key}", line)
        seen.add(key)
        rows.append((dataset, model, algorithm, split, score))
    return RowwiseTable(rows)


def rowwise_validate(table):
    """Per-dataset validation fields from the nested dicts, with sets and
    Counters: (dataset, n_models, split_ids, missing, constant, tie_pairs,
    warnings), datasets sorted."""
    from collections import Counter

    out = []
    for ds in sorted(table.index):
        by_model = table.index[ds]
        all_splits = set()
        for splits in by_model.values():
            all_splits.update(splits)
        warnings, missing, constant = [], {}, []
        everything, within = Counter(), 0
        for model in sorted(by_model):
            splits = by_model[model]
            absent = tuple(sorted(all_splits - set(splits)))
            if absent:
                missing[model] = absent
                warnings.append(
                    f"dataset {ds!r}: model {model!r} missing splits {', '.join(absent)}"
                )
            if len(set(splits.values())) == 1 and len(splits) > 1:
                constant.append(model)
                warnings.append(
                    f"dataset {ds!r}: model {model!r} has a constant score "
                    f"across {len(splits)} splits"
                )
            everything.update(splits.values())
            within += sum(c * (c - 1) // 2 for c in Counter(splits.values()).values())
        ties = sum(c * (c - 1) // 2 for c in everything.values()) - within
        if ties:
            warnings.append(
                f"dataset {ds!r}: {ties} pairs of exactly equal scores (potential ties)"
            )
        out.append(
            (ds, len(by_model), tuple(sorted(all_splits)), missing, tuple(constant), ties,
             tuple(warnings))
        )
    return out
