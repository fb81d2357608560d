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


def whole_matrix_invariant_error(w, atol=1e-9):
    """The message `PairwiseCounts.check_invariants` raises for `w`, or
    None: its identities as whole-matrix expressions, checked in turn."""
    if np.any(np.diag(w) != 0.0):
        return "diagonal of w must be zero"
    if not np.all(np.isfinite(w)) or np.any(w < -atol):
        return "w entries must be finite and >= 0"
    return None


def separation_from_matches(w, n):
    """`detect_separation`'s former formula, read from the wins and the
    matches: a model that played and whose every played pair it won whole
    (``w == n``) or lost whole (``w == 0``). Flag values as strings."""
    unplayed = ~(n > 0)
    played_any = ~unplayed.all(axis=1)
    wins = played_any & ((w == n) | unplayed).all(axis=1)
    losses = played_any & ((w == 0.0) | unplayed).all(axis=1)
    flag_of = ("none", "all_wins", "all_losses")
    return tuple(flag_of[k] for k in (wins + 2 * losses).tolist())


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


def bisect_root(f, lo, hi, iters=200):
    """Root of an increasing function on [lo, hi] by bisection."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def scalar_wald(beta, cov, i, j):
    """(z, p) of the two-sided Wald test of beta_i = beta_j, in plain floats
    one pair at a time; (0, 1) for zero variance and zero difference, None
    for zero variance and a nonzero one."""
    diff = float(beta[i]) - float(beta[j])
    var = (float(cov[i][i]) + float(cov[j][j])) - 2.0 * float(cov[i][j])
    if var <= 0.0:
        return (0.0, 1.0) if diff == 0.0 else None
    z = diff / math.sqrt(var)
    return z, math.erfc(abs(z) / math.sqrt(2.0))


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


def position_midranks(values):
    """Each value's rank: the mean 1-based position, in sorted order, of the
    values equal to it."""
    ordered = sorted(values)
    ranks = []
    for v in values:
        positions = [pos for pos, u in enumerate(ordered, start=1) if u == v]
        ranks.append(sum(positions) / len(positions))
    return np.array(ranks)


def loop_merge_counts(w, n, models, ii, jj):
    """Models ii and jj merged into one, by a loop over the other models:
    (w, n, models, n[ii, jj]) of the merged ledger, ii's row and column
    holding the sums and jj's dropped."""
    keep = [k for k in range(len(models)) if k != jj]
    mw = w[np.ix_(keep, keep)].copy()
    mn = n[np.ix_(keep, keep)].copy()
    pos = keep.index(ii)
    for mpos, k in enumerate(keep):
        if k == ii:
            continue
        mw[pos, mpos] = w[ii, k] + w[jj, k]
        mw[mpos, pos] = w[k, ii] + w[k, jj]
        mn[pos, mpos] = n[ii, k] + n[jj, k]
        mn[mpos, pos] = mn[pos, mpos]
    mw[pos, pos] = 0.0
    mn[pos, pos] = 0.0
    return mw, mn, tuple(models[k] for k in keep), float(n[ii, jj])


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


def rowwise_simulated_scores_csv(spec, noise):
    """The scores CSV of a synthetic spec, written one row per loop step:
    model i's score on split k is ``skills[i] + noise[i][k]``, rows model by
    model, ids zero-padded to at least three digits."""
    m, n_splits = len(spec.skills), spec.n_splits
    model_width = max(3, len(str(m - 1)))
    split_width = max(3, len(str(n_splits - 1)))
    lines = ["dataset,model,algorithm,split,score"]
    for i in range(m):
        for k in range(n_splits):
            score = float(spec.skills[i]) + float(noise[i][k])
            lines.append(
                f"{spec.dataset_id},m{i:0{model_width}d},sim,s{k:0{split_width}d},{score!r}"
            )
    return "\n".join(lines) + "\n"


def two_sort_tie_pairs(score, model):
    """Exact-tie pairs between different models, from two lexsorts: the
    pairs of equal scores minus the pairs of equal (model, score)."""

    def equal_pairs(*keys):
        order = np.lexsort(keys)
        same = np.ones(max(len(keys[0]) - 1, 0), dtype=bool)
        for key in keys:
            ranked = key[order]
            same &= ranked[1:] == ranked[:-1]
        runs = np.diff(np.flatnonzero(np.concatenate(([True], ~same, [True]))))
        return int((runs * (runs - 1) // 2).sum())

    return equal_pairs(score) - equal_pairs(model, score)


def rowwise_validate(table):
    """Per-dataset validation fields from the nested dicts, with sets and
    Counters: (dataset, n_models, split_ids, missing, constant, tie_pairs,
    warnings), datasets sorted. The models missing splits are one warning:
    their count, the count of missing runs and the first 10 ids."""
    from collections import Counter

    out = []
    for ds in sorted(table.index):
        by_model = table.index[ds]
        all_splits = set()
        for splits in by_model.values():
            all_splits.update(splits)
        missing, constant, constant_warnings = {}, [], []
        everything, within = Counter(), 0
        for model in sorted(by_model):
            splits = by_model[model]
            absent = tuple(sorted(all_splits - set(splits)))
            if absent:
                missing[model] = absent
            if len(set(splits.values())) == 1 and len(splits) > 1:
                constant.append(model)
                constant_warnings.append(
                    f"dataset {ds!r}: model {model!r} has a constant score "
                    f"across {len(splits)} splits"
                )
            everything.update(splits.values())
            within += sum(c * (c - 1) // 2 for c in Counter(splits.values()).values())
        warnings = []
        if missing:
            names = sorted(missing)
            shown = names[:10] + (["..."] if len(names) > 10 else [])
            runs = sum(len(a) for a in missing.values())
            warnings.append(
                f"dataset {ds!r}: {len(names)} model{'s' * (len(names) != 1)} missing "
                f"splits ({runs} missing run{'s' * (runs != 1)}): {', '.join(shown)}"
            )
        warnings += constant_warnings
        ties = sum(c * (c - 1) // 2 for c in everything.values()) - within
        if ties:
            warnings.append(
                f"dataset {ds!r}: {ties} pair{'s' * (ties != 1)} of exactly equal scores "
                "(potential ties)"
            )
        out.append(
            (ds, len(by_model), tuple(sorted(all_splits)), missing, tuple(constant), ties,
             tuple(warnings))
        )
    return out


# ---------------------------------------------------------------------------
# The solver's former per-iterate passes, kept as oracles for the fused
# evaluation, the vectorized graph helpers and the covariance.


def _logistic(d):
    """Plain two-branch logistic on an array (its own code, not the library's)."""
    d = np.asarray(d, dtype=float)
    with np.errstate(over="ignore"):
        return np.where(d >= 0, 1.0 / (1.0 + np.exp(-d)), np.exp(d) / (1.0 + np.exp(d)))


def triu_loglik(w, n, beta, lam=0.0):
    """Log-likelihood over the upper triangle, the loss side as ``1 - p``."""
    beta = np.asarray(beta, dtype=float)
    p = _logistic(beta[:, None] - beta[None, :])
    iu = np.triu_indices(len(beta), k=1)
    pu = np.clip(p[iu], 1e-300, 1.0)
    pl = np.clip(1.0 - p[iu], 1e-300, 1.0)
    value = float(np.dot(w[iu], np.log(pu)) + np.dot(w.T[iu], np.log(pl)))
    if lam > 0.0:
        value -= 0.5 * lam * float(beta @ beta)
    return value


def sigmoid_gradient(w, n, beta, lam=0.0):
    """Penalized gradient ``sum_j (w_ij - n_ij p_ij) - lam beta_i``."""
    beta = np.asarray(beta, dtype=float)
    p = _logistic(beta[:, None] - beta[None, :])
    np.fill_diagonal(p, 0.0)
    return (w - n * p).sum(axis=1) - lam * beta


def neg_hessian(n, beta, lam=0.0):
    """Curvature Laplacian ``diag(sum_j c_ij) - c`` with ``c = n p (1 - p)``, plus ridge."""
    beta = np.asarray(beta, dtype=float)
    p = _logistic(beta[:, None] - beta[None, :])
    np.fill_diagonal(p, 0.0)
    curv = n * p * (1.0 - p)
    return np.diag(curv.sum(axis=1)) - curv + lam * np.identity(len(beta))


def pinv_covariance(n, beta, lam):
    """Pseudo-inverse of the negative Hessian, projected onto the mean-zero
    subspace. With a ridge the pseudo-inverse inverts the 1/lam eigenvalue
    along the all-ones direction, and the projection cancels it back out,
    which costs about lam^-1 ulps of accuracy."""
    m = len(beta)
    cov = np.linalg.pinv(neg_hessian(n, beta, lam), hermitian=True)
    proj = np.identity(m) - np.full((m, m), 1.0 / m)
    cov = proj @ cov @ proj
    return (cov + cov.T) / 2.0


def subspace_covariance(h):
    """``Q (Q^T H Q)^-1 Q^T`` for an orthonormal basis Q of the mean-zero
    subspace: the exact inverse of `h` restricted to that subspace."""
    m = len(h)
    centered = np.identity(m) - np.full((m, m), 1.0 / m)
    q = np.linalg.qr(centered[:, : m - 1])[0]
    return q @ np.linalg.inv(q.T @ h @ q) @ q.T


def newton_fit(w, n, lam, tol=1e-9, max_iter=10_000):
    """Damped Newton from zero, each pass recomputed in full: gauged
    Newton direction, Armijo backtracking, then center; stops like the
    library (step and gradient below tol, or gradient below the noise
    floor). Returns (beta, iterations)."""
    m = len(w)
    beta = np.zeros(m)
    noise = max(1.0, float(n.sum(axis=1).max())) * 2.0**-46
    for it in range(1, max_iter + 1):
        g = sigmoid_gradient(w, n, beta, lam)
        lap = neg_hessian(n, beta, 0.0)
        gauge = max(np.trace(lap), 1.0) / m / m
        direction = np.linalg.solve(lap + lam * np.identity(m) + gauge, g)
        f0 = triu_loglik(w, n, beta, lam)
        slope = float(g @ direction)
        if abs(slope) <= 1e-10 * (1.0 + abs(f0)):
            candidate = beta + direction
        else:
            t, candidate = 1.0, beta
            while t > 1e-13:
                trial = beta + t * direction
                if triu_loglik(w, n, trial, lam) >= f0 + 1e-4 * t * slope:
                    candidate = trial
                    break
                t *= 0.5
        new_beta = candidate - candidate.mean()
        delta = float(np.max(np.abs(new_beta - beta)))
        beta = new_beta
        gnorm = float(np.max(np.abs(sigmoid_gradient(w, n, beta, lam))))
        if (delta <= tol and gnorm <= 10.0 * tol) or gnorm <= noise:
            return beta, it
    return beta, max_iter


def bfs_components(n):
    """Connected components of ``n > 0`` by a node-at-a-time depth-first
    search, each a sorted array, in the order of their smallest members."""
    m = n.shape[0]
    seen = np.zeros(m, dtype=bool)
    components = []
    for start in range(m):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = [start]
        while stack:
            node = stack.pop()
            for nxt in np.nonzero(n[node] > 0)[0]:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
                    members.append(nxt)
        components.append(np.array(sorted(members)))
    return components


def loop_separation(w, n):
    """Per model: 'all_wins' / 'all_losses' when it won / lost every match
    it played, else 'none' (also for a model with no matches)."""
    flags = []
    for i in range(len(n)):
        played = n[i] > 0
        if not played.any():
            flags.append("none")
        elif np.all(w[i, played] == n[i, played]):
            flags.append("all_wins")
        elif np.all(w[i, played] == 0.0):
            flags.append("all_losses")
        else:
            flags.append("none")
    return tuple(flags)


def component_covariance(n, beta, lam, covariance_of):
    """Block-diagonal covariance: `covariance_of(n_c, beta_c, lam)` on each
    component of :func:`bfs_components`, zero elsewhere and for lone models."""
    m = len(beta)
    cov = np.zeros((m, m))
    for comp in bfs_components(n):
        if len(comp) > 1:
            block = np.ix_(comp, comp)
            cov[block] = covariance_of(n[block], beta[comp], lam)
    return cov


def finite_maximum(w):
    """Whether a connected ledger's unpenalized likelihood attains its
    maximum (Zermelo 1929; Ford 1957): every model reaches every other by a
    chain of wins ``w[i, j] > 0``, that is the win graph is strongly
    connected. Two depth-first searches from model 0, along and against the
    wins."""
    m = len(w)
    for beats in (np.asarray(w) > 0, np.asarray(w).T > 0):
        seen = {0}
        stack = [0]
        while stack:
            node = stack.pop()
            for nxt in range(m):
                if beats[node, nxt] and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) < m:
            return False
    return True
