"""Sampled and population objectives for ranking/binary NCE and MLE.

Conventions:

* All objectives are *maximized* and are <= 0 at feasible points.
* The shifted score is shat(x,y) = s(x,y;theta) - log p_N(y); the binary
  classifier's logit is stilde = shat - gamma - log K, so the positive
  class probability is g = sigmoid(stilde).
* Every objective, with or without the log Z penalty and the L2 term, is
  evaluated by one pass, ``value_grad_fn``: one score table, one
  row-shifted exp table when a sampled softmax needs one, one (m_x, m_y)
  table of weights on grad s that the loss and the penalty both write
  into, and one ``accumulate_grad``. It checks its own inputs; each
  ``*_objective`` / ``*_gradient`` builds it for one call and projects that.
* Every sampled objective reads the dataset folded by what its loss
  depends on, as counts divided by n (MLE divides its gradient by n
  instead, after ``accumulate_grad``). MLE reads how often each cell
  (x, y) is an observed pair (``count_table``). Binary reads that and how
  often each cell is a sampled negative (two count tables);
  population-binary is the same kernel with weights p_xy and K p_x p_N.
  Ranking is symmetric in the K negatives, so it reads the count of each
  distinct (x, y, sorted negatives) key (``ranking_keys``); keys too wide
  to pack stay one row each. ``value_grad_fn`` bounds-checks the dataset
  and builds these folds once per closure.
  Every reduction is a numpy sum over arrays whose shape and order depend
  only on the inputs, so results do not depend on the thread count.
* A sampled softmax row (a ranking key's K+1 candidates, a regularizer
  row's m draws) depends only on the multiset of its cells, so each row is
  folded once into its distinct cells with multiplicities
  (``fold_candidates``): a fixed width, that of the widest row, the row's
  first cell (the observed one for ranking) in column 0, pad slots at
  multiplicity 0. On the benchmark's LM slice (K=100, 200 words) that is
  70 columns of 101. Ranking keys and regularizer draws are folded once
  per closure, so once per fit.
* The sampled softmaxes exponentiate the shifted table once, each context
  row shifted by its maximum, and gather the folded cells from it
  (``Workspace.gather``): m_x * m_y exps per call instead of one per
  candidate, each gathered value times its multiplicity. Rows whose first
  exp underflows there or that meet a non-finite score are redone per row
  on the scores plus log multiplicities, so they stay exact and a
  non-finite score still gives a non-finite value.
* A ``Workspace`` holds one layout's buffers (gather, first exps, row
  sums). ``value_grad_fn`` builds them once, so a fit's live as long as the
  fit and no evaluation faults in fresh pages for a new gather. The
  layouts of one pass (ranking keys, penalty draws) lie end to end in one
  flat index and one buffer, so one ``np.bincount`` scatters both. Each
  index is bounds-checked once, so the gather runs ``np.take(..., out=e,
  mode="clip")``: ``mode="raise"`` takes into a temporary copied to
  ``out``, and the faults return.

Posterior bookkeeping for a candidate tuple (x, ybar_0..ybar_K): q is the
model posterior over which slot holds the true label, beta the posterior
under the data distribution, alpha the tuple's unnormalized mass, and the
table stores the *positive* cross-entropy H(beta, q) = -sum beta log q
(minimized, rather than its negation maximized, at the truth).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .model import ConditionalProblem, ScoringFunction, check_params, log_softmax_rows
from .sampling import Dataset, NoiseDistribution, derive_rng

OBJECTIVES = ("ranking", "binary", "mle", "population-ranking", "population-binary")
GAMMA_OBJECTIVES = ("binary", "population-binary")  # their params end in gamma
TERM_BUDGET = 10**7
_COUNT_BLOCK = 1 << 16  # cells per block of count vectors, exact or sampled
_FOLD_BLOCK = 1 << 14  # candidate entries per block of fold_candidates
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class BinaryParams:
    """Score parameters plus the scalar normalizer estimate gamma."""

    theta: np.ndarray
    gamma: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.gamma):
            raise ValidationError("gamma must be finite")
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=np.float64))


@dataclass(frozen=True)
class PosteriorTable:
    """Posteriors over the true-label slot for one candidate tuple."""

    q: np.ndarray
    beta: np.ndarray
    alpha: float
    cross_entropy: float


@dataclass(frozen=True)
class RegularizerConfig:
    """Squared-log-partition penalty settings.

    ``m`` noise draws per example estimate Z(x;theta) unbiasedly, since
    E_{p_N}[exp(s - log p_N)] = Z. The stream field keys the draws; the
    full-batch optimizer keeps it fixed so line-search comparisons see a
    deterministic objective.
    """

    alpha: float
    m: int
    seed: int = 0
    stream: int = 0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValidationError(f"regularizer alpha must be finite and >= 0, got {self.alpha}")
        if self.m < 1:
            raise ValidationError(f"regularizer m must be >= 1, got {self.m}")


def _shifted_table(sf: ScoringFunction, theta: np.ndarray, noise: NoiseDistribution) -> np.ndarray:
    if noise.size != sf.m_y:
        raise ValidationError(f"noise size {noise.size} != label count {sf.m_y}")
    return sf.score_table(theta) - noise.log_probs[None, :]


def _row_sum(e: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``e.sum(axis=1)`` into ``out``, bit for bit: below 8 columns numpy adds left to right."""
    if e.shape[1] >= 8:
        return np.sum(e, axis=1, out=out)
    np.copyto(out, e[:, 0])
    for column in e.T[1:]:
        out += column
    return out


# --------------------------------------------------------------------------
# how each loss reads a dataset


def count_table(x: np.ndarray, labels: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """How often each cell of a ``shape`` table is (x[i], labels[i, j]), labels (n, c)."""
    cells = (x[:, None] * shape[1] + labels).ravel()
    return np.bincount(cells, minlength=shape[0] * shape[1]).reshape(shape)


def fold_candidates(
    x: np.ndarray, first: np.ndarray, rest: np.ndarray, m_y: int, block: int = _FOLD_BLOCK
) -> tuple[np.ndarray, np.ndarray]:
    """Fold each row's candidate labels (first[i], *rest[i]) of context x[i]
    into its distinct flat cells x * m_y + label, with multiplicities.

    ``rest`` is (n, c), each row sorted. Returns (index, mult), both (n, W)
    with W the largest distinct count of a row. Column 0 holds the first cell,
    counted with its repeats in ``rest``; the row's other distinct cells follow
    in increasing order, and pad slots repeat column 0's cell at multiplicity
    0. ``mult`` takes the narrowest unsigned dtype that holds c + 1. Rows are
    folded ``block // c`` at a time, so temporaries stay small.
    """
    n, c = rest.shape
    rows = max(1, block // max(c, 1))
    spans = [(lo, min(n, lo + rows)) for lo in range(0, n, rows)]

    def columns(lo, hi):
        """Each candidate's column: 0 for the first label, else 1 + the rank of its
        label among the row's other distinct labels (a run opens where the sorted
        label changes). Flat scans, since numpy is slow along short rows."""
        r = rest[lo:hi]
        not_first = r != first[lo:hi, None]
        opens = np.ones(r.shape, dtype=bool)
        np.not_equal(r.ravel()[1:], r.ravel()[:-1], out=opens.ravel()[1:])
        opens[:, :1] = True
        opens &= not_first
        # int32 holds a block's count and scans faster than numpy's int64 bool scan
        col = np.cumsum(opens.ravel(), dtype=np.int32).reshape(r.shape)
        col -= col[:, :1] - opens[:, :1]
        return np.multiply(col, not_first, out=col)

    width = 1 + max((int(columns(lo, hi).max(initial=0)) for lo, hi in spans), default=0)
    index = np.repeat((x * m_y + first)[:, None], width, axis=1)
    mult = np.empty((n, width), dtype=np.min_scalar_type(c + 1))
    for lo, hi in spans:
        slot = columns(lo, hi) + np.arange(0, (hi - lo) * width, width)[:, None]
        block_mult = np.bincount(slot.ravel(), minlength=(hi - lo) * width).reshape(-1, width)
        block_mult[:, 0] += 1
        mult[lo:hi] = block_mult
        # repeats of a label write its one cell again
        index[lo:hi].reshape(-1)[slot] = x[lo:hi, None] * m_y + rest[lo:hi]
    return index, mult


def fold_draws(x_idx: np.ndarray, draws: np.ndarray, m_y: int) -> tuple[np.ndarray, np.ndarray]:
    """The regularizer's (n, m) draws folded into (index, mult), each row's first draw in column 0."""
    return fold_candidates(x_idx, draws[:, 0], np.sort(draws[:, 1:], axis=1), m_y)


def ranking_keys(data: Dataset, shape: tuple[int, int]):
    """The rows (x, y, negatives) folded into distinct ranking keys, each key
    folded into its distinct candidate cells: (index, mult, counts), index and
    mult (u, W) as ``fold_candidates`` gives them, counts (u,) the float
    occurrences of each key, summing to n.

    The ranking loss is symmetric in the negatives, so a row is keyed by its
    observed cell and its sorted negative labels, packed into one int64 in
    base m_y. Keys come in increasing order. When the packed range
    m_x * m_y**(K+1) does not fit an int64 the rows stay as they are, each
    with count 1.0.
    """
    m_x, m_y = shape
    x, y, rest, counts = data.x, data.y, np.sort(data.negatives, axis=1), np.ones(data.n)
    # Python ints: a numpy integer power would wrap instead of growing
    if int(m_x) * int(m_y) ** (data.k + 1) < 2**63:
        packed = x * m_y + y
        for label in rest.T:
            packed = packed * m_y + label
        _, first, repeats = np.unique(packed, return_index=True, return_counts=True)
        x, y, rest, counts = x[first], y[first], rest[first], repeats.astype(np.float64)
    return (*fold_candidates(x, y, rest, m_y), counts)


class Workspace:
    """One fit's buffers for a sampled softmax over a fixed folded layout: (rows, W)
    flat cells x * m_y + label of an (m_x, m_y) table of ``shape`` and their
    multiplicities ``mult`` (``fold_candidates``). ``e`` is the layout's flat slice
    of the buffer that ``_workspaces`` lays a fit's layouts end to end in."""

    def __init__(self, index: np.ndarray, mult: np.ndarray, shape: tuple[int, int], e: np.ndarray):
        if index.size and (index.min() < 0 or index.max() >= shape[0] * shape[1]):
            raise IndexError(f"candidate index out of bounds for a {shape} score table")
        self.index, self.mult, self.e = index, mult, e.reshape(index.shape)
        self.first, self.s = np.empty(index.shape[0]), np.empty(index.shape[0])

    def gather(self, table: np.ndarray, exp_table: np.ndarray):
        """Row log-sum-exp of the candidates, with their softmax unnormalized.

        Each index row holds one context's cells (ranking keys and regularizer
        draws do); ``exp_table`` is ``table`` exponentiated once, each row shifted
        by its maximum. Returns (lse, e, s): e the gathered
        values times their multiplicities and s their row sums, this workspace's
        buffers; e / s[:, None] is each cell's share of the softmax, and pads hold 0.

        lse is the first cell's score plus log(s / its own exp), so its rounding
        scales with the candidates' own scores, not the context maximum. A row whose
        first exp is below the smallest normal float (that candidate over ~708
        below its context's maximum; every row whose s underflows is one) or whose
        lse is not finite is redone by ``log_softmax_rows`` on the scores plus log
        multiplicities, with e its softmax, s = 1.
        """
        index, e, s, first = self.index, self.e, self.s, self.first
        np.take(exp_table, index, out=e, mode="clip")
        np.copyto(first, e[:, 0])
        _row_sum(np.multiply(e, self.mult, out=e), s)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lse = np.take(table, index[:, 0]) + np.log(s / first)
        redo = ~((first >= _TINY) & np.isfinite(lse))
        if redo.any():
            with np.errstate(divide="ignore"):
                log_mult = np.log(self.mult[redo], dtype=np.float64)  # of uint8 it is float16
            lse[redo], log_p = log_softmax_rows(table.ravel()[index[redo]] + log_mult)
            e[redo] = np.exp(log_p)
            s[redo] = 1.0
        return lse, e, s


def _workspaces(layouts, shape: tuple[int, int]):
    """Workspaces over a fit's folded (index, mult) layouts, their cells and
    gathered values laid end to end in one flat index and one flat buffer, so
    that one ``np.bincount`` scatters all their weights; a single layout keeps
    its own index. Returns (workspaces, flat index, flat buffer)."""
    if len(layouts) == 1:
        index = layouts[0][0].ravel()
    else:
        index = np.concatenate([cells.ravel() for cells, _ in layouts])
    e = np.empty(index.size)
    ends = np.cumsum([cells.size for cells, _ in layouts])
    workspaces = [
        Workspace(index[end - cells.size:end].reshape(cells.shape), mult, shape,
                  e[end - cells.size:end])
        for (cells, mult), end in zip(layouts, ends)
    ]
    return workspaces, index, e


def _check_k(k: int) -> None:
    if k < 1:
        raise ValidationError(f"K must be >= 1, got {k}")


# --------------------------------------------------------------------------
# the value-and-gradient pass


def binary_logit(shat: np.ndarray, gamma: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The classifier's logit stilde = shat - gamma - log K over every cell, and
    its positive-class probability g = sigmoid(stilde)."""
    stilde = shat - gamma - np.log(k)
    with np.errstate(over="ignore"):
        return stilde, 1.0 / (1.0 + np.exp(-stilde))


def _binary_params(sf: ScoringFunction, bp: BinaryParams) -> np.ndarray:
    """theta (shape-checked) with gamma appended: a binary objective's params."""
    return np.append(check_params(bp.theta, sf.n_params), bp.gamma)


def _binary_terms(shat, gamma, k, w_pos, w_neg) -> tuple[float, np.ndarray]:
    """sum_{x,y} w_pos log g + w_neg log(1 - g) and its weights on grad s."""
    stilde, sig = binary_logit(shat, gamma, k)
    log_g, log_1mg = -np.logaddexp(0.0, -stilde), -np.logaddexp(0.0, stilde)
    value = float((w_pos * log_g).sum() + (w_neg * log_1mg).sum())
    return value, w_pos * (1.0 - sig) - w_neg * sig


def value_grad_fn(
    sf: ScoringFunction, data, noise: NoiseDistribution | None, objective: str | None,
    k: int = 1, draws: np.ndarray | None = None, alpha: float = 0.0, l2: float = 0.0,
):
    """Closure params -> (value, grad) of ``objective`` minus the log Z penalty
    and minus (l2/2)|theta|^2: the one value-and-gradient pass of every fit and
    every ``*_objective`` / ``*_gradient``.

    ``data`` is a Dataset, or a ConditionalProblem for the population
    objectives; ``k`` is their K (a dataset carries its own). ``params`` is
    theta, with gamma appended for the binary objectives; neither penalty
    touches gamma. When alpha > 0 the penalty (alpha/n) sum_i (log mean_j
    exp shat(x_i, draws_ij))^2 runs over the (n, m) ``draws`` of ``data.x``;
    its inner mean estimates Z(x_i; theta), so it pushes log Z toward 0.
    ``objective`` None leaves the penalty alone; a misused input raises
    ValidationError when the closure is built. Building it also checks the
    data against the scorer's table (``check_bounds``), and folds a dataset for
    the loss (``count_table``, ``ranking_keys``) and the penalty
    (``fold_draws``), once however often the closure is called.

    Each call makes one score table, one row-shifted exp table when a sampled
    softmax needs one, one (m_x, m_y) table of weights on grad s that the loss
    and the penalty both write into, and one ``accumulate_grad``. MLE's table
    is in counts, its gradient divided by n after ``accumulate_grad``. The
    sampled softmaxes' folded layouts (ranking keys, penalty draws) share one
    flat buffer, scattered into the table by one ``np.bincount``.
    """
    shape = (sf.m_x, sf.m_y)
    if objective is not None and objective not in OBJECTIVES:
        raise ValidationError(f"objective must be one of {OBJECTIVES}, got '{objective}'")
    population = objective in ("population-ranking", "population-binary")
    kind = ConditionalProblem if population else Dataset
    if not isinstance(data, kind):
        raise ValidationError(f"objective '{objective}' needs a {kind.__name__}")
    if alpha > 0 and population:
        raise ValidationError("the sampled log Z penalty needs a Dataset objective")
    shifted = objective != "mle" or alpha > 0  # the table is shat, so noise is read
    if shifted and noise is None:
        raise ValidationError(f"objective '{objective}' needs a noise distribution")
    if noise is not None and noise.size != sf.m_y:
        raise ValidationError(f"noise size {noise.size} != label count {sf.m_y}")
    if alpha > 0:
        if draws is None or np.ndim(draws) != 2 or len(draws) != data.n:
            raise ValidationError(f"the log Z penalty needs (n={data.n}, m) draws")
    elif objective is None:
        raise ValidationError("no objective and no penalty to evaluate")
    data.check_bounds(*shape)  # once per closure, before any fold reads the data
    has_gamma = objective in GAMMA_OBJECTIVES
    layouts, loss, unit = [], None, 1.0  # the table holds unit times the weights on grad s
    if objective == "mle":
        counts, unit = count_table(data.x, data.y[:, None], shape), data.n
        row_counts = counts.sum(axis=1)[:, None]

        def loss(s, shat, gamma):
            log_p = log_softmax_rows(s)[1]
            return float(np.mean(log_p[data.x, data.y])), counts - row_counts * np.exp(log_p)
    elif objective == "ranking":
        cells, mult, counts = ranking_keys(data, shape)
        layouts.append((cells, mult))
        weight = counts / data.n

        def loss(s, shat, gamma):
            ws = workspaces[0]
            lse, coeff, row_sum = ws.gather(shat, exp_table)
            coeff *= (-weight / row_sum)[:, None]
            coeff[:, 0] += weight
            value = float(np.sum(counts * (shat.ravel()[ws.index[:, 0]] - lse)) / data.n)
            return value, None
    elif objective == "population-ranking":
        _check_k(k)
        terms = data.m_x * data.m_y * math.comb(data.m_y + k - 1, k)
        check_term_budget(terms, "ranking objective")

        def loss(s, shat, gamma):
            total, table = 0.0, np.zeros(shape)
            blocks = count_vectors(noise.log_probs, k)
            for x, w, log_q, q, r, mass in ranking_count_terms(data, shat, blocks):
                total += float((w * log_q).sum())
                table[x] += (w * (1.0 - q)).sum(axis=1) - (w * r).sum(axis=0) @ mass
            return total, table
    elif has_gamma:
        if objective == "binary":
            k, w_pos = data.k, count_table(data.x, data.y[:, None], shape) / data.n
            w_neg = count_table(data.x, data.negatives, shape) / data.n
        else:
            _check_k(k)
            w_pos, w_neg = data.p_xy, k * data.p_x[:, None] * noise.probs[None, :]

        def loss(s, shat, gamma):
            return _binary_terms(shat, gamma, k, w_pos, w_neg)
    if alpha > 0:
        layouts.append(fold_draws(data.x, draws, sf.m_y))
        n, m = draws.shape
        reg_scale = -2.0 * alpha * unit / n
    if layouts:
        workspaces, index, e = _workspaces(layouts, shape)
        exp_table = np.empty(shape)

    def value_grad(params):
        theta = check_params(params[:-1] if has_gamma else params, sf.n_params)
        s = sf.score_table(theta)
        shat = s - noise.log_probs[None, :] if shifted else s
        if layouts:
            np.subtract(shat, shat.max(axis=1)[:, None], out=exp_table)
            np.exp(exp_table, out=exp_table)
        value, table = loss(s, shat, params[-1]) if loss else (0.0, None)
        if has_gamma:
            d_gamma = -float(table.sum())
        if alpha > 0:
            lse, coeff, row_sum = workspaces[-1].gather(shat, exp_table)
            log_zhat = lse - np.log(m)
            coeff *= (reg_scale * log_zhat / row_sum)[:, None]
            value -= float(alpha / n * np.sum(log_zhat**2))
        if layouts:
            flat = np.bincount(index, weights=e, minlength=s.size).reshape(shape)
            table = flat if table is None else table + flat
        grad = sf.accumulate_grad(theta, table)
        if unit != 1.0:
            grad /= unit
        if has_gamma:
            grad = np.append(grad, d_gamma)
        if l2:
            value -= 0.5 * l2 * (theta @ theta)
            grad[:sf.n_params] -= l2 * theta
        return value, grad

    return value_grad


# --------------------------------------------------------------------------
# sampled objectives


def ranking_objective(
    sf: ScoringFunction, theta: np.ndarray, dataset: Dataset, noise: NoiseDistribution
) -> float:
    """Mean log-probability of ranking the true label above its negatives.

    One pass over the dataset's distinct (x, y, sorted negatives) keys of
    ``ranking_keys``, each term weighted by the key's count and each
    key's candidates folded into its distinct cells.
    """
    return value_grad_fn(sf, dataset, noise, "ranking")(theta)[0]


def ranking_gradient(
    sf: ScoringFunction, theta: np.ndarray, dataset: Dataset, noise: NoiseDistribution
) -> np.ndarray:
    return value_grad_fn(sf, dataset, noise, "ranking")(theta)[1]


def binary_objective(
    sf: ScoringFunction, bp: BinaryParams, dataset: Dataset, noise: NoiseDistribution
) -> float:
    """Mean log-likelihood of classifying true pairs vs K noise pairs."""
    return value_grad_fn(sf, dataset, noise, "binary")(_binary_params(sf, bp))[0]


def binary_gradient(
    sf: ScoringFunction, bp: BinaryParams, dataset: Dataset, noise: NoiseDistribution
) -> np.ndarray:
    """Gradient of ``binary_objective`` in (theta, gamma); the last coordinate is d/dgamma."""
    return value_grad_fn(sf, dataset, noise, "binary")(_binary_params(sf, bp))[1]


def mle_objective(sf: ScoringFunction, theta: np.ndarray, dataset: Dataset) -> float:
    """Mean log softmax probability of the observed labels (negatives ignored)."""
    return value_grad_fn(sf, dataset, None, "mle")(theta)[0]


def mle_gradient(sf: ScoringFunction, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
    return value_grad_fn(sf, dataset, None, "mle")(theta)[1]


# --------------------------------------------------------------------------
# posteriors


def posteriors(
    sf: ScoringFunction,
    theta: np.ndarray,
    problem: ConditionalProblem,
    noise: NoiseDistribution,
    x: int,
    labels,
) -> PosteriorTable:
    """Posterior table for one candidate tuple (x, ybar_0..ybar_K)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size < 2:
        raise ValidationError("labels: expected a tuple of >= 2 candidate labels")
    shat = _shifted_table(sf, theta, noise)
    q = np.exp(log_softmax_rows(shat[x, labels][None, :])[1][0])
    ratios = problem.p_y_given_x[x, labels] / noise.probs[labels]
    beta = ratios / ratios.sum()
    noise_prod = float(np.prod(noise.probs[labels]))
    alpha = float(
        np.sum(problem.p_xy[x, labels] * (noise_prod / noise.probs[labels]))
    )
    cross_entropy = float(-(beta * np.log(q)).sum())
    return PosteriorTable(q=q, beta=beta, alpha=alpha, cross_entropy=cross_entropy)


# --------------------------------------------------------------------------
# population objectives


def check_term_budget(terms: int, what: str) -> None:
    """Refuse an exact sum over more than TERM_BUDGET terms."""
    if terms > TERM_BUDGET:
        raise BudgetError(
            f"exact {what} needs {terms} terms, over the {TERM_BUDGET} budget; "
            "use monte-carlo mode"
        )


def count_vectors(log_pn: np.ndarray, k: int, block: int = _COUNT_BLOCK):
    """Yield (counts, log_weight) blocks covering every multiset of K noise labels.

    ``counts`` is (M, m_y), one count vector c (sum_j c_j = K) per row, and
    ``log_weight`` its log multinomial probability under K i.i.d. draws,
    log K! - sum_j log c_j! + sum_j c_j log p_N(j). The C(m_y+K-1, K) rows
    partition the m_y**K ordered tuples, so a sum of any function symmetric
    in the negatives over Y^K equals the weighted sum over these rows.
    Rows come in lexicographic order of the sorted label tuples, at most
    ``block // m_y`` (and at least one) per block.
    """
    m_y = log_pn.size
    rows = max(1, block // m_y)
    log_fact = np.array([math.log(math.factorial(c)) for c in range(k + 1)])
    tuples = itertools.combinations_with_replacement(range(m_y), k)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(tuples, rows)), dtype=np.int64
        )
        if flat.size == 0:
            return
        labels = flat.reshape(-1, k)
        m = labels.shape[0]
        cells = (np.arange(m)[:, None] * m_y + labels).ravel()
        counts = np.bincount(cells, minlength=m * m_y).reshape(m, m_y)
        yield counts, log_fact[k] - log_fact[counts].sum(axis=1) + counts @ log_pn


def sample_count_vectors(rng: np.random.Generator, noise: NoiseDistribution, k: int, size: int):
    """Yield (counts, log_weight) blocks of ``size`` count vectors of K i.i.d.
    noise labels drawn from the multinomial, each draw at weight 1/size.

    Draws are taken at most as many per block as a ``count_vectors`` block
    holds rows. Repeated draws within a block are folded: each block yields
    its distinct count vectors in lexicographic order, each at weight
    repeats/size, so the cost of a sum over the blocks grows with the
    distinct vectors drawn rather than with ``size``."""
    rows = max(1, _COUNT_BLOCK // noise.size)
    for start in range(0, size, rows):
        counts = rng.multinomial(k, noise.probs, size=min(rows, size - start))
        # keys in the narrowest dtype that holds K: numpy radix-sorts 8- and 16-bit keys
        counts = counts[np.lexsort(counts.astype(np.min_scalar_type(k)).T[::-1])]
        first = np.flatnonzero(np.r_[True, (counts[1:] != counts[:-1]).any(axis=1)])
        repeats = np.diff(np.r_[first, len(counts)])
        yield counts[first], np.log(repeats) - math.log(size)


def ranking_count_terms(problem: ConditionalProblem, shat: np.ndarray, blocks):
    """Yield the ranking sum's terms, one (context, block) at a time.

    ``blocks`` yields (counts, log_weight) pairs of negative count vectors,
    ``count_vectors`` for the exact sum or a weighted sample of them. For
    context x, every positive label u (rows) and every count vector c of a
    block (columns), yields (x, w, log_q, q, r, mass):

    * w (m_y, M): the term's probability p_x p(u|x) times c's weight;
    * log_q, q (m_y, M): log and value of the positive slot's posterior;
    * r (m_y, M) and mass (M, m_y): the negatives labelled j hold posterior
      r * mass[:, j] together.

    Candidates that share a label share a score, so with shifted scores a
    the softmax denominator is exp(a_u) + sum_j c_j exp(a_j). Exponents are
    taken relative to the tuple's largest score: mass is c_j exp(a_j - b),
    b the largest score among c's labels.
    """
    for counts, log_weight in blocks:
        noise_mass = np.exp(log_weight)
        present = counts > 0
        for x in range(problem.m_x):
            a = shat[x]
            b = np.where(present, a[None, :], -np.inf).max(axis=1)
            # labels absent from c may score above b; clip so 0 * exp stays 0
            mass = counts * np.exp(np.minimum(a[None, :] - b[:, None], 0.0))
            top = np.maximum(a[:, None], b[None, :])
            pos = np.exp(a[:, None] - top)
            neg = np.exp(b[None, :] - top)
            denom = pos + neg * mass.sum(axis=1)[None, :]
            log_q = a[:, None] - top - np.log(denom)
            w = problem.p_x[x] * problem.p_y_given_x[x][:, None] * noise_mass[None, :]
            yield x, w, log_q, pos / denom, neg / denom, mass


def population_ranking_objective(
    sf: ScoringFunction, theta: np.ndarray, problem: ConditionalProblem,
    noise: NoiseDistribution, k: int,
) -> float:
    """Exact expected ranking objective under the data and noise distributions.

    The positive label is summed over Y and the K i.i.d. negatives over the
    C(m_y+K-1, K) count vectors of ``count_vectors``, each weighted by
    p_x p(u|x) times its multinomial probability (``ranking_count_terms``).
    The term budget counts the m_x * m_y * C(m_y+K-1, K) terms of this sum.
    """
    return value_grad_fn(sf, problem, noise, "population-ranking", k)(theta)[0]


def population_binary_objective(
    sf: ScoringFunction, bp: BinaryParams, problem: ConditionalProblem,
    noise: NoiseDistribution, k: int,
) -> float:
    """Expected binary objective; exact, a sum over X x Y with positive
    weights p_xy and negative weights K p_x p_N."""
    return value_grad_fn(sf, problem, noise, "population-binary", k)(_binary_params(sf, bp))[0]


# --------------------------------------------------------------------------
# self-normalization regularizer


def regularizer_draws(
    dataset: Dataset, noise: NoiseDistribution, cfg: RegularizerConfig
) -> np.ndarray:
    """The (n, m) noise labels of the penalty, fixed by (cfg.seed, cfg.stream)."""
    if not isinstance(dataset, Dataset):
        raise ValidationError("the sampled log Z penalty needs a Dataset objective")
    if noise is None:
        raise ValidationError("the sampled log Z penalty needs a noise distribution")
    return noise.sample(derive_rng(cfg.seed, cfg.stream, 4), (dataset.n, cfg.m))


def regularizer(
    sf: ScoringFunction,
    theta: np.ndarray,
    dataset: Dataset,
    noise: NoiseDistribution,
    cfg: RegularizerConfig,
) -> tuple[float, np.ndarray]:
    """Sampled squared-log-partition penalty (``value_grad_fn`` with no loss) and its gradient."""
    theta = check_params(theta, sf.n_params)
    if cfg.alpha == 0.0:
        return 0.0, np.zeros(sf.n_params)
    draws = regularizer_draws(dataset, noise, cfg)
    value, grad = value_grad_fn(sf, dataset, noise, None, draws=draws, alpha=cfg.alpha)(theta)
    return -value, -grad
