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
  into, and one ``accumulate_grad``. Each ``*_value_grad`` function builds
  it for one call; the ``*_objective`` / ``*_gradient`` names project that.
* Every sampled objective reads the dataset folded by what its loss
  depends on, as counts divided by n (MLE divides its gradient by n
  instead, after ``accumulate_grad``). MLE reads how often each cell
  (x, y) is an observed pair (``Dataset.tables`` positives). Binary reads
  that and how often each cell is a sampled negative (the two count
  tables); population-binary is the same kernel with weights p_xy and
  K p_x p_N. Ranking is symmetric in the K negatives, so it reads the
  count of each distinct (x, y, sorted negatives) key
  (``Dataset.ranking_keys``); keys too wide to pack stay one row each.
  Every reduction is a numpy sum over arrays whose shape and order depend
  only on the inputs, so results do not depend on the thread count.
* A sampled softmax row (a ranking key's K+1 candidates, a regularizer
  row's m draws) depends only on the multiset of its cells, so each row is
  folded once into its distinct cells with multiplicities
  (``sampling.fold_candidates``): a fixed width, that of the widest row,
  the row's first cell (the observed one for ranking) in column 0, pad
  slots at multiplicity 0. On the benchmark's LM slice (K=100, 200 words)
  that is 70 columns of 101. Ranking keys are folded once per dataset and shape,
  regularizer draws once per fit.
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
from .sampling import Dataset, NoiseDistribution, derive_rng, fold_candidates

TERM_BUDGET = 10**7
_COUNT_BLOCK = 1 << 16  # cells per block of count vectors, exact or sampled
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


def fold_draws(x_idx: np.ndarray, draws: np.ndarray, m_y: int) -> tuple[np.ndarray, np.ndarray]:
    """The regularizer's (n, m) draws folded into (index, mult), each row's first draw in column 0."""
    return fold_candidates(x_idx, draws[:, 0], np.sort(draws[:, 1:], axis=1), m_y)


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
    every ``*_value_grad``.

    ``data`` is a Dataset, or a ConditionalProblem for the population
    objectives; ``k`` is their K (a dataset carries its own). ``params`` is
    theta, with gamma appended for the binary objectives; neither penalty
    touches gamma. When alpha > 0 the penalty (alpha/n) sum_i (log mean_j
    exp shat(x_i, draws_ij))^2 runs over the (n, m) ``draws`` of ``data.x``;
    its inner mean estimates Z(x_i; theta), so it pushes log Z toward 0.
    ``objective`` None leaves the penalty alone.

    Each call makes one score table, one row-shifted exp table when a sampled
    softmax needs one, one (m_x, m_y) table of weights on grad s that the loss
    and the penalty both write into, and one ``accumulate_grad``. MLE's table
    is in counts, its gradient divided by n after ``accumulate_grad``. The
    sampled softmaxes' folded layouts (ranking keys, penalty draws) share one
    flat buffer, scattered into the table by one ``np.bincount``.
    """
    shape = (sf.m_x, sf.m_y)
    if noise is not None and noise.size != sf.m_y:
        raise ValidationError(f"noise size {noise.size} != label count {sf.m_y}")
    has_gamma = objective in ("binary", "population-binary")
    layouts, loss, unit = [], None, 1.0  # the table holds unit times the weights on grad s
    if objective == "mle":
        counts, unit = data.tables(*shape).positives, data.n
        row_counts = counts.sum(axis=1)[:, None]

        def loss(s, shat, gamma):
            log_p = log_softmax_rows(s)[1]
            return float(np.mean(log_p[data.x, data.y])), counts - row_counts * np.exp(log_p)
    elif objective == "ranking":
        keys = data.ranking_keys(*shape)
        layouts.append((keys.index, keys.mult))
        weight = keys.counts / data.n

        def loss(s, shat, gamma):
            ws = workspaces[0]
            lse, coeff, row_sum = ws.gather(shat, exp_table)
            coeff *= (-weight / row_sum)[:, None]
            coeff[:, 0] += weight
            value = float(np.sum(keys.counts * (shat.ravel()[ws.index[:, 0]] - lse)) / data.n)
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
            tables = data.tables(*shape)
            k, w_pos, w_neg = data.k, tables.positives / data.n, tables.negatives / data.n
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
    shifted = objective != "mle" or alpha > 0

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


def ranking_value_grad(
    sf: ScoringFunction, theta: np.ndarray, dataset: Dataset, noise: NoiseDistribution
) -> tuple[float, np.ndarray]:
    """Mean log-probability of ranking the true label above its negatives, and its gradient.

    One pass over the dataset's distinct (x, y, sorted negatives) keys of
    ``Dataset.ranking_keys``, each term weighted by the key's count and each
    key's candidates folded into its distinct cells.
    """
    return value_grad_fn(sf, dataset, noise, "ranking")(theta)


def binary_value_grad(
    sf: ScoringFunction, bp: BinaryParams, dataset: Dataset, noise: NoiseDistribution
) -> tuple[float, np.ndarray]:
    """Mean log-likelihood of classifying true pairs vs K noise pairs, and its
    gradient in (theta, gamma); the last coordinate is d/dgamma."""
    return value_grad_fn(sf, dataset, noise, "binary")(_binary_params(sf, bp))


def mle_value_grad(
    sf: ScoringFunction, theta: np.ndarray, dataset: Dataset
) -> tuple[float, np.ndarray]:
    """Mean log softmax probability of the observed labels (negatives ignored), and its gradient."""
    return value_grad_fn(sf, dataset, None, "mle")(theta)


def ranking_objective(
    sf: ScoringFunction, theta: np.ndarray, dataset: Dataset, noise: NoiseDistribution
) -> float:
    return ranking_value_grad(sf, theta, dataset, noise)[0]


def ranking_gradient(
    sf: ScoringFunction, theta: np.ndarray, dataset: Dataset, noise: NoiseDistribution
) -> np.ndarray:
    return ranking_value_grad(sf, theta, dataset, noise)[1]


def binary_objective(
    sf: ScoringFunction, bp: BinaryParams, dataset: Dataset, noise: NoiseDistribution
) -> float:
    return binary_value_grad(sf, bp, dataset, noise)[0]


def binary_gradient(
    sf: ScoringFunction, bp: BinaryParams, dataset: Dataset, noise: NoiseDistribution
) -> np.ndarray:
    return binary_value_grad(sf, bp, dataset, noise)[1]


def mle_objective(sf: ScoringFunction, theta: np.ndarray, dataset: Dataset) -> float:
    return mle_value_grad(sf, theta, dataset)[0]


def mle_gradient(sf: ScoringFunction, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
    return mle_value_grad(sf, theta, dataset)[1]


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


def population_ranking_value_grad(
    sf: ScoringFunction,
    theta: np.ndarray,
    problem: ConditionalProblem,
    noise: NoiseDistribution,
    k: int,
) -> tuple[float, np.ndarray]:
    """Exact expected ranking objective and its gradient.

    The positive label is summed over Y and the K i.i.d. negatives over the
    C(m_y+K-1, K) count vectors of ``count_vectors``, each weighted by
    p_x p(u|x) times its multinomial probability (``ranking_count_terms``).
    The term budget counts the m_x * m_y * C(m_y+K-1, K) terms of this sum.
    """
    return value_grad_fn(sf, problem, noise, "population-ranking", k)(theta)


def population_ranking_objective(
    sf: ScoringFunction,
    theta: np.ndarray,
    problem: ConditionalProblem,
    noise: NoiseDistribution,
    k: int,
) -> float:
    """Expected ranking objective under the data and noise distributions."""
    return population_ranking_value_grad(sf, theta, problem, noise, k)[0]


def population_binary_value_grad(
    sf: ScoringFunction,
    bp: BinaryParams,
    problem: ConditionalProblem,
    noise: NoiseDistribution,
    k: int,
) -> tuple[float, np.ndarray]:
    """Expected binary objective and its gradient; exact, a sum over X x Y
    with positive weights p_xy and negative weights K p_x p_N."""
    return value_grad_fn(sf, problem, noise, "population-binary", k)(_binary_params(sf, bp))


def population_binary_objective(
    sf: ScoringFunction,
    bp: BinaryParams,
    problem: ConditionalProblem,
    noise: NoiseDistribution,
    k: int,
) -> float:
    return population_binary_value_grad(sf, bp, problem, noise, k)[0]


# --------------------------------------------------------------------------
# self-normalization regularizer


def regularizer_draws(
    dataset: Dataset, noise: NoiseDistribution, cfg: RegularizerConfig
) -> np.ndarray:
    """The (n, m) noise labels of the penalty, fixed by (cfg.seed, cfg.stream)."""
    if dataset.n == 0:
        raise ValidationError("dataset is empty")
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
