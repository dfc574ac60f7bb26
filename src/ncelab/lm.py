"""Desk-scale language-modeling experiment on n-gram log-bilinear models.

This is deliberately not a benchmark reproduction: the point is to compare
the MLE / ranking / binary losses and the self-normalization regularizer
on a corpus small enough that the exact softmax is available as a
reference. Tokenization is whitespace + lowercasing only; the vocabulary
comes from the training split with a reserved token for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import ContextBias, LogBilinear, log_cond_prob_table, log_softmax_rows
from .objectives import RegularizerConfig, regularizer
from .optimize import EstimationReport, FitConfig, fit
from .sampling import (
    Dataset,
    NoiseDistribution,
    SamplingConfig,
    noise_from_spec,
    sample_negatives,
)

UNK = "<unk>"
_VALID_FRACTION = 0.1  # tail of the token stream held out for validation
_EVAL_EVERY = 20  # fit iterations between perplexity evaluations
# l2 of every LM fit. Unpenalized, the LM objectives have no useful optimum; this
# is the smallest penalty on {1..5}e-3 whose three c9 fits on the bundled corpus
# reach theirs (|g| <= 1e-5 within 3,000 iterations) and pass both c9 bars
_L2 = 3e-3


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]
    index: dict = field(repr=False)
    unk_id: int

    @classmethod
    def build(cls, tokens) -> "Vocab":
        ordered = [UNK] + sorted(set(tokens) - {UNK})
        if len(ordered) < 2:
            raise ValidationError("empty vocabulary")
        return cls(
            tokens=tuple(ordered),
            index={t: i for i, t in enumerate(ordered)},
            unk_id=0,
        )

    @property
    def size(self) -> int:
        return len(self.tokens)

    def encode(self, tokens) -> np.ndarray:
        unk = self.unk_id
        return np.asarray([self.index.get(t, unk) for t in tokens], dtype=np.int64)


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def ngram_positions(ids: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(histories, targets): histories[i] is the order-1 ids before target i."""
    width = order - 1
    if ids.size <= width:
        raise ValidationError(f"token stream too short for order {order}")
    histories = np.stack([ids[i : ids.size - width + i] for i in range(width)], axis=1)
    return histories, ids[width:]


class HistoryTable:
    """Maps history tuples to row indices of a LogBilinear scorer.

    Bigram tables enumerate every single-word history. Higher orders keep
    the histories observed in training plus a reserved all-<unk> row that
    absorbs unseen evaluation histories.
    """

    def __init__(self, order: int, vocab: Vocab, train_ids: np.ndarray):
        if order < 2:
            raise ValidationError(f"order must be >= 2, got {order}")
        self.order = order
        width = order - 1
        if width == 1:
            rows = np.arange(vocab.size, dtype=np.int64)[:, None]
        else:
            observed, _ = ngram_positions(train_ids, order)
            unk_row = np.full((1, width), vocab.unk_id, dtype=np.int64)
            rows = np.unique(np.concatenate([observed, unk_row], axis=0), axis=0)
        self.rows = rows
        self._index = {tuple(r): i for i, r in enumerate(rows)}
        self._fallback = self._index[tuple([vocab.unk_id] * width)]

    def lookup(self, history: tuple[int, ...]) -> int:
        return self._index.get(tuple(history), self._fallback)

    def positions(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(history rows, targets) of every n-gram position of a token-id stream."""
        histories, targets = ngram_positions(ids, self.order)
        rows = np.asarray([self.lookup(tuple(h)) for h in histories], dtype=np.int64)
        return rows, targets


@dataclass
class LmConfig:
    loss: str = "mle"  # mle | ranking | binary
    order: int = 2
    dim: int = 16
    k: int = 100
    noise: str = "unigram"  # uniform | unigram | unigram-pow:<p>
    reg_alpha: float = 0.0
    reg_m: int | None = None  # default: vocab size // 10
    context_bias: bool = False
    seed: int = 0
    max_iters: int = 400
    tol: float = 1e-5


@dataclass
class LmReport:
    vocab_size: int
    n_train: int
    n_valid: int
    train_ppl: float
    valid_ppl: float
    log_z_mean: float
    log_z_var: float
    reg_penalty_sampled: float | None
    reg_target_exact: float | None
    eval_rows: list[tuple[int, float, float]]  # (fit iteration, train ppl, valid ppl)
    fit: EstimationReport

    def to_json_dict(self) -> dict:
        out = {
            "vocab_size": self.vocab_size,
            "n_train": self.n_train,
            "n_valid": self.n_valid,
            "train_ppl": self.train_ppl,
            "valid_ppl": self.valid_ppl,
            "log_z_mean": self.log_z_mean,
            "log_z_var": self.log_z_var,
            "reg_penalty_sampled": self.reg_penalty_sampled,
            "reg_target_exact": self.reg_target_exact,
            "evals": [
                {"iteration": it, "train_ppl": tr, "valid_ppl": va}
                for it, tr, va in self.eval_rows
            ],
            "fit": self.fit.to_json_dict(),
        }
        return out


def run_lm_experiment(text: str, cfg: LmConfig) -> LmReport:
    tokens = tokenize(text)
    if not tokens:
        raise ValidationError("empty corpus")
    split = int(round(len(tokens) * (1.0 - _VALID_FRACTION)))
    if split < cfg.order or len(tokens) - split < cfg.order:
        raise ValidationError("corpus too small for the requested split")
    train_tokens, valid_tokens = tokens[:split], tokens[split:]
    vocab = Vocab.build(train_tokens)
    train_ids = vocab.encode(train_tokens)
    valid_ids = vocab.encode(valid_tokens)
    if np.all(valid_ids == vocab.unk_id):
        raise ValidationError("validation split contains only unknown tokens")

    table = HistoryTable(cfg.order, vocab, train_ids)
    sf = LogBilinear(table.rows, vocab.size, cfg.dim)
    if cfg.context_bias:
        sf = ContextBias(sf)

    x_idx, targets = table.positions(train_ids)
    valid_x, valid_targets = table.positions(valid_ids)
    counts = np.bincount(train_ids, minlength=vocab.size).astype(np.float64)
    if np.any(counts == 0):
        counts += 1.0  # add-one smoothing, so every word can be a negative
    noise = noise_from_spec(cfg.noise, counts)

    scfg = SamplingConfig(k=cfg.k, seed=cfg.seed, stream=1)
    negatives = (
        sample_negatives(scfg, noise, x_idx.size)
        if cfg.loss in ("ranking", "binary")
        else np.zeros((x_idx.size, 1), dtype=np.int64)
    )
    dataset = Dataset(
        x=x_idx,
        y=targets,
        negatives=negatives,
        provenance={"seed": cfg.seed, "k": cfg.k, "noise": noise.digest(), "n": int(x_idx.size)},
    )

    reg = None
    if cfg.reg_alpha != 0.0:  # RegularizerConfig rejects a negative or NaN alpha
        m = cfg.reg_m if cfg.reg_m is not None else max(1, vocab.size // 10)
        reg = RegularizerConfig(alpha=cfg.reg_alpha, m=m, seed=cfg.seed, stream=2)

    fit_cfg = FitConfig(
        objective=cfg.loss,
        k=cfg.k,
        reg=reg,
        max_iters=cfg.max_iters,
        tol=cfg.tol,
        init="gaussian",  # zeros is a saddle for the bilinear form
        seed=cfg.seed,
        l2=_L2,
    )

    eval_rows: list[tuple[int, float, float]] = []

    def ppl_pair(log_q: np.ndarray) -> tuple[float, float]:
        return (
            corpus_perplexity(log_q, x_idx, targets),
            corpus_perplexity(log_q, valid_x, valid_targets),
        )

    def on_iteration(iteration: int, theta: np.ndarray) -> None:
        if iteration % _EVAL_EVERY == 0:
            eval_rows.append((iteration, *ppl_pair(log_cond_prob_table(sf, theta))))

    report = fit(sf, dataset, noise, fit_cfg, callback=on_iteration)
    theta = report.theta
    lse, log_q = log_softmax_rows(sf.score_table(theta))
    train_ppl, valid_ppl = ppl_pair(log_q)
    if not eval_rows or eval_rows[-1][0] != report.iterations:
        eval_rows.append((report.iterations, train_ppl, valid_ppl))

    # partition-function spread over the held-out context sample
    log_z = lse[valid_x]
    reg_sampled = reg_target = None
    if reg is not None:
        reg_sampled = regularizer(sf, theta, dataset, noise, reg)[0]
        reg_target = float(reg.alpha * np.mean(lse[x_idx] ** 2))
    return LmReport(
        vocab_size=vocab.size,
        n_train=int(x_idx.size),
        n_valid=int(valid_x.size),
        train_ppl=train_ppl,
        valid_ppl=valid_ppl,
        log_z_mean=float(log_z.mean()),
        log_z_var=float(log_z.var()),
        reg_penalty_sampled=reg_sampled,
        reg_target_exact=reg_target,
        eval_rows=eval_rows,
        fit=report,
    )


def corpus_perplexity(log_q: np.ndarray, x: np.ndarray, targets: np.ndarray) -> float:
    """exp(-mean log p) over a token-id stream's n-gram positions, as
    ``HistoryTable.positions`` encodes them, given ``log_cond_prob_table``."""
    return float(np.exp(-np.mean(log_q[x, targets])))
