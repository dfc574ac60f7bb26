"""Reference figures for the benchmark's output checks, computed without ncelab.

Everything here reads the files the CLI wrote (problem JSON, saved
datasets, fitted parameters, the bundled corpus) and recomputes the
figures with plain numpy and itertools, so a check compares the program
against an independent computation rather than against itself.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

UNK = "<unk>"


def log_softmax(a: np.ndarray) -> np.ndarray:
    z = a - a.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def log_sum_exp(a: np.ndarray) -> np.ndarray:
    top = a.max(axis=-1)
    return top + np.log(np.exp(a - top[..., None]).sum(axis=-1))


# --------------------------------------------------------------------------
# tabular problems


@dataclass
class Problem:
    """The fields of a problem file that the checks need."""

    p_x: np.ndarray
    p_yx: np.ndarray
    variant: str
    features: np.ndarray
    theta_star: np.ndarray

    @classmethod
    def load(cls, path: Path) -> "Problem":
        obj = json.loads(Path(path).read_text())
        m_x, m_y, d = obj["m_x"], obj["m_y"], obj["d"]
        feats = np.asarray(obj["features"], dtype=np.float64)
        shape = (m_x, d) if obj["variant"] == "linear-softmax" else (m_x, m_y, d)
        return cls(
            p_x=np.asarray(obj["p_x"]),
            p_yx=np.asarray(obj["p_y_given_x"]).reshape(m_x, m_y),
            variant=obj["variant"],
            features=feats.reshape(shape),
            theta_star=np.asarray(obj["theta_star"]),
        )

    @property
    def m_x(self) -> int:
        return self.p_yx.shape[0]

    @property
    def m_y(self) -> int:
        return self.p_yx.shape[1]

    def scores(self, theta: np.ndarray, context_bias: bool = False) -> np.ndarray:
        """s(x, y; theta); with ``context_bias`` the last m_x entries are c_x."""
        theta = np.asarray(theta, dtype=np.float64)
        inner = theta[: theta.size - self.m_x] if context_bias else theta
        if self.variant == "linear-softmax":
            table = self.features @ inner.reshape(self.m_y, -1).T
        else:
            table = self.features @ inner
        if context_bias:
            table = table - theta[inner.size :, None]
        return table

    def kl(self, theta: np.ndarray, context_bias: bool = False) -> float:
        """sum_x p_X(x) KL(p(.|x) || q(.|x; theta))."""
        log_q = log_softmax(self.scores(theta, context_bias))
        return float(self.p_x @ (self.p_yx * (np.log(self.p_yx) - log_q)).sum(axis=1))

    def fisher(self) -> np.ndarray:
        """E_X Var_{Y|X}[f(x, y)] for a dense-feature problem at its truth."""
        f, p = self.features, self.p_yx
        mean = np.einsum("xy,xyd->xd", p, f)
        second = np.einsum("xy,xyd,xye->xde", p, f, f)
        return np.einsum("x,xde->de", self.p_x, second - mean[:, :, None] * mean[:, None, :])

    def ranking_information(self, k: int) -> np.ndarray:
        """E[g g^T] - E[v v^T] by brute force over every (y, y_1..y_K) tuple.

        Uniform noise; g is the score gradient of the true pair and v the
        posterior-weighted candidate gradient, both at the truth.
        """
        f = self.features
        log_noise = -np.log(self.m_y)
        shat = f @ self.theta_star - log_noise
        info = np.einsum("x,xy,xyd,xye->de", self.p_x, self.p_yx, f, f)
        tuples = np.array(list(itertools.product(range(self.m_y), repeat=k + 1)))
        for x in range(self.m_x):
            weight = self.p_x[x] * self.p_yx[x, tuples[:, 0]] * np.exp(k * log_noise)
            q = np.exp(log_softmax(shat[x, tuples]))
            v = np.einsum("tj,tjd->td", q, f[x, tuples])
            info -= np.einsum("t,td,te->de", weight, v, v)
        return info


def load_dataset(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, negatives) from a dataset JSONL file."""
    with open(path, encoding="utf-8") as f:
        f.readline()
        rows = [json.loads(line) for line in f if line.strip()]
    return (
        np.array([r["x"] for r in rows]),
        np.array([r["y"] for r in rows]),
        np.array([r["neg"] for r in rows]),
    )


def ranking_objective(shat: np.ndarray, x, y, neg) -> float:
    cand = shat[x[:, None], np.concatenate([y[:, None], neg], axis=1)]
    return float(np.mean(cand[:, 0] - log_sum_exp(cand)))


def binary_objective(shat: np.ndarray, gamma: float, x, y, neg) -> float:
    logit = shat - gamma - np.log(neg.shape[1])
    pos = -np.logaddexp(0.0, -logit[x, y])
    negs = -np.logaddexp(0.0, logit[x[:, None], neg])
    return float(np.mean(pos + negs.sum(axis=1)))


def read_csv(path: Path) -> list[dict]:
    """Rows of a CLI CSV output (the leading manifest comment is skipped)."""
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# --------------------------------------------------------------------------
# language model


def split_corpus(text: str, valid_fraction: float = 0.1) -> tuple[list[str], list[str]]:
    """Whitespace, lower-cased tokens split into train and validation parts."""
    tokens = text.lower().split()
    split = int(round(len(tokens) * (1.0 - valid_fraction)))
    return tokens[:split], tokens[split:]


def vocabulary(train: list[str]) -> dict[str, int]:
    return {t: i for i, t in enumerate([UNK] + sorted(set(train) - {UNK}))}


def encode(tokens: list[str], vocab: dict[str, int]) -> np.ndarray:
    return np.array([vocab.get(t, 0) for t in tokens])


def unigram_perplexity(train_ids: np.ndarray, valid_ids: np.ndarray, size: int) -> float:
    """Add-one unigram perplexity on the validation targets."""
    counts = np.bincount(train_ids, minlength=size) + 1.0
    log_p = np.log(counts / counts.sum())
    return float(np.exp(-np.mean(log_p[valid_ids[1:]])))


def chain_model(make_corpus: Path) -> tuple[dict[str, int], np.ndarray]:
    """Next-word law of the seeded chain that generated the bundled corpus.

    Replays the parameter draws of the corpus script (its seed, Zipf
    unigram and Dirichlet successor sets) without generating text. Each
    step restarts from the unigram with probability 0.02 before moving to
    a successor, so p(next | cur) = 0.98 P[cur] + 0.02 unigram @ P.
    """
    spec = importlib.util.spec_from_file_location("make_corpus", make_corpus)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rng = np.random.default_rng(20240817)
    words = sorted(set(module.WORDS))
    v = len(words)
    ranks = rng.permutation(v) + 1
    unigram = 1.0 / ranks**1.05
    unigram /= unigram.sum()
    transition = np.zeros((v, v))
    for s in range(v):
        fanout = int(rng.integers(6, 25))
        cand = rng.choice(v, size=fanout, replace=False, p=unigram)
        transition[s, cand] = rng.dirichlet(np.full(fanout, 0.4))
    step = 0.98 * transition + 0.02 * (unigram @ transition)[None, :]
    return {w: i for i, w in enumerate(words)}, step


def chain_perplexity(index: dict[str, int], step: np.ndarray, tokens: list[str]) -> float:
    """Perplexity of the generating chain on consecutive tokens."""
    ids = np.array([index[t] for t in tokens])
    probs = step[ids[:-1], ids[1:]]
    if np.any(probs <= 0.0):
        raise ValueError("a corpus bigram has zero probability under the replayed chain")
    return float(np.exp(-np.mean(np.log(probs))))


def bigram_log_bilinear(theta, size: int, dim: int) -> np.ndarray:
    """Score table of a bigram log-bilinear model without per-history bias."""
    theta = np.asarray(theta, dtype=np.float64)
    ctx = theta[: dim * dim].reshape(dim, dim)
    r = theta[dim * dim : dim * dim + size * dim].reshape(size, dim)
    q = theta[dim * dim + size * dim : dim * dim + 2 * size * dim].reshape(size, dim)
    b = theta[dim * dim + 2 * size * dim :]
    if b.size != size:
        raise ValueError(f"parameter vector does not fit V={size}, dim={dim}")
    return (r @ ctx.T) @ q.T + b[None, :]


def lm_validation(scores: np.ndarray, valid_ids: np.ndarray) -> tuple[float, float]:
    """(perplexity, Var[log Z]) over the validation positions."""
    log_p = log_softmax(scores)
    ppl = float(np.exp(-np.mean(log_p[valid_ids[:-1], valid_ids[1:]])))
    return ppl, float(np.var(log_sum_exp(scores)[valid_ids[:-1]]))
