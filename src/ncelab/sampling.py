"""Noise distributions, negative sampling, and synthetic problem generation.

All randomness flows through counter-based Philox generators keyed by
(master seed, stream id, substream...): independent reproducible streams
with no shared state, so repeated calls are bit-identical and sampling
could run concurrently across examples without coordination.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .model import (
    ConditionalProblem,
    LinearFeatures,
    LinearSoftmax,
    log_softmax_rows,
    problem_from_scores,
)

_FOLD_BLOCK = 1 << 14  # candidate entries per block of fold_candidates


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent Philox stream for (seed, key...)."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class NoiseDistribution:
    """Distribution over labels used for negative sampling.

    Strictly positive everywhere; sampling is inverse-CDF against the
    cumulative table.
    """

    probs: np.ndarray
    log_probs: np.ndarray = field(init=False)
    cumulative: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        p = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        if p.ndim != 1 or p.size < 2:
            raise ValidationError(f"noise: expected a vector of >= 2 masses, got shape {p.shape}")
        if not np.all(p > 0.0):
            raise ValidationError("noise: every label must have positive mass")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"noise: masses sum to {total!r}, not 1 within 1e-12")
        cum = np.cumsum(p)
        cum[-1] = 1.0
        if np.any(np.diff(cum) <= 0.0):
            raise ValidationError("noise: cumulative table is not strictly increasing")
        p.flags.writeable = False
        cum.flags.writeable = False
        lp = np.log(p)
        lp.flags.writeable = False
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "log_probs", lp)
        object.__setattr__(self, "cumulative", cum)

    @property
    def size(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, m_y: int) -> "NoiseDistribution":
        return cls(np.full(m_y, 1.0 / m_y))

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        u = rng.random(shape)
        return np.searchsorted(self.cumulative, u, side="right").astype(np.int64)

    def digest(self) -> str:
        return hashlib.sha256(self.probs.tobytes()).hexdigest()[:16]


def noise_power(spec: str) -> float | None:
    """Power on the unigram masses named by a noise spec; None for uniform.

    Specs: ``uniform``, ``unigram`` (power 1) and ``unigram-pow:<p>`` with
    p a finite number >= 0.
    """
    if spec == "uniform":
        return None
    if spec == "unigram":
        return 1.0
    if not spec.startswith("unigram-pow:"):
        raise ValidationError(f"unknown noise spec '{spec}'")
    try:
        power = float(spec.split(":", 1)[1])
    except ValueError as exc:
        raise ValidationError(f"bad noise spec '{spec}'") from exc
    if not (math.isfinite(power) and power >= 0):
        raise ValidationError(f"noise spec '{spec}': power must be finite and >= 0")
    return power


def noise_from_spec(spec: str, masses) -> NoiseDistribution:
    """The noise a spec names over len(masses) labels: uniform, or the masses
    raised to the spec's power and renormalized (see ``noise_power``)."""
    power = noise_power(spec)
    masses = np.asarray(masses, dtype=np.float64)
    if power is None:
        return NoiseDistribution.uniform(masses.size)
    weights = masses**power
    return NoiseDistribution(weights / weights.sum())


@dataclass(frozen=True)
class SamplingConfig:
    """How many negatives per example and which reproducible stream."""

    k: int
    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValidationError(f"K must be >= 1, got {self.k}")
        if self.seed < 0 or self.stream < 0:
            raise ValidationError("seed and stream must be nonnegative")


class DatasetTables(NamedTuple):
    """A dataset seen through an (m_x, m_y) score table."""

    positives: np.ndarray  # (m_x, m_y) times each cell is an observed pair
    negatives: np.ndarray  # (m_x, m_y) times each cell is a sampled negative


class RankingKeys(NamedTuple):
    """A dataset's distinct ranking tuples, each folded by ``fold_candidates``,
    and how often each occurs."""

    index: np.ndarray  # (u, W) distinct flat cells, observed cell in column 0
    mult: np.ndarray  # (u, W) how often each cell is a candidate; 0 in pad slots
    counts: np.ndarray  # (u,) float occurrences of each row; they sum to n


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


@dataclass(frozen=True)
class Dataset:
    """Positive pairs plus an (n, K) matrix of sampled negative labels."""

    x: np.ndarray
    y: np.ndarray
    negatives: np.ndarray
    provenance: dict
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _keys: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("x", "y", "negatives"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.int64))
            object.__setattr__(self, name, arr)
        n = self.x.size
        if self.y.shape != (n,):
            raise ValidationError(f"dataset: y shape {self.y.shape} != ({n},)")
        if self.negatives.ndim != 2 or self.negatives.shape[0] != n or self.negatives.shape[1] < 1:
            raise ValidationError(
                f"dataset: negatives shape {self.negatives.shape} is not (n={n}, K) with K >= 1"
            )
        for arr in (self.x, self.y, self.negatives):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def k(self) -> int:
        return self.negatives.shape[1]

    def check_bounds(self, m_x: int, m_y: int) -> None:
        """Reject an empty dataset and one whose indices overrun an (m_x, m_y) table."""
        if self.n == 0:
            raise ValidationError("dataset is empty")
        if self.x.min() < 0 or self.x.max() >= m_x:
            raise ValidationError("dataset: x index out of range")
        labels = (self.y, self.negatives)
        if min(a.min() for a in labels) < 0 or max(a.max() for a in labels) >= m_y:
            raise ValidationError("dataset: label index out of range")

    def tables(self, m_x: int, m_y: int) -> DatasetTables:
        """Count tables, built and bounds-checked once per shape; the dataset
        is immutable, so they never go stale."""
        if (m_x, m_y) not in self._tables:
            self.check_bounds(m_x, m_y)
            cells = m_x * m_y
            positives = np.bincount(self.x * m_y + self.y, minlength=cells).reshape(m_x, m_y)
            negatives = np.bincount(
                (self.x[:, None] * m_y + self.negatives).ravel(), minlength=cells
            ).reshape(m_x, m_y)
            for arr in (positives, negatives):
                arr.flags.writeable = False
            self._tables[(m_x, m_y)] = DatasetTables(positives, negatives)
        return self._tables[(m_x, m_y)]

    def ranking_keys(self, m_x: int, m_y: int) -> RankingKeys:
        """The rows (x, y, negatives) folded into distinct ranking keys, each
        key folded into its distinct candidate cells.

        The ranking loss is symmetric in the negatives, so a row is keyed by
        its observed cell and its sorted negative labels, packed into one
        int64 in base m_y. Keys come in increasing order. When the packed
        range m_x * m_y**(K+1) does not fit an int64 the rows stay as they
        are, each with count 1.0. Either way ``fold_candidates`` then folds
        each row's K+1 candidates into its distinct cells with multiplicities,
        the observed cell in column 0, from the sorted negatives. Built and
        bounds-checked on the first call per shape, apart from ``tables`` so
        that MLE and binary fits never pay for the sort.
        """
        if (m_x, m_y) not in self._keys:
            self.check_bounds(m_x, m_y)
            x, y, rest, counts = self.x, self.y, np.sort(self.negatives, axis=1), np.ones(self.n)
            # Python ints: a numpy integer power would wrap instead of growing
            if int(m_x) * int(m_y) ** (self.k + 1) < 2**63:
                packed = x * m_y + y
                for label in rest.T:
                    packed = packed * m_y + label
                _, first, repeats = np.unique(packed, return_index=True, return_counts=True)
                x, y, rest, counts = x[first], y[first], rest[first], repeats.astype(np.float64)
            keys = RankingKeys(*fold_candidates(x, y, rest, m_y), counts)
            for arr in keys:
                arr.flags.writeable = False
            self._keys[(m_x, m_y)] = keys
        return self._keys[(m_x, m_y)]

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in (self.x, self.y, self.negatives):
            h.update(arr.tobytes())
        h.update(json.dumps(self.provenance, sort_keys=True).encode())
        return h.hexdigest()[:16]


def sample_negatives(cfg: SamplingConfig, noise: NoiseDistribution, n: int) -> np.ndarray:
    """(n, K) labels drawn i.i.d. from the noise distribution.

    Fully determined by (seed, stream); repeated calls are bit-identical.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    rng = derive_rng(cfg.seed, cfg.stream, 2)
    return noise.sample(rng, (n, cfg.k))


def generate_dataset(
    problem: ConditionalProblem,
    n: int,
    cfg: SamplingConfig,
    noise: NoiseDistribution,
) -> Dataset:
    """Draw (x, y) pairs from the problem and attach sampled negatives."""
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    if noise.size != problem.m_y:
        raise ValidationError(
            f"noise size {noise.size} != label space size {problem.m_y}"
        )
    provenance = {
        "seed": cfg.seed,
        "stream": cfg.stream,
        "k": cfg.k,
        "n": int(n),
        "noise": noise.digest(),
    }
    if n == 0:
        return Dataset(
            x=np.empty(0, dtype=np.int64),
            y=np.empty(0, dtype=np.int64),
            negatives=np.empty((0, cfg.k), dtype=np.int64),
            provenance=provenance,
        )
    rng_x = derive_rng(cfg.seed, cfg.stream, 0)
    rng_y = derive_rng(cfg.seed, cfg.stream, 1)
    cum_x = np.cumsum(problem.p_x)
    cum_x[-1] = 1.0
    x = np.searchsorted(cum_x, rng_x.random(n), side="right").astype(np.int64)
    cum_rows = np.cumsum(problem.p_y_given_x, axis=1)
    cum_rows[:, -1] = 1.0
    u = rng_y.random(n)
    # inverse CDF per context: no (n, m_y) temporaries
    y = np.empty(n, dtype=np.int64)
    for ctx in range(problem.m_x):
        rows = np.flatnonzero(x == ctx)
        y[rows] = np.searchsorted(cum_rows[ctx], u[rows], side="right")
    negatives = sample_negatives(cfg, noise, n)
    return Dataset(x=x, y=y, negatives=negatives, provenance=provenance)


def counterexample_problem() -> ConditionalProblem:
    """Two-input/two-label instance on which binary NCE is inconsistent.

    Scores are eta_1 for (x1, y1) and eta_2 everywhere else; the true
    parameters are eta* = (log 1, log 3), so Z(x1) = 4, Z(x2) = 6 and the
    true conditional ratio p(y1|x1)/p(y2|x1) is 1/3. The binary-objective
    population maximizer instead pins that ratio at 3/7 for every K, while
    the ranking objective recovers 1/3.
    """
    features = np.zeros((2, 2, 2))
    features[0, 0, 0] = 1.0
    features[0, 1, 1] = 1.0
    features[1, :, 1] = 1.0
    scoring = LinearFeatures(features)
    theta_star = np.array([np.log(1.0), np.log(3.0)])
    return problem_from_scores(scoring, theta_star, p_x=np.array([0.5, 0.5]))


def _gaussian_mixture(rng: np.random.Generator, shape) -> np.ndarray:
    """Equal-weight 3-component mixture, means -2/0/+2 per coordinate, unit var."""
    means = 2.0 * (rng.integers(0, 3, size=shape) - 1)
    return means + rng.standard_normal(shape)


def make_synthetic_problem(d: int, m_x: int, m_y: int, seed: int) -> ConditionalProblem:
    """Per-label linear model with mixture-of-Gaussians inputs and weights.

    p_X is uniform; p_{Y|X} is the softmax of inputs @ theta_y. The
    resulting problem is generically *not* self-normalized, which is
    exactly what separates the ranking and binary estimators.
    """
    if min(d, m_x) < 1 or m_y < 2:
        raise ValidationError(f"bad synthetic sizes d={d}, m_x={m_x}, m_y={m_y}")
    rng = derive_rng(seed, 0)
    inputs = _gaussian_mixture(rng, (m_x, d))
    weights = _gaussian_mixture(rng, (m_y, d))
    return problem_from_scores(
        LinearSoftmax(inputs, m_y), weights.ravel(), p_x=np.full(m_x, 1.0 / m_x)
    )


def random_tabular_problem(m_x: int, m_y: int, d: int, seed: int) -> ConditionalProblem:
    """Random dense-feature problem whose truth is its own model (realizable)."""
    rng = derive_rng(seed, 1)
    features = rng.standard_normal((m_x, m_y, d))
    theta_star = rng.standard_normal(d) / np.sqrt(d)
    p_x = rng.random(m_x) + 0.2
    return problem_from_scores(LinearFeatures(features), theta_star, p_x / p_x.sum())


def make_self_normalized_problem(m_x: int, m_y: int, d: int, seed: int) -> ConditionalProblem:
    """Realizable problem whose whole family has a constant partition function.

    Each context's feature rows are a permutation of one shared set of
    label vectors, so Z(x;theta) = sum_j exp(theta . v_j) is the same for
    every x at *every* theta, not just at the truth. The shared vectors
    are recentered so that Z(x;theta*) = 1, i.e. gamma* = 0. The mapping
    stays identifiable as long as the v_j differences span R^d (so m_y
    must exceed d), which holds generically for random draws.
    """
    if m_y <= d:
        raise ValidationError(
            f"need m_y > d for an identifiable construction, got m_y={m_y}, d={d}"
        )
    rng = derive_rng(seed, 2)
    vectors = rng.standard_normal((m_y, d))
    theta_star = rng.standard_normal(d)
    theta_star /= np.linalg.norm(theta_star)
    gamma = float(log_softmax_rows((vectors @ theta_star)[None, :])[0][0])
    vectors = vectors - (gamma / float(theta_star @ theta_star)) * theta_star[None, :]
    perms = np.empty((m_x, m_y), dtype=np.int64)
    seen = set()
    for x in range(m_x):
        while True:
            perm = tuple(rng.permutation(m_y))
            if perm not in seen or len(seen) >= math.factorial(m_y):
                seen.add(perm)
                break
        perms[x] = perm
    features = vectors[perms]
    p_x = rng.random(m_x) + 0.2
    return problem_from_scores(
        LinearFeatures(features), theta_star, p_x / p_x.sum(), gamma_star=0.0
    )


def save_dataset_jsonl(dataset: Dataset, path: str) -> None:
    """One record per example; the header line carries the provenance."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"provenance": dataset.provenance}, sort_keys=True))
        f.write("\n")
        for i in range(dataset.n):
            rec = {
                "x": int(dataset.x[i]),
                "y": int(dataset.y[i]),
                "neg": dataset.negatives[i].tolist(),
            }
            f.write(json.dumps(rec))
            f.write("\n")


def load_dataset_jsonl(path: str) -> Dataset:
    with open(path, encoding="utf-8") as f:
        header = f.readline()
        try:
            provenance = json.loads(header)["provenance"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValidationError(f"dataset jsonl: bad header line ({exc})") from exc
        if not isinstance(provenance, dict):
            raise ValidationError("dataset jsonl: header provenance is not an object")
        xs, ys, negs = [], [], []
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                x, y, neg = int(rec["x"]), int(rec["y"]), [int(v) for v in rec["neg"]]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"dataset jsonl: line {lineno}: {exc}") from exc
            if negs and len(neg) != len(negs[0]):
                raise ValidationError(
                    f"dataset jsonl: line {lineno}: {len(neg)} negatives, "
                    f"earlier lines have {len(negs[0])}"
                )
            xs.append(x)
            ys.append(y)
            negs.append(neg)
    if not negs:
        raise ValidationError("dataset jsonl: no records after the header line")
    # the provenance feeds the dataset digest, so it must describe these records
    for name, actual in (("k", len(negs[0])), ("n", len(negs))):
        if provenance.get(name, actual) != actual:
            raise ValidationError(
                f"dataset jsonl: header {name}={provenance[name]!r}, but the records give {actual}"
            )
    return Dataset(
        x=np.asarray(xs, dtype=np.int64),
        y=np.asarray(ys, dtype=np.int64),
        negatives=np.asarray(negs, dtype=np.int64),
        provenance=provenance,
    )
