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

import numpy as np

from .errors import ValidationError
from .model import (
    ConditionalProblem,
    LinearFeatures,
    LinearSoftmax,
    log_softmax_rows,
    problem_from_scores,
)


_SAVE_BLOCK = 1 << 14  # integer entries per block of save_dataset_jsonl


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent Philox stream for (seed, key...); every random stream starts here."""
    if min((seed, *key)) < 0:
        raise ValidationError(f"seed and stream must be nonnegative, got seed {seed}, key {key}")
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


@dataclass(frozen=True)
class Dataset:
    """Positive pairs plus an (n, K) matrix of sampled negative labels."""

    x: np.ndarray
    y: np.ndarray
    negatives: np.ndarray
    provenance: dict

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
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
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


def _check_sizes(d: int, m_x: int, m_y: int) -> None:
    """The size check every synthetic generator shares."""
    if min(d, m_x) < 1 or m_y < 2:
        raise ValidationError(f"bad synthetic sizes d={d}, m_x={m_x}, m_y={m_y}")


def make_synthetic_problem(d: int, m_x: int, m_y: int, seed: int) -> ConditionalProblem:
    """Per-label linear model with mixture-of-Gaussians inputs and weights.

    p_X is uniform; p_{Y|X} is the softmax of inputs @ theta_y. The
    resulting problem is generically *not* self-normalized, which is
    exactly what separates the ranking and binary estimators.
    """
    _check_sizes(d, m_x, m_y)
    rng = derive_rng(seed, 0)
    inputs = _gaussian_mixture(rng, (m_x, d))
    weights = _gaussian_mixture(rng, (m_y, d))
    return problem_from_scores(
        LinearSoftmax(inputs, m_y), weights.ravel(), p_x=np.full(m_x, 1.0 / m_x)
    )


def random_tabular_problem(m_x: int, m_y: int, d: int, seed: int) -> ConditionalProblem:
    """Random dense-feature problem whose truth is its own model (realizable)."""
    _check_sizes(d, m_x, m_y)
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
    _check_sizes(d, m_x, m_y)
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
    """Header ``json.dumps({"provenance": ...}, sort_keys=True)``, then one line per
    example, byte-equal to ``json.dumps({"x": x, "y": y, "neg": [n1, ..., nK]})``:
    a ``%d`` row template formats blocks of rows, as json.dumps prints each int."""
    row = '{"x": %d, "y": %d, "neg": [' + ", ".join(["%d"] * dataset.k) + "]}\n"
    per_block = max(1, _SAVE_BLOCK // (dataset.k + 2))
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"provenance": dataset.provenance}, sort_keys=True))
        f.write("\n")
        for start in range(0, dataset.n, per_block):
            part = slice(start, start + per_block)
            block = np.column_stack((dataset.x[part], dataset.y[part], dataset.negatives[part]))
            f.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


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
