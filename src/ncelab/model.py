"""Conditional models p(y|x) = exp(s(x,y;theta)) / Z(x;theta) over finite spaces.

Scoring functions are closed enumerations (no plug-ins): a dense feature
table, a per-label linear ("softmax regression") form, a log-bilinear
n-gram form, and a per-context bias wrapper over any of them. The whole
scorer contract is

* ``score_table(theta)``        -- all scores as an (m_x, m_y) array,
* ``accumulate_grad(theta, w)`` -- sum_{x,y} w[x,y] * grad s(x,y;theta),

which is enough to evaluate every objective in the package. The three
linear tabular scorers (LinearFeatures, LinearSoftmax and ContextBias over
either) also give ``grad_table(theta)``, the (m_x, m_y, n_params) tensor of
per-cell gradients in closed form, which the asymptotic covariances need;
LogBilinear, sized for language models, does not. Conditionals always go
through the max-shifted log-sum-exp of ``log_softmax_rows``; naive
exponentiation overflows for scores around 700.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

PROB_TOL = 1e-12
SELF_NORM_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    out.flags.writeable = False
    return out


def check_params(theta: np.ndarray, n_params: int) -> np.ndarray:
    """Validate a flat parameter vector: right length, finite entries."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (n_params,):
        raise ValidationError(f"theta: expected shape ({n_params},), got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValidationError("theta: non-finite entries")
    return theta


class ScoringFunction:
    """Base class: parametric score s(x, y; theta) with gradient."""

    m_x: int
    m_y: int
    n_params: int

    def score_table(self, theta: np.ndarray) -> np.ndarray:
        """All scores, shape (m_x, m_y)."""
        raise NotImplementedError

    def accumulate_grad(self, theta: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_{x,y} weights[x,y] * grad_theta s(x,y;theta), shape (n_params,)."""
        raise NotImplementedError

    def grad_table(self, theta: np.ndarray) -> np.ndarray:
        """Per-cell gradients, shape (m_x, m_y, n_params); linear tabular
        scorers only, for the small problems of the asymptotics module."""
        raise NotImplementedError


class LinearFeatures(ScoringFunction):
    """s(x,y;theta) = theta . f(x,y) with a dense feature table f."""

    def __init__(self, features: np.ndarray):
        features = _readonly(features)
        if features.ndim != 3:
            raise ValidationError(
                f"linear-features: table must be (m_x, m_y, d), got {features.shape}"
            )
        self.features = features
        self.m_x, self.m_y, self.n_params = features.shape

    def score_table(self, theta: np.ndarray) -> np.ndarray:
        theta = check_params(theta, self.n_params)
        return self.features @ theta

    def accumulate_grad(self, theta: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.einsum("xyd,xy->d", self.features, weights)

    def grad_table(self, theta: np.ndarray) -> np.ndarray:
        check_params(theta, self.n_params)
        return self.features


class LinearSoftmax(ScoringFunction):
    """s(x,y;theta) = inputs[x] . theta_y, one weight row per label.

    theta is the flat row-major view of the (m_y, d) weight matrix.
    """

    def __init__(self, inputs: np.ndarray, n_labels: int):
        inputs = _readonly(inputs)
        if inputs.ndim != 2:
            raise ValidationError(
                f"linear-softmax: inputs must be (m_x, d), got {inputs.shape}"
            )
        if n_labels < 2:
            raise ValidationError(f"linear-softmax: need >= 2 labels, got {n_labels}")
        self.inputs = inputs
        self.m_x, self.dim = inputs.shape
        self.m_y = n_labels
        self.n_params = n_labels * self.dim

    def _weights(self, theta: np.ndarray) -> np.ndarray:
        return check_params(theta, self.n_params).reshape(self.m_y, self.dim)

    def score_table(self, theta: np.ndarray) -> np.ndarray:
        return self.inputs @ self._weights(theta).T

    def accumulate_grad(self, theta: np.ndarray, weights: np.ndarray) -> np.ndarray:
        self._weights(theta)
        return (weights.T @ self.inputs).ravel()

    def grad_table(self, theta: np.ndarray) -> np.ndarray:
        # cell (x, y) holds inputs[x] in label block y and zeros elsewhere
        self._weights(theta)
        out = np.zeros((self.m_x, self.m_y, self.m_y, self.dim))
        labels = np.arange(self.m_y)
        out[:, labels, labels] = self.inputs[:, None, :]
        return out.reshape(self.m_x, self.m_y, self.n_params)


class ContextBias(ScoringFunction):
    """s'(x,y) = inner(x,y;theta) - c_x, one extra bias parameter per input.

    The biases are appended after the inner parameters in the flat vector;
    the optimizer and the covariance code rely on that layout.
    """

    def __init__(self, inner: ScoringFunction):
        self.inner = inner
        self.m_x, self.m_y = inner.m_x, inner.m_y
        self.n_params = inner.n_params + inner.m_x

    def split(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = check_params(theta, self.n_params)
        return theta[: self.inner.n_params], theta[self.inner.n_params :]

    def score_table(self, theta: np.ndarray) -> np.ndarray:
        inner_theta, bias = self.split(theta)
        return self.inner.score_table(inner_theta) - bias[:, None]

    def accumulate_grad(self, theta: np.ndarray, weights: np.ndarray) -> np.ndarray:
        inner_theta, _ = self.split(theta)
        inner_grad = self.inner.accumulate_grad(inner_theta, weights)
        return np.concatenate([inner_grad, -weights.sum(axis=1)])

    def grad_table(self, theta: np.ndarray) -> np.ndarray:
        inner_theta, _ = self.split(theta)
        # -e_x per context; -np.eye would put -0.0 off the diagonal
        bias_grad = np.where(np.eye(self.m_x, dtype=bool), -1.0, 0.0)
        bias_grad = np.broadcast_to(bias_grad[:, None, :], (self.m_x, self.m_y, self.m_x))
        return np.concatenate([self.inner.grad_table(inner_theta), bias_grad], axis=2)


class LogBilinear(ScoringFunction):
    """n-gram log-bilinear scorer for language modeling.

    A history x is a row of ``histories`` (word ids of the previous
    ``order - 1`` positions). With context matrices C_i, input embeddings
    r, output embeddings q and output bias b,

        s(x, y) = (sum_i C_i r[x_i]) . q_y + b_y

    Without a per-history bias (``ContextBias`` adds one) the model must
    absorb the log-partition into the bilinear part to be self-normalized.

    Flat parameter layout: C (n_ctx*dim*dim), r (V*dim), q (V*dim), b (V).
    """

    def __init__(self, histories: np.ndarray, vocab_size: int, dim: int):
        histories = np.ascontiguousarray(np.asarray(histories, dtype=np.int64))
        if histories.ndim != 2 or histories.shape[0] < 1 or histories.shape[1] < 1:
            raise ValidationError(
                f"log-bilinear: histories must be (m_x, order-1), got {histories.shape}"
            )
        if histories.min() < 0 or histories.max() >= vocab_size:
            raise ValidationError("log-bilinear: history word id out of vocabulary")
        if dim < 1:
            raise ValidationError(f"log-bilinear: dim must be >= 1, got {dim}")
        histories.flags.writeable = False
        self.histories = histories
        self.m_x, self.n_ctx = histories.shape
        self.m_y = vocab_size
        self.dim = dim
        self.n_params = self.n_ctx * dim * dim + 2 * vocab_size * dim + vocab_size

    def unpack(self, theta: np.ndarray):
        theta = check_params(theta, self.n_params)
        v, dim = self.m_y, self.dim
        n_c = self.n_ctx * dim * dim
        ctx_mats = theta[:n_c].reshape(self.n_ctx, dim, dim)
        r = theta[n_c : n_c + v * dim].reshape(v, dim)
        q = theta[n_c + v * dim : n_c + 2 * v * dim].reshape(v, dim)
        b = theta[n_c + 2 * v * dim :]
        return ctx_mats, r, q, b

    def _context_reps(self, ctx_mats, r) -> np.ndarray:
        reps = np.zeros((self.m_x, self.dim))
        for i in range(self.n_ctx):
            reps += r[self.histories[:, i]] @ ctx_mats[i].T
        return reps

    def score_table(self, theta: np.ndarray) -> np.ndarray:
        ctx_mats, r, q, b = self.unpack(theta)
        return self._context_reps(ctx_mats, r) @ q.T + b[None, :]

    def accumulate_grad(self, theta: np.ndarray, weights: np.ndarray) -> np.ndarray:
        ctx_mats, r, q, b = self.unpack(theta)
        reps = self._context_reps(ctx_mats, r)
        d_q = weights.T @ reps
        d_b = weights.sum(axis=0)
        d_reps = weights @ q
        d_ctx = np.empty_like(ctx_mats)
        d_r = np.zeros_like(r)
        for i in range(self.n_ctx):
            r_i = r[self.histories[:, i]]
            d_ctx[i] = d_reps.T @ r_i
            np.add.at(d_r, self.histories[:, i], d_reps @ ctx_mats[i])
        return np.concatenate([d_ctx.ravel(), d_r.ravel(), d_q.ravel(), d_b])


def log_softmax_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row log-sum-exp and log-softmax of a 2-D array: (lse, log_p).

    Each row is shifted by its own maximum, so it stays exact however far it
    sits from 0; lse splits the maxima off and takes log1p of the rest. Both
    round exactly like scipy's logsumexp and log_softmax along axis 1."""
    a_max = table.max(axis=1, keepdims=True)
    shifted = table - a_max
    e = np.exp(shifted)
    log_sum = np.log(e.sum(axis=1, keepdims=True))
    is_max = shifted == 0.0
    m = is_max.sum(axis=1, keepdims=True)
    e[is_max] = 0.0
    lse = np.log1p(e.sum(axis=1, keepdims=True) / m) + np.log(m) + a_max
    return lse[:, 0], shifted - log_sum


def log_cond_prob_table(sf: ScoringFunction, theta: np.ndarray) -> np.ndarray:
    """log p(y|x;theta) for every pair, shape (m_x, m_y)."""
    theta = check_params(theta, sf.n_params)
    return log_softmax_rows(sf.score_table(theta))[1]


def cond_prob_table(sf: ScoringFunction, theta: np.ndarray) -> np.ndarray:
    return np.exp(log_cond_prob_table(sf, theta))


def self_norm_deviation(sf: ScoringFunction, theta: np.ndarray, gamma: float) -> float:
    """max_x |sum_y exp(s(x,y;theta) - gamma) - 1|: 0 when gamma normalizes every context."""
    norms = np.exp(log_softmax_rows(sf.score_table(theta) - gamma)[0])
    return float(np.max(np.abs(norms - 1.0)))


def _check_prob_vector(p: np.ndarray, name: str) -> np.ndarray:
    p = _readonly(p)
    if p.ndim != 1:
        raise ValidationError(f"{name}: expected a vector, got shape {p.shape}")
    if np.any(p <= 0.0):
        raise ValidationError(f"{name}: all entries must be > 0")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise ValidationError(f"{name}: must sum to 1 within {PROB_TOL}, got {total!r}")
    return p


@dataclass
class ConditionalProblem:
    """Finite ground truth: p_X, p_{Y|X}, optional (sf, theta*, gamma*).

    m_x and m_y are the shape of ``p_y_given_x``. A present ``gamma_star``
    asserts perfect self-normalization: sum_y exp(s(x,y;theta*) - gamma*)
    = 1 for every x, checked at construction within 1e-10.
    """

    p_x: np.ndarray
    p_y_given_x: np.ndarray
    scoring: ScoringFunction | None = None
    theta_star: np.ndarray | None = None
    gamma_star: float | None = None

    def __post_init__(self) -> None:
        self.p_x = _check_prob_vector(self.p_x, "p_x")
        p = _readonly(self.p_y_given_x)
        if p.ndim != 2:
            raise ValidationError(f"p_y_given_x: expected an (m_x, m_y) table, got shape {p.shape}")
        if p.shape[0] < 1:
            raise ValidationError(f"p_y_given_x: need at least 1 input, got {p.shape[0]}")
        if p.shape[1] < 2:
            raise ValidationError(f"p_y_given_x: need at least 2 labels, got {p.shape[1]}")
        if self.p_x.shape[0] != p.shape[0]:
            raise ValidationError(
                f"p_x: length {self.p_x.shape[0]} != {p.shape[0]} inputs of p_y_given_x"
            )
        if np.any(p <= 0.0):
            raise ValidationError("p_y_given_x: all entries must be > 0")
        row_sums = p.sum(axis=1)
        bad = np.argmax(np.abs(row_sums - 1.0))
        if abs(row_sums[bad] - 1.0) > PROB_TOL:
            raise ValidationError(
                f"p_y_given_x: row {bad} sums to {row_sums[bad]!r}, not 1 within {PROB_TOL}"
            )
        self.p_y_given_x = p
        if self.theta_star is not None:
            if self.scoring is None:
                raise ValidationError("theta_star given without a scoring function")
            self.theta_star = check_params(self.theta_star, self.scoring.n_params)
            if (self.scoring.m_x, self.scoring.m_y) != (self.m_x, self.m_y):
                raise ValidationError("scoring function shape does not match p_y_given_x")
            if self.gamma_star is not None:
                worst = self_norm_deviation(self.scoring, self.theta_star, self.gamma_star)
                if not worst <= SELF_NORM_TOL:  # a NaN score fails too
                    raise ValidationError(
                        f"gamma_star: sum_y exp(s - gamma) deviates from 1 by {worst:.3e}"
                    )
        elif self.gamma_star is not None:
            raise ValidationError("gamma_star given without theta_star")

    @property
    def m_x(self) -> int:
        return self.p_y_given_x.shape[0]

    @property
    def m_y(self) -> int:
        return self.p_y_given_x.shape[1]

    @property
    def p_xy(self) -> np.ndarray:
        """Joint table p_X(x) * p_{Y|X}(y|x), shape (m_x, m_y)."""
        return self.p_x[:, None] * self.p_y_given_x

    @property
    def p_y(self) -> np.ndarray:
        """Label marginal p_X @ p_{Y|X}, shape (m_y,)."""
        return self.p_x @ self.p_y_given_x

    def to_json_dict(self) -> dict:
        sf = self.scoring
        out: dict = {
            "m_x": self.m_x,
            "m_y": self.m_y,
            "p_x": self.p_x.tolist(),
            "p_y_given_x": self.p_y_given_x.ravel().tolist(),
        }
        if sf is None:
            out["variant"] = None
            out["d"] = 0
            return out
        if isinstance(sf, LinearFeatures):
            out["variant"] = "linear-features"
            out["features"] = sf.features.ravel().tolist()
            out["d"] = sf.features.shape[2]
        elif isinstance(sf, LinearSoftmax):
            out["variant"] = "linear-softmax"
            out["features"] = sf.inputs.ravel().tolist()
            out["d"] = sf.dim
        else:
            raise ValidationError(f"cannot serialize scoring variant {type(sf).__name__}")
        if self.theta_star is not None:
            out["theta_star"] = self.theta_star.tolist()
        if self.gamma_star is not None:
            out["gamma_star"] = self.gamma_star
        return out

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json_dict(), f)
            f.write("\n")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ConditionalProblem":
        for field in ("m_x", "m_y", "p_x", "p_y_given_x"):
            if field not in obj:
                raise ValidationError(f"problem json: missing field '{field}'")
        m_x, m_y = _json_field(obj, "m_x", _json_size), _json_field(obj, "m_y", _json_size)
        p_x = _json_field(obj, "p_x", _json_floats)
        p_yx = _json_field(obj, "p_y_given_x", _json_floats)
        if p_yx.size != m_x * m_y:
            raise ValidationError(f"p_y_given_x: expected {m_x * m_y} entries, got {p_yx.size}")
        p_yx = p_yx.reshape(m_x, m_y)
        variant = obj.get("variant")
        scoring = None
        if variant is not None:
            d = _json_field(obj, "d", _json_size) if "d" in obj else 0
            if "features" not in obj:
                raise ValidationError("problem json: variant given without 'features'")
            feats = _json_field(obj, "features", _json_floats)
            if variant == "linear-features":
                if feats.size != m_x * m_y * d:
                    raise ValidationError(
                        f"features: expected {m_x * m_y * d} entries, got {feats.size}"
                    )
                scoring = LinearFeatures(feats.reshape(m_x, m_y, d))
            elif variant == "linear-softmax":
                if feats.size != m_x * d:
                    raise ValidationError(
                        f"features: expected {m_x * d} entries, got {feats.size}"
                    )
                scoring = LinearSoftmax(feats.reshape(m_x, d), m_y)
            else:
                raise ValidationError(f"problem json: unknown variant '{variant}'")
        theta_star = gamma_star = None
        if obj.get("theta_star") is not None:
            theta_star = _json_field(obj, "theta_star", _json_floats)
        if obj.get("gamma_star") is not None:
            gamma_star = _json_field(obj, "gamma_star", float)
        return cls(
            p_x=p_x,
            p_y_given_x=p_yx,
            scoring=scoring,
            theta_star=theta_star,
            gamma_star=gamma_star,
        )

    @classmethod
    def load(cls, path: str) -> "ConditionalProblem":
        with open(path, encoding="utf-8") as f:
            try:
                obj = json.load(f)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"problem json: {exc}") from exc
        return cls.from_json_dict(obj)


def _json_size(value) -> int:
    size = int(value)
    if size < 0:
        raise ValueError(f"{size} is negative")
    return size


def _json_floats(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _json_field(obj: dict, name: str, convert):
    """Convert one problem-json field, naming it when the value is malformed."""
    try:
        return convert(obj[name])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"problem json: bad field '{name}' ({exc})") from exc


def problem_from_scores(
    scoring: ScoringFunction,
    theta_star: np.ndarray,
    p_x: np.ndarray,
    gamma_star: float | None = None,
) -> ConditionalProblem:
    """Build the ground-truth problem whose conditionals are the model's own."""
    return ConditionalProblem(
        p_x=p_x,
        p_y_given_x=cond_prob_table(scoring, theta_star),
        scoring=scoring,
        theta_star=theta_star,
        gamma_star=gamma_star,
    )
