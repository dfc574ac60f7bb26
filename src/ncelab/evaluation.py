"""Distances between true and estimated conditionals.

KL runs in the direction KL(true || estimated), averaged over contexts
under p_X: an estimator that misses true support mass is penalized, and
both metrics inherit the conditional model's invariance to per-context
score shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .model import ConditionalProblem, ScoringFunction, log_cond_prob_table


@dataclass(frozen=True)
class EvalResult:
    kl: float
    d_metric: float
    worst_tv: float

    def to_json_dict(self) -> dict:
        return {"kl": self.kl, "d_metric": self.d_metric, "worst_tv": self.worst_tv}


def _log_q(problem: ConditionalProblem, sf: ScoringFunction, theta: np.ndarray) -> np.ndarray:
    """The estimated log p(y|x;theta) table, shape-checked against the problem."""
    problem.check_bounds(sf.m_x, sf.m_y)
    return log_cond_prob_table(sf, theta)


def _kl(problem: ConditionalProblem, log_q: np.ndarray) -> float:
    if np.any(np.isneginf(log_q)):
        raise NumericError("estimated conditional has an exactly-zero entry")
    p = problem.p_y_given_x
    per_cell = p * (np.log(p) - log_q)
    return float(problem.p_x @ per_cell.sum(axis=1))


def _d_metric(problem: ConditionalProblem, q: np.ndarray) -> float:
    return float(np.sum(problem.p_xy * (q - problem.p_y_given_x) ** 2))


def kl_divergence(problem: ConditionalProblem, sf: ScoringFunction, theta: np.ndarray) -> float:
    """sum_x p_X(x) KL( p_{Y|X}(.|x) || p(.|x;theta) )."""
    return _kl(problem, _log_q(problem, sf, theta))


def d_metric(problem: ConditionalProblem, sf: ScoringFunction, theta: np.ndarray) -> float:
    """sum_{x,y} p_XY(x,y) (phat(y|x) - p(y|x))^2."""
    return _d_metric(problem, np.exp(_log_q(problem, sf, theta)))


def evaluate(problem: ConditionalProblem, sf: ScoringFunction, theta: np.ndarray) -> EvalResult:
    """KL, the d metric and the worst-case total variation max_x TV between
    true and estimated conditionals, all from one conditional table."""
    log_q = _log_q(problem, sf, theta)
    q = np.exp(log_q)
    return EvalResult(
        kl=_kl(problem, log_q),
        d_metric=_d_metric(problem, q),
        worst_tv=float(0.5 * np.max(np.abs(q - problem.p_y_given_x).sum(axis=1))),
    )
