"""Deterministic full-batch fitting of the ranking/binary/MLE objectives.

The fit loop is L-BFGS (Liu & Nocedal 1989) on the negated objective: a
two-loop recursion over the last ``_MEMORY`` = 10 curvature pairs, a pair
kept when s.y > 1e-12 y.y, and a backtracking line search that halves the
step from 1 (from 1/|g| while the memory is empty) until it clears the
Armijo bar c=1e-4. A direction that does not point uphill clears the
memory and the gradient is taken instead. The fit stops at |g| <= tol.
Acceptance demands strict improvement, so the trace is nondecreasing by
construction and a tolerance below the float-noise floor ends in an
explicit stall report instead of a limit cycle. Desk-scale problems fit in
memory, so there is no stochasticity to average away and identical
(config, inputs) produce bit-identical reports.

Binary fits append gamma as the last coordinate and clamp it to
``_GAMMA_RANGE`` = [-30, 30] after every step (the maximizer is assumed
interior; the interval spans any desk-scale partition function). Under
``ContextBias`` gamma and the mean of the c_x enter the logit only as a
sum, so gamma is pinned at 0: its gradient entry is left out of the
direction, of |g| and of the curvature pairs.

``FitConfig.l2`` = lambda subtracts (lambda/2)|theta|^2 from the objective;
gamma is never penalized. Tabular fits keep lambda = 0, since a penalty
would bias the consistency claims. The log-bilinear LM needs one:
unpenalized, its objectives have no useful optimum (300 iterations on the
first 20% of the bundled corpus overfit to valid perplexities of 306.9 for
MLE and 987.3 for ranking at K=100), while at lambda = 3e-3 the three LM
fits of acceptance criterion c9 converge to |g| <= 1e-5 within 2,100
iterations.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InitializationError, ValidationError
from .model import ContextBias, ScoringFunction
from .objectives import (
    GAMMA_OBJECTIVES, OBJECTIVES, RegularizerConfig, regularizer_draws, value_grad_fn,
)
from .sampling import NoiseDistribution, derive_rng

_MIN_STEP = 1e-18
_ARMIJO = 1e-4
_MEMORY = 10  # L-BFGS curvature pairs kept
_CURVATURE = 1e-12  # a pair (s, y) is kept when s.y > _CURVATURE * y.y
_GAMMA_RANGE = (-30.0, 30.0)
_INIT_SIGMA = 0.1  # standard deviation of the "gaussian" initial point


@dataclass(frozen=True)
class FitConfig:
    objective: str
    k: int = 1
    reg: RegularizerConfig | None = None
    max_iters: int = 5000
    tol: float = 1e-7
    init: str = "zeros"
    seed: int = 0
    l2: float = 0.0  # weight lambda of the penalty (lambda/2)|theta|^2

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValidationError(
                f"objective must be one of {OBJECTIVES}, got '{self.objective}'"
            )
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValidationError(f"tol must be finite and > 0, got {self.tol}")
        if not (np.isfinite(self.l2) and self.l2 >= 0):
            raise ValidationError(f"l2 must be finite and >= 0, got {self.l2}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.init not in ("zeros", "gaussian"):
            raise ValidationError(f"init must be 'zeros' or 'gaussian', got '{self.init}'")

    def digest(self) -> str:
        payload = {k: v for k, v in self.__dict__.items() if k not in ("reg", "l2")}
        if self.reg is not None:
            payload["reg"] = self.reg.__dict__
        if self.l2:
            payload["l2"] = self.l2
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode()
        ).hexdigest()[:16]


@dataclass
class EstimationReport:
    objective_tag: str
    theta: np.ndarray
    gamma: float | None
    final_objective: float
    grad_norm: float
    iterations: int
    n_evaluations: int  # value-and-gradient calls, rejected line-search trials included
    converged: bool
    stalled: bool
    message: str
    trace_detail: list[tuple[int, float, float, float]]
    config_digest: str
    data_digest: str

    @property
    def trace(self) -> list[tuple[int, float]]:
        """(iteration, objective) of every accepted iterate."""
        return [(i, value) for i, value, _, _ in self.trace_detail]

    def to_json_dict(self) -> dict:
        return {
            "objective": self.objective_tag,
            "theta": self.theta.tolist(),
            "gamma": self.gamma,
            "final_objective": self.final_objective,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
            "n_evaluations": self.n_evaluations,
            "converged": self.converged,
            "stalled": self.stalled,
            "message": self.message,
            "trace": [[int(i), float(v)] for i, v in self.trace],
            "config_digest": self.config_digest,
            "data_digest": self.data_digest,
        }


def _initial_params(sf, cfg):
    dim = sf.n_params + (1 if cfg.objective in GAMMA_OBJECTIVES else 0)
    if cfg.init == "zeros":
        params = np.zeros(dim)
    else:
        rng = derive_rng(cfg.seed, 5)
        params = _INIT_SIGMA * rng.standard_normal(dim)
    return _clamp_gamma(params, cfg)


def _clamp_gamma(params, cfg):
    if cfg.objective in GAMMA_OBJECTIVES:
        params[-1] = np.clip(params[-1], *_GAMMA_RANGE)
    return params


def _search_direction(grad, grad_norm, pairs):
    """(direction, slope = direction . grad): the L-BFGS direction H g from the
    two-loop recursion if it points uphill, else the gradient with the
    memory cleared. ``pairs`` holds (s, y, 1/s.y), oldest first, where y is
    the gradient change of the negated objective."""
    if pairs:
        q = grad.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        s, y, _ = pairs[-1]
        q *= (s @ y) / (y @ y)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * (y @ q)) * s
        slope = float(q @ grad)
        if slope > 0:  # a NaN slope fails too
            return q, slope
        pairs.clear()
    return grad, grad_norm**2


def fit(
    sf: ScoringFunction,
    data,
    noise: NoiseDistribution | None,
    cfg: FitConfig,
    callback=None,
) -> EstimationReport:
    """Maximize the configured objective; deterministic in (cfg, inputs).

    ``data`` is a Dataset for the sampled objectives and a
    ConditionalProblem for the population ones. ``callback(iteration,
    theta)``, if given, runs after every accepted step with the score
    parameters, gamma left out (it must not mutate theta).
    """
    has_gamma = cfg.objective in GAMMA_OBJECTIVES
    # gamma and the mean of the c_x enter the binary logit only as a sum
    pin_gamma = has_gamma and isinstance(sf, ContextBias)
    alpha = cfg.reg.alpha if cfg.reg is not None else 0.0
    draws = regularizer_draws(data, noise, cfg.reg) if alpha > 0.0 else None
    value_grad = value_grad_fn(sf, data, noise, cfg.objective, cfg.k, draws, alpha, cfg.l2)
    params = _initial_params(sf, cfg)
    if pin_gamma:
        params[-1] = 0.0

    def evaluate(params):
        value, grad = value_grad(params)
        if pin_gamma:
            grad[-1] = 0.0  # out of the direction, |g| and the curvature pairs
        return value, grad

    value, grad = evaluate(params)
    n_evaluations = 1
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise InitializationError(
            f"objective non-finite at the initial point (value={value!r})"
        )
    grad_norm = float(np.linalg.norm(grad))
    trace_detail = [(0, value, grad_norm, 0.0)]
    pairs: deque = deque(maxlen=_MEMORY)
    stalled = False
    message = ""
    iterations = 0
    for iteration in range(1, cfg.max_iters + 1):
        if grad_norm <= cfg.tol:
            break
        direction, slope = _search_direction(grad, grad_norm, pairs)
        step = 1.0 if pairs else 1.0 / grad_norm
        while True:
            candidate = _clamp_gamma(params + step * direction, cfg)
            new_value, new_grad = evaluate(candidate)
            n_evaluations += 1
            # sufficient strict increase keeps the trace nondecreasing and
            # rules out limit cycles of slack-accepted downhill steps; once
            # improvements sink below float noise the search stalls loudly
            if (
                np.isfinite(new_value)
                and new_value > value
                and new_value >= value + _ARMIJO * step * slope
            ):
                break
            step *= 0.5
            if step < _MIN_STEP:
                stalled = True
                message = (
                    f"line search stalled at iteration {iteration}: "
                    f"step {step:.3e} < {_MIN_STEP}, grad_norm {grad_norm:.3e}, "
                    f"objective {value!r}"
                )
                break
        if stalled:
            break
        s, y = candidate - params, grad - new_grad
        sy = float(s @ y)
        if sy > _CURVATURE * float(y @ y):
            pairs.append((s, y, 1.0 / sy))
        params, value, grad = candidate, new_value, new_grad
        grad_norm = float(np.linalg.norm(grad))
        iterations = iteration
        trace_detail.append((iteration, value, grad_norm, step))
        if callback is not None:
            callback(iteration, params[:-1] if has_gamma else params)
    converged = grad_norm <= cfg.tol
    if has_gamma:
        theta, gamma = params[:-1].copy(), float(params[-1])
    else:
        theta, gamma = params.copy(), None
    return EstimationReport(
        objective_tag=cfg.objective,
        theta=theta,
        gamma=gamma,
        final_objective=value,
        grad_norm=grad_norm,
        iterations=iterations,
        n_evaluations=n_evaluations,
        converged=converged,
        stalled=stalled,
        message=message,
        trace_detail=trace_detail,
        config_digest=cfg.digest(),
        data_digest=data.digest(),
    )
