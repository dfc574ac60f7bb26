"""Fisher information, NCE asymptotic covariances, and replication checks.

For an M-estimator the asymptotic covariance of sqrt(n)(theta_hat -
theta*) is the sandwich A^{-1} B A^{-1} with A the expected Hessian and B
the score variance at the truth. Every such factor here is one sum,

    sum_x G_x^T W_x G_x    (``_sandwich``),

over the contexts x, with G_x the (m_y, d) gradient table of context x and
W_x an (m_y, m_y) label weight; each estimator only builds its weights.
With p = p(.|x):

* MLE: A = B = the Fisher information, W_x = p_x (diag p - p p^T).
* Ranking: A = B, so the sandwich collapses to the inverse of a single
  "information" matrix. A has W_x = diag(p_xy[x]) - sum w pi pi^T and B
  has W_x = sum w (e_u - pi)(e_u - pi)^T, summed over the positive label u
  and the count vectors c of the K negatives at their weights w, where
  pi = q e_u + r mass_c holds the posteriors of ``ranking_count_terms``.
* Binary (a self-normalized truth), on the table [G_x, -1] of gradients
  in (theta, gamma) and with sig the positive-class probability at the
  truth: A has W_x = diag(p_xy[x] (1 - sig)) and B has
  W_x = A's - (K+1)/K p_x c c^T with c = p (1 - sig). The theta block of
  A^{-1} B A^{-1} is the asymptotic covariance of theta_hat.

The ranking negatives are i.i.d. draws from p_N and the ranking loss is
symmetric in them, so instead of the m_y**K ordered tuples the sum runs
over count vectors c (c_j negatives carry label j, sum_j c_j = K). Exact
mode takes all C(m_y+K-1, K) of them, each weighted by its multinomial
probability K!/prod_j c_j! prod_j p_N(j)^{c_j}; the term budget counts
these, m_x * C(m_y+K-1, K). Exact mode verifies the collapse numerically
(B must match A within 1e-8 times max(1, largest |entry| of A)) before
trusting it, and records the gap on the report. Monte Carlo mode draws M count vectors from the multinomial,
at weight 1/M each, and still sums x and u exactly, so only the negatives
are sampled; repeated draws within a block are folded into one row at
weight repeats/M, so the sum runs over the distinct vectors drawn. Its
standard errors are batch means over MC_BATCHES batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NceLabError, SingularMatrixError, ValidationError
from .model import ConditionalProblem, ScoringFunction, check_params, self_norm_deviation
from .objectives import (
    _check_k,
    _shifted_table,
    binary_logit,
    check_term_budget,
    count_vectors,
    ranking_count_terms,
    sample_count_vectors,
)
from .optimize import FitConfig, fit
from .sampling import (
    NoiseDistribution,
    SamplingConfig,
    derive_rng,
    generate_dataset,
)

EIGENVALUE_FLOOR = 1e-10
SELF_NORM_PRECONDITION_TOL = 1e-8
COLLAPSE_TOL = 1e-8
MC_BATCHES = 32


@dataclass
class CovarianceReport:
    """Asymptotic covariance of sqrt(n)(theta_hat - theta*) for one estimator."""

    estimator: str
    information: np.ndarray
    inverse: np.ndarray
    mode: str
    information_stderr: np.ndarray | None = None
    collapse_gap: float | None = None

    @property
    def mse_infinity(self) -> float:
        """Scaled asymptotic mean square error, trace(I^{-1})/d."""
        return float(np.trace(self.inverse)) / self.inverse.shape[0]


@dataclass
class ReplicationSummary:
    """Empirical law of sqrt(n)(theta_hat - theta*) over R replications."""

    estimator: str
    k: int
    n: int
    replications: int
    empirical_cov: np.ndarray
    mean_bias: np.ndarray
    theoretical: np.ndarray
    rel_frobenius_error: float
    empirical_mse: float
    theoretical_mse: float
    converged: int  # fits that reached |g| <= tol
    max_iters_reached: int  # fits stopped at max_iters instead
    max_grad_norm: float  # largest final |g| over the R fits
    workers: int  # fits run in parallel; not in the JSON, which is the same at any count

    def to_json_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "k": self.k,
            "n": self.n,
            "replications": self.replications,
            "empirical_cov": self.empirical_cov.tolist(),
            "mean_bias": self.mean_bias.tolist(),
            "theoretical": self.theoretical.tolist(),
            "rel_frobenius_error": self.rel_frobenius_error,
            "empirical_mse": self.empirical_mse,
            "theoretical_mse": self.theoretical_mse,
            "converged": self.converged,
            "max_iters_reached": self.max_iters_reached,
            "max_grad_norm": self.max_grad_norm,
        }


def _scaled(tol: float, m: np.ndarray) -> float:
    """tol * max(1, largest |entry| of m): a bound that grows with m's entries, as their
    rounding does, and stays tol for entries <= 1."""
    return tol * max(1.0, float(np.max(np.abs(m))))


def _symmetrize(m: np.ndarray, tol: float = 1e-10, what: str = "matrix") -> np.ndarray:
    """(m + m^T) / 2; raises if m's asymmetry exceeds ``_scaled(tol, m)``."""
    if m.size:
        asym, bound = float(np.max(np.abs(m - m.T))), _scaled(tol, m)
        if asym > bound:
            raise ValidationError(f"{what}: asymmetry {asym:.3e} exceeds {bound:.3e}")
    return 0.5 * (m + m.T)


def _sandwich(grads: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_x G_x^T W_x G_x for G_x = grads[x] (m_y, d) and W_x = weights[x] (m_y, m_y);
    non-optimized einsum, not BLAS, so the bits do not depend on the thread count."""
    return np.einsum("xyd,xye->de", grads, np.einsum("xyz,xze->xye", weights, grads))


def _diag(v: np.ndarray) -> np.ndarray:
    """(..., m) -> (..., m, m), one diagonal matrix per row of v."""
    return v[..., None] * np.eye(v.shape[-1])


def invert_spd(m: np.ndarray, what: str) -> np.ndarray:
    """Inverse via eigendecomposition; loud failure under the eigenvalue floor."""
    vals, vecs = np.linalg.eigh(m)
    if vals.min() < EIGENVALUE_FLOOR:
        raise SingularMatrixError(
            f"{what}: minimum eigenvalue {vals.min():.3e} below floor {EIGENVALUE_FLOOR}"
        )
    return (vecs / vals) @ vecs.T


def fisher_information(
    problem: ConditionalProblem, sf: ScoringFunction, theta_star: np.ndarray
) -> np.ndarray:
    """E_X[ Var_{Y|X=x}[ grad s(x,y;theta*) ] ] by exact summation.

    The conditional law is the problem's stored p_{Y|X}; when the problem
    was generated from (sf, theta*) that table *is* the model conditional,
    so both readings coincide.
    """
    theta_star = check_params(theta_star, sf.n_params)
    p = problem.p_y_given_x
    weights = problem.p_x[:, None, None] * (_diag(p) - p[:, :, None] * p[:, None, :])
    return _symmetrize(_sandwich(sf.grad_table(theta_star), weights), what="fisher information")


def ranking_asymptotic_cov(
    problem: ConditionalProblem,
    sf: ScoringFunction,
    theta_star: np.ndarray,
    noise: NoiseDistribution,
    k: int,
    mode: str = "exact",
    num_samples: int | None = None,
    seed: int = 0,
) -> CovarianceReport:
    """Asymptotic covariance of the ranking estimator at the truth.

    Both modes sum every context and positive label exactly and differ
    only in the count vectors of the K negatives (see the module
    docstring). Exact mode takes all C(m_y+K-1, K) of them at their
    multinomial probabilities, within the budget of m_x * C(m_y+K-1, K)
    terms, and records the sandwich-collapse gap on the report. Monte
    Carlo mode draws num_samples count vectors from the multinomial in
    MC_BATCHES batches, folds the repeats of each block
    (``sample_count_vectors``), sums each distinct vector over all
    m_x * m_y (context, positive) pairs, and attaches the batch-means
    standard errors of the information.
    """
    check_cov_request("ranking", k, mode, num_samples)
    theta_star = check_params(theta_star, sf.n_params)
    shat = _shifted_table(sf, theta_star, noise)
    grads = sf.grad_table(theta_star)
    collapse_gap = None

    if mode == "exact":
        check_term_budget(
            problem.m_x * math.comb(problem.m_y + k - 1, k), "ranking covariance"
        )
        hessian, score_var = _ranking_factors(problem, shat, count_vectors(noise.log_probs, k))
        information = _symmetrize(_sandwich(grads, hessian), what="ranking information")
        collapse_gap = float(np.max(np.abs(_sandwich(grads, score_var) - information)))
        bound = _scaled(COLLAPSE_TOL, information)
        if collapse_gap > bound:
            raise ValidationError(
                "ranking covariance: expected-Hessian and score-variance factors disagree by "
                f"{collapse_gap:.3e} (> {bound:.3e}); the sandwich does not collapse"
            )
        stderr = None
    else:
        rng = derive_rng(seed, 7)
        sizes = np.diff(np.arange(MC_BATCHES + 1) * int(num_samples) // MC_BATCHES)
        hessians = (_ranking_factors(problem, shat, sample_count_vectors(rng, noise, k, size))[0]
                    for size in sizes)
        batch_means = np.array([_sandwich(grads, hessian) for hessian in hessians])
        stderr = batch_means.std(axis=0, ddof=1) / np.sqrt(MC_BATCHES)
        information = _symmetrize(batch_means.mean(axis=0), tol=np.inf, what="ranking information")

    inverse = invert_spd(information, "ranking information")
    report = CovarianceReport(
        estimator="ranking",
        information=information,
        inverse=inverse,
        mode=mode,
        information_stderr=stderr,
        collapse_gap=collapse_gap,
    )
    _check_psd(report)
    return report


def _ranking_factors(problem, shat, blocks):
    """Label weights (m_x, m_y, m_y) of the ranking expected Hessian,
    diag(p_xy[x]) - sum w pi pi^T, and score variance, sum w (e_u - pi)(e_u - pi)^T, over
    each positive label u and the count vectors c of ``blocks`` at their weights w.

    With pi = q e_u + r mass_c from ``ranking_count_terms`` the sums reduce to (m_y, M) ones:
    sum w pi pi^T = diag(sum_c w q^2) + sym((w q r) mass) + mass^T diag(sum_u w r^2) mass,
    and the score variance's likewise with 1 - q for q and -r for r.
    """
    hessian, score_var = np.zeros((2, problem.m_x, problem.m_y, problem.m_y))
    hessian_diag, score_var_diag = problem.p_xy.copy(), np.zeros_like(problem.p_xy)
    for x, w, _, q, r, mass in ranking_count_terms(problem, shat, blocks):
        wr = w * r
        shared = (mass.T * (wr * r).sum(axis=0)) @ mass
        mixed = (wr * q) @ mass
        hessian[x] -= mixed + mixed.T + shared
        hessian_diag[x] -= (w * q * q).sum(axis=1)
        mixed = (wr * (1.0 - q)) @ mass
        score_var[x] += shared - mixed - mixed.T
        score_var_diag[x] += (w * (1.0 - q) ** 2).sum(axis=1)
    return hessian + _diag(hessian_diag), score_var + _diag(score_var_diag)


def _check_psd(report: CovarianceReport) -> None:
    for name, m in (("information", report.information), ("inverse", report.inverse)):
        vals = np.linalg.eigvalsh(0.5 * (m + m.T))
        if vals.min() < -1e-10:
            raise ValidationError(
                f"{report.estimator} {name}: negative eigenvalue {vals.min():.3e}"
            )


def binary_asymptotic_cov(
    problem: ConditionalProblem,
    sf: ScoringFunction,
    theta_star: np.ndarray,
    gamma_star: float,
    noise: NoiseDistribution,
    k: int,
) -> CovarianceReport:
    """Sandwich covariance for the binary estimator; exact over X x Y.

    Requires a self-normalized truth: sum_y exp(s(x,y;theta*) - gamma*)
    must equal 1 for every x within 1e-8.
    """
    _check_k(k)
    theta_star = check_params(theta_star, sf.n_params)
    worst = self_norm_deviation(sf, theta_star, gamma_star)
    if not worst <= SELF_NORM_PRECONDITION_TOL:
        raise ValidationError(
            f"binary covariance needs a self-normalized problem; "
            f"sum_y exp(s - gamma*) deviates from 1 by {worst:.3e}"
        )
    sig = binary_logit(_shifted_table(sf, theta_star, noise), gamma_star, k)[1]
    d = sf.n_params
    ext = np.concatenate([sf.grad_table(theta_star), -np.ones((sf.m_x, sf.m_y, 1))], axis=2)
    hessian = _diag(problem.p_xy * (1.0 - sig))
    c = problem.p_y_given_x * (1.0 - sig)
    wt = _symmetrize(_sandwich(ext, hessian), what="binary expected Hessian")
    var = _sandwich(ext, hessian - (k + 1.0) / k * problem.p_x[:, None, None]
                    * c[:, :, None] * c[:, None, :])
    wt_inv = invert_spd(wt, "binary expected Hessian")
    sandwich = wt_inv @ var @ wt_inv
    inverse = _symmetrize(sandwich[:d, :d], tol=1e-9, what="binary covariance")
    information = invert_spd(inverse, "binary covariance")
    report = CovarianceReport(
        estimator="binary",
        information=information,
        inverse=inverse,
        mode="exact",
    )
    _check_psd(report)
    return report


def check_cov_request(estimator: str, k: int, mode: str, num_samples: int | None) -> None:
    """Refuse a K, mode or Monte Carlo sample count that no covariance accepts."""
    _check_k(k)
    if estimator in ("mle", "binary") and mode != "exact":
        raise ValidationError(
            f"{estimator} covariance is exact only; mode '{mode}' is for ranking"
        )
    if mode not in ("exact", "mc"):
        raise ValidationError(f"unknown mode '{mode}' (expected 'exact' or 'mc')")
    if mode == "mc" and (num_samples is None or num_samples < MC_BATCHES * 2):
        raise ValidationError(f"monte-carlo mode needs num_samples >= {MC_BATCHES * 2}")


def asymptotic_cov(
    problem: ConditionalProblem,
    estimator: str,
    noise: NoiseDistribution | None,
    k: int,
    mode: str = "exact",
    num_samples: int | None = None,
    seed: int = 0,
) -> CovarianceReport:
    """Asymptotic covariance of one estimator at the problem's truth.

    "mle" gives the Fisher bound (k and noise are unused), "ranking"
    ``ranking_asymptotic_cov`` in the given mode and "binary"
    ``binary_asymptotic_cov``, which needs the problem's gamma_star. K must
    be >= 1 for every estimator, and only "ranking" has a mode other than
    "exact".
    """
    check_cov_request(estimator, k, mode, num_samples)
    if problem.theta_star is None:
        raise ValidationError("asymptotic covariance needs a problem with theta_star")
    sf, theta_star = problem.scoring, problem.theta_star
    if estimator == "mle":
        information = fisher_information(problem, sf, theta_star)
        inverse = invert_spd(information, "fisher information")
        return CovarianceReport("mle", information, inverse, mode="exact")
    if estimator == "ranking":
        return ranking_asymptotic_cov(problem, sf, theta_star, noise, k, mode, num_samples, seed)
    if estimator == "binary":
        if problem.gamma_star is None:
            raise ValidationError("binary covariance needs gamma_star (a self-normalized truth)")
        return binary_asymptotic_cov(problem, sf, theta_star, problem.gamma_star, noise, k)
    raise ValidationError(f"no asymptotic covariance for estimator '{estimator}'")


def map_on_cpus(fn, items: list) -> tuple[list, int]:
    """([fn(item) for item in items], W) on W = min(CPUs this process may use, len(items))
    forked workers; one worker calls fn in-process and forks nothing.

    Results come back in order, so the lowest failing item raises, with its own class, and
    a worker that dies raises BrokenProcessPool.
    """
    import os

    workers = min(len(os.sched_getaffinity(0)), len(items))
    if workers == 1:
        return [fn(item) for item in items], workers
    import multiprocessing  # not at module level: it slows every command's start-up
    from concurrent.futures import ProcessPoolExecutor  # raises if a worker dies; Pool hangs
    # fork: workers inherit the loaded modules instead of importing numpy again
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, items)), workers


def _fit_replications(problem, fit_cfg, noise, k, n, block):
    """Fit one dataset per (r, seed) of ``block``: sqrt(n)(theta_hat - theta*), |g|, converged."""
    # MLE ignores negatives but the dataset still carries a matrix of them
    data_noise = noise if noise is not None else NoiseDistribution.uniform(problem.m_y)
    rows = []
    for r, seed in block:
        dataset = generate_dataset(problem, n, SamplingConfig(k=k, seed=seed), data_noise)
        try:
            report = fit(problem.scoring, dataset, noise, fit_cfg)
        except NceLabError as exc:  # the same class, so the CLI keeps its exit code
            raise type(exc)(f"replication {r} failed: {exc}") from exc
        if report.stalled:
            raise ValidationError(f"replication {r} stalled: {report.message}")
        dev = np.sqrt(n) * (report.theta - problem.theta_star)
        rows.append((dev, report.grad_norm, report.converged))
    return rows


def replicate(
    problem: ConditionalProblem,
    fit_cfg: FitConfig,
    noise: NoiseDistribution | None,
    k: int,
    n: int,
    replications: int,
    seeds: int = 0,
) -> ReplicationSummary:
    """Fit R independent datasets and compare the empirical covariance of
    sqrt(n)(theta_hat - theta*) against ``asymptotic_cov``.

    ``seeds`` is the master seed; the per-replication seeds derive from it.
    The fits run in contiguous blocks, one per CPU this process may use, and come back in
    order: the summary is the same at any count, and the lowest failing replication is named.
    """
    import os
    from functools import partial

    if replications < 2:
        raise ValidationError(f"replications must be >= 2, got {replications}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    # derived before the covariance, so a negative seed is a ValidationError either way
    pairs = [(r, int(derive_rng(seeds, 8, r).integers(2**63))) for r in range(replications)]
    theoretical = asymptotic_cov(problem, fit_cfg.objective, noise, k).inverse
    workers = min(len(os.sched_getaffinity(0)), replications)
    cuts = [w * replications // workers for w in range(workers + 1)]
    blocks = [pairs[a:b] for a, b in zip(cuts, cuts[1:])]
    results, _ = map_on_cpus(partial(_fit_replications, problem, fit_cfg, noise, k, n), blocks)
    devs, grad_norms, fits_converged = zip(*(row for rows in results for row in rows))
    devs, converged = np.array(devs), sum(fits_converged)
    mean_bias = devs.mean(axis=0)
    centered = devs - mean_bias
    empirical = centered.T @ centered / (replications - 1)
    rel = float(
        np.linalg.norm(empirical - theoretical) / np.linalg.norm(theoretical)
    )
    return ReplicationSummary(
        estimator=fit_cfg.objective,
        k=k,
        n=n,
        replications=replications,
        empirical_cov=empirical,
        mean_bias=mean_bias,
        theoretical=theoretical,
        rel_frobenius_error=rel,
        empirical_mse=float(np.mean(devs**2)),
        theoretical_mse=float(np.trace(theoretical)) / problem.scoring.n_params,
        converged=converged,
        max_iters_reached=replications - converged,
        max_grad_norm=float(np.max(grad_norms)),
        workers=workers,
    )
