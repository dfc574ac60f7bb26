"""Fisher information, NCE asymptotic covariances, and replication checks.

For an M-estimator the asymptotic covariance of sqrt(n)(theta_hat -
theta*) is the sandwich A^{-1} B A^{-1} with A the expected Hessian and B
the score variance at the truth. For the ranking objective the two
factors coincide,

    A = B = E[grad shat grad shat^T] - W_K,

where W_K is the expected outer product of the posterior-weighted
candidate gradients, so the sandwich collapses to the inverse of a single
"information" matrix.

Both modes compute W_K and the score variance with one routine, as sums
over the context x, the positive label u and the K negatives. The
negatives are i.i.d. draws from p_N and the ranking loss is symmetric in
them, so instead of the m_y**K ordered tuples the sum runs over count
vectors c (c_j negatives carry label j, sum_j c_j = K). Exact mode takes
all C(m_y+K-1, K) of them, each weighted by its multinomial probability
K!/prod_j c_j! prod_j p_N(j)^{c_j}; the term budget counts these,
m_x * C(m_y+K-1, K). Exact mode verifies the collapse numerically (the
directly summed score variance must match within 1e-8) before trusting
it, and records the gap on the report. Monte Carlo mode draws M count
vectors from the multinomial, at weight 1/M each, and still sums x and
u exactly, so only the negatives are sampled; repeated draws within a
block are folded into one row at weight repeats/M, so the sum runs over
the distinct vectors drawn. Its standard errors are batch means over
MC_BATCHES batches.

For the binary objective (which requires a self-normalized truth) the
factors differ and the full sandwich is kept:

    A = Wt_K = E_{p_XY}[(1 - sig) grad grad^T],
    B = Wt_K - (K+1)/K * E_X[mu_x mu_x^T],
    mu_x = E_{Y|X=x}[(1 - sig) grad],

with gradients taken in (theta, gamma) and sig the positive-class
probability at the truth. The theta block of A^{-1} B A^{-1} is the
asymptotic covariance of theta_hat.
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


def _symmetrize(m: np.ndarray, tol: float = 1e-10, what: str = "matrix") -> np.ndarray:
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > tol:
        raise ValidationError(f"{what}: asymmetry {asym:.3e} exceeds {tol}")
    return 0.5 * (m + m.T)


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
    grads = sf.grad_table(theta_star)
    cond = problem.p_y_given_x
    mean = np.einsum("xy,xyd->xd", cond, grads)
    second = np.einsum("xy,xyd,xye->xde", cond, grads, grads)
    var = second - np.einsum("xd,xe->xde", mean, mean)
    return _symmetrize(np.einsum("x,xde->de", problem.p_x, var), what="fisher information")


def _pair_outer_expectation(problem, grads) -> np.ndarray:
    """E_{p_XY}[ grad grad^T ]."""
    return np.einsum("xy,xyd,xye->de", problem.p_xy, grads, grads)


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
    _check_k(k)
    theta_star = check_params(theta_star, sf.n_params)
    shat = _shifted_table(sf, theta_star, noise)
    grads = sf.grad_table(theta_star)
    term1 = _pair_outer_expectation(problem, grads)
    collapse_gap = None

    if mode == "exact":
        check_term_budget(
            problem.m_x * math.comb(problem.m_y + k - 1, k), "ranking covariance"
        )
        blocks = count_vectors(noise.log_probs, k)
        w_mix, score_var = _ranking_factors(problem, shat, grads, blocks)
        information = _symmetrize(term1 - w_mix, what="ranking information")
        collapse_gap = float(np.max(np.abs(score_var - information)))
        if collapse_gap > COLLAPSE_TOL:
            raise ValidationError(
                "ranking covariance: expected-Hessian and score-variance factors "
                f"disagree by {collapse_gap:.3e} (> {COLLAPSE_TOL}); the sandwich "
                "does not collapse"
            )
        stderr = None
    elif mode == "mc":
        if num_samples is None or num_samples < MC_BATCHES * 2:
            raise ValidationError(
                f"monte-carlo mode needs num_samples >= {MC_BATCHES * 2}"
            )
        rng = derive_rng(seed, 7)
        sizes = np.diff(np.arange(MC_BATCHES + 1) * int(num_samples) // MC_BATCHES)
        batch_means = np.array([
            _ranking_factors(problem, shat, grads, sample_count_vectors(rng, noise, k, size))[0]
            for size in sizes
        ])
        w_mix = batch_means.mean(axis=0)
        stderr = batch_means.std(axis=0, ddof=1) / np.sqrt(MC_BATCHES)
        information = _symmetrize(term1 - w_mix, tol=np.inf, what="ranking information")
    else:
        raise ValidationError(f"unknown mode '{mode}' (expected 'exact' or 'mc')")

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


def _ranking_factors(problem, shat, grads, blocks):
    """W_K and the score variance E[(g_u - v)(g_u - v)^T], summed over every
    context x and positive label u and over the count vectors c of
    ``blocks`` at their weights, where g = grads[x] and
    v = (e_u g_u + sum_j c_j e_j g_j) / (e_u + sum_j c_j e_j).

    With the posteriors of ``ranking_count_terms``, v = q g_u + r h_c for
    h = mass @ g, so both factors reduce to (m_y, M) weights:
    sum w v v^T = g^T diag(sum_c w q^2) g + sym(g^T (w q r) h) + h^T diag(sum_u w r^2) h,
    and the score variance likewise with 1 - q for q and -r for r.
    """
    d = grads.shape[2]
    w_mix = np.zeros((d, d))
    score_var = np.zeros((d, d))
    for x, w, _, q, r, mass in ranking_count_terms(problem, shat, blocks):
        g = grads[x]
        h = mass @ g
        wr = w * r
        shared = (h.T * (wr * r).sum(axis=0)) @ h
        mixed = g.T @ ((wr * q) @ h)
        w_mix += (g.T * (w * q * q).sum(axis=1)) @ g + mixed + mixed.T + shared
        mixed = g.T @ ((wr * (1.0 - q)) @ h)
        score_var += (g.T * (w * (1.0 - q) ** 2).sum(axis=1)) @ g - mixed - mixed.T + shared
    return w_mix, score_var


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
    grads = sf.grad_table(theta_star)
    d = sf.n_params
    ext = np.concatenate([grads, -np.ones((sf.m_x, sf.m_y, 1))], axis=2)
    one_minus = 1.0 - sig
    wt = np.einsum("xy,xy,xyd,xye->de", problem.p_xy, one_minus, ext, ext)
    wt = _symmetrize(wt, what="binary expected Hessian")
    mu = np.einsum("xy,xy,xyd->xd", problem.p_y_given_x, one_minus, ext)
    mu_outer = np.einsum("x,xd,xe->de", problem.p_x, mu, mu)
    var = wt - (k + 1.0) / k * mu_outer
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
    _check_k(k)
    if problem.theta_star is None:
        raise ValidationError("asymptotic covariance needs a problem with theta_star")
    if estimator in ("mle", "binary") and mode != "exact":
        raise ValidationError(
            f"{estimator} covariance is exact only; mode '{mode}' is for ranking"
        )
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
    """
    if replications < 2:
        raise ValidationError(f"replications must be >= 2, got {replications}")
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    if n == 0:
        raise ValidationError("n must be >= 1 to fit a replication")
    # derived before the covariance, so a negative seed is a ValidationError either way
    rep_seeds = [int(derive_rng(seeds, 8, r).integers(2**63)) for r in range(replications)]
    theoretical = asymptotic_cov(problem, fit_cfg.objective, noise, k).inverse
    sf, theta_star = problem.scoring, problem.theta_star
    # MLE ignores negatives but the dataset still carries a matrix of them
    data_noise = noise if noise is not None else NoiseDistribution.uniform(problem.m_y)
    devs = np.empty((replications, sf.n_params))
    grad_norms = np.empty(replications)
    converged = 0
    for r, seed in enumerate(rep_seeds):
        dataset = generate_dataset(problem, n, SamplingConfig(k=k, seed=seed), data_noise)
        try:
            report = fit(sf, dataset, noise, fit_cfg)
        except NceLabError as exc:  # the same class, so the CLI keeps its exit code
            raise type(exc)(f"replication {r} failed: {exc}") from exc
        if report.stalled:
            raise ValidationError(f"replication {r} stalled: {report.message}")
        devs[r] = np.sqrt(n) * (report.theta - theta_star)
        grad_norms[r] = report.grad_norm
        converged += report.converged
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
        theoretical_mse=float(np.trace(theoretical)) / sf.n_params,
        converged=converged,
        max_iters_reached=replications - converged,
        max_grad_norm=float(grad_norms.max()),
    )
