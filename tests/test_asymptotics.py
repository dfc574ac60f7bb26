"""Fisher information and NCE asymptotic covariances against oracles."""

import dataclasses
import itertools
import math
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.special import expit, log_expit, log_softmax

from ncelab import (
    BinaryParams,
    ConditionalProblem,
    CovarianceReport,
    FitConfig,
    LinearFeatures,
    NoiseDistribution,
    NumericError,
    SamplingConfig,
    ValidationError,
    asymptotic_cov,
    binary_asymptotic_cov,
    derive_rng,
    fisher_information,
    fit,
    generate_dataset,
    make_self_normalized_problem,
    population_binary_objective,
    problem_from_scores,
    random_tabular_problem,
    ranking_asymptotic_cov,
    replicate,
)
from ncelab import asymptotics
from ncelab.asymptotics import COLLAPSE_TOL, _ranking_factors
from ncelab.objectives import _shifted_table, count_vectors, sample_count_vectors


def two_label_problem(theta0=0.0):
    """d=1 model s = theta * 1{y=1} over a single context."""
    features = np.zeros((1, 2, 1))
    features[0, 1, 0] = 1.0
    return problem_from_scores(
        LinearFeatures(features), np.array([theta0]), p_x=np.array([1.0])
    )


class TestFisherInformation:
    def test_constant_gradient_zero_information(self):
        features = np.tile(np.array([1.0, -2.0]), (3, 4, 1))
        prob = problem_from_scores(
            LinearFeatures(features), np.zeros(2), p_x=np.full(3, 1 / 3)
        )
        np.testing.assert_allclose(
            fisher_information(prob, prob.scoring, prob.theta_star), 0.0, atol=1e-15
        )

    def test_bernoulli_variance(self):
        prob = two_label_problem(theta0=0.0)
        info = fisher_information(prob, prob.scoring, prob.theta_star)
        assert info[0, 0] == pytest.approx(0.25, abs=1e-14)
        # direct-summation oracle at a non-symmetric point
        prob2 = two_label_problem(theta0=0.8)
        p1 = 1 / (1 + np.exp(-0.8))
        info2 = fisher_information(prob2, prob2.scoring, prob2.theta_star)
        assert info2[0, 0] == pytest.approx(p1 * (1 - p1), abs=1e-14)

    def test_self_normalized_equals_joint_variance(self):
        prob = make_self_normalized_problem(5, 4, 3, seed=38)
        sf, ts = prob.scoring, prob.theta_star
        info = fisher_information(prob, sf, ts)
        grads = sf.grad_table(ts)
        mean = np.einsum("xy,xyd->d", prob.p_xy, grads)
        second = np.einsum("xy,xyd,xye->de", prob.p_xy, grads, grads)
        joint_var = second - np.outer(mean, mean)
        np.testing.assert_allclose(info, joint_var, atol=1e-10)


class TestRankingCov:
    def test_mixed_outer_product_symmetry(self):
        # the posterior-weighted outer product equals its cross form
        # E[sum_j q_j g_0 g_j^T] by exhaustive enumeration
        prob = random_tabular_problem(2, 3, 2, seed=7)
        sf, ts = prob.scoring, prob.theta_star
        noise = NoiseDistribution.uniform(3)
        k = 2
        report = ranking_asymptotic_cov(prob, sf, ts, noise, k, mode="exact")
        grads = sf.grad_table(ts)
        shat = sf.score_table(ts) - noise.log_probs[None, :]
        d = sf.n_params
        w_cross = np.zeros((d, d))
        term1 = np.einsum("xy,xyd,xye->de", prob.p_xy, grads, grads)
        for x in range(prob.m_x):
            for labels in itertools.product(range(prob.m_y), repeat=k + 1):
                labels = np.array(labels)
                weight = (
                    prob.p_x[x]
                    * prob.p_y_given_x[x, labels[0]]
                    * np.prod(noise.probs[labels[1:]])
                )
                q = np.exp(log_softmax(shat[x, labels]))
                g = grads[x, labels]
                w_cross += weight * np.einsum("k,d,ke->de", q, g[0], g)
        information_cross = term1 - 0.5 * (w_cross + w_cross.T)
        np.testing.assert_allclose(report.information, information_cross, atol=1e-10)

    def test_inverse_gap_decreases_with_k(self):
        prob = make_self_normalized_problem(4, 3, 2, seed=38)
        sf, ts = prob.scoring, prob.theta_star
        noise = NoiseDistribution.uniform(3)
        fisher_inv = np.linalg.inv(fisher_information(prob, sf, ts))
        gaps = []
        for k in (1, 2, 4, 8):
            rep = ranking_asymptotic_cov(prob, sf, ts, noise, k, mode="exact")
            gaps.append(np.linalg.norm(rep.inverse - fisher_inv, 2))
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]

    def test_monte_carlo_agrees_with_exact(self):
        prob = make_self_normalized_problem(6, 4, 3, seed=38)
        sf, ts = prob.scoring, prob.theta_star
        noise = NoiseDistribution.uniform(4)
        exact = ranking_asymptotic_cov(prob, sf, ts, noise, 4, mode="exact")
        mc = ranking_asymptotic_cov(
            prob, sf, ts, noise, 4, mode="mc", num_samples=400_000, seed=2
        )
        gap = np.abs(mc.information - exact.information)
        assert np.all(gap <= 4 * mc.information_stderr + 1e-12)

    def test_budget_error(self):
        from ncelab import BudgetError

        # m_x * C(m_y+K-1, K) = 3 * C(27, 18) count vectors
        prob = random_tabular_problem(3, 10, 2, seed=9)
        noise = NoiseDistribution.uniform(10)
        with pytest.raises(BudgetError, match="needs 14060475 terms"):
            ranking_asymptotic_cov(
                prob, prob.scoring, prob.theta_star, noise, 18, mode="exact"
            )

    def test_integral_identity_spot_check(self):
        # E[sum_j q_j f(x, y_j)] = E[f(x, y_0)] for arbitrary vector f
        prob = random_tabular_problem(2, 3, 2, seed=13)
        sf, ts = prob.scoring, prob.theta_star
        noise = NoiseDistribution(np.array([0.5, 0.3, 0.2]))
        shat = sf.score_table(ts) - noise.log_probs[None, :]
        rng = np.random.default_rng(3)
        k = 2
        for _ in range(5):
            f = rng.standard_normal((2, 3, 4))
            lhs = np.zeros(4)
            rhs = np.zeros(4)
            for x in range(2):
                for labels in itertools.product(range(3), repeat=k + 1):
                    labels = np.array(labels)
                    weight = (
                        prob.p_x[x]
                        * prob.p_y_given_x[x, labels[0]]
                        * np.prod(noise.probs[labels[1:]])
                    )
                    q = np.exp(log_softmax(shat[x, labels]))
                    lhs += weight * (q @ f[x, labels])
                    rhs += weight * f[x, labels[0]]
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def brute_force_ranking_factors(problem, sf, theta, noise, k):
    """Information E[g g^T] - W_K and the score variance, summing the
    positive label and every ordered negative tuple in Y^K."""
    shat = sf.score_table(theta) - noise.log_probs[None, :]
    grads = sf.grad_table(theta)
    negs = np.array(list(itertools.product(range(problem.m_y), repeat=k)))
    noise_mass = np.prod(noise.probs[negs], axis=1)
    d = sf.n_params
    w_mix, score_var = np.zeros((d, d)), np.zeros((d, d))
    for x in range(problem.m_x):
        for u in range(problem.m_y):
            cand = np.concatenate([np.full((len(negs), 1), u), negs], axis=1)
            q = np.exp(log_softmax(shat[x, cand], axis=1))
            v = np.einsum("tk,tkd->td", q, grads[x, cand])
            w = problem.p_x[x] * problem.p_y_given_x[x, u] * noise_mass
            w_mix += np.einsum("t,td,te->de", w, v, v)
            score = grads[x, u] - v
            score_var += np.einsum("t,td,te->de", w, score, score)
    term1 = np.einsum("xy,xyd,xye->de", problem.p_xy, grads, grads)
    return term1 - w_mix, score_var


class TestExactRankingByCountVectors:
    @pytest.mark.parametrize("m_y", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_ordered_tuple_sum(self, m_y, k):
        prob = random_tabular_problem(3, m_y, 2, seed=100 + 10 * m_y + k)
        sf, ts = prob.scoring, prob.theta_star
        raw = np.random.default_rng(m_y + k).random(m_y) + 0.1
        noise = NoiseDistribution(raw / raw.sum())
        shat = sf.score_table(ts) - noise.log_probs[None, :]
        grads = sf.grad_table(ts)
        w_mix, score_var = _ranking_factors(
            prob, shat, grads, count_vectors(noise.log_probs, k)
        )
        term1 = np.einsum("xy,xyd,xye->de", prob.p_xy, grads, grads)
        info_ref, var_ref = brute_force_ranking_factors(prob, sf, ts, noise, k)
        assert np.max(np.abs(term1 - w_mix - info_ref)) <= 1e-12 * np.max(np.abs(info_ref))
        assert np.max(np.abs(score_var - var_ref)) <= 1e-12 * np.max(np.abs(var_ref))
        report = ranking_asymptotic_cov(prob, sf, ts, noise, k, mode="exact")
        np.testing.assert_allclose(report.information, info_ref, rtol=0, atol=1e-12)

    def test_collapse_gap_is_recorded(self):
        prob = make_self_normalized_problem(6, 4, 3, seed=38)
        sf, ts = prob.scoring, prob.theta_star
        noise = NoiseDistribution.uniform(4)
        exact = ranking_asymptotic_cov(prob, sf, ts, noise, 3, mode="exact")
        assert 0.0 <= exact.collapse_gap <= COLLAPSE_TOL
        mc = ranking_asymptotic_cov(prob, sf, ts, noise, 3, mode="mc", num_samples=640, seed=1)
        binary = binary_asymptotic_cov(prob, sf, ts, 0.0, noise, 3)
        for report in (mc, binary):
            assert report.collapse_gap is None

    def test_monte_carlo_agrees_with_exact_at_k10(self):
        prob = make_self_normalized_problem(6, 4, 3, seed=38)
        sf, ts = prob.scoring, prob.theta_star
        noise = NoiseDistribution.uniform(4)
        exact = ranking_asymptotic_cov(prob, sf, ts, noise, 10, mode="exact")
        mc = ranking_asymptotic_cov(
            prob, sf, ts, noise, 10, mode="mc", num_samples=400_000, seed=3
        )
        gap = np.abs(mc.information - exact.information)
        assert np.all(gap <= 4 * mc.information_stderr + 1e-12)


class TestRankingFactorBlocks:
    """Exact and Monte Carlo mode share ``_ranking_factors``; only the
    count-vector blocks they hand it differ."""

    def test_factors_do_not_depend_on_the_block_split(self):
        prob = random_tabular_problem(3, 4, 2, seed=31)
        sf, ts = prob.scoring, prob.theta_star
        raw = np.random.default_rng(31).random(4) + 0.1
        noise = NoiseDistribution(raw / raw.sum())
        k = 5
        shat = _shifted_table(sf, ts, noise)
        grads = sf.grad_table(ts)
        every = list(count_vectors(noise.log_probs, k, block=1 << 16))
        assert len(every) == 1  # C(8, 5) = 56 count vectors in one block
        (counts, _), = every
        # one block holding every count vector at its multinomial weight,
        # written out independently of count_vectors
        log_weight = np.array([
            np.log(math.factorial(k) / np.prod([math.factorial(c) for c in row])
                   * np.prod(noise.probs ** row))
            for row in counts
        ])
        want = _ranking_factors(prob, shat, grads, [(counts, log_weight)])
        for block in (1, 4, 9, 40):
            got = _ranking_factors(
                prob, shat, grads, count_vectors(noise.log_probs, k, block=block)
            )
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    @pytest.mark.parametrize("k", [8, 64])
    def test_folded_draws_sum_as_the_unfolded_draws(self, k):
        prob = make_self_normalized_problem(6, 4, 3, seed=38)
        sf, ts = prob.scoring, prob.theta_star
        noise = NoiseDistribution.uniform(4)
        shat = _shifted_table(sf, ts, noise)
        grads = sf.grad_table(ts)
        size, rows = 20_000, (1 << 16) // 4  # blocks of 16384 and 3616 draws
        rng = np.random.default_rng(4)
        unfolded = [
            (counts, np.full(len(counts), -math.log(size)))
            for counts in (
                rng.multinomial(k, noise.probs, size=min(rows, size - start))
                for start in range(0, size, rows)
            )
        ]
        folded = list(sample_count_vectors(np.random.default_rng(4), noise, k, size))
        assert sum(len(counts) for counts, _ in folded) < size
        want = _ranking_factors(prob, shat, grads, unfolded)
        got = _ranking_factors(prob, shat, grads, folded)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    def test_folded_blocks_hold_distinct_rows_in_order(self):
        noise = NoiseDistribution.uniform(4)
        size, k = 20_000, 8
        blocks = list(sample_count_vectors(np.random.default_rng(4), noise, k, size))
        assert len(blocks) == 2
        for (counts, log_weight), drawn in zip(blocks, (16_384, 3_616)):
            assert np.all(counts.sum(axis=1) == k)
            keys = [tuple(row) for row in counts]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert abs(float((np.exp(log_weight) * size).sum()) - drawn) <= 1e-9

    def test_monte_carlo_reruns_bit_identically(self):
        prob = make_self_normalized_problem(6, 4, 3, seed=38)
        sf, ts = prob.scoring, prob.theta_star
        noise = NoiseDistribution.uniform(4)
        first, second = (
            ranking_asymptotic_cov(prob, sf, ts, noise, 6, mode="mc", num_samples=5000, seed=9)
            for _ in range(2)
        )
        assert np.array_equal(first.information, second.information)
        assert np.array_equal(first.information_stderr, second.information_stderr)

    def test_monte_carlo_blocks_stay_under_the_row_cap(self, monkeypatch):
        prob = random_tabular_problem(1, 300, 2, seed=5)
        sf, ts = prob.scoring, prob.theta_star
        noise = NoiseDistribution.uniform(300)
        rows = []
        inner = asymptotics.ranking_count_terms

        def spy(problem, shat, blocks):
            def recorded():
                for counts, log_weight in blocks:
                    rows.append(len(counts))
                    yield counts, log_weight

            return inner(problem, shat, recorded())

        monkeypatch.setattr(asymptotics, "ranking_count_terms", spy)
        ranking_asymptotic_cov(prob, sf, ts, noise, 3, mode="mc", num_samples=16_000, seed=1)
        # 32 batches of 500 draws, each split at 2**16 // 300 = 218 rows
        assert rows == [218, 218, 64] * 32


class TestBinaryCov:
    def test_decomposition_identity_at_truth(self):
        prob = make_self_normalized_problem(6, 4, 3, seed=38)
        noise = NoiseDistribution.uniform(4)
        shat = _shifted_table(prob.scoring, prob.theta_star, noise)
        for k in (1, 4, 16):
            # p_XY (1 - sig) = K p_X p_N sig, sig the positive-class probability
            sig = expit(shat - prob.gamma_star - np.log(k))
            lhs = prob.p_xy * (1.0 - sig)
            rhs = k * prob.p_x[:, None] * noise.probs[None, :] * sig
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_rejects_non_self_normalized_problems(self):
        prob = random_tabular_problem(3, 4, 2, seed=15)
        noise = NoiseDistribution.uniform(4)
        with pytest.raises(ValidationError, match="self-normalized"):
            binary_asymptotic_cov(prob, prob.scoring, prob.theta_star, 0.0, noise, 4)

    def test_inverse_gap_rate_in_k(self):
        prob = make_self_normalized_problem(6, 4, 3, seed=38)
        sf, ts = prob.scoring, prob.theta_star
        noise = NoiseDistribution.uniform(4)
        fisher_inv = np.linalg.inv(fisher_information(prob, sf, ts))
        ks = np.array([4, 8, 16, 32, 64, 128, 256, 512])
        gaps = [
            np.linalg.norm(
                binary_asymptotic_cov(prob, sf, ts, 0.0, noise, int(k)).inverse
                - fisher_inv,
                2,
            )
            for k in ks
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        slope = np.polyfit(np.log(ks), np.log(gaps), 1)[0]
        assert slope <= -0.9

    def test_sandwich_matches_numerical_oracle(self):
        # independent oracle: Hessian of the exact population objective by
        # finite differences, score variance by exhaustive tuple enumeration
        # with per-tuple finite-difference gradients
        prob = make_self_normalized_problem(2, 2, 1, seed=4)
        sf, ts, gs = prob.scoring, prob.theta_star, prob.gamma_star
        noise = NoiseDistribution.uniform(2)
        k = 3
        report = binary_asymptotic_cov(prob, sf, ts, gs, noise, k)

        beta_star = np.array([ts[0], gs])
        h = 1e-4  # second differences: error O(h^2) + O(eps/h^2), optimal near eps**0.25

        def pop(beta):
            return population_binary_objective(
                sf, BinaryParams(beta[:1], beta[1]), prob, noise, k
            )

        hess = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                pp = beta_star.copy(); pp[i] += h; pp[j] += h
                pm = beta_star.copy(); pm[i] += h; pm[j] -= h
                mp = beta_star.copy(); mp[i] -= h; mp[j] += h
                mm = beta_star.copy(); mm[i] -= h; mm[j] -= h
                hess[i, j] = (pop(pp) - pop(pm) - pop(mp) + pop(mm)) / (4 * h * h)
        a_oracle = -hess
        h = 1e-5

        def tuple_loss(beta, x, labels):
            table = sf.score_table(beta[:1]) - noise.log_probs[None, :]
            stilde = table - beta[1] - np.log(k)
            return float(
                log_expit(stilde[x, labels[0]]) + log_expit(-stilde[x, labels[1:]]).sum()
            )

        b_oracle = np.zeros((2, 2))
        mean_grad = np.zeros(2)
        for x in range(prob.m_x):
            for labels in itertools.product(range(2), repeat=k + 1):
                labels = np.array(labels)
                weight = (
                    prob.p_x[x]
                    * prob.p_y_given_x[x, labels[0]]
                    * np.prod(noise.probs[labels[1:]])
                )
                grad = np.empty(2)
                for i in range(2):
                    up, down = beta_star.copy(), beta_star.copy()
                    up[i] += h
                    down[i] -= h
                    grad[i] = (tuple_loss(up, x, labels) - tuple_loss(down, x, labels)) / (2 * h)
                b_oracle += weight * np.outer(grad, grad)
                mean_grad += weight * grad
        np.testing.assert_allclose(mean_grad, 0.0, atol=1e-8)
        a_inv = np.linalg.inv(a_oracle)
        v_oracle = a_inv @ b_oracle @ a_inv
        assert report.inverse[0, 0] == pytest.approx(v_oracle[0, 0], abs=1e-6)


class TestMseInfinity:
    def test_identity_matrix(self):
        rep = CovarianceReport("mle", np.eye(3), np.eye(3), "exact")
        assert rep.mse_infinity == pytest.approx(1.0)

    def test_diagonal(self):
        inv = np.diag([1.0, 2.0, 3.0])
        rep = CovarianceReport("mle", np.linalg.inv(inv), inv, "exact")
        assert rep.mse_infinity == pytest.approx(2.0)
        assert rep.mse_infinity == pytest.approx(np.mean(np.linalg.eigvalsh(inv)))

    def test_equals_mean_eigenvalue_of_inverse(self):
        prob = make_self_normalized_problem(6, 4, 3, seed=38)
        sf, ts = prob.scoring, prob.theta_star
        noise = NoiseDistribution.uniform(4)
        for rep in (
            ranking_asymptotic_cov(prob, sf, ts, noise, 4),
            binary_asymptotic_cov(prob, sf, ts, 0.0, noise, 4),
        ):
            assert rep.mse_infinity == pytest.approx(
                np.mean(np.linalg.eigvalsh(rep.inverse)), rel=1e-12
            )


class TestInformationOrdering:
    def test_nce_never_beats_fisher(self):
        prob = make_self_normalized_problem(6, 4, 3, seed=38)
        sf, ts = prob.scoring, prob.theta_star
        noise = NoiseDistribution.uniform(4)
        fisher_trace = np.trace(np.linalg.inv(fisher_information(prob, sf, ts)))
        for k in (1, 2, 4):
            rep = ranking_asymptotic_cov(prob, sf, ts, noise, k, mode="exact")
            assert np.trace(rep.inverse) >= fisher_trace - 1e-8
        for k in (4, 64, 512):
            rep = binary_asymptotic_cov(prob, sf, ts, 0.0, noise, k)
            assert np.trace(rep.inverse) >= fisher_trace - 1e-8


class TestAsymptoticCov:
    def test_dispatches_each_estimator(self):
        prob = make_self_normalized_problem(6, 4, 3, seed=38)
        sf, ts = prob.scoring, prob.theta_star
        noise = NoiseDistribution.uniform(4)
        mle = asymptotic_cov(prob, "mle", noise, 3)
        assert (mle.estimator, mle.mode) == ("mle", "exact")
        np.testing.assert_array_equal(mle.information, fisher_information(prob, sf, ts))
        np.testing.assert_array_equal(
            mle.inverse, asymptotics.invert_spd(mle.information, "fisher information")
        )
        ranking = asymptotic_cov(prob, "ranking", noise, 3, "mc", 640, seed=5)
        expected = ranking_asymptotic_cov(prob, sf, ts, noise, 3, "mc", 640, seed=5)
        np.testing.assert_array_equal(ranking.inverse, expected.inverse)
        binary = asymptotic_cov(prob, "binary", noise, 3)
        expected = binary_asymptotic_cov(prob, sf, ts, 0.0, noise, 3)
        np.testing.assert_array_equal(binary.inverse, expected.inverse)

    def test_rejects_missing_truth_and_unknown_estimators(self):
        noise = NoiseDistribution.uniform(4)
        softmax = random_tabular_problem(3, 4, 2, seed=21)
        with pytest.raises(ValidationError, match="needs gamma_star"):
            asymptotic_cov(softmax, "binary", noise, 2)
        with pytest.raises(ValidationError, match="no asymptotic covariance"):
            asymptotic_cov(softmax, "population-ranking", noise, 2)
        bare = ConditionalProblem(softmax.p_x, softmax.p_y_given_x)
        for estimator in ("mle", "ranking", "binary"):
            with pytest.raises(ValidationError, match="needs a problem with theta_star"):
                asymptotic_cov(bare, estimator, noise, 2)


class TestReplicate:
    def test_same_master_seed_same_summary(self):
        prob = random_tabular_problem(3, 4, 2, seed=21)
        noise = NoiseDistribution.uniform(4)
        summaries = [
            replicate(prob, FitConfig(objective="mle"), noise, k=1, n=500,
                      replications=3, seeds=123).to_json_dict()
            for _ in range(2)
        ]
        assert summaries[0] == summaries[1]

    @staticmethod
    def _loop_summary(problem, cfg, noise, k, n, replications, seeds):
        """The JSON summary of a plain loop: one seed, dataset and fit per replication."""
        devs, norms, converged = [], [], 0
        for r in range(replications):
            seed = int(derive_rng(seeds, 8, r).integers(2**63))
            report = fit(problem.scoring, generate_dataset(
                problem, n, SamplingConfig(k=k, seed=seed), noise), noise, cfg)
            devs.append(np.sqrt(n) * (report.theta - problem.theta_star))
            norms.append(report.grad_norm)
            converged += report.converged
        devs = np.array(devs)
        theoretical = asymptotic_cov(problem, cfg.objective, noise, k).inverse
        mean_bias = devs.mean(axis=0)
        centered = devs - mean_bias
        empirical = centered.T @ centered / (replications - 1)
        return {
            "estimator": cfg.objective, "k": k, "n": n, "replications": replications,
            "empirical_cov": empirical.tolist(), "mean_bias": mean_bias.tolist(),
            "theoretical": theoretical.tolist(),
            "rel_frobenius_error": float(np.linalg.norm(empirical - theoretical)
                                         / np.linalg.norm(theoretical)),
            "empirical_mse": float(np.mean(devs**2)),
            "theoretical_mse": float(np.trace(theoretical)) / problem.scoring.n_params,
            "converged": converged, "max_iters_reached": replications - converged,
            "max_grad_norm": float(np.max(norms)),
        }

    @pytest.mark.parametrize("objective", ["mle", "ranking"])
    def test_worker_count_changes_no_byte(self, monkeypatch, objective):
        prob = random_tabular_problem(3, 4, 2, seed=23)
        noise = NoiseDistribution.uniform(4)
        cfg = FitConfig(objective=objective, tol=1e-7)
        # R = 7 splits unevenly over 2 and 3 workers
        want = self._loop_summary(prob, cfg, noise, k=4, n=300, replications=7, seeds=5)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            summary = replicate(prob, cfg, noise, k=4, n=300, replications=7, seeds=5)
            assert summary.workers == cpus
            assert summary.to_json_dict() == want
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing", [(4,), (4, 2)], ids=["one", "two-blocks"])
    def test_the_lowest_failing_replication_is_named(self, monkeypatch, failing):
        prob = random_tabular_problem(3, 4, 2, seed=23)
        noise = NoiseDistribution.uniform(4)
        seeds = {int(derive_rng(5, 8, r).integers(2**63)): r for r in range(7)}
        real_fit = asymptotics.fit

        def numeric_error(sf, dataset, *args):
            if seeds[dataset.provenance["seed"]] in failing:
                raise NumericError("objective non-finite")
            return real_fit(sf, dataset, *args)

        def stalls(sf, dataset, *args):
            report = real_fit(sf, dataset, *args)
            if seeds[dataset.provenance["seed"]] in failing:
                return dataclasses.replace(report, stalled=True, message="line search stalled")
            return report

        # three workers over R = 7: blocks {0, 1}, {2, 3}, {4, 5, 6}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        for patched, error, what in ((numeric_error, NumericError, "failed"),
                                     (stalls, ValidationError, "stalled")):
            monkeypatch.setattr(asymptotics, "fit", patched)
            with pytest.raises(error, match=f"^replication {min(failing)} {what}: ") as info:
                replicate(prob, FitConfig(objective="mle"), noise, k=1, n=200,
                          replications=7, seeds=5)
            assert type(info.value) is error
            assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_raises_instead_of_hanging(self, monkeypatch):
        parent, real_fit = os.getpid(), asymptotics.fit

        def dies_in_a_worker(*args):
            if os.getpid() != parent:
                os._exit(1)  # as when the kernel kills a worker
            return real_fit(*args)

        def hung(signum, frame):
            raise TimeoutError("replicate still waiting for a dead worker")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(asymptotics, "fit", dies_in_a_worker)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(BrokenProcessPool):
                replicate(random_tabular_problem(3, 4, 2, seed=23), FitConfig(objective="mle"),
                          NoiseDistribution.uniform(4), k=1, n=200, replications=7, seeds=5)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_mle_replication_smoke(self):
        prob = random_tabular_problem(3, 4, 2, seed=23)
        noise = NoiseDistribution.uniform(4)
        summary = replicate(
            prob,
            FitConfig(objective="mle", tol=1e-6),
            noise,
            k=1,
            n=4000,
            replications=60,
            seeds=0,
        )
        assert summary.rel_frobenius_error <= 0.6
        assert summary.empirical_mse == pytest.approx(summary.theoretical_mse, rel=0.6)
