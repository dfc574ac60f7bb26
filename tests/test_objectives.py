"""Sampled/population objectives against naive oracles and invariances."""

import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, gammaln, log_expit, log_softmax, logsumexp

from ncelab import (
    BinaryParams,
    ContextBias,
    Dataset,
    FitConfig,
    InitializationError,
    LinearFeatures,
    NoiseDistribution,
    RegularizerConfig,
    SamplingConfig,
    ValidationError,
    binary_gradient,
    binary_objective,
    counterexample_problem,
    fit,
    generate_dataset,
    mle_gradient,
    mle_objective,
    population_binary_objective,
    population_ranking_objective,
    posteriors,
    random_tabular_problem,
    ranking_gradient,
    ranking_objective,
    regularizer,
)
from ncelab import asymptotics, objectives
from ncelab.asymptotics import _ranking_factors
from ncelab.model import log_softmax_rows
from ncelab.objectives import (
    _binary_terms,
    _row_sum,
    _shifted_table,
    _workspaces,
    count_table,
    count_vectors,
    fold_candidates,
    fold_draws,
    ranking_count_terms,
    ranking_keys,
    sample_count_vectors,
    value_grad_fn,
)


def naive_ranking(sf, theta, dataset, noise):
    scores = sf.score_table(theta)
    total = 0.0
    for i in range(dataset.n):
        x = dataset.x[i]
        cands = [dataset.y[i]] + list(dataset.negatives[i])
        shats = [scores[x, y] - np.log(noise.probs[y]) for y in cands]
        total += shats[0] - np.log(sum(np.exp(s) for s in shats))
    return total / dataset.n


def naive_binary(sf, bp, dataset, noise):
    k = dataset.k
    scores = sf.score_table(bp.theta)
    total = 0.0
    for i in range(dataset.n):
        x = dataset.x[i]

        def g(y):
            shat = scores[x, y] - np.log(noise.probs[y])
            e = np.exp(shat - bp.gamma)
            return e / (e + k)

        total += np.log(g(dataset.y[i]))
        total += sum(np.log(1 - g(y)) for y in dataset.negatives[i])
    return total / dataset.n


def fd_grad(fn, theta, h=1e-5):
    out = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        out[i] = (fn(up) - fn(down)) / (2 * h)
    return out


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


def penalty(sf, theta, dataset, draws, noise, alpha):
    """The log Z penalty alone over ``draws`` of ``dataset.x`` and its gradient:
    ``value_grad_fn`` with no loss gives their negatives."""
    value, grad = value_grad_fn(sf, dataset, noise, None, draws=draws, alpha=alpha)(theta)
    return -value, -grad


def with_gamma(bp):
    """A binary objective's params: theta with gamma appended."""
    return np.append(bp.theta, bp.gamma)


def fold_index(index):
    """(index, mult) of an index of flat cells, each row in one context: with
    m_y = 1 and every x 0, ``fold_draws`` takes the cells as labels."""
    return fold_draws(np.zeros(index.shape[0], dtype=np.int64), index, 1)


def gathered(table, index):
    """The gather kernel over the folded index, through a workspace built for
    this one call; returns (lse, e, s) and the folded (index, mult)."""
    exp_table = np.exp(table - table.max(axis=1)[:, None])
    folded = fold_index(index)
    (ws,), _, _ = _workspaces([folded], table.shape)
    return ws.gather(table, exp_table), folded


def folded_softmax(cand_cells, q, cells, mult):
    """Each folded slot's share of the per-candidate softmax q: the sum of q over
    the row's candidates in that slot's cell, 0 in pad slots."""
    return np.array([
        [q_row[row == cell].sum() if m else 0.0 for cell, m in zip(cell_row, mult_row)]
        for row, q_row, cell_row, mult_row in zip(cand_cells, q, cells, mult)
    ])


def small_setup(seed, m_x=2, m_y=3, d=4, n=6, k=2):
    problem = random_tabular_problem(m_x, m_y, d, seed)
    rng = np.random.default_rng(seed + 1)
    raw = rng.random(m_y) + 0.2
    noise = NoiseDistribution(raw / raw.sum())
    dataset = generate_dataset(problem, n, SamplingConfig(k=k, seed=seed), noise)
    theta = rng.standard_normal(problem.scoring.n_params)
    return problem, noise, dataset, theta


class TestRankingObjective:
    def test_equal_scores_k1(self):
        sf = LinearFeatures(np.zeros((2, 3, 1)))
        noise = NoiseDistribution.uniform(3)
        ds = Dataset(x=[0, 1], y=[0, 2], negatives=[[1], [1]], provenance={})
        assert ranking_objective(sf, np.zeros(1), ds, noise) == pytest.approx(np.log(0.5))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_equal_scores_general_k(self, k):
        sf = LinearFeatures(np.zeros((2, 4, 1)))
        noise = NoiseDistribution.uniform(4)
        ds = Dataset(x=[0], y=[1], negatives=[[0] * k], provenance={})
        assert ranking_objective(sf, np.zeros(1), ds, noise) == pytest.approx(-np.log(k + 1))

    def test_matches_naive_oracle(self):
        problem, noise, dataset, theta = small_setup(seed=31, m_x=2, m_y=2, n=3, k=2)
        got = ranking_objective(problem.scoring, theta, dataset, noise)
        want = naive_ranking(problem.scoring, theta, dataset, noise)
        assert got == pytest.approx(want, abs=1e-12)

    def test_empty_dataset_rejected(self):
        sf = LinearFeatures(np.zeros((1, 2, 1)))
        ds = Dataset(x=[], y=[], negatives=np.empty((0, 1)), provenance={})
        with pytest.raises(ValidationError):
            ranking_objective(sf, np.zeros(1), ds, NoiseDistribution.uniform(2))


class TestRankingGradient:
    def test_symmetric_instance_zero_gradient(self):
        # identical candidates: softmax weights are uniform and cancel
        sf = LinearFeatures(np.zeros((1, 2, 3)))
        noise = NoiseDistribution.uniform(2)
        ds = Dataset(x=[0], y=[1], negatives=[[1, 1]], provenance={})
        np.testing.assert_allclose(
            ranking_gradient(sf, np.zeros(3), ds, noise), 0.0, atol=1e-15
        )

    def test_matches_finite_differences(self):
        problem, noise, dataset, theta = small_setup(seed=37)
        sf = problem.scoring
        fd = fd_grad(lambda t: ranking_objective(sf, t, dataset, noise), theta)
        assert rel_err(ranking_gradient(sf, theta, dataset, noise), fd) <= 1e-6

    def test_bias_coordinates_of_absent_contexts_stay_zero(self):
        problem, noise, dataset, _ = small_setup(seed=41, m_x=4, n=5)
        sf = ContextBias(problem.scoring)
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(sf.n_params)
        grad = ranking_gradient(sf, theta, dataset, noise)
        present = set(dataset.x.tolist())
        absent = [x for x in range(4) if x not in present]
        assert absent, "test problem should leave some context unused"
        for x in absent:
            assert grad[problem.scoring.n_params + x] == 0.0


class TestBinaryObjective:
    def test_logit_zero_configuration(self):
        # uniform noise and gamma = log m_y - log K make every logit zero
        m_y, k = 4, 3
        sf = LinearFeatures(np.zeros((2, m_y, 1)))
        noise = NoiseDistribution.uniform(m_y)
        bp = BinaryParams(np.zeros(1), np.log(m_y) - np.log(k))
        ds = Dataset(x=[0, 1], y=[1, 2], negatives=[[0] * k, [3] * k], provenance={})
        assert binary_objective(sf, bp, ds, noise) == pytest.approx((1 + k) * np.log(0.5))

    def test_large_gamma_crushes_positives(self):
        problem, noise, dataset, theta = small_setup(seed=43)
        sf = problem.scoring
        mid = binary_objective(sf, BinaryParams(theta, 0.0), dataset, noise)
        crushed = binary_objective(sf, BinaryParams(theta, 50.0), dataset, noise)
        assert crushed < mid - 10.0

    def test_matches_naive_oracle(self):
        problem, noise, dataset, theta = small_setup(seed=47, m_x=2, m_y=2, n=4, k=3)
        bp = BinaryParams(theta, 0.37)
        got = binary_objective(problem.scoring, bp, dataset, noise)
        want = naive_binary(problem.scoring, bp, dataset, noise)
        assert got == pytest.approx(want, abs=1e-12)


class TestBinaryGradient:
    def test_matches_finite_differences_in_theta_and_gamma(self):
        problem, noise, dataset, theta = small_setup(seed=53)
        sf = problem.scoring
        params = np.concatenate([theta, [0.21]])

        def obj(p):
            return binary_objective(sf, BinaryParams(p[:-1], p[-1]), dataset, noise)

        fd = fd_grad(obj, params)
        got = binary_gradient(sf, BinaryParams(theta, 0.21), dataset, noise)
        assert rel_err(got, fd) <= 1e-6

    def test_balanced_pair_has_zero_gamma_gradient(self):
        # one positive and one negative, both at g = 1/2: +-1/2 cancel
        m_y, k = 4, 1
        sf = LinearFeatures(np.zeros((1, m_y, 1)))
        noise = NoiseDistribution.uniform(m_y)
        bp = BinaryParams(np.zeros(1), np.log(m_y) - np.log(k))
        ds = Dataset(x=[0], y=[1], negatives=[[2]], provenance={})
        grad = binary_gradient(sf, bp, ds, noise)
        assert grad[-1] == pytest.approx(0.0, abs=1e-15)

    def test_gamma_gradient_changes_sign(self):
        sf = LinearFeatures(np.zeros((1, 2, 1)))
        noise = NoiseDistribution.uniform(2)
        ds = Dataset(x=[0], y=[0], negatives=[[1]], provenance={})
        low = binary_gradient(sf, BinaryParams(np.zeros(1), -10.0), ds, noise)[-1]
        high = binary_gradient(sf, BinaryParams(np.zeros(1), 10.0), ds, noise)[-1]
        assert low > 0 > high


class TestMleObjective:
    def test_uniform_model(self):
        sf = LinearFeatures(np.zeros((2, 5, 1)))
        ds = Dataset(x=[0, 1, 1], y=[0, 2, 4], negatives=[[0]] * 3, provenance={})
        assert mle_objective(sf, np.zeros(1), ds) == pytest.approx(-np.log(5))

    def test_at_truth_approaches_negative_entropy(self):
        problem = random_tabular_problem(3, 4, 3, seed=59)
        sf, theta = problem.scoring, problem.theta_star
        noise = NoiseDistribution.uniform(4)
        n = 40000
        ds = generate_dataset(problem, n, SamplingConfig(k=1, seed=59), noise)
        # exact E[log p] and its per-sample variance by direct summation
        log_p = np.log(problem.p_y_given_x)
        mean = float((problem.p_xy * log_p).sum())
        second = float((problem.p_xy * log_p**2).sum())
        sigma = np.sqrt((second - mean**2) / n)
        got = mle_objective(sf, theta, ds)
        assert abs(got - mean) <= 4 * sigma

    def test_gradient_matches_finite_differences(self):
        problem, _, dataset, theta = small_setup(seed=61)
        sf = problem.scoring
        fd = fd_grad(lambda t: mle_objective(sf, t, dataset), theta)
        assert rel_err(mle_gradient(sf, theta, dataset), fd) <= 1e-6


class TestPosteriors:
    def test_identical_candidates_are_uniform(self):
        problem, noise, _, theta = small_setup(seed=67)
        table = posteriors(problem.scoring, theta, problem, noise, 0, [1, 1, 1])
        np.testing.assert_allclose(table.q, 1 / 3, atol=1e-15)
        np.testing.assert_allclose(table.beta, 1 / 3, atol=1e-15)

    def test_model_posterior_equals_data_posterior_at_truth(self):
        for seed in range(5):
            problem = random_tabular_problem(3, 4, 3, seed=100 + seed)
            rng = np.random.default_rng(seed)
            raw = rng.random(4) + 0.3
            noise = NoiseDistribution(raw / raw.sum())
            for labels in itertools.product(range(4), repeat=3):
                for x in range(3):
                    t = posteriors(
                        problem.scoring, problem.theta_star, problem, noise, x, labels
                    )
                    np.testing.assert_allclose(t.q, t.beta, atol=1e-12)

    def test_cross_entropy_minimized_at_truth(self):
        problem, noise, _, _ = small_setup(seed=71, m_x=3, m_y=4, d=3)
        sf, theta_star = problem.scoring, problem.theta_star
        rng = np.random.default_rng(5)
        labels = [2, 0, 3]
        base = posteriors(sf, theta_star, problem, noise, 1, labels).cross_entropy
        for _ in range(100):
            perturbed = theta_star + 0.5 * rng.standard_normal(theta_star.size)
            other = posteriors(sf, perturbed, problem, noise, 1, labels).cross_entropy
            assert base <= other + 1e-12

    def test_alpha_positive_and_weights_normalized(self):
        problem, noise, _, theta = small_setup(seed=73)
        t = posteriors(problem.scoring, theta, problem, noise, 1, [0, 2, 2, 1])
        assert t.alpha > 0
        assert t.q.sum() == pytest.approx(1.0, abs=1e-12)
        assert t.beta.sum() == pytest.approx(1.0, abs=1e-12)


class TestPopulationRanking:
    def test_cross_entropy_form_identity(self):
        # two independent computations: direct enumeration vs posterior form
        p = counterexample_problem()
        noise = NoiseDistribution.uniform(2)
        for k in (1, 2):
            direct = population_ranking_objective(p.scoring, p.theta_star, p, noise, k)
            acc = 0.0
            for x in range(p.m_x):
                for labels in itertools.product(range(p.m_y), repeat=k + 1):
                    t = posteriors(p.scoring, p.theta_star, p, noise, x, labels)
                    acc += t.alpha * (-t.cross_entropy) / (k + 1)
            assert direct == pytest.approx(acc, abs=1e-12)

    def test_uniform_model_value(self):
        p = counterexample_problem()
        sf = LinearFeatures(np.zeros((2, 2, 1)))
        noise = NoiseDistribution.uniform(2)
        for k in (1, 3):
            got = population_ranking_objective(sf, np.zeros(1), p, noise, k)
            assert got == pytest.approx(-np.log(k + 1), abs=1e-12)

    def test_budget_error_names_required_count(self):
        from ncelab import BudgetError

        # m_x * m_y * C(m_y+K-1, K) = 4 * 10 * C(21, 12) terms
        problem = random_tabular_problem(4, 10, 2, seed=79)
        noise = NoiseDistribution.uniform(10)
        with pytest.raises(BudgetError, match="needs 11757200 terms"):
            population_ranking_objective(
                problem.scoring, problem.theta_star, problem, noise, 12
            )

    def test_exact_gradient_matches_finite_differences(self):
        problem, noise, _, theta = small_setup(seed=83, m_x=2, m_y=3, d=4)
        sf = problem.scoring
        fd = fd_grad(
            lambda t: population_ranking_objective(sf, t, problem, noise, 2), theta
        )
        got = value_grad_fn(sf, problem, noise, "population-ranking", 2)(theta)[1]
        assert rel_err(got, fd) <= 1e-6


class TestPopulationBinary:
    def test_counterexample_closed_form(self):
        p = counterexample_problem()
        noise = NoiseDistribution.uniform(2)
        rng = np.random.default_rng(0)
        for k in (1, 2, 5, 10):
            t1, t2, g = np.exp(rng.standard_normal(3) * 0.5)
            bp = BinaryParams(np.log([t1, t2]), g)
            got = population_binary_objective(p.scoring, bp, p, noise, k)
            kg = k * np.exp(g)
            want = (
                1 / 8 * np.log(2 * t1 / (2 * t1 + kg))
                + k / 4 * np.log(kg / (2 * t1 + kg))
                + 7 / 8 * np.log(2 * t2 / (2 * t2 + kg))
                + 3 * k / 4 * np.log(kg / (2 * t2 + kg))
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_stationary_point_of_the_closed_form(self):
        # theta gradient vanishes at theta1 = e^g/4, theta2 = 7 e^g/12
        p = counterexample_problem()
        noise = NoiseDistribution.uniform(2)
        for g in (-0.7, 0.0, 1.2):
            bp = BinaryParams(np.array([g - np.log(4.0), g + np.log(7.0 / 12.0)]), g)
            for k in (1, 4):
                value_grad = value_grad_fn(p.scoring, p, noise, "population-binary", k)
                grad = value_grad(with_gamma(bp))[1]
                np.testing.assert_allclose(grad[:2], 0.0, atol=1e-10)

    def test_balanced_logits_value(self):
        # scores 0, uniform noise, gamma = log m_y - log K: g = 1/2 everywhere
        p = counterexample_problem()
        sf = LinearFeatures(np.zeros((2, 2, 1)))
        noise = NoiseDistribution.uniform(2)
        k = 3
        bp = BinaryParams(np.zeros(1), np.log(2.0) - np.log(k))
        got = population_binary_objective(sf, bp, p, noise, k)
        assert got == pytest.approx((1 + k) * np.log(0.5), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        problem, noise, _, theta = small_setup(seed=89)
        sf = problem.scoring
        params = np.concatenate([theta, [-0.4]])

        def obj(p):
            return population_binary_objective(
                sf, BinaryParams(p[:-1], p[-1]), problem, noise, 3
            )

        fd = fd_grad(obj, params)
        got = value_grad_fn(sf, problem, noise, "population-binary", 3)(np.append(theta, -0.4))[1]
        assert rel_err(got, fd) <= 1e-6


class TestRegularizer:
    def test_alpha_zero_is_inert(self):
        problem, noise, dataset, theta = small_setup(seed=97)
        value, grad = regularizer(
            problem.scoring, theta, dataset, noise, RegularizerConfig(alpha=0.0, m=4)
        )
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    @pytest.mark.parametrize("x, match", [([0, 2], "x index out of range"), ([], "is empty")])
    def test_out_of_range_or_empty_dataset_is_a_validation_error(self, x, match):
        problem, noise, _, theta = small_setup(seed=97)
        negatives = np.ones((len(x), 1), dtype=np.int64)
        dataset = Dataset(x=x, y=np.zeros(len(x)), negatives=negatives, provenance={})
        with pytest.raises(ValidationError, match=match):
            regularizer(problem.scoring, theta, dataset, noise, RegularizerConfig(alpha=0.5, m=3))

    def test_exact_zero_for_unit_partition_with_exhaustive_draws(self):
        from ncelab import make_self_normalized_problem

        problem = make_self_normalized_problem(3, 4, 3, seed=101)
        noise = NoiseDistribution.uniform(4)
        dataset = Dataset(x=[0, 1, 2], y=[0, 0, 0], negatives=[[0], [0], [0]], provenance={})
        draws = np.tile(np.arange(4), (3, 1))  # every label once per example
        value, grad = penalty(problem.scoring, problem.theta_star, dataset, draws, noise, alpha=1.0)
        assert value == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_value_shrinks_with_more_draws(self):
        from ncelab import make_self_normalized_problem

        problem = make_self_normalized_problem(4, 6, 3, seed=103)
        noise = NoiseDistribution.uniform(6)
        dataset = generate_dataset(problem, 64, SamplingConfig(k=1, seed=7), noise)
        values = []
        for m in (2, 32, 512):
            value, _ = regularizer(
                problem.scoring,
                problem.theta_star,
                dataset,
                noise,
                RegularizerConfig(alpha=1.0, m=m, seed=11),
            )
            values.append(value)
        assert values[2] < values[1] < values[0]

    def test_gradient_matches_finite_differences_with_frozen_draws(self):
        problem, noise, dataset, theta = small_setup(seed=107)
        cfg = RegularizerConfig(alpha=0.8, m=5, seed=13)
        sf = problem.scoring
        fd = fd_grad(lambda t: regularizer(sf, t, dataset, noise, cfg)[0], theta)
        got = regularizer(sf, theta, dataset, noise, cfg)[1]
        assert rel_err(got, fd) <= 1e-6


class TestInvariances:
    def test_ranking_gauge_invariance(self):
        problem, noise, dataset, theta = small_setup(seed=109, m_x=3)
        sf = ContextBias(problem.scoring)
        rng = np.random.default_rng(2)
        base_theta = np.concatenate([theta, np.zeros(3)])
        shifted = np.concatenate([theta, rng.standard_normal(3)])
        a = ranking_objective(sf, base_theta, dataset, noise)
        b = ranking_objective(sf, shifted, dataset, noise)
        assert a == pytest.approx(b, abs=1e-12)

    def test_binary_constant_shift_invariance(self):
        problem, noise, dataset, theta = small_setup(seed=113)
        sf = problem.scoring
        # adding c to every score and to gamma leaves the logits unchanged;
        # realize the shift through an appended constant feature
        lifted = LinearFeatures(
            np.concatenate(
                [np.asarray(sf.features), np.ones((sf.m_x, sf.m_y, 1))], axis=2
            )
        )
        c = 1.37
        a = binary_objective(
            lifted, BinaryParams(np.concatenate([theta, [0.0]]), 0.5), dataset, noise
        )
        b = binary_objective(
            lifted, BinaryParams(np.concatenate([theta, [c]]), 0.5 + c), dataset, noise
        )
        assert a == pytest.approx(b, abs=1e-12)

    def test_expectation_identity_ranking_and_binary(self):
        # mean of the sampled objective over independent datasets matches the
        # exact population value within Monte Carlo error
        problem = random_tabular_problem(2, 3, 3, seed=127)
        sf = problem.scoring
        noise = NoiseDistribution.uniform(3)
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(sf.n_params)
        gamma = 0.3
        k = 2
        r_vals, b_vals = [], []
        for rep in range(200):
            ds = generate_dataset(problem, 2000, SamplingConfig(k=k, seed=500 + rep), noise)
            r_vals.append(ranking_objective(sf, theta, ds, noise))
            b_vals.append(binary_objective(sf, BinaryParams(theta, gamma), ds, noise))
        r_vals, b_vals = np.asarray(r_vals), np.asarray(b_vals)
        pop_r = population_ranking_objective(sf, theta, problem, noise, k)
        pop_b = population_binary_objective(sf, BinaryParams(theta, gamma), problem, noise, k)
        assert abs(r_vals.mean() - pop_r) <= 4 * r_vals.std(ddof=1) / np.sqrt(200)
        assert abs(b_vals.mean() - pop_b) <= 4 * b_vals.std(ddof=1) / np.sqrt(200)

    def test_simplex_inequality(self):
        # sum_k beta_k log q_k is maximized over the simplex at q = beta
        rng = np.random.default_rng(6)
        beta = rng.random(5) + 0.05
        beta /= beta.sum()
        best = float((beta * np.log(beta)).sum())
        for _ in range(1000):
            q = rng.random(5) + 1e-6
            q /= q.sum()
            assert float((beta * np.log(q)).sum()) <= best + 1e-12


# --------------------------------------------------------------------------
# value_grad functions against per-example reference formulas


def ref_ranking(sf, theta, ds, noise):
    shat = sf.score_table(theta) - noise.log_probs[None, :]
    labels = np.concatenate([ds.y[:, None], ds.negatives], axis=1)
    cand = shat[ds.x[:, None], labels]
    value = float(np.mean(cand[:, 0] - logsumexp(cand, axis=1)))
    coeff = -np.exp(log_softmax(cand, axis=1))
    coeff[:, 0] += 1.0
    table = np.zeros((sf.m_x, sf.m_y))
    np.add.at(table, (np.broadcast_to(ds.x[:, None], labels.shape), labels), coeff)
    return value, sf.accumulate_grad(theta, table) / ds.n


def ref_binary(sf, bp, ds, noise):
    stilde = sf.score_table(bp.theta) - noise.log_probs[None, :] - bp.gamma - np.log(ds.k)
    pos = stilde[ds.x, ds.y]
    neg = stilde[ds.x[:, None], ds.negatives]
    value = float(np.mean(log_expit(pos) + log_expit(-neg).sum(axis=1)))
    table = np.zeros((sf.m_x, sf.m_y))
    np.add.at(table, (ds.x, ds.y), 1.0 - expit(pos))
    np.add.at(table, (np.broadcast_to(ds.x[:, None], neg.shape), ds.negatives), -expit(neg))
    grad = np.concatenate([sf.accumulate_grad(bp.theta, table), [-table.sum()]])
    return value, grad / ds.n


def ref_mle(sf, theta, ds):
    log_p = log_softmax(sf.score_table(theta), axis=1)
    table = np.zeros((sf.m_x, sf.m_y))
    for x, y in zip(ds.x, ds.y):
        table[x, y] += 1.0
        table[x] -= np.exp(log_p[x])
    return float(np.mean(log_p[ds.x, ds.y])), sf.accumulate_grad(theta, table) / ds.n


def ref_population_binary(sf, bp, problem, noise, k):
    """The closed form population-binary used before the shared kernel."""
    stilde = sf.score_table(bp.theta) - noise.log_probs[None, :] - bp.gamma - np.log(k)
    pos = problem.p_xy * log_expit(stilde)
    neg = k * problem.p_x[:, None] * noise.probs[None, :] * log_expit(-stilde)
    # the kernel's own sigmoid, so the gradient pin stays bit-for-bit; scipy's
    # expit rounds up to 4 ulp apart (TestScipyReplacements)
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-stilde))
    weights = problem.p_xy * (1.0 - sig) - k * problem.p_x[:, None] * noise.probs[None, :] * sig
    grad = np.concatenate([sf.accumulate_grad(bp.theta, weights), [-float(weights.sum())]])
    return float(pos.sum() + neg.sum()), grad


def ref_population_ranking(sf, theta, problem, noise, k):
    shat = sf.score_table(theta) - noise.log_probs[None, :]
    value, table = 0.0, np.zeros((sf.m_x, sf.m_y))
    for x in range(problem.m_x):
        for labels in itertools.product(range(problem.m_y), repeat=k + 1):
            labels = list(labels)
            w = problem.p_xy[x, labels[0]] * np.prod(noise.probs[labels[1:]])
            cand = shat[x, labels]
            value += w * (cand[0] - logsumexp(cand))
            np.add.at(table[x], labels, -w * np.exp(log_softmax(cand)))
            table[x, labels[0]] += w
    return value, sf.accumulate_grad(theta, table)


def ref_regularizer(sf, theta, x_idx, draws, noise, alpha):
    shat = sf.score_table(theta) - noise.log_probs[None, :]
    n, m = draws.shape
    value, table = 0.0, np.zeros((sf.m_x, sf.m_y))
    for x, row in zip(x_idx, draws):
        log_zhat = logsumexp(shat[x, row]) - np.log(m)
        value += alpha / n * log_zhat**2
        np.add.at(table[x], row, 2.0 * alpha / n * log_zhat * np.exp(log_softmax(shat[x, row])))
    return value, sf.accumulate_grad(theta, table)


@st.composite
def small_problems(draw, max_k=4, max_m_y=5):
    """Random dense-feature problem, optionally with per-context biases,
    non-uniform noise and a dataset whose examples may repeat."""
    seed = draw(st.integers(0, 2**31 - 1))
    m_x, m_y = draw(st.integers(1, 4)), draw(st.integers(2, max_m_y))
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, max_k))
    problem = random_tabular_problem(m_x, m_y, draw(st.integers(1, 3)), seed)
    sf = ContextBias(problem.scoring) if draw(st.booleans()) else problem.scoring
    rng = np.random.default_rng(seed)
    raw = rng.random(m_y) + 0.1
    noise = NoiseDistribution(raw / raw.sum())
    rows = rng.integers(0, max(1, n // 3), n) if draw(st.booleans()) else np.arange(n)
    x = rng.integers(0, m_x, n)[rows]
    y = rng.integers(0, m_y, n)[rows]
    negatives = rng.integers(0, m_y, (n, k))[rows]
    dataset = Dataset(x=x, y=y, negatives=negatives, provenance={})
    theta = rng.standard_normal(sf.n_params)
    return problem, sf, noise, dataset, theta, float(rng.normal()), k


def assert_matches(got, want, grad_floor=1e-12):
    (value, grad), (ref_value, ref_grad) = got, want
    assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-15)
    assert np.linalg.norm(grad - ref_grad) <= 1e-10 * max(np.linalg.norm(ref_grad), grad_floor)


class TestValueGradMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_ranking(self, case):
        _, sf, noise, ds, theta, _, _ = case
        first = value_grad_fn(sf, ds, noise, "ranking")(theta)
        # where the exact gradient cancels to 0 both sides keep ~1e-16 of
        # rounding, and the kernel's softmax rounds differently from scipy's
        assert_matches(first, ref_ranking(sf, theta, ds, noise), grad_floor=1e-5)
        second = value_grad_fn(sf, ds, noise, "ranking")(theta)
        assert first[0] == second[0] and np.array_equal(first[1], second[1])

    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_binary(self, case):
        _, sf, noise, ds, theta, gamma, _ = case
        bp = BinaryParams(theta, gamma)
        first = value_grad_fn(sf, ds, noise, "binary")(with_gamma(bp))
        assert_matches(first, ref_binary(sf, bp, ds, noise))
        second = value_grad_fn(sf, ds, noise, "binary")(with_gamma(bp))
        assert first[0] == second[0] and np.array_equal(first[1], second[1])

    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_mle(self, case):
        _, sf, _, ds, theta, _, _ = case
        first = value_grad_fn(sf, ds, None, "mle")(theta)
        assert_matches(first, ref_mle(sf, theta, ds))
        second = value_grad_fn(sf, ds, None, "mle")(theta)
        assert first[0] == second[0] and np.array_equal(first[1], second[1])

    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_population_binary_is_the_closed_form(self, case):
        problem, sf, noise, _, theta, gamma, k = case
        bp = BinaryParams(theta, gamma)
        value, grad = value_grad_fn(sf, problem, noise, "population-binary", k)(with_gamma(bp))
        ref_value, ref_grad = ref_population_binary(sf, bp, problem, noise, k)
        assert value == ref_value
        np.testing.assert_array_equal(grad, ref_grad)

    @settings(max_examples=30, deadline=None)
    @given(small_problems(max_k=3, max_m_y=4))
    def test_population_ranking(self, case):
        problem, sf, noise, _, theta, _, k = case
        got = value_grad_fn(sf, problem, noise, "population-ranking", k)(theta)
        # where the exact gradient cancels to 0 both sides keep ~1e-16 of
        # rounding, and the count-vector sum rounds differently from the reference
        assert_matches(got, ref_population_ranking(sf, theta, problem, noise, k), grad_floor=1e-5)

    def test_population_ranking_at_a_stationary_point(self):
        # the truth maximizes the population objective, so the exact gradient
        # is 0 and only rounding is left on either side
        problem = random_tabular_problem(1, 2, 1, seed=0)
        sf, theta = problem.scoring, problem.theta_star
        noise = NoiseDistribution(np.array([0.3, 0.7]))
        got = value_grad_fn(sf, problem, noise, "population-ranking", 1)(theta)
        want = ref_population_ranking(sf, theta, problem, noise, 1)
        assert np.linalg.norm(want[1]) <= 1e-15
        assert_matches(got, want, grad_floor=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_regularizer(self, case):
        _, sf, noise, ds, theta, _, _ = case
        # the dataset's negatives double as the penalty's noise draws
        got = penalty(sf, theta, ds, ds.negatives, noise, 0.7)
        assert_matches(got, ref_regularizer(sf, theta, ds.x, ds.negatives, noise, 0.7))


class TestValueGradFnChecks:
    """``value_grad_fn`` checks its own inputs, so a misuse is a ValidationError
    when the closure is built, not a numpy or attribute error later."""

    @pytest.mark.parametrize("objective, data", [
        ("ranking", "problem"), ("mle", "problem"), ("population-ranking", "dataset"),
        ("population-binary", "dataset"),
    ])
    def test_data_of_the_wrong_kind(self, objective, data):
        problem, noise, dataset, _ = small_setup(seed=151)
        data = problem if data == "problem" else dataset
        with pytest.raises(ValidationError, match="needs a"):
            value_grad_fn(problem.scoring, data, noise, objective, 2)

    @pytest.mark.parametrize("objective", ["population-ranking", "population-binary"])
    @pytest.mark.parametrize("m_x", [1, 4])
    def test_population_scorer_of_the_wrong_shape(self, objective, m_x):
        # a 4-context scorer on this 2-context problem used to give a finite, wrong value
        problem = random_tabular_problem(2, 3, 2, seed=0)
        sf = LinearFeatures(np.ones((m_x, 3, 2)))
        with pytest.raises(ValidationError, match="does not match problem \\(2, 3\\)"):
            value_grad_fn(sf, problem, NoiseDistribution.uniform(3), objective, 2)

    def test_unknown_objective(self):
        problem, noise, dataset, _ = small_setup(seed=151)
        with pytest.raises(ValidationError, match="objective must be one of"):
            value_grad_fn(problem.scoring, dataset, noise, "nce")

    @pytest.mark.parametrize("objective", ["ranking", "binary", "population-binary"])
    def test_missing_noise(self, objective):
        problem, _, dataset, _ = small_setup(seed=151)
        data = problem if objective.startswith("population-") else dataset
        with pytest.raises(ValidationError, match="needs a noise distribution"):
            value_grad_fn(problem.scoring, data, None, objective, 2)

    def test_penalty_without_noise(self):
        problem, _, dataset, _ = small_setup(seed=151)
        with pytest.raises(ValidationError, match="needs a noise distribution"):
            value_grad_fn(problem.scoring, dataset, None, "mle", draws=dataset.negatives, alpha=0.5)

    @pytest.mark.parametrize("objective, draws, alpha, match", [
        (None, None, 0.0, "no objective and no penalty"),
        ("ranking", None, 0.5, "needs \\(n=6, m\\) draws"),
        (None, np.zeros((3, 2), dtype=np.int64), 0.5, "needs \\(n=6, m\\) draws"),
    ])
    def test_nothing_to_evaluate_or_draws_of_the_wrong_shape(self, objective, draws, alpha, match):
        problem, noise, dataset, _ = small_setup(seed=151)
        with pytest.raises(ValidationError, match=match):
            value_grad_fn(problem.scoring, dataset, noise, objective, draws=draws, alpha=alpha)

    def test_penalty_on_a_population_objective(self):
        problem, noise, dataset, _ = small_setup(seed=151)
        with pytest.raises(ValidationError, match="needs a Dataset objective"):
            value_grad_fn(
                problem.scoring, problem, noise, "population-ranking", 2,
                draws=dataset.negatives, alpha=0.5,
            )


class TestLseAndSoftmax:
    """``model.log_softmax_rows``, bit for bit against scipy."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 40),
        st.integers(1, 120),
        st.sampled_from([1e-3, 1.0, 30.0, 700.0]),
        st.booleans(),
    )
    def test_rounds_like_scipy(self, seed, rows, cols, scale, ties):
        cand = scale * np.random.default_rng(seed).standard_normal((rows, cols))
        if ties:
            cand = np.round(cand)
        lse, log_p = log_softmax_rows(cand)
        np.testing.assert_array_equal(lse, logsumexp(cand, axis=1))
        np.testing.assert_array_equal(log_p, log_softmax(cand, axis=1))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 700.0])
    def test_one_row_view_of_a_vector(self, scale):
        # the self-normalized problem's gamma and the posteriors' q pass a
        # vector as a 1-row view where scipy took the vector itself
        v = scale * np.random.default_rng(9).standard_normal(37)
        lse, log_p = log_softmax_rows(v[None, :])
        assert lse.shape == (1,) and log_p.shape == (1, 37)
        assert lse[0] == logsumexp(v)
        np.testing.assert_array_equal(log_p[0], log_softmax(v))


class TestScipyReplacements:
    """The numpy forms that replaced scipy.special's sigmoids and log
    factorials, checked through the code that uses them."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 700.0])
    def test_binary_kernel_sigmoids(self, scale):
        # the kernel's value and its per-cell weights on grad s, w_pos (1 - g) - w_neg g
        m_x, k = 400, 3
        shat = scale * np.random.default_rng(12).standard_normal((m_x, 2))
        stilde = shat - 0.25 - np.log(k)
        ones, zeros = np.ones((m_x, 2)), np.zeros((m_x, 2))
        value, _ = _binary_terms(shat, 0.25, k, ones, zeros)
        assert value == float(log_expit(stilde).sum())
        value, weights = _binary_terms(shat, 0.25, k, zeros, ones)
        assert value == float(log_expit(-stilde).sum())
        # numpy's exp is not libm's, and the quotient carries its error
        np.testing.assert_array_max_ulp(-weights, expit(stilde), maxulp=4)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_count_vector_log_factorials(self, k):
        # a zero log p_N leaves log K! - sum_j log c_j! in the weights
        for counts, log_weight in count_vectors(np.zeros(3), k):
            ref = gammaln(k + 1.0) - gammaln(counts + 1.0).sum(axis=1)
            np.testing.assert_array_equal(log_weight, ref)


class TestGatheredExp:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 6),
        st.integers(1, 60),
        st.integers(1, 40),
        st.integers(1, 120),
        st.sampled_from([1e-3, 1.0, 30.0, 700.0]),
        st.booleans(),
    )
    def test_matches_lse_and_softmax(self, seed, m_x, m_y, rows, cols, scale, ties):
        rng = np.random.default_rng(seed)
        table = scale * rng.standard_normal((m_x, m_y))
        # each row draws its candidates, with repeats, from one context row
        index = rng.integers(0, m_x, rows)[:, None] * m_y + rng.integers(0, m_y, (rows, cols))
        if ties:
            table = np.round(table)
        (lse, e, row_sum), (cells, mult) = gathered(table, index)
        cand = table.ravel()[index]
        ref_lse, ref_q = logsumexp(cand, axis=1), np.exp(log_softmax(cand, axis=1))
        # relative to the row's largest magnitude: where the log-sum-exp
        # cancels to near 0, both sides keep ~1e-16 of their O(1) terms' rounding
        row_scale = np.maximum(np.abs(ref_lse), np.abs(cand).max(axis=1))
        assert np.all(np.abs(lse - ref_lse) <= 1e-13 * row_scale)
        assert e.shape == cells.shape and np.all(e[mult == 0] == 0.0)
        np.testing.assert_allclose(
            e / row_sum[:, None], folded_softmax(index, ref_q, cells, mult), rtol=0, atol=1e-13
        )

    def test_underflowing_rows_take_the_fallback_bit_for_bit(self, monkeypatch):
        calls = []

        def counting(cand):
            calls.append(cand.shape[0])
            return log_softmax_rows(cand)

        monkeypatch.setattr(objectives, "log_softmax_rows", counting)
        rng = np.random.default_rng(7)
        table = rng.standard_normal((3, 20))
        # contexts 0 and 2 peak at label 0; every other label sits about 740
        # below, where its shifted exp is subnormal: finite but inexact
        table[[0, 2], 0] = 740.0
        ctx, labels = rng.integers(0, 3, 30), rng.integers(1, 20, (30, 9))
        labels[::4, 3] = 0
        labels[::3, 0] = 0
        labels[1::2, 5:] = labels[1::2, :1]  # repeats of the first label fold into column 0
        index = ctx[:, None] * 20 + labels
        # the first candidate underflows, whether or not a later one peaks
        far = (ctx != 1) & (labels[:, 0] != 0)
        (lse, e, row_sum), (cells, mult) = gathered(table, index)
        assert calls == [int(far.sum())] and not far.all()
        assert (far & (labels[:, 3] == 0)).any() and (far & (labels[:, 3] != 0)).any()
        assert (mult[far, 0] > 1).any() and (mult[far] == 0).any()
        # the redo is the row-exact routine on the folded scores plus log multiplicities
        with np.errstate(divide="ignore"):
            log_mult = np.log(mult[far], dtype=np.float64)
        want_lse, want_log_p = log_softmax_rows(table.ravel()[cells[far]] + log_mult)
        np.testing.assert_array_equal(lse[far], want_lse)
        np.testing.assert_array_equal(e[far] / row_sum[far, None], np.exp(want_log_p))
        # and it stays exact against the unfolded rows
        cand = table.ravel()[index[far]]
        np.testing.assert_allclose(lse[far], logsumexp(cand, axis=1), rtol=1e-15)
        ref_q = folded_softmax(index[far], np.exp(log_softmax(cand, axis=1)), cells[far], mult[far])
        np.testing.assert_allclose(e[far], ref_q, rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_scores_give_non_finite_values(self, bad):
        problem, noise, ds, theta = small_setup(seed=43, n=20)
        features = problem.scoring.features.copy()
        features[ds.x[0], ds.y[0], 0] = bad
        sf = LinearFeatures(features)
        theta = np.abs(theta) + 0.5
        assert not np.isfinite(value_grad_fn(sf, ds, noise, "ranking")(theta)[0])
        draws = np.concatenate([ds.y[:, None], ds.negatives], axis=1)
        assert not np.isfinite(penalty(sf, theta, ds, draws, noise, 0.7)[0])

    def test_overflowing_scores_stop_a_ranking_fit_at_the_initial_point(self):
        # infinite features put +-inf scores in the table at any nonzero theta
        sf = LinearFeatures(np.array([[[np.inf], [-np.inf]]]))
        ds = Dataset(x=[0], y=[1], negatives=[[0]], provenance={})
        noise = NoiseDistribution.uniform(2)
        cfg = FitConfig(objective="ranking", init="gaussian", seed=1)
        with pytest.raises(InitializationError):
            fit(sf, ds, noise, cfg)


def fresh_gather(table, cells, mult):
    """The gather as one-shot numpy calls, every array allocated anew:
    ``np.take`` of the exp table, times the multiplicities, and ``sum(axis=1)``,
    then the same redo."""
    e = np.take(np.exp(table - table.max(axis=1)[:, None]), cells)
    first = e[:, 0].copy()
    e = e * mult
    s = e.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lse = np.take(table, cells[:, 0]) + np.log(s / first)
    redo = ~((first >= np.finfo(np.float64).tiny) & np.isfinite(lse))
    if redo.any():
        with np.errstate(divide="ignore"):
            log_mult = np.log(mult[redo], dtype=np.float64)
        lse[redo], log_p = log_softmax_rows(table.ravel()[cells[redo]] + log_mult)
        e[redo] = np.exp(log_p)
        s[redo] = 1.0
    return lse, e, s, redo


class TestWorkspace:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 5),
        st.integers(2, 30),
        st.integers(1, 40),
        st.integers(1, 12),
    )
    def test_reused_buffers_match_fresh_arrays_bit_for_bit(self, seed, m_x, m_y, rows, cols):
        rng = np.random.default_rng(seed)
        index = rng.integers(0, m_x, rows)[:, None] * m_y + rng.integers(0, m_y, (rows, cols))
        # context 0 peaks ~740 above its other labels at label 0, so in the
        # first call a row of context 0 led by another label takes the redo
        first = rng.standard_normal((m_x, m_y))
        first[0, 0] = 740.0
        index[0] = rng.integers(1, m_y, cols)
        second = 3.0 * rng.standard_normal((m_x, m_y))
        cells, mult = fold_index(index)
        (ws,), _, _ = _workspaces([(cells, mult)], (m_x, m_y))
        for call, table in enumerate((first, second)):
            exp_table = np.exp(table - table.max(axis=1)[:, None])
            got = ws.gather(table, exp_table)
            assert got[1] is ws.e and got[2] is ws.s
            *want, redo = fresh_gather(table, cells, mult)
            assert redo[0] if call == 0 else not redo.any()
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("cell", [-1, 6])
    def test_out_of_range_index_raises_when_built(self, cell):
        with pytest.raises(IndexError, match="out of bounds"):
            _workspaces([(np.array([[0, 1], [3, cell]]), np.ones((2, 2), np.uint8))], (2, 3))

    def test_regularizer_rejects_out_of_range_draws(self):
        problem, noise, ds, theta = small_setup(seed=45)
        # label m_x * m_y puts every row's cell past the table's end
        draws = np.full((ds.n, 2), problem.m_x * problem.m_y)
        with pytest.raises(IndexError, match="out of bounds"):
            penalty(problem.scoring, theta, ds, draws, noise, 0.7)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(1, 300))
    def test_row_sums_match_numpy_bit_for_bit(self, seed, width, rows):
        # column adds below 8 columns, numpy's own sum from 8 on
        rng = np.random.default_rng(seed)
        # same-sized values, where the order of the adds shows in the last bit
        e = rng.random((rows, width))
        e[rng.random((rows, width)) < 0.1] = 5e-324
        e[rng.random((rows, width)) < 0.2] = 0.0
        e[rng.random((rows, width)) < 0.02] = np.inf
        np.testing.assert_array_equal(_row_sum(e, np.empty(rows)), e.sum(axis=1))


class TestDatasetTables:
    def test_count_tables_per_cell(self):
        ds = Dataset(x=[0, 1, 1], y=[2, 0, 2], negatives=[[1, 1], [0, 2], [2, 2]], provenance={})
        positives = count_table(ds.x, ds.y[:, None], (2, 3))
        np.testing.assert_array_equal(positives, [[0, 0, 1], [1, 0, 1]])
        negatives = count_table(ds.x, ds.negatives, (2, 3))
        np.testing.assert_array_equal(negatives, [[0, 2, 0], [1, 0, 3]])
        wider = count_table(ds.x, ds.y[:, None], (2, 4))
        np.testing.assert_array_equal(wider, [[0, 0, 1, 0], [1, 0, 1, 0]])

    def test_bounds_checked_for_every_shape(self):
        ds = Dataset(x=[0], y=[2], negatives=[[1]], provenance={})
        ds.check_bounds(1, 3)
        with pytest.raises(ValidationError, match="label index"):
            ds.check_bounds(1, 2)
        with pytest.raises(ValidationError, match="x index"):
            Dataset(x=[1], y=[0], negatives=[[0]], provenance={}).check_bounds(1, 2)
        sf, noise = LinearFeatures(np.zeros((1, 2, 1))), NoiseDistribution.uniform(2)
        for objective in ("mle", "binary", "ranking"):
            with pytest.raises(ValidationError, match="label index"):
                value_grad_fn(sf, ds, noise, objective)

    @pytest.mark.parametrize("objective, alpha, builds", [
        ("mle", 0.0, ["count_table"]),
        ("binary", 0.0, ["count_table"] * 2),
        ("ranking", 0.0, ["ranking_keys"]),
        ("ranking", 0.5, ["ranking_keys", "fold_draws"]),
        (None, 0.5, ["fold_draws"]),
    ])
    def test_one_closure_folds_and_checks_its_dataset_once(self, monkeypatch, objective, alpha,
                                                           builds):
        calls = []

        def counting(name, inner):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            return wrapped

        for name in ("count_table", "ranking_keys", "fold_draws"):
            monkeypatch.setattr(objectives, name, counting(name, getattr(objectives, name)))
        monkeypatch.setattr(Dataset, "check_bounds", counting("check_bounds", Dataset.check_bounds))
        problem, noise, ds, theta = small_setup(seed=43, n=40)
        params = np.append(theta, 0.3) if objective == "binary" else theta
        value_grad = value_grad_fn(problem.scoring, ds, noise, objective,
                                   draws=ds.negatives, alpha=alpha)
        assert sorted(calls) == sorted(["check_bounds", *builds])
        for _ in range(3):
            value_grad(params)
        assert sorted(calls) == sorted(["check_bounds", *builds])

    def test_dataset_is_immutable(self):
        ds = Dataset(x=[0], y=[1], negatives=[[0]], provenance={})
        with pytest.raises(AttributeError):
            ds.x = np.array([1])


@st.composite
def repeated_rows(draw):
    """A dataset drawn from a small pool of rows, each repeat with its
    negatives shuffled, so many rows share one (x, y, sorted negatives) key."""
    seed = draw(st.integers(0, 2**31 - 1))
    m_x, m_y, k = draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(1, 4))
    pool, n = draw(st.integers(1, 8)), draw(st.integers(1, 300))
    problem = random_tabular_problem(m_x, m_y, draw(st.integers(1, 3)), seed)
    sf = ContextBias(problem.scoring) if draw(st.booleans()) else problem.scoring
    rng = np.random.default_rng(seed)
    raw = rng.random(m_y) + 0.1
    noise = NoiseDistribution(raw / raw.sum())
    rows = rng.integers(0, pool, n)
    negatives = rng.permuted(rng.integers(0, m_y, (pool, k))[rows], axis=1)
    x, y = rng.integers(0, m_x, pool)[rows], rng.integers(0, m_y, pool)[rows]
    dataset = Dataset(x=x, y=y, negatives=negatives, provenance={})
    return sf, noise, dataset, rng.standard_normal(sf.n_params)


class TestRankingFold:
    @settings(max_examples=80, deadline=None)
    @given(repeated_rows())
    def test_folded_kernel_matches_per_row_reference(self, case):
        sf, noise, ds, theta = case
        value, grad = value_grad_fn(sf, ds, noise, "ranking")(theta)
        ref_value, ref_grad = ref_ranking(sf, theta, ds, noise)
        assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-15)
        # identical candidates cancel the gradient to 0 exactly in the fold but
        # leave rounding of the O(1) summands, about 1e-16, in the reference
        assert np.linalg.norm(grad - ref_grad) <= 1e-10 * max(np.linalg.norm(ref_grad), 1e-5)

    @settings(max_examples=80, deadline=None)
    @given(repeated_rows())
    def test_keys_are_distinct_counts_match_a_brute_force_count(self, case):
        sf, _, ds, _ = case
        index, mults, counts = ranking_keys(ds, (sf.m_x, sf.m_y))
        assert index.shape == mults.shape and index.shape[0] == counts.size
        assert counts.dtype == np.float64 and counts.sum() == ds.n
        # each folded key back as (observed cell, sorted negative cells)
        rows = []
        for cells, mult in zip(index, mults):
            candidates = sorted(np.repeat(cells, mult).tolist())
            candidates.remove(int(cells[0]))
            rows.append((int(cells[0]), *candidates))
        assert len(set(rows)) == len(rows)
        brute = Counter(
            (int(x) * sf.m_y + int(y), *sorted(int(x) * sf.m_y + int(v) for v in negs))
            for x, y, negs in zip(ds.x, ds.y, ds.negatives)
        )
        assert dict(zip(rows, counts.tolist())) == brute

    def test_largest_packable_range_folds(self):
        # m_x * m_y**(K+1) = 2**62: the largest key, 2**62 - 1, still fits
        k = 61
        negatives = [[1] * k, [0] * k, [1] * (k - 1) + [0], [0] + [1] * (k - 1)]
        ds = Dataset(x=[0, 0, 0, 0], y=[1, 1, 1, 1], negatives=negatives, provenance={})
        index, mult, counts = ranking_keys(ds, (1, 2))
        np.testing.assert_array_equal(counts, [1.0, 2.0, 1.0])
        np.testing.assert_array_equal(index, [[1, 0], [1, 0], [1, 1]])
        np.testing.assert_array_equal(mult, [[1, k], [k, 1], [k + 1, 0]])

    def test_wide_keys_fold_each_row_alone(self):
        # m_x * m_y**(K+1) = 2**63 does not fit an int64: no fold across rows,
        # but each row still folds its K+1 candidates into at most 2 cells
        rng = np.random.default_rng(5)
        k, n = 62, 40
        sf = ContextBias(LinearFeatures(rng.standard_normal((2, 2, 3))))
        noise = NoiseDistribution(np.array([0.3, 0.7]))
        ds = Dataset(
            x=rng.integers(0, 2, n), y=rng.integers(0, 2, n),
            negatives=rng.integers(0, 2, (n, k)), provenance={},
        )
        index, mult, counts = ranking_keys(ds, (2, 2))
        np.testing.assert_array_equal(counts, np.ones(n))
        assert index.shape == (n, 2)
        np.testing.assert_array_equal(index[:, 0], ds.x * 2 + ds.y)
        np.testing.assert_array_equal(mult.sum(axis=1), np.full(n, k + 1))
        theta = rng.standard_normal(sf.n_params)
        # the fold sums each cell's repeats as one product, so the bits move
        got = value_grad_fn(sf, ds, noise, "ranking")(theta)
        assert_matches(got, ref_ranking(sf, theta, ds, noise))

    def test_mle_and_binary_never_build_the_fold(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("ranking fold built")

        monkeypatch.setattr(objectives, "ranking_keys", refuse)
        problem, noise, ds, theta = small_setup(seed=41, n=50)
        sf = problem.scoring
        value_grad_fn(sf, ds, None, "mle")(theta)
        value_grad_fn(sf, ds, noise, "binary")(np.append(theta, 0.3))
        with pytest.raises(AssertionError, match="fold built"):
            value_grad_fn(sf, ds, noise, "ranking")(theta)


@st.composite
def heavy_rows(draw):
    """A dataset whose rows hold K >= m_y candidates, so labels repeat within
    a row. With one-hot features theta is the score table; in half the draws
    one cell peaks 740 above its context, so that context's rows led by
    another label underflow in the gather and are redone."""
    seed = draw(st.integers(0, 2**31 - 1))
    m_x, m_y = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    k, n = draw(st.integers(m_y, 4 * m_y)), draw(st.integers(1, 40))
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((m_x, m_y))
    if draw(st.booleans()):
        table[rng.integers(0, m_x), rng.integers(0, m_y)] = 740.0
    sf = LinearFeatures(np.eye(m_x * m_y).reshape(m_x, m_y, m_x * m_y))
    raw = rng.random(m_y) + 0.1
    noise = NoiseDistribution(raw / raw.sum())
    ds = Dataset(
        x=rng.integers(0, m_x, n), y=rng.integers(0, m_y, n),
        negatives=rng.integers(0, m_y, (n, k)), provenance={},
    )
    return sf, noise, ds, table.ravel(), draw(st.integers(1, 64))


class TestFold:
    """``fold_candidates`` and the kernels that read its layout, on rows whose
    labels repeat."""

    @settings(max_examples=100, deadline=None)
    @given(heavy_rows())
    def test_cells_and_multiplicities_reproduce_each_row(self, case):
        sf, _, ds, _, block = case
        rows = np.concatenate([ds.y[:, None], ds.negatives], axis=1)
        index, mult = fold_candidates(ds.x, ds.y, np.sort(ds.negatives, axis=1), sf.m_y, block)
        assert index.shape == mult.shape and mult.dtype == np.min_scalar_type(ds.k + 1)
        distinct = [np.unique(row).size for row in rows]
        assert index.shape[1] == max(distinct)
        np.testing.assert_array_equal(index[:, 0], ds.x * sf.m_y + ds.y)
        assert np.all(mult[:, 0] >= 1)
        for x, row, cells, counts, d in zip(ds.x, rows, index, mult, distinct):
            real = counts > 0
            assert real.sum() == d and not real[d:].any()
            assert np.all(cells[~real] == cells[0])
            assert len(set(cells[real].tolist())) == d
            assert Counter(np.repeat(cells, counts).tolist()) == Counter((x * sf.m_y + row).tolist())
        # the regularizer's draws fold the same way, the first draw in column 0
        draws_index, draws_mult = fold_draws(ds.x, rows, sf.m_y)
        np.testing.assert_array_equal(draws_index, index)
        np.testing.assert_array_equal(draws_mult, mult)

    @settings(max_examples=100, deadline=None)
    @given(heavy_rows())
    def test_kernels_match_the_unfolded_references(self, case):
        sf, noise, ds, theta, _ = case
        ranking = value_grad_fn(sf, ds, noise, "ranking")(theta)
        ref_rank = ref_ranking(sf, theta, ds, noise)
        assert_matches(ranking, ref_rank, grad_floor=1e-5)
        ref_pen = ref_regularizer(sf, theta, ds.x, ds.negatives, noise, 0.7)
        assert_matches(penalty(sf, theta, ds, ds.negatives, noise, 0.7), ref_pen)
        both = value_grad_fn(sf, ds, noise, "ranking", draws=ds.negatives, alpha=0.7)(theta)
        assert_matches(both, (ref_rank[0] - ref_pen[0], ref_rank[1] - ref_pen[1]), grad_floor=1e-5)

    def test_redone_rows_match_the_unfolded_references(self, monkeypatch):
        calls = []

        def counting(cand):
            calls.append(cand.shape[0])
            return log_softmax_rows(cand)

        monkeypatch.setattr(objectives, "log_softmax_rows", counting)
        rng = np.random.default_rng(3)
        m_x, m_y, k, n = 2, 4, 9, 30
        sf = LinearFeatures(np.eye(m_x * m_y).reshape(m_x, m_y, m_x * m_y))
        table = rng.standard_normal((m_x, m_y))
        table[0, 0] = 740.0  # context 0's rows led by labels 1-3 underflow
        noise = NoiseDistribution.uniform(m_y)
        ds = Dataset(
            x=rng.integers(0, m_x, n), y=rng.integers(0, m_y, n),
            negatives=rng.integers(0, m_y, (n, k)), provenance={},
        )
        theta = table.ravel()
        got = value_grad_fn(sf, ds, noise, "ranking")(theta)
        assert_matches(got, ref_ranking(sf, theta, ds, noise))
        assert calls and calls[-1] == len({
            (y, *sorted(negs)) for x, y, negs in zip(ds.x, ds.y, ds.negatives.tolist())
            if x == 0 and y != 0
        })
        assert_matches(
            penalty(sf, theta, ds, ds.negatives, noise, 0.7),
            ref_regularizer(sf, theta, ds.x, ds.negatives, noise, 0.7),
        )
        assert calls[-1] == int(((ds.x == 0) & (ds.negatives[:, 0] != 0)).sum())


class TestCountVectors:
    """The multiset enumerator behind both exact ranking sums, against a
    brute-force pass over the ordered tuples in Y^K."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 5), st.integers(1, 5), st.integers(1, 40), st.integers(0, 2**31 - 1)
    )
    def test_one_row_per_multiset_with_multinomial_weight(self, m_y, k, block, seed):
        raw = np.random.default_rng(seed).random(m_y) + 0.05
        noise = NoiseDistribution(raw / raw.sum())
        blocks = list(count_vectors(noise.log_probs, k, block=block))
        assert all(len(c) <= max(1, block // m_y) for c, _ in blocks)
        counts = np.concatenate([c for c, _ in blocks])
        log_weight = np.concatenate([w for _, w in blocks])
        assert len(counts) == math.comb(m_y + k - 1, k)
        assert len({tuple(row) for row in counts}) == len(counts)
        assert np.all(counts >= 0) and np.all(counts.sum(axis=1) == k)
        assert abs(np.exp(log_weight).sum() - 1.0) <= 1e-12
        brute = {}
        for labels in itertools.product(range(m_y), repeat=k):
            key = tuple(np.bincount(labels, minlength=m_y))
            brute[key] = brute.get(key, 0.0) + np.prod(noise.probs[list(labels)])
        assert set(brute) == {tuple(row) for row in counts}
        for row, lw in zip(counts, log_weight):
            assert np.exp(lw) == pytest.approx(brute[tuple(row)], rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(2, 4), st.integers(1, 5), st.sampled_from([1.0, 300.0]),
        st.integers(0, 2**31 - 1),
    )
    def test_population_ranking_matches_ordered_tuples(self, m_y, k, scale, seed):
        # scale 300 spreads the scores over hundreds of nats, past exp's range
        problem = random_tabular_problem(2, m_y, 3, seed)
        rng = np.random.default_rng(seed)
        raw = rng.random(m_y) + 0.05
        noise = NoiseDistribution(raw / raw.sum())
        theta = scale * rng.standard_normal(3)
        sf = problem.scoring
        got = value_grad_fn(sf, problem, noise, "population-ranking", k)(theta)
        assert np.isfinite(got[0]) and np.all(np.isfinite(got[1]))
        assert_matches(got, ref_population_ranking(sf, theta, problem, noise, k))


def ref_sample_count_vectors(rng, noise, k, size):
    """``sample_count_vectors`` with the repeats found along each draw's row of m_y counts."""
    rows = max(1, objectives._COUNT_BLOCK // noise.size)
    for start in range(0, size, rows):
        counts = rng.multinomial(k, noise.probs, size=min(rows, size - start))
        counts = counts[np.lexsort(counts.astype(np.min_scalar_type(k)).T[::-1])]
        first = np.flatnonzero(np.r_[True, (counts[1:] != counts[:-1]).any(axis=1)])
        repeats = np.diff(np.r_[first, len(counts)])
        yield counts[first], np.log(repeats) - math.log(size)


def ref_ranking_count_terms(problem, shat, blocks):
    """``ranking_count_terms`` with b a max along each count vector's row, and numpy's row sum."""
    for counts, log_weight in blocks:
        noise_mass = np.exp(log_weight)
        present = counts > 0
        for x in range(problem.m_x):
            a = shat[x]
            b = np.where(present, a[None, :], -np.inf).max(axis=1)
            mass = counts * np.exp(np.minimum(a[None, :] - b[:, None], 0.0))
            top = np.maximum(a[:, None], b[None, :])
            pos = np.exp(a[:, None] - top)
            neg = np.exp(b[None, :] - top)
            denom = pos + neg * mass.sum(axis=1)[None, :]
            log_q = a[:, None] - top - np.log(denom)
            w = problem.p_x[x] * problem.p_y_given_x[x][:, None] * noise_mass[None, :]
            yield x, w, log_q, pos / denom, neg / denom, mass


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestCountTermsKernel:
    """The count-vector kernel, which reduces along the long axis of each
    block, against the row-wise form it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 12), st.integers(1, 6), st.booleans(), st.sampled_from([1.0, 30.0]),
        st.integers(0, 2**31 - 1),
    )
    def test_terms_and_factors_match_the_row_form_bit_for_bit(self, m_y, k, sampled, scale,
                                                              seed):
        # m_y 2-12 runs both sides of _row_sum's switch to numpy's sum at 8 columns;
        # scale 30 puts labels absent from a count vector far above its largest score
        problem = random_tabular_problem(2, m_y, 3, seed)
        rng = np.random.default_rng(seed)
        raw = rng.random(m_y) + 0.05
        noise = NoiseDistribution(raw / raw.sum())
        theta = scale * rng.standard_normal(3)
        shat = _shifted_table(problem.scoring, theta, noise)
        if sampled:
            blocks = list(sample_count_vectors(np.random.default_rng(seed), noise, k, 3000))
            ref_blocks = list(ref_sample_count_vectors(np.random.default_rng(seed), noise, k, 3000))
            assert len(blocks) == len(ref_blocks)
            for got, want in zip(blocks, ref_blocks):
                assert_same_bits(got, want)
        else:
            blocks = list(count_vectors(noise.log_probs, k))
        got = list(ranking_count_terms(problem, shat, blocks))
        want = list(ref_ranking_count_terms(problem, shat, blocks))
        assert len(got) == len(want) == problem.m_x * len(blocks)
        for terms, ref_terms in zip(got, want):
            assert_same_bits(terms, ref_terms)
        with mock.patch.object(asymptotics, "ranking_count_terms", ref_ranking_count_terms):
            want = _ranking_factors(problem, shat, blocks)
        assert_same_bits(_ranking_factors(problem, shat, blocks), want)
