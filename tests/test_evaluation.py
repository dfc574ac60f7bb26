"""Conditional-distribution metrics and perplexity."""

import numpy as np
import pytest

from ncelab import (
    ContextBias,
    LinearFeatures,
    NoiseDistribution,
    ValidationError,
    counterexample_problem,
    d_metric,
    evaluate,
    kl_divergence,
    log_cond_prob_table,
    random_tabular_problem,
)
from ncelab import evaluation
from ncelab.lm import HistoryTable, Vocab, corpus_perplexity


class TestKl:
    def test_zero_at_truth(self):
        prob = random_tabular_problem(3, 4, 2, seed=1)
        assert kl_divergence(prob, prob.scoring, prob.theta_star) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_matches_naive_double_loop(self):
        prob = random_tabular_problem(4, 5, 3, seed=2)
        rng = np.random.default_rng(3)
        theta = prob.theta_star + rng.standard_normal(3)
        got = kl_divergence(prob, prob.scoring, theta)
        from ncelab import cond_prob_table

        want = 0.0
        for x in range(prob.m_x):
            q = cond_prob_table(prob.scoring, theta)[x]
            for y in range(prob.m_y):
                p = prob.p_y_given_x[x, y]
                want += prob.p_x[x] * p * np.log(p / q[y])
        assert got == pytest.approx(want, abs=1e-12)
        assert got > 0

    def test_positive_for_misspecified_fit(self):
        # the population binary maximizer on the inconsistency example keeps
        # a strictly positive KL (the plateau that more data cannot fix)
        from ncelab import FitConfig, fit

        p = counterexample_problem()
        noise = NoiseDistribution.uniform(2)
        report = fit(p.scoring, p, noise, FitConfig(objective="population-binary", k=2))
        # rows (0.3, 0.7) vs (0.25, 0.75) at x1, exact at x2:
        # KL = 0.5 * (0.25 log(0.25/0.3) + 0.75 log(0.75/0.7)) = 3.082e-3
        assert kl_divergence(p, p.scoring, report.theta) == pytest.approx(
            3.0821e-3, abs=1e-5
        )


class TestDMetric:
    def test_zero_at_truth(self):
        prob = random_tabular_problem(3, 4, 2, seed=4)
        assert d_metric(prob, prob.scoring, prob.theta_star) == pytest.approx(0.0, abs=1e-15)

    def test_counterexample_binary_maximizer_value(self):
        # ratio 3/7 against truth 1/3: conditional rows (0.3, 0.7) vs
        # (0.25, 0.75) at x1 and exact agreement at x2, so
        # d = (1/8 + 3/8) * 0.05^2 = 1.25e-3 by direct summation
        p = counterexample_problem()
        theta = np.array([np.log(1.0), np.log(7.0 / 3.0)])  # ratio exactly 3/7
        got = d_metric(p, p.scoring, theta)
        assert got == pytest.approx(0.00125, abs=1e-12)

    def test_bounded_by_worst_cell_gap(self):
        prob = random_tabular_problem(4, 3, 2, seed=5)
        rng = np.random.default_rng(6)
        from ncelab import cond_prob_table

        theta = prob.theta_star + 0.5 * rng.standard_normal(2)
        gap = np.max((cond_prob_table(prob.scoring, theta) - prob.p_y_given_x) ** 2)
        assert d_metric(prob, prob.scoring, theta) <= gap + 1e-15


class TestGaugeInvariance:
    def test_metrics_ignore_per_context_shifts(self):
        prob = random_tabular_problem(3, 4, 2, seed=7)
        sf = ContextBias(prob.scoring)
        rng = np.random.default_rng(8)
        theta = rng.standard_normal(2)
        plain = np.concatenate([theta, np.zeros(3)])
        shifted = np.concatenate([theta, rng.standard_normal(3)])
        assert kl_divergence(prob, sf, plain) == pytest.approx(
            kl_divergence(prob, sf, shifted), abs=1e-12
        )
        assert d_metric(prob, sf, plain) == pytest.approx(
            d_metric(prob, sf, shifted), abs=1e-12
        )

    def test_evaluate_bundles_all_metrics(self):
        prob = random_tabular_problem(3, 4, 2, seed=9)
        result = evaluate(prob, prob.scoring, prob.theta_star)
        assert result.kl == pytest.approx(0.0, abs=1e-12)
        assert result.d_metric == pytest.approx(0.0, abs=1e-15)
        assert result.worst_tv == pytest.approx(0.0, abs=1e-12)

    def test_evaluate_builds_one_conditional_table(self, monkeypatch):
        prob = random_tabular_problem(3, 4, 2, seed=9)
        theta = prob.theta_star + 0.3
        calls = []

        def counting(sf, theta):
            calls.append(1)
            return log_cond_prob_table(sf, theta)

        monkeypatch.setattr(evaluation, "log_cond_prob_table", counting)
        result = evaluate(prob, prob.scoring, theta)
        assert len(calls) == 1
        assert result.kl == kl_divergence(prob, prob.scoring, theta)
        assert result.d_metric == d_metric(prob, prob.scoring, theta)
        q, p = np.exp(log_cond_prob_table(prob.scoring, theta)), prob.p_y_given_x
        assert result.worst_tv == max(0.5 * np.abs(q[x] - p[x]).sum() for x in range(3))
        with pytest.raises(ValidationError, match="does not match"):
            evaluate(counterexample_problem(), prob.scoring, theta)


def bigram_table_model(vocab, log_probs):
    """Tabular bigram scorer: history = previous token, scores = given table."""
    m = len(vocab)
    features = np.eye(m * m).reshape(m, m, m * m)
    sf = LinearFeatures(features)
    return sf, np.asarray(log_probs).ravel()


def bigram_history_table(size):
    """Bigram history table over ``size`` word ids: history row i is word i."""
    vocab = Vocab.build([f"w{i:03d}" for i in range(size - 1)])
    assert vocab.size == size
    return HistoryTable(2, vocab, np.zeros(0, dtype=np.int64))


class TestPerplexity:
    """``lm.corpus_perplexity`` on bigram streams against closed-form oracles."""

    def test_uniform_model_equals_vocab_size(self):
        vocab = 50
        sf = LinearFeatures(np.zeros((vocab, vocab, 1)))
        rng = np.random.default_rng(10)
        tokens = rng.integers(0, vocab, 300)
        got = corpus_perplexity(
            log_cond_prob_table(sf, np.zeros(1)), *bigram_history_table(vocab).positions(tokens)
        )
        assert got == pytest.approx(50.0, rel=1e-12)

    def test_deterministic_text_peaked_model(self):
        # alternating two-token text; the exact bigram MLE is a point mass,
        # realized here by a large score gap on the observed transitions
        tokens = np.array([0, 1] * 50)
        counts = np.zeros((2, 2))
        for a, b in zip(tokens[:-1], tokens[1:]):
            counts[a, b] += 1
        mle_probs = counts / counts.sum(axis=1, keepdims=True)
        assert mle_probs[0, 1] == 1.0 and mle_probs[1, 0] == 1.0
        # closed-form oracle: perplexity of the count model is exactly 1
        oracle_ppl = np.exp(
            -np.mean([np.log(mle_probs[a, b]) for a, b in zip(tokens[:-1], tokens[1:])])
        )
        assert oracle_ppl == pytest.approx(1.0, abs=0)
        gap = 40.0
        scores = np.where(mle_probs > 0, gap, 0.0)
        sf, theta = bigram_table_model([0, 1], scores)
        table = bigram_history_table(2)
        got = corpus_perplexity(log_cond_prob_table(sf, theta), *table.positions(tokens))
        assert got == pytest.approx(1.0, abs=1e-6)
        # monotone: a weaker gap gives a strictly larger perplexity
        weaker = corpus_perplexity(log_cond_prob_table(sf, theta / 2), *table.positions(tokens))
        assert weaker > got

    def test_empty_stream_rejected(self):
        with pytest.raises(ValidationError):
            bigram_history_table(2).positions(np.array([0]))

    def test_perplexity_at_least_one(self):
        prob = random_tabular_problem(3, 3, 2, seed=11)
        rng = np.random.default_rng(12)
        tokens = rng.integers(0, 3, 100)
        got = corpus_perplexity(
            log_cond_prob_table(prob.scoring, prob.theta_star),
            *bigram_history_table(3).positions(tokens),
        )
        assert got >= 1.0
