"""Scoring functions, shifted scores, conditionals, and problem validation."""

import json

import numpy as np
import pytest

from ncelab import (
    ConditionalProblem,
    ContextBias,
    LinearFeatures,
    LinearSoftmax,
    LogBilinear,
    NoiseDistribution,
    ValidationError,
    cond_prob_table,
    counterexample_problem,
    problem_from_scores,
)
from ncelab.objectives import _shifted_table


def finite_difference_grad(fn, theta, h=1e-5):
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2 * h)
    return grad


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


class TestScore:
    def test_zero_parameters_score_zero(self):
        rng = np.random.default_rng(0)
        sf = LinearFeatures(rng.standard_normal((3, 4, 5)))
        theta = np.zeros(5)
        assert sf.score_table(theta)[1, 2] == 0.0
        assert sf.score_table(theta)[0, 0] == 0.0

    def test_counterexample_scores(self):
        p = counterexample_problem()
        scores = p.scoring.score_table(p.theta_star)
        assert scores[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert scores[1, 1] == pytest.approx(np.log(3.0))

    def test_linear_softmax_hand_dot_product(self):
        sf = LinearSoftmax(np.array([[1.0, 2.0]]), n_labels=2)
        theta = np.array([0.5, -0.25, 0.0, 0.0])  # theta_0 = (0.5, -0.25)
        assert sf.score_table(theta)[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        sf = LinearFeatures(np.zeros((2, 2, 3)))
        with pytest.raises(ValidationError):
            sf.score_table(np.zeros(4))
        with pytest.raises(ValidationError):
            sf.score_table(np.array([1.0, np.nan, 0.0]))


def one_hot(sf, x, y):
    weights = np.zeros((sf.m_x, sf.m_y))
    weights[x, y] = 1.0
    return weights


LINEAR_TABULAR = [
    lambda rng: LinearFeatures(rng.standard_normal((3, 4, 5))),
    lambda rng: LinearSoftmax(rng.standard_normal((3, 2)), 4),
    lambda rng: ContextBias(LinearSoftmax(rng.standard_normal((3, 2)), 4)),
    lambda rng: ContextBias(LinearFeatures(rng.standard_normal((3, 4, 5)))),
]
EVERY_SCORER = LINEAR_TABULAR + [
    lambda rng: LogBilinear(rng.integers(0, 4, (3, 1)), 4, 2),
    lambda rng: ContextBias(LogBilinear(rng.integers(0, 4, (3, 2)), 4, 2)),
]


class TestScoreGrad:
    def test_linear_features_gradient_is_feature_vector(self):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((3, 4, 6))
        sf = LinearFeatures(features)
        for theta in (np.zeros(6), rng.standard_normal(6)):
            np.testing.assert_array_equal(sf.grad_table(theta)[2, 3], features[2, 3])

    def test_context_bias_gradient_layout(self):
        inner = LinearFeatures(np.arange(24, dtype=float).reshape(2, 3, 4))
        sf = ContextBias(inner)
        theta = np.zeros(6)
        g = sf.grad_table(theta)[1, 0]
        np.testing.assert_array_equal(g[:4], inner.features[1, 0])
        np.testing.assert_array_equal(g[4:], [0.0, -1.0])

    @pytest.mark.parametrize("context_bias", [False, True])
    def test_log_bilinear_matches_finite_differences(self, context_bias):
        # accumulate_grad with one-hot weights is the gradient of one cell
        rng = np.random.default_rng(7)
        histories = rng.integers(0, 5, size=(4, 2))
        sf = LogBilinear(histories, vocab_size=5, dim=3)
        if context_bias:
            sf = ContextBias(sf)
        theta = 0.3 * rng.standard_normal(sf.n_params)
        for x, y in [(0, 1), (3, 4), (2, 0)]:
            fd = finite_difference_grad(lambda t: sf.score_table(t)[x, y], theta)
            assert rel_err(sf.accumulate_grad(theta, one_hot(sf, x, y)), fd) <= 1e-6

    @pytest.mark.parametrize("make", EVERY_SCORER)
    def test_every_variant_gradient_vs_finite_differences(self, make):
        rng = np.random.default_rng(11)
        sf = make(rng)
        theta = 0.5 * rng.standard_normal(sf.n_params)
        weights = rng.standard_normal((sf.m_x, sf.m_y))
        fd = finite_difference_grad(lambda t: (weights * sf.score_table(t)).sum(), theta)
        assert rel_err(sf.accumulate_grad(theta, weights), fd) <= 1e-6

    @pytest.mark.parametrize("make", LINEAR_TABULAR)
    def test_grad_table_matches_finite_differences(self, make):
        rng = np.random.default_rng(19)
        sf = make(rng)
        theta = 0.5 * rng.standard_normal(sf.n_params)
        table = sf.grad_table(theta)
        assert table.shape == (sf.m_x, sf.m_y, sf.n_params)
        for x in range(sf.m_x):
            for y in range(sf.m_y):
                fd = finite_difference_grad(lambda t: sf.score_table(t)[x, y], theta)
                assert rel_err(table[x, y], fd) <= 1e-6
                # accumulate_grad with one-hot weights gives the same cell bit for bit
                one_cell = sf.accumulate_grad(theta, one_hot(sf, x, y))
                np.testing.assert_array_equal(table[x, y], one_cell)

    def test_accumulate_grad_matches_weighted_sum(self):
        rng = np.random.default_rng(3)
        for make in LINEAR_TABULAR:
            sf = make(rng)
            theta = 0.2 * rng.standard_normal(sf.n_params)
            weights = rng.standard_normal((sf.m_x, sf.m_y))
            expected = np.einsum("xy,xyd->d", weights, sf.grad_table(theta))
            np.testing.assert_allclose(sf.accumulate_grad(theta, weights), expected, atol=1e-10)

    def test_grad_table_validates_theta(self):
        sf = ContextBias(LinearSoftmax(np.ones((2, 3)), 4))
        with pytest.raises(ValidationError):
            sf.grad_table(np.zeros(sf.n_params - 1))
        with pytest.raises(ValidationError):
            LinearFeatures(np.zeros((2, 2, 3))).grad_table(np.array([0.0, np.inf, 0.0]))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_log_bilinear_rejects_dim_below_1(self, dim):
        with pytest.raises(ValidationError, match="dim must be >= 1"):
            LogBilinear(np.zeros((2, 1), dtype=int), 3, dim)

    @pytest.mark.parametrize("make", [
        lambda: LinearFeatures(np.zeros((2, 3, 0))),
        lambda: LinearSoftmax(np.zeros((2, 0)), 3),
    ], ids=["linear-features", "linear-softmax"])
    def test_linear_scorers_reject_d_below_1(self, make):
        with pytest.raises(ValidationError, match="d must be >= 1"):
            make()

    def test_log_bilinear_has_no_grad_table(self):
        sf = LogBilinear(np.zeros((2, 1), dtype=int), 3, 2)
        with pytest.raises(NotImplementedError):
            sf.grad_table(np.zeros(sf.n_params))


class TestShiftedScore:
    def test_uniform_noise_zero_score(self):
        sf = LinearFeatures(np.zeros((1, 4, 2)))
        noise = NoiseDistribution.uniform(4)
        np.testing.assert_allclose(_shifted_table(sf, np.zeros(2), noise), np.log(4.0))

    def test_hand_arithmetic(self):
        features = np.zeros((1, 4, 1))
        features[0, 2, 0] = 1.0
        sf = LinearFeatures(features)
        noise = NoiseDistribution.uniform(4)
        got = _shifted_table(sf, np.array([1.0]), noise)[0, 2]
        assert got == pytest.approx(1.0 + np.log(4.0))
        assert got == pytest.approx(2.3862943611, abs=1e-9)

    def test_embedding_scores_with_noise_offset_shift_back_to_dot_product(self):
        # s = v'_y . v_x + log p_N(y)  =>  shifted score is the raw dot product
        rng = np.random.default_rng(5)
        v_in = rng.standard_normal((3, 4))
        v_out = rng.standard_normal((5, 4))
        noise = NoiseDistribution(np.asarray([0.4, 0.3, 0.1, 0.1, 0.1]))
        dots = v_in @ v_out.T
        features = (dots + noise.log_probs[None, :])[:, :, None]
        sf = LinearFeatures(features)
        np.testing.assert_allclose(_shifted_table(sf, np.array([1.0]), noise), dots, atol=1e-12)


class TestCondProb:
    def test_equal_scores_give_uniform(self):
        sf = LinearFeatures(np.zeros((2, 7, 1)))
        np.testing.assert_allclose(
            cond_prob_table(sf, np.zeros(1))[1], np.full(7, 1 / 7), atol=1e-15
        )

    def test_counterexample_conditionals(self):
        p = counterexample_problem()
        np.testing.assert_allclose(
            cond_prob_table(p.scoring, p.theta_star)[0], [0.25, 0.75], atol=1e-12
        )

    def test_invariance_to_per_context_shift(self):
        rng = np.random.default_rng(13)
        features = rng.standard_normal((4, 5, 3))
        theta = rng.standard_normal(3)
        shifts = rng.standard_normal(4)
        shifted = features.copy()
        # add c(x) to every score at context x via an extra feature direction
        sf_base = LinearFeatures(features)
        base = cond_prob_table(sf_base, theta)
        sf_shift = ContextBias(sf_base)
        shifted_theta = np.concatenate([theta, shifts])
        np.testing.assert_allclose(
            cond_prob_table(sf_shift, shifted_theta), base, atol=1e-12
        )

    def test_rows_normalize(self):
        rng = np.random.default_rng(17)
        sf = LinearSoftmax(rng.standard_normal((6, 3)), 5)
        table = cond_prob_table(sf, rng.standard_normal(15))
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(table > 0)


class TestConditionalProblem:
    def test_self_normalized_construction(self):
        from ncelab import make_self_normalized_problem

        p = make_self_normalized_problem(5, 4, 3, seed=21)
        table = p.scoring.score_table(p.theta_star)
        norms = np.exp(table - p.gamma_star).sum(axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_degenerate_label_space_rejected(self):
        with pytest.raises(ValidationError, match="at least 2 labels"):
            ConditionalProblem(p_x=np.array([1.0]), p_y_given_x=np.ones((1, 1)))

    def test_empty_input_space_rejected(self):
        with pytest.raises(ValidationError, match="at least 1 input"):
            ConditionalProblem(p_x=np.array([1.0]), p_y_given_x=np.full((0, 2), 0.5))

    def test_sizes_come_from_the_table(self):
        p = ConditionalProblem(p_x=np.full(3, 1 / 3), p_y_given_x=np.full((3, 4), 0.25))
        assert (p.m_x, p.m_y) == (3, 4)
        with pytest.raises(ValidationError, match="p_x: length 2"):
            ConditionalProblem(p_x=np.full(2, 0.5), p_y_given_x=np.full((3, 4), 0.25))

    def test_row_sum_validation(self):
        bad = np.array([[0.6, 0.3], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="row 0"):
            ConditionalProblem(
                p_x=np.array([0.5, 0.5]),
                p_y_given_x=bad,
            )

    def test_positivity_validation(self):
        with pytest.raises(ValidationError, match="p_x"):
            ConditionalProblem(
                p_x=np.array([1.0, 0.0]),
                p_y_given_x=np.full((2, 2), 0.5),
            )

    def test_gamma_star_must_self_normalize(self):
        rng = np.random.default_rng(23)
        sf = LinearFeatures(rng.standard_normal((3, 4, 2)))
        theta = rng.standard_normal(2)
        with pytest.raises(ValidationError, match="gamma_star"):
            problem_from_scores(sf, theta, np.full(3, 1 / 3), gamma_star=0.0)

    def test_nan_gamma_star_is_rejected(self):
        # a NaN deviation compares false against the tolerance; it must still fail
        p = counterexample_problem()
        with pytest.raises(ValidationError, match="gamma_star"):
            ConditionalProblem(p.p_x, p.p_y_given_x, p.scoring, p.theta_star, float("nan"))

    def test_check_bounds_accepts_only_the_problems_table(self):
        p = counterexample_problem()
        p.check_bounds(2, 2)
        for shape in ((1, 2), (3, 2), (2, 3)):
            with pytest.raises(ValidationError, match="does not match problem \\(2, 2\\)"):
                p.check_bounds(*shape)
        with pytest.raises(ValidationError, match="does not match"):
            ConditionalProblem(p.p_x, p.p_y_given_x, LinearFeatures(np.zeros((2, 3, 1))),
                               np.zeros(1))

    def test_digest_covers_both_tables(self):
        p = counterexample_problem()
        assert p.digest() == "e4ba35ab5ece8179"
        flat = ConditionalProblem(p.p_x, np.full((2, 2), 0.5))
        skewed = ConditionalProblem(np.array([0.25, 0.75]), p.p_y_given_x)
        assert len({p.digest(), flat.digest(), skewed.digest()}) == 3

    def test_json_round_trip(self, tmp_path):
        p = counterexample_problem()
        path = tmp_path / "problem.json"
        p.save(str(path))
        q = ConditionalProblem.load(str(path))
        np.testing.assert_allclose(q.p_y_given_x, p.p_y_given_x, atol=0)
        np.testing.assert_allclose(q.theta_star, p.theta_star, atol=0)
        np.testing.assert_allclose(
            q.scoring.score_table(q.theta_star), p.scoring.score_table(p.theta_star)
        )

    def test_json_field_errors_are_specific(self, tmp_path):
        p = counterexample_problem()
        obj = p.to_json_dict()
        del obj["p_x"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="p_x"):
            ConditionalProblem.load(str(path))
        obj = p.to_json_dict()
        obj["features"] = obj["features"][:-1]
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="features"):
            ConditionalProblem.load(str(path))
