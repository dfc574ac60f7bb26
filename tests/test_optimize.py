"""Fit loop behavior: recovery, determinism, restarts, failure modes."""

import gc
import weakref

import numpy as np
import pytest

from ncelab import (
    ContextBias,
    Dataset,
    FitConfig,
    InitializationError,
    LinearFeatures,
    LogBilinear,
    NoiseDistribution,
    RegularizerConfig,
    SamplingConfig,
    ValidationError,
    cond_prob_table,
    counterexample_problem,
    fit,
    generate_dataset,
    make_synthetic_problem,
    random_tabular_problem,
    sample_negatives,
)
from ncelab import lm, objectives, optimize


class TestCounterexampleFits:
    def test_population_binary_lands_on_the_wrong_ray(self):
        p = counterexample_problem()
        noise = NoiseDistribution.uniform(2)
        report = fit(p.scoring, p, noise, FitConfig(objective="population-binary", k=1))
        ratio = np.exp(report.theta[0] - report.theta[1])
        assert ratio == pytest.approx(3 / 7, abs=1e-4)
        assert report.converged

    def test_population_ranking_recovers_truth(self):
        p = counterexample_problem()
        noise = NoiseDistribution.uniform(2)
        report = fit(p.scoring, p, noise, FitConfig(objective="population-ranking", k=1))
        cond = cond_prob_table(p.scoring, report.theta)[0]
        assert cond[0] / cond[1] == pytest.approx(1 / 3, abs=1e-4)

    def test_mle_recovers_parameters(self):
        # grid search confirms the maximizer location on a 2-parameter instance
        problem = random_tabular_problem(2, 2, 2, seed=3)
        sf, theta_star = problem.scoring, problem.theta_star
        noise = NoiseDistribution.uniform(2)
        ds = generate_dataset(problem, 10**5, SamplingConfig(k=1, seed=4), noise)
        report = fit(sf, ds, None, FitConfig(objective="mle"))
        assert np.max(np.abs(report.theta - theta_star)) <= 0.05

        from ncelab.objectives import mle_objective

        grid = np.linspace(-1.5, 1.5, 41)
        best, best_val = None, -np.inf
        for a in grid:
            for b in grid:
                val = mle_objective(sf, np.array([a, b]), ds)
                if val > best_val:
                    best, best_val = np.array([a, b]), val
        assert report.final_objective >= best_val - 1e-9
        assert np.max(np.abs(report.theta - best)) <= (grid[1] - grid[0])


class TestFitConfig:
    @pytest.mark.parametrize("l2", [-1e-3, np.nan, np.inf])
    def test_l2_must_be_finite_and_nonnegative(self, l2):
        with pytest.raises(ValidationError, match="l2"):
            FitConfig(objective="mle", l2=l2)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_tol_must_be_finite(self, tol):
        # no |g| is <= nan, so such a fit could never converge
        with pytest.raises(ValidationError, match="tol"):
            FitConfig(objective="mle", tol=tol)

    @pytest.mark.parametrize("alpha", [-0.5, np.nan, np.inf])
    def test_regularizer_alpha_must_be_finite_and_nonnegative(self, alpha):
        with pytest.raises(ValidationError, match="alpha"):
            RegularizerConfig(alpha=alpha, m=3)

    def test_digest_leaves_out_a_zero_penalty(self):
        # the value before l2 existed: no tabular report's bytes move
        assert FitConfig(objective="ranking").digest() == "0be03e47a2123df8"
        assert FitConfig(objective="ranking", l2=1e-3).digest() != "0be03e47a2123df8"


class TestFitMechanics:
    def test_trace_is_nondecreasing(self):
        p = counterexample_problem()
        noise = NoiseDistribution.uniform(2)
        report = fit(p.scoring, p, noise, FitConfig(objective="population-ranking", k=2))
        values = [v for _, v in report.trace]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)

    def test_bit_identical_reports(self):
        problem = random_tabular_problem(3, 4, 3, seed=5)
        noise = NoiseDistribution.uniform(4)
        ds = generate_dataset(problem, 500, SamplingConfig(k=2, seed=6), noise)
        cfg = FitConfig(objective="ranking", init="gaussian", seed=9)
        a = fit(problem.scoring, ds, noise, cfg)
        b = fit(problem.scoring, ds, noise, cfg)
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a.final_objective == b.final_objective
        assert a.trace == b.trace
        assert a.config_digest == b.config_digest

    @pytest.mark.parametrize("y", [[-1.0, 0.0], [0.0, 0.0]], ids=["downhill", "nan-slope"])
    def test_search_direction_clears_memory_unless_uphill(self, y):
        # s.y < 0 turns the two-loop direction downhill; y = 0 scales it by 0/0
        grad = np.array([3.0, 4.0])
        pairs = [(np.array([1.0, 0.0]), np.array(y), -1.0)]
        with np.errstate(invalid="ignore"):
            direction, slope = optimize._search_direction(grad, 5.0, pairs)
        assert direction is grad and slope == 25.0 and pairs == []

    def test_converged_implies_grad_below_tol(self):
        p = counterexample_problem()
        noise = NoiseDistribution.uniform(2)
        cfg = FitConfig(objective="population-binary", k=1, tol=1e-7)
        report = fit(p.scoring, p, noise, cfg)
        assert report.converged and report.grad_norm <= 1e-7

    def test_gamma_stays_clamped(self, monkeypatch):
        monkeypatch.setattr(optimize, "_GAMMA_RANGE", (-0.05, 0.05))
        problem = random_tabular_problem(2, 3, 2, seed=7)
        noise = NoiseDistribution.uniform(3)
        ds = generate_dataset(problem, 200, SamplingConfig(k=1, seed=8), noise)
        cfg = FitConfig(objective="binary", max_iters=200)
        report = fit(problem.scoring, ds, noise, cfg)
        assert -0.05 <= report.gamma <= 0.05

    def test_non_finite_at_init_raises(self):
        # an infinite feature times the zeros init is a NaN score
        sf = LinearFeatures(np.array([[[np.inf], [1.0]]]))
        from ncelab import Dataset

        ds = Dataset(x=[0], y=[0], negatives=[[1]], provenance={})
        with pytest.raises(InitializationError):
            fit(sf, ds, None, FitConfig(objective="mle"))

    @pytest.mark.parametrize(
        "objective, tol, max_iters", [("ranking", 1e-7, 60), ("population-binary", 1e-300, 10**6)]
    )
    def test_n_evaluations_counts_every_value_grad_call(
        self, monkeypatch, objective, tol, max_iters
    ):
        calls = []
        make = optimize.value_grad_fn

        def counting_make(*args):
            value_grad = make(*args)

            def counted(params):
                calls.append(params)
                return value_grad(params)

            return counted

        monkeypatch.setattr(optimize, "value_grad_fn", counting_make)
        if objective == "ranking":
            p = random_tabular_problem(3, 4, 3, seed=5)
            noise = NoiseDistribution.uniform(4)
            data = generate_dataset(p, 500, SamplingConfig(k=2, seed=6), noise)
        else:
            p = data = counterexample_problem()
            noise = NoiseDistribution.uniform(2)
        cfg = FitConfig(
            objective=objective, k=2, tol=tol, max_iters=max_iters, init="gaussian", seed=9
        )
        report = fit(p.scoring, data, noise, cfg)
        # the initial point, every accepted step and every rejected trial
        assert report.n_evaluations == len(calls) > report.iterations + 1
        assert report.to_json_dict()["n_evaluations"] == len(calls)

    def test_stall_reports_diagnostics(self):
        # a tolerance below the float-noise floor cannot be met; the line
        # search must give up loudly instead of looping
        p = counterexample_problem()
        noise = NoiseDistribution.uniform(2)
        cfg = FitConfig(objective="population-binary", k=1, tol=1e-300, max_iters=10**6)
        report = fit(p.scoring, p, noise, cfg)
        assert report.stalled and not report.converged
        assert "stalled" in report.message and "grad_norm" in report.message

    def test_incompatible_data_rejected(self):
        p = counterexample_problem()
        noise = NoiseDistribution.uniform(2)
        with pytest.raises(ValidationError):
            fit(p.scoring, p, noise, FitConfig(objective="ranking"))
        ds = generate_dataset(p, 10, SamplingConfig(k=1, seed=0), noise)
        with pytest.raises(ValidationError):
            fit(p.scoring, ds, noise, FitConfig(objective="population-ranking"))

    @pytest.mark.parametrize("objective", ["population-ranking", "population-binary"])
    @pytest.mark.parametrize("m_x", [1, 4])
    def test_population_fit_rejects_a_scorer_of_the_wrong_shape(self, objective, m_x):
        p = random_tabular_problem(2, 3, 2, seed=0)
        sf = LinearFeatures(np.ones((m_x, 3, 2)))
        with pytest.raises(ValidationError, match="does not match problem \\(2, 3\\)"):
            fit(sf, p, NoiseDistribution.uniform(3), FitConfig(objective=objective, k=2))

    def test_data_digest_names_the_data(self):
        p = counterexample_problem()
        noise = NoiseDistribution.uniform(2)
        report = fit(p.scoring, p, noise, FitConfig(objective="population-ranking", k=1))
        assert report.data_digest == p.digest()
        ds = generate_dataset(p, 10, SamplingConfig(k=1, seed=0), noise)
        assert fit(p.scoring, ds, noise, FitConfig(objective="mle")).data_digest == ds.digest()


class TestRestarts:
    @pytest.mark.parametrize("objective", ["ranking", "mle", "binary"])
    def test_convex_objective_restarts_agree(self, objective):
        problem = random_tabular_problem(2, 3, 3, seed=13)
        noise = NoiseDistribution.uniform(3)
        ds = generate_dataset(problem, 400, SamplingConfig(k=2, seed=14), noise)
        cfg = FitConfig(objective=objective, tol=1e-10)
        values = [
            fit(
                problem.scoring,
                ds,
                noise,
                cfg if r == 0 else FitConfig(objective=objective, tol=1e-10, init="gaussian", seed=r),
            ).final_objective
            for r in range(4)
        ]
        assert max(values) - min(values) <= 1e-6


class TestConsistencyFits:
    """The 50x20 softmax problem of acceptance criterion c4, K=4, uniform noise."""

    @pytest.fixture(scope="class")
    def problem(self):
        return make_synthetic_problem(d=4, m_x=50, m_y=20, seed=42)

    def test_small_ranking_fit_converges(self, problem):
        noise = NoiseDistribution.uniform(20)
        ds = generate_dataset(problem, 5000, SamplingConfig(k=4, seed=2), noise)
        cfg = FitConfig(objective="ranking", tol=1e-6, max_iters=2500)
        report = fit(problem.scoring, ds, noise, cfg)
        assert report.converged and report.grad_norm <= 1e-6

    def test_context_bias_binary_fit_converges_with_gamma_pinned(self, problem):
        # gamma and the mean of the c_x enter the logit only as a sum, so the
        # fit pins gamma at 0 and converges along the other coordinates
        noise = NoiseDistribution.uniform(20)
        ds = generate_dataset(problem, 5000, SamplingConfig(k=4, seed=1205), noise)
        linear = FitConfig(objective="binary", tol=1e-6, max_iters=2500)
        # the LM's scorer, start and penalty, each context a one-word history
        log_bilinear = FitConfig(
            objective="binary", tol=1e-6, max_iters=2500, init="gaussian", seed=3, l2=lm._L2
        )
        for sf, cfg in [
            (problem.scoring, linear),
            (LogBilinear(np.arange(50)[:, None] % 20, 20, 4), log_bilinear),
        ]:
            report = fit(ContextBias(sf), ds, noise, cfg)
            assert report.converged and report.iterations < 2500
            assert report.gamma == 0.0


class TestGaugeNeutrality:
    def test_context_bias_fits_agree_on_conditionals(self):
        # ranking only identifies scores up to a per-context shift; different
        # restarts may land on different bias values but must agree on p(y|x)
        problem = random_tabular_problem(3, 3, 2, seed=19)
        sf = ContextBias(problem.scoring)
        noise = NoiseDistribution.uniform(3)
        ds = generate_dataset(problem, 2000, SamplingConfig(k=2, seed=20), noise)
        cfg = FitConfig(objective="ranking", tol=1e-9, max_iters=20000)
        tables, biases = [], []
        for r in range(3):
            run_cfg = cfg if r == 0 else FitConfig(
                objective="ranking", tol=1e-9, max_iters=20000, init="gaussian", seed=25 + r
            )
            report = fit(sf, ds, noise, run_cfg)
            tables.append(cond_prob_table(sf, report.theta))
            biases.append(report.theta[problem.scoring.n_params :])
        assert np.max(np.abs(tables[0] - tables[1])) <= 1e-6
        assert np.max(np.abs(tables[0] - tables[2])) <= 1e-6
        assert not np.allclose(biases[0], biases[1], atol=1e-3)


class TestWorkspace:
    @pytest.mark.parametrize(
        "objective, alpha, builds",
        [("ranking", 0.0, 1), ("ranking", 0.5, 2), ("mle", 0.5, 1), ("binary", 0.0, 0)],
    )
    def test_one_build_per_index_per_fit(self, monkeypatch, objective, alpha, builds):
        built = []

        class Spy(objectives.Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(weakref.ref(self))

        monkeypatch.setattr(objectives, "Workspace", Spy)
        p = random_tabular_problem(3, 4, 3, seed=5)
        noise = NoiseDistribution.uniform(4)
        data = generate_dataset(p, 300, SamplingConfig(k=2, seed=6), noise)
        # a tolerance below the float-noise floor runs each fit into the
        # line-search stall, so it makes well over 20 evaluations
        cfg = FitConfig(
            objective=objective, max_iters=20, tol=1e-300, init="gaussian", seed=9,
            reg=RegularizerConfig(alpha=alpha, m=3, seed=1),
        )
        report = fit(p.scoring, data, noise, cfg)
        assert report.n_evaluations > 20 and len(built) == builds
        # nothing outlives the fit: no module- or Dataset-level cache
        gc.collect()
        assert all(ref() is None for ref in built)


def _fit_value_grad(sf, data, noise, cfg):
    """The closure that ``fit`` evaluates for cfg: its penalty draws, then ``value_grad_fn``."""
    alpha = cfg.reg.alpha if cfg.reg is not None else 0.0
    draws = objectives.regularizer_draws(data, noise, cfg.reg) if alpha > 0 else None
    return objectives.value_grad_fn(sf, data, noise, cfg.objective, cfg.k, draws, alpha, cfg.l2)


def _assert_central_differences(sf, data, noise, cfg, params, h=1e-6):
    """The fit's gradient at params, checked against central differences of its value."""
    value_grad = _fit_value_grad(sf, data, noise, cfg)
    grad = value_grad(params)[1]
    numeric = [
        (value_grad(params + h * e)[0] - value_grad(params - h * e)[0]) / (2 * h)
        for e in np.eye(params.size)
    ]
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)
    return grad


class TestDatasetObjectives:
    @pytest.mark.parametrize("objective", ["ranking", "binary", "mle"])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_out_of_range_x_is_a_validation_error(self, objective, alpha):
        # the bounds check runs before the regularizer's workspace is built
        p = random_tabular_problem(3, 4, 2, seed=5)
        data = Dataset(x=[0, 3], y=[1, 2], negatives=[[0, 1], [2, 3]], provenance={})
        cfg = FitConfig(objective=objective, k=2, reg=RegularizerConfig(alpha=alpha, m=2))
        with pytest.raises(ValidationError, match="x index out of range"):
            fit(p.scoring, data, NoiseDistribution.uniform(4), cfg)

    def test_penalty_without_noise_is_a_validation_error(self):
        p = random_tabular_problem(3, 4, 2, seed=5)
        data = generate_dataset(p, 50, SamplingConfig(k=2, seed=6), NoiseDistribution.uniform(4))
        cfg = FitConfig(objective="mle", k=2, reg=RegularizerConfig(alpha=0.5, m=2))
        with pytest.raises(ValidationError, match="needs a noise distribution"):
            fit(p.scoring, data, None, cfg)

    @pytest.mark.parametrize("objective", ["population-ranking", "population-binary"])
    def test_penalty_on_a_population_objective_is_a_validation_error(self, objective):
        p = counterexample_problem()
        cfg = FitConfig(objective=objective, k=2, reg=RegularizerConfig(alpha=0.5, m=2))
        with pytest.raises(ValidationError, match="needs a Dataset objective"):
            fit(p.scoring, p, NoiseDistribution.uniform(2), cfg)

    @pytest.mark.parametrize("objective", ["mle", "binary"])
    def test_regularized_binary_gradient_matches_central_differences(self, objective):
        p = random_tabular_problem(3, 4, 2, seed=11)
        noise = NoiseDistribution.uniform(4)
        data = generate_dataset(p, 300, SamplingConfig(k=2, seed=3), noise)
        reg = RegularizerConfig(alpha=0.5, m=3, seed=2)
        has_gamma = objective == "binary"
        params = np.array([0.3, -0.2, 0.4][: 3 if has_gamma else 2])
        plain = _fit_value_grad(
            p.scoring, data, noise, FitConfig(objective=objective, k=2)
        )(params)[1]
        n = p.scoring.n_params
        for l2 in (0.0, 0.2):
            cfg = FitConfig(objective=objective, k=2, reg=reg, l2=l2)
            grad = _assert_central_differences(p.scoring, data, noise, cfg, params)
            assert not np.allclose(grad[:n], plain[:n])
            if has_gamma:
                # neither penalty depends on gamma
                assert grad[-1] == plain[-1]

    @pytest.mark.parametrize("objective", ["mle", "binary", "ranking"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_one_score_table_and_one_accumulate_grad_per_evaluation(
        self, monkeypatch, objective, alpha
    ):
        p = random_tabular_problem(3, 4, 2, seed=11)
        noise = NoiseDistribution.uniform(4)
        data = generate_dataset(p, 300, SamplingConfig(k=2, seed=3), noise)
        sf, calls = p.scoring, []
        for name in ("score_table", "accumulate_grad"):
            method = getattr(sf, name)
            monkeypatch.setattr(
                sf, name, lambda *args, _m=method, _n=name: calls.append(_n) or _m(*args)
            )
        cfg = FitConfig(
            objective=objective, k=2, max_iters=10, reg=RegularizerConfig(alpha=alpha, m=3, seed=2)
        )
        report = fit(sf, data, noise, cfg)
        assert calls.count("score_table") == calls.count("accumulate_grad") == report.n_evaluations

    def test_penalized_log_bilinear_gradient_matches_central_differences(self):
        sf = LogBilinear(np.array([[0], [2], [3]]), 4, 2)
        noise = NoiseDistribution.uniform(4)
        negatives = sample_negatives(SamplingConfig(k=3, seed=4), noise, 5)
        data = Dataset(x=[0, 1, 2, 2, 1], y=[1, 3, 0, 2, 2], negatives=negatives, provenance={})
        params = 0.5 * np.random.default_rng(7).standard_normal(sf.n_params)
        # the LM's regularized ranking fit: one kernel for both softmaxes, then the penalty
        reg = RegularizerConfig(alpha=0.5, m=2, seed=1)
        plain = _fit_value_grad(
            sf, data, noise, FitConfig(objective="ranking", k=3, reg=reg)
        )
        cfg = FitConfig(objective="ranking", k=3, reg=reg, l2=0.2)
        grad = _assert_central_differences(sf, data, noise, cfg, params)
        np.testing.assert_allclose(grad, plain(params)[1] - 0.2 * params, rtol=1e-12, atol=1e-15)

    def test_callback_sees_theta_without_gamma(self):
        p = random_tabular_problem(3, 4, 2, seed=5)
        noise = NoiseDistribution.uniform(4)
        data = generate_dataset(p, 200, SamplingConfig(k=2, seed=6), noise)
        seen = []
        report = fit(
            p.scoring, data, noise, FitConfig(objective="binary", k=2, max_iters=5),
            callback=lambda iteration, theta: seen.append(theta.copy()),
        )
        assert [t.shape for t in seen] == [(2,)] * 5
        np.testing.assert_array_equal(seen[-1], report.theta)
