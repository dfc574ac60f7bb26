"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Every test pins its tolerance and asserts its runtime budget.
"""

import itertools
import time

import numpy as np
from scipy.special import log_softmax

from ncelab import (
    BinaryParams,
    ContextBias,
    FitConfig,
    LinearFeatures,
    NoiseDistribution,
    RegularizerConfig,
    SamplingConfig,
    binary_asymptotic_cov,
    binary_gradient,
    binary_objective,
    fisher_information,
    fit,
    generate_dataset,
    kl_divergence,
    make_self_normalized_problem,
    make_synthetic_problem,
    mle_gradient,
    mle_objective,
    population_binary_objective,
    population_ranking_objective,
    posteriors,
    random_tabular_problem,
    ranking_asymptotic_cov,
    ranking_gradient,
    ranking_objective,
    regularizer,
    replicate,
)
from ncelab.asymptotics import invert_spd


def _finish(criterion: str, detail: str, t0: float, limit: float) -> None:
    elapsed = time.time() - t0
    print(f"\n[acceptance] {criterion}: PASS ({detail}; {elapsed:.1f}s / limit {limit:.0f}s)")
    assert elapsed <= limit, f"{criterion}: runtime {elapsed:.1f}s over the {limit}s budget"


def _fail(criterion: str, exc: BaseException) -> None:
    print(f"\n[acceptance] {criterion}: FAIL ({exc})")


class TestAcceptance:
    def test_c1_counterexample_exactness(self, tmp_path):
        t0 = time.time()
        try:
            from ncelab.cli import main

            out = tmp_path / "counterexample.csv"
            assert main(["counterexample", "--out", str(out)]) == 0
            rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
            assert sorted({int(r[1]) for r in rows}) == [1, 2, 5, 10]
            worst_b = worst_r = 0.0
            for estimator, k, ratio, d_val in rows:
                ratio = float(ratio)
                if estimator == "binary":
                    worst_b = max(worst_b, abs(ratio - 3 / 7))
                else:
                    worst_r = max(worst_r, abs(ratio - 1 / 3))
            assert worst_b <= 1e-4
            assert worst_r <= 1e-4
            # the binary maximizer's conditional ratio (3/7) really is wrong:
            # the truth is 1/3
            assert abs(3 / 7 - 1 / 3) > 0.09
        except BaseException as exc:
            _fail("criterion 1 (counterexample exactness)", exc)
            raise
        _finish(
            "criterion 1 (counterexample exactness)",
            f"binary ratio off by {worst_b:.2e} from 3/7, ranking by {worst_r:.2e} from 1/3",
            t0,
            5.0,
        )

    def test_c2_posterior_identity(self):
        t0 = time.time()
        try:
            rng = np.random.default_rng(2024)
            worst = 0.0
            for trial in range(20):
                m_x = int(rng.integers(2, 11))
                m_y = int(rng.integers(2, 11))
                k = int(rng.integers(1, 5))
                while m_y ** (k + 1) > 200_000:
                    k -= 1
                d = int(rng.integers(2, 5))
                problem = random_tabular_problem(m_x, m_y, d, seed=3000 + trial)
                raw = rng.random(m_y) + 0.2
                noise = NoiseDistribution(raw / raw.sum())
                sf, theta = problem.scoring, problem.theta_star
                # vectorized exhaustive check over all (x, ybar) tuples
                shat = sf.score_table(theta) - noise.log_probs[None, :]
                ratio = problem.p_y_given_x / noise.probs[None, :]
                tuples = np.array(
                    list(itertools.product(range(m_y), repeat=k + 1)), dtype=np.int64
                )
                for x in range(m_x):
                    q = np.exp(log_softmax(shat[x][tuples], axis=1))
                    r = ratio[x][tuples]
                    beta = r / r.sum(axis=1, keepdims=True)
                    worst = max(worst, float(np.max(np.abs(q - beta))))
                # the posteriors op agrees on sampled tuples
                for _ in range(20):
                    x = int(rng.integers(m_x))
                    labels = rng.integers(0, m_y, size=k + 1)
                    table = posteriors(sf, theta, problem, noise, x, labels)
                    worst = max(worst, float(np.max(np.abs(table.q - table.beta))))
            assert worst <= 1e-12
        except BaseException as exc:
            _fail("criterion 2 (posterior identity)", exc)
            raise
        _finish(
            "criterion 2 (posterior identity)",
            f"max |q - beta| = {worst:.2e} over 20 problems, exhaustive tuples",
            t0,
            120.0,
        )

    def test_c3_gradient_suite(self):
        t0 = time.time()
        try:
            rng = np.random.default_rng(99)
            h = 1e-5
            worst = {"ranking": 0.0, "binary": 0.0, "mle": 0.0, "regularizer": 0.0}

            def fd(fn, params):
                out = np.empty_like(params)
                for i in range(params.size):
                    up, down = params.copy(), params.copy()
                    up[i] += h
                    down[i] -= h
                    out[i] = (fn(up) - fn(down)) / (2 * h)
                return out

            def rel(a, b):
                return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12))

            for trial in range(50):
                m_x = int(rng.integers(2, 5))
                m_y = int(rng.integers(2, 6))
                d = int(rng.integers(2, 7))
                k = int(rng.integers(1, 4))
                n = int(rng.integers(3, 9))
                problem = random_tabular_problem(m_x, m_y, d, seed=7000 + trial)
                sf = problem.scoring
                raw = rng.random(m_y) + 0.2
                noise = NoiseDistribution(raw / raw.sum())
                dataset = generate_dataset(
                    problem, n, SamplingConfig(k=k, seed=7100 + trial), noise
                )
                theta = rng.standard_normal(d)
                gamma = float(rng.standard_normal())

                got = ranking_gradient(sf, theta, dataset, noise)
                want = fd(lambda p: ranking_objective(sf, p, dataset, noise), theta)
                worst["ranking"] = max(worst["ranking"], rel(got, want))

                params = np.concatenate([theta, [gamma]])
                got = binary_gradient(sf, BinaryParams(theta, gamma), dataset, noise)
                want = fd(
                    lambda p: binary_objective(
                        sf, BinaryParams(p[:-1], p[-1]), dataset, noise
                    ),
                    params,
                )
                worst["binary"] = max(worst["binary"], rel(got, want))

                got = mle_gradient(sf, theta, dataset)
                want = fd(lambda p: mle_objective(sf, p, dataset), theta)
                worst["mle"] = max(worst["mle"], rel(got, want))

                cfg = RegularizerConfig(
                    alpha=float(rng.random()) + 0.1,
                    m=int(rng.integers(1, 6)),
                    seed=7200 + trial,
                )
                got = regularizer(sf, theta, dataset, noise, cfg)[1]
                want = fd(lambda p: regularizer(sf, p, dataset, noise, cfg)[0], theta)
                worst["regularizer"] = max(worst["regularizer"], rel(got, want))
            assert max(worst.values()) <= 1e-6, worst
        except BaseException as exc:
            _fail("criterion 3 (gradient suite)", exc)
            raise
        _finish(
            "criterion 3 (gradient suite)",
            "max rel err " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
            t0,
            30.0,
        )

    def test_c4_consistency_curves(self):
        t0 = time.time()
        try:
            problem = make_synthetic_problem(d=4, m_x=50, m_y=20, seed=42)
            noise = NoiseDistribution.uniform(20)
            sf = problem.scoring

            reports = []

            def ranking_kl(n, seed):
                ds = generate_dataset(problem, n, SamplingConfig(k=4, seed=seed), noise)
                rep = fit(sf, ds, noise, FitConfig(objective="ranking", tol=1e-6, max_iters=2500))
                reports.append(rep)
                return kl_divergence(problem, sf, rep.theta)

            def binary_bias_kl(n, seed):
                ds = generate_dataset(problem, n, SamplingConfig(k=4, seed=seed), noise)
                wrapped = ContextBias(sf)
                rep = fit(wrapped, ds, noise, FitConfig(objective="binary", tol=1e-6, max_iters=2500))
                reports.append(rep)
                return kl_divergence(problem, wrapped, rep.theta)

            kl_rank_small, kl_rank_big = ranking_kl(10**3, 1100), ranking_kl(10**5, 1105)
            assert kl_rank_big < 0.01
            assert kl_rank_big * 5 <= kl_rank_small
            kl_bias_small, kl_bias_big = binary_bias_kl(10**3, 1200), binary_bias_kl(10**5, 1205)
            assert kl_bias_big < 0.01
            assert kl_bias_big * 5 <= kl_bias_small

            ds = generate_dataset(problem, 10**5, SamplingConfig(k=4, seed=1300), noise)
            rep = fit(sf, ds, noise, FitConfig(objective="binary", tol=1e-6, max_iters=2500))
            kl_plateau = kl_divergence(problem, sf, rep.theta)
            assert kl_plateau > 0.05
            # the plateau is the population maximizer's, not an optimization
            # artifact: the exact population-binary fit lands at the same KL
            pop = fit(sf, problem, noise, FitConfig(objective="population-binary", k=4))
            kl_pop = kl_divergence(problem, sf, pop.theta)
            assert kl_pop > 0.05
            assert abs(kl_plateau - kl_pop) <= 0.25 * kl_pop
            reports += [rep, pop]
        except BaseException as exc:
            _fail("criterion 4 (consistency curves)", exc)
            raise
        _finish(
            "criterion 4 (consistency curves)",
            f"ranking KL {kl_rank_small:.3f}->{kl_rank_big:.5f}, "
            f"binary+bias {kl_bias_small:.3f}->{kl_bias_big:.5f}, "
            f"no-bias plateau {kl_plateau:.3f} (population {kl_pop:.3f}); "
            f"{sum(r.converged for r in reports)} of {len(reports)} fits converged, "
            f"largest |g| {max(r.grad_norm for r in reports):.1e}",
            t0,
            300.0,
        )

    def test_c5_efficiency_rates(self):
        t0 = time.time()
        try:
            problem = make_self_normalized_problem(m_x=6, m_y=4, d=3, seed=38)
            sf, theta_star = problem.scoring, problem.theta_star
            noise = NoiseDistribution.uniform(4)
            fisher_inv = invert_spd(
                fisher_information(problem, sf, theta_star), "fisher information"
            )

            binary_ks = np.array([4, 8, 16, 32, 64, 128, 256, 512])
            binary_gaps = np.array([
                np.linalg.norm(
                    binary_asymptotic_cov(problem, sf, theta_star, 0.0, noise, int(k)).inverse
                    - fisher_inv,
                    2,
                )
                for k in binary_ks
            ])
            binary_slope = np.polyfit(np.log(binary_ks), np.log(binary_gaps), 1)[0]
            assert binary_slope <= -0.9

            exact_ks = [1, 2, 3, 4, 5, 6]
            exact_gaps = [
                np.linalg.norm(
                    ranking_asymptotic_cov(problem, sf, theta_star, noise, k).inverse
                    - fisher_inv,
                    2,
                )
                for k in exact_ks
            ]
            assert all(b <= a for a, b in zip(exact_gaps, exact_gaps[1:]))

            mc_ks = [8, 16, 32, 64]
            mc_gaps = [
                np.linalg.norm(
                    ranking_asymptotic_cov(
                        problem, sf, theta_star, noise, k,
                        mode="mc", num_samples=600_000, seed=5,
                    ).inverse
                    - fisher_inv,
                    2,
                )
                for k in mc_ks
            ]
            ks = np.array([1, 2, 4] + mc_ks)
            gaps = np.array([exact_gaps[0], exact_gaps[1], exact_gaps[3]] + mc_gaps)
            ranking_slope = np.polyfit(np.log(ks), np.log(gaps), 1)[0]
            assert ranking_slope <= -0.45
        except BaseException as exc:
            _fail("criterion 5 (efficiency rates)", exc)
            raise
        _finish(
            "criterion 5 (efficiency rates)",
            f"binary slope {binary_slope:.3f} (<= -0.9), ranking exact curve "
            f"monotone, MC-extended slope {ranking_slope:.3f} (<= -0.45)",
            t0,
            180.0,
        )

    def test_c6_asymptotic_normality(self):
        t0 = time.time()
        try:
            problem = random_tabular_problem(3, 4, 2, seed=23)
            noise = NoiseDistribution.uniform(4)
            mle = replicate(
                problem, FitConfig(objective="mle", tol=1e-7), noise,
                k=4, n=20000, replications=300, seeds=1,
            )
            assert mle.rel_frobenius_error <= 0.25
            assert abs(mle.empirical_mse - mle.theoretical_mse) <= 0.2 * mle.theoretical_mse
            rank = replicate(
                problem, FitConfig(objective="ranking", tol=1e-7), noise,
                k=4, n=20000, replications=300, seeds=2,
            )
            assert rank.rel_frobenius_error <= 0.25
            assert abs(rank.empirical_mse - rank.theoretical_mse) <= 0.2 * rank.theoretical_mse
        except BaseException as exc:
            _fail("criterion 6 (asymptotic normality)", exc)
            raise
        _finish(
            "criterion 6 (asymptotic normality)",
            f"rel Frobenius: mle {mle.rel_frobenius_error:.3f}, "
            f"ranking {rank.rel_frobenius_error:.3f}; "
            f"mse ratios {mle.empirical_mse / mle.theoretical_mse:.3f}, "
            f"{rank.empirical_mse / rank.theoretical_mse:.3f}; "
            f"{mle.converged + rank.converged} of {mle.replications + rank.replications} "
            f"fits converged, largest |g| {max(mle.max_grad_norm, rank.max_grad_norm):.1e}",
            t0,
            600.0,
        )

    def test_c7_expectation_identities(self):
        t0 = time.time()
        try:
            problem = random_tabular_problem(2, 3, 3, seed=321)
            sf = problem.scoring
            noise = NoiseDistribution.uniform(3)
            rng = np.random.default_rng(8)
            theta = rng.standard_normal(sf.n_params)
            gamma = 0.4
            k = 2
            r_vals, b_vals = [], []
            for rep in range(200):
                ds = generate_dataset(
                    problem, 2000, SamplingConfig(k=k, seed=9000 + rep), noise
                )
                r_vals.append(ranking_objective(sf, theta, ds, noise))
                b_vals.append(binary_objective(sf, BinaryParams(theta, gamma), ds, noise))
            r_vals, b_vals = np.asarray(r_vals), np.asarray(b_vals)
            pop_r = population_ranking_objective(sf, theta, problem, noise, k)
            pop_b = population_binary_objective(
                sf, BinaryParams(theta, gamma), problem, noise, k
            )
            r_gap = abs(r_vals.mean() - pop_r) / (r_vals.std(ddof=1) / np.sqrt(200))
            b_gap = abs(b_vals.mean() - pop_b) / (b_vals.std(ddof=1) / np.sqrt(200))
            assert r_gap <= 4.0
            assert b_gap <= 4.0
        except BaseException as exc:
            _fail("criterion 7 (expectation identities)", exc)
            raise
        _finish(
            "criterion 7 (expectation identities)",
            f"ranking {r_gap:.2f} sigma, binary {b_gap:.2f} sigma from the exact values",
            t0,
            120.0,
        )

    def test_c8_gauge_and_shift_invariance(self):
        t0 = time.time()
        try:
            problem = random_tabular_problem(4, 5, 3, seed=654)
            sf = problem.scoring
            noise = NoiseDistribution.uniform(5)
            ds = generate_dataset(problem, 50, SamplingConfig(k=3, seed=11), noise)
            rng = np.random.default_rng(12)
            theta = rng.standard_normal(3)

            wrapped = ContextBias(sf)
            worst_rank = 0.0
            base = ranking_objective(wrapped, np.concatenate([theta, np.zeros(4)]), ds, noise)
            for _ in range(20):
                shifts = rng.standard_normal(4)
                shifted = ranking_objective(
                    wrapped, np.concatenate([theta, shifts]), ds, noise
                )
                worst_rank = max(worst_rank, abs(shifted - base))
            assert worst_rank <= 1e-12

            lifted = LinearFeatures(
                np.concatenate(
                    [np.asarray(sf.features), np.ones((sf.m_x, sf.m_y, 1))], axis=2
                )
            )
            gamma = 0.3
            base_b = binary_objective(
                lifted, BinaryParams(np.concatenate([theta, [0.0]]), gamma), ds, noise
            )
            worst_bin = 0.0
            for _ in range(20):
                c = float(rng.standard_normal())
                shifted_b = binary_objective(
                    lifted,
                    BinaryParams(np.concatenate([theta, [c]]), gamma + c),
                    ds,
                    noise,
                )
                worst_bin = max(worst_bin, abs(shifted_b - base_b))
            assert worst_bin <= 1e-12
        except BaseException as exc:
            _fail("criterion 8 (gauge/shift invariance)", exc)
            raise
        _finish(
            "criterion 8 (gauge/shift invariance)",
            f"ranking drift {worst_rank:.2e}, binary drift {worst_bin:.2e} (both <= 1e-12)",
            t0,
            60.0,
        )

    def test_c9_lm_analogue(self):
        t0 = time.time()
        try:
            # PTB-scale benchmark tables are out of reach here by design; the
            # desk-scale analogue checks the orderings the theory predicts
            from ncelab.cli import bundled_corpus_path
            from ncelab.lm import LmConfig, run_lm_experiment

            with open(bundled_corpus_path(), encoding="utf-8") as f:
                text = f.read()
            mle = run_lm_experiment(text, LmConfig(loss="mle", max_iters=300, seed=3))
            rank = run_lm_experiment(
                text, LmConfig(loss="ranking", k=100, max_iters=300, seed=3)
            )
            rel_gap = abs(rank.valid_ppl - mle.valid_ppl) / mle.valid_ppl
            assert rel_gap <= 0.05
            reg = run_lm_experiment(
                text,
                LmConfig(loss="ranking", k=100, max_iters=300, seed=3, reg_alpha=0.5),
            )
            ratio = rank.log_z_var / reg.log_z_var
            assert ratio >= 10.0
        except BaseException as exc:
            _fail("criterion 9 (LM analogue)", exc)
            raise
        _finish(
            "criterion 9 (LM analogue)",
            f"ppl mle {mle.valid_ppl:.2f} vs ranking {rank.valid_ppl:.2f} "
            f"(gap {rel_gap:.3f} <= 0.05); Var[log Z] {rank.log_z_var:.3f} -> "
            f"{reg.log_z_var:.4f} ({ratio:.0f}x >= 10x); "
            f"{sum(r.fit.converged for r in (mle, rank, reg))} of 3 fits converged, "
            + ", ".join(
                f"{name} converged={r.fit.converged} |g| {r.fit.grad_norm:.1e}"
                for name, r in (("mle", mle), ("ranking", rank), ("regularized", reg))
            ),
            t0,
            600.0,
        )
