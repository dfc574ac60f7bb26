"""Noise distributions, negative sampling, and synthetic generators."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ncelab import (
    ConditionalProblem,
    NoiseDistribution,
    SamplingConfig,
    ValidationError,
    counterexample_problem,
    derive_rng,
    generate_dataset,
    make_self_normalized_problem,
    make_synthetic_problem,
    noise_from_spec,
    random_tabular_problem,
    sample_negatives,
)
from ncelab import sampling
from ncelab.sampling import load_dataset_jsonl, noise_power, save_dataset_jsonl


class TestNoiseDistribution:
    def test_rejects_zero_mass(self):
        with pytest.raises(ValidationError):
            NoiseDistribution(np.array([1.0, 0.0]))

    def test_rejects_nan_mass(self):
        # NaN compares false both ways, so a "<= 0" test alone lets it through
        with pytest.raises(ValidationError, match="positive mass"):
            NoiseDistribution(np.array([np.nan, np.nan]))

    @pytest.mark.parametrize(
        "spec", ["unigram-pow:-1", "unigram-pow:nan", "unigram-pow:inf", "unigram-pow:x", "zipf"]
    )
    def test_noise_power_rejects_bad_specs(self, spec):
        with pytest.raises(ValidationError, match=f"noise spec '{spec}'"):
            noise_power(spec)

    def test_noise_power_of_good_specs(self):
        assert noise_power("uniform") is None
        assert noise_power("unigram") == 1.0
        assert noise_power("unigram-pow:0") == 0.0
        assert noise_power("unigram-pow:0.75") == 0.75

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            NoiseDistribution(np.array([0.5, 0.5001]))

    def test_unigram_power_simple_ratio(self):
        nd = noise_from_spec("unigram", [3.0, 1.0])
        np.testing.assert_allclose(nd.probs, [0.75, 0.25], atol=1e-15)

    def test_unigram_power_zero_is_uniform(self):
        nd = noise_from_spec("unigram-pow:0", [17.0, 5.0, 2.0, 900.0])
        np.testing.assert_allclose(nd.probs, 0.25, atol=1e-15)

    def test_unigram_three_quarters(self):
        nd = noise_from_spec("unigram-pow:0.75", [8.0, 1.0])
        np.testing.assert_allclose(nd.probs, [0.8263, 0.1737], atol=1e-4)

    def test_uniform_spec_ignores_the_masses(self):
        nd = noise_from_spec("uniform", [0.9, 0.05, 0.05])
        np.testing.assert_array_equal(nd.probs, NoiseDistribution.uniform(3).probs)

    def test_unigram_of_a_problem_is_its_label_marginal(self):
        prob = make_synthetic_problem(2, 5, 3, seed=4)
        nd = noise_from_spec("unigram", prob.p_y)
        np.testing.assert_allclose(nd.probs, prob.p_xy.sum(axis=0), rtol=1e-13)


class TestSampleNegatives:
    def test_near_point_mass(self):
        eps = 1e-9
        nd = NoiseDistribution(np.array([1 - 3 * eps, eps, eps, eps]))
        negs = sample_negatives(SamplingConfig(k=4, seed=1), nd, n=10)
        assert np.count_nonzero(negs) == 0

    def test_uniform_frequencies_within_three_sigma(self):
        nd = NoiseDistribution.uniform(4)
        negs = sample_negatives(SamplingConfig(k=4, seed=2), nd, n=10000)
        sigma = np.sqrt(0.25 * 0.75 / 40000)
        for label in range(4):
            freq = np.mean(negs == label)
            assert abs(freq - 0.25) <= 3 * sigma

    def test_same_seed_bit_identical(self):
        nd = NoiseDistribution(np.array([0.7, 0.2, 0.1]))
        cfg = SamplingConfig(k=3, seed=42, stream=5)
        a = sample_negatives(cfg, nd, n=100)
        b = sample_negatives(cfg, nd, n=100)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        nd = NoiseDistribution.uniform(16)
        a = sample_negatives(SamplingConfig(k=2, seed=42, stream=0), nd, n=200)
        b = sample_negatives(SamplingConfig(k=2, seed=42, stream=1), nd, n=200)
        assert np.any(a != b)

    def test_chi_square_goodness_of_fit(self):
        rng = np.random.default_rng(77)
        raw = rng.random(16) + 0.1
        nd = NoiseDistribution(raw / raw.sum())
        negs = sample_negatives(SamplingConfig(k=1, seed=3), nd, n=20000)
        observed = np.bincount(negs.ravel(), minlength=16)
        _, pvalue = stats.chisquare(observed, nd.probs * negs.size)
        assert pvalue > 1e-3


class TestSyntheticProblem:
    def test_default_protocol_dimensions(self):
        p = make_synthetic_problem(d=4, m_x=200, m_y=100, seed=0)
        assert (p.m_x, p.m_y) == (200, 100)
        assert p.scoring.n_params == 400
        assert p.scoring.inputs.shape == (200, 4)
        np.testing.assert_allclose(p.p_x, 1 / 200, atol=1e-15)

    def test_deterministic_in_seed(self):
        a = make_synthetic_problem(d=2, m_x=4, m_y=3, seed=7)
        b = make_synthetic_problem(d=2, m_x=4, m_y=3, seed=7)
        np.testing.assert_array_equal(a.p_y_given_x, b.p_y_given_x)
        np.testing.assert_array_equal(a.theta_star, b.theta_star)

    def test_self_normalized_generator(self):
        p = make_self_normalized_problem(6, 4, 3, seed=5)
        assert p.gamma_star == 0.0
        table = p.scoring.score_table(p.theta_star)
        np.testing.assert_allclose(np.exp(table).sum(axis=1), 1.0, atol=1e-10)


class TestGenerateDataset:
    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_1_is_a_validation_error(self, n):
        # an empty draw is a Dataset that every fit's bounds check rejects
        p = counterexample_problem()
        nd = NoiseDistribution.uniform(2)
        with pytest.raises(ValidationError, match="n must be >= 1"):
            generate_dataset(p, n, SamplingConfig(k=3, seed=0), nd)

    def test_point_mass_rows_determine_labels(self):
        from ncelab import ConditionalProblem

        eps = 1e-13
        rows = np.array([[1 - eps, eps], [eps, 1 - eps]])
        p = ConditionalProblem(
            p_x=np.array([0.5, 0.5]),
            p_y_given_x=rows / rows.sum(axis=1, keepdims=True),
        )
        ds = generate_dataset(p, 2000, SamplingConfig(k=1, seed=4), NoiseDistribution.uniform(2))
        np.testing.assert_array_equal(ds.y, ds.x)

    def test_empirical_joint_within_three_sigma(self):
        p = counterexample_problem()
        n = 50000
        ds = generate_dataset(p, n, SamplingConfig(k=1, seed=5), NoiseDistribution.uniform(2))
        for x in range(2):
            for y in range(2):
                target = p.p_xy[x, y]
                freq = np.mean((ds.x == x) & (ds.y == y))
                sigma = np.sqrt(target * (1 - target) / n)
                assert abs(freq - target) <= 3 * sigma

    @settings(max_examples=60, deadline=None)
    @given(
        m_x=st.integers(1, 6), m_y=st.integers(2, 7), seed=st.integers(0, 2**31),
        tiny=st.booleans(),
    )
    def test_labels_match_the_mask_count_reference(self, m_x, m_y, seed, tiny):
        # y is the number of cumulative masses of its context at or below u
        rng = np.random.default_rng(seed)
        rows = rng.random((m_x, m_y)) + 0.01
        if tiny:
            rows[:, rng.integers(m_y)] = 1e-300
        p = ConditionalProblem(
            p_x=np.full(m_x, 1.0 / m_x), p_y_given_x=rows / rows.sum(axis=1, keepdims=True)
        )
        ds = generate_dataset(p, 400, SamplingConfig(k=1, seed=seed), NoiseDistribution.uniform(m_y))
        cum = np.cumsum(p.p_y_given_x, axis=1)
        cum[:, -1] = 1.0
        u = derive_rng(seed, 0, 1).random(400)
        np.testing.assert_array_equal(ds.y, (u[:, None] >= cum[ds.x]).sum(axis=1))

    @pytest.mark.parametrize("seed, key", [(-1, ()), (3, (0, -2))])
    def test_negative_seed_or_key_is_a_validation_error(self, seed, key):
        with pytest.raises(ValidationError, match="must be nonnegative"):
            derive_rng(seed, *key)

    def test_deterministic(self):
        p = counterexample_problem()
        nd = NoiseDistribution.uniform(2)
        a = generate_dataset(p, 100, SamplingConfig(k=2, seed=6), nd)
        b = generate_dataset(p, 100, SamplingConfig(k=2, seed=6), nd)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.negatives, b.negatives)


class TestCounterexampleProblem:
    def test_partition_values(self):
        p = counterexample_problem()
        z = np.exp(p.scoring.score_table(p.theta_star)).sum(axis=1)
        np.testing.assert_allclose(z, [4.0, 6.0], rtol=1e-12)

    def test_joint_table(self):
        p = counterexample_problem()
        np.testing.assert_allclose(
            p.p_xy, [[1 / 8, 3 / 8], [1 / 4, 1 / 4]], atol=1e-15
        )

    def test_true_conditional_ratio(self):
        p = counterexample_problem()
        ratio = p.p_y_given_x[0, 0] / p.p_y_given_x[0, 1]
        assert ratio == pytest.approx(1 / 3, rel=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("make_problem, n, k", [
        pytest.param(counterexample_problem, 50, 3, id="k3"),
        pytest.param(counterexample_problem, 40, 1, id="k1"),
        pytest.param(counterexample_problem, 30, 100, id="k100"),
        # a block holds _SAVE_BLOCK // (K + 2) rows
        pytest.param(counterexample_problem, sampling._SAVE_BLOCK // (3 + 2) + 1, 3,
                     id="one-row-past-a-block"),
        pytest.param(lambda: random_tabular_problem(3, 120, 2, 5), 400, 4,
                     id="three-digit-labels"),
    ])
    def test_jsonl_round_trip(self, tmp_path, make_problem, n, k):
        p = make_problem()
        nd = NoiseDistribution.uniform(p.m_y)
        ds = generate_dataset(p, n, SamplingConfig(k=k, seed=9), nd)
        path = tmp_path / "data.jsonl"
        save_dataset_jsonl(ds, str(path))
        # the bytes of one json.dumps per record, which the blocked writer must keep
        lines = [json.dumps({"provenance": ds.provenance}, sort_keys=True)] + [
            json.dumps({"x": int(x), "y": int(y), "neg": neg.tolist()})
            for x, y, neg in zip(ds.x, ds.y, ds.negatives)
        ]
        # lists, not one string: pytest reports the first differing line quickly
        assert path.read_text(encoding="utf-8").split("\n") == lines + [""]
        loaded = load_dataset_jsonl(str(path))
        np.testing.assert_array_equal(loaded.x, ds.x)
        np.testing.assert_array_equal(loaded.y, ds.y)
        np.testing.assert_array_equal(loaded.negatives, ds.negatives)
        assert loaded.provenance == ds.provenance
        assert loaded.digest() == ds.digest()

    def test_save_never_holds_the_whole_file(self, tmp_path):
        p = make_synthetic_problem(2, 50, 20, 1)
        ds = generate_dataset(p, 20_000, SamplingConfig(k=4, seed=3), NoiseDistribution.uniform(20))
        path = tmp_path / "data.jsonl"
        tracemalloc.start()
        try:
            save_dataset_jsonl(ds, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
