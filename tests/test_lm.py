"""Corpus handling and the log-bilinear LM experiment driver."""

import numpy as np
import pytest

from ncelab import ValidationError, lm, noise_from_spec
from ncelab.model import LogBilinear, log_cond_prob_table
from ncelab.cli import bundled_corpus_path
from ncelab.lm import (
    HistoryTable,
    LmConfig,
    Vocab,
    corpus_perplexity,
    ngram_positions,
    run_lm_experiment,
    tokenize,
)


class TestVocab:
    def test_build_and_encode_with_unk(self):
        vocab = Vocab.build(["a", "b", "a", "c"])
        assert vocab.tokens[0] == "<unk>"
        ids = vocab.encode(["a", "zzz", "c"])
        assert ids[1] == vocab.unk_id
        assert ids[0] != ids[2]

    def test_tokenize_lowercases(self):
        assert tokenize("The Cat  sat\n on THE mat") == [
            "the", "cat", "sat", "on", "the", "mat",
        ]


class TestHistoryTable:
    def test_bigram_covers_whole_vocabulary(self):
        vocab = Vocab.build(["a", "b", "c"])
        table = HistoryTable(2, vocab, vocab.encode(["a", "b"]))
        assert table.rows.shape == (vocab.size, 1)
        for w in range(vocab.size):
            assert table.lookup((w,)) == w

    def test_trigram_falls_back_to_unk_history(self):
        vocab = Vocab.build(["a", "b", "c"])
        ids = vocab.encode(["a", "b", "c", "a", "b"])
        table = HistoryTable(3, vocab, ids)
        seen = table.lookup((ids[0], ids[1]))
        unseen = table.lookup((ids[2], ids[2]))
        assert seen != unseen
        assert unseen == table.lookup((vocab.unk_id, vocab.unk_id))

    def test_positions_map_unseen_histories_to_the_unk_row(self):
        vocab = Vocab.build(["a", "b", "c"])
        ids = vocab.encode(["a", "b", "c", "a", "b"])
        table = HistoryTable(3, vocab, ids)
        rows, targets = table.positions(vocab.encode(["a", "b", "c", "c", "a"]))
        np.testing.assert_array_equal(targets, vocab.encode(["c", "c", "a"]))
        assert rows.tolist() == [
            table.lookup((ids[0], ids[1])),
            table.lookup((ids[1], ids[2])),
            table.lookup((vocab.unk_id, vocab.unk_id)),
        ]

    def test_ngram_positions_shapes(self):
        ids = np.arange(10)
        hist, targets = ngram_positions(ids, 3)
        assert hist.shape == (8, 2)
        np.testing.assert_array_equal(hist[0], [0, 1])
        assert targets[0] == 2


class TestNoise:
    def test_kinds(self):
        counts = np.array([8.0, 1.0, 1.0])
        assert noise_from_spec("uniform", counts).probs[0] == pytest.approx(1 / 3)
        assert noise_from_spec("unigram", counts).probs[0] == pytest.approx(0.8)
        powed = noise_from_spec("unigram-pow:0.75", counts)
        assert powed.probs[0] == pytest.approx(4.7568 / (4.7568 + 2), abs=1e-4)
        with pytest.raises(ValidationError):
            noise_from_spec("zipf", counts)

    def test_zero_counts_smoothed(self, monkeypatch):
        # <unk> never occurs in the training split, so its count is 0 and
        # every count gets add-one before the power
        built = []

        def spy(spec, masses):
            built.append(noise_from_spec(spec, masses))
            return built[-1]

        monkeypatch.setattr(lm, "noise_from_spec", spy)
        text = "a b a c a b " * 20
        run_lm_experiment(text, LmConfig(loss="ranking", k=2, dim=2, max_iters=1))
        tokens = tokenize(text)
        train = tokens[: int(round(len(tokens) * (1.0 - lm._VALID_FRACTION)))]
        vocab = Vocab.build(train)
        counts = np.bincount(vocab.encode(train), minlength=vocab.size)
        assert counts[vocab.unk_id] == 0
        np.testing.assert_array_equal(built[0].probs, (counts + 1.0) / (counts + 1.0).sum())


SMALL_TEXT = (
    "the cat sat on the mat and the dog sat on the log "
    "the cat ran to the dog and the dog ran to the cat "
) * 40


class TestExperiment:
    def test_mle_bigram_learns_something(self):
        rep = run_lm_experiment(
            SMALL_TEXT, LmConfig(loss="mle", dim=8, max_iters=80, seed=1)
        )
        assert rep.train_ppl < 8.0  # 12 word types, strong bigram structure
        assert rep.valid_ppl < 10.0
        assert rep.eval_rows[-1][0] == rep.fit.iterations

    def test_ranking_close_to_mle_on_tiny_text(self):
        mle = run_lm_experiment(SMALL_TEXT, LmConfig(loss="mle", dim=8, max_iters=80, seed=1))
        rank = run_lm_experiment(
            SMALL_TEXT, LmConfig(loss="ranking", k=8, dim=8, max_iters=120, seed=1)
        )
        assert rank.valid_ppl == pytest.approx(mle.valid_ppl, rel=0.15)

    def test_regularizer_shrinks_partition_spread(self):
        base = run_lm_experiment(
            SMALL_TEXT, LmConfig(loss="ranking", k=8, dim=8, max_iters=100, seed=1)
        )
        reg = run_lm_experiment(
            SMALL_TEXT,
            LmConfig(loss="ranking", k=8, dim=8, max_iters=100, seed=1, reg_alpha=1.0),
        )
        assert reg.log_z_var < base.log_z_var
        assert reg.reg_penalty_sampled is not None
        assert reg.reg_target_exact is not None

    @pytest.mark.parametrize(
        "loss", [dict(loss="mle"), dict(loss="ranking", k=8), dict(loss="ranking", k=8, reg_alpha=1.0)],
        ids=["mle", "ranking", "regularized"],
    )
    def test_fit_reaches_its_optimum_under_the_penalty(self, loss):
        rep = run_lm_experiment(SMALL_TEXT, LmConfig(dim=8, max_iters=1000, seed=1, **loss))
        assert rep.fit.converged and rep.fit.grad_norm <= LmConfig().tol

    def test_each_split_is_encoded_once(self, monkeypatch):
        encoded = []
        positions = HistoryTable.positions

        def counting(table, ids):
            encoded.append(ids.size)
            return positions(table, ids)

        monkeypatch.setattr(HistoryTable, "positions", counting)
        rep = run_lm_experiment(
            SMALL_TEXT, LmConfig(loss="ranking", k=4, dim=8, max_iters=60, seed=1)
        )
        assert len(rep.eval_rows) == 3 and len(encoded) == 2
        # the reported perplexities are those of the final parameters
        tokens = SMALL_TEXT.split()
        split = int(round(len(tokens) * 0.9))
        vocab = Vocab.build(tokens[:split])
        table = HistoryTable(2, vocab, vocab.encode(tokens[:split]))
        sf = LogBilinear(table.rows, vocab.size, 8)
        valid = table.positions(vocab.encode(tokens[split:]))
        assert corpus_perplexity(log_cond_prob_table(sf, rep.fit.theta), *valid) == rep.valid_ppl

    def test_context_bias_appends_one_bias_per_history(self):
        rep = run_lm_experiment(
            SMALL_TEXT,
            LmConfig(loss="ranking", k=8, dim=8, max_iters=30, seed=1, context_bias=True),
        )
        tokens = SMALL_TEXT.split()
        train = tokens[: int(round(len(tokens) * 0.9))]
        vocab = Vocab.build(train)
        table = HistoryTable(2, vocab, vocab.encode(train))
        inner = LogBilinear(table.rows, vocab.size, 8)
        assert rep.fit.theta.size == inner.n_params + inner.m_x
        assert np.isfinite(rep.train_ppl) and np.isfinite(rep.valid_ppl)

    def test_binary_loss_runs(self):
        rep = run_lm_experiment(
            SMALL_TEXT, LmConfig(loss="binary", k=8, dim=8, max_iters=60, seed=3)
        )
        assert rep.fit.gamma is not None
        assert rep.valid_ppl >= 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            run_lm_experiment("", LmConfig())

    def test_bundled_corpus_exists(self):
        path = bundled_corpus_path()
        with open(path, encoding="utf-8") as f:
            text = f.read()
        assert 80_000 <= len(text) <= 120_000
        assert len(set(tokenize(text))) >= 100
