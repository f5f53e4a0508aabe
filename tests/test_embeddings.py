import logging
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from termforge.corpus import parse_conllu
from termforge.embeddings import (
    EmbeddingTable,
    SkipgramConfig,
    _draw_negatives,
    _scatter_add,
    iter_window_pairs,
    load_embeddings,
    np_vectors,
    save_embeddings,
    sgns_loss_and_grads,
    sigmoid,
    train_skipgram,
)
from termforge.matrices import NP_W2V
from util import conllu_sentence, join_sentences


def lemma_corpus(*sentences):
    """Corpus whose sentences carry the given lemma lists."""
    texts = []
    for lemmas in sentences:
        rows = [(i + 1, w, w, "NOUN", 0 if i == 0 else 1, "dep")
                for i, w in enumerate(lemmas)]
        texts.append(conllu_sentence(rows))
    return parse_conllu(join_sentences(texts))


# ------------------------------------------------------------ window pairs

def test_window_pairs_five_tokens_width_two():
    pairs = list(iter_window_pairs(5, 2))
    assert len(pairs) == 14
    assert pairs[:4] == [(0, 1), (0, 2), (1, 0), (1, 2)]
    # every pair is within the window and never self-paired
    assert all(0 < abs(i - j) <= 2 for i, j in pairs)


def test_window_pairs_cover_whole_sentence_when_window_is_large():
    pairs = list(iter_window_pairs(4, 10))
    assert len(pairs) == 12  # all ordered pairs


def test_window_pairs_empty_for_single_token():
    assert list(iter_window_pairs(1, 5)) == []


# ------------------------------------------------------------------- loss

def test_loss_matches_direct_formula():
    rng = np.random.default_rng(0)
    center = rng.standard_normal(8)
    out = rng.standard_normal((4, 8))
    labels = np.array([1.0, 0.0, 0.0, 0.0])
    loss, _, _ = sgns_loss_and_grads(center, out, labels)
    scores = out @ center
    sigma = lambda x: 1.0 / (1.0 + math.exp(-x))
    direct = -math.log(sigma(scores[0])) - sum(
        math.log(sigma(-s)) for s in scores[1:])
    assert loss == pytest.approx(direct, rel=1e-12)


def test_loss_is_stable_for_extreme_scores():
    center = np.array([1000.0])
    out = np.array([[1.0], [-1.0]])
    labels = np.array([1.0, 0.0])
    loss, grad_center, grad_out = sgns_loss_and_grads(center, out, labels)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad_center))
    assert np.all(np.isfinite(grad_out))


def test_sigmoid_saturates_without_warnings_and_tracks_expit():
    from scipy.special import expit   # the oracle; termforge does not import scipy

    x = np.linspace(-40.0, 40.0, 800001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a bare 1 / (1 + np.exp(-x)) warns of overflow below about -709
        assert sigmoid(np.array([-800.0]))[0] == 0.0
        assert sigmoid(np.array([800.0]))[0] == 1.0
        got, want = sigmoid(x), expit(x)
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    # numpy's exp and libm's differ by up to 1 ulp, 2 after the division;
    # where 1 + exp(-x) just passes 2**53 it rounds to a multiple of 2, which
    # can double that
    tail = (x > -37.1) & (x < -36.7)
    assert ulps[~tail].max() <= 2
    assert ulps[tail].max() <= 4


def test_gradients_match_central_differences():
    rng = np.random.default_rng(7)
    step = 1e-5

    def rel(a, b):
        return np.linalg.norm(a - b) / max(1e-12, np.linalg.norm(a) + np.linalg.norm(b))

    # ten single pairs, then batches of pairs along one or two leading axes
    for batch in [()] * 10 + [(3,), (5,), (2, 3)]:
        dim = int(rng.integers(2, 10))
        n_rows = int(rng.integers(2, 6))
        center = rng.standard_normal(batch + (dim,))
        out = rng.standard_normal(batch + (n_rows, dim))
        labels = np.zeros(n_rows)
        labels[0] = 1.0
        _, grad_center, grad_out = sgns_loss_and_grads(center, out, labels)

        num_center = np.zeros_like(center)
        for index in np.ndindex(center.shape):
            bump = np.zeros_like(center)
            bump[index] = step
            up, _, _ = sgns_loss_and_grads(center + bump, out, labels)
            down, _, _ = sgns_loss_and_grads(center - bump, out, labels)
            num_center[index] = (up - down) / (2 * step)
        num_out = np.zeros_like(out)
        for index in np.ndindex(out.shape):
            bump = np.zeros_like(out)
            bump[index] = step
            up, _, _ = sgns_loss_and_grads(center, out + bump, labels)
            down, _, _ = sgns_loss_and_grads(center, out - bump, labels)
            num_out[index] = (up - down) / (2 * step)

        assert rel(grad_center, num_center) < 1e-7
        assert rel(grad_out, num_out) < 1e-7


def test_batched_loss_and_grads_match_per_pair_calls():
    rng = np.random.default_rng(11)
    n_pairs, n_rows, dim = 9, 6, 7
    centers = rng.standard_normal((n_pairs, dim))
    outs = rng.standard_normal((n_pairs, n_rows, dim))
    labels = np.zeros(n_rows)
    labels[0] = 1.0
    loss, grad_center, grad_out = sgns_loss_and_grads(centers, outs, labels)
    singles = [sgns_loss_and_grads(c, o, labels) for c, o in zip(centers, outs)]
    assert abs(loss - sum(s[0] for s in singles)) < 1e-12
    np.testing.assert_allclose(grad_center, np.stack([s[1] for s in singles]),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(grad_out, np.stack([s[2] for s in singles]),
                               rtol=0, atol=1e-12)


# --------------------------------------------------------------- sampling

def test_negative_sampler_frequencies_clashes_and_seed():
    counts = np.array([60.0, 25.0, 10.0, 4.0, 1.0])
    noise = counts ** 0.75
    noise /= noise.sum()
    cdf = np.cumsum(noise)
    contexts = np.random.default_rng(0).integers(0, len(counts), 40_000)
    negs = _draw_negatives(np.random.default_rng(5), cdf, contexts, 5)

    assert negs.shape == (40_000, 5)
    assert not np.any(negs == contexts[:, None])
    # a draw equal to its context is redrawn, so given context c a word w != c
    # comes up with probability noise[w] / (1 - noise[c])
    expected = np.zeros(len(counts))
    for c in contexts:
        conditional = noise / (1.0 - noise[c])
        conditional[c] = 0.0
        expected += conditional
    expected /= len(contexts)
    observed = np.bincount(negs.ravel(), minlength=len(counts)) / negs.size
    # 200k draws: one standard error is at most 0.0011, so 0.005 is >4 of them
    np.testing.assert_allclose(observed, expected, rtol=0, atol=0.005)

    again = _draw_negatives(np.random.default_rng(5), cdf, contexts, 5)
    assert np.array_equal(negs, again)


def test_scatter_add_matches_add_at_on_repeated_rows():
    rng = np.random.default_rng(2)
    rows = rng.integers(0, 4, (6, 3))
    values = rng.standard_normal((6, 3, 5))
    expected = rng.standard_normal((4, 5))
    target = expected.copy()
    np.add.at(expected, rows, values)
    _scatter_add(target, rows, values)
    assert np.array_equal(target, expected)


# --------------------------------------------------------------- training

def test_vocab_order_frequency_then_alphabetical():
    corpus = lemma_corpus(["b", "a", "b", "c", "a", "c", "c"],
                          ["a", "b", "d"])
    table = train_skipgram(corpus, SkipgramConfig(dim=4, window=2, epochs=1,
                                                  min_count=2))
    # c:3, a:3, b:3 -> alphabetical among ties; d:1 filtered out
    assert table.words == ("a", "b", "c")
    assert "d" not in table.vocab


def test_empty_vocab_raises():
    corpus = lemma_corpus(["a", "b", "c"])
    with pytest.raises(ValueError, match="no lemma reaches min_count=2"):
        train_skipgram(corpus, SkipgramConfig(min_count=2))


def test_no_trainable_pairs_raises():
    # "a" repeats across sentences but never twice inside one, so every
    # filtered sentence has a single in-vocab token
    corpus = lemma_corpus(["a", "x"], ["a", "y"])
    with pytest.raises(ValueError, match="no sentence with two in-vocab tokens"):
        train_skipgram(corpus, SkipgramConfig(min_count=2))


def test_single_word_vocab_raises():
    corpus = lemma_corpus(["a", "a", "a"])
    with pytest.raises(ValueError, match="needs at least two words"):
        train_skipgram(corpus, SkipgramConfig(min_count=1))


def planted_corpus():
    """200 sentences: ``eat aX food`` for a0..a3, ``drive bX road`` for b0..b3."""
    sentences = []
    for i in range(200):
        word = i // 2 % 4
        sentences.append(["eat", f"a{word}", "food"] if i % 2 == 0
                         else ["drive", f"b{word}", "road"])
    return lemma_corpus(*sentences)


PLANTED_CONFIG = SkipgramConfig(dim=10, window=2, epochs=10, min_count=1)


@pytest.mark.parametrize("seed", range(5))
def test_words_sharing_contexts_end_up_closer(seed):
    table = train_skipgram(planted_corpus(), replace(PLANTED_CONFIG, seed=seed))
    groups = [[f"a{i}" for i in range(4)], [f"b{i}" for i in range(4)]]
    unit = {w: table.vector(w) / np.linalg.norm(table.vector(w))
            for group in groups for w in group}
    within = [unit[x] @ unit[y] for group in groups
              for i, x in enumerate(group) for y in group[i + 1:]]
    between = [unit[x] @ unit[y] for x in groups[0] for y in groups[1]]
    assert np.mean(within) - np.mean(between) >= 0.5


def logged_epoch_losses(caplog, corpus, config):
    with caplog.at_level(logging.INFO, logger="termforge.embeddings"):
        train_skipgram(corpus, config)
    return [float(m.group(1)) for r in caplog.records
            if (m := re.search(r"mean loss per pair ([0-9.]+)", r.getMessage()))]


def test_epoch_loss_is_logged_and_falls(caplog):
    losses = logged_epoch_losses(caplog, planted_corpus(), PLANTED_CONFIG)
    assert len(losses) == PLANTED_CONFIG.epochs
    assert losses[-1] < losses[0]


def test_logged_loss_is_the_mean_over_every_pair(caplog):
    # w_out starts at zero and a vanishing learning rate keeps it there, so
    # each pair scores 0 against its context and its negatives
    config = replace(PLANTED_CONFIG, epochs=2, learning_rate=1e-12, min_learning_rate=0.0)
    losses = logged_epoch_losses(caplog, planted_corpus(), config)
    assert losses == [round((1 + config.negatives) * math.log(2.0), 6)] * 2


def test_training_is_bitwise_deterministic():
    corpus = lemma_corpus(["cat", "dog", "cat", "bird"],
                          ["dog", "bird", "dog", "cat"],
                          ["bird", "cat", "dog", "bird"])
    config = SkipgramConfig(dim=8, window=2, negatives=3, epochs=2,
                            min_count=1, seed=13)
    a = train_skipgram(corpus, config)
    b = train_skipgram(corpus, config)
    assert a.vocab == b.vocab
    assert np.array_equal(a.vectors, b.vectors)


def test_training_moves_vectors_and_keeps_shape():
    corpus = lemma_corpus(["cat", "dog", "cat", "dog"],
                          ["dog", "cat", "dog", "cat"])
    config = SkipgramConfig(dim=6, window=2, negatives=2, epochs=1, min_count=1)
    table = train_skipgram(corpus, config)
    assert table.vectors.shape == (2, 6)
    init = (np.random.default_rng(config.seed).random((2, 6)) - 0.5) / 6
    assert not np.array_equal(table.vectors, init)


def test_different_seeds_differ():
    corpus = lemma_corpus(["cat", "dog", "cat", "dog"])
    a = train_skipgram(corpus, SkipgramConfig(dim=4, min_count=1, seed=0, epochs=1))
    b = train_skipgram(corpus, SkipgramConfig(dim=4, min_count=1, seed=1, epochs=1))
    assert not np.array_equal(a.vectors, b.vectors)


def test_config_validation():
    with pytest.raises(ValueError):
        SkipgramConfig(dim=0)
    with pytest.raises(ValueError):
        SkipgramConfig(negatives=0)
    with pytest.raises(ValueError):
        SkipgramConfig(min_count=0)
    with pytest.raises(ValueError):
        SkipgramConfig(learning_rate=0.0)


# ------------------------------------------------------------ composition

def table_from(rows):
    return EmbeddingTable(words=tuple(rows),
                          vectors=np.array(list(rows.values()), dtype=float))


def test_np_vectors_mean_composition():
    table = table_from({"jazz": [1.0, 0.0], "band": [0.0, 1.0], "solo": [2.0, 2.0]})
    rep = np_vectors(table, ["jazz band", "solo", "unknown thing"])
    assert rep.provenance == NP_W2V
    assert rep.row_labels == ("jazz band", "solo")
    assert rep.dropped_labels == ("unknown thing",)
    assert np.allclose(rep.matrix[0], [0.5, 0.5])
    assert np.allclose(rep.matrix[1], [2.0, 2.0])


def test_np_vectors_partial_oov_uses_known_components():
    table = table_from({"guitar": [4.0, 0.0]})
    rep = np_vectors(table, ["electric guitar"])
    assert rep.row_labels == ("electric guitar",)
    assert np.allclose(rep.matrix[0], [4.0, 0.0])


def test_np_vectors_empty_result():
    table = table_from({"a": [1.0]})
    rep = np_vectors(table, ["b", "c d"])
    assert rep.row_labels == ()
    assert rep.matrix.shape == (0, 1)
    assert rep.dropped_labels == ("b", "c d")


def test_np_vectors_drops_zero_vectors_and_rejects_non_finite():
    table = table_from({"up": [1.0, 0.0], "down": [-1.0, 0.0], "side": [0.0, 1.0]})
    rep = np_vectors(table, ["up down", "side", "nowhere"])
    assert rep.row_labels == ("side",)
    assert rep.dropped_labels == ("nowhere", "up down")
    bad = table_from({"ok": [1.0, 0.0], "broken": [np.nan, 1.0]})
    with pytest.raises(ValueError, match=r"NP_w2v: non-finite values in 1 row\(s\): broken"):
        np_vectors(bad, ["ok", "broken"])


# ---------------------------------------------------------- serialization

def test_save_load_round_trip(tmp_path):
    corpus = lemma_corpus(["cat", "dog", "cat", "bird", "dog"])
    table = train_skipgram(corpus, SkipgramConfig(dim=5, min_count=1, epochs=1))
    path = tmp_path / "emb.txt"
    save_embeddings(table, path)
    loaded = load_embeddings(path)
    assert loaded.vocab == table.vocab
    assert np.array_equal(loaded.vectors, table.vectors)


def test_save_load_round_trip_lemma_with_space(tmp_path):
    corpus = lemma_corpus(["new york", "city", "new york", "state", "city"])
    table = train_skipgram(corpus, SkipgramConfig(dim=5, min_count=1, epochs=1))
    assert "new york" in table.vocab
    path = tmp_path / "emb.txt"
    save_embeddings(table, path)
    loaded = load_embeddings(path)
    assert loaded.vocab == table.vocab
    assert np.array_equal(loaded.vectors, table.vectors)


def test_load_reads_a_space_after_the_word(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 2\ncat 1.0 2.0\ndog 0.5 -1.5\n")
    loaded = load_embeddings(path)
    assert loaded.vocab == {"cat": 0, "dog": 1}
    assert np.array_equal(loaded.vectors, [[1.0, 2.0], [0.5, -1.5]])


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("not a header\n")
    with pytest.raises(ValueError, match=r"emb\.txt: bad header 'not a header'"):
        load_embeddings(path)
    path.write_text("1 3\nword 1.0 2.0\n")
    with pytest.raises(ValueError, match="row 0 has 2 values, expected 3"):
        load_embeddings(path)
    path.write_text("2 2\ncat 1.0 2.0\ncat 0.5 -1.5\n")
    with pytest.raises(ValueError, match=r"emb\.txt: row 1 repeats the key 'cat' of row 0"):
        load_embeddings(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "emb.txt"
    path.write_text(f"2 2\ncat 1.0 2.0\ndog 0.5 {value}\n")
    with pytest.raises(ValueError, match=r"emb\.txt: row 1 \(dog\) has non-finite values"):
        load_embeddings(path)
