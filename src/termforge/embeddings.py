"""Skip-gram word embeddings with negative sampling, trained on lemmas.

Plain numpy implementation so the training loop stays inspectable and
bitwise-deterministic for a given seed (single-threaded).  The loss and its
gradients live in a pure function, ``sgns_loss_and_grads``, which the tests
probe with central finite differences and which the trainer calls on a whole
sentence's pairs at once.

Sampling discipline, fixed so reruns reproduce exactly:
  * one ``default_rng(seed)`` drives everything, in this order: input matrix
    init, then, for each sentence in corpus order (epoch by epoch), one
    P x negatives block of uniforms for the sentence's P pairs, then the
    redraws for negatives that equal their pair's positive context, in
    row-major order, until none is left;
  * uniforms map to words through the cumulative unigram^0.75 table
    (word2vec's unigram table, as a ``searchsorted`` over the CDF);
  * the context window is fixed width (no random shrinking);
  * updates are applied once per sentence, from the parameters as they stand
    at the sentence's start (a per-sentence mini-batch); repeated words
    accumulate their gradients;
  * the learning rate decays linearly per pair, so the pairs of one
    sentence each carry their own rate.
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import numpy.random   # numpy loads it lazily; import it with the module, not mid-run

from .corpus import Corpus
from .matrices import (NP_W2V, Representation, load_representation,
                       make_representation, save_representation)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SkipgramConfig:
    dim: int = 100
    window: int = 5           # tokens each side of the center
    negatives: int = 5        # noise samples per positive pair
    epochs: int = 5
    min_count: int = 2
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1 or self.window < 1 or self.negatives < 1 or self.epochs < 1:
            raise ValueError("dim, window, negatives and epochs must all be >= 1")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if not 0 < self.learning_rate:
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class EmbeddingTable:
    """One vector per word: row i of ``vectors`` belongs to ``words[i]``.
    ``vocab`` (word -> row) is derived from ``words``, not stored."""

    words: tuple[str, ...]    # vocabulary order
    vectors: np.ndarray       # len(words) x dim

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def vocab(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.words)}

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self.vocab[word]]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) elementwise, the formula of ``scipy.special.expit``.
    Below about -709 exp(-x) overflows to inf, which gives exactly 0.0, so
    that overflow is not warned about."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sgns_loss_and_grads(center_vec: np.ndarray, out_rows: np.ndarray,
                        labels: np.ndarray):
    """Negative-sampling loss for one center vector (shape ``(d,)``) against
    a stack of output rows (shape ``(r, d)``: the true context first, noise
    words after).  Leading axes index a batch of pairs: ``(..., d)`` centers
    against ``(..., r, d)`` rows.

    labels: 1.0 for the positive row, 0.0 for noise rows; shape ``(r,)`` or
    ``(..., r)``.
    Returns (loss summed over the batch, grad wrt center_vec, grad wrt
    out_rows); the gradients have their argument's shape.
    """
    scores = np.einsum("...rd,...d->...r", out_rows, center_vec)
    # -log sigma(s) for label 1, -log sigma(-s) for label 0, stably
    loss = float(np.sum(np.logaddexp(0.0, np.where(labels > 0.5, -scores, scores))))
    residual = sigmoid(scores) - labels
    grad_center = np.einsum("...rd,...r->...d", out_rows, residual)
    grad_out = residual[..., :, None] * center_vec[..., None, :]
    return loss, grad_center, grad_out


def iter_window_pairs(sentence_length: int, window: int):
    """(center, context) position pairs for a fixed-width window, in the
    order the trainer consumes them."""
    for i in range(sentence_length):
        lo = max(0, i - window)
        hi = min(sentence_length, i + window + 1)
        for j in range(lo, hi):
            if j != i:
                yield i, j


def _draw_negatives(rng: np.random.Generator, cdf: np.ndarray,
                    contexts: np.ndarray, negatives: int) -> np.ndarray:
    """``len(contexts) x negatives`` word indices drawn from the cumulative
    noise table ``cdf``; a draw equal to its row's context is redrawn."""
    def draw(shape):
        # a uniform at or above cdf[-1] (rounding) maps to the last word
        return np.minimum(np.searchsorted(cdf, rng.random(shape), side="right"),
                          len(cdf) - 1)

    negs = draw((len(contexts), negatives))
    clash = negs == contexts[:, None]
    while clash.any():
        negs[clash] = draw(int(clash.sum()))
        clash = negs == contexts[:, None]
    return negs


def _scatter_add(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(target, rows, values)`` for a C-contiguous 2-D target, with
    the same additions in the same order, run as one 1-D ``np.add.at`` over
    element offsets, which numpy does several times faster than row updates."""
    dim = target.shape[1]
    offsets = (rows.reshape(-1, 1) * dim + np.arange(dim)).ravel()
    np.add.at(target.reshape(-1), offsets, values.ravel())


def train_skipgram(corpus: Corpus, config: SkipgramConfig = SkipgramConfig()) -> EmbeddingTable:
    """Train skip-gram vectors over the corpus's lemma sequences.

    Vocabulary keeps lemmas with frequency >= min_count, ordered by
    descending frequency (ties alphabetical).  Each sentence is one update:
    the loss and gradients of all its (center, context) pairs are taken
    from the parameters at the sentence's start and applied together.  The
    learning rate decays linearly per training pair down to
    ``min_learning_rate``.  The mean loss per pair of each epoch is logged
    at INFO.
    """
    counts: Counter = Counter()
    raw_sentences: list[list[str]] = []
    for sentence in corpus.sentences():
        lemmas = [t.lemma for t in sentence.tokens]
        raw_sentences.append(lemmas)
        counts.update(lemmas)

    words = sorted((w for w, c in counts.items() if c >= config.min_count),
                   key=lambda w: (-counts[w], w))
    if not words:
        raise ValueError(
            f"no lemma reaches min_count={config.min_count}; "
            "lower the threshold or supply more text")
    vocab = {w: i for i, w in enumerate(words)}

    # out-of-vocab tokens vanish before windowing, as in word2vec
    sentences = [np.array([vocab[w] for w in lemmas if w in vocab], dtype=np.intp)
                 for lemmas in raw_sentences]
    sentences = [s for s in sentences if len(s) >= 2]
    if not sentences:
        raise ValueError("corpus has no sentence with two in-vocab tokens")
    if len(words) < 2:
        raise ValueError(f"vocabulary has only {words[0]!r}; negative sampling "
                         "needs at least two words")

    # (center, context) positions per sentence length, in iter_window_pairs order
    positions: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for n in {len(s) for s in sentences}:
        pairs = np.array(list(iter_window_pairs(n, config.window)), dtype=np.intp)
        positions[n] = (pairs[:, 0], pairs[:, 1])
    pairs_per_pass = sum(len(positions[len(s)][0]) for s in sentences)
    total_pairs = pairs_per_pass * config.epochs

    # cumulative unigram^0.75 noise table over the kept vocabulary
    noise = np.array([counts[w] for w in words], dtype=float) ** 0.75
    cdf = np.cumsum(noise / noise.sum())

    rng = np.random.default_rng(config.seed)
    w_in = (rng.random((len(words), config.dim)) - 0.5) / config.dim
    w_out = np.zeros((len(words), config.dim))

    labels = np.zeros(1 + config.negatives)
    labels[0] = 1.0
    lr0, lr_floor = config.learning_rate, config.min_learning_rate
    pairs_done = 0
    for epoch in range(config.epochs):
        epoch_loss = 0.0
        for sent in sentences:
            center_pos, context_pos = positions[len(sent)]
            centers, contexts = sent[center_pos], sent[context_pos]
            n_pairs = len(centers)
            negs = _draw_negatives(rng, cdf, contexts, config.negatives)
            rows = np.concatenate((contexts[:, None], negs), axis=1)
            lr = np.maximum(lr_floor, lr0 * (
                1.0 - np.arange(pairs_done, pairs_done + n_pairs) / total_pairs))
            pairs_done += n_pairs

            loss, grad_center, grad_out = sgns_loss_and_grads(
                w_in[centers], w_out[rows], labels)
            epoch_loss += loss
            # accumulates when a word repeats within the sentence
            _scatter_add(w_in, centers, -lr[:, None] * grad_center)
            _scatter_add(w_out, rows, -lr[:, None, None] * grad_out)
        log.info("train_skipgram: epoch %d/%d, mean loss per pair %.6f",
                 epoch + 1, config.epochs, epoch_loss / pairs_per_pass)

    return EmbeddingTable(words=tuple(words), vectors=w_in)


def np_vectors(table: EmbeddingTable, nps: list[str]) -> Representation:
    """Compose one vector per NP key: single in-vocab word keeps its row,
    multiword keys take the mean over in-vocab components.  Keys with no
    in-vocab component are dropped (reported via the warning log and the
    Representation's dropped_labels), as are all-zero composed vectors;
    non-finite ones raise ``ValueError`` (``matrices.make_representation``)."""
    kept: list[str] = []
    rows: list[np.ndarray] = []
    dropped: list[str] = []
    for key in nps:
        component_rows = [table.vector(w) for w in key.split() if w in table.vocab]
        if not component_rows:
            dropped.append(key)
            continue
        kept.append(key)
        rows.append(np.mean(component_rows, axis=0))
    if dropped:
        log.warning("np_vectors: %d NP(s) have no in-vocab component: %s%s",
                    len(dropped), ", ".join(dropped[:5]),
                    ", ..." if len(dropped) > 5 else "")
    matrix = np.vstack(rows) if rows else np.zeros((0, table.dim))
    rep = make_representation(kept, matrix, NP_W2V)
    return replace(rep, dropped_labels=tuple(dropped) + rep.dropped_labels)


def require_composed(rep: Representation) -> Representation:
    """``np_vectors``' result when it kept an NP; one that dropped every NP
    key fails here, before a caller writes or clusters it."""
    if not rep.n_rows:
        raise ValueError(f"{rep.provenance}: all {len(rep.dropped_labels)} NP key(s) "
                         "dropped (no in-vocab word, or an all-zero vector)")
    return rep


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """One row per word, in vocabulary order, in the representation format
    (``matrices.save_representation``)."""
    save_representation(Representation(table.words, table.vectors, "embeddings"), path)


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read ``save_embeddings`` output or a word2vec text table."""
    rep = load_representation(path)
    return EmbeddingTable(words=rep.row_labels, vectors=rep.matrix)
