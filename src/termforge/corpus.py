"""Dependency-parsed corpus model and CoNLL-U ingest.

A corpus is a list of documents, each a list of sentences, each an ordered
list of tokens carrying the parse facts (lemma, UPOS, head, deprel) that
couple extraction consumes.  Input is standard 10-column CoNLL-U.  A blank
line, a ``# newdoc`` comment or the end of input closes the open sentence.
``# newdoc id = X`` opens document ``X``; the n-th ``# newdoc`` without an
id opens ``<default_doc_id><n>``, and sentences before the first newdoc go
to ``<default_doc_id>``, so a file without newdoc comments is one document.
A ``# sent_id = X`` line names the sentence whose first token row follows
it; one inside a sentence, or followed by a blank line or newdoc, is
ignored.  Other sentences are ``<doc_id>.s<n>``, n counting from 1.
"""
from __future__ import annotations

import io
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, TextIO


class ConlluParseError(ValueError):
    """Malformed CoNLL-U input; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int, source: str | None = None):
        where = f"{source}:{line_number}" if source else f"line {line_number}"
        super().__init__(f"{where}: {message}")
        self.line_number = line_number
        self.source = source


class Token(NamedTuple):
    index: int      # 1-based position in sentence; shadows tuple.index
    form: str
    lemma: str      # lowercased at ingest
    upos: str
    head: int       # 0 for root
    deprel: str


@dataclass(frozen=True)
class Sentence:
    id: str
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def token_at(self, index: int) -> Token:
        """Token by its 1-based CoNLL-U index."""
        return self.tokens[index - 1]


@dataclass(frozen=True)
class Corpus:
    documents: tuple[tuple[str, tuple[Sentence, ...]], ...]

    def sentences(self) -> Iterator[Sentence]:
        for _, sents in self.documents:
            yield from sents

    @property
    def n_documents(self) -> int:
        return len(self.documents)


@dataclass(frozen=True)
class CorpusStats:
    n_documents: int
    n_sentences: int
    n_words: int
    words_per_document: float


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Document/sentence/token counts; words counted over all token lines,
    punctuation included."""
    n_docs = corpus.n_documents
    n_sents = sum(len(sents) for _, sents in corpus.documents)
    n_words = sum(len(s) for s in corpus.sentences())
    per_doc = n_words / n_docs if n_docs > 0 else 0.0
    return CorpusStats(n_docs, n_sents, n_words, per_doc)


def _sentence_tokens(rows: list[tuple[int, list[str]]], source: str | None) -> tuple[Token, ...]:
    """Check and build one sentence's tokens from its (line number, columns)
    rows: each row in order, then every head against the sentence length."""
    tokens: list[Token] = []
    for expected, (lineno, cols) in enumerate(rows, start=1):
        try:
            index = int(cols[0])
        except ValueError:
            raise ConlluParseError(f"non-integer token id {cols[0]!r}", lineno, source) from None
        if index != expected:
            raise ConlluParseError(
                f"token id {index} breaks 1..n ordering (expected {expected})", lineno, source)
        try:
            head = int(cols[6])
        except ValueError:
            raise ConlluParseError(f"non-integer head {cols[6]!r}", lineno, source) from None
        if head < 0:
            raise ConlluParseError(f"negative head {head}", lineno, source)
        if head == index:
            raise ConlluParseError(f"token {index} is its own head", lineno, source)
        lemma = (cols[1] if cols[2] == "_" else cols[2]).lower()
        if not lemma:
            raise ConlluParseError("empty lemma and form", lineno, source)
        tokens.append(Token(index, cols[1], lemma, cols[3], head, cols[7]))
    n = len(tokens)
    for (lineno, _), tok in zip(rows, tokens):
        if tok.head > n:
            raise ConlluParseError(
                f"head {tok.head} out of range for {n}-token sentence", lineno, source)
    return tuple(tokens)


def parse_conllu(
    text: str | TextIO,
    default_doc_id: str = "doc",
    source: str | None = None,
) -> Corpus:
    """Parse a CoNLL-U character stream into a Corpus, by the rules in the
    module docstring; multiword-range (``1-2``) and empty-node (``5.1``)
    lines are skipped."""
    stream = io.StringIO(text) if isinstance(text, str) else text
    documents: dict[str, list[Sentence]] = {}  # by id, in input order
    doc_id, sents = default_doc_id, []  # the open document
    sentence_ids: set[str] = set()
    rows: list[tuple[int, list[str]]] = []  # (line number, columns) of the open sentence
    sent_id: str | None = None
    unnamed_docs = 0
    # the blank line chained after the input closes the last sentence
    for lineno, raw in enumerate(itertools.chain(stream, [""]), start=1):
        line = raw.rstrip("\n")
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            key = key.lstrip()
            if key.startswith("sent_id") and eq and not rows:
                sent_id = value.strip()
            if not key.startswith("newdoc"):
                continue
        elif line.strip():
            cols = line.split("\t")
            if len(cols) != 10:
                raise ConlluParseError(
                    f"expected 10 tab-separated columns, got {len(cols)}", lineno, source)
            if "-" not in cols[0] and "." not in cols[0]:  # multiword range / empty node
                rows.append((lineno, cols))
            continue
        # a blank line or a newdoc comment closes the open sentence
        if rows:
            if not documents:  # a sentence before any newdoc opens the default document
                documents[doc_id] = sents
            sentence = Sentence(id=sent_id or f"{doc_id}.s{len(sents) + 1}",
                                tokens=_sentence_tokens(rows, source))
            if sentence.id in sentence_ids:
                raise ConlluParseError(f"duplicate sentence id {sentence.id!r}", lineno, source)
            sentence_ids.add(sentence.id)
            sents.append(sentence)
            rows = []
        sent_id = None
        if line.startswith("#"):  # newdoc: open the next document
            if not eq:
                unnamed_docs += 1
            doc_id = value.strip() if eq else f"{default_doc_id}{unnamed_docs}"
            if doc_id in documents:
                raise ConlluParseError(f"duplicate document id {doc_id!r}", lineno, source)
            sents = documents[doc_id] = []
    return Corpus(documents=tuple((d, tuple(s)) for d, s in documents.items()))


def to_conllu(corpus: Corpus) -> str:
    """Serialize back to CoNLL-U; columns we do not model become ``_``."""
    out: list[str] = []
    for doc_id, sents in corpus.documents:
        out.append(f"# newdoc id = {doc_id}")
        for sent in sents:
            out.append(f"# sent_id = {sent.id}")
            for t in sent.tokens:
                out.append("\t".join([
                    str(t.index), t.form, t.lemma, t.upos, "_", "_",
                    str(t.head), t.deprel, "_", "_",
                ]))
            out.append("")
    return "\n".join(out) + ("\n" if out else "")


def load_corpus_file(path: str | Path) -> Corpus:
    path = Path(path)
    with open(path, encoding="utf-8") as f:
        return parse_conllu(f, default_doc_id=path.stem, source=str(path))


def load_corpus(path: str | Path) -> Corpus:
    """Load one corpus from a .conllu file or a directory of them.

    Every ``*.conllu`` file in a directory contributes its documents,
    in sorted filename order.
    """
    path = Path(path)
    if path.is_file():
        return load_corpus_file(path)
    files = sorted(path.glob("*.conllu"))
    if not files:
        raise FileNotFoundError(f"no .conllu files under {path}")
    documents: list[tuple[str, tuple[Sentence, ...]]] = []
    seen_docs: set[str] = set()
    for f in files:
        part = load_corpus_file(f)
        for doc_id, sents in part.documents:
            if doc_id in seen_docs:
                raise ConlluParseError(f"duplicate document id {doc_id!r}", 1, str(f))
            seen_docs.add(doc_id)
            documents.append((doc_id, sents))
    return Corpus(documents=tuple(documents))
