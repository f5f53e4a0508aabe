"""Dependency-parsed corpus model and CoNLL-U ingest.

A corpus is a list of documents, each a list of sentences, each an ordered
list of tokens carrying the parse facts (lemma, UPOS, head, deprel) that
couple extraction consumes.  Input is standard 10-column CoNLL-U; documents
are delimited by ``# newdoc id = X`` comment lines, and a file without any
newdoc comment is read as a single document.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO


class ConlluParseError(ValueError):
    """Malformed CoNLL-U input; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int, source: str | None = None):
        where = f"{source}:{line_number}" if source else f"line {line_number}"
        super().__init__(f"{where}: {message}")
        self.line_number = line_number
        self.source = source


@dataclass(frozen=True)
class Token:
    index: int      # 1-based position in sentence
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


def _normalize_lemma(lemma_col: str, form: str) -> str:
    lemma = form if lemma_col == "_" else lemma_col
    return lemma.lower()


def parse_conllu(
    text: str | TextIO,
    default_doc_id: str = "doc",
    source: str | None = None,
) -> Corpus:
    """Parse a CoNLL-U character stream into a Corpus.

    Multiword-range lines (``1-2``) and empty-node lines (``5.1``) are
    skipped.  ``# sent_id`` comments are honored when present; otherwise
    sentence ids are synthesized as ``<doc_id>.s<n>``.
    """
    stream = io.StringIO(text) if isinstance(text, str) else text

    documents: list[tuple[str, list[Sentence]]] = []
    current_doc_id: str | None = None
    current_sents: list[Sentence] = []
    pending_rows: list[tuple[int, list[str]]] = []  # (line_number, columns)
    pending_sent_id: str | None = None
    seen_sentence_ids: set[str] = set()
    synthetic_doc_count = 0

    def err(msg: str, lineno: int) -> ConlluParseError:
        return ConlluParseError(msg, lineno, source)

    seen_doc_ids: set[str] = set()

    def open_document(doc_id: str, lineno: int = 1) -> None:
        nonlocal current_doc_id, current_sents
        if doc_id in seen_doc_ids:
            raise err(f"duplicate document id {doc_id!r}", lineno)
        seen_doc_ids.add(doc_id)
        if current_doc_id is not None:
            documents.append((current_doc_id, current_sents))
        current_doc_id = doc_id
        current_sents = []

    def flush_sentence(end_lineno: int) -> None:
        nonlocal pending_rows, pending_sent_id, current_doc_id
        if not pending_rows:
            pending_sent_id = None
            return
        if current_doc_id is None:
            open_document(default_doc_id)
        tokens: list[Token] = []
        for expected, (lineno, cols) in enumerate(pending_rows, start=1):
            try:
                index = int(cols[0])
            except ValueError:
                raise err(f"non-integer token id {cols[0]!r}", lineno) from None
            if index != expected:
                raise err(f"token id {index} breaks 1..n ordering (expected {expected})", lineno)
            try:
                head = int(cols[6])
            except ValueError:
                raise err(f"non-integer head {cols[6]!r}", lineno) from None
            if head < 0:
                raise err(f"negative head {head}", lineno)
            if head == index:
                raise err(f"token {index} is its own head", lineno)
            lemma = _normalize_lemma(cols[2], cols[1])
            if not lemma:
                raise err("empty lemma and form", lineno)
            tokens.append(Token(index=index, form=cols[1], lemma=lemma,
                                upos=cols[3], head=head, deprel=cols[7]))
        n = len(tokens)
        for (lineno, _), tok in zip(pending_rows, tokens):
            if tok.head > n:
                raise err(f"head {tok.head} out of range for {n}-token sentence", lineno)
        sent_id = pending_sent_id or f"{current_doc_id}.s{len(current_sents) + 1}"
        if sent_id in seen_sentence_ids:
            raise err(f"duplicate sentence id {sent_id!r}", end_lineno)
        seen_sentence_ids.add(sent_id)
        current_sents.append(Sentence(id=sent_id, tokens=tuple(tokens)))
        pending_rows = []
        pending_sent_id = None

    lineno = 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush_sentence(lineno)
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("newdoc"):
                flush_sentence(lineno)
                if "=" in body:
                    doc_id = body.split("=", 1)[1].strip()
                else:
                    synthetic_doc_count += 1
                    doc_id = f"{default_doc_id}{synthetic_doc_count}"
                open_document(doc_id, lineno)
            elif body.startswith("sent_id") and "=" in body and not pending_rows:
                pending_sent_id = body.split("=", 1)[1].strip()
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise err(f"expected 10 tab-separated columns, got {len(cols)}", lineno)
        if "-" in cols[0] or "." in cols[0]:
            continue  # multiword range / empty node
        pending_rows.append((lineno, cols))
    flush_sentence(lineno + 1)
    if current_doc_id is not None:
        documents.append((current_doc_id, current_sents))

    return Corpus(documents=tuple(
        (doc_id, tuple(sents)) for doc_id, sents in documents
    ))


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
