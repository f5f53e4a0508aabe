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
ignored.  Other sentences are ``<doc_id>.s<n>``, n counting from 1.  A
comment's key is the text before its ``=``, stripped: only ``newdoc``,
``newdoc id`` and ``sent_id`` are read, and every other comment, such as
``# newdoc_note = x`` or ``# sent_identifier = x``, is skipped.

A parse keeps one object per distinct value: a token row whose modelled
fields (index, form, lemma, UPOS, head, deprel) equal an earlier row's is
that row's `Token`, and a new token's strings equal to earlier ones are
those same strings.  Rows recur (function words and punctuation at the
same position with the same attachment): the benchmark's ``wide`` corpus
has 2,985 distinct rows among 76,291 tokens and keeps about 37 bytes per
token, against about 130 for a Token object per token.

A token line is split and checked at most twice per parse.  A parsed row
that is an earlier row's `Token` files its line's raw text in the parse's
table of recurring lines, and a later line with exactly that text is that
`Token` without being split or converted again.  Only the checks that
depend on the sentence run on it, at its own line: its index against its
position and its head against the sentence length.  The table holds only
lines that recurred, so a corpus where no row repeats leaves it empty.
"""
from __future__ import annotations

import io
import itertools
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, TextIO

log = logging.getLogger(__name__)


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


def _columns(line: str, lineno: int, source: str | None) -> list[str]:
    """A token line's ten columns: the one place a row is split."""
    cols = line.split("\t")
    if len(cols) != 10:
        raise ConlluParseError(
            f"expected 10 tab-separated columns, got {len(cols)}", lineno, source)
    return cols


def _misplaced(index: int, expected: int, lineno: int, source: str | None) -> ConlluParseError:
    return ConlluParseError(
        f"token id {index} breaks 1..n ordering (expected {expected})", lineno, source)


def _sentence_tokens(rows: list[tuple[int, str, list[str] | Token]], source: str | None,
                     shared: dict, lines: dict[str, Token]) -> tuple[Token, ...]:
    """Check and build one sentence's tokens from its (line number, raw
    line, columns) rows: each row in order, then every head against the
    sentence length.  `shared` is the parse's one object per value: a row
    equal to an earlier one is that row's Token (a Token equals and hashes
    as the tuple of its fields), and a new Token takes its strings from the
    shared ones.  A parsed row that is an earlier row's Token files its raw
    line in `lines`, the parse's table of recurring lines.  A row read from
    that table holds its Token in place of its columns; the Token passed
    every check that does not depend on the sentence, so only its index is
    checked against its position."""
    share = shared.setdefault
    tokens: list[Token] = []
    for expected, (lineno, line, cols) in enumerate(rows, start=1):
        if type(cols) is Token:
            if cols.index != expected:
                raise _misplaced(cols.index, expected, lineno, source)
            tokens.append(cols)
            continue
        try:
            index = int(cols[0])
        except ValueError:
            raise ConlluParseError(f"non-integer token id {cols[0]!r}", lineno, source) from None
        if index != expected:
            raise _misplaced(index, expected, lineno, source)
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
        token = shared.get((index, cols[1], lemma, cols[3], head, cols[7]))
        if token is None:
            token = Token(index, share(cols[1], cols[1]), share(lemma, lemma),
                          share(cols[3], cols[3]), head, share(cols[7], cols[7]))
            shared[token] = token
        else:
            lines[line] = token
        tokens.append(token)
    n = len(tokens)
    for (lineno, _, _), tok in zip(rows, tokens):
        if tok.head > n:
            raise ConlluParseError(
                f"head {tok.head} out of range for {n}-token sentence", lineno, source)
    return tuple(tokens)


def _claim(ids: set[str], kind: str, value: str, lineno: int, source: str | None) -> None:
    if value in ids:
        raise ConlluParseError(f"duplicate {kind} id {value!r}", lineno, source)
    ids.add(value)


def parse_conllu(
    text: str | TextIO,
    default_doc_id: str = "doc",
    source: str | None = None,
) -> Corpus:
    """Parse a CoNLL-U character stream into a Corpus, by the rules in the
    module docstring; multiword-range (``1-2``) and empty-node (``5.1``)
    lines are skipped."""
    return Corpus(documents=tuple(_parse(text, default_doc_id, source, set(), set()).documents))


class _Parse(NamedTuple):
    documents: list[tuple[str, tuple[Sentence, ...]]]
    rows: int     # distinct token rows, one Token each
    served: int   # token lines read from the table of recurring lines


def _parse(text: str | TextIO, default_doc_id: str, source: str | None,
           document_ids: set[str], sentence_ids: set[str]) -> _Parse:
    """``parse_conllu``'s documents.  ``document_ids`` and ``sentence_ids``
    hold the ids taken so far, by earlier files too: a repeat fails at the
    line that closes its sentence or opens its document."""
    stream = io.StringIO(text) if isinstance(text, str) else text
    documents: dict[str, list[Sentence]] = {}  # by id, in input order
    doc_id, sents = default_doc_id, []  # the open document
    shared: dict = {}  # one object per field value and per token row
    lines: dict[str, Token] = {}  # a recurring token line's raw text and its Token
    served = 0
    # (line number, raw line, columns or a recurring line's Token) of the open sentence
    rows: list[tuple[int, str, list[str] | Token]] = []
    sent_id: str | None = None
    unnamed_docs = 0
    # the blank line chained after the input closes the last sentence
    for lineno, raw in enumerate(itertools.chain(stream, [""]), start=1):
        token = lines.get(raw)
        if token is not None:
            rows.append((lineno, raw, token))
            served += 1
            continue
        line = raw.rstrip("\n")
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            key = key.strip()
            if key == "sent_id" and eq and not rows:
                sent_id = value.strip()
            if key not in ("newdoc", "newdoc id"):
                continue
        elif line.strip():
            cols = _columns(line, lineno, source)
            if "-" not in cols[0] and "." not in cols[0]:  # multiword range / empty node
                rows.append((lineno, raw, cols))
            continue
        # a blank line or a newdoc comment closes the open sentence
        if rows:
            if not documents:  # a sentence before any newdoc opens the default document
                _claim(document_ids, "document", doc_id, lineno, source)
                documents[doc_id] = sents
            sentence = Sentence(id=sent_id or f"{doc_id}.s{len(sents) + 1}",
                                tokens=_sentence_tokens(rows, source, shared, lines))
            _claim(sentence_ids, "sentence", sentence.id, lineno, source)
            sents.append(sentence)
            rows = []
        sent_id = None
        if line.startswith("#"):  # newdoc: open the next document
            if not eq:
                unnamed_docs += 1
            doc_id = value.strip() if eq else f"{default_doc_id}{unnamed_docs}"
            _claim(document_ids, "document", doc_id, lineno, source)
            sents = documents[doc_id] = []
    return _Parse([(d, tuple(s)) for d, s in documents.items()],
                  sum(type(value) is Token for value in shared.values()), served)


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


def load_corpus(path: str | Path) -> Corpus:
    """Load one corpus from a .conllu file or a directory of them.

    A file loads as a directory holding only that file.  Every
    ``*.conllu`` file in a directory contributes its documents, in sorted
    filename order; document and sentence ids are unique across the files,
    as they are within one.
    """
    path = Path(path)
    files = [path] if path.is_file() else sorted(path.glob("*.conllu"))
    if not files:
        raise FileNotFoundError(f"no .conllu files under {path}")
    documents: list[tuple[str, tuple[Sentence, ...]]] = []
    document_ids: set[str] = set()
    sentence_ids: set[str] = set()
    for f in files:
        # utf-8-sig: a leading byte-order mark is not part of the first line
        with open(f, encoding="utf-8-sig") as stream:
            parse = _parse(stream, f.stem, str(f), document_ids, sentence_ids)
        sentences = [sent for _, sents in parse.documents for sent in sents]
        log.info("%s: %d sentences, %d tokens, %d distinct token rows, "
                 "%d token lines served from the table of recurring lines",
                 f, len(sentences), sum(map(len, sentences)), parse.rows, parse.served)
        documents += parse.documents
    return Corpus(documents=tuple(documents))
