"""Skeleton co-occurrence couple extraction.

For every verbal head in a sentence we record which noun phrases act as its
subject or object, and which noun phrases hang off one of its prepositions.
A verb fused with such a preposition forms a verb-preposition combination
(VPC) keyed ``verb_prep``.  Passive subjects are rewritten to direct objects,
so the only roles that survive extraction are Subject and Object.

Two dependency-label schemes are supported: the spaCy-style scheme
(``nsubj``/``nsubjpass``/``dobj`` with ``prep``->``pobj`` chains), which is
the default, and a UD-style scheme (``nsubj``/``nsubj:pass``/``obj`` with
case-marked ``obl``/``nmod`` nominals).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import TextIO

from .corpus import Corpus, Sentence, Token


class Role(Enum):
    SUBJECT = "subject"
    OBJECT = "object"


@dataclass(frozen=True)
class Vpc:
    verb_lemma: str
    preposition: str | None = None

    @property
    def key(self) -> str:
        if self.preposition is None:
            return self.verb_lemma
        return f"{self.verb_lemma}_{self.preposition}"


@dataclass(frozen=True)
class Couple:
    vpc: Vpc
    role: Role
    np: str            # normalized noun-phrase key
    sentence_id: str


@dataclass(frozen=True)
class CoupleSet:
    """Multiset of couples; duplicates are frequencies."""

    couples: tuple[Couple, ...]

    def counts(self) -> Counter:
        return Counter((c.vpc.key, c.role, c.np) for c in self.couples)

    def np_keys(self) -> list[str]:
        return sorted({c.np for c in self.couples})

    def vpc_keys(self) -> list[str]:
        return sorted({c.vpc.key for c in self.couples})

    def __len__(self) -> int:
        return len(self.couples)


@dataclass(frozen=True)
class ExtractionConfig:
    subject_labels: frozenset[str] = frozenset({"nsubj"})
    passive_subject_labels: frozenset[str] = frozenset({"nsubjpass"})
    object_labels: frozenset[str] = frozenset({"dobj"})
    preposition_labels: frozenset[str] = frozenset({"prep"})
    prep_object_labels: frozenset[str] = frozenset({"pobj"})
    oblique_labels: frozenset[str] = frozenset()
    case_labels: frozenset[str] = frozenset()
    np_modifier_labels: frozenset[str] = frozenset({"compound", "flat", "amod"})
    root_only: bool = False
    root_labels: frozenset[str] = frozenset({"root"})

    def __post_init__(self) -> None:
        # dependency labels match case-insensitively: fold them once here
        for field in fields(self):
            labels = getattr(self, field.name)
            if isinstance(labels, frozenset):
                object.__setattr__(self, field.name,
                                   frozenset(label.lower() for label in labels))

    @staticmethod
    def spacy(root_only: bool = False) -> "ExtractionConfig":
        return ExtractionConfig(root_only=root_only)

    @staticmethod
    def ud(root_only: bool = False) -> "ExtractionConfig":
        """UD-style labels: prepositions are case children of obl/nmod."""
        return ExtractionConfig(
            subject_labels=frozenset({"nsubj"}),
            passive_subject_labels=frozenset({"nsubj:pass"}),
            object_labels=frozenset({"obj"}),
            preposition_labels=frozenset(),
            prep_object_labels=frozenset(),
            oblique_labels=frozenset({"obl", "nmod"}),
            case_labels=frozenset({"case"}),
            root_only=root_only,
        )


DEFAULT_CONFIG = ExtractionConfig.spacy()

SCHEMES = {"spacy": ExtractionConfig.spacy, "ud": ExtractionConfig.ud}


def normalize_np_text(text: str) -> str:
    return " ".join(text.lower().split())


def assemble_np(sentence: Sentence, head: Token, config: ExtractionConfig = DEFAULT_CONFIG) -> str:
    """Noun-phrase key for ``head``: the contiguous run of compound/flat/amod
    dependents immediately preceding the head, then the head, as lemmas."""
    pieces: list[str] = []
    pos = head.index - 1
    while pos >= 1:
        tok = sentence.token_at(pos)
        if tok.head == head.index and tok.deprel.lower() in config.np_modifier_labels:
            pieces.append(tok.lemma)
            pos -= 1
        else:
            break
    pieces.reverse()
    pieces.append(head.lemma)
    return normalize_np_text(" ".join(pieces))


def extract_couples(sentence: Sentence, config: ExtractionConfig = DEFAULT_CONFIG) -> list[Couple]:
    """All couples of one sentence, in (verb position, dependent position) order.

    Sentences without a verbal head yield an empty list.
    """
    children: dict[int, list[Token]] = {}
    for tok in sentence.tokens:
        children.setdefault(tok.head, []).append(tok)

    couples: list[Couple] = []
    for verb in sentence.tokens:
        if verb.upos != "VERB":
            continue
        if config.root_only and verb.deprel.lower() not in config.root_labels:
            continue
        base = Vpc(verb.lemma)
        for dep in children.get(verb.index, []):
            deprel = dep.deprel.lower()
            if deprel in config.subject_labels:
                couples.append(Couple(base, Role.SUBJECT, assemble_np(sentence, dep, config), sentence.id))
            elif deprel in config.object_labels \
                    or deprel in config.passive_subject_labels:
                # passive subjects are recorded as direct objects
                couples.append(Couple(base, Role.OBJECT, assemble_np(sentence, dep, config), sentence.id))
            elif deprel in config.preposition_labels:
                fused = Vpc(verb.lemma, dep.lemma)
                for grandchild in children.get(dep.index, []):
                    if grandchild.deprel.lower() in config.prep_object_labels:
                        couples.append(Couple(fused, Role.OBJECT, assemble_np(sentence, grandchild, config), sentence.id))
            elif deprel in config.oblique_labels:
                for marker in children.get(dep.index, []):
                    if marker.deprel.lower() in config.case_labels:
                        fused = Vpc(verb.lemma, marker.lemma)
                        couples.append(Couple(fused, Role.OBJECT, assemble_np(sentence, dep, config), sentence.id))
    return couples


def extract_corpus(corpus: Corpus, config: ExtractionConfig = DEFAULT_CONFIG) -> CoupleSet:
    couples: list[Couple] = []
    for sentence in corpus.sentences():
        couples.extend(extract_couples(sentence, config))
    return CoupleSet(couples=tuple(couples))


COUPLES_HEADER = ("vpc", "role", "np", "sentence_id")


def write_couples_tsv(couples: CoupleSet, out: str | Path | TextIO, header: bool = False) -> None:
    """TSV: ``vpc_key  role  np_text  sentence_id``, one line per occurrence."""
    def _write(fh: TextIO) -> None:
        if header:
            fh.write("\t".join(COUPLES_HEADER) + "\n")
        for c in couples.couples:
            fh.write(f"{c.vpc.key}\t{c.role.value}\t{c.np}\t{c.sentence_id}\n")

    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8") as fh:
            _write(fh)
    else:
        _write(out)


def read_couples_tsv(source: str | Path | TextIO) -> CoupleSet:
    """Read the TSV format back; a leading header line is auto-detected."""
    def _read(fh: TextIO) -> CoupleSet:
        couples: list[Couple] = []
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"couples TSV line {lineno}: expected 4 fields, got {len(parts)}")
            vpc_key, role_txt, np_text, sentence_id = parts
            if lineno == 1 and tuple(parts) == COUPLES_HEADER:
                continue
            try:
                role = Role(role_txt)
            except ValueError:
                raise ValueError(f"couples TSV line {lineno}: unknown role {role_txt!r}") from None
            verb, sep, preposition = vpc_key.partition("_")
            vpc = Vpc(verb, preposition) if sep else Vpc(verb)
            couples.append(Couple(vpc, role, normalize_np_text(np_text), sentence_id))
        return CoupleSet(couples=tuple(couples))

    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            return _read(fh)
    return _read(source)
