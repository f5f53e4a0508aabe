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

from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Sequence

from .corpus import Corpus, Sentence, Token


class Role(Enum):
    SUBJECT = "subject"
    OBJECT = "object"


class Couple(NamedTuple):
    vpc: str           # VPC key: the verb lemma, or verb_prep for a fused preposition
    role: Role
    np: str            # normalized noun-phrase key
    sentence_id: str


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
    pieces = [head.lemma]
    for tok in reversed(sentence.tokens[:head.index - 1]):
        if tok.head != head.index or tok.deprel.lower() not in config.np_modifier_labels:
            break
        pieces.append(tok.lemma)
    return normalize_np_text(" ".join(reversed(pieces)))


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
        for dep in children.get(verb.index, []):
            deprel = dep.deprel.lower()
            # (preposition or None, role, NP head) of each couple the dependent gives
            if deprel in config.subject_labels:
                found = [(None, Role.SUBJECT, dep)]
            elif deprel in config.object_labels \
                    or deprel in config.passive_subject_labels:
                # passive subjects are recorded as direct objects
                found = [(None, Role.OBJECT, dep)]
            elif deprel in config.preposition_labels:
                found = [(dep.lemma, Role.OBJECT, grandchild)
                         for grandchild in children.get(dep.index, [])
                         if grandchild.deprel.lower() in config.prep_object_labels]
            elif deprel in config.oblique_labels:
                found = [(marker.lemma, Role.OBJECT, dep)
                         for marker in children.get(dep.index, [])
                         if marker.deprel.lower() in config.case_labels]
            else:
                continue
            for preposition, role, head in found:
                vpc = verb.lemma if preposition is None else f"{verb.lemma}_{preposition}"
                couples.append(Couple(vpc, role, assemble_np(sentence, head, config), sentence.id))
    return couples


def extract_corpus(corpus: Corpus, config: ExtractionConfig = DEFAULT_CONFIG) -> tuple[Couple, ...]:
    """Every sentence's couples, in corpus order; duplicates are frequencies.
    A corpus that yields none is an error."""
    couples = tuple(c for sentence in corpus.sentences() for c in extract_couples(sentence, config))
    return _require_couples(couples, "the corpus")


def _require_couples(couples: tuple[Couple, ...], source: str | Path) -> tuple[Couple, ...]:
    """``couples``, unless there are none: no later stage has rows to work on."""
    if not couples:
        raise ValueError(f"no couples extracted from {source}")
    return couples


COUPLES_HEADER = ("vpc", "role", "np", "sentence_id")


def write_couples_tsv(couples: Sequence[Couple], path: str | Path) -> None:
    """TSV: the header line ``vpc  role  np  sentence_id``, then one line
    ``vpc_key  role  np_text  sentence_id`` per occurrence."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(COUPLES_HEADER) + "\n")
        for c in couples:
            fh.write(f"{c.vpc}\t{c.role.value}\t{c.np}\t{c.sentence_id}\n")


def read_couples_tsv(path: str | Path) -> tuple[Couple, ...]:
    """Read the TSV format back; a leading header line is auto-detected.
    A file that holds no couple is an error."""
    couples: list[Couple] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"couples TSV line {lineno}: expected 4 fields, got {len(parts)}")
            vpc, role_txt, np_text, sentence_id = parts
            if lineno == 1 and tuple(parts) == COUPLES_HEADER:
                continue
            try:
                role = Role(role_txt)
            except ValueError:
                raise ValueError(f"couples TSV line {lineno}: unknown role {role_txt!r}") from None
            if not vpc:
                raise ValueError(f"couples TSV line {lineno}: empty vpc")
            np_key = normalize_np_text(np_text)
            if not np_key:
                raise ValueError(f"couples TSV line {lineno}: empty np")
            couples.append(Couple(vpc, role, np_key, sentence_id))
    return _require_couples(tuple(couples), path)
