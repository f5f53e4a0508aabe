"""Seeded synthetic CoNLL-U corpora with a planted concept structure.

Every noun belongs to one of ``concepts`` planted concepts.  Every verb has
a subject concept and an object concept, and every (verb, preposition) pair
a concept for the prepositional object.  A clause draws its verb first and
then each argument noun from the concept the verb prefers (with probability
``1 - _NOISE``) or from a uniformly drawn concept.  Nouns of one concept
therefore share their verb contexts, which is the structure the NP x VPC
representations should recover and the gold TSV records.

Optional parts shape the other layers: ``modifier_rate`` turns a share of
the phrases headed by the ``modifier_nouns`` most frequent nouns of each
concept into ``adjective noun`` keys (more matrix rows, each frequent enough
to pass the sigma1 cut on every seed), and ``fillers_per_sentence``
appends adverbs drawn from a ``filler_lemmas`` vocabulary (longer sentences
and a larger skip-gram vocabulary, no extra couples).  The same spec and
seed always give the same bytes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
_PREPOSITIONS = ("in", "on", "with", "for", "from", "into")
_DOC_SENTENCES = 500
_PP_RATE = 0.5        # share of clauses with a prepositional object
_NOISE = 0.1          # share of arguments drawn from a random concept


@dataclass(frozen=True)
class CorpusSpec:
    sentences: int
    concepts: int
    nouns_per_concept: int
    verbs: int
    modifier_rate: float = 0.0    # share of eligible noun phrases with an adjective
    adjectives: int = 0
    modifier_nouns: int = 0       # the most frequent nouns per concept are eligible
    filler_lemmas: int = 0
    fillers_per_sentence: int = 0


@dataclass(frozen=True)
class CorpusStats:
    sentences: int
    tokens: int
    noun_phrases: int             # distinct NP keys written, all in the gold TSV
    vpcs: int                     # distinct verb and verb_prep keys written


def _words(rng: random.Random, count: int, syllables: int) -> list[str]:
    """``count`` distinct pseudo-words of ``syllables`` syllables each."""
    space = len(_SYLLABLES) ** syllables
    out = []
    for code in rng.sample(range(space), count):
        parts = []
        for _ in range(syllables):
            code, r = divmod(code, len(_SYLLABLES))
            parts.append(_SYLLABLES[r])
        out.append("".join(parts))
    return out


def _row(index, lemma, upos, head, deprel) -> str:
    return f"{index}\t{lemma}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_"


def generate(spec: CorpusSpec, seed: int, corpus_path: Path,
             gold_path: Path) -> CorpusStats:
    """Write the corpus and its gold TSV (``term<TAB>concept``)."""
    rng = random.Random(seed)
    # disjoint vocabularies: one draw, then split
    n_nouns = spec.concepts * spec.nouns_per_concept
    pool = _words(rng, n_nouns + spec.verbs + spec.adjectives + spec.filler_lemmas, 3)
    nouns = pool[:n_nouns]
    verbs = pool[n_nouns:n_nouns + spec.verbs]
    adjectives = pool[n_nouns + spec.verbs:n_nouns + spec.verbs + spec.adjectives]
    fillers = pool[n_nouns + spec.verbs + spec.adjectives:]

    by_concept = [nouns[c * spec.nouns_per_concept:(c + 1) * spec.nouns_per_concept]
                  for c in range(spec.concepts)]
    # Zipf-like noun frequencies inside a concept; at the workloads' sizes
    # even the rarest noun passes the sigma1 cut
    noun_weights = [1.0 / (r + 1) ** 0.5 for r in range(spec.nouns_per_concept)]
    subject_of = [rng.randrange(spec.concepts) for _ in verbs]
    object_of = [rng.randrange(spec.concepts) for _ in verbs]
    pobj_of = {(v, p): rng.randrange(spec.concepts)
               for v in range(spec.verbs) for p in _PREPOSITIONS}
    filler_weights = [1.0 / (r + 1) for r in range(spec.filler_lemmas)]

    concept_of: dict[str, int] = {}
    vpcs: set[str] = set()

    def noun_phrase(preferred: int) -> list[str]:
        concept = preferred if rng.random() >= _NOISE else rng.randrange(spec.concepts)
        rank = rng.choices(range(spec.nouns_per_concept), noun_weights)[0]
        words = [by_concept[concept][rank]]
        if rank < spec.modifier_nouns and rng.random() < spec.modifier_rate:
            words.insert(0, rng.choice(adjectives))
        concept_of[" ".join(words)] = concept
        return words

    def place(words: list[str], head_of_phrase: int, deprel: str,
              rows: list[tuple]) -> None:
        """Append the determiner, the modifiers and the head noun."""
        head_index = len(rows) + 1 + len(words)   # after the determiner
        rows.append(("the", "DET", head_index, "det"))
        for mod in words[:-1]:
            rows.append((mod, "ADJ", head_index, "amod"))
        rows.append((words[-1], "NOUN", head_of_phrase, deprel))

    lines: list[str] = []
    tokens = 0
    for s in range(spec.sentences):
        if s % _DOC_SENTENCES == 0:
            lines.append(f"# newdoc id = d{s // _DOC_SENTENCES}")
        v = rng.randrange(spec.verbs)
        subj = noun_phrase(subject_of[v])
        obj = noun_phrase(object_of[v])
        verb_index = len(subj) + 2
        rows: list[tuple] = []
        place(subj, verb_index, "nsubj", rows)
        rows.append((verbs[v], "VERB", 0, "ROOT"))
        place(obj, verb_index, "dobj", rows)
        vpcs.add(verbs[v])
        if rng.random() < _PP_RATE:
            prep = rng.choice(_PREPOSITIONS)
            pobj = noun_phrase(pobj_of[(v, prep)])
            rows.append((prep, "ADP", verb_index, "prep"))
            place(pobj, len(rows), "pobj", rows)
            vpcs.add(f"{verbs[v]}_{prep}")
        for _ in range(spec.fillers_per_sentence):
            rows.append((rng.choices(fillers, filler_weights)[0], "ADV",
                         verb_index, "advmod"))
        rows.append((".", "PUNCT", verb_index, "punct"))
        lines.append(f"# sent_id = s{s}")
        lines.extend(_row(i, *r) for i, r in enumerate(rows, start=1))
        lines.append("")
        tokens += len(rows)

    corpus_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    gold_path.write_text(
        "".join(f"{key}\tC{concept_of[key]}\n" for key in sorted(concept_of)),
        encoding="utf-8")
    return CorpusStats(sentences=spec.sentences, tokens=tokens,
                       noun_phrases=len(concept_of), vpcs=len(vpcs))
