import io
from collections import Counter

import pytest

from termforge.corpus import load_corpus, parse_conllu
from termforge.extraction import (
    SCHEMES,
    Couple,
    ExtractionConfig,
    Role,
    assemble_np,
    extract_corpus,
    extract_couples,
    read_couples_tsv,
    write_couples_tsv,
)
from util import conllu_sentence, join_sentences


def as_triples(couples):
    return {(c.vpc, c.role, c.np) for c in couples}


def parse_one(rows):
    corpus = parse_conllu(conllu_sentence(rows) + "\n")
    return next(corpus.sentences())


def test_demo_file_first_sentence(demo_path):
    corpus = load_corpus(demo_path)
    first = next(corpus.sentences())
    assert as_triples(extract_couples(first)) == {
        ("extract", Role.SUBJECT, "ontowrapper"),
        ("extract", Role.OBJECT, "information"),
        ("extract_from", Role.OBJECT, "on-line resource"),
    }


def test_demo_file_second_sentence(demo_path):
    corpus = load_corpus(demo_path)
    second = list(corpus.sentences())[1]
    assert as_triples(extract_couples(second)) == {
        ("travel", Role.SUBJECT, "bart"),
        ("travel_by", Role.OBJECT, "boat"),
    }


def test_passive_subject_becomes_object():
    sent = parse_one([
        (1, "The", "the", "DET", 2, "det"),
        (2, "ontology", "ontology", "NOUN", 4, "nsubjpass"),
        (3, "was", "be", "AUX", 4, "auxpass"),
        (4, "built", "build", "VERB", 0, "root"),
    ])
    assert as_triples(extract_couples(sent)) == {("build", Role.OBJECT, "ontology")}


def test_passive_agent_through_preposition():
    sent = parse_one([
        (1, "Ontologies", "ontology", "NOUN", 3, "nsubjpass"),
        (2, "are", "be", "AUX", 3, "auxpass"),
        (3, "built", "build", "VERB", 0, "root"),
        (4, "by", "by", "ADP", 3, "prep"),
        (5, "engineers", "engineer", "NOUN", 4, "pobj"),
    ])
    assert as_triples(extract_couples(sent)) == {
        ("build", Role.OBJECT, "ontology"),
        ("build_by", Role.OBJECT, "engineer"),
    }


def test_np_is_contiguous_modifier_run_plus_head():
    sent = parse_one([
        (1, "The", "the", "DET", 4, "det"),
        (2, "old", "old", "ADJ", 4, "amod"),
        (3, "jazz", "jazz", "NOUN", 4, "compound"),
        (4, "guitar", "guitar", "NOUN", 5, "nsubj"),
        (5, "sings", "sing", "VERB", 0, "root"),
    ])
    assert as_triples(extract_couples(sent)) == {("sing", Role.SUBJECT, "old jazz guitar")}


def test_np_run_breaks_on_non_modifier_token():
    # "red" is separated from the head by a determiner, so only "red car" counts
    sent = parse_one([
        (1, "old", "old", "ADJ", 4, "amod"),
        (2, "the", "the", "DET", 4, "det"),
        (3, "red", "red", "ADJ", 4, "amod"),
        (4, "car", "car", "NOUN", 5, "nsubj"),
        (5, "stops", "stop", "VERB", 0, "root"),
    ])
    sentence_np = assemble_np(sent, sent.token_at(4))
    assert sentence_np == "red car"


def test_np_run_requires_attachment_to_the_head():
    # "dog" modifies "food", not "bowl", so it stays out of the bowl NP
    sent = parse_one([
        (1, "dog", "dog", "NOUN", 2, "compound"),
        (2, "food", "food", "NOUN", 3, "compound"),
        (3, "bowl", "bowl", "NOUN", 4, "nsubj"),
        (4, "tips", "tip", "VERB", 0, "root"),
    ])
    assert assemble_np(sent, sent.token_at(3)) == "food bowl"


def test_np_keys_are_lemma_lowercased():
    sent = parse_one([
        (1, "OntoWrapper", "OntoWrapper", "PROPN", 2, "nsubj"),
        (2, "runs", "run", "VERB", 0, "root"),
    ])
    assert as_triples(extract_couples(sent)) == {("run", Role.SUBJECT, "ontowrapper")}


def test_non_verb_heads_yield_nothing():
    sent = parse_one([
        (1, "Skies", "sky", "NOUN", 3, "nsubj"),
        (2, "are", "be", "AUX", 3, "cop"),
        (3, "blue", "blue", "ADJ", 0, "root"),
    ])
    assert extract_couples(sent) == []


SUBORDINATE = [
    (1, "He", "he", "PRON", 2, "nsubj"),
    (2, "left", "leave", "VERB", 0, "root"),
    (3, "because", "because", "SCONJ", 5, "mark"),
    (4, "rain", "rain", "NOUN", 5, "nsubj"),
    (5, "fell", "fall", "VERB", 2, "advcl"),
]


def test_root_only_skips_subordinate_verbs():
    sent = parse_one(SUBORDINATE)
    assert as_triples(extract_couples(sent)) == {
        ("leave", Role.SUBJECT, "he"),
        ("fall", Role.SUBJECT, "rain"),
    }
    restricted = ExtractionConfig.spacy(root_only=True)
    assert as_triples(extract_couples(sent, restricted)) == {
        ("leave", Role.SUBJECT, "he"),
    }


def test_ud_scheme_case_marked_obliques():
    sent = parse_one([
        (1, "Bart", "bart", "PROPN", 2, "nsubj"),
        (2, "travels", "travel", "VERB", 0, "root"),
        (3, "by", "by", "ADP", 4, "case"),
        (4, "boat", "boat", "NOUN", 2, "obl"),
    ])
    ud = SCHEMES["ud"]()
    assert as_triples(extract_couples(sent, ud)) == {
        ("travel", Role.SUBJECT, "bart"),
        ("travel_by", Role.OBJECT, "boat"),
    }
    # the spaCy scheme does not know "obl"/"case" and sees only the subject
    assert as_triples(extract_couples(sent)) == {("travel", Role.SUBJECT, "bart")}


def test_ud_scheme_passive_and_object_labels():
    sent = parse_one([
        (1, "ontology", "ontology", "NOUN", 3, "nsubj:pass"),
        (2, "is", "be", "AUX", 3, "aux:pass"),
        (3, "built", "build", "VERB", 0, "root"),
    ])
    ud = SCHEMES["ud"]()
    assert as_triples(extract_couples(sent, ud)) == {("build", Role.OBJECT, "ontology")}


def test_duplicate_couples_are_kept_as_frequencies():
    sent = conllu_sentence([
        (1, "cats", "cat", "NOUN", 2, "nsubj"),
        (2, "purr", "purr", "VERB", 0, "root"),
    ])
    corpus = parse_conllu(join_sentences([sent, sent.replace("cats", "Cats")]))
    couples = extract_corpus(corpus)
    assert len(couples) == 2
    # the two couples differ only in their sentence ids
    assert Counter((c.vpc, c.role, c.np) for c in couples)[("purr", Role.SUBJECT, "cat")] == 2


def test_mini_corpus_couple_count(mini_corpus):
    couples = extract_corpus(mini_corpus)
    assert len(couples) == 106
    assert "guitar" in {c.np for c in couples}
    assert "perform_in" in {c.vpc for c in couples}


def test_tsv_round_trip(tmp_path, mini_corpus):
    couples = extract_corpus(mini_corpus)
    out = tmp_path / "couples.tsv"
    write_couples_tsv(couples, out)
    assert read_couples_tsv(out) == couples


def test_tsv_header_written_and_auto_detected(tmp_path, mini_corpus):
    couples = extract_corpus(mini_corpus)
    out = tmp_path / "couples.tsv"
    write_couples_tsv(couples, out, header=True)
    first = out.read_text().splitlines()[0]
    assert first == "vpc\trole\tnp\tsentence_id"
    assert read_couples_tsv(out) == couples


def test_tsv_reader_rejects_bad_role():
    bad = io.StringIO("run\tdonkey\tcat\ts1\n")
    with pytest.raises(ValueError, match="line 1: unknown role 'donkey'"):
        read_couples_tsv(bad)


def test_tsv_reader_rejects_wrong_field_count():
    bad = io.StringIO("run\tsubject\tcat\n")
    with pytest.raises(ValueError, match="expected 4 fields, got 3"):
        read_couples_tsv(bad)


def test_vpc_key_and_round_trip_of_prepositional_keys():
    couples = (Couple("travel_by", Role.OBJECT, "boat", "s1"),)
    buf = io.StringIO()
    write_couples_tsv(couples, buf)
    buf.seek(0)
    back = read_couples_tsv(buf)
    # couples are immutable values: equal and hashed alike when read back
    assert back == couples and hash(back) == hash(couples)
    with pytest.raises(AttributeError):
        couples[0].vpc = "travel"


def test_round_trip_of_verb_lemmas_with_underscores():
    # the key is read back whole, never split at its first "_"
    corpus = parse_conllu(join_sentences([
        conllu_sentence([
            (1, "Bart", "bart", "PROPN", 2, "nsubj"),
            (2, "e-mailed", "e_mail", "VERB", 0, "root"),
            (3, "Lisa", "lisa", "PROPN", 2, "dobj"),
        ]),
        conllu_sentence([
            (1, "Bart", "bart", "PROPN", 2, "nsubj"),
            (2, "set", "set_up", "VERB", 0, "root"),
            (3, "with", "with", "ADP", 2, "prep"),
            (4, "tools", "tool", "NOUN", 3, "pobj"),
        ]),
    ]))
    couples = extract_corpus(corpus)
    assert as_triples(couples) == {
        ("e_mail", Role.SUBJECT, "bart"),
        ("e_mail", Role.OBJECT, "lisa"),
        ("set_up", Role.SUBJECT, "bart"),
        ("set_up_with", Role.OBJECT, "tool"),
    }
    buf = io.StringIO()
    write_couples_tsv(couples, buf, header=True)
    buf.seek(0)
    assert read_couples_tsv(buf) == couples

