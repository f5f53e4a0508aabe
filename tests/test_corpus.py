import logging
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from termforge import corpus as corpus_module
from termforge.corpus import (
    ConlluParseError,
    Corpus,
    corpus_stats,
    load_corpus,
    parse_conllu,
    to_conllu,
)
from util import conllu_sentence, conllu_token, join_sentences

NOUN_ROW = (1, "Cats", "cat", "NOUN", 0, "root")


def test_single_sentence_no_comments():
    corpus = parse_conllu(conllu_sentence([NOUN_ROW]) + "\n")
    assert corpus.n_documents == 1
    doc_id, sents = corpus.documents[0]
    assert doc_id == "doc"
    assert len(sents) == 1
    assert sents[0].id == "doc.s1"
    tok = sents[0].tokens[0]
    assert (tok.form, tok.lemma, tok.upos, tok.head, tok.deprel) == (
        "Cats", "cat", "NOUN", 0, "root")
    with pytest.raises(AttributeError):
        tok.lemma = "dog"


def test_lemma_lowercased_and_form_fallback():
    rows = [(1, "Paris", "_", "PROPN", 2, "nsubj"),
            (2, "Shines", "SHINE", "VERB", 0, "root")]
    corpus = parse_conllu(conllu_sentence(rows) + "\n")
    sent = next(corpus.sentences())
    assert sent.tokens[0].lemma == "paris"   # "_" falls back to the form
    assert sent.tokens[1].lemma == "shine"


def test_equal_field_values_are_one_object_within_a_parse():
    # lemmas lowercased from a capitalised lemma or from the form ("_")
    # are shared like the fields read as they are
    sentences = [
        [(1, "Paris", "_", "PROPN", 2, "nsubj"), (2, "shines", "SHINE", "VERB", 0, "root")],
        [(1, "Paris", "PARIS", "PROPN", 2, "nsubj"), (2, "shine", "shine", "VERB", 0, "root")],
        [(1, "paris", "paris", "PROPN", 2, "nsubj"), (2, "Shines", "_", "VERB", 0, "root")],
    ]
    corpus = parse_conllu(join_sentences([conllu_sentence(rows) for rows in sentences]))
    tokens = [tok for sent in corpus.sentences() for tok in sent.tokens]
    for field in ("form", "lemma", "upos", "deprel"):
        first: dict[str, str] = {}
        for tok in tokens:
            value = getattr(tok, field)
            assert value is first.setdefault(value, value), (field, value)
    assert {tok.lemma for tok in tokens} == {"paris", "shine", "shines"}


def test_equal_token_rows_are_one_object_within_a_parse():
    # "." at 3 attached to 2 recurs across sentences and documents; each
    # row of document b after the first differs from a row of a in one
    # modelled field
    text = "\n".join([
        "# newdoc id = a",
        conllu_token(1, "Cats", "cat", "NOUN", 2, "nsubj"),
        conllu_token(2, "sleep", "sleep", "VERB", 0, "root"),
        conllu_token(3, ".", ".", "PUNCT", 2, "punct"),
        "",
        conllu_token(1, "Dogs", "dog", "NOUN", 2, "nsubj"),
        conllu_token(2, "sleep", "sleep", "VERB", 0, "root"),
        conllu_token(3, ".", ".", "PUNCT", 2, "punct"),
        "",
        "# newdoc id = b",
        conllu_token(1, "Cats", "cat", "NOUN", 2, "nsubj"),
        conllu_token(2, "Sleep", "sleep", "VERB", 0, "root"),
        conllu_token(3, ".", ".", "PUNCT", 1, "punct"),
        conllu_token(4, ".", ".", "PUNCT", 2, "punct"),
        "",
    ])
    a1, a2, b1 = (sent.tokens for sent in parse_conllu(text).sentences())
    assert a1[1] is a2[1] and a1[2] is a2[2]     # across sentences
    assert a1[0] is b1[0]                        # across documents
    assert b1[1] is not a1[1]                    # form case
    assert b1[2] is not a1[2]                    # head
    assert b1[3] is not a1[2]                    # index
    assert [tok.index for tok in b1] == [1, 2, 3, 4]
    assert [tok.head for tok in b1] == [2, 0, 1, 2]


def test_a_token_shared_with_a_longer_sentence_is_checked_in_each():
    # row 1 with head 3 is valid in the first sentence and the same row
    # is out of range in the two-token second one
    text = "\n".join([
        conllu_token(1, "big", "big", "ADJ", 3, "amod"),
        conllu_token(2, "red", "red", "ADJ", 3, "amod"),
        conllu_token(3, "cats", "cat", "NOUN", 0, "root"),
        "",
        conllu_token(1, "big", "big", "ADJ", 3, "amod"),
        conllu_token(2, "cats", "cat", "NOUN", 0, "root"),
        "",
    ])
    with pytest.raises(ConlluParseError,
                       match="head 3 out of range for 2-token sentence") as exc:
        parse_conllu(text)
    assert exc.value.line_number == 5


def _count_splits(monkeypatch) -> list[str]:
    """The lines that `corpus._columns`, the one place a row is split, splits."""
    split = []
    columns = corpus_module._columns

    def counting(line, lineno, source):
        split.append(line)
        return columns(line, lineno, source)
    monkeypatch.setattr(corpus_module, "_columns", counting)
    return split


def test_a_recurring_line_is_split_at_first_sight_and_first_recurrence_only(monkeypatch):
    # the second copy finds each row's Token and files its line in the
    # table of recurring lines; the 48 later copies are served from it
    rows = [(1, "The", "the", "DET", 2, "det"), (2, "cat", "cat", "NOUN", 3, "nsubj"),
            (3, "sleeps", "sleep", "VERB", 0, "root"), (4, ".", ".", "PUNCT", 3, "punct")]
    split = _count_splits(monkeypatch)
    corpus = parse_conllu(join_sentences([conllu_sentence(rows)] * 50))
    assert len(split) <= 8
    sentences = list(corpus.sentences())
    assert len(sentences) == 50
    assert all(a is b for sent in sentences for a, b in zip(sent.tokens, sentences[0].tokens))
    assert sentences[0].tokens == tuple(rows)


def test_a_recurring_line_at_another_position_breaks_the_ordering_at_its_line():
    # the "." row recurs, so its third copy comes from the table of recurring
    # lines; at position 2 of the third sentence (line 10) it is out of order
    dot = conllu_token(3, ".", ".", "PUNCT", 1, "punct")
    text = "\n".join([
        conllu_token(1, "Go", "go", "VERB", 0, "root"),
        conllu_token(2, "now", "now", "ADV", 1, "advmod"),
        dot,
        "",
        conllu_token(1, "Run", "run", "VERB", 0, "root"),
        conllu_token(2, "away", "away", "ADV", 1, "advmod"),
        dot,
        "",
        conllu_token(1, "Stop", "stop", "VERB", 0, "root"),
        dot,
        "",
    ])
    with pytest.raises(ConlluParseError,
                       match=r"token id 3 breaks 1..n ordering \(expected 2\)") as exc:
        parse_conllu(text)
    assert exc.value.line_number == 10


def test_a_recurring_line_in_a_shorter_sentence_breaks_the_head_range_at_its_line():
    # "big" attached to 3 recurs in two three-token sentences; its copy from
    # the table of recurring lines, in a two-token sentence, is at line 9
    big = conllu_token(1, "big", "big", "ADJ", 3, "amod")
    text = "\n".join([
        big,
        conllu_token(2, "red", "red", "ADJ", 3, "amod"),
        conllu_token(3, "cats", "cat", "NOUN", 0, "root"),
        "",
        big,
        conllu_token(2, "old", "old", "ADJ", 3, "amod"),
        conllu_token(3, "dogs", "dog", "NOUN", 0, "root"),
        "",
        big,
        conllu_token(2, "cats", "cat", "NOUN", 0, "root"),
        "",
    ])
    with pytest.raises(ConlluParseError,
                       match="head 3 out of range for 2-token sentence") as exc:
        parse_conllu(text)
    assert exc.value.line_number == 9


def test_load_corpus_logs_its_counts_per_file(mini_corpus_path, monkeypatch, caplog):
    split = _count_splits(monkeypatch)
    with caplog.at_level(logging.INFO, logger="termforge.corpus"):
        corpus = load_corpus(mini_corpus_path)
    stats = corpus_stats(corpus)
    tokens = [tok for sent in corpus.sentences() for tok in sent.tokens]
    # every token line not split was served from the table of recurring lines
    served = stats.n_words - sum(line.split("\t")[0].isdigit() for line in split)
    assert (stats.n_sentences, stats.n_words, len(set(tokens)), served) == (52, 322, 94, 181)
    assert caplog.messages == [
        f"{mini_corpus_path}: 52 sentences, 322 tokens, 94 distinct token rows, "
        "181 token lines served from the table of recurring lines"]


def test_a_corpus_without_recurring_rows_parses_in_under_430_bytes_per_token():
    # 80,000 tokens, every form unique, so no row recurs and the table of
    # recurring lines stays empty; one entry per line would cost about
    # 100 bytes more per token than this bound allows
    text = join_sentences([conllu_sentence([
        (i, f"w{s}x{i}", "_", "NOUN", 0 if i == 1 else 1, "root" if i == 1 else "dep")
        for i in range(1, 9)]) for s in range(10_000)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        corpus = parse_conllu(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n_tokens = corpus_stats(corpus).n_words
    assert n_tokens == 80_000
    assert len({tok.form for sent in corpus.sentences() for tok in sent.tokens}) == n_tokens
    assert peak / n_tokens < 430


def _footprint_corpus():
    """5,600 tokens: 700 eight-token sentences over 60 nouns and 20 verbs."""
    rng = random.Random(0)
    nouns = [f"noun{i}" for i in range(60)]
    verbs = [f"verb{i}" for i in range(20)]
    sentences = []
    for _ in range(700):
        n1, n2, n3 = rng.sample(nouns, 3)
        sentences.append(conllu_sentence([
            (1, "The", "the", "DET", 3, "det"),
            (2, n1.capitalize(), n1, "NOUN", 3, "compound"),
            (3, n2, "_", "NOUN", 4, "nsubj"),
            (4, rng.choice(verbs), rng.choice(verbs).upper(), "VERB", 0, "root"),
            (5, "the", "the", "DET", 6, "det"),
            (6, n3, n3, "NOUN", 4, "obj"),
            (7, "with", "with", "ADP", 8, "case"),
            (8, n1, n1, "NOUN", 4, "obl"),
        ]))
    return join_sentences(sentences)


def test_a_parsed_token_costs_less_than_200_bytes():
    # a copy of each string field per token would be about 340 bytes
    text = _footprint_corpus()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = parse_conllu(text)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_tokens = corpus_stats(corpus).n_words
    assert n_tokens >= 5000
    assert kept / n_tokens < 200


def test_parsed_tokens_cost_less_than_80_bytes_each():
    # rows recur across sentences, so a token costs a share of its row's
    # one Token; a Token object per token would be about 130 bytes
    text = _footprint_corpus()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = parse_conllu(text)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept / corpus_stats(corpus).n_words < 80


def test_sent_id_and_newdoc_comments_honored():
    text = "\n".join([
        "# newdoc id = alpha",
        "# sent_id = alpha-1",
        conllu_token(*NOUN_ROW),
        "",
        conllu_token(1, "dogs", "dog", "NOUN", 0, "root"),
        "",
        "# newdoc id = beta",
        conllu_token(1, "fish", "fish", "NOUN", 0, "root"),
        "",
    ])
    corpus = parse_conllu(text)
    assert [d for d, _ in corpus.documents] == ["alpha", "beta"]
    assert [s.id for s in corpus.sentences()] == ["alpha-1", "alpha.s2", "beta.s1"]


def test_comment_keys_that_only_begin_with_newdoc_are_ignored():
    text = "\n".join([
        "# newdoc id = a",
        conllu_token(*NOUN_ROW),
        "# newdoc_note = checked",
        "# newdocs = 2",
        conllu_token(2, "nap", "nap", "VERB", 1, "dep"),
        "",
    ])
    corpus = parse_conllu(text)
    assert _doc_sentence_ids(corpus) == [("a", ["a.s1"])]
    assert len(next(corpus.sentences())) == 2


def test_comment_keys_that_only_begin_with_sent_id_are_ignored():
    text = "\n".join([
        "# sent_identifier = q",
        "# sent_id_note = r",
        conllu_token(*NOUN_ROW),
        "",
        "#sent_id=t ",
        conllu_token(*DOG_ROW),
        "",
    ])
    assert [s.id for s in parse_conllu(text).sentences()] == ["doc.s1", "t"]


def test_newdoc_without_id_gets_synthetic_ids():
    text = "\n".join([
        "# newdoc",
        conllu_token(*NOUN_ROW),
        "",
        "# newdoc",
        conllu_token(1, "dogs", "dog", "NOUN", 0, "root"),
        "",
    ])
    corpus = parse_conllu(text)
    assert [d for d, _ in corpus.documents] == ["doc1", "doc2"]


def test_unknown_comments_and_range_and_empty_node_lines_skipped():
    text = "\n".join([
        "# text = the original sentence",
        "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_",
        conllu_token(1, "de", "de", "ADP", 2, "case"),
        conllu_token(2, "ella", "ella", "PRON", 0, "root"),
        "3.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_",
        "",
    ])
    corpus = parse_conllu(text)
    sent = next(corpus.sentences())
    assert [t.form for t in sent.tokens] == ["de", "ella"]


def test_missing_trailing_newline_still_flushes():
    corpus = parse_conllu(conllu_sentence([NOUN_ROW]))
    assert sum(1 for _ in corpus.sentences()) == 1


@pytest.mark.parametrize("row,fragment", [
    ("1\tonly\tfour\tcols", "expected 10 tab-separated columns, got 4"),
    (conllu_token("x", "a", "a", "NOUN", 0, "root"), "non-integer token id"),
    (conllu_token(2, "a", "a", "NOUN", 0, "root"), "breaks 1..n ordering"),
    (conllu_token(1, "a", "a", "NOUN", "x", "root"), "non-integer head"),
    (conllu_token(1, "a", "a", "NOUN", 1, "root"), "its own head"),
    (conllu_token(1, "a", "a", "NOUN", 5, "root"), "out of range"),
    (conllu_token(1, "", "_", "NOUN", 0, "root"), "empty lemma and form"),
])
def test_malformed_rows_raise_with_line_number(row, fragment):
    with pytest.raises(ConlluParseError) as exc:
        parse_conllu("# sent_id = s1\n" + row + "\n")
    assert fragment in str(exc.value)
    assert exc.value.line_number == 2
    assert str(exc.value).startswith("line 2:")


def test_source_name_in_error(tmp_path):
    bad = tmp_path / "bad.conllu"
    bad.write_text("1\ttoo\tfew\n")
    with pytest.raises(ConlluParseError) as exc:
        load_corpus(bad)
    assert str(exc.value).startswith(f"{bad}:1:")


def test_duplicate_sentence_id_rejected():
    text = join_sentences([
        conllu_sentence([NOUN_ROW], sent_id="s1"),
        conllu_sentence([(1, "dogs", "dog", "NOUN", 0, "root")], sent_id="s1"),
    ])
    with pytest.raises(ConlluParseError, match="duplicate sentence id 's1'"):
        parse_conllu(text)


def test_duplicate_document_id_rejected():
    text = ("# newdoc id = d\n" + conllu_token(*NOUN_ROW) + "\n\n"
            "# newdoc id = d\n" + conllu_token(*NOUN_ROW) + "\n")
    with pytest.raises(ConlluParseError, match="duplicate document id 'd'"):
        parse_conllu(text)


DOG_ROW = (1, "dogs", "dog", "NOUN", 0, "root")


def _doc_sentence_ids(corpus):
    return [(d, [s.id for s in sents]) for d, sents in corpus.documents]


def test_sent_id_after_first_token_row_is_ignored():
    text = "\n".join([
        "# sent_id = a",
        conllu_token(1, "big", "big", "ADJ", 2, "amod"),
        "# sent_id = b",
        conllu_token(2, "cats", "cat", "NOUN", 0, "root"),
        "",
    ])
    corpus = parse_conllu(text)
    (sent,) = corpus.sentences()
    assert sent.id == "a"
    assert [t.form for t in sent.tokens] == ["big", "cats"]


def test_sent_id_before_blank_line_does_not_carry_over():
    text = "# sent_id = x\n\n" + conllu_token(*NOUN_ROW) + "\n"
    assert [s.id for s in parse_conllu(text).sentences()] == ["doc.s1"]


def test_newdoc_right_after_token_rows_closes_the_sentence():
    text = "\n".join([
        "# newdoc id = a",
        conllu_token(*NOUN_ROW),
        "# newdoc id = b",
        conllu_token(*DOG_ROW),
        "",
    ])
    corpus = parse_conllu(text)
    assert _doc_sentence_ids(corpus) == [("a", ["a.s1"]), ("b", ["b.s1"])]
    assert corpus.documents[0][1][0].tokens[0].form == "Cats"


def test_two_newdoc_lines_keep_an_empty_first_document():
    text = "# newdoc id = a\n# newdoc id = b\n" + conllu_token(*NOUN_ROW) + "\n"
    assert _doc_sentence_ids(parse_conllu(text)) == [("a", []), ("b", ["b.s1"])]


def test_unnamed_documents_count_on_across_named_ones():
    text = "\n".join([
        "# newdoc", conllu_token(*NOUN_ROW), "",
        "# newdoc id = z", conllu_token(*NOUN_ROW), "",
        "# newdoc", conllu_token(*NOUN_ROW), "",
    ])
    assert [d for d, _ in parse_conllu(text).documents] == ["doc1", "z", "doc2"]


def test_sentence_before_any_newdoc_opens_the_default_document():
    text = conllu_token(*NOUN_ROW) + "\n\n# newdoc id = b\n" + conllu_token(*DOG_ROW) + "\n"
    assert _doc_sentence_ids(parse_conllu(text)) == [("doc", ["doc.s1"]), ("b", ["b.s1"])]
    clash = conllu_token(*NOUN_ROW) + "\n\n# newdoc id = doc\n" + conllu_token(*DOG_ROW) + "\n"
    with pytest.raises(ConlluParseError, match="duplicate document id 'doc'") as exc:
        parse_conllu(clash)
    assert exc.value.line_number == 3


@pytest.mark.parametrize("ending", [
    "",                    # end of input, no final newline: the line after the last
    "\n",                  # end of input
    "\n\n",                # a closing blank line
    "\n# newdoc id = b\n",  # a newdoc comment right after the rows
])
def test_duplicate_sentence_id_reported_where_the_sentence_ends(ending):
    text = ("# sent_id = s1\n" + conllu_token(*NOUN_ROW) + "\n\n"
            "# sent_id = s1\n" + conllu_token(*DOG_ROW) + ending)
    with pytest.raises(ConlluParseError, match="duplicate sentence id 's1'") as exc:
        parse_conllu(text)
    assert exc.value.line_number == 6


def test_bad_token_id_wins_over_duplicate_sentence_id():
    text = ("# sent_id = s1\n" + conllu_token(*NOUN_ROW) + "\n\n"
            "# sent_id = s1\n" + conllu_token("x", "a", "a", "NOUN", 0, "root") + "\n\n")
    with pytest.raises(ConlluParseError, match="non-integer token id 'x'") as exc:
        parse_conllu(text)
    assert exc.value.line_number == 5


def test_non_integer_head_wins_over_earlier_out_of_range_head():
    text = "\n".join([
        conllu_token(1, "a", "a", "NOUN", 9, "dep"),
        conllu_token(2, "b", "b", "NOUN", "x", "root"),
        "",
    ])
    with pytest.raises(ConlluParseError, match="non-integer head 'x'") as exc:
        parse_conllu(text)
    assert exc.value.line_number == 2


def test_column_count_is_checked_before_the_rows_of_its_sentence():
    text = conllu_token("x", "a", "a", "NOUN", 0, "root") + "\n1\tonly\tfour\tcols\n"
    with pytest.raises(ConlluParseError, match="expected 10 tab-separated columns") as exc:
        parse_conllu(text)
    assert exc.value.line_number == 2


def test_ids_and_heads_are_read_as_python_integers():
    text = "\n".join([
        conllu_token("01", "a", "a", "NOUN", "+2", "dep"),
        conllu_token(" 2", "b", "b", "NOUN", "00", "root"),
        "",
    ])
    sent = next(parse_conllu(text).sentences())
    assert [(t.index, t.head) for t in sent.tokens] == [(1, 2), (2, 0)]


def test_comments_and_blank_lines_alone_make_no_document():
    assert parse_conllu("# sent_id = x\n\n\n# text = t\n").documents == ()


def test_empty_input_is_empty_corpus():
    corpus = parse_conllu("")
    assert corpus.n_documents == 0
    stats = corpus_stats(corpus)
    assert stats == corpus_stats(Corpus(documents=()))
    assert stats.words_per_document == 0.0


def test_stats_on_mini_corpus(mini_corpus):
    stats = corpus_stats(mini_corpus)
    assert stats.n_documents == 2
    assert stats.n_sentences == 52
    assert stats.n_words == 322
    assert stats.words_per_document == pytest.approx(161.0)


def test_load_corpus_directory_sorted(tmp_path, mini_corpus_path):
    text = mini_corpus_path.read_text()
    half = text.index("# newdoc", 10)
    (tmp_path / "b_second.conllu").write_text(text[half:])
    (tmp_path / "a_first.conllu").write_text(text[:half])
    merged = load_corpus(tmp_path)
    assert [d for d, _ in merged.documents] == ["mini-a", "mini-b"]


@pytest.mark.parametrize("second, line, doc_id", [
    ("# newdoc id = same\n" + conllu_token(*NOUN_ROW) + "\n", 1, "same"),
    ("# newdoc id = fresh\n" + conllu_token(*DOG_ROW) + "\n\n"
     "# newdoc id = same\n" + conllu_token(*NOUN_ROW) + "\n", 4, "same"),
    # the default document "b" opens where its first sentence ends
    (conllu_token(*NOUN_ROW) + "\n\n", 2, "b"),
])
def test_load_corpus_directory_duplicate_doc(tmp_path, second, line, doc_id):
    # a document id repeated in a later file is reported at its newdoc line
    (tmp_path / "a.conllu").write_text("# newdoc id = same\n" + conllu_token(*NOUN_ROW)
                                       + "\n\n# newdoc id = b\n" + conllu_token(*DOG_ROW)
                                       + "\n")
    (tmp_path / "b.conllu").write_text(second)
    with pytest.raises(ConlluParseError) as exc:
        load_corpus(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'b.conllu'}:{line}: duplicate document id {doc_id!r}"


def test_load_corpus_directory_duplicate_sentence_id(tmp_path):
    # two files that repeat a sent_id fail as their concatenation does
    docs = [f"# newdoc id = {name}\n" + conllu_sentence([NOUN_ROW], sent_id="s1") + "\n"
            for name in ("a", "b")]
    with pytest.raises(ConlluParseError, match="duplicate sentence id 's1'"):
        parse_conllu("".join(docs))
    for name, doc in zip(("a", "b"), docs):
        (tmp_path / f"{name}.conllu").write_text(doc)
    with pytest.raises(ConlluParseError) as exc:
        load_corpus(tmp_path)
    # line 4 of b.conllu closes the sentence, as parse_conllu reports a repeat
    assert str(exc.value) == f"{tmp_path / 'b.conllu'}:4: duplicate sentence id 's1'"


def test_a_byte_order_mark_is_not_part_of_the_first_line(tmp_path, mini_corpus_path):
    bom = tmp_path / "bom.conllu"
    bom.write_bytes(b"\xef\xbb\xbf" + mini_corpus_path.read_bytes())
    assert load_corpus(bom).documents == load_corpus(mini_corpus_path).documents


def test_load_corpus_directory_without_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path)


word = st.text(alphabet="abcdefg", min_size=1, max_size=6)


@st.composite
def small_corpus_text(draw):
    n_docs = draw(st.integers(1, 3))
    parts = []
    for d in range(n_docs):
        parts.append(f"# newdoc id = d{d}")
        for s in range(draw(st.integers(1, 3))):
            n_tok = draw(st.integers(1, 5))
            heads = [draw(st.integers(0, n_tok)) for _ in range(n_tok)]
            heads = [0 if h == i + 1 else h for i, h in enumerate(heads)]
            parts.append(f"# sent_id = d{d}.x{s}")
            for i in range(n_tok):
                form = draw(word)
                parts.append(conllu_token(i + 1, form, form, "NOUN",
                                          heads[i], "dep"))
            parts.append("")
    return "\n".join(parts) + "\n"


@given(small_corpus_text())
def test_parse_serialize_round_trip(text):
    corpus = parse_conllu(text)
    again = parse_conllu(to_conllu(corpus))
    assert again == corpus
    assert hash(again) == hash(corpus)


def test_round_trip_mini_corpus(mini_corpus):
    assert parse_conllu(to_conllu(mini_corpus)) == mini_corpus
