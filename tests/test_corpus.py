import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def test_load_corpus_directory_duplicate_doc(tmp_path):
    doc = "# newdoc id = same\n" + conllu_token(*NOUN_ROW) + "\n"
    (tmp_path / "a.conllu").write_text(doc)
    (tmp_path / "b.conllu").write_text(doc)
    with pytest.raises(ConlluParseError, match="duplicate document id 'same'"):
        load_corpus(tmp_path)


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
