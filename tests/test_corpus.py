"""Tokenization, ingestion, segmentation, and qrels parsing."""

import copy
import dataclasses
import json
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irflab.corpus import (
    STEMMERS,
    Passage,
    PassageCollection,
    TokenizerConfig,
    _ASCII_WORDS,
    _WORD_RE,
    _porter_stem,
    _s_stem,
    ingest_corpus,
    load_qrels,
    load_queries,
    segment_document,
    split_sentences,
    tokenize,
    write_corpus,
)
from irflab.index import build_index
from irflab.stopwords import DEFAULT_STOPWORDS
from irflab.synthgen import GeneratorConfig, generate


def reference_tokenize(text, config):
    """The tokenizer before interning, kept as an oracle."""
    tokens = _WORD_RE.findall(text.lower())
    if config.stopwords:
        tokens = [t for t in tokens if t not in config.stopwords]
    if config.stemming == "s":
        tokens = [_s_stem(t) for t in tokens]
    elif config.stemming == "porter":
        tokens = [_porter_stem(t) for t in tokens]
    return tokens


class TestTokenize:
    def test_stopword_removal_and_s_stemming(self):
        cfg = TokenizerConfig(stopwords=frozenset({"the"}), stemming="s")
        assert tokenize("The cats ran", cfg) == ["cat", "ran"]

    def test_lowercase_identity_without_stemming(self):
        cfg = TokenizerConfig(stopwords=frozenset(), stemming="none")
        assert tokenize("A A a", cfg) == ["a", "a", "a"]

    def test_embedding_config_does_not_stem(self):
        cfg = TokenizerConfig.embedding()
        assert cfg.stemming == "none"
        assert tokenize("cats dogs houses", cfg) == ["cats", "dogs", "houses"]

    def test_empty_input(self):
        assert tokenize("", TokenizerConfig()) == []

    def test_punctuation_delimits_words(self, plain_config):
        assert tokenize("one,two;three.four", plain_config) == ["one", "two", "three", "four"]

    def test_s_stemmer_guards(self):
        cfg = TokenizerConfig(stopwords=frozenset(), stemming="s")
        assert tokenize("glass bus stories churches", cfg) == ["glass", "bus", "story", "churche"]

    def test_porter_style_reduces_suffixes(self):
        cfg = TokenizerConfig(stopwords=frozenset(), stemming="porter")
        assert tokenize("running jumped nationalization", cfg) == ["runn", "jump", "nationalize"]

    def test_deterministic_and_idempotent_when_unstemmed(self, rng, plain_config):
        cfg = plain_config
        words = ["alpha", "beta2", "gamma", "x9"]
        for _ in range(50):
            text = " ".join(words[int(i)] for i in rng.integers(0, len(words), size=8))
            once = tokenize(text, cfg)
            assert tokenize(text, cfg) == once
            assert tokenize(" ".join(once), cfg) == once

    def test_unknown_stemmer_rejected(self):
        with pytest.raises(ValueError):
            TokenizerConfig(stemming="snowball")

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.one_of(
            st.text(),
            # word-heavy text, so stemming and stopping have work to do
            st.lists(st.sampled_from(["the", "cats", "stories", "running", "nationalization", "a1",
                                      "Glass", "BUSES", "agreed", "x", "ÉTÉ", "ﬁle", "İs"]))
            .map(" ".join),
        ),
        stemming=st.sampled_from(STEMMERS),
        stop=st.booleans(),
    )
    def test_interned_tokens_equal_the_reference(self, text, stemming, stop):
        cfg = TokenizerConfig(stopwords=DEFAULT_STOPWORDS if stop else frozenset(), stemming=stemming)
        tokens = tokenize(text, cfg)
        assert tokens == reference_tokenize(text, cfg)
        assert all(tok is sys.intern(tok) for tok in tokens)

    def test_every_code_point_tokenizes_as_the_regex(self, plain_config):
        # ASCII text takes the translate path, other text the regex; U+212A
        # (Kelvin sign) lowercases to an ASCII "k" and so takes the former
        assert len(_ASCII_WORDS) == 128
        texts = [f"a{chr(c)}Z9" for c in range(0x110000)]
        assert [t for t in texts if tokenize(t, plain_config) != _WORD_RE.findall(t.lower())] == []

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text(st.characters(max_codepoint=127)),
                     st.text(st.sampled_from("aZ9 _-.\t\u212a\u0130\u00e9"))))
    def test_text_tokenizes_as_the_regex(self, text):
        plain = TokenizerConfig(stopwords=frozenset(), stemming="none")
        assert tokenize(text, plain) == _WORD_RE.findall(text.lower())


class TestIngest:
    def _write(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def test_two_line_file(self, tmp_path, plain_config):
        path = tmp_path / "c.jsonl"
        self._write(path, [
            {"id": "p1", "doc_id": "d1", "text": "hello world"},
            {"id": "p2", "doc_id": "d1", "text": "more text"},
        ])
        coll = ingest_corpus(path, plain_config)
        assert len(coll) == 2
        assert coll["p1"].tokens == ("hello", "world")

    def test_missing_id_field_names_line(self, tmp_path, plain_config):
        path = tmp_path / "c.jsonl"
        self._write(path, [
            {"id": "p1", "doc_id": "d1", "text": "ok"},
            {"doc_id": "d1", "text": "broken"},
        ])
        with pytest.raises(ValueError, match="line 2"):
            ingest_corpus(path, plain_config)

    GOOD = '{"id": "p1", "doc_id": "d", "text": "x"}'

    @pytest.mark.parametrize("line, message", [
        ("\ufeff" + GOOD, "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0))"),
        (GOOD + " x", "invalid JSON (Extra data: line 1 column 42 (char 41))"),
        (GOOD + GOOD, "invalid JSON (Extra data: line 1 column 41 (char 40))"),
        (GOOD + " " + GOOD, "invalid JSON (Extra data: line 1 column 42 (char 41))"),
        ('{"id": "p1", "doc_id": "d", "text": "x",}',
         "invalid JSON (Expecting property name enclosed in double quotes: line 1 column 41 (char 40))"),
        ("NaN", "expected a JSON object, got float"),
    ])
    def test_lines_the_decoder_does_not_take_whole_raise_the_json_loads_error(self, tmp_path, plain_config,
                                                                              line, message):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "p0", "doc_id": "d", "text": "x"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            ingest_corpus(path, plain_config)
        assert str(exc.value) == f"{path}: line 2: {message}"

    def test_invalid_json_names_line(self, tmp_path, plain_config):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "p1", "doc_id": "d", "text": "x"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            ingest_corpus(path, plain_config)

    def test_whitespace_id_rejected(self, tmp_path, plain_config):
        path = tmp_path / "c.jsonl"
        self._write(path, [{"id": "p 1", "doc_id": "d1", "text": "a"}])
        with pytest.raises(ValueError, match="whitespace-free"):
            ingest_corpus(path, plain_config)

    @pytest.mark.parametrize("pid", ["", "p\u00a01", "p\u20281", "p\x1f", "p\u30001", "\t"])
    def test_unicode_whitespace_and_empty_ids_rejected(self, tmp_path, plain_config, pid):
        path = tmp_path / "c.jsonl"
        self._write(path, [{"id": "p0", "doc_id": "d1", "text": "a"}, {"id": pid, "doc_id": "d1", "text": "a"}])
        with pytest.raises(ValueError, match=r"c\.jsonl: line 2: .*whitespace-free"):
            ingest_corpus(path, plain_config)

    @pytest.mark.parametrize("line, kind", [("5", "int"), ('"id doc_id text"', "str"), ("[1, 2]", "list"),
                                            ("null", "NoneType")])
    def test_line_that_is_not_an_object_names_path_and_line(self, tmp_path, plain_config, line, kind):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "p1", "doc_id": "d", "text": "x"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"c\.jsonl: line 2: expected a JSON object, got {kind}"):
            ingest_corpus(path, plain_config)

    @pytest.mark.parametrize("text", [7, None, ["a", "b"], {"t": "a"}])
    def test_non_string_text_names_path_and_line(self, tmp_path, plain_config, text):
        path = tmp_path / "c.jsonl"
        self._write(path, [{"id": "p1", "doc_id": "d", "text": "x"}, {"id": "p2", "doc_id": "d", "text": text}])
        with pytest.raises(ValueError, match=r"c\.jsonl: line 2: field 'text' must be a string"):
            ingest_corpus(path, plain_config)

    @pytest.mark.parametrize("key", ["id", "doc_id"])
    @pytest.mark.parametrize("value, kind", [(None, "NoneType"), (["a"], "list"), (1.5, "float"),
                                             (True, "bool"), (False, "bool")])
    def test_id_that_is_not_a_string_or_integer_names_path_and_line(self, tmp_path, plain_config, key, value,
                                                                      kind):
        path = tmp_path / "c.jsonl"
        bad = dict({"id": "p2", "doc_id": "d", "text": "y"}, **{key: value})
        self._write(path, [{"id": "p1", "doc_id": "d", "text": "x"}, bad])
        with pytest.raises(ValueError,
                           match=rf"c\.jsonl: line 2: field '{key}' must be a string or an integer, got {kind}"):
            ingest_corpus(path, plain_config)

    def test_integer_ids_read_as_their_decimal_strings(self, tmp_path, plain_config):
        path = tmp_path / "c.jsonl"
        self._write(path, [{"id": 7, "doc_id": 70, "text": "x"}, {"id": "p2", "doc_id": "d", "text": "y"}])
        coll = ingest_corpus(path, plain_config)
        assert coll.ids == ("7", "p2") and coll["7"].doc_id == "70"

    def test_equal_tokens_are_one_object_across_passages_queries_and_index(self, tmp_path, plain_config):
        path = tmp_path / "c.jsonl"
        self._write(path, [
            {"id": "p1", "doc_id": "d1", "text": "alpha beta"},
            {"id": "p2", "doc_id": "d1", "text": "gamma ALPHA alpha"},
        ])
        coll = ingest_corpus(path, plain_config)
        queries_path = tmp_path / "queries.tsv"
        queries_path.write_text("q1\tbeta alpha\n", encoding="utf-8")
        (query,) = load_queries(queries_path, plain_config)
        a1, (_, a2, a3) = coll["p1"].tokens[0], coll["p2"].tokens
        assert a1 == "alpha" and a1 is a2 is a3 is query.tokens[1]
        assert coll["p1"].tokens[1] is query.tokens[0]
        idx = build_index(coll)
        assert idx.terms[idx.term_ids["alpha"]] is a1

    def test_duplicate_id_rejected(self, tmp_path, plain_config):
        path = tmp_path / "c.jsonl"
        self._write(path, [
            {"id": "p1", "doc_id": "d1", "text": "a"},
            {"id": "p1", "doc_id": "d2", "text": "b"},
        ])
        with pytest.raises(ValueError, match="duplicate"):
            ingest_corpus(path, plain_config)

    def test_large_export_has_no_id_collisions(self, tmp_path, plain_config):
        path = tmp_path / "big.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(20_000):
                fh.write(json.dumps({"id": f"p{i}", "doc_id": f"d{i % 700}", "text": f"tok{i % 97} filler"}) + "\n")
        coll = ingest_corpus(path, plain_config)
        assert len(coll) == 20_000

    def test_ingested_passages_keep_no_text_and_share_interned_ids(self, tmp_path, plain_config):
        path = tmp_path / "c.jsonl"
        self._write(path, [{"id": f"p{i}", "doc_id": f"d{i // 2}", "text": f"w{i} w"} for i in range(4)])
        coll = ingest_corpus(path, plain_config)
        assert [p.text for p in coll] == [None] * 4
        assert [p.doc_id for p in coll] == ["d0", "d0", "d1", "d1"]
        assert coll["p0"].doc_id is coll["p1"].doc_id is sys.intern("d0")
        assert coll["p2"].doc_id is coll["p3"].doc_id
        assert all(pid is sys.intern(pid) for pid in coll.ids)

    def test_writing_an_ingested_collection_raises_and_writes_nothing(self, tmp_path, plain_config):
        path = tmp_path / "c.jsonl"
        self._write(path, [{"id": "p1", "doc_id": "d1", "text": "a b"}, {"id": "p2", "doc_id": "d1", "text": "c"}])
        out = tmp_path / "out.jsonl"
        with pytest.raises(ValueError, match="passage 'p1' has no text to write"):
            write_corpus(out, ingest_corpus(path, plain_config))
        assert not out.exists()
        mixed = PassageCollection([Passage("p0", "d0", "z", ("z",)), *ingest_corpus(path, plain_config)])
        with pytest.raises(ValueError, match="passage 'p1' has no text to write"):
            write_corpus(out, mixed)
        assert not out.exists()

    def test_round_trip(self, tmp_path, plain_config):
        # a synthgen-written corpus re-ingests to the same ids and tokens
        coll, _, _ = generate(GeneratorConfig(seed=3, num_queries=4, num_noise_passages=30, vocab_size=60))
        path = tmp_path / "c.jsonl"
        write_corpus(path, coll)
        again = ingest_corpus(path, plain_config)
        assert again.ids == coll.ids
        assert [p.doc_id for p in again] == [p.doc_id for p in coll]
        assert [p.tokens for p in again] == [p.tokens for p in coll]


class TestPassage:
    def test_slotted_passage_round_trips(self):
        passage = Passage(passage_id="p1", doc_id="d1", text="cats ran", tokens=("cat", "ran"))
        assert not hasattr(passage, "__dict__")
        for copied in (pickle.loads(pickle.dumps(passage)), copy.deepcopy(passage), copy.copy(passage)):
            assert copied == passage and hash(copied) == hash(passage)
        moved = dataclasses.replace(passage, passage_id="p2")
        assert moved == Passage(passage_id="p2", doc_id="d1", text="cats ran", tokens=("cat", "ran"))
        assert moved.tokens is passage.tokens
        with pytest.raises(dataclasses.FrozenInstanceError):
            passage.text = "dogs"


class TestSegmentDocument:
    DOC = "One sentence here. Two sentences now! Is three enough? Four follows. Five ends."

    def test_windows_cover_and_do_not_overlap(self):
        sentences = split_sentences(self.DOC)
        for seed in range(20):
            parts = segment_document(self.DOC, seed=seed)
            assert all(len(split_sentences(p.text)) in (1, 2, 3) for p in parts)
            joined = [s for p in parts for s in split_sentences(p.text)]
            assert joined == sentences

    def test_window_sizes_are_two_or_three_except_tail(self):
        parts = segment_document(self.DOC, seed=3)
        sizes = [len(split_sentences(p.text)) for p in parts]
        assert all(s in (2, 3) for s in sizes[:-1])

    def test_single_sentence_doc(self):
        parts = segment_document("Just one sentence.", seed=0)
        assert len(parts) == 1
        assert parts[0].text == "Just one sentence."

    def test_empty_doc(self):
        assert segment_document("", seed=0) == []

    def test_same_seed_same_segmentation(self):
        a = segment_document(self.DOC, seed=11)
        b = segment_document(self.DOC, seed=11)
        assert [p.text for p in a] == [p.text for p in b]

    def test_both_window_sizes_occur_across_seeds(self):
        sizes = set()
        for seed in range(30):
            parts = segment_document(self.DOC, seed=seed)
            sizes.add(len(split_sentences(parts[0].text)))
        assert sizes == {2, 3}


class TestQrels:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("q1 0 p1 1\n")
        j = load_qrels(path)
        assert j.data == {"q1": {"p1": 1}}

    def test_grade_zero_is_judged_nonrelevant(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("q1 0 p1 0\n")
        j = load_qrels(path)
        assert j.grade("q1", "p1") == 0
        assert not j.is_relevant("q1", "p1")

    def test_graded_entry_collapses_to_relevant(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("q1 0 p1 2\n")
        j = load_qrels(path)
        assert j.is_relevant("q1", "p1")
        assert j.relevant_ids("q1") == {"p1"}

    def test_non_integer_grade_rejected(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("q1 0 p1 high\n")
        with pytest.raises(ValueError, match="non-integer"):
            load_qrels(path)

    def test_repeated_entry_keeps_last(self, tmp_path, caplog):
        path = tmp_path / "q.txt"
        path.write_text("q1 0 p1 1\nq1 0 p1 0\n")
        with caplog.at_level("WARNING"):
            j = load_qrels(path)
        assert j.grade("q1", "p1") == 0
        assert any("repeated" in r.message for r in caplog.records)

    def test_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("q1 0 p1 -1\n")
        with pytest.raises(ValueError, match="negative"):
            load_qrels(path)


class TestQueries:
    def test_load_queries(self, tmp_path, plain_config):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\thello world\nq2\tanother one\n")
        queries = load_queries(path, plain_config)
        assert [q.query_id for q in queries] == ["q1", "q2"]
        assert queries[0].tokens == ("hello", "world")

    def test_duplicate_query_id_names_path_and_line(self, tmp_path, plain_config):
        path = tmp_path / "queries.tsv"
        path.write_text("q000\thello world\nq001\tanother one\nq000\tcompletely different words here\n")
        with pytest.raises(ValueError) as exc:
            load_queries(path, plain_config)
        assert str(exc.value) == f"{path}: line 3: duplicate query id 'q000'"

    def test_missing_tab_rejected(self, tmp_path, plain_config):
        path = tmp_path / "queries.tsv"
        path.write_text("q1 hello world\n")
        with pytest.raises(ValueError):
            load_queries(path, plain_config)

    @pytest.mark.parametrize("qid", ["q 000", "", " q0", "q0\x0b"])
    def test_query_id_empty_or_with_whitespace_names_path_and_line(self, tmp_path, plain_config, qid):
        # such an id would be written into a run file that eval then refuses
        path = tmp_path / "queries.tsv"
        path.write_text(f"q1\thello world\n{qid}\tanother one\n")
        with pytest.raises(ValueError) as exc:
            load_queries(path, plain_config)
        assert str(exc.value) == f"{path}: line 2: query id {qid!r} must be non-empty and whitespace-free"
