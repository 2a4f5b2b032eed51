"""Passage collections, tokenization, document segmentation, and judgments.

Tokens, passage ids and doc ids are interned (``sys.intern``), so a
collection, its queries, a model and a run file read beside it hold one
``str`` per distinct term or id: token memory is bounded by the number of
distinct terms, and the token tuples hold only references. Equal tokens are
one object, so the index's term dicts hash each term once.

``ingest_corpus`` keeps each passage's tokens, not its text: an ingested
passage's ``text`` is None. Passages built to be written (``synthgen``,
``segment_document``) carry their text, and ``write_corpus`` writes only
such passages.

File formats:
  corpus   JSON-lines, one object per line: {"id": ..., "doc_id": ..., "text": ...}
  queries  tab-separated "qid<TAB>text"
  qrels    TREC four-column "qid 0 pid grade"
All files UTF-8.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import sys
from dataclasses import dataclass, field
from itertools import filterfalse
from typing import Iterable, Iterator, Sequence

import numpy as np

from .stopwords import DEFAULT_STOPWORDS

logger = logging.getLogger(__name__)

_WORD_RE = re.compile(r"[a-z0-9]+")
# tokenize's ASCII path: every ASCII character outside [a-z0-9] becomes a space
_ASCII_WORDS = "".join(c if c.isdigit() or "a" <= c <= "z" else " " for c in map(chr, range(128)))
_DECODER = json.JSONDecoder()
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.?!])\s+")

STEMMERS = ("none", "s", "porter")


def _s_stem(word: str) -> str:
    """Suffix-S stemmer: strip plural s/es/ies with the usual guards."""
    if len(word) > 3 and word.endswith("ies") and not word.endswith(("eies", "aies")):
        return word[:-3] + "y"
    if len(word) > 3 and word.endswith("es") and not word.endswith(("aes", "ees", "oes")):
        return word[:-1]
    if len(word) > 2 and word.endswith("s") and not word.endswith(("us", "ss")):
        return word[:-1]
    return word


_PORTER_SUFFIXES = (
    ("ational", "ate"), ("tional", "tion"), ("ization", "ize"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("ation", "ate"), ("icate", "ic"),
    ("ative", ""), ("alize", "al"), ("ical", "ic"), ("ment", ""), ("ness", ""),
    ("ful", ""),
)


def _porter_stem(word: str) -> str:
    """Lightweight porter-style suffix reduction (plurals, -ed/-ing, common
    derivational endings). Not a full Porter implementation."""
    if len(word) < 3:
        return word
    word = _s_stem(word)
    if word.endswith("eed"):
        if len(word) > 4:
            word = word[:-1]
    elif word.endswith("ed") and any(c in "aeiou" for c in word[:-2]):
        word = word[:-2]
    elif word.endswith("ing") and any(c in "aeiou" for c in word[:-3]):
        word = word[:-3]
    for suffix, repl in _PORTER_SUFFIXES:
        if word.endswith(suffix) and len(word) > len(suffix) + 2:
            word = word[: -len(suffix)] + repl
            break
    return word


@dataclass(frozen=True)
class TokenizerConfig:
    """Deterministic text-to-token pipeline configuration.

    Lowercasing is always applied; ``stemming`` is one of "none", "s",
    "porter".
    """

    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    stemming: str = "s"

    def __post_init__(self):
        if self.stemming not in STEMMERS:
            raise ValueError(f"unknown stemming mode {self.stemming!r}; expected one of {STEMMERS}")
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))

    @classmethod
    def embedding(cls) -> "TokenizerConfig":
        """Embedding-corpus preprocessing: stopwords removed, no stemming."""
        return cls(stopwords=DEFAULT_STOPWORDS, stemming="none")

    def fingerprint(self) -> dict:
        """What an embedding model records of the tokenizer it was trained
        with: the stemming mode and a sha256 of the sorted stopwords, one
        per line."""
        stopwords = "\n".join(sorted(self.stopwords)).encode("utf-8")
        return {"stemming": self.stemming, "stopwords_sha256": hashlib.sha256(stopwords).hexdigest()}


def tokenize(text: str, config: TokenizerConfig) -> list[str]:
    """Lowercase, extract word tokens, drop stopwords, stem, and intern each
    token, so equal tokens are one object.

    Word tokens are the runs of [a-z0-9] in the lowercased text. ASCII text
    gets them by ``translate`` and ``split``; other text, where translating
    was several times slower, by the regular expression."""
    text = text.lower()
    tokens = text.translate(_ASCII_WORDS).split() if text.isascii() else _WORD_RE.findall(text)
    if config.stopwords:
        tokens = filterfalse(config.stopwords.__contains__, tokens)
    if config.stemming == "s":
        tokens = map(_s_stem, tokens)
    elif config.stemming == "porter":
        tokens = map(_porter_stem, tokens)
    return list(map(sys.intern, tokens))


@dataclass(frozen=True, slots=True)
class Passage:
    """A retrieval unit: one answer passage from a parent document. ``text``
    is None once ingested: retrieval, feedback and training read tokens."""

    passage_id: str
    doc_id: str
    text: str | None
    tokens: tuple[str, ...] = ()


@dataclass(frozen=True)
class Query:
    query_id: str
    text: str
    tokens: tuple[str, ...] = ()


class PassageCollection:
    """Immutable, id-addressable set of passages; its index shares ``ids`` and ``id_to_pos``."""

    def __init__(self, passages: Iterable[Passage]):
        self._passages = tuple(passages)
        self.ids: tuple[str, ...] = tuple(p.passage_id for p in self._passages)
        self.id_to_pos: dict[str, int] = {pid: pos for pos, pid in enumerate(self.ids)}
        if len(self.id_to_pos) < len(self.ids):  # a repeated id maps to its last position only
            dup = next(pid for pos, pid in enumerate(self.ids) if self.id_to_pos[pid] != pos)
            raise ValueError(f"duplicate passage_id {dup!r}")

    def __len__(self) -> int:
        return len(self._passages)

    def __iter__(self) -> Iterator[Passage]:
        return iter(self._passages)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self.id_to_pos

    def __getitem__(self, passage_id: str) -> Passage:
        return self._passages[self.id_to_pos[passage_id]]


@dataclass
class Judgments:
    """Relevance grades keyed by (query_id, passage_id); grade > 0 means relevant."""

    data: dict[str, dict[str, int]] = field(default_factory=dict)

    def grade(self, query_id: str, passage_id: str) -> int | None:
        return self.data.get(query_id, {}).get(passage_id)

    def is_relevant(self, query_id: str, passage_id: str) -> bool:
        return self.data.get(query_id, {}).get(passage_id, 0) > 0

    def relevant_ids(self, query_id: str) -> frozenset[str]:
        return frozenset(p for p, g in self.data.get(query_id, {}).items() if g > 0)

    def add(self, query_id: str, passage_id: str, grade: int) -> None:
        if grade < 0:
            raise ValueError(f"negative grade {grade} for ({query_id}, {passage_id})")
        self.data.setdefault(query_id, {})[passage_id] = grade


def ingest_corpus(path, config: TokenizerConfig) -> PassageCollection:
    """Read a JSON-lines corpus file, tokenizing each passage. Passage ids
    and doc ids are interned; the text is not kept (``Passage.text`` is
    None)."""
    passages = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _DECODER.raw_decode(line)
            except json.JSONDecodeError:
                end = -1
            if end != len(line):  # not one whole JSON value: json.loads raises the error it always has
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: line {lineno}: expected a JSON object, got {type(obj).__name__}")
            for key in ("id", "doc_id", "text"):
                if key not in obj:
                    raise ValueError(f"{path}: line {lineno}: missing field {key!r}")
            for key in ("id", "doc_id"):
                if type(obj[key]) not in (str, int):  # exact types, so a bool does not pass as an int
                    raise ValueError(f"{path}: line {lineno}: field {key!r} must be a string or an integer, "
                                     f"got {type(obj[key]).__name__}")
            pid = sys.intern(str(obj["id"]))
            if pid in seen:
                raise ValueError(f"{path}: line {lineno}: duplicate passage id {pid!r}")
            if pid.split() != [pid]:
                # whitespace would corrupt the qrels and run-file formats
                raise ValueError(f"{path}: line {lineno}: passage id {pid!r} must be non-empty and whitespace-free")
            text = obj["text"]
            if not isinstance(text, str):
                raise ValueError(f"{path}: line {lineno}: field 'text' must be a string, got {type(text).__name__}")
            seen.add(pid)
            passages.append(Passage(passage_id=pid, doc_id=sys.intern(str(obj["doc_id"])), text=None,
                                    tokens=tuple(tokenize(text, config))))
    return PassageCollection(passages)


def write_corpus(path, collection: PassageCollection) -> None:
    """Write passages that carry their text as JSON lines. ValueError, before
    anything is written, if a passage has none (an ingested one)."""
    missing = next((p for p in collection if p.text is None), None)
    if missing is not None:
        raise ValueError(f"passage {missing.passage_id!r} has no text to write: ingest_corpus does not keep it")
    with open(path, "w", encoding="utf-8") as fh:
        for p in collection:
            fh.write(json.dumps({"id": p.passage_id, "doc_id": p.doc_id, "text": p.text}) + "\n")


def split_sentences(text: str) -> list[str]:
    """Terminal-punctuation sentence split; abbreviations are not special-cased."""
    parts = [s.strip() for s in _SENTENCE_SPLIT_RE.split(text)]
    return [s for s in parts if s]


def segment_document(
    doc_text: str,
    seed: int,
    doc_id: str = "d0",
    config: TokenizerConfig | None = None,
) -> list[Passage]:
    """Cut a document into contiguous non-overlapping windows of 2 or 3
    sentences (uniformly chosen per window, seeded); a shorter final window
    takes whatever remains."""
    sentences = split_sentences(doc_text)
    if not sentences:
        return []
    rng = np.random.default_rng(seed)
    passages = []
    pos = 0
    while pos < len(sentences):
        width = 2 if rng.random() < 0.5 else 3
        chunk = sentences[pos : pos + width]
        pos += width
        text = " ".join(chunk)
        pid = f"{doc_id}.{len(passages):03d}"
        tokens = tuple(tokenize(text, config)) if config is not None else ()
        passages.append(Passage(passage_id=pid, doc_id=doc_id, text=text, tokens=tokens))
    return passages


def load_qrels(path) -> Judgments:
    """Read TREC four-column qrels; repeated (qid, pid) keeps the last grade."""
    judgments = Judgments()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 fields, got {len(fields)}")
            qid, _, pid, grade_str = fields
            try:
                grade = int(grade_str)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: non-integer grade {grade_str!r}") from exc
            if grade < 0:
                raise ValueError(f"{path}: line {lineno}: negative grade {grade}")
            if judgments.grade(qid, pid) is not None:
                logger.warning("%s: line %d: repeated judgment for (%s, %s); keeping last", path, lineno, qid, pid)
            judgments.add(qid, pid, grade)
    return judgments


def write_qrels(path, judgments: Judgments) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid in judgments.data:
            for pid, grade in judgments.data[qid].items():
                fh.write(f"{qid} 0 {pid} {grade}\n")


def load_queries(path, config: TokenizerConfig) -> list[Query]:
    """Read tab-separated queries and tokenize them; query ids are unique."""
    queries: dict[str, Query] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'qid<TAB>text'")
            qid, text = line.split("\t", 1)
            if qid.split() != [qid]:
                # whitespace would corrupt the qrels and run-file formats
                raise ValueError(f"{path}: line {lineno}: query id {qid!r} must be non-empty and whitespace-free")
            if qid in queries:
                raise ValueError(f"{path}: line {lineno}: duplicate query id {qid!r}")
            tokens = tuple(tokenize(text, config))
            if not tokens:
                logger.warning("%s: line %d: query %s has no tokens after preprocessing", path, lineno, qid)
            queries[qid] = Query(query_id=qid, text=text, tokens=tokens)
    return list(queries.values())


def write_queries(path, queries: Sequence[Query]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for q in queries:
            fh.write(f"{q.query_id}\t{q.text}\n")
