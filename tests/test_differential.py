"""Differential property tests: the document core and the lexicon scans
against per-occurrence reference implementations.

``reference_tokenize``, ``reference_split_sentences`` and
``reference_compute_stats`` are copies of the character-by-character
tokenizer and sentence splitter and of the per-occurrence statistics that
the regex-driven ``tokenize`` and ``split_sentences`` and the per-type
``compute_stats`` replaced; the tokenizer copy has since gained the
combining-mark rule (a mark that follows a word character extends the
word) and skips a leading byte-order mark.  ``reference_find``,
``ReferenceTagger`` and ``reference_analyze_sentiment`` are copies of the
phrase matcher, entity passes and sentiment scorer that visited every
token, which the candidate-position scans replaced.  The library must
agree with them on every input, both on a bare ``Document`` and through
``analyze``, whose stages share one ``CandidateIndex`` per document.
``ReferenceTextExtractor`` is the ``html.parser`` subclass that
``strip_html`` fed before its own scan; the two must agree on generated
well-formed HTML.
"""

from __future__ import annotations

import html
import random
import re
import string
import unicodedata
from array import array
from html.parser import HTMLParser
from statistics import fmean
from typing import Iterable, Iterator, Mapping, Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powertext.corpus import _BLOCK_TAGS, _NAMED_ENTITIES, strip_html
from powertext.defaults import GAZETTEER_FILE, data_path
from powertext.entities import (
    _DATE_START_WORDS,
    _MONTHS,
    _RELATIVE_DAYS,
    _WEEKDAYS,
    EntityLabel,
    EntitySpan,
    Gazetteer,
    _is_day_of_month,
    _is_year,
    load_gazetteer,
    tag_entities,
)
from powertext.report import AnalysisConfig, Resources, analyze
from powertext.sentiment import (
    NEGATION_FACTOR,
    NEGATION_WINDOW,
    SentimentEntry,
    SentimentLexicon,
    SentimentScore,
    analyze_sentiment,
)
from powertext import textcore
from powertext.candidates import CandidateIndex, StartWords
from powertext.textcore import (
    Document,
    PhraseMatcher,
    TextStats,
    Token,
    WordTable,
    build_document,
    compute_stats,
    count_syllables,
    is_number_key,
    normalize,
    split_sentences,
    tokenize,
)

# ---------------------------------------------------------------------------
# Reference tokenizer (the per-character version, plus combining marks
# and the leading byte-order mark)
# ---------------------------------------------------------------------------

_APOSTROPHES = "'’"
_HYPHEN = "-"


def _is_word_char(ch: str) -> bool:
    return ch.isalpha() or ch.isdigit()


def _is_mark(ch: str) -> bool:
    return unicodedata.category(ch).startswith("M")


def reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    n = len(text)
    i = 1 if text.startswith("\ufeff") else 0
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if _is_word_char(ch):
            j = i + 1
            while j < n:
                cj = text[j]
                if _is_word_char(cj) or _is_mark(cj):
                    j += 1
                elif (
                    (cj in _APOSTROPHES or cj == _HYPHEN)
                    and j + 1 < n
                    and _is_word_char(text[j + 1])
                    and (_is_word_char(text[j - 1]) or _is_mark(text[j - 1]))
                ):
                    j += 1
                else:
                    break
            tokens.append(Token(text[i:j], i, j, True))
        else:
            j = i + 1
            while j < n and not text[j].isspace() and not _is_word_char(text[j]):
                j += 1
            tokens.append(Token(text[i:j], i, j, False))
        i = j
    return tokens


# ---------------------------------------------------------------------------
# Reference sentence splitter (verbatim copy of the per-character version)
# ---------------------------------------------------------------------------

_TERMINATORS = ".!?"
_CLOSERS = "\"'’”)»]"
_ABBREVIATIONS = frozenset(
    {"mr", "mrs", "dr", "st", "vs", "etc", "jr", "sr", "prof", "inc", "ltd", "co", "e.g", "i.e"}
)


def _preceding_word(text: str, pos: int) -> str:
    i = pos
    while i > 0 and (text[i - 1].isalpha() or text[i - 1] == "." or _is_mark(text[i - 1])):
        i -= 1
    return text[i:pos].strip(".")


def reference_split_sentences(text: str) -> list[tuple[int, int]]:
    n = len(text)
    spans: list[tuple[int, int]] = []
    # Start of the current sentence: first non-whitespace char not yet consumed.
    cursor = 0

    def _skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    cursor = _skip_ws(1 if text.startswith("\ufeff") else 0)
    if cursor == n:
        return []

    i = cursor
    while i < n:
        if text[i] in _TERMINATORS:
            run_start = i
            while i < n and text[i] in _TERMINATORS:
                i += 1
            after = i
            while after < n and text[after] in _CLOSERS:
                after += 1
            next_char = _skip_ws(after)
            boundary = (
                next_char > after  # at least one whitespace char follows
                and next_char < n
                and (text[next_char].isupper() or text[next_char].isdigit())
            )
            if boundary:
                word = _preceding_word(text, run_start)
                if word.lower() in _ABBREVIATIONS:
                    boundary = False
            if boundary:
                spans.append((cursor, after))
                cursor = next_char
                i = next_char
                continue
            i = after if after > i else i
        else:
            i += 1

    # Whatever remains (including text with no terminator at all) is the
    # final sentence; trim trailing whitespace from the span.
    tail_end = n
    while tail_end > cursor and text[tail_end - 1].isspace():
        tail_end -= 1
    if tail_end > cursor:
        spans.append((cursor, tail_end))
    return spans


# ---------------------------------------------------------------------------
# Reference statistics (verbatim copy of the per-occurrence version)
# ---------------------------------------------------------------------------

_COMPLEX_SUFFIXES = ("ing", "es", "ed")


def _is_complex(
    token: Token,
    syllables: int,
    is_sentence_initial: bool,
    exceptions: Mapping[str, int] | None,
) -> bool:
    if syllables < 3:
        return False
    if token.text[0].isupper() and not is_sentence_initial:
        return False
    if _HYPHEN in token.text:
        return False
    lower = normalize(token.text)
    for suffix in _COMPLEX_SUFFIXES:
        if lower.endswith(suffix):
            stem = lower[: -len(suffix)]
            if any(ch.isalpha() or ch.isdigit() for ch in stem):
                if count_syllables(stem, exceptions) < 3:
                    return False
            break
    return True


def _is_difficult(token: Token, familiar_words: frozenset[str]) -> bool:
    lower = normalize(token.text)
    if lower in familiar_words:
        return False
    if lower.endswith("s") and lower[:-1] in familiar_words:
        return False
    return True


def reference_compute_stats(
    doc: Document,
    familiar_words: frozenset[str] | Iterable[str],
    exceptions: Mapping[str, int] | None = None,
) -> TextStats:
    familiar = familiar_words if isinstance(familiar_words, frozenset) else frozenset(familiar_words)

    sentence_initial: set[tuple[int, int]] = set()
    token_iter = iter(doc.tokens)
    token = next(token_iter, None)
    for start, end in doc.sentences:
        found_word = False
        while token is not None and token.start < end:
            if token.start >= start and token.is_word and not found_word:
                sentence_initial.add((token.start, token.end))
                found_word = True
            token = next(token_iter, None)

    word_count = 0
    syllable_count = 0
    letter_count = 0
    char_count = 0
    polysyllable_count = 0
    complex_word_count = 0
    difficult_word_count = 0

    for tok in doc.tokens:
        if not tok.is_word:
            continue
        word_count += 1
        letter_count += sum(1 for ch in tok.text if ch.isalpha())
        char_count += sum(1 for ch in tok.text if ch.isalpha() or ch.isdigit())
        syllables = count_syllables(tok.text, exceptions)
        syllable_count += syllables
        if syllables >= 3:
            polysyllable_count += 1
        if _is_complex(tok, syllables, (tok.start, tok.end) in sentence_initial, exceptions):
            complex_word_count += 1
        if _is_difficult(tok, familiar):
            difficult_word_count += 1

    return TextStats(
        word_count=word_count,
        sentence_count=len(doc.sentences),
        syllable_count=syllable_count,
        letter_count=letter_count,
        char_count=char_count,
        polysyllable_count=polysyllable_count,
        complex_word_count=complex_word_count,
        difficult_word_count=difficult_word_count,
    )


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

# Characters that sit on the edges of the word rules: ``½`` and ``²`` are
# numeric but neither letters nor decimal digits (``²`` is a digit, ``½``
# is not), ``_`` is a word character to regexes but not here, combining
# marks are neither letters nor digits, U+FEFF is not whitespace, and
# curly apostrophes and hyphens join words only between word characters.
_ALPHABET = (
    "aeiouyAEbcdlnrstBKS\u00e9\u00c9\u00df\u0130"  # é É ß İ
    "0123456789\u00bd\u00b2_"  # ½ ²
    "\u0301\u0308\ufeff"  # combining acute, combining diaeresis, BOM
    "'\u2019-\u2010\u2014"  # ' ’ - ‐ —
    ".,!?;:\"()\u201d"
    " \t\n\u00a0\u2003"
)

_WORDS = (
    "Everybody everybody Elizabeth interesting Interesting self-evident "
    "twenty-five state-of-the-art Revolution revolution dedicated created "
    "dancing wonderful Wonderful Beautifully beautifully it's don’t nations "
    "2024 mp3 3rd the a table little Abraham Lincoln Washington "
    "unbelievable Unbelievable tomatoes potatoes rebelled catches "
    "café Café naïve résumé I Dr St"
).split()
_PUNCT = ("", "", "", ",", ".", "!", "?", ";", ".\"", "?)")

_FAMILIAR = frozenset({"the", "a", "table", "little", "nation", "everybody", "created"})
_EXCEPTIONS = {"naïve": 2, "résumé": 3, "elizabeth": 4}


@st.composite
def _prose(draw) -> str:
    """Sentences of tricky words with mixed capitalization and punctuation."""
    words = draw(st.lists(st.sampled_from(_WORDS), max_size=40))
    parts = [word + draw(st.sampled_from(_PUNCT)) for word in words]
    return " ".join(parts)


_texts = st.one_of(st.text(alphabet=_ALPHABET, max_size=80), _prose())

# Sentence-boundary material: terminators and closers, whitespace, capitals
# and digits (which may open a sentence), letters and marks (which may
# end an abbreviation), the byte-order mark, and whole abbreviations.
_SENTENCE_PIECES = st.sampled_from(
    list(".!?.!?\"'’”)»]" " \t\n\u00a0\u2003" "AZÉ09²aez\u0301\ufeff")
    + ["Dr.", "dr.", "e.g.", "E.g.", "i.e.", "etc.", "Mr.", " Dr. ", "...", "?!"]
    # Four and five letters before a terminator, either side of the
    # abbreviation guard's five-letter shortcut, and letters whose case
    # mapping changes their length or leaves ASCII.
    + ["Hello.", "prof.", "Prof.", "PROF.", "Inc.", "xdr.", "\u212a", "\u212a.", "İ", "İ.", "ß."]
    # Unicode whitespace after a terminator (``\s`` must read it as
    # ``str.isspace`` does), and a digit that is no decimal opening the
    # next sentence.
    + [".\u2028", ".\x85", "\u2028", "\x85", ". ²"]
)
_sentence_texts = st.lists(_SENTENCE_PIECES, max_size=40).map("".join)

# Whitespace-separated chunks, each ASCII or holding a non-ASCII character,
# so that ASCII and non-ASCII stretches of one text meet in every order.
_ascii_chunks = st.text(alphabet="abAZ09'-_.,!?()\"", min_size=1, max_size=8)
_non_ascii_chunks = st.text(
    alphabet="ab09'-’‐—é\u0301½²\ufeffİß", min_size=1, max_size=8
).filter(lambda chunk: not chunk.isascii())
_spaces = st.text(alphabet=" \t\n\u00a0\u2003", min_size=1, max_size=3)
_mixed_texts = st.lists(
    st.tuples(st.one_of(_ascii_chunks, _non_ascii_chunks), _spaces), max_size=12
).map(lambda parts: "".join(chunk + space for chunk, space in parts))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(text=st.text(alphabet=_ALPHABET, max_size=80))
def test_tokenize_equals_reference(text):
    assert list(tokenize(text)) == reference_tokenize(text)


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=60))
# The tokenizer reads non-ASCII text through one-character stand-ins
# (U+0080 to U+0083 and a space); these pin each class, and input that
# already holds a stand-in.
@example(text="a\x80b \x81c\x82d \x83 é\x80 \x82x\x81")
@example(text="a\x85b\x1cc \x85\x1c")
@example(text="a\ud800b \ud800")
@example(text="1½ ½a Ⅻ aⅫb")
@example(text="x² ٠1 𝟘a a-²")
@example(text="don\u02bct don’t \u02bc’\u02bc a’\u02bcb")
@example(text="self\u2010evident a\u2010")
@example(text="a\ufeffb \ufeff")
def test_tokenize_equals_reference_on_any_unicode(text):
    assert list(tokenize(text)) == reference_tokenize(text)


@settings(max_examples=400, deadline=None)
@given(text=_mixed_texts)
@example(text="\ufeff,²")
@example(text="\ufeff\ufeff,² x")
@example(text="it’s 1½ m² — ok")
def test_tokenize_equals_reference_on_mixed_ascii_and_non_ascii_chunks(text):
    assert list(tokenize(text)) == reference_tokenize(text)


@settings(max_examples=300, deadline=None)
@given(text=_mixed_texts.filter(lambda text: not text.isascii()), sparse=st.booleans())
@example(text="\ufeff,²", sparse=True)
@example(text="it’s 1½ m² — ok", sparse=True)
@example(text="it’s 1½ m² — ok", sparse=False)
def test_tokenize_equals_reference_either_side_of_the_sparse_threshold(text, sparse):
    # ASCII words appended make the non-ASCII characters sparse, so that
    # they are given their stand-ins run by run; accented letters make
    # them dense, so that the whole text is translated.
    if sparse:
        text += " a" * (len(text) * textcore._SPARSE)
    else:
        text += " " + "\u00e9" * len(text)
    non_ascii = len(text) - len(text.encode("ascii", "ignore"))
    assert (non_ascii * textcore._SPARSE < len(text)) is sparse
    assert list(tokenize(text)) == reference_tokenize(text)


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(_sentence_texts, _texts))
@example(text="Dr. King spoke. He left!\u201d Then 3 more.")
@example(text="\ufeff \ufeffA. B")
@example(text="Xprof. A")
@example(text="abcde. B")
@example(text='.". C')
def test_split_sentences_equals_reference(text):
    assert split_sentences(text) == reference_split_sentences(text)


# The sentence-break pattern before the lookbehind that lets a match start
# only at the first terminator of a run.  It tries a match at every
# terminator of a run, which is quadratic in a run that no whitespace
# follows, so it runs here on short texts only.
_BREAK_WITHOUT_LOOKBEHIND = re.compile(r"""([.!?][.!?]*["'’”)»\]]*)\s+""")
_BREAK_PIECES = st.sampled_from(
    list(".!?\"'’”)»]") + [" ", "\n", "\u00a0", "A", "a", "1", "Dr", "e.g", "x."]
)


@settings(max_examples=1000, deadline=None)
@given(text=st.lists(_BREAK_PIECES, max_size=12).map("".join))
@example(text="a.. A")
@example(text="?!?!")
@example(text="x.) .A")
def test_split_sentences_equals_the_pattern_without_lookbehind(text):
    expected = split_sentences(text)
    with mock.patch.object(textcore, "_BREAK", _BREAK_WITHOUT_LOOKBEHIND):
        assert split_sentences(text) == expected


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_sentence_texts, _mixed_texts, _texts))
@example(text="\ufeff\ufeffA. B")
@example(text="  \ufeff,² Hi. There")
def test_document_tokens_equal_tokenize_of_the_whole_text(text):
    doc = build_document("t", text)
    assert doc.tokens == tokenize(text)
    # Every token lies inside one sentence span.
    for tok in doc.tokens:
        assert any(start <= tok.start and tok.end <= end for start, end in doc.sentences)


def test_document_keeps_a_byte_order_mark_that_is_not_at_offset_0():
    assert list(build_document("t", "  \ufeffA").tokens) == [
        Token("\ufeff", 2, 3, False),
        Token("A", 3, 4, True),
    ]
    assert list(build_document("t", "\ufeff\ufeffA").tokens) == [
        Token("\ufeff", 1, 2, False),
        Token("A", 2, 3, True),
    ]


@settings(max_examples=300, deadline=None)
@given(text=_texts)
def test_per_type_stats_equal_per_occurrence_reference(text):
    doc = build_document("t", text)
    for exceptions in (None, _EXCEPTIONS):
        stats = compute_stats(doc, WordTable(_FAMILIAR, exceptions).types(doc))
        assert stats == reference_compute_stats(doc, _FAMILIAR, exceptions)


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(_texts, max_size=8))
def test_stats_from_a_table_shared_across_documents_equal_reference(texts):
    # One table per exceptions setting, reused across every document:
    # figures remembered from earlier documents must not change the
    # statistics of later ones.
    for exceptions in (None, _EXCEPTIONS):
        table = WordTable(_FAMILIAR, exceptions)
        for i, text in enumerate(texts):
            doc = build_document(f"t{i}", text)
            assert compute_stats(doc, table.types(doc)) == reference_compute_stats(
                doc, _FAMILIAR, exceptions
            )


def test_word_table_stays_within_its_cap():
    table = WordTable(_FAMILIAR)
    cap = table.cache_info().maxsize
    words = [f"w{i}" for i in range(cap + 100)]
    doc = build_document("many", " ".join(words))
    assert compute_stats(doc, table.types(doc)).word_count == cap + 100
    info = table.cache_info()
    assert info.misses == cap + 100
    assert info.currsize == cap
    # Least recently used texts are dropped first: the last ones remain.
    last = build_document("last", words[-1])
    assert compute_stats(last, table.types(last)).word_count == 1
    assert table.cache_info().hits == 1


def test_a_document_with_more_distinct_texts_than_the_cap_looks_each_up_once():
    # Through ``analyze`` the statistics and the keys share one lookup per
    # distinct text, so the texts that do not fit are not measured twice.
    table = WordTable(_FAMILIAR)
    cap = table.cache_info().maxsize
    words = [f"w{i}" for i in range(cap + 100)]
    text = " ".join(words + words[:50] + ["not good"])
    resources = Resources(word_table=table, sentiment_lexicon=_SENTIMENT_LEXICON)
    config = AnalysisConfig(sections=frozenset({"readability", "sentiment"}))
    doc = build_document("many", text)
    report = analyze(doc, config, resources=resources)
    info = table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (cap + 102, 0, cap)
    bare = build_document("many", text)
    assert report.stats == reference_compute_stats(bare, _FAMILIAR, None)
    assert doc.keys == bare.keys
    assert report.sentiment == reference_analyze_sentiment(bare, _SENTIMENT_LEXICON)
    assert report.sentiment.matched_terms == 1


def test_word_table_measures_long_texts_without_keeping_them():
    table = WordTable(_FAMILIAR)
    long_word = "ab" * 5000
    doc = build_document("long", f"{long_word} {long_word} short")
    assert compute_stats(doc, table.types(doc)) == reference_compute_stats(doc, _FAMILIAR, None)
    assert table.cache_info().currsize == 1  # only "short"


# Precomposed Latin-1 letters (À-ÿ), most of which decompose under NFD,
# and Hangul syllables, which decompose into two or three letters (jamo).
_COMPOSED = "".join(ch for ch in map(chr, range(0xC0, 0x100)) if ch.isalpha())
_NFD_ALPHABET = st.sampled_from(
    string.ascii_letters + string.digits + string.punctuation + " " + _COMPOSED
) | st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3)


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=_NFD_ALPHABET, max_size=80))
def test_stats_are_equal_for_nfc_and_nfd_forms(text):
    nfc = build_document("c", unicodedata.normalize("NFC", text))
    nfd = build_document("d", unicodedata.normalize("NFD", text))
    for exceptions in (None, _EXCEPTIONS):
        table = WordTable(_FAMILIAR, exceptions)
        assert compute_stats(nfc, table.types(nfc)) == compute_stats(nfd, table.types(nfd))


def test_nfd_accents_stay_inside_their_words():
    text = "Café naïve résumé."
    for form in ("NFC", "NFD"):
        doc = build_document("t", unicodedata.normalize(form, text))
        assert [tok.is_word for tok in doc.tokens] == [True, True, True, False]
    # A mark with nothing to attach to stays a non-word token.
    assert [tok.is_word for tok in tokenize("\u0301a \u0301")] == [False, True, False]


@settings(max_examples=300, deadline=None)
@given(text=_texts)
def test_document_keys_are_normalized_word_texts(text):
    doc = build_document("t", text)
    assert len(doc.keys) == len(doc.tokens)
    for tok, key in zip(doc.tokens, doc.keys):
        assert key == (normalize(tok.text) if tok.is_word else None)


def test_equal_texts_share_one_key_string():
    doc = build_document("t", "Freedom and freedom, FREEDOM and freedom.")
    words = [key for key in doc.keys if key is not None]
    assert words == ["freedom", "and", "freedom", "freedom", "and", "freedom"]
    assert words[2] is words[5]


# ---------------------------------------------------------------------------
# Reference scans (the versions that visited every token)
# ---------------------------------------------------------------------------


def reference_longest_at(root: dict, keys: Sequence[str | None], i: int):
    node = root
    best = None
    for j in range(i, len(keys)):
        key = keys[j]
        if key is None:
            break
        node = node.get(key)
        if node is None:
            break
        if None in node:
            best = (j + 1, node[None])
    return best


def reference_find(root: dict, keys: Sequence[str | None]) -> Iterator[tuple[int, int, object]]:
    n = len(keys)
    i = 0
    while i < n:
        if keys[i] in root:
            hit = reference_longest_at(root, keys, i)
            if hit is not None:
                stop, value = hit
                yield i, stop, value
                i = stop
                continue
        i += 1


# The reference tagger's own phrase tables: it matches the date phrase
# inside the date pass and the time phrases in a pass of their own, as
# the tagger did before both moved into one fixed-phrase pass.
REFERENCE_DATE_PHRASES = PhraseMatcher({"score years ago": EntityLabel.DATE})
REFERENCE_TIME_PHRASES = PhraseMatcher(
    dict.fromkeys(("the long night", "midnight", "noon"), EntityLabel.TIME)
)
REFERENCE_DATE_START_WORDS = _MONTHS | _RELATIVE_DAYS | _WEEKDAYS | {"score"}


class ReferenceTagger:
    def __init__(self, doc: Document):
        self.raw = doc.raw
        self.texts = doc.tokens.texts
        self.starts = doc.tokens.starts
        self.ends = [tok.end for tok in doc.tokens]
        self.keys: list[str | None] = [*doc.keys, None]
        self.spans: list[EntitySpan] = []

    def claim(self, start_tok: int, end_tok: int, label: EntityLabel) -> None:
        start = self.starts[start_tok]
        end = self.ends[end_tok - 1]
        self.keys[start_tok:end_tok] = [None] * (end_tok - start_tok)
        self.spans.append(
            EntitySpan(start=start, end=end, surface=self.raw[start:end], label=label)
        )

    def number_runs(self) -> list[int]:
        keys = self.keys
        numbers = {key for key in set(keys) if key is not None and is_number_key(key)}
        runs = [0] * len(keys)
        for i in range(len(self.texts) - 1, -1, -1):
            if keys[i] in numbers:
                runs[i] = runs[i + 1] + 1
        return runs

    def _match_date_at(self, i: int, run: int) -> int:
        keys = self.keys
        key = keys[i]
        phrase = reference_longest_at(REFERENCE_DATE_PHRASES._root, keys, i)
        best = phrase[0] - i if phrase is not None else 0
        if run:
            j = i + run
            if keys[j] == "years" and keys[j + 1] in ("ago", "later"):
                best = max(best, run + 2)
        if key in _MONTHS:
            j = i + 1
            if _is_day_of_month(keys[j]):
                length = 2
                k = j + 1
                if (
                    k < len(self.texts)
                    and self.texts[k] == ","
                    and _is_year(keys[k + 1])
                ):
                    length = (k + 1 - i) + 1
                elif _is_year(keys[k]):
                    length = 3
                best = max(best, length)
            elif _is_year(keys[j]):
                best = max(best, 2)
        if key in _RELATIVE_DAYS or key in _WEEKDAYS:
            best = max(best, 1)
        if _is_year(key):
            best = max(best, 1)
        return best

    def run_dates(self) -> None:
        keys = self.keys
        runs = self.number_runs()
        i = 0
        while i < len(self.texts):
            if runs[i] or keys[i] in REFERENCE_DATE_START_WORDS:
                length = self._match_date_at(i, runs[i])
                if length:
                    self.claim(i, i + length, EntityLabel.DATE)
                    i += length
                    continue
            i += 1

    def run_phrases(self, matcher: PhraseMatcher) -> None:
        for start, stop, label in reference_find(matcher._root, self.keys):
            self.claim(start, stop, label)

    def run_cardinals(self) -> None:
        runs = self.number_runs()
        i = 0
        while i < len(self.texts):
            if runs[i]:
                length = runs[i]
                self.claim(i, i + length, EntityLabel.CARDINAL)
                i += length
            else:
                i += 1


def reference_tag_entities(doc: Document, gazetteer: Gazetteer) -> list[EntitySpan]:
    tagger = ReferenceTagger(doc)
    tagger.run_dates()
    tagger.run_phrases(REFERENCE_TIME_PHRASES)
    tagger.run_cardinals()
    tagger.run_phrases(gazetteer._matcher)
    return sorted(tagger.spans, key=lambda span: span.start)


def reference_analyze_sentiment(doc: Document, lex: SentimentLexicon) -> SentimentScore:
    keys = [key for key in doc.keys if key is not None]
    contributions: list[float] = []
    subjectivities: list[float] = []
    for idx, key in enumerate(keys):
        entry = lex.entries.get(key)
        if entry is None or key in lex.modifiers:
            continue
        polarity = entry.polarity
        if idx >= 1 and keys[idx - 1] in lex.modifiers:
            polarity *= lex.modifiers[keys[idx - 1]]
        window = keys[max(0, idx - NEGATION_WINDOW) : idx]
        if any(word in lex.negators for word in window):
            polarity *= NEGATION_FACTOR
        contributions.append(polarity)
        subjectivities.append(entry.subjectivity)
    if not contributions:
        return SentimentScore(polarity=0.0, subjectivity=0.0, matched_terms=0)
    return SentimentScore(
        polarity=min(1.0, max(-1.0, fmean(contributions))),
        subjectivity=min(1.0, max(0.0, fmean(subjectivities))),
        matched_terms=len(contributions),
    )


# ---------------------------------------------------------------------------
# Scan properties
# ---------------------------------------------------------------------------

# Phrase words that share prefixes ("the", "the long", "the long night"),
# so that candidates are often rejected or cut short.
_PHRASE_WORDS = ("the", "long", "night", "united", "states", "new", "york", "a")
_phrase_sets = st.dictionaries(
    st.lists(st.sampled_from(_PHRASE_WORDS), min_size=1, max_size=4).map(" ".join),
    st.integers(0, 9),
    max_size=8,
)
_key_streams = st.lists(st.sampled_from((*_PHRASE_WORDS, None, "x")), max_size=60)


def _find_and_mask(find, keys: list) -> tuple[list, list]:
    """Each match, masking its keys before asking for the next one, as
    the entity tagger's ``claim`` does."""
    found = []
    for start, stop, value in find(keys):
        keys[start:stop] = [None] * (stop - start)
        found.append((start, stop, value))
    return found, keys


@settings(max_examples=500, deadline=None)
@given(phrases=_phrase_sets, keys=_key_streams)
@example(phrases={"the long night": 1, "long": 2}, keys=["the", "long", "night", "long"])
@example(phrases={"the": 1, "the long": 2}, keys=["the", "the", "long", "the"])
def test_phrase_matcher_find_equals_reference(phrases, keys):
    matcher = PhraseMatcher(phrases)
    assert list(matcher.find(keys)) == list(reference_find(matcher._root, keys))
    assert list(matcher.find(tuple(keys))) == list(reference_find(matcher._root, keys))
    assert _find_and_mask(matcher.find, list(keys)) == _find_and_mask(
        lambda k: reference_find(matcher._root, k), list(keys)
    )


# Text pieces dense in what starts a date, time, number or gazetteer
# phrase, and in the barriers (punctuation, claims) that end one.
_ENTITY_PIECES = (
    "one two ten twenty twenty-five forty-two hundred thousands million score "
    "3 20 31 32 007 1499 1500 1961 2024 2099 2100 ² "
    "January May march December today Tomorrow yesterday Monday sunday "
    "years ago later the The long night midnight noon "
    "united states United States new York america Alice island "
    ", , . ; — ' ( )"
).split() + [
    "20,", "1961.", "May,", "the long night", "score years ago", "January 20, 1961",
    "May 20 1961", "20 years ago", "twenty one years later", "1961 years ago",
]
_entity_texts = st.lists(st.sampled_from(_ENTITY_PIECES), max_size=60).map(" ".join)

_TEST_GAZETTEER = Gazetteer(
    entries={
        "the united states": EntityLabel.GPE,
        "united states": EntityLabel.GPE,
        "new york": EntityLabel.GPE,
        "new": EntityLabel.ORG,
        "america": EntityLabel.GPE,
        "alice": EntityLabel.PERSON,
        "the long island": EntityLabel.LAW,
        "long": EntityLabel.WORK_OF_ART,
        "twenty": EntityLabel.NORP,  # a number word: the cardinal pass wins
        "may": EntityLabel.PERSON,  # a month: the date pass wins when it can
        "years ago": EntityLabel.ORG,
    }
)
_SHIPPED_GAZETTEER = load_gazetteer(data_path(GAZETTEER_FILE))


@settings(max_examples=500, deadline=None)
@given(text=_entity_texts)
@example(text="the long night the united states twenty-five years ago May 20, 1961")
@example(text="January 20 , 1961 today 20 20 years later the long island")
@example(text="January 20 1961 years ago")  # a claim covers the next candidates
def test_tag_entities_equals_reference(text):
    doc = build_document("t", text)
    for gazetteer in (_TEST_GAZETTEER, _SHIPPED_GAZETTEER):
        assert tag_entities(doc, gazetteer) == reference_tag_entities(doc, gazetteer)


_SENTIMENT_LEXICON = SentimentLexicon(
    entries={
        "good": SentimentEntry(0.7, 0.6),
        "bad": SentimentEntry(-0.7, 0.7),
        "great": SentimentEntry(0.8, 0.75),
        "hope": SentimentEntry(0.3, 0.1),
        "very": SentimentEntry(0.2, 0.3),  # also a modifier: never scored
    },
    modifiers={"very": 1.5, "slightly": 0.5, "extremely": 2.0},
    negators=frozenset({"not", "never", "no"}),
)
_SENTIMENT_PIECES = (
    "good Good bad great hope very slightly extremely not never no "
    "the a and , . ! ; — don't"
).split()
_sentiment_texts = st.lists(st.sampled_from(_SENTIMENT_PIECES), max_size=60).map(" ".join)


@settings(max_examples=500, deadline=None)
@given(text=_sentiment_texts)
@example(text="not , a very good . never slightly bad hope")
def test_analyze_sentiment_equals_reference(text):
    doc = build_document("t", text)
    assert analyze_sentiment(doc, _SENTIMENT_LEXICON) == reference_analyze_sentiment(
        doc, _SENTIMENT_LEXICON
    )


# ---------------------------------------------------------------------------
# The candidate index
# ---------------------------------------------------------------------------


def test_candidate_index_keeps_positions_in_an_array():
    keys = ("the", None, "free", "x", "the", "7")
    index = CandidateIndex(keys, StartWords({"the", "free", "absent"}), frozenset({"7"}))
    assert index.positions == array("q", [0, 2, 4, 5])
    assert index.keys == ["the", "free", "the", "7"]
    assert list(index.among({"the", "free"})) == [0, 2, 4]
    assert list(index.among(index.numbers)) == [5]
    assert list(index.among(frozenset())) == []


def test_candidate_index_refuses_words_it_was_not_built_for():
    # Positions of keys outside the start words were never kept, so asking
    # for them is an error, not an empty answer.
    keys = ("the", "x", "7")
    index = CandidateIndex(keys, StartWords({"the"}, {"free"}), frozenset({"7"}))
    with pytest.raises(ValueError):
        index.among({"the", "x"})
    with pytest.raises(ValueError):
        index.among({"the", "7"})  # a number key, but not ``numbers`` itself
    assert list(index.among({"the", "free"})) == [0]
    assert not StartWords({"the"}).covers({"x"})


def test_start_words_know_their_parts_and_keep_no_cache():
    assert StartWords.__slots__ == ("_parts", "_part_ids", "words")
    part = {"the", "free"}
    starts = StartWords(part, frozenset({"7"}))
    assert starts.covers(part)
    assert starts.covers({"the", "7"})  # a fresh subset of the union
    assert not starts.covers({"the", "x"})
    assert starts.words == frozenset({"the", "free", "7"})


def test_stages_refuse_an_index_built_for_another_stage():
    doc = build_document("t", "Not very good news on January 20, 1961, at noon.")
    power_only = CandidateIndex(doc.keys, StartWords({"good"}))
    with pytest.raises(ValueError):
        analyze_sentiment(doc, _SENTIMENT_LEXICON, index=power_only)
    with pytest.raises(ValueError):
        tag_entities(doc, _TEST_GAZETTEER, index=power_only)
    # The tagger's start words, but not the document's number keys.
    no_numbers = CandidateIndex(doc.keys, StartWords(_TEST_GAZETTEER.start_words))
    with pytest.raises(ValueError):
        tag_entities(doc, _TEST_GAZETTEER, index=no_numbers)
    numbers = frozenset(key for key in doc.keys if key is not None and is_number_key(key))
    both = CandidateIndex(
        doc.keys, StartWords(_SENTIMENT_LEXICON.entries, _TEST_GAZETTEER.start_words), numbers
    )
    assert analyze_sentiment(doc, _SENTIMENT_LEXICON, index=both) == analyze_sentiment(
        doc, _SENTIMENT_LEXICON
    )
    assert tag_entities(doc, _TEST_GAZETTEER, index=both) == tag_entities(doc, _TEST_GAZETTEER)


def test_no_date_start_word_is_a_number_key():
    # The tagger merges the number positions with the date start words'
    # positions as two disjoint sorted lists.
    assert not any(map(is_number_key, _DATE_START_WORDS))


@settings(max_examples=500, deadline=None)
@given(
    phrases=_phrase_sets,
    keys=_key_streams,
    masked=st.sets(st.integers(0, 59), max_size=20),
    extra=st.sets(st.sampled_from((*_PHRASE_WORDS, "x"))),
)
@example(phrases={"the long": 1}, keys=["the", "long", "the", "long"], masked={0}, extra=set())
@example(phrases={"a": 1, "a the": 2}, keys=["a", "the", "a"], masked={1}, extra={"x"})
def test_find_with_a_candidate_index_equals_find_without(phrases, keys, masked, extra):
    # The index is built over the keys before any claim, against more
    # start words than the matcher's (as the union of every stage's is).
    # Keys masked after it was built (an earlier pass's claims) and while
    # ``find`` runs (its own claims) must both be seen.
    matcher = PhraseMatcher(phrases)
    index = CandidateIndex(keys, StartWords(matcher.first_words, extra))
    live = [None if i in masked else key for i, key in enumerate(keys)]
    expected = list(reference_find(matcher._root, live))
    assert list(matcher.find(live, index=index)) == expected
    with_index = _find_and_mask(lambda k: matcher.find(k, index=index), list(live))
    assert with_index == _find_and_mask(matcher.find, list(live))
    assert with_index == _find_and_mask(lambda k: reference_find(matcher._root, k), list(live))


# Every section but power, so that the index's start words hold the
# entries, the gazetteer's and the tagger's words.
_INDEXED_CONFIG = AnalysisConfig(sections=frozenset({"sentiment", "entities"}))
_INDEXED_RESOURCES = Resources(
    word_table=WordTable(_FAMILIAR),
    sentiment_lexicon=_SENTIMENT_LEXICON,
    gazetteer=_TEST_GAZETTEER,
)
# Runs of non-word tokens between a modifier or negator and the entry it
# governs: the window counts word tokens only.
_sentiment_texts_with_punctuation = st.lists(
    st.sampled_from(_SENTIMENT_PIECES + [", ,", "! ? ;", ". . . . . . ."]), max_size=60
).map(" ".join)


@settings(max_examples=500, deadline=None)
@given(text=_sentiment_texts_with_punctuation)
@example(text="not , , ; very ! ? good")
@example(text="never . . . . . . . . . slightly , bad")
@example(text="good very . . . . . . . . . . . . . . . . . good")
def test_analyze_sentiment_through_the_candidate_index_equals_reference(text):
    report = analyze(build_document("t", text), _INDEXED_CONFIG, resources=_INDEXED_RESOURCES)
    assert report.sentiment == reference_analyze_sentiment(
        build_document("t", text), _SENTIMENT_LEXICON
    )


@settings(max_examples=300, deadline=None)
@given(text=_entity_texts)
@example(text="the long night the united states twenty-five years ago May 20, 1961")
def test_tag_entities_through_the_candidate_index_equals_reference(text):
    report = analyze(build_document("t", text), _INDEXED_CONFIG, resources=_INDEXED_RESOURCES)
    assert list(report.entities) == reference_tag_entities(
        build_document("t", text), _TEST_GAZETTEER
    )


# ---------------------------------------------------------------------------
# Reference HTML extractor: the ``html.parser`` subclass that the
# one-scan ``strip_html`` replaced, on generated well-formed HTML
# ---------------------------------------------------------------------------


class ReferenceTextExtractor(HTMLParser):
    """Text, line breaks and decoded references as ``HTMLParser`` reports
    them; a numeric reference decodes as ``html.unescape`` has it."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=False)
        self.pieces: list[str] = []
        self._drop_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style"):
            self._drop_depth += 1
        elif tag in _BLOCK_TAGS:
            self.pieces.append("\n")

    def handle_endtag(self, tag):
        if tag in ("script", "style"):
            self._drop_depth = max(0, self._drop_depth - 1)
        elif tag in _BLOCK_TAGS:
            self.pieces.append("\n")

    def handle_startendtag(self, tag, attrs):
        if tag in _BLOCK_TAGS:
            self.pieces.append("\n")

    def handle_data(self, data):
        if not self._drop_depth:
            self.pieces.append(data)

    def handle_entityref(self, name):
        decoded = _NAMED_ENTITIES.get(name)
        self.pieces.append(decoded if decoded is not None else f"&{name};")

    def handle_charref(self, name):
        self.pieces.append(html.unescape(f"&#{name};"))


def reference_strip_html(markup: str) -> str:
    extractor = ReferenceTextExtractor()
    extractor.feed(markup)
    extractor.close()
    lines = [" ".join(line.split()) for line in "".join(extractor.pieces).splitlines()]
    normalized: list[str] = []
    for line in lines:
        if line:
            normalized.append(line)
        elif normalized and normalized[-1]:
            normalized.append("")
    while normalized and not normalized[-1]:
        normalized.pop()
    return "\n".join(normalized)


# "&copy;" is a reference to a name outside the decoded set.
_HTML_WORDS = ["Buy", "now", "free", "it's", '"big"', "a < b", "5 > 3", "x-y", "&copy;"]
_HTML_BLOCK_TAGS = ["p", "div", "li", "h1", "td", "section", "blockquote"]
_HTML_INLINE_TAGS = ["b", "i", "span", "a", "em"]
# Code points whose decoding ``html.unescape`` and ``strip_html`` share:
# text, NUL, the windows-1252 range, surrogates and past U+10FFFF.
_CODE_POINTS = [65, 97, 32, 10, 0xE9, 0x2019, 0x1F600, 0, 0x80, 0x81, 0x92, 0x9F, 0xD800, 0x110000]
# What may end a reference: ";" or a character that is no letter or digit.
_REFERENCE_ENDS = [";", ";", " ", ",", "!", "\n"]


def _cased(rng: random.Random, name: str) -> str:
    return "".join(ch.upper() if rng.random() < 0.3 else ch for ch in name)


def _html_reference(rng: random.Random) -> str:
    code = rng.choice(_CODE_POINTS)
    body = rng.choice([*_NAMED_ENTITIES, f"#{code}", f"#x{code:x}", f"#X{code:X}"])
    return "&" + body + rng.choice(_REFERENCE_ENDS)


def _html_attributes(rng: random.Random) -> str:
    attributes = []
    for _ in range(rng.randrange(3)):
        name = rng.choice(["class", "href", "data-x", "disabled"])
        value = rng.choice([
            "",  # a boolean attribute
            '="' + rng.choice(["a>b", "x?a=1&amp;b=2", "it's", "", "c d"]) + '"',
            "='" + rng.choice(["a>b", 'say "hi"', "&amp;"]) + "'",
            "=" + rng.choice(["x", "a1", "x&amp;y"]),
            ' = "spaced"',
        ])
        attributes.append(rng.choice([" ", "\n", "  "]) + name + value)
    return "".join(attributes) + rng.choice(["", " "])


def _html_text(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randrange(1, 5)):
        pieces.append(rng.choice(_HTML_WORDS))
        pieces.append(_html_reference(rng) if rng.random() < 0.3 else rng.choice([" ", "\n "]))
    return "".join(pieces)


def _html_raw_text(rng: random.Random, name: str) -> str:
    other = "style" if name == "script" else "script"
    content = "".join(
        rng.choice(["if (a < b && c) { ", "s = '<p>&amp;</p>'; ", "&#65; ", f"</{other}>", "} "])
        for _ in range(rng.randrange(4))
    )
    end = "</" + _cased(rng, name) + rng.choice(["", " "]) + ">"
    return "<" + _cased(rng, name) + _html_attributes(rng) + ">" + content + end


def _html_nodes(rng: random.Random, depth: int) -> str:
    nodes = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.randrange(7)
        if kind == 0 or depth > 3:
            nodes.append(_html_text(rng))
        elif kind in (1, 2):
            name = rng.choice(_HTML_BLOCK_TAGS if kind == 1 else _HTML_INLINE_TAGS)
            nodes.append(
                "<" + _cased(rng, name) + _html_attributes(rng) + ">"
                + _html_nodes(rng, depth + 1)
                + "</" + _cased(rng, name) + rng.choice(["", " "]) + ">"
            )
        elif kind == 3:
            nodes.append(rng.choice(["<br>", "<br/>", "<BR />", "<hr>"]))
        elif kind == 4:
            held = rng.sample([" note ", "<p>x</p>", "&amp;", " a-b ", "<b>"], rng.randrange(3))
            nodes.append("<!--" + "".join(held) + "-->")
        else:
            nodes.append(_html_raw_text(rng, rng.choice(["script", "style"])))
    return "".join(nodes)


def _generated_html(rng: random.Random) -> str:
    head = rng.choice([
        "",
        "<!DOCTYPE html>\n",
        "<!doctype html>",
        '<?xml version="1.0" encoding="utf-8"?>\n',
    ])
    title = "<title>" + _html_text(rng) + "</title>" if rng.random() < 0.3 else ""
    return head + title + _html_nodes(rng, 0) + "</p> End."


def test_strip_html_equals_the_html_parser_reference_on_well_formed_html():
    rng = random.Random(23)
    for _ in range(3000):
        markup = _generated_html(rng)
        assert strip_html(markup) == reference_strip_html(markup), markup
