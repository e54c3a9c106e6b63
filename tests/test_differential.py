"""Differential property tests: the document core against per-occurrence
reference implementations.

``reference_tokenize`` and ``reference_compute_stats`` are verbatim copies
of the character-by-character tokenizer and the per-occurrence statistics
that ``tokenize`` and the per-type ``compute_stats`` replaced.  Both must
agree with them on every input.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from powertext.textcore import (
    Document,
    TextStats,
    Token,
    WordTable,
    build_document,
    compute_stats,
    count_syllables,
    normalize,
    tokenize,
)

# ---------------------------------------------------------------------------
# Reference tokenizer (verbatim copy of the per-character version)
# ---------------------------------------------------------------------------

_APOSTROPHES = "'’"
_HYPHEN = "-"


def _is_word_char(ch: str) -> bool:
    return ch.isalpha() or ch.isdigit()


def reference_tokenize(text: str, *, offset: int = 0) -> list[Token]:
    tokens: list[Token] = []
    n = len(text)
    i = 0
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if _is_word_char(ch):
            j = i + 1
            while j < n:
                cj = text[j]
                if _is_word_char(cj):
                    j += 1
                elif (
                    (cj in _APOSTROPHES or cj == _HYPHEN)
                    and j + 1 < n
                    and _is_word_char(text[j + 1])
                    and _is_word_char(text[j - 1])
                ):
                    j += 1
                else:
                    break
            tokens.append(Token(text[i:j], offset + i, offset + j, True))
        else:
            j = i + 1
            while j < n and not text[j].isspace() and not _is_word_char(text[j]):
                j += 1
            tokens.append(Token(text[i:j], offset + i, offset + j, False))
        i = j
    return tokens


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


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(text=st.text(alphabet=_ALPHABET, max_size=80), offset=st.integers(0, 1000))
def test_tokenize_equals_reference(text, offset):
    assert tokenize(text, offset=offset) == reference_tokenize(text, offset=offset)


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=60))
def test_tokenize_equals_reference_on_any_unicode(text):
    assert tokenize(text) == reference_tokenize(text)


@settings(max_examples=300, deadline=None)
@given(text=_texts)
def test_per_type_stats_equal_per_occurrence_reference(text):
    doc = build_document("t", text)
    for exceptions in (None, _EXCEPTIONS):
        assert compute_stats(doc, _FAMILIAR, exceptions) == reference_compute_stats(
            doc, _FAMILIAR, exceptions
        )


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
            assert compute_stats(doc, table) == reference_compute_stats(
                doc, _FAMILIAR, exceptions
            )


def test_word_table_stays_within_its_cap():
    table = WordTable(_FAMILIAR)
    cap = table.cache_info().maxsize
    words = [f"w{i}" for i in range(cap + 100)]
    doc = build_document("many", " ".join(words))
    assert compute_stats(doc, table).word_count == cap + 100
    info = table.cache_info()
    assert info.misses == cap + 100
    assert info.currsize == cap
    # Least recently used texts are dropped first: the last ones remain.
    assert compute_stats(build_document("last", words[-1]), table).word_count == 1
    assert table.cache_info().hits == 1


def test_word_table_measures_long_texts_without_keeping_them():
    table = WordTable(_FAMILIAR)
    long_word = "ab" * 5000
    doc = build_document("long", f"{long_word} {long_word} short")
    assert compute_stats(doc, table) == reference_compute_stats(doc, _FAMILIAR, None)
    assert table.cache_info().currsize == 1  # only "short"


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
