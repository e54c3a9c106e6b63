"""Text primitives: normalization, sentence splitting, tokenization,
syllable counting, and surface statistics.

Everything downstream (readability scoring, lexicon matching, sentiment,
entity tagging) is built on the types in this module, so the rules here
are deliberately small, explicit, and heavily tested:

* word tokens are maximal runs of letters/digits, with apostrophes and
  hyphens kept when they sit between two such characters;
* sentence boundaries require a terminator, optional closing quotes or
  brackets, whitespace, and a following capital letter or digit, with a
  short abbreviation guard;
* syllables come from vowel-group counting with an exceptions table and
  a silent-e rule.

Text work is done once and shared.  ``Document.keys`` holds the
normalized matching key of every word token (``None`` for non-word
tokens), computed on first use with one ``normalize`` call per distinct
token text, and every lexicon stage reads it.  A ``WordTable`` measures
letters, syllables and the complex/difficult tests once per distinct
word text per run: ``report.Resources`` owns one, so every document
analysed with the same resources shares it.  Only the position-dependent
part of the complex-word rule is applied per occurrence, in
``compute_stats``.
"""

from __future__ import annotations

import re
import unicodedata
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Mapping

from .errors import DataFileError, InputTextError

__all__ = [
    "Token",
    "TextStats",
    "Document",
    "WordTable",
    "normalize",
    "split_sentences",
    "tokenize",
    "count_syllables",
    "build_document",
    "compute_stats",
    "load_familiar_words",
    "load_syllable_exceptions",
]

# Apostrophe variants that may appear inside a word ("don't", "don’t").
_APOSTROPHES = "'’"
_HYPHEN = "-"

# Sentence terminators and the closing marks allowed to trail them.
_TERMINATORS = ".!?"
_CLOSERS = "\"'’”)»]"

# Abbreviations that must not end a sentence even when followed by
# whitespace and a capital ("Dr. King", "etc. More").  Compared against
# the lowercased word preceding the terminator, internal dots kept.
_ABBREVIATIONS = frozenset(
    {"mr", "mrs", "dr", "st", "vs", "etc", "jr", "sr", "prof", "inc", "ltd", "co", "e.g", "i.e"}
)

_VOWELS = frozenset("aeiouy")


# ---------------------------------------------------------------------------
# Core dataclasses
# ---------------------------------------------------------------------------


class Token:
    """One token of the original text.

    ``text`` is the exact substring ``raw[start:end]``; ``is_word`` marks
    tokens containing at least one letter or digit (punctuation runs are
    kept as non-word tokens so the token stream can reproduce the input).

    A value class: tokens compare and hash by their four fields and must
    not be modified after construction.  It is slotted (no per-instance
    dict) because a document holds one per token.
    """

    __slots__ = ("text", "start", "end", "is_word")

    def __init__(self, text: str, start: int, end: int, is_word: bool) -> None:
        if end <= start:
            raise ValueError(f"token span must be non-empty: [{start}, {end})")
        self.text = text
        self.start = start
        self.end = end
        self.is_word = is_word

    def _key(self) -> tuple[str, int, int, bool]:
        return (self.text, self.start, self.end, self.is_word)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Token(text={self.text!r}, start={self.start!r}, "
            f"end={self.end!r}, is_word={self.is_word!r})"
        )


@dataclass(frozen=True)
class TextStats:
    """Surface counts for a document, the raw material of readability."""

    word_count: int
    sentence_count: int
    syllable_count: int
    letter_count: int
    char_count: int
    polysyllable_count: int
    complex_word_count: int
    difficult_word_count: int


@dataclass(frozen=True)
class Document:
    """A parsed text: raw string, sentence spans, and tokens.

    Sentence spans are ``(start, end)`` offsets into ``raw``; tokens are
    in reading order and each lies inside exactly one sentence span.
    """

    doc_id: str
    raw: str
    sentences: tuple[tuple[int, int], ...]
    tokens: tuple[Token, ...]

    @property
    def word_tokens(self) -> tuple[Token, ...]:
        return tuple(t for t in self.tokens if t.is_word)

    @cached_property
    def keys(self) -> tuple[str | None, ...]:
        """``normalize(tok.text)`` for each word token, ``None`` for each
        non-word token, aligned with ``tokens``.

        Computed on first use, once per distinct token text; tokens with
        equal text share one key string.
        """
        memo: dict[str, str] = {}
        keys: list[str | None] = []
        for tok in self.tokens:
            if not tok.is_word:
                keys.append(None)
                continue
            key = memo.get(tok.text)
            if key is None:
                key = memo[tok.text] = normalize(tok.text)
            keys.append(key)
        return tuple(keys)

    def sentence_text(self, index: int) -> str:
        start, end = self.sentences[index]
        return self.raw[start:end]


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def normalize(text: str) -> str:
    """Lowercase, NFC-normalized matching key for a token or phrase word.

    Curly apostrophes fold to straight ones so ``don’t`` and ``don't``
    compare equal.  Used for lexicon lookup, never for display.
    """
    folded = unicodedata.normalize("NFC", text).lower()
    return folded.replace("’", "'")


# ---------------------------------------------------------------------------
# Sentence splitting
# ---------------------------------------------------------------------------


def _preceding_word(text: str, pos: int) -> str:
    """The letter/dot run ending just before ``pos`` (for the abbreviation
    guard); dots are kept so compound abbreviations like ``e.g`` survive."""
    i = pos
    while i > 0 and (text[i - 1].isalpha() or text[i - 1] == "."):
        i -= 1
    return text[i:pos].strip(".")


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Sentence spans as ``(start, end)`` offsets into ``text``.

    A boundary needs: one or more of ``. ! ?``, optional closing
    quotes/brackets, at least one whitespace character, and a capital
    letter or digit next.  The word before the terminator must not be a
    known abbreviation.  Text without any terminator is one sentence.
    Spans cover every non-whitespace character and never overlap.
    """
    n = len(text)
    spans: list[tuple[int, int]] = []
    # Start of the current sentence: first non-whitespace char not yet consumed.
    cursor = 0

    def _skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    cursor = _skip_ws(0)
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
# Tokenization
# ---------------------------------------------------------------------------


def _is_word_char(ch: str) -> bool:
    return ch.isalpha() or ch.isdigit()


# Whitespace-free chunks; ``\S`` is exactly ``not str.isspace()``.
_CHUNK = re.compile(r"\S+")


def tokenize(text: str, *, offset: int = 0) -> list[Token]:
    """Tokens of ``text``, offsets shifted by ``offset``.

    Word tokens are maximal runs of letters/digits where an apostrophe or
    hyphen flanked by such characters joins the run (``don't``,
    ``self-evident``).  Between words, any run of non-whitespace
    characters becomes one non-word token.  Joining token texts with the
    whitespace between them reproduces the input exactly.
    """
    tokens: list[Token] = []
    for match in _CHUNK.finditer(text):
        chunk = match.group()
        start = offset + match.start()
        if chunk.isalpha():
            tokens.append(Token(chunk, start, start + len(chunk), True))
        else:
            _tokenize_chunk(chunk, start, tokens)
    return tokens


def _tokenize_chunk(chunk: str, offset: int, tokens: list[Token]) -> None:
    """Append the tokens of one whitespace-free chunk.  No token crosses
    whitespace, so each chunk tokenizes independently of its neighbours."""
    n = len(chunk)
    i = 0
    while i < n:
        if _is_word_char(chunk[i]):
            j = i + 1
            while j < n:
                cj = chunk[j]
                if _is_word_char(cj):
                    j += 1
                elif (
                    (cj in _APOSTROPHES or cj == _HYPHEN)
                    and j + 1 < n
                    and _is_word_char(chunk[j + 1])
                    and _is_word_char(chunk[j - 1])
                ):
                    j += 1
                else:
                    break
            tokens.append(Token(chunk[i:j], offset + i, offset + j, True))
        else:
            j = i + 1
            while j < n and not _is_word_char(chunk[j]):
                j += 1
            tokens.append(Token(chunk[i:j], offset + i, offset + j, False))
        i = j


# ---------------------------------------------------------------------------
# Syllable counting
# ---------------------------------------------------------------------------


def _vowel_groups(part: str) -> list[tuple[int, int]]:
    """Maximal runs of vowels (a, e, i, o, u, y) in a lowercase part."""
    groups: list[tuple[int, int]] = []
    i = 0
    n = len(part)
    while i < n:
        if part[i] in _VOWELS:
            j = i
            while j < n and part[j] in _VOWELS:
                j += 1
            groups.append((i, j))
            i = j
        else:
            i += 1
    return groups


def _part_syllables(part: str) -> int:
    """Syllables of one hyphen-free lowercase part (may be zero)."""
    # Digit runs each count as one syllable; letters around them are
    # counted by vowel groups without silent-e adjustment.
    if any(ch.isdigit() for ch in part):
        count = 0
        in_digits = False
        for ch in part:
            if ch.isdigit():
                if not in_digits:
                    count += 1
                    in_digits = True
            else:
                in_digits = False
        count += len(_vowel_groups("".join(ch for ch in part if not ch.isdigit())))
        return count

    letters = "".join(ch for ch in part if ch.isalpha())
    if not letters:
        return 0
    groups = _vowel_groups(letters)
    count = len(groups)
    if count > 1 and letters.endswith("e"):
        if letters.endswith("le") and len(letters) >= 3 and letters[-3] not in _VOWELS:
            pass  # "-ble", "-tle", ... : the final e is pronounced
        elif letters[-2] not in _VOWELS:
            count -= 1  # silent final e forming its own vowel group
    return count


def count_syllables(word: str, exceptions: Mapping[str, int] | None = None) -> int:
    """Estimated syllable count for a single word token, always >= 1.

    The exceptions table (lowercased word -> count) wins outright when it
    contains the word.  Otherwise hyphen-separated parts are counted
    independently and summed: vowel groups per part, minus a silent final
    e that forms its own group (kept after a consonant + ``le``), with
    each maximal digit run worth one syllable.
    """
    key = normalize(word.strip())
    if not any(ch.isalpha() or ch.isdigit() for ch in key):
        raise InputTextError(f"cannot count syllables of {word!r}: no letters or digits")
    if exceptions and key in exceptions:
        return exceptions[key]
    total = sum(_part_syllables(part) for part in key.split(_HYPHEN))
    return max(1, total)


# ---------------------------------------------------------------------------
# Document construction
# ---------------------------------------------------------------------------


def build_document(doc_id: str, text: str) -> Document:
    """Split ``text`` into sentences and tokens.

    Tokenization runs per sentence span, so every token lies inside its
    sentence and offsets index into the original string.
    """
    spans = split_sentences(text)
    tokens: list[Token] = []
    for start, end in spans:
        tokens.extend(tokenize(text[start:end], offset=start))
    return Document(doc_id=doc_id, raw=text, sentences=tuple(spans), tokens=tuple(tokens))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

_COMPLEX_SUFFIXES = ("ing", "es", "ed")


def _word_type(
    text: str,
    familiar_words: frozenset[str],
    exceptions: Mapping[str, int] | None,
) -> tuple[int, int, int, bool, bool]:
    """``(letters, characters, syllables, complex, difficult)`` of one
    distinct word-token text.

    ``complex`` is the Gunning-Fog test without its position-dependent
    part: three or more syllables, excluding hyphenated compounds and
    words that only reach three syllables through a common suffix (-es,
    -ed, -ing).  ``difficult`` is the Dale-Chall test: neither the
    lowercased form nor its naive singular (one trailing ``s`` stripped)
    is on the familiar list.
    """
    letters = sum(1 for ch in text if ch.isalpha())
    characters = sum(1 for ch in text if ch.isalpha() or ch.isdigit())
    syllables = count_syllables(text, exceptions)
    lower = normalize(text)

    is_complex = syllables >= 3 and _HYPHEN not in text
    if is_complex:
        for suffix in _COMPLEX_SUFFIXES:
            if lower.endswith(suffix):
                stem = lower[: -len(suffix)]
                if any(ch.isalpha() or ch.isdigit() for ch in stem):
                    is_complex = count_syllables(stem, exceptions) >= 3
                break

    is_difficult = lower not in familiar_words and not (
        lower.endswith("s") and lower[:-1] in familiar_words
    )
    return letters, characters, syllables, is_complex, is_difficult


def _sentence_initial_texts(doc: Document) -> Counter[str]:
    """Occurrence counts of the texts of each sentence's first word token."""
    tokens = doc.tokens
    n = len(tokens)
    counts: Counter[str] = Counter()
    start_of = attrgetter("start")
    k = 0
    for start, end in doc.sentences:
        k = bisect_left(tokens, start, lo=k, key=start_of)
        while k < n and tokens[k].start < end and not tokens[k].is_word:
            k += 1
        if k < n and tokens[k].start < end:
            counts[tokens[k].text] += 1
    return counts


# Word texts a ``WordTable`` remembers, least recently used dropped first,
# and the longest text it remembers.  Measured with tracemalloc on
# CPython 3.11, an entry costs about 160 bytes (cache link, dict slot,
# figures tuple) plus its key string: 57 bytes for an 8-letter ASCII
# word, at most 332 for 64 characters.  A full table of ordinary words
# is about 3.4 MiB and can never pass about 8 MiB.
_WORD_TABLE_SIZE = 16384
_WORD_TABLE_TEXT_MAX = 64


class WordTable:
    """The per-type figures of word-token texts, remembered across
    documents.

    ``measure(text)`` returns ``(letters, characters, syllables, complex,
    difficult)`` for one word-token text, as measured against this
    table's familiar words and syllable exceptions.  The figures depend
    only on the text and those two resources, so a table may be shared
    by any number of documents and threads.  It remembers the most
    recently measured texts, up to a fixed number of entries; texts
    longer than a fixed length are measured on every call.
    """

    __slots__ = ("familiar_words", "exceptions", "_cached")

    def __init__(
        self,
        familiar_words: frozenset[str] | Iterable[str],
        exceptions: Mapping[str, int] | None = None,
    ) -> None:
        familiar = (
            familiar_words if isinstance(familiar_words, frozenset) else frozenset(familiar_words)
        )
        # A private copy: later edits to the caller's mapping must not
        # leave remembered figures stale.
        own_exceptions = dict(exceptions or {})
        self.familiar_words = familiar
        self.exceptions = own_exceptions

        @lru_cache(maxsize=_WORD_TABLE_SIZE)
        def cached(text: str) -> tuple[int, int, int, bool, bool]:
            return _word_type(text, familiar, own_exceptions)

        self._cached = cached

    def measure(self, text: str) -> tuple[int, int, int, bool, bool]:
        if len(text) > _WORD_TABLE_TEXT_MAX:
            return _word_type(text, self.familiar_words, self.exceptions)
        return self._cached(text)

    def cache_info(self):
        """Hits, misses, maximum and current size of the remembered texts."""
        return self._cached.cache_info()


def compute_stats(
    doc: Document,
    familiar_words: WordTable | frozenset[str] | Iterable[str],
    exceptions: Mapping[str, int] | None = None,
) -> TextStats:
    """Surface statistics for ``doc``.

    ``familiar_words`` is either a ``WordTable``, which already holds the
    familiar words and syllable exceptions (``exceptions`` must then be
    left out), or the familiar words themselves, from which a fresh
    table is built with ``exceptions``.

    ``letter_count`` counts alphabetic characters inside word tokens;
    ``char_count`` counts alphanumeric ones.  An empty document yields
    all-zero stats.  Each distinct token text is measured once, by the
    table, and its figures are multiplied by its occurrence count.
    """
    if isinstance(familiar_words, WordTable):
        if exceptions is not None:
            raise TypeError("a WordTable already holds its syllable exceptions")
        table = familiar_words
    else:
        table = WordTable(familiar_words, exceptions)
    measure = table.measure
    occurrences = Counter(tok.text for tok in doc.tokens if tok.is_word)
    sentence_initial = _sentence_initial_texts(doc)

    word_count = 0
    syllable_count = 0
    letter_count = 0
    char_count = 0
    polysyllable_count = 0
    complex_word_count = 0
    difficult_word_count = 0

    for text, n in occurrences.items():
        letters, characters, syllables, is_complex, is_difficult = measure(text)
        word_count += n
        letter_count += n * letters
        char_count += n * characters
        syllable_count += n * syllables
        if syllables >= 3:
            polysyllable_count += n
        if is_complex:
            # A capitalized word is complex only at the start of a
            # sentence; elsewhere it is likely a proper noun.
            complex_word_count += sentence_initial[text] if text[0].isupper() else n
        if is_difficult:
            difficult_word_count += n

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
# Data-file loaders
# ---------------------------------------------------------------------------


def read_data_lines(source: str | Path | IO[str] | IO[bytes]) -> tuple[str, list[str]]:
    """``(display name, lines)`` of a data file given as a path or as a
    text or UTF-8 byte stream; the reader of every data-file loader."""
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return str(getattr(source, "name", "<stream>")), data.splitlines()
    path = Path(source)
    try:
        return str(path), path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataFileError(f"cannot read file: {exc}", source=str(path)) from exc


def load_familiar_words(source: str | Path | IO[str] | IO[bytes]) -> frozenset[str]:
    """Load a familiar-word list: one lowercase word per line, ``#``
    comments and blank lines ignored."""
    name, lines = read_data_lines(source)
    words: set[str] = set()
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line != line.lower():
            raise DataFileError(
                f"familiar word must be lowercase: {line!r}", source=name, line=lineno
            )
        if any(ch.isspace() for ch in line):
            raise DataFileError(
                f"familiar word must be a single word: {line!r}", source=name, line=lineno
            )
        words.add(line)
    return frozenset(words)


def load_syllable_exceptions(source: str | Path | IO[str] | IO[bytes]) -> dict[str, int]:
    """Load a syllable-exceptions table: ``word<TAB>count`` per line,
    ``#`` comments and blank lines ignored."""
    name, lines = read_data_lines(source)
    table: dict[str, int] = {}
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataFileError(
                f"expected 'word<TAB>count', got {raw_line!r}", source=name, line=lineno
            )
        word, count_text = parts[0].strip(), parts[1].strip()
        try:
            count = int(count_text)
        except ValueError as exc:
            raise DataFileError(
                f"syllable count must be an integer, got {count_text!r}",
                source=name,
                line=lineno,
            ) from exc
        if count < 1:
            raise DataFileError(
                f"syllable count must be >= 1, got {count}", source=name, line=lineno
            )
        table[normalize(word)] = count
    return table
