"""Text primitives: normalization, sentence splitting, tokenization,
syllable counting, and surface statistics.

Everything downstream (readability scoring, lexicon matching, sentiment,
entity tagging) is built on the types in this module, so the rules here
are deliberately small, explicit, and heavily tested:

* word tokens are maximal runs of letters/digits and the combining
  marks that follow them, with apostrophes and hyphens kept when they
  sit between two such characters;
* sentence boundaries require a terminator, optional closing quotes or
  brackets, whitespace, and a following capital letter or digit, with a
  short abbreviation guard;
* a byte-order mark (U+FEFF) at the start of a text is neither a token
  nor part of a sentence, and offsets still index the text it leads;
* syllables come from vowel-group counting with an exceptions table and
  a silent-e rule.

A ``Document`` is its id and its text; its sentence spans and tokens are
derived from the text, so they always match it.  Its tokens are columns,
not objects: ``Tokens`` keeps the token texts and start offsets in a
list and an ``array('q')``, and builds ``Token`` records only when it is
iterated; the pipeline reads the columns.  A token's end offset is its
start plus the length of its text, and whether it is a word is a rule
about its text (its first character is a letter or digit), so neither
is stored by ``tokenize``: the word flags are derived on first read, one
rule call per distinct text, and the analysis never reads them.  Equal
token texts of one document are one string object, so the text column
costs a pointer per token and one string per distinct text.
``tokenize`` fills the columns from one regex scan, whose pattern is the
whole token grammar: a text that is not ASCII is scanned through
a translation that gives each non-ASCII character a one-character
stand-in for its class (letter or digit, combining mark, ``’``,
whitespace, other), run by run where such characters are sparse.
``split_sentences`` visits only the runs of sentence terminators that
whitespace follows; a match can start only at the first terminator of a
run, so a run that no whitespace follows is read once.  Both patterns
open with a character class, so the regex engine skips to each match
with its C prefix scan; one that opens with a group, a branch of groups
or a repeat gets none, and tries a whole match at every position it
passes.

Text work is done once and shared.  A ``WordTable`` is a run's type
table: for each distinct word text it normalizes the text once and keeps
its matching key, its statistics figures (letters, syllables, the
complex/difficult tests) and whether it is a number token, bounded and
least recently used first out.  ``report.Resources`` owns one, so every
document analysed with the same resources shares it: ``analyze`` looks
each distinct word text of a document up once (``WordTable.types``),
fills ``Document.keys`` from those entries and sums the statistics from
them.  Only the position-dependent part of the complex-word rule is
applied per occurrence, in ``compute_stats``.  A bare ``Document``
computes its own keys on first use, one ``normalize`` call per distinct
word text.

Every lexicon stage reads the keys, and visits only candidates: power
words, gazetteer surfaces and fixed date/time phrases all match through
one ``PhraseMatcher``, and sentiment scores lexicon entries.  A
``candidates.CandidateIndex`` holds the positions (with their keys and
stage bytes) where some stage can find a match, a phrase at its anchor
word, picked out by one C-level scan of the key column against the union
of the stages' start words; ``analyze`` builds one per document and each
stage filters that short list by its bit of the stage byte.  A stage called
on a bare ``Document`` makes its own index.

Every data-file loader reads its file through ``DataLines``, which holds
the rules they share: UTF-8 with an optional byte-order mark, blank lines
and ``#`` comments skipped, ``[section]`` headers, keys through
``normalize``, and errors that name the file and line.
"""

from __future__ import annotations

import operator
import re
import unicodedata
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from functools import cached_property, lru_cache
from itertools import compress, count, filterfalse, islice, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .candidates import CandidateIndex, StartWords
from .errors import DataFileError, InputTextError

__all__ = [
    "Token",
    "Tokens",
    "TextStats",
    "Document",
    "WordTable",
    "DocumentTypes",
    "normalize",
    "is_number_key",
    "split_sentences",
    "tokenize",
    "count_syllables",
    "build_document",
    "compute_stats",
    "load_familiar_words",
    "load_syllable_exceptions",
]

_HYPHEN = "-"

# A byte-order mark that an editor left at the start of a file.
_BOM = "\ufeff"

# A sentence-break candidate: a run of terminators and the closing marks
# allowed to trail it (group 1), and the whitespace after it.  It opens
# with a character class, not a repeat, so ``re`` skips to each terminator
# with its C prefix scan.  A match cannot start at a closer, and the
# lookbehind lets it start only at the first terminator of a run: an
# attempt at every later one would read to the run's end again, which
# costs time quadratic in a run that no whitespace follows.  The matches
# are exactly the runs whitespace follows.  ``\s`` is exactly
# ``str.isspace``.
_BREAK = re.compile(r"""([.!?](?<![.!?][.!?])[.!?]*["'’”)»\]]*)\s+""")
# Leading whitespace.
_SPACE_RUN = re.compile(r"\s*")

# Abbreviations that must not end a sentence even when followed by
# whitespace and a capital ("Dr. King", "etc. More").  Compared against
# the lowercased word preceding the terminator, internal dots kept.
_ABBREVIATIONS = frozenset(
    {"mr", "mrs", "dr", "st", "vs", "etc", "jr", "sr", "prof", "inc", "ltd", "co", "e.g", "i.e"}
)

_VOWELS = frozenset("aeiouy")
_VOWEL_RUN = re.compile("[aeiouy]+")


# ---------------------------------------------------------------------------
# Core records
# ---------------------------------------------------------------------------


class Record:
    """Base of the immutable value classes that carry behaviour a
    ``NamedTuple`` cannot: argument checks, cached or derived
    attributes, ``len`` or lookup by key.  The plain records are
    ``NamedTuple``s.

    A subclass names its constructor arguments in ``_fields``, in order;
    its ``__init__`` stores them with ``Record.__init__``, and what it
    derives from them in ``vars(self)``.  Instances compare equal and
    hash by class and fields, print as ``Name(field=value, ...)``, refuse
    assignment and deletion, and pickle and copy by calling the
    constructor with their fields, so derived attributes are derived again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        vars(self).update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class Token(NamedTuple):
    """One token of the original text.

    ``text`` is the exact substring ``raw[start:end]``; ``is_word`` marks
    tokens containing at least one letter or digit (punctuation runs are
    kept as non-word tokens so the token stream can reproduce the input).
    A document stores no ``Token``: its ``Tokens`` builds one per token
    when it is iterated, and the pipeline reads the columns instead.
    """

    text: str
    start: int
    end: int
    is_word: bool


class Tokens:
    """A document's tokens, stored as two parallel columns.

    ``texts[i]`` and ``starts[i]`` are the text and start offset of
    token i: a list of strings and an ``array('q')`` of offsets.  Its end
    offset, ``end(i)``, is not stored: the text is the exact input from
    its start.  ``is_word[i]``, a ``bytearray`` of 0/1 flags, is derived
    from the texts on first read (``_word_text``, once per distinct
    text) and kept.  ``tokenize`` stores one string per distinct text,
    so equal texts are the same object.  The columns are what the
    pipeline reads; iteration builds one ``Token`` per token, in order.
    Equal to a ``Tokens`` with equal texts and starts, which the flags
    follow from; unhashable, and must not be modified once built.
    """

    __slots__ = ("texts", "starts", "_is_word")

    def __init__(self) -> None:
        self.texts: list[str] = []
        self.starts = array("q")
        self._is_word: bytearray | None = None

    @property
    def is_word(self) -> bytearray:
        """The word flag of each token."""
        flags = self._is_word
        if flags is None:
            distinct = set(self.texts)
            word = dict(zip(distinct, map(_word_text, distinct)))
            flags = self._is_word = bytearray(map(word.__getitem__, self.texts))
        return flags

    def __len__(self) -> int:
        return len(self.texts)

    def end(self, i: int) -> int:
        """The end offset of token ``i``."""
        return self.starts[i] + len(self.texts[i])

    def __iter__(self) -> Iterator[Token]:
        ends = map(operator.add, self.starts, map(len, self.texts))
        return map(Token, self.texts, self.starts, ends, map(bool, self.is_word))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Tokens):
            return self.texts == other.texts and self.starts == other.starts
        return NotImplemented

    def __repr__(self) -> str:
        return f"Tokens({list(self)!r})"


class TextStats(NamedTuple):
    """Surface counts for a document, the raw material of readability."""

    word_count: int
    sentence_count: int
    syllable_count: int
    letter_count: int
    char_count: int
    polysyllable_count: int
    complex_word_count: int
    difficult_word_count: int


class Document(Record):
    """A text and its id, the only fields: equality, hash, ``repr`` and
    pickling read those two and never build a ``Token``.

    ``sentences`` (``tuple(split_sentences(raw))``, ``(start, end)``
    offsets into ``raw``) and ``tokens`` (``tokenize(raw)``, columns in
    reading order) are derived from ``raw`` when the document is built.
    Spans break only at whitespace, which no token crosses, so each token
    lies inside exactly one span.
    """

    _fields = ("doc_id", "raw")

    doc_id: str
    raw: str
    sentences: tuple[tuple[int, int], ...]
    tokens: Tokens

    def __init__(self, doc_id: str, raw: str) -> None:
        Record.__init__(self, doc_id, raw)
        # Through the module names, which the benchmark's tracer replaces.
        vars(self).update(sentences=tuple(split_sentences(raw)), tokens=tokenize(raw))

    @cached_property
    def keys(self) -> tuple[str | None, ...]:
        """``normalize(tok.text)`` for each word token, ``None`` for each
        non-word token, aligned with ``tokens``; tokens with equal text
        share one key string.

        ``analyze`` fills it from its resources' ``WordTable``
        (``DocumentTypes.fill_keys``); on a bare document it is computed
        on first use, one ``normalize`` call per distinct word text.
        """
        texts = self.tokens.texts
        # A non-word text is left out, so it looks up ``None``.
        memo = {text: normalize(text) for text in filter(_word_text, set(texts))}
        return tuple(map(memo.get, texts))


class PhraseMatcher:
    """Leftmost-longest matching of word phrases over normalized keys.

    Built from a ``{phrase: value}`` mapping whose phrases are normalized
    words joined by single spaces, compiled once into a word trie (the
    word-level keyword trie of Aho & Corasick).  It reads a key sequence
    such as ``Document.keys``, where a ``None`` key is a barrier no phrase
    crosses: a non-word token, or a token an earlier pass has claimed.
    A phrase is looked for at its anchor, its longest word (the leftmost
    on a tie): "the long night" at "night", not at each "the" (a phrase
    query run from its rarest term, Manning, Raghavan & Schütze, §2.4).
    ``anchors`` holds the anchor words that begin their phrase and
    ``shifted`` maps each other anchor word to its offsets in its phrases.
    ``find`` filters their positions from a document's ``CandidateIndex``,
    tries the phrase starts they give, in order, and walks the trie from
    a start only when a phrase can end past its first word or at it.
    Phrases are a few words long, so each walk is short and the scan
    needs no failure links.  Immutable, so safe to share between threads.
    """

    __slots__ = ("_root", "anchors", "shifted")

    def __init__(self, phrases: Mapping[str, object]) -> None:
        # Each node maps a word to its child node; the node that ends a
        # phrase also maps ``None`` to that phrase's value.
        root: dict = {}
        anchors = set()
        shifted: dict[str, set[int]] = {}
        for phrase, value in phrases.items():
            words = phrase.split(" ")
            node = root
            for word in words:
                node = node.setdefault(word, {})
            node[None] = value
            anchor = max(words, key=len)  # the first of the longest
            offset = words.index(anchor)
            if offset:
                shifted.setdefault(anchor, set()).add(offset)
            else:
                anchors.add(anchor)
        self._root = root
        self.anchors = frozenset(anchors)
        self.shifted = {word: tuple(sorted(offsets)) for word, offsets in shifted.items()}

    def longest_at(self, keys: Sequence[str | None], i: int) -> tuple[int, object] | None:
        """``(stop, value)`` of the longest phrase that is exactly
        ``keys[i:stop]``, or ``None`` when no phrase starts at ``i``."""
        node = self._root
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

    def find(
        self, keys: Sequence[str | None], *, index: CandidateIndex | None = None
    ) -> Iterator[tuple[int, int, object]]:
        """``(start, stop, value)`` of each leftmost-longest match, in
        order and non-overlapping: the scan resumes at each ``stop``.

        ``index``, a ``CandidateIndex`` built over ``keys`` whose start
        words include ``anchors`` and ``shifted``, gives the candidate
        positions (an index built for other words raises ``ValueError``);
        without one, ``find`` builds its own from ``keys``.  A caller
        may set a yielded match's ``keys[start:stop]`` to ``None`` before
        asking for the next match, as the entity tagger's claims do, or
        mask keys before the scan: the live key is re-read at each
        candidate, so the scan sees the masked keys.
        """
        root = self._root
        last = len(keys) - 1
        stop = 0
        shifted = self.shifted
        if index is None:
            index = CandidateIndex(keys, StartWords(self.anchors, shifted))
        starts = index.among(self.anchors)
        if shifted:
            # A phrase whose anchor sits ``offset`` words in starts that
            # far before it; a masked anchor starts nothing, and a start
            # before 0 is skipped as one before ``stop``.
            starts = sorted([
                *starts,
                *(p - offset for p in index.among(shifted) for offset in shifted.get(keys[p], ())),
            ])
        for i in starts:
            if i < stop:
                continue
            node = root.get(keys[i])
            if node is None:  # no phrase starts here, or the key is masked
                continue
            # Walk only when the first word is a phrase by itself or the
            # next key continues one.
            if None in node or (i < last and keys[i + 1] in node):
                hit = self.longest_at(keys, i)
                if hit is not None:
                    stop, value = hit
                    yield i, stop, value


def tokenizes_as_words(phrase: str) -> bool:
    """Whether each space-separated word of ``phrase`` tokenizes to exactly
    one word token (a byte-order mark is none); else it can never match."""
    words = phrase.split(" ")
    # Each stand-in is one character, so the pieces align with the words
    # unless a stand-in space splits a word: then it is two tokens.
    pieces = (phrase if phrase.isascii() else _with_stand_ins(phrase)).split(" ")
    return (
        len(pieces) == len(words)
        and all(map(_TOKEN.fullmatch, pieces))
        and all(map(_word_text, words))
    )


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def normalize(text: str) -> str:
    """Lowercase, NFC-normalized matching key for a token or phrase word.

    Curly apostrophes fold to straight ones so ``don’t`` and ``don't``
    compare equal.  Used for lexicon lookup, never for display.
    """
    if text.isascii():  # NFC and the apostrophe fold leave ASCII as it is
        return text.lower()
    folded = unicodedata.normalize("NFC", text).lower()
    return folded.replace("’", "'")


# Spelled-out number words: with digit runs, the number tokens of the
# entity tagger, whose test ``WordTable`` keeps per word text.
_UNITS = {"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine"}
_TEENS = {
    "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen",
    "seventeen", "eighteen", "nineteen",
}
_TENS = {"twenty", "thirty", "forty", "fifty", "sixty", "seventy", "eighty", "ninety"}
_SCALES = {"hundred", "thousand", "million", "billion", "trillion"}
_SCALE_PLURALS = {scale + "s" for scale in _SCALES}
_NUMBER_WORDS = frozenset(_UNITS | _TEENS | _TENS | _SCALES | _SCALE_PLURALS)


def is_number_key(key: str) -> bool:
    """Whether a word key is a number token: a run of digits, a number
    word, or number words joined by hyphens (``twenty-five``)."""
    if key.isdigit() or key in _NUMBER_WORDS:
        return True
    return "-" in key and all(part in _NUMBER_WORDS for part in key.split("-"))


# ---------------------------------------------------------------------------
# Sentence splitting
# ---------------------------------------------------------------------------


def _abbreviation_before(text: str, pos: int) -> bool:
    """Whether the letter/dot run ending just before ``pos``, outer dots
    stripped and lowercased, is a known abbreviation.  Inner dots are kept
    so ``e.g`` survives, and combining marks so an NFD word stays whole.
    When the five characters before ``pos`` are letters, the run is not
    walked: it ends in them, ``str.lower`` never shortens it, and no
    abbreviation has five letters."""
    if pos >= 5 and text[pos - 5 : pos].isalpha():
        return False
    i = pos
    while i > 0 and (text[i - 1].isalpha() or text[i - 1] == "." or _is_mark(text[i - 1])):
        i -= 1
    return text[i:pos].strip(".").lower() in _ABBREVIATIONS


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Sentence spans as ``(start, end)`` offsets into ``text``.

    A boundary needs: one or more of ``. ! ?``, optional closing
    quotes/brackets, at least one whitespace character, and a capital
    letter or digit next.  The word before the terminator must not be a
    known abbreviation.  Text without any terminator is one sentence.
    Spans cover every non-whitespace character but a leading byte-order
    mark, and never overlap.  Only the terminator runs that whitespace
    follows are visited; the regex engine skips the text between them.
    """
    n = len(text)
    spans: list[tuple[int, int]] = []
    # Start of the current sentence: first non-whitespace char not yet consumed.
    cursor = _SPACE_RUN.match(text, 1 if text.startswith(_BOM) else 0).end()

    for run in _BREAK.finditer(text, cursor):
        next_char = run.end()
        if (
            next_char < n
            and (text[next_char].isupper() or text[next_char].isdigit())
            and not _abbreviation_before(text, run.start())
        ):
            spans.append((cursor, run.end(1)))
            cursor = next_char

    # Whatever remains (including text with no terminator at all) is the
    # final sentence; trim trailing whitespace from the span.
    tail_end = len(text.rstrip())
    if tail_end > cursor:
        spans.append((cursor, tail_end))
    return spans


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------


def _is_mark(ch: str) -> bool:
    """A combining mark (category M*): part of the word it follows, so
    NFC and NFD forms of a text tokenize alike."""
    return unicodedata.category(ch)[0] == "M"


# The token grammar, one token per match, over ASCII and the stand-ins of
# ``_Classes``: a word, or a run of punctuation.  ``\s`` is exactly
# ``str.isspace``.  The pattern opens with a character class, so ``re``
# skips whitespace with its C prefix scan; the lookbehind then tells a
# word's first character, as ``_word_text`` tells it from the token text.
_TOKEN = re.compile(
    r"[^\s](?:"
    r"(?<=[A-Za-z0-9\x81])(?:[A-Za-z0-9\x80\x81]*(?:['\x82-][A-Za-z0-9\x81][A-Za-z0-9\x80\x81]*)*)"
    r"|[^\sA-Za-z0-9\x81]*)"
)


def _word_text(text: str) -> bool:
    """Whether a token text is a word: its first character is a letter or
    digit (``str.isalpha`` or ``str.isdigit``, which on ASCII are exactly
    ``[A-Za-z0-9]``), the characters ``_Classes`` gives the stand-in
    U+0081.  A punctuation token holds no such character."""
    first = text[:1]
    return first.isalpha() or first.isdigit()


class _Classes(dict):
    """A ``str.translate`` table that keeps ASCII and gives every other
    character the one-character Latin-1 stand-in of its class: U+0081 a
    letter or digit, U+0080 a combining mark, U+0082 the apostrophe ``’``,
    a space whitespace, and U+0083 anything else (U+0080 to U+0083
    themselves included).  Filled one code point at a time; ``_with_stand_ins``
    makes one per call, so no table outlives the text it read."""

    __slots__ = ()

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        if code < 0x80:
            stand_in = ch
        elif ch.isalpha() or ch.isdigit():
            stand_in = "\x81"
        elif ch.isspace():
            stand_in = " "
        elif ch == "’":
            stand_in = "\x82"
        else:
            stand_in = "\x80" if _is_mark(ch) else "\x83"
        self[code] = stand_in
        return stand_in


# Text with fewer than one non-ASCII character in this many is given its
# stand-ins run by run.  ``str.translate`` costs about 40 ns for every
# character of the text; ``re.sub`` skips ASCII in C at about 11 ns a
# character but pays 0.5 to 0.75 us per non-ASCII run, so on the sample
# corpus the two break even at one such character in 15 to 30.
_SPARSE = 20
_NON_ASCII = re.compile(r"[^\x00-\x7f]+")


def _with_stand_ins(text: str) -> str:
    """A copy of ``text`` with every non-ASCII character replaced by its
    ``_Classes`` stand-in: what the regex engine scans of such text."""
    table = _Classes()
    if (len(text) - len(text.encode("ascii", "ignore"))) * _SPARSE < len(text):
        return _NON_ASCII.sub(lambda run: run[0].translate(table), text)
    return text.translate(table)


# Matches read per batch: each batch fills the columns in C-level loops.
# Match objects are tracked by the garbage collector, so a batch stays
# well below its default first-generation threshold (700 allocations);
# a larger one triggers a collection at almost every batch.
_BATCH = 256


def tokenize(text: str) -> Tokens:
    """Tokens of ``text``.

    Word tokens are maximal runs of letters/digits and the combining
    marks that follow them, where an apostrophe or hyphen between two
    such runs joins them (``don't``, ``self-evident``).  Between words,
    any run of non-whitespace characters becomes one non-word token.
    A leading byte-order mark is skipped.  Joining token texts with the
    whitespace between them reproduces the rest of the input exactly.

    The regex engine finds every token: text that is not ASCII is first
    translated, character for character (or, where such characters are
    sparse, run by run), into ASCII and the stand-ins of its characters'
    classes, and a token text that is not ASCII there is cut from ``text``
    again.  Equal token texts are one string object.
    """
    tokens = Tokens()
    # The first string of each distinct text, which every later equal
    # text is swapped for.  Local to the call, so a document's texts are
    # freed with it; ``sys.intern`` would keep them for the life of the
    # process (its strings are immortal from CPython 3.12).
    seen: dict[str, str] = {}
    share = seen.setdefault
    subject = text if text.isascii() else _with_stand_ins(text)
    matches = _TOKEN.finditer(subject, 1 if text.startswith(_BOM) else 0)
    while batch := list(islice(matches, _BATCH)):
        texts = list(map(re.Match.group, batch))
        if subject is not text:
            # Every stand-in is U+0080 or above: a text that reads as
            # ASCII is the input's own, and only the others are cut again.
            for k in compress(count(), map(operator.not_, map(str.isascii, texts))):
                start, end = batch[k].span()
                texts[k] = text[start:end]
        tokens.texts += map(share, texts, texts)
        tokens.starts.extend(map(re.Match.start, batch))
    return tokens


# ---------------------------------------------------------------------------
# Syllable counting
# ---------------------------------------------------------------------------


def _vowel_runs(part: str) -> int:
    """Number of maximal runs of vowels (a, e, i, o, u, y) in a lowercase
    part, counted by the regex engine."""
    return _VOWEL_RUN.subn("", part)[1]


def _part_syllables(part: str) -> int:
    """Syllables of one hyphen-free lowercase part (may be zero)."""
    if part.isalpha():
        letters = part
    elif any(ch.isdigit() for ch in part):
        # Digit runs each count as one syllable; letters around them are
        # counted by vowel groups without silent-e adjustment.
        count = 0
        in_digits = False
        for ch in part:
            if ch.isdigit():
                if not in_digits:
                    count += 1
                    in_digits = True
            else:
                in_digits = False
        return count + _vowel_runs("".join(ch for ch in part if not ch.isdigit()))
    else:
        letters = "".join(ch for ch in part if ch.isalpha())
    count = _vowel_runs(letters)
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
    """``text`` split into sentences and tokens: ``Document(doc_id, text)``."""
    return Document(doc_id, text)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

_COMPLEX_SUFFIXES = ("ing", "es", "ed")


# What a ``WordTable`` holds for one word text, an entry: ``(key,
# letters, characters, syllables, complex, difficult, number)``.
WordType = tuple[str, int, int, int, bool, bool, bool]
_KEY = operator.itemgetter(0)
_NUMBER = operator.itemgetter(6)
_START = operator.itemgetter(0)


def _word_type(
    text: str,
    familiar_words: frozenset[str],
    exceptions: Mapping[str, int] | None,
) -> WordType:
    """The entry of one distinct word-token text.

    ``key`` is ``normalize(text)``.  ``complex`` is the Gunning-Fog test
    without its position-dependent part: three or more syllables,
    excluding hyphenated compounds and words that only reach three
    syllables through a common suffix (-es, -ed, -ing).  ``difficult`` is
    the Dale-Chall test: neither the lowercased form nor its naive
    singular (one trailing ``s`` stripped) is on the familiar list.
    ``number`` is ``is_number_key(key)``.
    """
    # Counted on the NFC form: decomposed Hangul jamo are letters too.
    composed = unicodedata.normalize("NFC", text)
    if composed.isalpha():
        letters = characters = len(composed)
    else:
        letters = sum(1 for ch in composed if ch.isalpha())
        characters = sum(1 for ch in composed if ch.isalpha() or ch.isdigit())
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
    # An already-normalized text is its own key: the table keeps one string.
    key = text if lower == text else lower
    return key, letters, characters, syllables, is_complex, is_difficult, is_number_key(lower)


def _sentence_initial_texts(doc: Document, words: Mapping[str, int]) -> Counter[str]:
    """Occurrence counts of the texts of each sentence's first word token;
    ``words`` holds the document's word texts."""
    texts, starts = doc.tokens.texts, doc.tokens.starts
    sentences = doc.sentences
    # A sentence starts at its first non-whitespace character, which
    # starts a token: the sentence's first token.
    firsts = list(map(bisect_left, repeat(starts), map(_START, sentences)))
    first_texts = list(map(texts.__getitem__, firsts))
    counts = Counter(filter(words.__contains__, first_texts))
    # A sentence led by punctuation: its first word follows, if any.
    for s in compress(count(), map(operator.not_, map(words.__contains__, first_texts))):
        end = sentences[s][1]
        for k in range(firsts[s] + 1, bisect_left(starts, end, firsts[s])):
            if texts[k] in words:
                counts[texts[k]] += 1
                break
    return counts


# Word texts a ``WordTable`` remembers, least recently used dropped first,
# and the longest text it remembers.  Measured with tracemalloc on
# CPython 3.11, an entry costs about 180 bytes (cache link, dict slot,
# entry tuple) plus its text: 57 bytes for an 8-letter ASCII word, at
# most 332 for 64 characters, and as much again for a key that differs
# from its text.  A full table of ordinary words is about 4 MiB and can
# never pass about 14 MiB.
_WORD_TABLE_SIZE = 16384
_WORD_TABLE_TEXT_MAX = 64


class WordTable:
    """A run's type table: the entry (``WordType``) of word-token texts,
    remembered across documents.

    ``entry(text)`` normalizes one word-token text and measures it against
    this table's own copies of the familiar words (``familiar_words``) and
    syllable exceptions (``exceptions``).  An entry depends only on the
    text, those two resources and the functions it is derived with, so a
    table may be shared by any number of documents and threads.  It
    remembers the most recently used texts, up to a fixed number of
    entries, and drops the least recently used first; texts longer than a
    fixed length are measured on every call.  When this module's
    ``normalize`` or ``count_syllables`` is rebound (a monkeypatch, a
    profiler's wrapper), the table forgets what it remembers, so its
    entries always come from the functions a bare ``Document`` would use.
    ``types(doc)`` looks each distinct word text of a document up once.
    """

    __slots__ = ("familiar_words", "exceptions", "_cached", "_functions")

    def __init__(
        self,
        familiar_words: Iterable[str],
        exceptions: Mapping[str, int] | None = None,
    ) -> None:
        # Private copies: later edits to the caller's collections must
        # not leave remembered figures stale.
        familiar = frozenset(familiar_words)
        own_exceptions = dict(exceptions or {})
        self.familiar_words = familiar
        self.exceptions = own_exceptions

        @lru_cache(maxsize=_WORD_TABLE_SIZE)
        def cached(text: str) -> WordType:
            return _word_type(text, familiar, own_exceptions)

        self._cached = cached
        self._functions = (normalize, count_syllables)

    def _current(self):
        """The cached entry function, emptied first if the functions an
        entry is derived with were rebound since it was filled."""
        functions = (normalize, count_syllables)
        if functions != self._functions:
            self._cached.cache_clear()
            self._functions = functions
        return self._cached

    def entry(self, text: str) -> WordType:
        if len(text) > _WORD_TABLE_TEXT_MAX:
            return _word_type(text, self.familiar_words, self.exceptions)
        return self._current()(text)

    def types(self, doc: Document) -> DocumentTypes:
        """The distinct word texts of ``doc`` with their entries."""
        counts = Counter(doc.tokens.texts)
        for text in list(filterfalse(_word_text, counts)):
            del counts[text]
        cached = self._current()
        # The cached function directly, in C, unless a text is too long.
        fits = max(map(len, counts), default=0) <= _WORD_TABLE_TEXT_MAX
        return DocumentTypes(counts, list(map(cached if fits else self.entry, counts)))

    def cache_info(self):
        """Hits, misses, maximum and current size of the remembered texts."""
        return self._cached.cache_info()


class DocumentTypes:
    """The distinct word texts of one document and their table entries:
    ``counts`` maps each text to its number of occurrences, in order of
    first occurrence, and ``entries`` holds their entries in the same
    order."""

    __slots__ = ("counts", "entries")

    def __init__(self, counts: Counter[str], entries: list[WordType]) -> None:
        self.counts = counts
        self.entries = entries

    def numbers(self) -> frozenset[str]:
        """The document's number keys."""
        entries = self.entries
        return frozenset(compress(map(_KEY, entries), map(_NUMBER, entries)))

    def fill_keys(self, doc: Document) -> tuple[str | None, ...]:
        """``doc.keys``, filled from the entries; ``doc`` is the document
        of these types."""
        memo = dict(zip(self.counts, map(_KEY, self.entries)))
        keys = tuple(map(memo.get, doc.tokens.texts))
        # ``keys`` is a cached property: it reads the instance's dict.
        vars(doc)["keys"] = keys
        return keys


def compute_stats(doc: Document, types: DocumentTypes) -> TextStats:
    """Surface statistics for ``doc`` from ``types``, its distinct word
    texts and their entries: ``table.types(doc)`` of a ``WordTable``
    holding the familiar words and syllable exceptions to measure with.

    ``letter_count`` counts alphabetic characters inside word tokens;
    ``char_count`` counts alphanumeric ones.  An empty document yields
    all-zero stats.  Each distinct token text's figures are multiplied by
    its occurrence count.
    """
    sentence_initial = _sentence_initial_texts(doc, types.counts)

    word_count = 0
    syllable_count = 0
    letter_count = 0
    char_count = 0
    polysyllable_count = 0
    complex_word_count = 0
    difficult_word_count = 0

    for (text, n), entry in zip(types.counts.items(), types.entries):
        _key, letters, characters, syllables, is_complex, is_difficult, _number = entry
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


class DataLines:
    """The lines of one data file, read by the rules every loader shares.

    ``source`` is a path or a text or UTF-8 byte stream; a leading
    byte-order mark is dropped, and a file that cannot be read or is not
    UTF-8 is an error naming it.  Iterating yields each stripped line
    that is neither blank nor a ``#`` comment, and keeps ``lineno`` (1-based)
    and ``raw`` (the line as written) on the current line; both are
    ``None`` outside iteration, so ``error`` then names the file alone.
    A ``# version: ...`` comment sets ``version``.  The methods below
    parse the parts of a line and raise ``DataFileError`` at it.
    """

    def __init__(self, source: str | Path | IO[str] | IO[bytes]) -> None:
        stream = hasattr(source, "read")
        self.source = str(getattr(source, "name", "<stream>") if stream else Path(source))
        try:
            data = source.read() if stream else Path(source).read_bytes()
            if isinstance(data, bytes):
                data = data.decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataFileError(f"cannot read file: {exc}", source=self.source) from exc
        # Lines end where ``open`` and editors end them, not at ``\f`` or U+2028.
        data = data.removeprefix(_BOM).replace("\r\n", "\n").replace("\r", "\n")
        self._lines = data.split("\n")
        self.version: str | None = None
        self.lineno: int | None = None
        self.raw: str | None = None
        # id of a table -> {key: line that first defined the key}.
        self._first_lines: defaultdict[int, dict[object, int]] = defaultdict(dict)

    def __iter__(self) -> Iterator[str]:
        for self.lineno, self.raw in enumerate(self._lines, start=1):
            line = self.raw.strip()
            if line.startswith("#"):
                comment = line.lstrip("#").strip()
                if comment.lower().startswith("version:"):
                    self.version = comment.split(":", 1)[1].strip()
            elif line:
                yield line
        self.lineno = self.raw = None

    def error(self, message: str) -> DataFileError:
        """The error to raise for the current line (or the whole file)."""
        return DataFileError(message, source=self.source, line=self.lineno)

    def fields(self, line: str, sep: str, count: int, form: str) -> list[str]:
        """The ``count`` stripped fields of ``line`` split at ``sep``;
        ``form`` spells the expected line for the error."""
        parts = [part.strip() for part in line.split(sep)]
        if len(parts) != count:
            raise self.error(f"expected {form!r}, got {self.raw!r}")
        return parts

    @staticmethod
    def header(line: str) -> str | None:
        """The name inside a ``[section]`` header line, else ``None``."""
        if line.startswith("[") and line.endswith("]"):
            return line[1:-1].strip()
        return None

    def word(self, text: str) -> str:
        """The matching key of a one-word entry, which must tokenize as
        one word."""
        key = normalize(text.strip())
        if key.isascii() and key.isalnum():  # one word token, no scan needed
            return key
        # Empty or holding whitespace.
        if key.split() != [key]:
            raise self.error(f"expected a single word, got {text!r}")
        if not tokenizes_as_words(key):
            raise self.error(f"word {key!r} can never match: it must tokenize as one word")
        return key

    def phrase(self, text: str, what: str) -> str:
        """The matching key of a phrase entry: normalized words joined by
        single spaces, each of which must tokenize as one word."""
        phrase = " ".join(normalize(text).split())
        if not phrase:
            raise self.error(f"empty {what}")
        if not tokenizes_as_words(phrase):
            raise self.error(
                f"{what} {phrase!r} can never match: each word must tokenize as one word"
            )
        return phrase

    def define(self, table: dict, key: object, value: object, what: str) -> None:
        """Set ``table[key] = value``; a repeated key must repeat its value."""
        first = self._first_lines[id(table)].setdefault(key, self.lineno)
        old = table.setdefault(key, value)
        if old != value:
            raise self.error(
                f"{what} {key!r} already defined as {old} on line {first}, conflicting {value}"
            )


def load_familiar_words(source: str | Path | IO[str] | IO[bytes]) -> frozenset[str]:
    """Load a familiar-word list: one lowercase word per line, keyed as
    ``normalize`` keys word tokens."""
    lines = DataLines(source)
    words: set[str] = set()
    for line in lines:
        if line != line.lower():
            raise lines.error(f"familiar word must be lowercase: {line!r}")
        words.add(lines.word(line))
    return frozenset(words)


def load_syllable_exceptions(source: str | Path | IO[str] | IO[bytes]) -> dict[str, int]:
    """Load a syllable-exceptions table: ``word<TAB>count`` per line, the
    word keyed as ``normalize`` keys word tokens.  A word holding
    whitespace is an error, and so is a repeated word with another count;
    a repeat with the same count is accepted."""
    lines = DataLines(source)
    table: dict[str, int] = {}
    for line in lines:
        word, count_text = lines.fields(line, "\t", 2, "word<TAB>count")
        key = lines.word(word)
        try:
            count = int(count_text)
        except ValueError as exc:
            raise lines.error(f"syllable count must be an integer, got {count_text!r}") from exc
        if count < 1:
            raise lines.error(f"syllable count must be >= 1, got {count}")
        lines.define(table, key, count, "word")
    return table
