"""Rule-based entity tagging: dates, times, numbers, and gazetteer lookups.

This is a deliberately deterministic tagger.  A pattern pass finds
date expressions, a small set of time-of-day phrases, and cardinal
numbers (digit tokens and spelled-out number words); a gazetteer pass
then applies longest-match lookup for curated surface forms (peoples,
places, organizations, laws, persons, works).  Earlier passes win on
overlap, and anything not matched is left untagged — precision over
recall, never a guess.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping, Sequence

from .errors import DataFileError
from .textcore import Document, Token, normalize

__all__ = [
    "EntityLabel",
    "EntitySpan",
    "Gazetteer",
    "load_gazetteer",
    "tag_entities",
    "render_annotations",
]


class EntityLabel(enum.Enum):
    """Closed label set for entity spans."""

    DATE = "DATE"
    TIME = "TIME"
    CARDINAL = "CARDINAL"
    NORP = "NORP"
    ORG = "ORG"
    GPE = "GPE"
    LAW = "LAW"
    WORK_OF_ART = "WORK_OF_ART"
    PERSON = "PERSON"

    def __str__(self) -> str:
        return self.value


# Labels a gazetteer file may define; the other three come from patterns.
_GAZETTEER_LABELS = (
    EntityLabel.NORP,
    EntityLabel.GPE,
    EntityLabel.ORG,
    EntityLabel.LAW,
    EntityLabel.PERSON,
    EntityLabel.WORK_OF_ART,
)


@dataclass(frozen=True)
class EntitySpan:
    """One tagged region of the raw text."""

    start: int
    end: int
    surface: str
    label: EntityLabel


@dataclass(frozen=True)
class Gazetteer:
    """Normalized surface form -> label lookups for the curated labels.

    The surfaces are compiled once, at construction, into a word trie:
    each node maps a word to its child node, and the node that ends a
    surface also maps ``None`` to that surface's label.
    """

    entries: Mapping[str, EntityLabel]
    _trie: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        root: dict = {}
        for surface, label in self.entries.items():
            node = root
            for word in surface.split(" "):
                node = node.setdefault(word, {})
            node[None] = label
        object.__setattr__(self, "_trie", root)


# ---------------------------------------------------------------------------
# Vocabulary for the pattern pass
# ---------------------------------------------------------------------------

_UNITS = {"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine"}
_TEENS = {
    "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen",
    "seventeen", "eighteen", "nineteen",
}
_TENS = {"twenty", "thirty", "forty", "fifty", "sixty", "seventy", "eighty", "ninety"}
_SCALES = {"hundred", "thousand", "million", "billion", "trillion"}
_SCALE_PLURALS = {scale + "s" for scale in _SCALES}
_NUMBER_WORDS = _UNITS | _TEENS | _TENS | _SCALES | _SCALE_PLURALS

_RELATIVE_DAYS = {"today", "tomorrow", "yesterday"}
_WEEKDAYS = {
    "monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday",
}
_MONTHS = {
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
}
# Phrases tagged DATE verbatim.  "score years ago" keeps the archaic
# "score" out of the number grammar while still dating the phrase.
_DATE_PHRASES = (("score", "years", "ago"),)
# Small fixed list of time-of-day expressions.
_TIME_PHRASES = (("the", "long", "night"), ("midnight",), ("noon",))
# Time phrases by first word, longest first.
_TIME_PHRASES_BY_START = {
    first: [phrase for phrase in sorted(_TIME_PHRASES, key=len, reverse=True) if phrase[0] == first]
    for first in {phrase[0] for phrase in _TIME_PHRASES}
}

_YEAR_RANGE = range(1500, 2100)

# Keys that can start a date other than a number token (which covers years).
_DATE_START_WORDS = (
    _MONTHS | _RELATIVE_DAYS | _WEEKDAYS | {phrase[0] for phrase in _DATE_PHRASES}
)


def _is_number_word(key: str) -> bool:
    if key in _NUMBER_WORDS:
        return True
    if "-" in key:
        parts = key.split("-")
        return len(parts) > 1 and all(part in _NUMBER_WORDS for part in parts)
    return False


def _is_digit_token(key: str) -> bool:
    return key.isdigit()


def _is_number_token(key: str) -> bool:
    return _is_digit_token(key) or _is_number_word(key)


def _is_year(key: str) -> bool:
    return len(key) == 4 and key.isdigit() and int(key) in _YEAR_RANGE


def _is_day_of_month(key: str) -> bool:
    return key.isdigit() and len(key) <= 2 and 1 <= int(key) <= 31


# ---------------------------------------------------------------------------
# Gazetteer loading
# ---------------------------------------------------------------------------


def _read_lines(source: str | Path | IO[str] | IO[bytes]) -> tuple[str, list[str]]:
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


def load_gazetteer(source: str | Path | IO[str] | IO[bytes]) -> Gazetteer:
    """Parse a sectioned gazetteer file.

    Sections are ``[NORP]``, ``[GPE]``, ``[ORG]``, ``[LAW]``, ``[PERSON]``,
    ``[WORK_OF_ART]``; each non-comment line inside a section is one
    surface form (single- or multi-word).  The same surface under two
    labels is an error.
    """
    name, lines = _read_lines(source)
    valid = {label.value: label for label in _GAZETTEER_LABELS}
    entries: dict[str, EntityLabel] = {}
    current: EntityLabel | None = None

    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in valid:
                raise DataFileError(
                    f"unknown gazetteer section [{section}] "
                    f"(expected one of {', '.join(valid)})",
                    source=name,
                    line=lineno,
                )
            current = valid[section]
            continue
        if current is None:
            raise DataFileError(
                "surface form before any section header", source=name, line=lineno
            )
        surface = " ".join(normalize(line).split())
        if not surface:
            raise DataFileError("empty surface form", source=name, line=lineno)
        existing = entries.get(surface)
        if existing is not None and existing is not current:
            raise DataFileError(
                f"surface {surface!r} listed under both {existing.value} "
                f"and {current.value}",
                source=name,
                line=lineno,
            )
        entries[surface] = current

    return Gazetteer(entries=dict(entries))


# ---------------------------------------------------------------------------
# Tagging
# ---------------------------------------------------------------------------


class _Tagger:
    """One tagging run over a document's tokens and normalized keys.

    ``free[i]`` is true while token i is a word token no pass has claimed;
    a trailing ``False`` sentinel ends every look-ahead at the last token
    without a bounds check.
    """

    def __init__(self, doc: Document):
        self.raw = doc.raw
        self.tokens: Sequence[Token] = doc.tokens
        self.keys = doc.keys
        self.free = [key is not None for key in self.keys]
        self.free.append(False)
        self.spans: list[EntitySpan] = []

    def claim(self, start_tok: int, end_tok: int, label: EntityLabel) -> None:
        start = self.tokens[start_tok].start
        end = self.tokens[end_tok - 1].end
        self.free[start_tok:end_tok] = [False] * (end_tok - start_tok)
        self.spans.append(
            EntitySpan(start=start, end=end, surface=self.raw[start:end], label=label)
        )

    def phrase_at(self, i: int, words: tuple[str, ...]) -> bool:
        """True when the normalized words appear as consecutive free word
        tokens starting at token i."""
        for j, word in enumerate(words, start=i):
            if not self.free[j] or self.keys[j] != word:
                return False
        return True

    def number_runs(self) -> list[int]:
        """``runs[i]``: how many free number tokens follow in a row from
        token i (0 when token i is not one), computed right to left."""
        free, keys = self.free, self.keys
        is_number = {key: _is_number_token(key) for key in set(keys) if key is not None}
        runs = [0] * len(free)
        for i in range(len(keys) - 1, -1, -1):
            if free[i] and is_number[keys[i]]:
                runs[i] = runs[i + 1] + 1
        return runs

    # -- date pattern helpers ------------------------------------------------

    def _match_date_at(self, i: int, run: int) -> int:
        """Token count of the longest date expression starting at i (0 if
        none); ``run`` is the number-token run length at i."""
        best = 0
        free, keys = self.free, self.keys
        key = keys[i]

        for phrase in _DATE_PHRASES:
            if self.phrase_at(i, phrase):
                best = max(best, len(phrase))

        # "<number words> years ago|later"
        if run:
            j = i + run
            if free[j] and keys[j] == "years" and free[j + 1] and keys[j + 1] in ("ago", "later"):
                best = max(best, run + 2)

        # Month-name expressions: "January 20, 1961", "January 1961",
        # "January 20".  The comma, when present, must be the very next
        # token.  A bare month name is not enough ("may", "march" are
        # ordinary words too).
        if key in _MONTHS:
            j = i + 1
            if free[j] and _is_day_of_month(keys[j]):
                length = 2
                k = j + 1
                if (
                    k < len(self.tokens)
                    and not self.tokens[k].is_word
                    and self.tokens[k].text == ","
                    and free[k + 1]
                    and _is_year(keys[k + 1])
                ):
                    length = (k + 1 - i) + 1  # through the year token
                elif free[k] and _is_year(keys[k]):
                    length = 3
                best = max(best, length)
            elif free[j] and _is_year(keys[j]):
                best = max(best, 2)

        if key in _RELATIVE_DAYS or key in _WEEKDAYS:
            best = max(best, 1)

        if _is_year(key):
            best = max(best, 1)

        return best

    # -- passes ----------------------------------------------------------------

    def run_dates(self) -> None:
        # Claims cover only tokens before the scan position, and a run
        # looks only ahead, so runs computed up front stay valid.
        free, keys = self.free, self.keys
        runs = self.number_runs()
        i = 0
        while i < len(keys):
            if free[i] and (runs[i] or keys[i] in _DATE_START_WORDS):
                length = self._match_date_at(i, runs[i])
                if length:
                    # A date claim may include one comma token inside
                    # (month day, year): claim the token range wholesale.
                    self.claim(i, i + length, EntityLabel.DATE)
                    i += length
                    continue
            i += 1

    def run_times(self) -> None:
        free, keys = self.free, self.keys
        i = 0
        while i < len(keys):
            matched = 0
            if free[i]:
                for phrase in _TIME_PHRASES_BY_START.get(keys[i], ()):
                    if self.phrase_at(i, phrase):
                        matched = len(phrase)
                        break
            if matched:
                self.claim(i, i + matched, EntityLabel.TIME)
                i += matched
            else:
                i += 1

    def run_cardinals(self) -> None:
        runs = self.number_runs()
        i = 0
        while i < len(self.keys):
            if runs[i]:
                length = runs[i]
                self.claim(i, i + length, EntityLabel.CARDINAL)
                i += length
            else:
                i += 1

    def run_gazetteer(self, gazetteer: Gazetteer) -> None:
        free, keys, root = self.free, self.keys, gazetteer._trie
        i = 0
        while i < len(keys):
            node = root.get(keys[i]) if free[i] else None
            if node is None:
                i += 1
                continue
            # Longest surface along the trie path from token i.
            matched = 0
            label: EntityLabel | None = None
            j = i + 1
            while True:
                found = node.get(None)
                if found is not None:
                    matched, label = j - i, found
                if not free[j]:
                    break
                node = node.get(keys[j])
                if node is None:
                    break
                j += 1
            if matched and label is not None:
                self.claim(i, i + matched, label)
                i += matched
            else:
                i += 1


def tag_entities(doc: Document, gazetteer: Gazetteer) -> list[EntitySpan]:
    """All entity spans in ``doc``, ordered by start, never overlapping.

    Pass order (earlier wins): dates, times, cardinals, then gazetteer
    longest-match.  Unmatched text is left untagged.
    """
    tagger = _Tagger(doc)
    tagger.run_dates()
    tagger.run_times()
    tagger.run_cardinals()
    tagger.run_gazetteer(gazetteer)
    return sorted(tagger.spans, key=lambda span: span.start)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_annotations(doc: Document, spans: Sequence[EntitySpan]) -> str:
    """The raw text with every span wrapped as ``**surface LABEL**``.

    Spans must lie inside the text, match their surface, and not overlap.
    """
    ordered = sorted(spans, key=lambda span: (span.start, span.end))
    out: list[str] = []
    pos = 0
    for span in ordered:
        if span.start < pos:
            raise ValueError(
                f"overlapping span at [{span.start}, {span.end})"
            )
        if span.start >= span.end or span.end > len(doc.raw):
            raise ValueError(f"span out of range: [{span.start}, {span.end})")
        if doc.raw[span.start : span.end] != span.surface:
            raise ValueError(
                f"span surface {span.surface!r} does not match text at "
                f"[{span.start}, {span.end})"
            )
        out.append(doc.raw[pos : span.start])
        out.append(f"**{span.surface} {span.label.value}**")
        pos = span.end
    out.append(doc.raw[pos:])
    return "".join(out)
