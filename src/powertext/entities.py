"""Rule-based entity tagging: dates, times, numbers, and gazetteer lookups.

This is a deliberately deterministic tagger.  Pattern passes find date
expressions, then fixed date and time-of-day phrases, then cardinal
numbers (digit tokens and spelled-out number words); a gazetteer pass
then applies longest-match lookup for curated surface forms (peoples,
places, organizations, laws, persons, works).  Earlier passes win on
overlap, and anything not matched is left untagged — precision over
recall, never a guess.

Fixed phrases (the date and time phrases, the gazetteer surfaces) all
match through ``textcore.PhraseMatcher``: the tagger's key list holds
``None`` for every token a pass has claimed, so later passes never
match across a claim.  Each pass visits only the positions where a
match can start (number tokens, date start words, first words of a
phrase), which it filters from the document's ``CandidateIndex``, not
every token.  The gazetteer file is read by ``textcore.DataLines``.
"""

from __future__ import annotations

import enum
from pathlib import Path
from typing import IO, Mapping, NamedTuple, Sequence

from .candidates import CandidateIndex, StartWords
from .textcore import DataLines, Document, PhraseMatcher, Record, is_number_key

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

    # Hashed by identity, in C, as ``powerwords.PowerCategory`` is.
    __hash__ = object.__hash__

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


class EntitySpan(NamedTuple):
    """One tagged region of the raw text."""

    start: int
    end: int
    surface: str
    label: EntityLabel


class Gazetteer(Record):
    """Normalized surface form -> label lookups for the curated labels.

    The surfaces are compiled once, at construction, into a
    ``PhraseMatcher``.  ``start_words`` holds every key but a number token
    at which the tagger's passes can start a match: the first words of the
    surfaces and of the fixed phrases, and the date start words.  Only
    ``entries`` is a field: equality, hash and ``repr`` ignore the
    derived two.
    """

    _fields = ("entries",)

    entries: Mapping[str, EntityLabel]
    _matcher: PhraseMatcher
    start_words: frozenset[str]

    def __init__(self, entries: Mapping[str, EntityLabel]) -> None:
        Record.__init__(self, entries)
        matcher = PhraseMatcher(entries)
        object.__setattr__(self, "_matcher", matcher)
        starts = _DATE_START_WORDS.union(matcher.first_words, _FIXED_PHRASES.first_words)
        object.__setattr__(self, "start_words", starts)


# ---------------------------------------------------------------------------
# Vocabulary for the pattern pass
# ---------------------------------------------------------------------------

# Number tokens (digit runs and number words) are ``textcore.is_number_key``.
_RELATIVE_DAYS = {"today", "tomorrow", "yesterday"}
_WEEKDAYS = {
    "monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday",
}
_MONTHS = {
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
}
# Phrases tagged verbatim, after the date pass.  "score years ago" keeps
# the archaic "score" out of the number grammar while still dating the
# phrase (no date rule can claim one of its words); the rest are a small
# fixed list of time-of-day expressions.
_FIXED_PHRASES = PhraseMatcher(
    {
        "score years ago": EntityLabel.DATE,
        **dict.fromkeys(("the long night", "midnight", "noon"), EntityLabel.TIME),
    }
)

_YEAR_RANGE = range(1500, 2100)

# Keys that can start a date other than a number token (which covers years).
_DATE_START_WORDS = frozenset(_MONTHS | _RELATIVE_DAYS | _WEEKDAYS)


# ``isdecimal``, not ``isdigit``: superscripts such as "²" are digits that
# ``int`` rejects.  A ``None`` key (claimed or non-word) is neither.
def _is_year(key: str | None) -> bool:
    return key is not None and len(key) == 4 and key.isdecimal() and int(key) in _YEAR_RANGE


def _is_day_of_month(key: str | None) -> bool:
    return key is not None and key.isdecimal() and len(key) <= 2 and 1 <= int(key) <= 31


# ---------------------------------------------------------------------------
# Gazetteer loading
# ---------------------------------------------------------------------------


def load_gazetteer(source: str | Path | IO[str] | IO[bytes]) -> Gazetteer:
    """Parse a sectioned gazetteer file.

    Sections are ``[NORP]``, ``[GPE]``, ``[ORG]``, ``[LAW]``, ``[PERSON]``,
    ``[WORK_OF_ART]``; each non-comment line inside a section is one
    surface form (single- or multi-word).  The same surface under two
    labels is an error.
    """
    lines = DataLines(source)
    valid = {label.value: label for label in _GAZETTEER_LABELS}
    entries: dict[str, EntityLabel] = {}
    current: EntityLabel | None = None

    for line in lines:
        section = lines.header(line)
        if section is not None:
            if section not in valid:
                raise lines.error(
                    f"unknown gazetteer section [{section}] (expected one of {', '.join(valid)})"
                )
            current = valid[section]
        elif current is None:
            raise lines.error("surface form before any section header")
        else:
            lines.define(entries, lines.phrase(line, "surface"), current, "surface")

    return Gazetteer(entries=entries)


# ---------------------------------------------------------------------------
# Tagging
# ---------------------------------------------------------------------------


class _Tagger:
    """One tagging run over a document's tokens and normalized keys.

    ``keys[i]`` is token i's normalized key while it is a word token no
    pass has claimed, and ``None`` otherwise; a trailing ``None`` sentinel
    ends every look-ahead at the last token without a bounds check.
    ``index`` is the document's ``CandidateIndex``, whose start words
    include the gazetteer's ``start_words`` and whose numbers are the
    document's number keys.  ``date_starts`` lists the tokens that can
    start a date (a number token or a date start word) and
    ``number_positions`` the number tokens, both filtered from the index
    before any claim; every pass visits only candidate positions like
    these, never every token.
    """

    def __init__(self, doc: Document, index: CandidateIndex):
        self.raw = doc.raw
        self.texts = doc.tokens.texts
        self.starts = doc.tokens.starts
        self.end = doc.tokens.end
        self.keys: list[str | None] = [*doc.keys, None]
        self.index = index
        self.spans: list[EntitySpan] = []
        self.number_positions = list(index.among(index.numbers))
        # No date start word is a number key, so no position is listed twice.
        self.date_starts = sorted([*self.number_positions, *index.among(_DATE_START_WORDS)])

    def claim(self, start_tok: int, end_tok: int, label: EntityLabel) -> None:
        start = self.starts[start_tok]
        end = self.end(end_tok - 1)
        self.keys[start_tok:end_tok] = [None] * (end_tok - start_tok)
        # ``_make`` hands the tuple to ``tuple.__new__``: no keyword call.
        self.spans.append(EntitySpan._make((start, end, self.raw[start:end], label)))

    def number_runs(self) -> dict[int, int]:
        """``runs[i]``: how many unclaimed number tokens follow in a row from
        token i, for each unclaimed number token i (a claimed one has a
        ``None`` key), filled right to left, so iterating the dict
        backwards gives the positions in order."""
        keys = self.keys
        runs: dict[int, int] = {}
        for i in reversed(self.number_positions):
            if keys[i] is not None:
                runs[i] = runs.get(i + 1, 0) + 1
        return runs

    # -- date pattern helpers ------------------------------------------------

    def _match_date_at(self, i: int, run: int) -> int:
        """Token count of the longest date expression starting at i (0 if
        none); ``run`` is the number-token run length at i."""
        keys = self.keys
        key = keys[i]
        best = 0

        # "<number words> years ago|later"
        if run:
            j = i + run
            if keys[j] == "years" and keys[j + 1] in ("ago", "later"):
                best = max(best, run + 2)

        # Month-name expressions: "January 20, 1961", "January 1961",
        # "January 20".  The comma, when present, must be the very next
        # token.  A bare month name is not enough ("may", "march" are
        # ordinary words too).
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
                    length = (k + 1 - i) + 1  # through the year token
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

    # -- passes ----------------------------------------------------------------

    def run_dates(self) -> None:
        # Claims cover only tokens before the scan position, and a run
        # looks only ahead, so candidates and runs computed up front stay
        # valid.
        runs = self.number_runs()
        resume = 0
        for i in self.date_starts:
            if i < resume:
                continue
            length = self._match_date_at(i, runs.get(i, 0))
            if length:
                # A date claim may include one comma token inside
                # (month day, year): claim the token range wholesale.
                resume = i + length
                self.claim(i, resume, EntityLabel.DATE)

    def run_phrases(self, matcher: PhraseMatcher) -> None:
        """Claim every leftmost-longest phrase of ``matcher`` among the
        unclaimed tokens, labelled with the phrase's value."""
        # ``find`` re-reads the live key at each candidate, so it sees
        # the claims made before and while it runs.
        for start, stop, label in matcher.find(self.keys, index=self.index):
            self.claim(start, stop, label)

    def run_cardinals(self) -> None:
        runs = self.number_runs()
        resume = 0
        for i in reversed(runs):
            if i >= resume:
                resume = i + runs[i]
                self.claim(i, resume, EntityLabel.CARDINAL)


def tag_entities(
    doc: Document, gazetteer: Gazetteer, *, index: CandidateIndex | None = None
) -> list[EntitySpan]:
    """All entity spans in ``doc``, ordered by start, never overlapping.

    Pass order (earlier wins): dates, fixed date and time phrases,
    cardinals, then gazetteer longest-match.  Unmatched text is left
    untagged.  ``index`` is the document's ``CandidateIndex`` when its
    start words include ``gazetteer.start_words`` and its numbers are the
    document's number keys (as ``analyze`` builds it); an index built for
    other start words or without number keys raises ``ValueError``.
    Without one, the tagger scans the document's keys for its own.
    """
    if index is None:
        distinct = set(doc.keys)
        distinct.discard(None)
        numbers = frozenset(filter(is_number_key, distinct))
        index = CandidateIndex(doc.keys, StartWords(gazetteer.start_words), numbers)
    elif index.numbers is None:
        raise ValueError("the candidate index holds no number keys")
    tagger = _Tagger(doc, index)
    tagger.run_dates()
    tagger.run_phrases(_FIXED_PHRASES)
    tagger.run_cardinals()
    tagger.run_phrases(gazetteer._matcher)
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
