"""Categorized persuasion-word lexicon: loading, matching, counting.

The lexicon maps normalized terms (single words or phrases up to six
words) to one of seven fixed categories.  Matching is case-insensitive,
aligned to word-token boundaries, leftmost-longest, and non-overlapping,
so a phrase entry like "risk free" counts once rather than once for the
phrase and once for "free".  ``build_matcher`` compiles the terms into
the shared ``textcore.PhraseMatcher``, which ``scan`` runs over
``Document.keys``, visiting the document's ``CandidateIndex`` positions;
the lexicon file is read by ``textcore.DataLines``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping, NamedTuple

from .errors import DataFileError
from .candidates import CandidateIndex
from .textcore import DataLines, Document, PhraseMatcher

__all__ = [
    "PowerCategory",
    "PowerLexicon",
    "PowerMatch",
    "PowerWordHits",
    "CategoryDistribution",
    "MAX_PHRASE_WORDS",
    "load_lexicon",
    "build_matcher",
    "scan",
    "distribution",
]

MAX_PHRASE_WORDS = 6


class PowerCategory(enum.Enum):
    """The seven persuasion categories, in their fixed reporting order."""

    GREED = "Greed"
    ENCOURAGEMENT = "Encouragement"
    SAFETY = "Safety"
    ANGER = "Anger"
    LUST = "Lust"
    FEAR = "Fear"
    FORBIDDEN = "Forbidden"

    def __str__(self) -> str:  # render as the data-file spelling
        return self.value


_CATEGORY_BY_NAME = {category.value: category for category in PowerCategory}


@dataclass(frozen=True)
class PowerLexicon:
    """Immutable term -> category table plus provenance strings."""

    entries: Mapping[str, PowerCategory]
    version: str = "unversioned"
    source: str = "<unknown>"

    def __len__(self) -> int:
        return len(self.entries)


class PowerMatch(NamedTuple):
    """One lexicon hit: the normalized term, its category, and the
    character span of the matched surface text."""

    term: str
    category: PowerCategory
    start: int
    end: int


@dataclass(frozen=True)
class PowerWordHits:
    """Scan result: per-category counts and the ordered match list."""

    counts: Mapping[PowerCategory, int]
    matches: tuple[PowerMatch, ...]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class CategoryDistribution:
    """Per-category percentage share of all hits (0-100 each)."""

    percentages: Mapping[PowerCategory, float]
    empty: bool

    def __getitem__(self, category: PowerCategory) -> float:
        return self.percentages[category]


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def load_lexicon(source: str | Path | IO[str] | IO[bytes]) -> PowerLexicon:
    """Parse a ``term,category`` lexicon file.

    ``#`` comments and blank lines are ignored; an optional header line
    ``term,category`` is skipped; a ``# version: ...`` comment is kept as
    the lexicon version.  Duplicate terms with the same category are
    deduped silently; the same term under two categories is an error, as
    are unknown category names and an empty result.
    """
    lines = DataLines(source)
    entries: dict[str, PowerCategory] = {}
    seen_rows = False

    for line in lines:
        if not seen_rows and line.lower().replace(" ", "") == "term,category":
            seen_rows = True
            continue
        seen_rows = True
        raw_term, category_name = lines.fields(line, ",", 2, "term,category")
        if category_name not in _CATEGORY_BY_NAME:
            raise lines.error(
                f"unknown category {category_name!r} "
                f"(expected one of {', '.join(_CATEGORY_BY_NAME)})"
            )
        term = lines.phrase(raw_term, "term")
        if len(term.split(" ")) > MAX_PHRASE_WORDS:
            raise lines.error(f"term longer than {MAX_PHRASE_WORDS} words: {term!r}")
        lines.define(entries, term, _CATEGORY_BY_NAME[category_name], "term")

    if not entries:
        raise lines.error("lexicon contains no entries")
    version = "unversioned" if lines.version is None else lines.version
    return PowerLexicon(entries=entries, version=version, source=lines.source)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def build_matcher(lexicon: PowerLexicon) -> PhraseMatcher:
    """Compile a lexicon into its reusable, thread-safe matcher: a
    ``textcore.PhraseMatcher`` from each term to ``(term, category)``."""
    if not lexicon.entries:
        raise DataFileError("cannot build a matcher from an empty lexicon")
    return PhraseMatcher({term: (term, category) for term, category in lexicon.entries.items()})


def scan(
    doc: Document, matcher: PhraseMatcher, *, index: CandidateIndex | None = None
) -> PowerWordHits:
    """All lexicon hits in ``doc``, with per-category counts.

    A phrase term matches only across consecutive word tokens (any
    non-word token, such as punctuation, breaks it).  A document with no
    matches yields all-zero counts (never an error).  ``index``, the
    document's ``CandidateIndex`` with the matcher's first words among
    its start words, saves a scan of every key.
    """
    starts, end = doc.tokens.starts, doc.tokens.end
    counts: dict[PowerCategory, int] = {category: 0 for category in PowerCategory}
    matches = tuple(
        PowerMatch(term=term, category=category, start=starts[start], end=end(stop - 1))
        for start, stop, (term, category) in matcher.find(doc.keys, index=index)
    )
    for match in matches:
        counts[match.category] += 1
    return PowerWordHits(counts=counts, matches=matches)


def distribution(hits: PowerWordHits) -> CategoryDistribution:
    """Percentage share per category; all zeros (flagged) when no hits."""
    total = hits.total
    if total == 0:
        return CategoryDistribution(
            percentages={category: 0.0 for category in PowerCategory}, empty=True
        )
    return CategoryDistribution(
        percentages={
            category: 100.0 * hits.counts.get(category, 0) / total
            for category in PowerCategory
        },
        empty=False,
    )
