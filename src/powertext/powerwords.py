"""Categorized persuasion-word lexicon: loading, matching, counting.

The lexicon maps normalized terms (single words or phrases up to six
words) to one of seven fixed categories.  Matching is case-insensitive,
aligned to word-token boundaries, leftmost-longest, and non-overlapping,
so a phrase entry like "risk free" counts once rather than once for the
phrase and once for "free".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Mapping

from .errors import DataFileError
from .textcore import Document, normalize, read_data_lines

__all__ = [
    "PowerCategory",
    "PowerLexicon",
    "PowerMatch",
    "PowerWordHits",
    "CategoryDistribution",
    "MAX_PHRASE_WORDS",
    "load_lexicon",
    "build_matcher",
    "PowerMatcher",
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


def _normalize_term(term: str) -> str:
    """Lexicon-term normal form: lowercase, trimmed, single-spaced."""
    return " ".join(normalize(term).split())


@dataclass(frozen=True)
class PowerLexicon:
    """Immutable term -> category table plus provenance strings."""

    entries: Mapping[str, PowerCategory]
    version: str = "unversioned"
    source: str = "<unknown>"

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PowerMatch:
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
    name, lines = read_data_lines(source)
    entries: dict[str, PowerCategory] = {}
    first_line: dict[str, int] = {}
    version = "unversioned"
    seen_rows = False

    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line.lstrip("#").strip()
            if comment.lower().startswith("version:"):
                version = comment.split(":", 1)[1].strip()
            continue
        if not seen_rows and line.lower().replace(" ", "") == "term,category":
            seen_rows = True
            continue
        seen_rows = True
        if "," not in line:
            raise DataFileError(
                f"expected 'term,category', got {raw_line!r}", source=name, line=lineno
            )
        raw_term, raw_category = line.rsplit(",", 1)
        category_name = raw_category.strip()
        if category_name not in _CATEGORY_BY_NAME:
            raise DataFileError(
                f"unknown category {category_name!r} "
                f"(expected one of {', '.join(_CATEGORY_BY_NAME)})",
                source=name,
                line=lineno,
            )
        category = _CATEGORY_BY_NAME[category_name]
        term = _normalize_term(raw_term)
        if not term:
            raise DataFileError("empty term", source=name, line=lineno)
        if len(term.split(" ")) > MAX_PHRASE_WORDS:
            raise DataFileError(
                f"term longer than {MAX_PHRASE_WORDS} words: {term!r}",
                source=name,
                line=lineno,
            )
        existing = entries.get(term)
        if existing is None:
            entries[term] = category
            first_line[term] = lineno
        elif existing is not category:
            raise DataFileError(
                f"term {term!r} already mapped to {existing.value} "
                f"on line {first_line[term]}, conflicting {category.value}",
                source=name,
                line=lineno,
            )

    if not entries:
        raise DataFileError("lexicon contains no entries", source=name)
    return PowerLexicon(entries=dict(entries), version=version, source=name)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


class _TrieNode:
    __slots__ = ("children", "entry")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.entry: tuple[str, PowerCategory] | None = None


class PowerMatcher:
    """Immutable word-level trie over the lexicon's normalized terms.

    Matches must start and end at word-token boundaries; phrase entries
    match only across consecutive word tokens (any intervening non-word
    token, such as punctuation, breaks the phrase).  Scanning is
    leftmost-longest and resumes after each match's end.
    """

    def __init__(self, lexicon: PowerLexicon):
        if not lexicon.entries:
            raise DataFileError("cannot build a matcher from an empty lexicon")
        root = _TrieNode()
        for term, category in lexicon.entries.items():
            node = root
            for word in term.split(" "):
                node = node.children.setdefault(word, _TrieNode())
            node.entry = (term, category)
        self._root = root

    def find(self, doc: Document) -> Iterator[PowerMatch]:
        """Matches over the document's tokens, in order, non-overlapping."""
        tokens = doc.tokens
        keys = doc.keys
        n = len(keys)
        i = 0
        while i < n:
            node = self._root
            best: tuple[int, str, PowerCategory] | None = None
            j = i
            while j < n and keys[j] is not None:
                node = node.children.get(keys[j])
                if node is None:
                    break
                if node.entry is not None:
                    term, category = node.entry
                    best = (j + 1, term, category)
                j += 1
            if best is not None:
                stop, term, category = best
                yield PowerMatch(
                    term=term,
                    category=category,
                    start=tokens[i].start,
                    end=tokens[stop - 1].end,
                )
                i = stop
            else:
                i += 1


def build_matcher(lexicon: PowerLexicon) -> PowerMatcher:
    """Compile a lexicon into its reusable, thread-safe matcher."""
    return PowerMatcher(lexicon)


def scan(doc: Document, matcher: PowerMatcher) -> PowerWordHits:
    """All lexicon hits in ``doc``, with per-category counts.

    A document with no matches yields all-zero counts (never an error).
    """
    counts: dict[PowerCategory, int] = {category: 0 for category in PowerCategory}
    matches = tuple(matcher.find(doc))
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
