"""Lexicon-based sentiment: polarity in [-1, 1], subjectivity in [0, 1].

Scoring visits only the word tokens found in the lexicon, filtered from
the document's ``CandidateIndex``.  Every such token contributes its
entry polarity, scaled by the intensity factor of an immediately
preceding modifier ("very", "slightly", ...) and flipped-and-dampened by
-0.5 when a negator appears within the three preceding word tokens;
punctuation between them does not count.  They are read from the
document's keys, where a punctuation token's key is ``None``.  The
document score is the arithmetic mean of those contributions (so length
alone cannot saturate it), clamped into range; a document with no
lexicon hits scores exactly (0, 0).  The lexicon file is read by
``textcore.DataLines``.
"""

from __future__ import annotations

from math import fsum, isfinite
from pathlib import Path
from typing import IO, Mapping, NamedTuple, Sequence

from .candidates import CandidateIndex, StartWords
from .textcore import DataLines, Document

__all__ = [
    "SentimentEntry",
    "SentimentLexicon",
    "SentimentScore",
    "NEGATION_FACTOR",
    "NEGATION_WINDOW",
    "load_sentiment_lexicon",
    "analyze_sentiment",
]

NEGATION_FACTOR = -0.5
NEGATION_WINDOW = 3  # word tokens before the matched one


class SentimentEntry(NamedTuple):
    polarity: float
    subjectivity: float


class SentimentLexicon(NamedTuple):
    """Scored terms plus intensity modifiers and negators.

    All keys are normalized single words; modifiers scale a following
    entry's polarity by their factor and never count as matched terms.
    """

    entries: Mapping[str, SentimentEntry]
    modifiers: Mapping[str, float]
    negators: frozenset[str]


class SentimentScore(NamedTuple):
    """Document-level sentiment: zero matches means exact neutrality."""

    polarity: float
    subjectivity: float
    matched_terms: int


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _finite(lines: DataLines, text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise lines.error(f"{what} must be a number, got {text!r}") from exc
    if not isfinite(value):
        raise lines.error(f"{what} must be finite")
    return value


def load_sentiment_lexicon(source: str | Path | IO[str] | IO[bytes]) -> SentimentLexicon:
    """Parse a three-section sentiment lexicon file.

    The default (headerless) section holds ``term,polarity,subjectivity``
    lines; a ``[modifiers]`` section holds ``term,factor`` lines; a
    ``[negators]`` section holds bare words.  Section names are read in
    any case.  Out-of-range values and unknown sections are errors
    naming the line, besides those of ``textcore.DataLines``.
    """
    lines = DataLines(source)
    entries: dict[str, SentimentEntry] = {}
    modifiers: dict[str, float] = {}
    negators: set[str] = set()
    section = "entries"

    for line in lines:
        header = lines.header(line)
        if header is not None:
            section = header.lower()
            if section not in ("modifiers", "negators"):
                raise lines.error(f"unknown section [{section}]")
        elif section == "entries":
            term, polarity_text, subjectivity_text = lines.fields(
                line, ",", 3, "term,polarity,subjectivity"
            )
            term = lines.word(term)
            polarity = _finite(lines, polarity_text, "polarity")
            subjectivity = _finite(lines, subjectivity_text, "subjectivity")
            if not -1.0 <= polarity <= 1.0:
                raise lines.error(f"polarity out of range [-1, 1]: {polarity}")
            if not 0.0 <= subjectivity <= 1.0:
                raise lines.error(f"subjectivity out of range [0, 1]: {subjectivity}")
            lines.define(entries, term, SentimentEntry(polarity, subjectivity), "term")
        elif section == "modifiers":
            term, factor_text = lines.fields(line, ",", 2, "term,factor")
            term = lines.word(term)
            factor = _finite(lines, factor_text, "factor")
            if factor <= 0:
                raise lines.error(f"modifier factor must be positive, got {factor}")
            lines.define(modifiers, term, factor, "modifier")
        else:  # negators
            negators.add(lines.word(line))

    return SentimentLexicon(entries=entries, modifiers=modifiers, negators=frozenset(negators))


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def _clamp(value: float, low: float, high: float) -> float:
    return min(high, max(low, value))


def _words_before(keys: Sequence[str | None], i: int) -> Sequence[str]:
    """The keys of the last ``NEGATION_WINDOW`` word tokens before token
    ``i`` (fewer at the start), nearest last: the keys just before it when
    none of them is punctuation, else found by a walk back that skips it.
    A token is walked by at most ``NEGATION_WINDOW`` later word tokens,
    so the walks of a document are linear in its length."""
    words = keys[max(i - NEGATION_WINDOW, 0) : i]
    if None not in words:
        return words
    words = []
    while len(words) < NEGATION_WINDOW and i > 0:
        i -= 1
        if keys[i] is not None:
            words.append(keys[i])
    words.reverse()
    return words


def analyze_sentiment(
    doc: Document, lex: SentimentLexicon, *, index: CandidateIndex | None = None
) -> SentimentScore:
    """Mean-of-matches sentiment for one document.

    Modifier tokens are skipped as matches even when they also appear in
    the entry table, so "very" can boost a neighbor without scoring
    itself.  Results are clamped to polarity [-1, 1], subjectivity
    [0, 1]; zero matches yield exactly (0.0, 0.0).  ``index`` is the
    document's ``CandidateIndex`` when the entry table is a part of its
    start words (as ``analyze`` builds it; another index raises
    ``ValueError``); without one, the entries are found by a scan of the
    document's keys.
    """
    keys = doc.keys
    entries, modifiers, negators = lex.entries, lex.modifiers, lex.negators
    if index is None:
        index = CandidateIndex(keys, StartWords(entries))
    contributions: list[float] = []
    subjectivities: list[float] = []

    # Only the word tokens found in the entry table are visited.
    for i in index.among(entries):
        key = keys[i]
        if key in modifiers:
            continue
        entry = entries[key]
        polarity = entry.polarity
        before = _words_before(keys, i)
        if before and before[-1] in modifiers:
            polarity *= modifiers[before[-1]]
        if not negators.isdisjoint(before):
            polarity *= NEGATION_FACTOR
        contributions.append(polarity)
        subjectivities.append(entry.subjectivity)

    if not contributions:
        return SentimentScore(polarity=0.0, subjectivity=0.0, matched_terms=0)
    return SentimentScore(
        polarity=_clamp(fsum(contributions) / len(contributions), -1.0, 1.0),
        subjectivity=_clamp(fsum(subjectivities) / len(subjectivities), 0.0, 1.0),
        matched_terms=len(contributions),
    )
