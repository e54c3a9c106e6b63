"""Lexicon-based sentiment: polarity in [-1, 1], subjectivity in [0, 1].

Scoring walks the document's word tokens.  Every token found in the
lexicon contributes its entry polarity, scaled by the intensity factor
of an immediately preceding modifier ("very", "slightly", ...) and
flipped-and-dampened by -0.5 when a negator appears within the three
preceding word tokens.  The document score is the arithmetic mean of
those contributions (so length alone cannot saturate it), clamped into
range; a document with no lexicon hits scores exactly (0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import IO, Mapping, NamedTuple

from .errors import DataFileError
from .textcore import Document, normalize, read_data_lines

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


@dataclass(frozen=True)
class SentimentLexicon:
    """Scored terms plus intensity modifiers and negators.

    All keys are normalized single words; modifiers scale a following
    entry's polarity by their factor and never count as matched terms.
    """

    entries: Mapping[str, SentimentEntry]
    modifiers: Mapping[str, float]
    negators: frozenset[str]


@dataclass(frozen=True)
class SentimentScore:
    """Document-level sentiment: zero matches means exact neutrality."""

    polarity: float
    subjectivity: float
    matched_terms: int


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _single_word(term: str, name: str, lineno: int) -> str:
    key = normalize(term.strip())
    if not key:
        raise DataFileError("empty term", source=name, line=lineno)
    if any(ch.isspace() for ch in key):
        raise DataFileError(
            f"sentiment terms are single words, got {term!r}", source=name, line=lineno
        )
    return key


def _parse_float(text: str, what: str, name: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise DataFileError(
            f"{what} must be a number, got {text!r}", source=name, line=lineno
        ) from exc
    if value != value or value in (float("inf"), float("-inf")):
        raise DataFileError(f"{what} must be finite", source=name, line=lineno)
    return value


def load_sentiment_lexicon(source: str | Path | IO[str] | IO[bytes]) -> SentimentLexicon:
    """Parse a three-section sentiment lexicon file.

    The default (headerless) section holds ``term,polarity,subjectivity``
    lines; a ``[modifiers]`` section holds ``term,factor`` lines; a
    ``[negators]`` section holds bare words.  ``#`` comments and blank
    lines are ignored.  Out-of-range values, malformed lines, and
    duplicate terms with different values are errors naming the line.
    """
    name, lines = read_data_lines(source)
    entries: dict[str, SentimentEntry] = {}
    modifiers: dict[str, float] = {}
    negators: set[str] = set()
    section = "entries"

    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section_name = line[1:-1].strip().lower()
            if section_name not in ("modifiers", "negators"):
                raise DataFileError(
                    f"unknown section [{section_name}]", source=name, line=lineno
                )
            section = section_name
            continue

        if section == "entries":
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise DataFileError(
                    f"expected 'term,polarity,subjectivity', got {raw_line!r}",
                    source=name,
                    line=lineno,
                )
            term = _single_word(parts[0], name, lineno)
            polarity = _parse_float(parts[1], "polarity", name, lineno)
            subjectivity = _parse_float(parts[2], "subjectivity", name, lineno)
            if not -1.0 <= polarity <= 1.0:
                raise DataFileError(
                    f"polarity out of range [-1, 1]: {polarity}", source=name, line=lineno
                )
            if not 0.0 <= subjectivity <= 1.0:
                raise DataFileError(
                    f"subjectivity out of range [0, 1]: {subjectivity}",
                    source=name,
                    line=lineno,
                )
            entry = SentimentEntry(polarity, subjectivity)
            if term in entries and entries[term] != entry:
                raise DataFileError(
                    f"term {term!r} already defined with different values",
                    source=name,
                    line=lineno,
                )
            entries[term] = entry
        elif section == "modifiers":
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise DataFileError(
                    f"expected 'term,factor', got {raw_line!r}", source=name, line=lineno
                )
            term = _single_word(parts[0], name, lineno)
            factor = _parse_float(parts[1], "factor", name, lineno)
            if factor <= 0:
                raise DataFileError(
                    f"modifier factor must be positive, got {factor}",
                    source=name,
                    line=lineno,
                )
            if term in modifiers and modifiers[term] != factor:
                raise DataFileError(
                    f"modifier {term!r} already defined with a different factor",
                    source=name,
                    line=lineno,
                )
            modifiers[term] = factor
        else:  # negators
            negators.add(_single_word(line, name, lineno))

    return SentimentLexicon(
        entries=dict(entries), modifiers=dict(modifiers), negators=frozenset(negators)
    )


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def _clamp(value: float, low: float, high: float) -> float:
    return min(high, max(low, value))


def analyze_sentiment(doc: Document, lex: SentimentLexicon) -> SentimentScore:
    """Mean-of-matches sentiment for one document.

    Modifier tokens are skipped as matches even when they also appear in
    the entry table, so "very" can boost a neighbor without scoring
    itself.  Results are clamped to polarity [-1, 1], subjectivity
    [0, 1]; zero matches yield exactly (0.0, 0.0).
    """
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
        polarity=_clamp(fmean(contributions), -1.0, 1.0),
        subjectivity=_clamp(fmean(subjectivities), 0.0, 1.0),
        matched_terms=len(contributions),
    )
