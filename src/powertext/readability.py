"""Classic readability formulas and a consensus grade estimate.

All scoring operations are pure functions of the surface counts in a
``TextStats``, so they can be checked against hand arithmetic.  Grade
formulas clamp at zero (a grade below kindergarten is reported as 0.0);
the reading-ease score and the familiarity-based difficulty score are
left unclamped, since their out-of-range values are meaningful.
Rounding for display happens in the rendering layer, never here.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Sequence

from .errors import InputTextError
from .textcore import TextStats

__all__ = [
    "EaseScore",
    "ReadabilityReport",
    "flesch_reading_ease",
    "ease_label",
    "flesch_kincaid_grade",
    "smog_index",
    "gunning_fog",
    "coleman_liau",
    "automated_readability_index",
    "dale_chall",
    "dale_chall_grade_band",
    "text_standard",
    "readability_report",
    "READABILITY_INDICES",
    "SMOG_SENTENCE_MINIMUM",
    "SMOG_RELIABLE_SENTENCES",
]

SMOG_SENTENCE_MINIMUM = 3
SMOG_RELIABLE_SENTENCES = 30

_SMOG_NOTE = (
    "smog estimate is computed from fewer than 30 sentences "
    "and may be unreliable"
)


def _require_counts(stats: TextStats) -> None:
    if stats.word_count < 1:
        raise InputTextError("readability needs at least one word")
    if stats.sentence_count < 1:
        raise InputTextError("readability needs at least one sentence")


class EaseScore(NamedTuple):
    """Reading-ease result: the raw score and its verbal band."""

    score: float
    label: str


def ease_label(score: float) -> str:
    """Verbal difficulty band for a reading-ease score."""
    if score >= 90:
        return "Very easy"
    if score >= 80:
        return "Easy"
    if score >= 70:
        return "Fairly easy"
    if score >= 60:
        return "Standard"
    if score >= 50:
        return "Fairly difficult"
    if score >= 30:
        return "Difficult"
    return "Very confusing"


def flesch_reading_ease(stats: TextStats) -> EaseScore:
    """Reading-ease score: higher is easier, roughly 0-100 for ordinary
    prose but intentionally unclamped."""
    _require_counts(stats)
    score = (
        206.835
        - 1.015 * (stats.word_count / stats.sentence_count)
        - 84.6 * (stats.syllable_count / stats.word_count)
    )
    return EaseScore(score, ease_label(score))


def flesch_kincaid_grade(stats: TextStats) -> float:
    """U.S. school-grade estimate from sentence and word length."""
    _require_counts(stats)
    grade = (
        0.39 * (stats.word_count / stats.sentence_count)
        + 11.8 * (stats.syllable_count / stats.word_count)
        - 15.59
    )
    return max(0.0, grade)


def _smog(stats: TextStats) -> float:
    sentences = stats.sentence_count
    if sentences < SMOG_SENTENCE_MINIMUM:
        raise InputTextError(
            f"smog needs at least {SMOG_SENTENCE_MINIMUM} sentences, got {sentences}"
        )
    return 1.0430 * math.sqrt(stats.polysyllable_count * (30 / sentences)) + 3.1291


def smog_index(stats: TextStats) -> float:
    """Grade estimate from polysyllable density.

    Raises for texts under 3 sentences; warns under 30, where the sample
    is too small for the estimate to be trustworthy but it is still
    computed (short promotional texts are a routine input).
    """
    smog = _smog(stats)
    if stats.sentence_count < SMOG_RELIABLE_SENTENCES:
        warnings.warn(_SMOG_NOTE, UserWarning, stacklevel=2)
    return smog


def gunning_fog(stats: TextStats) -> float:
    """Grade estimate from sentence length and complex-word share."""
    _require_counts(stats)
    grade = 0.4 * (
        (stats.word_count / stats.sentence_count)
        + 100 * (stats.complex_word_count / stats.word_count)
    )
    return max(0.0, grade)


def coleman_liau(stats: TextStats) -> float:
    """Grade estimate from letters and sentences per 100 words."""
    _require_counts(stats)
    letters_per_100 = 100 * stats.letter_count / stats.word_count
    sentences_per_100 = 100 * stats.sentence_count / stats.word_count
    grade = 0.0588 * letters_per_100 - 0.296 * sentences_per_100 - 15.8
    return max(0.0, grade)


def automated_readability_index(stats: TextStats) -> float:
    """Grade estimate from characters per word and words per sentence."""
    _require_counts(stats)
    grade = (
        4.71 * (stats.char_count / stats.word_count)
        + 0.5 * (stats.word_count / stats.sentence_count)
        - 21.43
    )
    return max(0.0, grade)


def dale_chall(stats: TextStats) -> float:
    """Familiarity-based difficulty score (not a grade; unclamped)."""
    _require_counts(stats)
    pct_difficult = 100 * stats.difficult_word_count / stats.word_count
    score = 0.1579 * pct_difficult + 0.0496 * (
        stats.word_count / stats.sentence_count
    )
    if pct_difficult > 5:
        score += 3.6365
    return score


def dale_chall_grade_band(score: float) -> tuple[int, int]:
    """Grade pair conventionally associated with a familiarity score."""
    if score < 5.0:
        return (4, 4)
    if score < 6.0:
        return (5, 6)
    if score < 7.0:
        return (7, 8)
    if score < 8.0:
        return (9, 10)
    if score < 9.0:
        return (11, 12)
    if score < 10.0:
        return (13, 15)
    return (16, 16)


def _ordinal(n: int) -> str:
    if 10 <= n % 100 <= 13:
        suffix = "th"
    else:
        suffix = {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")
    return f"{n}{suffix}"


def text_standard(grades: Sequence[float]) -> str:
    """Consensus grade band from several grade estimates.

    Each value casts one vote for its floor and one for the next grade
    up; the most-voted grade n (ties broken toward the lower grade) is
    reported as "nth and (n+1)th grade".  Callers fold the familiarity
    score in by appending its conventional grade pair to the list.
    """
    if not grades:
        raise InputTextError("consensus grade needs at least one estimate")
    votes: dict[int, int] = {}
    for grade in grades:
        low = math.floor(grade)
        for g in (low, low + 1):
            votes[g] = votes.get(g, 0) + 1
    winner = min(votes, key=lambda g: (-votes[g], g))
    return f"{_ordinal(winner)} and {_ordinal(winner + 1)} grade"


class ReadabilityReport(NamedTuple):
    """All readability results for one document, unrounded."""

    flesch_reading_ease: float
    ease_label: str
    flesch_kincaid_grade: float
    smog_index: float
    gunning_fog: float
    coleman_liau: float
    ari: float
    dale_chall: float
    text_standard: str
    smog_low_sample: bool = False


# The seven indices in report order: the ReadabilityReport attribute (a
# genre aggregate holds its mean as ``mean_<attribute>``), the structured
# key, the markdown label, and whether markdown shows the score as a grade.
READABILITY_INDICES = (
    ("flesch_reading_ease", "reading_ease", "Reading ease", False),
    ("flesch_kincaid_grade", "reading_level", "Reading level", True),
    ("smog_index", "smog_index", "Smog index", True),
    ("gunning_fog", "gunning_fog", "Gunning Fog index", True),
    ("coleman_liau", "coleman_liau", "Coleman-Liau index", True),
    ("ari", "automated_readability_index", "Automated Readability index", True),
    ("dale_chall", "dale_chall", "Dale-Chall Readability score", False),
)


def readability_report(stats: TextStats) -> ReadabilityReport:
    """Score a document on every index and form the consensus grade.

    Raises ``InputTextError`` for texts with no words, no sentences, or
    fewer than the 3 sentences the polysyllable index requires.
    """
    ease = flesch_reading_ease(stats)
    level = flesch_kincaid_grade(stats)
    smog = _smog(stats)
    low_sample = stats.sentence_count < SMOG_RELIABLE_SENTENCES
    fog = gunning_fog(stats)
    coleman = coleman_liau(stats)
    ari_grade = automated_readability_index(stats)
    chall = dale_chall(stats)
    band = dale_chall_grade_band(chall)
    standard = text_standard([level, smog, fog, coleman, ari_grade, *map(float, band)])

    return ReadabilityReport(
        flesch_reading_ease=ease.score,
        ease_label=ease.label,
        flesch_kincaid_grade=level,
        smog_index=smog,
        gunning_fog=fog,
        coleman_liau=coleman,
        ari=ari_grade,
        dale_chall=chall,
        text_standard=standard,
        smog_low_sample=low_sample,
    )
