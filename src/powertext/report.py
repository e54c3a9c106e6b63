"""Composed analysis reports and their renderers.

``analyze`` runs the enabled analysis sections over one document in a
fixed order (stats, readability, power words, sentiment, entities) and
collects any warnings.  ``render_structured`` emits deterministic JSON
(stable key order, two-decimal rounding, UTF-8, byte-identical for
identical inputs); ``render_markdown`` emits the human-readable view —
a two-column metric table, a category distribution table, sentiment
lines, and the annotated text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import GenreAggregate
from .defaults import (
    FAMILIAR_WORDS_FILE,
    GAZETTEER_FILE,
    POWER_WORDS_FILE,
    SENTIMENT_LEXICON_FILE,
    SYLLABLE_EXCEPTIONS_FILE,
    data_path,
)
from .entities import EntitySpan, Gazetteer, load_gazetteer, render_annotations, tag_entities
from .errors import InputTextError
from .powerwords import (
    CategoryDistribution,
    PowerCategory,
    PowerMatcher,
    PowerWordHits,
    build_matcher,
    distribution,
    load_lexicon,
    scan,
)
from .readability import ReadabilityReport, readability_report
from .sentiment import SentimentLexicon, SentimentScore, analyze_sentiment, load_sentiment_lexicon
from .textcore import (
    Document,
    TextStats,
    WordTable,
    compute_stats,
    load_familiar_words,
    load_syllable_exceptions,
)

__all__ = [
    "ALL_SECTIONS",
    "OUTPUT_FORMATS",
    "AnalysisConfig",
    "AnalysisReport",
    "Resources",
    "load_resources",
    "analyze",
    "render_structured",
    "render_markdown",
    "render_corpus_markdown",
]

# Section names in the order they run and render.
ALL_SECTIONS = ("readability", "power", "sentiment", "entities")
OUTPUT_FORMATS = ("structured", "markdown")

WARN_SMOG_LOW_SAMPLE = "smog-low-sample"
WARN_EMPTY_DISTRIBUTION = "power-distribution-empty"


@dataclass(frozen=True)
class AnalysisConfig:
    """What to analyze and with which data files.

    ``None`` paths fall back to the packaged data files (see defaults).
    ``sections`` must be a non-empty subset of ALL_SECTIONS.
    """

    lexicon_path: Path | None = None
    sentiment_path: Path | None = None
    familiar_path: Path | None = None
    gazetteer_path: Path | None = None
    sections: frozenset[str] = frozenset(ALL_SECTIONS)
    output_format: str = "markdown"

    def __post_init__(self) -> None:
        if not self.sections:
            raise ValueError("at least one analysis section must be enabled")
        unknown = set(self.sections) - set(ALL_SECTIONS)
        if unknown:
            raise ValueError(
                f"unknown sections: {', '.join(sorted(unknown))} "
                f"(expected a subset of {', '.join(ALL_SECTIONS)})"
            )
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(
                f"unknown output format {self.output_format!r} "
                f"(expected one of {', '.join(OUTPUT_FORMATS)})"
            )


@dataclass(frozen=True)
class Resources:
    """Loaded data files for the enabled sections.

    The familiar-word list and syllable exceptions are always loaded —
    surface statistics need them regardless of enabled sections.  They
    are built, at construction, into ``word_table``, which remembers the
    figures of every word text measured since: all documents analysed
    with these resources share it.
    """

    familiar_words: frozenset[str]
    syllable_exceptions: Mapping[str, int]
    matcher: PowerMatcher | None = None
    sentiment_lexicon: SentimentLexicon | None = None
    gazetteer: Gazetteer | None = None
    word_table: WordTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "word_table", WordTable(self.familiar_words, self.syllable_exceptions)
        )


def load_resources(config: AnalysisConfig) -> Resources:
    """Load every data file the configured sections need.

    All files load before any analysis runs, so a bad file fails the
    whole run up front rather than after partial output.
    """
    familiar_path = config.familiar_path or data_path(FAMILIAR_WORDS_FILE)
    familiar = load_familiar_words(familiar_path)
    # The syllable-exceptions overlay has no config flag; it lives in the
    # data directory and is simply empty when the file is absent.
    exceptions_path = data_path(SYLLABLE_EXCEPTIONS_FILE)
    exceptions: Mapping[str, int] = (
        load_syllable_exceptions(exceptions_path) if exceptions_path.exists() else {}
    )

    matcher = None
    if "power" in config.sections:
        lexicon = load_lexicon(config.lexicon_path or data_path(POWER_WORDS_FILE))
        matcher = build_matcher(lexicon)

    sentiment_lexicon = None
    if "sentiment" in config.sections:
        sentiment_lexicon = load_sentiment_lexicon(
            config.sentiment_path or data_path(SENTIMENT_LEXICON_FILE)
        )

    gazetteer = None
    if "entities" in config.sections:
        gazetteer = load_gazetteer(config.gazetteer_path or data_path(GAZETTEER_FILE))

    return Resources(
        familiar_words=familiar,
        syllable_exceptions=exceptions,
        matcher=matcher,
        sentiment_lexicon=sentiment_lexicon,
        gazetteer=gazetteer,
    )


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the enabled sections produced for one document.

    Disabled sections are None.  ``warnings`` carries non-fatal notes
    (low sentence sample, missing boilerplate markers, empty
    distribution, readability unavailable on degenerate input).
    """

    document: Document
    stats: TextStats
    readability: ReadabilityReport | None = None
    power: PowerWordHits | None = None
    power_distribution: CategoryDistribution | None = None
    sentiment: SentimentScore | None = None
    entities: tuple[EntitySpan, ...] | None = None
    warnings: tuple[str, ...] = ()

    @property
    def doc_id(self) -> str:
        return self.document.doc_id


def analyze(
    doc: Document,
    config: AnalysisConfig,
    *,
    resources: Resources | None = None,
    extra_warnings: Sequence[str] = (),
) -> AnalysisReport:
    """Run the enabled sections over ``doc`` in fixed order.

    ``resources`` may be preloaded (one load for a whole corpus);
    otherwise the config's data files are loaded here, before any
    analysis.  ``extra_warnings`` (e.g. from corpus cleaning) lead the
    report's warning list.
    """
    if resources is None:
        resources = load_resources(config)
    warnings: list[str] = list(extra_warnings)

    stats = compute_stats(doc, resources.word_table)

    readability = None
    if "readability" in config.sections:
        try:
            readability = readability_report(stats)
        except InputTextError as exc:
            warnings.append(f"readability-unavailable: {exc}")
        else:
            if readability.smog_low_sample:
                warnings.append(WARN_SMOG_LOW_SAMPLE)

    power = None
    power_distribution = None
    if "power" in config.sections:
        assert resources.matcher is not None
        power = scan(doc, resources.matcher)
        power_distribution = distribution(power)
        if power_distribution.empty:
            warnings.append(WARN_EMPTY_DISTRIBUTION)

    sentiment = None
    if "sentiment" in config.sections:
        assert resources.sentiment_lexicon is not None
        sentiment = analyze_sentiment(doc, resources.sentiment_lexicon)

    entities = None
    if "entities" in config.sections:
        assert resources.gazetteer is not None
        entities = tuple(tag_entities(doc, resources.gazetteer))

    return AnalysisReport(
        document=doc,
        stats=stats,
        readability=readability,
        power=power,
        power_distribution=power_distribution,
        sentiment=sentiment,
        entities=entities,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Structured rendering
# ---------------------------------------------------------------------------


def _r2(value: float) -> float:
    """Two-decimal render rounding; normalizes -0.0 to 0.0."""
    rounded = round(float(value), 2)
    return 0.0 if rounded == 0.0 else rounded


def _stats_payload(stats: TextStats) -> dict:
    return {
        "words": stats.word_count,
        "sentences": stats.sentence_count,
        "syllables": stats.syllable_count,
        "letters": stats.letter_count,
        "characters": stats.char_count,
        "polysyllables": stats.polysyllable_count,
        "complex_words": stats.complex_word_count,
        "difficult_words": stats.difficult_word_count,
    }


def _readability_payload(report: ReadabilityReport | None) -> dict | None:
    if report is None:
        return None
    return {
        "reading_ease": _r2(report.flesch_reading_ease),
        "reading_ease_label": report.ease_label,
        "reading_level": _r2(report.flesch_kincaid_grade),
        "smog_index": _r2(report.smog_index),
        "gunning_fog": _r2(report.gunning_fog),
        "coleman_liau": _r2(report.coleman_liau),
        "automated_readability_index": _r2(report.ari),
        "dale_chall": _r2(report.dale_chall),
        "text_standard": report.text_standard,
    }


def _power_payload(
    hits: PowerWordHits | None, dist: CategoryDistribution | None
) -> dict | None:
    if hits is None or dist is None:
        return None
    return {
        "counts": {cat.value: hits.counts[cat] for cat in PowerCategory},
        "total": hits.total,
        "distribution": {
            cat.value: _r2(dist.percentages[cat]) for cat in PowerCategory
        },
        "matches": [
            {
                "term": match.term,
                "category": match.category.value,
                "start": match.start,
                "end": match.end,
            }
            for match in hits.matches
        ],
    }


def _sentiment_payload(score: SentimentScore | None) -> dict | None:
    if score is None:
        return None
    return {
        "polarity": _r2(score.polarity),
        "subjectivity": _r2(score.subjectivity),
        "matched_terms": score.matched_terms,
    }


def _entities_payload(spans: Sequence[EntitySpan] | None) -> list | None:
    if spans is None:
        return None
    return [
        {
            "surface": span.surface,
            "label": span.label.value,
            "start": span.start,
            "end": span.end,
        }
        for span in spans
    ]


def _report_payload(report: AnalysisReport) -> dict:
    payload: dict = {"id": report.doc_id, "stats": _stats_payload(report.stats)}
    # Sections the run disabled are omitted entirely; sections that were
    # enabled but produced nothing (degenerate input) render as null.
    enabled = _enabled_sections(report)
    if "readability" in enabled:
        payload["readability"] = _readability_payload(report.readability)
    if "power" in enabled:
        payload["power"] = _power_payload(report.power, report.power_distribution)
    if "sentiment" in enabled:
        payload["sentiment"] = _sentiment_payload(report.sentiment)
    if "entities" in enabled:
        payload["entities"] = _entities_payload(report.entities)
    payload["warnings"] = list(report.warnings)
    return payload


def _enabled_sections(report: AnalysisReport) -> set[str]:
    """Which sections this report actually ran.

    A section is "enabled" if its field is populated, or — for
    readability only — if its absence is explained by an
    unavailable-warning (degenerate input with the section on).
    """
    enabled = set()
    if report.readability is not None or any(
        w.startswith("readability-unavailable") for w in report.warnings
    ):
        enabled.add("readability")
    if report.power is not None:
        enabled.add("power")
    if report.sentiment is not None:
        enabled.add("sentiment")
    if report.entities is not None:
        enabled.add("entities")
    return enabled


def _aggregate_payload(agg: GenreAggregate) -> dict:
    payload: dict = {"genre": agg.genre, "documents": agg.document_count}
    if agg.mean_flesch_reading_ease is not None:
        payload["readability"] = {
            "reading_ease": _r2(agg.mean_flesch_reading_ease),
            "reading_level": _r2(agg.mean_flesch_kincaid_grade),
            "smog_index": _r2(agg.mean_smog_index),
            "gunning_fog": _r2(agg.mean_gunning_fog),
            "coleman_liau": _r2(agg.mean_coleman_liau),
            "automated_readability_index": _r2(agg.mean_ari),
            "dale_chall": _r2(agg.mean_dale_chall),
        }
    else:
        payload["readability"] = None
    payload["distribution"] = (
        {cat.value: _r2(agg.mean_distribution[cat]) for cat in PowerCategory}
        if agg.mean_distribution is not None
        else None
    )
    payload["sentiment"] = (
        {
            "polarity": _r2(agg.mean_polarity),
            "subjectivity": _r2(agg.mean_subjectivity),
        }
        if agg.mean_polarity is not None
        else None
    )
    return payload


def render_structured(
    payload: AnalysisReport | Sequence[GenreAggregate],
) -> bytes:
    """Deterministic JSON bytes for one report or a list of genre
    aggregates.

    Keys appear in a fixed order, scores and percentages are rounded to
    two decimals, output is UTF-8 with a trailing newline, and identical
    inputs produce byte-identical output.  Corpus output additionally
    carries flat ``plot_rows`` (genre, category, percentage) ready for
    any plotting tool.
    """
    if isinstance(payload, AnalysisReport):
        body = _report_payload(payload)
    else:
        aggregates = list(payload)
        plot_rows = [
            {
                "genre": agg.genre,
                "category": cat.value,
                "percentage": _r2(agg.mean_distribution[cat]),
            }
            for agg in aggregates
            if agg.mean_distribution is not None
            for cat in PowerCategory
        ]
        body = {
            "genres": [_aggregate_payload(agg) for agg in aggregates],
            "plot_rows": plot_rows,
        }
    text = json.dumps(body, ensure_ascii=False, indent=2) + "\n"
    return text.encode("utf-8")


# ---------------------------------------------------------------------------
# Markdown rendering
# ---------------------------------------------------------------------------


def _fmt_score(value: float) -> str:
    """Grade-style score text: two decimals at most, no trailing zeros
    beyond the first ('8.8', '10.52')."""
    return str(_r2(value))


def _readability_rows(report: ReadabilityReport) -> list[tuple[str, str]]:
    return [
        ("Reading ease", report.ease_label),
        ("Reading level", f"Grade {_fmt_score(report.flesch_kincaid_grade)}"),
        ("Smog index", f"Grade {_fmt_score(report.smog_index)}"),
        ("Gunning Fog index", f"Grade {_fmt_score(report.gunning_fog)}"),
        ("Coleman-Liau index", f"Grade {_fmt_score(report.coleman_liau)}"),
        (
            "Automated Readability index",
            f"Grade {_fmt_score(report.ari)}",
        ),
        ("Dale-Chall Readability score", _fmt_score(report.dale_chall)),
        ("Text standard", report.text_standard),
    ]


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return lines


def render_markdown(report: AnalysisReport) -> str:
    """Human-readable report: metric/score table, power-word
    distribution table, sentiment lines, annotated text, warnings."""
    lines: list[str] = [f"# Analysis: {report.doc_id}", ""]

    stats = report.stats
    lines += [
        "## Text statistics",
        "",
        f"- Words: {stats.word_count}",
        f"- Sentences: {stats.sentence_count}",
        f"- Syllables: {stats.syllable_count}",
        f"- Letters: {stats.letter_count}",
        f"- Characters: {stats.char_count}",
        f"- Polysyllables: {stats.polysyllable_count}",
        f"- Complex words: {stats.complex_word_count}",
        f"- Difficult words: {stats.difficult_word_count}",
        "",
    ]

    enabled = _enabled_sections(report)

    if "readability" in enabled:
        lines += ["## Readability", ""]
        if report.readability is not None:
            lines += _table(("Metric", "Score"), _readability_rows(report.readability))
        else:
            lines.append("Not available for this input (see warnings).")
        lines.append("")

    if "power" in enabled and report.power is not None:
        dist = report.power_distribution
        assert dist is not None
        lines += ["## Power words", ""]
        rows = [
            (
                category.value,
                str(report.power.counts[category]),
                f"{dist.percentages[category]:.2f}%",
            )
            for category in PowerCategory
        ]
        lines += _table(("Category", "Count", "Share"), rows)
        lines += ["", f"Total matches: {report.power.total}", ""]

    if "sentiment" in enabled and report.sentiment is not None:
        lines += [
            "## Sentiment",
            "",
            f"- Polarity: {report.sentiment.polarity:.2f}",
            f"- Subjectivity: {report.sentiment.subjectivity:.2f}",
            f"- Matched terms: {report.sentiment.matched_terms}",
            "",
        ]

    if "entities" in enabled and report.entities is not None:
        lines += ["## Entities", ""]
        lines.append(render_annotations(report.document, report.entities))
        lines.append("")

    if report.warnings:
        lines += ["## Warnings", ""]
        lines.extend(f"- {warning}" for warning in report.warnings)
        lines.append("")

    return "\n".join(lines)


def render_corpus_markdown(aggregates: Sequence[GenreAggregate]) -> str:
    """Human-readable per-genre aggregate tables plus the flat
    plot-ready distribution rows."""
    lines: list[str] = ["# Corpus summary", ""]
    for agg in aggregates:
        lines += [f"## {agg.genre} ({agg.document_count} documents)", ""]
        if agg.mean_flesch_reading_ease is not None:
            rows = [
                ("Reading ease", _fmt_score(agg.mean_flesch_reading_ease)),
                ("Reading level", f"Grade {_fmt_score(agg.mean_flesch_kincaid_grade)}"),
                ("Smog index", f"Grade {_fmt_score(agg.mean_smog_index)}"),
                ("Gunning Fog index", f"Grade {_fmt_score(agg.mean_gunning_fog)}"),
                ("Coleman-Liau index", f"Grade {_fmt_score(agg.mean_coleman_liau)}"),
                ("Automated Readability index", f"Grade {_fmt_score(agg.mean_ari)}"),
                ("Dale-Chall Readability score", _fmt_score(agg.mean_dale_chall)),
            ]
            lines += _table(("Metric", "Mean score"), rows)
            lines.append("")
        if agg.mean_distribution is not None:
            rows = [
                (cat.value, f"{agg.mean_distribution[cat]:.2f}%")
                for cat in PowerCategory
            ]
            lines += _table(("Category", "Mean share"), rows)
            lines.append("")
        if agg.mean_polarity is not None:
            lines += [
                f"- Mean polarity: {agg.mean_polarity:.2f}",
                f"- Mean subjectivity: {agg.mean_subjectivity:.2f}",
                "",
            ]
    with_distribution = [a for a in aggregates if a.mean_distribution is not None]
    if with_distribution:
        lines += ["## Distribution by genre (plot data)", ""]
        rows = [
            (agg.genre, cat.value, f"{agg.mean_distribution[cat]:.2f}")
            for agg in with_distribution
            for cat in PowerCategory
        ]
        lines += _table(("Genre", "Category", "Percentage"), rows)
        lines.append("")
    return "\n".join(lines)
