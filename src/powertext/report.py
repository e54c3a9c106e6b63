"""Composed analysis reports and their renderers.

``analyze`` runs the enabled analysis sections over one document in a
fixed order (stats, readability, power words, sentiment, entities),
looking each distinct word text up once in the resources' ``WordTable``
and scanning the keys once for a ``CandidateIndex`` that the power,
sentiment and entity stages share.  It collects any warnings and
records the sections that ran in ``AnalysisReport.sections``; both
renderers show exactly those sections.
The caller chooses the output format by calling a renderer:
``render_structured`` emits deterministic JSON (stable key order,
two-decimal rounding, UTF-8, byte-identical for identical inputs) with
the bytes of ``json.dumps(..., ensure_ascii=False, indent=2)``, written
straight from the report's fields: each match or entity row fills one
template, and each distinct string is encoded once;
``render_markdown`` emits the human-readable view — a two-column metric
table, a category distribution table, sentiment lines, and the annotated
text.
"""

from __future__ import annotations

import enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

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
    PowerWordHits,
    build_matcher,
    distribution,
    load_lexicon,
    scan,
)
from .readability import READABILITY_INDICES, ReadabilityReport, readability_report
from .sentiment import SentimentLexicon, SentimentScore, analyze_sentiment, load_sentiment_lexicon
from .candidates import CandidateIndex, StartWords
from .textcore import (
    Document,
    PhraseMatcher,
    Record,
    TextStats,
    WordTable,
    compute_stats,
    load_familiar_words,
    load_syllable_exceptions,
)

__all__ = [
    "ALL_SECTIONS",
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

# TextStats attribute, structured key and markdown label of each statistic,
# in render order.
_STATS_FIELDS = (
    ("word_count", "words", "Words"),
    ("sentence_count", "sentences", "Sentences"),
    ("syllable_count", "syllables", "Syllables"),
    ("letter_count", "letters", "Letters"),
    ("char_count", "characters", "Characters"),
    ("polysyllable_count", "polysyllables", "Polysyllables"),
    ("complex_word_count", "complex_words", "Complex words"),
    ("difficult_word_count", "difficult_words", "Difficult words"),
)

# Sections that read the candidate index.
_INDEXED_SECTIONS = frozenset(("power", "sentiment", "entities"))

WARN_SMOG_LOW_SAMPLE = "smog-low-sample"
WARN_EMPTY_DISTRIBUTION = "power-distribution-empty"


class AnalysisConfig(Record):
    """What to analyze and with which data files.

    ``None`` paths fall back to the packaged data files (see defaults).
    ``sections`` must be a non-empty collection of names from
    ALL_SECTIONS, not a string; it is stored as a ``frozenset``.
    """

    _fields = ("lexicon_path", "sentiment_path", "familiar_path", "gazetteer_path", "sections")

    lexicon_path: Path | None
    sentiment_path: Path | None
    familiar_path: Path | None
    gazetteer_path: Path | None
    sections: frozenset[str]

    def __init__(
        self,
        lexicon_path: Path | None = None,
        sentiment_path: Path | None = None,
        familiar_path: Path | None = None,
        gazetteer_path: Path | None = None,
        sections: Iterable[str] = frozenset(ALL_SECTIONS),
    ) -> None:
        if isinstance(sections, str):
            raise TypeError(
                f"sections must be a collection of section names, not the string {sections!r}"
            )
        sections = frozenset(sections)
        if not sections:
            raise ValueError("at least one analysis section must be enabled")
        unknown = sections.difference(ALL_SECTIONS)
        if unknown:
            raise ValueError(
                f"unknown sections: {', '.join(sorted(unknown))} "
                f"(expected a subset of {', '.join(ALL_SECTIONS)})"
            )
        Record.__init__(
            self, lexicon_path, sentiment_path, familiar_path, gazetteer_path, sections
        )


class Resources(Record):
    """Loaded data files for the enabled sections.

    The familiar-word list and syllable exceptions are always loaded —
    surface statistics need them regardless of enabled sections — and
    held by ``word_table``, the run's type table, which remembers the key
    and figures of every word text looked up since: all documents
    analysed with these resources share it.  ``start_words``, computed on
    first use, is the ``StartWords`` of the loaded data (power terms'
    first words, sentiment entries, the tagger's phrase and date start
    words), against which ``analyze`` builds each document's
    ``CandidateIndex``.
    """

    _fields = ("word_table", "matcher", "sentiment_lexicon", "gazetteer")

    word_table: WordTable
    matcher: PhraseMatcher | None
    sentiment_lexicon: SentimentLexicon | None
    gazetteer: Gazetteer | None

    def __init__(
        self,
        word_table: WordTable,
        matcher: PhraseMatcher | None = None,
        sentiment_lexicon: SentimentLexicon | None = None,
        gazetteer: Gazetteer | None = None,
    ) -> None:
        Record.__init__(self, word_table, matcher, sentiment_lexicon, gazetteer)

    @cached_property
    def start_words(self) -> StartWords:
        parts = []
        if self.matcher is not None:
            parts.append(self.matcher.first_words)
        if self.sentiment_lexicon is not None:
            parts.append(self.sentiment_lexicon.entries)
        if self.gazetteer is not None:
            parts.append(self.gazetteer.start_words)
        return StartWords(*parts)


def load_resources(config: AnalysisConfig) -> Resources:
    """Load every data file the configured sections need.

    All files load before any analysis runs, so a bad file fails the
    whole run up front rather than after partial output.
    """
    familiar = load_familiar_words(config.familiar_path or data_path(FAMILIAR_WORDS_FILE))
    # The syllable-exceptions overlay has no config flag; it lives in the
    # data directory and is simply empty when the file is absent.
    exceptions_path = data_path(SYLLABLE_EXCEPTIONS_FILE)
    exceptions = load_syllable_exceptions(exceptions_path) if exceptions_path.exists() else {}

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
        word_table=WordTable(familiar, exceptions),
        matcher=matcher,
        sentiment_lexicon=sentiment_lexicon,
        gazetteer=gazetteer,
    )


class AnalysisReport(NamedTuple):
    """Everything the enabled sections produced for one document.

    ``sections`` names the sections that ran; the others' fields are
    None, and so is readability when the input was too degenerate to
    score.  ``warnings`` carries non-fatal notes (low sentence sample,
    missing boilerplate markers, empty distribution, readability
    unavailable on degenerate input).
    """

    document: Document
    stats: TextStats
    sections: frozenset[str]
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
    loaded = {
        "power": resources.matcher,
        "sentiment": resources.sentiment_lexicon,
        "entities": resources.gazetteer,
    }
    missing = [name for name, data in loaded.items() if name in config.sections and data is None]
    if missing:
        raise ValueError(f"resources lack the data of enabled sections: {', '.join(missing)}")
    warnings: list[str] = list(extra_warnings)

    types = resources.word_table.types(doc)
    stats = compute_stats(doc, types)
    index = None
    if config.sections & _INDEXED_SECTIONS:
        # The number keys are only the entity tagger's candidates.
        numbers = types.numbers() if "entities" in config.sections else None
        index = CandidateIndex(types.fill_keys(doc), resources.start_words, numbers)
    del types  # one entry per distinct word text: free it before the scans

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
        power = scan(doc, resources.matcher, index=index)
        power_distribution = distribution(power)
        if power_distribution.empty:
            warnings.append(WARN_EMPTY_DISTRIBUTION)

    sentiment = None
    if "sentiment" in config.sections:
        sentiment = analyze_sentiment(doc, resources.sentiment_lexicon, index=index)

    entities = None
    if "entities" in config.sections:
        entities = tuple(tag_entities(doc, resources.gazetteer, index=index))

    return AnalysisReport(
        document=doc,
        stats=stats,
        sections=config.sections,
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


# ``json`` writes the non-finite floats as JavaScript spells them.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(value: float) -> str:
    """``_r2(value)`` as ``json`` encodes a float."""
    text = repr(_r2(value))
    return _NON_FINITE.get(text, text)


# The escapes of ``json.dumps(..., ensure_ascii=False)``: the quote, the
# backslash and U+0000 to U+001F, with the short forms of ``\b\f\n\r\t``.
_ESCAPES = {code: f"\\u{code:04x}" for code in range(0x20)}
_ESCAPES.update({ord(ch): "\\" + short for ch, short in zip('"\\\b\f\n\r\t', '"\\bfnrt')})


def _string(text: str) -> str:
    """``text`` as a JSON string."""
    return '"' + text.translate(_ESCAPES) + '"'


def _block(members: Sequence[str], depth: int, brackets: str) -> str:
    """Encoded members inside ``brackets``, laid out as ``indent=2`` lays
    out a container opened at indent level ``depth``."""
    if not members:
        return brackets
    outer = "\n" + "  " * depth
    inner = outer + "  "
    return brackets[0] + inner + ("," + inner).join(members) + outer + brackets[1]


def _array(members: Sequence[str], depth: int) -> str:
    return _block(members, depth, "[]")


def _object(pairs: Iterable[tuple[str, str]], depth: int) -> str:
    """A JSON object of ``(key, encoded value)`` pairs; every key is a
    fixed ASCII name."""
    return _block([f'"{key}": {value}' for key, value in pairs], depth, "{}")


class _Strings(dict):
    """The JSON string of each text, or enum member's value, looked up:
    each is encoded once, on first use."""

    def __missing__(self, key: str | enum.Enum) -> str:
        self[key] = text = _string(getattr(key, "value", key))
        return text


# A match row at depth 3 and an entity row at depth 2, filled from the
# fields of a PowerMatch and an EntitySpan.
_MATCH_ROW = (
    '{\n        "term": %s,\n        "category": %s,\n'
    '        "start": %d,\n        "end": %d\n      }'
)
_ENTITY_ROW = (
    '{\n      "surface": %s,\n      "label": %s,\n'
    '      "start": %d,\n      "end": %d\n    }'
)


def _indices(source, prefix: str = "") -> list[tuple[str, str]]:
    """The seven readability scores of a report, or of an aggregate's
    ``mean_`` fields."""
    return [
        (key, _number(getattr(source, prefix + attr)))
        for attr, key, _label, _grade in READABILITY_INDICES
    ]


def _shares(percentages: Mapping[PowerCategory, float], depth: int) -> str:
    return _object([(cat.value, _number(percentages[cat])) for cat in PowerCategory], depth)


def _readability_json(report: ReadabilityReport | None) -> str:
    if report is None:
        return "null"
    pairs = _indices(report)
    pairs.insert(1, ("reading_ease_label", _string(report.ease_label)))  # after reading_ease
    pairs.append(("text_standard", _string(report.text_standard)))
    return _object(pairs, 1)


def _power_json(hits: PowerWordHits | None, dist: CategoryDistribution | None) -> str:
    if hits is None or dist is None:
        return "null"
    strings = _Strings()
    rows = [
        _MATCH_ROW % (strings[term], strings[category], start, end)
        for term, category, start, end in hits.matches
    ]
    counts = [(cat.value, "%d" % hits.counts[cat]) for cat in PowerCategory]
    pairs = [
        ("counts", _object(counts, 2)),
        ("total", "%d" % hits.total),
        ("distribution", _shares(dist.percentages, 2)),
        ("matches", _array(rows, 2)),
    ]
    return _object(pairs, 1)


def _sentiment_json(score: SentimentScore | None) -> str:
    if score is None:
        return "null"
    pairs = [
        ("polarity", _number(score.polarity)),
        ("subjectivity", _number(score.subjectivity)),
        ("matched_terms", "%d" % score.matched_terms),
    ]
    return _object(pairs, 1)


def _entities_json(spans: Sequence[EntitySpan] | None) -> str:
    if spans is None:
        return "null"
    strings = _Strings()
    rows = [
        _ENTITY_ROW % (strings[surface], strings[label], start, end)
        for start, end, surface, label in spans
    ]
    return _array(rows, 1)


def _report_json(report: AnalysisReport) -> str:
    stats = [(key, "%d" % getattr(report.stats, attr)) for attr, key, _label in _STATS_FIELDS]
    pairs = [("id", _string(report.doc_id)), ("stats", _object(stats, 1))]
    # Sections the run disabled are omitted entirely; sections that were
    # enabled but produced nothing (degenerate input) render as null.
    if "readability" in report.sections:
        pairs.append(("readability", _readability_json(report.readability)))
    if "power" in report.sections:
        pairs.append(("power", _power_json(report.power, report.power_distribution)))
    if "sentiment" in report.sections:
        pairs.append(("sentiment", _sentiment_json(report.sentiment)))
    if "entities" in report.sections:
        pairs.append(("entities", _entities_json(report.entities)))
    pairs.append(("warnings", _array([_string(warning) for warning in report.warnings], 1)))
    return _object(pairs, 0)


def _aggregate_json(agg: GenreAggregate) -> str:
    readability = distribution = sentiment = "null"
    if agg.mean_flesch_reading_ease is not None:
        readability = _object(_indices(agg, "mean_"), 3)
    if agg.mean_distribution is not None:
        distribution = _shares(agg.mean_distribution, 3)
    if agg.mean_polarity is not None:
        means = (("polarity", agg.mean_polarity), ("subjectivity", agg.mean_subjectivity))
        sentiment = _object([(key, _number(mean)) for key, mean in means], 3)
    pairs = [
        ("genre", _string(agg.genre)),
        ("documents", "%d" % agg.document_count),
        ("readability", readability),
        ("distribution", distribution),
        ("sentiment", sentiment),
    ]
    return _object(pairs, 2)


def _plot_row(agg: GenreAggregate, category: PowerCategory) -> str:
    pairs = [
        ("genre", _string(agg.genre)),
        ("category", _string(category.value)),
        ("percentage", _number(agg.mean_distribution[category])),
    ]
    return _object(pairs, 2)


def render_structured(payload: AnalysisReport | Sequence[GenreAggregate]) -> bytes:
    """Deterministic JSON bytes for one report or a list of genre
    aggregates.

    Keys appear in a fixed order, scores and percentages are rounded to
    two decimals, output is UTF-8 with a trailing newline, and identical
    inputs produce byte-identical output: the bytes of ``json.dumps(...,
    ensure_ascii=False, indent=2)``, joined straight from the fields.
    Corpus output additionally carries flat ``plot_rows`` (genre,
    category, percentage) ready for any plotting tool.
    """
    if isinstance(payload, AnalysisReport):
        body = _report_json(payload)
    else:
        aggregates = list(payload)
        plot_rows = [
            _plot_row(agg, cat)
            for agg in aggregates
            if agg.mean_distribution is not None
            for cat in PowerCategory
        ]
        genres = _array([_aggregate_json(agg) for agg in aggregates], 1)
        body = _object([("genres", genres), ("plot_rows", _array(plot_rows, 1))], 0)
    return (body + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Markdown rendering
# ---------------------------------------------------------------------------


def _fmt_index(value: float, grade: bool) -> str:
    """Index score text: two decimals at most, no trailing zeros beyond
    the first ('8.8', '10.52'), after 'Grade ' for a grade-level index."""
    score = str(_r2(value))
    return f"Grade {score}" if grade else score


def _readability_rows(report: ReadabilityReport) -> list[tuple[str, str]]:
    # A document's reading ease shows as its label, not its score.
    rows = [
        (
            label,
            report.ease_label
            if attr == "flesch_reading_ease"
            else _fmt_index(getattr(report, attr), grade),
        )
        for attr, _key, label, grade in READABILITY_INDICES
    ]
    rows.append(("Text standard", report.text_standard))
    return rows


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
    lines: list[str] = [f"# Analysis: {report.doc_id}", "", "## Text statistics", ""]
    lines += [
        f"- {label}: {getattr(report.stats, attr)}" for attr, _key, label in _STATS_FIELDS
    ]
    lines.append("")

    if "readability" in report.sections:
        lines += ["## Readability", ""]
        if report.readability is not None:
            lines += _table(("Metric", "Score"), _readability_rows(report.readability))
        else:
            lines.append("Not available for this input (see warnings).")
        lines.append("")

    if "power" in report.sections and report.power is not None:
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

    if "sentiment" in report.sections and report.sentiment is not None:
        lines += [
            "## Sentiment",
            "",
            f"- Polarity: {_r2(report.sentiment.polarity):.2f}",
            f"- Subjectivity: {_r2(report.sentiment.subjectivity):.2f}",
            f"- Matched terms: {report.sentiment.matched_terms}",
            "",
        ]

    if "entities" in report.sections and report.entities is not None:
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
                (label, _fmt_index(getattr(agg, f"mean_{attr}"), grade))
                for attr, _key, label, grade in READABILITY_INDICES
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
                f"- Mean polarity: {_r2(agg.mean_polarity):.2f}",
                f"- Mean subjectivity: {_r2(agg.mean_subjectivity):.2f}",
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
