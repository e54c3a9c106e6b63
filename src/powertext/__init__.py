"""powertext: persuasive-language analytics.

Detects categorized "power words" in text, scores readability with seven
classic indices, estimates lexicon-based sentiment, tags dates, times,
numbers, and gazetteer entities, ingests small corpora, and aggregates
results per genre.
"""

from .corpus import (
    CorpusDocument,
    CorpusManifest,
    GenreAggregate,
    GutenbergText,
    ManifestEntry,
    aggregate,
    iter_corpus,
    load_corpus,
    load_manifest,
    strip_gutenberg_boilerplate,
    strip_html,
)
from .entities import (
    EntityLabel,
    EntitySpan,
    Gazetteer,
    load_gazetteer,
    render_annotations,
    tag_entities,
)
from .errors import DataFileError, InputTextError, PowertextError
from .powerwords import (
    CategoryDistribution,
    PowerCategory,
    PowerLexicon,
    PowerMatch,
    PowerWordHits,
    build_matcher,
    distribution,
    load_lexicon,
    scan,
)
from .readability import (
    EaseScore,
    ReadabilityReport,
    automated_readability_index,
    coleman_liau,
    dale_chall,
    dale_chall_grade_band,
    ease_label,
    flesch_kincaid_grade,
    flesch_reading_ease,
    gunning_fog,
    readability_report,
    smog_index,
    text_standard,
)
from .report import (
    ALL_SECTIONS,
    AnalysisConfig,
    AnalysisReport,
    Resources,
    analyze,
    load_resources,
    render_corpus_markdown,
    render_markdown,
    render_structured,
)
from .sentiment import (
    SentimentEntry,
    SentimentLexicon,
    SentimentScore,
    analyze_sentiment,
    load_sentiment_lexicon,
)
from .textcore import (
    Document,
    TextStats,
    Token,
    Tokens,
    WordTable,
    build_document,
    compute_stats,
    count_syllables,
    load_familiar_words,
    load_syllable_exceptions,
    normalize,
    split_sentences,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PowertextError",
    "DataFileError",
    "InputTextError",
    # text core
    "Token",
    "Tokens",
    "TextStats",
    "Document",
    "WordTable",
    "normalize",
    "split_sentences",
    "tokenize",
    "count_syllables",
    "build_document",
    "compute_stats",
    "load_familiar_words",
    "load_syllable_exceptions",
    # readability
    "EaseScore",
    "ReadabilityReport",
    "ease_label",
    "flesch_reading_ease",
    "flesch_kincaid_grade",
    "smog_index",
    "gunning_fog",
    "coleman_liau",
    "automated_readability_index",
    "dale_chall",
    "dale_chall_grade_band",
    "text_standard",
    "readability_report",
    # power words
    "PowerCategory",
    "PowerLexicon",
    "PowerMatch",
    "PowerWordHits",
    "CategoryDistribution",
    "load_lexicon",
    "build_matcher",
    "scan",
    "distribution",
    # sentiment
    "SentimentEntry",
    "SentimentLexicon",
    "SentimentScore",
    "load_sentiment_lexicon",
    "analyze_sentiment",
    # entities
    "EntityLabel",
    "EntitySpan",
    "Gazetteer",
    "load_gazetteer",
    "tag_entities",
    "render_annotations",
    # corpus
    "GutenbergText",
    "ManifestEntry",
    "CorpusManifest",
    "CorpusDocument",
    "GenreAggregate",
    "strip_gutenberg_boilerplate",
    "strip_html",
    "load_manifest",
    "iter_corpus",
    "load_corpus",
    "aggregate",
    # reports
    "ALL_SECTIONS",
    "AnalysisConfig",
    "AnalysisReport",
    "Resources",
    "analyze",
    "load_resources",
    "render_structured",
    "render_markdown",
    "render_corpus_markdown",
]
