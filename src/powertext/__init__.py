"""powertext: persuasive-language analytics.

Detects categorized "power words" in text, scores readability with seven
classic indices, estimates lexicon-based sentiment, tags dates, times,
numbers, and gazetteer entities, ingests small corpora, and aggregates
results per genre.

The corpus names (``load_manifest``, ``aggregate`` and the rest) load
``powertext.corpus`` when one of them is first used: neither the
import, nor ``load_resources``, nor ``powertext analyze`` needs it.
"""

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

# The ``# corpus`` block of ``__all__``: names that ``__getattr__`` binds
# from ``powertext.corpus`` when the first of them is used.
_CORPUS_NAMES = frozenset(__all__[__all__.index("GutenbergText") : __all__.index("aggregate") + 1])


def __getattr__(name: str):
    if name != "corpus" and name not in _CORPUS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Loading the submodule binds it here as ``corpus``.  (``from . import
    # corpus`` would first ask this function for ``corpus``, and recurse.)
    from .corpus import __dict__ as corpus_names

    globals().update((key, corpus_names[key]) for key in _CORPUS_NAMES)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(globals().keys() | _CORPUS_NAMES | {"corpus"})
