"""The record types: construction, equality, hash, ``repr``, immutability,
pickling and copying.

The plain records are ``NamedTuple``s; the ones that check arguments,
cache or derive attributes, or answer ``len`` or a key lookup are
``textcore.Record`` classes.  Both kinds print as ``Name(field=value,
...)``, pinned here as literals, and neither accepts assignment.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from powertext import textcore
from powertext.candidates import StartWords
from powertext.corpus import (
    CorpusDocument, CorpusManifest, DocumentRow, GenreAggregate, ManifestEntry,
)
from powertext.entities import EntityLabel, Gazetteer, tag_entities
from powertext.powerwords import (
    CategoryDistribution,
    PowerCategory,
    PowerLexicon,
    PowerMatch,
    PowerWordHits,
)
from powertext.readability import ReadabilityReport
from powertext.report import AnalysisConfig, AnalysisReport, Resources, analyze, load_resources
from powertext.sentiment import SentimentEntry, SentimentLexicon, SentimentScore
from powertext.textcore import (
    Document,
    TextStats,
    Token,
    build_document,
    split_sentences,
    tokenize,
)

GREED = PowerCategory.GREED
_DOC = build_document("d", "Hi you.")
_DOC_REPR = "Document(doc_id='d', raw='Hi you.')"
_STATS_ARGS = (1, 2, 3, 4, 5, 6, 7, 8)
_STATS = TextStats(*_STATS_ARGS)
_STATS_REPR = (
    "TextStats(word_count=1, sentence_count=2, syllable_count=3, letter_count=4, "
    "char_count=5, polysyllable_count=6, complex_word_count=7, difficult_word_count=8)"
)
_ENTRY_ARGS = ("a.txt", "a", "speech", "txt")
_ENTRY = ManifestEntry(*_ENTRY_ARGS)
_ENTRY_REPR = "ManifestEntry(path='a.txt', doc_id='a', genre='speech', kind='txt')"

# Each record type with the positional arguments of one instance (those
# with defaults left out, so that the ``repr`` shows the defaults) and
# that instance's ``repr``.
RECORDS = [
    (Token, ("a", 0, 1, True), "Token(text='a', start=0, end=1, is_word=True)"),
    (Document, ("d", _DOC.raw), _DOC_REPR),
    (TextStats, _STATS_ARGS, _STATS_REPR),
    (ManifestEntry, _ENTRY_ARGS, _ENTRY_REPR),
    (CorpusManifest, ((_ENTRY,),), f"CorpusManifest(entries=({_ENTRY_REPR},))"),
    (
        CorpusDocument,
        (_DOC, "speech"),
        f"CorpusDocument(document={_DOC_REPR}, genre='speech', warnings=())",
    ),
    (
        GenreAggregate,
        ("speech", 2, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, {GREED: 100.0}, 0.25, 0.5),
        "GenreAggregate(genre='speech', document_count=2, mean_flesch_reading_ease=1.5, "
        "mean_flesch_kincaid_grade=2.5, mean_smog_index=3.5, mean_gunning_fog=4.5, "
        "mean_coleman_liau=5.5, mean_ari=6.5, mean_dale_chall=7.5, "
        "mean_distribution={<PowerCategory.GREED: 'Greed'>: 100.0}, mean_polarity=0.25, "
        "mean_subjectivity=0.5)",
    ),
    (
        DocumentRow,
        ("speech", (1.5, 2.5), None, (0.25, 0.5)),
        "DocumentRow(genre='speech', readability=(1.5, 2.5), shares=None, "
        "sentiment=(0.25, 0.5))",
    ),
    (
        PowerLexicon,
        ({"free": GREED},),
        "PowerLexicon(entries={'free': <PowerCategory.GREED: 'Greed'>}, "
        "version='unversioned', source='<unknown>')",
    ),
    (
        PowerWordHits,
        ({GREED: 1}, (PowerMatch("free", GREED, 0, 4),)),
        "PowerWordHits(counts={<PowerCategory.GREED: 'Greed'>: 1}, matches=(PowerMatch("
        "term='free', category=<PowerCategory.GREED: 'Greed'>, start=0, end=4),))",
    ),
    (
        CategoryDistribution,
        ({GREED: 100.0}, False),
        "CategoryDistribution(percentages={<PowerCategory.GREED: 'Greed'>: 100.0}, "
        "empty=False)",
    ),
    (
        ReadabilityReport,
        (1.0, "easy", 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, "1st and 2nd grade"),
        "ReadabilityReport(flesch_reading_ease=1.0, ease_label='easy', "
        "flesch_kincaid_grade=2.0, smog_index=3.0, gunning_fog=4.0, coleman_liau=5.0, "
        "ari=6.0, dale_chall=7.0, text_standard='1st and 2nd grade', smog_low_sample=False)",
    ),
    (
        SentimentLexicon,
        ({"good": SentimentEntry(0.7, 0.6)}, {"very": 1.3}, frozenset({"not"})),
        "SentimentLexicon(entries={'good': SentimentEntry(polarity=0.7, subjectivity=0.6)}, "
        "modifiers={'very': 1.3}, negators=frozenset({'not'}))",
    ),
    (
        SentimentScore,
        (0.5, 0.25, 2),
        "SentimentScore(polarity=0.5, subjectivity=0.25, matched_terms=2)",
    ),
    (
        Gazetteer,
        ({"america": EntityLabel.GPE},),
        "Gazetteer(entries={'america': <EntityLabel.GPE: 'GPE'>})",
    ),
    (
        AnalysisConfig,
        ("p.csv", None, None, None, frozenset({"power"})),
        "AnalysisConfig(lexicon_path='p.csv', sentiment_path=None, familiar_path=None, "
        "gazetteer_path=None, sections=frozenset({'power'}))",
    ),
    (
        Resources,
        ("table",),
        "Resources(word_table='table', matcher=None, sentiment_lexicon=None, gazetteer=None)",
    ),
    (
        AnalysisReport,
        (_DOC, _STATS, frozenset({"power"})),
        f"AnalysisReport(document={_DOC_REPR}, stats={_STATS_REPR}, "
        "sections=frozenset({'power'}), readability=None, power=None, "
        "power_distribution=None, sentiment=None, entities=None, warnings=())",
    ),
]

_IDS = [record[0].__name__ for record in RECORDS]


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:
        return "unhashable"


@pytest.mark.parametrize(("cls", "args", "expected_repr"), RECORDS, ids=_IDS)
def test_positional_and_keyword_construction_with_defaults(cls, args, expected_repr):
    record = cls(*args)
    assert repr(record) == expected_repr
    assert cls(**dict(zip(cls._fields, args))) == record
    values = tuple(getattr(record, name) for name in cls._fields)
    assert values[: len(args)] == args
    assert cls(*values) == record


@pytest.mark.parametrize(("cls", "args", "expected_repr"), RECORDS, ids=_IDS)
def test_equal_records_compare_and_hash_equal(cls, args, expected_repr):
    record, twin = cls(*args), cls(*args)
    assert record == twin and not record != twin
    assert _hash(record) == _hash(twin)
    # A record holding a dict cannot be hashed; any other can.
    assert (_hash(record) == "unhashable") == any(_hash(arg) == "unhashable" for arg in args)


def test_plain_classes_compare_by_class_and_every_field():
    assert Token("a", 0, 1, True) != Token("a", 0, 1, False)
    assert AnalysisConfig() != AnalysisConfig(sections={"power"})
    assert Gazetteer({"america": EntityLabel.GPE}) != Gazetteer({"america": EntityLabel.NORP})
    assert PowerLexicon({}, "1") != PowerLexicon({}, "2")
    assert Resources("table") != Resources("table", matcher="m")


@pytest.mark.parametrize(("cls", "args", "expected_repr"), RECORDS, ids=_IDS)
def test_records_refuse_assignment_and_deletion(cls, args, expected_repr):
    record = cls(*args)
    for name in (cls._fields[0], "unknown_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == expected_repr


@pytest.mark.parametrize(("cls", "args", "expected_repr"), RECORDS, ids=_IDS)
def test_records_survive_pickle_and_copy(cls, args, expected_repr):
    record = cls(*args)
    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(twin) is cls
        assert twin == record
        assert repr(twin) == expected_repr


def test_gazetteer_copies_derive_the_matcher_and_start_words_again():
    gazetteer = Gazetteer({"new york": EntityLabel.GPE})
    doc = build_document("d", "I saw New York.")
    for twin in (pickle.loads(pickle.dumps(gazetteer)), copy.copy(gazetteer)):
        assert twin.start_words == gazetteer.start_words
        # "york", the longest word, anchors the surface, one word in.
        assert twin._matcher.shifted == {"york": (1,)}
        words = StartWords(*twin.start_words).words
        assert "york" in words and "new" not in words
        assert tag_entities(doc, twin) == tag_entities(doc, gazetteer) != []


def test_a_document_is_its_id_and_text_with_sentences_and_tokens_derived():
    text = "\ufeffDr. King spoke.  It’s 1963!\nDone"
    doc = Document("d", text)
    assert Document._fields == ("doc_id", "raw")
    assert doc == build_document("d", text) == Document(doc_id="d", raw=text)
    assert doc.sentences == tuple(split_sentences(text))
    assert doc.tokens == tokenize(text)
    with pytest.raises(TypeError):
        Document("d", text, doc.sentences, doc.tokens)


def test_documents_and_reports_hash_compare_print_and_pickle_without_building_tokens(
    monkeypatch,
):
    text = "Free gift for you in America today. " * 200
    resources = load_resources(AnalysisConfig())
    doc, twin = build_document("d", text), build_document("d", text)
    report = analyze(doc, AnalysisConfig(), resources=resources)
    twin_report = analyze(twin, AnalysisConfig(), resources=resources)
    # A report with a power section holds dicts, so only one without hashes.
    hashable = AnalysisReport(doc, report.stats, frozenset())
    built = []
    monkeypatch.setattr(textcore, "Token", lambda *fields: built.append(fields))
    operations = {
        "hash": lambda: (
            hash(doc) == hash(twin)
            and hash(hashable) == hash(hashable._replace(document=twin))
        ),
        "compare": lambda: doc == twin and report == twin_report,
        "print": lambda: len(repr(doc)) < len(text) + 40 and text[:20] in repr(report),
        "pickle": lambda: all(pickle.loads(pickle.dumps(obj)) == obj for obj in (doc, report)),
    }
    for name, operation in operations.items():
        assert operation(), name
        assert built == [], name


def test_document_keys_are_computed_once(monkeypatch):
    calls = []
    normalize = textcore.normalize
    monkeypatch.setattr(textcore, "normalize", lambda text: calls.append(text) or normalize(text))
    doc = build_document("d", "Hi you. Hi!")
    keys = doc.keys
    assert keys == ("hi", "you", None, "hi", None)
    assert sorted(calls) == ["Hi", "you"]
    assert doc.keys is keys
    assert len(calls) == 2


def test_resources_start_words_are_computed_once():
    resources = load_resources(AnalysisConfig())
    assert resources.start_words is resources.start_words

