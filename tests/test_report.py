"""Tests for the composed analysis report and its renderers."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import powertext
from powertext.corpus import (
    GenreAggregate, aggregate, document_row, load_corpus, load_manifest,
)
from powertext.defaults import CORPUS_MANIFEST_FILE, data_path
from powertext import textcore
from powertext.entities import EntityLabel, EntitySpan, load_gazetteer, tag_entities
from powertext.powerwords import (
    CategoryDistribution,
    PowerCategory,
    PowerMatch,
    PowerWordHits,
    build_matcher,
    load_lexicon,
    scan,
)
from powertext.readability import ReadabilityReport
from powertext.report import (
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
from powertext.sentiment import SentimentScore, analyze_sentiment, load_sentiment_lexicon
from powertext.textcore import Document, TextStats, WordTable, build_document, compute_stats

# ---------------------------------------------------------------------------
# In-memory data files for composition tests
# ---------------------------------------------------------------------------

LEXICON_TEXT = "term,category\nfree,Greed\nbargain,Greed\nproven,Safety\nbrave,Encouragement\n"
SENTIMENT_TEXT = (
    "great,0.8,0.75\nterrible,-0.7,0.8\n[modifiers]\nvery,1.5\n[negators]\nnot\n"
)
GAZETTEER_TEXT = "[GPE]\nAmerica\n[PERSON]\nAlice\n"
FAMILIAR_WORDS = frozenset(
    {"get", "your", "free", "now", "is", "great", "today", "a", "the", "i", "saw"}
)


def make_resources() -> Resources:
    return Resources(
        word_table=WordTable(FAMILIAR_WORDS),
        matcher=build_matcher(load_lexicon(io.StringIO(LEXICON_TEXT))),
        sentiment_lexicon=load_sentiment_lexicon(io.StringIO(SENTIMENT_TEXT)),
        gazetteer=load_gazetteer(io.StringIO(GAZETTEER_TEXT)),
    )


def config_with(sections=frozenset(ALL_SECTIONS)):
    return AnalysisConfig(sections=frozenset(sections))


SAMPLE_TEXT = (
    "Get your free bargain now. America is very great today. "
    "Alice saw the proven result."
)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_defaults_are_valid():
    config = AnalysisConfig()
    assert config.sections == frozenset(ALL_SECTIONS)


def test_config_rejects_empty_sections():
    with pytest.raises(ValueError):
        AnalysisConfig(sections=frozenset())


def test_config_rejects_unknown_section():
    with pytest.raises(ValueError, match="astrology"):
        AnalysisConfig(sections=frozenset({"readability", "astrology"}))


@pytest.mark.parametrize(
    "sections",
    [["power", "sentiment"], ("power", "sentiment"), {"power", "sentiment"}],
    ids=["list", "tuple", "set"],
)
def test_config_keeps_any_collection_of_sections_as_a_frozenset(sections):
    config = AnalysisConfig(sections=sections)
    assert type(config.sections) is frozenset
    assert config.sections == {"power", "sentiment"}
    assert hash(config) == hash(AnalysisConfig(sections=frozenset(sections)))
    report = analyze(build_document("d", SAMPLE_TEXT), config, resources=make_resources())
    assert report.sections == {"power", "sentiment"}
    assert report.power is not None and report.readability is None


def test_config_sections_do_not_follow_the_set_passed_in():
    sections = {"power"}
    config = AnalysisConfig(sections=sections)
    sections.add("astrology")
    assert config.sections == {"power"}


def test_config_refuses_a_bare_string_naming_it():
    with pytest.raises(TypeError, match="not the string 'power'"):
        AnalysisConfig(sections="power")


# ---------------------------------------------------------------------------
# analyze: composition and gating
# ---------------------------------------------------------------------------


def test_analyze_all_sections():
    doc = build_document("sample", SAMPLE_TEXT)
    report = analyze(doc, config_with(), resources=make_resources())

    assert report.doc_id == "sample"
    assert report.stats.word_count == 15
    assert report.stats.sentence_count == 3

    assert report.readability is not None
    assert report.readability.flesch_kincaid_grade >= 0.0

    assert report.power is not None
    assert report.power.counts[PowerCategory.GREED] == 2  # free, bargain
    assert report.power.counts[PowerCategory.SAFETY] == 1  # proven
    assert report.power.total == 3
    assert report.power_distribution is not None
    assert report.power_distribution[PowerCategory.GREED] == pytest.approx(200 / 3)

    assert report.sentiment is not None
    # "very great" -> 0.8 * 1.5 = 1.2, clamped to 1.0 at document level
    assert report.sentiment.matched_terms == 1
    assert report.sentiment.polarity == pytest.approx(1.0)

    assert report.entities is not None
    labels = {(span.surface, span.label) for span in report.entities}
    assert ("America", EntityLabel.GPE) in labels
    assert ("today", EntityLabel.DATE) in labels
    assert ("Alice", EntityLabel.PERSON) in labels

    # three sentences is far below the reliable-sample threshold
    assert "smog-low-sample" in report.warnings


def test_analyze_rejects_resources_missing_an_enabled_section():
    doc = build_document("sample", SAMPLE_TEXT)
    resources = load_resources(config_with({"sentiment"}))
    with pytest.raises(ValueError, match="enabled sections: power, entities$"):
        analyze(doc, config_with(), resources=resources)
    assert analyze(doc, config_with({"readability", "sentiment"}), resources=resources)


def test_analyze_power_only_gating():
    doc = build_document("sample", SAMPLE_TEXT)
    report = analyze(doc, config_with({"power"}), resources=make_resources())
    assert report.power is not None
    assert report.power_distribution is not None
    assert report.readability is None
    assert report.sentiment is None
    assert report.entities is None
    assert report.stats.word_count == 15


def test_gating_never_changes_other_sections():
    doc = build_document("sample", SAMPLE_TEXT)
    resources = make_resources()
    full = analyze(doc, config_with(), resources=resources)
    power_only = analyze(doc, config_with({"power"}), resources=resources)
    assert full.power == power_only.power
    assert full.power_distribution == power_only.power_distribution
    assert full.stats == power_only.stats


def test_analyze_empty_document():
    doc = build_document("void", "")
    report = analyze(doc, config_with(), resources=make_resources())
    assert report.stats.word_count == 0
    assert report.stats.sentence_count == 0
    assert report.readability is None
    assert any(w.startswith("readability-unavailable") for w in report.warnings)
    assert report.power is not None
    assert report.power.total == 0
    assert report.power_distribution.empty is True
    assert "power-distribution-empty" in report.warnings
    assert report.sentiment == SentimentScore(0.0, 0.0, 0)
    assert report.entities == ()


def test_extra_warnings_lead_the_list():
    doc = build_document("void", "")
    report = analyze(
        doc,
        config_with(),
        resources=make_resources(),
        extra_warnings=("gutenberg-markers-missing",),
    )
    assert report.warnings[0] == "gutenberg-markers-missing"
    # section warnings follow in section order
    assert report.warnings[1].startswith("readability-unavailable")
    assert report.warnings[2] == "power-distribution-empty"


# ---------------------------------------------------------------------------
# load_resources
# ---------------------------------------------------------------------------


def write_data_dir(tmp_path):
    (tmp_path / "familiar_words.txt").write_text("the\nfree\nnow\n", encoding="utf-8")
    (tmp_path / "syllable_exceptions.tsv").write_text("realize\t3\n", encoding="utf-8")
    (tmp_path / "power_words.csv").write_text(
        "term,category\nfree,Greed\n", encoding="utf-8"
    )
    (tmp_path / "sentiment_lexicon.txt").write_text(
        "great,0.8,0.75\n[modifiers]\nvery,1.5\n[negators]\nnot\n", encoding="utf-8"
    )
    (tmp_path / "gazetteer.txt").write_text("[GPE]\nAmerica\n", encoding="utf-8")


def test_load_resources_from_env_data_dir(tmp_path, monkeypatch):
    write_data_dir(tmp_path)
    monkeypatch.setenv("POWERTEXT_DATA", str(tmp_path))
    resources = load_resources(AnalysisConfig())
    assert "free" in resources.word_table.familiar_words
    assert resources.word_table.exceptions == {"realize": 3}
    assert resources.matcher is not None
    assert resources.sentiment_lexicon is not None
    assert resources.gazetteer is not None

    doc = build_document("d", "A free trip to America.")
    report = analyze(doc, config_with(), resources=resources)
    assert report.power.counts[PowerCategory.GREED] == 1
    assert any(span.label == EntityLabel.GPE for span in report.entities)


def test_load_resources_explicit_path_beats_default(tmp_path, monkeypatch):
    write_data_dir(tmp_path)
    monkeypatch.setenv("POWERTEXT_DATA", str(tmp_path))
    custom = tmp_path / "other_lexicon.csv"
    custom.write_text("term,category\nblaze,Anger\n", encoding="utf-8")
    resources = load_resources(AnalysisConfig(lexicon_path=custom))
    doc = build_document("d", "A blaze, not a free one.")
    report = analyze(doc, config_with(), resources=resources)
    assert report.power.counts[PowerCategory.ANGER] == 1
    assert report.power.counts[PowerCategory.GREED] == 0


def test_load_resources_skips_disabled_sections(tmp_path, monkeypatch):
    write_data_dir(tmp_path)
    monkeypatch.setenv("POWERTEXT_DATA", str(tmp_path))
    config = AnalysisConfig(
        sections=frozenset({"readability"}),
        lexicon_path=tmp_path / "missing.csv",
        sentiment_path=tmp_path / "missing.txt",
        gazetteer_path=tmp_path / "missing.txt",
    )
    resources = load_resources(config)  # missing files never touched
    assert resources.matcher is None
    assert resources.sentiment_lexicon is None
    assert resources.gazetteer is None


def test_load_resources_tolerates_missing_exceptions_file(tmp_path, monkeypatch):
    write_data_dir(tmp_path)
    (tmp_path / "syllable_exceptions.tsv").unlink()
    monkeypatch.setenv("POWERTEXT_DATA", str(tmp_path))
    resources = load_resources(AnalysisConfig(sections=frozenset({"readability"})))
    assert resources.word_table.exceptions == {}


def test_import_and_load_resources_leave_unused_modules_unloaded():
    # Modules that the import and ``load_resources`` have no use for;
    # ``powertext.corpus`` is imported by the first ``strip_html``, and
    # ``html.parser`` by none.  ``-S``: a site-packages ``.pth`` file may
    # import modules of its own.
    unused = (
        "statistics", "html.parser", "json", "importlib.resources", "dataclasses", "inspect",
        "powertext.corpus",
    )
    code = (
        "import sys, powertext\n"
        "powertext.load_resources(powertext.AnalysisConfig())\n"
        f"print([name for name in {unused!r} if name in sys.modules])\n"
        "print(repr(powertext.strip_html('<p>a &amp; b</p>')), 'html.parser' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(powertext.__file__).resolve().parent.parent))
    env.pop("POWERTEXT_DATA", None)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert proc.stdout.splitlines() == ["[]", "'a & b' False"]


def test_every_public_name_resolves_in_a_fresh_interpreter():
    # The corpus names are bound on first use; ``dir`` lists them before
    # that, and every import form finds them, as ``powertext.corpus`` holds them.
    code = (
        "import sys, powertext\n"
        "listed = set(dir(powertext))\n"
        "namespace = {}\n"
        "exec('from powertext import *', namespace)\n"
        "from powertext import load_manifest\n"
        "import powertext.corpus as corpus\n"
        "names = powertext.__all__\n"
        "print(sorted(set(names) - listed))\n"
        "print([name for name in names if namespace[name] is not getattr(powertext, name)])\n"
        "shared = [name for name in corpus.__all__ if name in names]\n"
        "print(len(shared), [name for name in shared if getattr(powertext, name) is not getattr(corpus, name)])\n"
        "print(load_manifest is corpus.load_manifest, hasattr(powertext, 'no_such_name'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(powertext.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert proc.stdout.splitlines() == ["[]", "[]", "13 []", "True False"]


# ---------------------------------------------------------------------------
# Structured rendering
# ---------------------------------------------------------------------------


_DOC = build_document("render-doc", "Words here. More words there.")
_STATS = TextStats(
    word_count=5,
    sentence_count=2,
    syllable_count=6,
    letter_count=22,
    char_count=22,
    polysyllable_count=0,
    complex_word_count=0,
    difficult_word_count=1,
)


def full_counts(**overrides):
    counts = {category: 0 for category in PowerCategory}
    for name, value in overrides.items():
        counts[PowerCategory[name.upper()]] = value
    return counts


def make_render_report(**kwargs) -> AnalysisReport:
    # The sections whose fields the caller sets ran.
    sections = frozenset(ALL_SECTIONS).intersection(kwargs)
    return AnalysisReport(document=_DOC, stats=_STATS, sections=sections, **kwargs)


def test_render_structured_is_byte_identical():
    report = make_render_report(
        sentiment=SentimentScore(polarity=0.3, subjectivity=0.5, matched_terms=2)
    )
    assert render_structured(report) == render_structured(report)


def test_render_structured_shape_and_rounding():
    counts = full_counts(greed=5, safety=1)
    hits = PowerWordHits(
        counts=counts,
        matches=(PowerMatch("free", PowerCategory.GREED, 0, 4),),
    )
    dist = CategoryDistribution(
        percentages={
            category: 100.0 * counts[category] / 6 for category in PowerCategory
        },
        empty=False,
    )
    report = make_render_report(
        power=hits,
        power_distribution=dist,
        sentiment=SentimentScore(polarity=0.23456, subjectivity=0.98765, matched_terms=3),
    )
    payload = json.loads(render_structured(report).decode("utf-8"))

    assert list(payload) == ["id", "stats", "power", "sentiment", "warnings"]
    assert payload["id"] == "render-doc"
    assert payload["stats"]["words"] == 5
    assert payload["sentiment"]["polarity"] == 0.23
    assert payload["sentiment"]["subjectivity"] == 0.99
    assert payload["power"]["distribution"]["Greed"] == 83.33
    assert payload["power"]["total"] == 6
    assert payload["power"]["matches"][0] == {
        "term": "free",
        "category": "Greed",
        "start": 0,
        "end": 4,
    }
    # disabled sections are omitted entirely
    assert "readability" not in payload
    assert "entities" not in payload


def test_render_structured_negative_zero_normalized():
    report = make_render_report(
        sentiment=SentimentScore(polarity=-0.001, subjectivity=0.0, matched_terms=1)
    )
    text = render_structured(report).decode("utf-8")
    assert '"polarity": 0.0' in text
    assert "-0.0" not in text


def test_render_structured_enabled_but_unavailable_is_null():
    report = make_render_report(
        readability=None, warnings=("readability-unavailable: empty document",)
    )
    payload = json.loads(render_structured(report).decode("utf-8"))
    assert payload["readability"] is None


def test_render_structured_trailing_newline_and_utf8():
    doc = build_document("naïve-doc", "Café déjà vu. Ça va bien.")
    report = AnalysisReport(document=doc, stats=_STATS, sections=frozenset())
    blob = render_structured(report)
    assert blob.endswith(b"\n")
    assert "naïve-doc" in blob.decode("utf-8")


def test_render_structured_roundtrip_precision():
    report = make_render_report(
        readability=ReadabilityReport(
            flesch_reading_ease=57.19123,
            ease_label="Fairly difficult",
            flesch_kincaid_grade=8.80456,
            smog_index=11.00111,
            gunning_fog=10.52999,
            coleman_liau=8.01234,
            ari=9.79876,
            dale_chall=7.26987,
            text_standard="10th and 11th grade",
        )
    )
    payload = json.loads(render_structured(report).decode("utf-8"))
    block = payload["readability"]
    assert block["reading_ease"] == round(57.19123, 2)
    assert block["reading_level"] == round(8.80456, 2)
    assert block["smog_index"] == round(11.00111, 2)
    assert block["gunning_fog"] == round(10.52999, 2)
    assert block["coleman_liau"] == round(8.01234, 2)
    assert block["automated_readability_index"] == round(9.79876, 2)
    assert block["dale_chall"] == round(7.26987, 2)
    assert block["text_standard"] == "10th and 11th grade"


def make_agg_report(polarity, greed_share):
    dist = CategoryDistribution(
        percentages={
            category: (greed_share if category is PowerCategory.GREED else (100.0 - greed_share) / 6)
            for category in PowerCategory
        },
        empty=False,
    )
    return AnalysisReport(
        document=_DOC,
        stats=_STATS,
        sections=frozenset({"power", "sentiment"}),
        power_distribution=dist,
        sentiment=SentimentScore(polarity=polarity, subjectivity=0.5, matched_terms=1),
    )


def test_render_structured_aggregates():
    document_rows = [
        document_row(make_agg_report(0.2, 70.0), "speech"),
        document_row(make_agg_report(0.4, 40.0), "speech"),
        document_row(make_agg_report(-0.1, 10.0), "fiction"),
    ]
    aggregates = aggregate(document_rows)
    blob = render_structured(aggregates)
    assert blob == render_structured(aggregate(document_rows))  # deterministic
    payload = json.loads(blob.decode("utf-8"))
    assert list(payload) == ["genres", "plot_rows"]
    assert [genre["genre"] for genre in payload["genres"]] == ["fiction", "speech"]
    speech = payload["genres"][1]
    assert speech["documents"] == 2
    assert speech["readability"] is None
    assert speech["distribution"]["Greed"] == 55.0
    assert speech["sentiment"]["polarity"] == 0.3
    rows = payload["plot_rows"]
    assert len(rows) == 2 * len(PowerCategory)
    assert rows[0] == {"genre": "fiction", "category": "Greed", "percentage": 10.0}


# ---------------------------------------------------------------------------
# Markdown rendering
# ---------------------------------------------------------------------------


FIGURE_STYLE_READABILITY = ReadabilityReport(
    flesch_reading_ease=60.0,
    ease_label="Standard",
    flesch_kincaid_grade=8.8,
    smog_index=11.0,
    gunning_fog=10.52,
    coleman_liau=8.01,
    ari=9.8,
    dale_chall=7.27,
    text_standard="10th and 11th grade",
)


def test_markdown_metric_table_rows_and_order():
    report = make_render_report(readability=FIGURE_STYLE_READABILITY)
    text = render_markdown(report)
    expected_rows = [
        "| Metric | Score |",
        "| --- | --- |",
        "| Reading ease | Standard |",
        "| Reading level | Grade 8.8 |",
        "| Smog index | Grade 11.0 |",
        "| Gunning Fog index | Grade 10.52 |",
        "| Coleman-Liau index | Grade 8.01 |",
        "| Automated Readability index | Grade 9.8 |",
        "| Dale-Chall Readability score | 7.27 |",
        "| Text standard | 10th and 11th grade |",
    ]
    lines = text.splitlines()
    start = lines.index("| Metric | Score |")
    assert lines[start : start + len(expected_rows)] == expected_rows


def test_markdown_power_table():
    counts = full_counts(greed=5, safety=1)
    hits = PowerWordHits(counts=counts, matches=())
    dist = CategoryDistribution(
        percentages={
            category: 100.0 * counts[category] / 6 for category in PowerCategory
        },
        empty=False,
    )
    report = make_render_report(power=hits, power_distribution=dist)
    text = render_markdown(report)
    assert "| Category | Count | Share |" in text
    assert "| Greed | 5 | 83.33% |" in text
    assert "| Safety | 1 | 16.67% |" in text
    assert "| Forbidden | 0 | 0.00% |" in text
    assert "Total matches: 6" in text
    # category rows keep the declaration order
    greed_pos = text.index("| Greed |")
    forbidden_pos = text.index("| Forbidden |")
    assert greed_pos < forbidden_pos


def test_markdown_sentiment_lines():
    report = make_render_report(
        sentiment=SentimentScore(polarity=-0.456, subjectivity=0.789, matched_terms=4)
    )
    text = render_markdown(report)
    assert "- Polarity: -0.46" in text
    assert "- Subjectivity: 0.79" in text
    assert "- Matched terms: 4" in text


def test_markdown_entities_inline_annotations():
    doc = build_document("mlk-ish", "I saw America today.")
    spans = (
        EntitySpan(start=6, end=13, surface="America", label=EntityLabel.GPE),
        EntitySpan(start=14, end=19, surface="today", label=EntityLabel.DATE),
    )
    report = AnalysisReport(
        document=doc, stats=_STATS, sections=frozenset({"entities"}), entities=spans
    )
    text = render_markdown(report)
    assert "I saw **America GPE** **today DATE**." in text


def test_markdown_warnings_section_only_when_present():
    quiet = make_render_report()
    assert "## Warnings" not in render_markdown(quiet)
    noisy = make_render_report(warnings=("smog-low-sample",))
    noisy_text = render_markdown(noisy)
    assert "## Warnings" in noisy_text
    assert "- smog-low-sample" in noisy_text


def test_markdown_sections_follow_gating():
    report = make_render_report(
        power=PowerWordHits(counts=full_counts(), matches=()),
        power_distribution=CategoryDistribution(
            percentages={category: 0.0 for category in PowerCategory}, empty=True
        ),
    )
    text = render_markdown(report)
    assert "## Power words" in text
    assert "## Readability" not in text
    assert "## Sentiment" not in text
    assert "## Entities" not in text


def test_markdown_header_and_trailing_newline():
    text = render_markdown(make_render_report())
    assert text.startswith("# Analysis: render-doc")
    assert text.endswith("\n")


def test_corpus_markdown_contains_plot_table():
    rows = [
        document_row(make_agg_report(0.2, 70.0), "speech"),
        document_row(make_agg_report(-0.1, 10.0), "fiction"),
    ]
    text = render_corpus_markdown(aggregate(rows))
    assert text.startswith("# Corpus summary")
    assert "## fiction (1 documents)" in text
    assert "## speech (1 documents)" in text
    assert "## Distribution by genre (plot data)" in text
    assert "| Genre | Category | Percentage |" in text
    assert "| speech | Greed | 70.00 |" in text


def test_corpus_markdown_of_readability_only_reports_shows_readability_alone():
    config = AnalysisConfig(sections=frozenset({"readability"}))
    text = "The bold plan was free. We liked it very much. It ended well. So did we."
    rows = [
        document_row(analyze(build_document(f"doc-{genre}", text), config), genre)
        for genre in ("speech", "fiction")
    ]
    markdown = render_corpus_markdown(aggregate(rows))
    assert "## fiction (1 documents)" in markdown and "## speech (1 documents)" in markdown
    assert markdown.count("| Metric | Mean score |") == 2
    assert "Mean share" not in markdown
    assert "polarity" not in markdown and "subjectivity" not in markdown
    assert "plot data" not in markdown and "| Genre | Category | Percentage |" not in markdown


def test_markdown_rounds_a_tiny_negative_polarity_to_zero_as_structured_does():
    # Its entry scores average to -1.1e-16, not to 0.0.
    doc = build_document("tiny", "It was extremely abhor. It was so flawless. Then it ended.")
    report = analyze(doc, AnalysisConfig(sections=frozenset({"sentiment"})))
    assert -1e-15 < report.sentiment.polarity < 0
    assert json.loads(render_structured(report))["sentiment"]["polarity"] == 0.0
    text = render_markdown(report)
    assert "- Polarity: 0.00" in text
    assert "-0.00" not in text
    (agg,) = aggregate([document_row(make_agg_report(0.2, 70.0), "speech")])
    tiny = agg._replace(sentiment=(-1e-16, -1e-16))
    corpus_text = render_corpus_markdown([tiny])
    assert "- Mean polarity: 0.00" in corpus_text
    assert "- Mean subjectivity: 0.00" in corpus_text
    assert "-0.00" not in corpus_text


# ---------------------------------------------------------------------------
# One Resources shared by several threads
# ---------------------------------------------------------------------------


def test_shared_resources_give_sequential_bytes_under_threads():
    # One thread per sample document (more threads than cores), a cold
    # shared word table and a tiny switch interval: every thread renders
    # the same bytes as a sequential run with resources of its own.
    config = AnalysisConfig()
    items = load_corpus(load_manifest(data_path(CORPUS_MANIFEST_FILE)))

    def render(item, resources):
        report = analyze(
            item.document, config, resources=resources, extra_warnings=item.warnings
        )
        return render_structured(report)

    sequential = [render(item, load_resources(config)) for item in items]
    shared = load_resources(config)
    results: list[list[bytes]] = [[] for _ in items]

    def work(index: int) -> None:
        for _ in range(3):
            results[index].append(render(items[index], shared))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(items))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    for thread in threads:
        assert not thread.is_alive()
    assert results == [[expected] * 3 for expected in sequential]


def test_four_threads_sharing_resources_and_documents_give_the_serial_reports():
    # Four threads analyse the same nine documents with one cold
    # Resources, each in its own order: the word table's entries and each
    # document's keys are filled while the other threads read them.
    config = AnalysisConfig()
    texts = [
        (item.document.doc_id, item.document.raw, item.warnings)
        for item in load_corpus(load_manifest(data_path(CORPUS_MANIFEST_FILE)))
    ]

    def render(doc, warnings, resources):
        return render_structured(
            analyze(doc, config, resources=resources, extra_warnings=warnings)
        )

    serial = [render(build_document(i, raw), w, load_resources(config)) for i, raw, w in texts]
    shared = load_resources(config)
    documents = [build_document(doc_id, raw) for doc_id, raw, _w in texts]
    results: list[dict[int, bytes]] = [{} for _ in range(4)]

    def work(thread: int) -> None:
        for k in range(len(texts)):
            i = (k + 2 * thread) % len(texts)
            results[thread][i] = render(documents[i], texts[i][2], shared)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    for thread in threads:
        assert not thread.is_alive()
    for result in results:
        assert [result[i] for i in range(len(texts))] == serial


# ---------------------------------------------------------------------------
# Stage calls on a bare document, and the run's type table
# ---------------------------------------------------------------------------


def test_stage_calls_on_a_bare_document_equal_the_sections_of_analyze():
    # A bare document computes its own keys and each stage its own scan;
    # ``analyze`` fills the keys from the word table and shares one
    # candidate index.  Both give the same results on the shipped texts.
    config = AnalysisConfig()
    resources = load_resources(config)
    table = resources.word_table
    for item in load_corpus(load_manifest(data_path(CORPUS_MANIFEST_FILE))):
        doc_id, raw = item.document.doc_id, item.document.raw
        report = analyze(build_document(doc_id, raw), config, resources=resources)
        bare = build_document(doc_id, raw)
        own_table = WordTable(table.familiar_words, table.exceptions)
        assert compute_stats(bare, own_table.types(bare)) == report.stats
        assert scan(bare, resources.matcher) == report.power
        assert analyze_sentiment(bare, resources.sentiment_lexicon) == report.sentiment
        assert tuple(tag_entities(bare, resources.gazetteer)) == report.entities
        assert bare.keys == report.document.keys


def test_analysis_leaves_the_word_flag_column_unbuilt(monkeypatch):
    # Whether a token is a word follows from its text: the statistics read
    # the document's word types, and the scans read the keys, so a report
    # is made without the per-token flags ``Tokens.is_word`` derives.
    reads = []
    derived = textcore.Tokens.is_word

    def counted(tokens):
        reads.append(len(tokens))
        return derived.fget(tokens)

    monkeypatch.setattr(textcore.Tokens, "is_word", property(counted))
    config = AnalysisConfig()
    resources = load_resources(config)
    fixture = Path(__file__).parent / "fixtures" / "non-ascii.txt"
    for raw in (fixture.read_text(encoding="utf-8"), "“Not very good,” (she said). Good!"):
        doc = build_document("d", raw)
        report = analyze(doc, config, resources=resources)
        render_structured(report)
        render_markdown(report)
        assert reads == []
        # Read on demand, the flags are still there.
        assert list(doc.tokens.is_word) == [tok.is_word for tok in doc.tokens]
        assert reads and sum(doc.tokens.is_word) == report.stats.word_count
        reads.clear()


def test_each_word_text_is_normalized_by_the_first_document_that_has_it(monkeypatch):
    config = AnalysisConfig()
    resources = load_resources(config)
    calls: Counter[str] = Counter()
    normalize = textcore.normalize

    def counted(text: str) -> str:
        calls[text] += 1
        return normalize(text)

    monkeypatch.setattr(textcore, "normalize", counted)
    first = build_document("a", "Freedom rings. Let freedom ring from every hill.")
    second = build_document("b", "Let freedom ring, and every hill rings with freedom today.")
    analyze(first, config, resources=resources)
    assert set(calls) == set(first.tokens.texts) - {"."}
    after_first = Counter(calls)
    analyze(second, config, resources=resources)
    # Only the texts the first document lacks are normalized again.
    assert set(calls - after_first) == {"and", "with", "today"}
    after_second = Counter(calls)
    analyze(build_document("c", second.raw), config, resources=resources)
    assert calls == after_second
    # The table belongs to its resources: new resources normalize anew.
    fresh = load_resources(config)
    loaded = Counter(calls)
    analyze(build_document("d", first.raw), config, resources=fresh)
    assert set(calls - loaded) == set(after_first)


def test_word_table_follows_a_rebound_normalize(monkeypatch):
    # Entries remembered before ``textcore.normalize`` was rebound came
    # from the old function: the table forgets them, so ``analyze`` reads
    # the keys a bare document computes with the function bound now.
    config = AnalysisConfig()
    resources = load_resources(config)
    text = "Freedom rings. Let freedom ring from every hill."
    analyze(build_document("a", text), config, resources=resources)
    calls: Counter[str] = Counter()

    def shouted(word: str) -> str:
        calls[word] += 1
        return word.upper()

    monkeypatch.setattr(textcore, "normalize", shouted)
    doc = build_document("b", text)
    analyze(doc, config, resources=resources)
    assert set(calls) >= set(doc.tokens.texts) - {"."}
    assert doc.keys == build_document("b", text).keys
    assert "FREEDOM" in doc.keys


# ---------------------------------------------------------------------------
# The structured renderer against json.dumps
# ---------------------------------------------------------------------------
# ``render_structured`` writes its JSON straight from the report's fields;
# these oracles build the payload those bytes stand for and encode it with
# ``json.dumps``.


# The structured keys in render order, after the attribute each reads.
REF_STATS_KEYS = (
    ("word_count", "words"),
    ("sentence_count", "sentences"),
    ("syllable_count", "syllables"),
    ("letter_count", "letters"),
    ("char_count", "characters"),
    ("polysyllable_count", "polysyllables"),
    ("complex_word_count", "complex_words"),
    ("difficult_word_count", "difficult_words"),
)
REF_INDEX_KEYS = (
    ("flesch_reading_ease", "reading_ease"),
    ("flesch_kincaid_grade", "reading_level"),
    ("smog_index", "smog_index"),
    ("gunning_fog", "gunning_fog"),
    ("coleman_liau", "coleman_liau"),
    ("ari", "automated_readability_index"),
    ("dale_chall", "dale_chall"),
)


def _ref_r2(value):
    rounded = round(float(value), 2)
    return 0.0 if rounded == 0.0 else rounded


def _ref_readability(report):
    if report is None:
        return None
    scores = {key: _ref_r2(getattr(report, attr)) for attr, key in REF_INDEX_KEYS}
    return {
        "reading_ease": scores.pop("reading_ease"),
        "reading_ease_label": report.ease_label,
        **scores,
        "text_standard": report.text_standard,
    }


def _ref_power(hits, dist):
    if hits is None or dist is None:
        return None
    return {
        "counts": {cat.value: hits.counts[cat] for cat in PowerCategory},
        "total": hits.total,
        "distribution": {cat.value: _ref_r2(dist.percentages[cat]) for cat in PowerCategory},
        "matches": [
            {"term": m.term, "category": m.category.value, "start": m.start, "end": m.end}
            for m in hits.matches
        ],
    }


def _ref_sentiment(score):
    if score is None:
        return None
    return {
        "polarity": _ref_r2(score.polarity),
        "subjectivity": _ref_r2(score.subjectivity),
        "matched_terms": score.matched_terms,
    }


def _ref_entities(spans):
    if spans is None:
        return None
    return [
        {"surface": s.surface, "label": s.label.value, "start": s.start, "end": s.end}
        for s in spans
    ]


def reference_report_payload(report):
    payload = {
        "id": report.doc_id,
        "stats": {key: getattr(report.stats, attr) for attr, key in REF_STATS_KEYS},
    }
    if "readability" in report.sections:
        payload["readability"] = _ref_readability(report.readability)
    if "power" in report.sections:
        payload["power"] = _ref_power(report.power, report.power_distribution)
    if "sentiment" in report.sections:
        payload["sentiment"] = _ref_sentiment(report.sentiment)
    if "entities" in report.sections:
        payload["entities"] = _ref_entities(report.entities)
    payload["warnings"] = list(report.warnings)
    return payload


def reference_corpus_payload(aggregates):
    genres = []
    for agg in aggregates:
        readability = distribution = sentiment = None
        if agg.readability is not None:
            readability = {
                key: _ref_r2(mean) for (_attr, key), mean in zip(REF_INDEX_KEYS, agg.readability)
            }
        if agg.shares is not None:
            distribution = {c.value: _ref_r2(share) for c, share in zip(PowerCategory, agg.shares)}
        if agg.sentiment is not None:
            polarity, subjectivity = agg.sentiment
            sentiment = {"polarity": _ref_r2(polarity), "subjectivity": _ref_r2(subjectivity)}
        genres.append({
            "genre": agg.genre,
            "documents": agg.document_count,
            "readability": readability,
            "distribution": distribution,
            "sentiment": sentiment,
        })
    plot_rows = [
        {"genre": agg.genre, "category": c.value, "percentage": _ref_r2(share)}
        for agg in aggregates
        if agg.shares is not None
        for c, share in zip(PowerCategory, agg.shares)
    ]
    return {"genres": genres, "plot_rows": plot_rows}


def json_dumps_bytes(payload):
    return (json.dumps(payload, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


# Quotes, backslashes and control characters, text that looks like the
# separators of the indented output, and non-ASCII text.
_HAZARDS = ['"', "\\", "\n", "\x00", "\x1f", "},\n{", "},", "{", "}", ",\n", "é", "→", "\u2028"]
_texts = st.one_of(st.text(max_size=6), st.sampled_from(_HAZARDS))
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, -5e-324, 0.004, -0.004, 0.005, 1e-300, 1e300, 33.335]),
)
_ints = st.integers(min_value=-(10**20), max_value=10**20)


def _per_category(values):
    return st.fixed_dictionaries({category: values for category in PowerCategory})


_reports = st.builds(
    AnalysisReport,
    document=_texts.map(lambda doc_id: Document(doc_id, _DOC.raw)),
    stats=st.builds(TextStats, *[_ints] * 8),
    sections=st.frozensets(st.sampled_from(ALL_SECTIONS)),
    readability=st.none()
    | st.builds(ReadabilityReport, _floats, _texts, *[_floats] * 6, _texts, st.booleans()),
    power=st.none()
    | st.builds(
        PowerWordHits,
        counts=_per_category(_ints),
        matches=st.lists(
            st.builds(PowerMatch, _texts, st.sampled_from(PowerCategory), _ints, _ints),
            max_size=6,
        ).map(tuple),
    ),
    power_distribution=st.none()
    | st.builds(CategoryDistribution, _per_category(_floats), st.booleans()),
    sentiment=st.none() | st.builds(SentimentScore, _floats, _floats, _ints),
    entities=st.none()
    | st.lists(
        st.builds(EntitySpan, _ints, _ints, _texts, st.sampled_from(EntityLabel)), max_size=6
    ).map(tuple),
    warnings=st.lists(_texts, max_size=4).map(tuple),
)


_aggregates = st.builds(
    GenreAggregate,
    _texts,
    _ints,
    st.none() | st.tuples(*[_floats] * len(REF_INDEX_KEYS)),
    st.none() | st.tuples(*[_floats] * len(PowerCategory)),
    st.none() | st.tuples(_floats, _floats),
)

_NO_HITS = PowerWordHits(counts={category: 0 for category in PowerCategory}, matches=())


@settings(max_examples=300, deadline=None)
@given(report=_reports)
@example(
    report=make_render_report(
        power=_NO_HITS,
        power_distribution=CategoryDistribution({c: 0.0 for c in PowerCategory}, empty=True),
        entities=(),
    )
)
@example(
    report=make_render_report(
        power=_NO_HITS._replace(
            matches=(
                PowerMatch("},\n{", PowerCategory.FEAR, 0, 4),
                PowerMatch("\u2028", PowerCategory.LUST, 5, 6),
            ),
        ),
        power_distribution=CategoryDistribution(
            {c: float("nan") for c in PowerCategory}, empty=False
        ),
        sentiment=SentimentScore(float("inf"), float("-inf"), 0),
        entities=(EntitySpan(0, 1, '"\\\x00', EntityLabel.DATE),),
        warnings=("\x1f", "é→"),
    )
)
def test_render_structured_report_equals_json_dumps_of_its_payload(report):
    assert render_structured(report) == json_dumps_bytes(reference_report_payload(report))


@settings(max_examples=200, deadline=None)
@given(aggregates=st.lists(_aggregates, max_size=4))
@example(aggregates=[])
def test_render_structured_aggregates_equal_json_dumps_of_their_payload(aggregates):
    assert render_structured(aggregates) == json_dumps_bytes(reference_corpus_payload(aggregates))
