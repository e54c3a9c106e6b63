"""Acceptance suite: one test per shipped acceptance criterion.

Run with ``pytest -v`` to get one pass/fail line per criterion.  Every
expected value here was either computed by an independent oracle coded
inside this file or hand-checked against the shipped fixture before
being frozen; tolerances are pinned in the constants below.
"""

import json
import math
import random
import subprocess
import sys
import time
import warnings as warnings_module
from pathlib import Path

import pytest

from powertext import defaults
from powertext.corpus import (
    WARN_MISSING_MARKERS,
    aggregate,
    document_row,
    load_corpus,
    load_manifest,
    strip_gutenberg_boilerplate,
)
from powertext.entities import load_gazetteer, tag_entities
from powertext.errors import InputTextError
from powertext.powerwords import (
    CategoryDistribution,
    PowerCategory,
    PowerLexicon,
    PowerWordHits,
    build_matcher,
    distribution,
    scan,
)
from powertext.readability import (
    ReadabilityReport,
    automated_readability_index,
    coleman_liau,
    dale_chall,
    flesch_kincaid_grade,
    flesch_reading_ease,
    gunning_fog,
    smog_index,
)
from powertext.report import AnalysisConfig, AnalysisReport, analyze, load_resources, render_structured
from powertext.sentiment import (
    SentimentEntry,
    SentimentLexicon,
    SentimentScore,
    analyze_sentiment,
)
from powertext.textcore import TextStats, Token, build_document, normalize

FIXTURES = Path(__file__).parent / "fixtures"
SPEECH_FIXTURE = "corpus/mlk_dream.txt"

# ---------------------------------------------------------------------------
# Criterion 1 — readability profile of the shipped speech fixture
# ---------------------------------------------------------------------------

# Reference scores for the shipped speech transcript, with the pinned
# tolerances.  The tolerance exists because tokenizer and syllable
# heuristics legitimately differ between implementations.
REFERENCE_SCORES = {
    "flesch_kincaid_grade": (8.8, 1.0),
    "smog_index": (11.0, 1.0),
    "gunning_fog": (10.52, 1.0),
    "coleman_liau": (8.01, 1.0),
    "ari": (9.8, 1.0),
    "dale_chall": (7.27, 0.5),
}
REFERENCE_EASE_LABEL = "Standard"
REFERENCE_TEXT_STANDARD = "10th and 11th grade"
MAX_SPEECH_SECONDS = 1.0


def _analyze_speech_fixture() -> AnalysisReport:
    config = AnalysisConfig()
    resources = load_resources(config)
    text = defaults.data_path(SPEECH_FIXTURE).read_text(encoding="utf-8")
    doc = build_document("speech", text)
    return analyze(doc, config, resources=resources)


def test_criterion_1_speech_fixture_readability_within_tolerance():
    started = time.perf_counter()
    report = _analyze_speech_fixture()
    elapsed = time.perf_counter() - started

    reading = report.readability
    assert reading is not None
    for field, (expected, tolerance) in REFERENCE_SCORES.items():
        actual = getattr(reading, field)
        assert abs(actual - expected) <= tolerance, (
            f"{field}: got {actual:.4f}, expected {expected} +/- {tolerance}"
        )
    assert reading.ease_label == REFERENCE_EASE_LABEL
    assert reading.text_standard == REFERENCE_TEXT_STANDARD
    assert elapsed < MAX_SPEECH_SECONDS, f"analysis took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# Criterion 2 — formula oracle over random count tuples
# ---------------------------------------------------------------------------

FORMULA_TUPLES = 10_000
FORMULA_TOLERANCE = 1e-9
MAX_FORMULA_SECONDS = 5.0


def _random_stats(rng: random.Random) -> TextStats:
    words = rng.randint(30, 5000)
    # 30+ sentences keeps the polysyllable index in its reliable regime,
    # so the oracle run stays warning-free.
    sentences = rng.randint(30, max(30, words // 3))
    return TextStats(
        word_count=words,
        sentence_count=sentences,
        syllable_count=rng.randint(words, 3 * words),
        letter_count=rng.randint(2 * words, 6 * words),
        char_count=rng.randint(2 * words, 7 * words),
        polysyllable_count=rng.randint(0, words),
        complex_word_count=rng.randint(0, words),
        difficult_word_count=rng.randint(0, words),
    )


def _oracle_indices(s: TextStats) -> dict[str, float]:
    """Independently hand-coded arithmetic for every readability index."""
    w, n = s.word_count, s.sentence_count
    ease = 206.835 - 1.015 * (w / n) - 84.6 * (s.syllable_count / w)
    fk = max(0.0, 0.39 * (w / n) + 11.8 * (s.syllable_count / w) - 15.59)
    smog = 1.0430 * math.sqrt(s.polysyllable_count * (30 / n)) + 3.1291
    fog = max(0.0, 0.4 * ((w / n) + 100 * (s.complex_word_count / w)))
    cl = max(0.0, 0.0588 * (100 * s.letter_count / w) - 0.296 * (100 * n / w) - 15.8)
    ari = max(0.0, 4.71 * (s.char_count / w) + 0.5 * (w / n) - 21.43)
    pct = 100 * s.difficult_word_count / w
    dc = 0.1579 * pct + 0.0496 * (w / n) + (3.6365 if pct > 5 else 0.0)
    return {
        "ease": ease, "fk": fk, "smog": smog, "fog": fog,
        "cl": cl, "ari": ari, "dc": dc,
    }


def test_criterion_2_formula_oracle_agreement():
    rng = random.Random(20260818)
    started = time.perf_counter()
    for _ in range(FORMULA_TUPLES):
        stats = _random_stats(rng)
        expected = _oracle_indices(stats)
        actual = {
            "ease": flesch_reading_ease(stats).score,
            "fk": flesch_kincaid_grade(stats),
            "smog": smog_index(stats),
            "fog": gunning_fog(stats),
            "cl": coleman_liau(stats),
            "ari": automated_readability_index(stats),
            "dc": dale_chall(stats),
        }
        for name in expected:
            assert abs(actual[name] - expected[name]) <= FORMULA_TOLERANCE, (
                f"{name} diverged on {stats}: {actual[name]!r} vs {expected[name]!r}"
            )
    elapsed = time.perf_counter() - started
    assert elapsed < MAX_FORMULA_SECONDS, f"oracle run took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 3 — matcher equivalence with a brute-force scan
# ---------------------------------------------------------------------------

MATCHER_PAIRS = 1_000
MAX_MATCHER_SECONDS = 30.0

_POOL = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
    "golf", "hotel", "india", "juliet", "kilo", "lima",
)


def _random_lexicon(rng: random.Random) -> PowerLexicon:
    categories = list(PowerCategory)
    entries = {}
    for _ in range(rng.randint(5, 12)):
        term = " ".join(
            rng.choice(_POOL) for _ in range(rng.randint(1, 3))
        )
        entries.setdefault(term, rng.choice(categories))
    return PowerLexicon(entries=entries, version="fuzz", source="<fuzz>")


def _random_text(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(30, 80)):
        if rng.random() < 0.2:
            parts.append(rng.choice((",", ".", "!", ";")))
        else:
            word = rng.choice(_POOL)
            if rng.random() < 0.1:
                word = word.capitalize()
            parts.append(word)
    return " ".join(parts)


def _brute_force_scan(
    tokens: list[Token], entries: dict[str, PowerCategory]
) -> list[tuple[str, PowerCategory, int, int]]:
    """Naive leftmost-longest scan over word-token windows."""
    max_len = max(len(term.split(" ")) for term in entries)
    found = []
    i = 0
    n = len(tokens)
    while i < n:
        if not tokens[i].is_word:
            i += 1
            continue
        best = None
        for length in range(1, max_len + 1):
            if i + length > n:
                break
            window = tokens[i : i + length]
            if any(not tok.is_word for tok in window):
                break
            candidate = " ".join(normalize(tok.text) for tok in window)
            if candidate in entries:
                best = (length, candidate)
        if best is None:
            i += 1
        else:
            length, term = best
            found.append(
                (term, entries[term], tokens[i].start, tokens[i + length - 1].end)
            )
            i += length
    return found


def test_criterion_3_matcher_matches_brute_force_oracle():
    rng = random.Random(4242)
    started = time.perf_counter()
    for _ in range(MATCHER_PAIRS):
        lexicon = _random_lexicon(rng)
        doc = build_document("fuzz", _random_text(rng))
        hits = scan(doc, build_matcher(lexicon))
        actual = [(m.term, m.category, m.start, m.end) for m in hits.matches]
        expected = _brute_force_scan(list(doc.tokens), dict(lexicon.entries))
        assert actual == expected
        recount = {category: 0 for category in PowerCategory}
        for _term, category, _start, _end in expected:
            recount[category] += 1
        assert dict(hits.counts) == recount
    elapsed = time.perf_counter() - started
    assert elapsed < MAX_MATCHER_SECONDS, f"matcher oracle took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 4 — distribution percentages
# ---------------------------------------------------------------------------


def test_criterion_4_distribution_sums_and_empty_flag():
    rng = random.Random(777)
    categories = list(PowerCategory)
    for _ in range(500):
        counts = {category: 0 for category in categories}
        for _ in range(rng.randint(1, 40)):
            counts[rng.choice(categories)] += rng.randint(1, 50)
        dist = distribution(PowerWordHits(counts=counts, matches=()))
        assert not dist.empty
        total = sum(dist.percentages.values())
        assert abs(total - 100.0) <= 0.01, f"sum {total!r} for counts {counts}"
        assert all(0.0 <= pct <= 100.0 for pct in dist.percentages.values())

    empty = distribution(
        PowerWordHits(counts={category: 0 for category in categories}, matches=())
    )
    assert empty.empty
    assert all(pct == 0.0 for pct in empty.percentages.values())


# ---------------------------------------------------------------------------
# Criterion 5 — sentiment properties
# ---------------------------------------------------------------------------


def _fuzz_sentiment_lexicon(rng: random.Random) -> SentimentLexicon:
    entries = {
        word: SentimentEntry(
            polarity=rng.uniform(-1, 1), subjectivity=rng.uniform(0, 1)
        )
        for word in rng.sample(_POOL, rng.randint(3, 8))
    }
    spare = [word for word in _POOL if word not in entries]
    modifiers = {spare[0]: rng.uniform(0.1, 2.0)}
    negators = frozenset(spare[1:2])
    return SentimentLexicon(
        entries=entries, modifiers=modifiers, negators=negators
    )


def test_criterion_5_sentiment_range_neutrality_and_negation():
    rng = random.Random(990)
    for _ in range(300):
        lexicon = _fuzz_sentiment_lexicon(rng)
        doc = build_document("fuzz", _random_text(rng))
        score = analyze_sentiment(doc, lexicon)
        assert -1.0 <= score.polarity <= 1.0
        assert 0.0 <= score.subjectivity <= 1.0

    lexicon = SentimentLexicon(
        entries={"grand": SentimentEntry(polarity=0.8, subjectivity=0.9)},
        modifiers={"very": 1.3},
        negators=frozenset({"not"}),
    )
    miss = analyze_sentiment(build_document("none", "Plain words only here."), lexicon)
    assert (miss.polarity, miss.subjectivity) == (0.0, 0.0)
    assert miss.matched_terms == 0

    plain = analyze_sentiment(build_document("p", "A grand day."), lexicon)
    assert plain.polarity == 0.8
    negated = analyze_sentiment(build_document("n", "It is not grand."), lexicon)
    assert negated.polarity == 0.8 * -0.5
    assert negated.subjectivity == 0.9


# ---------------------------------------------------------------------------
# Criterion 6 — genre-average substitutes
# ---------------------------------------------------------------------------


def _run_shipped_corpus():
    config = AnalysisConfig()
    resources = load_resources(config)
    manifest = load_manifest(defaults.data_path(defaults.CORPUS_MANIFEST_FILE))
    reports = []
    with warnings_module.catch_warnings():
        warnings_module.simplefilter("ignore")
        for item in load_corpus(manifest):
            report = analyze(
                item.document, config, resources=resources,
                extra_warnings=item.warnings,
            )
            reports.append((report, item.genre))
    return reports, aggregate([document_row(report, genre) for report, genre in reports])


def test_criterion_6a_marketing_genre_argmax_is_greed():
    _reports, aggregates = _run_shipped_corpus()
    marketing = next(agg for agg in aggregates if agg.genre == "marketing")
    assert marketing.mean_distribution is not None
    top = max(marketing.mean_distribution, key=marketing.mean_distribution.get)
    assert top is PowerCategory.GREED, (
        f"marketing argmax was {top.value}: {marketing.mean_distribution}"
    )


def _hand_report(
    doc_id: str,
    grades: tuple[float, float, float, float, float, float, float],
    dist: dict[PowerCategory, float],
    polarity: float,
    subjectivity: float,
) -> AnalysisReport:
    ease, fk, smog, fog, cl, ari, dc = grades
    doc = build_document(doc_id, "Stub one. Stub two. Stub three.")
    percentages = {category: dist.get(category, 0.0) for category in PowerCategory}
    return AnalysisReport(
        document=doc,
        stats=TextStats(6, 3, 6, 22, 22, 0, 0, 0),
        sections=frozenset({"readability", "power", "sentiment"}),
        readability=ReadabilityReport(
            flesch_reading_ease=ease,
            ease_label="Standard",
            flesch_kincaid_grade=fk,
            smog_index=smog,
            gunning_fog=fog,
            coleman_liau=cl,
            ari=ari,
            dale_chall=dc,
            text_standard="9th and 10th grade",
        ),
        power_distribution=CategoryDistribution(percentages=percentages, empty=False),
        sentiment=SentimentScore(
            polarity=polarity, subjectivity=subjectivity, matched_terms=1
        ),
    )


def test_criterion_6b_aggregation_reproduces_hand_computed_means():
    # Values are chosen with exact binary representations so the expected
    # means can be computed by hand and compared with ==.
    report_a = _hand_report(
        "a", (70.0, 8.25, 10.5, 9.75, 7.5, 8.0, 6.5),
        {PowerCategory.GREED: 75.0, PowerCategory.ENCOURAGEMENT: 25.0},
        0.25, 0.5,
    )
    report_b = _hand_report(
        "b", (60.0, 9.75, 11.5, 10.25, 8.5, 10.0, 7.5),
        {
            PowerCategory.GREED: 25.0,
            PowerCategory.ENCOURAGEMENT: 25.0,
            PowerCategory.SAFETY: 50.0,
        },
        0.75, 1.0,
    )
    report_c = _hand_report(
        "c", (55.0, 12.0, 13.0, 12.5, 11.0, 12.25, 8.25),
        {PowerCategory.FEAR: 100.0},
        -0.5, 0.25,
    )

    aggregates = aggregate(
        [
            document_row(report_a, "speech"),
            document_row(report_b, "speech"),
            document_row(report_c, "fiction"),
        ]
    )
    by_genre = {agg.genre: agg for agg in aggregates}

    speech = by_genre["speech"]
    assert speech.document_count == 2
    assert speech.mean_flesch_reading_ease == (70.0 + 60.0) / 2
    assert speech.mean_flesch_kincaid_grade == (8.25 + 9.75) / 2
    assert speech.mean_smog_index == (10.5 + 11.5) / 2
    assert speech.mean_gunning_fog == (9.75 + 10.25) / 2
    assert speech.mean_coleman_liau == (7.5 + 8.5) / 2
    assert speech.mean_ari == (8.0 + 10.0) / 2
    assert speech.mean_dale_chall == (6.5 + 7.5) / 2
    assert speech.mean_distribution[PowerCategory.GREED] == (75.0 + 25.0) / 2
    assert speech.mean_distribution[PowerCategory.ENCOURAGEMENT] == 25.0
    assert speech.mean_distribution[PowerCategory.SAFETY] == (0.0 + 50.0) / 2
    assert speech.mean_distribution[PowerCategory.FEAR] == 0.0
    assert speech.mean_polarity == (0.25 + 0.75) / 2
    assert speech.mean_subjectivity == (0.5 + 1.0) / 2

    fiction = by_genre["fiction"]
    assert fiction.document_count == 1
    assert fiction.mean_flesch_kincaid_grade == 12.0
    assert fiction.mean_distribution[PowerCategory.FEAR] == 100.0
    assert fiction.mean_polarity == -0.5
    assert fiction.mean_subjectivity == 0.25


def test_criterion_6c_two_runs_produce_byte_identical_structured_output():
    first_reports, first_aggregates = _run_shipped_corpus()
    second_reports, second_aggregates = _run_shipped_corpus()
    assert len(first_reports) == len(second_reports)
    for (report_1, _), (report_2, _) in zip(first_reports, second_reports):
        assert render_structured(report_1) == render_structured(report_2)
    assert render_structured(first_aggregates) == render_structured(second_aggregates)


# ---------------------------------------------------------------------------
# Criterion 7 — ebook boilerplate marker cases
# ---------------------------------------------------------------------------


def test_criterion_7_gutenberg_marker_cases():
    present = (FIXTURES / "gutenberg" / "markers_present.txt").read_text()
    stripped = strip_gutenberg_boilerplate(present)
    assert not stripped.markers_missing
    assert stripped.text == (
        "Once there was a story. It had a middle. It had an end.\n"
    )

    absent = (FIXTURES / "gutenberg" / "markers_absent.txt").read_text()
    unchanged = strip_gutenberg_boilerplate(absent)
    assert unchanged.markers_missing
    assert unchanged.text == absent

    unterminated = (FIXTURES / "gutenberg" / "unterminated.txt").read_text()
    with pytest.raises(InputTextError):
        strip_gutenberg_boilerplate(unterminated)

    # The missing-marker flag must surface as a document warning when the
    # same file flows through a manifest.
    manifest_text = "markers_absent.txt,absent-doc,fiction,gutenberg\n"
    manifest_path = FIXTURES / "gutenberg" / "_tmp_manifest.csv"
    manifest_path.write_text(manifest_text, encoding="utf-8")
    try:
        docs = load_corpus(load_manifest(manifest_path))
        assert docs[0].warnings == (WARN_MISSING_MARKERS,)
    finally:
        manifest_path.unlink()


# ---------------------------------------------------------------------------
# Criterion 8 — entity label precision on the speech fixture
# ---------------------------------------------------------------------------

# Hand-checked labels for every surface form the tagger may emit on the
# shipped speech fixture (lowercased surface -> label).  Any emission
# outside this table is a false label.
VERIFIED_SPEECH_LABELS = {
    "today": "DATE",
    "tomorrow": "DATE",
    "score years ago": "DATE",
    "one hundred years later": "DATE",
    "the long night": "TIME",
    "five": "CARDINAL",
    "four": "CARDINAL",
    "one": "CARDINAL",
    "millions": "CARDINAL",
    "nineteen sixty-three": "CARDINAL",
    "american": "NORP",
    "catholics": "NORP",
    "gentiles": "NORP",
    "jews": "NORP",
    "protestants": "NORP",
    "america": "GPE",
    "alabama": "GPE",
    "california": "GPE",
    "colorado": "GPE",
    "georgia": "GPE",
    "louisiana": "GPE",
    "mississippi": "GPE",
    "new hampshire": "GPE",
    "new york": "GPE",
    "pennsylvania": "GPE",
    "south carolina": "GPE",
    "tennessee": "GPE",
    "constitution": "LAW",
    "the emancipation proclamation": "LAW",
}

REQUIRED_SPEECH_EMISSIONS = {
    ("today", "DATE"),
    ("five", "CARDINAL"),
    ("american", "NORP"),
    ("america", "GPE"),
}


def test_criterion_8_entity_precision_on_speech_fixture():
    text = defaults.data_path(SPEECH_FIXTURE).read_text(encoding="utf-8")
    doc = build_document("speech", text)
    gazetteer = load_gazetteer(defaults.data_path(defaults.GAZETTEER_FILE))
    spans = list(tag_entities(doc, gazetteer))
    assert spans, "tagger emitted nothing on the speech fixture"

    emitted = set()
    for span in spans:
        surface = " ".join(span.surface.lower().split())
        expected = VERIFIED_SPEECH_LABELS.get(surface)
        assert expected is not None, (
            f"unverified emission {span.surface!r} -> {span.label.value}"
        )
        assert span.label.value == expected, (
            f"false label {span.surface!r}: {span.label.value} != {expected}"
        )
        emitted.add((surface, span.label.value))

    missing = REQUIRED_SPEECH_EMISSIONS - emitted
    assert not missing, f"required emissions absent: {missing}"


# ---------------------------------------------------------------------------
# Criterion 9 — CLI exit codes and section gating, black box
# ---------------------------------------------------------------------------


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "powertext", *args],
        capture_output=True, text=True, timeout=120,
    )


def test_criterion_9_cli_exit_codes_and_section_gating(tmp_path):
    sample = tmp_path / "sample.txt"
    sample.write_text(
        "The sunrise was a genuine bargain of light. Every guest saved a "
        "seat and felt safe. Nobody feared the secret door at midnight.\n",
        encoding="utf-8",
    )

    ok = _cli("analyze", str(sample), "--format", "structured")
    assert ok.returncode == 0, ok.stderr
    full = json.loads(ok.stdout)

    usage = _cli("analyze")  # missing required argument
    assert usage.returncode == 1

    data_error = _cli(
        "analyze", str(sample), "--lexicon", str(tmp_path / "missing.csv")
    )
    assert data_error.returncode == 2

    input_error = _cli("analyze", str(tmp_path / "no_such_input.txt"))
    assert input_error.returncode == 3

    gated_readability = _cli(
        "analyze", str(sample), "--format", "structured",
        "--sections", "readability",
    )
    assert gated_readability.returncode == 0
    readability_only = json.loads(gated_readability.stdout)

    gated_rest = _cli(
        "analyze", str(sample), "--format", "structured",
        "--sections", "power,sentiment,entities",
    )
    assert gated_rest.returncode == 0
    rest_only = json.loads(gated_rest.stdout)

    # Gating must not change anything outside the gated sections.
    assert readability_only["stats"] == full["stats"]
    assert rest_only["stats"] == full["stats"]
    assert readability_only["readability"] == full["readability"]
    for section in ("power", "sentiment", "entities"):
        assert section not in readability_only
        assert rest_only[section] == full[section]
    assert "readability" not in rest_only
