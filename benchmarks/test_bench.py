"""Tests of the benchmark itself: seeded generators, the output oracle and
the tracer.  Run with ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import random
import time

import pytest

import oracle
import probe
import run
import workloads
from tracer import Tracer

pt = workloads.require_source()

SMALL_TEXT = (
    "On January 20, 1961, twenty one hundred Americans came to Washington. "
    "They were free, and the offer was risk free! Nobody was afraid. "
    "It was a great, wonderful day for the nation."
)


@pytest.fixture(scope="module")
def texts():
    return workloads.shipped_texts()


@pytest.fixture(scope="module")
def words():
    return workloads.familiar_words()


def test_concat_text_is_seeded(texts):
    first = workloads.concat_text(1, texts)
    assert first == workloads.concat_text(1, texts)
    assert first != workloads.concat_text(2, texts)
    assert len(first) == len(workloads.concat_text(2, texts))
    assert first.count(texts[0].text) == workloads.CONCAT_REPEATS


def test_manifest_rows_are_seeded(texts, tmp_path):
    first = workloads.manifest_rows(1, texts)
    assert first == workloads.manifest_rows(1, texts)
    assert first != workloads.manifest_rows(2, texts)
    assert sorted(r.doc_id for r in first) == sorted(r.doc_id for r in workloads.manifest_rows(2, texts))

    manifest = tmp_path / "manifest.csv"
    manifest.write_text(workloads.manifest_csv(first, tmp_path), encoding="utf-8")
    entries = pt.load_manifest(manifest).entries
    assert len(entries) == len(texts) * workloads.MANIFEST_COPIES
    assert {e.kind for e in entries} == {"gutenberg", "html", "plain"}
    assert all(e.path.is_file() for e in entries)


def test_adversarial_cases_are_seeded(texts, words):
    first = workloads.adversarial_cases(1, texts, words)
    again = workloads.adversarial_cases(1, texts, words)
    other = workloads.adversarial_cases(2, texts, words)
    assert [c.name for c in first] == [
        "number_run", "one_word_sentences", "nfd_text", "big_token", "low_repetition"
    ]
    for a, b, c in zip(first, again, other):
        assert a == b
        assert a.text != c.text, a.name
    big = first[3].text
    assert len(big) == workloads.BIG_TOKEN_CHARS and big.isalpha()
    start, end = first[0].run
    assert len(first[0].text[start:end].split()) == workloads.NUMBER_RUN_WORDS


def test_digest_oracle_catches_a_corrupted_report(texts, tmp_path):
    rows = workloads.manifest_rows(0, texts)
    one_each = list({row.source.doc_id: row for row in rows}.values())
    outputs = run.run_corpus_command(pt, one_each, tmp_path)
    expected = oracle.load_expected()["corpus_manifest"]["documents"]
    for row in one_each:
        report = oracle.without_id(outputs[row.doc_id], row.doc_id)
        assert oracle.digest(report) == expected[row.source.doc_id]
        corrupted = report.replace(b'"words": ', b'"words": 1', 1)
        assert oracle.digest(corrupted) != expected[row.source.doc_id]


def _small_report(text: str):
    resources = pt.load_resources(pt.AnalysisConfig())
    report, doc = run.render_document(pt, "small", text, resources)
    return report, doc, run.word_count(doc)


def test_invariants_hold_on_a_real_report():
    report, doc, words = _small_report(SMALL_TEXT)
    payload = json.loads(report)
    assert payload["entities"] and payload["power"]["matches"]
    assert oracle.invariant_problems(doc.raw, report, words, pt.normalize) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p["stats"].update(words=p["stats"]["words"] + 1),
        lambda p: p["entities"][0].update(start=p["entities"][0]["start"] + 1),
        lambda p: p["entities"].append(dict(p["entities"][-1])),
        lambda p: p["power"]["matches"][0].update(end=10**9),
        lambda p: p["power"]["matches"][0].update(term="zzz"),
    ],
    ids=["word-count", "entity-offset", "entity-overlap", "match-range", "match-term"],
)
def test_invariants_catch_a_corrupted_report(corrupt):
    report, doc, words = _small_report(SMALL_TEXT)
    payload = json.loads(report)
    corrupt(payload)
    corrupted = json.dumps(payload).encode()
    assert oracle.invariant_problems(doc.raw, corrupted, words, pt.normalize)
    assert oracle.invariant_problems(doc.raw, b"{not json", words, pt.normalize)
    assert oracle.invariant_problems(doc.raw, b'{"stats": {}}', words, pt.normalize)


def test_cardinal_run_check():
    case = workloads.number_run(random.Random(0))
    text = " ".join(case.text.split()[:50]) + "."
    run_range = (0, len(text) - 1)
    report, doc, words = _small_report(text)
    assert oracle.invariant_problems(doc.raw, report, words, pt.normalize, run_range) == []
    assert oracle.invariant_problems(doc.raw, report, words, pt.normalize, (0, 5))


def test_tally_fails_an_operation_whose_bytes_change():
    tally = run.Tally()
    first = run.Pass(outcomes=[run.Outcome("a", "x", []), run.Outcome("b", "y", [])])
    second = run.Pass(outcomes=[run.Outcome("a", "x", []), run.Outcome("b", "z", [])])
    tally.add([first, second])
    assert (tally.attempted, tally.failed) == (4, 1)


def test_tail_latency_keeps_ten_samples_beyond():
    assert run.tail_latency([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail_latency([float(i) for i in range(1, 1001)]) == (990.0, 99.0)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail_latency([float(i) for i in range(1, 21)]) == (20.0, 100.0)


def test_traced_output_is_identical_and_accounted_for():
    resources = pt.load_resources(pt.AnalysisConfig())
    originals = (pt.build_document, pt.normalize)
    untraced, _ = run.render_document(pt, "small", SMALL_TEXT * 20, resources)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run.render_document(pt, "small", SMALL_TEXT * 20, resources)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert (pt.build_document, pt.normalize) == originals

    names = {span[0] for span in tracer.spans}
    assert {"textcore.build_document", "report.analyze", "entities.tag_entities"} <= names
    assert tracer.counts["textcore.normalize"] > 0
    self_total = sum(tracer.self_times(0, len(tracer.spans)).values())
    top_level = sum((end - start) / 1e9 for _n, parent, _d, start, end in tracer.spans if parent == -1)
    assert self_total == pytest.approx(top_level)
    assert all(doc == "small" for _n, _p, doc, _s, _e in tracer.spans)


def _probe_with(stretches):
    """A SpeedProbe whose block started at 0 and saw the given probes:
    (end of work stretch, end of probe, probe seconds)."""
    speed = probe.SpeedProbe()
    for stretch_end, probe_end, seconds in stretches:
        speed._stretch_end.append(stretch_end)
        speed._probe_end.append(probe_end)
        speed._scale.append(probe.REFERENCE_PROBE_S / seconds)
    return speed


def test_probe_rescales_each_stretch_and_skips_probe_time():
    ref = probe.REFERENCE_PROBE_S
    # Work 0-1 s at half speed, probe 1-1.5 s, work 1.5-2.5 s at full speed.
    speed = _probe_with([(1.0, 1.5, 2 * ref), (2.5, 3.0, ref)])
    assert speed.wall_seconds(0.0, 2.5) == pytest.approx(2.0)
    assert speed.reference_seconds(0.0, 2.5) == pytest.approx(1.5)
    assert speed.reference_seconds(0.0, 0.5) == pytest.approx(0.25)
    assert speed.reference_seconds(1.2, 2.0) == pytest.approx(0.5)
    assert speed.reference_seconds(0.5, 2.0) == pytest.approx(0.75)


def test_probe_samples_a_timed_block():
    with probe.SpeedProbe() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        end = time.perf_counter()
    assert speed.probes > 5
    assert 0 < speed.wall_seconds(start, end) < end - start
    assert speed.reference_seconds(start, end) > 0
