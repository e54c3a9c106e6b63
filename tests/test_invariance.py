"""Whole-pipeline invariance: presentation-only changes to a text leave
every analysis result unchanged.

Each shipped corpus text, as cleaned for analysis, is compared with its
NFD form, CRLF line breaks, doubled spaces, no-break spaces and curly
apostrophes.  Offsets move under these changes, so power hits are
compared by (term, category) and entities by label and surface, the
surface read in the form every variant shares: NFC, straight
apostrophes, whitespace collapsed.
"""

from __future__ import annotations

import unicodedata

import pytest

from powertext.corpus import load_corpus, load_manifest
from powertext.defaults import CORPUS_MANIFEST_FILE, data_path
from powertext.report import AnalysisConfig, analyze, load_resources
from powertext.textcore import build_document, normalize

CONFIG = AnalysisConfig()

VARIANTS = {
    "nfd": lambda text: unicodedata.normalize("NFD", text),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "doubled-space": lambda text: text.replace(" ", "  "),
    "nbsp": lambda text: text.replace(" ", "\u00a0"),
    "curly-apostrophe": lambda text: text.replace("'", "\u2019"),
}
# NFD leaves ASCII as it is, and the shipped texts are ASCII, so the NFD
# variant is taken of each text with every "e" made a precomposed "é".
BASES = {"nfd": lambda text: text.replace("e", "\u00e9")}


@pytest.fixture(scope="module")
def resources():
    return load_resources(CONFIG)


@pytest.fixture(scope="module")
def shipped_texts():
    items = load_corpus(load_manifest(data_path(CORPUS_MANIFEST_FILE)))
    return {item.document.doc_id: item.document.raw for item in items}


def _shared_form(surface: str) -> str:
    return " ".join(unicodedata.normalize("NFC", surface).replace("\u2019", "'").split())


def _results(doc_id: str, text: str, resources) -> tuple:
    report = analyze(build_document(doc_id, text), CONFIG, resources=resources)
    for match in report.power.matches:
        # A match spans exactly the words of its term.
        assert normalize(" ".join(text[match.start : match.end].split())) == match.term
    return (
        report.stats,
        report.readability,
        [(match.term, match.category) for match in report.power.matches],
        report.sentiment,
        [(span.label, _shared_form(span.surface)) for span in report.entities],
    )


def test_the_shipped_corpus_has_nine_texts(shipped_texts):
    assert len(shipped_texts) == 9


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_presentation_variants_give_equal_results(variant, shipped_texts, resources):
    changed_any = False
    for doc_id, text in shipped_texts.items():
        base = BASES.get(variant, str)(text)
        changed = VARIANTS[variant](base)
        changed_any |= changed != base
        assert _results(doc_id, changed, resources) == _results(doc_id, base, resources), doc_id
    assert changed_any, f"{variant} changes no text"
