"""A doubling guard: every stage runs in time linear in its input.

Each stage runs on one repeated unit at two sizes, four times apart.  A
stage that reads its input in linear time takes about four times as long
on the larger text, a quadratic one about sixteen times; the guard fails
above ``GROWTH_LIMIT``.  The units are the ones that have made a stage
quadratic (runs of sentence terminators that no whitespace follows, and
markup that never closes), a sentiment entry after a run of punctuation
tokens, and a seeded sample of two-piece units.
"""

from __future__ import annotations

import random
import time
from typing import Callable

import pytest

from powertext.corpus import strip_gutenberg_boilerplate, strip_html
from powertext.errors import InputTextError
from powertext.report import (
    AnalysisConfig,
    analyze,
    load_resources,
    render_markdown,
    render_structured,
)
from powertext.textcore import build_document

# Four times the input may cost at most this many times the time.  The
# slack absorbs timer noise on stages that take well under a millisecond.
GROWTH_LIMIT = 7.0
SLACK_SECONDS = 0.002
SMALL_CHARS = 3_000

_CONFIG = AnalysisConfig()

# Pieces of the two-piece units: terminators and closers, whitespace and
# line breaks, word characters, joiners, a combining mark, the byte-order
# mark, abbreviations, markup and the ebook markers.
_PIECES = [
    ".", "!", "?", '"', ")", "’", " ", "\n", "\r", "\f", "a", "A", "1", "é", "\u0301",
    "-", "'", ",", "\ufeff", "Dr", "e.g", "<", "&", "*** START OF", "*** END OF",
]
_SAMPLED_UNITS = random.Random(22).sample([a + b for a in _PIECES for b in _PIECES], 12)
# A sentiment entry whose negation window reaches back across a run of
# punctuation tokens to the entries before it.
_GOOD_AFTER_DOTS = "good" + " ." * 40 + " "
UNITS = [".", "?!", ".!", "a<", "<!--", '<a x="', _GOOD_AFTER_DOTS, *_SAMPLED_UNITS]


def _best_seconds(run: Callable[[object], object], arg: object) -> float:
    times = []
    for _ in range(3):
        started = time.perf_counter()
        run(arg)
        times.append(time.perf_counter() - started)
    return min(times)


def _strip_gutenberg(text: str) -> None:
    try:
        strip_gutenberg_boilerplate(text)
    except InputTextError:  # a START marker without an END marker
        pass


def _growth_failures(stages, unit: str) -> list[str]:
    """The stages whose time on four times the text exceeds the limit.

    ``stages`` maps a stage's name to a pair: a function that makes the
    stage's argument from a text, untimed, and the timed stage."""
    repeats = max(1, SMALL_CHARS // len(unit))
    failures = []
    for name, (prepare, run) in stages.items():
        small = _best_seconds(run, prepare(unit * repeats))
        large = _best_seconds(run, prepare(unit * (4 * repeats)))
        if large > GROWTH_LIMIT * small + SLACK_SECONDS:
            failures.append(f"{name}: {small * 1e3:.2f} ms, then {large * 1e3:.2f} ms at 4x")
    return failures


@pytest.fixture(scope="module")
def stages():
    resources = load_resources(_CONFIG)

    def document(text: str):
        return build_document("d", text)

    def report(text: str):
        return analyze(document(text), _CONFIG, resources=resources)

    return {
        "build_document": (str, document),
        "analyze": (document, lambda doc: analyze(doc, _CONFIG, resources=resources)),
        "render_structured": (report, render_structured),
        "render_markdown": (report, render_markdown),
        "strip_gutenberg_boilerplate": (str, _strip_gutenberg),
        "strip_html": (str, strip_html),
    }


@pytest.mark.parametrize("unit", UNITS, ids=repr)
def test_each_stage_grows_linearly_on_a_repeated_unit(stages, unit):
    assert _growth_failures(stages, unit) == []


def test_negation_window_grows_linearly_across_one_run_of_punctuation(stages):
    # "good", a run of "." tokens, then "not very good.": the last entry's
    # window walks back across the whole run, once.  A walk that widens a
    # slice of the keys until it holds three words is quadratic in the run.
    prepare, run = stages["analyze"]
    stage = {"analyze": (lambda dots: prepare(f"good{dots} not very good."), run)}
    assert _growth_failures(stage, " .") == []


def test_strip_html_grows_linearly_on_unclosed_tags():
    assert _growth_failures({"strip_html": (str, strip_html)}, "<the ") == []


MAX_UNCLOSED_MARKUP_SECONDS = 0.5


@pytest.mark.parametrize("unit", ["<the ", "a<", "<!--", '<a x="'], ids=repr)
def test_unclosed_markup_is_stripped_in_linear_time(unit):
    # Markup that never closes is text.  A parser that reads the rest of
    # the input again at each unclosed "<" took 10 s on 48 KB of "<the ".
    html = unit * (48_000 // len(unit))
    started = time.perf_counter()
    text = strip_html(html)
    elapsed = time.perf_counter() - started
    assert text == " ".join(html.split())
    assert elapsed < MAX_UNCLOSED_MARKUP_SECONDS, f"{elapsed:.3f}s"
