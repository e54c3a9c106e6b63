"""Tests for the rule-based entity tagger and annotation rendering."""

import io
import re
import time

import pytest

from powertext.entities import (
    EntityLabel,
    EntitySpan,
    Gazetteer,
    load_gazetteer,
    render_annotations,
    tag_entities,
)
from powertext.errors import DataFileError
from powertext.textcore import build_document


GAZ = load_gazetteer(
    io.StringIO(
        "# sample gazetteer\n"
        "[NORP]\n"
        "American\n"
        "Americans\n"
        "[GPE]\n"
        "America\n"
        "New York\n"
        "York\n"
        "[LAW]\n"
        "Constitution\n"
        "the Emancipation Proclamation\n"
        "[ORG]\n"
        "Acme Corp\n"
        "[PERSON]\n"
        "Alice\n"
        "[WORK_OF_ART]\n"
    )
)

EMPTY_GAZ = Gazetteer(entries={})


def tags(text: str, gazetteer: Gazetteer = GAZ):
    doc = build_document("t", text)
    return tag_entities(doc, gazetteer)


def pairs(text: str, gazetteer: Gazetteer = GAZ):
    return [(span.surface, span.label) for span in tags(text, gazetteer)]


# ---------------------------------------------------------------------------
# gazetteer loading
# ---------------------------------------------------------------------------


def test_load_gazetteer_sections_and_normalization():
    assert GAZ.entries["american"] is EntityLabel.NORP
    assert GAZ.entries["new york"] is EntityLabel.GPE
    assert GAZ.entries["the emancipation proclamation"] is EntityLabel.LAW


def test_load_gazetteer_rejects_unknown_section():
    with pytest.raises(DataFileError):
        load_gazetteer(io.StringIO("[DATE]\ntoday\n"))
    with pytest.raises(DataFileError):
        load_gazetteer(io.StringIO("[PLACE]\nParis\n"))


def test_load_gazetteer_rejects_entry_before_section():
    with pytest.raises(DataFileError):
        load_gazetteer(io.StringIO("America\n[GPE]\n"))


def test_load_gazetteer_rejects_cross_section_conflicts():
    with pytest.raises(DataFileError) as err:
        load_gazetteer(io.StringIO("[GPE]\nAmerica\n[ORG]\nAmerica\n"))
    assert "america" in str(err.value)


def test_load_gazetteer_rejects_surfaces_that_can_never_match():
    # Tokens split at "." and "&", so these surfaces could never be found.
    for text, line in (("[GPE]\nU.S.\n", 2), ("[GPE]\nOhio\n[ORG]\nAT&T\n", 4)):
        with pytest.raises(DataFileError, match="never match") as err:
            load_gazetteer(io.StringIO(text))
        assert err.value.line == line
    gaz = load_gazetteer(io.StringIO("[ORG]\nO'Neill-Smith Co\n"))
    assert pairs("We met O'Neill-Smith Co today.", gaz)[0] == (
        "O'Neill-Smith Co",
        EntityLabel.ORG,
    )


def test_load_gazetteer_accepts_bytes_and_duplicates_within_section():
    gaz = load_gazetteer(io.BytesIO(b"[GPE]\nAmerica\namerica\n"))
    assert gaz.entries == {"america": EntityLabel.GPE}


def test_load_gazetteer_drops_a_leading_byte_order_mark():
    gaz = load_gazetteer(io.BytesIO("\ufeff[GPE]\nAmerica\n".encode("utf-8")))
    assert gaz.entries == {"america": EntityLabel.GPE}


def test_load_gazetteer_rejects_a_surface_led_by_a_byte_order_mark_inside_the_file():
    # A mark past the start of a file is a non-word token: the surface
    # could never match.
    with pytest.raises(DataFileError, match="never match") as err:
        load_gazetteer(io.StringIO("[GPE]\nLondon\n\ufeffParis\n"))
    assert err.value.line == 3


# ---------------------------------------------------------------------------
# date patterns
# ---------------------------------------------------------------------------


def test_relative_day_words_are_dates():
    assert pairs("I am happy to join with you today in this.") == [
        ("today", EntityLabel.DATE)
    ]
    assert ("Tomorrow", EntityLabel.DATE) in pairs("Tomorrow we march again.")


def test_score_years_ago_is_a_date_phrase():
    got = pairs("Five score years ago, a great speech.")
    assert ("Five", EntityLabel.CARDINAL) in got
    assert ("score years ago", EntityLabel.DATE) in got


def test_number_words_plus_years_later_form_one_date():
    assert pairs("But one hundred years later, nothing.") == [
        ("one hundred years later", EntityLabel.DATE)
    ]
    assert pairs("One hundred years later, still.") == [
        ("One hundred years later", EntityLabel.DATE)
    ]
    assert pairs("Three years ago it began.") == [
        ("Three years ago", EntityLabel.DATE)
    ]


def test_month_day_year_expressions():
    assert pairs("It happened on January 20, 1961 at the capitol.") == [
        ("January 20, 1961", EntityLabel.DATE)
    ]
    assert pairs("By June 1944 it was done.") == [("June 1944", EntityLabel.DATE)]
    assert pairs("Due May 15 at the latest.") == [("May 15", EntityLabel.DATE)]


def test_bare_month_or_modal_may_is_not_a_date():
    assert pairs("You may go now.") == []
    assert pairs("January was cold.") == []


def test_four_digit_years_are_dates_other_digits_cardinal():
    assert pairs("Back in 1963 it was signed.") == [("1963", EntityLabel.DATE)]
    assert pairs("There are 42 reasons.") == [("42", EntityLabel.CARDINAL)]
    # Outside the year window a 4-digit token is not a DATE, but it is
    # still a digit group, so the cardinal pass picks it up.
    assert pairs("It costs 3021 coins.") == [("3021", EntityLabel.CARDINAL)]


def test_superscript_digits_are_cardinals_not_dates():
    # "²".isdigit() is true but int("²") raises; the date tests must not
    # take such a token for a day of the month or a year.
    assert pairs("May ² came.") == [("²", EntityLabel.CARDINAL)]
    assert pairs("In 1²34 we.") == [("1²34", EntityLabel.CARDINAL)]


def test_weekdays_are_dates():
    assert pairs("See you on Friday then.") == [("Friday", EntityLabel.DATE)]


# ---------------------------------------------------------------------------
# time patterns
# ---------------------------------------------------------------------------


def test_time_phrases():
    assert pairs("It ended the long night of waiting.") == [
        ("the long night", EntityLabel.TIME)
    ]
    assert pairs("We met at noon sharp.") == [("noon", EntityLabel.TIME)]
    assert pairs("Back before midnight, please.") == [
        ("midnight", EntityLabel.TIME)
    ]


# ---------------------------------------------------------------------------
# cardinal patterns
# ---------------------------------------------------------------------------


def test_spelled_numbers_and_digit_groups():
    assert pairs("Five reasons to stay.") == [("Five", EntityLabel.CARDINAL)]
    assert pairs("It brought hope to millions of people.") == [
        ("millions", EntityLabel.CARDINAL)
    ]
    assert pairs("About twenty-five students came.") == [
        ("twenty-five", EntityLabel.CARDINAL)
    ]
    assert pairs("Nineteen sixty-three is not an end.") == [
        ("Nineteen sixty-three", EntityLabel.CARDINAL)
    ]
    assert pairs("Over 100 million copies sold.") == [
        ("100 million", EntityLabel.CARDINAL)
    ]


def test_score_alone_is_not_a_number():
    assert pairs("The final score was high.") == []


# Generous bound for 20,000 number words; a tagger that rescans the rest
# of the run at every token takes over a minute here.
MAX_NUMBER_RUN_SECONDS = 5.0


def test_long_number_run_tags_as_one_cardinal_in_linear_time():
    text = "one " * 20000
    doc = build_document("t", text)
    started = time.perf_counter()
    spans = tag_entities(doc, GAZ)
    elapsed = time.perf_counter() - started
    assert [(span.start, span.end, span.label) for span in spans] == [
        (0, len(text) - 1, EntityLabel.CARDINAL)
    ]
    assert elapsed < MAX_NUMBER_RUN_SECONDS, f"tagging took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# gazetteer pass
# ---------------------------------------------------------------------------


def test_gazetteer_single_and_multiword_lookup():
    assert pairs("It is obvious that America has defaulted.") == [
        ("America", EntityLabel.GPE)
    ]
    assert pairs("Every American was to fall heir.") == [
        ("American", EntityLabel.NORP)
    ]
    assert pairs("He signed the Emancipation Proclamation.") == [
        ("the Emancipation Proclamation", EntityLabel.LAW)
    ]


def test_gazetteer_longest_match_wins():
    assert pairs("The streets of New York are loud.") == [
        ("New York", EntityLabel.GPE)
    ]


def test_gazetteer_respects_token_boundaries():
    assert pairs("A constitutional question arose.") == []
    assert pairs("The words of the Constitution endure.") == [
        ("Constitution", EntityLabel.LAW)
    ]


def test_gazetteer_phrases_break_on_punctuation():
    assert pairs("the Emancipation, Proclamation") == []


def test_patterns_win_over_gazetteer():
    gaz = load_gazetteer(io.StringIO("[GPE]\ntoday\n"))
    assert pairs("We begin today.", gaz) == [("today", EntityLabel.DATE)]


def test_earlier_claim_cuts_a_gazetteer_surface():
    gaz = load_gazetteer(io.StringIO("[WORK_OF_ART]\nclass of 1961\n[ORG]\nclass\n"))
    assert pairs("The Class of 1961 met.", gaz) == [
        ("Class", EntityLabel.ORG),
        ("1961", EntityLabel.DATE),
    ]


def test_unknown_capitalized_words_stay_untagged():
    assert pairs("Brasilia is far away.", EMPTY_GAZ) == []
    assert pairs("Senator Smithers spoke.", GAZ) == []


def test_no_entities_in_empty_document():
    assert tags("", GAZ) == []


# ---------------------------------------------------------------------------
# span invariants
# ---------------------------------------------------------------------------

MIXED = (
    "Five score years ago, a great American signed the Emancipation "
    "Proclamation. One hundred years later, millions still wait. It is "
    "obvious today that America owes New York an answer by January 20, 1961. "
    "Alice read the Constitution at noon. Acme Corp counted twenty-five "
    "boxes in 1963."
)


def test_spans_are_sorted_and_disjoint():
    doc = build_document("mixed", MIXED)
    spans = tag_entities(doc, GAZ)
    assert len(spans) >= 10
    for first, second in zip(spans, spans[1:]):
        assert first.start < second.start
        assert first.end <= second.start
    for span in spans:
        assert doc.raw[span.start : span.end] == span.surface


def test_tagging_is_deterministic():
    doc = build_document("mixed", MIXED)
    assert tag_entities(doc, GAZ) == tag_entities(doc, GAZ)


# ---------------------------------------------------------------------------
# render_annotations
# ---------------------------------------------------------------------------


def test_render_without_spans_is_identity():
    doc = build_document("r", "Nothing to mark here.")
    assert render_annotations(doc, []) == "Nothing to mark here."


def test_render_wraps_span_in_bold_with_label():
    text = "join with you today in"
    doc = build_document("r", text)
    start = text.index("today")
    span = EntitySpan(start, start + 5, "today", EntityLabel.DATE)
    assert render_annotations(doc, [span]) == "join with you **today DATE** in"


def test_render_two_adjacent_spans():
    text = "New York calling"
    doc = build_document("r", text)
    spans = [
        EntitySpan(0, 3, "New", EntityLabel.GPE),
        EntitySpan(3, 8, " York", EntityLabel.GPE),
    ]
    # Adjacent (touching) spans are fine; both get wrapped in order.
    rendered = render_annotations(doc, spans)
    assert rendered == "**New GPE**** York GPE** calling"


def test_render_rejects_bad_spans():
    doc = build_document("r", "short text")
    with pytest.raises(ValueError):
        render_annotations(doc, [EntitySpan(0, 99, "short text", EntityLabel.ORG)])
    with pytest.raises(ValueError):
        render_annotations(
            doc,
            [
                EntitySpan(0, 5, "short", EntityLabel.ORG),
                EntitySpan(3, 8, "rt te", EntityLabel.ORG),
            ],
        )
    with pytest.raises(ValueError):
        render_annotations(doc, [EntitySpan(0, 5, "wrong", EntityLabel.ORG)])


def test_render_then_strip_markers_restores_text():
    doc = build_document("mixed", MIXED)
    spans = tag_entities(doc, GAZ)
    rendered = render_annotations(doc, spans)
    stripped = re.sub(
        r"\*\*(.+?) (?:DATE|TIME|CARDINAL|NORP|ORG|GPE|LAW|WORK_OF_ART|PERSON)\*\*",
        r"\1",
        rendered,
        flags=re.DOTALL,
    )
    assert stripped == MIXED
