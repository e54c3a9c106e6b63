"""Tests for the sentiment lexicon loader and document scoring."""

import io
import random

import pytest

from powertext.errors import DataFileError
from powertext.sentiment import (
    SentimentEntry,
    SentimentLexicon,
    analyze_sentiment,
    load_sentiment_lexicon,
)
from powertext.textcore import build_document


def lexicon_from(text: str) -> SentimentLexicon:
    return load_sentiment_lexicon(io.StringIO(text))


BASIC = lexicon_from(
    "great,0.8,0.75\n"
    "awful,-0.8,0.9\n"
    "good,0.7,0.6\n"
    "calm,0.3,0.2\n"
    "[modifiers]\n"
    "very,1.5\n"
    "slightly,0.5\n"
    "[negators]\n"
    "not\n"
    "never\n"
)


def score(text: str, lex: SentimentLexicon = BASIC):
    return analyze_sentiment(build_document("t", text), lex)


# ---------------------------------------------------------------------------
# loader
# ---------------------------------------------------------------------------


def test_load_entry_line():
    lex = lexicon_from("great,0.8,0.75\n")
    assert lex.entries == {"great": SentimentEntry(0.8, 0.75)}
    assert lex.modifiers == {}
    assert lex.negators == frozenset()


def test_load_sections():
    lex = lexicon_from("[negators]\nnot\nnever\n")
    assert lex.negators == frozenset({"not", "never"})
    assert lex.entries == {}

    lex2 = lexicon_from("good,0.7,0.6\n[modifiers]\nvery,1.5\n[negators]\nno\n")
    assert lex2.modifiers == {"very": 1.5}
    assert lex2.negators == frozenset({"no"})


def test_load_comments_blanks_and_boundary_values():
    lex = lexicon_from(
        "# header comment\n\nbest,1.0,1.0\nworst,-1.0,0.0\n  neutralish , 0 , 0.5 \n"
    )
    assert lex.entries["best"] == SentimentEntry(1.0, 1.0)
    assert lex.entries["worst"] == SentimentEntry(-1.0, 0.0)
    assert lex.entries["neutralish"] == SentimentEntry(0.0, 0.5)


def test_load_rejects_out_of_range_polarity():
    with pytest.raises(DataFileError) as err:
        lexicon_from("great,1.5,0.5\n")
    assert ":1" in str(err.value)


def test_load_rejects_out_of_range_subjectivity():
    with pytest.raises(DataFileError):
        lexicon_from("great,0.5,1.2\n")
    with pytest.raises(DataFileError):
        lexicon_from("great,0.5,-0.1\n")


def test_load_rejects_malformed_lines():
    with pytest.raises(DataFileError):
        lexicon_from("great,0.8\n")  # entry needs three fields
    with pytest.raises(DataFileError):
        lexicon_from("great,abc,0.5\n")
    with pytest.raises(DataFileError):
        lexicon_from("[modifiers]\nvery\n")
    with pytest.raises(DataFileError):
        lexicon_from("[boosters]\n")
    with pytest.raises(DataFileError):
        lexicon_from("two words,0.5,0.5\n")


def test_load_rejects_nonpositive_modifier_factors():
    with pytest.raises(DataFileError):
        lexicon_from("[modifiers]\nvery,0\n")
    with pytest.raises(DataFileError):
        lexicon_from("[modifiers]\nvery,-1.5\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize(
    "text, line, what",
    [
        ("good,0.5,0.5\ngreat,{},0.5\n", 2, "polarity"),
        ("good,0.5,0.5\ngreat,0.5,{}\n", 2, "subjectivity"),
        ("good,0.5,0.5\n[modifiers]\nvery,{}\n", 3, "factor"),
    ],
)
def test_load_rejects_non_finite_numbers(text, line, what, value):
    with pytest.raises(DataFileError) as err:
        lexicon_from(text.format(value))
    assert str(err.value) == f"<stream>:{line}: {what} must be finite"


def test_conflicting_modifier_names_its_first_line_in_the_modifier_table():
    # "very" is also an entry, on line 1: each table keeps its own first lines.
    with pytest.raises(DataFileError) as err:
        lexicon_from("very,0.2,0.3\ngood,0.5,0.5\n[modifiers]\nvery,1.5\nquite,1.2\nvery,2.0\n")
    assert str(err.value) == (
        "<stream>:6: modifier 'very' already defined as 1.5 on line 4, conflicting 2.0"
    )


def test_load_rejects_conflicting_duplicates_dedupes_identical():
    lex = lexicon_from("great,0.8,0.75\ngreat,0.8,0.75\n")
    assert len(lex.entries) == 1
    with pytest.raises(DataFileError):
        lexicon_from("great,0.8,0.75\ngreat,0.9,0.75\n")


def test_load_drops_a_leading_byte_order_mark():
    lex = load_sentiment_lexicon(io.BytesIO("\ufeffgreat,0.8,0.75\n".encode("utf-8")))
    assert lex.entries == {"great": SentimentEntry(0.8, 0.75)}


# ---------------------------------------------------------------------------
# scoring basics
# ---------------------------------------------------------------------------


def test_no_hits_scores_exact_zero():
    result = score("the cat sat")
    assert result.polarity == 0.0
    assert result.subjectivity == 0.0
    assert result.matched_terms == 0


def test_single_match_scores_its_entry():
    result = score("great")
    assert result.polarity == pytest.approx(0.8)
    assert result.subjectivity == pytest.approx(0.75)
    assert result.matched_terms == 1


def test_negation_flips_and_dampens():
    result = score("not great")
    assert result.polarity == pytest.approx(-0.4)
    assert result.subjectivity == pytest.approx(0.75)


def test_negator_reaches_three_word_tokens_back():
    assert score("not so very great").polarity < 0  # distance 3: negated
    assert score("not quite so very great").polarity > 0  # distance 4: out of reach


def test_negation_window_counts_word_tokens_not_punctuation():
    # The comma is not a word token, so "not" is still 1 word back.
    assert score("not, great").polarity == pytest.approx(-0.4)


def test_modifier_scales_immediately_preceding_only():
    boosted = score("very calm")
    assert boosted.polarity == pytest.approx(0.3 * 1.5)
    hedged = score("slightly good")
    assert hedged.polarity == pytest.approx(0.7 * 0.5)
    # One token in between: the modifier no longer applies.
    assert score("very truly good").polarity == pytest.approx(0.7)


def test_modifier_then_negation_compose():
    # 0.8 * 1.5 * -0.5
    assert score("not very great").polarity == pytest.approx(-0.6)


def test_modifiers_do_not_score_themselves():
    lex = lexicon_from(
        "very,0.9,0.9\ngood,0.7,0.6\n[modifiers]\nvery,1.5\n"
    )
    result = analyze_sentiment(build_document("t", "very good"), lex)
    assert result.matched_terms == 1
    assert result.polarity == pytest.approx(min(1.0, 0.7 * 1.5))


def test_document_scores_are_means():
    result = score("great awful")
    assert result.polarity == pytest.approx((0.8 - 0.8) / 2)
    assert result.subjectivity == pytest.approx((0.75 + 0.9) / 2)
    assert result.matched_terms == 2

    result2 = score("good calm")
    assert result2.polarity == pytest.approx((0.7 + 0.3) / 2)
    assert result2.subjectivity == pytest.approx((0.6 + 0.2) / 2)


def test_boosted_polarity_clamps_at_one():
    lex = lexicon_from("superb,0.9,0.8\n[modifiers]\nvery,2.0\n")
    result = analyze_sentiment(build_document("t", "very superb"), lex)
    assert result.polarity == 1.0


def test_case_insensitive_matching():
    assert score("GREAT").polarity == pytest.approx(0.8)
    assert score("Not Great").polarity == pytest.approx(-0.4)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_WORDS = ["great", "awful", "good", "calm", "cat", "tree", "walk", "stone"]
_EXTRA = ["not", "never", "very", "slightly", ",", "."]


def test_ranges_hold_for_random_texts_and_lexicons():
    rng = random.Random(60601)
    for _ in range(300):
        entry_lines = [
            f"{word},{rng.uniform(-1, 1):.3f},{rng.uniform(0, 1):.3f}"
            for word in rng.sample(_WORDS, rng.randint(1, len(_WORDS)))
        ]
        modifier_lines = [f"very,{rng.uniform(0.1, 3.0):.2f}", "slightly,0.5"]
        lex = lexicon_from(
            "\n".join(entry_lines)
            + "\n[modifiers]\n"
            + "\n".join(modifier_lines)
            + "\n[negators]\nnot\nnever\n"
        )
        text = " ".join(
            rng.choice(_WORDS + _EXTRA) for _ in range(rng.randint(0, 80))
        )
        result = analyze_sentiment(build_document("f", text), lex)
        assert -1.0 <= result.polarity <= 1.0
        assert 0.0 <= result.subjectivity <= 1.0
        if result.matched_terms == 0:
            assert result.polarity == 0.0
            assert result.subjectivity == 0.0


def test_prepending_negator_multiplies_by_exactly_minus_half():
    rng = random.Random(60602)
    for _ in range(100):
        polarity = round(rng.uniform(-1, 1), 3)
        subjectivity = round(rng.uniform(0, 1), 3)
        lex = lexicon_from(
            f"word,{polarity},{subjectivity}\n[negators]\nnot\n"
        )
        plain = analyze_sentiment(build_document("a", "word"), lex)
        negated = analyze_sentiment(build_document("b", "not word"), lex)
        assert negated.polarity == pytest.approx(plain.polarity * -0.5, abs=1e-12)
        assert negated.subjectivity == plain.subjectivity


def test_concatenation_polarity_stays_between_parts():
    rng = random.Random(60603)
    pool = _WORDS + ["cat", "tree"]
    for _ in range(200):
        entry_lines = "\n".join(
            f"{w},{rng.uniform(-1, 1):.3f},{rng.uniform(0, 1):.3f}" for w in _WORDS
        )
        lex = lexicon_from(entry_lines + "\n")
        text_a = " ".join(rng.choice(pool) for _ in range(rng.randint(1, 40)))
        text_b = " ".join(rng.choice(pool) for _ in range(rng.randint(1, 40)))
        score_a = analyze_sentiment(build_document("a", text_a), lex)
        score_b = analyze_sentiment(build_document("b", text_b), lex)
        if score_a.matched_terms == 0 or score_b.matched_terms == 0:
            continue
        combined = analyze_sentiment(build_document("ab", text_a + " " + text_b), lex)
        low = min(score_a.polarity, score_b.polarity)
        high = max(score_a.polarity, score_b.polarity)
        assert low - 1e-12 <= combined.polarity <= high + 1e-12
