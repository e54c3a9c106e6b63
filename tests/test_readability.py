"""Tests for the readability formulas, labels, and consensus grade."""

import math
import random
import warnings

import pytest

from powertext.errors import InputTextError
from powertext.readability import (
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
from powertext.textcore import TextStats


def make_stats(
    words=0,
    sentences=0,
    syllables=0,
    letters=0,
    chars=0,
    polysyllables=0,
    complex_words=0,
    difficult=0,
):
    return TextStats(
        word_count=words,
        sentence_count=sentences,
        syllable_count=syllables,
        letter_count=letters,
        char_count=chars,
        polysyllable_count=polysyllables,
        complex_word_count=complex_words,
        difficult_word_count=difficult,
    )


# ---------------------------------------------------------------------------
# individual formulas (expected values computed by hand)
# ---------------------------------------------------------------------------


def test_flesch_reading_ease_hand_values():
    score, label = flesch_reading_ease(make_stats(words=100, sentences=10, syllables=130))
    assert score == pytest.approx(86.705, abs=1e-9)
    assert label == "Easy"

    score, label = flesch_reading_ease(make_stats(words=10, sentences=10, syllables=10))
    assert score == pytest.approx(121.22, abs=1e-9)
    assert label == "Very easy"


def test_flesch_reading_ease_is_not_clamped():
    # Long words and long sentences push the score far below zero.
    score, label = flesch_reading_ease(make_stats(words=100, sentences=1, syllables=500))
    assert score < 0
    assert label == "Very confusing"


def test_ease_label_bands():
    assert ease_label(95.0) == "Very easy"
    assert ease_label(90.0) == "Very easy"
    assert ease_label(85.0) == "Easy"
    assert ease_label(75.0) == "Fairly easy"
    assert ease_label(69.99) == "Standard"
    assert ease_label(60.0) == "Standard"
    assert ease_label(55.0) == "Fairly difficult"
    assert ease_label(49.99) == "Difficult"
    assert ease_label(30.0) == "Difficult"
    assert ease_label(29.99) == "Very confusing"
    assert ease_label(-10.0) == "Very confusing"


def test_flesch_kincaid_hand_values():
    grade = flesch_kincaid_grade(make_stats(words=100, sentences=10, syllables=130))
    assert grade == pytest.approx(3.65, abs=1e-9)
    # 0.39 + 11.8 - 15.59 = -3.4, clamped to zero.
    assert flesch_kincaid_grade(make_stats(words=1, sentences=1, syllables=1)) == 0.0


def test_smog_hand_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 30 sentences: no warning expected
        value = smog_index(make_stats(sentences=30, polysyllables=30))
    assert value == pytest.approx(1.0430 * math.sqrt(30.0) + 3.1291, abs=1e-12)
    assert value == pytest.approx(8.84184627, abs=1e-6)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert smog_index(make_stats(sentences=30, polysyllables=0)) == pytest.approx(
            3.1291, abs=1e-12
        )


def test_smog_sentence_gates():
    with pytest.raises(InputTextError):
        smog_index(make_stats(sentences=2, polysyllables=5))
    with pytest.warns(UserWarning):
        smog_index(make_stats(sentences=3, polysyllables=5))
    with pytest.warns(UserWarning):
        smog_index(make_stats(sentences=29, polysyllables=5))


def test_gunning_fog_hand_values():
    assert gunning_fog(
        make_stats(words=100, sentences=10, complex_words=10)
    ) == pytest.approx(8.0, abs=1e-9)
    assert gunning_fog(
        make_stats(words=100, sentences=10, complex_words=0)
    ) == pytest.approx(4.0, abs=1e-9)


def test_coleman_liau_hand_values():
    assert coleman_liau(
        make_stats(words=100, sentences=5, letters=450)
    ) == pytest.approx(9.18, abs=1e-9)
    # 0.0588*300 - 0.296*10 - 15.8 = -1.12, clamped.
    assert coleman_liau(make_stats(words=100, sentences=10, letters=300)) == 0.0


def test_automated_readability_hand_values():
    assert automated_readability_index(
        make_stats(words=100, sentences=10, chars=500)
    ) == pytest.approx(7.12, abs=1e-9)
    # 4.71*4 + 0.5 - 21.43 = -2.09, clamped.
    assert (
        automated_readability_index(make_stats(words=100, sentences=100, chars=400))
        == 0.0
    )


def test_dale_chall_hand_values():
    # 10% difficult: 1.579 + 0.496 + 3.6365 adjustment.
    assert dale_chall(
        make_stats(words=100, sentences=10, difficult=10)
    ) == pytest.approx(5.7115, abs=1e-9)
    # 4% difficult: no adjustment term.
    assert dale_chall(
        make_stats(words=100, sentences=10, difficult=4)
    ) == pytest.approx(1.1276, abs=1e-9)


def test_dale_chall_grade_band():
    assert dale_chall_grade_band(4.99) == (4, 4)
    assert dale_chall_grade_band(5.0) == (5, 6)
    assert dale_chall_grade_band(6.5) == (7, 8)
    assert dale_chall_grade_band(7.27) == (9, 10)
    assert dale_chall_grade_band(8.8) == (11, 12)
    assert dale_chall_grade_band(9.9) == (13, 15)
    assert dale_chall_grade_band(10.0) == (16, 16)
    assert dale_chall_grade_band(14.2) == (16, 16)


def test_empty_input_errors():
    for fn in (
        flesch_reading_ease,
        flesch_kincaid_grade,
        gunning_fog,
        coleman_liau,
        automated_readability_index,
        dale_chall,
    ):
        with pytest.raises(InputTextError):
            fn(make_stats(words=0, sentences=5))
        with pytest.raises(InputTextError):
            fn(make_stats(words=5, sentences=0))


# ---------------------------------------------------------------------------
# text_standard voting
# ---------------------------------------------------------------------------


def test_text_standard_single_value():
    assert text_standard([5.0]) == "5th and 6th grade"


def test_text_standard_vote_majority():
    # votes: 3 -> 2, 4 -> 3, 5 -> 1
    assert text_standard([3.2, 3.9, 4.1]) == "4th and 5th grade"


def test_text_standard_tie_breaks_low():
    # 7.5 votes {7, 8}; 8.5 votes {8, 9}: 8 wins outright.
    assert text_standard([7.5, 8.5]) == "8th and 9th grade"
    # Distinct singles tie at 1 vote each; lowest grade wins.
    assert text_standard([2.0, 9.0]) == "2nd and 3rd grade"


def test_text_standard_ordinals():
    assert text_standard([0.5]) == "0th and 1st grade"
    assert text_standard([1.2]) == "1st and 2nd grade"
    assert text_standard([2.9]) == "2nd and 3rd grade"
    assert text_standard([11.3]) == "11th and 12th grade"
    assert text_standard([12.1]) == "12th and 13th grade"
    assert text_standard([21.0]) == "21st and 22nd grade"
    assert text_standard([22.5]) == "22nd and 23rd grade"


def test_text_standard_empty_errors():
    with pytest.raises(InputTextError):
        text_standard([])


def test_text_standard_always_consecutive():
    rng = random.Random(424242)
    for _ in range(300):
        grades = [rng.uniform(0, 20) for _ in range(rng.randint(1, 8))]
        band = text_standard(grades)
        first, _, second, _ = band.split(" ")

        def parse(ordinal):
            return int("".join(ch for ch in ordinal if ch.isdigit()))

        assert parse(second) == parse(first) + 1


# ---------------------------------------------------------------------------
# formula properties
# ---------------------------------------------------------------------------


def _random_stats(rng):
    sentences = rng.randint(3, 120)
    words = rng.randint(sentences, sentences * 30)
    syllables = rng.randint(words, words * 3)
    letters = rng.randint(words * 2, words * 8)
    return make_stats(
        words=words,
        sentences=sentences,
        syllables=syllables,
        letters=letters,
        chars=letters + rng.randint(0, words),
        polysyllables=rng.randint(0, words // 3),
        complex_words=rng.randint(0, words // 3),
        difficult=rng.randint(0, words),
    )


def test_more_syllables_harder_text():
    rng = random.Random(77001)
    for _ in range(200):
        stats = _random_stats(rng)
        bigger = make_stats(
            words=stats.word_count,
            sentences=stats.sentence_count,
            syllables=stats.syllable_count + rng.randint(1, 50),
            letters=stats.letter_count,
            chars=stats.char_count,
            polysyllables=stats.polysyllable_count,
            complex_words=stats.complex_word_count,
            difficult=stats.difficult_word_count,
        )
        assert flesch_reading_ease(bigger).score < flesch_reading_ease(stats).score
        assert flesch_kincaid_grade(bigger) >= flesch_kincaid_grade(stats)
        if flesch_kincaid_grade(stats) > 0:  # away from the clamp: strict
            assert flesch_kincaid_grade(bigger) > flesch_kincaid_grade(stats)


def test_more_polysyllables_raises_smog():
    rng = random.Random(77002)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(200):
            stats = _random_stats(rng)
            bigger = make_stats(
                words=stats.word_count,
                sentences=stats.sentence_count,
                syllables=stats.syllable_count,
                letters=stats.letter_count,
                chars=stats.char_count,
                polysyllables=stats.polysyllable_count + rng.randint(1, 30),
                complex_words=stats.complex_word_count,
                difficult=stats.difficult_word_count,
            )
            assert smog_index(bigger) > smog_index(stats)


def test_doubling_all_counts_changes_nothing():
    rng = random.Random(77003)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(200):
            stats = _random_stats(rng)
            doubled = make_stats(
                words=stats.word_count * 2,
                sentences=stats.sentence_count * 2,
                syllables=stats.syllable_count * 2,
                letters=stats.letter_count * 2,
                chars=stats.char_count * 2,
                polysyllables=stats.polysyllable_count * 2,
                complex_words=stats.complex_word_count * 2,
                difficult=stats.difficult_word_count * 2,
            )
            assert flesch_reading_ease(doubled).score == pytest.approx(
                flesch_reading_ease(stats).score, abs=1e-9
            )
            assert flesch_kincaid_grade(doubled) == pytest.approx(
                flesch_kincaid_grade(stats), abs=1e-9
            )
            assert smog_index(doubled) == pytest.approx(smog_index(stats), abs=1e-9)
            assert gunning_fog(doubled) == pytest.approx(gunning_fog(stats), abs=1e-9)
            assert coleman_liau(doubled) == pytest.approx(coleman_liau(stats), abs=1e-9)
            assert automated_readability_index(doubled) == pytest.approx(
                automated_readability_index(stats), abs=1e-9
            )
            assert dale_chall(doubled) == pytest.approx(dale_chall(stats), abs=1e-9)


def test_formulas_match_independent_arithmetic():
    """Re-derive every index with separately written arithmetic."""
    rng = random.Random(20240817)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(1000):
            s = _random_stats(rng)
            w, n = s.word_count, s.sentence_count
            assert flesch_reading_ease(s).score == pytest.approx(
                206.835 - 1.015 * w / n - 84.6 * s.syllable_count / w, abs=1e-9
            )
            assert flesch_kincaid_grade(s) == pytest.approx(
                max(0.0, 0.39 * w / n + 11.8 * s.syllable_count / w - 15.59), abs=1e-9
            )
            assert smog_index(s) == pytest.approx(
                1.0430 * math.sqrt(30 * s.polysyllable_count / n) + 3.1291, abs=1e-9
            )
            assert gunning_fog(s) == pytest.approx(
                max(0.0, 0.4 * (w / n + 100.0 * s.complex_word_count / w)), abs=1e-9
            )
            assert coleman_liau(s) == pytest.approx(
                max(
                    0.0,
                    0.0588 * (s.letter_count / w * 100)
                    - 0.296 * (n / w * 100)
                    - 15.8,
                ),
                abs=1e-9,
            )
            assert automated_readability_index(s) == pytest.approx(
                max(0.0, 4.71 * s.char_count / w + 0.5 * w / n - 21.43), abs=1e-9
            )
            pct = s.difficult_word_count / w * 100
            expected = 0.1579 * pct + 0.0496 * w / n + (3.6365 if pct > 5 else 0.0)
            assert dale_chall(s) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# readability_report
# ---------------------------------------------------------------------------


def test_report_mirrors_individual_formulas():
    stats = make_stats(
        words=300,
        sentences=20,
        syllables=420,
        letters=1400,
        chars=1410,
        polysyllables=40,
        complex_words=30,
        difficult=45,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        report = readability_report(stats)
        assert report.flesch_reading_ease == flesch_reading_ease(stats).score
        assert report.ease_label == flesch_reading_ease(stats).label
        assert report.flesch_kincaid_grade == flesch_kincaid_grade(stats)
        assert report.smog_index == smog_index(stats)
        assert report.gunning_fog == gunning_fog(stats)
        assert report.coleman_liau == coleman_liau(stats)
        assert report.ari == automated_readability_index(stats)
        assert report.dale_chall == dale_chall(stats)
        band = dale_chall_grade_band(report.dale_chall)
        assert report.text_standard == text_standard(
            [
                report.flesch_kincaid_grade,
                report.smog_index,
                report.gunning_fog,
                report.coleman_liau,
                report.ari,
                float(band[0]),
                float(band[1]),
            ]
        )
    assert report.smog_low_sample is True

    big = make_stats(
        words=900,
        sentences=45,
        syllables=1300,
        letters=4200,
        chars=4220,
        polysyllables=120,
        complex_words=90,
        difficult=130,
    )
    assert readability_report(big).smog_low_sample is False


def test_report_rejects_degenerate_input():
    with pytest.raises(InputTextError):
        readability_report(make_stats(words=0, sentences=0))
    with pytest.raises(InputTextError):
        readability_report(make_stats(words=10, sentences=2, syllables=12))


def test_report_emits_no_warnings():
    stats = make_stats(
        words=60, sentences=5, syllables=80, letters=250, chars=250,
        polysyllables=6, complex_words=5, difficult=8,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = readability_report(stats)
    assert report.smog_low_sample is True


def test_report_leaves_warning_filters_alone(monkeypatch):
    # The warning filters are process-wide and changing them is not
    # thread-safe, so readability_report must not touch them.
    def forbidden(*args, **kwargs):
        raise AssertionError("readability_report changed the warning filters")

    for name in ("catch_warnings", "simplefilter", "filterwarnings", "resetwarnings"):
        monkeypatch.setattr(warnings, name, forbidden)
    stats = make_stats(
        words=60, sentences=5, syllables=80, letters=250, chars=250,
        polysyllables=6, complex_words=5, difficult=8,
    )
    assert readability_report(stats).smog_low_sample is True
