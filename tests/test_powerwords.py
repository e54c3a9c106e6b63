"""Tests for lexicon loading, phrase matching, and category counting."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertext.errors import DataFileError
from powertext.powerwords import (
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
from powertext.textcore import PhraseMatcher, build_document, normalize


def lexicon_from(text: str) -> PowerLexicon:
    return load_lexicon(io.StringIO(text))


# ---------------------------------------------------------------------------
# PowerCategory
# ---------------------------------------------------------------------------


def test_categories_are_exactly_seven_in_fixed_order():
    assert [c.value for c in PowerCategory] == [
        "Greed",
        "Encouragement",
        "Safety",
        "Anger",
        "Lust",
        "Fear",
        "Forbidden",
    ]


def test_categories_work_as_dict_keys_and_set_members():
    # Members hash by identity; equal members are the same object.
    counts = {category: i for i, category in enumerate(PowerCategory)}
    assert [counts[PowerCategory(c.value)] for c in PowerCategory] == list(range(7))
    assert PowerCategory["FEAR"] in set(PowerCategory)
    assert {PowerCategory.FEAR, PowerCategory("Fear")} == {PowerCategory.FEAR}
    assert hash(PowerCategory.GREED) == hash(PowerCategory("Greed"))


def test_power_match_made_from_a_tuple_equals_one_made_by_keyword():
    made = PowerMatch._make(("free", PowerCategory.GREED, 3, 7))
    keyword = PowerMatch(term="free", category=PowerCategory.GREED, start=3, end=7)
    assert made == keyword and type(made) is PowerMatch
    assert (made.term, made.category, made.start, made.end) == ("free", PowerCategory.GREED, 3, 7)
    hits = scan(build_document("t", "It is free."), build_matcher(lexicon_from("free,Greed\n")))
    assert hits.matches == (PowerMatch("free", PowerCategory.GREED, 6, 10),)


# ---------------------------------------------------------------------------
# load_lexicon
# ---------------------------------------------------------------------------


def test_load_simple_entries():
    lex = lexicon_from("free,Greed\nbonus,Greed\n")
    assert len(lex) == 2
    assert lex.entries["free"] is PowerCategory.GREED
    assert lex.entries["bonus"] is PowerCategory.GREED


def test_load_skips_header_comments_blanks_and_reads_version():
    lex = lexicon_from(
        "# version: 2024-06\n"
        "term,category\n"
        "\n"
        "# greed section\n"
        "free,Greed\n"
    )
    assert len(lex) == 1
    assert lex.version == "2024-06"


def test_load_normalizes_terms():
    lex = lexicon_from("  Risk   FREE ,Safety\n")
    assert list(lex.entries) == ["risk free"]
    assert lex.entries["risk free"] is PowerCategory.SAFETY


def test_load_multiword_phrase():
    lex = lexicon_from("risk free,Safety\n")
    assert lex.entries == {"risk free": PowerCategory.SAFETY}


def test_load_dedupes_same_category_silently():
    lex = lexicon_from("free,Greed\nfree,Greed\nFREE,Greed\n")
    assert len(lex) == 1


def test_load_conflicting_categories_is_an_error():
    with pytest.raises(DataFileError) as err:
        lexicon_from("free,Greed\nfree,Fear\n")
    assert "line" in str(err.value) or ":2" in str(err.value)
    assert "free" in str(err.value)


def test_load_unknown_category_names_line():
    with pytest.raises(DataFileError) as err:
        lexicon_from("free,Greed\nrush,Haste\n")
    assert ":2" in str(err.value)
    assert "Haste" in str(err.value)


def test_load_category_names_are_case_sensitive():
    with pytest.raises(DataFileError):
        lexicon_from("free,greed\n")
    with pytest.raises(DataFileError):
        lexicon_from("free,GREED\n")


def test_load_rejects_empty_lexicon_and_empty_terms():
    with pytest.raises(DataFileError):
        lexicon_from("# only comments\n")
    with pytest.raises(DataFileError):
        lexicon_from("")
    with pytest.raises(DataFileError):
        lexicon_from(",Greed\n")


def test_build_matcher_rejects_an_empty_lexicon_and_returns_a_phrase_matcher():
    with pytest.raises(DataFileError):
        build_matcher(PowerLexicon(entries={}))
    matcher = build_matcher(lexicon_from("free,Greed\nrisk free,Safety\n"))
    assert isinstance(matcher, PhraseMatcher)
    # One object, so that a ``StartWords`` built from it knows it by identity.
    assert matcher.first_words is matcher.first_words
    assert matcher.first_words == frozenset({"free", "risk"})


def test_load_rejects_overlong_phrases():
    ok = lexicon_from("one two three four five six,Fear\n")
    assert len(ok) == 1
    with pytest.raises(DataFileError):
        lexicon_from("one two three four five six seven,Fear\n")


def test_load_rejects_terms_that_can_never_match():
    # "!" and "/" are tokens of their own, so these terms could never match.
    for text, line in (("free!,Greed\n", 1), ("free,Greed\n24/7,Safety\n", 2)):
        with pytest.raises(DataFileError, match="never match") as err:
            lexicon_from(text)
        assert err.value.line == line
    assert len(lexicon_from("don't miss,Fear\nwell-known,Safety\n")) == 2


def test_load_drops_a_leading_byte_order_mark():
    lex = load_lexicon(io.BytesIO("\ufefffree,Greed\n".encode("utf-8")))
    assert lex.entries == {"free": PowerCategory.GREED}


def test_load_rejects_a_term_led_by_a_byte_order_mark_inside_the_file():
    # A mark past the start of a file, as concatenated files leave it, is
    # a non-word token: the term could never match.
    with pytest.raises(DataFileError, match="never match") as err:
        lexicon_from("term,category\nfree,Greed\n\ufeffbonus,Greed\n")
    assert err.value.line == 3


# Characters that ``str.splitlines`` breaks at but ``open``, ``grep -n`` and
# editors do not: a data-file line holding one is still one line.
_NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", _NOT_LINE_BREAKS)
def test_errors_name_the_line_after_a_character_that_ends_no_line(char):
    # A line holding only the character is blank.
    with pytest.raises(DataFileError, match="^<stream>:4: unknown category 'Nope'") as err:
        lexicon_from(f"term,category\nfree,Greed\n{char}\nbonus,Nope\n")
    assert err.value.line == 4
    # Inside a line, the character is part of it.
    with pytest.raises(DataFileError) as err:
        lexicon_from(f"term,category\nfree,Greed{char}x\nbonus,Greed\n")
    assert err.value.line == 2
    assert repr(f"Greed{char}x") in str(err.value)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_universal_newlines_end_data_file_lines(newline):
    text = newline.join(["term,category", "free,Greed", "", "bonus,Nope", ""])
    with pytest.raises(DataFileError, match="^<stream>:4: unknown category 'Nope'"):
        lexicon_from(text)
    assert load_lexicon(io.BytesIO(text.replace("Nope", "Greed").encode())).entries == {
        "free": PowerCategory.GREED,
        "bonus": PowerCategory.GREED,
    }


def test_load_rejects_lines_without_comma():
    with pytest.raises(DataFileError):
        lexicon_from("free\n")


def test_load_accepts_bytes_stream():
    lex = load_lexicon(io.BytesIO(b"free,Greed\n"))
    assert len(lex) == 1


# ---------------------------------------------------------------------------
# matching semantics
# ---------------------------------------------------------------------------


def hits_for(text: str, lexicon_csv: str) -> PowerWordHits:
    matcher = build_matcher(lexicon_from(lexicon_csv))
    return scan(build_document("t", text), matcher)


def test_longest_match_wins():
    hits = hits_for("risk free", "free,Greed\nrisk free,Safety\n")
    assert [m.term for m in hits.matches] == ["risk free"]
    assert hits.counts[PowerCategory.SAFETY] == 1
    assert hits.counts[PowerCategory.GREED] == 0


def test_matches_respect_token_boundaries():
    hits = hits_for("freedom is not free", "free,Greed\n")
    assert [m.term for m in hits.matches] == ["free"]
    assert hits.matches[0].start == len("freedom is not ")


def test_repeated_term_counts_every_occurrence():
    hits = hits_for("Now is the time. Now is the time.", "now,Encouragement\n")
    assert hits.counts[PowerCategory.ENCOURAGEMENT] == 2


def test_scan_counts_by_category():
    hits = hits_for(
        "Buy now: free bonus, act fast!",
        "free,Greed\nbonus,Greed\nfast,Encouragement\n",
    )
    assert hits.counts[PowerCategory.GREED] == 2
    assert hits.counts[PowerCategory.ENCOURAGEMENT] == 1
    assert hits.total == 3


def test_punctuation_breaks_phrases():
    csv = "risk free,Safety\nfree,Greed\n"
    joined = hits_for("a risk free offer", csv)
    assert [m.term for m in joined.matches] == ["risk free"]
    broken = hits_for("a risk, free offer", csv)
    assert [m.term for m in broken.matches] == ["free"]
    assert broken.counts[PowerCategory.SAFETY] == 0


def test_matching_is_case_insensitive_with_original_spans():
    hits = hits_for("FREE stuff is Free", "free,Greed\n")
    assert hits.counts[PowerCategory.GREED] == 2
    doc_text = "FREE stuff is Free"
    surfaces = [doc_text[m.start : m.end] for m in hits.matches]
    assert surfaces == ["FREE", "Free"]


def test_matches_resume_after_match_end():
    # After matching "free offer", scanning resumes past it, so the
    # overlapping "offer now" cannot also match.
    csv = "free offer,Greed\noffer now,Encouragement\n"
    hits = hits_for("free offer now", csv)
    assert [m.term for m in hits.matches] == ["free offer"]


def test_scan_empty_document_is_all_zeros():
    hits = hits_for("", "free,Greed\n")
    assert hits.total == 0
    assert all(count == 0 for count in hits.counts.values())
    assert hits.matches == ()


def test_match_spans_are_ordered_and_disjoint():
    hits = hits_for(
        "free free risk free bonus free",
        "free,Greed\nrisk free,Safety\nbonus,Greed\n",
    )
    spans = [(m.start, m.end) for m in hits.matches]
    assert spans == sorted(spans)
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        assert b1 <= a2


# ---------------------------------------------------------------------------
# matcher equals a brute-force scan on random inputs
# ---------------------------------------------------------------------------

_WORD_POOL = [
    "free", "risk", "bonus", "now", "act", "fast", "the", "a", "dream",
    "buy", "win", "save", "danger", "secret", "new", "offer", "last",
    "chance", "proven", "safe",
]
_PUNCT_POOL = [",", ".", "!", ";", "--"]
_CASINGS = [str.lower, str.upper, str.title]


def naive_longest_at(keys, phrases, i, max_words=6):
    """Brute-force longest phrase at key i: every window, longest first;
    a ``None`` key is a barrier no window may contain."""
    for length in range(max_words, 0, -1):
        window = keys[i : i + length]
        if len(window) == length and None not in window:
            phrase = " ".join(window)
            if phrase in phrases:
                return (i + length, phrases[phrase])
    return None


def naive_find(keys, phrases, max_words=6):
    """Brute-force leftmost-longest, non-overlapping scan of a key sequence."""
    found = []
    i = 0
    while i < len(keys):
        hit = naive_longest_at(keys, phrases, i, max_words)
        if hit is not None:
            found.append((i, *hit))
            i = hit[0]
        else:
            i += 1
    return found


def naive_scan(doc, entries, max_words=6):
    """Brute-force leftmost-longest token-aligned scan of a document."""
    tokens = list(doc.tokens)
    keys = [normalize(t.text) if t.is_word else None for t in tokens]
    return [
        (term, category, tokens[start].start, tokens[stop - 1].end)
        for start, stop, (term, category) in naive_find(
            keys, {term: (term, category) for term, category in entries.items()}, max_words
        )
    ]


def random_case(rng, word):
    return rng.choice(_CASINGS)(word)


def random_text(rng, max_tokens=500):
    parts = []
    for _ in range(rng.randint(0, max_tokens)):
        if rng.random() < 0.15:
            parts.append(rng.choice(_PUNCT_POOL))
        else:
            parts.append(random_case(rng, rng.choice(_WORD_POOL)))
    # Random run lengths of whitespace between tokens.
    return "".join(part + " " * rng.randint(1, 3) for part in parts)


def random_lexicon(rng):
    entries = {}
    for _ in range(rng.randint(1, 50)):
        words = [rng.choice(_WORD_POOL) for _ in range(rng.randint(1, 3))]
        entries[" ".join(words)] = rng.choice(list(PowerCategory))
    csv = "".join(f"{term},{cat.value}\n" for term, cat in entries.items())
    return lexicon_from(csv)


def test_matcher_equals_naive_oracle_on_random_inputs():
    rng = random.Random(13371337)
    for _ in range(300):
        lexicon = random_lexicon(rng)
        doc = build_document("r", random_text(rng))
        hits = scan(doc, build_matcher(lexicon))
        got = [(m.term, m.category, m.start, m.end) for m in hits.matches]
        assert got == naive_scan(doc, lexicon.entries)
        # Counts must agree with the match list itself.
        for category in PowerCategory:
            assert hits.counts[category] == sum(
                1 for m in hits.matches if m.category is category
            )


# Three words make phrases that share prefixes, and runs that match them,
# common; ``None`` is a barrier key.
_KEY_POOL = ["a", "b", "c"]


@settings(max_examples=400, deadline=None)
@given(
    phrases=st.dictionaries(
        st.lists(st.sampled_from(_KEY_POOL), min_size=1, max_size=4).map(" ".join),
        st.integers(0, 9),
        min_size=1,
        max_size=12,
    ),
    keys=st.lists(st.sampled_from([*_KEY_POOL, None]), max_size=40),
)
def test_phrase_matcher_equals_brute_force_oracle(phrases, keys):
    matcher = PhraseMatcher(phrases)
    assert list(matcher.find(keys)) == naive_find(keys, phrases, max_words=4)
    assert list(matcher.find(tuple(keys))) == naive_find(keys, phrases, max_words=4)
    for i in range(len(keys)):
        assert matcher.longest_at(keys, i) == naive_longest_at(keys, phrases, i, max_words=4)


def test_scan_counts_survive_uppercasing():
    rng = random.Random(99911)
    for _ in range(100):
        lexicon = random_lexicon(rng)
        matcher = build_matcher(lexicon)
        text = random_text(rng, max_tokens=120)
        counts = scan(build_document("a", text), matcher).counts
        upper = scan(build_document("b", text.upper()), matcher).counts
        assert counts == upper


# ---------------------------------------------------------------------------
# distribution
# ---------------------------------------------------------------------------


def make_hits(**by_name):
    counts = {category: 0 for category in PowerCategory}
    for name, count in by_name.items():
        counts[PowerCategory[name.upper()]] = count
    return PowerWordHits(counts=counts, matches=())


def test_distribution_even_split():
    dist = distribution(make_hits(greed=5, fear=5))
    assert dist[PowerCategory.GREED] == pytest.approx(50.0)
    assert dist[PowerCategory.FEAR] == pytest.approx(50.0)
    assert dist[PowerCategory.LUST] == 0.0
    assert not dist.empty


def test_distribution_single_category():
    dist = distribution(make_hits(greed=1))
    assert dist[PowerCategory.GREED] == pytest.approx(100.0)


def test_distribution_empty_is_flagged_all_zero():
    dist = distribution(make_hits())
    assert dist.empty
    assert all(v == 0.0 for v in dist.percentages.values())


def test_distribution_sums_to_100():
    rng = random.Random(31415)
    for _ in range(300):
        counts = {c: rng.randint(0, 40) for c in PowerCategory}
        if sum(counts.values()) == 0:
            counts[PowerCategory.GREED] = 1
        dist = distribution(PowerWordHits(counts=counts, matches=()))
        assert sum(dist.percentages.values()) == pytest.approx(100.0, abs=0.01)


def test_distribution_ignores_count_dict_ordering():
    forward = {c: i + 1 for i, c in enumerate(PowerCategory)}
    backward = dict(reversed(list(forward.items())))
    a = distribution(PowerWordHits(counts=forward, matches=()))
    b = distribution(PowerWordHits(counts=backward, matches=()))
    assert a.percentages == b.percentages
    assert isinstance(a, CategoryDistribution)
