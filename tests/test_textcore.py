"""Tests for normalization, sentence splitting, tokenization, syllable
counting, and surface statistics."""

import io
import random
import re
import time
import tracemalloc
import unicodedata
from array import array
from collections.abc import Sequence

import pytest

from powertext import textcore
from powertext.defaults import data_path
from powertext.errors import DataFileError, InputTextError
from powertext.textcore import (
    Token,
    Tokens,
    WordTable,
    build_document,
    compute_stats,
    count_syllables,
    load_familiar_words,
    load_syllable_exceptions,
    normalize,
    split_sentences,
    tokenize,
)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_lowercases_and_folds_apostrophes():
    assert normalize("Don’t") == "don't"
    assert normalize("FREEDOM") == "freedom"
    assert normalize("Café") == "café"  # NFC composition


# ---------------------------------------------------------------------------
# count_syllables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "word,expected",
    [
        ("cat", 1),
        ("freedom", 2),
        ("table", 2),  # consonant + "le": final e is pronounced
        ("incredible", 4),
        ("the", 1),
        ("make", 1),  # silent final e
        ("whole", 1),  # vowel + "le": silent-e rule still applies
        ("agree", 2),  # final e inside the "ee" group is kept
        ("bee", 1),
        ("rhythm", 1),  # y as the only vowel (heuristic undercounts)
        ("quietly", 2),  # "uie" is one vowel group (heuristic undercounts)
        ("beautiful", 3),  # "eau" is one vowel group
        ("strength", 1),
        ("created", 2),  # "ea" is one vowel group (heuristic undercounts)
        ("syllable", 3),
    ],
)
def test_count_syllables_known_words(word, expected):
    assert count_syllables(word) == expected


def test_count_syllables_is_case_insensitive():
    assert count_syllables("Freedom") == count_syllables("freedom") == 2
    assert count_syllables("TABLE") == 2


def test_count_syllables_numerals_one_per_digit_group():
    assert count_syllables("2024") == 1
    assert count_syllables("90210") == 1
    assert count_syllables("mp3") == 1  # "mp" has no vowel group
    assert count_syllables("3b") == 1
    assert count_syllables("2nd") == 1


def test_count_syllables_hyphenated_parts_sum():
    assert count_syllables("twenty-five") == 3
    assert count_syllables("self-evident") == 4
    assert count_syllables("state-of-the-art") == 4


def test_count_syllables_exceptions_table_wins():
    table = {"cafe": 2, "business": 2}
    assert count_syllables("cafe", table) == 2
    assert count_syllables("Business", table) == 2
    # Words not in the table fall through to the heuristic.
    assert count_syllables("cat", table) == 1


def test_count_syllables_rejects_letterless_input():
    with pytest.raises(InputTextError):
        count_syllables("---")
    with pytest.raises(InputTextError):
        count_syllables("")
    with pytest.raises(InputTextError):
        count_syllables("!!!")


def test_count_syllables_never_below_one():
    rng = random.Random(20240601)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    for _ in range(500):
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        assert count_syllables(word) >= 1, word


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------


def _reconstruct(text: str, tokens: list[Token]) -> str:
    """Rebuild the input from token spans plus the gaps between them."""
    out = []
    pos = 0
    for tok in tokens:
        out.append(text[pos : tok.start])
        out.append(tok.text)
        pos = tok.end
    out.append(text[pos:])
    return "".join(out)


def test_token_is_a_named_tuple_value():
    token = Token("word", 3, 7, True)
    assert token == Token("word", 3, 7, True)
    assert token != Token("word", 3, 7, False)
    assert token == ("word", 3, 7, True) and isinstance(token, tuple)
    assert Token._fields == ("text", "start", "end", "is_word")
    assert hash(token) == hash(Token("word", 3, 7, True))
    assert len({token, Token("word", 3, 7, True)}) == 1
    assert repr(token) == "Token(text='word', start=3, end=7, is_word=True)"


def test_tokens_hold_columns_and_build_token_views_on_demand():
    tokens = tokenize("Hi, you.")
    assert isinstance(tokens, Tokens)
    assert tokens.texts == ["Hi", ",", "you", "."]
    assert tokens.starts == array("q", [0, 2, 4, 7])
    assert tokens.is_word == bytearray([1, 0, 1, 0])
    assert tokens.__slots__ == ("texts", "starts", "is_word")
    assert [tok.end for tok in tokens] == [tokens.end(i) for i in range(4)] == [2, 3, 7, 8]
    assert len(tokens) == 4
    assert list(tokens) == [
        Token("Hi", 0, 2, True),
        Token(",", 2, 3, False),
        Token("you", 4, 7, True),
        Token(".", 7, 8, False),
    ]
    assert [tok.is_word for tok in tokens] == [True, False, True, False]
    assert all(type(tok.is_word) is bool for tok in tokens)
    assert Token("you", 4, 7, True) in tokens
    assert repr(tokenize("a")) == "Tokens([Token(text='a', start=0, end=1, is_word=True)])"


def test_tokens_compare_equal_by_their_columns():
    tokens = tokenize("Hi, you.")
    assert tokens == tokenize("Hi, you.") and not tokens != tokenize("Hi, you.")
    assert tokens != tokenize("Hi, you!")
    assert tokens != tokenize("Hi, you")
    assert tokens != tokenize(" Hi, you.")
    assert tokens != list(tokens) and tokens != tuple(tokens)
    assert tokens != "Hi, you."
    assert tokenize("") == tokenize("  ") == Tokens() and not tokenize("  ")


def test_tokens_are_read_by_column_or_iteration_not_by_index():
    doc = build_document("d", "\ufeffSo—it’s 1½ days, café.  Done!")
    tokens = doc.tokens
    with pytest.raises(TypeError):
        tokens[0]
    assert not isinstance(tokens, Sequence)
    built = list(tokens)
    assert len(built) == len(tokens) == 11
    for i, token in enumerate(built):
        assert type(token) is Token
        assert token == (
            tokens.texts[i], tokens.starts[i], tokens.end(i), bool(tokens.is_word[i])
        )
        assert doc.raw[token.start : token.end] == token.text


def test_tokens_do_not_hash_and_documents_hash_by_id_and_text():
    with pytest.raises(TypeError):
        hash(tokenize("Hi, you."))
    assert hash(build_document("d", "Hi, you.")) == hash(build_document("d", "Hi, you."))


def test_build_document_calls_each_traced_stage_once_by_module_name(monkeypatch):
    # The benchmark's tracer times ``textcore.split_sentences`` and
    # ``textcore.tokenize`` by replacing those module attributes; a
    # build_document that bypassed them would read as zero time.
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("split_sentences", "tokenize"):
        monkeypatch.setattr(textcore, name, counting(name, getattr(textcore, name)))
    doc = build_document("d", "One sentence. Two sentences! And three?")
    assert sorted(calls) == ["split_sentences", "tokenize"]
    assert len(doc.sentences) == 3 and len(doc.tokens) == 9


def test_tokenize_words_and_punctuation():
    tokens = tokenize("Hello, world!")
    assert [(t.text, t.is_word) for t in tokens] == [
        ("Hello", True),
        (",", False),
        ("world", True),
        ("!", False),
    ]


def test_tokenize_keeps_internal_apostrophes_and_hyphens():
    assert [t.text for t in tokenize("don't stop")] == ["don't", "stop"]
    assert [t.text for t in tokenize("don’t")] == ["don’t"]
    assert [t.text for t in tokenize("self-evident truths")] == ["self-evident", "truths"]


def test_tokenize_splits_on_double_hyphen_and_edge_marks():
    assert [t.text for t in tokenize("a--b")] == ["a", "--", "b"]
    assert [t.text for t in tokenize("'quoted'")] == ["'", "quoted", "'"]
    assert [t.text for t in tokenize("well- known")] == ["well", "-", "known"]


def test_tokenize_numerals_are_word_tokens():
    tokens = tokenize("In 1963 he spoke")
    numeral = list(tokens)[1]
    assert numeral.text == "1963"
    assert numeral.is_word


def test_tokenize_round_trip_fixed_cases():
    cases = [
        "Hello, world!",
        "  leading and trailing  ",
        "don't -- stop; can't?!",
        "tabs\tand\nnewlines stay",
        "",
        "£5 (about $6.50) — cheap!",
    ]
    for text in cases:
        tokens = tokenize(text)
        assert _reconstruct(text, tokens) == text
        for tok in tokens:
            assert text[tok.start : tok.end] == tok.text


def test_tokenize_round_trip_random_texts():
    rng = random.Random(987123)
    alphabet = "abc XY12,.'!-–’\"\t\n  "
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        tokens = tokenize(text)
        assert _reconstruct(text, tokens) == text
        # Gaps between consecutive tokens are whitespace only.
        pos = 0
        for tok in tokens:
            assert text[pos : tok.start].isspace() or text[pos : tok.start] == ""
            pos = tok.end
        assert text[pos:].isspace() or text[pos:] == ""
        # Word tokens contain at least one letter or digit; non-word none.
        for tok in tokens:
            has_alnum = any(ch.isalpha() or ch.isdigit() for ch in tok.text)
            assert tok.is_word == has_alnum


@pytest.mark.parametrize(
    "text",
    [
        "The cat saw the cat. The end, the end!",
        # Scanned through the translated copy: "," and "stop" are read
        # from the match, the accented words cut again from the input.
        "Stop, naïve, stop, cafe\u0301—stop. Café, cafe\u0301, naïve!",
        "\ufeffHi hi Hi. Hi! hi.",
    ],
    ids=["ascii", "mixed", "bom"],
)
def test_equal_token_texts_share_one_string(text):
    texts = tokenize(text).texts
    assert len(set(texts)) < len(texts)
    assert len(set(map(id, texts))) == len(set(texts))


# Bytes a token of a repeated text may add to the tokens that hold it:
# its offsets, flag and list slot take 25, and growth headroom the rest.
# A new string per token costs another 48 or more.
MAX_BYTES_PER_REPEATED_TOKEN = 40


def _kept_by_tokenize(text: str) -> tuple[int, int]:
    """The bytes ``tokenize(text)`` keeps, traced, and its token count."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tokens = tokenize(text)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept, len(tokens)


@pytest.mark.parametrize("form", ["ascii", "nfd"])
def test_tokens_of_a_repeated_text_keep_no_string_per_token(form):
    sample = data_path("corpus/jfk_inaugural.txt").read_text(encoding="utf-8")
    if form == "nfd":
        # Most words then hold a combining mark and take the non-ASCII path.
        sample = unicodedata.normalize("NFD", sample.replace("e", "é"))
    small, small_count = _kept_by_tokenize(sample * 2)
    large, large_count = _kept_by_tokenize(sample * 8)
    per_token = (large - small) / (large_count - small_count)
    assert per_token <= MAX_BYTES_PER_REPEATED_TOKEN, f"{per_token:.1f} bytes per token"


# ---------------------------------------------------------------------------
# split_sentences
# ---------------------------------------------------------------------------


def _sentence_texts(text: str) -> list[str]:
    return [text[a:b] for a, b in split_sentences(text)]


def test_split_two_simple_sentences():
    text = "Dr. King spoke. He dreamed."
    assert _sentence_texts(text) == ["Dr. King spoke.", "He dreamed."]


def test_split_requires_capital_or_digit_after_whitespace():
    assert len(split_sentences("He stopped. then went on.")) == 1
    assert len(split_sentences("Chapter ends. 42 people left.")) == 2


def test_split_handles_closing_quotes_and_brackets():
    text = 'He asked, "Why?" Then he left.'
    texts = _sentence_texts(text)
    assert texts == ['He asked, "Why?"', "Then he left."]

    text2 = "It worked (finally!) Then it broke."
    assert _sentence_texts(text2) == ["It worked (finally!)", "Then it broke."]


def test_split_abbreviations_do_not_end_sentences():
    assert len(split_sentences("Mr. Smith arrived.")) == 1
    assert len(split_sentences("Mrs. Jones met Dr. Watson.")) == 1
    assert len(split_sentences("Bring maps, rope, etc. Then leave.")) == 1
    assert len(split_sentences("Use a guard, e.g. This very case.")) == 1
    assert len(split_sentences("Prof. Lee and Dr. Ray talked. Both agreed.")) == 2


def test_split_no_terminator_is_one_sentence():
    text = "a fragment with no terminator"
    assert split_sentences(text) == [(0, len(text))]


def test_split_empty_and_whitespace_only():
    assert split_sentences("") == []
    assert split_sentences("   \n\t ") == []


def test_split_multiple_terminators_count_once():
    text = "What?! Really?! Yes."
    assert _sentence_texts(text) == ["What?!", "Really?!", "Yes."]


def test_split_spans_partition_non_whitespace():
    rng = random.Random(555001)
    words = ["Alpha", "beta", "Gamma", "delta", "Mr.", "route", "66", "end"]
    punct = [". ", "! ", "? ", ", ", " ", '." ', "?) "]
    for _ in range(200):
        text = "".join(
            rng.choice(words) + rng.choice(punct) for _ in range(rng.randint(1, 20))
        )
        spans = split_sentences(text)
        # Spans are ordered, non-overlapping, and cover every non-space char.
        covered = set()
        last_end = -1
        for a, b in spans:
            assert a < b
            assert a > last_end
            last_end = b
            covered.update(range(a, b))
        for i, ch in enumerate(text):
            if not ch.isspace():
                assert i in covered, (text, i)
        for a, b in spans:
            assert not text[a].isspace()
            assert not text[b - 1].isspace()


def test_leading_byte_order_mark_is_neither_token_nor_sentence():
    text = "\ufeffHello world. Bye."
    assert list(tokenize(text)) == [
        Token("Hello", 1, 6, True),
        Token("world", 7, 12, True),
        Token(".", 12, 13, False),
        Token("Bye", 14, 17, True),
        Token(".", 17, 18, False),
    ]
    assert split_sentences(text) == [(1, 13), (14, 18)]
    assert split_sentences("\ufeff \n") == []
    doc = build_document("bom", text)
    assert doc.raw == text
    assert [t.text for t in doc.tokens] == ["Hello", "world", ".", "Bye", "."]
    # Only a leading mark is skipped: elsewhere it stays a non-word token.
    assert list(tokenize("Hi \ufeff"))[-1] == Token("\ufeff", 3, 4, False)


# ---------------------------------------------------------------------------
# build_document
# ---------------------------------------------------------------------------


def test_build_document_tokens_nest_inside_sentences():
    text = "Dr. King spoke. He dreamed. The dream endures."
    doc = build_document("demo", text)
    assert len(doc.sentences) == 3
    for tok in doc.tokens:
        assert any(a <= tok.start and tok.end <= b for a, b in doc.sentences)
    assert [t.text for t in doc.tokens if t.is_word][:3] == ["Dr", "King", "spoke"]


def test_build_document_empty_text():
    doc = build_document("empty", "")
    assert doc.sentences == ()
    assert list(doc.tokens) == [] and len(doc.tokens) == 0


MAX_LONG_WORD_SECONDS = 5.0


@pytest.mark.parametrize("unit", ["ab", "ane\u0301"], ids=["ascii", "nfd"])
def test_one_long_word_is_analysed_in_linear_time(unit):
    # One whitespace-free word: doubling its length must not much more
    # than double the time of build_document plus compute_stats.
    def best_seconds(repeats: int) -> float:
        text = unit * repeats
        times = []
        for _ in range(3):
            started = time.perf_counter()
            doc = build_document("long", text)
            stats = compute_stats(doc, WordTable(()).types(doc))
            times.append(time.perf_counter() - started)
            assert stats.word_count == 1 and stats.syllable_count == repeats
        return min(times)

    small = best_seconds(50_000)
    large = best_seconds(100_000)
    assert large < 3 * small + 0.05, f"{small:.3f}s, then {large:.3f}s at twice the size"
    assert large < MAX_LONG_WORD_SECONDS


MAX_TERMINATOR_RUN_SECONDS = 0.5


def test_a_terminator_run_without_whitespace_is_split_in_linear_time():
    # A match attempt at each terminator of the run, each reading to the
    # run's end, took minutes on these 80,000 characters.
    text = "?!" * 40_000
    started = time.perf_counter()
    spans = split_sentences(text)
    elapsed = time.perf_counter() - started
    assert spans == [(0, len(text))]
    assert elapsed < MAX_TERMINATOR_RUN_SECONDS, f"{elapsed:.3f}s"


@pytest.mark.parametrize(
    "text",
    [
        "one curly apostrophe, it’s" + " plain words" * 200,
        "\ufeffa leading mark" + " and words" * 100,
        # Exactly one non-ASCII character in ``_SPARSE``: translated whole.
        "\u00e9" + "x" * (textcore._SPARSE - 1),
        "\u00e9" + "x" * textcore._SPARSE,
        unicodedata.normalize("NFD", "caf\u00e9 na\u00efve \u2014 r\u00e9sum\u00e9"),
        "\u2028\x85 \ud800\x80\x81\x82\x83 \U0001d7d8a",
    ],
    ids=["sparse", "bom", "at-threshold", "below-threshold", "dense", "classes"],
)
def test_stand_ins_equal_the_whole_text_translated(text):
    assert textcore._with_stand_ins(text) == text.translate(textcore._Classes())


MAX_NFD_COST_RATIO = 2.75


def test_non_ascii_text_is_tokenized_at_a_small_multiple_of_ascii_cost():
    # The shipped texts with every "e" accented, in NFD form: nearly every
    # word holds a combining mark.  The regex engine still reads them, so
    # they cost a small multiple of the plain form, not a per-character
    # loop in Python.
    corpus = data_path("corpus")
    plain = "\n\n".join(
        path.read_text(encoding="utf-8") for path in sorted(corpus.iterdir()) if path.suffix != ".csv"
    )
    nfd = unicodedata.normalize("NFD", plain.replace("e", "é"))
    assert plain.isascii() and not nfd.isascii()
    times: dict[str, list[float]] = {plain: [], nfd: []}
    for _ in range(7):
        for text, samples in times.items():
            started = time.perf_counter()
            tokenize(text)
            samples.append(time.perf_counter() - started)
    ratio = min(times[nfd]) / min(times[plain])
    assert ratio <= MAX_NFD_COST_RATIO, f"the NFD form costs {ratio:.2f}x the plain form"


# ---------------------------------------------------------------------------
# compute_stats
# ---------------------------------------------------------------------------


def test_compute_stats_small_document():
    text = "The quick brown fox jumps over the lazy dog."
    familiar = frozenset({"the", "quick", "brown", "fox", "over", "lazy", "dog"})
    doc = build_document("pangram", text)
    stats = compute_stats(doc, WordTable(familiar).types(doc))
    assert stats.word_count == 9
    assert stats.sentence_count == 1
    assert stats.syllable_count == 11
    assert stats.letter_count == 35
    assert stats.char_count == 35
    assert stats.polysyllable_count == 0
    assert stats.complex_word_count == 0
    # "jumps" is not familiar and neither is "jump": one difficult word.
    assert stats.difficult_word_count == 1


def test_compute_stats_empty_document_is_all_zero():
    doc = build_document("empty", "")
    stats = compute_stats(doc, WordTable(()).types(doc))
    assert stats == type(stats)(0, 0, 0, 0, 0, 0, 0, 0)


def test_complex_words_exclude_mid_sentence_capitals():
    text = "Constitution matters. The Constitution endures."
    familiar = frozenset({"the", "matters", "endure"})
    doc = build_document("caps", text)
    stats = compute_stats(doc, WordTable(familiar).types(doc))
    # Sentence-initial "Constitution" is complex; the mid-sentence one is
    # excluded as a likely proper noun.  "endures" reaches three syllables
    # only through its -es suffix, so it is excluded too.
    assert stats.polysyllable_count == 3
    assert stats.complex_word_count == 1
    assert stats.difficult_word_count == 2  # both "Constitution" tokens
    assert stats.word_count == 5
    assert stats.syllable_count == 14


def test_complex_words_exclude_hyphenated_compounds():
    text = "a well-established habit"
    doc = build_document("hyphen", text)
    stats = compute_stats(doc, WordTable(frozenset({"a", "habit"})).types(doc))
    assert stats.complex_word_count == 0
    assert stats.polysyllable_count >= 1  # well-established has 5 syllables


def test_complex_word_suffix_rule_keeps_genuinely_long_words():
    # "overloading" stays complex because "overload" already has three
    # syllables; "amazing" drops out because "amaz" has two.
    text = "overloading amazing"
    doc = build_document("suffix", text)
    stats = compute_stats(doc, WordTable(()).types(doc))
    assert stats.polysyllable_count == 2
    assert stats.complex_word_count == 1


def test_difficult_words_use_naive_singular():
    text = "dogs dig gardens"
    familiar = frozenset({"dog", "dig"})
    doc = build_document("plural", text)
    stats = compute_stats(doc, WordTable(familiar).types(doc))
    # dogs -> dog (familiar), gardens -> garden (not familiar)
    assert stats.difficult_word_count == 1


def test_word_table_holds_its_own_copy_of_the_resources():
    exceptions = {"business": 2}
    table = WordTable(["business"], exceptions)
    doc = build_document("biz", "business business")
    assert compute_stats(doc, table.types(doc)).syllable_count == 4
    exceptions["business"] = 5  # the table keeps the figures it was built with
    assert compute_stats(doc, table.types(doc)).syllable_count == 4
    assert compute_stats(doc, table.types(doc)).difficult_word_count == 0
    with pytest.raises(TypeError):
        compute_stats(doc, table, exceptions)


def test_char_count_includes_digits_letter_count_does_not():
    doc = build_document("digits", "route 66")
    stats = compute_stats(doc, WordTable(frozenset({"route"})).types(doc))
    assert stats.letter_count == 5
    assert stats.char_count == 7
    assert stats.word_count == 2


# ---------------------------------------------------------------------------
# data-file loaders
# ---------------------------------------------------------------------------


def test_load_familiar_words_reads_comments_and_blanks():
    stream = io.StringIO("# comment\n\nable\nabout\n  above  \n")
    words = load_familiar_words(stream)
    assert words == frozenset({"able", "about", "above"})
    assert load_familiar_words(io.BytesIO(b"able\nabout\n")) == frozenset({"able", "about"})


def test_load_familiar_words_rejects_uppercase_and_multiword():
    with pytest.raises(DataFileError):
        load_familiar_words(io.StringIO("Able\n"))
    with pytest.raises(DataFileError):
        load_familiar_words(io.StringIO("two words\n"))


def test_load_syllable_exceptions_parses_tsv():
    stream = io.StringIO("# word\tcount\nbusiness\t2\nCafe\t2\n")
    table = load_syllable_exceptions(stream)
    assert table == {"business": 2, "cafe": 2}
    assert load_syllable_exceptions(io.BytesIO("café\t2\n".encode())) == {"café": 2}


def test_load_syllable_exceptions_rejects_bad_rows():
    with pytest.raises(DataFileError):
        load_syllable_exceptions(io.StringIO("business\n"))
    with pytest.raises(DataFileError):
        load_syllable_exceptions(io.StringIO("business\ttwo\n"))
    with pytest.raises(DataFileError):
        load_syllable_exceptions(io.StringIO("business\t0\n"))


def test_load_syllable_exceptions_keys_words_as_every_loader_does():
    with pytest.raises(DataFileError, match="^<stream>:2: expected a single word, got 'x y'$"):
        load_syllable_exceptions(io.StringIO("business\t2\nx y\t3\n"))
    with pytest.raises(DataFileError) as err:
        load_syllable_exceptions(io.StringIO("every\t2\nbusiness\t2\nEvery\t3\n"))
    assert err.value.line == 3
    assert str(err.value).endswith("word 'every' already defined as 2 on line 1, conflicting 3")
    # An identical repeat is accepted.
    assert load_syllable_exceptions(io.StringIO("every\t2\nEvery\t2\n")) == {"every": 2}


def test_familiar_word_that_no_token_can_equal_is_an_error_naming_its_line():
    # "'tis" tokenizes as "'" and "tis", so no word token's key is "'tis".
    message = "^<stream>:2: word \"'tis\" can never match: it must tokenize as one word$"
    with pytest.raises(DataFileError, match=message):
        load_familiar_words(io.StringIO("able\n'tis\n"))


def test_syllable_exception_that_no_token_can_equal_is_an_error_naming_its_line():
    message = "^<stream>:3: word 'u.s.' can never match: it must tokenize as one word$"
    with pytest.raises(DataFileError, match=message):
        load_syllable_exceptions(io.StringIO("business\t2\n# c\nU.S.\t2\n"))


def test_data_file_that_is_not_utf8_is_an_error_naming_it(tmp_path):
    path = tmp_path / "familiar.txt"
    path.write_bytes(b"caf\xe9\n")
    message = f"^{re.escape(str(path))}: cannot read file: .*utf-8"
    with pytest.raises(DataFileError, match=message):
        load_familiar_words(path)
    stream = io.BytesIO(b"caf\xe9\t2\n")
    with pytest.raises(DataFileError, match="^<stream>: cannot read file: .*utf-8"):
        load_syllable_exceptions(stream)


def test_familiar_words_are_keyed_as_word_tokens_are():
    # NFD accents and curly apostrophes fold as ``normalize`` folds tokens.
    words = load_familiar_words(io.StringIO("cafe\u0301\ndon’t\n"))
    assert words == frozenset({"café", "don't"})
    doc = build_document("t", "Café don’t cafe\u0301.")
    assert compute_stats(doc, WordTable(words).types(doc)).difficult_word_count == 0


def test_load_familiar_words_drops_a_leading_byte_order_mark():
    assert load_familiar_words(io.BytesIO(b"\xef\xbb\xbfable\n")) == frozenset({"able"})


def test_load_syllable_exceptions_drops_a_leading_byte_order_mark():
    table = load_syllable_exceptions(io.BytesIO(b"\xef\xbb\xbfbusiness\t2\n"))
    assert table == {"business": 2}


def test_data_file_path_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "familiar.txt"
    path.write_bytes(b"\xef\xbb\xbf# list\nable\n")
    assert load_familiar_words(path) == frozenset({"able"})
    assert load_familiar_words(str(path)) == frozenset({"able"})


def test_data_lines_skip_blanks_and_comments_and_track_the_line():
    lines = textcore.DataLines(io.StringIO("\ufeff# version: 3\n\n  a , b \n# c\n[ S ]\n"))
    assert lines.version is None and lines.lineno is None
    seen = [(line, lines.lineno, lines.raw) for line in lines]
    assert seen == [("a , b", 3, "  a , b "), ("[ S ]", 5, "[ S ]")]
    assert lines.version == "3"
    assert lines.header("[ S ]") == "S" and lines.header("a , b") is None
    # Outside iteration an error names the file alone.
    assert lines.lineno is None and str(lines.error("empty")) == "<stream>: empty"


def test_data_lines_errors_name_the_current_line():
    lines = textcore.DataLines(io.StringIO("x\n\nTwo  Words\n"))
    it = iter(lines)
    assert lines.fields(next(it), ",", 1, "word") == ["x"]
    with pytest.raises(DataFileError, match="^<stream>:1: expected 'a,b', got 'x'$"):
        lines.fields("x", ",", 2, "a,b")
    table: dict = {}
    lines.define(table, "k", 1, "key")
    line = next(it)
    assert lines.phrase(line, "term") == "two words"
    lines.define(table, "k", 1, "key")  # an equal value is deduped
    with pytest.raises(DataFileError) as err:
        lines.define(table, "k", 2, "key")
    assert err.value.line == 3
    assert str(err.value).endswith("key 'k' already defined as 1 on line 1, conflicting 2")
    with pytest.raises(DataFileError, match="expected a single word"):
        lines.word(line)
    with pytest.raises(DataFileError, match="expected a single word"):
        lines.word(" ")
    with pytest.raises(DataFileError, match="can never match"):
        lines.phrase("u.s.", "term")
