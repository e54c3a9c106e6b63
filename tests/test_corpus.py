"""Tests for corpus ingestion (boilerplate/markup stripping, manifests)
and genre-level aggregation."""

from __future__ import annotations

import html as html_module
import io
import os
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertext.corpus import (
    GENRES,
    CorpusManifest,
    DocumentRow,
    GenreAggregate,
    ManifestEntry,
    WARN_MISSING_MARKERS,
    aggregate,
    document_row,
    iter_corpus,
    load_corpus,
    load_manifest,
    strip_gutenberg_boilerplate,
    strip_html,
)
from powertext.errors import DataFileError, InputTextError
from powertext.powerwords import CategoryDistribution, PowerCategory
from powertext.readability import READABILITY_INDICES, ReadabilityReport
from powertext.report import (
    AnalysisConfig, AnalysisReport, analyze, load_resources, render_structured,
)
from powertext.sentiment import SentimentScore
from powertext.textcore import TextStats, build_document


# ---------------------------------------------------------------------------
# Ebook boilerplate stripping
# ---------------------------------------------------------------------------


EBOOK = (
    "Header chatter\n"
    "more header\n"
    "*** START OF THE EBOOK SAMPLE ***\n"
    "body line one\n"
    "\n"
    "body line two\n"
    "*** END OF THE EBOOK SAMPLE ***\n"
    "license text\n"
)


def test_strip_keeps_only_content_between_markers():
    result = strip_gutenberg_boilerplate(EBOOK)
    assert result.text == "body line one\n\nbody line two\n"
    assert result.markers_missing is False


def test_strip_single_body_line():
    text = "header\n*** START OF X ***\nbody\n*** END OF X ***\nlicense\n"
    assert strip_gutenberg_boilerplate(text).text == "body\n"


def test_marker_lines_themselves_are_excluded():
    result = strip_gutenberg_boilerplate(EBOOK)
    assert "START OF" not in result.text
    assert "END OF" not in result.text
    assert "Header" not in result.text
    assert "license" not in result.text


def test_missing_markers_returns_input_unchanged_with_flag():
    text = "Just a plain file.\nNo markers anywhere.\n"
    result = strip_gutenberg_boilerplate(text)
    assert result.text == text
    assert result.markers_missing is True


def test_start_without_end_is_an_error():
    text = "header\n*** START OF X ***\nbody with no end\n"
    with pytest.raises(InputTextError):
        strip_gutenberg_boilerplate(text)


def test_end_line_before_start_does_not_terminate():
    text = "*** END OF X ***\n*** START OF X ***\nbody\n"
    with pytest.raises(InputTextError):
        strip_gutenberg_boilerplate(text)


def test_first_start_and_first_subsequent_end_win():
    text = (
        "h\n"
        "*** START OF A ***\n"
        "outer body\n"
        "*** END OF A ***\n"
        "middle\n"
        "*** START OF B ***\n"
        "inner\n"
        "*** END OF B ***\n"
    )
    assert strip_gutenberg_boilerplate(text).text == "outer body\n"


def test_markers_inside_lines_count():
    # The marker is a substring test on the line, matching real files
    # where the line carries the title after the marker.
    text = "x\nblah *** START OF THE EBOOK FOO *** blah\nbody\n*** END OF THE EBOOK FOO ***\n"
    assert strip_gutenberg_boilerplate(text).text == "body\n"


# Characters that ``str.splitlines`` breaks a line at but ``open()`` does not.
_NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", _NOT_LINE_BREAKS, ids=repr)
def test_a_start_line_ends_where_open_ends_it(char):
    text = (
        "Header\n"
        f"*** START OF THE PROJECT GUTENBERG EBOOK{char}ALICE ***\n"
        "Body text here.\n"
        "*** END OF THE PROJECT GUTENBERG EBOOK ALICE ***\n"
        "License\n"
    )
    assert strip_gutenberg_boilerplate(text).text == "Body text here.\n"


@pytest.mark.parametrize("char", _NOT_LINE_BREAKS, ids=repr)
def test_an_end_line_starts_where_open_starts_it(char):
    # The last body line and the END marker are one line.
    text = (
        "*** START OF THE EBOOK ***\r\n"
        "Body text here.\r\n"
        f"Last words{char}*** END OF THE EBOOK ***\r\n"
        "License\r\n"
    )
    assert strip_gutenberg_boilerplate(text).text == "Body text here.\r\n"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_cleaned_text_is_a_slice_of_the_input(newline):
    lines = ["h", "*** START OF X ***", "one\f", "", "two\u2028three", "*** END OF X ***", "l"]
    text = newline.join(lines)
    cleaned = strip_gutenberg_boilerplate(text).text
    assert cleaned == newline.join(lines[2:5]) + newline
    assert text.index(cleaned) + len(cleaned) == text.index("*** END")


# ---------------------------------------------------------------------------
# HTML stripping
# ---------------------------------------------------------------------------


def test_html_tags_removed():
    assert strip_html("<p>Buy now</p>") == "Buy now"


def test_script_and_style_contents_dropped():
    assert strip_html("<script>x=1</script>hi") == "hi"
    assert strip_html("<style>p { color: red }</style>hi") == "hi"
    assert strip_html("<script>a</script>keep<script>b</script>") == "keep"


def test_script_and_style_contents_drop_their_character_references():
    assert strip_html("<script>a &amp; b &#65;</script>keep") == "keep"
    assert strip_html("<style>&amp;&#65;&#x41;</style>keep") == "keep"


def test_named_and_numeric_entities():
    assert strip_html("a&amp;b &#65;") == "a&b A"
    assert strip_html("&lt;tag&gt;") == "<tag>"
    assert strip_html("&quot;q&quot; &apos;a&apos;") == "\"q\" 'a'"
    assert strip_html("a&nbsp;b") == "a b"
    assert strip_html("&#x41;&#x61;") == "Aa"


def test_surrogate_charref_passes_through_as_literal_text():
    # A lone surrogate is not text: UTF-8 cannot encode it.  Like a code
    # point past U+10FFFF, it decodes to U+FFFD, as ``html.unescape`` has it.
    html = "a&#xD800;b &#55296; &#xdfff; &#xD7FF;&#xE000; &#x110000; &#99999999999999999999;"
    text = strip_html(html)
    assert text == "a\ufffdb \ufffd \ufffd \ud7ff\ue000 \ufffd \ufffd"
    assert text == html_module.unescape(html)
    text.encode("utf-8")


def test_undecodable_charref_adds_no_word_and_no_entity():
    # A reference kept as literal text would leave its digits to count as
    # a word and be tagged CARDINAL.
    config = AnalysisConfig()
    resources = load_resources(config)
    for ref in ("&#xD800;", "&#55296;", "&#x110000;"):
        text = strip_html(f"<p>Bold {ref} and {ref}stay.</p>")
        report = analyze(build_document("odd", text), config, resources=resources)
        assert report.stats.word_count == 3  # Bold, and, stay
        assert report.entities == ()


@pytest.mark.parametrize("code", [0, *range(0x80, 0xA0)])
def test_charrefs_to_nul_and_the_c1_range_decode_as_html_unescape_does(code):
    # 0x80-0x9F read as windows-1252, as browsers do; the five code points
    # it leaves undefined stay themselves.  NUL becomes U+FFFD.
    for ref in (f"&#{code};", f"&#x{code:x};", f"&#X{code:02X};"):
        assert strip_html(f"a{ref}b") == html_module.unescape(f"a{ref}b")


def test_windows_1252_apostrophe_keeps_a_negator_whole():
    # Read as U+0092, the reference would split "don't" into three
    # tokens: five words, no negator, and a polarity of +0.6.
    config = AnalysisConfig()
    text = strip_html("<p>We don&#146;t love it.</p>")
    report = analyze(build_document("quote", text), config, resources=load_resources(config))
    assert text == "We don’t love it."
    assert report.stats.word_count == 4
    assert report.sentiment.polarity == pytest.approx(-0.3)


def test_unknown_named_entity_passes_through():
    assert strip_html("&copy; 2001") == "&copy; 2001"
    assert strip_html("&bogus;") == "&bogus;"


def test_block_tags_become_line_breaks():
    assert strip_html("<h1>Title</h1><p>One</p><p>Two</p>") == "Title\n\nOne\n\nTwo"
    assert strip_html("one<br/>two") == "one\ntwo"
    assert strip_html("<ul><li>a</li><li>b</li></ul>") == "a\n\nb"


def test_inline_tags_do_not_break_lines():
    assert strip_html("<b>bold</b> and <i>italic</i>") == "bold and italic"
    assert strip_html("<span>one</span> <em>two</em>") == "one two"


def test_whitespace_is_normalized():
    assert strip_html("  Buy   now\n\n\n\nToday  ") == "Buy now\n\nToday"
    assert strip_html("<p>  spaced   out  </p>") == "spaced out"


def test_attribute_values_are_not_text():
    assert strip_html('<a href="x?a=1&amp;b=2">link</a>') == "link"


def test_plain_text_survives():
    assert strip_html("no markup here") == "no markup here"


@pytest.mark.parametrize(
    "html, text",
    [
        # A comment, tag or declaration that never closes: the rest of the
        # input is text as written.
        ("a<!-- b -- >c", "a<!-- b -- >c"),
        ("a<!-- <p>b</p>", "a<!-- <p>b</p>"),
        ("<the &amp; a", "<the &amp; a"),
        # "</" without a tag name, "<![CDATA[" and "<!" end at the first ">".
        ("a</>b", "ab"),
        ("a</ p>b", "ab"),
        ("a</1>b", "ab"),
        ("<![CDATA[a>b]]>c", "b]]>c"),
        ("<![1 >a", "a"),
        # "<!-->" and "<!--->" are whole, empty comments.
        ("<!-->a<!--->b", "ab"),
        # A quote that does not follow "=" is part of an attribute name.
        ('<a "x <b>text', "text"),
        # A script or style element skips to its end tag even when its
        # start tag ends with "/>".
        ("<script/>a</script>b", "b"),
        ("a</script>b", "ab"),
        # A "&" that starts no reference, and a reference to an unknown
        # name, are text as written.
        ("a&b", "a&b"),
        ("AT&T rocks", "AT&T rocks"),
        ("&#a; x &#b; <p>y</p>", "&#a; x &#b;\ny"),
    ],
)
def test_malformed_markup_strips_to_pinned_text(html, text):
    assert strip_html(html) == text


# ---------------------------------------------------------------------------
# Manifest parsing
# ---------------------------------------------------------------------------


def write_corpus_files(tmp_path):
    (tmp_path / "a.txt").write_text("Alpha beta gamma. Delta epsilon.\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("One two three. Four five six.\n", encoding="utf-8")


def test_manifest_happy_path(tmp_path):
    write_corpus_files(tmp_path)
    manifest_file = tmp_path / "manifest.csv"
    manifest_file.write_text(
        "# comment line\n"
        "\n"
        "a.txt,doc-a,fiction,plain\n"
        "b.txt,doc-b,speech,plain\n",
        encoding="utf-8",
    )
    manifest = load_manifest(manifest_file)
    assert len(manifest.entries) == 2
    first = manifest.entries[0]
    assert first.doc_id == "doc-a"
    assert first.genre == "fiction"
    assert first.kind == "plain"
    # relative paths resolve against the manifest's directory
    assert first.path == tmp_path / "a.txt"


def test_manifest_absolute_path_kept(tmp_path):
    write_corpus_files(tmp_path)
    manifest_file = tmp_path / "m.csv"
    manifest_file.write_text(
        f"{tmp_path / 'a.txt'},doc-a,fiction,plain\n", encoding="utf-8"
    )
    manifest = load_manifest(manifest_file)
    assert manifest.entries[0].path == tmp_path / "a.txt"


def test_manifest_field_count_error(tmp_path):
    manifest_file = tmp_path / "m.csv"
    manifest_file.write_text("a.txt,doc-a,fiction\n", encoding="utf-8")
    with pytest.raises(DataFileError, match="path,id,genre,kind"):
        load_manifest(manifest_file)


def test_manifest_unknown_genre(tmp_path):
    manifest_file = tmp_path / "m.csv"
    manifest_file.write_text("a.txt,doc-a,poetry,plain\n", encoding="utf-8")
    with pytest.raises(DataFileError, match="poetry"):
        load_manifest(manifest_file)


def test_manifest_unknown_kind(tmp_path):
    manifest_file = tmp_path / "m.csv"
    manifest_file.write_text("a.txt,doc-a,fiction,pdf\n", encoding="utf-8")
    with pytest.raises(DataFileError, match="pdf"):
        load_manifest(manifest_file)


def test_manifest_duplicate_id(tmp_path):
    manifest_file = tmp_path / "m.csv"
    manifest_file.write_text(
        "a.txt,doc-a,fiction,plain\nb.txt,doc-a,speech,plain\n", encoding="utf-8"
    )
    with pytest.raises(DataFileError, match="duplicate id"):
        load_manifest(manifest_file)


@pytest.mark.parametrize(
    ("first", "second"), [("A", "a"), ("doc-a", "DOC-A"), ("Straße", "STRASSE")]
)
def test_manifest_ids_that_differ_only_in_case_are_duplicates(tmp_path, first, second):
    # Their reports would be one file on a case-insensitive file system.
    stream = io.StringIO(f"a.txt,{first},fiction,plain\nb.txt,{second},speech,plain\n")
    with pytest.raises(DataFileError, match="duplicate id") as err:
        load_manifest(stream, base_dir=tmp_path)
    assert err.value.line == 2
    assert f"(first on line 1 as {first!r}, ignoring case)" in str(err.value)


@pytest.mark.parametrize(
    ("first", "second"),
    [
        ("caf\u00e9", "cafe\u0301"),  # NFC and NFD
        ("\u00c5", "\u212b"),  # LATIN CAPITAL A WITH RING ABOVE, ANGSTROM SIGN
        ("\u212b", "A\u030a"),  # ANGSTROM SIGN, A and COMBINING RING ABOVE
        ("\u00c5ngstr\u00f6m", "a\u030angstro\u0308m"),  # case and form at once
    ],
)
def test_manifest_ids_that_differ_only_in_normalization_form_are_duplicates(
    tmp_path, first, second
):
    # A normalization-insensitive file system (such as APFS) gives their
    # reports one name.  Ids are folded by Unicode's canonical caseless
    # match, NFD(casefold(NFD(id))), and named in the case-only message.
    stream = io.StringIO(f"a.txt,{first},fiction,plain\nb.txt,{second},speech,plain\n")
    with pytest.raises(DataFileError, match="duplicate id") as err:
        load_manifest(stream, base_dir=tmp_path)
    assert err.value.line == 2
    assert f"(first on line 1 as {first!r}, ignoring case)" in str(err.value)


@pytest.mark.parametrize(
    "doc_id",
    ["corpus", "Corpus", "CORPUS", "../escaped", "sub/doc", "sub\\doc", "a..b", ".hidden", ".."],
)
def test_manifest_rejects_ids_that_cannot_name_a_report_file(tmp_path, doc_id):
    manifest_file = tmp_path / "m.csv"
    manifest_file.write_text(
        f"a.txt,doc-a,fiction,plain\nb.txt,{doc_id},speech,plain\n", encoding="utf-8"
    )
    with pytest.raises(DataFileError, match="cannot name a report file") as err:
        load_manifest(manifest_file)
    assert err.value.line == 2


def test_manifest_accepts_ids_with_inner_dots(tmp_path):
    stream = io.StringIO("a.txt,v1.2,fiction,plain\nb.txt,corpus-2,speech,plain\n")
    manifest = load_manifest(stream, base_dir=tmp_path)
    assert [entry.doc_id for entry in manifest.entries] == ["v1.2", "corpus-2"]


@pytest.mark.parametrize(
    "line, message", [(",doc-b,speech,plain", "empty path"), ("b.txt,,speech,plain", "empty id")]
)
def test_manifest_empty_path_or_id_names_its_line(tmp_path, line, message):
    stream = io.StringIO(f"a.txt,doc-a,fiction,plain\n{line}\n")
    with pytest.raises(DataFileError, match=f"^<stream>:2: {message}$"):
        load_manifest(stream, base_dir=tmp_path)


def test_manifest_stream_without_base_dir_resolves_against_the_working_directory(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    stream = io.StringIO(f"a.txt,doc-a,fiction,plain\n{tmp_path / 'b.txt'},doc-b,speech,plain\n")
    manifest = load_manifest(stream)
    assert [entry.path for entry in manifest.entries] == [Path.cwd() / "a.txt", tmp_path / "b.txt"]


def test_manifest_empty_is_error(tmp_path):
    manifest_file = tmp_path / "m.csv"
    manifest_file.write_text("# nothing but comments\n", encoding="utf-8")
    with pytest.raises(DataFileError, match="no entries"):
        load_manifest(manifest_file)


def test_manifest_missing_file_is_error(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(DataFileError, match="cannot read file") as err:
        load_manifest(missing)
    assert err.value.source == str(missing)


def test_manifest_from_utf8_byte_stream(tmp_path):
    stream = io.BytesIO("a.txt,café,fiction,plain\nbroken line\n".encode("utf-8"))
    with pytest.raises(DataFileError, match=":2:"):
        load_manifest(stream, base_dir=tmp_path)
    stream = io.BytesIO("a.txt,café,fiction,plain\n".encode("utf-8"))
    manifest = load_manifest(stream, base_dir=tmp_path)
    assert manifest.entries[0].doc_id == "café"
    assert manifest.entries[0].path == tmp_path / "a.txt"


def test_manifest_drops_a_leading_byte_order_mark(tmp_path):
    stream = io.BytesIO("\ufeff# path,id,genre,kind\na.txt,a,fiction,plain\n".encode("utf-8"))
    manifest = load_manifest(stream, base_dir=tmp_path)
    assert manifest.entries[0].path == tmp_path / "a.txt"


def test_manifest_error_names_line_number(tmp_path):
    manifest_file = tmp_path / "m.csv"
    manifest_file.write_text(
        "# header\na.txt,doc-a,fiction,plain\nbroken line\n", encoding="utf-8"
    )
    with pytest.raises(DataFileError, match=":3:"):
        load_manifest(manifest_file)


# ---------------------------------------------------------------------------
# Corpus loading
# ---------------------------------------------------------------------------


def test_load_corpus_strips_gutenberg_before_tokenizing(tmp_path):
    (tmp_path / "book.txt").write_text(EBOOK, encoding="utf-8")
    manifest = CorpusManifest(
        entries=(
            ManifestEntry(
                path=tmp_path / "book.txt",
                doc_id="book",
                genre="fiction",
                kind="gutenberg",
            ),
        )
    )
    [loaded] = load_corpus(manifest)
    assert loaded.document.raw == "body line one\n\nbody line two\n"
    assert loaded.genre == "fiction"
    assert loaded.warnings == ()


def test_load_corpus_flags_missing_markers(tmp_path):
    (tmp_path / "bare.txt").write_text("No markers. Just text here.\n", encoding="utf-8")
    manifest = CorpusManifest(
        entries=(
            ManifestEntry(
                path=tmp_path / "bare.txt",
                doc_id="bare",
                genre="fiction",
                kind="gutenberg",
            ),
        )
    )
    [loaded] = load_corpus(manifest)
    assert loaded.warnings == (WARN_MISSING_MARKERS,)
    assert loaded.document.raw == "No markers. Just text here.\n"


def test_load_corpus_html_kind_strips_markup(tmp_path):
    (tmp_path / "page.html").write_text(
        "<h1>Hello</h1><p>Buy now. Act fast.</p>", encoding="utf-8"
    )
    manifest = CorpusManifest(
        entries=(
            ManifestEntry(
                path=tmp_path / "page.html",
                doc_id="page",
                genre="marketing",
                kind="html",
            ),
        )
    )
    [loaded] = load_corpus(manifest)
    assert loaded.document.raw == "Hello\n\nBuy now. Act fast."


def test_load_corpus_plain_kind_passthrough(tmp_path):
    (tmp_path / "p.txt").write_text("As is. Every byte.\n", encoding="utf-8")
    manifest = CorpusManifest(
        entries=(
            ManifestEntry(
                path=tmp_path / "p.txt", doc_id="p", genre="speech", kind="plain"
            ),
        )
    )
    [loaded] = load_corpus(manifest)
    assert loaded.document.raw == "As is. Every byte.\n"


def test_load_corpus_missing_file_names_id(tmp_path):
    manifest = CorpusManifest(
        entries=(
            ManifestEntry(
                path=tmp_path / "ghost.txt",
                doc_id="ghost-doc",
                genre="fiction",
                kind="plain",
            ),
        )
    )
    with pytest.raises(DataFileError, match="ghost-doc"):
        load_corpus(manifest)


def test_iter_corpus_checks_every_file_before_reading_any(tmp_path):
    (tmp_path / "p.txt").write_text("As is. Every byte.\n", encoding="utf-8")
    entries = (
        ManifestEntry(path=tmp_path / "p.txt", doc_id="p", genre="speech", kind="plain"),
        ManifestEntry(path=tmp_path / "ghost.txt", doc_id="ghost", genre="speech", kind="plain"),
    )
    with pytest.raises(DataFileError, match="ghost") as err:
        iter_corpus(CorpusManifest(entries=entries))
    assert err.value.source == str(tmp_path / "ghost.txt")


@pytest.mark.parametrize("kind", ["directory", "fifo", "missing"])
def test_iter_corpus_tells_a_path_that_is_not_a_regular_file_from_a_missing_one(tmp_path, kind):
    path = tmp_path / "entry"
    if kind == "directory":
        path.mkdir()
    elif kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes on this platform")
        os.mkfifo(path)
    entries = (ManifestEntry(path=path, doc_id="x", genre="speech", kind="plain"),)
    problem = "no such file" if kind == "missing" else "not a regular file"
    with pytest.raises(DataFileError, match=f"^.*: cannot read corpus file for 'x': {problem}$"):
        iter_corpus(CorpusManifest(entries=entries))


def test_data_file_errors_show_an_unprintable_path_as_its_repr(tmp_path):
    ghost = tmp_path / "gh\x1bost\t.txt"
    entries = (ManifestEntry(path=ghost, doc_id="ghost", genre="speech", kind="plain"),)
    with pytest.raises(DataFileError, match="ghost") as err:
        iter_corpus(CorpusManifest(entries=entries))
    assert err.value.source == str(ghost)
    assert str(err.value).startswith(repr(str(ghost)) + ": ")
    assert str(err.value).isprintable()


def test_manifest_rejects_a_path_with_a_nul(tmp_path):
    stream = io.StringIO("a.txt,a,fiction,plain\nb\0.txt,b,speech,plain\n")
    with pytest.raises(DataFileError, match="contains a NUL") as err:
        load_manifest(stream, base_dir=tmp_path)
    assert err.value.line == 2
    assert "\0" not in str(err.value)


def test_iter_corpus_reads_one_file_per_document(tmp_path):
    (tmp_path / "a.txt").write_text("First text. It is short.\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("*** START OF X ***\nno end\n", encoding="utf-8")
    entries = (
        ManifestEntry(path=tmp_path / "a.txt", doc_id="a", genre="fiction", kind="plain"),
        ManifestEntry(path=tmp_path / "b.txt", doc_id="b", genre="fiction", kind="gutenberg"),
    )
    documents = iter_corpus(CorpusManifest(entries=entries))
    first = next(documents)
    assert first.document.doc_id == "a"
    assert first.document.raw == "First text. It is short.\n"
    # The second file is read, and found truncated, only when asked for.
    with pytest.raises(InputTextError, match="b:"):
        next(documents)


def test_load_corpus_empty_cleaned_text_names_id(tmp_path):
    (tmp_path / "empty.html").write_text("<script>only code</script>", encoding="utf-8")
    manifest = CorpusManifest(
        entries=(
            ManifestEntry(
                path=tmp_path / "empty.html",
                doc_id="hollow",
                genre="marketing",
                kind="html",
            ),
        )
    )
    with pytest.raises(InputTextError, match="hollow"):
        load_corpus(manifest)


@pytest.mark.parametrize("content, kind", [("\ufeff \n", "plain"), ("\ufeff<p></p>", "html")])
def test_load_corpus_byte_order_mark_alone_is_empty_text(tmp_path, content, kind):
    (tmp_path / "bom.txt").write_text(content, encoding="utf-8")
    entry = ManifestEntry(path=tmp_path / "bom.txt", doc_id="bom", genre="fiction", kind=kind)
    with pytest.raises(InputTextError, match="bom: cleaned text is empty"):
        load_corpus(CorpusManifest(entries=(entry,)))


def test_load_corpus_unterminated_markers_names_id(tmp_path):
    (tmp_path / "trunc.txt").write_text(
        "*** START OF X ***\nbody\n", encoding="utf-8"
    )
    manifest = CorpusManifest(
        entries=(
            ManifestEntry(
                path=tmp_path / "trunc.txt",
                doc_id="truncated",
                genre="fiction",
                kind="gutenberg",
            ),
        )
    )
    with pytest.raises(InputTextError, match="truncated"):
        load_corpus(manifest)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


_DOC = build_document("agg-doc", "Alpha beta. Gamma delta.")
_STATS = TextStats(
    word_count=4,
    sentence_count=2,
    syllable_count=8,
    letter_count=18,
    char_count=18,
    polysyllable_count=0,
    complex_word_count=0,
    difficult_word_count=4,
)


def make_readability(base: float) -> ReadabilityReport:
    return ReadabilityReport(
        flesch_reading_ease=base,
        ease_label="Standard",
        flesch_kincaid_grade=base + 1.0,
        smog_index=base + 2.0,
        gunning_fog=base + 3.0,
        coleman_liau=base + 4.0,
        ari=base + 5.0,
        dale_chall=base + 6.0,
        text_standard="5th and 6th grade",
    )


def make_distribution(shares: dict[PowerCategory, float]) -> CategoryDistribution:
    percentages = {category: shares.get(category, 0.0) for category in PowerCategory}
    return CategoryDistribution(
        percentages=percentages, empty=all(v == 0.0 for v in percentages.values())
    )


def make_report(
    readability: ReadabilityReport | None = None,
    dist: CategoryDistribution | None = None,
    polarity: float | None = None,
    subjectivity: float | None = None,
) -> AnalysisReport:
    sentiment = None
    if polarity is not None:
        sentiment = SentimentScore(
            polarity=polarity, subjectivity=subjectivity or 0.0, matched_terms=1
        )
    present = {"readability": readability, "power": dist, "sentiment": sentiment}
    return AnalysisReport(
        document=_DOC,
        stats=_STATS,
        sections=frozenset(name for name, value in present.items() if value is not None),
        readability=readability,
        power=None,
        power_distribution=dist,
        sentiment=sentiment,
        entities=None,
        warnings=(),
    )


def test_single_report_aggregates_to_itself():
    report = make_report(
        readability=make_readability(50.0),
        dist=make_distribution({PowerCategory.GREED: 100.0}),
        polarity=0.25,
        subjectivity=0.4,
    )
    [agg] = aggregate([document_row(report, "speech")])
    assert agg.genre == "speech"
    assert agg.document_count == 1
    assert agg.mean_flesch_reading_ease == 50.0
    assert agg.mean_flesch_kincaid_grade == 51.0
    assert agg.mean_smog_index == 52.0
    assert agg.mean_gunning_fog == 53.0
    assert agg.mean_coleman_liau == 54.0
    assert agg.mean_ari == 55.0
    assert agg.mean_dale_chall == 56.0
    assert agg.mean_distribution[PowerCategory.GREED] == 100.0
    assert agg.mean_polarity == 0.25
    assert agg.mean_subjectivity == 0.4


def test_polarity_mean_of_two():
    rows = [
        document_row(make_report(polarity=0.1, subjectivity=0.2), "fiction"),
        document_row(make_report(polarity=0.3, subjectivity=0.6), "fiction"),
    ]
    [agg] = aggregate(rows)
    assert agg.mean_polarity == pytest.approx(0.2)
    assert agg.mean_subjectivity == pytest.approx(0.4)


def test_identical_reports_aggregate_exactly():
    report = make_report(
        readability=make_readability(33.3),
        dist=make_distribution(
            {PowerCategory.GREED: 60.0, PowerCategory.FEAR: 40.0}
        ),
        polarity=-0.125,
        subjectivity=0.5,
    )
    [agg] = aggregate([document_row(report, "marketing")] * 5)
    assert agg.document_count == 5
    assert agg.mean_flesch_reading_ease == 33.3
    assert agg.mean_dale_chall == 39.3
    assert agg.mean_distribution[PowerCategory.GREED] == 60.0
    assert agg.mean_distribution[PowerCategory.FEAR] == 40.0
    assert agg.mean_polarity == -0.125


def test_distribution_is_mean_of_percentages_not_pooled_counts():
    # Doc A: 10 hits, all Greed.  Doc B: 1 hit, Encouragement.
    # Mean-of-percentages gives 50/50; pooled counting would give
    # roughly 91/9.  The former is the pinned behavior.
    a = make_report(dist=make_distribution({PowerCategory.GREED: 100.0}))
    b = make_report(dist=make_distribution({PowerCategory.ENCOURAGEMENT: 100.0}))
    [agg] = aggregate([document_row(a, "speech"), document_row(b, "speech")])
    assert agg.mean_distribution[PowerCategory.GREED] == pytest.approx(50.0)
    assert agg.mean_distribution[PowerCategory.ENCOURAGEMENT] == pytest.approx(50.0)


def test_genre_output_order_is_fixed():
    rows = [
        document_row(make_report(polarity=0.1, subjectivity=0.1), "marketing"),
        document_row(make_report(polarity=0.2, subjectivity=0.2), "fiction"),
        document_row(make_report(polarity=0.3, subjectivity=0.3), "speech"),
    ]
    aggregates = aggregate(rows)
    assert [agg.genre for agg in aggregates] == ["fiction", "speech", "marketing"]


def test_absent_genres_are_omitted():
    [agg] = aggregate([document_row(make_report(polarity=0.0, subjectivity=0.0), "fiction")])
    assert agg.genre == "fiction"


def test_empty_input_is_error():
    with pytest.raises(InputTextError):
        aggregate([])


def test_unknown_genre_is_error():
    with pytest.raises(InputTextError, match="poetry"):
        aggregate([document_row(make_report(polarity=0.0, subjectivity=0.0), "poetry")])


@pytest.mark.parametrize(
    ("section", "what"),
    [
        ({"readability": make_readability(10.0)}, "reading ease"),
        ({"dist": make_distribution({PowerCategory.GREED: 100.0})}, "power distribution"),
        ({"polarity": 0.5, "subjectivity": 0.5}, "polarity"),
    ],
    ids=["readability", "power", "sentiment"],
)
def test_mixed_section_presence_within_genre_is_error(section, what):
    with_section = document_row(make_report(**section), "fiction")
    without_section = document_row(make_report(), "fiction")
    for rows in ([with_section, without_section], [without_section, with_section]):
        with pytest.raises(InputTextError, match=f"cannot aggregate {what} for genre 'fiction'"):
            aggregate(rows)


def test_sections_absent_for_all_stay_none():
    rows = [document_row(make_report(), "fiction"), document_row(make_report(), "fiction")]
    [agg] = aggregate(rows)
    assert agg.mean_flesch_reading_ease is None
    assert agg.mean_dale_chall is None
    assert agg.mean_distribution is None
    assert agg.mean_polarity is None
    assert agg.mean_subjectivity is None


def test_readability_means():
    rows = [
        document_row(make_report(readability=make_readability(10.0)), "speech"),
        document_row(make_report(readability=make_readability(20.0)), "speech"),
    ]
    [agg] = aggregate(rows)
    assert agg.mean_flesch_reading_ease == pytest.approx(15.0)
    assert agg.mean_flesch_kincaid_grade == pytest.approx(16.0)
    assert agg.mean_smog_index == pytest.approx(17.0)
    assert agg.mean_gunning_fog == pytest.approx(18.0)
    assert agg.mean_coleman_liau == pytest.approx(19.0)
    assert agg.mean_ari == pytest.approx(20.0)
    assert agg.mean_dale_chall == pytest.approx(21.0)


def test_mean_of_percentages_sums_to_100():
    # Property: whenever every input distribution sums to 100 (±0.01),
    # each genre's mean distribution sums to 100 (±0.1).
    rng = random.Random(2024)
    categories = list(PowerCategory)
    for _ in range(50):
        rows = []
        for _ in range(rng.randint(1, 6)):
            weights = [rng.random() + 1e-9 for _ in categories]
            total = sum(weights)
            shares = {
                category: 100.0 * weight / total
                for category, weight in zip(categories, weights)
            }
            assert sum(shares.values()) == pytest.approx(100.0, abs=0.01)
            genre = rng.choice(["fiction", "speech", "marketing"])
            rows.append(document_row(make_report(dist=make_distribution(shares)), genre))
        for agg in aggregate(rows):
            assert sum(agg.mean_distribution.values()) == pytest.approx(100.0, abs=0.1)


def test_aggregate_is_deterministic():
    rows = [
        document_row(
            make_report(
                readability=make_readability(12.5),
                dist=make_distribution(
                    {PowerCategory.GREED: 70.0, PowerCategory.SAFETY: 30.0}
                ),
                polarity=0.3,
                subjectivity=0.6,
            ),
            "marketing",
        ),
        document_row(
            make_report(
                readability=make_readability(47.5),
                dist=make_distribution(
                    {PowerCategory.ANGER: 25.0, PowerCategory.LUST: 75.0}
                ),
                polarity=-0.1,
                subjectivity=0.2,
            ),
            "marketing",
        ),
    ]
    assert aggregate(rows) == aggregate(list(rows))


def test_document_row_holds_each_section_in_its_pinned_order():
    doc = build_document(
        "row",
        "A bargain and a bonanza. We achieve amazing things and achieve them again. "
        "It is certified and alluring. Abuse brings agony.",
    )
    report = analyze(doc, AnalysisConfig())
    ease = report.readability
    percentages = report.power_distribution.percentages
    shares = tuple(
        percentages[category]
        for category in (
            PowerCategory.GREED, PowerCategory.ENCOURAGEMENT, PowerCategory.SAFETY,
            PowerCategory.ANGER, PowerCategory.LUST, PowerCategory.FEAR,
            PowerCategory.FORBIDDEN,
        )
    )
    assert len(set(shares)) > 2  # the order shows
    assert document_row(report, "marketing") == DocumentRow(
        genre="marketing",
        readability=(
            ease.flesch_reading_ease, ease.flesch_kincaid_grade, ease.smog_index,
            ease.gunning_fog, ease.coleman_liau, ease.ari, ease.dale_chall,
        ),
        shares=shares,
        sentiment=(report.sentiment.polarity, report.sentiment.subjectivity),
    )
    power_only = analyze(doc, AnalysisConfig(sections={"power"}))
    assert document_row(power_only, "speech") == ("speech", None, shares, None)
    assert document_row(make_report(), "fiction") == ("fiction", None, None, None)


_SCORE = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_subnormal=False)
_SECTION_SIZES = (len(READABILITY_INDICES), len(PowerCategory), 2)


@st.composite
def _document_rows(draw):
    """Rows of random genres whose sections are present in all or in none."""
    present = [draw(st.booleans()) for _ in _SECTION_SIZES]
    return [
        DocumentRow(
            genre,
            *(
                draw(st.tuples(*[_SCORE] * size)) if on else None
                for on, size in zip(present, _SECTION_SIZES)
            ),
        )
        for genre in draw(st.lists(st.sampled_from(GENRES), min_size=1, max_size=8))
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=_document_rows())
def test_summary_bytes_ignore_row_order_and_repetition(data, rows):
    # ``fsum`` is correctly rounded, so neither the order of the rows nor
    # listing each twice changes a mean.
    summary = render_structured(aggregate(rows))
    assert render_structured(aggregate(data.draw(st.permutations(rows)))) == summary
    doubled = aggregate(rows * 2)
    assert [agg.document_count for agg in doubled] == [
        2 * agg.document_count for agg in aggregate(rows)
    ]
    halved = [agg._replace(document_count=agg.document_count // 2) for agg in doubled]
    assert render_structured(halved) == summary
