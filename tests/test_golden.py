"""Behaviour oracle: the reports of the shipped sample corpus, in both
output formats, must match the committed goldens byte for byte.

The structured goldens under ``tests/golden/`` are the output of

    powertext corpus src/powertext/data/corpus/manifest.csv \
        --format structured --out tests/golden

and the markdown goldens under ``tests/golden/markdown/`` the output of
the same command with the default format and ``--out
tests/golden/markdown``: one report per sample document plus the
per-genre aggregate (``corpus.json``, ``corpus.md``).

``tests/golden/markdown/analyze/`` holds the stdout of

    powertext analyze tests/fixtures/one-sentence.txt [--sections power]

a one-sentence text, on which readability is unavailable
(``one-sentence.md``, all sections; ``one-sentence.power.md``).

``tests/golden/analyze/non-ascii.json`` and
``tests/golden/markdown/analyze/non-ascii.md`` are the stdout of

    powertext analyze tests/fixtures/non-ascii.txt [--format structured]

a text whose every sentence takes the tokenizer's non-ASCII path: a
leading byte-order mark, curly quotes and apostrophes, accents in NFD
form, ``½``, ``²`` and em dashes.  The sample corpus is pure ASCII.

``tests/golden/analyze/common-words.json`` is the stdout of

    powertext analyze tests/fixtures/common-words.txt \
        --lexicon tests/fixtures/common-words.lexicon.csv \
        --gazetteer tests/fixtures/common-words.gazetteer.txt \
        --format structured

a text dense in power terms and gazetteer surfaces led by "the", "of" and
"a", which overlap and share anchor words at different offsets.  It was
written while the phrase matchers still keyed each phrase on its first
word, so equality shows that keying on the anchor changed no match.

``tests/golden/analyze/empty-stages.json`` is the stdout of

    powertext analyze src/powertext/data/corpus/gettysburg.txt \
        --gazetteer tests/fixtures/empty-stages.gazetteer.txt \
        --sentiment tests/fixtures/empty-stages.sentiment.txt \
        --format structured

a gazetteer with a label but no surface and a sentiment lexicon with
modifiers and negators but no scored term: two stages whose collections
of start words are empty, so no term matches and only the date and
number passes tag entities.

``tests/golden/corpus-sections/`` holds the stdout of

    powertext corpus src/powertext/data/corpus/manifest.csv \
        --sections readability|power,sentiment [--format structured]

the genre summary alone (``readability.json``, ``readability.md``,
``power-sentiment.json``, ``power-sentiment.md``): the sections that did
not run are ``null`` in the structured summary and have no block in the
markdown one.

A change that means to alter these bytes regenerates them with those
commands and says which bytes changed and why.
"""

import shutil
from pathlib import Path

import pytest

from powertext.cli import main
from powertext.defaults import CORPUS_MANIFEST_FILE, ENV_DATA_DIR, data_path

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_NAMES = sorted(path.name for path in GOLDEN_DIR.glob("*.json"))
MARKDOWN_DIR = GOLDEN_DIR / "markdown"
MARKDOWN_NAMES = sorted(path.name for path in MARKDOWN_DIR.glob("*.md"))
ONE_SENTENCE = Path(__file__).parent / "fixtures" / "one-sentence.txt"
NON_ASCII = Path(__file__).parent / "fixtures" / "non-ascii.txt"
COMMON_WORDS = Path(__file__).parent / "fixtures" / "common-words"
EMPTY_STAGES = Path(__file__).parent / "fixtures" / "empty-stages"
CORPUS_SECTIONS = GOLDEN_DIR / "corpus-sections"


def _corpus_run(out: Path, *flags: str) -> Path:
    status = main(["corpus", str(data_path(CORPUS_MANIFEST_FILE)), *flags, "--out", str(out)])
    assert status == 0
    return out


@pytest.fixture(scope="module")
def corpus_output(tmp_path_factory) -> Path:
    return _corpus_run(tmp_path_factory.mktemp("corpus"), "--format", "structured")


@pytest.fixture(scope="module")
def markdown_output(tmp_path_factory) -> Path:
    return _corpus_run(tmp_path_factory.mktemp("markdown"))


def test_goldens_cover_nine_documents_and_the_aggregate(corpus_output):
    assert len(GOLDEN_NAMES) == 10 and "corpus.json" in GOLDEN_NAMES
    assert sorted(path.name for path in corpus_output.iterdir()) == GOLDEN_NAMES


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_structured_report_matches_golden_bytes(corpus_output, name):
    assert (corpus_output / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_markdown_goldens_cover_nine_documents_and_the_aggregate(markdown_output):
    assert len(MARKDOWN_NAMES) == 10 and "corpus.md" in MARKDOWN_NAMES
    assert sorted(path.name for path in markdown_output.iterdir()) == MARKDOWN_NAMES


@pytest.mark.parametrize("name", MARKDOWN_NAMES)
def test_markdown_report_matches_golden_bytes(markdown_output, name):
    assert (markdown_output / name).read_bytes() == (MARKDOWN_DIR / name).read_bytes()


def test_data_files_with_a_byte_order_mark_give_the_golden_reports(tmp_path, monkeypatch):
    data = shutil.copytree(data_path(CORPUS_MANIFEST_FILE).parent.parent, tmp_path / "data")
    marked = [*data.glob("*.csv"), *data.glob("*.txt"), *data.glob("*.tsv")]
    for path in [*marked, data / CORPUS_MANIFEST_FILE]:
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    monkeypatch.setenv(ENV_DATA_DIR, str(data))
    out = _corpus_run(tmp_path / "out", "--format", "structured")
    assert sorted(path.name for path in out.iterdir()) == GOLDEN_NAMES
    for name in GOLDEN_NAMES:
        assert (out / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


@pytest.mark.parametrize(
    "golden, flags",
    [("one-sentence.md", []), ("one-sentence.power.md", ["--sections", "power"])],
)
def test_analyze_markdown_matches_golden_bytes(capsysbinary, golden, flags):
    assert main(["analyze", str(ONE_SENTENCE), *flags]) == 0
    expected = (MARKDOWN_DIR / "analyze" / golden).read_bytes()
    assert capsysbinary.readouterr().out == expected


@pytest.mark.parametrize(
    "golden, flags",
    [
        (GOLDEN_DIR / "analyze" / "non-ascii.json", ["--format", "structured"]),
        (MARKDOWN_DIR / "analyze" / "non-ascii.md", []),
    ],
    ids=["structured", "markdown"],
)
def test_non_ascii_analyze_matches_golden_bytes(capsysbinary, golden, flags):
    assert NON_ASCII.read_bytes().startswith("\ufeff".encode())
    assert main(["analyze", str(NON_ASCII), *flags]) == 0
    assert capsysbinary.readouterr().out == golden.read_bytes()


def test_phrases_led_by_common_words_match_golden_bytes(capsysbinary):
    flags = [
        "--lexicon", f"{COMMON_WORDS}.lexicon.csv",
        "--gazetteer", f"{COMMON_WORDS}.gazetteer.txt",
        "--format", "structured",
    ]
    assert main(["analyze", f"{COMMON_WORDS}.txt", *flags]) == 0
    expected = (GOLDEN_DIR / "analyze" / "common-words.json").read_bytes()
    assert capsysbinary.readouterr().out == expected


def test_stages_with_empty_collections_match_golden_bytes(capsysbinary):
    flags = [
        "--gazetteer", f"{EMPTY_STAGES}.gazetteer.txt",
        "--sentiment", f"{EMPTY_STAGES}.sentiment.txt",
        "--format", "structured",
    ]
    assert main(["analyze", str(data_path("corpus/gettysburg.txt")), *flags]) == 0
    expected = (GOLDEN_DIR / "analyze" / "empty-stages.json").read_bytes()
    assert capsysbinary.readouterr().out == expected


@pytest.mark.parametrize("sections", ["readability", "power,sentiment"])
@pytest.mark.parametrize("output_format, extension", [("structured", "json"), ("markdown", "md")])
def test_corpus_summary_of_some_sections_matches_golden_bytes(
    capsysbinary, sections, output_format, extension
):
    flags = ["--sections", sections, "--format", output_format]
    assert main(["corpus", str(data_path(CORPUS_MANIFEST_FILE)), *flags]) == 0
    golden = CORPUS_SECTIONS / f"{sections.replace(',', '-')}.{extension}"
    assert capsysbinary.readouterr().out == golden.read_bytes()
