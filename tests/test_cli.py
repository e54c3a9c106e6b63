"""Black-box tests for the command-line interface.

Every test but the memory test runs the CLI in a subprocess, asserting
on exit codes, stdout/stderr, and written files only — exactly how a
user sees it.  The memory test calls ``main`` in-process, so that
``tracemalloc`` sees the command's allocations.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import powertext
from powertext import corpus
from powertext.cli import main
from powertext.corpus import load_manifest
from powertext.defaults import CORPUS_MANIFEST_FILE, ENV_DATA_DIR, data_path


def run_cli(*args, data_dir=None, cwd=None, stdout=subprocess.PIPE):
    env = dict(os.environ)
    if data_dir is not None:
        env["POWERTEXT_DATA"] = str(data_dir)
    else:
        env.pop("POWERTEXT_DATA", None)
    return subprocess.run(
        [sys.executable, "-m", "powertext", *map(str, args)],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=cwd,
        timeout=60,
    )


@pytest.fixture()
def data_dir(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    (d / "familiar_words.txt").write_text(
        "the\na\nis\nfree\nnow\nget\nyour\nto\nwe\nyou\nand\nof\nin\nit\n",
        encoding="utf-8",
    )
    (d / "syllable_exceptions.tsv").write_text("business\t2\n", encoding="utf-8")
    (d / "power_words.csv").write_text(
        "term,category\nfree,Greed\nbargain,Greed\nproven,Safety\nbold,Encouragement\n",
        encoding="utf-8",
    )
    (d / "sentiment_lexicon.txt").write_text(
        "great,0.8,0.75\nbad,-0.6,0.7\n[modifiers]\nvery,1.5\n[negators]\nnot\n",
        encoding="utf-8",
    )
    (d / "gazetteer.txt").write_text("[GPE]\nAmerica\n[PERSON]\nAlice\n", encoding="utf-8")
    return d


@pytest.fixture()
def sample_file(tmp_path):
    f = tmp_path / "sample.txt"
    f.write_text(
        "Get your free bargain now. America is very great today. "
        "Alice saw the proven result.\n",
        encoding="utf-8",
    )
    return f


@pytest.fixture()
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "story.txt").write_text(
        "Alice walked along quietly. The road was long. She felt very great.\n",
        encoding="utf-8",
    )
    (d / "talk.txt").write_text(
        "We gather today in America. Our cause is proven. We will not be bad.\n",
        encoding="utf-8",
    )
    (d / "ad.html").write_text(
        "<p>Get this free bargain now. It is a proven product. Act today.</p>",
        encoding="utf-8",
    )
    (d / "manifest.csv").write_text(
        "story.txt,story,fiction,plain\n"
        "talk.txt,talk,speech,plain\n"
        "ad.html,ad,marketing,html\n",
        encoding="utf-8",
    )
    return d


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_markdown_default(data_dir, sample_file):
    result = run_cli("analyze", sample_file, data_dir=data_dir)
    assert result.returncode == 0
    assert result.stdout.startswith("# Analysis: sample")
    assert "| Metric | Score |" in result.stdout
    assert "## Power words" in result.stdout


def test_analyze_structured_is_json(data_dir, sample_file):
    result = run_cli("analyze", sample_file, "--format", "structured", data_dir=data_dir)
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["id"] == "sample"
    assert payload["stats"]["words"] == 15
    assert payload["power"]["counts"]["Greed"] == 2


def test_analyze_superscript_digits_exits_0(data_dir, tmp_path):
    f = tmp_path / "superscript.txt"
    f.write_text("May ² came. In 1²34 we.\n", encoding="utf-8")
    result = run_cli("analyze", f, "--format", "structured", data_dir=data_dir)
    assert result.returncode == 0, result.stderr
    labels = [span["label"] for span in json.loads(result.stdout)["entities"]]
    assert labels == ["CARDINAL", "CARDINAL"]


def test_analyze_sections_flag_gates_output(data_dir, sample_file):
    full = run_cli(
        "analyze", sample_file, "--format", "structured", data_dir=data_dir
    )
    gated = run_cli(
        "analyze",
        sample_file,
        "--format",
        "structured",
        "--sections",
        "power",
        data_dir=data_dir,
    )
    assert gated.returncode == 0
    full_payload = json.loads(full.stdout)
    gated_payload = json.loads(gated.stdout)
    assert "readability" not in gated_payload
    assert "sentiment" not in gated_payload
    assert "entities" not in gated_payload
    # gating one section changes nothing in the others
    assert gated_payload["power"] == full_payload["power"]
    assert gated_payload["stats"] == full_payload["stats"]


def test_analyze_explicit_lexicon_flag(data_dir, sample_file, tmp_path):
    lexicon = tmp_path / "lex.csv"
    lexicon.write_text("term,category\nresult,Forbidden\n", encoding="utf-8")
    result = run_cli(
        "analyze",
        sample_file,
        "--lexicon",
        lexicon,
        "--format",
        "structured",
        data_dir=data_dir,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["power"]["counts"]["Forbidden"] == 1
    assert payload["power"]["counts"]["Greed"] == 0


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert "powertext" in result.stdout
    assert "0.1.0" in result.stdout


@pytest.mark.parametrize("text", ["Get your free bargain now. America is great.\n", "\n"])
def test_analyze_ignores_a_leading_byte_order_mark(data_dir, tmp_path, text):
    plain = tmp_path / "plain.txt"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked.txt"
    marked.write_text("\ufeff" + text, encoding="utf-8")
    stats = []
    for path in (plain, marked):
        result = run_cli("analyze", path, "--format", "structured", data_dir=data_dir)
        assert result.returncode == 0, result.stderr
        stats.append(json.loads(result.stdout)["stats"])
    assert stats[0] == stats[1]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_error_no_command_exits_1():
    result = run_cli()
    assert result.returncode == 1


def test_usage_error_unknown_flag_exits_1(data_dir, sample_file):
    result = run_cli("analyze", sample_file, "--bogus", data_dir=data_dir)
    assert result.returncode == 1


def test_usage_error_bad_format_exits_1(data_dir, sample_file):
    result = run_cli(
        "analyze", sample_file, "--format", "yaml", data_dir=data_dir
    )
    assert result.returncode == 1


def test_usage_error_bad_section_exits_1(data_dir, sample_file):
    result = run_cli(
        "analyze", sample_file, "--sections", "power,astrology", data_dir=data_dir
    )
    assert result.returncode == 1
    assert "astrology" in result.stderr


def test_data_file_error_exits_2(data_dir, sample_file, tmp_path):
    result = run_cli(
        "analyze",
        sample_file,
        "--lexicon",
        tmp_path / "missing.csv",
        data_dir=data_dir,
    )
    assert result.returncode == 2
    assert "error" in result.stderr


def test_malformed_data_file_exits_2(data_dir, sample_file, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("term,category\nfree,NotACategory\n", encoding="utf-8")
    result = run_cli(
        "analyze", sample_file, "--lexicon", bad, data_dir=data_dir
    )
    assert result.returncode == 2
    assert "NotACategory" in result.stderr


def test_missing_input_file_exits_3(data_dir, tmp_path):
    result = run_cli("analyze", tmp_path / "ghost.txt", data_dir=data_dir)
    assert result.returncode == 3


def test_input_file_that_is_not_utf8_exits_3(data_dir, tmp_path):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("Un café noir.\n".encode("latin-1"))
    result = run_cli("analyze", latin1, data_dir=data_dir)
    assert result.returncode == 3
    assert result.stderr.startswith("powertext: error: cannot read input file: ")
    assert "Traceback" not in result.stderr


def test_data_file_that_is_not_utf8_exits_2_and_names_it(data_dir, sample_file, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes("café,Greed\n".encode("latin-1"))
    result = run_cli("analyze", sample_file, "--lexicon", bad, data_dir=data_dir)
    assert result.returncode == 2
    assert result.stderr.startswith(f"powertext: error: {bad}: cannot read file: ")
    assert "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def test_corpus_structured_aggregates(data_dir, corpus_dir):
    result = run_cli(
        "corpus",
        corpus_dir / "manifest.csv",
        "--format",
        "structured",
        data_dir=data_dir,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    genres = [genre["genre"] for genre in payload["genres"]]
    assert genres == ["fiction", "speech", "marketing"]
    assert payload["plot_rows"]
    marketing = payload["genres"][2]
    assert marketing["distribution"]["Greed"] > 0


def test_corpus_calls_aggregate_once_through_its_module(data_dir, corpus_dir, monkeypatch, capsys):
    # The benchmark times the genre summary by rebinding
    # ``powertext.corpus.aggregate``; a command that bound the function
    # early, or averaged the rows itself, would leave that layer at zero.
    calls = []
    real_aggregate = corpus.aggregate

    def counted(rows):
        calls.append(len(rows))
        return real_aggregate(rows)

    monkeypatch.setenv(ENV_DATA_DIR, str(data_dir))
    monkeypatch.setattr(corpus, "aggregate", counted)
    assert main(["corpus", str(corpus_dir / "manifest.csv"), "--format", "structured"]) == 0
    assert calls == [3]
    payload = json.loads(capsys.readouterr().out)
    assert [genre["genre"] for genre in payload["genres"]] == ["fiction", "speech", "marketing"]


def test_corpus_markdown(data_dir, corpus_dir):
    result = run_cli("corpus", corpus_dir / "manifest.csv", data_dir=data_dir)
    assert result.returncode == 0
    assert result.stdout.startswith("# Corpus summary")
    assert "## Distribution by genre (plot data)" in result.stdout


def test_corpus_out_dir_writes_files(data_dir, corpus_dir, tmp_path):
    out = tmp_path / "reports"
    result = run_cli(
        "corpus",
        corpus_dir / "manifest.csv",
        "--format",
        "structured",
        "--out",
        out,
        data_dir=data_dir,
    )
    assert result.returncode == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["ad.json", "corpus.json", "story.json", "talk.json"]
    story = json.loads((out / "story.json").read_text(encoding="utf-8"))
    assert story["id"] == "story"
    summary = json.loads((out / "corpus.json").read_text(encoding="utf-8"))
    assert list(summary) == ["genres", "plot_rows"]


def test_corpus_out_dir_markdown_files(data_dir, corpus_dir, tmp_path):
    out = tmp_path / "reports-md"
    result = run_cli(
        "corpus", corpus_dir / "manifest.csv", "--out", out, data_dir=data_dir
    )
    assert result.returncode == 0
    assert (out / "story.md").read_text(encoding="utf-8").startswith("# Analysis: story")
    assert (out / "corpus.md").read_text(encoding="utf-8").startswith("# Corpus summary")


def test_corpus_structured_byte_identical_across_runs(data_dir, corpus_dir):
    first = run_cli(
        "corpus", corpus_dir / "manifest.csv", "--format", "structured",
        data_dir=data_dir,
    )
    second = run_cli(
        "corpus", corpus_dir / "manifest.csv", "--format", "structured",
        data_dir=data_dir,
    )
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_corpus_missing_manifest_exits_2(data_dir, tmp_path):
    result = run_cli("corpus", tmp_path / "none.csv", data_dir=data_dir)
    assert result.returncode == 2


def test_corpus_entry_missing_file_exits_2_and_names_id(data_dir, tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("ghost.txt,ghost-id,fiction,plain\n", encoding="utf-8")
    result = run_cli("corpus", manifest, data_dir=data_dir)
    assert result.returncode == 2
    assert "ghost-id" in result.stderr


def test_corpus_entry_that_is_a_directory_exits_2_and_says_so(data_dir, tmp_path):
    (tmp_path / "adir").mkdir()
    manifest = tmp_path / "m.csv"
    manifest.write_text("adir,x,fiction,plain\n", encoding="utf-8")
    result = run_cli("corpus", manifest, data_dir=data_dir)
    assert result.returncode == 2
    assert result.stderr.endswith("adir: cannot read corpus file for 'x': not a regular file\n")


def test_corpus_entry_that_is_not_utf8_exits_2_and_names_id(data_dir, tmp_path):
    (tmp_path / "latin1.txt").write_bytes("Un café noir.\n".encode("latin-1"))
    manifest = tmp_path / "m.csv"
    manifest.write_text("latin1.txt,latin1-id,fiction,plain\n", encoding="utf-8")
    result = run_cli("corpus", manifest, data_dir=data_dir)
    assert result.returncode == 2
    assert "cannot read corpus file for 'latin1-id': " in result.stderr
    assert "Traceback" not in result.stderr


def test_corpus_unterminated_markers_exit_3(data_dir, tmp_path):
    (tmp_path / "trunc.txt").write_text("*** START OF X ***\nbody\n", encoding="utf-8")
    manifest = tmp_path / "m.csv"
    manifest.write_text("trunc.txt,trunc,fiction,gutenberg\n", encoding="utf-8")
    result = run_cli("corpus", manifest, data_dir=data_dir)
    assert result.returncode == 3


@pytest.mark.parametrize("doc_id", ["corpus", "../escaped"])
def test_corpus_id_that_cannot_name_a_report_file_exits_2(data_dir, corpus_dir, tmp_path, doc_id):
    manifest = corpus_dir / "bad.csv"
    manifest.write_text(
        f"story.txt,story,fiction,plain\ntalk.txt,{doc_id},speech,plain\n",
        encoding="utf-8",
    )
    out = tmp_path / "reports"
    result = run_cli(
        "corpus", manifest, "--format", "structured", "--out", out, data_dir=data_dir
    )
    assert result.returncode == 2
    assert "bad.csv:2:" in result.stderr
    assert not out.exists()
    assert not (tmp_path / "escaped.json").exists()


def test_corpus_id_with_a_nul_byte_exits_2_before_out_is_created(data_dir, tmp_path):
    (tmp_path / "a.txt").write_text("We gather today. Our cause is proven.\n", encoding="utf-8")
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(b"a.txt,bad\0id,speech,plain\n")
    out = tmp_path / "reports"
    result = run_cli("corpus", manifest, "--out", out, data_dir=data_dir)
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert "m.csv:1:" in result.stderr
    assert not out.exists()


def test_corpus_path_with_a_nul_byte_exits_2_naming_the_manifest_line(data_dir, tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(b"a\0.txt,ok,speech,plain\n")
    result = run_cli("corpus", manifest, data_dir=data_dir)
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert "m.csv:1:" in result.stderr
    assert "\0" not in result.stderr


def test_corpus_missing_file_exits_2_before_out_is_created(data_dir, corpus_dir, tmp_path):
    manifest = corpus_dir / "partial.csv"
    manifest.write_text(
        "story.txt,story,fiction,plain\nghost.txt,ghost-id,speech,plain\n",
        encoding="utf-8",
    )
    out = tmp_path / "reports"
    result = run_cli("corpus", manifest, "--out", out, data_dir=data_dir)
    assert result.returncode == 2
    assert "ghost-id" in result.stderr
    assert not out.exists()


def test_corpus_out_naming_a_file_exits_1_without_traceback(data_dir, corpus_dir, tmp_path):
    out = tmp_path / "reports"
    out.write_text("not a directory\n", encoding="utf-8")
    result = run_cli("corpus", corpus_dir / "manifest.csv", "--out", out, data_dir=data_dir)
    assert result.returncode == 1
    assert result.stderr.startswith(f"powertext: error: cannot write {out}: ")
    assert "Traceback" not in result.stderr
    assert out.read_text(encoding="utf-8") == "not a directory\n"


def test_corpus_report_file_that_cannot_be_written_exits_1(data_dir, corpus_dir, tmp_path):
    out = tmp_path / "reports"
    (out / "story.json").mkdir(parents=True)  # a directory where the report goes
    result = run_cli(
        "corpus", corpus_dir / "manifest.csv", "--format", "structured", "--out", out,
        data_dir=data_dir,
    )
    assert result.returncode == 1
    assert result.stderr.startswith(f"powertext: error: cannot write {out / 'story.json'}: ")
    assert "Traceback" not in result.stderr
    assert not (out / "corpus.json").exists()


@pytest.mark.parametrize(
    "name, content, kind, message",
    [
        ("trunc.txt", "*** START OF X ***\nbody\n", "gutenberg", "late:"),
        ("blank.html", "<p> </p>", "html", "cleaned text is empty"),
        # No words, so no readability: present for story, absent here.
        ("marks.txt", "!!! ???\n", "plain", "present for some documents"),
    ],
)
def test_corpus_input_error_while_streaming_exits_3_without_summary(
    data_dir, corpus_dir, tmp_path, name, content, kind, message
):
    (corpus_dir / name).write_text(content, encoding="utf-8")
    manifest = corpus_dir / "late.csv"
    manifest.write_text(
        f"story.txt,story,fiction,plain\n{name},late,fiction,{kind}\n",
        encoding="utf-8",
    )
    out = tmp_path / "reports"
    result = run_cli(
        "corpus", manifest, "--format", "structured", "--out", out, data_dir=data_dir
    )
    assert result.returncode == 3
    assert message in result.stderr
    # Reports already written stay; the summary is never written.
    assert (out / "story.json").is_file()
    assert not (out / "corpus.json").exists()


@pytest.mark.parametrize("fmt", ["markdown", "structured"])
@pytest.mark.parametrize("command", ["analyze", "corpus"])
def test_stdout_pipe_closed_by_its_reader_exits_1_with_one_error_line(
    data_dir, sample_file, corpus_dir, command, fmt
):
    source = sample_file if command == "analyze" else corpus_dir / "manifest.csv"
    read_end, write_end = os.pipe()
    os.close(read_end)  # gone before the child writes a byte
    try:
        result = run_cli(command, source, "--format", fmt, data_dir=data_dir, stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    # One line: no traceback, and no "Exception ignored" at shutdown.
    assert result.stderr.startswith("powertext: error: cannot write standard output: ")
    assert result.stderr.count("\n") == 1


def test_corpus_html_with_a_surrogate_charref_writes_markdown_reports(
    data_dir, corpus_dir, tmp_path
):
    (corpus_dir / "odd.html").write_text(
        "<p>Both &#xD800; and &#xDFFF; stay.</p>", encoding="utf-8"
    )
    manifest = corpus_dir / "odd.csv"
    manifest.write_text("odd.html,odd,marketing,html\n", encoding="utf-8")
    out = tmp_path / "reports"
    result = run_cli("corpus", manifest, "--format", "markdown", "--out", out, data_dir=data_dir)
    assert result.returncode == 0, result.stderr
    assert "Both \ufffd and \ufffd stay." in (out / "odd.md").read_text(encoding="utf-8")


def _corpus_peak_bytes(tmp_path, copies: int) -> int:
    """Peak traced memory of one in-process ``corpus --out`` run over the
    shipped manifest listed ``copies`` times under distinct ids."""
    shipped = load_manifest(data_path(CORPUS_MANIFEST_FILE)).entries
    manifest = tmp_path / f"x{copies}.csv"
    manifest.write_text(
        "".join(
            f"{entry.path},{entry.doc_id}-{copy},{entry.genre},{entry.kind}\n"
            for copy in range(copies)
            for entry in shipped
        ),
        encoding="utf-8",
    )
    tracemalloc.start()
    try:
        status = main(["corpus", str(manifest), "--out", str(tmp_path / f"out-x{copies}")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    return peak


@pytest.mark.parametrize(
    ("command", "loads_corpus"), [("analyze", False), ("corpus", True)]
)
def test_only_the_corpus_command_loads_the_corpus_layer(command, loads_corpus):
    # ``-X importtime`` writes one standard-error line per module the run
    # imports, those imported inside a function included.
    target = data_path(CORPUS_MANIFEST_FILE if loads_corpus else "corpus/gettysburg.txt")
    env = dict(os.environ, PYTHONPATH=str(Path(powertext.__file__).resolve().parent.parent))
    env.pop("POWERTEXT_DATA", None)
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "powertext", command, str(target)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert "powertext.cli" in imported
    assert ("powertext.corpus" in imported) is loads_corpus


def test_corpus_memory_does_not_grow_with_the_corpus(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_DATA_DIR, raising=False)
    small = _corpus_peak_bytes(tmp_path, 2)
    large = _corpus_peak_bytes(tmp_path, 8)
    assert large <= 1.5 * small, (small, large)
