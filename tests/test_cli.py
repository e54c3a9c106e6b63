"""Black-box tests for the command-line interface.

Every test runs the CLI in a subprocess, asserting on exit codes,
stdout/stderr, and written files only — exactly how a user sees it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest


def run_cli(*args, data_dir=None, cwd=None):
    env = dict(os.environ)
    if data_dir is not None:
        env["POWERTEXT_DATA"] = str(data_dir)
    else:
        env.pop("POWERTEXT_DATA", None)
    return subprocess.run(
        [sys.executable, "-m", "powertext", *map(str, args)],
        capture_output=True,
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


def test_corpus_unterminated_markers_exit_3(data_dir, tmp_path):
    (tmp_path / "trunc.txt").write_text("*** START OF X ***\nbody\n", encoding="utf-8")
    manifest = tmp_path / "m.csv"
    manifest.write_text("trunc.txt,trunc,fiction,gutenberg\n", encoding="utf-8")
    result = run_cli("corpus", manifest, data_dir=data_dir)
    assert result.returncode == 3
