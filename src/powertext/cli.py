"""Command-line interface.

Two subcommands: ``analyze`` runs the enabled analysis sections over a
single UTF-8 text file; ``corpus`` runs them over every file in a
manifest and reports per-genre aggregates, optionally writing one
report file per document into ``--out``.

``corpus`` streams: it reads, analyses and writes one document at a
time and keeps only the three results per document that the genre
means need, so its memory does not grow with the corpus and each
report file appears as soon as its document is done.  The summary is
written last.

Exit codes: 0 success, 1 usage error, or standard output, an ``--out``
directory or a report file that cannot be created or written (a reader
that closed the pipe early included), 2 data-file error, 3
input-text error.  Usage errors, bad manifest or data files and a
missing corpus file are found before ``--out`` is created.  An error found only by
reading a corpus file (unreadable: 2; an unterminated ebook marker
pair or an empty cleaned text: 3), or a section the genre means find
for some documents of a genre but not for others (3), can leave the
reports of earlier documents in ``--out``, but never the summary.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import __version__
from .defaults import (
    ENV_DATA_DIR,
    FAMILIAR_WORDS_FILE,
    GAZETTEER_FILE,
    POWER_WORDS_FILE,
    SENTIMENT_LEXICON_FILE,
)
from .errors import DataFileError, InputTextError
from .powerwords import CategoryDistribution
from .readability import ReadabilityReport
from .report import (
    ALL_SECTIONS,
    AnalysisConfig,
    AnalysisReport,
    analyze,
    load_resources,
    render_corpus_markdown,
    render_markdown,
    render_structured,
)
from .sentiment import SentimentScore
from .textcore import build_document

if TYPE_CHECKING:  # ``_cmd_corpus`` loads the corpus layer; ``analyze`` never does
    from .corpus import GenreAggregate

__all__ = ["main", "build_parser"]

PROG = "powertext"


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with status 1 on usage errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sections_arg(value: str) -> frozenset[str]:
    """The names in a comma-separated list; AnalysisConfig checks them."""
    return frozenset(part.strip() for part in value.split(",") if part.strip())


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lexicon",
        type=Path,
        default=None,
        metavar="PATH",
        help=f"power-word lexicon CSV (default: shipped {POWER_WORDS_FILE})",
    )
    parser.add_argument(
        "--sentiment",
        type=Path,
        default=None,
        metavar="PATH",
        help=f"sentiment lexicon (default: shipped {SENTIMENT_LEXICON_FILE})",
    )
    parser.add_argument(
        "--familiar",
        type=Path,
        default=None,
        metavar="PATH",
        help=f"familiar-word list (default: shipped {FAMILIAR_WORDS_FILE})",
    )
    parser.add_argument(
        "--gazetteer",
        type=Path,
        default=None,
        metavar="PATH",
        help=f"entity gazetteer (default: shipped {GAZETTEER_FILE})",
    )
    parser.add_argument(
        "--sections",
        type=_sections_arg,
        default=frozenset(ALL_SECTIONS),
        metavar="S1,S2",
        help=f"comma-separated sections to run (default: all of {','.join(ALL_SECTIONS)})",
    )
    parser.add_argument(
        "--format",
        choices=("structured", "markdown"),
        default="markdown",
        help="output format (default: markdown; structured is deterministic JSON)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Text analysis: readability, power words, sentiment, entities.",
        epilog=(
            f"The {ENV_DATA_DIR} environment variable overrides the directory "
            "default data files are loaded from."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze_parser = subparsers.add_parser(
        "analyze", help="analyze one UTF-8 text file"
    )
    analyze_parser.add_argument("file", type=Path, help="text file to analyze")
    _add_common_flags(analyze_parser)
    analyze_parser.set_defaults(func=_cmd_analyze)

    corpus_parser = subparsers.add_parser(
        "corpus", help="analyze every document in a manifest and aggregate by genre"
    )
    corpus_parser.add_argument(
        "manifest", type=Path, help="manifest of path,id,genre,kind lines"
    )
    _add_common_flags(corpus_parser)
    corpus_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="write per-document reports and the aggregate summary into DIR",
    )
    corpus_parser.set_defaults(func=_cmd_corpus)
    return parser


def _config_from(args: argparse.Namespace) -> AnalysisConfig:
    return AnalysisConfig(
        lexicon_path=args.lexicon,
        sentiment_path=args.sentiment,
        familiar_path=args.familiar,
        gazetteer_path=args.gazetteer,
        sections=args.sections,
    )


def _render(
    payload: AnalysisReport | list[GenreAggregate], output_format: str
) -> tuple[str, bytes]:
    """The file extension and the UTF-8 bytes of one report or of the
    genre aggregates, in the ``--format`` the user chose."""
    if output_format == "structured":
        return "json", render_structured(payload)
    if isinstance(payload, AnalysisReport):
        return "md", render_markdown(payload).encode("utf-8")
    return "md", render_corpus_markdown(payload).encode("utf-8")


class _CannotWrite(Exception):
    """Standard output, ``--out`` or a report file in it could not be
    created or written."""

    def __init__(self, path: Path | str, exc: OSError) -> None:
        super().__init__(f"cannot write {path}: {exc.strerror or exc}")


def _write_stdout(data: bytes) -> None:
    try:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    except OSError as exc:
        # The bytes left in the buffer would fail again, as an "Exception
        # ignored" message, when the interpreter flushes it at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _CannotWrite("standard output", exc) from exc


def _cmd_analyze(args: argparse.Namespace, config: AnalysisConfig) -> int:
    try:
        text = args.file.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputTextError(f"cannot read input file: {exc}") from exc
    doc = build_document(args.file.stem, text)
    _extension, data = _render(analyze(doc, config), args.format)
    _write_stdout(data)
    return 0


def _write_out(path: Path, data: bytes) -> None:
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise _CannotWrite(path, exc) from exc


class _AggregateRow(NamedTuple):
    """What ``aggregate`` reads of one report, so the report and its
    document can be dropped as soon as the report is written."""

    readability: ReadabilityReport | None
    power_distribution: CategoryDistribution | None
    sentiment: SentimentScore | None


def _cmd_corpus(args: argparse.Namespace, config: AnalysisConfig) -> int:
    from .corpus import SUMMARY_ID, aggregate, iter_corpus, load_manifest

    manifest = load_manifest(args.manifest)
    resources = load_resources(config)
    documents = iter_corpus(manifest)  # checks every file before any read
    if args.out is not None:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _CannotWrite(args.out, exc) from exc
    rows: list[tuple[_AggregateRow, str]] = []
    for item in documents:
        report = analyze(
            item.document, config, resources=resources, extra_warnings=item.warnings
        )
        if args.out is not None:
            extension, data = _render(report, args.format)
            _write_out(args.out / f"{report.doc_id}.{extension}", data)
        row = _AggregateRow(report.readability, report.power_distribution, report.sentiment)
        rows.append((row, item.genre))

    extension, data = _render(aggregate(rows), args.format)
    if args.out is None:
        _write_stdout(data)
    else:
        _write_out(args.out / f"{SUMMARY_ID}.{extension}", data)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return args.func(args, config)
    except DataFileError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except InputTextError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 3
    except _CannotWrite as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
