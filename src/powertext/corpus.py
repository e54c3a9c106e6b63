"""Corpus loading (boilerplate/markup stripping, manifests) and
genre-level aggregation.

A corpus is described by a manifest of ``path,id,genre,kind`` lines,
read by ``textcore.DataLines``.
Each file is cleaned according to its kind — ebook boilerplate stripped
between the ``*** START OF`` / ``*** END OF`` marker lines, HTML reduced
to text, plain text passed through — then tokenized into a Document.
``iter_corpus`` yields these one at a time, so a caller can analyse and
drop each document before the next file is read; ``load_corpus`` is the
list of them.  Aggregation averages per-document percentages and scores
(mean of percentages, not pooled counts, so long texts don't dominate a
genre); it reads only three fields of each report, so a caller need not
keep the reports themselves.
"""

from __future__ import annotations

import re
from math import fsum
from pathlib import Path
from typing import (
    IO, TYPE_CHECKING, Any, Callable, Iterator, Mapping, NamedTuple, Sequence,
)

from .errors import DataFileError, InputTextError
from .powerwords import CategoryDistribution, PowerCategory
from .readability import READABILITY_INDICES
from .textcore import DataLines, Document, build_document

if TYPE_CHECKING:  # import only for annotations; no runtime dependency
    from .report import AnalysisReport

__all__ = [
    "GENRES",
    "SOURCE_KINDS",
    "GutenbergText",
    "ManifestEntry",
    "CorpusManifest",
    "CorpusDocument",
    "GenreAggregate",
    "strip_gutenberg_boilerplate",
    "strip_html",
    "load_manifest",
    "iter_corpus",
    "load_corpus",
    "aggregate",
]

GENRES = ("fiction", "speech", "marketing")
SOURCE_KINDS = ("gutenberg", "html", "plain")

_START_MARKER = "*** START OF"
_END_MARKER = "*** END OF"
_LINE_BREAK = re.compile(r"\r\n?|\n")

WARN_MISSING_MARKERS = "gutenberg-markers-missing"

# The ``corpus`` command names each report file after its document id and
# the genre summary after this one, which no manifest id may take.
SUMMARY_ID = "corpus"


# ---------------------------------------------------------------------------
# Boilerplate stripping
# ---------------------------------------------------------------------------


class GutenbergText(NamedTuple):
    """Stripping result: the cleaned text and a missing-markers flag."""

    text: str
    markers_missing: bool


def strip_gutenberg_boilerplate(text: str) -> GutenbergText:
    """Content strictly between the first ``*** START OF`` line and the
    first subsequent ``*** END OF`` line, as a slice of ``text``.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as for every data file; a
    form feed or another character ``str.splitlines`` also breaks at is
    part of its line.  Without markers the input comes back unchanged,
    flagged so callers can warn.  A START line without a later END line
    is an error — that means the file was truncated mid-license and
    cannot be trusted.
    """
    start = text.find(_START_MARKER)
    if start < 0:
        return GutenbergText(text=text, markers_missing=True)
    line_break = _LINE_BREAK.search(text, start)
    body_start = line_break.end() if line_break else len(text)
    end = text.find(_END_MARKER, body_start)
    if end < 0:
        raise InputTextError(
            f"found {_START_MARKER!r} line but no subsequent {_END_MARKER!r} line"
        )
    # The END line starts after the last line break before its marker.
    body_end = max(
        body_start, text.rfind("\n", body_start, end) + 1, text.rfind("\r", body_start, end) + 1
    )
    return GutenbergText(text=text[body_start:body_end], markers_missing=False)


# ---------------------------------------------------------------------------
# HTML stripping
# ---------------------------------------------------------------------------

_BLOCK_TAGS = {
    "p", "div", "br", "li", "ul", "ol", "table", "tr", "td", "th",
    "h1", "h2", "h3", "h4", "h5", "h6", "blockquote", "pre", "hr",
    "section", "article", "header", "footer", "title",
}
# Only this named-entity set is decoded; anything else passes through
# as literal text (permissive handling of unknown references).
_NAMED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": " ",
}


# What a numeric character reference that names no character decodes to
# (NUL, a surrogate or a code point past U+10FFFF), as in the HTML standard
# and ``html.unescape``: U+FFFD REPLACEMENT CHARACTER, which is not a word.
_REPLACEMENT = "\ufffd"

# A character reference, its ";" optional, or the opening of markup.  A "&"
# or "<" that opens neither is text.
_REFERENCE_OR_MARKUP = re.compile(
    r"&(?:#[xX](?P<hex>[0-9a-fA-F]+)|#(?P<dec>[0-9]+)|(?P<name>[a-zA-Z][a-zA-Z0-9]*));?"
    r"|<(?:(?P<slash>/?)(?P<tag>[a-zA-Z][^\s/>]*)|(?P<comment>!(?=--))|(?P<declaration>[!?/]))"
)
# Where markup ends, read from just after its opening: the "<!" of a comment
# (so "<!-->" is one), a tag's name, and the "<!", "<?" or "</" of the rest.
# A tag ends at the first ">" outside a quoted attribute value (a quote opens
# one only after "="); no character can match two ways, so none is read twice.
_MARKUP_END = {
    "tag": re.compile(r"""[^>=]*(?:=(?:\s*"[^"]*"|\s*'[^']*'|(?!\s*["']))[^>=]*)*>""").match,
    "comment": re.compile("-->").search,
    "declaration": re.compile(">").search,
}
_RAW_TEXT_END = {name: re.compile(rf"</{name}\s*>", re.IGNORECASE) for name in ("script", "style")}


def _reference_text(found: re.Match[str]) -> str:
    """The text a character reference stands for: a name of the pinned set
    decoded, any other name as written, and a number as in the HTML
    standard and ``html.unescape``."""
    hex_digits, digits, name = found.group("hex", "dec", "name")
    if name is not None:
        return _NAMED_ENTITIES.get(name, found.group())
    try:
        code = int(hex_digits, 16) if hex_digits is not None else int(digits)
    except ValueError:  # more decimal digits than ``int`` converts
        return _REPLACEMENT
    if 0x80 <= code <= 0x9F:  # windows-1252, whose five gaps stay themselves
        return bytes([code]).decode("cp1252", "ignore") or chr(code)
    # A surrogate code point is no character: UTF-8 cannot encode it.
    if code == 0 or 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
        return _REPLACEMENT
    return chr(code)


def strip_html(html: str) -> str:
    """Markup-free text: tags removed, script/style contents dropped,
    block tags turned into line breaks, the pinned entity set decoded,
    and whitespace normalized (single spaces, single blank lines).

    One scan: markup that never closes leaves the rest of the input as text.
    """
    pieces: list[str] = []
    pos = 0
    while (found := _REFERENCE_OR_MARKUP.search(html, pos)) is not None:
        pieces.append(html[pos:found.start()])
        pos = found.end()
        markup_end = _MARKUP_END.get(found.lastgroup)
        if markup_end is None:
            pieces.append(_reference_text(found))
        elif (closed := markup_end(html, pos)) is None:  # the rest of the input is text
            pos = found.start()
            break
        else:
            pos = closed.end()
            name = (found.group("tag") or "").lower()
            if name in _BLOCK_TAGS:
                pieces.append("\n")
            elif name in _RAW_TEXT_END and not found.group("slash"):
                raw_end = _RAW_TEXT_END[name].search(html, pos)
                pos = raw_end.end() if raw_end else len(html)
    pieces.append(html[pos:])

    lines = [" ".join(line.split()) for line in "".join(pieces).splitlines()]
    normalized: list[str] = []
    for line in lines:
        if line:
            normalized.append(line)
        elif normalized and normalized[-1]:
            normalized.append("")  # keep a single blank line between blocks
    while normalized and not normalized[-1]:
        normalized.pop()
    return "\n".join(normalized)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


class ManifestEntry(NamedTuple):
    path: Path
    doc_id: str
    genre: str
    kind: str


class CorpusManifest(NamedTuple):
    entries: tuple[ManifestEntry, ...]


def load_manifest(
    source: str | Path | IO[str] | IO[bytes], base_dir: str | Path | None = None
) -> CorpusManifest:
    """Parse a ``path,id,genre,kind`` manifest, given as a path or as a
    text or UTF-8 byte stream.

    Relative paths resolve against ``base_dir`` when given, else the
    manifest's own directory, or the working directory for a stream.
    Duplicate ids, unknown genres or kinds, a path with a NUL, and
    malformed lines are errors naming the line.  So is an id that could
    not be a report file name inside the ``--out`` directory: one that
    contains ``/``, ``\\``, ``..`` or a NUL, starts with ``.``, or is
    ``corpus``.  Ids are compared ignoring case, as a report file name is
    on a case-insensitive file system.
    """
    lines = DataLines(source)
    if base_dir is not None:
        root = Path(base_dir)
    elif hasattr(source, "read"):
        root = Path.cwd()
    else:
        root = Path(source).parent

    entries: list[ManifestEntry] = []
    # Casefolded id -> (line, id) of its first entry.
    seen_ids: dict[str, tuple[int, str]] = {}
    for line in lines:
        raw_path, doc_id, genre, kind = lines.fields(line, ",", 4, "path,id,genre,kind")
        if not raw_path:
            raise lines.error("empty path")
        if "\0" in raw_path:
            raise lines.error(f"path {raw_path!r} contains a NUL")
        if not doc_id:
            raise lines.error("empty id")
        folded = doc_id.casefold()
        if (
            any(part in doc_id for part in ("/", "\\", "..", "\0"))
            or doc_id.startswith(".")
            or folded == SUMMARY_ID
        ):
            raise lines.error(
                f"id {doc_id!r} cannot name a report file: it may not contain "
                f"'/', '\\', '..' or a NUL, start with '.', or be {SUMMARY_ID!r}"
            )
        if genre not in GENRES:
            raise lines.error(f"unknown genre {genre!r} (expected one of {', '.join(GENRES)})")
        if kind not in SOURCE_KINDS:
            raise lines.error(
                f"unknown kind {kind!r} (expected one of {', '.join(SOURCE_KINDS)})"
            )
        first_line, first_id = seen_ids.setdefault(folded, (lines.lineno, doc_id))
        if first_line != lines.lineno:
            as_first = "" if first_id == doc_id else f" as {first_id!r}, ignoring case"
            raise lines.error(f"duplicate id {doc_id!r} (first on line {first_line}{as_first})")
        file_path = Path(raw_path)
        if not file_path.is_absolute():
            file_path = root / file_path
        entries.append(
            ManifestEntry(path=file_path, doc_id=doc_id, genre=genre, kind=kind)
        )

    if not entries:
        raise lines.error("manifest contains no entries")
    return CorpusManifest(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


class CorpusDocument(NamedTuple):
    """A cleaned, tokenized corpus file with its genre and any
    cleaning warnings."""

    document: Document
    genre: str
    warnings: tuple[str, ...] = ()


def iter_corpus(manifest: CorpusManifest) -> Iterator[CorpusDocument]:
    """Read, clean, and tokenize the manifest entries one at a time, in
    order.

    Every entry's path is checked to name a file when this is called,
    before any file is read, so a missing file fails before the first
    document.  Errors found only by reading (an unreadable file, an
    unterminated marker pair, an empty cleaned text) are raised when
    that entry is reached.
    """
    for entry in manifest.entries:
        if not entry.path.is_file():
            problem = "not a regular file" if entry.path.exists() else "no such file"
            raise DataFileError(
                f"cannot read corpus file for {entry.doc_id!r}: {problem}",
                source=str(entry.path),
            )
    return map(_load_entry, manifest.entries)


def load_corpus(manifest: CorpusManifest) -> list[CorpusDocument]:
    """Read, clean, and tokenize every manifest entry, order preserved."""
    return list(iter_corpus(manifest))


def _load_entry(entry: ManifestEntry) -> CorpusDocument:
    """One manifest entry, read, cleaned by its kind, and tokenized."""
    try:
        raw = entry.path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFileError(
            f"cannot read corpus file for {entry.doc_id!r}: {exc}",
            source=str(entry.path),
        ) from exc

    warnings: tuple[str, ...] = ()
    if entry.kind == "gutenberg":
        try:
            stripped = strip_gutenberg_boilerplate(raw)
        except InputTextError as exc:
            raise InputTextError(f"{entry.doc_id}: {exc}") from exc
        text = stripped.text
        if stripped.markers_missing:
            warnings = (WARN_MISSING_MARKERS,)
    elif entry.kind == "html":
        text = strip_html(raw)
    else:
        text = raw

    document = build_document(entry.doc_id, text)
    if not document.tokens:
        raise InputTextError(f"{entry.doc_id}: cleaned text is empty")
    return CorpusDocument(document=document, genre=entry.genre, warnings=warnings)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class GenreAggregate(NamedTuple):
    """Arithmetic means of every per-document metric within one genre.

    Sections that were disabled for all of the genre's reports are None.
    """

    genre: str
    document_count: int
    mean_flesch_reading_ease: float | None
    mean_flesch_kincaid_grade: float | None
    mean_smog_index: float | None
    mean_gunning_fog: float | None
    mean_coleman_liau: float | None
    mean_ari: float | None
    mean_dale_chall: float | None
    mean_distribution: Mapping[PowerCategory, float] | None
    mean_polarity: float | None
    mean_subjectivity: float | None


def _fmean(values: list[float]) -> float:
    """The mean of ``values`` as ``statistics.fmean`` computes it."""
    return fsum(values) / len(values)


def _mean_or_none(
    values: list, what: str, genre: str, mean: Callable[[list], Any] = _fmean
) -> Any:
    """``mean`` of ``values`` when every one is present, None when none is."""
    present = [value for value in values if value is not None]
    if not present:
        return None
    if len(present) != len(values):
        raise InputTextError(
            f"cannot aggregate {what} for genre {genre!r}: "
            "present for some documents but not others"
        )
    return mean(present)


def _mean_distribution(
    distributions: list[CategoryDistribution],
) -> dict[PowerCategory, float]:
    return {
        category: _fmean([d.percentages[category] for d in distributions])
        for category in PowerCategory
    }


def aggregate(
    reports: Sequence[tuple["AnalysisReport", str]]
) -> list[GenreAggregate]:
    """Genre-level means over per-document reports.

    Only each report's ``readability``, ``power_distribution`` and
    ``sentiment`` are read, so any object with those three attributes
    serves in place of an ``AnalysisReport``.  Returns one aggregate per
    genre present, in the fixed genre order.  Distribution averaging is
    mean-of-percentages.  A section must be present for all documents of
    a genre or absent for all of them.
    """
    if not reports:
        raise InputTextError("cannot aggregate zero reports")
    by_genre: dict[str, list["AnalysisReport"]] = {}
    for report, genre in reports:
        if genre not in GENRES:
            raise InputTextError(f"unknown genre {genre!r}")
        by_genre.setdefault(genre, []).append(report)

    aggregates: list[GenreAggregate] = []
    for genre in GENRES:
        group = by_genre.get(genre)
        if not group:
            continue
        readings = [r.readability for r in group]
        scores = [r.sentiment for r in group]
        reading_means = {
            f"mean_{attr}": _mean_or_none(
                [None if x is None else getattr(x, attr) for x in readings],
                label.lower(),
                genre,
            )
            for attr, _key, label, _grade in READABILITY_INDICES
        }
        aggregates.append(
            GenreAggregate(
                genre=genre,
                document_count=len(group),
                **reading_means,
                mean_distribution=_mean_or_none(
                    [r.power_distribution for r in group],
                    "power distribution",
                    genre,
                    mean=_mean_distribution,
                ),
                mean_polarity=_mean_or_none(
                    [None if x is None else x.polarity for x in scores],
                    "polarity",
                    genre,
                ),
                mean_subjectivity=_mean_or_none(
                    [None if x is None else x.subjectivity for x in scores],
                    "subjectivity",
                    genre,
                ),
            )
        )
    return aggregates
