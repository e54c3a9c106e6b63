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

from functools import cache
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
    first subsequent ``*** END OF`` line.

    Without markers the input comes back unchanged, flagged so callers
    can warn.  A START line without a later END line is an error — that
    means the file was truncated mid-license and cannot be trusted.
    """
    lines = text.splitlines(keepends=True)
    start_index = None
    for index, line in enumerate(lines):
        if _START_MARKER in line:
            start_index = index
            break
    if start_index is None:
        return GutenbergText(text=text, markers_missing=True)

    for index in range(start_index + 1, len(lines)):
        if _END_MARKER in lines[index]:
            return GutenbergText(
                text="".join(lines[start_index + 1 : index]), markers_missing=False
            )
    raise InputTextError(
        f"found {_START_MARKER!r} line but no subsequent {_END_MARKER!r} line"
    )


# ---------------------------------------------------------------------------
# HTML stripping
# ---------------------------------------------------------------------------

_DROP_CONTENT_TAGS = {"script", "style"}
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
# (a surrogate or a code point past U+10FFFF), as in the HTML standard and
# ``html.unescape``: U+FFFD REPLACEMENT CHARACTER, which is not a word.
_REPLACEMENT = "\ufffd"


@cache
def _text_extractor() -> type:
    """The ``HTMLParser`` subclass that ``strip_html`` feeds, made once, on
    first use: ``html.parser`` is imported with the first HTML document."""
    from html.parser import HTMLParser

    class TextExtractor(HTMLParser):
        def __init__(self) -> None:
            super().__init__(convert_charrefs=False)
            self.pieces: list[str] = []
            self._drop_depth = 0

        def handle_starttag(self, tag, attrs):
            if tag in _DROP_CONTENT_TAGS:
                self._drop_depth += 1
            elif tag in _BLOCK_TAGS:
                self.pieces.append("\n")

        def handle_endtag(self, tag):
            if tag in _DROP_CONTENT_TAGS:
                self._drop_depth = max(0, self._drop_depth - 1)
            elif tag in _BLOCK_TAGS:
                self.pieces.append("\n")

        def handle_startendtag(self, tag, attrs):
            if tag in _BLOCK_TAGS:
                self.pieces.append("\n")

        def handle_data(self, data):
            if not self._drop_depth:
                self.pieces.append(data)

        # ``HTMLParser`` passes script and style contents to ``handle_data``
        # as raw text: neither reference handler runs inside them.
        def handle_entityref(self, name):
            decoded = _NAMED_ENTITIES.get(name)
            self.pieces.append(decoded if decoded is not None else f"&{name};")

        def handle_charref(self, name):
            try:
                char = chr(int(name[1:], 16) if name.startswith(("x", "X")) else int(name))
            except (ValueError, OverflowError):
                char = _REPLACEMENT  # past U+10FFFF
            # A surrogate code point is no character: UTF-8 cannot encode it.
            if "\ud800" <= char <= "\udfff":
                char = _REPLACEMENT
            self.pieces.append(char)

    return TextExtractor


def strip_html(html: str) -> str:
    """Markup-free text: tags removed, script/style contents dropped,
    block tags turned into line breaks, the pinned entity set decoded,
    and whitespace normalized (single spaces, single blank lines)."""
    extractor = _text_extractor()()
    extractor.feed(html)
    extractor.close()
    raw = "".join(extractor.pieces)

    lines = [" ".join(line.split()) for line in raw.splitlines()]
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
    ``corpus`` in any case.
    """
    lines = DataLines(source)
    if base_dir is not None:
        root = Path(base_dir)
    elif hasattr(source, "read"):
        root = Path.cwd()
    else:
        root = Path(source).parent

    entries: list[ManifestEntry] = []
    seen_ids: dict[str, int] = {}
    for line in lines:
        raw_path, doc_id, genre, kind = lines.fields(line, ",", 4, "path,id,genre,kind")
        if not raw_path:
            raise lines.error("empty path")
        if "\0" in raw_path:
            raise lines.error(f"path {raw_path!r} contains a NUL")
        if not doc_id:
            raise lines.error("empty id")
        if (
            any(part in doc_id for part in ("/", "\\", "..", "\0"))
            or doc_id.startswith(".")
            or doc_id.lower() == SUMMARY_ID
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
        if doc_id in seen_ids:
            raise lines.error(f"duplicate id {doc_id!r} (first on line {seen_ids[doc_id]})")
        seen_ids[doc_id] = lines.lineno
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
            raise DataFileError(
                f"cannot read corpus file for {entry.doc_id!r}: no such file",
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
