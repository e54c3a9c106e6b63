"""Seeded inputs for the benchmark workloads.

Every input is built from the data shipped in ``src/powertext/data``: the
nine sample-corpus files (cleaned by the library's own corpus loader) and
the familiar-word list.  The same seed always gives the same input.
"""

from __future__ import annotations

import os
import random
import sys
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# corpus_concat_x40: the seed picks one of CONCAT_ORDERS document orders,
# so that expected.json can hold the output digest of every order.
CONCAT_REPEATS = 40
CONCAT_ORDERS = 16

# corpus_manifest: each shipped file is listed this many times.
MANIFEST_COPIES = 40

# adversarial: one document per case.
NUMBER_RUN_WORDS = 4_000
ONE_WORD_SENTENCES = 40_000
NFD_REPEATS = 5
BIG_TOKEN_CHARS = 2_000_000
LOW_REPETITION_WORDS = 113_000
LOW_REPETITION_SENTENCE_WORDS = 15

_NUMBER_WORDS = (
    "one two three four five six seven eight nine ten eleven twelve thirteen "
    "fourteen fifteen sixteen seventeen eighteen nineteen twenty thirty forty "
    "fifty sixty seventy eighty ninety hundred thousand million billion "
    "twenty-one forty-two sixty-five ninety-nine hundreds thousands millions"
).split()
_ACCENTED = {"a": "á", "e": "é", "i": "ï", "o": "ô", "u": "ü"}


def require_source():
    """Import powertext from this checkout's ``src`` directory, never from an
    installed copy, and return the package.  Exits when the source is absent."""
    if not (SRC / "powertext" / "__init__.py").is_file():
        sys.exit(f"benchmark: no powertext source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import powertext

    if Path(powertext.__file__).resolve().parent != (SRC / "powertext").resolve():
        sys.exit(f"benchmark: powertext was imported from {powertext.__file__}, not {SRC}")
    return powertext


@dataclass(frozen=True)
class ShippedText:
    """One sample-corpus file: its manifest entry and its cleaned text."""

    doc_id: str
    path: Path
    genre: str
    kind: str
    text: str


def shipped_texts() -> list[ShippedText]:
    """The nine sample-corpus files in manifest order, cleaned as the
    ``corpus`` command cleans them."""
    pt = require_source()
    from powertext.defaults import CORPUS_MANIFEST_FILE, data_path

    manifest = pt.load_manifest(data_path(CORPUS_MANIFEST_FILE))
    loaded = pt.load_corpus(manifest)
    return [
        ShippedText(entry.doc_id, entry.path, entry.genre, entry.kind, item.document.raw)
        for entry, item in zip(manifest.entries, loaded)
    ]


def familiar_words() -> list[str]:
    """The shipped familiar-word list, alphabetic words only, sorted."""
    pt = require_source()
    from powertext.defaults import FAMILIAR_WORDS_FILE, data_path

    return sorted(w for w in pt.load_familiar_words(data_path(FAMILIAR_WORDS_FILE)) if w.isalpha())


# ---------------------------------------------------------------------------
# corpus_concat_x40
# ---------------------------------------------------------------------------


def concat_variant(seed: int) -> int:
    return seed % CONCAT_ORDERS


def concat_text(seed: int, texts: list[ShippedText]) -> str:
    """The nine cleaned texts in the seed's order, repeated 40 times."""
    order = list(texts)
    random.Random(concat_variant(seed)).shuffle(order)
    return "\n\n".join([t.text for t in order] * CONCAT_REPEATS)


# ---------------------------------------------------------------------------
# corpus_manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestRow:
    doc_id: str
    source: ShippedText


def manifest_rows(seed: int, texts: list[ShippedText]) -> list[ManifestRow]:
    """Every shipped file MANIFEST_COPIES times under distinct ids, in the
    seed's order."""
    rows = [
        ManifestRow(f"{t.doc_id}-{copy:03d}", t) for t in texts for copy in range(MANIFEST_COPIES)
    ]
    random.Random(seed).shuffle(rows)
    return rows


def manifest_csv(rows: list[ManifestRow], manifest_dir: Path) -> str:
    """Manifest text with paths relative to ``manifest_dir``."""
    lines = ["# path,id,genre,kind"]
    for row in rows:
        rel = Path(os.path.relpath(row.source.path.resolve(), manifest_dir.resolve()))
        lines.append(f"{rel.as_posix()},{row.doc_id},{row.source.genre},{row.source.kind}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# adversarial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversarialCase:
    name: str
    text: str
    # Character range of the number-word run (case number_run only).
    run: tuple[int, int] | None = None


def number_run(rng: random.Random) -> AdversarialCase:
    """NUMBER_RUN_WORDS spelled-out number words in one sentence."""
    run = " ".join(rng.choice(_NUMBER_WORDS) for _ in range(NUMBER_RUN_WORDS))
    return AdversarialCase("number_run", run + ".", run=(0, len(run)))


def one_word_sentences(rng: random.Random, words: list[str]) -> AdversarialCase:
    text = " ".join(rng.choice(words).capitalize() + "." for _ in range(ONE_WORD_SENTENCES))
    return AdversarialCase("one_word_sentences", text)


def nfd_text(rng: random.Random, texts: list[ShippedText]) -> AdversarialCase:
    """Shipped text with a seeded third of its vowels accented, in NFD form
    (each accent a separate combining mark)."""
    order = list(texts)
    rng.shuffle(order)
    plain = "\n\n".join([t.text for t in order] * NFD_REPEATS)
    accented = "".join(
        _ACCENTED[ch] if ch in _ACCENTED and rng.random() < 1 / 3 else ch for ch in plain
    )
    return AdversarialCase("nfd_text", unicodedata.normalize("NFD", accented))


def big_token(rng: random.Random, words: list[str]) -> AdversarialCase:
    """One BIG_TOKEN_CHARS-long word made of familiar words run together."""
    parts: list[str] = []
    size = 0
    while size < BIG_TOKEN_CHARS:
        word = rng.choice(words)
        parts.append(word)
        size += len(word)
    return AdversarialCase("big_token", "".join(parts)[:BIG_TOKEN_CHARS])


def low_repetition(rng: random.Random, words: list[str]) -> AdversarialCase:
    """LOW_REPETITION_WORDS distinct words, each two familiar words joined."""
    seen: set[str] = set()
    joined: list[str] = []
    while len(joined) < LOW_REPETITION_WORDS:
        word = rng.choice(words) + rng.choice(words)
        if word not in seen:
            seen.add(word)
            joined.append(word)
    step = LOW_REPETITION_SENTENCE_WORDS
    sentences = [
        " ".join(joined[i : i + step]).capitalize() + "." for i in range(0, len(joined), step)
    ]
    return AdversarialCase("low_repetition", " ".join(sentences))


def adversarial_cases(seed: int, texts: list[ShippedText], words: list[str]) -> list[AdversarialCase]:
    rng = random.Random(seed)
    return [
        number_run(rng),
        one_word_sentences(rng, words),
        nfd_text(rng, texts),
        big_token(rng, words),
        low_repetition(rng, words),
    ]


# ---------------------------------------------------------------------------
# Input properties
# ---------------------------------------------------------------------------


@dataclass
class InputProperties:
    """Size of one pass over a workload's input.  ``word_types`` sums the
    distinct normalized words of each document, the most a per-document
    type cache could share."""

    documents: int = 0
    chars: int = 0
    word_tokens: int = 0
    word_types: int = 0
    sentences: int = 0
    words_by_document: dict[str, int] = field(default_factory=dict)

    def add(self, doc, normalize, copies: int = 1) -> None:
        words = [tok.text for tok in doc.tokens if tok.is_word]
        self.documents += copies
        self.chars += copies * len(doc.raw)
        self.word_tokens += copies * len(words)
        self.word_types += copies * len({normalize(w) for w in words})
        self.sentences += copies * len(doc.sentences)
        self.words_by_document[doc.doc_id] = len(words)
