"""Locations of the data files shipped with the package.

Every analysis that needs a word list or lexicon defaults to the copies
under the package's ``data/`` directory.  Setting the ``POWERTEXT_DATA``
environment variable points all defaults at another directory holding
files with the same names.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = [
    "ENV_DATA_DIR",
    "POWER_WORDS_FILE",
    "SENTIMENT_LEXICON_FILE",
    "FAMILIAR_WORDS_FILE",
    "SYLLABLE_EXCEPTIONS_FILE",
    "GAZETTEER_FILE",
    "CORPUS_MANIFEST_FILE",
    "data_dir",
    "data_path",
]

ENV_DATA_DIR = "POWERTEXT_DATA"

POWER_WORDS_FILE = "power_words.csv"
SENTIMENT_LEXICON_FILE = "sentiment_lexicon.txt"
FAMILIAR_WORDS_FILE = "familiar_words.txt"
SYLLABLE_EXCEPTIONS_FILE = "syllable_exceptions.tsv"
GAZETTEER_FILE = "gazetteer.txt"
CORPUS_MANIFEST_FILE = "corpus/manifest.csv"


def data_dir() -> Path:
    """Directory holding the default data files.

    The ``POWERTEXT_DATA`` environment variable overrides the shipped
    directory; files are looked up there by the same names.
    """
    override = os.environ.get(ENV_DATA_DIR)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


def data_path(name: str) -> Path:
    """Path of one default data file (``name`` relative to data_dir)."""
    return data_dir() / name
