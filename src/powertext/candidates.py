"""The candidate index: one scan of a document's key column for the
positions where some analysis stage can start a match.

Power words, sentiment entries, the tagger's phrases, dates and numbers
can each start only at a few keys.  ``StartWords`` holds the union of
those keys for a set of loaded resources; a ``CandidateIndex`` is the
positions of one document whose key is in the union (the postings list of
Manning, Raghavan & Schütze, *Introduction to Information Retrieval*,
ch. 1), found by one C-level scan, and each stage filters that short list
instead of scanning every key.
"""

from __future__ import annotations

from array import array
from itertools import compress, count
from typing import Collection, Iterable, Iterator, Sequence

__all__ = ["StartWords", "CandidateIndex"]

# Stage collections a ``StartWords`` remembers having tested.
_COVERED_MAX = 64


class StartWords:
    """The keys at which some analysis stage can start a match.

    ``words`` is the union of the stages' start words, against which a
    ``CandidateIndex`` scans a document's keys.  ``covers(words)`` tells
    whether a stage's collection of start words lies inside the union.  A
    stage's start words are fixed once its data is loaded, so each
    collection is tested once and then known by its identity (up to 64
    collections are remembered).  Safe to share between threads.
    """

    __slots__ = ("words", "_covered")

    def __init__(self, *parts: Iterable[str]) -> None:
        self.words = frozenset().union(*parts)
        # Keyed by ``id``; holding each collection keeps its id its own.
        self._covered: dict[int, Collection[str]] = {}

    def covers(self, words: Collection[str]) -> bool:
        if id(words) in self._covered:
            return True
        if not self.words.issuperset(words):
            return False
        if len(self._covered) < _COVERED_MAX:
            self._covered[id(words)] = words
        return True


class CandidateIndex:
    """The token positions of one document where a match can start, found
    by one C-level scan of its key column.

    Built from a key sequence such as ``Document.keys``, the stages'
    ``StartWords`` (``starts``) and, for the entity tagger, the document's
    number keys (``numbers``; ``None`` when they were not scanned for):
    ``positions`` is an ``array('q')`` of the positions whose key is in
    either, in order, and ``keys`` holds their keys.  A stage visits
    ``among(words)``, the positions whose key is in ``words``, so it
    filters this short list instead of scanning every key.  ``words``
    must lie inside the start words or be ``numbers``; other words raise
    ``ValueError``, since the positions of their keys were never kept.
    The index keeps the keys as they were when it was built, so a stage
    that masks keys while it runs re-reads the live key at each position.
    """

    __slots__ = ("positions", "keys", "starts", "numbers")

    def __init__(
        self,
        keys: Sequence[str | None],
        starts: StartWords,
        numbers: frozenset[str] | None = None,
    ) -> None:
        wanted = starts.words | numbers if numbers else starts.words
        self.positions = array("q", compress(count(), map(wanted.__contains__, keys)))
        self.keys = list(map(keys.__getitem__, self.positions))
        self.starts = starts
        self.numbers = numbers

    def among(self, words: Collection[str]) -> Iterator[int]:
        """The positions whose key is in ``words``, in order."""
        if words is not self.numbers and not self.starts.covers(words):
            raise ValueError("the candidate index was built for other start words")
        return compress(self.positions, map(words.__contains__, self.keys))
