"""The candidate index: one scan of a document's key column for the
positions where some analysis stage can find a match.

Power words, sentiment entries, the tagger's phrases, dates and numbers
can each be found only at a few keys: a phrase at its anchor, its
longest word, the others at their first word.  ``StartWords`` holds the
union of those keys for a set of loaded resources; a ``CandidateIndex``
is the positions of one document whose key is in the union (the postings
list of Manning, Raghavan & Schütze, *Introduction to Information
Retrieval*, ch. 1), found by one C-level scan, with one stage byte per
position whose bits name the stages' collections that hold its key:
each collection owns one bit, so there are eight at most (the loaded
resources have five).  Each stage picks its positions from that short
list by one ``bytes.translate`` of the stage bytes instead of scanning
every key; only the tagger's number keys are looked up per position.
"""

from __future__ import annotations

from array import array
from itertools import compress, count, repeat
from typing import Collection, Iterator, Sequence

__all__ = ["StartWords", "CandidateIndex"]


class StartWords:
    """The keys at which some analysis stage can find a match.

    ``words`` is the union of its parts, the stages' collections of start
    words, against which a ``CandidateIndex`` scans a document's keys.
    Each distinct part, known by its identity and empty or not, owns one
    bit of a stage byte, so there are eight parts at most (more raise
    ``ValueError``): ``bits`` maps each word to the bits of the parts that
    hold it, built once.  Immutable, so safe to share between threads.
    """

    __slots__ = ("_parts", "_tables", "words", "bits")

    def __init__(self, *parts: Collection[str]) -> None:
        self._parts = parts  # holding each part keeps its id its own
        # ``_tables[id(part)]`` turns a stage byte into 1 when the part's
        # bit is set in it and into 0 when not, for ``bytes.translate``.
        self._tables: dict[int, bytes] = {}
        self.bits: dict[str, int] = {}
        for part in parts:
            if id(part) in self._tables:
                continue
            shift = len(self._tables)
            if shift == 8:
                raise ValueError("start words hold at most eight distinct parts")
            self._tables[id(part)] = bytes(code >> shift & 1 for code in range(256))
            for word in part:
                self.bits[word] = self.bits.get(word, 0) | 1 << shift
        self.words = frozenset().union(*parts)


class CandidateIndex:
    """The token positions of one document where a match can be found,
    picked out by one C-level scan of its key column.

    Built from a key sequence such as ``Document.keys``, the stages'
    ``StartWords`` (``starts``) and, for the entity tagger, the document's
    number keys (``numbers``; ``None`` when they were not scanned for):
    ``positions`` is an ``array('q')`` of the positions whose key is in
    either, in order, ``keys`` holds their keys and ``codes`` their stage
    bytes.  A stage visits ``among(words)``, the positions whose key is
    in ``words``, so it filters this short list instead of scanning every
    key: for a part of the start words, by its bit; for ``numbers``, by a
    lookup per position.  Any other collection raises ``ValueError``,
    even one equal to a part.  The index keeps the keys as they were when
    it was built, so a stage that masks keys while it runs re-reads the
    live key at each position.
    """

    __slots__ = ("positions", "keys", "codes", "starts", "numbers")

    def __init__(
        self,
        keys: Sequence[str | None],
        starts: StartWords,
        numbers: frozenset[str] | None = None,
    ) -> None:
        wanted = starts.words | numbers if numbers else starts.words
        self.positions = array("q", compress(count(), map(wanted.__contains__, keys)))
        self.keys = list(map(keys.__getitem__, self.positions))
        self.codes = bytes(map(starts.bits.get, self.keys, repeat(0)))
        self.starts = starts
        self.numbers = numbers

    def among(self, words: Collection[str]) -> Iterator[int]:
        """The positions whose key is in ``words``, in order."""
        table = self.starts._tables.get(id(words))
        if table is not None:
            return compress(self.positions, self.codes.translate(table))
        if words is None or words is not self.numbers:
            raise ValueError("the candidate index was built for other start words")
        return compress(self.positions, map(words.__contains__, self.keys))
