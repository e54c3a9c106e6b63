"""Exception types shared across the package."""

from __future__ import annotations


class PowertextError(Exception):
    """Base class for all errors raised by this package."""


class DataFileError(PowertextError):
    """A lexicon, word list, gazetteer, or manifest failed to load.

    Carries the offending source name and, when known, the 1-based line
    number so callers can point at the broken line.  The message shows a
    source name that is not printable as its ``repr``.
    """

    def __init__(self, message: str, *, source: str | None = None, line: int | None = None):
        self.source = source
        self.line = line
        prefix = ""
        if source is not None:
            prefix = source if source.isprintable() else repr(source)
            if line is not None:
                prefix += f":{line}"
            prefix += ": "
        super().__init__(prefix + message)


class InputTextError(PowertextError):
    """The analyzed text itself is unusable (empty, letterless, too short)."""
