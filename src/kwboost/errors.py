"""Exception types shared across the toolkit, and the one text reader.

Everything raised on bad user input derives from ToolkitError so the
CLI can map it to a data-error exit code in one place.
"""

from __future__ import annotations

from pathlib import Path


class ToolkitError(Exception):
    """Base class for recoverable toolkit errors."""


class NormalizationError(ToolkitError):
    """A keyword cannot be normalized (or a mapping is inconsistent)."""


class ArpaError(ToolkitError):
    """An ARPA language model file is malformed."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
        if line is not None:
            loc += f"{line}:"
        super().__init__(f"{loc} {message}" if loc else message)
        self.path = path
        self.line = line


class DataFormatError(ToolkitError):
    """A data file (logits, vocabulary, manifest, list, ...) is malformed."""


class ConfigError(ToolkitError):
    """A configuration value violates its documented constraints."""


def read_text(path: Path, error: type[ToolkitError] = DataFormatError) -> str:
    """The UTF-8 text of ``path``; I/O and decoding faults raise ``error``."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: {exc}") from None
