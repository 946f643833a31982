"""Exception types shared across the toolkit, and its text file I/O.

Everything raised on bad user input derives from ToolkitError so the
CLI can map it to a data-error exit code in one place.  ``read_text``
reads every text file and ``write_text`` writes every ``--out`` file;
``read_lines`` runs every line-oriented format (manifests, transcripts,
keyword lists, exceptions, fixture specs) through one loop, one skip
rule and one ``<path>:<line>:`` error location.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")


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
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, NUL in path
        raise error(f"{path}: {exc}") from None


def write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; I/O faults raise ConfigError."""
    try:
        path.write_text(text, encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: NUL in path
        raise ConfigError(f"{path}: {exc}") from None


def read_lines(
    path: Path, parse: Callable[[str], T], comments: bool = False
) -> list[T]:
    """``parse`` of each line of ``path`` that is not blank.

    With ``comments``, lines whose first non-blank character is ``#``
    are skipped too.  A ValueError from ``parse`` (json.JSONDecodeError
    included) becomes a DataFormatError located at ``<path>:<line>``.
    """
    values = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        stripped = line.lstrip()
        if not stripped or (comments and stripped.startswith("#")):
            continue
        try:
            values.append(parse(line))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return values
