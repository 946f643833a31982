"""Exception types shared across the toolkit, its text file I/O and its scalar input rules.

Everything raised on bad user input derives from ToolkitError so the
CLI can map it to a data-error exit code in one place.  ``read_text``
reads every text file and ``write_text`` writes every text file the
toolkit produces, and ``check_output`` keeps an output off its inputs;
``read_lines`` runs every line-oriented format
(manifests, transcripts, keyword lists, exceptions, fixture specs)
through one loop, one skip rule and one ``<path>:<line>:`` error
location.  ``as_real``, ``as_integer``, ``as_string`` and ``as_weight``
are the scalar input rules every setting and record field follows: each
names the value and raises the error class its caller passes, ConfigError
for a setting or ValueError inside a ``read_lines`` parser, and a bool is
never a number.  A plain float or int skips the ABC check, the slow part,
as set-up runs these once per keyword.
"""

from __future__ import annotations

import math
import numbers
from pathlib import Path
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")


class ToolkitError(Exception):
    """Base class for recoverable toolkit errors."""


class NormalizationError(ToolkitError):
    """A keyword cannot be normalized (or a mapping is inconsistent)."""


class DataFormatError(ToolkitError):
    """A data file (logits, vocabulary, manifest, list, ...) is malformed."""


class ArpaError(DataFormatError):
    """An ARPA language model file is malformed."""


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


def check_output(out: str | Path | None, inputs: Iterable[str | Path | None]) -> None:
    """Reject an output path that names one of the inputs, before any work.

    Only an existing regular file can be overwritten; ``samefile`` also
    catches a symlink or another spelling of the same path.
    """
    if out is None or not Path(out).is_file():
        return
    for path in inputs:
        try:
            same = path is not None and Path(out).samefile(path)
        except (OSError, ValueError):  # a missing input is no clash
            continue
        if same:
            raise ConfigError(f"output {out} would overwrite the input {path}")


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


def as_real(value: object, name: str, error: type[Exception] = ConfigError) -> float:
    """``value`` as a float: a real number that is not a bool."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} is too large for a float, got {value!r}") from None


def as_integer(value: object, name: str, error: type[Exception] = ConfigError) -> int:
    """``value`` as an int: an integer that is not a bool."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_string(value: object, name: str, error: type[Exception] = ConfigError) -> str:
    """``value`` itself when it is a string."""
    if not isinstance(value, str):
        raise error(f"{name} must be a string, got {value!r}")
    return value


def as_weight(
    value: object, name: str = "keyword weight", error: type[Exception] = ConfigError
) -> float:
    """A boost weight as a float: a real number, finite and >= 0."""
    value = as_real(value, name, error)
    if not 0.0 <= value < math.inf:
        raise error(f"{name} must be finite and >= 0, got {value}")
    return value
