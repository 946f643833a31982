"""On-disk formats: binary logits, vocabulary files, JSONL manifests.

Logit files are little-endian: magic ``CTCL``, u32 version (1), u32
frame count, u32 token count, then float32 natural-log probabilities
in row-major order.  Manifests and transcript files are JSON lines.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .decoder import LogitMatrix, Vocabulary
from .errors import ConfigError, DataFormatError, read_lines, read_text, write_text

LOGIT_MAGIC = b"CTCL"
LOGIT_VERSION = 1
_HEADER = struct.Struct("<4sIII")


def write_logits(path: str | Path, logits: LogitMatrix | np.ndarray) -> None:
    matrix = logits if isinstance(logits, LogitMatrix) else LogitMatrix(logits)
    frames = np.ascontiguousarray(matrix.data, dtype="<f4")
    header = _HEADER.pack(
        LOGIT_MAGIC, LOGIT_VERSION, matrix.num_frames, matrix.num_tokens
    )
    try:
        Path(path).write_bytes(header + frames.tobytes())
    except (OSError, ValueError) as exc:  # ValueError: NUL in path
        raise ConfigError(f"{path}: {exc}") from None


def read_logits(path: str | Path) -> LogitMatrix:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: NUL in path
        raise DataFormatError(f"{path}: {exc}") from None
    if len(blob) < _HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    magic, version, n_frames, n_tokens = _HEADER.unpack_from(blob)
    if magic != LOGIT_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if version != LOGIT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 4 * n_frames * n_tokens
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: expected {expected} bytes for {n_frames}x{n_tokens}, "
            f"got {len(blob)}"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
    data = data.reshape(n_frames, n_tokens).copy()
    try:
        return LogitMatrix(data)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def write_vocab_file(path: str | Path, vocab: Vocabulary) -> None:
    lines = [
        f"#blank={vocab.blank_index}",
        f"#boundary={vocab.boundary_kind}:{vocab.boundary_value}",
    ]
    lines.extend(vocab.tokens)
    write_text(Path(path), "".join(line + "\n" for line in lines))


def read_vocab_file(path: str | Path) -> Vocabulary:
    """Parse a vocabulary file: leading # directives, then one token per line.

    The header ends once both directives are read, so a token may start
    with ``#``.  Trailing blank lines are dropped; any other blank line
    is an error, as no token is empty.
    """
    path = Path(path)
    blank_index: int | None = None
    boundary: tuple[str, str] | None = None
    tokens: list[str] = []
    in_header = True
    lines = read_text(path).splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, 1):
        if in_header and line.startswith("#"):
            name, _, value = line[1:].partition("=")
            if {"blank": blank_index, "boundary": boundary}.get(name) is not None:
                raise DataFormatError(f"{path}:{lineno}: repeated #{name} directive")
            if name == "blank":
                try:
                    blank_index = int(value)
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: bad blank index {value!r}"
                    ) from None
            elif name == "boundary":
                kind, sep, marker = value.partition(":")
                if not sep or kind not in ("delimiter", "prefix"):
                    raise DataFormatError(
                        f"{path}:{lineno}: bad boundary directive {value!r}"
                    )
                boundary = (kind, marker)
            else:
                raise DataFormatError(f"{path}:{lineno}: unknown directive {name!r}")
            in_header = blank_index is None or boundary is None
            continue
        in_header = False
        if not line:
            raise DataFormatError(f"{path}:{lineno}: empty token line")
        tokens.append(line)
    if blank_index is None:
        raise DataFormatError(f"{path}: missing #blank directive")
    if boundary is None:
        raise DataFormatError(f"{path}: missing #boundary directive")
    try:
        return Vocabulary(tuple(tokens), blank_index, boundary[0], boundary[1])
    except Exception as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def utterance_id(value: object) -> str:
    """The one utterance-id rule: a string, or an integer that is not a bool."""
    # bool is an int subclass; a JSON true is no utterance id.
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"utterance id must be a string or an integer, got {value!r}")
    return str(value)


@dataclass(frozen=True)
class ManifestEntry:
    utt_id: str
    logits_path: Path
    reference: str


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read an utterance manifest; logit paths resolve against the manifest."""
    path = Path(path)
    entries: dict[str, ManifestEntry] = {}

    def parse(line: str) -> None:
        record = json.loads(line)
        try:
            utt_id = utterance_id(record["id"])
            logits = path.parent / record["logits"]
            reference = record["reference"]
        except (KeyError, TypeError):
            raise ValueError("manifest records need id, logits, reference") from None
        if not isinstance(reference, str):
            raise ValueError(f"reference must be a string, got {reference!r}")
        if utt_id in entries:
            raise ValueError(f"duplicate utterance id {utt_id!r}")
        entries[utt_id] = ManifestEntry(utt_id, logits, reference)

    read_lines(path, parse)
    return list(entries.values())


def write_manifest(path: str | Path, records: Iterable[dict]) -> None:
    lines = [json.dumps(record, sort_keys=False) for record in records]
    write_text(Path(path), "".join(line + "\n" for line in lines))


def read_transcripts(path: str | Path) -> dict[str, dict]:
    """Read a decode output file back as id -> record."""
    path = Path(path)
    records: dict[str, dict] = {}

    def parse(line: str) -> None:
        record = json.loads(line)
        if not isinstance(record, dict) or "id" not in record:
            raise ValueError("expected an object with an id")
        utt_id = utterance_id(record["id"])
        if utt_id in records:
            raise ValueError(f"duplicate utterance id {utt_id!r}")
        records[utt_id] = record

    read_lines(path, parse)
    return records
