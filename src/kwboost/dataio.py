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
from .errors import DataFormatError, read_text

LOGIT_MAGIC = b"CTCL"
LOGIT_VERSION = 1
_HEADER = struct.Struct("<4sIII")


def write_logits(path: str | Path, logits: LogitMatrix | np.ndarray) -> None:
    matrix = logits if isinstance(logits, LogitMatrix) else LogitMatrix(logits)
    frames = np.ascontiguousarray(matrix.data, dtype="<f4")
    header = _HEADER.pack(
        LOGIT_MAGIC, LOGIT_VERSION, matrix.num_frames, matrix.num_tokens
    )
    Path(path).write_bytes(header + frames.tobytes())


def read_logits(path: str | Path) -> LogitMatrix:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
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
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_vocab_file(path: str | Path) -> Vocabulary:
    """Parse a vocabulary file: leading # directives, then one token per line."""
    path = Path(path)
    blank_index: int | None = None
    boundary: tuple[str, str] | None = None
    tokens: list[str] = []
    in_header = True
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if in_header and line.startswith("#"):
            name, _, value = line[1:].partition("=")
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
            continue
        in_header = False
        tokens.append(line)
    while tokens and tokens[-1] == "":
        tokens.pop()
    if blank_index is None:
        raise DataFormatError(f"{path}: missing #blank directive")
    if boundary is None:
        raise DataFormatError(f"{path}: missing #boundary directive")
    try:
        return Vocabulary(tuple(tokens), blank_index, boundary[0], boundary[1])
    except Exception as exc:
        raise DataFormatError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class ManifestEntry:
    utt_id: str
    logits_path: Path
    reference: str


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read an utterance manifest; logit paths resolve against the manifest."""
    path = Path(path)
    base = path.parent
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        try:
            utt_id = record["id"]
            logits = Path(record["logits"])
            reference = record["reference"]
        except (KeyError, TypeError):
            raise DataFormatError(
                f"{path}:{lineno}: manifest records need id, logits, reference"
            ) from None
        # bool is an int subclass; a JSON true is no utterance id.
        if isinstance(utt_id, bool) or not isinstance(utt_id, (str, int)):
            raise DataFormatError(
                f"{path}:{lineno}: utterance id must be a string or an integer, "
                f"got {utt_id!r}"
            )
        if not isinstance(reference, str):
            raise DataFormatError(
                f"{path}:{lineno}: reference must be a string, got {reference!r}"
            )
        utt_id = str(utt_id)
        if utt_id in seen:
            raise DataFormatError(f"{path}:{lineno}: duplicate utterance id {utt_id!r}")
        seen.add(utt_id)
        if not logits.is_absolute():
            logits = base / logits
        entries.append(ManifestEntry(utt_id, logits, reference))
    return entries


def write_manifest(path: str | Path, records: Iterable[dict]) -> None:
    lines = [json.dumps(record, sort_keys=False) for record in records]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_transcripts(path: str | Path) -> dict[str, dict]:
    """Read a decode output file back as id -> record."""
    path = Path(path)
    records: dict[str, dict] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        if not isinstance(record, dict) or "id" not in record:
            raise DataFormatError(f"{path}:{lineno}: expected an object with an id")
        utt_id = str(record["id"])
        if utt_id in records:
            raise DataFormatError(f"{path}:{lineno}: duplicate utterance id {utt_id!r}")
        records[utt_id] = record
    return records
