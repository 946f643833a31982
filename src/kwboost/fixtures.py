"""Synthetic logit corpora for experiments and tests.

Each utterance spec names a target word sequence and how confidently
the fake acoustic model "hears" each word.  Confusions divert a chosen
slice of probability mass to a competing token, which is how
rare-keyword-nearly-lost cases are manufactured; traps place a tempting
non-blank alternative inside separator frames to provoke insertions.

Every word gets one content frame followed by one separator frame, so
repeated words survive CTC collapse.  Generation is deterministic for
a given seed, byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataio import utterance_id, write_logits, write_manifest, write_vocab_file
from .decoder import LogitMatrix, Vocabulary
from .errors import ConfigError, DataFormatError, read_lines

BLANK_TOKEN = "<blank>"

# Mass not claimed by the target/alternative goes mostly to blank with
# a jittered remainder over a few distractor tokens, so rows stay
# normalized without making every token reachable.
_BLANK_SHARE = 0.8
_MAX_DISTRACTORS = 8


@dataclass
class Trap:
    """Insertion bait after word ``after``: alt vs blank, ``count`` times."""

    after: int
    alt: str
    prob: float
    count: int = 1


@dataclass
class UtteranceSpec:
    utt_id: str
    words: list[str]
    reference: str
    confidence: list[float]
    confusions: dict[str, tuple[str, float]] = field(default_factory=dict)
    traps: list[Trap] = field(default_factory=list)


def load_fixture_spec(path: str | Path) -> list[UtteranceSpec]:
    """Read utterance specs from JSON lines, one ``parse_spec`` record each."""

    def parse(line: str) -> UtteranceSpec:
        try:
            return parse_spec(json.loads(line))
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from None
        except (TypeError, OverflowError) as exc:
            raise ValueError(exc) from None

    return read_lines(Path(path), parse, comments=True)


def _string(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def _integer(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def parse_spec(record: dict) -> UtteranceSpec:
    """One utterance spec from its record; out-of-range values raise ValueError.

    Fields: id (string or integer, filename-safe), text (string),
    reference (string, defaults to text), confidence (one number or one
    per word in (0, 1], default 0.95), confusions ([{word, alt, prob}],
    prob finite and > 0) and traps ([{after, alt, prob, count}], prob in
    (0, 0.9], count an integer >= 1, default 1).
    """
    utt_id = utterance_id(record["id"])
    if not utt_id or any(sep in utt_id for sep in "/\\\0"):
        raise ValueError(f"utterance id {utt_id!r} is not filename-safe")
    text = _string(record["text"], "text")
    words = text.split()
    if not words:
        raise ValueError("empty text")
    confidence = record.get("confidence", 0.95)
    if isinstance(confidence, list):
        confidence = [_number(c, "confidence") for c in confidence]
        if len(confidence) != len(words):
            raise ValueError(
                f"{len(confidence)} confidences for {len(words)} words"
            )
    else:
        confidence = [_number(confidence, "confidence")] * len(words)
    confusions = {}
    for item in record.get("confusions", []):
        word = _string(item["word"], "confusion word")
        prob = _number(item["prob"], "confusion probability")
        if not 0.0 < prob < math.inf:
            raise ValueError(f"confusion probability {prob} outside (0, inf)")
        confusions[word] = (_string(item["alt"], "confusion alt"), prob)
    traps = [
        Trap(
            after=_integer(item["after"], "trap after"),
            alt=_string(item["alt"], "trap alt"),
            prob=_number(item["prob"], "trap probability"),
            count=_integer(item.get("count", 1), "trap count"),
        )
        for item in record.get("traps", [])
    ]
    for trap in traps:
        if not 0 <= trap.after < len(words):
            raise ValueError(f"trap after={trap.after} outside utterance")
        if not 0.0 < trap.prob <= 0.9:
            raise ValueError(f"trap probability {trap.prob} outside (0, 0.9]")
        if trap.count < 1:
            raise ValueError(f"trap count {trap.count} is below 1")
    for i, (word, conf) in enumerate(zip(words, confidence)):
        claimed = conf + (confusions[word][1] if word in confusions else 0.0)
        if not 0 < conf <= 1 or claimed > 1:
            raise ValueError(f"word {i} claims probability {claimed}")
    return UtteranceSpec(
        utt_id=utt_id,
        words=words,
        reference=_string(record.get("reference", text), "reference"),
        confidence=confidence,
        confusions=confusions,
        traps=traps,
    )


def _build_vocab(specs: Sequence[UtteranceSpec]) -> Vocabulary:
    words: set[str] = set()
    for spec in specs:
        words.update(spec.words)
        words.update(alt for alt, _ in spec.confusions.values())
        words.update(trap.alt for trap in spec.traps)
    tokens = (BLANK_TOKEN,) + tuple(sorted(words))
    # Whole-word tokens: an empty prefix marker opens a word per token.
    return Vocabulary(tokens, blank_index=0, boundary_kind="prefix", boundary_value="")


def _spread(
    probs: np.ndarray,
    leftover: float,
    taken: Sequence[int],
    rng: np.random.Generator,
) -> None:
    """Assign leftover mass: most to blank, jitter over a few distractors."""
    others = [i for i in range(1, len(probs)) if i not in taken]
    rng.shuffle(others)
    distractors = others[:_MAX_DISTRACTORS]
    probs[0] += leftover * _BLANK_SHARE
    rest = leftover * (1.0 - _BLANK_SHARE)
    if not distractors:
        probs[0] += rest
        return
    jitter = rng.random(len(distractors)) + 0.5
    jitter /= jitter.sum()
    for index, share in zip(distractors, jitter):
        probs[index] += rest * share


def _utterance_logits(
    spec: UtteranceSpec, vocab: Vocabulary, rng: np.random.Generator
) -> LogitMatrix:
    index = {token: i for i, token in enumerate(vocab.tokens)}
    rows: list[np.ndarray] = []

    def content_row(word: str, conf: float) -> np.ndarray:
        probs = np.zeros(len(vocab.tokens), dtype=np.float64)
        taken = [index[word]]
        probs[index[word]] = conf
        leftover = 1.0 - conf
        if word in spec.confusions:
            alt, alt_prob = spec.confusions[word]
            probs[index[alt]] += alt_prob
            taken.append(index[alt])
            leftover -= alt_prob
        _spread(probs, leftover, taken, rng)
        return probs

    def separator_row(trap: Trap | None = None) -> np.ndarray:
        probs = np.zeros(len(vocab.tokens), dtype=np.float64)
        if trap is None:
            probs[0] = 0.97
            _spread(probs, 0.03, [0], rng)
        else:
            probs[index[trap.alt]] = trap.prob
            probs[0] = 1.0 - trap.prob - 0.01
            _spread(probs, 0.01, [0, index[trap.alt]], rng)
        return probs

    traps_after: dict[int, list[Trap]] = {}
    for trap in spec.traps:
        traps_after.setdefault(trap.after, []).append(trap)

    for i, (word, conf) in enumerate(zip(spec.words, spec.confidence)):
        rows.append(content_row(word, conf))
        rows.append(separator_row())
        for trap in traps_after.get(i, []):
            for _ in range(trap.count):
                rows.append(separator_row(trap))
                rows.append(separator_row())
    data = np.stack(rows)
    # Tiny floor avoids -inf rows while keeping sums at 1.
    data = np.maximum(data, 0.0) + 1e-12
    data /= data.sum(axis=1, keepdims=True)
    return LogitMatrix(np.log(data).astype(np.float32))


@dataclass(frozen=True)
class FixtureSet:
    manifest_path: Path
    vocab_path: Path
    logit_paths: tuple[Path, ...]


def make_fixtures(
    specs: Sequence[UtteranceSpec] | str | Path,
    out_dir: str | Path,
    seed: int = 0,
) -> FixtureSet:
    """Write logit files, a manifest, and a vocabulary under out_dir."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if isinstance(specs, (str, Path)):
        specs = load_fixture_spec(specs)
    if not specs:
        raise DataFormatError("fixture spec is empty")
    ids = [spec.utt_id for spec in specs]
    if len(set(ids)) != len(ids):
        raise DataFormatError("duplicate utterance ids in fixture spec")
    out_dir = Path(out_dir)
    try:
        (out_dir / "logits").mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: NUL in path
        raise ConfigError(f"{out_dir}: {exc}") from None
    vocab = _build_vocab(specs)
    vocab_path = out_dir / "vocab.txt"
    write_vocab_file(vocab_path, vocab)
    rng = np.random.default_rng(seed)
    records = []
    logit_paths = []
    for spec in specs:
        matrix = _utterance_logits(spec, vocab, rng)
        rel = Path("logits") / f"{spec.utt_id}.ctcl"
        write_logits(out_dir / rel, matrix)
        logit_paths.append(out_dir / rel)
        records.append(
            {"id": spec.utt_id, "logits": str(rel), "reference": spec.reference}
        )
    manifest_path = out_dir / "manifest.jsonl"
    write_manifest(manifest_path, records)
    return FixtureSet(manifest_path, vocab_path, tuple(logit_paths))
