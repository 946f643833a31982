"""Streaming CTC prefix beam search with keyword boosting.

Beams are keyed by token prefix and carry the usual blank/non-blank
log-probability pair plus additive score components: acoustic mass,
fused language model score, per-word bonus, and boost terms.  Keeping
the boost in its own component is what makes the n-gram mode exact:
partial unigram boosts steer pruning while streaming and are then
retracted at finalization, where only full keyword matches are paid.

Boost modes
    baseline  no boosting at all
    default   boosted unigrams score at every word commit and keep
              their boost in the final ranking
    ngram     same streaming behavior, but finalization zeroes the
              partial boosts and adds entry weight x matched words for
              each full keyword match found in the committed words

Scores live in the natural-log domain; language model log10 values are
scaled by ln(10) when fused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .bias_trie import BiasTrie, KeywordMatch
from .errors import ConfigError, DataFormatError
from .lm import NGramLM

LN10 = math.log(10.0)
NEG_INF = float("-inf")

MODES = ("baseline", "default", "ngram")


def _log_add(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


@dataclass(frozen=True)
class Vocabulary:
    """Decoder token inventory and its word boundary convention.

    Two conventions cover the usual CTC units:
      * delimiter: one token is the word separator (its text equals
        ``boundary_value``); other tokens concatenate into the pending
        word.
      * prefix: tokens starting with ``boundary_value`` open a new
        word; an empty marker makes every token its own word.
    """

    tokens: tuple[str, ...]
    blank_index: int
    boundary_kind: str
    boundary_value: str

    def __post_init__(self):
        if not self.tokens:
            raise ConfigError("vocabulary has no tokens")
        if not 0 <= self.blank_index < len(self.tokens):
            raise ConfigError(f"blank index {self.blank_index} out of range")
        if self.boundary_kind not in ("delimiter", "prefix"):
            raise ConfigError(f"unknown boundary kind {self.boundary_kind!r}")
        if self.boundary_kind == "delimiter" and self.boundary_value not in self.tokens:
            raise ConfigError(
                f"delimiter token {self.boundary_value!r} is not in the vocabulary"
            )
        if len(set(self.tokens)) != len(self.tokens):
            raise ConfigError("duplicate tokens in vocabulary")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def words(self, token_ids: Sequence[int]) -> list[str]:
        """Detokenize a collapsed token sequence into words."""
        committed: list[str] = []
        pending = ""
        for tid in token_ids:
            if tid == self.blank_index:
                continue
            text = self.tokens[tid]
            if self.boundary_kind == "delimiter":
                if text == self.boundary_value:
                    if pending:
                        committed.append(pending)
                    pending = ""
                else:
                    pending += text
            elif text.startswith(self.boundary_value):
                if pending:
                    committed.append(pending)
                pending = text[len(self.boundary_value):]
            else:
                pending += text
        if pending:
            committed.append(pending)
        return committed


def _check_rows(data: np.ndarray) -> None:
    """Reject rows that are not normalized log distributions (NaN too)."""
    if data.shape[0]:
        sums = np.exp(data.astype(np.float64)).sum(axis=1)
        worst = float(np.abs(sums - 1.0).max())
        if not worst <= 1e-3:
            raise DataFormatError(
                f"logit rows are not normalized (max deviation {worst:.2e})"
            )


@dataclass
class LogitMatrix:
    """T x V natural-log token posteriors, one row per frame."""

    data: np.ndarray
    frame_duration_s: float | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise DataFormatError(
                f"logits must be 2-D (frames x tokens), got shape {self.data.shape}"
            )
        _check_rows(self.data)

    @property
    def num_frames(self) -> int:
        return int(self.data.shape[0])

    @property
    def num_tokens(self) -> int:
        return int(self.data.shape[1])


@dataclass(frozen=True)
class DecodeConfig:
    """Knobs for one decoding run.

    token_min_logp prunes extension tokens below the floor (about
    ln 1e-4 by default).  Boost weights live in the bias trie.
    """

    beam_width: int = 50
    lm_weight: float = 0.5
    word_bonus: float = 1.5
    mode: str = "baseline"
    token_min_logp: float = -9.21
    flat_final_boost: bool = False

    def __post_init__(self):
        if self.beam_width < 1:
            raise ConfigError(f"beam width must be >= 1, got {self.beam_width}")
        if not math.isfinite(self.lm_weight) or not math.isfinite(self.word_bonus):
            raise ConfigError("lm_weight and word_bonus must be finite")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if math.isnan(self.token_min_logp) or self.token_min_logp > 0:
            raise ConfigError("token_min_logp must be <= 0 (or -inf to disable)")


@dataclass
class BeamHypothesis:
    """One beam entry: a token prefix and its additive score parts."""

    tokens: tuple[int, ...]
    log_p_blank: float
    log_p_nonblank: float
    committed: tuple[str, ...]
    pending: str
    lm_fused: float = 0.0
    word_bonus: float = 0.0
    partial_boost: float = 0.0
    final_boost: float = 0.0

    @property
    def acoustic(self) -> float:
        return _log_add(self.log_p_blank, self.log_p_nonblank)

    @property
    def total(self) -> float:
        return (
            self.acoustic
            + self.lm_fused
            + self.word_bonus
            + self.partial_boost
            + self.final_boost
        )

    @property
    def words(self) -> tuple[str, ...]:
        if self.pending:
            return self.committed + (self.pending,)
        return self.committed


@dataclass
class DecodeResult:
    """Final or streaming-partial decoder output.

    ``partials`` records the best words and total after each pushed
    chunk; it is a trace, not part of the canonical result, so any
    chunking of the same frames yields the same words/nbest/matches.
    """

    words: tuple[str, ...]
    nbest: list[BeamHypothesis]
    matches: list[KeywordMatch]
    partials: list[tuple[tuple[str, ...], float]]
    final: bool

    @property
    def text(self) -> str:
        return " ".join(self.words)

    @property
    def total(self) -> float:
        return self.nbest[0].total if self.nbest else 0.0


def _rank_key(hyp: BeamHypothesis):
    words = hyp.words
    # Higher total first; ties prefer fewer words, then lexicographic
    # words; the token prefix is a last resort so ordering is total.
    return (-hyp.total, len(words), words, hyp.tokens)


class DecoderSession:
    """Incremental decoding state: push frame chunks, then finalize."""

    def __init__(
        self,
        vocab: Vocabulary,
        config: DecodeConfig,
        lm: NGramLM | None = None,
        trie: BiasTrie | None = None,
    ):
        if config.mode != "baseline" and trie is None:
            raise ConfigError(f"mode {config.mode!r} requires a bias trie")
        self.vocab = vocab
        self.config = config
        self.lm = lm
        self.trie = trie
        self._boosting = config.mode != "baseline" and trie is not None
        self._alpha_ln10 = config.lm_weight * LN10
        self._nonblank = [i for i in range(vocab.size) if i != vocab.blank_index]
        self._trace: list[tuple[tuple[str, ...], float]] = []
        self._result: DecodeResult | None = None
        self.beams: list[BeamHypothesis] = [
            BeamHypothesis(
                tokens=(), log_p_blank=0.0, log_p_nonblank=NEG_INF,
                committed=(), pending="",
            )
        ]

    # -- scoring ----------------------------------------------------------

    def _commit_deltas(self, word: str, context: tuple[str, ...]):
        lm_delta = 0.0
        if self.lm is not None:
            lm_delta = self._alpha_ln10 * self.lm.log10_cond(word, context)
        boost = 0.0
        if self._boosting:
            weight = self.trie.unigram_weight(word)
            if weight is not None:
                boost = weight
        return lm_delta, self.config.word_bonus, boost

    def _extend(self, parent: BeamHypothesis, token_id: int) -> BeamHypothesis:
        """New hypothesis for parent + token, with word-commit scoring."""
        text = self.vocab.tokens[token_id]
        committed, pending = parent.committed, parent.pending
        lm_fused, word_bonus, partial_boost = (
            parent.lm_fused, parent.word_bonus, parent.partial_boost,
        )
        if self.vocab.boundary_kind == "delimiter":
            starts_word = text == self.vocab.boundary_value
        else:
            starts_word = text.startswith(self.vocab.boundary_value)
        if starts_word:
            if pending:
                dlm, dbonus, dboost = self._commit_deltas(pending, committed)
                committed = committed + (pending,)
                lm_fused += dlm
                word_bonus += dbonus
                partial_boost += dboost
            if self.vocab.boundary_kind == "delimiter":
                pending = ""
            else:
                pending = text[len(self.vocab.boundary_value):]
        else:
            pending = pending + text
        return BeamHypothesis(
            tokens=parent.tokens + (token_id,),
            log_p_blank=NEG_INF,
            log_p_nonblank=NEG_INF,
            committed=committed,
            pending=pending,
            lm_fused=lm_fused,
            word_bonus=word_bonus,
            partial_boost=partial_boost,
        )

    def _flush(self, hyp: BeamHypothesis) -> BeamHypothesis:
        """Commit the pending partial word at end of stream."""
        if not hyp.pending:
            return hyp
        dlm, dbonus, dboost = self._commit_deltas(hyp.pending, hyp.committed)
        return replace(
            hyp,
            committed=hyp.committed + (hyp.pending,),
            pending="",
            lm_fused=hyp.lm_fused + dlm,
            word_bonus=hyp.word_bonus + dbonus,
            partial_boost=hyp.partial_boost + dboost,
        )

    # -- frame updates ------------------------------------------------------

    def _step(self, row: np.ndarray) -> None:
        blank = self.vocab.blank_index
        blank_lp = float(row[blank])
        floor = self.config.token_min_logp
        candidates = []
        for tid in self._nonblank:
            logp = float(row[tid])
            # Tokens below the floor never extend a prefix; blank and
            # repeat transitions of surviving prefixes are kept as is.
            if logp == NEG_INF or logp < floor:
                continue
            candidates.append((tid, logp))
        frontier: dict[tuple[int, ...], BeamHypothesis] = {}

        def stay_slot(parent: BeamHypothesis) -> BeamHypothesis:
            slot = frontier.get(parent.tokens)
            if slot is None:
                slot = replace(parent, log_p_blank=NEG_INF, log_p_nonblank=NEG_INF)
                frontier[parent.tokens] = slot
            return slot

        for parent in self.beams:
            acoustic = parent.acoustic
            slot = stay_slot(parent)
            slot.log_p_blank = _log_add(slot.log_p_blank, acoustic + blank_lp)
            last = parent.tokens[-1] if parent.tokens else None
            if last is not None:
                slot.log_p_nonblank = _log_add(
                    slot.log_p_nonblank, parent.log_p_nonblank + float(row[last])
                )
            for tid, logp in candidates:
                if tid == last:
                    mass = parent.log_p_blank + logp
                else:
                    mass = acoustic + logp
                # A repeat with no blank mass behind it contributes
                # nothing; creating the child would waste a beam slot.
                if mass == NEG_INF:
                    continue
                child_key = parent.tokens + (tid,)
                child = frontier.get(child_key)
                if child is None:
                    child = self._extend(parent, tid)
                    frontier[child_key] = child
                child.log_p_nonblank = _log_add(child.log_p_nonblank, mass)

        ranked = sorted(frontier.values(), key=_rank_key)
        self.beams = ranked[: self.config.beam_width]

    # -- public API ---------------------------------------------------------

    def push_frames(self, chunk: LogitMatrix | np.ndarray) -> DecodeResult:
        """Consume a chunk of frames and return the streaming partial."""
        if self._result is not None:
            raise ConfigError("session already finalized")
        checked = isinstance(chunk, LogitMatrix)
        data = chunk.data if checked else np.asarray(chunk)
        if data.ndim != 2 or data.shape[1] != self.vocab.size:
            raise DataFormatError(
                f"chunk shape {data.shape} does not match vocabulary size "
                f"{self.vocab.size}"
            )
        if not checked:
            _check_rows(data)
        for row in data:
            self._step(row)
        best = min(self.beams, key=_rank_key)
        self._trace.append((best.words, best.total))
        nbest = [replace(hyp) for hyp in self.beams]
        return DecodeResult(
            words=best.words,
            nbest=nbest,
            matches=[],
            partials=list(self._trace),
            final=False,
        )

    def finalize(self) -> DecodeResult:
        """Flush pending words, settle boost components, rank the beam."""
        if self._result is not None:
            return self._result
        finals = [self._flush(hyp) for hyp in self.beams]
        if self.config.mode == "ngram" and self.trie is not None:
            settled = []
            for hyp in finals:
                matches = self.trie.find_matches(hyp.committed)
                if self.config.flat_final_boost:
                    bonus = sum(m.weight for m in matches)
                else:
                    bonus = sum(m.weight * (m.end - m.start) for m in matches)
                settled.append(replace(hyp, partial_boost=0.0, final_boost=bonus))
            finals = settled
        finals.sort(key=_rank_key)
        top = finals[0]
        matches = self.trie.find_matches(top.committed) if self.trie else []
        self._result = DecodeResult(
            words=top.committed,
            nbest=finals,
            matches=matches,
            partials=list(self._trace),
            final=True,
        )
        return self._result


def new_session(
    vocab: Vocabulary,
    config: DecodeConfig,
    lm: NGramLM | None = None,
    trie: BiasTrie | None = None,
) -> DecoderSession:
    """Open a streaming decode session (single empty prefix, mass 1)."""
    return DecoderSession(vocab, config, lm=lm, trie=trie)


def decode(
    logits: LogitMatrix | np.ndarray,
    vocab: Vocabulary,
    config: DecodeConfig,
    lm: NGramLM | None = None,
    trie: BiasTrie | None = None,
) -> DecodeResult:
    """One-shot decode; identical to pushing the frames in any chunking."""
    session = new_session(vocab, config, lm=lm, trie=trie)
    session.push_frames(logits)
    return session.finalize()
