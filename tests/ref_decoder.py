"""Frozen tuple-keyed prefix beam search, the decoder's differential reference.

This is the straightforward form of ``kwboost.decoder.DecoderSession``:
every hypothesis is a plain ``BeamHypothesis`` record of this file's
own, not the decoder's entry type, keyed by its full token tuple, and
every frame sorts the whole frontier.  It is slow (O(prefix) work per
candidate) but easy to check by eye, so the fast session must
reproduce its beams, n-best lists and totals exactly.  Do not optimise
this file; change it only when the decoder's semantics change on
purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from kwboost.decoder import DecodeResult, LogitMatrix

LN10 = math.log(10.0)
NEG_INF = float("-inf")


def _log_add(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


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
    def boost(self) -> float:
        """The one boost the session's entry holds: one part is always 0.0."""
        return self.partial_boost + self.final_boost

    @property
    def words(self) -> tuple[str, ...]:
        if self.pending:
            return self.committed + (self.pending,)
        return self.committed


def _rank_key(hyp: BeamHypothesis):
    words = hyp.words
    # Higher total first; ties prefer fewer words, then lexicographic
    # words; the token prefix is a last resort so ordering is total.
    return (-hyp.total, len(words), words, hyp.tokens)


class RefSession:
    """Same constructor and public methods as ``DecoderSession``."""

    def __init__(self, vocab, config, lm=None, trie=None):
        self.vocab = vocab
        self.config = config
        self.lm = lm
        self.trie = trie
        self._boosting = config.mode != "baseline" and trie is not None
        self._alpha_ln10 = config.lm_weight * LN10
        self._nonblank = [i for i in range(vocab.size) if i != vocab.blank_index]
        self._result = None
        self.beams = [
            BeamHypothesis(
                tokens=(), log_p_blank=0.0, log_p_nonblank=NEG_INF,
                committed=(), pending="",
            )
        ]

    def _commit_deltas(self, word, context):
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

    def push_frames(self, chunk) -> DecodeResult:
        data = chunk.data if isinstance(chunk, LogitMatrix) else np.asarray(chunk)
        for row in data:
            self._step(row)
        # The beam is sorted by _rank_key, so the first entry is the best.
        return DecodeResult([replace(hyp) for hyp in self.beams])

    def finalize(self) -> DecodeResult:
        if self._result is not None:
            return self._result
        finals = [self._flush(hyp) for hyp in self.beams]
        if self.config.mode == "ngram" and self.trie is not None:
            settled = []
            weights = self.trie.weights
            for hyp in finals:
                matches = self.trie.find_matches(hyp.committed)
                bonus = sum(weights[m.raw] * (m.end - m.start) for m in matches)
                settled.append(replace(hyp, partial_boost=0.0, final_boost=bonus))
            finals = settled
        finals.sort(key=_rank_key)
        self._result = DecodeResult(finals)
        return self._result
