"""Streaming CTC prefix beam search with keyword boosting.

Each beam entry is a token prefix with the usual blank/non-blank
log-probability pair plus additive score components: acoustic mass,
fused language model score, per-word bonus, and keyword boost.  Keeping
the boost in its own component is what makes the n-gram mode exact:
partial unigram boosts steer pruning while streaming, and finalization
overwrites that one component with what the full keyword matches pay.

Prefixes are interned as nodes that point to their parent prefix, and
each beam entry owns the node of its prefix, so extending a prefix
costs the same however long it has grown.  A frame does not, past
about 1,000 frames: equal totals are ordered by tie keys, and each tie
key builds its record's whole token path (see DecoderSession._rank).
On a 2-vCPU Xeon VM, ``push_frames`` took 0.23, 1.03 and 3.55 ms/frame
at 1,000, 4,000 and 16,000 frames, of which ``_rank`` took 0.016, 0.85
and 3.33 (ROADMAP item 17).  The beam is carried from
frame to frame filed under its parent nodes, ``{parent: {token:
entry}}``, so a frame makes one pass per parent: each entry takes its
own blank and repeat masses, makes its child under the frame's top
token and collects the masses that its children already in the beam,
its stay slots, merge in.  A stay slot has one parent prefix, so it
takes at most one merge, added after the pass as ``_log_add(repeat,
merge)``: the sum a plain loop over (parent, token) makes, bit for bit.
A frame ranks light records of the new prefixes with a C-level sort and
builds entries, each with its node, only for the ones the beam keeps,
filing each as it is admitted; equal totals are ordered on the records
too (see DecoderSession._rank).  Records are made behind an exact gate:
once the stay slots and each parent's child under the frame's top token
are ranked, the width-th best total so far is a floor under the beam's
last total.  A parent's word-starting and its continuing children are
then tried in log-prob order, each run up to its first child below that
floor, so outputs do not change.  Each entry holds one state tuple,
what its continuing children inherit, and commits its pending word at
most once, for the word-starting children of every frame it survives
and for finalization.  Each entry also carries its acoustic mass,
summed once per frame.  There is one entry type, ``BeamHypothesis``: a
result is the ranked n-best alone, and an entry builds its token tuple
only when it is read.  A streaming partial holds copies of the beam's
entries, which later frames update in place; the final result holds
the settled entries themselves, which nothing changes after that.
Finalization commits each pending word, settles the boosts and ranks
the beam in place, with the same commit routine and ranking as the
frame loop, so the retraction is exact.  The frame loop makes no
reference cycles, so ``push_frames`` runs with automatic cyclic
collection paused (see paused_collector).

Boost modes
    baseline  no boosting at all
    default   boosted unigrams score at every word commit and keep
              their boost in the final ranking
    ngram     same streaming behavior, but finalization replaces each
              entry's boost with the sum of entry weight x matched words
              over the full keyword matches found in its committed
              words, reading each weight from the trie's ``weights`` table

Scores live in the natural-log domain; language model log10 values are
scaled by ln(10) when fused.
"""

from __future__ import annotations

import functools
import gc
import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from types import MappingProxyType

import numpy as np

from .bias_trie import BiasTrie
from .errors import ConfigError, DataFormatError, as_integer, as_real, as_string
from .lm import NGramLM

LN10 = math.log(10.0)
NEG_INF = float("-inf")
INF = float("inf")

MODES = ("baseline", "default", "ngram")

_NEG_TOTAL = itemgetter(0)  # the sort key of a ranking record
_LOGP = itemgetter(1)  # the sort key of a frame's candidates
_NO_STAYS = MappingProxyType({})  # a parent with no stay slot among its children


def paused_collector(fn):
    """Run ``fn`` with automatic cyclic collection paused.

    What the toolkit allocates sits in no reference cycle, so reference
    counting frees it and the collector would only re-walk the LM
    tables and beam records.  The pause is process-wide.  The caller's
    collector state comes back on return or raise: one it had switched
    off stays off, so nested calls never re-enable it midway.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


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
        for token in self.tokens:
            if not as_string(token, "token"):
                raise ConfigError("empty token in vocabulary")
        as_string(self.boundary_value, "boundary marker")
        if not 0 <= as_integer(self.blank_index, "blank index") < len(self.tokens):
            raise ConfigError(f"blank index {self.blank_index} out of range")
        if self.boundary_kind not in ("delimiter", "prefix"):
            raise ConfigError(f"unknown boundary kind {self.boundary_kind!r}")
        delimiter = self.boundary_value if self.boundary_kind == "delimiter" else None
        if delimiter is not None and delimiter not in self.tokens:
            raise ConfigError(f"delimiter token {delimiter!r} is not in the vocabulary")
        # Blank is never a candidate, so a blank delimiter would close no word.
        if delimiter is not None and self.tokens.index(delimiter) == self.blank_index:
            raise ConfigError(f"delimiter token {delimiter!r} is the blank token")
        if len(set(self.tokens)) != len(self.tokens):
            raise ConfigError("duplicate tokens in vocabulary")
        # A vocabulary file holds one token per line, and reading it
        # breaks lines by str.splitlines, which also breaks at \r,
        # \u2028 and more.  One split checks every text; the marker goes
        # first, as it may be empty.
        texts = (self.boundary_value, *self.tokens)
        if "\n".join(texts).splitlines() != list(texts):
            raise ConfigError("a token or the boundary marker contains a line break")

    @property
    def size(self) -> int:
        return len(self.tokens)

    @cached_property
    def spelling(self) -> tuple[tuple[bool, str], ...]:
        """Per token: does it start a word, and its text.

        The text is what the pending word becomes when the token starts
        a word, or what it gains when the token does not.
        """
        marker = self.boundary_value
        if self.boundary_kind == "delimiter":
            return tuple((t == marker, "" if t == marker else t) for t in self.tokens)
        return tuple(
            (True, t[len(marker):]) if t.startswith(marker) else (False, t)
            for t in self.tokens
        )


@dataclass
class LogitMatrix:
    """T x V natural-log token posteriors, one row per frame.

    The one logits check: real numbers, 2-D, rows normalized.  float32
    data is kept without a copy and any other dtype becomes float64, so
    wrapping never rounds.
    """

    data: np.ndarray

    def __post_init__(self):
        try:
            data = np.asarray(self.data)
        except ValueError:  # rows of unequal length
            raise DataFormatError("logit rows must have equal lengths") from None
        if data.dtype.kind not in "iuf":
            raise DataFormatError(f"logits must be real numbers, got dtype {data.dtype}")
        if data.dtype != np.float32:
            data = data.astype(np.float64, copy=False)
        if data.ndim != 2:
            raise DataFormatError(
                f"logits must be 2-D (frames x tokens), got shape {data.shape}"
            )
        # A huge log-probability overflows to inf, which fails the test below.
        with np.errstate(over="ignore"):
            sums = np.exp(data, dtype=np.float64).sum(axis=1)
        worst = float(np.abs(sums - 1.0).max(initial=0.0))  # NaN stays NaN
        if not worst <= 1e-3:
            raise DataFormatError(f"logit rows are not normalized (max deviation {worst:.2e})")
        self.data = data

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

    def __post_init__(self):
        # Kept as Python numbers: a numpy scalar setting would turn every
        # score into a numpy scalar, slower and, for float32, rounded.
        object.__setattr__(self, "beam_width", as_integer(self.beam_width, "beam width"))
        if self.beam_width < 1:
            raise ConfigError(f"beam width must be >= 1, got {self.beam_width!r}")
        for name in ("lm_weight", "word_bonus", "token_min_logp"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        if not math.isfinite(self.lm_weight) or not math.isfinite(self.word_bonus):
            raise ConfigError("lm_weight and word_bonus must be finite")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if math.isnan(self.token_min_logp) or self.token_min_logp > 0:
            raise ConfigError("token_min_logp must be <= 0 (or -inf to disable)")


class BeamHypothesis:
    """One beam entry: a token prefix and its additive score parts.

    The search updates its own entries in place, so each streaming
    partial holds copies of them (see ``copy``); the final result holds
    the settled entries.  ``node`` is the entry's own prefix
    node, made with the entry; ``tokens`` walks it to the root when it
    is read.  Between frames ``acoustic`` is ``_log_add(log_p_blank,
    log_p_nonblank)``, kept so that each frame computes it once per
    entry.  ``state`` is ``(committed, pending, lm_fused, word_bonus,
    boost)``, what a continuing child inherits; ``start`` is what a
    word-starting child inherits, that state with its pending word
    committed, made at most once per entry (see DecoderSession._start).
    ``boost`` is the entry's one keyword boost: the unigram boosts of its
    committed words while streaming and, after an ngram finalize, what
    its full keyword matches pay.  Entries compare by identity.
    """

    __slots__ = ("node", "log_p_blank", "log_p_nonblank", "acoustic", "state", "start")

    def __init__(self, node, log_p_blank, log_p_nonblank, acoustic, state):
        self.node = node
        self.log_p_blank = log_p_blank
        self.log_p_nonblank = log_p_nonblank
        self.acoustic = acoustic
        self.state = state
        self.start = None

    committed = property(lambda self: self.state[0])
    pending = property(lambda self: self.state[1])
    lm_fused = property(lambda self: self.state[2])
    word_bonus = property(lambda self: self.state[3])
    boost = property(lambda self: self.state[4])

    @property
    def tokens(self) -> tuple[int, ...]:
        return self.node.path()

    @property
    def words(self) -> tuple[str, ...]:
        committed, pending = self.state[:2]
        return committed + (pending,) if pending else committed

    @property
    def total(self) -> float:
        _, _, lm_fused, bonus, boost = self.state
        return self.acoustic + lm_fused + bonus + boost

    def copy(self) -> BeamHypothesis:
        """A snapshot that shares the entry's prefix node and state tuple."""
        return BeamHypothesis(
            self.node, self.log_p_blank, self.log_p_nonblank, self.acoustic, self.state
        )


@dataclass
class DecodeResult:
    """Final or streaming-partial decoder output: the ranked n-best.

    ``words``, ``text`` and ``total`` read the top entry, whose pending
    word is empty after finalization.  Keyword spans come from
    ``inverse_normalize(result.words, mapping)``.
    """

    nbest: list[BeamHypothesis]

    @property
    def words(self) -> tuple[str, ...]:
        return self.nbest[0].words

    @property
    def text(self) -> str:
        return " ".join(self.words)

    @property
    def total(self) -> float:
        return self.nbest[0].total


class _Node:
    """One token prefix: its parent prefix and its last token.

    Each beam entry, and each copy a partial holds, holds its own
    prefix's node.  Children are weakly held, so a branch no entry uses
    is freed, and the frame step looks up a live child before it makes
    one (see DecoderSession._admit), so one prefix never gets two live
    nodes.  Most nodes have one child, held without a dict, which saves
    memory and time: a dict for every node cost decode-long 14% of its
    frames/s and stream-chunks 7% (6 of 6 interleaved pairs lost each,
    2-vCPU Xeon VM).
    """

    __slots__ = ("parent", "token", "children", "__weakref__")

    def __init__(self, parent: _Node | None, token: int | None):
        self.parent = parent
        self.token = token
        # None, a weak reference to the one child, or token -> reference.
        self.children: weakref.ref | dict[int, weakref.ref] | None = None

    def path(self) -> tuple[int, ...]:
        """Tokens from the root to this node."""
        walked = []
        node = self
        while node.parent is not None:
            walked.append(node.token)
            node = node.parent
        walked.reverse()
        return tuple(walked)


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
        self._boosting = config.mode != "baseline"
        self._alpha_ln10 = config.lm_weight * LN10
        self._nonblank = [i for i in range(vocab.size) if i != vocab.blank_index]
        self._spelling = vocab.spelling
        self._result: DecodeResult | None = None
        root = BeamHypothesis(_Node(None, None), 0.0, NEG_INF, 0.0, ((), "", 0.0, 0.0, 0.0))
        self.beams = [root]
        # The beam filed by parent node, {parent: {token: entry}}; the
        # root's parent is None.  See _admit.
        self._stays: dict[_Node | None, dict] = {None: {None: root}}

    # -- frame updates ------------------------------------------------------

    def _step(self, row: list[float]) -> None:
        blank_lp = row[self.vocab.blank_index]
        floor = self.config.token_min_logp
        spelling = self._spelling
        # Tokens below the floor never extend a prefix; blank and
        # repeat transitions of surviving prefixes are kept as is.
        candidates = [
            (tid, row[tid], spelling[tid][0])
            for tid in self._nonblank
            if row[tid] != NEG_INF and row[tid] >= floor
        ]
        candidates.sort(key=_LOGP, reverse=True)
        # Each beam entry is its own stay slot, and a new prefix can only
        # meet a stay slot: a child of its parent that is in the beam.
        # Every other child holds one mass, so its total is final when it
        # is made: rank light records and make entries only for the
        # winners.  A child's record is (-total, token, mass, parent
        # node, state), where state is what it inherits: its parent's
        # state, or for a word-starting child its parent's start; a stay
        # slot's is (-total, slot).  An entry's start is made once (see
        # _start).
        stays = self._stays
        records = []
        opened = []
        merges = []
        if candidates:
            top, top_logp, top_starts = candidates[0]
            starting = [(tid, logp) for tid, logp, starts in candidates[1:] if starts]
            continuing = [(tid, logp) for tid, logp, starts in candidates[1:] if not starts]
        # One pass per parent.  Each entry takes its own blank and repeat
        # masses, collects the masses its children in the beam
        # (``stays[node]``) merge in, and makes its child under the
        # frame's top candidate.  A parent with no stay slot among its
        # children skips the merge loop.
        for hyp in self.beams:
            p_blank = hyp.log_p_blank
            acoustic = hyp.acoustic
            node = hyp.node
            last = node.token
            hyp.log_p_blank = acoustic + blank_lp
            hyp.log_p_nonblank = NEG_INF if last is None else hyp.log_p_nonblank + row[last]
            if acoustic == NEG_INF or not candidates:
                continue
            kids = stays.get(node)
            if kids is None:
                kids = _NO_STAYS
            else:
                for tid, stay in kids.items():
                    logp = row[tid]
                    if logp != NEG_INF and logp >= floor:
                        mass = (p_blank if tid == last else acoustic) + logp
                        # A repeat with no blank mass behind it adds nothing.
                        if mass != NEG_INF:
                            merges.append((stay, mass))
            if top not in kids:
                mass = (p_blank if top == last else acoustic) + top_logp
                # Making a child with no mass would waste a beam slot.
                if mass != NEG_INF:
                    state = (hyp.start or self._start(hyp)) if top_starts else hyp.state
                    _, _, lm_fused, bonus, boost = state
                    records.append((-(mass + lm_fused + bonus + boost), top, mass, node, state))
            opened.append((hyp, p_blank, acoustic, node, last, kids))
        # A stay slot has one parent prefix, so at most one merge, added
        # once its own repeat mass is in.  That is _log_add(repeat,
        # merge), the sum a plain loop over (parent, token) makes, so
        # every mass matches it bit for bit.
        for stay, mass in merges:
            stay.log_p_nonblank = _log_add(stay.log_p_nonblank, mass)
        # A stay slot's masses are now final.
        for hyp in self.beams:
            acoustic = hyp.acoustic = _log_add(hyp.log_p_blank, hyp.log_p_nonblank)
            _, _, lm_fused, bonus, boost = hyp.state
            records.append((-(acoustic + lm_fused + bonus + boost), hyp))
        # Records are only ever added, so the width-th best total so far
        # is at most the beam's final last total: a record below it can
        # neither make the beam nor tie with its edge.  ``bound`` is that
        # total negated, like the sort key.
        width = self.config.beam_width
        records.sort(key=_NEG_TOTAL)
        bound = records[width - 1][0] if len(records) >= width else INF
        # Each parent's other candidates, word-starting and continuing
        # ones as two runs in log-prob order.  The runs stay two loops:
        # one loop over both cost the word-level corpus (tune-grid) 7% of
        # its frames/s (6 of 6 interleaved pairs lost, 2-vCPU Xeon VM).
        # Within a run every non-repeat child adds the same parts to a
        # smaller mass, and IEEE + is monotone, so the first one below the
        # bound closes the run.  A repeat's mass starts from p_blank <=
        # acoustic: it closes nothing, and a closed run holds no repeat
        # that passes.
        for hyp, p_blank, acoustic, node, last, kids in opened:
            if continuing:
                state = hyp.state
                _, _, lm_fused, bonus, boost = state
                for tid, logp in continuing:
                    if tid in kids:
                        continue
                    mass = (p_blank if tid == last else acoustic) + logp
                    if mass == NEG_INF:
                        continue
                    neg_total = -(mass + lm_fused + bonus + boost)
                    if neg_total <= bound:
                        records.append((neg_total, tid, mass, node, state))
                    elif tid != last:
                        break
            start = None
            for tid, logp in starting:
                if tid in kids:
                    continue
                mass = (p_blank if tid == last else acoustic) + logp
                if mass == NEG_INF:
                    continue
                if start is None:
                    start = hyp.start or self._start(hyp)
                    _, _, lm_fused, bonus, boost = start
                neg_total = -(mass + lm_fused + bonus + boost)
                if neg_total <= bound:
                    records.append((neg_total, tid, mass, node, start))
                elif tid != last:
                    break
        # Finalize ranks with the same routine.
        self._admit(self._rank(records, width))

    def _rank(self, records: list[tuple], width: int) -> list[tuple]:
        """The best ``width`` ranking records, best first.

        Higher total first; exact ties prefer fewer words, then the words,
        then the token prefix, so the order is total.  The sort is on the
        total alone, as floats compare fast; only equal totals inside the
        selection or at its edge get tie keys, edge ties included.  A tie
        key walks its record's prefix to the root, so a frame with ties
        costs time in the prefix length.  Past about 1,000 frames ties
        come in most frames, and at 4,000 frames this ranking took 0.85
        of 1.03 ms/frame (ROADMAP item 17).
        """
        records.sort(key=_NEG_TOTAL)
        best = records[:width + 1]
        if len(set(map(_NEG_TOTAL, best))) == len(best):
            return best[:width]
        end = bisect_right(records, best[:width][-1][0], key=_NEG_TOTAL)
        ranked = []
        for _, run in groupby(records[:end], _NEG_TOTAL):
            run = list(run)
            ranked += sorted(run, key=self._tie_key) if len(run) > 1 else run
        return ranked[:width]

    def _tie_key(self, record: tuple) -> tuple:
        """``(len(words), words, tokens)`` of a record's entry, built or not."""
        if len(record) == 2:
            hyp = record[1]
            words, tokens = hyp.words, hyp.tokens
        else:
            _, tid, _, parent, (committed, head, *_) = record
            word = head + self._spelling[tid][1]
            words = committed + (word,) if word else committed
            tokens = parent.path() + (tid,)
        return len(words), words, tokens

    def _admit(self, records: list[tuple]) -> None:
        """Make the records' entries the beam, filed under their parent nodes.

        A stay slot's record holds its entry.  Any other record's entry
        is made here, with the live node of its prefix: a prefix made
        again while its child still lives (the child's node points to
        it) gets its old node back, so one prefix never has two nodes
        and its stay slots stay filed under it.  ``self._stays`` maps
        each parent node to ``{token: entry}`` for the next frame.
        """
        spelling = self._spelling
        beams = []
        stays = {}
        for record in records:
            if len(record) == 2:
                hyp = record[1]
                node = hyp.node
                parent = node.parent
                tid = node.token
            else:
                _, tid, mass, parent, (committed, head, lm_fused, bonus, boost) = record
                refs = parent.children
                ref = refs.get(tid) if type(refs) is dict else refs
                live = ref() if ref is not None else None
                if live is not None and live.token == tid:
                    node = live
                else:
                    node = _Node(parent, tid)
                    if type(refs) is dict:
                        refs[tid] = weakref.ref(node)
                    elif live is None:
                        parent.children = weakref.ref(node)
                    else:
                        parent.children = {live.token: refs, tid: weakref.ref(node)}
                # Its blank mass is -inf, so its acoustic is its one mass.
                hyp = BeamHypothesis(
                    node, NEG_INF, mass, mass,
                    (committed, head + spelling[tid][1], lm_fused, bonus, boost),
                )
            beams.append(hyp)
            siblings = stays.get(parent)
            if siblings is None:
                stays[parent] = {tid: hyp}
            else:
                siblings[tid] = hyp
        self.beams = beams
        self._stays = stays

    def _start(self, hyp: BeamHypothesis) -> tuple:
        """What a word-starting child of ``hyp`` inherits: its pending word committed.

        The commit is LM fusion, the word bonus and the gated unigram
        boost.  An entry's state never changes while it stays in the
        beam, so the result is kept on the entry, and every caller reads
        ``hyp.start or self._start(hyp)``: the frame step makes it at most
        once, and later frames and finalize reuse it.  Checking at the
        call site instead of in here saves a method call per parent per
        frame (tune-grid frames/s 4.0% lower without it, 0 of 6
        interleaved 10 s pairs won, 2-vCPU Xeon VM).
        """
        committed, word, lm_fused, bonus, boost = start = hyp.state
        if word:
            if self.lm is not None:
                lm_fused += self._alpha_ln10 * self.lm.log10_cond(word, committed)
            if self._boosting:
                weight = self.trie.unigram_weight(word)
                if weight is not None:
                    boost += weight
            start = (committed + (word,), "", lm_fused, bonus + self.config.word_bonus, boost)
        hyp.start = start
        return start

    # -- public API ---------------------------------------------------------

    @paused_collector
    def push_frames(self, chunk: LogitMatrix | np.ndarray) -> DecodeResult:
        """Consume a chunk of frames and return the streaming partial."""
        if self._result is not None:
            raise ConfigError("session already finalized")
        data = (chunk if isinstance(chunk, LogitMatrix) else LogitMatrix(chunk)).data
        if data.shape[1] != self.vocab.size:
            raise DataFormatError(
                f"chunk shape {data.shape} does not match vocabulary size "
                f"{self.vocab.size}"
            )
        for row in data:
            self._step(row.tolist())
        # The beam is kept in rank order, so the first entry is the best.
        # Later frames update these entries in place, so the partial holds
        # copies.
        return DecodeResult([hyp.copy() for hyp in self.beams])

    def finalize(self) -> DecodeResult:
        """Commit pending words, settle each entry's boost, rank the beam."""
        if self._result is not None:
            return self._result
        for hyp in self.beams:
            state = hyp.start or self._start(hyp)
            if self.config.mode == "ngram":
                boost = sum(
                    self.trie.weights[m.raw] * (m.end - m.start)
                    for m in self.trie.find_matches(state[0])
                )
                state = state[:4] + (boost,)
            hyp.state = state
        ranked = self._rank([(-h.total, h) for h in self.beams], self.config.beam_width)
        self.beams = [hyp for _, hyp in ranked]
        # Nothing changes the settled entries from here on, so the result
        # holds them, not copies.
        self._result = DecodeResult(self.beams)
        return self._result


# The name callers and the README use for opening a session.
new_session = DecoderSession


def decode(
    logits: LogitMatrix | np.ndarray,
    vocab: Vocabulary,
    config: DecodeConfig,
    lm: NGramLM | None = None,
    trie: BiasTrie | None = None,
) -> DecodeResult:
    """One-shot decode; identical to pushing the frames in any chunking."""
    session = DecoderSession(vocab, config, lm=lm, trie=trie)
    session.push_frames(logits)
    return session.finalize()
