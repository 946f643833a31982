"""Word error rate scoring split by biasing-list membership.

Errors are attributed word by word: substitutions and deletions follow
the reference word's membership in the biasing vocabulary, insertions
follow the hypothesis word's.  B-WER divides biased errors by biased
reference words, U-WER the rest; multi-word biasing phrases contribute
each of their written-form words to the biased vocabulary.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataFormatError, write_text


@dataclass(frozen=True)
class EditOp:
    """One alignment step; ref/hyp are None for ins/del respectively."""

    kind: str  # "match" | "sub" | "del" | "ins"
    ref: str | None
    hyp: str | None


def align(ref: Sequence[str], hyp: Sequence[str]) -> list[EditOp]:
    """Minimal edit-distance alignment with a deterministic backtrace.

    Ties break in favor of match, then substitution, then deletion,
    then insertion, so equal-cost alignments always come out the same.
    """
    n, m = len(ref), len(hyp)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        row = dist[i]
        prev = dist[i - 1]
        for j in range(1, m + 1):
            same = ref[i - 1] == hyp[j - 1]
            row[j] = min(
                prev[j - 1] + (0 if same else 1),
                prev[j] + 1,
                row[j - 1] + 1,
            )
    ops: list[EditOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and dist[i][j] == dist[i - 1][j - 1]:
            ops.append(EditOp("match", ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + 1:
            ops.append(EditOp("sub", ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append(EditOp("del", ref[i - 1], None))
            i -= 1
        else:
            ops.append(EditOp("ins", None, hyp[j - 1]))
            j -= 1
    ops.reverse()
    return ops


@dataclass
class ErrorCounts:
    sub_biased: int = 0
    sub_unbiased: int = 0
    del_biased: int = 0
    del_unbiased: int = 0
    ins_biased: int = 0
    ins_unbiased: int = 0

    @property
    def biased(self) -> int:
        return self.sub_biased + self.del_biased + self.ins_biased

    @property
    def unbiased(self) -> int:
        return self.sub_unbiased + self.del_unbiased + self.ins_unbiased

    @property
    def total(self) -> int:
        return self.biased + self.unbiased


def _rate(errors: int, words: int) -> float | None:
    """Percentage rate; None when there are no reference words."""
    if words == 0:
        return None
    return 100.0 * errors / words


class _Rates:
    """Rates of a scope with ``ref_words``, ``biased_ref_words`` and ``errors``."""

    @property
    def unbiased_ref_words(self) -> int:
        return self.ref_words - self.biased_ref_words

    @property
    def wer(self) -> float | None:
        return _rate(self.errors.total, self.ref_words)

    @property
    def u_wer(self) -> float | None:
        return _rate(self.errors.unbiased, self.unbiased_ref_words)

    @property
    def b_wer(self) -> float | None:
        return _rate(self.errors.biased, self.biased_ref_words)


def rounded_rates(scope: _Rates) -> dict[str, float | None]:
    """WER, U-WER and B-WER of ``scope`` to 2 decimals, as every report writes them."""
    rates = {"wer": scope.wer, "u_wer": scope.u_wer, "b_wer": scope.b_wer}
    return {name: None if value is None else round(value, 2) for name, value in rates.items()}


@dataclass
class UtteranceScore(_Rates):
    utt_id: str
    ref_words: int
    biased_ref_words: int
    errors: ErrorCounts


@dataclass
class KeywordStat:
    term: str
    occurrences: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.occurrences - self.hits


@dataclass
class ScoreReport(_Rates):
    """A corpus's scores.  Its totals are sums over its utterance rows, so
    ``ScoreReport(rows)`` over any subset of the rows is that subset's
    report.  Keyword stats are corpus-level: a subset's report has none.
    """

    utterances: list[UtteranceScore]
    keywords: list[KeywordStat] = field(default_factory=list)

    @property
    def ref_words(self) -> int:
        return sum(utt.ref_words for utt in self.utterances)

    @property
    def biased_ref_words(self) -> int:
        return sum(utt.biased_ref_words for utt in self.utterances)

    @property
    def errors(self) -> ErrorCounts:
        # Each row's counts in field order; summed per field, without the
        # per-row tuple copies of ``dataclasses.astuple``.
        rows = (vars(utt.errors).values() for utt in self.utterances)
        return ErrorCounts(*(sum(column) for column in zip(*rows)))

    def to_dict(self) -> dict:
        def counts(err: ErrorCounts) -> dict:
            return {
                "substitutions": {"biased": err.sub_biased, "unbiased": err.sub_unbiased},
                "deletions": {"biased": err.del_biased, "unbiased": err.del_unbiased},
                "insertions": {"biased": err.ins_biased, "unbiased": err.ins_unbiased},
                "biased": err.biased,
                "unbiased": err.unbiased,
                "total": err.total,
            }

        return {
            "corpus": {
                "ref_words": self.ref_words,
                "biased_ref_words": self.biased_ref_words,
                "unbiased_ref_words": self.unbiased_ref_words,
                "errors": counts(self.errors),
                **rounded_rates(self),
            },
            "utterances": [
                {
                    "id": utt.utt_id,
                    "ref_words": utt.ref_words,
                    "biased_ref_words": utt.biased_ref_words,
                    "errors": counts(utt.errors),
                    **rounded_rates(utt),
                }
                for utt in self.utterances
            ],
            "keywords": [
                {
                    "term": stat.term,
                    "occurrences": stat.occurrences,
                    "hits": stat.hits,
                    "misses": stat.misses,
                }
                for stat in self.keywords
            ],
        }

    def save(self, path: str | Path) -> None:
        write_text(Path(path), json.dumps(self.to_dict(), indent=2) + "\n")


def _phrase_occurrences(words: list[str], phrase: list[str]) -> list[int]:
    """Non-overlapping leftmost start indices of phrase inside words."""
    starts: list[int] = []
    i = 0
    k = len(phrase)
    while k and i + k <= len(words):
        if words[i : i + k] == phrase:
            starts.append(i)
            i += k
        else:
            i += 1
    return starts


def biased_wer(
    corpus: Iterable[tuple[str, Sequence[str], Sequence[str]]],
    terms: Sequence[str],
    case_fold: bool = False,
) -> ScoreReport:
    """Score (utt_id, reference words, hypothesis words) triples.

    ``terms`` hold the biasing keywords in written form; membership is
    word-for-word and case-sensitive unless ``case_fold`` is set.
    B-WER stays None when no reference word is biased; an empty corpus
    raises DataFormatError.
    """
    fold = (lambda w: w.lower()) if case_fold else (lambda w: w)
    phrases = {term: [fold(w) for w in term.split()] for term in terms}
    biased_vocab = {word for phrase in phrases.values() for word in phrase}
    keywords = [KeywordStat(term) for term in phrases]

    utterances: list[UtteranceScore] = []
    for utt_id, ref, hyp in corpus:
        ref = [fold(w) for w in ref]
        hyp = [fold(w) for w in hyp]
        # Per reference word: its op and the index of the next hypothesis
        # word, which is its own when it is matched.
        counts: Counter[str] = Counter()
        ref_ops: list[tuple[str, int]] = []
        hyp_index = 0
        for op in align(ref, hyp):
            word = op.hyp if op.kind == "ins" else op.ref
            if op.kind != "ins":
                ref_ops.append((op.kind, hyp_index))
            if op.kind != "del":
                hyp_index += 1
            if op.kind != "match":
                counts[f"{op.kind}_{'biased' if word in biased_vocab else 'unbiased'}"] += 1
        n_biased = sum(1 for w in ref if w in biased_vocab)
        utterances.append(UtteranceScore(utt_id, len(ref), n_biased, ErrorCounts(**counts)))
        for stat, phrase in zip(keywords, phrases.values()):
            for start in _phrase_occurrences(ref, phrase):
                stat.occurrences += 1
                # A hit: every word matched, and the hypothesis holds the
                # whole phrase from the first word's match on.  Judging
                # contiguity on the hypothesis side keeps a repeated word
                # next to the phrase from counting as inside it, wherever
                # the backtrace put the insertion.
                span = ref_ops[start : start + len(phrase)]
                first = span[0][1]
                if (
                    all(kind == "match" for kind, _ in span)
                    and hyp[first : first + len(phrase)] == phrase
                ):
                    stat.hits += 1
    if not utterances:
        raise DataFormatError("empty corpus")
    return ScoreReport(utterances, keywords)


def relative_reduction(before: float, after: float) -> float:
    """Relative change in percent: 100 * (before - after) / before."""
    if before <= 0:
        raise ValueError(f"baseline rate must be positive, got {before}")
    return 100.0 * (before - after) / before
