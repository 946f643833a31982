"""Keyword boost weights and the LM-gated unigram boost set.

The decoder consults the trie in two ways: the unigram set answers
"does committing this word deserve a partial boost" (gated so common
words are never boosted), and full-variant matching finds complete
keyword occurrences for the finalization boost and for match reports.
Matching is the mapping's own walk, so it always agrees with inverse
normalization; the trie adds each owning entry's effective weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError
from .lm import NEG_INF, NGramLM
from .norm import KeywordEntry, NormalizationMapping


@dataclass(frozen=True)
class KeywordMatch:
    """A full variant occurrence: words[start:end] belongs to ``raw``."""

    start: int
    end: int
    raw: str
    weight: float  # owning entry's effective boost weight


class BiasTrie:
    """Variant matches with weights, plus the gated unigram boost set."""

    def __init__(self, mapping: NormalizationMapping, default_weight: float):
        self.mapping = mapping
        self.default_weight = default_weight
        self.unigram_weights: dict[str, float] = {}

    @property
    def num_variants(self) -> int:
        return len(self.mapping.reverse)

    def _weight(self, entry: KeywordEntry) -> float:
        return entry.weight if entry.weight is not None else self.default_weight

    def unigram_weight(self, word: str) -> float | None:
        """Boost weight for one committed word, or None when not boosted."""
        return self.unigram_weights.get(word)

    def find_matches(self, words: Sequence[str]) -> list[KeywordMatch]:
        """Leftmost-longest non-overlapping full variant matches."""
        return [
            KeywordMatch(start, end, entry.raw, self._weight(entry))
            for start, end, entry in self.mapping.find_spans(words)
        ]

    def dump(self) -> str:
        """Deterministic text form, one line per variant in sorted order."""
        reverse = self.mapping.reverse
        return "".join(
            f"{' '.join(variant)}\t{reverse[variant].raw}\t"
            f"{self._weight(reverse[variant])!r}\n"
            for variant in sorted(reverse)
        )


def check_boost_settings(default_weight: float, rarity_threshold: float) -> None:
    """Reject a negative or non-finite weight or a non-finite threshold."""
    if not 0.0 <= default_weight < math.inf:
        raise ConfigError(f"boost weight must be finite and >= 0, got {default_weight}")
    if not math.isfinite(rarity_threshold):
        raise ConfigError("rarity threshold must be finite")


def build_trie(
    mapping: NormalizationMapping,
    lm: NGramLM | None = None,
    rarity_threshold: float = -4.0,
    default_weight: float = 0.0,
) -> BiasTrie:
    """Build the trie for a mapping, gating the unigram boost set.

    A variant word enters the unigram set only when its LM unigram
    log10 probability is below ``rarity_threshold``; out-of-vocabulary
    words (probability -inf) always qualify, as does everything when no
    LM is supplied.  When several entries share a word the maximum
    weight wins.  Entries without a list weight use ``default_weight``.
    """
    check_boost_settings(default_weight, rarity_threshold)
    trie = BiasTrie(mapping, default_weight)
    for variant in sorted(mapping.reverse):
        weight = trie._weight(mapping.reverse[variant])
        for word in variant:
            rarity = lm.unigram_log10(word) if lm is not None else NEG_INF
            if rarity < rarity_threshold:
                previous = trie.unigram_weights.get(word)
                if previous is None or weight > previous:
                    trie.unigram_weights[word] = weight
    return trie
