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
from .lm import NGramLM
from .norm import NormalizationMapping

# log10 unigram probability below which a keyword word is boosted.
DEFAULT_RARITY_THRESHOLD = -4.0


@dataclass(frozen=True)
class KeywordMatch:
    """A full variant occurrence: words[start:end] belongs to ``raw``."""

    start: int
    end: int
    raw: str
    weight: float  # owning entry's effective boost weight


class BiasTrie:
    """Variant matches with weights, plus the gated unigram boost set.

    ``weights`` maps each entry's raw form to its effective weight, and
    ``gated`` lists the (word, owning raw) pairs that passed the rarity
    gate; a gated word's unigram boost is the largest of its owners'.
    """

    def __init__(
        self,
        mapping: NormalizationMapping,
        weights: dict[str, float],
        gated: Sequence[tuple[str, str]],
    ):
        self.mapping = mapping
        self.weights = weights
        self.gated = gated
        self.unigram_weights: dict[str, float] = {}
        for word, raw in gated:
            previous = self.unigram_weights.get(word)
            if previous is None or weights[raw] > previous:
                self.unigram_weights[word] = weights[raw]

    @property
    def num_variants(self) -> int:
        return len(self.mapping.reverse)

    def unigram_weight(self, word: str) -> float | None:
        """Boost weight for one committed word, or None when not boosted."""
        return self.unigram_weights.get(word)

    def find_matches(self, words: Sequence[str]) -> list[KeywordMatch]:
        """Leftmost-longest non-overlapping full variant matches."""
        return [
            KeywordMatch(start, end, entry.raw, self.weights[entry.raw])
            for start, end, entry in self.mapping.find_spans(words)
        ]

    def dump(self) -> str:
        """Deterministic text form, one line per variant in sorted order."""
        reverse = self.mapping.reverse
        return "".join(
            f"{' '.join(variant)}\t{reverse[variant].raw}\t"
            f"{self.weights[reverse[variant].raw]!r}\n"
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
    rarity_threshold: float = DEFAULT_RARITY_THRESHOLD,
    default_weight: float = 0.0,
) -> BiasTrie:
    """Build the trie for a mapping, gating the unigram boost set.

    A variant word enters the unigram set only when its LM unigram
    log10 probability is below ``rarity_threshold``; out-of-vocabulary
    words (probability -inf) always qualify, as does everything when no
    LM is supplied.  Each entry's effective weight is resolved here,
    once: its list weight, or ``default_weight`` when it has none.
    """
    check_boost_settings(default_weight, rarity_threshold)
    weights = {
        entry.raw: default_weight if entry.weight is None else entry.weight
        for entry in mapping.entries
    }
    gated = []
    for variant in sorted(mapping.reverse):
        raw = mapping.reverse[variant].raw
        for word in variant:
            if lm is None or lm.unigram_log10(word) < rarity_threshold:
                gated.append((word, raw))
    return BiasTrie(mapping, weights, gated)
