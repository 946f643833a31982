"""Keyword boost weights and the LM-gated unigram boost set.

The decoder consults the trie in two ways: the unigram set answers
"does committing this word deserve a partial boost" (gated so common
words are never boosted), and full-variant matching finds complete
keyword occurrences for the finalization boost.
Matching is the mapping's own walk, so it always agrees with inverse
normalization; each owning entry's effective weight lives only in the
trie's ``weights`` table, keyed by the match's raw form.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import ConfigError, as_real, as_weight
from .lm import NGramLM
from .norm import KeywordMatch, NormalizationMapping

# log10 unigram probability below which a keyword word is boosted.
DEFAULT_RARITY_THRESHOLD = -4.0


class BiasTrie:
    """Variant matches and their weights, plus the gated unigram boost set.

    ``weights`` maps each entry's raw form to its effective weight, and
    ``gated`` lists the (word, owning raw) pairs that passed the rarity
    gate; a gated word's unigram boost is the largest of its owners'.
    The table must name exactly the mapping's raw forms, each with a
    finite weight >= 0, the keyword list's rule.
    """

    def __init__(
        self,
        mapping: NormalizationMapping,
        weights: dict[str, float],
        gated: Sequence[tuple[str, str]],
    ):
        if weights.keys() != {entry.raw for entry in mapping.entries}:
            raise ConfigError("the weight table must name exactly the mapping's keywords")
        for raw, weight in weights.items():
            try:
                as_weight(weight, error=ValueError)
            except ValueError as exc:
                raise ConfigError(f"keyword {raw!r}: {exc}") from None
        self.mapping = mapping
        self.weights = weights
        self.gated = gated
        self.unigram_weights: dict[str, float] = {}
        for word, raw in gated:
            previous = self.unigram_weights.get(word)
            if previous is None or weights[raw] > previous:
                self.unigram_weights[word] = weights[raw]

    def unigram_weight(self, word: str) -> float | None:
        """Boost weight for one committed word, or None when not boosted."""
        return self.unigram_weights.get(word)

    def find_matches(self, words: Sequence[str]) -> list[KeywordMatch]:
        """Leftmost-longest non-overlapping full variant matches.

        The traced matching layer: a method of its own so the benchmark's
        tracer can time keyword matching apart from inverse normalization.
        """
        return self.mapping.find_spans(words)


def check_boost_settings(default_weight: float, rarity_threshold: float) -> None:
    """Reject a default weight that breaks the keyword weight rule
    (``errors.as_weight``), or a threshold that is not a finite real number."""
    as_weight(default_weight, "boost weight")
    if not math.isfinite(as_real(rarity_threshold, "rarity threshold")):
        raise ConfigError("rarity threshold must be finite")


def entry_weights(
    mapping: NormalizationMapping, default_weight: float
) -> dict[str, float]:
    """Each entry's effective weight: its list weight, else ``default_weight``."""
    return {
        entry.raw: default_weight if entry.weight is None else entry.weight
        for entry in mapping.entries
    }


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
    LM is supplied.  The LM is asked once per distinct word.  Each
    entry's effective weight is resolved here, once, by ``entry_weights``.
    """
    check_boost_settings(default_weight, rarity_threshold)
    rare: dict[str, bool] = {}  # each distinct word's gate
    gated = []
    for variant, entry in mapping.reverse.items():
        for word in variant:
            passes = rare.get(word)
            if passes is None:
                passes = rare[word] = lm is None or lm.unigram_log10(word) < rarity_threshold
            if passes:
                gated.append((word, entry.raw))
    return BiasTrie(mapping, entry_weights(mapping, default_weight), gated)
