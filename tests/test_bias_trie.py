"""Tests for the keyword variant trie and the rarity-gated unigram set."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwboost.bias_trie import BiasTrie, build_trie
from kwboost.errors import ConfigError
from kwboost.lm import load_arpa
from kwboost.norm import KeywordMatch, build_mapping, inverse_normalize


@pytest.fixture(scope="module")
def gate_lm(data_dir):
    # Unigrams: a -1.20, the -0.80, i -1.50, three -4.50, analytics -5.00.
    return load_arpa(data_dir / "gate_unigram.arpa")


class TestRarityGate:
    def test_common_letters_are_gated_out(self, gate_lm):
        trie = build_trie(build_mapping(["AI"]), gate_lm, default_weight=2.0)
        assert trie.unigram_weights == {}

    def test_gated_entry_still_matches_fully(self, gate_lm):
        trie = build_trie(build_mapping(["AI"]), gate_lm, default_weight=2.0)
        matches = trie.find_matches(["about", "a", "i", "analytics"])
        assert matches == [KeywordMatch(1, 3, "AI")]
        assert trie.weights == {"AI": 2.0}

    def test_rare_and_oov_words_pass(self, gate_lm):
        trie = build_trie(build_mapping(["C3PO"]), gate_lm, default_weight=2.0)
        # three is rare (-4.50 < -4.0); c/p/o are out of vocabulary.
        assert trie.unigram_weights == {"c": 2.0, "three": 2.0, "p": 2.0, "o": 2.0}

    def test_no_lm_admits_everything(self):
        trie = build_trie(build_mapping(["AI"]), lm=None, default_weight=1.5)
        assert trie.unigram_weights == {"a": 1.5, "i": 1.5}

    def test_threshold_is_strict(self, gate_lm):
        # "the" sits at -0.80; even a -0.80 threshold keeps it out.
        trie = build_trie(
            build_mapping(["THE"]), gate_lm, rarity_threshold=-0.80, default_weight=1.0
        )
        assert "the" not in trie.unigram_weights

    def test_gate_monotone_in_threshold(self, gate_lm):
        mapping = build_mapping(["AI", "C3PO", "356", "THE"])
        thresholds = [-6.0, -4.5, -4.0, -1.0, -0.5, 0.0]
        sets = [
            frozenset(
                build_trie(mapping, gate_lm, rarity_threshold=t, default_weight=1.0)
                .unigram_weights
            )
            for t in thresholds
        ]
        for tighter, looser in zip(sets, sets[1:]):
            assert tighter <= looser

    def test_max_weight_wins_on_shared_words(self, gate_lm):
        # AI and IO share the unigram "i"; no LM so both pass the gate.
        mapping = build_mapping([("AI", 3.0, 0), ("IO", 2.0, 0)])
        trie = build_trie(mapping, lm=None)
        assert trie.unigram_weights["i"] == 3.0
        assert trie.unigram_weights["o"] == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(default_weight=-1.0),
            dict(default_weight=float("nan")),
            dict(default_weight=float("inf")),
            dict(rarity_threshold=float("-inf")),
            dict(rarity_threshold=float("nan")),
        ],
    )
    def test_invalid_settings(self, kwargs):
        with pytest.raises(ConfigError):
            build_trie(build_mapping(["AI"]), **kwargs)

    def test_unigram_weight_lookup(self):
        trie = build_trie(build_mapping([("AI", 3.0, 0)]))
        assert trie.unigram_weight("a") == 3.0
        assert trie.unigram_weight("zebra") is None


class TestMatching:
    def test_default_weight_fills_missing(self):
        trie = build_trie(build_mapping(["IBM"]), default_weight=1.25)
        matches = trie.find_matches(["i", "b", "m", "stock"])
        assert matches == [KeywordMatch(0, 3, "IBM")]
        assert trie.weights[matches[0].raw] == 1.25

    def test_entry_weight_overrides_default(self):
        trie = build_trie(build_mapping([("IBM", 4.0, 0)]), default_weight=1.25)
        assert trie.weights[trie.find_matches(["i", "b", "m"])[0].raw] == 4.0

    def test_longest_match_at_each_position(self):
        table = {"LONG": [["a", "b", "c"]], "SHORT": [["a", "b"]]}
        trie = build_trie(build_mapping(["LONG", "SHORT"], table))
        assert [m.raw for m in trie.find_matches(["a", "b", "c"])] == ["LONG"]
        assert [m.raw for m in trie.find_matches(["a", "b", "x"])] == ["SHORT"]

    def test_matches_never_overlap(self):
        table = {"LONG": [["a", "b"]], "SHORT": [["b"]]}
        trie = build_trie(build_mapping(["LONG", "SHORT"], table))
        matches = trie.find_matches(["a", "b", "b"])
        assert [(m.start, m.end, m.raw) for m in matches] == [
            (0, 2, "LONG"),
            (2, 3, "SHORT"),
        ]

    def test_adjacent_occurrences(self):
        trie = build_trie(build_mapping(["AI"]), default_weight=1.0)
        matches = trie.find_matches(["a", "i", "a", "i"])
        assert [(m.start, m.end) for m in matches] == [(0, 2), (2, 4)]

    def test_no_match_on_partial_path(self):
        trie = build_trie(build_mapping(["C3PO"]))
        assert trie.find_matches(["c", "three", "p"]) == []

    def test_empty_input(self):
        trie = build_trie(build_mapping(["AI"]))
        assert trie.find_matches([]) == []

    def test_ownership_follows_collision_winner(self):
        mapping = build_mapping(["A1", "A-1"])
        trie = build_trie(mapping, default_weight=1.0)
        assert trie.find_matches(["a", "one"])[0].raw == "A-1"


def brute_force_matches(variants, words):
    """Reference leftmost-longest matcher over explicit variant tuples."""
    matches = []
    i = 0
    while i < len(words):
        best = None
        for variant, raw in variants:
            span = len(variant)
            if tuple(words[i : i + span]) == variant:
                if best is None or span > best[0]:
                    best = (span, raw)
        if best is not None:
            span, raw = best
            matches.append(KeywordMatch(i, i + span, raw))
            i += span
        else:
            i += 1
    return matches


_WORDS = ["a", "b", "c", "d"]
_VARIANT_TABLE = {
    "K1": [["a"]],
    "K2": [["a", "b"]],
    "K3": [["b", "c", "d"]],
    "K4": [["c"]],
    "K5": [["d", "a"]],
}


class TestAgainstBruteForce:
    @given(st.lists(st.sampled_from(_WORDS), max_size=12))
    def test_find_matches_equivalence(self, words):
        mapping = build_mapping(sorted(_VARIANT_TABLE), _VARIANT_TABLE)
        trie = build_trie(mapping, default_weight=1.0)
        variants = [(variant, entry.raw) for variant, entry in mapping.reverse.items()]
        expected = brute_force_matches(variants, words)
        assert trie.find_matches(words) == expected
        # Inverse normalization reports the same matches, of the same type.
        assert inverse_normalize(words, mapping)[1] == expected

    def test_trie_stable_under_entry_order(self):
        keywords = ["AI", "C3PO", "356", "IBM", "E9", "A1", "A-1"]

        def owners(trie):
            reverse = trie.mapping.reverse
            return [
                (variant, reverse[variant].raw, trie.weights[reverse[variant].raw])
                for variant in sorted(reverse)
            ]

        reference = build_trie(build_mapping(keywords), default_weight=1.0)
        rng = random.Random(3)
        for _ in range(5):
            shuffled = keywords[:]
            rng.shuffle(shuffled)
            trie = build_trie(build_mapping(shuffled), default_weight=1.0)
            assert owners(trie) == owners(reference)
            assert trie.unigram_weights == reference.unigram_weights


class TestWeightTable:
    @pytest.mark.parametrize("use_lm", [False, True])
    @given(
        weights=st.fixed_dictionaries(
            {raw: st.floats(0.0, 8.0) for raw in sorted(_VARIANT_TABLE)}
        ),
        default_weight=st.floats(0.0, 8.0),
        words=st.lists(st.sampled_from(_WORDS), max_size=12),
    )
    def test_swapped_weights_equal_list_weights(
        self, gate_lm, use_lm, weights, default_weight, words
    ):
        # A trie given a new weight table over the same gate result must
        # match a trie built from a list that carries those weights.
        lm = gate_lm if use_lm else None
        mapping = build_mapping(sorted(_VARIANT_TABLE), _VARIANT_TABLE)
        trie = build_trie(mapping, lm, default_weight=default_weight)
        swapped = BiasTrie(mapping, weights, trie.gated)
        listed = build_mapping(
            [(raw, weight, 0) for raw, weight in weights.items()], _VARIANT_TABLE
        )
        rebuilt = build_trie(listed, lm, default_weight=default_weight)
        assert list(swapped.unigram_weights.items()) == list(
            rebuilt.unigram_weights.items()
        )
        assert swapped.find_matches(words) == rebuilt.find_matches(words)
