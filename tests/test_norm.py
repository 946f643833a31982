"""Tests for keyword normalization, the mapping, and inverse normalization."""

import math
import random
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwboost.errors import DataFormatError, NormalizationError, ToolkitError
from kwboost.norm import (
    VARIANT_CAP,
    KeywordMatch,
    build_mapping,
    cardinal_words,
    digit_words,
    inverse_normalize,
    is_spoken_word,
    load_exceptions,
    load_keyword_list,
    normalize_keyword,
    raw_target_mapping,
    save_mapping,
)

# Hand-written oracle for the cardinal speller.  Every row was spelled
# out by a person, not derived from the code under test.
CARDINAL_ORACLE = {
    0: "zero",
    1: "one",
    7: "seven",
    10: "ten",
    11: "eleven",
    13: "thirteen",
    15: "fifteen",
    19: "nineteen",
    20: "twenty",
    21: "twenty one",
    42: "forty two",
    55: "fifty five",
    90: "ninety",
    99: "ninety nine",
    100: "one hundred",
    101: "one hundred one",
    110: "one hundred ten",
    115: "one hundred fifteen",
    356: "three hundred fifty six",
    600: "six hundred",
    999: "nine hundred ninety nine",
    1000: "one thousand",
    1024: "one thousand twenty four",
    2048: "two thousand forty eight",
    5000: "five thousand",
    7777: "seven thousand seven hundred seventy seven",
    9999: "nine thousand nine hundred ninety nine",
}


class TestCardinals:
    @pytest.mark.parametrize("n,expected", sorted(CARDINAL_ORACLE.items()))
    def test_oracle_table(self, n, expected):
        assert cardinal_words(n) == expected.split()

    @pytest.mark.parametrize("n", [-1, 10000, 123456])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            cardinal_words(n)

    def test_digit_words(self):
        assert digit_words("356") == ["three", "five", "six"]
        assert digit_words("007") == ["zero", "zero", "seven"]
        assert digit_words("") == []

    @given(st.integers(min_value=0, max_value=9999))
    def test_cardinal_alphabet(self, n):
        for word in cardinal_words(n):
            assert is_spoken_word(word)


# Pinned expansions.  The first variant is the primary reading.
EXPANSION_CASES = [
    ("C3PO", [("c", "three", "p", "o")]),
    ("IBM", [("i", "b", "m"), ("ibm",)]),
    ("AI", [("a", "i")]),  # vowels-only: no whole-word fallback
    ("IO", [("i", "o")]),
    ("USA", [("u", "s", "a"), ("usa",)]),
    ("356", [("three", "hundred", "fifty", "six"), ("three", "five", "six")]),
    ("0", [("zero",)]),
    ("007", [("zero", "zero", "seven")]),  # leading zero: digits only
    ("12345", [("one", "two", "three", "four", "five")]),  # too long for a cardinal
    ("A&R", [("a", "and", "r")]),
    ("AT&T", [("a", "t", "and", "t")]),
    ("C++", [("c", "plus", "plus")]),
    ("A+", [("a", "plus")]),
    ("5*", [("five", "star")]),
    ("3x4", [("three", "by", "four")]),
    ("3X4", [("three", "by", "four")]),
    ("B-52", [("b", "five", "two")]),
    ("M*A*S*H", [("m", "star", "a", "star", "s", "star", "h")]),
    ("HTMLParser", [("h", "t", "m", "l", "parser")]),
    ("CamelCase", [("camel", "case")]),
    ("iPhone", [("i", "phone")]),
    ("eBay", [("e", "bay")]),
    ("E9", [("e", "nine")]),
    ("A1", [("a", "one")]),
    ("A-1", [("a", "one")]),
    ("3M", [("three", "m")]),
    ("hello", [("hello",)]),
    ("Hello", [("hello",)]),
    ("  padded  ", [("padded",)]),
]


class TestNormalizeKeyword:
    @pytest.mark.parametrize("raw,expected", EXPANSION_CASES)
    def test_pinned_expansions(self, raw, expected):
        assert normalize_keyword(raw) == expected

    def test_multi_piece_keyword(self):
        variants = normalize_keyword("flight 356")
        assert variants[0] == ("flight", "three", "hundred", "fifty", "six")
        assert ("flight", "three", "five", "six") in variants

    @pytest.mark.parametrize("raw", ["", "   ", "!!!", "---", "..."])
    def test_unspeakable_rejected(self, raw):
        with pytest.raises(NormalizationError):
            normalize_keyword(raw)

    def test_variant_cap(self):
        # Four pieces with two readings each would be 16 combinations.
        variants = normalize_keyword("356 1024 2048 600")
        assert 1 <= len(variants) <= VARIANT_CAP
        assert len(set(variants)) == len(variants)

    def test_exceptions_are_verbatim(self):
        table = {"GIF": [["jif"], ["g", "i", "f"]]}
        assert normalize_keyword("GIF", table) == [("jif",), ("g", "i", "f")]

    def test_exceptions_only_hit_exact_raw(self):
        table = {"GIF": [["jif"]]}
        assert normalize_keyword("GIFT", table) == [
            ("g", "i", "f", "t"),
            ("gift",),
        ]

    @pytest.mark.parametrize(
        "table",
        [
            {"GIF": []},
            {"GIF": [[]]},
            {"GIF": [["Jif"]]},  # uppercase is outside the alphabet
            {"GIF": [["j1f"]]},  # digits are outside the alphabet
            {"GIF": [["two words ok", ""]]},
        ],
    )
    def test_bad_exception_rows(self, table):
        with pytest.raises(NormalizationError):
            normalize_keyword("GIF", table)

    @given(st.text(alphabet=string.printable, min_size=1, max_size=12))
    def test_alphabet_closure(self, raw):
        """Whatever comes out is lowercase-alphabetic, or the input is rejected."""
        try:
            variants = normalize_keyword(raw)
        except NormalizationError:
            return
        assert variants
        for variant in variants:
            assert variant
            for word in variant:
                assert is_spoken_word(word)


_RAW_PARTS = ["AB", "C", "3", "42", "356", "x", "&", "-", "foo", "Bar", "7"]


@st.composite
def plausible_raws(draw):
    parts = draw(st.lists(st.sampled_from(_RAW_PARTS), min_size=1, max_size=4))
    return "".join(parts)


class TestMapping:
    def test_collision_prefers_longer_raw(self, caplog):
        with caplog.at_level("WARNING", logger="kwboost.norm"):
            mapping = build_mapping(["A1", "A-1"])
        assert mapping.reverse[("a", "one")].raw == "A-1"
        assert len(mapping.collisions) == 1
        record = mapping.collisions[0]
        assert record.winner == "A-1" and record.losers == ("A1",)
        assert any("a one" in message for message in caplog.messages)

    def test_collision_priority_beats_length(self):
        mapping = build_mapping([("A1", None, 0), ("A-1", None, 1)])
        assert mapping.reverse[("a", "one")].raw == "A1"

    def test_collision_raw_tiebreak_is_lexicographic(self):
        table = {"BBB": [["same"]], "AAA": [["same"]]}
        mapping = build_mapping(["BBB", "AAA"], table)
        assert mapping.reverse[("same",)].raw == "AAA"

    def test_duplicate_raw_rejected(self):
        with pytest.raises(NormalizationError):
            build_mapping(["IBM", "IBM"])

    @pytest.mark.parametrize("raw", ["A\tB", "A\nB", "A\rB", "A\u2028B", "A\x1cB"])
    def test_raws_that_a_saved_mapping_cannot_hold_are_rejected(self, raw):
        with pytest.raises(NormalizationError, match="tab or line break"):
            build_mapping([raw])

    @pytest.mark.parametrize("builder", [build_mapping, raw_target_mapping])
    @pytest.mark.parametrize("weight", [math.nan, math.inf, -5.0])
    def test_bad_entry_weights_rejected(self, builder, weight):
        # The Python API holds to the keyword-list file's weight rule.
        with pytest.raises(NormalizationError, match="'AI': keyword weight must be finite"):
            builder([("AI", weight, 0)])

    def test_entry_weights_and_priorities_carried(self):
        mapping = build_mapping([("C3PO", 3.0, 1), "AI"])
        c3po, ai = mapping.entries
        assert (c3po.weight, c3po.priority) == (3.0, 1)
        assert (ai.weight, ai.priority) == (None, 0)

    def test_reverse_covers_every_variant(self):
        mapping = build_mapping(["IBM", "356", "C3PO"])
        for entry in mapping.entries:
            for variant in entry.variants:
                assert mapping.reverse[variant] is entry

    def test_assembly_is_order_independent(self):
        keywords = ["A1", "A-1", "IBM", "356", "C3PO", "AI", "3M"]
        baseline = build_mapping(keywords)
        want = {variant: entry.raw for variant, entry in baseline.reverse.items()}
        rng = random.Random(11)
        for _ in range(5):
            shuffled = keywords[:]
            rng.shuffle(shuffled)
            mapping = build_mapping(shuffled)
            got = {variant: entry.raw for variant, entry in mapping.reverse.items()}
            assert got == want


class TestInverseNormalize:
    def test_basic_replacement(self):
        mapping = build_mapping(["AI"])
        text, spans = inverse_normalize(
            ["presentation", "about", "a", "i", "analytics"], mapping
        )
        assert text == "presentation about AI analytics"
        assert spans == [KeywordMatch(2, 4, "AI")]

    def test_longest_match_wins(self):
        table = {"LONG": [["a", "b"]], "SHORT": [["a"]]}
        mapping = build_mapping(["LONG", "SHORT"], table)
        assert inverse_normalize(["a", "b"], mapping)[0] == "LONG"
        assert inverse_normalize(["a", "c"], mapping)[0] == "SHORT c"

    def test_matches_do_not_overlap(self):
        table = {"LONG": [["a", "b"]], "SHORT": [["a"]]}
        mapping = build_mapping(["LONG", "SHORT"], table)
        text, spans = inverse_normalize(["a", "a", "b"], mapping)
        assert text == "SHORT LONG"
        assert [(s.start, s.end) for s in spans] == [(0, 1), (1, 3)]

    def test_pass_through(self):
        mapping = build_mapping(["AI"])
        words = ["nothing", "matches", "here"]
        text, spans = inverse_normalize(words, mapping)
        assert text == "nothing matches here"
        assert spans == []

    def test_empty_input(self):
        mapping = build_mapping(["AI"])
        assert inverse_normalize([], mapping) == ("", [])

    @given(plausible_raws())
    def test_single_entry_round_trip(self, raw):
        """Each spoken variant of a lone keyword inverts back to its raw form."""
        try:
            mapping = build_mapping([raw])
        except NormalizationError:
            return
        entry = mapping.entries[0]
        for variant in entry.variants:
            text, spans = inverse_normalize(list(variant), mapping)
            assert text == entry.raw
            assert spans == [KeywordMatch(0, len(variant), entry.raw)]

    @given(st.lists(st.sampled_from(["say", "it", "plainly", "now"]), max_size=6))
    def test_unmatched_words_pass_through_verbatim(self, words):
        mapping = build_mapping(["C3PO"])
        text, spans = inverse_normalize(words, mapping)
        assert text == " ".join(words)
        assert spans == []


class TestFileFormats:
    def test_load_keyword_list(self, data_dir):
        items = load_keyword_list(data_dir / "keywords_demo.txt")
        assert [raw for raw, _, _ in items] == ["AI", "C3PO", "356", "IBM", "E9"]

    def test_keyword_list_fields(self, tmp_path):
        path = tmp_path / "kw.txt"
        path.write_text("# comment\nNASA\t2.5\t1\nIBM\t\t2\nAI\n", encoding="utf-8")
        assert load_keyword_list(path) == [
            ("NASA", 2.5, 1),
            ("IBM", None, 2),
            ("AI", None, 0),
        ]

    @pytest.mark.parametrize(
        "content,lineno",
        [
            ("AI\nX\tnotafloat\n", 2),
            ("\t1.0\n", 1),
            ("AI\nIBM\t2.0\tbadint\n", 2),
            ("AI\nIBM\t1\t0\tjunk\n", 2),
        ],
    )
    def test_keyword_list_errors_carry_line_numbers(self, tmp_path, content, lineno):
        path = tmp_path / "kw.txt"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(DataFormatError, match=f":{lineno}:"):
            load_keyword_list(path)

    @pytest.mark.parametrize("weight", ["-3", "nan", "inf"])
    def test_keyword_list_rejects_bad_weights(self, tmp_path, weight):
        path = tmp_path / "kw.txt"
        path.write_text(f"AI\t1.5\nIBM\t{weight}\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=":2: keyword weight"):
            load_keyword_list(path)

    @given(st.text(st.characters(blacklist_categories=("Cs",))))
    def test_keyword_list_accepts_or_rejects_any_text(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "kw.txt"
            path.write_text(content, encoding="utf-8")
            try:
                items = load_keyword_list(path)
            except ToolkitError:
                return
        assert isinstance(items, list)
        for raw, weight, priority in items:
            assert raw and isinstance(priority, int)
            assert weight is None or 0.0 <= weight < math.inf

    def test_load_exceptions(self, data_dir):
        table = load_exceptions(data_dir / "exceptions_demo.tsv")
        assert table["GIF"] == [["jif"], ["g", "i", "f"]]
        assert table["SQL"] == [["sequel"]]
        assert table["X-mAbs"] == [["x", "mabs"]]

    def test_exceptions_require_two_columns(self, tmp_path):
        path = tmp_path / "exc.tsv"
        path.write_text("GIF\tjif\nlonely\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=":2:"):
            load_exceptions(path)

    def test_saved_mapping_has_one_line_per_variant(self, tmp_path):
        mapping = build_mapping([("C3PO", 3.0, 0), ("NASA", 2.5, 1), "AI"])
        path = tmp_path / "map.tsv"
        save_mapping(mapping, path)
        assert path.read_text(encoding="utf-8") == (
            "C3PO\tc three p o\t3.0\t0\n"
            "NASA\tn a s a\t2.5\t1\n"
            "NASA\tnasa\t2.5\t1\n"
            "AI\ta i\t\t0\n"
        )
