"""Tests for keyword normalization, the mapping, and inverse normalization."""

import itertools
import math
import random
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
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
from kwboost.norm import (
    _ASCII_KIND,
    _capped_product,
    _classify,
    _run_readings,
    _segment_piece,
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
    # Non-ASCII pieces keep the same case boundary rule.
    ("ÉCOLEParis", [("école", "paris")]),
    ("ÜBer", [("ü", "ber")]),
    # İ lowers to i and a combining dot, outside the alphabet: it reads as I.
    ("İstanbul", [("istanbul",)]),
    ("İBM", [("i", "b", "m"), ("ibm",)]),
]


# Parts for _capped_product: each part is a list of readings, and one
# reading is a short word list.
_READING = st.lists(st.sampled_from(["a", "b", "ab"]), max_size=2)
_SINGLE = _READING.map(lambda reading: [reading])
_SEVERAL = st.lists(_READING, min_size=2, max_size=3)

# Characters of each _classify kind, ASCII and not: titlecase "ǅ" is
# neither upper nor lower, and the Arabic-Indic digit "٣" is a symbol.
_KIND_CHARS = {
    kind: [
        ch for ch in string.ascii_letters + string.digits + "&+*-._ÉéÜüßǅΣσς日本٣€—"
        if _classify(ch) == kind
    ]
    for kind in "UwDS"
}
# Any character but a surrogate, ASCII ones (whitespace included) as
# likely as the rest.
_ANY_CHAR = st.one_of(
    st.sampled_from(string.printable), st.characters(exclude_categories=["Cs"])
)
# A character and another of its kind.
_SAME_KIND_PAIRS = st.sampled_from("UwDS").flatmap(
    lambda kind: st.tuples(*[st.sampled_from(_KIND_CHARS[kind])] * 2)
)


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

    def test_a_repeated_exception_variant_is_kept_once(self):
        table = {"SQL": [["sequel"], ["s", "q", "l"], ["sequel"]]}
        assert normalize_keyword("SQL", table) == [("sequel",), ("s", "q", "l")]
        mapping = build_mapping(["SQL"], table)
        assert mapping.entries[0].variants == (("sequel",), ("s", "q", "l"))
        assert mapping.collisions == []

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

    # Most parts have a single reading, as in real keyword lists.
    @given(st.lists(st.one_of(_SINGLE, _SINGLE, _SINGLE, _SEVERAL), max_size=6))
    @example([[[word] for word in "aabcdefghij"]])  # one part past the cap
    def test_capped_product_is_its_definition(self, parts):
        """Distinct concatenations in product order, the first VARIANT_CAP,
        from at most VARIANT_CAP**2 combinations."""
        combos = itertools.islice(itertools.product(*parts), VARIANT_CAP ** 2)
        flat = [tuple(itertools.chain.from_iterable(combo)) for combo in combos]
        assert _capped_product(parts) == list(dict.fromkeys(flat))[:VARIANT_CAP]

    def test_ascii_kind_table_agrees_with_classify(self):
        assert _ASCII_KIND == {chr(code): _classify(chr(code)) for code in range(128)}

    @given(st.lists(_SAME_KIND_PAIRS, min_size=1, max_size=12))
    @example(list(zip("HTMLParser", "ÉΣÜÉΣaσßéς")))
    @example(list(zip("ÉCOLEParis", "ABCDEFghij")))
    @example(list(zip("ÜBer", "ABer")))
    @example(list(zip("ǅAb٣", "aAb-")))
    @example(list(zip("C3PO", "Ü3ΣÉ")))
    def test_runs_depend_only_on_character_kinds(self, pairs):
        """Replacing each character with another of its ``_classify`` kind,
        ASCII or not, keeps the runs' kinds and lengths, and the runs join
        back into the piece."""
        piece = "".join(ch for ch, _ in pairs)
        twin = "".join(ch for _, ch in pairs)
        runs = _segment_piece(piece)
        assert "".join(text for _, text in runs) == piece

        def shape(runs):
            return [(kind, len(text)) for kind, text in runs]

        assert shape(runs) == shape(_segment_piece(twin))

    @given(st.text(alphabet=_ANY_CHAR, min_size=1, max_size=12))
    @example("İstanbul")
    @example("İBM")
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

    @given(st.text(alphabet=_ANY_CHAR, max_size=16))
    @example("7")  # one run, whose cardinal and digit readings are one
    @example("IBM 356 x3")
    def test_normalize_keyword_is_its_definition(self, raw):
        """The product over pieces of the product over each piece's run
        readings; a keyword whose primary reading is empty is rejected."""
        pieces = []
        for piece in raw.split():
            runs = _segment_piece(piece)
            pieces.append(_capped_product([_run_readings(runs, i) for i in range(len(runs))]))
        variants = _capped_product(pieces)
        if variants[0]:
            assert normalize_keyword(raw) == variants
        else:
            with pytest.raises(NormalizationError):
                normalize_keyword(raw)


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

    @pytest.mark.parametrize("builder", [build_mapping, raw_target_mapping])
    @pytest.mark.parametrize(
        "items, message",
        [
            ([("AI", "2.0", 0)], "'AI': keyword weight must be a real number"),
            ([("AI", True, 0)], "'AI': keyword weight must be a real number"),
            ([("AI", None, "1"), ("A I", None, 0)], "'AI': keyword priority must be an integer"),
            ([("AI", None, 1.0)], "'AI': keyword priority must be an integer"),
            ([("AI", None, False)], "'AI': keyword priority must be an integer"),
            ([("AI", 10**400, 0)], "'AI': keyword weight is too large for a float"),
            ([5], r"keyword item 5 is not a string or a \(raw, weight, priority\) triple"),
            ([None], r"keyword item None is not a string or a \(raw, weight"),
            ([(5, None, 0)], r"keyword item \(5, None, 0\) is not a string or a \(raw"),
            ([("AI",)], r"keyword item \('AI',\) is not a string or a \(raw"),
            ([("AI", 2.0)], r"keyword item \('AI', 2\.0\) is not a string or a \(raw"),
            ([("AI", 2.0, 0, "junk")], r"keyword item \('AI', 2\.0, 0, 'junk'\) is not a"),
            ([("AI", 2.0, None)], "'AI': keyword priority must be an integer"),
            ([" \t"], "empty keyword"),
        ],
        ids=[
            "string-weight", "bool-weight", "string-priority", "float-priority",
            "bool-priority", "huge-weight", "int-item", "none-item", "int-raw", "one-field",
            "two-fields", "four-fields", "none-priority", "blank-raw",
        ],
    )
    def test_entry_fields_of_the_wrong_type_rejected(self, builder, items, message):
        # A string weight would break the decoder's boost sums, and a
        # string priority the collision ranking.
        with pytest.raises(NormalizationError, match=message):
            builder(items)

    @pytest.mark.parametrize("builder", [build_mapping, raw_target_mapping])
    def test_builders_read_no_file(self, builder, tmp_path):
        path = tmp_path / "kw.txt"
        path.write_text("AI\n", encoding="utf-8")
        for keywords in (path, str(path)):
            with pytest.raises(NormalizationError, match="keywords must be a list of items"):
                builder(keywords)

    def test_entry_weights_and_priorities_carried(self):
        mapping = build_mapping([("C3PO", 3.0, 1), "AI", ("IBM", 2, 2)])
        c3po, ai, ibm = mapping.entries
        assert (c3po.weight, c3po.priority) == (3.0, 1)
        assert (ai.weight, ai.priority) == (None, 0)
        # An integer weight is stored as the float it stands for.
        assert (ibm.weight, ibm.priority) == (2.0, 2) and type(ibm.weight) is float

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
