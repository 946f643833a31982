"""Tests for the ARPA loader and back-off queries."""

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwboost.errors import ArpaError, DataFormatError
from kwboost.lm import NGramLM, load_arpa


@pytest.fixture(scope="module")
def bigram(data_dir):
    return load_arpa(data_dir / "tiny_bigram.arpa")


def write_arpa(tmp_path, text):
    path = tmp_path / "model.arpa"
    path.write_text(text, encoding="utf-8")
    return path


class TestQueries:
    def test_shape(self, bigram):
        # Unigrams are keyed by word, longer n-grams by tuple, each to its
        # bare probability; only a line that lists a back-off weight has one.
        assert bigram.order == 2
        assert bigram.tables == [
            {"a": -0.30, "b": -1.00, "c": -0.70},
            {("a", "b"): -0.30, ("c", "a"): -0.40},
        ]
        assert bigram.backoffs == {("a",): -0.20}

    def test_unigram_lookup(self, bigram):
        assert bigram.unigram_log10("a") == pytest.approx(-0.30)
        assert bigram.unigram_log10("b") == pytest.approx(-1.00)
        assert bigram.unigram_log10("zzz") == float("-inf")

    def test_explicit_bigram(self, bigram):
        assert bigram.log10_cond("b", ("a",)) == pytest.approx(-0.30)
        assert bigram.log10_cond("a", ("c",)) == pytest.approx(-0.40)

    def test_backoff_applies_context_weight(self, bigram):
        # No "a c" bigram: back off through a's weight to the unigram.
        assert bigram.log10_cond("c", ("a",)) == pytest.approx(-0.90)

    def test_backoff_without_weight_is_free(self, bigram):
        # c carries no back-off weight, so the fall-back is the bare unigram.
        assert bigram.log10_cond("b", ("c",)) == pytest.approx(-1.00)

    def test_empty_context_is_the_unigram(self, bigram):
        assert bigram.log10_cond("b") == pytest.approx(-1.00)
        assert bigram.log10_cond("b", ()) == pytest.approx(-1.00)

    def test_context_truncates_to_order_minus_one(self, bigram):
        want = bigram.log10_cond("b", ("a",))
        assert bigram.log10_cond("b", ("x", "a")) == want
        assert bigram.log10_cond("b", ("q", "r", "a")) == want

    def test_unknown_context_backs_off_freely(self, bigram):
        assert bigram.log10_cond("b", ("zzz",)) == pytest.approx(-1.00)

    def test_unknown_word_hits_the_floor(self, bigram):
        assert bigram.log10_cond("zzz") == pytest.approx(-8.0)
        assert bigram.log10_cond("zzz", ("a",)) == pytest.approx(-8.20)

    def test_unigram_model_ignores_context(self, data_dir):
        lm = load_arpa(data_dir / "gate_unigram.arpa")
        assert lm.order == 1
        assert lm.log10_cond("a", ("the", "i")) == pytest.approx(-1.20)

    @given(
        word=st.sampled_from(["a", "b", "c", "zzz"]),
        context=st.lists(st.sampled_from(["a", "b", "c", "zzz"]), max_size=3),
    )
    def test_conditionals_stay_finite(self, bigram, word, context):
        value = bigram.log10_cond(word, context)
        assert math.isfinite(value)


class TestConservation:
    """A well-formed back-off model should conserve probability mass."""

    @pytest.mark.parametrize("context", [(), ("a",), ("b",), ("c",)])
    def test_mass_per_context(self, data_dir, context):
        lm = load_arpa(data_dir / "normalized_bigram.arpa")
        words = sorted(lm.tables[0])
        mass = sum(10.0 ** lm.log10_cond(w, context) for w in words)
        assert 0.97 <= mass <= 1.03


# Small ARPA models for the reference property: up to four words, orders
# 1-3, each n-gram's context listed one order down.  Probabilities include
# -inf and -0.0; a line lists a back-off weight or not, 0.0 included.
_WORDS = ["a", "b", "c", "d"]
_PROBS = st.one_of(
    st.sampled_from([-math.inf, -0.0, -0.3]), st.floats(-6.0, 0.0, allow_nan=False)
)
_BACKOFFS = st.one_of(
    st.none(), st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0, allow_nan=False)
)


@st.composite
def arpa_lines(draw):
    """Each order's lines, as (n-gram tuple, probability, back-off or None)."""
    unigrams = draw(st.lists(st.sampled_from(_WORDS), min_size=1, unique=True))
    grams = [[(word,) for word in unigrams]]
    for _ in range(draw(st.integers(0, 2))):
        extended = [gram + (word,) for gram in grams[-1] for word in _WORDS]
        grams.append(
            draw(st.lists(st.sampled_from(extended), unique=True, max_size=8))
            if extended else []
        )
    return [[(gram, draw(_PROBS), draw(_BACKOFFS)) for gram in order] for order in grams]


def arpa_text(lines):
    out = ["\\data\\"]
    out += [f"ngram {n}={len(order)}" for n, order in enumerate(lines, 1)]
    for n, order in enumerate(lines, 1):
        out.append(f"\n\\{n}-grams:")
        for gram, prob, backoff in order:
            tail = "" if backoff is None else f"\t{backoff!r}"
            out.append(f"{prob!r}\t{' '.join(gram)}{tail}")
    out.append("\\end\\")
    return "\n".join(out) + "\n"


class ReferenceLM:
    """The same lines in (probability, back-off) pairs keyed by tuple, one
    table per order, queried by the plain back-off recursion."""

    def __init__(self, lines):
        self.tables = [
            {gram: (prob, 0.0 if backoff is None else backoff) for gram, prob, backoff in order}
            for order in lines
        ]

    def unigram_log10(self, word):
        entry = self.tables[0].get((word,))
        return entry[0] if entry is not None else -math.inf

    def log10_cond(self, word, context):
        order = len(self.tables)
        return self._cond(word, tuple(context)[-(order - 1):] if order > 1 else ())

    def _cond(self, word, context):
        ngram = context + (word,)
        entry = self.tables[len(ngram) - 1].get(ngram)
        if entry is not None:
            return entry[0]
        if not context:
            return -8.0
        ctx_entry = self.tables[len(context) - 1].get(context)
        backoff = ctx_entry[1] if ctx_entry is not None else 0.0
        return backoff + self._cond(word, context[1:])


class TestAgainstReference:
    @given(arpa_lines())
    def test_queries_equal_the_reference(self, tmp_path_factory, lines):
        """Every query, over every context of up to three known or unknown
        words, equals the reference, and so does the sign of a zero."""
        path = tmp_path_factory.mktemp("arpa") / "model.arpa"
        path.write_text(arpa_text(lines), encoding="utf-8")
        lm, ref = load_arpa(path), ReferenceLM(lines)
        assert lm.order == len(lines)
        words = _WORDS + ["zzz"]
        for word in words:
            assert lm.unigram_log10(word).hex() == ref.unigram_log10(word).hex()
            for size in range(4):
                for context in itertools.product(words, repeat=size):
                    got = lm.log10_cond(word, context)
                    assert got.hex() == ref.log10_cond(word, context).hex()


VALID = """\\data\\
ngram 1=2
ngram 2=1

\\1-grams:
-0.30\ta\t-0.20
-0.52\tb

\\2-grams:
-0.25\ta b

\\end\\
"""


class TestLoader:
    def test_valid_roundtrip(self, tmp_path):
        lm = load_arpa(write_arpa(tmp_path, VALID))
        assert lm.order == 2
        assert lm.log10_cond("b", ("a",)) == pytest.approx(-0.25)

    def test_mixed_tabs_and_spaces(self, tmp_path):
        text = VALID.replace("-0.25\ta b", "-0.25 a\tb")
        lm = load_arpa(write_arpa(tmp_path, text))
        assert lm.log10_cond("b", ("a",)) == pytest.approx(-0.25)

    @pytest.mark.parametrize(
        "text,message,lineno",
        [
            ("ngram 1=1\n\\end\\\n", "count before", 1),
            ("\\1-grams:\n\\end\\\n", "section before", 1),
            (
                "\\data\\\nngram 1=1\nngram 2=1\n\\2-grams:\n",
                "unexpected \\\\2-grams",
                4,
            ),
            (
                "\\data\\\nngram 1=1\n\\1-grams:\n-0.5 a\n\\2-grams:\n",
                "no declared count",
                5,
            ),
            (
                "\\data\\\nngram 1=1\n\\1-grams:\n-0.5 a b c\n\\end\\\n",
                "expected 2 or 3 fields, got 4",
                4,
            ),
            (
                "\\data\\\nngram 1=1\n\\1-grams:\nx a\n\\end\\\n",
                "bad log10 probability",
                4,
            ),
            (
                "\\data\\\nngram 1=1\n\\1-grams:\n0.5 a\n\\end\\\n",
                "positive log10 probability",
                4,
            ),
            (
                "\\data\\\nngram 1=1\n\\1-grams:\n-0.5 a zz\n\\end\\\n",
                "bad back-off weight",
                4,
            ),
            ("\\data\\\ngarbage\n\\end\\\n", "unexpected line", 2),
            # Non-finite values would turn LM queries into NaN or inf.
            (
                "\\data\\\nngram 1=1\n\\1-grams:\nnan a\n\\end\\\n",
                "bad log10 probability 'nan'",
                4,
            ),
            (
                "\\data\\\nngram 1=1\n\\1-grams:\n-0.5 a nan\n\\end\\\n",
                "bad back-off weight 'nan'",
                4,
            ),
            (
                "\\data\\\nngram 1=1\n\\1-grams:\n-0.5 a inf\n\\end\\\n",
                "bad back-off weight 'inf'",
                4,
            ),
            (
                "\\data\\\nngram 1=2\n\\1-grams:\n-0.5 a\n-0.5 b -inf\n\\end\\\n",
                "bad back-off weight '-inf'",
                5,
            ),
            (
                "\\data\\\nngram 0=1\nngram 1=1\n\\1-grams:\n-0.5 a\n\\end\\\n",
                "ngram order 0 is below 1",
                2,
            ),
            (
                "\\data\\\nngram 1=1\nngram 1=2\n\\1-grams:\n-0.5 a\n\\end\\\n",
                "second count line for ngram 1",
                3,
            ),
            # A repeated n-gram would silently replace the first entry.
            (
                "\\data\\\nngram 1=1\n\\1-grams:\n-1.0 a\n-2.0 a\n\\end\\\n",
                "duplicate 1-gram 'a'",
                5,
            ),
            (
                "\\data\\\nngram 1=2\n\\1-grams:\n-1.0 a\n-2.0 a\n\\end\\\n",
                "duplicate 1-gram 'a'",
                5,
            ),
            # The context is checked as the n-gram is read, so the error
            # names the line of the orphan.
            (
                "\\data\\\nngram 1=1\nngram 2=2\n\\1-grams:\n-0.5 a\n"
                "\\2-grams:\n-0.3 a a\n-0.3 x a\n\\end\\\n",
                "2-gram 'x a' has no 1-gram context entry",
                8,
            ),
            (
                "\\data\\\nngram 1=2\nngram 2=1\nngram 3=1\n\\1-grams:\n-0.5 a\n-0.5 b\n"
                "\\2-grams:\n-0.3 a b\n\\3-grams:\n-0.2 b a b\n\\end\\\n",
                "3-gram 'b a b' has no 2-gram context entry",
                11,
            ),
        ],
        ids=[
            "count-before-data", "section-before-data", "2grams-before-1grams",
            "2grams-without-count", "too-many-fields", "bad-logprob", "positive-logprob",
            "bad-backoff", "garbage-line", "nan-logprob", "nan-backoff", "inf-backoff",
            "neg-inf-backoff", "order-zero", "second-count-line", "duplicate-unigram",
            "duplicate-unigram-count-2", "orphan-context",
            "orphan-trigram-context",
        ],
    )
    def test_line_numbered_errors(self, tmp_path, text, message, lineno):
        path = write_arpa(tmp_path, text)
        with pytest.raises(ArpaError, match=message) as err:
            load_arpa(path)
        assert f":{lineno}:" in str(err.value)

    def test_missing_data_header(self, tmp_path):
        with pytest.raises(ArpaError, match="missing .data."):
            load_arpa(write_arpa(tmp_path, "\\end\\\n"))

    def test_missing_end_marker(self, tmp_path):
        text = VALID.replace("\\end\\\n", "")
        with pytest.raises(ArpaError, match="missing .end."):
            load_arpa(write_arpa(tmp_path, text))

    def test_count_mismatch(self, tmp_path):
        text = "\\data\\\nngram 1=2\n\\1-grams:\n-0.5 a\n\\end\\\n"
        with pytest.raises(ArpaError, match="declared ngram 1=2 but parsed 1"):
            load_arpa(write_arpa(tmp_path, text))

    def test_declared_order_without_section(self, tmp_path):
        text = "\\data\\\nngram 1=1\nngram 2=1\n\\1-grams:\n-0.5 a\n\\end\\\n"
        with pytest.raises(ArpaError, match="no .2-grams: section"):
            load_arpa(write_arpa(tmp_path, text))

    def test_orphan_bigram_context(self, tmp_path):
        text = (
            "\\data\\\nngram 1=1\nngram 2=1\n"
            "\\1-grams:\n-0.5 a\n"
            "\\2-grams:\n-0.3 x b\n\\end\\\n"
        )
        with pytest.raises(ArpaError, match="no 1-gram context entry"):
            load_arpa(write_arpa(tmp_path, text))

    def test_minus_infinity_probability_is_kept(self, tmp_path):
        # An impossible word is legal ARPA; only NaN is rejected.
        text = "\\data\\\nngram 1=2\n\\1-grams:\n-0.5 a\n-inf b\n\\end\\\n"
        lm = load_arpa(write_arpa(tmp_path, text))
        assert lm.unigram_log10("b") == float("-inf")
        assert lm.log10_cond("b", ("a",)) == float("-inf")

    def test_numeric_looking_word_is_a_word(self, tmp_path):
        # Field count decides: three fields in a 2-gram section are a
        # bigram with no back-off, even when the last word looks numeric.
        text = (
            "\\data\\\nngram 1=1\nngram 2=1\n"
            "\\1-grams:\n-0.5 a\n"
            "\\2-grams:\n-0.3 a -0.1\n\\end\\\n"
        )
        lm = load_arpa(write_arpa(tmp_path, text))
        assert lm.log10_cond("-0.1", ("a",)) == pytest.approx(-0.3)

    def test_empty_model_rejected(self):
        with pytest.raises(ArpaError, match="no unigrams"):
            NGramLM([])
        with pytest.raises(ArpaError, match="no unigrams"):
            NGramLM([{}])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\\data\\\nngram 0=1\n", ":2: ngram order 0 is below 1"),
            # A file with no n-gram section has no one line at fault.
            ("\\data\\\n\\end\\\n", ": no n-gram sections"),
            ("\\data\\\nngram 1=0\n\\1-grams:\n\\end\\\n", ": model has no unigrams"),
        ],
        ids=["with-line", "without-line", "empty-unigrams"],
    )
    def test_errors_begin_with_the_path(self, tmp_path, text, message):
        path = write_arpa(tmp_path, text)
        with pytest.raises(ArpaError) as err:
            load_arpa(path)
        assert str(err.value) == f"{path}{message}"
        # A malformed ARPA file is a data error like any other file's.
        assert isinstance(err.value, DataFormatError)
