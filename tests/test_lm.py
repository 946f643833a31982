"""Tests for the ARPA loader and back-off queries."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwboost.errors import ArpaError
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
        assert bigram.order == 2
        assert sorted(bigram.tables[0]) == [("a",), ("b",), ("c",)]

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
        words = sorted(word for (word,) in lm.tables[0])
        mass = sum(10.0 ** lm.log10_cond(w, context) for w in words)
        assert 0.97 <= mass <= 1.03


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

    def test_error_formatting(self):
        assert str(ArpaError("boom", "m.arpa", 7)) == "m.arpa:7: boom"
        assert str(ArpaError("boom", "m.arpa")) == "m.arpa: boom"
        assert str(ArpaError("boom")) == "boom"
