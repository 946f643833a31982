"""Tests for alignment and the biased/unbiased error-rate decomposition."""

import itertools
import json
from dataclasses import fields
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwboost.errors import DataFormatError
from kwboost.scoring import (
    EditOp,
    ErrorCounts,
    ScoreReport,
    align,
    biased_wer,
    relative_reduction,
)


def oracle_distance(ref, hyp):
    """Plain recursive edit distance, memoized; the reference for align()."""
    ref = tuple(ref)
    hyp = tuple(hyp)

    @lru_cache(maxsize=None)
    def dist(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            dist(i - 1, j - 1) + (0 if ref[i - 1] == hyp[j - 1] else 1),
            dist(i - 1, j) + 1,
            dist(i, j - 1) + 1,
        )

    return dist(len(ref), len(hyp))


def cost(ops):
    """An alignment's cost: its ops that are not matches."""
    return sum(op.kind != "match" for op in ops)


class TestAlign:
    def test_identical(self):
        ops = align(["a", "b", "c"], ["a", "b", "c"])
        assert cost(ops) == 0
        assert all(op.kind == "match" for op in ops)

    def test_single_substitution(self):
        ops = align(["a", "b", "c"], ["a", "x", "c"])
        assert cost(ops) == 1
        assert [op.kind for op in ops] == ["match", "sub", "match"]
        assert ops[1] == EditOp("sub", "b", "x")

    def test_empty_ref_is_all_insertions(self):
        ops = align([], ["x", "y"])
        assert [op.kind for op in ops] == ["ins", "ins"]
        assert cost(ops) == 2

    def test_empty_hyp_is_all_deletions(self):
        ops = align(["x", "y"], [])
        assert [op.kind for op in ops] == ["del", "del"]

    def test_both_empty(self):
        assert align([], []) == []

    def test_tie_break_prefers_substitution(self):
        # Swapped words admit several cost-2 alignments; the backtrace
        # settles on the double substitution.
        ops = align(["a", "b"], ["b", "a"])
        assert [op.kind for op in ops] == ["sub", "sub"]

    def test_backtrace_is_deterministic(self):
        ref = ["they", "made", "a", "mark"]
        hyp = ["they", "may", "mark", "it"]
        first = align(ref, hyp)
        for _ in range(5):
            assert align(ref, hyp) == first

    def test_exhaustive_small_pairs_match_oracle(self):
        vocab = ["a", "b", "c"]
        seqs = [
            list(seq)
            for k in range(4)
            for seq in itertools.product(vocab, repeat=k)
        ]
        for ref in seqs:
            for hyp in seqs:
                assert cost(align(ref, hyp)) == oracle_distance(ref, hyp)

    @given(
        st.lists(st.sampled_from("abcd"), max_size=8),
        st.lists(st.sampled_from("abcd"), max_size=8),
    )
    def test_random_pairs_match_oracle(self, ref, hyp):
        assert cost(align(ref, hyp)) == oracle_distance(ref, hyp)

    @given(
        st.lists(st.sampled_from("abcd"), max_size=8),
        st.lists(st.sampled_from("abcd"), max_size=8),
    )
    def test_ops_reconstruct_both_sequences(self, ref, hyp):
        ops = align(ref, hyp)
        assert [op.ref for op in ops if op.ref is not None] == ref
        assert [op.hyp for op in ops if op.hyp is not None] == hyp
        for op in ops:
            if op.kind == "match":
                assert op.ref == op.hyp
            elif op.kind == "sub":
                assert op.ref != op.hyp

    @given(
        st.lists(st.sampled_from("abcd"), max_size=8),
        st.lists(st.sampled_from("abcd"), max_size=8),
    )
    def test_distance_is_symmetric(self, ref, hyp):
        assert cost(align(ref, hyp)) == cost(align(hyp, ref))


REF = "they made a presentation about AI analytics".split()


class TestBiasedWer:
    def test_keyword_deletion_is_biased(self):
        hyp = "they made a presentation about analytics".split()
        report = biased_wer([("u1", REF, hyp)], ["AI"])
        assert report.biased_ref_words == 1
        assert report.errors.del_biased == 1
        assert report.errors.total == 1
        assert report.b_wer == pytest.approx(100.0)
        assert report.u_wer == pytest.approx(0.0)
        assert report.wer == pytest.approx(100.0 / 7.0)

    def test_letter_spray_is_unbiased_insertions(self):
        # The keyword came out as letters: one biased substitution plus
        # three unbiased insertions under the minimal alignment.
        hyp = "they made a presentation about a i e e analytics".split()
        report = biased_wer([("u1", REF, hyp)], ["AI"])
        assert report.errors.sub_biased == 1
        assert report.errors.ins_unbiased == 3
        assert report.errors.total == 4
        assert report.b_wer == pytest.approx(100.0)
        assert report.u_wer == pytest.approx(50.0)

    def test_perfect_hypothesis(self):
        report = biased_wer([("u1", REF, list(REF))], ["AI"])
        assert report.wer == 0.0
        assert report.u_wer == 0.0
        assert report.b_wer == 0.0
        assert report.keywords[0].hits == 1

    def test_written_form_split_counts_against_both_rates(self):
        report = biased_wer(
            [("u1", ["the", "square1", "app"], ["the", "square", "one", "app"])],
            ["square1"],
        )
        assert report.errors.sub_biased == 1
        assert report.errors.ins_unbiased == 1
        assert report.b_wer == pytest.approx(100.0)
        assert report.u_wer == pytest.approx(50.0)

    def test_insertion_of_a_listed_word_is_biased(self):
        report = biased_wer([("u1", ["call", "now"], ["call", "AI", "now"])], ["AI"])
        assert report.errors.ins_biased == 1
        assert report.errors.unbiased == 0
        assert report.biased_ref_words == 0
        assert report.b_wer is None

    def test_b_wer_none_without_biased_reference_words(self):
        report = biased_wer([("u1", ["hello", "there"], ["hello", "there"])], ["QQQ"])
        assert report.b_wer is None
        assert report.to_dict()["corpus"]["b_wer"] is None

    def test_multi_word_phrase_contributes_each_word(self):
        report = biased_wer(
            [("u1", ["want", "ice", "cream", "now"], ["want", "ice", "now"])],
            ["ice cream"],
        )
        assert report.biased_ref_words == 2
        assert report.errors.del_biased == 1
        assert report.b_wer == pytest.approx(50.0)
        # The phrase stat needs the full span intact.
        (stat,) = report.keywords
        assert (stat.occurrences, stat.hits, stat.misses) == (1, 0, 1)

    def test_phrase_occurrences_do_not_overlap(self):
        ref = ["go", "go", "go"]
        report = biased_wer([("u1", ref, list(ref))], ["go go"])
        (stat,) = report.keywords
        assert stat.occurrences == 1
        assert stat.hits == 1

    def test_insertion_inside_a_phrase_is_a_miss(self):
        # Both reference words align as matches; the inserted "big"
        # between them still breaks the keyword.
        report = biased_wer([("u1", ["New", "York"], ["New", "big", "York"])], ["New York"])
        assert report.errors.ins_unbiased == 1
        assert report.errors.total == 1
        (stat,) = report.keywords
        assert (stat.occurrences, stat.hits, stat.misses) == (1, 0, 1)

    @pytest.mark.parametrize(
        "hyp",
        [
            ["in", "big", "New", "York", "now"],
            ["in", "New", "York", "big", "now"],
            # The backtrace aligns the first "York" as the insertion, so
            # the span's matches straddle it: still "New York" in a row.
            ["in", "New", "York", "York", "now"],
            ["in", "New", "New", "York", "now"],
        ],
        ids=["before", "after", "repeat-after", "repeat-before"],
    )
    def test_insertion_next_to_a_phrase_is_still_a_hit(self, hyp):
        report = biased_wer([("u1", ["in", "New", "York", "now"], hyp)], ["New York"])
        assert report.errors.ins_biased + report.errors.ins_unbiased == 1
        assert report.errors.total == 1
        (stat,) = report.keywords
        assert (stat.occurrences, stat.hits, stat.misses) == (1, 1, 0)

    def test_case_sensitive_by_default(self):
        report = biased_wer([("u1", ["ai", "now"], ["ai", "now"])], ["AI"])
        assert report.biased_ref_words == 0
        folded = biased_wer([("u1", ["ai", "now"], ["ai", "now"])], ["AI"], case_fold=True)
        assert folded.biased_ref_words == 1

    def test_duplicate_terms_collapse(self):
        report = biased_wer([("u1", REF, list(REF))], ["AI", "AI"])
        assert len(report.keywords) == 1

    def test_rates_can_exceed_one_hundred(self):
        report = biased_wer([("u1", ["x"], ["x", "y", "z"])], ["QQQ"])
        assert report.wer == pytest.approx(200.0)

    def test_empty_hypothesis_is_total_deletion(self):
        report = biased_wer([("u1", ["a", "b"], [])], [])
        assert report.wer == pytest.approx(100.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataFormatError, match="empty corpus"):
            biased_wer([], ["AI"])

    def test_per_utterance_rows(self):
        corpus = [
            ("u1", REF, "they made a presentation about analytics".split()),
            ("u2", ["fine", "words"], ["fine", "words"]),
        ]
        report = biased_wer(corpus, ["AI"])
        assert [u.utt_id for u in report.utterances] == ["u1", "u2"]
        assert report.utterances[0].b_wer == pytest.approx(100.0)
        assert report.utterances[1].wer == 0.0
        assert report.utterances[1].b_wer is None
        assert report.ref_words == 9

    def test_membership_locality(self):
        corpus = [("u1", REF, "they made a presentation about analytics".split())]
        before = biased_wer(corpus, ["AI"]).to_dict()
        after = biased_wer(corpus, ["AI", "ZZZZ"]).to_dict()
        assert after["corpus"] == before["corpus"]
        assert after["utterances"] == before["utterances"]
        assert after["keywords"][0] == before["keywords"][0]
        assert after["keywords"][1] == {
            "term": "ZZZZ",
            "occurrences": 0,
            "hits": 0,
            "misses": 0,
        }

    def test_report_schema_and_rounding(self, tmp_path):
        hyp = "they made a presentation about a i e e analytics".split()
        report = biased_wer([("u1", REF, hyp)], ["AI"])
        doc = report.to_dict()
        assert set(doc) == {"corpus", "utterances", "keywords"}
        corpus = doc["corpus"]
        assert corpus["ref_words"] == 7
        assert corpus["biased_ref_words"] == 1
        assert corpus["unbiased_ref_words"] == 6
        assert corpus["wer"] == pytest.approx(57.14)
        assert corpus["u_wer"] == pytest.approx(50.0)
        assert corpus["b_wer"] == pytest.approx(100.0)
        assert corpus["errors"]["substitutions"] == {"biased": 1, "unbiased": 0}
        assert corpus["errors"]["insertions"] == {"biased": 0, "unbiased": 3}
        assert corpus["errors"]["total"] == 4
        out = tmp_path / "report.json"
        report.save(out)
        assert json.loads(out.read_text(encoding="utf-8")) == doc
        assert out.read_text(encoding="utf-8").endswith("\n")


@st.composite
def corpora(draw):
    vocab = ["red", "green", "blue", "gold", "AI"]
    n = draw(st.integers(min_value=1, max_value=4))
    corpus = []
    for k in range(n):
        ref = draw(st.lists(st.sampled_from(vocab), max_size=6))
        hyp = draw(st.lists(st.sampled_from(vocab), max_size=6))
        corpus.append((f"u{k}", ref, hyp))
    terms = draw(st.lists(st.sampled_from(vocab + ["gold rush"]), max_size=3))
    return corpus, terms


class TestDecomposition:
    @given(corpora())
    def test_errors_split_exactly(self, case):
        corpus, terms = case
        report = biased_wer(corpus, terms)
        assert report.errors.biased + report.errors.unbiased == report.errors.total
        assert report.errors.total == sum(cost(align(ref, hyp)) for _, ref, hyp in corpus)
        assert report.biased_ref_words + report.unbiased_ref_words == report.ref_words
        for utt, (_, ref, hyp) in zip(report.utterances, corpus):
            assert utt.errors.total == cost(align(ref, hyp))
        # The corpus totals are the sums of the rows, field by field.
        rows = report.utterances
        for field in fields(ErrorCounts):
            total = sum(getattr(utt.errors, field.name) for utt in rows)
            assert getattr(report.errors, field.name) == total
        assert report.ref_words == sum(utt.ref_words for utt in rows)
        assert report.biased_ref_words == sum(utt.biased_ref_words for utt in rows)

    @given(corpora(), st.data())
    def test_a_subset_of_rows_is_that_subset_s_report(self, case, data):
        # A fold or a resample needs no re-alignment: its rows, picked
        # from the corpus report, score as the subset itself does.
        corpus, terms = case
        indices = range(len(corpus))
        picked = sorted(data.draw(st.lists(st.sampled_from(indices), min_size=1, unique=True)))
        rows = biased_wer(corpus, terms).utterances
        subset = ScoreReport([rows[i] for i in picked])
        scored = biased_wer([corpus[i] for i in picked], terms)
        assert subset.utterances == scored.utterances
        assert subset.errors.total == sum(cost(align(corpus[i][1], corpus[i][2])) for i in picked)
        assert subset.ref_words == sum(len(corpus[i][1]) for i in picked)
        assert subset.errors == scored.errors
        assert subset.ref_words == scored.ref_words
        assert subset.biased_ref_words == scored.biased_ref_words
        assert (subset.wer, subset.u_wer, subset.b_wer) == (scored.wer, scored.u_wer, scored.b_wer)

    @given(corpora())
    def test_rates_are_non_negative(self, case):
        corpus, terms = case
        report = biased_wer(corpus, terms)
        for value in (report.wer, report.u_wer, report.b_wer):
            assert value is None or value >= 0.0


class TestRelativeReduction:
    def test_reported_reduction(self):
        value = relative_reduction(29.96, 22.12)
        assert value == pytest.approx(26.1682, abs=1e-4)
        assert round(value) == 26

    def test_no_change(self):
        assert relative_reduction(12.5, 12.5) == 0.0

    def test_halving(self):
        assert relative_reduction(20.0, 10.0) == pytest.approx(50.0)

    @pytest.mark.parametrize("before", [0.0, -1.0])
    def test_non_positive_baseline_rejected(self, before):
        with pytest.raises(ValueError):
            relative_reduction(before, 1.0)
