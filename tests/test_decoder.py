"""Tests for the streaming CTC prefix beam search and its boost modes."""

import gc
import math
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctc_oracle import detokenize, exhaustive_scores, top_two
from ref_decoder import RefSession
from kwboost import decoder
from kwboost.bias_trie import build_trie
from kwboost.dataio import read_logits, read_manifest, read_vocab_file, write_vocab_file
from kwboost.decoder import (
    MODES,
    DecodeConfig,
    DecodeResult,
    LogitMatrix,
    Vocabulary,
    decode,
    new_session,
)
from kwboost.errors import ConfigError, DataFormatError
from kwboost.lm import load_arpa
from kwboost.norm import KeywordMatch, build_mapping, inverse_normalize, load_keyword_list

LN10 = math.log(10.0)


def letter_vocab(*letters):
    """Blank plus one single-word token per letter."""
    return Vocabulary(("_",) + letters, 0, "prefix", "")


def softmax_logits(rng, num_frames, num_tokens):
    x = rng.standard_normal((num_frames, num_tokens))
    x -= np.log(np.exp(x).sum(axis=1, keepdims=True))
    return LogitMatrix(x)


def rows(*distributions):
    """LogitMatrix from per-frame probability rows."""
    return LogitMatrix(np.log(np.asarray(distributions, dtype=np.float64)))


# Three-token logits that are not real numbers; the complex row would
# pass the row check if its imaginary part were dropped.
NOT_REAL = [
    [["x", "y", "z"]],
    np.log([[0.2, 0.3, 0.5]]).astype(complex),
    np.array([[False, False, True]]),
]
NOT_REAL_IDS = ["text", "complex", "bool"]


def exact_config(**overrides):
    """No pruning, no per-word bonus: totals are pure path mass."""
    base = dict(beam_width=4096, word_bonus=0.0, token_min_logp=float("-inf"))
    base.update(overrides)
    return DecodeConfig(**base)


class TestVocabulary:
    def test_prefix_marker_words(self):
        vocab = Vocabulary(("_", "+he", "llo", "+out"), 0, "prefix", "+")
        assert detokenize(vocab, [1, 2, 3]) == ["hello", "out"]
        assert detokenize(vocab, [0, 1, 0, 2]) == ["hello"]

    def test_empty_prefix_makes_every_token_a_word(self):
        vocab = letter_vocab("a", "b")
        assert detokenize(vocab, [1, 2, 1]) == ["a", "b", "a"]

    def test_delimiter_words(self):
        vocab = Vocabulary(("_", " ", "h", "i"), 0, "delimiter", " ")
        assert detokenize(vocab, [2, 3, 1, 2]) == ["hi", "h"]
        assert detokenize(vocab, [1, 1]) == []

    def test_blank_never_contributes(self):
        vocab = Vocabulary(("_", " ", "h", "i"), 0, "delimiter", " ")
        assert detokenize(vocab, [0, 2, 0, 0, 3, 0]) == ["hi"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tokens=(), blank_index=0, boundary_kind="prefix", boundary_value=""),
            dict(tokens=("a",), blank_index=3, boundary_kind="prefix", boundary_value=""),
            dict(tokens=("a",), blank_index=0, boundary_kind="noise", boundary_value=""),
            dict(tokens=("a",), blank_index=0, boundary_kind="delimiter", boundary_value="|"),
            dict(tokens=("a", "a"), blank_index=0, boundary_kind="prefix", boundary_value=""),
            dict(tokens=("_", ""), blank_index=0, boundary_kind="prefix", boundary_value=""),
            dict(tokens=("_", "a\nb"), blank_index=0, boundary_kind="prefix", boundary_value=""),
            dict(tokens=("_", "a\n"), blank_index=0, boundary_kind="prefix", boundary_value=""),
            dict(tokens=("_", "a\rb"), blank_index=0, boundary_kind="prefix", boundary_value=""),
            dict(tokens=("_", "a\u2028"), blank_index=0, boundary_kind="prefix", boundary_value=""),
            dict(tokens=("_", "a"), blank_index=0, boundary_kind="prefix", boundary_value="+\n"),
            dict(
                tokens=("<blank>", "a", "b"), blank_index=0,
                boundary_kind="delimiter", boundary_value="<blank>",
            ),
        ],
    )
    def test_invalid_vocabularies(self, kwargs):
        with pytest.raises(ConfigError):
            Vocabulary(**kwargs)


class TestVocabularyFile:
    @pytest.mark.parametrize(
        "vocab",
        [
            Vocabulary(("#x", "_", "|", "a"), 1, "delimiter", "|"),
            Vocabulary(("#blank=3", "_", "a"), 1, "prefix", ""),
            Vocabulary(("_", " ", "h", "i"), 0, "delimiter", " "),
        ],
    )
    def test_round_trip(self, vocab, tmp_path):
        # The header ends with its two directives, so a token may start with #.
        write_vocab_file(tmp_path / "vocab.txt", vocab)
        assert read_vocab_file(tmp_path / "vocab.txt") == vocab

    def test_an_empty_line_among_tokens_is_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#blank=0\n#boundary=prefix:\n_\n\na\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"vocab\.txt:4: empty token line"):
            read_vocab_file(path)

    def test_trailing_blank_lines_are_dropped(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#blank=0\n#boundary=prefix:\n_\na\n\n\n", encoding="utf-8")
        assert read_vocab_file(path).tokens == ("_", "a")

    @pytest.mark.parametrize(
        "header, error",
        [
            # Read as its last value, the header would make "a" the blank.
            ("#blank=0\n#blank=2\n#boundary=delimiter:|\n", r":2: repeated #blank directive"),
            ("#boundary=delimiter:|\n#boundary=prefix:\n#blank=0\n", r":2: repeated #boundary"),
            ("#blank=1\n#boundary=delimiter:|\n", r": delimiter token '\|' is the blank token"),
        ],
        ids=["repeated-blank", "repeated-boundary", "blank-delimiter"],
    )
    def test_bad_headers_are_rejected(self, tmp_path, header, error):
        path = tmp_path / "vocab.txt"
        path.write_text(header + "_\n|\na\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"vocab\.txt" + error):
            read_vocab_file(path)


class TestLogitMatrix:
    def test_casts_to_float32(self):
        mat = rows([0.5, 0.5])
        assert mat.data.dtype == np.float32
        assert (mat.num_frames, mat.num_tokens) == (1, 2)

    def test_rejects_non_2d(self):
        with pytest.raises(DataFormatError, match="2-D"):
            LogitMatrix(np.zeros(3))

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(DataFormatError, match="not normalized"):
            LogitMatrix(np.log([[0.5, 0.4]]))

    @pytest.mark.filterwarnings("error")
    def test_huge_log_probability_is_rejected_without_a_warning(self):
        with pytest.raises(DataFormatError, match="not normalized"):
            LogitMatrix(np.array([[1000.0, 0.0]]))

    def test_empty_is_fine(self):
        assert LogitMatrix(np.zeros((0, 4))).num_frames == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("data", NOT_REAL, ids=NOT_REAL_IDS)
    def test_rejects_values_that_are_not_real(self, data):
        with pytest.raises(DataFormatError, match="must be real numbers"):
            LogitMatrix(data)

    def test_rejects_nan_rows(self, tmp_path):
        data = np.log(np.full((2, 2), 0.5, dtype=np.float32))
        data[1, 0] = np.nan
        with pytest.raises(DataFormatError, match="not normalized"):
            LogitMatrix(data)
        path = tmp_path / "nan.ctcl"
        path.write_bytes(struct.pack("<4sIII", b"CTCL", 1, 2, 2) + data.tobytes())
        with pytest.raises(DataFormatError, match="not normalized"):
            read_logits(path)


class TestDecodeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beam_width=0),
            dict(mode="turbo"),
            dict(lm_weight=float("nan")),
            dict(lm_weight=float("inf")),
            dict(word_bonus=float("nan")),
            dict(word_bonus=float("-inf")),
            dict(token_min_logp=0.5),
            dict(token_min_logp=float("nan")),
            dict(beam_width=2.5),
            dict(beam_width=True),
            dict(lm_weight="0.5"),
            dict(word_bonus="1.5"),
            dict(token_min_logp="-9"),
            dict(lm_weight=True),
            dict(word_bonus=None),
            dict(token_min_logp=False),
            dict(beam_width=np.float64(3.0)),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            DecodeConfig(**kwargs)

    def test_numpy_integer_beam_width(self):
        assert DecodeConfig(beam_width=np.int64(3)).beam_width == 3

    def test_disable_floor_with_neg_inf(self):
        assert DecodeConfig(token_min_logp=float("-inf")).token_min_logp == float("-inf")

    def test_modes(self):
        assert MODES == ("baseline", "default", "ngram")


class TestSessionBasics:
    def test_non_baseline_requires_trie(self):
        vocab = letter_vocab("a")
        for mode in ("default", "ngram"):
            with pytest.raises(ConfigError, match="requires a bias trie"):
                new_session(vocab, DecodeConfig(mode=mode))

    def test_chunk_width_must_match_vocab(self):
        session = new_session(letter_vocab("a", "b"), DecodeConfig())
        with pytest.raises(DataFormatError, match="does not match vocabulary"):
            session.push_frames(np.zeros((2, 5)))

    def test_raw_chunks_are_row_checked(self):
        session = new_session(letter_vocab("a"), exact_config())
        for bad in (np.zeros((2, 2)), np.full((1, 2), np.nan)):
            with pytest.raises(DataFormatError, match="not normalized"):
                session.push_frames(bad)
        # A rejected chunk leaves the session untouched.
        session.push_frames(np.log([[0.2, 0.8]]))
        assert session.finalize().words == ("a",)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("data", NOT_REAL, ids=NOT_REAL_IDS)
    def test_raw_chunks_must_be_real(self, data):
        vocab = Vocabulary(("_", "a", "b"), 0, "prefix", "")
        with pytest.raises(DataFormatError, match="must be real numbers"):
            decode(np.asarray(data), vocab, exact_config())

    def test_push_after_finalize_rejected(self):
        session = new_session(letter_vocab("a"), exact_config())
        session.push_frames(rows([0.2, 0.8]))
        session.finalize()
        with pytest.raises(ConfigError, match="finalized"):
            session.push_frames(rows([0.2, 0.8]))

    def test_finalize_is_idempotent(self):
        session = new_session(letter_vocab("a"), exact_config())
        session.push_frames(rows([0.2, 0.8]))
        assert session.finalize() is session.finalize()

    def test_empty_stream(self):
        result = decode(LogitMatrix(np.zeros((0, 2))), letter_vocab("a"), exact_config())
        assert result.words == ()
        assert result.total == 0.0
        assert result.nbest[0].tokens == ()

    def test_partial_then_final(self):
        session = new_session(letter_vocab("a"), exact_config())
        partial = session.push_frames(rows([0.2, 0.8], [0.9, 0.1]))
        assert partial.words == partial.nbest[0].words == ("a",)
        final = session.finalize()
        assert final.words == final.nbest[0].committed == ("a",)

    def test_baseline_carries_no_boost(self):
        result = decode(
            softmax_logits(np.random.default_rng(0), 5, 3),
            letter_vocab("a", "b"),
            exact_config(),
        )
        for hyp in result.nbest:
            assert hyp.partial_boost == 0.0 and hyp.final_boost == 0.0


class TestAgainstOracle:
    def test_pinned_three_frame_toy(self):
        # Hand-summed path masses for the label sequence (a, b):
        # a·a·b, a·b·b, a·_·b, a·b·_ and _·a·b.
        vocab = letter_vocab("a", "b")
        logits = rows(
            [0.05, 0.90, 0.05],
            [0.90, 0.05, 0.05],
            [0.05, 0.05, 0.90],
        )
        by_hand = (
            0.90 * 0.05 * 0.90
            + 0.90 * 0.05 * 0.90
            + 0.90 * 0.90 * 0.90
            + 0.90 * 0.05 * 0.05
            + 0.05 * 0.05 * 0.90
        )
        result = decode(logits, vocab, exact_config())
        assert result.words == ("a", "b")
        assert result.total == pytest.approx(math.log(by_hand), abs=1e-6)

    @pytest.mark.parametrize("num_tokens", [2, 3, 4])
    @pytest.mark.parametrize("num_frames", [2, 3, 4])
    def test_full_posterior_matches_enumeration(self, num_frames, num_tokens):
        # Both boundary conventions, and a blank that is not token 0.
        vocabs = [
            letter_vocab(*"abc"[: num_tokens - 1]),
            Vocabulary(("_", "|", "a", "b")[:num_tokens], 0, "delimiter", "|"),
            Vocabulary(("_", "+a", "b", "+c")[:num_tokens], 0, "prefix", "+"),
            Vocabulary(("+a", "_", "b", "+c")[:num_tokens], 1, "prefix", "+"),
        ]
        rng = np.random.default_rng(100 * num_frames + num_tokens)
        for vocab in vocabs:
            for _ in range(3):
                logits = softmax_logits(rng, num_frames, num_tokens)
                oracle = exhaustive_scores(logits.data, blank=vocab.blank_index)
                result = decode(logits, vocab, exact_config())
                got = {hyp.tokens: hyp.acoustic for hyp in result.nbest}
                assert set(got) == set(oracle)
                for key, mass in oracle.items():
                    assert got[key] == pytest.approx(mass, abs=1e-9)
                best_key, best_mass, runner_up = top_two(oracle)
                if best_mass - runner_up > 1e-9:
                    assert result.nbest[0].tokens == best_key
                    assert list(result.words) == detokenize(vocab, best_key)

    def test_beam_one_is_greedy_but_valid(self):
        logits = softmax_logits(np.random.default_rng(5), 6, 3)
        result = decode(logits, letter_vocab("a", "b"), exact_config(beam_width=1))
        assert len(result.nbest) == 1
        oracle = exhaustive_scores(logits.data, blank=0)
        assert result.nbest[0].tokens in oracle


class TestRankingAndBeam:
    def test_exact_tie_prefers_lexicographic_words(self):
        result = decode(
            rows([0.10, 0.45, 0.45]), letter_vocab("a", "b"), exact_config()
        )
        assert result.words == ("a",)
        assert result.nbest[0].words == ("a",)
        assert result.nbest[1].words == ("b",)
        assert result.nbest[0].total == result.nbest[1].total

    def test_nbest_sorted_by_total(self):
        result = decode(
            softmax_logits(np.random.default_rng(2), 6, 4),
            letter_vocab("a", "b", "c"),
            exact_config(),
        )
        totals = [hyp.total for hyp in result.nbest]
        assert totals == sorted(totals, reverse=True)

    def test_exhaustive_beam_dominates_every_pruned_run(self):
        # Pruning can only discard probability mass, so the unpruned
        # search bounds every narrower run from above.  (Strict
        # monotonicity between two pruned widths does not hold: a wider
        # frontier can re-rank and drop a prefix a narrow run kept.)
        rng = np.random.default_rng(9)
        vocab = letter_vocab("a", "b", "c")
        for _ in range(5):
            logits = softmax_logits(rng, 8, 4)
            exact = decode(logits, vocab, exact_config())
            exact_mass = {hyp.tokens: hyp.acoustic for hyp in exact.nbest}
            for width in (1, 2, 4, 8, 32, 128):
                pruned = decode(logits, vocab, exact_config(beam_width=width))
                assert pruned.total <= exact.total + 1e-12
                for hyp in pruned.nbest:
                    assert hyp.acoustic <= exact_mass[hyp.tokens] + 1e-12

    def test_component_sum_equals_total(self):
        trie = build_trie(build_mapping(["AB"]), default_weight=1.0)
        result = decode(
            softmax_logits(np.random.default_rng(4), 6, 3),
            letter_vocab("a", "b"),
            exact_config(mode="ngram", word_bonus=0.7),
            trie=trie,
        )
        for hyp in result.nbest:
            parts = (
                hyp.acoustic
                + hyp.lm_fused
                + hyp.word_bonus
                + hyp.partial_boost
                + hyp.final_boost
            )
            assert hyp.total == pytest.approx(parts, abs=1e-9)

    def test_word_bonus_pays_per_committed_word(self):
        logits = rows(
            [0.02, 0.96, 0.02],
            [0.96, 0.02, 0.02],
            [0.02, 0.02, 0.96],
        )
        vocab = letter_vocab("a", "b")
        plain = decode(logits, vocab, exact_config())
        bonused = decode(logits, vocab, exact_config(word_bonus=1.5))
        assert plain.words == bonused.words == ("a", "b")
        by_tokens = {hyp.tokens: hyp for hyp in bonused.nbest}
        for hyp in plain.nbest:
            twin = by_tokens[hyp.tokens]
            assert twin.word_bonus == pytest.approx(1.5 * len(twin.committed))
            assert twin.total - hyp.total == pytest.approx(
                1.5 * len(twin.committed), abs=1e-12
            )


# Small vocabularies for both boundary conventions; the blank is not
# always token 0.  Words spelled from a, b, i (and m) meet the keywords
# of REF_KEYWORDS, so every boost path runs.
REF_VOCABS = (
    Vocabulary(("_", "|", "a", "b", "i"), 0, "delimiter", "|"),
    Vocabulary(("+a", "_", "+b", "+i", "b", "m"), 1, "prefix", "+"),
    Vocabulary(("_", "a", "b", "i", "ab"), 0, "prefix", ""),
)
REF_KEYWORDS = ["AI", "AB", "B2B", "IBM"]


def result_view(result):
    return (
        result.words,
        result.text,
        result.total,
        [
            (h.tokens, h.words, h.total, h.partial_boost, h.final_boost)
            for h in result.nbest
        ],
    )


def assert_beam_filed(session):
    """The carried stay map is the beam grouped by parent node, and no
    prefix is in the beam twice."""
    grouped = {}
    for hyp in session.beams:
        grouped.setdefault(hyp.node.parent, {})[hyp.node.token] = hyp
    assert session._stays == grouped
    assert len({hyp.tokens for hyp in session.beams}) == len(session.beams)


def tied_fixture():
    """A letter vocabulary, frames with exactly tied totals, and a trie.

    Integer probabilities give exactly equal totals: after the first
    frame the empty prefix and a, b, c all hold 1/4, and a beam of two
    must keep the two that the tie order prefers.
    """
    vocab = letter_vocab("a", "b", "c")
    counts = np.array([
        [1, 1, 1, 1],
        [2, 1, 1, 0],
        [1, 1, 1, 1],
        [0, 2, 2, 0],
        [2, 0, 1, 1],
    ], dtype=np.float64)
    with np.errstate(divide="ignore"):
        frames = np.log(counts / 4)
    trie = build_trie(build_mapping(["AB", "B2B"]), default_weight=0.0)
    return vocab, frames, trie


class TestAgainstReference:
    """The session must equal the frozen tuple-keyed search bit for bit.

    Narrow beams prune a parent while its child survives and later
    re-create the parent, the case where a prefix could get two keys.
    Small integer probabilities give exact ties and zero-mass tokens.
    """

    @settings(max_examples=300)
    @given(data=st.data())
    def test_matches_reference_exactly(self, data, data_dir):
        vocab = data.draw(st.sampled_from(REF_VOCABS), label="vocab")
        num_frames = data.draw(st.integers(0, 13), label="frames")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans(), label="integer probabilities"):
            probs = rng.integers(0, 4, (num_frames, vocab.size)).astype(np.float64)
            probs[np.arange(num_frames), rng.integers(0, vocab.size, num_frames)] += 1
            with np.errstate(divide="ignore"):
                logits = np.log(probs / probs.sum(axis=1, keepdims=True))
        else:
            x = 2.0 * rng.standard_normal((num_frames, vocab.size))
            logits = x - np.log(np.exp(x).sum(axis=1, keepdims=True))
        frames = LogitMatrix(logits).data
        with_lm = data.draw(st.booleans(), label="lm")
        lm = load_arpa(data_dir / "tiny_bigram.arpa") if with_lm else None
        config = DecodeConfig(
            beam_width=data.draw(st.integers(1, 4), label="beam"),
            lm_weight=0.5 if with_lm else 0.0,
            word_bonus=data.draw(st.sampled_from([0.0, 0.7]), label="bonus"),
            mode=data.draw(st.sampled_from(MODES), label="mode"),
            token_min_logp=data.draw(st.sampled_from([float("-inf"), -2.0])),
        )
        weight = data.draw(st.sampled_from([0.0, 0.5, 2.0]), label="weight")
        trie = build_trie(build_mapping(REF_KEYWORDS), default_weight=weight)
        cuts = data.draw(st.lists(st.integers(0, num_frames), max_size=4), label="cuts")
        bounds = [0] + sorted(cuts) + [num_frames]

        session = new_session(vocab, config, lm=lm, trie=trie)
        reference = RefSession(vocab, config, lm=lm, trie=trie)
        published = []
        for lo, hi in zip(bounds, bounds[1:]):
            got = session.push_frames(frames[lo:hi])
            want = reference.push_frames(frames[lo:hi])
            assert result_view(got) == result_view(want)
            assert len(session.beams) == len(reference.beams)
            assert_beam_filed(session)
            published.append((got, result_view(got)))
        assert result_view(session.finalize()) == result_view(reference.finalize())
        # Finalize settles the search's own hypotheses in place; results
        # already handed out are snapshots and must not change with them.
        for got, snapshot in published:
            assert result_view(got) == snapshot


    @pytest.mark.parametrize("mode", MODES)
    def test_tied_totals_straddle_the_beam_cutoff(self, mode, monkeypatch):
        vocab, frames, trie = tied_fixture()
        keyed = []
        real_tie_key = decoder.DecoderSession._tie_key
        monkeypatch.setattr(
            decoder.DecoderSession, "_tie_key",
            lambda self, record: keyed.append(record) or real_tie_key(self, record),
        )
        config = exact_config(beam_width=2, mode=mode)
        session = new_session(vocab, config, trie=trie)
        reference = RefSession(vocab, config, trie=trie)
        for row in frames:
            got = session.push_frames(row[None])
            assert result_view(got) == result_view(reference.push_frames(row[None]))
            assert len(session.beams) == len(reference.beams)
            assert_beam_filed(session)
        # The ties were ordered by tie keys, child records' included.
        assert any(len(record) == 5 for record in keyed)
        assert result_view(session.finalize()) == result_view(reference.finalize())

    def test_a_tied_frame_builds_only_what_the_beam_keeps(self, monkeypatch):
        # Edge ties are ranked on records, so a frame makes a prefix node
        # only for an entry the beam keeps, never for a tied record it drops.
        vocab, frames, _ = tied_fixture()
        made = []
        real_init = decoder._Node.__init__

        def counted(node, parent, token):
            made[-1] += 1
            real_init(node, parent, token)

        config = exact_config(beam_width=2)
        session = new_session(vocab, config)
        monkeypatch.setattr(decoder._Node, "__init__", counted)
        for row in frames:
            made.append(0)
            session.push_frames(row[None])
        assert all(count <= config.beam_width for count in made), made

    def test_a_prefix_made_again_gets_its_live_node(self):
        # Frame 3 makes prefix (3, 1) again, pruned one frame earlier,
        # while its child (3, 1, 3) is still in the beam.  It must get the
        # node that child points to, or the child is not filed under it
        # and misses its merge in frame 4.
        vocab = REF_VOCABS[0]
        config = exact_config(beam_width=3)
        frames = softmax_logits(np.random.default_rng(87), 12, vocab.size).data
        session = new_session(vocab, config)
        reference = RefSession(vocab, config)
        remade = []
        for row in frames:
            beam = {hyp.node for hyp in session.beams}
            held = {hyp.node.parent for hyp in session.beams}
            got = session.push_frames(row[None])
            assert result_view(got) == result_view(reference.push_frames(row[None]))
            assert_beam_filed(session)
            remade += [
                hyp.tokens for hyp in session.beams if hyp.node in held and hyp.node not in beam
            ]
        assert remade == [(3, 1)]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "counts, width, floor",
        [
            # Frame 3: parent "a" ranks its repeat "a" ahead of "b".  The
            # repeat starts from a's small blank mass and misses the
            # bound, but it closes nothing: "ab" makes the beam.
            pytest.param(
                [[0, 2, 0, 2], [3, 4, 3, 3], [0, 2, 2, 4]], 2, float("-inf"),
                id="repeat-ahead-of-its-run",
            ),
            # Frame 2: "a" and "ca" set the bound; "b" and "cb" equal it
            # exactly, and the tie order puts "b" in the beam.
            pytest.param([[3, 0, 0, 3], [1, 3, 3, 1]], 2, -2.0, id="total-equals-bound"),
            # Two records before the second pass and a beam of three:
            # there is no bound, so "a" is still ranked.
            pytest.param([[4, 2, 0, 3]], 3, float("-inf"), id="beam-wider-than-records"),
        ],
    )
    def test_gate_edge_cases(self, counts, width, floor, mode):
        vocab = letter_vocab("a", "b", "c")
        counts = np.asarray(counts, dtype=np.float64)
        with np.errstate(divide="ignore"):
            frames = np.log(counts / counts.sum(axis=1, keepdims=True))
        config = exact_config(beam_width=width, token_min_logp=floor, mode=mode)
        trie = build_trie(build_mapping(["AB", "B2B"]), default_weight=0.0)
        session = new_session(vocab, config, trie=trie)
        reference = RefSession(vocab, config, trie=trie)
        for row in frames:
            got = session.push_frames(row[None])
            assert result_view(got) == result_view(reference.push_frames(row[None]))
        assert result_view(session.finalize()) == result_view(reference.finalize())


def entries_in_beams(session, frames):
    """Push ``frames`` one at a time; every distinct entry a beam held.

    The entries are returned, so they stay alive and their ids distinct.
    """
    seen = {}
    for row in frames:
        seen.update((id(hyp), hyp) for hyp in session.beams)
        session.push_frames(row[None])
    seen.update((id(hyp), hyp) for hyp in session.beams)
    return list(seen.values())


class TestWorkPerFrame:
    def test_one_word_commit_per_beam_entry(self, data_dir):
        # Every token starts a word, so each child of a parent with a
        # pending word commits the same word: that commit is made once
        # per entry, and its later frames and finalize reuse it.
        vocab = REF_VOCABS[2]
        lm = load_arpa(data_dir / "tiny_bigram.arpa")
        trie = build_trie(build_mapping(REF_KEYWORDS), default_weight=1.0)
        calls = {}

        def spy(owner, name):
            method = getattr(owner, name)
            calls[name] = 0

            def counted(*args):
                calls[name] += 1
                return method(*args)

            setattr(owner, name, counted)

        spy(trie, "unigram_weight")
        spy(trie, "find_matches")
        spy(lm, "log10_cond")
        config = DecodeConfig(beam_width=8, mode="ngram", token_min_logp=float("-inf"))
        session = new_session(vocab, config, lm=lm, trie=trie)
        frames = softmax_logits(np.random.default_rng(11), 12, vocab.size).data
        entries = entries_in_beams(session, frames)
        finalized = len(session.beams)
        result = session.finalize()
        assert 0 < calls["unigram_weight"] <= len(entries)
        assert 0 < calls["log10_cond"] <= len(entries)
        # Settling matches each entry once, and nothing else matches.
        assert calls["find_matches"] == finalized
        top = result.nbest[0]
        assert top.final_boost == sum(
            trie.weights[m.raw] * (m.end - m.start)
            for m in trie.find_matches(result.words)
        )

    def test_stay_slots_commit_once_on_the_word_level_corpus(self, corpus, demo_keywords):
        # An entry that stays in the beam keeps its state from frame to
        # frame, so its word-starting children of every frame share one
        # commit: one unigram-boost lookup per entry, not per frame.
        vocab = read_vocab_file(corpus.vocab_path)
        assert all(starts for starts, _ in vocab.spelling)
        trie = build_trie(build_mapping(load_keyword_list(demo_keywords)), default_weight=2.0)
        lookups = 0
        unigram_weight = trie.unigram_weight

        def counted(word):
            nonlocal lookups
            lookups += 1
            return unigram_weight(word)

        trie.unigram_weight = counted
        config = DecodeConfig(mode="ngram", word_bonus=0.0)
        entries = []
        for entry in read_manifest(corpus.manifest_path):
            session = new_session(vocab, config, trie=trie)
            entries += entries_in_beams(session, read_logits(entry.logits_path).data)
            session.finalize()
        assert 0 < lookups <= len(entries)

    def test_one_log_add_per_beam_entry(self, data_dir, monkeypatch):
        # A frame adds each entry's blank and non-blank masses once, when
        # its stay slot is ranked; the next frame reads that sum back.  A
        # new prefix can only merge into an entry whose parent prefix is
        # also in the beam, and each push sums the reported best once.
        calls = 0
        real_log_add = decoder._log_add

        def counted(a, b):
            nonlocal calls
            calls += 1
            return real_log_add(a, b)

        monkeypatch.setattr(decoder, "_log_add", counted)
        lm = load_arpa(data_dir / "tiny_bigram.arpa")
        trie = build_trie(build_mapping(REF_KEYWORDS), default_weight=1.0)
        config = DecodeConfig(beam_width=8, mode="ngram", token_min_logp=float("-inf"))
        for vocab in REF_VOCABS:
            session = new_session(vocab, config, lm=lm, trie=trie)
            calls = entries = mergeable = pushes = 0
            beam = [()]
            for row in softmax_logits(np.random.default_rng(11), 12, vocab.size).data:
                entries += len(beam)
                prefixes = set(beam)
                mergeable += sum(tokens[:-1] in prefixes for tokens in beam if tokens)
                beam = [h.tokens for h in session.push_frames(row[None]).nbest]
                pushes += 1
            # Fewer merges than entries: two sums per entry break the bound.
            assert mergeable < entries
            assert 0 < calls <= entries + mergeable + pushes

    def test_records_ranked_are_gated(self, corpus, demo_keywords, monkeypatch):
        # On the word-level tuning corpus most children of a parent lose
        # to the beam; each parent stops at its first one past the bound
        # instead of ranking a record for every candidate.  Each record
        # reaching a sort is kept alive, so its id counts it once.
        ranked = {}
        monkeypatch.setattr(
            decoder, "_NEG_TOTAL", lambda record: ranked.setdefault(id(record), record)[0]
        )
        vocab = read_vocab_file(corpus.vocab_path)
        trie = build_trie(build_mapping(load_keyword_list(demo_keywords)), default_weight=2.0)
        config = DecodeConfig(mode="ngram", word_bonus=0.0)
        ungated = 0  # parents x candidates + stay slots, frame by frame
        for entry in read_manifest(corpus.manifest_path):
            session = new_session(vocab, config, trie=trie)
            for row in read_logits(entry.logits_path).data:
                candidates = sum(
                    logp >= config.token_min_logp
                    for tid, logp in enumerate(row) if tid != vocab.blank_index
                )
                ungated += len(session.beams) * (candidates + 1)
                session.push_frames(row[None])
        assert 0 < 3 * len(ranked) < ungated


def live_prefix_nodes():
    return sum(isinstance(obj, decoder._Node) for obj in gc.get_objects())


class TestMemory:
    def test_sessions_and_prefixes_are_freed_without_gc(self):
        vocab = REF_VOCABS[0]
        logits = softmax_logits(np.random.default_rng(6), 40, vocab.size)
        trie = build_trie(build_mapping(REF_KEYWORDS), default_weight=1.0)
        config = DecodeConfig(beam_width=3, mode="ngram")
        gc.collect()
        gc.disable()
        try:
            nodes_before = live_prefix_nodes()
            session = new_session(vocab, config, trie=trie)
            for start in range(0, 40, 7):
                session.push_frames(logits.data[start:start + 7])
            result = session.finalize()
            assert live_prefix_nodes() > nodes_before
            alive = weakref.ref(session)
            del session
            assert alive() is None
            decode(logits, vocab, config, trie=trie)
            del result
            assert live_prefix_nodes() == nodes_before
            # A held partial is a snapshot: later pushes, finalize and the
            # session's end leave its entries as published, tokens too,
            # and dropping it frees the prefix nodes it kept alive.
            session = new_session(vocab, config, trie=trie)
            partial = session.push_frames(logits.data[:7])
            published = result_view(partial)
            session.push_frames(logits.data[7:])
            session.finalize()
            del session
            assert result_view(partial) == published
            assert live_prefix_nodes() > nodes_before
            del partial
            assert live_prefix_nodes() == nodes_before
            # Nothing the decoder made sits in a reference cycle.
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_decode_copies_the_beam_once(self, monkeypatch):
        # A partial holds copies, as later frames update the beam's
        # entries in place.  Nothing changes the entries finalize
        # settles, so the final result holds them, and a one-shot decode
        # copies the beam once: for the partial of its one push.
        copies = 0
        copy = decoder.BeamHypothesis.copy

        def counted(hyp):
            nonlocal copies
            copies += 1
            return copy(hyp)

        monkeypatch.setattr(decoder.BeamHypothesis, "copy", counted)
        vocab = REF_VOCABS[0]
        logits = softmax_logits(np.random.default_rng(6), 20, vocab.size)
        for width in (1, 3, 8):
            copies = 0
            result = decode(logits, vocab, exact_config(beam_width=width))
            assert copies == len(result.nbest) > 0


class TestChunking:
    @given(st.sets(st.integers(min_value=1, max_value=7)))
    def test_any_partition_matches_one_shot(self, cut_points):
        logits = softmax_logits(np.random.default_rng(13), 8, 3)
        vocab = letter_vocab("a", "b")
        config = exact_config(beam_width=16)
        whole = decode(logits, vocab, config)

        session = new_session(vocab, config)
        bounds = [0] + sorted(cut_points) + [8]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi > lo:
                session.push_frames(logits.data[lo:hi])
        chunked = session.finalize()

        assert chunked.words == whole.words
        mapping = build_mapping(["AB"])
        assert inverse_normalize(chunked.words, mapping) == inverse_normalize(
            whole.words, mapping
        )
        assert [(h.tokens, h.total) for h in chunked.nbest] == [
            (h.tokens, h.total) for h in whole.nbest
        ]

    @given(st.sets(st.integers(min_value=1, max_value=7)))
    def test_every_result_reads_its_top_entry(self, cut_points):
        logits = softmax_logits(np.random.default_rng(5), 8, 3)
        session = new_session(letter_vocab("a", "b"), exact_config(beam_width=4))
        bounds = [0] + sorted(cut_points) + [8]
        for lo, hi in zip(bounds, bounds[1:]):
            partial = session.push_frames(logits.data[lo:hi])
            top = partial.nbest[0]
            assert partial.words == top.words
            assert partial.text == " ".join(top.words)
            assert partial.total == top.total
        final = session.finalize()
        top = final.nbest[0]
        assert final.words == top.committed
        assert (final.text, final.total) == (" ".join(top.committed), top.total)


def boosted_run(logits, vocab, keywords, mode, weight, **cfg):
    trie = build_trie(build_mapping(keywords), default_weight=weight)
    config = exact_config(mode=mode, **cfg)
    return decode(logits, vocab, config, trie=trie)


class TestBoostModes:
    # Frames that make "b" competitive but not dominant.
    BOOST_LOGITS = (
        [0.50, 0.10, 0.40],
        [0.90, 0.05, 0.05],
        [0.45, 0.45, 0.10],
    )

    def test_zero_weight_is_identical_to_baseline(self):
        logits = rows(*self.BOOST_LOGITS)
        vocab = letter_vocab("a", "b")
        outputs = []
        for mode in MODES:
            result = boosted_run(logits, vocab, ["AB", "B2B"], mode, 0.0)
            outputs.append(
                (result.words, [(h.tokens, h.total) for h in result.nbest])
            )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_default_mode_pays_per_boosted_commit(self):
        logits = rows(*self.BOOST_LOGITS)
        vocab = letter_vocab("a", "b")
        baseline = decode(logits, vocab, exact_config())
        boosted = boosted_run(logits, vocab, ["B2B"], "default", 2.0)
        # b is the only word of B2B's alphabet here: unigrams {b, two}.
        by_tokens = {hyp.tokens: hyp for hyp in boosted.nbest}
        for hyp in baseline.nbest:
            twin = by_tokens[hyp.tokens]
            occurrences = twin.committed.count("b")
            assert twin.partial_boost == 2.0 * occurrences
            assert twin.total - hyp.total == pytest.approx(
                2.0 * occurrences, abs=1e-12
            )

    def test_boost_delta_scales_linearly(self):
        logits = rows(*self.BOOST_LOGITS)
        vocab = letter_vocab("a", "b")
        baseline = decode(logits, vocab, exact_config())
        deltas = {}
        for weight in (1.0, 2.0, 4.0):
            boosted = boosted_run(logits, vocab, ["B2B"], "default", weight)
            by_tokens = {hyp.tokens: hyp.total for hyp in boosted.nbest}
            key = next(
                hyp.tokens for hyp in baseline.nbest if "b" in hyp.committed
            )
            base_total = next(
                hyp.total for hyp in baseline.nbest if hyp.tokens == key
            )
            deltas[weight] = by_tokens[key] - base_total
        assert deltas[2.0] == pytest.approx(2 * deltas[1.0], abs=1e-12)
        assert deltas[4.0] == pytest.approx(2 * deltas[2.0], abs=1e-12)

    def test_default_and_ngram_stream_identically(self):
        logits = softmax_logits(np.random.default_rng(21), 6, 3)
        vocab = letter_vocab("a", "b")
        partials = []
        for mode in ("default", "ngram"):
            trie = build_trie(build_mapping(["AB"]), default_weight=2.0)
            session = new_session(vocab, exact_config(mode=mode), trie=trie)
            partial = session.push_frames(logits)
            partials.append([(h.tokens, h.total) for h in partial.nbest])
        assert partials[0] == partials[1]

    def test_ngram_retraction_is_exact(self):
        logits = softmax_logits(np.random.default_rng(8), 7, 3)
        vocab = letter_vocab("a", "b")
        baseline = decode(logits, vocab, exact_config())
        ngram = boosted_run(logits, vocab, ["AB", "B2B"], "ngram", 3.0)
        base_totals = {hyp.tokens: hyp.total for hyp in baseline.nbest}
        for hyp in ngram.nbest:
            assert hyp.partial_boost == 0.0
            assert hyp.total - hyp.final_boost == pytest.approx(
                base_totals[hyp.tokens], abs=1e-9
            )

    def test_ngram_without_full_match_equals_baseline(self):
        # "meeting" is not in this vocabulary, so AI MEETING can never
        # fully match; every partial boost must be retracted.
        logits = softmax_logits(np.random.default_rng(17), 6, 3)
        vocab = letter_vocab("a", "i")
        baseline = decode(logits, vocab, exact_config())
        table = {"AI MEETING": [["a", "i", "meeting"]]}
        trie = build_trie(build_mapping(["AI MEETING"], table), default_weight=5.0)
        ngram = decode(logits, vocab, exact_config(mode="ngram"), trie=trie)
        base_totals = {hyp.tokens: hyp.total for hyp in baseline.nbest}
        assert ngram.words == baseline.words
        for hyp in ngram.nbest:
            assert hyp.final_boost == 0.0
            assert hyp.total == pytest.approx(base_totals[hyp.tokens], abs=1e-9)

    def test_full_match_boost_flips_the_ranking(self):
        vocab = letter_vocab("a", "analytics", "i")
        logits = rows(
            [0.55, 0.40, 0.01, 0.04],
            [0.97, 0.01, 0.01, 0.01],
            [0.55, 0.04, 0.01, 0.40],
            [0.97, 0.01, 0.01, 0.01],
            [0.01, 0.01, 0.97, 0.01],
        )
        baseline = decode(logits, vocab, exact_config(beam_width=64))
        assert baseline.words == ("analytics",)
        ngram = boosted_run(
            logits, vocab, ["AI"], "ngram", 2.0, beam_width=64
        )
        assert ngram.words == ("a", "i", "analytics")
        assert build_trie(build_mapping(["AI"])).find_matches(ngram.words) == [
            KeywordMatch(0, 2, "AI")
        ]
        top = ngram.nbest[0]
        assert top.final_boost == pytest.approx(2.0 * 2)
        assert top.partial_boost == 0.0


class TestShallowFusion:
    def test_lm_weight_flips_close_call(self, data_dir):
        lm = load_arpa(data_dir / "tiny_bigram.arpa")
        vocab = letter_vocab("a", "b", "c")
        logits = rows(
            [0.060, 0.900, 0.020, 0.020],
            [0.900, 0.040, 0.030, 0.030],
            [0.001, 0.001, 0.449, 0.549],
        )
        acoustic_only = decode(logits, vocab, exact_config(lm_weight=0.0), lm=lm)
        assert acoustic_only.words == ("a", "c")
        fused = decode(logits, vocab, exact_config(lm_weight=0.5), lm=lm)
        assert fused.words == ("a", "b")
        top = fused.nbest[0]
        # P(a) = -0.30 and P(b | a) = -0.30, scaled by alpha * ln 10.
        assert top.lm_fused == pytest.approx(0.5 * LN10 * -0.60, abs=1e-9)

    def test_alpha_zero_fuses_nothing(self, data_dir):
        lm = load_arpa(data_dir / "tiny_bigram.arpa")
        logits = softmax_logits(np.random.default_rng(30), 5, 4)
        result = decode(
            logits, letter_vocab("a", "b", "c"), exact_config(lm_weight=0.0), lm=lm
        )
        for hyp in result.nbest:
            assert hyp.lm_fused == 0.0

    def test_unknown_words_use_the_floor(self, data_dir):
        lm = load_arpa(data_dir / "tiny_bigram.arpa")
        vocab = letter_vocab("z")
        logits = rows([0.05, 0.95])
        result = decode(logits, vocab, exact_config(lm_weight=1.0), lm=lm)
        by_words = {hyp.words: hyp for hyp in result.nbest}
        # The floor is a heavy penalty, so the empty hypothesis wins;
        # the committed word still fused exactly one floored query.
        assert by_words[("z",)].lm_fused == pytest.approx(LN10 * -8.0)


class TestTokenFloor:
    def test_floor_prunes_weak_extensions(self):
        # b sits below ln(0.01) > floor=-2; it can never start a prefix.
        vocab = letter_vocab("a", "b")
        logits = rows([0.59, 0.40, 0.01], [0.59, 0.40, 0.01])
        result = decode(logits, vocab, exact_config(token_min_logp=-2.0))
        tokens_seen = {tid for hyp in result.nbest for tid in hyp.tokens}
        assert 2 not in tokens_seen
        unpruned = decode(logits, vocab, exact_config())
        assert any(2 in hyp.tokens for hyp in unpruned.nbest)
