"""End-to-end acceptance checks for the decoding toolkit.

Each test is one releasable claim about the system, checked with pinned
tolerances: decoder exactness against exhaustive marginalization,
zero-weight and retraction identities, the over-boosting contrast
between the two boosting modes, keyword recovery on a synthetic rare
word suite, scoring-oracle equivalence, normalization round trips, and
byte determinism of the command line tools.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from kwboost.bias_trie import build_trie
from kwboost.cli import main
from kwboost.dataio import read_logits, read_manifest, read_vocab_file
from kwboost.decoder import DecodeConfig, LogitMatrix, Vocabulary, decode
from kwboost.fixtures import make_fixtures
from kwboost.harness import RunConfig, run_decode, run_score
from kwboost.norm import (
    build_mapping,
    inverse_normalize,
    load_keyword_list,
    raw_target_mapping,
)
from kwboost.scoring import align, biased_wer, relative_reduction

from ctc_oracle import exhaustive_scores

DATA = Path(__file__).parent / "data"
NEG_INF = float("-inf")


def softmax_logits(rng, num_frames, num_tokens):
    raw = rng.normal(size=(num_frames, num_tokens))
    probs = np.exp(raw)
    probs /= probs.sum(axis=1, keepdims=True)
    return LogitMatrix(np.log(probs).astype(np.float32))


def letter_vocab(*letters):
    return Vocabulary(("_",) + letters, 0, "prefix", "")


def exact_config(**overrides):
    settings = dict(
        beam_width=4096, word_bonus=0.0, lm_weight=0.0, token_min_logp=NEG_INF
    )
    settings.update(overrides)
    return DecodeConfig(**settings)


def write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    return path


def test_c1_decoder_matches_exhaustive_marginalization():
    """Beam top-1 equals the exhaustive CTC argmax on 220 random instances."""
    started = time.perf_counter()
    config = exact_config(beam_width=8192)
    decided = compared = 0
    for num_frames, num_tokens in itertools.product(range(2, 7), range(2, 6)):
        vocab = letter_vocab(*"abcd"[: num_tokens - 1])
        for rep in range(11):
            rng = np.random.default_rng(1000 * num_frames + 10 * num_tokens + rep)
            logits = softmax_logits(rng, num_frames, num_tokens)
            scores = exhaustive_scores(logits.data.astype(np.float64), blank=0)
            ranked = sorted(scores.items(), key=lambda kv: -kv[1])
            result = decode(logits, vocab, config)
            compared += 1
            if len(ranked) > 1 and ranked[0][1] - ranked[1][1] <= 1e-9:
                continue  # argmax not unique at tolerance; skip the identity check
            decided += 1
            assert result.nbest[0].tokens == ranked[0][0]
            assert result.nbest[0].acoustic == pytest.approx(
                ranked[0][1], abs=1e-9
            )
    elapsed = time.perf_counter() - started
    assert compared == 220 and decided >= 200
    assert elapsed < 30.0


def test_c2_zero_weight_boosting_is_identity(corpus, tmp_path):
    """W=0 boosting in either mode reproduces the plain decoder exactly."""
    outputs = {}
    for mode in ("baseline", "default", "ngram"):
        out = tmp_path / f"{mode}.jsonl"
        run_decode(
            RunConfig(
                manifest=corpus.manifest_path,
                vocab=corpus.vocab_path,
                out=out,
                keywords=DATA / "keywords_demo.txt",
                mode=mode,
                boost_weight=0.0,
                word_bonus=0.0,
            )
        )
        outputs[mode] = out.read_bytes()
    assert outputs["default"] == outputs["baseline"]
    assert outputs["ngram"] == outputs["baseline"]

    vocab = read_vocab_file(corpus.vocab_path)
    mapping = build_mapping(load_keyword_list(DATA / "keywords_demo.txt"))
    trie = build_trie(mapping, default_weight=0.0)
    for entry in read_manifest(corpus.manifest_path):
        matrix = read_logits(entry.logits_path)
        base = decode(matrix, vocab, DecodeConfig(word_bonus=0.0))
        for mode in ("default", "ngram"):
            boosted = decode(
                matrix, vocab, DecodeConfig(word_bonus=0.0, mode=mode), trie=trie
            )
            assert boosted.words == base.words
            assert abs(boosted.total - base.total) <= 1e-12


def test_c3_retraction_restores_baseline_totals(corpus):
    """With no full keyword match possible, final totals equal baseline."""
    # Paired runs whose frontier never overflows the beam (at most 1093
    # reachable prefixes over 6 frames and 3 letters), so the streams
    # are exhaustive and the comparison is exact.  "AIM" normalizes to
    # (a, i, m) and "m" is not in the vocabulary, so no full match can
    # complete; every partial boost must be retracted at finalization.
    vocab = letter_vocab("a", "i", "e")
    mapping = build_mapping([("AIM", None, 0)])
    trie = build_trie(mapping, default_weight=5.0)
    base_cfg = exact_config()
    boost_cfg = exact_config(mode="ngram")
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        logits = softmax_logits(rng, 6, 4)
        base = decode(logits, vocab, base_cfg)
        boosted = decode(logits, vocab, boost_cfg, trie=trie)
        assert boosted.words == base.words
        assert abs(boosted.total - base.total) <= 1e-9
        assert [h.words for h in boosted.nbest] == [h.words for h in base.nbest]
        assert trie.find_matches(boosted.words) == []
        # Each entry's one boost is what its matches pay (none), and
        # without it the entry scores as in the baseline run.
        base_totals = {h.tokens: h.total for h in base.nbest}
        for hyp in boosted.nbest:
            assert hyp.boost == sum(
                trie.weights[m.raw] * (m.end - m.start)
                for m in trie.find_matches(hyp.committed)
            ) == 0.0
            assert abs(hyp.total - hyp.boost - base_totals[hyp.tokens]) <= 1e-9

    # Under a finite beam on the bundled corpus the boosted stream
    # prunes differently, so merged path masses may drift; the settled
    # transcript and the retraction itself must still be exact.
    vocab = read_vocab_file(corpus.vocab_path)
    mapping = build_mapping([("E9", None, 0)])  # (e, nine): no "nine" token
    trie = build_trie(mapping, default_weight=5.0)
    base_cfg = DecodeConfig(beam_width=256, word_bonus=0.0)
    boost_cfg = DecodeConfig(beam_width=256, word_bonus=0.0, mode="ngram")
    for entry in read_manifest(corpus.manifest_path):
        matrix = read_logits(entry.logits_path)
        base = decode(matrix, vocab, base_cfg)
        boosted = decode(matrix, vocab, boost_cfg, trie=trie)
        assert boosted.words == base.words
        assert boosted.nbest[0].boost == 0.0
        assert trie.find_matches(boosted.words) == []


def test_c4_unigram_overboosting_vs_ngram_retraction(corpus):
    """Unconditional unigram boosts insert stray letters; retraction does not."""
    vocab = read_vocab_file(corpus.vocab_path)
    entry = read_manifest(corpus.manifest_path)[0]
    matrix = read_logits(entry.logits_path)
    mapping = build_mapping([("AI", None, 0), ("E9", None, 1)])
    trie = build_trie(mapping, default_weight=3.0)
    terms = ["AI", "E9"]

    def score_one(mode):
        config = DecodeConfig(word_bonus=0.0, mode=mode)
        result = decode(
            matrix, vocab, config, trie=None if mode == "baseline" else trie
        )
        text, _ = inverse_normalize(result.words, mapping)
        report = biased_wer(
            [(entry.utt_id, entry.reference.split(), text.split())], terms
        )
        return report, text.split()

    base, base_words = score_one("baseline")
    assert (base.b_wer, base.u_wer) == (100.0, 0.0)

    flat, flat_words = score_one("default")
    assert flat.b_wer == 0.0                      # keyword recovered...
    assert flat_words.count("e") >= 1             # ...but letters leak in
    assert flat.u_wer > base.u_wer
    assert flat.u_wer == pytest.approx(66.67, abs=0.01)

    settled, settled_words = score_one("ngram")
    assert settled.b_wer == 0.0
    assert settled.u_wer <= base.u_wer
    assert settled_words == entry.reference.split()


def test_c5_normalization_unlocks_rare_keyword_recovery(tmp_path):
    """Boosting raw written forms recovers nothing; normalized n-grams do."""
    consonants = "BCDFGHJKLMNPQRSTVWXZ"
    digit_words = "zero one two three four five six seven eight nine".split()
    specs, raws = [], []
    for i in range(100):
        first = consonants[i % 20]
        second = consonants[(i // 20 + 3) % 20]
        third = consonants[(i * 7 + 5) % 20]
        digit = i % 10
        raw = f"{first}{digit}{second}{third}"
        spoken = [first.lower(), digit_words[digit], second.lower(), third.lower()]
        raws.append(raw)
        specs.append(
            {
                "id": f"u{i:03d}",
                "text": "item " + " ".join(spoken) + " noted",
                "reference": f"item {raw} noted",
                "confidence": [0.9, 0.8, 0.35, 0.8, 0.8, 0.9],
                "confusions": [
                    {"word": digit_words[digit], "alt": "uh", "prob": 0.45}
                ],
            }
        )
    spec_path = write_jsonl(tmp_path / "spec.jsonl", specs)
    fixture_set = make_fixtures(spec_path, tmp_path / "fx", seed=13)
    kw_path = tmp_path / "keywords.tsv"
    kw_path.write_text("".join(r + "\n" for r in raws), encoding="utf-8")

    vocab = read_vocab_file(fixture_set.vocab_path)
    entries = read_manifest(fixture_set.manifest_path)

    def run_arm(mapping, mode):
        trie = build_trie(mapping, default_weight=3.0)
        config = DecodeConfig(word_bonus=0.0, mode=mode)
        recovered = 0
        scored = []
        for entry in entries:
            result = decode(read_logits(entry.logits_path), vocab, config, trie=trie)
            text, _ = inverse_normalize(result.words, mapping)
            words = text.split()
            ref = entry.reference.split()
            recovered += ref[1] in words
            scored.append((entry.utt_id, ref, words))
        return recovered, biased_wer(scored, raws).b_wer

    raw_hits, raw_b_wer = run_arm(raw_target_mapping(load_keyword_list(kw_path)), "default")
    norm_hits, norm_b_wer = run_arm(
        build_mapping(load_keyword_list(kw_path)), "ngram"
    )
    assert raw_hits == 0
    assert norm_hits >= 80
    assert norm_b_wer <= 0.8 * raw_b_wer


def test_c6_alignment_matches_edit_distance_and_decomposes():
    """Alignment cost is the exact edit distance; error splits always add up."""

    def edit_distance(ref, hyp):
        prev = list(range(len(hyp) + 1))
        for i, r in enumerate(ref, 1):
            cur = [i]
            for j, h in enumerate(hyp, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h)))
            prev = cur
        return prev[-1]

    words = ("a", "b", "c")
    sequences = [
        list(seq)
        for length in range(6)
        for seq in itertools.product(words, repeat=length)
    ]
    assert len(sequences) == 364
    for ref in sequences:
        for hyp in sequences:
            ops = align(ref, hyp)
            assert sum(op.kind != "match" for op in ops) == edit_distance(ref, hyp)

    rng = np.random.default_rng(6)
    vocab = [f"w{k}" for k in range(5)]
    for _ in range(1000):
        terms = list(rng.choice(vocab, size=rng.integers(1, 3), replace=False))
        corpus = []
        for u in range(rng.integers(1, 4)):
            ref = list(rng.choice(vocab, size=rng.integers(0, 7)))
            hyp = list(rng.choice(vocab, size=rng.integers(0, 7)))
            corpus.append((f"u{u}", ref, hyp))
        report = biased_wer(corpus, terms)
        errors = report.errors
        assert errors.biased + errors.unbiased == errors.total
        for utt in report.utterances:
            assert utt.errors.biased + utt.errors.unbiased == utt.errors.total


def test_c7_keyword_list_round_trip_and_relative_reduction():
    """Every bundled keyword survives normalize -> inverse-normalize."""
    mapping = build_mapping(load_keyword_list(DATA / "keywords_50.txt"))
    assert len(mapping.entries) == 50
    checked = 0
    for entry in mapping.entries:
        for variant in entry.variants:
            text, spans = inverse_normalize(list(variant), mapping)
            assert text == entry.raw
            assert [(s.start, s.end, s.raw) for s in spans] == [
                (0, len(variant), entry.raw)
            ]
            checked += 1
    assert checked >= 50
    assert round(relative_reduction(29.96, 22.12)) == 26


def test_c8_decode_and_tune_are_deterministic(corpus, tmp_path):
    """Repeated runs with identical inputs are byte-identical."""
    decode_outs = []
    for tag in ("one", "two"):
        out = tmp_path / f"decode_{tag}.jsonl"
        rc = main(
            [
                "decode",
                "--manifest", str(corpus.manifest_path),
                "--vocab", str(corpus.vocab_path),
                "--keywords", str(DATA / "keywords_demo.txt"),
                "--mode", "ngram",
                "--boost-weight", "3",
                "--beta", "0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        decode_outs.append(out.read_bytes())
    assert decode_outs[0] == decode_outs[1]

    spec = write_jsonl(
        tmp_path / "dev.jsonl",
        [
            {
                "id": "qz",
                "text": "open q z close",
                "reference": "open QZ close",
                "confidence": [0.9, 0.15, 0.15, 0.9],
            }
        ],
    )
    fixture_set = make_fixtures(spec, tmp_path / "dev_fx", seed=5)
    kw_path = tmp_path / "kw.tsv"
    kw_path.write_text("QZ\n", encoding="utf-8")
    tune_outs = []
    for tag in ("one", "two"):
        out = tmp_path / f"tune_{tag}.json"
        rc = main(
            [
                "tune",
                "--manifest", str(fixture_set.manifest_path),
                "--vocab", str(fixture_set.vocab_path),
                "--keywords", str(kw_path),
                "--beta", "0",
                "--grid", "0", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        tune_outs.append(out.read_bytes())
    assert tune_outs[0] == tune_outs[1]
    assert json.loads(tune_outs[0])["selected_weight"] == 2.0
