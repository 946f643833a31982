"""Tests for the experiment harness: decode runs, scoring, list prep, tuning."""

import argparse
import gc
import inspect
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwboost import harness
from kwboost.cli import _run_config, build_parser, main
from kwboost.dataio import (
    read_logits,
    read_manifest,
    read_transcripts,
    read_vocab_file,
    utterance_id,
)
from kwboost.decoder import DecoderSession, LogitMatrix, decode
from kwboost.errors import (
    ArpaError,
    ConfigError,
    DataFormatError,
    NormalizationError,
    ToolkitError,
)
from kwboost.fixtures import load_fixture_spec, make_fixtures
from kwboost.harness import (
    GridSearchResult,
    RunConfig,
    grid_search,
    load_resources,
    prepare_list,
    run_decode,
    run_score,
)
from kwboost.lm import NGramLM, load_arpa
from kwboost.norm import (
    NormalizationMapping,
    build_mapping,
    inverse_normalize,
    load_exceptions,
    load_keyword_list,
    raw_target_mapping,
    save_mapping,
)
from kwboost.scoring import biased_wer

DATA = Path(__file__).parent / "data"
CLI = "import sys; from kwboost.cli import main; sys.exit(main())"


def build_corpus(root, records, keywords, seed=0):
    """Materialize a fixture corpus plus a keyword list under root."""
    spec = root / "spec.jsonl"
    spec.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    fixture_set = make_fixtures(spec, root / "fx", seed=seed)
    kw_path = root / "keywords.tsv"
    kw_path.write_text("".join(k + "\n" for k in keywords), encoding="utf-8")
    return fixture_set, kw_path


def read_records(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


# Dev set for weight tuning.  "QZ" needs a boost of at least
# ln(0.68/0.15) per letter ~ 1.51 to survive, so a full bigram match
# recovers it from weight 2 up.  The "jx" trap only breaks through its
# ln(0.944/0.046) ~ 3.02 gap at weight 4.  B-WER over the grid
# [0, 1, 2, 4] is therefore [100, 100, 0, 100].
TUNE_SPEC = [
    {
        "id": "qz",
        "text": "open q z close",
        "reference": "open QZ close",
        "confidence": [0.9, 0.15, 0.15, 0.9],
    },
    {
        "id": "jx",
        "text": "say hello now",
        "reference": "say hello now",
        "confidence": 0.9,
        "traps": [{"after": 1, "alt": "jx", "prob": 0.046}],
    },
]

# Per-keyword tuning: the shared grid {0, 2} ties at B-WER 100 (weight
# 0 deletes "KQ", weight 2 inserts "vv"), but per-target weights can
# satisfy both utterances at once.
PER_TARGET_SPEC = [
    {
        "id": "kq",
        "text": "alpha k q beta",
        "reference": "alpha KQ beta",
        "confidence": [0.9, 0.15, 0.15, 0.9],
    },
    {
        "id": "vv",
        "text": "gamma delta",
        "reference": "gamma delta",
        "confidence": 0.9,
        "traps": [{"after": 0, "alt": "vv", "prob": 0.2}],
    },
]


@pytest.fixture(scope="module")
def tune_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tune")
    return build_corpus(root, TUNE_SPEC, ["QZ", "jx"], seed=5)


@pytest.fixture(scope="module")
def per_target_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("per_target")
    return build_corpus(root, PER_TARGET_SPEC, ["KQ", "vv"], seed=5)


def tune_config(fixture_set, keywords, **overrides):
    settings = dict(
        manifest=fixture_set.manifest_path,
        vocab=fixture_set.vocab_path,
        keywords=keywords,
        mode="ngram",
        word_bonus=0.0,
    )
    settings.update(overrides)
    return RunConfig(**settings)


class TestRunConfig:
    def test_paths_are_coerced(self, corpus, demo_keywords, tmp_path):
        cfg = RunConfig(
            manifest=str(corpus.manifest_path),
            vocab=str(corpus.vocab_path),
            out=str(tmp_path / "h.jsonl"),
            keywords=str(demo_keywords),
        )
        assert isinstance(cfg.manifest, Path)
        assert isinstance(cfg.keywords, Path)

    def test_boosting_requires_keywords(self, corpus, tmp_path):
        with pytest.raises(ConfigError, match="requires a keyword list"):
            RunConfig(
                manifest=corpus.manifest_path,
                vocab=corpus.vocab_path,
                out=tmp_path / "h.jsonl",
                mode="ngram",
            )

    def test_missing_input_rejected(self, corpus, tmp_path):
        with pytest.raises(ConfigError, match="input file not found"):
            RunConfig(
                manifest=tmp_path / "nope.jsonl",
                vocab=corpus.vocab_path,
                out=tmp_path / "h.jsonl",
            )

    def test_decode_config_carries_knobs(self, corpus, demo_keywords, tmp_path):
        cfg = RunConfig(
            manifest=corpus.manifest_path,
            vocab=corpus.vocab_path,
            out=tmp_path / "h.jsonl",
            keywords=demo_keywords,
            mode="default",
            boost_weight=2.5,
            lm_weight=0.3,
            word_bonus=0.7,
            beam_width=17,
            token_min_logp=-5.0,
        )
        decode_cfg = cfg.decode_config()
        assert decode_cfg.mode == "default"
        assert decode_cfg.lm_weight == 0.3
        assert decode_cfg.word_bonus == 0.7
        assert decode_cfg.beam_width == 17
        assert decode_cfg.token_min_logp == -5.0
        # The boost weight reaches the decoder through the trie: the demo
        # list has no per-entry weights, so every boost is the default.
        trie = load_resources(cfg).trie
        assert trie.weights == {entry.raw: 2.5 for entry in trie.mapping.entries}
        assert set(trie.unigram_weights.values()) == {2.5}
        assert {trie.weights[m.raw] for m in trie.find_matches(["a", "i"])} == {2.5}

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(boost_weight=-1.0),
            dict(boost_weight=float("nan")),
            dict(boost_weight=float("inf")),
            dict(rarity_threshold=float("-inf")),
        ],
    )
    def test_invalid_boost_settings(self, corpus, tmp_path, kwargs):
        # Rejected even in baseline mode, where no trie is built.
        with pytest.raises(ConfigError):
            RunConfig(
                manifest=corpus.manifest_path,
                vocab=corpus.vocab_path,
                out=tmp_path / "h.jsonl",
                **kwargs,
            )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(beam_width=0), "beam width"),
            (dict(lm_weight=float("inf")), "finite"),
            (dict(token_min_logp=float("nan")), "token_min_logp"),
            # Checked before the keyword list, so the mode itself is named.
            (dict(mode="bogus"), "unknown mode"),
        ],
        ids=["zero-beam", "inf-lm-weight", "nan-token-floor", "unknown-mode"],
    )
    def test_invalid_decoder_settings(self, corpus, tmp_path, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(
                manifest=corpus.manifest_path,
                vocab=corpus.vocab_path,
                out=tmp_path / "h.jsonl",
                **kwargs,
            )


class TestRunDecode:
    def baseline_config(self, corpus, out):
        return RunConfig(
            manifest=corpus.manifest_path,
            vocab=corpus.vocab_path,
            out=out,
            keywords=DATA / "keywords_demo.txt",
            word_bonus=0.0,
        )

    def test_baseline_matches_golden_output(self, corpus, tmp_path):
        out = tmp_path / "hyps.jsonl"
        summary = run_decode(self.baseline_config(corpus, out))
        assert (summary.decoded, summary.failed) == (5, 0)
        assert summary.out == out
        assert out.read_bytes() == (DATA / "golden_baseline.jsonl").read_bytes()

    def test_needs_an_output_path(self, corpus, monkeypatch):
        cfg = self.baseline_config(corpus, None)
        monkeypatch.setattr(harness, "read_manifest", None)  # rejected before reading
        with pytest.raises(ConfigError, match="output path"):
            run_decode(cfg)

    def test_record_shape_and_order(self, corpus, tmp_path):
        out = tmp_path / "hyps.jsonl"
        run_decode(self.baseline_config(corpus, out))
        records = read_records(out)
        assert [r["id"] for r in records] == ["u1", "u2", "u3", "u4", "u5"]
        for record in records:
            assert set(record) == {"id", "text", "matches"}

    def test_ngram_mode_recovers_written_keywords(self, corpus, tmp_path):
        out = tmp_path / "hyps.jsonl"
        cfg = self.baseline_config(corpus, out)
        cfg.mode, cfg.boost_weight = "ngram", 3.0
        run_decode(cfg)
        by_id = {r["id"]: r for r in read_records(out)}
        assert by_id["u1"]["text"] == "presentation about AI analytics"
        assert by_id["u1"]["matches"] == [{"raw": "AI", "start": 2, "end": 4}]
        assert by_id["u2"]["text"] == "C3PO today"
        assert by_id["u4"]["text"] == "flight 356 departs"
        assert by_id["u5"]["text"] == "IBM stock rose"
        assert by_id["u3"]["text"] == "the quick brown fox"
        assert by_id["u3"]["matches"] == []

    @pytest.mark.parametrize("mode", ["default", "ngram"])
    def test_records_carry_the_decoders_matches(self, corpus, tmp_path, mode):
        # One match type from the decoder to the output file: each record's
        # spans are the inverse normalization of its utterance's decoded
        # words, field for field.
        out = tmp_path / "hyps.jsonl"
        cfg = self.baseline_config(corpus, out)
        cfg.mode, cfg.boost_weight = mode, 3.0
        run_decode(cfg)
        resources = load_resources(cfg)
        records = read_records(out)
        entries = read_manifest(corpus.manifest_path)
        assert [r["id"] for r in records] == [e.utt_id for e in entries]
        for record, entry in zip(records, entries):
            result = decode(
                read_logits(entry.logits_path),
                resources.vocab,
                cfg.decode_config(),
                lm=resources.lm,
                trie=resources.trie,
            )
            _, spans = inverse_normalize(result.words, resources.mapping)
            assert record["matches"] == [
                {"raw": m.raw, "start": m.start, "end": m.end} for m in spans
            ]
        assert sum(bool(r["matches"]) for r in records) == 4

    def test_default_mode_sprays_boosted_letters(self, corpus, tmp_path):
        # Unconditional unigram boosts insert the trap letter both times;
        # the match-or-retract mode above keeps the transcript clean.
        out = tmp_path / "hyps.jsonl"
        cfg = self.baseline_config(corpus, out)
        cfg.mode, cfg.boost_weight = "default", 3.0
        run_decode(cfg)
        by_id = {r["id"]: r for r in read_records(out)}
        assert by_id["u1"]["text"] == "presentation about AI e e analytics"

    def test_bad_logits_become_error_records(self, tmp_path):
        fixture_set, kw = build_corpus(
            tmp_path,
            [
                {"id": "ok1", "text": "fine here", "confidence": 0.95},
                {"id": "ok2", "text": "also fine", "confidence": 0.95},
            ],
            ["fine"],
        )
        lines = fixture_set.manifest_path.read_text(encoding="utf-8").splitlines()
        broken = json.dumps(
            {"id": "broken", "logits": "logits/missing.ctcl", "reference": "x"}
        )
        fixture_set.manifest_path.write_text(
            "\n".join([lines[0], broken, lines[1]]) + "\n", encoding="utf-8"
        )
        out = tmp_path / "hyps.jsonl"
        summary = run_decode(
            RunConfig(
                manifest=fixture_set.manifest_path,
                vocab=fixture_set.vocab_path,
                out=out,
                keywords=kw,
            )
        )
        assert (summary.decoded, summary.failed) == (2, 1)
        records = read_records(out)
        assert [r["id"] for r in records] == ["ok1", "broken", "ok2"]
        assert "error" in records[1] and "text" not in records[1]

    def test_corrupt_logits_reported_not_raised(self, tmp_path):
        fixture_set, kw = build_corpus(
            tmp_path, [{"id": "u", "text": "hello world"}], ["hello"]
        )
        fixture_set.logit_paths[0].write_bytes(b"not a logit file")
        out = tmp_path / "hyps.jsonl"
        summary = run_decode(
            RunConfig(
                manifest=fixture_set.manifest_path,
                vocab=fixture_set.vocab_path,
                out=out,
                keywords=kw,
            )
        )
        assert (summary.decoded, summary.failed) == (0, 1)
        assert "error" in read_records(out)[0]


class TestRunScore:
    def write_pair(self, tmp_path, rows):
        """rows: (utt_id, reference, hypothesis or error record)."""
        manifest = tmp_path / "manifest.jsonl"
        hyps = tmp_path / "hyps.jsonl"
        manifest.write_text(
            "".join(
                json.dumps({"id": i, "logits": "x.ctcl", "reference": ref}) + "\n"
                for i, ref, _ in rows
            ),
            encoding="utf-8",
        )
        hyp_lines = []
        for i, _, hyp in rows:
            record = hyp if isinstance(hyp, dict) else {"id": i, "text": hyp}
            record.setdefault("id", i)
            hyp_lines.append(json.dumps(record))
        hyps.write_text("".join(l + "\n" for l in hyp_lines), encoding="utf-8")
        keywords = tmp_path / "kw.tsv"
        keywords.write_text("AI\n", encoding="utf-8")
        return hyps, manifest, keywords

    def test_report_numbers(self, tmp_path):
        hyps, manifest, keywords = self.write_pair(
            tmp_path,
            [
                ("u1", "the AI lab", "the lab"),
                ("u2", "all good here", "all good here"),
            ],
        )
        report = run_score(hyps, manifest, keywords)
        assert report.b_wer == 100.0
        assert report.u_wer == 0.0
        assert report.wer == pytest.approx(100.0 / 6, abs=0.01)

    def test_save_and_case_fold(self, tmp_path):
        hyps, manifest, keywords = self.write_pair(
            tmp_path, [("u1", "AI rocks", "ai rocks")]
        )
        strict = run_score(hyps, manifest, keywords)
        assert strict.b_wer == 100.0
        out = tmp_path / "report.json"
        folded = run_score(hyps, manifest, keywords, out=out, case_fold=True)
        assert folded.b_wer == 0.0 and folded.wer == 0.0
        saved = json.loads(out.read_text(encoding="utf-8"))
        assert saved["corpus"]["b_wer"] == 0.0 and "utterances" in saved

    def test_missing_hypothesis_rejected(self, tmp_path):
        hyps, manifest, keywords = self.write_pair(
            tmp_path, [("u1", "AI lab", "AI lab")]
        )
        manifest.write_text(
            manifest.read_text(encoding="utf-8")
            + json.dumps({"id": "u2", "logits": "x.ctcl", "reference": "more"})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match="no hypothesis for utterance 'u2'"):
            run_score(hyps, manifest, keywords)

    def test_duplicate_hypothesis_rejected(self, tmp_path):
        hyps, manifest, keywords = self.write_pair(
            tmp_path, [("u1", "AI lab", "AI lab")]
        )
        hyps.write_text(
            hyps.read_text(encoding="utf-8") + json.dumps({"id": "u1", "text": "lab"}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match=f"{re.escape(str(hyps))}:2: duplicate"):
            run_score(hyps, manifest, keywords)

    def test_error_records_are_not_scoreable(self, tmp_path):
        hyps, manifest, keywords = self.write_pair(
            tmp_path, [("u1", "AI lab", {"id": "u1", "error": "bad logits"})]
        )
        with pytest.raises(DataFormatError, match="carries a decode error"):
            run_score(hyps, manifest, keywords)

    def test_empty_manifest_rejected(self, tmp_path):
        hyps, manifest, keywords = self.write_pair(
            tmp_path, [("u1", "AI lab", "AI lab")]
        )
        manifest.write_text("", encoding="utf-8")
        with pytest.raises(DataFormatError, match="empty corpus"):
            run_score(hyps, manifest, keywords)


class TestPrepareList:
    def test_multi_word_keyword_is_one_target(self, tmp_path):
        kw = tmp_path / "kw.tsv"
        kw.write_text("AI\nice cream\n", encoding="utf-8")
        mapping = prepare_list(kw)
        assert [e.raw for e in mapping.entries] == ["AI", "ice cream"]
        assert mapping.reverse[("ice", "cream")].raw == "ice cream"

    def test_multi_word_keyword_keeps_its_phrase_variant(self, tmp_path):
        kw = tmp_path / "kw.tsv"
        kw.write_text("ice cream\n", encoding="utf-8")
        entry = prepare_list(kw).entries[0]
        assert entry.raw == "ice cream"
        assert ("ice", "cream") in entry.variants

    def test_unspeakable_rejected_with_reason(self, tmp_path):
        kw = tmp_path / "kw.tsv"
        kw.write_text("!!!\nIBM\n", encoding="utf-8")
        with pytest.raises(NormalizationError, match="keyword '!!!' normalizes to nothing"):
            prepare_list(kw)

    def test_builds_what_load_resources_builds(self, corpus, tmp_path):
        kw = tmp_path / "kw.tsv"
        kw.write_text("AI\t3.0\nC3PO\t\t1\nA.I.\nGIF\n", encoding="utf-8")
        exceptions = DATA / "exceptions_demo.tsv"
        cfg = RunConfig(
            manifest=corpus.manifest_path, vocab=corpus.vocab_path,
            out=tmp_path / "h.jsonl", keywords=kw, exceptions=exceptions,
        )
        mapping = prepare_list(kw, exceptions=exceptions)
        assert mapping == load_resources(cfg).mapping
        assert len(mapping.collisions) == 1

    def test_out_is_the_saved_mapping(self, tmp_path):
        kw = tmp_path / "kw.tsv"
        kw.write_text("AI\t3.0\nC3PO\n", encoding="utf-8")
        out = tmp_path / "mapping.tsv"
        prepare_list(kw, out=out)
        assert out.read_text(encoding="utf-8") == "AI\ta i\t3.0\t0\nC3PO\tc three p o\t\t0\n"

    def test_exceptions_table_applied(self, tmp_path):
        kw = tmp_path / "kw.tsv"
        kw.write_text("GIF\n", encoding="utf-8")
        mapping = prepare_list(kw, exceptions=DATA / "exceptions_demo.tsv")
        assert ("jif",) in mapping.entries[0].variants


class TestRawTargetMapping:
    def test_raw_forms_kept_verbatim(self):
        mapping = raw_target_mapping([("C3PO", None, 0), ("A1 B2", 2.0, 1)])
        assert mapping.entries[0].variants == (("C3PO",),)
        assert mapping.entries[1].variants == (("A1", "B2"),)
        assert mapping.entries[1].weight == 2.0

    def test_reads_keyword_files(self, demo_keywords):
        mapping = raw_target_mapping(load_keyword_list(demo_keywords))
        assert [e.raw for e in mapping.entries] == ["AI", "C3PO", "356", "IBM", "E9"]
        assert all(e.variants == ((e.raw,),) for e in mapping.entries)

    def test_duplicates_rejected(self):
        with pytest.raises(NormalizationError, match="duplicate"):
            raw_target_mapping([("X", None, 0), ("X", None, 1)])


class TestGridSearch:
    def test_selects_the_working_weight(self, tune_corpus, tmp_path):
        fixture_set, kw = tune_corpus
        cfg = tune_config(fixture_set, kw)
        result = grid_search(cfg, [0.0, 1.0, 2.0, 4.0])
        assert result.selected_weight == 2.0
        assert [p.report.b_wer for p in result.grid] == [100.0, 100.0, 0.0, 100.0]
        assert [p.report.u_wer for p in result.grid] == [0.0, 0.0, 0.0, 0.0]
        assert result.per_target is None

    def test_grid_is_sorted_and_deduped(self, tune_corpus, tmp_path):
        fixture_set, kw = tune_corpus
        cfg = tune_config(fixture_set, kw)
        result = grid_search(cfg, [4.0, 2.0, 2.0, 0.0, 1.0])
        assert [p.weight for p in result.grid] == [0.0, 1.0, 2.0, 4.0]

    def test_rate_ties_resolve_to_smallest_weight(self, tune_corpus, tmp_path):
        fixture_set, kw = tune_corpus
        cfg = tune_config(fixture_set, kw)
        result = grid_search(cfg, [0.0, 1.0], objective="wer")
        assert result.selected_weight == 0.0

    def test_result_serialization(self, tune_corpus, tmp_path):
        fixture_set, kw = tune_corpus
        cfg = tune_config(fixture_set, kw)
        result = grid_search(cfg, [0.0, 2.0])
        out = tmp_path / "tune.json"
        result.save(out)
        saved = json.loads(out.read_text(encoding="utf-8"))
        assert saved["objective"] == "b_wer"
        assert saved["selected_weight"] == 2.0
        assert saved["grid"][0] == {
            "weight": 0.0,
            "wer": 16.67,
            "u_wer": 0.0,
            "b_wer": 100.0,
        }

    def test_search_is_deterministic(self, tune_corpus, tmp_path):
        fixture_set, kw = tune_corpus
        cfg = tune_config(fixture_set, kw)
        first = grid_search(cfg, [0.0, 2.0, 4.0], per_target=True)
        second = grid_search(cfg, [0.0, 2.0, 4.0], per_target=True)
        assert first.to_dict() == second.to_dict()

    def test_per_target_beats_any_shared_weight(self, per_target_corpus, tmp_path):
        fixture_set, kw = per_target_corpus
        cfg = tune_config(fixture_set, kw)
        result = grid_search(cfg, [0.0, 2.0], per_target=True)
        # No shared weight fixes both utterances, so the global pick
        # stays at the tie-break; the sweep then splits the weights.
        assert result.selected_weight == 0.0
        assert [p.report.b_wer for p in result.grid] == [100.0, 100.0]
        assert result.per_target == {"KQ": 2.0, "vv": 0.0}

    def test_per_target_starts_from_list_weights(self, tmp_path):
        # QZ's list weight 2 recovers it at every grid point, so both
        # score WER 0.  The sweep must keep that weight: the grid alone
        # offers 0, which deletes QZ, and 4, which lets the q trap in.
        trap = {
            "id": "q",
            "text": "say hello now",
            "reference": "say hello now",
            "confidence": 0.9,
            "traps": [{"after": 1, "alt": "q", "prob": 0.046}],
        }
        fixture_set, kw = build_corpus(tmp_path, [TUNE_SPEC[0], trap], ["QZ\t2.0"], seed=5)
        cfg = tune_config(fixture_set, kw)
        result = grid_search(cfg, [0.0, 4.0], per_target=True)
        assert [p.report.wer for p in result.grid] == [0.0, 0.0]
        assert result.per_target == {"QZ": 2.0}

    def test_per_target_logs_each_collision_once(self, tune_corpus, tmp_path, caplog):
        # AI and A.I. both normalize to "a i"; trials reuse the resolved
        # ownership instead of re-running collision resolution.
        fixture_set, _ = tune_corpus
        kw = tmp_path / "keywords.tsv"
        kw.write_text("QZ\njx\nAI\nA.I.\n", encoding="utf-8")
        cfg = tune_config(fixture_set, kw)
        with caplog.at_level("WARNING", logger="kwboost.norm"):
            result = grid_search(cfg, [0.0, 2.0, 4.0], per_target=True)
        warnings = [r.getMessage() for r in caplog.records if r.name == "kwboost.norm"]
        assert len(warnings) == 1
        assert "variant a i" in warnings[0]
        assert set(result.per_target) == {"QZ", "jx", "AI", "A.I."}

    def test_trials_reuse_the_gate_and_the_mapping(
        self, corpus, demo_keywords, tmp_path, monkeypatch
    ):
        # The rarity gate runs once, in load_resources, and asks the LM once
        # per distinct variant word: every grid weight and per-target trial
        # reuses its gated words and the mapping.
        calls = {"gate": 0, "mapping": 0}
        unigram_log10 = NGramLM.unigram_log10
        post_init = NormalizationMapping.__post_init__

        def gate(lm, word):
            calls["gate"] += 1
            return unigram_log10(lm, word)

        def mapping_built(mapping):
            calls["mapping"] += 1
            post_init(mapping)

        at_load = {}
        load_resources = harness.load_resources

        def load(cfg):
            resources = load_resources(cfg)
            words = {word for variant in resources.mapping.reverse for word in variant}
            at_load.update(calls, words=len(words))
            return resources

        monkeypatch.setattr(NGramLM, "unigram_log10", gate)
        monkeypatch.setattr(NormalizationMapping, "__post_init__", mapping_built)
        monkeypatch.setattr(harness, "load_resources", load)
        cfg = tune_config(corpus, demo_keywords, lm=DATA / "tiny_bigram.arpa")
        grid = [0.0, 2.0, 4.0, 8.0]
        result = grid_search(cfg, grid, per_target=True)
        assert set(result.per_target) == {"AI", "C3PO", "356", "IBM", "E9"}
        assert at_load["gate"] == at_load["words"] > 0
        assert calls["gate"] == at_load["words"]
        assert calls["mapping"] == at_load["mapping"] == 1

    def test_undefined_b_wer_needs_wer_objective(self, tmp_path):
        fixture_set, kw = build_corpus(
            tmp_path,
            [
                {
                    "id": "jx",
                    "text": "say hello now",
                    "confidence": 0.9,
                    "traps": [{"after": 1, "alt": "jx", "prob": 0.046}],
                }
            ],
            ["jx"],
        )
        cfg = tune_config(fixture_set, kw)
        with pytest.raises(DataFormatError, match="B-WER is undefined"):
            grid_search(cfg, [0.0, 4.0])
        result = grid_search(cfg, [0.0, 4.0], objective="wer")
        assert result.selected_weight == 0.0
        assert all(p.report.b_wer is None for p in result.grid)

    def test_validation(self, tune_corpus, tmp_path):
        fixture_set, kw = tune_corpus
        cfg = tune_config(fixture_set, kw)
        with pytest.raises(ConfigError, match="empty weight grid"):
            grid_search(cfg, [])
        with pytest.raises(ConfigError, match="unknown objective"):
            grid_search(cfg, [1.0], objective="f1")
        with pytest.raises(ConfigError, match=">= 0"):
            grid_search(cfg, [-1.0, 2.0])
        plain = RunConfig(manifest=fixture_set.manifest_path, vocab=fixture_set.vocab_path)
        with pytest.raises(ConfigError, match="tuning requires a keyword list"):
            grid_search(plain, [1.0])

    @pytest.mark.parametrize("value", [True, "2"])
    def test_grid_values_follow_the_weight_rule(self, tune_corpus, tmp_path, value):
        # A bool or a string is no weight, as for --boost-weight: float()
        # would tune True as 1.0 and "2" as 2.0.
        fixture_set, kw = tune_corpus
        cfg = tune_config(fixture_set, kw)
        with pytest.raises(ConfigError, match="real number"):
            grid_search(cfg, [value, 0.0])

    def test_baseline_mode_has_no_boost_to_tune(self, tune_corpus, tmp_path, monkeypatch):
        fixture_set, kw = tune_corpus
        cfg = tune_config(fixture_set, kw, mode="baseline")
        monkeypatch.setattr(harness, "load_resources", None)  # rejected before loading
        with pytest.raises(ConfigError, match="baseline"):
            grid_search(cfg, [0.0, 2.0], per_target=True)

    def test_empty_manifest_rejected(self, tune_corpus, tmp_path):
        fixture_set, kw = tune_corpus
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        cfg = tune_config(fixture_set, kw, manifest=empty)
        with pytest.raises(DataFormatError, match="empty manifest"):
            grid_search(cfg, [1.0])


class TestCollectorPause:
    """load_resources and run_decode pause automatic collection, then give
    the caller's state back."""

    def config(self, corpus, out, lm=DATA / "normalized_bigram.arpa"):
        return RunConfig(
            manifest=corpus.manifest_path,
            vocab=corpus.vocab_path,
            out=out,
            lm=lm,
            keywords=DATA / "keywords_demo.txt",
            mode="ngram",
        )

    @pytest.mark.parametrize("call", [load_resources, run_decode], ids=lambda f: f.__name__)
    def test_the_callers_state_comes_back(self, corpus, tmp_path, collector_on, call):
        call(self.config(corpus, tmp_path / "hyps.jsonl"))
        assert gc.isenabled() is collector_on

    @pytest.mark.parametrize("call", [load_resources, run_decode], ids=lambda f: f.__name__)
    def test_a_malformed_arpa_gives_the_state_back(self, corpus, tmp_path, collector_on, call):
        arpa = tmp_path / "bad.arpa"
        arpa.write_text("\\data\\\nngram 1=2\n\\1-grams:\n-0.5 a\n\\end\\\n", encoding="utf-8")
        with pytest.raises(ArpaError, match="declared ngram 1=2 but parsed 1"):
            call(self.config(corpus, tmp_path / "hyps.jsonl", lm=arpa))
        assert gc.isenabled() is collector_on

    def test_no_automatic_collection_inside_a_paused_call(self, corpus, tmp_path):
        cfg = self.config(corpus, tmp_path / "hyps.jsonl")
        resources = load_resources(cfg)
        utterances = [read_logits(path).data for path in corpus.logit_paths]
        long_utterance = LogitMatrix(np.concatenate(utterances * 10))
        # A collection counts as inside when a paused body is on the stack:
        # the wrappers allocate their argument tuples before the pause.
        paused = {
            inspect.unwrap(fn).__code__
            for fn in (load_resources, run_decode, DecoderSession.push_frames)
        }
        inside = outside = 0

        def hook(phase, info):
            nonlocal inside, outside
            if phase != "start":
                return
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in paused:
                frame = frame.f_back
            if frame is None:
                outside += 1
            else:
                inside += 1

        was_on, threshold = gc.isenabled(), gc.get_threshold()
        gc.callbacks.append(hook)
        gc.enable()
        gc.set_threshold(1, 1, 1)
        try:
            summary = run_decode(cfg)
            session = DecoderSession(
                resources.vocab, cfg.decode_config(), lm=resources.lm, trie=resources.trie
            )
            session.push_frames(long_utterance)
            session.finalize()
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(hook)
            (gc.enable if was_on else gc.disable)()
        assert (summary.decoded, summary.failed) == (5, 0)
        assert long_utterance.num_frames > 500
        # The hook is live: code between the calls still triggers collections.
        assert outside > 0
        assert inside == 0


TEXT_READERS = [
    read_vocab_file, read_manifest, read_transcripts, load_keyword_list,
    load_exceptions, load_fixture_spec, load_arpa,
]


@pytest.mark.parametrize("reader", TEXT_READERS, ids=lambda reader: reader.__name__)
@pytest.mark.parametrize("fault", ["missing", "not-utf8"])
def test_text_readers_turn_io_faults_into_toolkit_errors(tmp_path, reader, fault):
    path = tmp_path / "input.txt"
    if fault == "not-utf8":
        path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(ToolkitError, match=re.escape(str(path))):
        reader(path)


OUT_WRITERS = {
    "run_decode": lambda corpus, path: run_decode(
        RunConfig(manifest=corpus.manifest_path, vocab=corpus.vocab_path, out=path)
    ),
    "save_mapping": lambda corpus, path: save_mapping(build_mapping(["AI"]), path),
    "ScoreReport.save": lambda corpus, path: biased_wer([("u", ["a"], ["a"])], []).save(path),
    "GridSearchResult.save": lambda corpus, path: GridSearchResult("wer", [], 0.0).save(path),
}


@pytest.mark.parametrize("writer", OUT_WRITERS)
def test_out_writers_turn_io_faults_into_toolkit_errors(corpus, tmp_path, writer):
    # run_decode's RunConfig rejects the directory before anything is
    # decoded; the other writers fail at the write.  Both name the path.
    with pytest.raises(ToolkitError, match=re.escape(str(tmp_path))):
        OUT_WRITERS[writer](corpus, tmp_path)


# Near-valid inputs reach the per-line parsers: JSON values over the
# fields the JSONL formats read, tab-separated text, and .ctcl headers.
_JSON_FIELDS = [
    "id", "logits", "reference", "text", "confidence", "confusions", "traps",
    "word", "alt", "prob", "after", "count",
]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_JSON_FIELDS), inner, max_size=5),
    max_leaves=10,
)
_LINES = st.lists(
    _JSON_VALUES.map(json.dumps) | st.text(max_size=16)
    | st.lists(st.text(max_size=6), max_size=4).map("\t".join),
    max_size=4,
).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass"))
_LOGITS = st.builds(
    lambda frames, tokens, body: struct.pack("<4sIII", b"CTCL", 1, frames, tokens) + body,
    st.integers(0, 3), st.integers(0, 3), st.binary(max_size=48),
)


@pytest.mark.parametrize(
    "reader", TEXT_READERS + [read_logits], ids=lambda reader: reader.__name__
)
@given(content=st.binary(max_size=64) | _LINES | _LOGITS)
def test_readers_return_a_value_or_a_toolkit_error_on_any_bytes(reader, content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(content)
        try:
            reader(path)
        except ToolkitError:
            pass


LINE_READERS = [
    (read_manifest, '{"id": "u1", "logits": "u1.ctcl", "reference": "a"}',
     '{"id": "u1", "logits": "u2.ctcl", "reference": "b"}'),
    (read_transcripts, '{"id": "u1", "text": "a"}', '{"id": "u1", "text": "b"}'),
    (load_keyword_list, "# note", "AI\tnotafloat"),
    (load_exceptions, "# note", "lonely"),
    (load_fixture_spec, "# note", '{"id": "u1"}'),
]


@pytest.mark.parametrize(
    "reader,first,bad", LINE_READERS, ids=[r[0].__name__ for r in LINE_READERS]
)
def test_line_readers_name_the_bad_line_after_skipped_ones(tmp_path, reader, first, bad):
    path = tmp_path / "input"
    path.write_text(f"{first}\n\n{bad}\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}:3: ")):
        reader(path)


def test_mapping_raws_may_start_with_a_hash(tmp_path):
    # Nothing reads the review file back, so a '#' raw is written as is.
    path = tmp_path / "map.tsv"
    save_mapping(build_mapping(["#tag"]), path)
    assert path.read_text(encoding="utf-8") == "#tag\ttag\t\t0\n"


def test_utterance_ids_follow_the_scalar_integer_rule():
    # An integer id is any integer that is not a bool, numpy's included.
    assert [utterance_id(v) for v in ("a", 7, np.int64(3))] == ["a", "7", "3"]
    for value in (True, np.bool_(False), 1.5, np.float64(2.0), None):
        with pytest.raises(ValueError, match="utterance id must be a string or an integer"):
            utterance_id(value)


@pytest.mark.parametrize("utt_id", ["true", "null", "1.5", "[1]"])
def test_transcript_ids_follow_the_manifest_rule(tmp_path, utt_id):
    path = tmp_path / "hyps.jsonl"
    path.write_text(f'{{"id": {utt_id}, "text": "a"}}\n', encoding="utf-8")
    with pytest.raises(DataFormatError, match="utterance id must be a string or an integer"):
        read_transcripts(path)


class TestCli:
    def decode_args(self, corpus, out, *extra):
        return [
            "decode",
            "--manifest", str(corpus.manifest_path),
            "--vocab", str(corpus.vocab_path),
            "--out", str(out),
            "--beta", "0",
            *extra,
        ]

    def test_decode_reports_progress(self, corpus, tmp_path, capsys):
        out = tmp_path / "hyps.jsonl"
        assert main(self.decode_args(corpus, out)) == 0
        assert "decoded 5 utterances" in capsys.readouterr().out
        assert len(read_records(out)) == 5

    def test_decode_out_directory_exits_2_and_writes_nothing(self, corpus, tmp_path, capsys):
        out = tmp_path / "hyps"
        out.mkdir()
        assert main(self.decode_args(corpus, out)) == 2
        assert f"output path is a directory: {out}" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [out]

    @pytest.mark.parametrize("command", ["decode", "tune", "score", "prepare-list"])
    def test_out_that_names_an_input_exits_2_and_keeps_it(
        self, corpus, demo_keywords, tmp_path, capsys, monkeypatch, command
    ):
        # The inputs are copies, so a run that did overwrite one changes
        # no shared fixture.  ``--out`` names an input through a symlink
        # or by another spelling of its path, which samefile catches.
        fx = tmp_path / "fx"
        shutil.copytree(corpus.manifest_path.parent, fx)
        keywords = fx / "keywords.txt"
        shutil.copy(demo_keywords, keywords)
        hyps = fx / "hyps.jsonl"
        assert main(self.decode_args(corpus, hyps)) == 0
        link = tmp_path / "link.jsonl"
        link.symlink_to(fx / "manifest.jsonl")
        monkeypatch.chdir(tmp_path)
        inputs = ["--manifest", str(fx / "manifest.jsonl"), "--keywords", str(keywords)]
        target, argv = {
            "decode": (fx / "manifest.jsonl", [
                "decode", "--vocab", str(fx / "vocab.txt"), *inputs, "--out", str(link),
            ]),
            "tune": (keywords, [
                "tune", "--vocab", str(fx / "vocab.txt"), "--grid", "1", *inputs,
                "--out", "fx/keywords.txt",
            ]),
            "score": (hyps, [
                "score", "--hyps", str(hyps), *inputs, "--out", "fx/../fx/hyps.jsonl",
            ]),
            "prepare-list": (keywords, [
                "prepare-list", "--keywords", "fx/keywords.txt", "--out", str(keywords),
            ]),
        }[command]
        before = target.read_bytes()
        # decode and tune check their output before loading anything.
        monkeypatch.setattr(harness, "load_resources", None)
        capsys.readouterr()
        assert main(argv) == 2
        assert "would overwrite the input" in capsys.readouterr().err
        assert target.read_bytes() == before

    @pytest.mark.parametrize("command", ["decode", "tune"])
    def test_out_that_names_a_logit_file_exits_2_and_keeps_it(
        self, corpus, demo_keywords, tmp_path, capsys, monkeypatch, command
    ):
        # The manifest's logit files are inputs too, read before any work.
        fx = tmp_path / "fx"
        shutil.copytree(corpus.manifest_path.parent, fx)
        target = fx / corpus.logit_paths[0].relative_to(corpus.manifest_path.parent)
        before = target.read_bytes()
        argv = [
            command, "--manifest", str(fx / "manifest.jsonl"), "--vocab", str(fx / "vocab.txt"),
            "--keywords", str(demo_keywords), "--out", str(target),
        ]
        if command == "tune":
            argv += ["--grid", "1"]
        monkeypatch.setattr(harness, "load_resources", None)
        assert main(argv) == 2
        assert "would overwrite the input" in capsys.readouterr().err
        assert target.read_bytes() == before

    def test_decode_then_score_pipeline(self, corpus, demo_keywords, tmp_path, capsys):
        hyps = tmp_path / "hyps.jsonl"
        rc = main(
            self.decode_args(
                corpus, hyps,
                "--keywords", str(demo_keywords),
                "--mode", "ngram",
                "--boost-weight", "3",
            )
        )
        assert rc == 0
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "score",
                "--hyps", str(hyps),
                "--manifest", str(corpus.manifest_path),
                "--keywords", str(demo_keywords),
                "--out", str(report_path),
            ]
        )
        assert rc == 0
        assert "report ->" in capsys.readouterr().out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["corpus"]["b_wer"] == 0.0 and report["corpus"]["wer"] == 0.0

    def test_score_prints_json_without_out(self, corpus, demo_keywords, tmp_path, capsys):
        hyps = tmp_path / "hyps.jsonl"
        main(self.decode_args(corpus, hyps, "--keywords", str(demo_keywords)))
        capsys.readouterr()
        rc = main(
            [
                "score",
                "--hyps", str(hyps),
                "--manifest", str(corpus.manifest_path),
                "--keywords", str(demo_keywords),
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["corpus"]) >= {"wer", "u_wer", "b_wer"}
        assert len(report["utterances"]) == 5

    def test_tune_writes_selection(self, tune_corpus, tmp_path, capsys):
        fixture_set, kw = tune_corpus
        out = tmp_path / "tune.json"
        rc = main(
            [
                "tune",
                "--manifest", str(fixture_set.manifest_path),
                "--vocab", str(fixture_set.vocab_path),
                "--keywords", str(kw),
                "--beta", "0",
                "--grid", "0", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "selected weight 2.0" in capsys.readouterr().out
        assert json.loads(out.read_text(encoding="utf-8"))["selected_weight"] == 2.0

    def test_tune_prints_json_without_out(self, tune_corpus, tmp_path, capsys, monkeypatch):
        fixture_set, kw = tune_corpus
        # Nothing is written, so a directory in the way does not matter.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tune.json").mkdir()
        rc = main(
            [
                "tune",
                "--manifest", str(fixture_set.manifest_path),
                "--vocab", str(fixture_set.vocab_path),
                "--keywords", str(kw),
                "--beta", "0",
                "--grid", "2",
            ]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["selected_weight"] == 2.0

    def test_tune_in_baseline_mode_exits_2(self, tune_corpus, tmp_path, capsys):
        fixture_set, kw = tune_corpus
        rc = main(
            [
                "tune",
                "--manifest", str(fixture_set.manifest_path),
                "--vocab", str(fixture_set.vocab_path),
                "--keywords", str(kw),
                "--mode", "baseline",
                "--grid", "0", "2",
                "--out", str(tmp_path / "tune.json"),
            ]
        )
        assert rc == 2
        assert "baseline" in capsys.readouterr().err
        assert not (tmp_path / "tune.json").exists()

    @pytest.mark.parametrize("command", ["decode", "tune"])
    def test_knob_flags_fill_run_config(self, corpus, demo_keywords, tmp_path, command):
        out = tmp_path / "out.jsonl"
        argv = [
            command,
            "--manifest", str(corpus.manifest_path),
            "--vocab", str(corpus.vocab_path),
            "--keywords", str(demo_keywords),
            "--out", str(out),
        ]
        if command == "tune":
            argv += ["--grid", "1"]
        # Only decode takes --boost-weight; tune's grid sets the weights.
        boost = ["--boost-weight", "2.5"] if command == "decode" else []
        knobs = boost + [
            "--mode", "default",
            "--alpha", "0.25",
            "--beta", "0.75",
            "--beam-width", "7",
            "--threshold", "-3.5",
            "--token-floor", "-6",
        ]

        def parsed(argv):
            return _run_config(build_parser().parse_args(argv), out)

        paths = dict(
            manifest=corpus.manifest_path, vocab=corpus.vocab_path, out=out,
            keywords=demo_keywords,
        )
        assert parsed(argv) == RunConfig(
            **paths,
            mode="baseline" if command == "decode" else "ngram",
            boost_weight=0.0,
            lm_weight=0.5,
            word_bonus=1.5,
            beam_width=50,
            rarity_threshold=-4.0,
            token_min_logp=-9.21,
        )
        assert parsed(argv + knobs) == RunConfig(
            **paths,
            mode="default",
            boost_weight=2.5 if command == "decode" else 0.0,
            lm_weight=0.25,
            word_bonus=0.75,
            beam_width=7,
            rarity_threshold=-3.5,
            token_min_logp=-6.0,
        )

    def test_tune_rejects_boost_weight(self, corpus, demo_keywords, capsys):
        # grid_search takes every weightless entry's weight from its grid,
        # so a default weight would change nothing.
        with pytest.raises(SystemExit) as exit_info:
            main([
                "tune",
                "--manifest", str(corpus.manifest_path),
                "--vocab", str(corpus.vocab_path),
                "--keywords", str(demo_keywords),
                "--grid", "1",
                "--boost-weight", "3",
            ])
        assert exit_info.value.code == 1
        assert "unrecognized arguments: --boost-weight 3" in capsys.readouterr().err

    def test_readme_knob_table_matches_defaults(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Decoding knobs", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(--[a-z-]+)` \| ([^|]+?) \|", table, re.MULTILINE)
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        decode_flags = sub.choices["decode"]._option_string_actions
        defaults = {f.name: f.default for f in fields(RunConfig)}
        # A knob is a flag whose RunConfig field has a default value; the
        # input paths are required or default to None.
        knobs = {
            flag for flag, action in decode_flags.items()
            if defaults.get(action.dest) not in (None, MISSING)
        }
        assert sorted(flag for flag, _ in rows) == sorted(knobs)

        def documented(text):
            text = text.replace("\N{MINUS SIGN}", "-")
            try:
                return float(text)
            except ValueError:
                return text

        for flag, text in rows:
            assert flag in decode_flags, flag
            assert documented(text) == defaults[decode_flags[flag].dest], flag

    def test_prepare_list_counts_and_rejects(self, tmp_path, capsys):
        kw = tmp_path / "kw.tsv"
        kw.write_text("AI\nA.I.\nice cream\n", encoding="utf-8")
        out = tmp_path / "mapping.tsv"
        assert main(["prepare-list", "--keywords", str(kw), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "3 keywords, 2 variants, 1 collisions\n"
        assert out.read_text(encoding="utf-8").splitlines()[-1] == "ice cream\tice cream\t\t0"
        kw.write_text("AI\nAI\n", encoding="utf-8")
        assert main(["prepare-list", "--keywords", str(kw)]) == 2
        assert capsys.readouterr().err == "kwboost: error: duplicate keyword 'AI'\n"

    def test_a_repeated_exceptions_line_is_one_variant(self, tmp_path, capsys, caplog):
        # The same variant listed twice for one raw is not a collision.
        kw = tmp_path / "kw.tsv"
        kw.write_text("SQL\n", encoding="utf-8")
        table = tmp_path / "exceptions.tsv"
        table.write_text("SQL\tsequel\nSQL\tsequel\n", encoding="utf-8")
        out = tmp_path / "mapping.tsv"
        argv = ["prepare-list", "--keywords", str(kw), "--exceptions", str(table)]
        with caplog.at_level("WARNING", logger="kwboost.norm"):
            assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == "1 keywords, 1 variants, 0 collisions\n"
        assert caplog.records == []
        assert out.read_text(encoding="utf-8") == "SQL\tsequel\t\t0\n"

    @pytest.mark.parametrize(
        "keywords, error",
        [("New York\nIBM\n", None), ("@@\nIBM\n", "keyword '@@' normalizes to nothing")],
    )
    def test_prepare_list_and_decode_agree(self, corpus, tmp_path, capsys, keywords, error):
        kw = tmp_path / "kw.tsv"
        kw.write_text(keywords, encoding="utf-8")
        mapping_out = tmp_path / "mapping.tsv"
        decode_argv = self.decode_args(
            corpus, tmp_path / "hyps.jsonl", "--keywords", str(kw), "--mode", "ngram"
        )
        codes = [
            main(["prepare-list", "--keywords", str(kw), "--out", str(mapping_out)]),
            main(decode_argv),
        ]
        if error is not None:
            assert codes == [2, 2]
            assert capsys.readouterr().err.count(f"kwboost: error: {error}\n") == 2
            return
        assert codes == [0, 0]
        assert "New York\tnew york\t\t0\n" in mapping_out.read_text(encoding="utf-8")
        cfg = _run_config(build_parser().parse_args(decode_argv), tmp_path / "hyps.jsonl")
        assert load_resources(cfg).mapping.reverse[("new", "york")].raw == "New York"

    @pytest.mark.parametrize("command", ["decode", "score", "tune", "prepare-list"])
    def test_missing_out_directory_exits_2(
        self, corpus, demo_keywords, tmp_path, capsys, monkeypatch, command
    ):
        hyps = tmp_path / "hyps.jsonl"
        assert main(self.decode_args(corpus, hyps)) == 0
        out = tmp_path / "missing" / "out.json"
        inputs = [
            "--manifest", str(corpus.manifest_path),
            "--keywords", str(demo_keywords),
            "--out", str(out),
        ]
        argv = {
            "decode": self.decode_args(corpus, out),
            "score": ["score", "--hyps", str(hyps), *inputs],
            "tune": ["tune", "--vocab", str(corpus.vocab_path), "--grid", "1", *inputs],
            "prepare-list": ["prepare-list", "--keywords", str(demo_keywords), "--out", str(out)],
        }[command]
        # decode and tune check the directory before loading anything.
        if command in ("decode", "tune"):
            monkeypatch.setattr(harness, "load_resources", None)
        capsys.readouterr()
        assert main(argv) == 2
        assert str(out) in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_tune_rejects_a_non_finite_grid_weight(self, tune_corpus, capsys, weight):
        fixture_set, kw = tune_corpus
        argv = [
            "tune",
            "--manifest", str(fixture_set.manifest_path),
            "--vocab", str(fixture_set.vocab_path),
            "--keywords", str(kw),
            "--grid", "1", weight,
        ]
        assert main(argv) == 2
        assert "boost weight must be finite" in capsys.readouterr().err

    def test_make_fixtures_command(self, tmp_path, capsys):
        spec = tmp_path / "spec.jsonl"
        spec.write_text('{"id": "u1", "text": "hello"}\n', encoding="utf-8")
        rc = main(
            ["make-fixtures", "--spec", str(spec), "--out-dir", str(tmp_path / "fx")]
        )
        assert rc == 0
        assert "1 utterances ->" in capsys.readouterr().out
        assert (tmp_path / "fx" / "manifest.jsonl").exists()

    @pytest.mark.parametrize(
        "blocked,is_file",
        [
            ("", True),
            ("logits", True),
            ("vocab.txt", False),
            ("logits/u1.ctcl", False),
            ("manifest.jsonl", False),
        ],
        ids=["out-dir-file", "logits-file", "vocab-dir", "logit-dir", "manifest-dir"],
    )
    def test_make_fixtures_unusable_output_exits_2(self, tmp_path, capsys, blocked, is_file):
        # A file where a directory must go, or a directory where a file
        # must go, is a data error naming the path, not a traceback.
        spec = tmp_path / "spec.jsonl"
        spec.write_text('{"id": "u1", "text": "hello"}\n', encoding="utf-8")
        out_dir = tmp_path / "fx"
        path = out_dir / blocked
        if is_file:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("", encoding="utf-8")
        else:
            path.mkdir(parents=True)
        argv = ["make-fixtures", "--spec", str(spec), "--out-dir", str(out_dir)]
        assert main(argv) == 2
        assert str(path if blocked else out_dir) in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["manifest.jsonl", "vocab.txt", "logits/u1.ctcl"])
    def test_make_fixtures_never_writes_over_its_spec(self, tmp_path, capsys, name):
        out_dir = tmp_path / "mf"
        spec = out_dir / name
        spec.parent.mkdir(parents=True)
        text = '{"id": "u1", "text": "hello"}\n'
        spec.write_text(text, encoding="utf-8")
        argv = ["make-fixtures", "--spec", str(spec), "--out-dir", str(out_dir)]
        assert main(argv) == 2
        assert f"would overwrite the input {spec}" in capsys.readouterr().err
        assert spec.read_text(encoding="utf-8") == text
        assert [path for path in out_dir.rglob("*") if path.is_file()] == [spec]

    def test_make_fixtures_negative_seed_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.jsonl"
        spec.write_text('{"id": "u1", "text": "hello"}\n', encoding="utf-8")
        out_dir = tmp_path / "fx"
        argv = ["make-fixtures", "--spec", str(spec), "--out-dir", str(out_dir),
                "--seed", "-1"]
        assert main(argv) == 2
        assert "seed" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["decode"],
            ["bogus-command"],
            ["decode", "--manifest", "m", "--vocab", "v", "--out", "o", "--mode", "nope"],
            ["tune", "--manifest", "m", "--vocab", "v", "--keywords", "k"],
        ],
    )
    def test_usage_errors_exit_1(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1

    def test_data_errors_exit_2(self, corpus, tmp_path, capsys):
        out = tmp_path / "hyps.jsonl"
        rc = main(
            [
                "decode",
                "--manifest", str(tmp_path / "missing.jsonl"),
                "--vocab", str(corpus.vocab_path),
                "--out", str(out),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("kwboost: error:")

    @pytest.mark.parametrize("command", ["score", "make-fixtures"])
    def test_missing_input_exits_2(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.jsonl")
        if command == "score":
            argv = ["score", "--hyps", missing, "--manifest", missing,
                    "--keywords", str(DATA / "keywords_demo.txt")]
        else:
            argv = ["make-fixtures", "--spec", missing, "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("kwboost: error:")

    @pytest.mark.parametrize(
        "record",
        ["5", '{"id": "u1"}', '{"id": "u1", "text": null}'],
        ids=["not-an-object", "no-text", "null-text"],
    )
    def test_malformed_transcript_record_exits_2(self, tmp_path, capsys, record):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(
            json.dumps({"id": "u1", "logits": "x.ctcl", "reference": "AI lab"}) + "\n",
            encoding="utf-8",
        )
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text(record + "\n", encoding="utf-8")
        rc = main(
            [
                "score",
                "--hyps", str(hyps),
                "--manifest", str(manifest),
                "--keywords", str(DATA / "keywords_demo.txt"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("kwboost: error:")

    @pytest.mark.parametrize(
        "record",
        [
            {"id": "u1", "logits": "x.ctcl", "reference": None},
            {"id": "u1", "logits": "x.ctcl", "reference": 5},
            {"id": None, "logits": "x.ctcl", "reference": "AI lab"},
            {"id": True, "logits": "x.ctcl", "reference": "AI lab"},
            {"id": 1.5, "logits": "x.ctcl", "reference": "AI lab"},
        ],
    )
    def test_mistyped_manifest_record_exits_2(self, tmp_path, capsys, record):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(record) + "\n", encoding="utf-8")
        hyps = tmp_path / "hyps.jsonl"
        hyps.write_text(
            json.dumps({"id": str(record["id"]), "text": "None"}) + "\n", encoding="utf-8"
        )
        rc = main(
            [
                "score",
                "--hyps", str(hyps),
                "--manifest", str(manifest),
                "--keywords", str(DATA / "keywords_demo.txt"),
            ]
        )
        assert rc == 2
        assert f"{manifest}:1: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decode", "tune"])
    def test_nul_in_logits_path_exits_2(
        self, corpus, demo_keywords, tmp_path, capsys, command
    ):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(
            json.dumps({"id": "u1", "logits": "a\u0000b.ctcl", "reference": "AI"}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.jsonl"
        argv = [command, "--manifest", str(manifest), "--vocab", str(corpus.vocab_path)]
        if command == "decode":
            argv += ["--out", str(out)]
        else:
            argv += ["--keywords", str(demo_keywords), "--grid", "1"]
        assert main(argv) == 2
        if command == "decode":  # the failed utterance becomes an error record
            assert "embedded null byte" in read_records(out)[0]["error"]
        else:
            assert "embedded null byte" in capsys.readouterr().err

    def test_make_fixtures_rejects_nul_in_id(self, tmp_path, capsys):
        spec = tmp_path / "spec.jsonl"
        spec.write_text('{"id": "a\\u0000b", "text": "hello"}\n', encoding="utf-8")
        out_dir = tmp_path / "fx"
        assert main(["make-fixtures", "--spec", str(spec), "--out-dir", str(out_dir)]) == 2
        assert f"{spec}:1: " in capsys.readouterr().err
        assert not out_dir.exists()

    def test_integer_manifest_ids_are_read_as_strings(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(
            json.dumps({"id": 7, "logits": "x.ctcl", "reference": "AI lab"}) + "\n",
            encoding="utf-8",
        )
        (entry,) = read_manifest(manifest)
        assert (entry.utt_id, entry.reference) == ("7", "AI lab")

    def test_negative_boost_weight_exits_2(self, corpus, tmp_path, capsys):
        rc = main(
            [
                "decode",
                "--manifest", str(corpus.manifest_path),
                "--vocab", str(corpus.vocab_path),
                "--out", str(tmp_path / "hyps.jsonl"),
                "--mode", "baseline",
                "--boost-weight", "-1",
            ]
        )
        assert rc == 2
        assert "boost weight" in capsys.readouterr().err

    def test_decode_output_does_not_depend_on_hash_seed(
        self, corpus, demo_keywords, tmp_path
    ):
        # The decoder keys its beams by object ids and the mapping hashes
        # strings; neither may leak into the output.
        src = str(Path(__file__).resolve().parents[1] / "src")
        paths = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / f"hyps_{seed}.jsonl"
            args = self.decode_args(
                corpus, out,
                "--keywords", str(demo_keywords), "--mode", "ngram",
                "--boost-weight", "3", "--lm", str(DATA / "tiny_bigram.arpa"),
            )
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(paths)
            proc = subprocess.run(
                [sys.executable, "-c", CLI, *args],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(read_records(out)) == 5

    def test_bad_keyword_list_weight_exits_2(self, corpus, tmp_path, capsys):
        keywords = tmp_path / "kw.txt"
        keywords.write_text("AI\t2.0\nIBM\tnan\n", encoding="utf-8")
        rc = main(
            self.decode_args(
                corpus, tmp_path / "hyps.jsonl",
                "--mode", "ngram", "--keywords", str(keywords),
            )
        )
        assert rc == 2
        assert f"{keywords}:2: keyword weight" in capsys.readouterr().err

    def test_partial_decode_failure_exits_2(self, tmp_path, capsys):
        fixture_set, kw = build_corpus(
            tmp_path, [{"id": "u", "text": "hello there"}], ["hello"]
        )
        fixture_set.logit_paths[0].unlink()
        out = tmp_path / "hyps.jsonl"
        rc = main(
            [
                "decode",
                "--manifest", str(fixture_set.manifest_path),
                "--vocab", str(fixture_set.vocab_path),
                "--out", str(out),
            ]
        )
        assert rc == 2
        assert "1 utterances failed" in capsys.readouterr().err
        assert "error" in read_records(out)[0]
