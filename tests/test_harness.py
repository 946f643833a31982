"""Tests for the experiment harness: decode runs, scoring, list prep, tuning."""

import json
from pathlib import Path

import pytest

from kwboost.cli import main
from kwboost.errors import ConfigError, DataFormatError, NormalizationError
from kwboost.fixtures import make_fixtures
from kwboost.harness import (
    RunConfig,
    grid_search,
    load_resources,
    prepare_list,
    raw_target_mapping,
    run_decode,
    run_score,
)
from kwboost.norm import load_mapping

DATA = Path(__file__).parent / "data"


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


def tune_config(fixture_set, keywords, out_dir, **overrides):
    settings = dict(
        manifest=fixture_set.manifest_path,
        vocab=fixture_set.vocab_path,
        out=out_dir / "unused.jsonl",
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
        assert trie.default_weight == 2.5
        assert set(trie.unigram_weights.values()) == {2.5}
        assert {m.weight for m in trie.find_matches(["a", "i"])} == {2.5}

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
    def test_compound_rejected_by_default(self, tmp_path):
        kw = tmp_path / "kw.tsv"
        kw.write_text("AI\nice cream\n", encoding="utf-8")
        summary = prepare_list(kw)
        assert [e.raw for e in summary.mapping.entries] == ["AI"]
        assert summary.rejected == [
            ("ice cream", "contains whitespace (use --split-compounds)")
        ]

    def test_split_compounds_keeps_phrase(self, tmp_path):
        kw = tmp_path / "kw.tsv"
        kw.write_text("ice cream\n", encoding="utf-8")
        summary = prepare_list(kw, split_compounds=True)
        entry = summary.mapping.entries[0]
        assert entry.raw == "ice cream"
        assert ("ice", "cream") in entry.variants

    def test_unspeakable_rejected_with_reason(self, tmp_path):
        kw = tmp_path / "kw.tsv"
        kw.write_text("!!!\nIBM\n", encoding="utf-8")
        summary = prepare_list(kw)
        assert [e.raw for e in summary.mapping.entries] == ["IBM"]
        (raw, reason) = summary.rejected[0]
        assert raw == "!!!" and reason

    def test_saved_mapping_round_trips(self, tmp_path):
        kw = tmp_path / "kw.tsv"
        kw.write_text("AI\t3.0\nC3PO\n", encoding="utf-8")
        out = tmp_path / "mapping.tsv"
        summary = prepare_list(kw, out=out)
        loaded = load_mapping(out)
        assert [e.raw for e in loaded.entries] == ["AI", "C3PO"]
        assert loaded.entries[0].weight == 3.0
        assert loaded.reverse == summary.mapping.reverse

    def test_exceptions_table_applied(self, tmp_path):
        kw = tmp_path / "kw.tsv"
        kw.write_text("GIF\n", encoding="utf-8")
        summary = prepare_list(kw, exceptions=DATA / "exceptions_demo.tsv")
        assert ("jif",) in summary.mapping.entries[0].variants


class TestRawTargetMapping:
    def test_raw_forms_kept_verbatim(self):
        mapping = raw_target_mapping([("C3PO", None, 0), ("A1 B2", 2.0, 1)])
        assert mapping.entries[0].variants == (("C3PO",),)
        assert mapping.entries[1].variants == (("A1", "B2"),)
        assert mapping.entries[1].weight == 2.0

    def test_reads_keyword_files(self, demo_keywords):
        mapping = raw_target_mapping(demo_keywords)
        assert [e.raw for e in mapping.entries] == ["AI", "C3PO", "356", "IBM", "E9"]
        assert all(e.variants == ((e.raw,),) for e in mapping.entries)

    def test_duplicates_rejected(self):
        with pytest.raises(NormalizationError, match="duplicate"):
            raw_target_mapping([("X", None, 0), ("X", None, 1)])


class TestGridSearch:
    def test_selects_the_working_weight(self, tune_corpus, tmp_path):
        fixture_set, kw = tune_corpus
        cfg = tune_config(fixture_set, kw, tmp_path)
        result = grid_search(cfg, [0.0, 1.0, 2.0, 4.0])
        assert result.selected_weight == 2.0
        assert [p.b_wer for p in result.grid] == [100.0, 100.0, 0.0, 100.0]
        assert [p.u_wer for p in result.grid] == [0.0, 0.0, 0.0, 0.0]
        assert result.per_target is None

    def test_grid_is_sorted_and_deduped(self, tune_corpus, tmp_path):
        fixture_set, kw = tune_corpus
        cfg = tune_config(fixture_set, kw, tmp_path)
        result = grid_search(cfg, [4.0, 2.0, 2.0, 0.0, 1.0])
        assert [p.weight for p in result.grid] == [0.0, 1.0, 2.0, 4.0]

    def test_rate_ties_resolve_to_smallest_weight(self, tune_corpus, tmp_path):
        fixture_set, kw = tune_corpus
        cfg = tune_config(fixture_set, kw, tmp_path)
        result = grid_search(cfg, [0.0, 1.0], objective="wer")
        assert result.selected_weight == 0.0

    def test_result_serialization(self, tune_corpus, tmp_path):
        fixture_set, kw = tune_corpus
        cfg = tune_config(fixture_set, kw, tmp_path)
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
        cfg = tune_config(fixture_set, kw, tmp_path)
        first = grid_search(cfg, [0.0, 2.0, 4.0], per_target=True)
        second = grid_search(cfg, [0.0, 2.0, 4.0], per_target=True)
        assert first.to_dict() == second.to_dict()

    def test_per_target_beats_any_shared_weight(self, per_target_corpus, tmp_path):
        fixture_set, kw = per_target_corpus
        cfg = tune_config(fixture_set, kw, tmp_path)
        result = grid_search(cfg, [0.0, 2.0], per_target=True)
        # No shared weight fixes both utterances, so the global pick
        # stays at the tie-break; the sweep then splits the weights.
        assert result.selected_weight == 0.0
        assert [p.b_wer for p in result.grid] == [100.0, 100.0]
        assert result.per_target == {"KQ": 2.0, "vv": 0.0}

    def test_per_target_logs_each_collision_once(self, tune_corpus, tmp_path, caplog):
        # AI and A.I. both normalize to "a i"; trials reuse the resolved
        # ownership instead of re-running collision resolution.
        fixture_set, _ = tune_corpus
        kw = tmp_path / "keywords.tsv"
        kw.write_text("QZ\njx\nAI\nA.I.\n", encoding="utf-8")
        cfg = tune_config(fixture_set, kw, tmp_path)
        with caplog.at_level("WARNING", logger="kwboost.norm"):
            result = grid_search(cfg, [0.0, 2.0, 4.0], per_target=True)
        warnings = [r.getMessage() for r in caplog.records if r.name == "kwboost.norm"]
        assert len(warnings) == 1
        assert "variant a i" in warnings[0]
        assert set(result.per_target) == {"QZ", "jx", "AI", "A.I."}

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
        cfg = tune_config(fixture_set, kw, tmp_path)
        with pytest.raises(DataFormatError, match="B-WER is undefined"):
            grid_search(cfg, [0.0, 4.0])
        result = grid_search(cfg, [0.0, 4.0], objective="wer")
        assert result.selected_weight == 0.0
        assert all(p.b_wer is None for p in result.grid)

    def test_validation(self, tune_corpus, tmp_path):
        fixture_set, kw = tune_corpus
        cfg = tune_config(fixture_set, kw, tmp_path)
        with pytest.raises(ConfigError, match="empty weight grid"):
            grid_search(cfg, [])
        with pytest.raises(ConfigError, match="unknown objective"):
            grid_search(cfg, [1.0], objective="f1")
        with pytest.raises(ConfigError, match=">= 0"):
            grid_search(cfg, [-1.0, 2.0])
        plain = RunConfig(
            manifest=fixture_set.manifest_path,
            vocab=fixture_set.vocab_path,
            out=tmp_path / "unused.jsonl",
        )
        with pytest.raises(ConfigError, match="tuning requires a keyword list"):
            grid_search(plain, [1.0])

    def test_empty_manifest_rejected(self, tune_corpus, tmp_path):
        fixture_set, kw = tune_corpus
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        cfg = tune_config(fixture_set, kw, tmp_path, manifest=empty)
        with pytest.raises(DataFormatError, match="empty manifest"):
            grid_search(cfg, [1.0])


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

    def test_tune_prints_json_without_out(self, tune_corpus, tmp_path, capsys):
        fixture_set, kw = tune_corpus
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

    def test_prepare_list_counts_and_rejects(self, tmp_path, capsys):
        kw = tmp_path / "kw.tsv"
        kw.write_text("AI\nice cream\n", encoding="utf-8")
        out = tmp_path / "mapping.tsv"
        rc = main(["prepare-list", "--keywords", str(kw), "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "1 keywords, 1 variants, 0 collisions, 1 rejected" in captured.out
        assert "rejected 'ice cream'" in captured.err
        assert load_mapping(out).entries[0].raw == "AI"

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
