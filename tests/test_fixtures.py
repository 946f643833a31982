"""Tests for the synthetic logit corpus generator."""

import json
import re

import numpy as np
import pytest

from kwboost.dataio import read_logits, read_manifest, read_vocab_file
from kwboost.decoder import DecodeConfig, decode
from kwboost.errors import ConfigError, DataFormatError
from kwboost.fixtures import (
    BLANK_TOKEN,
    load_fixture_spec,
    make_fixtures,
    parse_spec,
)


def write_spec(tmp_path, records, name="spec.jsonl"):
    path = tmp_path / name
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    return path


class TestParseSpec:
    def test_defaults(self):
        spec = parse_spec({"id": "u1", "text": "hello there"})
        assert spec.words == ["hello", "there"]
        assert spec.reference == "hello there"
        assert spec.confidence == [0.95, 0.95]
        assert spec.confusions == {} and spec.traps == []

    def test_written_reference_and_per_word_confidence(self):
        spec = parse_spec(
            {
                "id": "u2",
                "text": "a i now",
                "reference": "AI now",
                "confidence": [0.4, 0.4, 0.9],
                "confusions": [{"word": "a", "alt": "ay", "prob": 0.3}],
                "traps": [{"after": 2, "alt": "e", "prob": 0.4, "count": 2}],
            }
        )
        assert spec.reference == "AI now"
        assert spec.confusions == {"a": ("ay", 0.3)}
        assert spec.traps[0].count == 2

    @pytest.mark.parametrize(
        "record,message",
        [
            ({"id": "u", "text": "  "}, "empty text"),
            ({"id": "u", "text": "a b", "confidence": [0.9]}, "1 confidences"),
            ({"id": "a/b", "text": "x"}, "not filename-safe"),
            ({"id": "", "text": "x"}, "not filename-safe"),
            (
                {"id": "u", "text": "x", "traps": [{"after": 1, "alt": "y", "prob": 0.2}]},
                "outside utterance",
            ),
            (
                {"id": "u", "text": "x", "traps": [{"after": 0, "alt": "y", "prob": 0.95}]},
                "outside",
            ),
            (
                {
                    "id": "u",
                    "text": "x",
                    "confidence": 0.8,
                    "confusions": [{"word": "x", "alt": "y", "prob": 0.3}],
                },
                "claims probability",
            ),
            ({"id": "u", "text": "x", "confidence": 0.0}, "claims probability"),
            ({"id": True, "text": "hello there"}, "utterance id must be a string"),
            ({"id": 1.5, "text": "x"}, "utterance id must be a string"),
            ({"id": "a\0b", "text": "x"}, "not filename-safe"),
            ({"id": "u", "text": 5}, "text must be a string"),
            ({"id": "u", "text": "x", "reference": None}, "reference must be a string"),
            (
                {"id": "u", "text": "x", "confusions": [{"word": 1, "alt": "y", "prob": 0.1}]},
                "confusion word must be a string",
            ),
            (
                {
                    "id": "u",
                    "text": "x",
                    "confidence": 0.5,
                    "confusions": [{"word": "x", "alt": "y", "prob": -0.5}],
                },
                "confusion probability -0.5",
            ),
            (
                {
                    "id": "u",
                    "text": "x",
                    "confidence": 0.5,
                    "confusions": [{"word": "x", "alt": "y", "prob": float("nan")}],
                },
                "confusion probability nan",
            ),
            (
                {
                    "id": "u",
                    "text": "x",
                    "traps": [{"after": 0, "alt": "y", "prob": 0.2, "count": -2}],
                },
                "trap count -2 is below 1",
            ),
            (
                {"id": "u", "text": "x y", "traps": [{"after": 0.7, "alt": "y", "prob": 0.2}]},
                "trap after must be an integer",
            ),
            ({"id": "u", "text": "x", "confidence": True}, "confidence must be a real number"),
            ({"id": "u", "text": "x", "confidence": [True]}, "confidence must be a real number"),
            ({"id": "u", "text": "x", "confidence": "1"}, "confidence must be a real number"),
            ({"id": "u", "text": "x", "confidence": "0.5"}, "confidence must be a real number"),
            (
                {
                    "id": "u",
                    "text": "x",
                    "confidence": 0.5,
                    "confusions": [{"word": "x", "alt": "y", "prob": "0.5"}],
                },
                "confusion probability must be a real number",
            ),
            (
                {"id": "u", "text": "x", "traps": [{"after": 0, "alt": "y", "prob": "0.2"}]},
                "trap probability must be a real number",
            ),
            ({"id": "u", "text": "x", "confidence": 10**400}, "confidence is too large for a float"),
            (
                {
                    "id": "u",
                    "text": "x",
                    "confidence": 0.6,
                    "confusions": [{"word": "x", "alt": "x", "prob": 0.3}],
                },
                "confusion alt 'x' is its own word",
            ),
            (
                {"id": "u", "text": "x", "confusions": [{"word": "y", "alt": "z", "prob": 0.01}]},
                "confusion word 'y' is not in the text",
            ),
            (
                {
                    "id": "u",
                    "text": "x",
                    "confidence": 0.5,
                    "confusions": [
                        {"word": "x", "alt": "y", "prob": 0.1},
                        {"word": "x", "alt": "z", "prob": 0.2},
                    ],
                },
                "second confusion for word 'x'",
            ),
            ({"id": "u", "text": "x <blank>"}, "'<blank>' is the blank token, not a word"),
            (
                {
                    "id": "u",
                    "text": "x",
                    "confidence": 0.5,
                    "confusions": [{"word": "x", "alt": "<blank>", "prob": 0.1}],
                },
                "confusion alt '<blank>' is the blank token",
            ),
            (
                {"id": "u", "text": "x", "traps": [{"after": 0, "alt": "<blank>", "prob": 0.2}]},
                "trap alt '<blank>' is the blank token",
            ),
        ],
        ids=[
            "empty-text", "too-few-confidences", "slash-in-id", "empty-id",
            "trap-after-end", "trap-prob-too-high", "confusion-over-confidence",
            "zero-confidence", "bool-id", "float-id", "nul-in-id", "int-text",
            "null-reference", "int-confusion-word", "negative-confusion-prob",
            "nan-confusion-prob", "negative-trap-count", "float-trap-after",
            "bool-confidence", "bool-in-confidence-list", "string-confidence",
            "string-decimal-confidence", "string-confusion-prob", "string-trap-prob",
            "huge-confidence", "self-confusion", "confusion-word-not-in-text",
            "second-confusion", "blank-in-text", "blank-confusion-alt", "blank-trap-alt",
        ],
    )
    def test_invalid_specs(self, record, message):
        with pytest.raises(ValueError, match=message):
            parse_spec(record)

    def test_load_skips_comments_and_carries_line_numbers(self, tmp_path):
        path = tmp_path / "spec.jsonl"
        path.write_text(
            '# fixtures\n{"id": "u1", "text": "ok"}\n{"id": "u2"}\n',
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match=":3:"):
            load_fixture_spec(path)

    @pytest.mark.parametrize(
        "line,message",
        [
            pytest.param('{"id": "u", "reference": "x"}', "missing field 'text'", id="no-text"),
            pytest.param(
                '{"id": "u", "text": "x", "confusions": 5}', "not iterable", id="int-confusions"
            ),
            pytest.param(
                '{"id": "u", "text": "x", "confidence": 0.5,'
                ' "confusions": [{"word": "x", "alt": "y", "prob": NaN}]}',
                "confusion probability nan",
                id="nan-confusion-prob",
            ),
            pytest.param(
                '{"id": "u", "text": "x", "confidence": 1' + "0" * 400 + "}",
                "too large",
                id="huge-confidence",
            ),
            pytest.param(
                '{"id": "u", "text": "x", "confusions": [{"word": "x", "alt": "x", "prob": 0.01}]}',
                "confusion alt 'x' is its own word",
                id="self-confusion",
            ),
        ],
    )
    def test_load_names_the_line_of_a_malformed_record(self, tmp_path, line, message):
        path = tmp_path / "spec.jsonl"
        path.write_text('{"id": "ok", "text": "fine"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:2: ") + ".*" + message):
            load_fixture_spec(path)

    def test_integer_ids_are_read_as_strings(self):
        assert parse_spec({"id": 7, "text": "x"}).utt_id == "7"

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "spec.jsonl"
        path.write_text("{nope\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=":1:"):
            load_fixture_spec(path)


class TestMakeFixtures:
    def test_layout_and_round_trip(self, tmp_path):
        spec = write_spec(
            tmp_path,
            [
                {"id": "u1", "text": "clean speech here", "confidence": 0.97},
                {
                    "id": "u2",
                    "text": "rare word",
                    "confidence": [0.9, 0.3],
                    "traps": [{"after": 1, "alt": "noise", "prob": 0.2}],
                },
            ],
        )
        out = make_fixtures(spec, tmp_path / "out", seed=3)
        assert out.manifest_path.exists() and out.vocab_path.exists()
        assert [p.name for p in out.logit_paths] == ["u1.ctcl", "u2.ctcl"]

        vocab = read_vocab_file(out.vocab_path)
        assert vocab.tokens[0] == BLANK_TOKEN and vocab.blank_index == 0
        assert list(vocab.tokens[1:]) == sorted(vocab.tokens[1:])
        assert {"clean", "rare", "noise"} <= set(vocab.tokens)

        entries = read_manifest(out.manifest_path)
        assert [e.utt_id for e in entries] == ["u1", "u2"]
        for entry in entries:
            matrix = read_logits(entry.logits_path)
            assert matrix.data.dtype == np.float32
            sums = np.exp(matrix.data.astype(np.float64)).sum(axis=1)
            assert np.abs(sums - 1.0).max() < 1e-3

    def test_frame_budget(self, tmp_path):
        spec = write_spec(
            tmp_path,
            [
                {
                    "id": "u1",
                    "text": "one two three",
                    "traps": [{"after": 1, "alt": "x", "prob": 0.2, "count": 2}],
                }
            ],
        )
        out = make_fixtures(spec, tmp_path / "out")
        matrix = read_logits(out.logit_paths[0])
        # Two rows per word plus two rows per trap repetition.
        assert matrix.num_frames == 2 * 3 + 2 * 2

    def test_confident_corpus_decodes_verbatim(self, tmp_path):
        spec = write_spec(
            tmp_path, [{"id": "u1", "text": "plain easy words", "confidence": 0.97}]
        )
        out = make_fixtures(spec, tmp_path / "out", seed=1)
        vocab = read_vocab_file(out.vocab_path)
        matrix = read_logits(out.logit_paths[0])
        result = decode(matrix, vocab, DecodeConfig(word_bonus=0.0))
        assert result.words == ("plain", "easy", "words")

    def test_same_seed_is_byte_identical(self, tmp_path):
        records = [
            {
                "id": "u1",
                "text": "alpha beta gamma",
                "confidence": [0.5, 0.6, 0.7],
                "traps": [{"after": 0, "alt": "delta", "prob": 0.3}],
            }
        ]
        spec = write_spec(tmp_path, records)
        first = make_fixtures(spec, tmp_path / "one", seed=11)
        second = make_fixtures(spec, tmp_path / "two", seed=11)
        assert (
            first.logit_paths[0].read_bytes() == second.logit_paths[0].read_bytes()
        )
        assert first.vocab_path.read_bytes() == second.vocab_path.read_bytes()
        third = make_fixtures(spec, tmp_path / "three", seed=12)
        assert (
            first.logit_paths[0].read_bytes() != third.logit_paths[0].read_bytes()
        )

    def test_manifest_paths_are_relative(self, tmp_path):
        spec = write_spec(tmp_path, [{"id": "u1", "text": "hi"}])
        out = make_fixtures(spec, tmp_path / "out")
        raw = out.manifest_path.read_text(encoding="utf-8")
        record = json.loads(raw.splitlines()[0])
        assert record["logits"] == "logits/u1.ctcl"

    def test_duplicate_ids_rejected(self, tmp_path):
        spec = write_spec(
            tmp_path,
            [{"id": "u1", "text": "a"}, {"id": "u1", "text": "b"}],
        )
        with pytest.raises(DataFormatError, match="duplicate"):
            make_fixtures(spec, tmp_path / "out")

    def test_empty_spec_rejected(self, tmp_path):
        spec = write_spec(tmp_path, [])
        with pytest.raises(DataFormatError, match="empty"):
            make_fixtures(spec, tmp_path / "out")

    @pytest.mark.parametrize("seed", ["1", 1.5, True], ids=["string", "float", "bool"])
    def test_seed_must_be_an_integer(self, tmp_path, seed):
        spec = write_spec(tmp_path, [{"id": "u1", "text": "hi"}])
        with pytest.raises(ConfigError, match="seed must be an integer, got "):
            make_fixtures(spec, tmp_path / "out", seed=seed)
