"""Tests of the benchmark itself, in quick mode.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q kwbench
"""

from __future__ import annotations

import json
import signal
from pathlib import Path

import pytest

import run

run._import_toolkit()

import gen  # noqa: E402  (needs the toolkit on sys.path first)
from kwboost.norm import normalize_keyword  # noqa: E402


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _char(out: Path, seed: int) -> None:
    gen.make_char_inputs(out, seed, [40, 80], ["IBM", "C3PO"], 60, normalize_keyword)


def test_generators_are_byte_identical_for_a_seed(tmp_path):
    _char(tmp_path / "a", 5)
    _char(tmp_path / "b", 5)
    _char(tmp_path / "c", 6)
    gen.make_tune_spec(tmp_path / "a" / "spec.jsonl", 5, 10)
    gen.make_tune_spec(tmp_path / "b" / "spec.jsonl", 5, 10)
    gen.make_tune_spec(tmp_path / "c" / "spec.jsonl", 6, 10)
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert set(a) == set(c) and a != c


def test_char_frames_have_the_designed_candidate_count(tmp_path):
    inputs = gen.make_char_inputs(
        tmp_path, 3, [120], ["IBM"], 40, normalize_keyword
    )
    from kwboost.dataio import read_logits, read_manifest

    (entry,) = read_manifest(inputs.manifest)
    data = read_logits(entry.logits_path).data
    above = (data[:, 1:] >= -9.21).sum(axis=1)
    assert data.shape[0] == 120
    assert set(above.tolist()) == {gen.CANDIDATES}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    assert run.main([
        "--workload", workload, "--quick", "--seconds", "0", "--trace", str(trace)
    ]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    # The speedometer leaves no timer or handler behind.
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_trace_counts_match_the_tuning_grid(capsys):
    run.main(["--workload", "tune-grid", "--quick", "--seconds", "0", "--trace", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    report = json.loads(lines[-2].removeprefix("kwbench report "))
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    keywords = report["inputs"]["input.keywords"]
    utterances = run.SIZES["quick"]["tune_utts"]
    assert metrics["lm.log10_cond.calls"] == 0
    assert metrics["harness.decode.calls"] == (
        (1 + keywords) * len(run.QUICK_GRID) * utterances
    )


def test_an_altered_transcript_is_counted_as_failed(monkeypatch, capsys):
    from kwboost import harness

    original = harness.inverse_normalize

    def altered(words, mapping):
        text, spans = original(words, mapping)
        return text + " extra", spans

    monkeypatch.setattr(harness, "inverse_normalize", altered)
    run.main(["--workload", "decode-long", "--quick", "--seconds", "0"])
    result = _last_json(capsys)
    assert result["failed"] > 0
    assert not result["correct"]
