"""Smoke tests: each script in scripts/ runs to completion.

The scripts write their outputs under the working directory, here tmp_path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, tmp_path, *args):
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_demo_pipeline_prints_the_readme_table(tmp_path):
    out = run_script("ablation.py", tmp_path)
    rows = {
        fields[0]: fields[1:]
        for fields in (line.split() for line in out.splitlines())
        if len(fields) == 4 and fields[0] in ("baseline", "default", "ngram")
    }
    # The WER / U-WER / B-WER columns of the table in README "How it works".
    assert rows == {
        "baseline": ["75.00", "66.67", "100.00"],
        "default": ["12.50", "16.67", "0.00"],
        "ngram": ["0.00", "0.00", "0.00"],
    }


@pytest.mark.parametrize("args", [[], ["--per-target"]], ids=["shared", "per-target"])
def test_sweep_boost_weight_selects_a_weight(tmp_path, args):
    out = run_script("ablation.py", tmp_path, *args)
    # One weight curve per boosting mode, each with its pick and, with
    # --per-target, then its per-keyword weights in list order.
    curves = out.split(" weight curve\n")[1:]
    assert len(curves) == 2
    for curve in curves:
        assert curve.count("<-- selected") == 1
        if args:
            listed = curve.split("per-keyword weights:")[1].split("\n\n")[0].split()
            assert listed[::2] == ["AI:", "C3PO:", "356:", "IBM:", "E9:"]
    saved_path = tmp_path / "ablation_out" / "ablation.json"
    saved = json.loads(saved_path.read_text(encoding="utf-8"))
    assert set(saved["sweeps"]) == {"default", "ngram"}
    if args:
        assert list(saved["sweeps"]["ngram"]["per_target"]) == ["AI", "C3PO", "356", "IBM", "E9"]


def test_decoder_cost_reports_every_length(tmp_path):
    out = run_script("decoder_cost.py", tmp_path, "--reps", "1")
    for frames in (100, 300, 1000):
        assert f"T={frames:5d}" in out
    assert "ratio T=1000 / T=100" in out
    # The word-level table: one row per mode; baseline boosts nothing,
    # and a boosting mode commits at most once per beam entry (50).
    table = out.split("word-level")[1]
    assert "records/frame" in table
    assert "merges/frame" in table and "new/frame" in table
    assert "tied/frame" in table
    rows = {
        fields[0]: [float(x) for x in fields[1:]]
        for fields in (line.split() for line in table.splitlines())
        if len(fields) == 7 and fields[0] in ("baseline", "default", "ngram")
    }
    assert set(rows) == {"baseline", "default", "ngram"}
    assert rows["baseline"][1] == 0.0
    assert 0.0 < rows["ngram"][1] <= 50.0
    # Each frame ranks its beam entries (up to 50) and the children that
    # passed the bound, so every mode reports a positive record count.
    assert all(values[2] > 0.0 for values in rows.values())
    # Merges and new prefixes count beam entries, so each is at most 50
    # a frame, and every mode makes new prefixes.
    assert all(0.0 <= values[3] <= 50.0 for values in rows.values())
    assert all(0.0 < values[4] <= 50.0 for values in rows.values())
    # The tied share is a fraction of frames.
    assert all(0.0 <= values[5] <= 1.0 for values in rows.values())


def test_bench_pairs_reports_every_metric(tmp_path):
    out = run_script(
        "bench_pairs.py", tmp_path, str(ROOT), str(ROOT),
        "--quick", "--seconds", "0", "--workload", "tune-grid", "--seeds", "0", "1",
    )
    assert "tune-grid seed 0 (base first)" in out
    assert "tune-grid seed 1 (change first)" in out
    assert "tune-grid: 2 pairs, failed checks base 0 change 0" in out
    for metric in ("setup_s", "frames_per_s", "wer", "u_wer", "b_wer", "peak_rss_mb"):
        assert f"\n  {metric} " in out


def test_bench_record_writes_both_metric_sets(tmp_path):
    out = run_script(
        "bench_record.py", tmp_path, "7",
        "--quick", "--seconds", "0", "--workload", "tune-grid", "--out-dir", str(tmp_path),
    )
    assert "tune-grid: failed checks 0" in out
    record = json.loads((tmp_path / "BENCH_7.json").read_text(encoding="utf-8"))
    assert record["mode"] == "quick"
    assert record["git_sha"] == record["machine"]["git_sha"]
    assert isinstance(record["dirty"], bool)
    (workload,) = record["workloads"].values()
    assert workload["failed"] == 0 and workload["attempted"] > 0
    assert set(workload["end_to_end"]) == {
        "setup_s", "frames_per_s", "wer", "u_wer", "b_wer", "peak_rss_mb",
    }
    assert workload["per_layer"]["harness.decode.calls"]["value"] > 0
