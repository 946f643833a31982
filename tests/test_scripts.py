"""Smoke tests: each script in scripts/ runs to completion.

The scripts write their outputs under the working directory, here tmp_path.
"""

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
    out = run_script("demo_pipeline.py", tmp_path)
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
    out = run_script("sweep_boost_weight.py", tmp_path, *args)
    assert "<-- selected" in out
    assert (tmp_path / "sweep_out" / "sweep.json").exists()
    if args:
        listed = out.split("per-keyword weights:")[1].split("\n\n")[0].split()
        assert listed[::2] == ["AI:", "C3PO:", "356:", "IBM:", "E9:"]


def test_decoder_cost_reports_every_length(tmp_path):
    out = run_script("decoder_cost.py", tmp_path, "--reps", "1")
    for frames in (100, 300, 1000):
        assert f"T={frames:5d}" in out
    assert "ratio T=1000 / T=100" in out
    # The word-level table: one row per mode; baseline boosts nothing,
    # and a boosting mode commits at most once per beam entry (50).
    rows = {
        fields[0]: [float(x) for x in fields[1:]]
        for fields in (line.split() for line in out.split("word-level")[1].splitlines())
        if len(fields) == 3 and fields[0] in ("baseline", "default", "ngram")
    }
    assert set(rows) == {"baseline", "default", "ngram"}
    assert rows["baseline"][1] == 0.0
    assert 0.0 < rows["ngram"][1] <= 50.0


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
