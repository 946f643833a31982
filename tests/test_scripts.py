"""Smoke tests: each script in scripts/ runs to completion.

The scripts write their outputs under the working directory, here tmp_path.
"""

import importlib.util
import json
import os
import re
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
    # Then each boosting mode's relative WER and B-WER reduction against
    # baseline: default's WER 100 * (75 - 12.5) / 75 = 83.33.
    reductions = {
        fields[0]: fields[1:]
        for fields in (line.split() for line in out.split("against baseline")[1].splitlines())
        if len(fields) == 3 and fields[0] in ("default", "ngram")
    }
    assert reductions == {"default": ["83.33", "100.00"], "ngram": ["100.00", "100.00"]}
    saved = json.loads((tmp_path / "ablation_out" / "ablation.json").read_text(encoding="utf-8"))
    assert saved["reductions"] == {
        "default": {"wer": pytest.approx(83.33, abs=0.01), "b_wer": 100.0},
        "ngram": {"wer": 100.0, "b_wer": 100.0},
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
    # The frame loop runs with the collector paused.  CPython still counts
    # the allocations made meanwhile, so the first one after the pause may
    # run one young-generation pass: at most one collection per decode,
    # however long the utterance.
    collections = re.findall(r"T= *\d+ +[\d.]+ ms/frame +([\d.]+) collections/decode", out)
    assert len(collections) == 3
    assert all(0.0 <= float(count) <= 1.0 for count in collections)
    assert "ratio T=1000 / T=100" in out
    # The set-up table: one row per layer, in load order, then the whole
    # load_resources, each a positive median in ms.
    setup = out.split("set-up on the decode-long inputs")[1].split("word-level")[0]
    rows = re.findall(r"^(\w+) +([\d.]+)$", setup, re.MULTILINE)
    assert [name for name, _ in rows] == [
        "load_arpa", "load_keyword_list", "build_mapping", "build_trie", "load_resources",
    ]
    assert all(float(ms) > 0.0 for _, ms in rows)
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
    checks = re.search(r"tune-grid: 2 pairs, failed checks base 0/(\d+) change 0/(\d+)\n", out)
    assert checks and int(checks[1]) > 0 and checks[1] == checks[2]
    assert "checks: worse" not in out
    assert out.splitlines()[-7].endswith("  verdict")
    verdicts = {}
    for line in out.splitlines()[-6:]:
        metric, *_, verdict = line.split()
        verdicts[metric] = verdict
    assert set(verdicts) == {"setup_s", "frames_per_s", "wer", "u_wer", "b_wer", "peak_rss_mb"}
    assert set(verdicts.values()) <= {"worse", "gain", "unresolved", "within"}
    # Both sides are the same checkout, so the rates are identical.
    assert verdicts["wer"] == verdicts["u_wer"] == verdicts["b_wer"] == "within"


def load_bench_pairs():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_verdicts_read_the_bounds(capsys):
    bench_pairs = load_bench_pairs()
    base = {
        "setup_s": [1.0, 1.0, 1.0, 1.0],
        "frames_per_s": [100.0, 100.0, 100.0, 100.0],
        "peak_rss_mb": [80.0, 100.0, 120.0, 140.0],
        "wer": [10.0] * 4, "u_wer": [10.0] * 4, "b_wer": [10.0] * 4,
    }
    change = {
        **base,
        "setup_s": [0.5, 0.5, 0.5, 0.5],  # better in every pair
        "frames_per_s": [70.0, 72.0, 70.0, 72.0],  # median 29% lower, bound 25%
        "peak_rss_mb": [100.0, 110.0, 110.0, 120.0],  # base spread 30 MB, bound 11 MB
    }

    def run(side, n, failed=0, attempted=10):
        values = {name: column[n] for name, column in side.items()}
        return {"values": values, "failed": failed, "attempted": attempted}

    pairs = [(run(base, n), run(change, n)) for n in range(4)]
    bench_pairs.summarize("toy", pairs)
    out = capsys.readouterr().out
    assert "toy: 4 pairs, failed checks base 0/40 change 0/40\n" in out
    assert "checks: worse" not in out
    verdicts = {line.split()[0]: line.split()[-1] for line in out.splitlines()[-6:]}
    assert verdicts == {
        "setup_s": "gain", "frames_per_s": "worse", "peak_rss_mb": "unresolved",
        "wer": "within", "u_wer": "within", "b_wer": "within",
    }
    # Before the verdict: the median and quartiles of the per-pair ratios.
    paired = {line.split()[0]: line.split()[-4:-1] for line in out.splitlines()[-6:]}
    assert paired["setup_s"] == ["0.500", "[0.500,", "0.500]"]
    assert paired["frames_per_s"] == ["0.710", "[0.700,", "0.720]"]

    # The share decides: 2 of 40 failed is no worse than 1 of 20, 4 of 20 is.
    base_runs = [run(base, n, 1 if n == 0 else 0, 5) for n in range(4)]
    bench_pairs.summarize("toy", [(b, run(change, n, n % 2)) for n, b in enumerate(base_runs)])
    out = capsys.readouterr().out
    assert "toy: 4 pairs, failed checks base 1/20 change 2/40\n" in out
    assert "checks: worse" not in out
    bench_pairs.summarize("toy", [(b, run(change, n, 1, 5)) for n, b in enumerate(base_runs)])
    out = capsys.readouterr().out
    assert "toy: 4 pairs, failed checks base 1/20 change 4/20\n  checks: worse\n" in out


def test_bench_pairs_fields_stay_under_their_headers(capsys):
    bench_pairs = load_bench_pairs()
    base = {
        # Small set-up times print as long medians.
        "setup_s": [0.000402, 0.0004146, 0.0004146, 0.0004224],
        "frames_per_s": [4986.0, 4990.0, 5001.0, 4979.0],
        "peak_rss_mb": [80.0, 80.0, 80.0, 80.0],
        "wer": [10.0] * 4, "u_wer": [10.0] * 4, "b_wer": [10.0] * 4,
    }
    change = {**base, "setup_s": [0.0003488, 0.0003942, 0.0003942, 0.0004102]}

    def run(side, n):
        return {"values": {name: column[n] for name, column in side.items()},
                "failed": 0, "attempted": 10}

    bench_pairs.summarize("toy", [(run(base, n), run(change, n)) for n in range(4)])
    header, *rows = capsys.readouterr().out.splitlines()[-7:]
    labels = ["metric", "base median [q1, q3]", "change median [q1, q3]", "change/base",
              "won", "lost", "tied", "pair ratio [q1, q3]", "verdict"]
    starts = [header.index(label) for label in labels]
    ends = [start + len(label) for start, label in zip(starts, labels)]
    quartiles = r"(\S+ \[\S+, \S+\])"
    row_re = rf"  (\w+) +{quartiles} +{quartiles} +([\d.]+) +(\d+) +(\d+) +(\d+) +{quartiles}  (\w+)"
    matches = [re.fullmatch(row_re, row) for row in rows]
    assert all(matches), rows
    # setup_s overflows a 30-character column on both sides.
    assert min(len(matches[0][2]), len(matches[0][3])) > 30
    for row, match in zip(rows, matches):
        # The name and the verdict start where their headers start; every
        # other field is right-aligned under its header, after the last one.
        assert match.start(1) == starts[0] and match.start(9) == starts[8], row
        for group in range(2, 9):
            assert ends[group - 2] < match.start(group), (row, labels[group - 1])
            assert match.end(group) == ends[group - 1], (row, labels[group - 1])


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
