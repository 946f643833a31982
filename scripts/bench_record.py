#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<n>.json.

Runs ``kwbench/run.py`` in this checkout on each workload, once with
``--trace 0`` (the end-to-end metrics) and once with ``--trace 1`` (the
per-layer metrics), and writes one JSON file holding the git SHA of the
measured code, whether the working tree had uncommitted changes, the
machine report, and per workload its checks and both metric sets.
Every run uses the golden seed 0, so each point also checks the golden
output digests and all points measure the same inputs.

Run from the repository root once the change is committed, for instance:

    python3 scripts/bench_record.py 13

which writes ``BENCH_13.json`` at the repository root.
"""

import argparse
import json
import subprocess
from pathlib import Path

from bench_pairs import ROOT, WORKLOADS, add_run_options, kwbench


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="the n of BENCH_<n>.json")
    add_run_options(parser)
    parser.add_argument(
        "--out-dir", type=Path, default=ROOT, help="where to write (default: repo root)"
    )
    return parser.parse_args()


def run(workload: str, trace: int, args: argparse.Namespace) -> tuple[dict, dict]:
    """One benchmark run: its report line and its result line."""
    lines = kwbench(ROOT, workload, 0, trace, args)
    report = next(line for line in lines if line.startswith("kwbench report "))
    return json.loads(report[len("kwbench report "):]), json.loads(lines[-1])


def dirty() -> bool:
    """Whether tracked files differ from HEAD, so the SHA is not the code run."""
    proc = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"],
        cwd=ROOT, capture_output=True, text=True,
    )
    return proc.returncode != 0 or bool(proc.stdout.strip())


def main() -> None:
    args = parse_args()
    workloads = {}
    for workload in args.workload or WORKLOADS:
        report, end_to_end = run(workload, 0, args)
        _, per_layer = run(workload, 1, args)
        failed = end_to_end["failed"] + per_layer["failed"]
        workloads[workload] = {
            "attempted": end_to_end["attempted"] + per_layer["attempted"],
            "failed": failed,
            "end_to_end": end_to_end["metrics"],
            "per_layer": per_layer["metrics"],
        }
        print(f"{workload}: failed checks {failed}", flush=True)
    machine = report["machine"]
    record = {
        "git_sha": machine["git_sha"], "dirty": dirty(), "machine": machine,
        "mode": report["mode"], "seconds": args.seconds, "workloads": workloads,
    }
    out = args.out_dir / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
