#!/usr/bin/env python3
"""Interleaved benchmark pairs: a base checkout against a changed one.

For each workload and seed, runs ``kwbench/run.py`` once in BASE_DIR and
once in CHANGE_DIR, alternating which side runs first, so slow drift of
the machine hits both sides alike.  Each run imports kwboost from its
own checkout's ``src/``.  Prints one line per pair as it finishes, then,
per workload and end-to-end metric, each side's median with quartiles,
the change's median relative to the base, the pairs the change won,
lost and tied, the median of the per-pair change/base ratios with its
95% bootstrap interval, and a verdict.  Each side's failed checks are
printed as failed/attempted, summed over its runs, with a ``checks:
worse`` line when the change fails a larger share.  A metric's
``bound`` in BENCHMARK.json is read as a fraction of the base median.

Each pair ran one seed on both sides back to back, so its log ratio
holds the change's effect and only the drift within the pair, while
each side's own quartiles hold all of the machine's drift between
pairs.  The interval resamples the pairs' log ratios with a fixed
seed, so a replay of the same pairs gives the same interval.  The
verdict is the first of:

  worse       the change's median is worse than the base's by more than
              the bound;
  gain        the change won at least nine tenths of the pairs and the
              whole interval beats a ratio of 1 by more than a factor
              of 1 + MIN_GAIN;
  loss        the whole interval lies on the worse side of 1;
  unresolved  the base's quartile spread is wider than the bound, and
              not every change run beats every base run;
  within      otherwise: the change is inside the bound.

MIN_GAIN is 3%, the largest paired swing recorded on a path a change
did not touch, rounded up: tune-grid ``frames_per_s``, whose timed
loop runs no LM or normalization code, read 1.015 on seeds 1-10 and
0.974 on seeds 11-20 for a change to those layers alone.  A loss
needs no minimum: flagging one costs a second look, not a wrong
claim.

Make the base checkout from the parent commit with git, for instance:

    mkdir -p /tmp/base && git archive HEAD | tar -x -C /tmp/base
    python3 scripts/bench_pairs.py /tmp/base . --workload decode-long \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30
"""

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
MIN_GAIN = 0.03
RESAMPLES = 2000


def add_run_options(parser: argparse.ArgumentParser) -> None:
    """The options that choose the kwbench runs: workloads, length and size."""
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--seconds", type=float, default=BENCHMARK["run_seconds"],
        help="timed seconds of each --trace 0 run",
    )
    parser.add_argument("--quick", action="store_true", help="tiny inputs, smoke test")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    add_run_options(parser)
    args = parser.parse_args()
    for checkout in (args.base, args.change):
        if not (checkout / "kwbench" / "run.py").is_file():
            parser.error(f"{checkout} has no kwbench/run.py")
    return args


def kwbench(
    checkout: Path, workload: str, seed: int, trace: int, args: argparse.Namespace
) -> list[str]:
    """The output lines of one ``kwbench/run.py`` run in ``checkout``; exits if it fails."""
    argv = [
        sys.executable, "kwbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.quick:
        argv.append("--quick")
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"kwbench {workload} seed {seed} --trace {trace} in {checkout} failed:\n"
                 f"{proc.stderr}")
    return proc.stdout.splitlines()


def run(checkout: Path, workload: str, seed: int, args: argparse.Namespace) -> dict:
    """One benchmark run: its metric values and its failed and attempted checks."""
    result = json.loads(kwbench(checkout, workload, seed, 0, args)[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"values": values, "failed": result["failed"], "attempted": result["attempted"]}


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def interval(logs: list[float]) -> tuple[float, float]:
    """The 95% bootstrap interval of the median of ``logs``, the same on every replay."""
    rng = random.Random(0)
    medians = [statistics.median(rng.choices(logs, k=len(logs))) for _ in range(RESAMPLES)]
    cuts = statistics.quantiles(medians, n=40)
    return cuts[0], cuts[-1]


def summarize(workload: str, pairs: list[tuple[dict, dict]]) -> None:
    (base_failed, base_attempted), (failed, attempted) = [
        (sum(r["failed"] for r in side), sum(r["attempted"] for r in side))
        for side in zip(*pairs)
    ]
    print(f"\n{workload}: {len(pairs)} pairs, failed checks base "
          f"{base_failed}/{base_attempted} change {failed}/{attempted}")
    if failed * max(base_attempted, 1) > base_failed * max(attempted, 1):
        print("  checks: worse")
    rows = []
    for name, better in BETTER.items():
        base = [b["values"][name] for b, _ in pairs]
        change = [c["values"][name] for _, c in pairs]
        sign = 1.0 if better == "higher" else -1.0
        won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        lost = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        ratio = f"{cmed / bmed:.3f}" if bmed else "-"
        paired, worst, best = "-", 0.0, 0.0
        logs = [math.log(c / b) for b, c in zip(base, change) if b > 0 and c > 0]
        if logs:
            mid, (low, high) = statistics.median(logs), interval(logs)
            paired = f"{math.exp(mid):.3f} [{math.exp(low):.3f}, {math.exp(high):.3f}]"
            # The interval's ends as gains, worse end first.
            worst, best = sorted((sign * low, sign * high))
        gap, spread, bound = sign * (cmed - bmed), bq3 - bq1, BOUND[name] * abs(bmed)
        if gap < -bound:
            verdict = "worse"
        elif won >= 0.9 * len(pairs) and worst > math.log1p(MIN_GAIN):
            verdict = "gain"
        elif best < 0:
            verdict = "loss"
        elif spread > bound and min(sign * c for c in change) <= max(sign * b for b in base):
            verdict = "unresolved"
        else:
            verdict = "within"
        rows.append((
            name, f"{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]", f"{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]",
            ratio, won, lost, len(pairs) - won - lost, paired, verdict,
        ))
    # Each median column is as wide as its widest value, so every field
    # stays under its header.
    header = ("metric", "base median [q1, q3]", "change median [q1, q3]")
    base_w, change_w = (max(len(row[i]) for row in rows + [header]) for i in (1, 2))
    print(f"  {'metric':<13} {header[1]:>{base_w}} {header[2]:>{change_w}} "
          f"{'change/base':>11} {'won':>4} {'lost':>4} {'tied':>4} "
          f"{'pair ratio [95% CI]':>23}  verdict")
    for name, base_q, change_q, ratio, won, lost, tied, paired, verdict in rows:
        print(
            f"  {name:<13} {base_q:>{base_w}} {change_q:>{change_w}} {ratio:>11} "
            f"{won:4d} {lost:4d} {tied:4d} {paired:>23}  {verdict}"
        )


def main() -> None:
    args = parse_args()
    for workload in args.workload or WORKLOADS:
        pairs = []
        for n, seed in enumerate(args.seeds):
            # Even pairs run the base first, odd pairs the change.
            order = 1 if n % 2 == 0 else -1
            sides = [args.base, args.change][::order]
            base, change = [run(checkout, workload, seed, args) for checkout in sides][::order]
            pairs.append((base, change))
            print(
                f"{workload} seed {seed} ({'base' if order == 1 else 'change'} first): "
                f"frames_per_s base {base['values']['frames_per_s']:.1f} "
                f"change {change['values']['frames_per_s']:.1f}",
                flush=True,
            )
        summarize(workload, pairs)


if __name__ == "__main__":
    main()
