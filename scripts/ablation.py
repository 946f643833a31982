#!/usr/bin/env python3
"""Compare the boosting modes on a synthetic corpus and sweep their weight.

Generates logits from the bundled corpus spec once, decodes them with
no boosting, with unconditional unigram boosting and with match-or-
retract n-gram boosting at one boost weight, and prints the transcripts
and the WER / U-WER / B-WER table.  Then, for each boosting mode, it
runs the grid search used by `kwboost tune` (B-WER objective, WER
tie-break) and prints the weight curve and the selected weight;
`--per-target` refines per-keyword weights with a coordinate-descent
pass.  The transcripts are saved as one JSONL file per mode, and the
rates, curves and picks as one JSON file.
"""

import argparse
import json
from pathlib import Path

from kwboost.fixtures import make_fixtures
from kwboost.harness import RunConfig, grid_search, run_decode, run_score

ROOT = Path(__file__).resolve().parents[1]
MODES = ("baseline", "default", "ngram")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--spec",
        type=Path,
        default=ROOT / "tests" / "data" / "corpus_spec.jsonl",
        help="fixture corpus spec (JSONL)",
    )
    parser.add_argument(
        "--keywords",
        type=Path,
        default=ROOT / "tests" / "data" / "keywords_demo.txt",
        help="biasing keyword list",
    )
    parser.add_argument("--out-dir", type=Path, default=Path("ablation_out"))
    parser.add_argument(
        "--boost-weight", type=float, default=3.0, help="weight of the mode table"
    )
    parser.add_argument(
        "--grid", type=float, nargs="+", default=[0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    )
    parser.add_argument("--per-target", action="store_true")
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args()


def rate(value: float | None) -> str:
    return "-" if value is None else f"{value:6.2f}"


def main() -> None:
    args = parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    fixture_set = make_fixtures(args.spec, args.out_dir / "fixtures", seed=args.seed)
    print(f"corpus: {len(fixture_set.logit_paths)} utterances from {args.spec}")

    def run_config(mode: str, weight: float, out: Path) -> RunConfig:
        return RunConfig(
            manifest=fixture_set.manifest_path,
            vocab=fixture_set.vocab_path,
            out=out,
            keywords=args.keywords,
            mode=mode,
            boost_weight=weight,
            word_bonus=0.0,
        )

    table = {}
    for mode in MODES:
        hyp_path = args.out_dir / f"hyps_{mode}.jsonl"
        weight = 0.0 if mode == "baseline" else args.boost_weight
        run_decode(run_config(mode, weight, hyp_path))
        report = run_score(hyp_path, fixture_set.manifest_path, args.keywords)
        table[mode] = {"wer": report.wer, "u_wer": report.u_wer, "b_wer": report.b_wer}

        print(f"\n--- {mode} (W={weight})")
        for line in hyp_path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            print(f"  {record['id']}: {record.get('text', record.get('error'))}")

    print(f"\n{'mode':<10} {'WER':>6} {'U-WER':>6} {'B-WER':>6}")
    for mode, rates in table.items():
        print(f"{mode:<10} {' '.join(rate(r) for r in rates.values())}")

    sweeps = {}
    for mode in MODES[1:]:
        cfg = run_config(mode, 0.0, args.out_dir / "unused.jsonl")
        result = grid_search(cfg, args.grid, per_target=args.per_target)
        sweeps[mode] = result.to_dict()

        print(f"\n--- {mode} weight curve")
        print(f"{'weight':>6} {'WER':>6} {'U-WER':>6} {'B-WER':>6}")
        for point in result.grid:
            marker = "  <-- selected" if point.weight == result.selected_weight else ""
            print(
                f"{point.weight:6.2f} {rate(point.wer)} {rate(point.u_wer)} "
                f"{rate(point.b_wer)}{marker}"
            )
        if result.per_target:
            print("per-keyword weights:")
            for raw, weight in result.per_target.items():
                print(f"  {raw}: {weight}")

    out_path = args.out_dir / "ablation.json"
    summary = {"boost_weight": args.boost_weight, "modes": table, "sweeps": sweeps}
    out_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"\nresult -> {out_path}")


if __name__ == "__main__":
    main()
