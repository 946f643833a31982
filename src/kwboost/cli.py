"""Command-line front end.

Subcommands cover the full pipeline: ``decode`` (manifest -> transcripts),
``score`` (transcripts + references -> report), ``tune`` (boost weight
grid search), ``prepare-list`` (raw keywords -> the normalization
mapping decode would build, for review) and ``make-fixtures``
(synthetic logit sets for tests and demos).

Exit codes: 0 success, 1 command-line usage error, 2 data error
(unreadable or malformed inputs, decode failures).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .decoder import MODES
from .errors import ToolkitError
from .fixtures import make_fixtures
from .harness import RunConfig, grid_search, prepare_list, run_decode, run_score

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this front end reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _add_decode_options(parser: argparse.ArgumentParser, default_mode: str) -> None:
    parser.add_argument("--manifest", required=True, help="utterance manifest (JSONL)")
    parser.add_argument("--vocab", required=True, help="token vocabulary file")
    parser.add_argument("--lm", help="ARPA n-gram language model")
    parser.add_argument("--keywords", help="biasing keyword list (TSV)")
    parser.add_argument("--exceptions", help="normalization exceptions table (TSV)")
    parser.add_argument("--mode", choices=MODES, default=default_mode)
    # Each knob sets the RunConfig field named by its dest; a flag left
    # out keeps that field's default.
    parser.add_argument(
        "--alpha", type=float, dest="lm_weight", metavar="ALPHA",
        help="language model fusion weight",
    )
    parser.add_argument(
        "--beta", type=float, dest="word_bonus", metavar="BETA",
        help="per-word insertion bonus",
    )
    parser.add_argument("--beam-width", type=int)
    parser.add_argument(
        "--threshold", type=float, dest="rarity_threshold", metavar="THRESHOLD",
        help="log10 unigram probability below which words are boosted",
    )
    parser.add_argument(
        "--token-floor", type=float, dest="token_min_logp", metavar="TOKEN_FLOOR",
        help="per-frame log probability below which tokens are not expanded",
    )


def _run_config(args: argparse.Namespace, out: str | Path | None) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    given = {k: v for k, v in vars(args).items() if k in names and v is not None}
    return RunConfig(**{**given, "out": out})


def _cmd_decode(args: argparse.Namespace) -> int:
    summary = run_decode(_run_config(args, args.out))
    print(f"decoded {summary.decoded} utterances -> {summary.out}")
    if summary.failed:
        print(
            f"{summary.failed} utterances failed; see error records in {summary.out}",
            file=sys.stderr,
        )
        return DATA_ERROR
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    report = run_score(
        args.hyps, args.manifest, args.keywords,
        out=args.out, case_fold=args.casefold,
    )
    if args.out:
        print(f"report -> {args.out}")
    else:
        print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    result = grid_search(
        _run_config(args, args.out),
        grid=args.grid,
        objective=args.objective,
        per_target=args.per_target,
    )
    if args.out:
        result.save(args.out)
        print(f"selected weight {result.selected_weight} -> {args.out}")
    else:
        print(json.dumps(result.to_dict(), indent=2))
    return 0


def _cmd_prepare_list(args: argparse.Namespace) -> int:
    mapping = prepare_list(args.keywords, out=args.out, exceptions=args.exceptions)
    print(
        f"{len(mapping.entries)} keywords, {len(mapping.reverse)} variants, "
        f"{len(mapping.collisions)} collisions"
    )
    return 0


def _cmd_make_fixtures(args: argparse.Namespace) -> int:
    fixture_set = make_fixtures(args.spec, args.out_dir, seed=args.seed)
    print(
        f"{len(fixture_set.logit_paths)} utterances -> {fixture_set.manifest_path}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kwboost", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    decode = sub.add_parser("decode", help="decode a manifest to transcripts")
    _add_decode_options(decode, default_mode="baseline")
    # tune takes each weightless entry's weight from its grid instead.
    decode.add_argument(
        "--boost-weight", type=float, help="default per-word boost weight W"
    )
    decode.add_argument("--out", required=True, help="transcripts output (JSONL)")
    decode.set_defaults(func=_cmd_decode)

    score = sub.add_parser("score", help="score transcripts against references")
    score.add_argument("--hyps", required=True, help="decoded transcripts (JSONL)")
    score.add_argument("--manifest", required=True, help="manifest with references")
    score.add_argument("--keywords", required=True, help="biasing keyword list")
    score.add_argument("--out", help="report output path (JSON)")
    score.add_argument(
        "--casefold", action="store_true", help="case-insensitive comparison"
    )
    score.set_defaults(func=_cmd_score)

    tune = sub.add_parser("tune", help="grid-search the boost weight on a dev set")
    _add_decode_options(tune, default_mode="ngram")
    tune.add_argument(
        "--grid", type=float, nargs="+", required=True,
        help="candidate boost weights",
    )
    tune.add_argument("--objective", choices=("b_wer", "wer"), default="b_wer")
    tune.add_argument(
        "--per-target", action="store_true",
        help="refine per-keyword weights after the global search",
    )
    tune.add_argument("--out", help="result output path (JSON)")
    tune.set_defaults(func=_cmd_tune)

    prep = sub.add_parser("prepare-list", help="normalize a raw keyword list")
    prep.add_argument("--keywords", required=True, help="raw keyword list (TSV)")
    prep.add_argument("--exceptions", help="normalization exceptions table (TSV)")
    prep.add_argument("--out", help="mapping output for review (TSV)")
    prep.set_defaults(func=_cmd_prepare_list)

    fixtures = sub.add_parser("make-fixtures", help="generate synthetic logit sets")
    fixtures.add_argument("--spec", required=True, help="fixture spec (JSONL)")
    fixtures.add_argument("--out-dir", required=True, help="output directory")
    fixtures.add_argument("--seed", type=int, default=0)
    fixtures.set_defaults(func=_cmd_make_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"kwboost: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
