#!/usr/bin/env python3
"""Decoder cost per frame against utterance length and on word-level tokens.

Inputs and settings are the benchmark's own, read from kwbench/run.py:
its full ``SIZES``, ``BOOST``, and decode-long's ``char_inputs`` and
``char_config``.

The first table generates the decode-long inputs (one spelled utterance
of each full length, a bigram LM and the full keyword list; see
kwbench/gen.py), decodes each utterance in ngram mode with the
benchmark's settings, and prints the median wall ms per frame of
``decoder.decode`` for each length.  An exact search whose frame step
does not depend on the prefix length gives about the same figure at
every T.

The second table times set-up on the same inputs: the median wall ms
over ``--reps`` rounds of ``load_arpa``, ``load_keyword_list`` (the
keyword list file), ``build_mapping`` (on the keyword list already
read), ``build_trie`` (on that mapping and LM) and the whole
``harness.load_resources``.  Each is called through the harness
namespace with the collector paused, as ``load_resources`` runs it,
after a ``gc.collect()``.  ``load_resources`` also reads the
vocabulary, the one step with no row of its own, so it is a little
more than the sum of the four.

The third table decodes the benchmark's word-level tuning corpus
(``gen.make_tune_spec`` + ``fixtures.make_fixtures``, demo keywords, no
LM, word bonus 0, boost ``BOOST``), where every token starts a word,
in each mode.  It prints the median wall ms per frame over the whole
corpus, and four counts per frame taken in a separate untimed pass that
pushes one frame at a time: unigram boost lookups (one lookup is one
word commit, at most one per beam entry), the ranking records the frame
step ranks (beam entries plus the children that passed its bound,
read by a spy on the session's ``_rank``), merges (beam entries whose
parent prefix is also in the beam: the stay slots a new prefix can
merge into) and new prefixes (entries of the next beam that were not
in the last one).  The last two are read from the entries' prefix
nodes, one per prefix.  The same pass gives the share of frames whose
ranking built a tie key (equal totals inside the beam or at its edge).
Each session is finalized after its spies are lifted, so the records
and ties are the frame step's alone.  Baseline mode boosts
nothing and gives the bare search's cost.

Run from the repository root with kwboost importable, for instance:

    PYTHONPATH=src python3 scripts/decoder_cost.py --reps 5
"""

import argparse
import gc
import statistics
import sys
import tempfile
import time
from pathlib import Path

from kwboost import harness
from kwboost.dataio import read_logits, read_manifest
from kwboost.decoder import MODES, decode, new_session, paused_collector
from kwboost.fixtures import make_fixtures
from kwboost.harness import RunConfig, load_resources

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "kwbench"))
import gen  # noqa: E402  (the benchmark's input generator)
import run as bench  # noqa: E402  (the benchmark's sizes, settings and inputs)

FULL = bench.SIZES["full"]


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="input generator seed")
    parser.add_argument(
        "--reps", type=int, default=5, help="decodes per utterance, and set-up rounds"
    )
    return parser.parse_args()


def load(cfg: RunConfig):
    """Resources, decode settings and logit matrices of a run config."""
    matrices = [read_logits(e.logits_path) for e in read_manifest(cfg.manifest)]
    return load_resources(cfg), cfg.decode_config(), matrices


def median_seconds(matrices, resources, config, reps: int) -> float:
    """Median wall time of decoding every matrix once."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for matrix in matrices:
            decode(matrix, resources.vocab, config, lm=resources.lm, trie=resources.trie)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def long_config(work: Path, args: argparse.Namespace) -> RunConfig:
    """The decode-long workload's inputs and settings."""
    return bench.char_config(bench.char_inputs(work, args.seed, FULL), work)


def length_table(cfg: RunConfig, args: argparse.Namespace) -> None:
    resources, config, matrices = load(cfg)
    per_frame = {}
    for matrix in matrices:
        seconds = median_seconds([matrix], resources, config, args.reps)
        per_frame[matrix.num_frames] = 1e3 * seconds / matrix.num_frames
        print(f"T={matrix.num_frames:5d}  {per_frame[matrix.num_frames]:.3f} ms/frame")
    first, last = FULL["lengths"][0], FULL["lengths"][-1]
    print(f"ratio T={last} / T={first}: {per_frame[last] / per_frame[first]:.2f}")


def word_table(work: Path, args: argparse.Namespace) -> None:
    spec = work / "tune_spec.jsonl"
    gen.make_tune_spec(spec, args.seed, FULL["tune_utts"])
    fixtures = make_fixtures(spec, work / "tune", seed=args.seed)
    print()
    print(f"word-level tuning corpus ({FULL['tune_utts']} utterances)")
    print(
        f"{'mode':<9} {'ms/frame':>9} {'lookups/frame':>14} {'records/frame':>14}"
        f" {'merges/frame':>13} {'new/frame':>10} {'tied/frame':>11}"
    )
    for mode in MODES:
        resources, config, matrices = load(RunConfig(
            manifest=fixtures.manifest_path, vocab=fixtures.vocab_path,
            keywords=ROOT / "tests" / "data" / "keywords_demo.txt",
            mode=mode, word_bonus=0.0, boost_weight=bench.BOOST,
        ))
        frames = sum(matrix.num_frames for matrix in matrices)
        seconds = median_seconds(matrices, resources, config, args.reps)
        lookups = 0
        if resources.trie is not None:
            lookup = resources.trie.unigram_weight

            def counted(word):
                nonlocal lookups
                lookups += 1
                return lookup(word)

            resources.trie.unigram_weight = counted
        records = merges = made = tied = 0
        for matrix in matrices:
            session = new_session(resources.vocab, config, lm=resources.lm, trie=resources.trie)
            rank, tie_key = session._rank, session._tie_key

            def ranking(ranked, width):
                nonlocal records
                records += len(ranked)
                return rank(ranked, width)

            def keying(record):
                nonlocal keyed
                keyed = True
                return tie_key(record)

            session._rank, session._tie_key = ranking, keying
            for row in matrix.data:
                beam = {hyp.node for hyp in session.beams}
                merges += sum(node.parent in beam for node in beam)
                keyed = False
                session.push_frames(row[None])
                tied += keyed
                made += sum(hyp.node not in beam for hyp in session.beams)
            # Finalize's ranking is not the frame step's; its commits
            # still count as lookups.
            del session._rank, session._tie_key
            session.finalize()
        print(
            f"{mode:<9} {1e3 * seconds / frames:9.3f} {lookups / frames:14.1f}"
            f" {records / frames:14.1f} {merges / frames:13.1f} {made / frames:10.1f}"
            f" {tied / frames:11.3f}"
        )


def setup_table(cfg: RunConfig, args: argparse.Namespace) -> None:
    keywords = harness.load_keyword_list(cfg.keywords)
    lm = harness.load_arpa(cfg.lm)
    mapping = harness.build_mapping(keywords)
    # Each layer as load_resources calls it: through the harness
    # namespace, with the collector paused.
    calls = {
        "load_arpa": lambda: harness.load_arpa(cfg.lm),
        "load_keyword_list": lambda: harness.load_keyword_list(cfg.keywords),
        "build_mapping": lambda: harness.build_mapping(keywords),
        "build_trie": lambda: harness.build_trie(
            mapping, lm=lm, rarity_threshold=cfg.rarity_threshold,
            default_weight=cfg.boost_weight,
        ),
        "load_resources": lambda: harness.load_resources(cfg),
    }
    layers = {name: paused_collector(call) for name, call in calls.items()}
    times = {name: [] for name in layers}
    # One round times every layer once, so drift reaches them alike.
    for _ in range(args.reps):
        for name, layer in layers.items():
            gc.collect()
            start = time.perf_counter()
            layer()
            times[name].append(time.perf_counter() - start)
    print()
    print(f"set-up on the decode-long inputs, median of {args.reps}, collector paused")
    print(f"{'layer':<17} {'ms':>8}")
    for name, samples in times.items():
        print(f"{name:<17} {1e3 * statistics.median(samples):8.2f}")


def main() -> None:
    args = parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = long_config(Path(tmp), args)
        length_table(cfg, args)
        setup_table(cfg, args)
        word_table(Path(tmp), args)


if __name__ == "__main__":
    main()
