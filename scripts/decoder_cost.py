#!/usr/bin/env python3
"""Decoder cost per frame against utterance length.

Generates the benchmark's decode-long inputs (spelled 100-, 300- and
1000-frame utterances, bigram LM, 2,000 keywords; see kwbench/gen.py),
decodes each utterance in ngram mode with the benchmark's settings, and
prints the median wall ms per frame of ``decoder.decode`` for each
length.  An exact search whose frame step does not depend on the prefix
length gives about the same figure at every T.

Run from the repository root with kwboost importable, for instance:

    PYTHONPATH=src python3 scripts/decoder_cost.py --reps 5
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

from kwboost.dataio import read_logits, read_manifest
from kwboost.decoder import decode
from kwboost.harness import RunConfig, load_resources
from kwboost.norm import normalize_keyword

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "kwbench"))
import gen  # noqa: E402  (the benchmark's input generator)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="input generator seed")
    parser.add_argument("--reps", type=int, default=5, help="decodes per utterance")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    bundled = gen.read_keyword_raws(ROOT / "tests" / "data" / "keywords_50.txt")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        inputs = gen.make_char_inputs(
            work, args.seed, [100, 300, 1000], bundled, 2000,
            spoken_forms=normalize_keyword,
        )
        cfg = RunConfig(
            manifest=inputs.manifest, vocab=inputs.vocab, out=work / "hyp.jsonl",
            lm=inputs.lm, keywords=inputs.keywords, mode="ngram", boost_weight=2.0,
        )
        resources = load_resources(cfg)
        config = cfg.decode_config()
        matrices = [read_logits(e.logits_path) for e in read_manifest(cfg.manifest)]
    per_frame = {}
    for matrix in matrices:
        times = []
        for _ in range(args.reps):
            start = time.perf_counter()
            decode(matrix, resources.vocab, config, lm=resources.lm, trie=resources.trie)
            times.append(time.perf_counter() - start)
        per_frame[matrix.num_frames] = 1e3 * statistics.median(times) / matrix.num_frames
        print(f"T={matrix.num_frames:5d}  {per_frame[matrix.num_frames]:.3f} ms/frame")
    print(f"ratio T=1000 / T=100: {per_frame[1000] / per_frame[100]:.2f}")


if __name__ == "__main__":
    main()
