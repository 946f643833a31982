#!/usr/bin/env python3
"""kwboost benchmark: three seeded workloads, timed in-process.

Run from the root of a source checkout:

    python3 kwbench/run.py --workload decode-long --seed 0 --seconds 30 --trace 0

Workloads (closed loop, one client, single thread; see kwbench/README.md):

  decode-long    harness.run_decode in ngram mode over a char-level manifest
  stream-chunks  the same utterances through new_session / push_frames in
                 10-frame chunks, reading every partial, then finalize
  tune-grid      harness.grid_search(per_target=True) over a word-level
                 fixture corpus with the demo keyword list and no LM

Inputs are generated from ``--seed`` under ``.kwbench/`` in the checkout.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` one untraced and one traced pass of the same work give
the per-layer metrics (spans written to ``.kwbench/spans/``).  Earlier
lines report the machine, the input properties and checks.  ``--quick``
shrinks every input for a smoke test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("decode-long", "stream-chunks", "tune-grid")
GOLDEN_SEED = 0
GOLDEN_PATH = HERE / "golden.json"

# Input sizes.  Full runs keep >= 200 chunks per stream-chunks run and a
# keyword list large enough that normalization and trie build show in
# setup_s; quick runs only check that everything still runs.
SIZES = {
    "full": {"lengths": [100, 300, 1000], "keywords": 2000, "tune_utts": 10,
             "setup_reps": 11, "setup_min_s": 1.0},
    "quick": {"lengths": [40, 60], "keywords": 150, "tune_utts": 4,
              "setup_reps": 2, "setup_min_s": 0.0},
}
CHUNK = 10
BOOST = 2.0
GRID = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
QUICK_GRID = (0.0, 2.0, 8.0)

END_TO_END = {
    "setup_s": "s", "frames_per_s": "frames/s",
    "wer": "%", "u_wer": "%", "b_wer": "%", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "decoder.push_frames.ms_per_frame": "ms/frame",
    "decoder.push_frames.calls": "count",
    "decoder.beam_size.mean": "count",
    "decoder.candidates_per_frame": "count",
    "decoder.finalize.ms": "ms",
    "decoder.finalize.calls": "count",
    "lm.load_arpa.ms": "ms",
    "lm.log10_cond.calls": "count",
    "lm.log10_cond.ms": "ms",
    "bias_trie.build_trie.calls": "count",
    "bias_trie.build_trie.ms": "ms",
    "bias_trie.find_matches.calls": "count",
    "bias_trie.find_matches.ms": "ms",
    "bias_trie.unigram_weight.calls": "count",
    "norm.build_mapping.ms": "ms",
    "norm.variants": "count",
    "norm.inverse_normalize.calls": "count",
    "norm.inverse_normalize.ms": "ms",
    "dataio.read_logits.calls": "count",
    "dataio.read_logits.ms": "ms",
    "scoring.biased_wer.ms": "ms",
    "scoring.align.calls": "count",
    "scoring.align.ms": "ms",
    "harness.decode.calls": "count",
    "trace.overhead_frac": "ratio",
}


def _import_toolkit():
    """Import kwboost from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "kwboost" / "__init__.py").is_file():
        sys.exit(f"kwbench: no kwboost sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import kwboost

    if Path(kwboost.__file__).resolve().parent != (src / "kwboost").resolve():
        sys.exit(f"kwbench: imported kwboost from {kwboost.__file__}, not {src}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _machine(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "seed": seed,
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Reference speed.  On a shared machine the speed of the same code swings
# by up to 1.7x over minutes, so raw wall times of runs made minutes apart
# differ more than any regression bound.  While every timed call runs, a
# SIGALRM timer runs a fixed pure-Python slice every TICK_S and records
# its duration; timings are reported scaled to a machine on which that
# slice takes NOMINAL_SLICE_S.  The report line keeps the raw wall times.
NOMINAL_SLICE_S = 2e-4
TICK_S = 0.05


def _reference_slice() -> None:
    """Fixed work, dict and tuple heavy like the decoder's inner loop."""
    table: dict = {}
    key: tuple = ()
    for i in range(300):
        key = key[-8:] + (i & 15,)
        table[key] = table.get(key, 0.0) + i * 0.5
    sorted(table)


class Speedometer:
    """Samples the machine's speed at the same moments as the timed work."""

    def __init__(self):
        self.samples = array("d")
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference_slice()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: int = 0) -> float:
        """Factor taking wall time since sample ``start`` to reference speed.

        A call shorter than one tick falls back to every sample so far.
        """
        samples = self.samples[start:] or self.samples
        return NOMINAL_SLICE_S / statistics.median(samples) if samples else 1.0


def _time_setup(cfg, speed: Speedometer, size: dict) -> tuple[float, float]:
    """Median wall time of load_resources, raw and at reference speed.

    Repeats at least ``setup_reps`` times and for ``setup_min_s``, so the
    speedometer samples the same stretch of time as the repeats.
    """
    from kwboost import harness

    times: list[float] = []
    start = len(speed.samples)
    deadline = time.perf_counter() + size["setup_min_s"]
    with speed:
        while len(times) < size["setup_reps"] or time.perf_counter() < deadline:
            gc.collect()
            t0 = time.perf_counter()
            harness.load_resources(cfg)
            times.append(time.perf_counter() - t0)
    wall = statistics.median(times)
    return wall, wall * speed.scale(start)


class Checks:
    """Counts operations and the ones whose output failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


# --- inputs ----------------------------------------------------------------


def char_inputs(work: Path, seed: int, size: dict):
    import gen
    from kwboost.norm import normalize_keyword

    bundled = gen.read_keyword_raws(ROOT / "tests" / "data" / "keywords_50.txt")
    return gen.make_char_inputs(
        work / "char", seed, size["lengths"], bundled, size["keywords"],
        spoken_forms=normalize_keyword,
    )


def char_config(inputs, work: Path):
    from kwboost.harness import RunConfig

    return RunConfig(
        manifest=inputs.manifest, vocab=inputs.vocab, out=work / "hyp.jsonl",
        lm=inputs.lm, keywords=inputs.keywords, mode="ngram", boost_weight=BOOST,
    )


def input_properties(cfg, resources) -> dict:
    """Frames, candidates per frame, keywords, variants, gated unigrams."""
    import numpy as np

    from kwboost.dataio import read_logits, read_manifest

    frames = 0
    candidates = 0
    blank = resources.vocab.blank_index
    for entry in read_manifest(cfg.manifest):
        data = read_logits(entry.logits_path).data
        above = data >= cfg.token_min_logp
        above[:, blank] = False
        frames += data.shape[0]
        candidates += int(np.count_nonzero(above))
    mapping, trie = resources.mapping, resources.trie
    return {
        "input.frames": frames,
        "decoder.candidates_per_frame": candidates / frames,
        "input.keywords": len(mapping.entries) if mapping else 0,
        "norm.variants": len(mapping.reverse) if mapping else 0,
        "input.gated_unigrams": len(trie.unigram_weights) if trie else 0,
    }


def score(cfg, texts: dict[str, str]):
    """Corpus rates and per-utterance error counts against the manifest."""
    from kwboost.dataio import read_manifest
    from kwboost.norm import load_keyword_list
    from kwboost.scoring import biased_wer

    corpus = [
        (e.utt_id, e.reference.split(), texts[e.utt_id].split())
        for e in read_manifest(cfg.manifest)
    ]
    terms = [raw for raw, _, _ in load_keyword_list(cfg.keywords)]
    return biased_wer(corpus, terms)


def _golden(mode: str, workload: str, seed: int):
    if seed != GOLDEN_SEED or not GOLDEN_PATH.is_file():
        return None
    return json.loads(GOLDEN_PATH.read_text()).get(mode, {}).get(workload)


# --- workloads ---------------------------------------------------------------


class Workload:
    """Generated inputs plus one timed unit of work, repeatable."""

    def __init__(self, name: str, work: Path, seed: int, mode: str):
        self.work, self.seed, self.mode = work, seed, mode
        self.size = SIZES[mode]
        self.checks = Checks()
        self.golden = _golden(mode, name, seed)
        self.record: dict = {}
        self.extra: dict = {}
        self.tracer = None
        self.speed = Speedometer()
        self.runs: list[float] = []  # wall time of each unit's timed part
        self.scales: list[float] = []  # and its reference-speed factor

    # Subclasses: prepare(), unit() -> seconds, finish() -> metrics dict.

    def timed_unit(self) -> float:
        start = len(self.speed.samples)
        with self.speed:
            elapsed = self.unit()
        self.scales.append(self.speed.scale(start))
        return elapsed

    def timings(self, frames: int) -> dict:
        """setup_s and frames_per_s at reference speed; raw ones to the report."""
        wall = statistics.median(self.runs)
        at_reference = statistics.median(r * k for r, k in zip(self.runs, self.scales))
        self.extra.update({
            "wall_setup_s": self.setup[0],
            "wall_frames_per_s": frames / wall,
            "slice_ms": 1e3 * statistics.median(self.speed.samples),
            "units": len(self.runs),
        })
        return {"setup_s": self.setup[1], "frames_per_s": frames / at_reference}


class CharWorkload(Workload):
    """The char corpus shared by decode-long and stream-chunks."""

    def prepare(self):
        """Generate, time set-up; return the loaded resources for reuse."""
        from kwboost import harness

        self.inputs = char_inputs(self.work, self.seed, self.size)
        self.cfg = char_config(self.inputs, self.work)
        self.setup = _time_setup(self.cfg, self.speed, self.size)
        resources = harness.load_resources(self.cfg)
        self.props = input_properties(self.cfg, resources)
        self.first: dict[str, str] | None = None
        return resources

    def finish(self) -> dict:
        """Score the first output; check designed errors and golden digests."""
        report = score(self.cfg, self.first)
        for utt in report.utterances:
            counts = self.inputs.cases["per_utterance"][utt.utt_id]
            want = (counts["lost"], counts["sub"])
            got = (utt.errors.biased, utt.errors.unbiased)
            self.checks.check(
                got == want,
                f"{utt.utt_id}: biased/unbiased errors {got}, designed {want}",
            )
        self.record.update({u: digest(t) for u, t in self.first.items()})
        check_golden(self.golden, self.record, self.checks)
        return {
            **self.timings(self.props["input.frames"]),
            "wer": report.wer, "u_wer": report.u_wer, "b_wer": report.b_wer,
        }


class DecodeLong(CharWorkload):
    def unit(self) -> float:
        from kwboost import harness
        from kwboost.dataio import read_transcripts

        t0 = time.perf_counter()
        summary = harness.run_decode(self.cfg)
        elapsed = time.perf_counter() - t0
        self.checks.check(summary.failed == 0, f"run_decode failed {summary.failed}")
        texts = {u: r.get("text", "") for u, r in read_transcripts(self.cfg.out).items()}
        if self.first is None:
            self.first = texts
        for utt_id, text in texts.items():
            self.checks.check(text == self.first[utt_id], f"{utt_id}: not repeatable")
        self.runs.append(elapsed)
        return elapsed


class StreamChunks(CharWorkload):
    def prepare(self):
        from kwboost import harness
        from kwboost.dataio import read_manifest, read_transcripts

        self.resources = super().prepare()
        self.entries = read_manifest(self.cfg.manifest)
        self.matrices = [harness.read_logits(e.logits_path) for e in self.entries]
        # Chunking invariance: the offline decode of the same utterances
        # is the reference for every streamed final.
        harness.run_decode(self.cfg)
        self.offline = {u: r.get("text") for u, r in read_transcripts(self.cfg.out).items()}
        self.chunk_ms: list[float] = []
        self.final_ms: list[float] = []

    def unit(self) -> float:
        """Stream every utterance; check finals and n-best digests.

        The n-best digest covers the top five hypotheses' words and totals
        (to 1e-6), so a scoring change shows even where the wide margins of
        the char corpus leave the transcripts alone.
        """
        from kwboost import decoder, norm

        res = self.resources
        config = self.cfg.decode_config()
        finals = {}
        t_pass = time.perf_counter()
        for entry, matrix in zip(self.entries, self.matrices):
            if self.tracer is not None:
                self.tracer.utterance = entry.utt_id
            session = decoder.new_session(res.vocab, config, lm=res.lm, trie=res.trie)
            data = matrix.data
            for start in range(0, data.shape[0], CHUNK):
                t0 = time.perf_counter()
                partial = session.push_frames(data[start:start + CHUNK])
                self.chunk_ms.append(1e3 * (time.perf_counter() - t0))
                _ = (partial.text, partial.total)  # what a streaming client reads
            t0 = time.perf_counter()
            finals[entry.utt_id] = session.finalize()
            self.final_ms.append(1e3 * (time.perf_counter() - t0))
        elapsed = time.perf_counter() - t_pass
        texts = {}
        nbest = {}
        for utt_id, final in finals.items():
            texts[utt_id] = norm.inverse_normalize(final.words, res.mapping)[0]
            nbest[f"{utt_id}.nbest"] = digest(json.dumps(
                [[h.words, round(h.total, 6)] for h in final.nbest[:5]]
            ))
            self.checks.check(
                texts[utt_id] == self.offline[utt_id],
                f"{utt_id}: streamed final differs from offline",
            )
        if self.first is None:
            self.first, self.record = texts, nbest
        self.checks.check(nbest == self.record, "n-best not repeatable")
        self.runs.append(elapsed)
        self.extra = {
            "chunks": len(self.chunk_ms),
            "chunk_ms_p50": statistics.median(self.chunk_ms),
            "chunk_ms_p95": _percentile(self.chunk_ms, 0.95),
            "finals": len(self.final_ms),
            "final_ms_p50": statistics.median(self.final_ms),
        }
        return elapsed


class TuneGrid(Workload):
    def prepare(self):
        import gen
        from kwboost import harness
        from kwboost.fixtures import make_fixtures

        self.work.mkdir(parents=True, exist_ok=True)
        spec = self.work / "tune_spec.jsonl"
        gen.make_tune_spec(spec, self.seed, self.size["tune_utts"])
        fixtures = make_fixtures(spec, self.work / "tune", seed=self.seed)
        self.grid = GRID if self.mode == "full" else QUICK_GRID
        self.cfg = harness.RunConfig(
            manifest=fixtures.manifest_path, vocab=fixtures.vocab_path,
            out=self.work / "unused.jsonl",
            keywords=ROOT / "tests" / "data" / "keywords_demo.txt",
            mode="ngram", word_bonus=0.0,
        )
        self.setup = _time_setup(self.cfg, self.speed, self.size)
        self.props = input_properties(self.cfg, harness.load_resources(self.cfg))
        self.first = None

    def unit(self) -> float:
        from kwboost import harness

        t0 = time.perf_counter()
        result = harness.grid_search(self.cfg, self.grid, per_target=True)
        elapsed = time.perf_counter() - t0
        outcome = result.to_dict()
        if self.first is None:
            self.first = outcome
        self.checks.check(outcome == self.first, "grid search not repeatable")
        self.runs.append(elapsed)
        self.extra = {"tune_s": statistics.median(self.runs)}
        return elapsed

    def finish(self) -> dict:
        selected = self.first["selected_weight"]
        point = next(p for p in self.first["grid"] if p["weight"] == selected)
        baseline = next(p for p in self.first["grid"] if p["weight"] == 0.0)
        self.checks.check(
            point["b_wer"] < baseline["b_wer"],
            f"selected weight {selected} does not beat weight 0 on B-WER",
        )
        self.record = {
            "selected_weight": selected,
            "per_target": self.first["per_target"],
            "grid": self.first["grid"],
        }
        check_golden(self.golden, self.record, self.checks)
        decodes = (1 + self.props["input.keywords"]) * len(self.grid)
        return {
            **self.timings(self.props["input.frames"] * decodes),
            "wer": point["wer"], "u_wer": point["u_wer"], "b_wer": point["b_wer"],
        }


def check_golden(golden, record: dict, checks: Checks) -> None:
    """Compare with the outputs recorded for the default seed, item by item."""
    if golden is None:
        return
    for key, want in golden.items():
        checks.check(record.get(key) == want, f"golden mismatch on {key}")


CLASSES = {"decode-long": DecodeLong, "stream-chunks": StreamChunks, "tune-grid": TuneGrid}


# --- command ------------------------------------------------------------------


def per_layer(workload: Workload, tracer, traced_s: float, untraced_s: float) -> dict:
    s = tracer.summary()

    def get(name: str, field: str) -> float:
        return s.get(name, {}).get(field, 0)

    frames = tracer.frames_pushed
    metrics = {
        "decoder.push_frames.ms_per_frame":
            get("decoder.push_frames", "self_ms") / frames if frames else 0.0,
        "decoder.push_frames.calls": get("decoder.push_frames", "calls"),
        "decoder.beam_size.mean":
            statistics.fmean(tracer.beam_sizes) if tracer.beam_sizes else 0.0,
        "decoder.finalize.ms": get("decoder.finalize", "self_ms"),
        "decoder.finalize.calls": get("decoder.finalize", "calls"),
        "lm.load_arpa.ms": get("lm.load_arpa", "self_ms"),
        "lm.log10_cond.calls": get("lm.log10_cond", "calls"),
        "lm.log10_cond.ms": get("lm.log10_cond", "self_ms"),
        "bias_trie.build_trie.calls": get("bias_trie.build_trie", "calls"),
        "bias_trie.build_trie.ms": get("bias_trie.build_trie", "self_ms"),
        "bias_trie.find_matches.calls": get("bias_trie.find_matches", "calls"),
        "bias_trie.find_matches.ms": get("bias_trie.find_matches", "self_ms"),
        "bias_trie.unigram_weight.calls": get("bias_trie.unigram_weight", "calls"),
        "norm.build_mapping.ms": get("norm.build_mapping", "self_ms"),
        "norm.inverse_normalize.calls": get("norm.inverse_normalize", "calls"),
        "norm.inverse_normalize.ms": get("norm.inverse_normalize", "self_ms"),
        "dataio.read_logits.calls": get("dataio.read_logits", "calls"),
        "dataio.read_logits.ms": get("dataio.read_logits", "self_ms"),
        "scoring.biased_wer.ms": get("scoring.biased_wer", "self_ms"),
        "scoring.align.calls": get("scoring.align", "calls"),
        "scoring.align.ms": get("scoring.align", "self_ms"),
        "harness.decode.calls": get("harness.decode", "calls"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    metrics.update(workload.props)
    return metrics


def timed_pass(workload: Workload, tracer=None) -> float:
    """One unit of work for the trace comparison, optionally traced.

    Streaming sessions reuse loaded resources, so this pass loads them
    once more to expose the LM and keyword-list layers; the other
    workloads load them inside the unit already.
    """
    from kwboost import harness

    workload.tracer = tracer
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        if isinstance(workload, StreamChunks):
            harness.load_resources(workload.cfg)
        workload.timed_unit()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="kwboost benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, smoke test")
    parser.add_argument(
        "--record-golden", action="store_true",
        help=f"store this run's outputs as the seed-{GOLDEN_SEED} reference",
    )
    args = parser.parse_args(argv)
    _import_toolkit()
    from spans import Tracer

    mode = "quick" if args.quick else "full"
    scratch = ROOT / ".kwbench"
    work = scratch / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = CLASSES[args.workload](args.workload, work, args.seed, mode)
        if args.record_golden:
            workload.golden = None
        workload.prepare()
        if args.trace:
            untraced = timed_pass(workload)
            tracer = Tracer()
            traced = timed_pass(workload, tracer)
            tracer.write(scratch / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz")
            metrics = per_layer(workload, tracer, traced, untraced)
            units = PER_LAYER
            workload.finish()
            workload.extra = {"untraced_s": untraced, "traced_s": traced, "spans": len(tracer)}
        else:
            deadline = time.perf_counter() + args.seconds
            workload.timed_unit()
            while time.perf_counter() < deadline:
                workload.timed_unit()
            metrics = workload.finish()
            metrics["peak_rss_mb"] = _peak_rss_mb()
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = workload.checks
    if args.record_golden:
        store_golden(mode, args.workload, args.seed, workload.record)
    report = {
        "workload": args.workload, "mode": mode, "trace": args.trace,
        "machine": _machine(args.seed), "inputs": workload.props,
        "cases": workload.inputs.cases["total"] if hasattr(workload, "inputs") else None,
        "failed_frac": checks.failed / max(checks.attempted, 1),
        "notes": checks.notes, **workload.extra,
    }
    print("kwbench report " + json.dumps(report, default=str))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    results = scratch / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{mode}"
    (results / f"{stamp}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1, default=str) + "\n"
    )
    print(json.dumps(result))
    return 0


def store_golden(mode: str, workload: str, seed: int, record: dict) -> None:
    if seed != GOLDEN_SEED:
        sys.exit(f"kwbench: golden outputs are kept for seed {GOLDEN_SEED} only")
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}
    golden.setdefault(mode, {})[workload] = record
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
