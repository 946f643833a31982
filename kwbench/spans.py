"""Spans around kwboost's public functions, recorded from outside.

The tracer replaces each listed function or method, as the calling
module reaches it, with a wrapper that records one span per call: its
name, start and end (``perf_counter``), the span that was open when it
started, and the utterance it worked on.  Spans stay in memory and are
written out once, when the run ends.  Nothing under ``src/`` changes:
``uninstall`` puts every original back.

Utterance ids come from the inputs: ``read_logits`` tags the matrix it
returns with its file's stem, ``harness.decode`` looks its matrix up,
and the streaming workload sets ``Tracer.utterance`` itself.  A span with
no id of its own inherits its parent's.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from pathlib import Path
from time import perf_counter

import kwboost.bias_trie
import kwboost.decoder
import kwboost.harness
import kwboost.lm
import kwboost.scoring

# (owner, attribute, span name).  Module attributes are patched where
# the caller looks them up (harness imported them by name).
TARGETS = (
    (kwboost.harness, "load_resources", "harness.load_resources"),
    (kwboost.harness, "decode", "harness.decode"),
    (kwboost.harness, "read_logits", "dataio.read_logits"),
    (kwboost.harness, "load_arpa", "lm.load_arpa"),
    (kwboost.harness, "build_mapping", "norm.build_mapping"),
    (kwboost.harness, "build_trie", "bias_trie.build_trie"),
    (kwboost.harness, "inverse_normalize", "norm.inverse_normalize"),
    (kwboost.harness, "biased_wer", "scoring.biased_wer"),
    (kwboost.scoring, "align", "scoring.align"),
    (kwboost.decoder.DecoderSession, "push_frames", "decoder.push_frames"),
    (kwboost.decoder.DecoderSession, "finalize", "decoder.finalize"),
    (kwboost.lm.NGramLM, "log10_cond", "lm.log10_cond"),
    (kwboost.bias_trie.BiasTrie, "find_matches", "bias_trie.find_matches"),
    (kwboost.bias_trie.BiasTrie, "unigram_weight", "bias_trie.unigram_weight"),
)
_PUSH = "decoder.push_frames"


class Tracer:
    """Records spans in flat arrays: grid search makes over a million."""

    def __init__(self):
        self.names: list[str] = [name for _, _, name in TARGETS]
        self.name_of = array("i")  # index into self.names
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # span index, -1 for a root span
        self.utterances: list[str | None] = []
        self.utterance: str | None = None
        self.frames_pushed = 0
        self.beam_sizes: list[int] = []
        self._stack: list[int] = []
        self._matrix_utt: dict[int, str] = {}
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def _wrap(self, code: int, fn):
        tracer = self
        name = self.names[code]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(tracer.starts)
            tracer.name_of.append(code)
            tracer.parents.append(parent)
            tracer.utterances.append(tracer._utterance_of(name, args, parent))
            tracer.ends.append(0.0)
            stack.append(index)
            tracer.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = perf_counter()
                stack.pop()
            if name == _PUSH:
                chunk = args[1]
                tracer.frames_pushed += len(getattr(chunk, "data", chunk))
                tracer.beam_sizes.append(len(args[0].beams))
            elif name == "dataio.read_logits":
                tracer._matrix_utt[id(result)] = Path(args[0]).stem
            return result

        return wrapper

    def _utterance_of(self, name: str, args: tuple, parent: int) -> str | None:
        if name == "harness.decode":
            return self._matrix_utt.get(id(args[0]))
        if name == "dataio.read_logits":
            return Path(args[0]).stem
        if parent >= 0:
            return self.utterances[parent]
        return self.utterance

    def install(self) -> None:
        for code, (owner, attr, _) in enumerate(TARGETS):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(code, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self time in ms.

        Self time is a span's duration minus the time its direct child
        spans cover; children nest inside their parent on one thread,
        so the covered time is the sum of their durations.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                covered[parent] += duration
        out: dict[str, dict[str, float]] = {}
        for code, duration, child in zip(self.name_of, durations, covered):
            entry = out.setdefault(
                self.names[code], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
            )
            entry["calls"] += 1
            entry["total_ms"] += 1e3 * duration
            entry["self_ms"] += 1e3 * (duration - child)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzip JSON lines: a header, then one array per
        span, [index, name, start, end, parent, utterance], in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps(
                {"fields": ["index", "name", "start", "end", "parent", "utterance"]}
            ) + "\n")
            for index in range(len(self.starts)):
                out.write(json.dumps([
                    index, names[self.name_of[index]], self.starts[index],
                    self.ends[index], self.parents[index], self.utterances[index],
                ]) + "\n")
