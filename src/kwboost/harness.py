"""End-to-end runs: decode a manifest, score transcripts, tune weights.

run_decode wires the full pipeline for each utterance: load logits,
decode in the configured mode, inverse-normalize the top hypothesis,
and emit one JSON line with the written-form text and the keyword
spans that were mapped back.  Scoring and grid search consume the same
files, so every number in a report is reproducible from artifacts on
disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

from .bias_trie import (
    DEFAULT_RARITY_THRESHOLD,
    BiasTrie,
    build_trie,
    check_boost_settings,
    entry_weights,
)
from .dataio import (
    ManifestEntry,
    read_logits,
    read_manifest,
    read_transcripts,
    read_vocab_file,
)
from .decoder import DecodeConfig, LogitMatrix, Vocabulary, decode, paused_collector
from .errors import ConfigError, DataFormatError, check_output, write_text
from .lm import NGramLM, load_arpa
from .norm import (
    KeywordMatch,
    NormalizationMapping,
    build_mapping,
    inverse_normalize,
    load_exceptions,
    load_keyword_list,
    save_mapping,
)
from .scoring import ScoreReport, biased_wer, rounded_rates


@dataclass
class RunConfig:
    """One decode run over a manifest.

    The fields that DecodeConfig also has take its defaults, and
    ``decode_config`` copies them by name.  ``boost_weight`` and
    ``rarity_threshold`` go to ``build_trie``: the weight is the default
    for entries without a list weight.  Only ``run_decode`` writes to
    ``out``; tuning needs none.
    """

    manifest: Path
    vocab: Path
    out: Path | None = None
    lm: Path | None = None
    keywords: Path | None = None
    exceptions: Path | None = None
    mode: str = DecodeConfig.mode
    boost_weight: float = 0.0
    lm_weight: float = DecodeConfig.lm_weight
    word_bonus: float = DecodeConfig.word_bonus
    beam_width: int = DecodeConfig.beam_width
    rarity_threshold: float = DEFAULT_RARITY_THRESHOLD
    token_min_logp: float = DecodeConfig.token_min_logp

    def __post_init__(self):
        # Reject bad settings before any file is looked at.
        self.decode_config()
        check_boost_settings(self.boost_weight, self.rarity_threshold)
        self.manifest = Path(self.manifest)
        self.vocab = Path(self.vocab)
        self.out = Path(self.out) if self.out is not None else None
        self.lm = Path(self.lm) if self.lm is not None else None
        self.keywords = Path(self.keywords) if self.keywords is not None else None
        self.exceptions = Path(self.exceptions) if self.exceptions is not None else None
        if self.mode != "baseline" and self.keywords is None:
            raise ConfigError(f"mode {self.mode!r} requires a keyword list")
        inputs = (self.manifest, self.vocab, self.lm, self.keywords, self.exceptions)
        for path in inputs:
            if path is not None and not path.exists():
                raise ConfigError(f"input file not found: {path}")
        if self.out is not None:
            if not self.out.parent.is_dir():
                raise ConfigError(f"output directory not found: {self.out}")
            # Caught here, before anything is decoded, not at the final write.
            if self.out.is_dir():
                raise ConfigError(f"output path is a directory: {self.out}")
            check_output(self.out, inputs)

    def decode_config(self) -> DecodeConfig:
        """The decoder settings, validated by DecodeConfig."""
        names = (f.name for f in fields(DecodeConfig))
        return DecodeConfig(**{name: getattr(self, name) for name in names})


@dataclass
class LoadedResources:
    vocab: Vocabulary
    lm: NGramLM | None
    mapping: NormalizationMapping | None
    trie: BiasTrie | None


def _read_mapping(
    keywords: str | Path, exceptions: str | Path | None
) -> NormalizationMapping:
    """The one way a keyword list file becomes a mapping."""
    table = load_exceptions(exceptions) if exceptions else None
    return build_mapping(load_keyword_list(keywords), table)


@paused_collector
def load_resources(cfg: RunConfig) -> LoadedResources:
    vocab = read_vocab_file(cfg.vocab)
    lm = load_arpa(cfg.lm) if cfg.lm is not None else None
    mapping = None
    trie = None
    if cfg.keywords is not None:
        mapping = _read_mapping(cfg.keywords, cfg.exceptions)
        if cfg.mode != "baseline":
            trie = build_trie(
                mapping,
                lm=lm,
                rarity_threshold=cfg.rarity_threshold,
                default_weight=cfg.boost_weight,
            )
    return LoadedResources(vocab, lm, mapping, trie)


@dataclass
class DecodeSummary:
    out: Path
    decoded: int
    failed: int


def _transcribe(
    matrix: LogitMatrix, resources: LoadedResources, config: DecodeConfig
) -> tuple[str, list[KeywordMatch]]:
    """Decode one utterance and map its best words to written form."""
    result = decode(matrix, resources.vocab, config, lm=resources.lm, trie=resources.trie)
    if resources.mapping is None:
        return result.text, []
    return inverse_normalize(result.words, resources.mapping)


def _read_entries(cfg: RunConfig) -> list[ManifestEntry]:
    """The manifest's entries; ``cfg.out`` may not name a logit file."""
    entries = read_manifest(cfg.manifest)
    check_output(cfg.out, [entry.logits_path for entry in entries])
    return entries


@paused_collector
def run_decode(cfg: RunConfig) -> DecodeSummary:
    """Decode every manifest utterance; never stop on one bad file.

    Output lines keep manifest order.  Utterances whose logits are
    missing or corrupt produce an error record instead of a transcript.
    """
    if cfg.out is None:
        raise ConfigError("decoding needs an output path")
    entries = _read_entries(cfg)
    resources = load_resources(cfg)
    config = cfg.decode_config()
    decoded = failed = 0
    lines: list[str] = []
    for entry in entries:
        try:
            text, matches = _transcribe(read_logits(entry.logits_path), resources, config)
            spans = [{"raw": m.raw, "start": m.start, "end": m.end} for m in matches]
            record = {"id": entry.utt_id, "text": text, "matches": spans}
            decoded += 1
        except (DataFormatError, OSError) as exc:
            record = {"id": entry.utt_id, "error": str(exc)}
            failed += 1
        lines.append(json.dumps(record, sort_keys=False))
    write_text(cfg.out, "".join(line + "\n" for line in lines))
    return DecodeSummary(cfg.out, decoded, failed)


def run_score(
    hyps: str | Path,
    manifest: str | Path,
    keywords: str | Path,
    out: str | Path | None = None,
    case_fold: bool = False,
) -> ScoreReport:
    """Score a transcript file against manifest references."""
    check_output(out, (hyps, manifest, keywords))
    entries = read_manifest(manifest)
    records = read_transcripts(hyps)
    corpus = []
    for entry in entries:
        record = records.get(entry.utt_id)
        if record is None:
            raise DataFormatError(f"no hypothesis for utterance {entry.utt_id!r}")
        if "error" in record:
            raise DataFormatError(
                f"utterance {entry.utt_id!r} carries a decode error: {record['error']}"
            )
        text = record.get("text")
        if not isinstance(text, str):
            raise DataFormatError(f"utterance {entry.utt_id!r} has no text string")
        corpus.append((entry.utt_id, entry.reference.split(), text.split()))
    terms = [raw for raw, _, _ in load_keyword_list(keywords)]
    report = biased_wer(corpus, terms, case_fold=case_fold)
    if out is not None:
        report.save(out)
    return report


# --- list preparation -------------------------------------------------------


def prepare_list(
    keywords: str | Path,
    out: str | Path | None = None,
    exceptions: str | Path | None = None,
) -> NormalizationMapping:
    """The mapping decode and tune build from a list; ``out`` saves it.

    The saved file is for review only.  A list that decode rejects
    fails here with the same error.
    """
    check_output(out, (keywords, exceptions))
    mapping = _read_mapping(keywords, exceptions)
    if out is not None:
        save_mapping(mapping, out)
    return mapping


# --- boost weight tuning -----------------------------------------------------


@dataclass
class GridPoint:
    """A trial weight and the report of the corpus decoded with it."""

    weight: float
    report: ScoreReport


@dataclass
class GridSearchResult:
    objective: str
    grid: list[GridPoint]
    selected_weight: float
    per_target: dict[str, float] | None = None

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "grid": [{"weight": p.weight, **rounded_rates(p.report)} for p in self.grid],
            "selected_weight": self.selected_weight,
            "per_target": self.per_target,
        }

    def save(self, path: str | Path) -> None:
        write_text(Path(path), json.dumps(self.to_dict(), indent=2) + "\n")


_DevCorpus = list[tuple[str, LogitMatrix, str]]  # (id, logits, reference)


def _load_dev_set(cfg: RunConfig) -> tuple[LoadedResources, _DevCorpus]:
    entries = _read_entries(cfg)
    if not entries:
        raise DataFormatError("empty manifest: nothing to tune on")
    resources = load_resources(cfg)
    corpus = [
        (entry.utt_id, read_logits(entry.logits_path), entry.reference)
        for entry in entries
    ]
    return resources, corpus


def _evaluate(
    cfg: RunConfig,
    resources: LoadedResources,
    corpus: _DevCorpus,
    weights: dict[str, float],
) -> ScoreReport:
    """Score the corpus decoded with the entry ``weights``.  Every trial
    shares the mapping and the gate load_resources ran."""
    trie = BiasTrie(resources.mapping, weights, resources.trie.gated)
    trial = replace(resources, trie=trie)
    config = cfg.decode_config()
    scored = []
    for utt_id, matrix, reference in corpus:
        text, _ = _transcribe(matrix, trial, config)
        scored.append((utt_id, reference.split(), text.split()))
    return biased_wer(scored, [entry.raw for entry in resources.mapping.entries])


def _rate_key(point: GridPoint, objective: str) -> tuple[float, float]:
    b, w = point.report.b_wer, point.report.wer
    if objective == "b_wer" and b is None:
        raise DataFormatError(
            "B-WER is undefined on this dev set (no biased reference words); "
            "tune with --objective wer"
        )
    b = b if b is not None else float("inf")
    w = w if w is not None else float("inf")
    return (b, w) if objective == "b_wer" else (w, b)


def _best(points: Sequence[GridPoint], objective: str) -> GridPoint:
    """The point with the best rates; rate ties go to the smallest weight."""
    return min(points, key=lambda p: _rate_key(p, objective) + (p.weight,))


def grid_search(
    cfg: RunConfig,
    grid: Sequence[float],
    objective: str = "b_wer",
    per_target: bool = False,
) -> GridSearchResult:
    """Pick the boost weight minimizing the objective over the grid.

    The default objective is B-WER with WER as tie-break; rate ties
    resolve to the smallest weight.  With ``per_target`` a single
    coordinate-descent sweep then refines each entry's weight over the
    same grid plus its current weight, holding the others fixed.
    ``cfg.boost_weight`` is not read: each grid weight is the default
    for the entries without a list weight.
    """
    if not grid:
        raise ConfigError("empty weight grid")
    if objective not in ("b_wer", "wer"):
        raise ConfigError(f"unknown objective {objective!r}")
    if cfg.keywords is None:
        raise ConfigError("tuning requires a keyword list")
    if cfg.mode == "baseline":
        raise ConfigError("mode 'baseline' applies no boost: nothing to tune")
    # Each raw value is checked before float() could turn True into 1.0.
    for w in grid:
        check_boost_settings(w, cfg.rarity_threshold)
    weights = sorted(set(float(w) for w in grid))
    resources, corpus = _load_dev_set(cfg)
    mapping = resources.mapping
    points = [
        GridPoint(w, _evaluate(cfg, resources, corpus, entry_weights(mapping, w)))
        for w in weights
    ]
    best = _best(points, objective)
    result = GridSearchResult(objective, points, best.weight)
    if not per_target:
        return result

    # Each entry starts at its effective weight at the selected point.
    assigned = entry_weights(mapping, best.weight)
    for raw in assigned:
        trials = [
            GridPoint(w, _evaluate(cfg, resources, corpus, {**assigned, raw: w}))
            for w in sorted({*weights, assigned[raw]})
        ]
        # The sweep includes the current value, so this never worsens.
        assigned[raw] = _best(trials, objective).weight
    result.per_target = assigned
    return result
