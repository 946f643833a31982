"""Contextual keyword boosting for CTC beam-search decoding.

The pipeline: normalize raw keywords into spoken-form word sequences
(norm), index them in a bias trie gated by language-model rarity
(bias_trie, lm), boost matching prefixes during CTC prefix beam search
with exact retraction of partial boosts at finalization (decoder), map
matched spans back to written form (norm), and measure the effect with
a biased/unbiased word-error-rate split (scoring).  The harness and the
``kwboost`` command tie the stages together over files on disk.
"""

from .bias_trie import BiasTrie, build_trie
from .dataio import (
    ManifestEntry,
    read_logits,
    read_manifest,
    read_transcripts,
    read_vocab_file,
    write_logits,
    write_manifest,
    write_vocab_file,
)
from .decoder import (
    MODES,
    BeamHypothesis,
    DecodeConfig,
    DecodeResult,
    DecoderSession,
    LogitMatrix,
    Vocabulary,
    decode,
    new_session,
)
from .errors import (
    ArpaError,
    ConfigError,
    DataFormatError,
    NormalizationError,
    ToolkitError,
)
from .harness import (
    GridPoint,
    GridSearchResult,
    RunConfig,
    grid_search,
    prepare_list,
    run_decode,
    run_score,
)
from .lm import NGramLM, load_arpa
from .norm import (
    KeywordEntry,
    KeywordMatch,
    NormalizationMapping,
    build_mapping,
    inverse_normalize,
    load_keyword_list,
    normalize_keyword,
    raw_target_mapping,
    save_mapping,
)
from .scoring import (
    Alignment,
    ErrorCounts,
    ScoreReport,
    UtteranceScore,
    align,
    biased_wer,
    relative_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "ArpaError",
    "Alignment",
    "BeamHypothesis",
    "BiasTrie",
    "ConfigError",
    "DataFormatError",
    "DecodeConfig",
    "DecodeResult",
    "DecoderSession",
    "ErrorCounts",
    "GridPoint",
    "GridSearchResult",
    "KeywordEntry",
    "KeywordMatch",
    "LogitMatrix",
    "MODES",
    "ManifestEntry",
    "NGramLM",
    "NormalizationError",
    "NormalizationMapping",
    "RunConfig",
    "ScoreReport",
    "ToolkitError",
    "UtteranceScore",
    "Vocabulary",
    "align",
    "biased_wer",
    "build_mapping",
    "build_trie",
    "decode",
    "grid_search",
    "inverse_normalize",
    "load_arpa",
    "load_keyword_list",
    "new_session",
    "normalize_keyword",
    "prepare_list",
    "raw_target_mapping",
    "read_logits",
    "read_manifest",
    "read_transcripts",
    "read_vocab_file",
    "relative_reduction",
    "run_decode",
    "run_score",
    "save_mapping",
    "write_logits",
    "write_manifest",
    "write_vocab_file",
]
