"""Back-off n-gram language model loaded from ARPA text.

The model serves two jobs: shallow fusion during decoding (queries must
stay finite, so unknown words get a fixed floor) and the rarity
gate for unigram boosting (out-of-vocabulary means -inf, which always
passes a "rarer than threshold" test).
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Sequence

from .errors import ArpaError, read_text

NEG_INF = float("-inf")
# log10 probability of a word the model has no unigram for.
UNK_LOG10 = -8.0

_COUNT_RE = re.compile(r"ngram\s+(\d+)\s*=\s*(\d+)\s*$")
_SECTION_RE = re.compile(r"\\(\d+)-grams:\s*$")


class NGramLM:
    """Katz back-off n-gram model over word strings.

    tables[k] maps (k+1)-word tuples to (log10 probability, log10
    back-off weight).  Queries condition on a context tuple that is
    truncated from the left to order-1 words.
    """

    def __init__(self, tables: Sequence[dict[tuple[str, ...], tuple[float, float]]]):
        if not tables or not tables[0]:
            raise ArpaError("model has no unigrams")
        self.tables = list(tables)
        self.order = len(self.tables)

    def unigram_log10(self, word: str) -> float:
        """Unigram log10 probability; -inf when out of vocabulary."""
        entry = self.tables[0].get((word,))
        return entry[0] if entry is not None else NEG_INF

    def log10_cond(self, word: str, context: Sequence[str] = ()) -> float:
        """Conditional log10 probability with back-off.

        Unknown words bottom out at ``UNK_LOG10``, and the loader admits
        only finite back-off weights and no NaN, so the result is finite
        unless the model itself lists the word with probability -inf.
        """
        context = tuple(context)
        if self.order > 1:
            context = context[-(self.order - 1):]
        else:
            context = ()
        return self._cond(word, context)

    def _cond(self, word: str, context: tuple[str, ...]) -> float:
        ngram = context + (word,)
        entry = self.tables[len(ngram) - 1].get(ngram)
        if entry is not None:
            return entry[0]
        if not context:
            return UNK_LOG10
        ctx_entry = self.tables[len(context) - 1].get(context)
        backoff = ctx_entry[1] if ctx_entry is not None else 0.0
        return backoff + self._cond(word, context[1:])


def load_arpa(path: str | Path) -> NGramLM:
    """Parse an ARPA file; errors carry the offending line number."""
    path = Path(path)
    declared: dict[int, int] = {}
    tables: list[dict[tuple[str, ...], tuple[float, float]]] = []
    section: int | None = None
    saw_data = False
    saw_end = False

    for lineno, line in enumerate(read_text(path, ArpaError).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        if line == "\\data\\":
            saw_data = True
            continue
        if line == "\\end\\":
            saw_end = True
            break
        # Counts come only before the first section, and every header
        # line starts with a backslash: data lines skip both patterns.
        if section is None and (count_match := _COUNT_RE.match(line)):
            if not saw_data:
                raise ArpaError("ngram count before \\data\\", str(path), lineno)
            declared[int(count_match.group(1))] = int(count_match.group(2))
            continue
        if line[0] == "\\" and (section_match := _SECTION_RE.match(line)):
            if not saw_data:
                raise ArpaError("section before \\data\\", str(path), lineno)
            section = int(section_match.group(1))
            if section != len(tables) + 1:
                raise ArpaError(
                    f"unexpected \\{section}-grams: section", str(path), lineno
                )
            if section not in declared:
                raise ArpaError(
                    f"\\{section}-grams: has no declared count", str(path), lineno
                )
            tables.append({})
            continue
        if section is None:
            raise ArpaError(f"unexpected line {line!r}", str(path), lineno)
        fields = line.split()
        if len(fields) not in (section + 1, section + 2):
            raise ArpaError(
                f"expected {section + 1} or {section + 2} fields, got {len(fields)}",
                str(path), lineno,
            )
        try:
            prob = float(fields[0])
            if math.isnan(prob):
                raise ValueError
        except ValueError:
            raise ArpaError(
                f"bad log10 probability {fields[0]!r}", str(path), lineno
            ) from None
        if prob > 0.0:
            raise ArpaError(
                f"positive log10 probability {prob}", str(path), lineno
            )
        backoff = 0.0
        if len(fields) == section + 2:
            try:
                backoff = float(fields[-1])
                if not math.isfinite(backoff):
                    raise ValueError
            except ValueError:
                raise ArpaError(
                    f"bad back-off weight {fields[-1]!r}", str(path), lineno
                ) from None
            words = tuple(fields[1:-1])
        else:
            words = tuple(fields[1:])
        if len(words) != section:
            raise ArpaError(
                f"expected a {section}-gram, got {len(words)} words",
                str(path), lineno,
            )
        tables[-1][words] = (prob, backoff)

    if not saw_data:
        raise ArpaError("missing \\data\\ header", str(path))
    if not saw_end:
        raise ArpaError("missing \\end\\ marker", str(path))
    if not tables:
        raise ArpaError("no n-gram sections", str(path))
    for n, count in declared.items():
        if n > len(tables):
            raise ArpaError(f"declared ngram {n}={count} but no \\{n}-grams: section",
                            str(path))
        if len(tables[n - 1]) != count:
            raise ArpaError(
                f"declared ngram {n}={count} but parsed {len(tables[n - 1])}",
                str(path),
            )
    for n in range(2, len(tables) + 1):
        for ngram in tables[n - 1]:
            if ngram[:-1] not in tables[n - 2]:
                raise ArpaError(
                    f"{n}-gram {' '.join(ngram)!r} has no {n - 1}-gram context entry",
                    str(path),
                )
    return NGramLM(tables)
