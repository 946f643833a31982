"""Back-off n-gram language model loaded from ARPA text.

The model serves two jobs: shallow fusion during decoding (queries must
stay finite, so unknown words get a fixed floor) and the rarity
gate for unigram boosting (out-of-vocabulary means -inf, which always
passes a "rarer than threshold" test).

The tables hold bare floats: a unigram is keyed by its word, a longer
n-gram by its word tuple, and only a line that lists a back-off weight
adds an entry to ``backoffs``.  Loading makes one key and one float per
line, and no (probability, back-off) pair.
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

    tables[0] maps each word to its log10 probability, and tables[k]
    for k >= 1 maps each (k+1)-word tuple to its log10 probability.
    backoffs maps the tuple of each n-gram whose line lists a log10
    back-off weight to that weight; any other n-gram's weight is 0.
    Queries condition on a context tuple that is truncated from the
    left to order-1 words.
    """

    def __init__(
        self,
        tables: Sequence[dict],
        backoffs: dict[tuple[str, ...], float] | None = None,
    ):
        if not tables or not tables[0]:
            raise ArpaError("model has no unigrams")
        self.tables = list(tables)
        self.backoffs = {} if backoffs is None else backoffs
        self.order = len(self.tables)

    def unigram_log10(self, word: str) -> float:
        """Unigram log10 probability; -inf when out of vocabulary."""
        return self.tables[0].get(word, NEG_INF)

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
        if not context:
            return self.tables[0].get(word, UNK_LOG10)
        prob = self.tables[len(context)].get(context + (word,))
        if prob is not None:
            return prob
        return self.backoffs.get(context, 0.0) + self._cond(word, context[1:])


def load_arpa(path: str | Path) -> NGramLM:
    """Parse an ARPA file; errors carry the offending line number.

    The ``ngram k=count`` lines follow ``\\data\\`` and come before the
    first section, one per order, each order at least 1.  Sections run
    ``\\1-grams:`` upward, and each must list exactly its declared count;
    the unigram section may not be empty.
    A data line is ``log10prob w1 .. wk [backoff]``: the probability is at
    most 0 (``-inf`` is allowed), a back-off weight is finite, no n-gram
    is listed twice, and every n-gram's context is listed one order down.
    """
    path = Path(path)

    def error(message: str, lineno: int | None = None) -> ArpaError:
        """``message`` located at ``<path>:<lineno>:``, or at ``<path>:``."""
        return ArpaError(f"{path}:{lineno}: {message}" if lineno else f"{path}: {message}")

    declared: dict[int, int] = {}
    tables: list[dict] = []
    backoffs: dict[tuple[str, ...], float] = {}
    section: int | None = None
    # Set at each section header: its table and the one an order down.
    table: dict
    context: dict | None
    saw_data = False
    saw_end = False

    for lineno, line in enumerate(read_text(path, ArpaError).split("\n"), 1):
        fields = line.split()
        if not fields:
            continue
        # Every header line starts with a backslash, so a data line inside
        # a section goes straight to the data path below.
        if section is None or fields[0][0] == "\\":
            line = line.strip()
            if line == "\\data\\":
                saw_data = True
                continue
            if line == "\\end\\":
                saw_end = True
                break
            # Counts come only before the first section.
            if section is None and (count_match := _COUNT_RE.match(line)):
                if not saw_data:
                    raise error("ngram count before \\data\\", lineno)
                order = int(count_match.group(1))
                if order < 1:
                    raise error(f"ngram order {order} is below 1", lineno)
                if order in declared:
                    raise error(f"second count line for ngram {order}", lineno)
                declared[order] = int(count_match.group(2))
                continue
            if line[0] == "\\" and (section_match := _SECTION_RE.match(line)):
                if not saw_data:
                    raise error("section before \\data\\", lineno)
                section = int(section_match.group(1))
                if section != len(tables) + 1:
                    raise error(f"unexpected \\{section}-grams: section", lineno)
                if section not in declared:
                    raise error(f"\\{section}-grams: has no declared count", lineno)
                # Sections come in order, so the table one order down is
                # complete: each n-gram's context is checked as it is read.
                context = tables[-1] if tables else None
                table = {}
                tables.append(table)
                continue
            if section is None:
                raise error(f"unexpected line {line!r}", lineno)
        # Beside the n-gram's words: its probability and maybe a back-off.
        extra = len(fields) - section
        if extra not in (1, 2):
            raise error(
                f"expected {section + 1} or {section + 2} fields, got {len(fields)}", lineno
            )
        try:
            prob = float(fields[0])
        except ValueError:
            prob = math.nan
        # One test for the common case: NaN and positive values both fail it.
        if not prob <= 0.0:
            if prob > 0.0:
                raise error(f"positive log10 probability {prob}", lineno)
            raise error(f"bad log10 probability {fields[0]!r}", lineno)
        if extra == 2:
            try:
                backoff = float(fields[-1])
                if not math.isfinite(backoff):
                    raise ValueError
            except ValueError:
                raise error(f"bad back-off weight {fields[-1]!r}", lineno) from None
        # A unigram is keyed by its word, a longer n-gram by its tuple.
        key = fields[1] if section == 1 else tuple(fields[1:section + 1])
        if table.setdefault(key, prob) is not prob:
            raise error(f"duplicate {section}-gram {' '.join(fields[1:section + 1])!r}", lineno)
        if extra == 2:
            backoffs[(key,) if section == 1 else key] = backoff
        # A bigram's context is its first word, a unigram table key.
        if context is not None and (fields[1] if section == 2 else key[:-1]) not in context:
            raise error(
                f"{section}-gram {' '.join(fields[1:section + 1])!r} has no "
                f"{section - 1}-gram context entry",
                lineno,
            )

    if not saw_data:
        raise error("missing \\data\\ header")
    if not saw_end:
        raise error("missing \\end\\ marker")
    if not tables:
        raise error("no n-gram sections")
    for n, count in declared.items():
        if n > len(tables):
            raise error(f"declared ngram {n}={count} but no \\{n}-grams: section")
        if len(tables[n - 1]) != count:
            raise error(f"declared ngram {n}={count} but parsed {len(tables[n - 1])}")
    if not tables[0]:
        raise error("model has no unigrams")
    return NGramLM(tables, backoffs)
