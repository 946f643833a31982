"""Keyword normalization between written and spoken form.

Raw keywords as they appear in a contact list or product catalog
("C3PO", "A&R", "IBM", "356") rarely match the lowercase word alphabet
a speech decoder emits.  This module expands each raw keyword into one
or more spoken-form variants (sequences of lowercase words), keeps the
raw <-> variant association in a NormalizationMapping, and inverts
matched spans of decoder output back to written form.

Expansion rules, applied in order:

1. split on whitespace, then on letter/digit/symbol class boundaries;
2. digit runs adjacent to letters are read digit by digit; standalone
   digit runs of up to four digits are read as a cardinal number, with
   a digit-by-digit variant also emitted;
3. symbols map to spoken words (& -> "and", + -> "plus", * -> "star",
   x between digits -> "by"); dashes and remaining punctuation are
   separators and disappear;
4. an all-uppercase run of two to four letters is read as an
   initialism (one word per letter); when the run is a whole keyword
   piece and is not vowels-only, a whole-word lowercase variant is
   emitted as well ("IBM" -> "i b m" and "ibm");
5. remaining tokens are lowercased, with ``İ`` read as ``I``;
6. internal case changes split compounds ("CamelCase" -> "camel case").

Every emitted word stays inside the lowercase spoken alphabet; a raw
keyword whose expansion is empty is rejected.
"""

from __future__ import annotations

import itertools
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .errors import NormalizationError, as_integer, as_weight, read_lines, write_text

logger = logging.getLogger(__name__)

Variant = tuple[str, ...]

# Cross products of per-piece readings are capped so pathological
# inputs (long digit lists) cannot explode the variant set.
VARIANT_CAP = 8

_ONES = [
    "zero", "one", "two", "three", "four", "five", "six", "seven",
    "eight", "nine", "ten", "eleven", "twelve", "thirteen", "fourteen",
    "fifteen", "sixteen", "seventeen", "eighteen", "nineteen",
]
_TENS = [
    "", "", "twenty", "thirty", "forty", "fifty", "sixty", "seventy",
    "eighty", "ninety",
]
_SYMBOL_WORDS = {"&": "and", "+": "plus", "*": "star"}
_VOWELS = frozenset("aeiou")


def digit_words(run: str) -> list[str]:
    """Read a digit string one digit at a time ("356" -> three five six)."""
    return [_ONES[int(ch)] for ch in run]


def cardinal_words(n: int) -> list[str]:
    """Spell a cardinal in the range 0..9999 as a list of words.

    No hyphens and no "and": 356 -> ["three", "hundred", "fifty", "six"].
    """
    if not 0 <= n <= 9999:
        raise ValueError(f"cardinal out of range: {n}")
    if n == 0:
        return ["zero"]
    words: list[str] = []
    thousands, rest = divmod(n, 1000)
    if thousands:
        words += [_ONES[thousands], "thousand"]
    hundreds, rest = divmod(rest, 100)
    if hundreds:
        words += [_ONES[hundreds], "hundred"]
    if rest >= 20:
        tens, ones = divmod(rest, 10)
        words.append(_TENS[tens])
        if ones:
            words.append(_ONES[ones])
    elif rest:
        words.append(_ONES[rest])
    return words


def is_spoken_word(word: str) -> bool:
    """True when a word is inside the normalized (lowercase) alphabet.

    ASCII input reduces to [a-z]+; non-ASCII alphabetic characters pass
    through lowercased rather than being transliterated.
    """
    return bool(word) and word.isalpha() and word == word.lower()


# --- raw keyword segmentation -------------------------------------------

# Segment kinds: "U" uppercase run, "w" lowercase/caseless word run,
# "D" ASCII digit run, "S" symbol run.


def _classify(ch: str) -> str:
    if "0" <= ch <= "9":
        return "D"
    if ch.isalpha():
        return "U" if ch.isupper() else "w"
    return "S"


# _classify of every ASCII character: an ASCII run's kind is its last one's.
_ASCII_KIND = {chr(code): _classify(chr(code)) for code in range(128)}

# An ASCII character of each kind, standing in for any character of it.
_STAND_IN = {"U": "A", "w": "a", "D": "0", "S": "-"}

# One ASCII run per match.  The alternatives hold the case boundary, the
# only place it is written: an uppercase run followed by lowercase gives
# its last letter to the next word ("HTMLParser" -> HTML + Parser,
# "Camel" stays one).
_ASCII_RUN = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+|[^A-Za-z0-9]+")


def _segment_piece(piece: str) -> list[tuple[str, str]]:
    """The ``(kind, text)`` runs of a piece, cut by ``_ASCII_RUN``.

    A non-ASCII piece is cut where its ASCII stand-in is: each character
    replaced by ``_STAND_IN`` of its ``_classify`` kind.  Its runs join
    back into the piece with ``İ`` (U+0130) read as ``I``, the one letter
    whose ``lower()`` leaves the spoken alphabet (``i`` and a combining
    dot above).
    """
    if piece.isascii():
        return [(_ASCII_KIND[run[-1]], run) for run in _ASCII_RUN.findall(piece)]
    piece = piece.replace("\u0130", "I")
    runs = _ASCII_RUN.findall("".join(_STAND_IN[_classify(ch)] for ch in piece))
    ends = itertools.accumulate(map(len, runs))
    return [(_ASCII_KIND[run[-1]], piece[end - len(run):end]) for run, end in zip(runs, ends)]


def _run_readings(runs: list[tuple[str, str]], idx: int) -> list[Variant]:
    """Distinct spoken readings of one run, primary reading first.

    There are at most two, so a one-run piece's readings are its variants.
    """
    kind, text = runs[idx]
    # A lone x between digit runs ("3x4", "3X4") is the dimension separator.
    if text in ("x", "X") and 0 < idx < len(runs) - 1 and (
        runs[idx - 1][0] == runs[idx + 1][0] == "D"
    ):
        return [("by",)]
    whole_piece = len(runs) == 1
    if kind == "w":
        return [(text.lower(),)]
    if kind == "U":
        if len(text) == 1:
            return [(text.lower(),)]
        if 2 <= len(text) <= 4:
            letters = tuple(map(str.lower, text))
            vowels_only = _VOWELS.issuperset(text.lower())
            if whole_piece and not vowels_only:
                return [letters, (text.lower(),)]
            return [letters]
        return [(text.lower(),)]
    if kind == "D":
        if whole_piece and len(text) <= 4 and (len(text) == 1 or text[0] != "0"):
            cardinal, digits = tuple(cardinal_words(int(text))), tuple(digit_words(text))
            return [cardinal] if cardinal == digits else [cardinal, digits]
        return [tuple(digit_words(text))]
    # Symbol run: keep the speakable symbols, drop the rest.
    return [tuple(_SYMBOL_WORDS[ch] for ch in text if ch in _SYMBOL_WORDS)]


def _capped_product(parts: Sequence[Sequence[Sequence[str]]]) -> list[Variant]:
    """Distinct concatenations of one reading per part, in product order.

    At most VARIANT_CAP results, from at most VARIANT_CAP**2 combinations.
    """
    # The same result without the product: one combination.
    if all(len(part) == 1 for part in parts):
        return [tuple(itertools.chain.from_iterable(part[0] for part in parts))]
    results: list[Variant] = []
    seen: set[Variant] = set()
    for combo in itertools.islice(itertools.product(*parts), VARIANT_CAP * VARIANT_CAP):
        flat = tuple(itertools.chain.from_iterable(combo))
        if flat not in seen:
            seen.add(flat)
            results.append(flat)
        if len(results) >= VARIANT_CAP:
            break
    return results


def _piece_readings(piece: str) -> list[Variant]:
    runs = _segment_piece(piece)
    if len(runs) == 1:
        return _run_readings(runs, 0)
    return _capped_product([_run_readings(runs, i) for i in range(len(runs))])


def normalize_keyword(
    raw: str,
    exceptions: Mapping[str, Sequence[Sequence[str]]] | None = None,
) -> list[Variant]:
    """Expand a raw keyword into spoken-form variants.

    Returns a non-empty, duplicate-free list of word tuples; the first
    variant is the primary reading.  Entries found in ``exceptions``
    bypass the rules and use the table's variants verbatim.

    Raises NormalizationError when the keyword normalizes to nothing.
    """
    key = raw.strip()
    if not key:
        raise NormalizationError("empty keyword")
    if exceptions is not None and key in exceptions:
        # A variant listed twice is one variant.
        variants = list(dict.fromkeys(tuple(v) for v in exceptions[key]))
        if not variants or any(not v for v in variants):
            raise NormalizationError(f"exception entry for {key!r} is empty")
        for variant in variants:
            for word in variant:
                if not is_spoken_word(word):
                    raise NormalizationError(
                        f"exception entry for {key!r} has word {word!r} "
                        "outside the spoken alphabet"
                    )
        return variants

    pieces = [_piece_readings(piece) for piece in key.split()]
    # One piece's readings are distinct and capped: they are its product.
    variants = pieces[0] if len(pieces) == 1 else _capped_product(pieces)
    # Only a keyword whose every piece reads as nothing yields the empty
    # variant, and then it is the sole one.
    if not variants[0]:
        raise NormalizationError(f"keyword {key!r} normalizes to nothing")
    return variants


# --- mapping -------------------------------------------------------------


@dataclass
class KeywordEntry:
    """One biasing target: raw written form plus its spoken variants.

    raw       -- written form, returned by inverse normalization
    variants  -- spoken-form word tuples over the lowercase alphabet
    weight    -- per-entry boost (natural-log score) or None for the
                 run default
    priority  -- collision tie-break for inverse normalization; lower
                 wins
    """

    raw: str
    variants: tuple[Variant, ...]
    weight: float | None = None
    priority: int = 0


@dataclass(frozen=True)
class CollisionRecord:
    """Two entries normalized to the same variant; one owns it now."""

    variant: Variant
    winner: str
    losers: tuple[str, ...]


# Word-trie nodes map each next word to a child node, and _END to the
# raw form of the entry owning the variant that ends there.
_END = None


@dataclass(frozen=True)
class KeywordMatch:
    """A full variant occurrence: words[start:end] belongs to entry ``raw``."""

    start: int
    end: int
    raw: str


@dataclass
class NormalizationMapping:
    """Keyword entries plus the reverse variant -> entry index.

    The reverse index is what inverse normalization and match reporting
    consult, so collisions (two raws sharing a spoken variant) are
    resolved once at build time: lowest priority wins, then the longest
    raw form, then the lexicographically smallest raw form.  A word
    trie over ``reverse``, built on construction, backs ``find_spans``,
    the one matcher behind inverse normalization and keyword matches.
    """

    entries: list[KeywordEntry] = field(default_factory=list)
    reverse: dict[Variant, KeywordEntry] = field(default_factory=dict)
    collisions: list[CollisionRecord] = field(default_factory=list)
    _trie: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._trie = {}
        for variant, entry in self.reverse.items():
            node = self._trie
            for word in variant:
                node = node.setdefault(word, {})
            node[_END] = entry.raw

    def find_spans(self, words: Sequence[str]) -> list[KeywordMatch]:
        """Leftmost-longest non-overlapping variant occurrences.

        Scans left to right taking the longest variant that starts at
        each position, and names each match by its owning entry's raw.
        """
        matches: list[KeywordMatch] = []
        i, n = 0, len(words)
        while i < n:
            node, j, end = self._trie, i, 0
            while j < n and (node := node.get(words[j])) is not None:
                j += 1
                if _END in node:
                    end, raw = j, node[_END]
            if end:
                matches.append(KeywordMatch(i, end, raw))
                i = end
            else:
                i += 1
        return matches


def _claim_rank(entry: KeywordEntry) -> tuple[int, int, str]:
    return (entry.priority, -len(entry.raw), entry.raw)


def _assemble_mapping(
    keywords: Iterable[str | tuple], spell: Callable[[str], list[Variant]]
) -> NormalizationMapping:
    """The mapping of a keyword list whose raws ``spell`` turns into variants.

    The one keyword item rule: a raw string, or a (raw, weight, priority)
    triple whose weight may be None.  Raws must be unique and not blank.
    """
    if isinstance(keywords, (str, Path)):  # a file is load_keyword_list's to read
        raise NormalizationError(f"keywords must be a list of items, got {keywords!r}")
    entries: dict[str, KeywordEntry] = {}
    # Each variant's first claimant, and all claimants of a shared variant.
    reverse: dict[Variant, KeywordEntry] = {}
    shared: dict[Variant, list[KeywordEntry]] = {}
    for item in keywords:
        match item:
            case str():
                raw, weight, priority = item, None, 0
            case (str() as raw, weight, priority):
                try:
                    if weight is not None:
                        weight = as_weight(weight, error=ValueError)
                    priority = as_integer(priority, "keyword priority", ValueError)
                except ValueError as exc:
                    raise NormalizationError(f"keyword {raw!r}: {exc}") from None
            case _:
                raise NormalizationError(
                    f"keyword item {item!r} is not a string or a "
                    "(raw, weight, priority) triple with a string raw"
                )
        raw = raw.strip()
        if not raw:
            raise NormalizationError("empty keyword")
        entry = KeywordEntry(raw, tuple(spell(raw)), weight, priority)
        if raw in entries:
            raise NormalizationError(f"duplicate keyword {raw!r}")
        # The review file save_mapping writes keeps one tab-separated line
        # per variant; str.splitlines also breaks at \r, \u2028 and more.
        if "\t" in raw or len(raw.splitlines()) > 1:
            raise NormalizationError(f"keyword {raw!r} contains a tab or line break")
        entries[raw] = entry
        for variant in entry.variants:
            if variant in reverse:
                shared.setdefault(variant, [reverse[variant]]).append(entry)
            else:
                reverse[variant] = entry

    reverse = {variant: reverse[variant] for variant in sorted(reverse)}
    collisions: list[CollisionRecord] = []
    for variant in sorted(shared):
        claimants = shared[variant]
        winner = reverse[variant] = min(claimants, key=_claim_rank)
        losers = tuple(sorted(e.raw for e in claimants if e is not winner))
        collisions.append(CollisionRecord(variant, winner.raw, losers))
        logger.warning(
            "variant %s claimed by %s; kept %r, dropped %s",
            " ".join(variant), len(claimants), winner.raw, ", ".join(losers),
        )
    return NormalizationMapping(list(entries.values()), reverse, collisions)


def build_mapping(
    keywords: Iterable[str | tuple],
    exceptions: Mapping[str, Sequence[Sequence[str]]] | None = None,
) -> NormalizationMapping:
    """Normalize a keyword list into a NormalizationMapping.

    ``keywords`` holds raw strings or (raw, weight, priority) triples.
    Duplicate raws are rejected.
    """
    return _assemble_mapping(keywords, lambda raw: normalize_keyword(raw, exceptions))


def raw_target_mapping(keywords: Iterable[str | tuple]) -> NormalizationMapping:
    """Identity mapping that skips normalization entirely.

    Each raw keyword becomes its own single variant, split on
    whitespace but otherwise verbatim (case, digits and symbols kept).
    Useful as the degraded comparison arm when measuring what
    normalization buys: out-of-alphabet targets can never match
    decoder output, so boosting them changes nothing.
    """
    return _assemble_mapping(keywords, lambda raw: [tuple(raw.split())])


# --- inverse normalization -----------------------------------------------


def inverse_normalize(
    words: Sequence[str], mapping: NormalizationMapping
) -> tuple[str, list[KeywordMatch]]:
    """Map spoken-form words back to written form.

    Each match ``mapping.find_spans`` finds is replaced by its raw form
    and everything else passes through; the matches are returned too.
    """
    out: list[str] = []
    matches = mapping.find_spans(words)
    i = 0
    for m in matches:
        out.extend(words[i:m.start])
        out.append(m.raw)
        i = m.end
    out.extend(words[i:])
    return " ".join(out), matches


# --- file formats ---------------------------------------------------------


def load_keyword_list(path: str | Path) -> list[tuple[str, float | None, int]]:
    """Read a keyword list file: ``raw<TAB>weight?<TAB>priority?``.

    Blank lines and lines starting with ``#`` are skipped.  A weight
    must be finite and >= 0, like ``--boost-weight``.  A line with more
    than three fields is rejected.
    """

    def parse(line: str) -> tuple[str, float | None, int]:
        fields = line.split("\t")
        if len(fields) > 3:
            raise ValueError("expected at most 3 tab-separated fields")
        raw = fields[0].strip()
        if not raw:
            raise ValueError("missing keyword")
        weight = None
        if len(fields) > 1 and fields[1].strip():
            weight = as_weight(float(fields[1]), error=ValueError)
        priority = int(fields[2]) if len(fields) > 2 and fields[2].strip() else 0
        return raw, weight, priority

    return read_lines(Path(path), parse, comments=True)


def load_exceptions(path: str | Path) -> dict[str, list[list[str]]]:
    """Read a normalization exceptions file.

    Same TSV shape as a saved mapping: ``raw<TAB>variant words`` with
    one line per variant; weight/priority columns are tolerated and
    ignored (the keyword list stays authoritative for those).
    """
    table: dict[str, list[list[str]]] = {}

    def parse(line: str) -> None:
        fields = line.split("\t")
        if len(fields) < 2 or not fields[0].strip() or not fields[1].strip():
            raise ValueError("expected raw<TAB>variant")
        table.setdefault(fields[0].strip(), []).append(fields[1].split())

    read_lines(Path(path), parse, comments=True)
    return table


def save_mapping(mapping: NormalizationMapping, path: str | Path) -> None:
    """Write a mapping for review as TSV: raw, space-joined variant,
    weight, priority, one line per variant.  Nothing reads it back.
    """
    lines = []
    for entry in mapping.entries:
        weight = "" if entry.weight is None else repr(entry.weight)
        for variant in entry.variants:
            lines.append(
                f"{entry.raw}\t{' '.join(variant)}\t{weight}\t{entry.priority}"
            )
    write_text(Path(path), "".join(line + "\n" for line in lines))
