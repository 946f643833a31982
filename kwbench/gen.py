"""Seeded input generators for the kwboost benchmark.

Everything here is a pure function of its arguments: the same seed writes
the same bytes.  Symbolic choices use ``random.Random`` and logit jitter
uses ``numpy.random.default_rng``, both seeded once per call.

Two input families are made:

* a spelled, delimiter-vocabulary corpus (``<blank>``, ``|``, ``a``-``z``)
  with a bigram ARPA and a keyword list of thousands of entries, for the
  ``decode-long`` and ``stream-chunks`` workloads;
* a word-level fixture spec for ``kwboost.fixtures.make_fixtures`` (prefix
  convention), for the ``tune-grid`` workload.

The char corpus gives every decode decision a wide score margin, so its
error rates are fixed by construction rather than by the seed.  Each
case below yields exactly one error or none:

* ``sub``: the audio spells a real LM word, the one-vowel "twin" of the
  reference word, and the reference vowel is below the token floor, so
  the twin is certain (one unbiased substitution);
* ``lost``: a keyword occurrence whose audio spells an ordinary word
  (one biased substitution);
* ``fixed``: a vowel frame leans towards the twin's vowel, but the LM
  prefers the reference word by several nats (no error);
* ``trap``: a tempting single-letter frame between two words, rejected
  by the LM (no error).

Every char frame has exactly ``CANDIDATES`` non-blank tokens above the
decoder's default token floor (ln 1e-4), so candidates per frame is an
input property the benchmark controls rather than one it samples.
"""

from __future__ import annotations

import json
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

LETTERS = "abcdefghijklmnopqrstuvwxyz"
CONSONANTS = "bcdfghjklmnprstvz"
VOWELS = "aeiou"
CHAR_TOKENS = ("<blank>", "|") + tuple(LETTERS)

CANDIDATES = 4
_OFF = 1e-6  # every non-candidate token: ln 1e-6 = -13.8, below the floor
_TARGET = 0.95
_DISTRACTOR = 0.005  # ln 0.005 = -5.3, above the floor
_LETTER_BLANK = 0.005  # dropping a letter costs about 5 nats
_DELIM_BLANK = 0.0002  # skipping a delimiter costs about 8.5 nats

# Unigram log10 probabilities around the default rarity gate (-4.0).
_COMMON_LETTER, _RARE_LETTER = -3.3, -5.5
_COMMON_KW_WORD, _RARE_KW_WORD = -3.6, -5.8
_TWIN = -5.5
_SUCCESSORS = 6
_BIGRAM = math.log10(0.12)
_BACKOFF = math.log10(0.28)

# Case schedule: counters run across the whole manifest so the share of
# each case does not depend on the seed.
_KEYWORD_EVERY = 4  # a keyword after every 3 ordinary words
_LOST_EVERY = 4  # every 4th keyword occurrence is lost
_SUB_AT, _FIXED_AT, _WORD_CYCLE = 4, 8, 10
_TRAP_EVERY = 7  # every 7th item may be preceded by a trap frame

SpokenForms = Callable[[str], Sequence[Sequence[str]]]


def _pseudo_word(rng: random.Random, pattern: str) -> str:
    return "".join(
        rng.choice(CONSONANTS if slot == "C" else VOWELS) for slot in pattern
    )


def make_keywords(rng: random.Random, count: int, reserved: set[str]) -> list[str]:
    """Raw keywords cycling initialisms, letter-digit codes, numbers, names.

    Raws in ``reserved`` are never produced.  Names are three
    consonant-vowel syllables, so they can equal neither the whole-word
    reading of an initialism (at most four letters) nor an ordinary corpus
    word (consonant-vowel-consonant-vowel-consonant).
    """
    seen = set(reserved)
    out: list[str] = []
    upper = LETTERS.upper()
    while len(out) < count:
        kind = len(out) % 4
        if kind == 0:
            raw = "".join(rng.choice(upper) for _ in range(rng.randint(2, 4)))
        elif kind == 1:
            shape = rng.choice(("LD", "LDL", "LDLD", "LLD", "DL", "LDD"))
            raw = "".join(
                rng.choice(upper) if s == "L" else str(rng.randint(1, 9))
                for s in shape
            )
        elif kind == 2:
            raw = str(rng.randint(1, 9999))
        else:
            raw = _pseudo_word(rng, "CVCVCV").capitalize()
        if raw not in seen:
            seen.add(raw)
            out.append(raw)
    return out


def read_keyword_raws(path: Path) -> list[str]:
    """Raw forms of a keyword list file; weights and priorities are dropped."""
    raws = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            raws.append(line.split("\t")[0].strip())
    return raws


def write_ctcl(path: Path, data: np.ndarray) -> None:
    """Write a T x V log-probability matrix in the toolkit's CTCL format."""
    frames = np.ascontiguousarray(data, dtype="<f4")
    header = struct.pack("<4sIII", b"CTCL", 1, frames.shape[0], frames.shape[1])
    path.write_bytes(header + frames.tobytes())


def write_arpa(
    path: Path, unigram: dict[str, float], successors: dict[str, list[str]]
) -> None:
    """Bigram ARPA: fixed bigram mass per listed successor, fixed back-off."""
    uni_lines = []
    for word in sorted(unigram):
        backoff = f"\t{_BACKOFF:.4f}" if word in successors else ""
        uni_lines.append(f"{unigram[word]:.4f}\t{word}{backoff}\n")
    bi_lines = [
        f"{_BIGRAM:.4f}\t{word} {nxt}\n"
        for word in sorted(successors)
        for nxt in successors[word]
    ]
    path.write_text(
        "\\data\\\n"
        f"ngram 1={len(uni_lines)}\n"
        f"ngram 2={len(bi_lines)}\n\n"
        "\\1-grams:\n" + "".join(uni_lines) + "\n"
        "\\2-grams:\n" + "".join(bi_lines) + "\n"
        "\\end\\\n",
        encoding="utf-8",
    )


class _Frames:
    """Frame rows; each has exactly CANDIDATES non-blank tokens above the floor."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.index = {tok: i for i, tok in enumerate(CHAR_TOKENS)}
        self.rows: list[np.ndarray] = []

    def _row(self, blank: float, claimed: dict[str, float], avoid: str = "") -> None:
        probs = np.full(len(CHAR_TOKENS), _OFF)
        probs[0] = blank
        for tok, mass in claimed.items():
            probs[self.index[tok]] = mass
        pool = [ch for ch in LETTERS if ch not in claimed and ch not in avoid]
        picks = sorted(self.rng.choice(len(pool), CANDIDATES - len(claimed), replace=False))
        for k, share in zip(picks, self.rng.uniform(0.6, 1.4, len(picks))):
            probs[self.index[pool[k]]] = _DISTRACTOR * share
        self.rows.append(probs / probs.sum())

    def spell(self, word: str, avoid: dict[int, str] | None = None,
              lean: tuple[int, str] | None = None) -> None:
        """Letter frames, blank frames between repeats, then a delimiter."""
        prev = ""
        for i, ch in enumerate(word):
            if ch == prev:
                self._row(_TARGET, {})
            if lean is not None and lean[0] == i:
                self._row(0.03, {ch: 0.40, lean[1]: 0.55})
            else:
                self._row(_LETTER_BLANK, {ch: _TARGET}, (avoid or {}).get(i, ""))
            prev = ch
        self._row(_DELIM_BLANK, {"|": _TARGET})

    def trap(self, ch: str) -> None:
        self._row(0.40, {ch: 0.55})
        self._row(_DELIM_BLANK, {"|": _TARGET})

    def pad(self, length: int) -> None:
        while len(self.rows) < length:
            self._row(_TARGET, {})


def _frames_for(words: Sequence[str]) -> int:
    return sum(
        len(w) + 1 + sum(1 for a, b in zip(w, w[1:]) if a == b) for w in words
    )


@dataclass
class CharInputs:
    manifest: Path
    vocab: Path
    lm: Path
    keywords: Path
    # "total" and "per_utterance" counts of words, keywords and each case.
    cases: dict[str, dict]


def make_char_inputs(
    out_dir: Path,
    seed: int,
    lengths: Sequence[int],
    bundled: Sequence[str],
    n_keywords: int,
    spoken_forms: SpokenForms,
    n_lexicon: int = 1500,
) -> CharInputs:
    """Write vocab, bigram ARPA, keyword list and a char-level manifest.

    ``bundled`` raws head the keyword list; generated ones fill it to
    ``n_keywords``.  ``spoken_forms(raw)`` returns a keyword's spoken
    variants: the LM covers every word in them and corpus occurrences
    are spoken as the first.  One utterance is made per entry of
    ``lengths``, padded with blank frames to exactly that many frames.
    """
    rng = random.Random(seed)
    frames_rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "logits").mkdir(exist_ok=True)

    generated = make_keywords(rng, n_keywords - len(bundled), set(bundled))
    raws = list(bundled) + generated
    variants = {raw: [tuple(v) for v in spoken_forms(raw)] for raw in raws}
    keyword_words = sorted({w for vs in variants.values() for v in vs for w in v})

    lexicon: list[str] = []
    twins: dict[str, tuple[str, int]] = {}
    taken = set(keyword_words)
    while len(lexicon) < n_lexicon:
        word = _pseudo_word(rng, "CVCVC")
        pos = rng.choice((1, 3))
        twin = word[:pos] + rng.choice([v for v in VOWELS if v != word[pos]]) + word[pos + 1:]
        if word in taken or twin in taken:
            continue
        taken.update((word, twin))
        lexicon.append(word)
        twins[word] = (twin, pos)

    zipf = [1.0 / (rank + 20) for rank in range(n_lexicon)]
    scale = 0.9 / sum(zipf)
    unigram = {w: math.log10(z * scale) for w, z in zip(lexicon, zipf)}
    unigram.update({twins[w][0]: _TWIN for w in lexicon})
    # Words of multi-word variants (letters, number words) straddle the
    # gate.  A word seen only as a whole variant ("ibm", names) stays rare:
    # were "wo" common, "w | o" could merge into it.
    in_phrases = {w for vs in variants.values() for v in vs if len(v) > 1 for w in v}
    shuffled = list(keyword_words)
    rng.shuffle(shuffled)
    for k, word in enumerate(shuffled):
        if word not in in_phrases:
            unigram[word] = _RARE_KW_WORD
        elif len(word) == 1:
            unigram[word] = _COMMON_LETTER if k % 2 else _RARE_LETTER
        else:
            unigram[word] = _COMMON_KW_WORD if k % 3 == 0 else _RARE_KW_WORD
    successors: dict[str, list[str]] = {}
    for word in lexicon:
        succ: list[str] = []
        while len(succ) < _SUCCESSORS:
            cand = rng.choices(lexicon, weights=zipf)[0]
            if cand != word and cand not in succ:
                succ.append(cand)
        successors[word] = succ

    lm_path = out_dir / "lm.arpa"
    write_arpa(lm_path, unigram, successors)
    vocab_path = out_dir / "vocab.txt"
    vocab_path.write_text(
        "#blank=0\n#boundary=delimiter:|\n" + "".join(t + "\n" for t in CHAR_TOKENS),
        encoding="utf-8",
    )
    kw_path = out_dir / "keywords.txt"
    kw_path.write_text("".join(raw + "\n" for raw in raws), encoding="utf-8")

    letters = [w for w in keyword_words if len(w) == 1]
    counters = dict.fromkeys(("item", "word", "keyword"), 0)
    total = dict.fromkeys(("words", "keywords", "sub", "lost", "fixed", "trap"), 0)
    per_utterance: dict[str, dict[str, int]] = {}
    records = []
    for n, length in enumerate(lengths):
        utt_id = f"c{n:02d}_{length}"
        cases = per_utterance[utt_id] = dict.fromkeys(total, 0)
        frames = _Frames(frames_rng)
        reference: list[str] = []
        word = rng.choices(lexicon, weights=zipf)[0]
        previous_ordinary = False
        while True:
            is_keyword = counters["item"] % _KEYWORD_EVERY == _KEYWORD_EVERY - 1
            # Traps sit only between two ordinary words, so an inserted
            # letter can never extend a keyword match.
            trap = (
                counters["item"] % _TRAP_EVERY == _TRAP_EVERY - 1
                and previous_ordinary and not is_keyword
            )
            if is_keyword:
                raw = rng.choice(generated)
                lost = counters["keyword"] % _LOST_EVERY == _LOST_EVERY - 1
                spoken = [rng.choices(lexicon, weights=zipf)[0]] if lost else list(variants[raw][0])
            else:
                step = counters["word"] % _WORD_CYCLE
                spoken = [twins[word][0] if step == _SUB_AT else word]
            if len(frames.rows) + _frames_for(spoken) + 2 * bool(trap) > length:
                break
            if trap:
                frames.trap(rng.choice(letters))
                cases["trap"] += 1
            counters["item"] += 1
            if is_keyword:
                for w in spoken:
                    frames.spell(w)
                reference.append(raw)
                counters["keyword"] += 1
                cases["keywords"] += 1
                cases["lost"] += lost
                word = rng.choices(lexicon, weights=zipf)[0]
                previous_ordinary = False
                continue
            twin, pos = twins[word]
            if step == _SUB_AT:
                frames.spell(twin, avoid={pos: word[pos]})
                cases["sub"] += 1
            elif step == _FIXED_AT:
                frames.spell(word, lean=(pos, twin[pos]))
                cases["fixed"] += 1
            else:
                frames.spell(word, avoid={pos: twin[pos]})
            reference.append(word)
            counters["word"] += 1
            cases["words"] += 1
            previous_ordinary = True
            word = rng.choice(successors[word])
        frames.pad(length)
        for key, count in cases.items():
            total[key] += count
        rel = f"logits/{utt_id}.ctcl"
        write_ctcl(out_dir / rel, np.log(np.stack(frames.rows)))
        records.append({"id": utt_id, "logits": rel, "reference": " ".join(reference)})
    manifest = out_dir / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return CharInputs(
        manifest, vocab_path, lm_path, kw_path,
        {"total": total, "per_utterance": per_utterance},
    )


# --- word-level tuning corpus --------------------------------------------------

# Templates over the demo keyword list (AI, C3PO, 356, IBM, E9).  "F<n>"
# is the n-th filler word drawn for the utterance; every other field is
# fixed, so which keywords a boost weight recovers or over-boosts does
# not depend on the seed.  The last two templates hold one error that no
# weight can fix (a keyword heard as a filler word, and one filler heard
# as another), so every rate stays above zero at the selected weight.
# Fields: spoken text, reference text, confidences, confusions (word,
# alt, prob), traps (after, alt, prob, count).
_TUNE_TEMPLATES = (
    ("F0 F1 a i F2", "F0 F1 AI F2", [0.9, 0.9, 0.42, 0.42, 0.9], [], [(3, "e", 0.3, 2)]),
    ("c three p o F0", "C3PO F0", [0.5, 0.35, 0.5, 0.5, 0.9],
     [("three", "tree", 0.45)], []),
    ("F0 F1 F2 F3", "F0 F1 F2 F3", [0.97] * 4, [], []),
    ("F0 three hundred fifty six F1", "F0 356 F1", [0.9, 0.6, 0.4, 0.6, 0.6, 0.9],
     [("hundred", "hunted", 0.5)], []),
    ("i b m F0 F1", "IBM F0 F1", [0.9, 0.4, 0.9, 0.9, 0.9], [("b", "be", 0.5)], []),
    ("F0 e nine F1", "F0 E9 F1", [0.9, 0.45, 0.5, 0.9], [("nine", "nein", 0.4)], []),
    ("F0 F1 F2", "F0 F1 F2", [0.9, 0.9, 0.9], [], [(1, "a", 0.35, 1)]),
    ("F0 i b m F1", "F0 IBM F1", [0.9, 0.6, 0.6, 0.6, 0.9], [], []),
    ("F0 F1 F2", "F0 IBM F2", [0.9, 0.9, 0.9], [], []),
    ("F0 F1 F2", "F0 F3 F2", [0.9, 0.9, 0.9], [], []),
)
_TUNE_RESERVED = {
    "a", "i", "c", "three", "p", "o", "hundred", "fifty", "six", "five",
    "b", "m", "ibm", "e", "nine", "tree", "hunted", "be", "nein",
}


def make_tune_spec(path: Path, seed: int, n_utterances: int) -> None:
    """Write a fixture spec (JSONL) cycling the tuning templates."""
    rng = random.Random(seed)
    fillers: list[str] = []
    while len(fillers) < 40:
        word = _pseudo_word(rng, rng.choice(("CVCV", "CVCVC")))
        if word not in _TUNE_RESERVED and word not in fillers:
            fillers.append(word)
    lines = []
    for n in range(n_utterances):
        spoken, reference, conf, confusions, traps = _TUNE_TEMPLATES[n % len(_TUNE_TEMPLATES)]
        picks = rng.sample(fillers, 4)

        def fill(text: str) -> str:
            return " ".join(
                picks[int(w[1:])] if w.startswith("F") and w[1:].isdigit() else w
                for w in text.split()
            )

        record = {
            "id": f"t{n:02d}",
            "text": fill(spoken),
            "reference": fill(reference),
            "confidence": conf,
            "confusions": [{"word": w, "alt": a, "prob": p} for w, a, p in confusions],
            "traps": [{"after": a, "alt": alt, "prob": p, "count": c}
                      for a, alt, p, c in traps],
        }
        lines.append(json.dumps(record) + "\n")
    path.write_text("".join(lines), encoding="utf-8")
