"""Exhaustive CTC marginalization used as the decoder's reference.

Enumerates every frame-level path, collapses it (merge repeats, drop
blanks), and sums path probabilities per collapsed label sequence.
The path table for a given (frames, vocabulary, blank) shape is cached
because it does not depend on the logit values.  ``detokenize`` turns
a label sequence into the words the decoder should report for it.
"""

from functools import lru_cache

import numpy as np


def collapse(path, blank):
    """Collapse one frame-level path to its emitted token sequence."""
    out = []
    prev = None
    for tid in path:
        if tid != prev and tid != blank:
            out.append(tid)
        prev = tid
    return tuple(out)


def detokenize(vocab, token_ids):
    """Detokenize a collapsed token sequence into words."""
    committed = []
    pending = ""
    for tid in token_ids:
        if tid == vocab.blank_index:
            continue
        starts_word, text = vocab.spelling[tid]
        if not starts_word:
            pending += text
            continue
        if pending:
            committed.append(pending)
        pending = text
    if pending:
        committed.append(pending)
    return committed


@lru_cache(maxsize=None)
def _path_table(num_frames, num_tokens, blank):
    grids = np.meshgrid(*([np.arange(num_tokens)] * num_frames), indexing="ij")
    paths = np.stack([g.ravel() for g in grids], axis=1)
    keys = [collapse(path, blank) for path in paths.tolist()]
    order = sorted(range(len(keys)), key=lambda n: keys[n])
    sorted_keys = [keys[n] for n in order]
    starts = [0] + [
        n for n in range(1, len(order)) if sorted_keys[n] != sorted_keys[n - 1]
    ]
    unique = [sorted_keys[s] for s in starts]
    return paths, np.asarray(order), np.asarray(starts), unique


def exhaustive_scores(logits, blank):
    """Label sequence -> natural-log total path mass, by enumeration."""
    logits = np.asarray(logits, dtype=np.float64)
    num_frames, num_tokens = logits.shape
    paths, order, starts, unique = _path_table(num_frames, num_tokens, blank)
    path_logps = logits[np.arange(num_frames)[None, :], paths].sum(axis=1)
    masses = np.logaddexp.reduceat(path_logps[order], starts)
    return dict(zip(unique, (float(m) for m in masses)))


def top_two(scores):
    """(best_key, best_mass, runner_up_mass) under plain mass ordering."""
    ranked = sorted(scores.items(), key=lambda item: -item[1])
    best_key, best_mass = ranked[0]
    runner_up = ranked[1][1] if len(ranked) > 1 else float("-inf")
    return best_key, best_mass, runner_up
