"""Attribute-name similarity used to weight value-correspondence candidates.

The paper instantiates ``sim(a, a')`` as ``α − Levenshtein(a, a')`` for a
fixed constant ``α``.  We implement the standard Levenshtein edit distance
plus the derived similarity scores used by the MaxSAT encoding.

:func:`similarity_bound` is the cheap half of :func:`name_similarity`: the
exact score of names that are equal or contain one another, and otherwise
an upper bound from their lengths.  The value-correspondence enumerator
ranks targets by it and computes an edit distance only for a target whose
bound can still reach the best score found so far.
"""

from __future__ import annotations

from functools import lru_cache


#: The fixed constant α of the paper's similarity metric (and the weight of
#: the one-to-one preference soft clauses).
DEFAULT_ALPHA = 8


def levenshtein(left: str, right: str) -> int:
    """The classic edit distance (insertions, deletions, substitutions).

    Bit-parallel (Myers 1999, in Hyyrö's 2001 edit-distance form): a column
    of the dynamic-programming matrix is held as two bit vectors of vertical
    +1/-1 deltas over the longer string, so each character of the shorter
    string costs a constant number of integer operations.  Python integers
    have no width limit, so strings of any length fit one vector; the score
    tracks the matrix's bottom row.
    """
    if left == right:
        return 0
    pattern, text = (left, right) if len(left) >= len(right) else (right, left)
    if not text:
        return len(pattern)
    masks: dict[str, int] = {}
    bit = 1
    for char in pattern:
        masks[char] = masks.get(char, 0) | bit
        bit <<= 1
    full = bit - 1
    last = bit >> 1
    plus, minus, score = full, 0, len(pattern)
    for char in text:
        match = masks.get(char, 0)
        vertical = match | minus
        horizontal = (((match & plus) + plus) ^ plus) | match
        up = minus | (~(horizontal | plus) & full)
        down = plus & horizontal
        if up & last:
            score += 1
        elif down & last:
            score -= 1
        # Row 0 of the matrix is 0, 1, 2, ...: shift in a +1 delta.
        up = (up << 1) | 1
        down <<= 1
        plus = (down | ~(vertical | up)) & full
        minus = up & vertical
    return score


@lru_cache(maxsize=65536)
def _cached_levenshtein(left: str, right: str) -> int:
    return levenshtein(left, right)


def similarity_bound(a: str, b: str, alpha: int = DEFAULT_ALPHA) -> tuple[int, bool]:
    """``(score, exact)`` for two *lower-cased* names, computing no edit distance.

    Equal names and names that contain one another get their exact
    :func:`name_similarity` score.  Otherwise the names differ, so they are
    at least one edit apart, and at least as many edits as their lengths
    differ: ``α − 2·max(1, |len(a) − len(b)|)`` bounds the score from above.
    The lengths are those of the lower-cased names, which are the names the
    distance is measured on (``"İ".lower()`` has two code points).
    """
    if a == b:
        return alpha, True
    left, right = len(a), len(b)
    if left >= 3 and right >= 3 and (a in b or b in a):
        return alpha - 1, True
    gap = left - right if left > right else right - left
    return alpha - 2 * (gap or 1), False


def name_similarity(left: str, right: str, alpha: int = DEFAULT_ALPHA) -> int:
    """Similarity score used by the value-correspondence encoding.

    The paper instantiates ``sim`` as ``α − Levenshtein``.  We keep that shape
    with two refinements that make the first enumerated correspondence match
    the intended one on realistic schemas:

    * the slope is 2 (``α − 2·Levenshtein``), so clearly unrelated names score
      negative and are not speculatively mapped;
    * if one name contains the other (the common rename pattern of adding a
      prefix or suffix, e.g. ``email`` → ``email_address``), the score is
      ``α − 1`` regardless of the edit distance.

    Names compare lower-cased.  The weight of the one-to-one preference
    clauses stays α, as in the paper.
    """
    a, b = left.lower(), right.lower()
    score, exact = similarity_bound(a, b, alpha)
    return score if exact else alpha - 2 * _cached_levenshtein(a, b)


def normalized_similarity(left: str, right: str) -> float:
    """Edit similarity of the lower-cased names, scaled to [0, 1]; for reporting and tests."""
    a, b = left.lower(), right.lower()
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - _cached_levenshtein(a, b) / longest
