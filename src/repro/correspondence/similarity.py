"""Attribute-name similarity used to weight value-correspondence candidates.

The paper instantiates ``sim(a, a')`` as ``α − Levenshtein(a, a')`` for a
fixed constant ``α``.  We implement the standard Levenshtein edit distance
plus the derived similarity scores used by the MaxSAT encoding.
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

    The weight of the one-to-one preference clauses stays α, as in the paper.
    """
    a, b = left.lower(), right.lower()
    if a == b:
        return alpha
    if len(a) >= 3 and len(b) >= 3 and (a in b or b in a):
        return alpha - 1
    return alpha - 2 * _cached_levenshtein(a, b)


def normalized_similarity(left: str, right: str) -> float:
    """Edit similarity scaled to [0, 1]; useful for reporting and tests."""
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - _cached_levenshtein(left.lower(), right.lower()) / longest
