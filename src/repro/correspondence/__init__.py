"""Value correspondences and their lazy best-first enumeration (Section 4.2)."""

from repro.correspondence.enumerator import (
    FactoredVcEnumerator,
    ValueCorrespondenceEnumerator,
    VcCandidate,
    VcEnumerationError,
    compatible_targets,
)
from repro.correspondence.similarity import DEFAULT_ALPHA, levenshtein, name_similarity, normalized_similarity
from repro.correspondence.value_corr import ValueCorrespondence, identity_correspondence

__all__ = [
    "DEFAULT_ALPHA",
    "FactoredVcEnumerator",
    "ValueCorrespondence",
    "ValueCorrespondenceEnumerator",
    "VcCandidate",
    "VcEnumerationError",
    "compatible_targets",
    "identity_correspondence",
    "levenshtein",
    "name_similarity",
    "normalized_similarity",
]
