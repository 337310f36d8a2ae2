"""The symbolic enumerative-search baseline (Table 3 of the paper).

This baseline uses exactly the same SAT encoding and testing machinery as
the MFI-based completer, but whenever a candidate fails it blocks *only that
candidate's complete model* — i.e. it performs enumerative search
symbolically, one program at a time.

Counterexample-pool screening (``repro.testing_cache``) applies unchanged:
it rides on the shared :class:`~repro.equivalence.tester.BoundedTester`, so
the baseline benefits from pooled failing inputs exactly like the MFI
completer while keeping its weaker (full-model) blocking.
"""

from __future__ import annotations

from repro.completion.solver import SketchCompleter


class EnumerativeCompleter(SketchCompleter):
    """Sketch completion without minimum-failing-input pruning.

    Everything, ``complete`` and its session interface included, is
    inherited from :class:`SketchCompleter`; only the blocking differs.
    """

    use_mfi = False
