"""Fresh unique values (UIDs) used by insert-into-join shorthand.

When an insertion targets a join chain ``T1 ⋈ T2`` the engine must fabricate
the linking key values (``UID0``, ``UID1`` ... in the paper's Figure 4).  We
model those with :class:`UniqueValue`, an opaque value that only compares
equal to itself, and :class:`UidGenerator`, a deterministic per-execution
counter so that repeated executions of the same program on the same
invocation sequence produce identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class UniqueValue:
    """An opaque fresh value, identified by a per-execution index."""

    index: int

    def __str__(self) -> str:
        return f"UID{self.index}"

    def __repr__(self) -> str:
        return f"UniqueValue({self.index})"


class UidGenerator:
    """Deterministic generator of :class:`UniqueValue` instances."""

    def __init__(self) -> None:
        self._next = 0

    def fresh(self) -> UniqueValue:
        value = UniqueValue(self._next)
        self._next += 1
        return value

    def reset(self) -> None:
        self._next = 0

    def fork(self) -> "UidGenerator":
        """An independent generator continuing from the same counter.

        Used by ``CompiledState.fork`` and ``ProgramInterpreter.fork``: a
        bounded checker's state graph forks a state once per step it takes,
        and each fork must allocate exactly the UIDs a run of its whole
        sequence from the empty database would allocate from that point on.
        """
        clone = UidGenerator()
        clone._next = self._next
        return clone

    @property
    def count(self) -> int:
        return self._next
