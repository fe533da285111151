"""Disjoint qubit groupings."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Partition"]


@dataclass(frozen=True)
class Partition:
    """Disjoint, covering groups of qubit indices.

    Groups keep their construction order; indices inside a group are
    strictly ascending.
    """

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        groups = tuple(tuple(int(q) for q in g) for g in self.groups)
        seen: set[int] = set()
        for g in groups:
            if not g:
                raise ValueError("empty group")
            if any(a >= b for a, b in zip(g, g[1:])):
                raise ValueError(f"group {g} not strictly ascending")
            if seen.intersection(g):
                raise ValueError("groups overlap")
            seen.update(g)
        if seen != set(range(len(seen))):
            raise ValueError("groups do not cover 0..n-1 contiguously")
        object.__setattr__(self, "groups", groups)

    @property
    def n(self) -> int:
        return sum(len(g) for g in self.groups)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple((q,) for q in range(n)))

    @classmethod
    def single_group(cls, n: int) -> "Partition":
        return cls((tuple(range(n)),))

    def as_sets(self) -> set[frozenset[int]]:
        return {frozenset(g) for g in self.groups}
