"""Monomial orders for the basis engines.

Two kinds only: `global` degree-reverse-lexicographic (a well-order) and
`local` negative-degree-reverse-lexicographic (1 is the largest monomial).
A priority list permutes variables before comparison; first entry strongest.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MonomialOrder:
    local: bool = True
    priority: tuple[str, ...] | None = None

    def permutation(self, varnames: tuple[str, ...]) -> tuple[int, ...] | None:
        """Index permutation mapping ring order to priority order, if nontrivial."""
        if self.priority is None or tuple(self.priority) == tuple(varnames):
            return None
        if sorted(self.priority) != sorted(varnames):
            raise ValueError(f"priority {self.priority} does not match variables {varnames}")
        return tuple(varnames.index(n) for n in self.priority)


LOCAL = MonomialOrder(local=True)
GLOBAL = MonomialOrder(local=False)

