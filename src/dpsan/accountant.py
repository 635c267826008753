"""Privacy budget accounting.

Each release records its own cost as one spend, and spends compose
sequentially by addition. Sums are taken with ``math.fsum`` so the composed
total is the correctly rounded value of the exact sum, independent of spend
order; budgets built from :func:`allocate_equal` shares therefore compose
back to their total without any tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mechanisms import _count, _positive

__all__ = [
    "BudgetExceededError",
    "LedgerEntry",
    "BudgetLedger",
    "allocate_equal",
    "compose",
]


class BudgetExceededError(RuntimeError):
    """A requested spend does not fit into the remaining budget."""

    def __init__(self, message: str, remaining: float):
        super().__init__(message)
        self.remaining = remaining


@dataclass(frozen=True)
class LedgerEntry:
    """One recorded spend."""

    label: str
    epsilon: float

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"label must be a non-empty string, got {self.label!r}")
        object.__setattr__(self, "epsilon", _positive(self.epsilon, "spend"))


def allocate_equal(epsilon: float, k: int) -> list[float]:
    """Split a budget into k equal shares whose float sum is exact.

    The first k-1 shares are ``epsilon / k``; the last absorbs the rounding
    residue, computed with fsum so that the shares compose back to
    ``epsilon`` exactly for every k. Each share differs from ``epsilon / k``
    only at roundoff level.
    """
    k = _count(k, "share count")
    epsilon = _positive(epsilon, "budget")
    share = epsilon / k
    shares = [share] * (k - 1)
    # residue via fsum: the one rounding lands below half an ulp of the
    # total, so composing the shares reproduces epsilon bit for bit
    shares.append(math.fsum([epsilon] + [-share] * (k - 1)))
    if min(shares) <= 0.0:
        raise ValueError(f"budget {epsilon} is too small to split into {k} positive shares")
    return shares


def compose(entries) -> float:
    """Total budget of a sequence of ledger entries: the sum of their
    spends, which does not depend on entry order.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("cannot compose an empty entry list")
    for e in entries:
        if not isinstance(e, LedgerEntry):
            raise ValueError(f"entries must be LedgerEntry, got {type(e).__name__}")
    return math.fsum(e.epsilon for e in entries)


class BudgetLedger:
    """Running record of spends against a fixed total budget.

    A spend that would push the composed total past the budget is refused
    with :class:`BudgetExceededError` carrying the remaining budget; the
    ledger is left unchanged.

    Each spend is decided by :func:`compose` over the recorded entries and
    the new one, so ``spent()`` equals ``compose(entries())`` bit for bit.
    """

    def __init__(self, total: float):
        self.total = _positive(total, "total budget")
        self._entries: list[LedgerEntry] = []
        self._spent = 0.0

    def spend(self, label: str, epsilon: float) -> LedgerEntry:
        entry = LedgerEntry(label, epsilon)
        would_spend = compose(self._entries + [entry])
        if would_spend > self.total:
            remaining = self.remaining()
            raise BudgetExceededError(
                f"spend {entry.epsilon!r} for {label!r} refused: remaining budget is {remaining!r}",
                remaining,
            )
        self._entries.append(entry)
        self._spent = would_spend
        return entry

    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def spent(self) -> float:
        return self._spent

    def remaining(self) -> float:
        return max(0.0, self.total - self.spent())
