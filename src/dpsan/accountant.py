"""Privacy budget accounting.

Spends compose sequentially by addition, except that spends sharing a group
label are treated as a parallel block and together cost only the block's
maximum (the releases in such a block touch disjoint parts of the data).
Sums are taken with ``math.fsum`` so the composed total is the correctly
rounded value of the exact sum, independent of spend order; budgets built
from :func:`allocate_equal` shares therefore compose back to their total
without any tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """One recorded spend. ``group`` is None for a sequential spend; spends
    sharing a group label form a parallel block."""

    label: str
    epsilon: float
    group: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"label must be a non-empty string, got {self.label!r}")
        if _breaks_line(self.label):
            raise ValueError(f"label must not contain tabs or newlines, got {self.label!r}")
        eps = float(self.epsilon)
        if not math.isfinite(eps) or eps <= 0.0:
            raise ValueError(f"spend must be finite and positive, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", eps)
        if self.group is not None:
            if not isinstance(self.group, str) or not self.group:
                raise ValueError(f"group must be None or a non-empty string, got {self.group!r}")
            if _breaks_line(self.group):
                raise ValueError(f"group must not contain tabs or newlines, got {self.group!r}")


def _breaks_line(text: str) -> bool:
    """True if ``text`` holds a tab or line break, which the ledger text format reserves."""
    return "\t" in text or "\n" in text or "\r" in text


def allocate_equal(epsilon: float, k: int) -> list[float]:
    """Split a budget into k equal shares whose float sum is exact.

    The first k-1 shares are ``epsilon / k``; the last absorbs the rounding
    residue, computed with fsum so that the shares compose back to
    ``epsilon`` exactly for every k. Each share differs from ``epsilon / k``
    only at roundoff level.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"share count must be a positive integer, got {k!r}")
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError(f"budget must be finite and positive, got {epsilon}")
    share = epsilon / k
    shares = [share] * (k - 1)
    # residue via fsum: the one rounding lands below half an ulp of the
    # total, so composing the shares reproduces epsilon bit for bit
    shares.append(math.fsum([epsilon] + [-share] * (k - 1)))
    if min(shares) <= 0.0:
        raise ValueError(f"budget {epsilon} is too small to split into {k} positive shares")
    return shares


def compose(entries) -> float:
    """Effective total budget of a sequence of ledger entries.

    Sequential entries add; each parallel group contributes its maximum.
    The result does not depend on entry order.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("cannot compose an empty entry list")
    groups: dict[str, float] = {}
    sequential: list[float] = []
    for e in entries:
        if not isinstance(e, LedgerEntry):
            raise ValueError(f"entries must be LedgerEntry, got {type(e).__name__}")
        if e.group is None:
            sequential.append(e.epsilon)
        else:
            groups[e.group] = max(groups.get(e.group, 0.0), e.epsilon)
    return math.fsum(sequential + sorted(groups.values()))


class BudgetLedger:
    """Running record of spends against a fixed total budget.

    A spend that would push the composed total past the budget is refused
    with :class:`BudgetExceededError` carrying the remaining budget; the
    ledger is left unchanged. Re-spending within an existing parallel group
    is free up to the group's current maximum.

    The ledger keeps its sequential spends and each parallel group's
    maximum as it goes, so a spend is decided without recomposing every
    entry. The total is the same ``fsum`` that :func:`compose` takes over
    the same values, so it equals ``compose(entries())`` bit for bit.
    """

    def __init__(self, total: float):
        total = float(total)
        if not math.isfinite(total) or total <= 0.0:
            raise ValueError(f"total budget must be finite and positive, got {total}")
        self.total = total
        self._entries: list[LedgerEntry] = []
        self._sequential: list[float] = []
        self._group_max: dict[str, float] = {}
        self._spent = 0.0

    def _spent_with(self, entry: LedgerEntry) -> float:
        """The composed total once ``entry`` is added."""
        group_max = self._group_max
        if entry.group is None:
            return math.fsum(self._sequential + [entry.epsilon] + sorted(group_max.values()))
        grown = {**group_max, entry.group: max(group_max.get(entry.group, 0.0), entry.epsilon)}
        return math.fsum(self._sequential + sorted(grown.values()))

    def _record(self, entry: LedgerEntry, spent: float) -> None:
        self._entries.append(entry)
        if entry.group is None:
            self._sequential.append(entry.epsilon)
        else:
            self._group_max[entry.group] = max(self._group_max.get(entry.group, 0.0), entry.epsilon)
        self._spent = spent

    def spend(self, label: str, epsilon: float, group: str | None = None) -> LedgerEntry:
        entry = LedgerEntry(label, epsilon, group)
        would_spend = self._spent_with(entry)
        if would_spend > self.total:
            remaining = self.remaining()
            raise BudgetExceededError(
                f"spend {entry.epsilon!r} for {label!r} refused: remaining budget is {remaining!r}",
                remaining,
            )
        self._record(entry, would_spend)
        return entry

    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def spent(self) -> float:
        return self._spent

    def remaining(self) -> float:
        return max(0.0, self.total - self.spent())

    def to_lines(self) -> list[str]:
        """Serialize as tab-separated lines; floats survive round-trips via repr."""
        lines = [f"total\t{self.total!r}"]
        for e in self._entries:
            cls = "seq" if e.group is None else f"par:{e.group}"
            lines.append(f"{e.label}\t{cls}\t{e.epsilon!r}")
        return lines

    @classmethod
    def from_lines(cls, lines) -> "BudgetLedger":
        lines = list(lines)
        if not lines or not lines[0].startswith("total\t"):
            raise ValueError("ledger text must start with a 'total' line")
        ledger = cls(float(lines[0].split("\t", 1)[1]))
        for line in lines[1:]:
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"malformed ledger line: {line!r}")
            label, kind, eps = parts
            if kind == "seq":
                group = None
            elif kind.startswith("par:"):
                group = kind[4:]
            else:
                raise ValueError(f"unknown spend class {kind!r} in line {line!r}")
            entry = LedgerEntry(label, float(eps), group)
            ledger._record(entry, ledger._spent_with(entry))
        if ledger.spent() > ledger.total:
            raise ValueError("ledger text spends more than its stated total")
        return ledger
