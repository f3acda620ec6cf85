"""Shared error types, the one budget check, the check-report record and
the verify suites' names."""

from __future__ import annotations

from dataclasses import dataclass


# The verify suites in the order `--suite all` runs them. They are named here,
# not in verify, so that the CLI offers them as --suite choices without
# importing verify.
SUITE_ORDER = ["eulerian", "twosided", "boxes", "hopping", "gessel"]


class GuardRailError(RuntimeError):
    """An operation would exceed its enumeration guard rail or budget."""


def check_budget(what: str, amount: int, budget: int, force: bool | None = None) -> None:
    """Raise GuardRailError when amount passes budget, unless forced.

    Every guard rail and work budget is decided here. what names the
    quantity counted; the caller keeps the count cheap (n against 11, never
    n! against 11!). force None marks a budget with no override, whose
    refusal does not offer one.

    >>> check_budget("n for a walk over S_n", 12, 11, force=True)
    >>> check_budget("cells", 5, 4)
    Traceback (most recent call last):
    ...
    eulerian_workbench.common.GuardRailError: cells: 5, past the budget 4
    """
    if amount > budget and not force:
        hint = "" if force is None else "; pass force (--force) to go past it"
        # a huge count is named by its size: str() of it is slow, and past
        # Python's limit on int-to-str conversion it raises
        shown = amount if amount.bit_length() <= 64 else f"about 2**{amount.bit_length() - 1}"
        raise GuardRailError(f"{what}: {shown}, past the budget {budget}{hint}")


class ConsistencyError(RuntimeError):
    """An exact identity that must hold internally failed.

    Raised when two routes to the same number disagree, when an integrality
    or divisibility condition breaks, or when a reconstruction does not match
    its input. Any occurrence signals a bug, never bad user input.
    """


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a single verification check."""

    ok: bool
    description: str
    detail: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"
