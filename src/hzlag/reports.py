"""Check records shared by the verification suites and the CLI."""

from __future__ import annotations

from collections import namedtuple

__all__ = ["CheckRecord", "record"]


class CheckRecord(namedtuple("CheckRecord", "id anchor status detail", defaults=("",))):
    """Outcome of a single verification check.

    ``anchor`` is the short tag of the identity / recursion being checked
    (e.g. "feat-1", "3-t"); ``status`` is "pass" or "fail"; ``detail``
    carries the residual or diff when the check fails, as a string.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def record(check_id: str, anchor: str, ok: bool, detail: str = "") -> CheckRecord:
    return CheckRecord(check_id, anchor, "pass" if ok else "fail", detail if not ok else "")

