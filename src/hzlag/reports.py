"""Check records and run reports shared by the verification suites and the CLI."""

from __future__ import annotations

from collections import namedtuple

__all__ = ["CheckRecord", "RunReport", "record"]


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


class RunReport:
    """A suite's worth of check records; byte-reproducible serialization.

    Wall time is kept out of the serialized payload so identical runs
    produce identical bytes.
    """

    __slots__ = ("suite", "checks", "tool_version")

    def __init__(self, suite: str, checks: list[CheckRecord] | None = None,
                 tool_version: str = ""):
        self.suite = suite
        self.checks = [] if checks is None else checks
        self.tool_version = tool_version

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def extend(self, records: list[CheckRecord]) -> None:
        self.checks.extend(records)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "tool_version": self.tool_version,
            "passed": self.passed,
            "checks": [
                {"id": c.id, "anchor": c.anchor, "status": c.status, "detail": c.detail}
                for c in sorted(self.checks, key=lambda c: c.id)
            ],
        }

    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.ok]
