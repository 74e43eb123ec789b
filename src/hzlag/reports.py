"""Check records and run reports shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CheckRecord", "RunReport", "record"]


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of a single verification check.

    ``anchor`` is the short tag of the identity / recursion being checked
    (e.g. "feat-1", "3-t"); ``detail`` carries the residual or diff when the
    check fails, as a string.
    """

    id: str
    anchor: str
    status: str  # "pass" | "fail"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def record(check_id: str, anchor: str, ok: bool, detail: str = "") -> CheckRecord:
    return CheckRecord(check_id, anchor, "pass" if ok else "fail", detail if not ok else "")


@dataclass
class RunReport:
    """A suite's worth of check records; byte-reproducible serialization.

    Wall time is kept out of the serialized payload so identical runs
    produce identical bytes.
    """

    suite: str
    checks: list[CheckRecord] = field(default_factory=list)
    tool_version: str = ""

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def extend(self, records: list[CheckRecord]) -> None:
        self.checks.extend(records)

    def sorted(self) -> "RunReport":
        return RunReport(self.suite, sorted(self.checks, key=lambda c: c.id), self.tool_version)

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
