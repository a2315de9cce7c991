"""Hypothesis-check reports shared by the verifier modules.

Every conditional statement this lab checks carries a list of named
hypothesis checks. A report never hides a failed check: `admissible` is the
conjunction, and the full trail is preserved for serialization.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Any, NamedTuple


def jsonable(value: Any) -> Any:
    """Render exact values losslessly for JSON reports (Fractions -> 'p/q')."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return str(value)


class Check(NamedTuple):
    """One named hypothesis check and what it compared.

    A NamedTuple, so it is immutable and cheap to build, and it compares
    equal to the plain tuple (name, passed, detail).
    """

    name: str
    passed: bool
    detail: Any = None

    def to_json_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": jsonable(self.detail)}


_passed = itemgetter(1)  # Check.passed


class HypothesisReport(NamedTuple):
    """Named checks for one rule application; admissible = all checks pass. A NamedTuple, as Check."""

    subject: str
    checks: tuple[Check, ...] = ()

    @property
    def admissible(self) -> bool:
        return all(map(_passed, self.checks))

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failed(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_json_dict(self):
        return {
            "subject": self.subject,
            "admissible": self.admissible,
            "checks": [c.to_json_dict() for c in self.checks],
        }
