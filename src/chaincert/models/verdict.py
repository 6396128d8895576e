"""Classification verdicts bundled with checkable certificates.

Every positive answer carries a witness that re-verifies by direct matrix
arithmetic; every negative answer carries the failing degree (or a short
obstruction description).  The mixed structure's cofibration bit may be
"unknown": the paper defines that class by a lifting property and we never
present an undecided class as decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass
class ClassBit:
    status: str
    witness: dict[str, Any] | None = None
    obstruction: dict[str, Any] | None = None

    @property
    def holds(self) -> bool:
        return self.status == YES

    def to_json(self) -> dict:
        out: dict[str, Any] = {"status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.obstruction is not None:
            out["obstruction"] = self.obstruction
        return out


@dataclass
class Verdict:
    flavor: str
    cofibration: ClassBit
    fibration: ClassBit
    weak_equivalence: ClassBit

    def to_json(self) -> dict:
        return {
            "flavor": self.flavor,
            "cofibration": self.cofibration.to_json(),
            "fibration": self.fibration.to_json(),
            "weak_equivalence": self.weak_equivalence.to_json(),
        }


def yes(witness: dict | None = None) -> ClassBit:
    return ClassBit(YES, witness=witness)


def no(degree: int | None = None, reason: str = "") -> ClassBit:
    obstruction: dict[str, Any] = {}
    if degree is not None:
        obstruction["degree"] = degree
    if reason:
        obstruction["reason"] = reason
    return ClassBit(NO, obstruction=obstruction or None)


def unknown(reason: str) -> ClassBit:
    return ClassBit(UNKNOWN, obstruction={"reason": reason})
