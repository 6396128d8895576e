"""Base rings: the integers and the integers modulo m.

Every ring here is a commutative principal ideal ring with decidable
arithmetic, which is what makes Smith normal form and exact linear
solving total operations downstream.  Elements are plain Python ints;
for Z/m the canonical representative lives in [0, m).

Rings are interned: ``ZZ`` is the one integer ring, and ``Zmod(m)`` and
``RingSpec.from_json`` hand out one instance per modulus.  Equality tries
``is`` first, so comparing the rings of two matrices (which every matrix
operation does) is usually a pointer compare; ``==`` and ``hash`` still
compare by value, so a ring built directly with ``RingSpec`` equals the
interned one.  Matrices rely on this: their entries are canonical by
construction (see ``matrix.py``), and combining two matrices checks only
that they share a ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class RingSpec:
    """Either the integers ("Z") or the integers mod m ("Zmod", modulus=m)."""

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "Z":
            if self.modulus is not None:
                raise ValueError("the integers carry no modulus")
        elif self.kind == "Zmod":
            m = self.modulus
            if not isinstance(m, int) or isinstance(m, bool) or m < 2:
                raise ValueError("modulus must be an integer >= 2")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, RingSpec)
                                 and self.kind == other.kind
                                 and self.modulus == other.modulus)

    @property
    def is_modular(self) -> bool:
        return self.kind == "Zmod"

    def canon(self, a: int) -> int:
        """Canonical representative of a in this ring."""
        if self.kind == "Z":
            return a
        return a % self.modulus

    def is_unit(self, a: int) -> bool:
        if self.kind == "Z":
            return a in (1, -1)
        return gcd(a, self.modulus) == 1

    def __str__(self) -> str:
        return "Z" if self.kind == "Z" else f"Z/{self.modulus}"

    def to_json(self) -> dict:
        if self.kind == "Z":
            return {"kind": "Z"}
        return {"kind": "Zmod", "modulus": self.modulus}

    @staticmethod
    def from_json(data: dict) -> "RingSpec":
        kind = data.get("kind")
        if kind == "Z":
            if "modulus" in data:
                raise ValueError("the integers carry no modulus")
            return ZZ
        if kind == "Zmod":
            return Zmod(data["modulus"])
        raise ValueError(f"unknown ring kind {kind!r}")


ZZ = RingSpec("Z")


_ZMOD: dict[int, RingSpec] = {}


def Zmod(m: int) -> RingSpec:
    """The interned ring Z/m; raises ValueError unless m is an int >= 2."""
    ring = _ZMOD.get(m) if type(m) is int else None
    if ring is None:
        ring = RingSpec("Zmod", m)
        _ZMOD[m] = ring
    return ring
