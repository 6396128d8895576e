"""Non-negatively graded cochain complexes via grading reversal.

A bounded chain complex C_0 .. C_top and the cochain complex with
X^k := C_{top-k}, d^k := d_{top-k} carry the same data; ``dualize`` just
re-indexes and is an involution.  The Bousfield classifier consumes the
cochain side directly.
"""

from __future__ import annotations

from typing import Sequence

from ..exact.modules import ModuleMap, PresentedModule, map_equal
from ..exact.rings import RingSpec
from .build import pad_to_top
from .complexes import ChainComplex, ChainMap


class CochainComplex:
    """Modules C^0 .. C^top with degree-raising differentials."""

    __slots__ = ("ring", "top", "mods", "diffs")

    def __init__(self, ring: RingSpec, modules: Sequence[PresentedModule],
                 differentials: Sequence[ModuleMap], *, check: bool = True):
        if not modules:
            modules = [PresentedModule.zero(ring)]
        if len(differentials) != len(modules) - 1:
            raise ValueError("need one differential per non-top degree")
        self.ring = ring
        self.mods = tuple(modules)
        self.diffs = tuple(differentials)
        self.top = len(modules) - 1
        if check:
            for n in range(self.top):
                d = self.diffs[n]
                if d.source != self.mods[n] or d.target != self.mods[n + 1]:
                    raise ValueError(f"codifferential {n} has wrong endpoints")
            for n in range(self.top - 1):
                if not self.diffs[n + 1].compose(self.diffs[n]).is_zero():
                    raise ValueError(f"d o d nonzero out of degree {n}")

    def module(self, n: int) -> PresentedModule:
        if 0 <= n <= self.top:
            return self.mods[n]
        return PresentedModule.zero(self.ring)

    def differential(self, n: int) -> ModuleMap:
        """d^n : C^n -> C^{n+1}."""
        if 0 <= n < self.top:
            return self.diffs[n]
        return ModuleMap.zero_map(self.module(n), self.module(n + 1))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CochainComplex) and self.ring == other.ring
                and self.mods == other.mods
                and tuple(d.action for d in self.diffs)
                == tuple(d.action for d in other.diffs))

    def __repr__(self) -> str:
        return f"CochainComplex({self.ring}, gens {[m.generators for m in self.mods]})"


class CochainMap:
    __slots__ = ("source", "target", "parts")

    def __init__(self, source: CochainComplex, target: CochainComplex,
                 components: Sequence[ModuleMap], *, check: bool = True):
        self.source = source
        self.target = target
        top = max(source.top, target.top)
        parts = list(components)
        while len(parts) < top + 1:
            n = len(parts)
            parts.append(ModuleMap.zero_map(source.module(n), target.module(n)))
        self.parts = tuple(parts)
        if check:
            for n in range(top):
                lhs = self.component(n + 1).compose(source.differential(n))
                rhs = target.differential(n).compose(self.component(n))
                if not map_equal(lhs, rhs):
                    raise ValueError(f"cochain square at degree {n} fails")

    def component(self, n: int) -> ModuleMap:
        if 0 <= n < len(self.parts):
            return self.parts[n]
        return ModuleMap.zero_map(self.source.module(n), self.target.module(n))


def dualize(C: ChainComplex) -> CochainComplex:
    """Reverse the grading: same modules, arrows now raise degree."""
    mods = [C.module(C.top - k) for k in range(C.top + 1)]
    diffs = [C.differential(C.top - k) for k in range(C.top)]
    return CochainComplex(C.ring, mods, diffs, check=False)


def undualize(C: CochainComplex) -> ChainComplex:
    mods = [C.module(C.top - n) for n in range(C.top + 1)]
    diffs = [C.differential(C.top - n) for n in range(1, C.top + 1)]
    return ChainComplex(C.ring, mods, diffs, check=False)


def dualize_map(f: ChainMap, top: int | None = None) -> CochainMap:
    """Reverse a chain map; both sides are padded to a common top first."""
    T = max(f.source.top, f.target.top) if top is None else top
    src = dualize(pad_to_top(f.source, T))
    tgt = dualize(pad_to_top(f.target, T))
    comps = [f.component(T - k) for k in range(T + 1)]
    return CochainMap(src, tgt, comps, check=False)


def undualize_map(f: CochainMap) -> ChainMap:
    T = max(f.source.top, f.target.top)
    src = undualize(f.source)
    tgt = undualize(f.target)
    comps = [f.component(T - n) for n in range(T + 1)]
    return ChainMap(src, tgt, comps, check=False)
