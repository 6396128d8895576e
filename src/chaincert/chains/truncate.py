"""Good truncation of complexes that carry one window degree below zero."""

from __future__ import annotations

from dataclasses import dataclass

from ..exact.modules import ModuleMap, PresentedModule, factor_through, kernel
from ..exact.rings import RingSpec
from .complexes import ChainComplex


class WindowComplex:
    """Chain data on degrees -1 .. top; only d o d = 0 is required.

    This is the internal carrier for chain data that naturally lives in
    unbounded complexes but is only ever consumed through its good
    truncation, which needs one negative degree to form ker(d_0): hom
    complexes (`HomWindow`) and the windows that the `truncate` command
    reads from documents (`io/document.py`, `window_of_complex`).  The
    path object and the mapping cocylinder do not need it: their
    truncations are written in closed form (`chains/cones.py`).
    """

    __slots__ = ("ring", "top", "mods", "diffs")

    def __init__(self, ring: RingSpec, modules: dict[int, PresentedModule],
                 differentials: dict[int, ModuleMap], *, check: bool = True):
        self.ring = ring
        self.top = max([n for n in modules] + [0])
        self.mods = dict(modules)
        self.diffs = dict(differentials)
        if check:
            self.validate()

    def module(self, n: int) -> PresentedModule:
        return self.mods.get(n, PresentedModule.zero(self.ring))

    def differential(self, n: int) -> ModuleMap:
        if n in self.diffs:
            return self.diffs[n]
        return ModuleMap.zero_map(self.module(n), self.module(n - 1))

    def validate(self) -> None:
        for n in range(0, self.top + 1):
            d = self.differential(n)
            if d.source != self.module(n) or d.target != self.module(n - 1):
                raise ValueError(f"window differential {n} has wrong endpoints")
        for n in range(1, self.top + 1):
            comp = self.differential(n - 1).compose(self.differential(n))
            if not comp.is_zero():
                raise ValueError(f"window d o d nonzero entering degree {n - 2}")


@dataclass
class Truncation:
    """tau_{>= 0} of a window complex, with the degree-0 kernel inclusion."""

    complex: ChainComplex
    kernel_inclusion: ModuleMap  # ker(d_0) -> W_0

    def window_module(self, n: int) -> PresentedModule:
        """W_n for n >= 0: the source of a window-level component."""
        if n == 0:
            return self.kernel_inclusion.target
        return self.complex.module(n)


def good_truncation(W: WindowComplex) -> Truncation:
    """Degrees >= 1 unchanged, degree 0 replaced by ker(d_0)."""
    ker0, incl = kernel(W.differential(0))
    mods = [ker0] + [W.module(n) for n in range(1, W.top + 1)]
    diffs: list[ModuleMap] = []
    if W.top >= 1:
        d1 = factor_through(incl, W.differential(1))
        if d1 is None:
            raise ValueError("differential does not factor through ker(d_0)")
        diffs.append(d1)
        for n in range(2, W.top + 1):
            diffs.append(W.differential(n))
    C = ChainComplex(W.ring, mods, diffs, check=False)
    return Truncation(C, incl)


def window_of_complex(C: ChainComplex) -> WindowComplex:
    mods = {n: C.module(n) for n in range(C.top + 1)}
    diffs = {n: C.differential(n) for n in range(1, C.top + 1)}
    return WindowComplex(C.ring, mods, diffs, check=False)

