"""Homology of complexes and the maps it induces."""

from __future__ import annotations

from dataclasses import dataclass

from ..exact.modules import (ModuleMap, PresentedModule, cokernel, factor_through,
                             kernel)
from .complexes import ChainComplex, ChainMap


@dataclass
class HomologyData:
    """Cycles, boundaries-into-cycles, and the quotient at one degree."""

    cycles: PresentedModule
    inclusion: ModuleMap          # cycles -> C_n
    boundary_factor: ModuleMap    # C_{n+1} -> cycles
    homology: PresentedModule     # coker(boundary_factor), generators = cycle gens


def homology_data(C: ChainComplex, n: int) -> HomologyData:
    cyc, incl = kernel(C.differential(n))
    w = factor_through(incl, C.differential(n + 1))
    if w is None:
        raise ValueError("boundaries do not land in cycles; complex invalid")
    H, _ = cokernel(w)
    return HomologyData(cyc, incl, w, H)


def homology(C: ChainComplex, n: int) -> PresentedModule:
    """H_n as a minimal presentation."""
    if n < 0:
        raise ValueError("homology needs n >= 0")
    return homology_data(C, n).homology.minimal_presentation()


def first_homology(C: ChainComplex) -> tuple[int, PresentedModule] | None:
    """The lowest degree n with H_n(C) nonzero and that H_n, or None."""
    for n in range(C.top + 1):
        H = homology_data(C, n).homology
        if not H.is_zero_module():
            return n, H
    return None


def induced_homology_map(f: ChainMap, n: int,
                         source_data: HomologyData | None = None,
                         target_data: HomologyData | None = None) -> ModuleMap:
    """H_n(f) on the unminimized homology presentations."""
    hx = source_data if source_data is not None else homology_data(f.source, n)
    hy = target_data if target_data is not None else homology_data(f.target, n)
    carried = f.component(n).compose(hx.inclusion)
    z = factor_through(hy.inclusion, carried)
    if z is None:
        raise ValueError("chain map does not carry cycles to cycles")
    return ModuleMap(hx.homology, hy.homology, z.action)


def is_module_iso(f: ModuleMap) -> bool:
    ker, _ = kernel(f)
    coker, _ = cokernel(f)
    return ker.is_zero_module() and coker.is_zero_module()


def homology_iso_all_degrees(f: ChainMap) -> bool:
    """Independent quasi-isomorphism oracle via induced maps on homology."""
    top = max(f.source.top, f.target.top)
    for n in range(top + 1):
        if not is_module_iso(induced_homology_map(f, n)):
            return False
    return True
