"""Homology of complexes."""

from __future__ import annotations

from dataclasses import dataclass

from ..exact.modules import (ModuleMap, PresentedModule, cokernel, factor_through,
                             kernel)
from .complexes import ChainComplex


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
