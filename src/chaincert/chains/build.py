"""Standard complexes: disks, spheres, the interval, and assembly helpers."""

from __future__ import annotations

from typing import Sequence

from ..exact.matrix import Matrix
from ..exact.modules import (ModuleMap, PresentedModule, direct_sum_module,
                             summand_maps)
from ..exact.rings import RingSpec
from .complexes import ChainComplex, ChainMap


def zero_complex(ring: RingSpec) -> ChainComplex:
    return ChainComplex(ring, [PresentedModule.zero(ring)], [], check=False)


def concentrated(module: PresentedModule, degree: int = 0) -> ChainComplex:
    """A single module placed in one degree."""
    ring = module.ring
    mods = [PresentedModule.zero(ring)] * degree + [module]
    diffs = [ModuleMap.zero_map(mods[n + 1], mods[n]) for n in range(degree)]
    return ChainComplex(ring, mods, diffs, check=False)


def unit_complex(ring: RingSpec) -> ChainComplex:
    """The tensor unit R[0] = S^0."""
    return sphere(ring, 0)


def sphere(ring: RingSpec, n: int) -> ChainComplex:
    """R concentrated in degree n."""
    if n < 0:
        raise ValueError("sphere needs n >= 0")
    return concentrated(PresentedModule.free(ring, 1), n)


def disk(ring: RingSpec, n: int) -> ChainComplex:
    """R -> R by the identity in degrees n and n-1."""
    if n < 1:
        raise ValueError("disk needs n >= 1")
    zero = PresentedModule.zero(ring)
    free = PresentedModule.free(ring, 1)
    mods = [zero] * (n - 1) + [free, free]
    diffs = [ModuleMap.zero_map(mods[k + 1], mods[k]) for k in range(n - 1)]
    diffs.append(ModuleMap(free, free, Matrix.identity(ring, 1), check=False))
    return ChainComplex(ring, mods, diffs, check=False)


def interval(ring: RingSpec) -> ChainComplex:
    """N(Z Delta^1): generators e0, e1 in degree 0, e in degree 1, d e = e1 - e0.

    This orientation is the one fixture every cylinder, cocylinder and
    homotopy-transport construction in the package agrees on.
    """
    deg0 = PresentedModule.free(ring, 2)
    deg1 = PresentedModule.free(ring, 1)
    d = ModuleMap(deg1, deg0, Matrix(ring, 2, 1, [[-1], [1]]), check=False)
    return ChainComplex(ring, [deg0, deg1], [d], check=False)


def direct_sum_complex(complexes: Sequence[ChainComplex]) -> ChainComplex:
    """Degreewise direct sum alone: block-diagonal modules and differentials."""
    ring = complexes[0].ring
    top = max(c.top for c in complexes)
    sums = [direct_sum_module(ring, [c.module(n) for c in complexes])
            for n in range(top + 1)]
    diffs = []
    for n in range(1, top + 1):
        action = Matrix.block_diagonal(
            ring, [c.differential(n).action for c in complexes])
        diffs.append(ModuleMap(sums[n], sums[n - 1], action, check=False))
    return ChainComplex(ring, sums, diffs, check=False)


def direct_sum_complexes(complexes: Sequence[ChainComplex]
                         ) -> tuple[ChainComplex, list[ChainMap], list[ChainMap]]:
    """Degreewise direct sum with inclusion and projection chain maps."""
    total = direct_sum_complex(complexes)
    injections: list[list[ModuleMap]] = [[] for _ in complexes]
    projections: list[list[ModuleMap]] = [[] for _ in complexes]
    for n in range(total.top + 1):
        injs, projs = summand_maps(total.module(n),
                                   [c.module(n) for c in complexes])
        for k in range(len(complexes)):
            injections[k].append(injs[k])
            projections[k].append(projs[k])
    inc_maps = [ChainMap(c, total, injections[k], check=False)
                for k, c in enumerate(complexes)]
    proj_maps = [ChainMap(total, c, projections[k], check=False)
                 for k, c in enumerate(complexes)]
    return total, inc_maps, proj_maps


def change_ring(C: ChainComplex, ring: RingSpec) -> ChainComplex:
    """Base change Z -> Z/m by reducing all presentation data."""
    if C.ring == ring:
        return C
    if C.ring.kind != "Z":
        raise ValueError("base change is only supported from Z")
    mods = [PresentedModule(ring, m.generators, m.relations.change_ring(ring))
            for m in C.mods]
    diffs = [ModuleMap(mods[n + 1], mods[n],
                       C.diffs[n].action.change_ring(ring), check=False)
             for n in range(C.top)]
    return ChainComplex(ring, mods, diffs, check=False)


def change_ring_map(f: ChainMap, ring: RingSpec) -> ChainMap:
    src = change_ring(f.source, ring)
    tgt = change_ring(f.target, ring)
    comps = [ModuleMap(src.module(n), tgt.module(n),
                       f.component(n).action.change_ring(ring), check=False)
             for n in range(max(src.top, tgt.top) + 1)]
    return ChainMap(src, tgt, comps, check=False)


def brutal_truncation(C: ChainComplex) -> tuple[ChainComplex, ChainMap]:
    """C -> C/C_0: discard degree zero, keep everything above."""
    ring = C.ring
    mods = [PresentedModule.zero(ring)] + list(C.mods[1:])
    diffs: list[ModuleMap] = []
    if C.top >= 1:
        diffs.append(ModuleMap.zero_map(C.module(1), mods[0]))
        for n in range(2, C.top + 1):
            diffs.append(C.differential(n))
    quotient = ChainComplex(ring, mods, diffs, check=False)
    comps = [ModuleMap.zero_map(C.module(0), mods[0])]
    comps += [ModuleMap.identity(C.module(n)) for n in range(1, C.top + 1)]
    q = ChainMap(C, quotient, comps)
    return quotient, q


def pad_to_top(C: ChainComplex, top: int) -> ChainComplex:
    """Extend with zero modules so that C.top == top."""
    if top < C.top:
        raise ValueError("cannot pad below the current top")
    if top == C.top:
        return C
    mods = list(C.mods)
    diffs = list(C.diffs)
    while len(mods) <= top:
        prev = mods[-1]
        z = PresentedModule.zero(C.ring)
        diffs.append(ModuleMap.zero_map(z, prev))
        mods.append(z)
    return ChainComplex(C.ring, mods, diffs, check=False)
