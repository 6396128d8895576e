"""Mapping cones, cylinders, cocylinders, and chain-level pushouts.

Conventions (fixed once, used by every witness):
  * cone(f)_n = X_{n-1} (+) Y_n with the shifted source first and
    differential blocks [[-d_X, 0], [f, d_Y]].
  * the interval I has e0, e1 in degree 0 and e in degree 1, d e = e1 - e0.
  * the cylinder of f : X -> Y glues X (x) I to Y along the e1 end, written
    Mf_n = X_n (+) X_{n-1} (+) Y_n: the triple (a, h, y) stands for
    a (x) e0 + h (x) e + y, so the cofibration leg enters at e0.  X (x) I
    is the cylinder of id_X, with y read as the e1 end.
  * Hom(I, B)_n = B_n (+) B_n (+) B_{n+1}, a path f read as
    (f(e0), f(e1), f(e)), with d(a, b, h) = (d a, d b, d h + (-1)^{n+1}(b - a)).
  * the cocylinder of p : E -> B is the good truncation of E x_B Hom(I, B),
    pulled back along evaluation at e0.  Degree n >= 1 is
    E_n (+) B_n (+) B_{n+1}: the triple (e, b, h) is e with the path
    (p e, b, h).  Degree 0 is E_0 (+) B_1: the pair (e, h) is the cycle
    (e, p e + d h, h), and these are all of ker d_0.  B^I is the
    cocylinder of id_B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..exact.matrix import Matrix
from ..exact.modules import (ModuleMap, PresentedModule, direct_sum_module,
                             pushout_modules, summand_maps)
from ..exact.rings import RingSpec
from .complexes import ChainComplex, ChainMap


def _block_complex(ring: RingSpec, top: int,
                   summands: Callable[[int], list[PresentedModule]],
                   blocks: Callable[[int], dict[tuple[int, int], Matrix]]
                   ) -> ChainComplex:
    """The complex whose degree n is the sum of ``summands(n)``, with d_n
    assembled from ``blocks(n)``; unchecked, each caller says why."""
    mods = [direct_sum_module(ring, summands(n)) for n in range(top + 1)]
    diffs = []
    for n in range(1, top + 1):
        action = Matrix.assemble(ring, [m.generators for m in summands(n - 1)],
                                 [m.generators for m in summands(n)],
                                 blocks(n))
        diffs.append(ModuleMap(mods[n], mods[n - 1], action, check=False))
    return ChainComplex(ring, mods, diffs, check=False)


def mapping_cone(f: ChainMap) -> ChainComplex:
    """cone(f), a complex by construction: with d = [[-d_X, 0], [f, d_Y]],
    d o d = [[d_X d_X, 0], [d_Y f - f d_X, d_Y d_Y]], which vanishes
    because f is a chain map, and each block carries relations into
    relations."""
    X, Y = f.source, f.target

    def blocks(n: int) -> dict[tuple[int, int], Matrix]:
        return {(0, 0): -X.differential(n - 1).action,
                (1, 0): f.component(n - 1).action,
                (1, 1): Y.differential(n).action}

    return _block_complex(X.ring, max(X.top + 1, Y.top),
                          lambda n: [X.module(n - 1), Y.module(n)], blocks)


def pushout_complexes(f: ChainMap, g: ChainMap
                      ) -> tuple[ChainComplex, ChainMap, ChainMap]:
    """Degreewise pushout of B <-f- A -g-> C with its two injections.

    P_n is B_n (+) C_n modulo the columns (f_n, -g_n), and d_P is the
    block-diagonal d_B (+) d_C.  This is a complex, and the injections
    are chain maps, by construction: d_P carries the glued columns to
    (f d, -g d) because f and g are chain maps, and each injection is a
    block of the identity, so d_P o inj = inj o d holds on the nose.
    """
    if f.source != g.source:
        raise ValueError("pushout legs must share their source")
    ring = f.source.ring
    top = max(f.target.top, g.target.top)
    mods: list[PresentedModule] = []
    injB: list[ModuleMap] = []
    injC: list[ModuleMap] = []
    for n in range(top + 1):
        P, ib, ic = pushout_modules(f.component(n), g.component(n))
        mods.append(P)
        injB.append(ib)
        injC.append(ic)
    diffs: list[ModuleMap] = []
    for n in range(1, top + 1):
        action = Matrix.block_diagonal(
            ring, [f.target.differential(n).action, g.target.differential(n).action])
        diffs.append(ModuleMap(mods[n], mods[n - 1], action, check=False))
    P = ChainComplex(ring, mods, diffs, check=False)
    return (P, ChainMap(f.target, P, injB, check=False),
            ChainMap(g.target, P, injC, check=False))


def pushout_induced_chain_map(P: ChainComplex, u: ChainMap, v: ChainMap,
                              *, check: bool = True) -> ChainMap:
    """Map out of a degreewise pushout presented on B (+) C generators.

    [u | v] commutes with the block-diagonal d_P because u and v are
    chain maps, but it is well defined on P only when u o f = v o g for
    the legs f, g of the pushout.  A caller passes ``check=False`` only
    when that holds by construction, and says why.
    """
    if u.target != v.target:
        raise ValueError("cone legs must share their target")
    comps = []
    for n in range(max(P.top, u.target.top) + 1):
        action = u.component(n).action.hstack(v.component(n).action)
        comps.append(ModuleMap(P.module(n), u.target.module(n), action,
                               check=check))
    return ChainMap(P, u.target, comps, check=check)


def _cylinder_summands(f: ChainMap, n: int) -> list[PresentedModule]:
    return [f.source.module(n), f.source.module(n - 1), f.target.module(n)]


def cylinder_complex(f: ChainMap) -> ChainComplex:
    """Mf_n = X_n (+) X_{n-1} (+) Y_n, d(a, h, y) = (d a + s h, d h,
    d y - s f h) with s = (-1)^n.

    The Koszul rule gives d(h (x) e) = d h (x) e + (-1)^{n-1}(h (x) e1 -
    h (x) e0), and h (x) e1 is glued to f h.  A complex by construction:
    the first entry of d d is d(d a + s h) - s d h and the third
    d(d y - s f h) + s f d h, both zero because f is a chain map; each
    block is a module map, so relations go to relations.
    """
    X, Y = f.source, f.target
    ring = X.ring

    def blocks(n: int) -> dict[tuple[int, int], Matrix]:
        s = 1 if n % 2 == 0 else -1
        return {(0, 0): X.differential(n).action,
                (0, 1): Matrix.identity(ring,
                                        X.module(n - 1).generators).scale(s),
                (1, 1): X.differential(n - 1).action,
                (2, 1): f.component(n - 1).action.scale(-s),
                (2, 2): Y.differential(n).action}

    return _block_complex(ring, max(X.top + 1, Y.top),
                          lambda n: _cylinder_summands(f, n), blocks)


@dataclass
class CylinderData:
    complex: ChainComplex            # Mf
    cofibration: ChainMap            # j : X -> Mf  (enters at e0)
    projection: ChainMap             # q : Mf -> Y  with q o j = f


def mapping_cylinder(f: ChainMap) -> CylinderData:
    """Mf with j = (id, 0, 0) and q = [f 0 id], chain maps by construction:
    d j a = (d a, 0, 0) = j d a, and q d(a, h, y) = f d a + s f h + d y -
    s f h = d q(a, h, y).  q o j = f on the nose."""
    Mf = cylinder_complex(f)
    j, q = [], []
    for n in range(Mf.top + 1):
        inj, proj = summand_maps(Mf.module(n), _cylinder_summands(f, n))
        j.append(inj[0])
        q.append(f.component(n).compose(proj[0]) + proj[2])
    return CylinderData(Mf, ChainMap(f.source, Mf, j, check=False),
                        ChainMap(Mf, f.target, q, check=False))


def _cocylinder_summands(p: ChainMap, n: int) -> list[PresentedModule]:
    E, B = p.source, p.target
    if n == 0:
        return [E.module(0), B.module(1)]
    return [E.module(n), B.module(n), B.module(n + 1)]


def cocylinder_complex(p: ChainMap) -> ChainComplex:
    """tau_{>=0}(E x_B Hom(I, B)), pulled back along evaluation at e0.

    The hom differential (d f)_i = d f_i - (-1)^n f_{i-1} d with
    d e = e1 - e0 gives d(e, b, h) = (d e, d b, d h + (-1)^{n+1}(b - p e)).
    The degree-0 cycles are the triples with b = p e + d h, so
    d_1 = [[d, 0, 0], [-p, id, d]] is that d_1 without its b row.  A
    complex by construction: the third entry of d d is
    (-1)^{n+1}(d b - d p e) + (-1)^n (d b - p d e), and in degree 0 the
    h entry is -p d e + d b + d(d h - b + p e), both zero because p is a
    chain map; each block is a module map, so relations go to relations.
    """
    E, B = p.source, p.target
    ring = E.ring

    def blocks(n: int) -> dict[tuple[int, int], Matrix]:
        s = -1 if n % 2 == 0 else 1  # (-1)^{n+1}
        h = 1 if n == 1 else 2       # degree 0 has no b entry
        out = {(0, 0): E.differential(n).action,
               (h, 0): p.component(n).action.scale(-s),
               (h, 1): Matrix.identity(ring, B.module(n).generators).scale(s),
               (h, 2): B.differential(n + 1).action}
        if n > 1:
            out[(1, 1)] = B.differential(n).action
        return out

    return _block_complex(ring, max(E.top, B.top),
                          lambda n: _cocylinder_summands(p, n), blocks)


@dataclass
class CocylinderData:
    complex: ChainComplex            # Np = tau_{>=0}(E x_B Hom(I, B))
    section_leg: ChainMap            # i : E -> Np  (constant path at p(e))
    fibration_leg: ChainMap          # q : Np -> B  (evaluate the path at e1)


def mapping_cocylinder(p: ChainMap) -> CocylinderData:
    """Np with its legs, chain maps by construction.

    The section is the constant path e -> (e, p e, 0), read e -> (e, 0) in
    degree 0; the fibration leg evaluates at e1, (e, b, h) -> b, read
    (e, h) -> p e + d h in degree 0.  d(e, p e, 0) = (d e, p d e, 0), the
    b row of d is (0, d, 0), and d(e, b, h) = (d e, d h + b - p e) in
    degree 1 evaluates to p d e + d b - d p e = d b.  fibration leg o
    section = p on the nose.
    """
    Np = cocylinder_complex(p)
    section, fibration = [], []
    for n in range(Np.top + 1):
        inj, proj = summand_maps(Np.module(n), _cocylinder_summands(p, n))
        if n == 0:
            section.append(inj[0])
            fibration.append(p.component(0).compose(proj[0])
                             + p.target.differential(1).compose(proj[1]))
        else:
            section.append(inj[0] + inj[1].compose(p.component(n)))
            fibration.append(proj[1])
    return CocylinderData(Np, ChainMap(p.source, Np, section, check=False),
                          ChainMap(Np, p.target, fibration, check=False))
