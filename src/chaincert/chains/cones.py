"""Mapping cones, cylinders, cocylinders, and chain-level pushouts.

Conventions (fixed once, used by every witness):
  * cone(f)_n = X_{n-1} (+) Y_n with the shifted source first and
    differential blocks [[-d_X, 0], [f, d_Y]].
  * the cylinder glues X (x) I to Y along the e1 end, so the cofibration
    leg of the factorization enters at e0.
  * Hom(I, B)_n = B_n (+) B_n (+) B_{n+1}, a path f read as
    (f(e0), f(e1), f(e)), with d(a, b, h) = (d a, d b, d h + (-1)^{n+1}(b - a)).
  * the cocylinder is the good truncation of E x_B Hom(I, B), pulled back
    along evaluation at e0 and written E_n (+) B_n (+) B_{n+1}: the triple
    (e, b, h) is e with the path (p e, b, h).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exact.matrix import Matrix
from ..exact.modules import (ModuleMap, PresentedModule, direct_sum_module,
                             pushout_modules)
from .build import interval
from .complexes import ChainComplex, ChainMap
from .homcx import map_from_truncation, map_into_truncation
from .tensor import interval_cylinder
from .truncate import Truncation, WindowComplex, good_truncation


@dataclass
class ConeData:
    complex: ChainComplex
    f: ChainMap

    def x_generators(self, n: int) -> int:
        return self.f.source.module(n - 1).generators

    def y_generators(self, n: int) -> int:
        return self.f.target.module(n).generators


def mapping_cone(f: ChainMap) -> ConeData:
    """cone(f), a complex by construction: with d = [[-d_X, 0], [f, d_Y]],
    d o d = [[d_X d_X, 0], [d_Y f - f d_X, d_Y d_Y]], which vanishes
    because f is a chain map, and each block carries relations into
    relations."""
    X, Y = f.source, f.target
    ring = X.ring
    top = max(X.top + 1, Y.top)
    mods: list[PresentedModule] = []
    for n in range(top + 1):
        mods.append(direct_sum_module(ring, [X.module(n - 1), Y.module(n)]))
    diffs: list[ModuleMap] = []
    for n in range(1, top + 1):
        gxs = X.module(n - 1).generators
        gys = Y.module(n).generators
        gxt = X.module(n - 2).generators
        gyt = Y.module(n - 1).generators
        blocks = {
            (0, 0): -X.differential(n - 1).action,
            (1, 0): f.component(n - 1).action,
            (1, 1): Y.differential(n).action,
        }
        action = Matrix.assemble(ring, [gxt, gyt], [gxs, gys], blocks)
        diffs.append(ModuleMap(mods[n], mods[n - 1], action, check=False))
    return ConeData(ChainComplex(ring, mods, diffs, check=False), f)


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


@dataclass
class CylinderData:
    complex: ChainComplex            # Mf
    cofibration: ChainMap            # j : X -> Mf  (enters at e0)
    projection: ChainMap             # q : Mf -> Y  with q o j = f
    target_injection: ChainMap       # Y -> Mf
    cylinder_injection: ChainMap     # X (x) I -> Mf


def mapping_cylinder(f: ChainMap) -> CylinderData:
    X, Y = f.source, f.target
    lay, i0, i1, r = interval_cylinder(X, interval(X.ring))
    Mf, inj_y, inj_cyl = pushout_complexes(f, i1)
    j = inj_cyl.compose(i0)
    # id o f = (f o r) o i1, since r o i1 = id_X as matrices
    q = pushout_induced_chain_map(Mf, ChainMap.identity(Y), f.compose(r),
                                  check=False)
    return CylinderData(Mf, j, q, inj_y, inj_cyl)


@dataclass
class CocylinderData:
    truncation: Truncation           # tau_{>=0}(E x_B Hom(I, B))
    section_leg: ChainMap            # i : E -> Np  (constant path at p(e))
    fibration_leg: ChainMap          # q : Np -> B  (evaluate the path at e1)

    @property
    def complex(self) -> ChainComplex:
        return self.truncation.complex


def _cocylinder_window(p: ChainMap) -> WindowComplex:
    """E x_B Hom(I, B) in degrees -1..top, pulled back along evaluation at e0.

    Degree n is E_n (+) B_n (+) B_{n+1}: the triple (e, b, h) stands for
    e together with the path (p e, b, h), a path f being read as
    (f(e0), f(e1), f(e)).  The hom differential (d f)_i = d f_i -
    (-1)^n f_{i-1} d with d e = e1 - e0 gives
    d(e, b, h) = (d e, d b, d h + (-1)^{n+1}(b - p e)).  A complex by
    construction: the third entry of d d is
    (-1)^{n+1}(d b - d p e) + (-1)^n (d b - p d e), which vanishes
    because p is a chain map; each block is a module map, so relations
    go to relations.
    """
    E, B = p.source, p.target
    ring = E.ring
    top = max(E.top, B.top)

    def gens(C: ChainComplex, n: int) -> int:
        return C.module(n).generators

    mods = {n: direct_sum_module(ring, [E.module(n), B.module(n),
                                        B.module(n + 1)])
            for n in range(-1, top + 1)}
    diffs: dict[int, ModuleMap] = {}
    for n in range(0, top + 1):
        s = -1 if n % 2 == 0 else 1  # (-1)^{n+1}
        blocks = {
            (0, 0): E.differential(n).action,
            (1, 1): B.differential(n).action,
            (2, 0): p.component(n).action.scale(-s),
            (2, 1): Matrix.identity(ring, gens(B, n)).scale(s),
            (2, 2): B.differential(n + 1).action,
        }
        action = Matrix.assemble(
            ring, [gens(E, n - 1), gens(B, n - 1), gens(B, n)],
            [gens(E, n), gens(B, n), gens(B, n + 1)], blocks)
        diffs[n] = ModuleMap(mods[n], mods[n - 1], action, check=False)
    return WindowComplex(ring, mods, diffs, check=False)


def path_window(B: ChainComplex) -> WindowComplex:
    """Hom(I, B) in degrees -1..top, as B_n (+) B_n (+) B_{n+1}.

    A path f is read as (f(e0), f(e1), f(e)), and
    d(a, b, h) = (d a, d b, d h + (-1)^{n+1}(b - a)).  This is the
    cocylinder window of id_B: the pullback along id_B forgets nothing.
    """
    return _cocylinder_window(ChainMap.identity(B))


def mapping_cocylinder(p: ChainMap) -> CocylinderData:
    """Np with its legs, all chain maps by construction.

    On the window (see `_cocylinder_window`) the section is
    e -> (e, p e, 0), the constant path at p(e), and the fibration leg is
    (e, b, h) -> b, evaluation at e1.  The section commutes with d since
    d(e, p e, 0) = (d e, d p e, (-1)^{n+1}(p e - p e)) = (d e, p d e, 0);
    the fibration leg commutes with d because the middle row of d is
    (0, d, 0).  The truncation keeps both chain maps, and
    fibration leg o section = p on the nose.
    """
    E, B = p.source, p.target
    ring = E.ring
    window = _cocylinder_window(p)
    trunc = good_truncation(window)

    sec_parts: dict[int, ModuleMap] = {}
    fib_parts: dict[int, ModuleMap] = {}
    for n in range(0, window.top + 1):
        gE, gB = E.module(n).generators, B.module(n).generators
        sizes = [gE, gB, B.module(n + 1).generators]
        col = Matrix.assemble(ring, sizes, [gE], {
            (0, 0): Matrix.identity(ring, gE), (1, 0): p.component(n).action})
        sec_parts[n] = ModuleMap(E.module(n), window.module(n), col,
                                 check=False)
        row = Matrix.assemble(ring, [gB], sizes,
                              {(0, 1): Matrix.identity(ring, gB)})
        fib_parts[n] = ModuleMap(window.module(n), B.module(n), row,
                                 check=False)
    section = map_into_truncation(E, trunc, sec_parts, check=False)
    fibration = map_from_truncation(trunc, B, fib_parts, check=False)
    return CocylinderData(trunc, section, fibration)
