"""Mapping cones, cylinders, cocylinders, and chain-level pushouts.

Conventions (fixed once, used by every witness):
  * cone(f)_n = X_{n-1} (+) Y_n with the shifted source first and
    differential blocks [[-d_X, 0], [f, d_Y]].
  * the cylinder glues X (x) I to Y along the e1 end, so the cofibration
    leg of the factorization enters at e0.
  * the cocylinder is the good truncation of E x_B Hom(I, B) pulled back
    along evaluation at e0.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exact.matrix import Matrix
from ..exact.modules import (ModuleMap, PresentedModule, direct_sum_module,
                             factor_through, pullback_modules, pushout_modules)
from .build import interval
from .complexes import ChainComplex, ChainMap
from .homcx import HomWindow, evaluation_matrix, map_from_truncation, \
    map_into_truncation
from .tensor import TensorLayout, interval_cylinder
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
    section_leg: ChainMap            # i : E -> Nf  (constant path at p(e))
    fibration_leg: ChainMap          # q : Nf -> B  (evaluate the path at e1)
    to_E: ChainMap                   # projection Nf -> E
    hom_window: "HomWindow"          # Hom(I, B) window
    window_inclusions: dict[int, ModuleMap]  # Np_n -> E_n (+) (B^I)_n

    @property
    def complex(self) -> ChainComplex:
        return self.truncation.complex


def _constant_path_column(hw: HomWindow, n: int, col: Matrix) -> Matrix:
    """Encode b -> (constant path at b) into the degree-n hom module."""
    ring = hw.ring
    sp = hw.space(0, n)
    # element of Hom(I_0, B_n) with both evaluations equal to col
    coords_cols = []
    for j in range(col.cols):
        c = col.column_at(j)
        elem = c.hstack(c)  # gB x 2 matrix: e0 -> c, e1 -> c
        coords_cols.append(sp.coords(elem))
    out = Matrix.hstack_all(ring, sp.module.generators, coords_cols)
    # pad with zeros for the other summands of the window degree
    offsets = hw.offsets(n)
    total = hw.module(n).generators
    rows = [[0] * col.cols for _ in range(total)]
    for i, off in offsets:
        if i == 0:
            for a in range(sp.module.generators):
                for b in range(col.cols):
                    rows[off + a][b] = out[a, b]
    return Matrix(ring, total, col.cols, rows)


def _evaluation_window_matrix(hw: HomWindow, n: int, at: Matrix) -> Matrix:
    """Matrix of (B^I)_n -> B_n evaluating the degree-0 summand at `at`."""
    ring = hw.ring
    gB = hw.Y.module(n).generators
    total = hw.module(n).generators
    rows = [[0] * total for _ in range(gB)]
    for i, off in hw.offsets(n):
        if i == 0:
            sp = hw.space(0, n)
            ev = evaluation_matrix(sp, at)
            for a in range(gB):
                for b in range(sp.module.generators):
                    rows[a][off + b] = ev[a, b]
    return Matrix(ring, gB, total, rows)


def mapping_cocylinder(p: ChainMap) -> CocylinderData:
    """Np with its legs, all chain maps by construction.

    The window differential is the restriction of d_E (+) d_{B^I} to the
    pullback, found by factoring through its inclusion; the inclusion is
    a monomorphism, so d o d = 0 there because it holds on E (+) B^I.
    On the window the three legs are e -> (e, constant path at p(e)),
    evaluation at e1 after the projection to B^I, and the projection to
    E.  A constant path and an evaluation at a vertex are chain maps
    (d e0 = d e1 = 0 and d e = e1 - e0 is killed by a constant path), and
    so are p and the projections; the truncation keeps them so.
    """
    E, B = p.source, p.target
    ring = E.ring
    hw = HomWindow(interval(ring), B)
    e0 = Matrix(ring, 2, 1, [[1], [0]])
    e1 = Matrix(ring, 2, 1, [[0], [1]])

    top = max(E.top, hw.top)
    mods: dict[int, PresentedModule] = {}
    incls: dict[int, ModuleMap] = {}
    projE: dict[int, ModuleMap] = {}
    projP: dict[int, ModuleMap] = {}
    for n in range(-1, top + 1):
        ev0 = ModuleMap(hw.module(n), B.module(n),
                        _evaluation_window_matrix(hw, n, e0), check=False)
        pb, prE, prBI = pullback_modules(
            ModuleMap(E.module(n), B.module(n), p.component(n).action, check=False)
            if 0 <= n else ModuleMap.zero_map(E.module(n), B.module(n)),
            ev0)
        mods[n] = pb
        projE[n] = prE
        projP[n] = prBI
        incls[n] = _pullback_inclusion(prE, prBI)
    diffs: dict[int, ModuleMap] = {}
    for n in range(0, top + 1):
        amb = Matrix.block_diagonal(
            ring, [E.differential(n).action, hw.differential(n).action])
        ambient_map = ModuleMap(incls[n].target, incls[n - 1].target, amb,
                                check=False)
        w = factor_through(incls[n - 1], ambient_map.compose(incls[n]))
        if w is None:
            raise ValueError("cocylinder differential fails to restrict")
        diffs[n] = w
    window = WindowComplex(ring, mods, diffs, check=False)
    trunc = good_truncation(window)

    # section leg  E -> Nf : e -> (e, constant path at p(e))
    sec_parts: dict[int, ModuleMap] = {}
    for n in range(0, top + 1):
        pe = p.component(n).action
        path = _constant_path_column(hw, n, pe)
        col = Matrix.identity(ring, E.module(n).generators).vstack(path)
        u = ModuleMap(E.module(n), incls[n].target, col, check=False)
        w = factor_through(incls[n], u)
        if w is None:
            raise ValueError("constant-path section fails to land in the pullback")
        sec_parts[n] = w
    section = map_into_truncation(E, trunc, sec_parts, check=False)

    # fibration leg Nf -> B : evaluate the path at e1
    fib_parts: dict[int, ModuleMap] = {}
    toE_parts: dict[int, ModuleMap] = {}
    for n in range(0, top + 1):
        ev1 = ModuleMap(hw.module(n), B.module(n),
                        _evaluation_window_matrix(hw, n, e1), check=False)
        fib_parts[n] = ev1.compose(projP[n])
        toE_parts[n] = projE[n]
    fibration = map_from_truncation(trunc, B, fib_parts, check=False)
    to_E = map_from_truncation(trunc, E, toE_parts, check=False)
    return CocylinderData(trunc, section, fibration, to_E, hw, incls)


def _pullback_inclusion(prE: ModuleMap, prBI: ModuleMap) -> ModuleMap:
    """Recover the inclusion P -> E (+) B^I from the two projections."""
    action = prE.action.vstack(prBI.action)
    total = direct_sum_module(prE.source.ring, [prE.target, prBI.target])
    return ModuleMap(prE.source, total, action, check=False)
