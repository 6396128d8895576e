"""The simplicial cotensor through disk comparisons, and the dual EZ/AW maps.

Degree n of the normalized cotensor N(B^A) is the module of chain maps
N(A (x) Gamma(D^n)) -> N(B); the differential precomposes the canonical
disk inclusion D^{n-1} -> D^n tensored with A.  The comparison with the
enriching hom complex tau_{>=0} Hom(N(A), N(B)) goes through the bijection
between degree-n hom elements f and chain maps F on N(A) (x) D^n:

    F(x (x) e) = (-1)^{n|x|} f(x),     F(x (x) e') = (-1)^{(n-1)|x|} (df)(x),

with EZ* = precompose the shuffle map and AW* = precompose the front-back
map.  Every map induced on these modules (the cotensor differential, AW*
and EZ*) is built one degree at a time, by one multi-column `coords` call
on the composed generator maps.  EZ* o AW* is the identity on the nose,
so AW* is degreewise split with the chain retraction EZ*, and
AW* o EZ* is homotopic to the identity by a contraction of coker AW*:
`homotopy_to_identity(AW*, EZ*)`, through `cokernel_contraction`, the
entry point for split maps, checks the first identity by multiplication
and builds that contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from ..chains.build import disk, unit_complex
from ..chains.complexes import ChainComplex, ChainHomotopy, ChainMap
from ..chains.homcx import ChainMapsSpace, hom_truncation
from ..chains.homotopy import homotopy_to_identity
from ..chains.tensor import TensorLayout
from ..chains.truncate import Truncation
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap
from ..exact.snf import solve
from .ez_aw import aw, ez
from .module import (SimplicialModule, constant_module, degreewise_tensor,
                     gamma, gamma_level_rank, gamma_map,
                     tensor_normalized_map)

# ``through`` is refused once the largest level of the cotensor, level
# A.top + n of A (x) Gamma(D^n), would have more generators than this.
# The default through 3 passes on every pair of fixtures/: the largest is
# A = D3 of disks_spheres.json (a chain complex read through Gamma), whose
# level 6 has 1225 generators.  The count ignores B, which matters little
# at this size (whole `ez-aw --dual` runs on two shared vCPUs, Python
# 3.11; each range spans medians of five taken at different times):
# D3 x S0 takes 0.22-0.24 s and D3 x D3 0.21-0.37 s, both with
# a peak RSS of about 19 MB.  For sD1 and sS1 of fixtures/simplicial.json
# through 11 reaches 1014 generators and takes 0.22-0.39 s, with a peak
# RSS of 19 MB; through 12 reaches 1274 and is refused.
MAX_COTENSOR_GENERATORS = 1250


def disk_inclusion(ring, n: int) -> ChainMap:
    """iota_n : D^{n-1} -> D^n sending the top generator to e' = d(e).

    A chain map by construction: d e' = 0, and the only other generator
    of D^{n-1} (the image of its top one) goes to 0.
    """
    src = unit_complex(ring) if n == 1 else disk(ring, n - 1)
    tgt = disk(ring, n)
    comps = [ModuleMap.zero_map(src.module(m), tgt.module(m))
             for m in range(n - 1)]
    comps.append(ModuleMap(src.module(n - 1), tgt.module(n - 1),
                           Matrix.identity(ring, 1), check=False))
    return ChainMap(src, tgt, comps, check=False)


def through_problem(A: SimplicialModule, B: SimplicialModule, through: int
                    ) -> str | None:
    """Why N(B^A) may not be built through ``through``, or None.

    ``cotensor`` builds T_n = A (x) Gamma(D^n) through level A.top + n for
    n up to top = max(through, B.top); the largest is level A.top + top
    of T_top.  Level L of Gamma(D^n) has binom(L, n) + binom(L, n - 1) =
    binom(L + 1, n) generators, so this builds no level.
    """
    if through < 0:
        return "through must be an integer >= 0"
    top = max(through, B.top)
    level = A.top + top
    rank = gamma_level_rank(A.normalized, level) * comb(level + 1, top)
    if rank <= MAX_COTENSOR_GENERATORS:
        return None
    return (f"level {level} of A (x) Gamma(D^{top}) would have {rank} "
            f"generators, more than {MAX_COTENSOR_GENERATORS}")


@dataclass
class CotensorData:
    """N(B^A) together with the per-degree chain-map spaces."""

    A: SimplicialModule
    B: SimplicialModule
    complex: ChainComplex
    spaces: list[ChainMapsSpace]          # degree n chain maps T_n -> N(B)
    tensors: list[SimplicialModule]       # T_n = A (x) Gamma(D^n)
    disks: list[SimplicialModule]         # Gamma(D^n) (degree 0: c(R))


def cotensor(A: SimplicialModule, B: SimplicialModule, through: int
             ) -> CotensorData:
    """Materialize N(B^A) in degrees 0..max(through, top of N(B)).

    A complex by construction: d_n precomposes each chain map with
    u_n = id_A (x) Gamma(iota_n), which is linear, so relations go to
    relations, and d_{n-1} d_n precomposes with u_n o u_{n-1}, which is
    zero because iota_n o iota_{n-1} = 0 (iota_n only moves the top
    generator of D^{n-1}, and iota_{n-1} lands below it).
    """
    ring = A.ring
    top = max(through, B.normalized.top)
    disks: list[SimplicialModule] = [constant_module(ring)]
    for n in range(1, top + 1):
        disks.append(gamma(disk(ring, n), verify=False))
    tensors = [degreewise_tensor(A, disks[n]) for n in range(top + 1)]
    spaces = [ChainMapsSpace(tensors[n].normalized, B.normalized)
              for n in range(top + 1)]
    mods = [sp.module for sp in spaces]
    diffs: list[ModuleMap] = []
    for n in range(1, top + 1):
        incl = gamma_map(disk_inclusion(ring, n), disks[n - 1], disks[n])
        u = tensor_normalized_map(None, incl, tensors[n - 1], tensors[n])
        action = spaces[n - 1].coords(*[F.compose(u) for F in spaces[n].gens])
        diffs.append(ModuleMap(mods[n], mods[n - 1], action, check=False))
    cx = ChainComplex(ring, mods, diffs, check=False)
    return CotensorData(A, B, cx, spaces, tensors, disks)


class HomDiskBridge:
    """The bijection f <-> F between hom elements and disk-tensor maps."""

    def __init__(self, A: SimplicialModule, B: SimplicialModule):
        self.ring = A.ring
        self.NA = A.normalized
        self.NB = B.normalized
        self.trunc, self.window = hom_truncation(self.NA, self.NB)
        self._layouts: dict[int, TensorLayout] = {}

    def layout(self, n: int) -> TensorLayout:
        if n not in self._layouts:
            Dn = unit_complex(self.ring) if n == 0 else disk(self.ring, n)
            self._layouts[n] = TensorLayout(self.NA, Dn)
        return self._layouts[n]

    def disk_maps(self, n: int) -> list[ChainMap]:
        """Phi of each generator of degree n: chain maps N(A) (x) D^n -> N(B).

        Chain maps by construction.  In degree 0 a generator is a cycle of
        the hom window, a chain map N(A) -> N(B).  For n >= 1, with
        d(x (x) e) = d x (x) e + (-1)^{|x|} x (x) e', the square at
        x (x) e reads d f(x) = (-1)^n f(d x) + (df)(x), which is the hom
        differential (df)_i = d f_i - (-1)^n f_{i-1} d; the square at
        x (x) e' holds because d(df) = 0.
        """
        if n == 0:
            # window coordinates of the generators; df does not occur
            W, dW = self.trunc.kernel_inclusion.action, None
        else:
            dW = self.window.differential(n).action
            W = Matrix.identity(self.ring, dW.cols)
        return [self._disk_map(
                    n, self._window_components(n, W.column_at(j)),
                    self._window_components(n - 1, dW.column_at(j))
                    if n >= 1 else {})
                for j in range(W.cols)]

    def _disk_map(self, n: int, f: dict[int, Matrix],
                  df: dict[int, Matrix]) -> ChainMap:
        """The chain map F of a hom element f with differential df:
        F(x (x) e) = (-1)^{n|x|} f(x), F(x (x) e') = (-1)^{(n-1)|x|} (df)(x).
        """
        lay = self.layout(n)
        comps = []
        for m in range(max(lay.top, self.NB.top) + 1):
            rows = self.NB.module(m).generators
            cols = lay.module(m).generators
            out = [[0] * cols for _ in range(rows)]
            # the summands x (x) e and x (x) e' of degree m
            for i, k, part in ((m - n, n, f), (m - n + 1, n - 1, df)):
                if (i, k) in lay.pairs(m) and i in part:
                    blk, off = part[i], lay.offset(m, i)
                    sign = -1 if (k * i) % 2 else 1
                    for a in range(blk.rows):
                        for b in range(blk.cols):
                            out[a][off + b] = sign * blk[a, b]
            comps.append(ModuleMap(lay.module(m), self.NB.module(m),
                                   Matrix(self.ring, rows, cols, out),
                                   check=False))
        return ChainMap(lay.complex(), self.NB, comps, check=False)

    def _window_components(self, n: int, wcoords: Matrix) -> dict[int, Matrix]:
        out: dict[int, Matrix] = {}
        for i, off in self.window.offsets(n):
            sp = self.window.space(i, n)
            g = sp.module.generators
            c = wcoords.submatrix(range(off, off + g), [0])
            out[i] = sp.element(c)
        return out

    def from_disk_maps(self, n: int, maps: list[ChainMap]) -> Matrix:
        """Phi^{-1}: the degree-n hom elements of chain maps G on
        N(A) (x) D^n, one column per map, each summand encoded by one
        `HomSpace.coords` call."""
        lay = self.layout(n)
        blocks: list[Matrix] = []
        for i in self.window.summand_indices(n):
            sp = self.window.space(i, n)
            m = i + n
            if (i, n) in lay.pairs(m):
                # the columns of the (i, n) summand of degree m
                off = lay.offset(m, i)
                g = lay.X.module(i).generators * lay.Y.module(n).generators
                blks = [G.component(m).action.columns(range(off, off + g))
                        for G in maps]
                if (n * i) % 2:
                    blks = [-blk for blk in blks]
                blocks.append(sp.coords(*blks))
            else:
                blocks.append(Matrix.zero(self.ring, sp.module.generators,
                                          len(maps)))
        stacked = Matrix.vstack_all(self.ring, len(maps), blocks)
        if n >= 1:
            return stacked
        incl = self.trunc.kernel_inclusion
        sol = solve(incl.action.hstack(incl.target.relations), stacked)
        if sol is None:
            raise ValueError("disk map does not define a chain map element")
        return sol.submatrix(range(incl.source.generators), range(len(maps)))


@dataclass
class DualComparison:
    cotensor: CotensorData
    hom_side: Truncation
    aw_star: ChainMap     # hom complex -> N(B^A)
    ez_star: ChainMap     # N(B^A) -> hom complex
    homotopy: ChainHomotopy  # from AW* o EZ* to the identity on N(B^A)


def ez_aw_dual_ops(A: SimplicialModule, B: SimplicialModule, through: int
                   ) -> DualComparison:
    """AW*, EZ* with EZ* o AW* = id exactly and AW* o EZ* ~ id by witness.

    Each degree of AW* (f -> Phi(f) o AW) and of EZ* (F -> Phi^{-1}(F o EZ))
    is one multi-column encoding of the composed generator maps.  The
    homotopy is `homotopy_to_identity(AW*, EZ*)`, which checks
    EZ* o AW* = id by multiplication first; with EZ* a chain map it is a
    homotopy on N(B^A) itself, checked there.
    """
    cot = cotensor(A, B, through)
    bridge = HomDiskBridge(A, B)
    trunc = bridge.trunc
    aw_parts: list[ModuleMap] = []
    ez_parts: list[ModuleMap] = []
    for n in range(cot.complex.top + 1):
        hom_mod = trunc.complex.module(n)
        cot_mod = cot.complex.module(n)
        space = cot.spaces[n]
        ez_n = ez(A, cot.disks[n], cot.tensors[n])
        aw_n = aw(A, cot.disks[n], cot.tensors[n])
        aw_parts.append(ModuleMap(hom_mod, cot_mod, space.coords(
            *[F.compose(aw_n) for F in bridge.disk_maps(n)]), check=False))
        ez_parts.append(ModuleMap(cot_mod, hom_mod, bridge.from_disk_maps(
            n, [F.compose(ez_n) for F in space.gens]), check=False))

    aw_star = ChainMap(trunc.complex, cot.complex, aw_parts)
    ez_star = ChainMap(cot.complex, trunc.complex, ez_parts)
    homotopy = homotopy_to_identity(aw_star, ez_star, ("AW*", "EZ*"))
    return DualComparison(cot, trunc, aw_star, ez_star, homotopy)
