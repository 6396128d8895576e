"""The simplicial cotensor through disk comparisons, and the dual EZ/AW maps.

Degree n of the normalized cotensor N(B^A) is the module of chain maps
N(A (x) Gamma(D^n)) -> N(B); the differential precomposes the canonical
disk inclusion D^{n-1} -> D^n tensored with A.  The comparison with the
enriching hom complex tau_{>=0} Hom(N(A), N(B)) goes through the bijection
between degree-n hom elements f and chain maps F on N(A) (x) D^n:

    F(x (x) e) = (-1)^{n|x|} f(x),     F(x (x) e') = (-1)^{(n-1)|x|} (df)(x),

with EZ* = precompose the shuffle map and AW* = precompose the front-back
map.  EZ* o AW* is the identity on the nose, so id - AW* o EZ* is an
idempotent chain map, and AW* o EZ* is homotopic to the identity by a
contraction of its image, built degree by degree (`contract_image`);
both are verified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from ..chains.build import disk, unit_complex
from ..chains.complexes import ChainComplex, ChainHomotopy, ChainMap
from ..chains.homcx import ChainMapsSpace, hom_truncation
from ..chains.homotopy import contract_image
from ..chains.tensor import TensorLayout
from ..chains.truncate import Truncation
from ..errors import CertificateError
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap
from ..exact.snf import solve
from .ez_aw import aw, ez
from .module import (SimplicialMap, SimplicialModule, constant_module,
                     degreewise_tensor, gamma, gamma_level_rank, gamma_map,
                     tensor_normalized_map)

# ``through`` is refused once the largest level of the cotensor, level
# A.top + n of A (x) Gamma(D^n), would have more generators than this.
# The default through 3 passes on every pair of fixtures/: the largest is
# A = D3 of disks_spheres.json (a chain complex read through Gamma), whose
# level 6 has 1225 generators.  The count ignores B, which matters little
# at this size (whole `ez-aw --dual` runs, two vCPUs, Python 3.11): D3 x S0
# takes 0.3 s and D3 x D3 0.4 s, both with a peak RSS of about 20 MB.  For
# sD1 and sS1 of fixtures/simplicial.json through 11 reaches 1014
# generators and takes about 1.0 s; through 12 reaches 1274 and is refused.
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
        u = tensor_normalized_map(_identity_simplicial(A), incl,
                                  tensors[n - 1], tensors[n])
        cols = []
        for j in range(mods[n].generators):
            F = spaces[n].chain_map(_unit_column(ring, mods[n].generators, j))
            cols.append(spaces[n - 1].coords(F.compose(u)))
        action = Matrix.hstack_all(ring, mods[n - 1].generators, cols)
        diffs.append(ModuleMap(mods[n], mods[n - 1], action, check=False))
    cx = ChainComplex(ring, mods, diffs, check=False)
    return CotensorData(A, B, cx, spaces, tensors, disks)


def _identity_simplicial(A: SimplicialModule) -> SimplicialMap:
    return SimplicialMap(A, A, ChainMap.identity(A.normalized))


def _unit_column(ring, size: int, j: int) -> Matrix:
    return Matrix(ring, size, 1, [[1 if i == j else 0] for i in range(size)])


class HomDiskBridge:
    """The bijection f <-> F between hom elements and disk-tensor maps."""

    def __init__(self, A: SimplicialModule, B: SimplicialModule):
        self.A = A
        self.B = B
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

    def window_coords(self, n: int, coords: Matrix) -> Matrix:
        """Coefficients in the window module at degree n >= 0."""
        if n >= 1:
            return coords
        return self.trunc.kernel_inclusion.action @ coords

    def to_disk_map(self, n: int, coords: Matrix) -> ChainMap:
        """Phi: a degree-n hom element to a chain map N(A) (x) D^n -> N(B).

        A chain map by construction.  In degree 0 the element is a cycle
        of the hom window, a chain map N(A) -> N(B).  For n >= 1, with
        d(x (x) e) = d x (x) e + (-1)^{|x|} x (x) e', the square at
        x (x) e reads d f(x) = (-1)^n f(d x) + (df)(x), which is the hom
        differential (df)_i = d f_i - (-1)^n f_{i-1} d; the square at
        x (x) e' holds because d(df) = 0.
        """
        wc = self.window_coords(n, coords)
        f = self._window_components(n, wc)
        df = self._window_components(
            n - 1, self.window.differential(n).action @ wc) if n >= 1 else {}
        lay = self.layout(n)
        comps = []
        for m in range(max(lay.top, self.NB.top) + 1):
            rows = self.NB.module(m).generators
            cols = lay.module(m).generators
            out = [[0] * cols for _ in range(rows)]
            pairs = lay.pairs(m)
            if (m - n, n) in pairs and (m - n) in f:
                blk = f[m - n]
                sign = -1 if (n * (m - n)) % 2 else 1
                off = lay.offset(m, m - n)
                for a in range(blk.rows):
                    for b in range(blk.cols):
                        out[a][off + b] = sign * blk[a, b]
            i = m - n + 1
            if n >= 1 and (i, n - 1) in pairs and i in df:
                blk = df[i]
                sign = -1 if ((n - 1) * i) % 2 else 1
                off = lay.offset(m, i)
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

    def from_disk_map(self, n: int, G: ChainMap) -> Matrix:
        """Phi^{-1}: extract the degree-n hom element from G on N(A) (x) D^n."""
        lay = self.layout(n)
        cols: list[Matrix] = []
        for i, off in self.window.offsets(n):
            sp = self.window.space(i, n)
            m = i + n
            if (i, n) in lay.pairs(m):
                # the columns of the (i, n) summand of degree m
                off = lay.offset(m, i)
                g = lay.X.module(i).generators * lay.Y.module(n).generators
                blk = G.component(m).action.columns(range(off, off + g))
                if (n * i) % 2:
                    blk = -blk
                cols.append(sp.coords(blk))
            else:
                cols.append(Matrix.zero(self.ring, sp.module.generators, 1))
        stacked = Matrix.vstack_all(self.ring, 1, cols)
        if n >= 1:
            return stacked
        amb = self.trunc.kernel_inclusion.target
        sol = solve(self.trunc.kernel_inclusion.action.hstack(amb.relations),
                    stacked)
        if sol is None:
            raise ValueError("disk map does not define a chain map element")
        return sol.submatrix(
            range(self.trunc.complex.module(0).generators), [0])


@dataclass
class DualComparison:
    cotensor: CotensorData
    hom_side: Truncation
    aw_star: ChainMap     # hom complex -> N(B^A)
    ez_star: ChainMap     # N(B^A) -> hom complex
    homotopy: ChainHomotopy  # from AW* o EZ* to the identity on N(B^A)


def ez_aw_dual_ops(A: SimplicialModule, B: SimplicialModule, through: int
                   ) -> DualComparison:
    """AW*, EZ* with EZ* o AW* = id exactly and AW* o EZ* ~ id by witness."""
    cot = cotensor(A, B, through)
    bridge = HomDiskBridge(A, B)
    trunc = bridge.trunc
    ring = A.ring
    top = cot.complex.top

    aw_parts: list[ModuleMap] = []
    ez_parts: list[ModuleMap] = []
    for n in range(top + 1):
        hom_mod = trunc.complex.module(n)
        cot_mod = cot.complex.module(n)
        ez_n = ez(A, cot.disks[n], cot.tensors[n])
        aw_n = aw(A, cot.disks[n], cot.tensors[n])
        # AW*: f -> Phi(f) o AW
        cols = []
        for j in range(hom_mod.generators):
            F = bridge.to_disk_map(n, _unit_column(ring, hom_mod.generators, j))
            cols.append(cot.spaces[n].coords(F.compose(aw_n)))
        action = Matrix.hstack_all(ring, cot_mod.generators, cols)
        aw_parts.append(ModuleMap(hom_mod, cot_mod, action, check=False))
        # EZ*: F -> Phi^{-1}(F o EZ)
        cols = []
        for j in range(cot_mod.generators):
            F = cot.spaces[n].chain_map(_unit_column(ring, cot_mod.generators, j))
            cols.append(bridge.from_disk_map(n, F.compose(ez_n)))
        action = Matrix.hstack_all(ring, hom_mod.generators, cols)
        ez_parts.append(ModuleMap(cot_mod, hom_mod, action, check=False))

    aw_star = ChainMap(trunc.complex, cot.complex, aw_parts)
    ez_star = ChainMap(cot.complex, trunc.complex, ez_parts)
    from ..chains.complexes import chain_map_equal

    if not chain_map_equal(ez_star.compose(aw_star),
                           ChainMap.identity(trunc.complex)):
        raise CertificateError("EZ* o AW* failed to be the identity")
    composite = aw_star.compose(ez_star)
    h = contract_image(ChainMap.identity(cot.complex) - composite)
    if h is None:
        raise CertificateError("AW* o EZ* is not homotopic to the identity")
    homotopy = ChainHomotopy(composite, ChainMap.identity(cot.complex),
                             list(h.parts))
    return DualComparison(cot, trunc, aw_star, ez_star, homotopy)
