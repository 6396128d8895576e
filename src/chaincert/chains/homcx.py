"""Hom complexes, chain-map modules, and evaluation maps.

The hom complex of bounded X, Y lives in degrees -topX .. topY, but its
good truncation only ever looks at degrees >= -1, so the window stops
there.  Degree n >= 1 is the sum over i of Hom(X_i, Y_{i+n}) with the
differential (df)_i = d(f_i) - (-1)^n f_{i-1} d; degree 0 of the
truncation is the module of chain maps X -> Y.
"""

from __future__ import annotations

from functools import cached_property

from ..exact.matrix import Matrix
from ..exact.modules import (HomSpace, ModuleMap, PresentedModule,
                             direct_sum_module, kernel)
from ..exact.snf import solve
from .complexes import ChainComplex, ChainMap
from .truncate import Truncation, WindowComplex, good_truncation


class HomWindow:
    """Window of the hom complex with per-summand HomSpace bookkeeping."""

    def __init__(self, X: ChainComplex, Y: ChainComplex):
        if X.ring != Y.ring:
            raise ValueError("ring mismatch")
        self.X = X
        self.Y = Y
        self.ring = X.ring
        self.top = Y.top
        self._spaces: dict[tuple[int, int], HomSpace] = {}
        self._mods: dict[int, PresentedModule] = {}
        self._offsets: dict[int, list[tuple[int, int]]] = {}
        self._diffs: dict[int, ModuleMap] = {}

    def summand_indices(self, n: int) -> list[int]:
        return [i for i in range(self.X.top + 1) if 0 <= i + n <= self.Y.top]

    def space(self, i: int, n: int) -> HomSpace:
        key = (i, n)
        if key not in self._spaces:
            self._spaces[key] = HomSpace(self.X.module(i), self.Y.module(i + n))
        return self._spaces[key]

    def module(self, n: int) -> PresentedModule:
        if n in self._mods:
            return self._mods[n]
        idxs = self.summand_indices(n)
        offsets = []
        pos = 0
        mods = []
        for i in idxs:
            sp = self.space(i, n)
            offsets.append((i, pos))
            pos += sp.module.generators
            mods.append(sp.module)
        total = direct_sum_module(self.ring, mods)
        self._mods[n] = total
        self._offsets[n] = offsets
        return total

    def offsets(self, n: int) -> list[tuple[int, int]]:
        self.module(n)
        return self._offsets[n]

    def differential(self, n: int) -> ModuleMap:
        """d : Hom_n -> Hom_{n-1}."""
        if n in self._diffs:
            return self._diffs[n]
        src = self.module(n)
        tgt = self.module(n - 1)
        sidx = self.summand_indices(n)
        tidx = self.summand_indices(n - 1)
        row_sizes = [self.space(i, n - 1).module.generators for i in tidx]
        col_sizes = [self.space(i, n).module.generators for i in sidx]
        blocks: dict[tuple[int, int], Matrix] = {}
        sign = -1 if n % 2 == 0 else 1  # -(-1)^n
        for s_pos, i in enumerate(sidx):
            sp = self.space(i, n)
            if i in tidx:
                t_pos = tidx.index(i)
                post = sp.postcompose(self.Y.differential(i + n),
                                      self.space(i, n - 1))
                blocks[(t_pos, s_pos)] = post.action
            if (i + 1) in tidx:
                t_pos = tidx.index(i + 1)
                pre = sp.precompose(self.X.differential(i + 1),
                                    self.space(i + 1, n - 1))
                blocks[(t_pos, s_pos)] = pre.action.scale(sign)
        action = Matrix.assemble(self.ring, row_sizes, col_sizes, blocks)
        self._diffs[n] = ModuleMap(src, tgt, action, check=False)
        return self._diffs[n]

    def window(self) -> WindowComplex:
        """The window, a complex by construction: with
        (df)_i = d f_i - (-1)^n f_{i-1} d, the two sign terms of
        (ddf)_i cancel and d d = 0 on X and Y removes the rest."""
        mods = {n: self.module(n) for n in range(-1, self.top + 1)}
        diffs = {n: self.differential(n) for n in range(0, self.top + 1)}
        return WindowComplex(self.ring, mods, diffs, check=False)


def hom_truncation(X: ChainComplex, Y: ChainComplex) -> tuple[Truncation, HomWindow]:
    hw = HomWindow(X, Y)
    return good_truncation(hw.window()), hw


# the `hom` command refuses a pair once a degree of the hom window would
# have more than this many unknowns.  The pair of ranks (9, 8, 7, 8) and
# (17, 26, 12, 11) reaches 533 and `hom` takes 1.9 s over Z (3.8 s for
# `hom_complex` over Z/6); ranks (56, 68, 63, 35) and (9, 6, 5, 4) reach
# 1367 and take 21 s over Z, 48 s over Z/6 (one run each, two shared
# vCPUs, Python 3.11).
MAX_HOM_UNKNOWNS = 512


def hom_complex(X: ChainComplex, Y: ChainComplex) -> ChainComplex:
    """tau_{>=0} Hom(X, Y): the enriching hom of Ch_{>=0}."""
    return hom_truncation(X, Y)[0].complex


def hom_size_problem(X: ChainComplex, Y: ChainComplex) -> str | None:
    """Why the hom window of X, Y may not be built, or None.

    Degree n of the window (-1 <= n <= top Y) is solved over
    sum_i gens(X_i) gens(Y_{i+n}) unknowns, the entries of its matrices,
    counted without building anything.
    """
    size, n = max((sum(X.module(i).generators * Y.module(i + n).generators
                       for i in range(X.top + 1)), n)
                  for n in range(-1, Y.top + 1))
    if size <= MAX_HOM_UNKNOWNS:
        return None
    return (f"degree {n} of Hom(X, Y) would have {size} unknowns, more "
            f"than {MAX_HOM_UNKNOWNS}")


class ChainMapsSpace:
    """The module of chain maps X -> Y with explicit encode/decode."""

    def __init__(self, X: ChainComplex, Y: ChainComplex):
        self.X = X
        self.Y = Y
        self.ring = X.ring
        self.window = HomWindow(X, Y)
        ker, incl = kernel(self.window.differential(0))
        self.module = ker
        self.inclusion = incl  # into the degree-0 window module
        # [inclusion | window relations], kept so that every coords call
        # reuses the one Smith form of it
        self._coord_system = incl.action.hstack(incl.target.relations)

    @cached_property
    def gens(self) -> list[ChainMap]:
        """The generators as chain maps, decoded once from the columns of
        the inclusion."""
        action = self.inclusion.action
        return [self._decode(action.column_at(j)) for j in range(action.cols)]

    def chain_map(self, coords: Matrix) -> ChainMap:
        """Decode a coefficient column into an actual chain map."""
        return self._decode(self.inclusion.action @ coords)

    def _decode(self, v: Matrix) -> ChainMap:
        """The chain map of a column v of ker(d_0) in the hom window.

        A chain map by construction: d_0 of a degree-0 element (f_i) is
        (d f_i - f_{i-1} d), so every square commutes; each component is
        a combination of well-defined generators.
        """
        comps: list[ModuleMap] = []
        offsets = dict(self.window.offsets(0))
        top = max(self.X.top, self.Y.top)
        for n in range(top + 1):
            if n in offsets:
                sp = self.window.space(n, 0)
                off = offsets[n]
                g = sp.module.generators
                c = v.submatrix(range(off, off + g), [0])
                comps.append(ModuleMap(self.X.module(n), self.Y.module(n),
                                       sp.element(c), check=False))
            else:
                comps.append(ModuleMap.zero_map(self.X.module(n), self.Y.module(n)))
        return ChainMap(self.X, self.Y, comps, check=False)

    def coords(self, *maps: ChainMap) -> Matrix:
        """Coefficient columns of chain maps (mod relations), one per map.

        Each summand is encoded by its `HomSpace`, and the stacked columns
        by one `solve` against the kept Smith form; a single map gives one
        column, and none makes no solve.
        """
        k = self.module.generators
        if not maps:
            return Matrix.zero(self.ring, k, 0)
        blocks = [self.window.space(i, 0).coords(
                      *[f.component(i).action for f in maps])
                  for i in self.window.summand_indices(0)]
        stacked = Matrix.vstack_all(self.ring, len(maps), blocks)
        sol = solve(self._coord_system, stacked)
        if sol is None:
            raise ValueError("chain map does not lie in the chain-maps module")
        return sol.submatrix(range(k), range(len(maps)))


def map_from_truncation(source: Truncation, target: ChainComplex,
                        window_components: dict[int, ModuleMap],
                        *, check: bool = True) -> ChainMap:
    """Build a chain map out of a truncation from window-level components.

    ``check=False`` is for callers whose components commute with the
    window differentials by construction: composing with the kernel
    inclusion keeps the squares commuting.
    """
    comps = [window_components[0].compose(source.kernel_inclusion)]
    top = max(source.complex.top, target.top)
    for n in range(1, top + 1):
        comps.append(window_components.get(
            n, ModuleMap.zero_map(source.complex.module(n), target.module(n))))
    return ChainMap(source.complex, target, comps, check=check)

