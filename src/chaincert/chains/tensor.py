"""Tensor product of complexes with the Koszul sign rule.

Degree n of X (x) Y is the direct sum of X_i (x) Y_j over i + j = n,
summands ordered by ascending i; within a summand the generator pair
(a, b) sits at index a * gens(Y_j) + b.  The differential is
d(x (x) y) = d(x) (x) y + (-1)^{|x|} x (x) d(y).
"""

from __future__ import annotations

from typing import Sequence

from ..exact.matrix import Matrix
from ..exact.modules import (ModuleMap, PresentedModule, direct_sum_module,
                             tensor_module)
from .build import interval
from .complexes import ChainComplex, ChainMap


class TensorLayout:
    """Summand bookkeeping for X (x) Y, shared by every construction
    that needs to address individual bidegree blocks."""

    def __init__(self, X: ChainComplex, Y: ChainComplex):
        if X.ring != Y.ring:
            raise ValueError("tensor factors must share their ring")
        self.X = X
        self.Y = Y
        self.ring = X.ring
        self.top = X.top + Y.top
        self._modules: dict[int, PresentedModule] = {}
        self._complex: ChainComplex | None = None

    def pairs(self, n: int) -> list[tuple[int, int]]:
        lo = max(0, n - self.Y.top)
        hi = min(n, self.X.top)
        return [(i, n - i) for i in range(lo, hi + 1)]

    def module(self, n: int) -> PresentedModule:
        if n in self._modules:
            return self._modules[n]
        if n < 0 or n > self.top:
            z = PresentedModule.zero(self.ring)
            return z
        summands = [tensor_module(self.X.module(i), self.Y.module(j))
                    for i, j in self.pairs(n)]
        total = direct_sum_module(self.ring, summands)
        self._modules[n] = total
        return total

    def offset(self, n: int, i: int) -> int:
        off = 0
        for (ii, jj) in self.pairs(n):
            if ii == i:
                return off
            off += self.X.module(ii).generators * self.Y.module(jj).generators
        raise KeyError(f"pair ({i},{n - i}) absent in degree {n}")

    def address(self, n: int, i: int, a: int, b: int) -> int:
        gy = self.Y.module(n - i).generators
        return self.offset(n, i) + a * gy + b

    def differential(self, n: int) -> ModuleMap:
        src, tgt = self.module(n), self.module(n - 1)
        spairs, tpairs = self.pairs(n), self.pairs(n - 1)
        row_sizes = [self.X.module(i).generators * self.Y.module(j).generators
                     for i, j in tpairs]
        col_sizes = [self.X.module(i).generators * self.Y.module(j).generators
                     for i, j in spairs]
        blocks: dict[tuple[int, int], Matrix] = {}
        for sidx, (i, j) in enumerate(spairs):
            gx = self.X.module(i).generators
            gy = self.Y.module(j).generators
            if i >= 1 and (i - 1, j) in tpairs:
                tidx = tpairs.index((i - 1, j))
                blk = self.X.differential(i).action.kron(
                    Matrix.identity(self.ring, gy))
                blocks[(tidx, sidx)] = blk
            if j >= 1 and (i, j - 1) in tpairs:
                tidx = tpairs.index((i, j - 1))
                blk = Matrix.identity(self.ring, gx).kron(
                    self.Y.differential(j).action)
                if i % 2:
                    blk = -blk
                blocks[(tidx, sidx)] = blocks.get(
                    (tidx, sidx), Matrix.zero(self.ring, row_sizes[tidx],
                                              col_sizes[sidx])) + blk
        action = Matrix.assemble(self.ring, row_sizes, col_sizes, blocks)
        return ModuleMap(src, tgt, action, check=False)

    def complex(self) -> ChainComplex:
        if self._complex is None:
            mods = [self.module(n) for n in range(self.top + 1)]
            diffs = [self.differential(n) for n in range(1, self.top + 1)]
            self._complex = ChainComplex(self.ring, mods, diffs, check=False)
        return self._complex


def tensor_complex(X: ChainComplex, Y: ChainComplex) -> ChainComplex:
    return TensorLayout(X, Y).complex()


def tensor_chain_maps(f: ChainMap, g: ChainMap,
                      source: TensorLayout | None = None,
                      target: TensorLayout | None = None) -> ChainMap:
    """f (x) g on the tensor complexes."""
    if source is None:
        source = TensorLayout(f.source, g.source)
    if target is None:
        target = TensorLayout(f.target, g.target)
    return ChainMap(source.complex(), target.complex(),
                    tensor_module_maps(f.parts, g.parts, source, target),
                    check=False)


def tensor_module_maps(f: Sequence[ModuleMap], g: Sequence[ModuleMap],
                       source: TensorLayout, target: TensorLayout
                       ) -> list[ModuleMap]:
    """The components of f (x) g for graded maps given degree by degree.

    ``f[i]`` maps X_i to X'_i and ``g[j]`` maps Y_j to Y'_j for the factors
    of ``source`` and ``target``; they need not commute with the
    differentials.  The (i, j) block is f[i] (x) g[j], well defined
    because both factors are.
    """
    ring = source.ring
    comps = []
    for n in range(max(source.top, target.top) + 1):
        spairs = source.pairs(n)
        tpairs = target.pairs(n)
        row_sizes = [target.X.module(i).generators * target.Y.module(j).generators
                     for i, j in tpairs]
        col_sizes = [source.X.module(i).generators * source.Y.module(j).generators
                     for i, j in spairs]
        blocks = {}
        for sidx, (i, j) in enumerate(spairs):
            if (i, j) in tpairs:
                tidx = tpairs.index((i, j))
                blocks[(tidx, sidx)] = f[i].action.kron(g[j].action)
        action = Matrix.assemble(ring, row_sizes, col_sizes, blocks)
        comps.append(ModuleMap(source.module(n), target.module(n), action,
                               check=False))
    return comps


def braiding(X: ChainComplex, Y: ChainComplex) -> ChainMap:
    """The symmetry X (x) Y -> Y (x) X with its Koszul sign (-1)^{ij}."""
    src = TensorLayout(X, Y)
    tgt = TensorLayout(Y, X)
    ring = src.ring
    comps = []
    for n in range(src.top + 1):
        total_s = src.module(n).generators
        total_t = tgt.module(n).generators
        rows = [[0] * total_s for _ in range(total_t)]
        for (i, j) in src.pairs(n):
            gx = X.module(i).generators
            gy = Y.module(j).generators
            sign = -1 if (i * j) % 2 else 1
            for a in range(gx):
                for b in range(gy):
                    rows[tgt.address(n, j, b, a)][src.address(n, i, a, b)] = sign
        comps.append(ModuleMap(src.module(n), tgt.module(n),
                               Matrix(ring, total_t, total_s, rows), check=False))
    return ChainMap(src.complex(), tgt.complex(), comps, check=False)


def interval_cylinder(X: ChainComplex, I: ChainComplex
                      ) -> tuple[TensorLayout, ChainMap, ChainMap, ChainMap]:
    """X (x) I with the two end inclusions i0, i1 and the projection r.

    The interval generators are ordered (e0, e1) in degree 0 and (e) in
    degree 1 with d e = e1 - e0, so i0 includes at e0 and r collapses the
    cylinder by sending both ends to x and the middle to 0.

    All three are chain maps by construction: d(x (x) e_k) = dx (x) e_k
    because d e_k = 0, and r kills d(x (x) e) = dx (x) e
    +- (x (x) e1 - x (x) e0) because it sends both ends to x.
    """
    lay = TensorLayout(X, I)
    cyl = lay.complex()
    ring = X.ring
    i0_parts, i1_parts, r_parts = [], [], []
    for n in range(lay.top + 1):
        gx = X.module(n).generators
        total = lay.module(n).generators
        inj0 = [[0] * gx for _ in range(total)]
        inj1 = [[0] * gx for _ in range(total)]
        proj = [[0] * total for _ in range(gx)]
        if n <= X.top:
            for a in range(gx):
                inj0[lay.address(n, n, a, 0)][a] = 1
                inj1[lay.address(n, n, a, 1)][a] = 1
                proj[a][lay.address(n, n, a, 0)] = 1
                proj[a][lay.address(n, n, a, 1)] = 1
        i0_parts.append(ModuleMap(X.module(n), lay.module(n),
                                  Matrix(ring, total, gx, inj0), check=False))
        i1_parts.append(ModuleMap(X.module(n), lay.module(n),
                                  Matrix(ring, total, gx, inj1), check=False))
        r_parts.append(ModuleMap(lay.module(n), X.module(n),
                                 Matrix(ring, gx, total, proj), check=False))
    i0 = ChainMap(X, cyl, i0_parts, check=False)
    i1 = ChainMap(X, cyl, i1_parts, check=False)
    r = ChainMap(cyl, X, r_parts, check=False)
    return lay, i0, i1, r


def cylinder_map(f: ChainMap, g: ChainMap,
                 H: Sequence[ModuleMap]) -> ChainMap:
    """The map X (x) I -> Y of a homotopy H from f to g.

    G(x (x) e0) = f(x), G(x (x) e1) = g(x), G(x (x) e) = (-1)^{|x|} H(x),
    with the cylinder of interval_cylinder(X, interval(ring)); H_n is the
    component X_n -> Y_{n+1}.
    """
    X, Y = f.source, f.target
    lay = TensorLayout(X, interval(X.ring))
    parts = []
    for m in range(lay.top + 1):
        rows = Y.module(m).generators
        cols = lay.module(m).generators
        out = [[0] * cols for _ in range(rows)]
        for (i, j) in lay.pairs(m):
            off = lay.offset(m, i)
            gx = X.module(i).generators
            if j == 0:
                fb = f.component(i).action
                gb = g.component(i).action
                for a in range(rows):
                    for b in range(gx):
                        out[a][off + 2 * b] = fb[a, b]
                        out[a][off + 2 * b + 1] = gb[a, b]
            else:
                hb = H[i].action
                sign = -1 if i % 2 else 1
                for a in range(rows):
                    for b in range(gx):
                        out[a][off + b] = sign * hb[a, b]
        parts.append(ModuleMap(lay.module(m), Y.module(m),
                               Matrix(X.ring, rows, cols, out), check=False))
    return ChainMap(lay.complex(), Y, parts)
