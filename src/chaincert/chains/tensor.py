"""Tensor product of complexes with the Koszul sign rule.

Degree n of X (x) Y is the direct sum of X_i (x) Y_j over i + j = n,
summands ordered by ascending i; within a summand the generator pair
(a, b) sits at index a * gens(Y_j) + b.  The differential is
d(x (x) y) = d(x) (x) y + (-1)^{|x|} x (x) d(y).

``TensorLayout`` computes each degree's summands and their offsets once.
Each degree's relations, its differential and each component of
f (x) g are one ``Matrix.kron_blocks`` call, which writes every
Kronecker block straight into the degree's matrix, with identity factors
given by their size (an identity map of ``tensor_module_maps`` is given
as None): no identity factor, no single block and no zero block is ever
built.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap, PresentedModule, tensor_sum_module
from .build import interval
from .complexes import ChainComplex, ChainMap


# one degree of a layout: its summands (i, n - i) by ascending i, their
# generator counts, the position of each summand by its i, and the
# generator offset of each position
Degree = tuple[tuple[tuple[int, int], ...], list[int], dict[int, int],
               list[int]]


class TensorLayout:
    """Summand bookkeeping for X (x) Y, shared by every construction
    that needs to address individual bidegree blocks.

    Each degree's summands, their sizes and their offsets are computed
    once, on first use, and kept."""

    def __init__(self, X: ChainComplex, Y: ChainComplex):
        if X.ring != Y.ring:
            raise ValueError("tensor factors must share their ring")
        self.X = X
        self.Y = Y
        self.ring = X.ring
        self.top = X.top + Y.top
        self._degrees: dict[int, Degree] = {}
        self._modules: dict[int, PresentedModule] = {}
        self._complex: ChainComplex | None = None

    def _degree(self, n: int) -> Degree:
        """(pairs, sizes, index, starts) of degree n, built on first use."""
        layout = self._degrees.get(n)
        if layout is None:
            lo = max(0, n - self.Y.top)
            hi = min(n, self.X.top)
            pairs = tuple((i, n - i) for i in range(lo, hi + 1))
            sizes = [self.X.module(i).generators * self.Y.module(j).generators
                     for i, j in pairs]
            layout = (pairs, sizes, {i: p for p, (i, _) in enumerate(pairs)},
                      [0, *accumulate(sizes)])
            self._degrees[n] = layout
        return layout

    def pairs(self, n: int) -> tuple[tuple[int, int], ...]:
        return self._degree(n)[0]

    def module(self, n: int) -> PresentedModule:
        total = self._modules.get(n)
        if total is None:
            total = tensor_sum_module(
                self.ring, [(self.X.module(i), self.Y.module(j))
                            for i, j in self.pairs(n)])
            self._modules[n] = total
        return total

    def offset(self, n: int, i: int) -> int:
        _, _, index, starts = self._degree(n)
        if i not in index:
            raise KeyError(f"pair ({i},{n - i}) absent in degree {n}")
        return starts[index[i]]

    def address(self, n: int, i: int, a: int, b: int) -> int:
        gy = self.Y.module(n - i).generators
        return self.offset(n, i) + a * gy + b

    def differential(self, n: int) -> ModuleMap:
        """d_X (x) 1 + (-1)^i 1 (x) d_Y on each summand X_i (x) Y_j."""
        spairs, col_sizes, _, _ = self._degree(n)
        _, row_sizes, tindex, _ = self._degree(n - 1)
        X, Y = self.X, self.Y
        terms = []
        for s, (i, j) in enumerate(spairs):
            if i - 1 in tindex:
                terms.append((tindex[i - 1], s, 1, X.differential(i).action,
                              Y.module(j).generators))
            if i in tindex:
                terms.append((tindex[i], s, -1 if i % 2 else 1,
                              X.module(i).generators, Y.differential(j).action))
        action = Matrix.kron_blocks(self.ring, row_sizes, col_sizes, terms)
        return ModuleMap(self.module(n), self.module(n - 1), action,
                         check=False)

    def complex(self) -> ChainComplex:
        if self._complex is None:
            mods = [self.module(n) for n in range(self.top + 1)]
            diffs = [self.differential(n) for n in range(1, self.top + 1)]
            self._complex = ChainComplex(self.ring, mods, diffs, check=False)
        return self._complex


# the `tensor` command refuses a pair once a degree of X (x) Y would have
# more generators than this.  For X, Y of ranks (9, 8, 7, 8) and
# (17, 26, 12, 11) over Z the largest degree has 513 generators, and
# `tensor` takes 0.2 s and writes 2.1 MB; ranks (56, 68, 63, 35) and
# (9, 6, 5, 4) reach 1257 and take 1.2 s, write 12 MB and peak at 140 MB
# RSS (one run each, two shared vCPUs, Python 3.11).
MAX_CHAIN_TENSOR_GENERATORS = 512


def tensor_complex(X: ChainComplex, Y: ChainComplex) -> ChainComplex:
    return TensorLayout(X, Y).complex()


def tensor_size_problem(X: ChainComplex, Y: ChainComplex) -> str | None:
    """Why X (x) Y may not be built, or None.

    Degree n has sum_i gens(X_i) gens(Y_{n-i}) generators, counted
    without building anything.
    """
    rank, n = max((sum(X.module(i).generators * Y.module(n - i).generators
                       for i in range(n + 1)), n)
                  for n in range(X.top + Y.top + 1))
    if rank <= MAX_CHAIN_TENSOR_GENERATORS:
        return None
    return (f"degree {n} of X (x) Y would have {rank} generators, more "
            f"than {MAX_CHAIN_TENSOR_GENERATORS}")


def tensor_module_maps(f: Sequence[ModuleMap] | None,
                       g: Sequence[ModuleMap] | None,
                       source: TensorLayout, target: TensorLayout
                       ) -> list[ModuleMap]:
    """The components of f (x) g for graded maps given degree by degree.

    ``f[i]`` maps X_i to X'_i and ``g[j]`` maps Y_j to Y'_j for the factors
    of ``source`` and ``target``; they need not commute with the
    differentials.  The (i, j) block is f[i] (x) g[j], well defined
    because both factors are.  A factor given as None is the identity,
    of a complex that ``source`` and ``target`` share, and enters each
    block by its size.
    """
    X, Y = source.X, source.Y
    comps = []
    for n in range(max(source.top, target.top) + 1):
        spairs, col_sizes, _, _ = source._degree(n)
        _, row_sizes, tindex, _ = target._degree(n)
        action = Matrix.kron_blocks(
            source.ring, row_sizes, col_sizes,
            [(tindex[i], s, 1,
              X.module(i).generators if f is None else f[i].action,
              Y.module(j).generators if g is None else g[j].action)
             for s, (i, j) in enumerate(spairs) if i in tindex])
        comps.append(ModuleMap(source.module(n), target.module(n), action,
                               check=False))
    return comps


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
