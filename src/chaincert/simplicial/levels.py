"""Level data for simplicial modules: faces, degeneracies, coordinates.

Two level models cover every simplicial object in the package: the
denormalization of a chain complex (summands indexed by surjections) and
the levelwise tensor of two models.  Both expose, per level, which
generator coordinates are degenerate and how they lift along a
degeneracy; the normalized complex falls out of that bookkeeping.
"""

from __future__ import annotations

from ..chains.complexes import ChainComplex
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap, PresentedModule, direct_sum, tensor_module
from ..exact.rings import RingSpec
from . import surjections as sj


class GammaLevels:
    """Levels of the denormalization of a bounded complex.

    Level n is the direct sum over surjections eta : [n] ->> [k] of C_k;
    the simplicial operator alpha sends the eta summand into the
    (eta o alpha = iota o eta') summand by the identity when iota is an
    isomorphism, by the differential when iota misses exactly the bottom
    element 0, and by zero otherwise.  That convention is the one for
    which degree n of the normalized complex is the identity summand and
    the face d_0 induces the differential.
    """

    def __init__(self, C: ChainComplex):
        self.C = C
        self.ring = C.ring
        self._mods: dict[int, PresentedModule] = {}
        self._offsets: dict[int, dict[tuple, int]] = {}
        self._ops: dict[tuple, Matrix] = {}

    def summands(self, n: int) -> tuple[tuple, ...]:
        return sj.surjections(n)

    def module(self, n: int) -> PresentedModule:
        if n not in self._mods:
            offsets = {}
            pos = 0
            blocks = []
            for eta in self.summands(n):
                k = sj.degree_of(eta)
                offsets[eta] = pos
                pos += self.C.module(k).generators
                blocks.append(self.C.module(k))
            total, _, _ = direct_sum(blocks) if blocks else (
                PresentedModule.zero(self.ring), [], [])
            self._mods[n] = total
            self._offsets[n] = offsets
        return self._mods[n]

    def offsets(self, n: int) -> dict[tuple, int]:
        self.module(n)
        return self._offsets[n]

    def _structure_matrix(self, n: int, alpha: tuple[int, ...], m: int) -> Matrix:
        """alpha^* : level n -> level m for alpha : [m] -> [n]."""
        key = (n, alpha, m)
        if key in self._ops:
            return self._ops[key]
        src = self.module(n)
        tgt = self.module(m)
        src_off = self.offsets(n)
        tgt_off = self.offsets(m)
        rows = [[0] * src.generators for _ in range(tgt.generators)]
        for eta in self.summands(n):
            k = sj.degree_of(eta)
            g = self.C.module(k).generators
            if g == 0:
                continue
            tau = sj.compose(eta, alpha)
            eta2, image = sj.epi_mono_factor(tau)
            if len(image) == k + 1:
                block = Matrix.identity(self.ring, g)
            elif len(image) == k and image == tuple(range(1, k + 1)):
                block = self.C.differential(k).action
            else:
                continue
            r0 = tgt_off[eta2]
            c0 = src_off[eta]
            for a in range(block.rows):
                for b in range(g):
                    if block[a, b]:
                        rows[r0 + a][c0 + b] = block[a, b]
        out = Matrix(self.ring, tgt.generators, src.generators, rows)
        self._ops[key] = out
        return out

    def face(self, n: int, i: int) -> Matrix:
        return self._structure_matrix(n, sj.coface(n, i), n - 1)

    def degeneracy(self, n: int, j: int) -> Matrix:
        return self._structure_matrix(n, sj.codegeneracy(n, j), n + 1)

    def coordinate_summand(self, n: int, idx: int) -> tuple[tuple, int]:
        for eta in reversed(self.summands(n)):
            off = self.offsets(n)[eta]
            if idx >= off:
                return eta, idx - off
        raise IndexError(idx)

    def degeneracy_positions(self, n: int, idx: int) -> frozenset[int]:
        eta, _ = self.coordinate_summand(n, idx)
        return frozenset(j for j in range(n) if eta[j] == eta[j + 1])

    def degeneracy_lift(self, n: int, idx: int, j: int) -> int:
        eta, a = self.coordinate_summand(n, idx)
        if eta[j] != eta[j + 1]:
            raise ValueError("coordinate is not degenerate at this position")
        lowered = eta[: j + 1] + eta[j + 2:]
        return self.offsets(n - 1)[lowered] + a

    def nondegenerate_coords(self, n: int) -> list[int]:
        off = self.offsets(n)[sj.from_jumps(n, tuple(range(1, n + 1)))]
        return list(range(off, off + self.C.module(n).generators))


class TensorLevels:
    """Levelwise tensor product A_n (x) B_n with diagonal structure maps."""

    def __init__(self, A, B):
        if A.ring != B.ring:
            raise ValueError("ring mismatch")
        self.A = A
        self.B = B
        self.ring = A.ring
        self._mods: dict[int, PresentedModule] = {}
        self._nondegenerate: dict[int, list[int]] = {}

    def module(self, n: int) -> PresentedModule:
        if n not in self._mods:
            self._mods[n] = tensor_module(self.A.module(n), self.B.module(n))
        return self._mods[n]

    def face(self, n: int, i: int) -> Matrix:
        return self.A.face(n, i).kron(self.B.face(n, i))

    def degeneracy(self, n: int, j: int) -> Matrix:
        return self.A.degeneracy(n, j).kron(self.B.degeneracy(n, j))

    def _split(self, n: int, idx: int) -> tuple[int, int]:
        gb = self.B.module(n).generators
        return idx // gb, idx % gb

    def degeneracy_positions(self, n: int, idx: int) -> frozenset[int]:
        a, b = self._split(n, idx)
        return (self.A.degeneracy_positions(n, a)
                & self.B.degeneracy_positions(n, b))

    def degeneracy_lift(self, n: int, idx: int, j: int) -> int:
        a, b = self._split(n, idx)
        a0 = self.A.degeneracy_lift(n, a, j)
        b0 = self.B.degeneracy_lift(n, b, j)
        return a0 * self.B.module(n - 1).generators + b0

    def nondegenerate_coords(self, n: int) -> list[int]:
        """Cached per level; callers only read the list."""
        if n not in self._nondegenerate:
            self._nondegenerate[n] = [
                idx for idx in range(self.module(n).generators)
                if not self.degeneracy_positions(n, idx)]
        return self._nondegenerate[n]


def verify_simplicial_identities(levels, cap: int) -> None:
    """All simplicial identities as exact matrix identities through cap."""
    for n in range(2, cap + 1):
        for i in range(n):
            for j in range(i + 1, n + 1):
                lhs = levels.face(n - 1, i) @ levels.face(n, j)
                rhs = levels.face(n - 1, j - 1) @ levels.face(n, i)
                if lhs != rhs:
                    raise ValueError(f"d_{i} d_{j} identity fails at level {n}")
    for n in range(cap - 1):
        for i in range(n + 2):
            for j in range(i, n + 1):
                lhs = levels.degeneracy(n + 1, i) @ levels.degeneracy(n, j)
                rhs = levels.degeneracy(n + 1, j + 1) @ levels.degeneracy(n, i)
                if lhs != rhs:
                    raise ValueError(f"s_{i} s_{j} identity fails at level {n}")
    for n in range(cap):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = levels.face(n + 1, i) @ levels.degeneracy(n, j)
                if i in (j, j + 1):
                    rhs = Matrix.identity(levels.ring,
                                          levels.module(n).generators)
                elif i < j:
                    rhs = levels.degeneracy(n - 1, j - 1) @ levels.face(n, i)
                else:
                    rhs = levels.degeneracy(n - 1, j) @ levels.face(n, i - 1)
                if lhs != rhs:
                    raise ValueError(f"d_{i} s_{j} identity fails at level {n}")


def normalized_projector(levels, n: int) -> Matrix:
    """P = (1 - s_0 d_1)(1 - s_1 d_2) ... (1 - s_{n-1} d_n) at level n.

    Idempotent onto the normalized part, killing every degeneracy image.
    """
    g = levels.module(n).generators
    P = Matrix.identity(levels.ring, g)
    for i in range(n, 0, -1):
        factor = Matrix.identity(levels.ring, g) - (
            levels.degeneracy(n - 1, i - 1) @ levels.face(n, i))
        P = factor @ P
    return P
