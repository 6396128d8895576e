"""The shuffle and front-back comparison maps of the tensor normalization.

EZ sends x (x) y in bidegree (p, q) to the signed sum over (p, q)-shuffles
of paired degeneracies; AW sends a level element to the sum of its front
face tensor back face.  Both read the levels sparsely: a composite of
degeneracies is one surjection sigma, an index map on coordinates, and
each of the two faces is one operator.  Both are chain maps for any
simplicial modules (Eilenberg-Zilber), so they are built unchecked; the
ez-aw suite checks that theorem explicitly on its cases.  AW o EZ is the
identity on the nose, so EZ is degreewise split with the chain retraction
AW, and the homotopy from EZ o AW to the identity is a contraction of
coker EZ (`cokernel_contraction`, the entry point for split maps), built
degree by degree on the target of EZ alone; both facts are verified
exactly on every instance.

That contraction is also the decision that EZ is a homotopy equivalence:
`find_ez_aw_homotopy`, whose homotopy the ez-aw command emits, raises
when there is none.
"""

from __future__ import annotations

from ..chains.complexes import ChainHomotopy, ChainMap
from ..chains.homotopy import homotopy_to_identity
from ..chains.tensor import TensorLayout
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap
from .module import SimplicialModule
from .surjections import from_jumps, shuffles


def ez(A: SimplicialModule, B: SimplicialModule,
       T: SimplicialModule) -> ChainMap:
    """The shuffle map N(A) (x) N(B) -> N(A (x) B).

    x (x) y in bidegree (p, q) goes to the signed sum over shuffles
    (mu, nu) of s_nu x (x) s_mu y.  Degeneracies are index maps, and
    s_nu x (x) s_mu y has the degeneracy positions nu and mu of its two
    factors, which are disjoint, so every term is a non-degenerate
    coordinate of level p + q.  s_nu = sigma^* for the surjection
    sigma : [p + q] ->> [p] that is constant exactly across the positions
    nu, so its jump set is {j + 1 : j in mu}.
    """
    lay = TensorLayout(A.normalized, B.normalized)
    source = lay.complex()
    target = T.normalized
    ring = A.ring
    comps = []
    for n in range(max(source.top, target.top) + 1):
        rows = T.levels.nondegenerate_coords(n)
        index = {r: t for t, r in enumerate(rows)}
        gb = B.levels.rank(n)
        width = source.module(n).generators
        action = [[0] * width for _ in rows]
        col = 0
        # no pairs past the tensor's top, where the source is zero
        for (p, q) in lay.pairs(n):
            cols_a = A.levels.nondegenerate_coords(p)
            cols_b = B.levels.nondegenerate_coords(q)
            for sh in shuffles(p, q):
                left = A.levels.degenerate(
                    p, from_jumps(n, tuple(j + 1 for j in sh.mu)), cols_a)
                right = B.levels.degenerate(
                    q, from_jumps(n, tuple(j + 1 for j in sh.nu)), cols_b)
                j = col
                for x in left:
                    for y in right:
                        action[index[x * gb + y]][j] += sh.sign
                        j += 1
            col += len(cols_a) * len(cols_b)
        comps.append(ModuleMap(source.module(n), target.module(n),
                               Matrix(ring, len(rows), width, action),
                               check=False))
    return ChainMap(source, target, comps, check=False)


def aw(A: SimplicialModule, B: SimplicialModule,
       T: SimplicialModule) -> ChainMap:
    """The front-back map N(A (x) B) -> N(A) (x) N(B).

    The front face d_{p+1} ... d_n is alpha^* for the inclusion
    alpha = (0, ..., p) of [p] into [n], and the back face d_0^{n-q} for
    (n-q, ..., n); each is one operator, read as sparse rows.
    """
    lay = TensorLayout(A.normalized, B.normalized)
    source = T.normalized
    target = lay.complex()
    ring = A.ring
    comps = []
    for n in range(max(source.top, target.top) + 1):
        cols = T.levels.nondegenerate_coords(n)
        index = {c: j for j, c in enumerate(cols)}
        gb = B.levels.rank(n)
        action = []
        # no pairs past the tensor's top, where the target is zero
        for (p, q) in lay.pairs(n):
            front = A.levels.operator_rows(
                n, tuple(range(p + 1)), A.levels.nondegenerate_coords(p))
            back = B.levels.operator_rows(n, tuple(range(n - q, n + 1)),
                                          B.levels.nondegenerate_coords(q))
            for fa in front:
                for fb in back:
                    row = [0] * len(cols)
                    for x, v in fa:
                        for y, w in fb:
                            j = index.get(x * gb + y)
                            if j is not None:
                                row[j] += v * w
                    action.append(row)
        comps.append(ModuleMap(source.module(n), target.module(n),
                               Matrix(ring, len(action), len(cols), action),
                               check=False))
    return ChainMap(source, target, comps, check=False)


def find_ez_aw_homotopy(ez_map: ChainMap, aw_map: ChainMap) -> ChainHomotopy:
    """H with d H + H d = id - EZ o AW on N(A (x) B); must always exist.

    `homotopy_to_identity` checks AW o EZ = id first: with AW a chain
    map, finding no contraction of coker EZ proves there is no H, and the
    one it finds is H, checked on N(A (x) B).
    """
    return homotopy_to_identity(ez_map, aw_map, ("EZ", "AW"))
